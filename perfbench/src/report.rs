//! Turns a [`Measurement`] into named metrics.
//!
//! End-to-end metrics come from untraced runs, per-layer metrics from a
//! traced run. A per-layer metric of a layer a workload does not run
//! reads 0.

use crate::measure::Measurement;
use crate::prof::{self, Layer};
use fastcap_bench::PolicyKind;
use fastcap_core::cost::{CostCounter, OPS};
use std::collections::BTreeMap;

/// One named metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: String,
    /// Value, as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value: if value.is_finite() { value } else { 0.0 },
        unit,
    }
}

/// Mean of `xs` (0 when empty).
#[must_use]
pub fn mean(xs: &[u32]) -> f64 {
    xs.iter().map(|&x| f64::from(x)).sum::<f64>() / xs.len().max(1) as f64
}

/// Nearest-rank percentile `p` (0–100) of `xs`.
#[must_use]
pub fn percentile(xs: &[u32], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_unstable();
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1] as f64
}

/// Peak resident memory of this process, MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Simulated server-epochs per CPU second: each step's shortest CPU time
/// over the passes it ran in, summed, against the epochs of one pass.
/// Every pass repeats the same work, so the fastest is the one least
/// disturbed by the host.
#[must_use]
pub fn epochs_per_s(m: &Measurement) -> f64 {
    let ns: u64 = m
        .step_ns
        .iter()
        .map(|ns| ns.iter().copied().min().unwrap_or(0))
        .sum();
    m.step_epochs.iter().sum::<u64>() as f64 / (ns as f64 / 1e9)
}

/// The end-to-end metrics, in `BENCHMARK.json` order.
#[must_use]
pub fn end_to_end(m: &Measurement) -> Vec<Metric> {
    let decide = &m.decide_ns;
    let (d_avg, d_worst) = m.quality.degradation();
    vec![
        metric(
            "setup_s",
            m.setup_s.iter().copied().fold(f64::INFINITY, f64::min),
            "s",
        ),
        metric("epochs_per_s", epochs_per_s(m), "1/s"),
        metric("decide_mean_us", mean(decide) / 1e3, "us"),
        metric("decide_p90_us", percentile(decide, 90.0) / 1e3, "us"),
        metric("peak_rss_mb", peak_rss_mb(), "MB"),
        metric("power_p99_pct", m.quality.power_p99_pct(), "%"),
        metric("degradation_avg", d_avg, "ratio"),
        metric("degradation_worst", d_worst, "ratio"),
    ]
}

/// Self time, inclusive time and span count of one layer.
#[derive(Debug, Clone, Copy, Default)]
struct Time {
    self_ns: f64,
    incl_ns: f64,
    n: f64,
}

/// The per-layer metrics, in `BENCHMARK.json` order. `weights` prices
/// operation counts (`COST_MODEL.json`) into modeled time.
#[must_use]
pub fn per_layer(m: &Measurement, weights: &[f64; OPS.len()]) -> Vec<Metric> {
    let own = prof::self_times(&m.spans);
    let mut time: BTreeMap<Layer, Time> = BTreeMap::new();
    for (s, &self_ns) in m.spans.iter().zip(&own) {
        let t = time.entry(s.layer).or_default();
        t.self_ns += self_ns as f64;
        t.incl_ns += s.dur_ns() as f64;
        t.n += 1.0;
    }
    let t = |l: Layer| time.get(&l).copied().unwrap_or_default();
    let cost = |l: Layer| m.tally.layers.get(&l).map(|c| c.cost).unwrap_or_default();
    let calls = |l: Layer| m.tally.layers.get(&l).map_or(0.0, |c| c.calls as f64);
    let modeled_us = |c: CostCounter, n: f64| c.priced_ns(weights) / n / 1e3;
    let total = t(Layer::Step).incl_ns;
    let pct = |ns: f64| 100.0 * ns / total;
    let mut out = Vec::new();
    // A wall time per call, its modeled cost and their ratio.
    let timed = |out: &mut Vec<Metric>, wall: &str, layer: &str, us: f64, model: f64| {
        out.push(metric(wall, us, "us"));
        out.push(metric(format!("{layer}.modeled_us"), model, "us"));
        out.push(metric(
            format!("{layer}.wall_over_modeled"),
            us / model,
            "ratio",
        ));
    };

    // sim: on scn-matrix the DES runs inside ScenarioRunner::run, whose
    // self time is the DES time.
    let des_ns = t(Layer::SimEpoch).self_ns + t(Layer::ScenarioRun).self_ns;
    let des_epochs = calls(Layer::SimEpoch) + m.tally.scenario_epochs as f64;
    let mut des_cost = cost(Layer::SimEpoch);
    des_cost.add(&cost(Layer::ScenarioRun));
    let des_us = des_ns / des_epochs / 1e3;
    timed(
        &mut out,
        "sim.epoch_us",
        "sim.epoch",
        des_us,
        modeled_us(des_cost, des_epochs),
    );
    out.push(metric(
        "sim.ns_per_event",
        des_ns / des_cost.event_pops as f64,
        "ns",
    ));
    out.push(metric(
        "sim.events_per_epoch",
        des_cost.event_pops as f64 / des_epochs,
        "count",
    ));
    out.push(metric(
        "sim.lane_syncs_per_epoch",
        des_cost.lane_syncs as f64 / des_epochs,
        "count",
    ));
    let ana = t(Layer::AnalyticEpoch);
    timed(
        &mut out,
        "sim.analytic_epoch_us",
        "sim.analytic_epoch",
        ana.self_ns / ana.n / 1e3,
        modeled_us(cost(Layer::AnalyticEpoch), calls(Layer::AnalyticEpoch)),
    );
    out.push(metric("sim.share_pct", pct(des_ns + ana.self_ns), "%"));

    // core
    for (wall, layer, l) in [
        ("core.observe_us", "core.observe", Layer::Observe),
        ("core.solve_us", "core.solve", Layer::Solve),
    ] {
        let x = t(l);
        timed(
            &mut out,
            wall,
            layer,
            x.self_ns / x.n / 1e3,
            modeled_us(cost(l), calls(l)),
        );
    }
    let solve = cost(Layer::Solve);
    let solves = calls(Layer::Solve);
    out.push(metric(
        "core.solver_iters_per_decide",
        solve.solver_iters as f64 / solves,
        "count",
    ));
    out.push(metric(
        "core.bus_evals_per_decide",
        solve.bus_evals as f64 / solves,
        "count",
    ));
    out.push(metric(
        "core.share_pct",
        pct(t(Layer::Observe).self_ns + t(Layer::Solve).self_ns),
        "%",
    ));

    // policies: decide time is inclusive (FastCap's includes its core
    // children); the layer share counts self time only.
    let mut policies_self = 0.0;
    for kind in PolicyKind::SCENARIO_SET {
        let p = kind.name();
        let l = Layer::decide(p).expect("a scenario-set policy");
        let x = t(l);
        policies_self += x.self_ns;
        timed(
            &mut out,
            &format!("policies.decide_us.{p}"),
            &format!("policies.decide.{p}"),
            x.incl_ns / x.n / 1e3,
            modeled_us(cost(l), calls(l)),
        );
        out.push(metric(
            format!("policies.grid_points_per_decide.{p}"),
            cost(l).grid_points as f64 / calls(l),
            "count",
        ));
        out.push(metric(
            format!("policies.decide_share_pct.{p}"),
            pct(x.incl_ns),
            "%",
        ));
    }
    out.push(metric(
        "policies.budget_moves",
        m.counts.budget_moves as f64,
        "count",
    ));
    out.push(metric(
        "policies.warm_carries",
        m.counts.warm_carries as f64,
        "count",
    ));
    out.push(metric("policies.share_pct", pct(policies_self), "%"));

    // scenario
    let oracle = t(Layer::Oracle);
    out.push(metric(
        "scenario.oracle_us",
        oracle.self_ns / oracle.n / 1e3,
        "us",
    ));
    out.push(metric(
        "scenario.control_events",
        m.counts.control_events as f64,
        "count",
    ));
    out.push(metric("scenario.share_pct", pct(oracle.self_ns), "%"));

    // fleet: the tree is the fleet epoch minus its leaf steps.
    let tree = t(Layer::FleetEpoch);
    let leaf = t(Layer::LeafStep);
    let passes = CostCounter {
        waterfill_passes: cost(Layer::FleetEpoch).waterfill_passes,
        ..CostCounter::default()
    };
    timed(
        &mut out,
        "fleet.tree_self_us",
        "fleet.tree",
        tree.self_ns / tree.n / 1e3,
        modeled_us(passes, calls(Layer::FleetEpoch)),
    );
    out.push(metric(
        "fleet.leaf_step_us",
        leaf.incl_ns / leaf.n / 1e3,
        "us",
    ));
    out.push(metric(
        "fleet.waterfill_passes",
        passes.waterfill_passes as f64 / calls(Layer::FleetEpoch),
        "count",
    ));
    out.push(metric("fleet.leaf_step_share_pct", pct(leaf.incl_ns), "%"));
    out.push(metric(
        "fleet.share_pct",
        pct(tree.self_ns + leaf.self_ns),
        "%",
    ));
    out
}
