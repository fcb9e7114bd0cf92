//! `scn_hotplug`: re-balance latency when cores appear or vanish
//! (scenario engine). The default scenario (`scenarios/scn_hotplug.json`)
//! power-gates cores 0–3 at epoch 14 and brings them back at epoch 28.
//! At each transition the model-predictive policies warm-carry the
//! surviving cores' fitted power models onto the new online set, while
//! Freq-Par, which declines, is rebuilt for it — the measured quantity is
//! how many epochs each policy needs to re-concentrate the unchanged
//! machine budget onto 12 cores, and how badly it overshoots when 4 cold
//! cores return.

use crate::harness::{resolve_scenario, run_scenario, Opts, PolicyKind};
use crate::sweep::Sweep;
use crate::table::{f3, pct, ResultTable};
use fastcap_core::error::Result;
use fastcap_scenario::ScenarioRunner;
use fastcap_workloads::mixes;

/// The checked-in default scenario.
const DEFAULT_SCENARIO: &str = include_str!("../../../../scenarios/scn_hotplug.json");

/// Budget fraction in force throughout.
const BUDGET: f64 = 0.6;

/// Re-balance target: the policy has re-concentrated the budget once
/// epoch power is back above this fraction of the cap.
const REBALANCE_TARGET: f64 = 0.95;

/// Violation tolerance above the cap.
const TOLERANCE: f64 = 0.02;

/// Runs the experiment. Sweep: one point per policy on a **shared** RNG
/// stream (every policy loses and regains the same four cores of the same
/// sampled MIX3 trace).
///
/// # Errors
///
/// Propagates harness and scenario failures.
pub fn run(opts: &Opts) -> Result<Vec<ResultTable>> {
    let cfg = opts.sim_config(16)?;
    let mix = mixes::by_name("MIX3").expect("MIX3 exists");
    let scenario = resolve_scenario(opts, DEFAULT_SCENARIO)?;
    let runner = ScenarioRunner::new(&scenario, BUDGET)?;
    let epochs = opts.epochs();

    let mut sweep = Sweep::new();
    for &kind in &PolicyKind::SCENARIO_SET {
        let (cfg, mix, runner) = (&cfg, &mix, &runner);
        sweep.push_with_stream(0, move |ctx| {
            run_scenario(cfg, mix, Some(kind), runner, epochs, ctx.seed)
        });
    }
    let runs = sweep.run(opts)?;
    let peak = cfg.peak_power.get();
    let budget = BUDGET * peak;

    // Hotplug windows from the compiled mask schedule: first move takes
    // cores away, second brings them back.
    let moves = runner.mask_moves();
    let off_at = moves
        .first()
        .map_or(epochs, |&(e, _)| (e as usize).min(epochs));
    let on_at = moves
        .get(1)
        .map_or(epochs, |&(e, _)| (e as usize).min(epochs));

    let mut t = ResultTable::new(
        "scn_hotplug",
        format!(
            "Hotplug: 4 of 16 cores offline at epoch {off_at}, back at epoch {on_at} \
             (MIX3, B = {}%): re-balance latency per policy",
            (BUDGET * 100.0).round()
        ),
        &[
            "policy",
            "rebalance epochs (offline)",
            "offline avg power / budget",
            "offline throughput vs pre",
            "return overshoot",
            "return settle epochs",
        ],
    );
    for (kind, r) in PolicyKind::SCENARIO_SET.iter().zip(&runs) {
        let power = |e: usize| r.epochs[e].total_power.get();
        // Offline window: epochs until the policy has pushed the 12
        // remaining cores back up to the (unchanged) cap.
        let rebalance = (off_at..on_at)
            .position(|e| power(e) >= budget * REBALANCE_TARGET)
            .unwrap_or(on_at - off_at);
        let off_avg = (off_at..on_at).map(power).sum::<f64>() / (on_at - off_at).max(1) as f64;
        // Throughput the survivors retain vs the full-machine pre window.
        // Guarded: a `--scenario` override that offlines cores before the
        // warm-up skip leaves an empty pre window (sum 0) and must not
        // publish inf/NaN.
        let pre: f64 = r.throughput_in(opts.skip(), off_at).iter().sum();
        let off: f64 = r.throughput_in(off_at + 2, on_at).iter().sum();
        let retained = if pre > 0.0 {
            f3(off / pre)
        } else {
            "n/a".to_string()
        };
        // Return window: worst overshoot and settle time after 4 cold
        // cores rejoin the 12 survivors.
        let ret: Vec<f64> = (on_at..epochs).map(power).collect();
        let overshoot = ret
            .iter()
            .map(|&p| (p - budget) / budget)
            .fold(0.0f64, f64::max);
        let settle = ret
            .iter()
            .rposition(|&p| p > budget * (1.0 + TOLERANCE))
            .map_or(0, |i| i + 1);
        t.push_row(vec![
            kind.name().to_string(),
            rebalance.to_string(),
            f3(off_avg / budget),
            retained,
            pct(overshoot),
            settle.to_string(),
        ]);
    }

    let mut trace = ResultTable::new(
        "scn_hotplug_trace",
        "Normalized power over time through the hotplug cycle (MIX3, 16 cores)",
        &{
            let mut cols = vec!["epoch"];
            cols.extend(PolicyKind::SCENARIO_SET.iter().map(|k| k.name()));
            cols
        },
    );
    for e in 0..epochs {
        let mut row = vec![e.to_string()];
        row.extend(
            runs.iter()
                .map(|r| f3(r.epochs[e].total_power.get() / peak)),
        );
        trace.push_row(row);
    }
    Ok(vec![t, trace])
}
