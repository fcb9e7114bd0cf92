//! Deterministic cost-model timing: counted operations × calibrated
//! ns/op weights (DESIGN.md §10).
//!
//! The timing artifacts (`tab1_*`, `overhead`, the decide-µs column of
//! `scaling`) once published host wall-clock, which made them the sole
//! exemption from the golden-hash determinism contract. This module
//! retired that exemption: every policy decision path counts its
//! operations ([`fastcap_core::cost::CostCounter`]), a one-off
//! calibration run (`repro calibrate`) fits per-operation ns weights from
//! wall-clock probes, and the artifacts publish **modeled** microseconds
//! — counters × checked-in weights — which are byte-identical on any
//! host, at any `--jobs`, under either event-queue implementation. How
//! far the weights sit from this host's clock is perfbench's per-layer
//! `<layer>.wall_over_modeled` (DESIGN.md §10.4).
//!
//! `COST_MODEL.json` (repo root, embedded at compile time like the bench
//! baselines) holds the fitted weights plus per-probe **expectations**:
//! total modeled ns for a canonical probe set. Tier-1 checks modeled
//! timing without reading a clock: `tests/golden.rs` pins the bytes of the
//! three timing artifacts, and `tests/costgate.rs` re-counts every probe
//! against its expectation ([`check_expectations`], ±5%).

use crate::harness::{synthetic_controller_config, synthetic_observation, PolicyKind};
use fastcap_core::capper::FastCapController;
use fastcap_core::cost::{CostCounter, OPS};
use fastcap_core::error::{Error, Result};
use fastcap_core::units::Watts;
use fastcap_policies::CappingPolicy;
use fastcap_sim::{Server, SimConfig};
use fastcap_workloads::mixes;
use std::time::Instant;

/// The checked-in cost model, embedded at compile time so artifact bytes
/// depend only on the repository state (`repro` needs no files at run
/// time). Regenerate with `repro calibrate` and rebuild.
pub const EMBEDDED: &str = include_str!("../../../COST_MODEL.json");

/// Decide() repetitions per modeled probe (after a 3-decide warm-up so
/// fitter state is settled, mirroring the wall-clock protocol).
pub const DECIDE_REPS: u32 = 8;
/// Repetitions for the exhaustive-MaxBIPS probes (each decide walks the
/// full `F^N·M` grid; 3 is plenty for a deterministic count).
pub const MAXBIPS_REPS: u32 = 3;

/// Relative tolerance of the expectation check ([`check_expectations`]):
/// a probe whose modeled cost drifts more than this from its
/// `COST_MODEL.json` expectation fails tier-1 (`tests/costgate.rs`).
pub const GATE_TOLERANCE: f64 = 0.05;

/// FNV-1a, 64-bit — the repo's standard artifact fingerprint: the golden
/// test suites pin artifact bytes with it and perfbench digests with it.
#[must_use]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-operation ns weights, in [`OPS`] order.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// ns attributed to one operation of each class, [`OPS`]-ordered.
    pub ns: [f64; OPS.len()],
}

impl CostWeights {
    /// Total modeled nanoseconds for a counter: the dot product of the
    /// counts with the weights, accumulated in fixed [`OPS`] order
    /// ([`CostCounter::priced_ns`]) so the float result is bit-stable.
    #[must_use]
    pub fn modeled_ns(&self, c: &CostCounter) -> f64 {
        c.priced_ns(&self.ns)
    }
}

/// One checked-in expectation: the modeled cost of a canonical probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Probe name (must match an [`expectation_counters`] label).
    pub name: String,
    /// Expected total modeled ns at calibration time.
    pub total_ns: f64,
}

/// The parsed `COST_MODEL.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fitted per-op weights.
    pub weights: CostWeights,
    /// Canonical-probe expectations [`check_expectations`] compares with.
    pub expectations: Vec<Expectation>,
}

fn bad_model(why: String) -> Error {
    Error::InvalidConfig {
        what: "COST_MODEL.json",
        why,
    }
}

impl CostModel {
    /// Parses a `fastcap-costmodel-v1` document.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] on malformed JSON, a wrong
    /// schema, or a missing operation weight.
    pub fn parse(text: &str) -> Result<Self> {
        let v: serde::Value =
            serde_json::from_str(text).map_err(|e| bad_model(format!("parse: {e}")))?;
        match v.get("schema").and_then(serde::Value::as_str) {
            Some("fastcap-costmodel-v1") => {}
            other => return Err(bad_model(format!("schema {other:?}"))),
        }
        let weights = v
            .get("weights_ns")
            .ok_or_else(|| bad_model("missing weights_ns".into()))?;
        let mut ns = [0.0; OPS.len()];
        for (k, op) in OPS.iter().enumerate() {
            ns[k] = weights
                .get(op)
                .and_then(serde::Value::as_f64)
                .ok_or_else(|| bad_model(format!("missing weight for `{op}`")))?;
            if !(ns[k] >= 0.0 && ns[k].is_finite()) {
                return Err(bad_model(format!("weight for `{op}` is {}", ns[k])));
            }
        }
        let mut expectations = Vec::new();
        if let Some(serde::Value::Array(items)) = v.get("expectations") {
            for e in items {
                let name = e
                    .get("name")
                    .and_then(serde::Value::as_str)
                    .ok_or_else(|| bad_model("expectation without name".into()))?;
                let total_ns = e
                    .get("total_ns")
                    .and_then(serde::Value::as_f64)
                    .ok_or_else(|| bad_model(format!("expectation {name}: no total_ns")))?;
                expectations.push(Expectation {
                    name: name.to_string(),
                    total_ns,
                });
            }
        }
        Ok(Self {
            weights: CostWeights { ns },
            expectations,
        })
    }

    /// Parses the compiled-in `COST_MODEL.json`.
    ///
    /// # Errors
    ///
    /// Propagates [`CostModel::parse`] — a broken checked-in file should
    /// fail every timing artifact loudly.
    pub fn embedded() -> Result<Self> {
        Self::parse(EMBEDDED)
    }

    /// Renders back to the checked-in JSON form (stable key order).
    #[must_use]
    pub fn to_json(&self) -> String {
        let weights: Vec<(String, serde::Value)> = OPS
            .iter()
            .enumerate()
            .map(|(k, op)| (op.to_string(), serde::Value::Float(self.weights.ns[k])))
            .collect();
        let expectations: Vec<serde::Value> = self
            .expectations
            .iter()
            .map(|e| {
                serde::Value::Object(vec![
                    ("name".into(), serde::Value::Str(e.name.clone())),
                    ("total_ns".into(), serde::Value::Float(e.total_ns)),
                ])
            })
            .collect();
        let doc = serde::Value::Object(vec![
            (
                "schema".into(),
                serde::Value::Str("fastcap-costmodel-v1".into()),
            ),
            ("weights_ns".into(), serde::Value::Object(weights)),
            ("expectations".into(), serde::Value::Array(expectations)),
        ]);
        let mut s = serde_json::to_string_pretty(&doc).expect("value serializes");
        s.push('\n');
        s
    }
}

/// The canonical decide-probe set: `(label, policy, n_cores, reps)`.
/// Calibration fits weights from these probes' wall clocks; the
/// expectation check re-counts them against `COST_MODEL.json`; the timing
/// artifacts reuse the same counting protocol so everything stays in one
/// currency.
#[must_use]
pub fn probe_specs() -> Vec<(String, PolicyKind, usize, u32)> {
    let mut v = Vec::new();
    for n in [16usize, 32, 64, 128, 256] {
        v.push((
            format!("decide/FastCap/{n}"),
            PolicyKind::FastCap,
            n,
            DECIDE_REPS,
        ));
    }
    for kind in [
        PolicyKind::CpuOnly,
        PolicyKind::FreqPar,
        PolicyKind::EqlPwr,
        PolicyKind::EqlFreq,
        PolicyKind::MaxBipsBeam,
    ] {
        v.push((format!("decide/{}/16", kind.name()), kind, 16, DECIDE_REPS));
    }
    v.push((
        "decide/MaxBIPS/4".into(),
        PolicyKind::MaxBips,
        4,
        MAXBIPS_REPS,
    ));
    v
}

/// Builds the probe policy for `kind` at `n_cores`. Exhaustive MaxBIPS
/// gets the small-platform peak-power scaling Table I uses (it rejects
/// the default 16-core platform); everything else uses the standard
/// synthetic controller config.
fn probe_policy(kind: PolicyKind, n_cores: usize) -> Result<Box<dyn CappingPolicy>> {
    let cfg = if kind == PolicyKind::MaxBips {
        fastcap_core::capper::FastCapConfig::builder(n_cores)
            .budget_fraction(0.6)
            .peak_power(Watts(4.5 * n_cores as f64 + 46.0))
            .build()?
    } else {
        synthetic_controller_config(n_cores, 0.6)?
    };
    kind.build(cfg)
}

/// One canonical probe, set up and ready: calling it runs exactly the
/// work its expectation counts and returns those counted operations. The
/// counting path ([`expectation_counters`]) calls it bare; `repro
/// calibrate` ([`wall_probes`]) times the same call.
type Probe = Box<dyn FnOnce() -> Result<CostCounter>>;

/// Runs `work` under the wall clock and returns its result with the
/// elapsed ns — the only place the probes read the host clock.
fn timed<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = work();
    (out, start.elapsed().as_secs_f64() * 1e9)
}

/// Sets up one decide probe: the policy after a 3-decide warm-up (so
/// fitter state is settled), whose call runs `reps` more decides.
fn decide_probe(kind: PolicyKind, n_cores: usize, reps: u32) -> Result<Probe> {
    let mut p = probe_policy(kind, n_cores)?;
    let obs = synthetic_observation(n_cores);
    for _ in 0..3 {
        p.decide(&obs)?;
    }
    Ok(Box::new(move || {
        let before = p.decision_cost();
        for _ in 0..reps {
            std::hint::black_box(p.decide(&obs)?);
        }
        Ok(p.decision_cost().delta_since(&before))
    }))
}

/// Counts the decision-path operations of `reps` decides (after a
/// 3-decide warm-up) for one probe. Pure counting — no clock is read —
/// so the result is host-, jobs- and queue-invariant.
///
/// # Errors
///
/// Propagates policy construction / decide failures.
pub fn decide_counter(kind: PolicyKind, n_cores: usize, reps: u32) -> Result<CostCounter> {
    decide_probe(kind, n_cores, reps)?()
}

/// Core counts of the solver-isolating probes. These call
/// [`FastCapController::solve_quantized`] directly (no fitter refits), so
/// the `{solver_iter, bus_eval, quantize_op}` family is observed *without*
/// `fitter_update` riding along — the decorrelation the NNLS fit needs to
/// keep a nonzero solver weight (otherwise the dominant fitter term
/// absorbs the whole decide() wall clock and a solver-iteration
/// regression would price at 0 ns).
pub const SOLVE_CORES: [usize; 5] = [16, 32, 64, 128, 256];

/// Sets up one solver-isolating probe: a controller after one warm-up
/// observe, whose call runs `reps` bare `solve_quantized` calls.
fn solve_probe(n_cores: usize, reps: u32) -> Result<Probe> {
    let mut ctl = FastCapController::new(synthetic_controller_config(n_cores, 0.6)?)?;
    let obs = synthetic_observation(n_cores);
    ctl.observe(&obs);
    let candidates = ctl.candidates().to_vec();
    Ok(Box::new(move || {
        let before = ctl.cost();
        for _ in 0..reps {
            std::hint::black_box(ctl.solve_quantized(&obs, &candidates)?);
        }
        Ok(ctl.cost().delta_since(&before))
    }))
}

/// Modeled microseconds per `decide()` for one probe: the counter of
/// [`decide_counter`] priced by the embedded weights, divided by `reps`.
/// This is the number the `tab1_*`/`overhead`/`scaling` artifacts publish
/// by default — a pure function of counters and checked-in weights.
///
/// # Errors
///
/// Propagates probe failures and a broken embedded model.
pub fn modeled_decide_micros(kind: PolicyKind, n_cores: usize, reps: u32) -> Result<f64> {
    let model = CostModel::embedded()?;
    let c = decide_counter(kind, n_cores, reps)?;
    Ok(model.weights.modeled_ns(&c) / f64::from(reps) / 1_000.0)
}

/// Label of the deterministic DES probe (16-core MIX1, 20 epochs,
/// dilation 200, seed 42) that anchors the event/RNG weights.
pub const SIM_PROBE: &str = "sim/des/MIX1/16x20";

/// Sets up the DES probe, whose call builds the server and runs it: both
/// halves count queue/RNG operations, so both are measured.
fn sim_probe() -> Result<Probe> {
    let cfg = SimConfig::ispass(16)?.with_time_dilation(200.0);
    let mix = mixes::by_name("MIX1").ok_or(Error::InvalidConfig {
        what: "sim probe",
        why: "mix MIX1 missing".into(),
    })?;
    Ok(Box::new(move || {
        let mut server = Server::for_workload(cfg, &mix, 42)?;
        server.run(20, |_| None);
        Ok(server.cost())
    }))
}

/// Wall-clock water-fill probe: `iters` exact breakpoint divisions over
/// an 8-child node, isolating the `waterfill_pass` weight.
fn waterfill_probe_wall(iters: u64) -> (CostCounter, f64) {
    let demand: Vec<f64> = (0..8).map(|i| 40.0 + 17.0 * i as f64).collect();
    let lo = vec![10.0; 8];
    let hi = vec![180.0; 8];
    let ((), ns) = timed(|| {
        for _ in 0..iters {
            std::hint::black_box(fastcap_fleet::divide(640.0, &demand, &lo, &hi));
        }
    });
    (
        CostCounter {
            waterfill_passes: iters,
            ..Default::default()
        },
        ns,
    )
}

/// Wall-clock lane-machinery probe: `rounds` isolated lane-stream
/// barrier/refill cycles ([`fastcap_sim::lane_calibration_probe`]),
/// isolating the `{lane_sync, barrier_wait}` weights. Inside the full DES
/// probe those ops scale with epoch count exactly like the event-queue
/// ops, so without this probe the fit collapses their weight into
/// `event_push` and a lane-sync count regression would price at 0 ns.
fn lane_probe_wall(rounds: u64) -> (CostCounter, f64) {
    let ((lane_syncs, barrier_waits), ns) =
        timed(|| std::hint::black_box(fastcap_sim::lane_calibration_probe(rounds)));
    (
        CostCounter {
            lane_syncs,
            barrier_waits,
            ..Default::default()
        },
        ns,
    )
}

/// Fits non-negative per-op ns weights from `(counter, measured ns)`
/// probe rows by NNLS coordinate descent (200 passes of
/// `w_k = max(0, A_k·(b − Aw + A_k w_k) / A_k·A_k)`). Operations never
/// exercised by any probe keep weight 0.
#[must_use]
pub fn fit_weights(rows: &[(CostCounter, f64)]) -> CostWeights {
    const K: usize = OPS.len();
    let a: Vec<[f64; K]> = rows
        .iter()
        .map(|(c, _)| {
            let counts = c.as_array();
            std::array::from_fn(|k| counts[k] as f64)
        })
        .collect();
    let b: Vec<f64> = rows.iter().map(|&(_, ns)| ns).collect();
    let mut w = [0.0f64; K];
    for _ in 0..200 {
        for k in 0..K {
            let akak: f64 = a.iter().map(|r| r[k] * r[k]).sum();
            if akak <= 0.0 {
                continue;
            }
            let num: f64 = a
                .iter()
                .zip(&b)
                .map(|(r, &bi)| {
                    let pred: f64 = (0..K).map(|j| r[j] * w[j]).sum();
                    r[k] * (bi - pred + r[k] * w[k])
                })
                .sum();
            w[k] = (num / akak).max(0.0);
        }
    }
    CostWeights { ns: w }
}

/// Sets up every expectation probe — decide probes, solver-isolating
/// probes, the DES probe — in `COST_MODEL.json` order, handing each to
/// `visit` with its name right after its set-up, so a timed call runs on
/// the state its own set-up just warmed.
fn for_each_probe(mut visit: impl FnMut(String, Probe) -> Result<()>) -> Result<()> {
    for (name, kind, n, reps) in probe_specs() {
        visit(name, decide_probe(kind, n, reps)?)?;
    }
    for n in SOLVE_CORES {
        visit(format!("solve/FastCap/{n}"), solve_probe(n, DECIDE_REPS)?)?;
    }
    visit(SIM_PROBE.into(), sim_probe()?)
}

/// Every expectation probe's counted operations, as `(name, counter)`
/// rows. [`check_expectations`] compares these with `COST_MODEL.json`
/// (tier-1, `tests/costgate.rs`) and [`calibrate`] writes expectations
/// for them. No clock is read.
///
/// # Errors
///
/// Propagates probe failures.
pub fn expectation_counters() -> Result<Vec<(String, CostCounter)>> {
    let mut v = Vec::new();
    for_each_probe(|name, probe| {
        v.push((name, probe()?));
        Ok(())
    })?;
    Ok(v)
}

/// The wall-clock probe matrix: every expectation probe timed over
/// exactly the call it counts, plus the calibration-only water-fill and
/// lane probes. Returns `(name, counter, measured ns)` rows.
///
/// # Errors
///
/// Propagates probe failures.
pub fn wall_probes() -> Result<Vec<(String, CostCounter, f64)>> {
    let mut rows = Vec::new();
    for_each_probe(|name, probe| {
        let (c, ns) = timed(probe);
        rows.push((name, c?, ns));
        Ok(())
    })?;
    let (c, ns) = waterfill_probe_wall(20_000);
    rows.push(("calib/waterfill".into(), c, ns));
    let (c, ns) = lane_probe_wall(2_000);
    rows.push(("calib/lanes".into(), c, ns));
    Ok(rows)
}

/// Runs the full wall-clock probe matrix and fits a fresh [`CostModel`]:
/// the `repro calibrate` engine. Expectations are the *modeled* costs of
/// the deterministic probes under the freshly fitted weights, so the
/// reference [`check_expectations`] compares with is exactly what a clean
/// checkout reproduces.
///
/// # Errors
///
/// Propagates probe failures.
pub fn calibrate() -> Result<CostModel> {
    let rows: Vec<(CostCounter, f64)> = wall_probes()?
        .into_iter()
        .map(|(_, c, ns)| (c, ns))
        .collect();
    let weights = fit_weights(&rows);
    let expectations = expectation_counters()?
        .into_iter()
        .map(|(name, c)| Expectation {
            total_ns: weights.modeled_ns(&c),
            name,
        })
        .collect();
    Ok(CostModel {
        weights,
        expectations,
    })
}

/// Compares counted probes (normally [`expectation_counters`]) with
/// `model`'s expectations. Returns one message per failure, naming its
/// probe (empty = in tolerance and in sync): a probe whose modeled cost is
/// more than ±[`GATE_TOLERANCE`] off its expectation, a probe without an
/// expectation, and an expectation without a probe.
#[must_use]
pub fn check_expectations(model: &CostModel, probes: &[(String, CostCounter)]) -> Vec<String> {
    let mut failures = Vec::new();
    for (name, c) in probes {
        let now_ns = model.weights.modeled_ns(c);
        match model.expectations.iter().find(|e| &e.name == name) {
            None => failures.push(format!(
                "{name}: no checked-in expectation — run `repro calibrate` and commit"
            )),
            Some(e) => {
                let rel = (now_ns - e.total_ns) / e.total_ns.max(1e-9);
                if rel.abs() > GATE_TOLERANCE {
                    failures.push(format!(
                        "{name}: modeled cost {now_ns:.0} ns vs expected {:.0} ns ({:+.1}%)",
                        e.total_ns,
                        rel * 100.0
                    ));
                }
            }
        }
    }
    for e in &model.expectations {
        if !probes.iter().any(|(n, _)| n == &e.name) {
            failures.push(format!(
                "{}: checked-in expectation has no matching probe — recalibrate",
                e.name
            ));
        }
    }
    failures
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips() {
        let model = CostModel {
            weights: CostWeights {
                ns: std::array::from_fn(|k| k as f64 + 0.25),
            },
            expectations: vec![Expectation {
                name: "decide/FastCap/16".into(),
                total_ns: 1234.5,
            }],
        };
        let back = CostModel::parse(&model.to_json()).unwrap();
        assert_eq!(back, model);
    }

    #[test]
    fn parse_rejects_bad_documents() {
        assert!(CostModel::parse("{").is_err());
        assert!(CostModel::parse(r#"{"schema":"wrong"}"#).is_err());
        assert!(
            CostModel::parse(r#"{"schema":"fastcap-costmodel-v1","weights_ns":{}}"#).is_err(),
            "missing op weights must be rejected"
        );
    }

    #[test]
    fn embedded_model_is_valid() {
        let m = CostModel::embedded().unwrap();
        assert!(m.weights.ns.iter().any(|&w| w > 0.0));
        assert!(!m.expectations.is_empty());
    }

    #[test]
    fn modeled_ns_is_a_dot_product() {
        let w = CostWeights {
            ns: std::array::from_fn(|k| (k + 1) as f64),
        };
        let c = CostCounter::from_array(std::array::from_fn(|k| (k as u64) + 1));
        // sum over k of (k+1)*(k+1)
        let want: f64 = (1..=OPS.len()).map(|x| (x * x) as f64).sum();
        assert!((w.modeled_ns(&c) - want).abs() < 1e-12);
    }

    #[test]
    fn decide_counters_are_repeatable() {
        let a = decide_counter(PolicyKind::FastCap, 16, DECIDE_REPS).unwrap();
        let b = decide_counter(PolicyKind::FastCap, 16, DECIDE_REPS).unwrap();
        assert_eq!(a, b);
        assert!(a.solver_iters > 0 && a.bus_evals > 0 && a.fitter_updates > 0);
    }

    #[test]
    fn nnls_recovers_planted_weights() {
        // Synthetic probes with known weights and disjoint-ish support.
        let truth = CostWeights {
            ns: [2.0, 3.0, 0.5, 10.0, 1.5, 4.0, 0.25, 7.0, 90.0, 5.0, 12.0],
        };
        let mut rows = Vec::new();
        for i in 0..24u64 {
            let c = CostCounter::from_array(std::array::from_fn(|k| {
                1 + (i * (k as u64 + 3)) % 17 + u64::from(k == (i as usize) % OPS.len()) * 40
            }));
            rows.push((c, truth.modeled_ns(&c)));
        }
        let fit = fit_weights(&rows);
        for (k, &op) in OPS.iter().enumerate() {
            assert!(
                (fit.ns[k] - truth.ns[k]).abs() < 1e-6 * truth.ns[k].max(1.0),
                "op {op}: fit {} vs truth {}",
                fit.ns[k],
                truth.ns[k]
            );
        }
    }

    #[test]
    fn sim_probe_counts_queue_work() {
        let c = sim_probe().unwrap()().unwrap();
        assert!(c.event_pushes > 0 && c.event_pops > 0 && c.rng_draws > 0);
        assert!(
            c.lane_syncs > 0 && c.barrier_waits == 20,
            "the DES probe anchors the lane-sync weights: {c:?}"
        );
        assert_eq!(c, sim_probe().unwrap()().unwrap());
    }
}
