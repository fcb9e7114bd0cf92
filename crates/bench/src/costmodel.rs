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
//! total modeled ns for a canonical probe set. `repro costgate` re-counts
//! every probe against the checked-in expectations (±5%) and re-hashes
//! the three timing artifacts against [`TIMING_GOLDENS`] — so an
//! accidental extra solver iteration fails CI even though no wall clock
//! was read.

use crate::harness::{synthetic_controller_config, synthetic_observation, Opts, PolicyKind};
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

/// Relative tolerance of the expectation gate: modeled cost drifting more
/// than this from `COST_MODEL.json` fails `repro costgate`.
pub const GATE_TOLERANCE: f64 = 0.05;

/// Golden FNV-1a hashes of the modeled timing artifacts
/// (`repro tab1 overhead scaling --quick --seed 42`, any `--jobs`).
/// Shared between the golden byte-equality test and `repro costgate`.
pub const TIMING_GOLDENS: &[(&str, u64)] = &[
    ("overhead.csv", 0xf9da_6b83_c20f_b211),
    ("overhead.json", 0xa2dd_622d_24da_314d),
    ("scaling.csv", 0xa6fb_bf2c_3521_ad2e),
    ("scaling.json", 0x0905_8471_132c_80cb),
    ("tab1_fastcap.csv", 0x852e_a297_64e5_eb8e),
    ("tab1_fastcap.json", 0x0441_b098_967b_e552),
    ("tab1_maxbips.csv", 0xcca7_0008_739d_019d),
    ("tab1_maxbips.json", 0xc0ba_2abe_6b6a_8cdf),
    ("tab1_theory.csv", 0x411e_88d2_9d99_aef9),
    ("tab1_theory.json", 0xb0cc_6af8_8345_085a),
];

/// FNV-1a, 64-bit — the repo's standard artifact fingerprint (same
/// parameters as the golden test suite).
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
    /// counts with the weights, accumulated in fixed [`OPS`] order so the
    /// float result is bit-stable.
    #[must_use]
    pub fn modeled_ns(&self, c: &CostCounter) -> f64 {
        let counts = c.as_array();
        let mut total = 0.0;
        for (&count, &w) in counts.iter().zip(self.ns.iter()) {
            total += count as f64 * w;
        }
        total
    }
}

/// One checked-in expectation: the modeled cost of a canonical probe.
#[derive(Debug, Clone, PartialEq)]
pub struct Expectation {
    /// Probe name (must match a [`probe_specs`] / [`sim_probe`] label).
    pub name: String,
    /// Expected total modeled ns at calibration time.
    pub total_ns: f64,
}

/// The parsed `COST_MODEL.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct CostModel {
    /// Fitted per-op weights.
    pub weights: CostWeights,
    /// Canonical-probe expectations the cost gate checks against.
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
/// Calibration fits weights from these probes' wall clocks; the cost gate
/// re-counts them against the checked-in expectations; the timing
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

/// Counts the decision-path operations of `reps` decides (after a
/// 3-decide warm-up) for one probe. Pure counting — no clock is read —
/// so the result is host-, jobs- and queue-invariant.
///
/// # Errors
///
/// Propagates policy construction / decide failures.
pub fn decide_counter(kind: PolicyKind, n_cores: usize, reps: u32) -> Result<CostCounter> {
    let mut p = probe_policy(kind, n_cores)?;
    let obs = synthetic_observation(n_cores);
    for _ in 0..3 {
        p.decide(&obs)?;
    }
    let before = p.decision_cost();
    for _ in 0..reps {
        p.decide(&obs)?;
    }
    Ok(p.decision_cost().delta_since(&before))
}

/// Wall-clock twin of [`decide_counter`]: the same protocol with a timer
/// around the measured reps. Returns `(counter, elapsed ns)`.
///
/// # Errors
///
/// Propagates policy construction / decide failures.
pub fn decide_probe_wall(
    kind: PolicyKind,
    n_cores: usize,
    reps: u32,
) -> Result<(CostCounter, f64)> {
    let mut p = probe_policy(kind, n_cores)?;
    let obs = synthetic_observation(n_cores);
    for _ in 0..3 {
        p.decide(&obs)?;
    }
    let before = p.decision_cost();
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(p.decide(&obs)?);
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    Ok((p.decision_cost().delta_since(&before), elapsed))
}

/// Core counts of the solver-isolating probes. These call
/// [`FastCapController::solve_quantized`] directly (no fitter refits), so
/// the `{solver_iter, bus_eval, quantize_op}` family is observed *without*
/// `fitter_update` riding along — the decorrelation the NNLS fit needs to
/// keep a nonzero solver weight (otherwise the dominant fitter term
/// absorbs the whole decide() wall clock and an injected solver-iteration
/// regression would be invisible to the gate).
pub const SOLVE_CORES: [usize; 5] = [16, 32, 64, 128, 256];

/// Counts the solver-path operations of `reps` bare `solve_quantized`
/// calls after one warm-up observe. Deterministic — no clock.
///
/// # Errors
///
/// Propagates controller construction / solve failures.
pub fn solve_probe_counter(n_cores: usize, reps: u32) -> Result<CostCounter> {
    let mut ctl = FastCapController::new(synthetic_controller_config(n_cores, 0.6)?)?;
    let obs = synthetic_observation(n_cores);
    ctl.observe(&obs);
    let candidates = ctl.candidates().to_vec();
    let before = ctl.cost();
    for _ in 0..reps {
        ctl.solve_quantized(&obs, &candidates)?;
    }
    Ok(ctl.cost().delta_since(&before))
}

/// Wall-clock twin of [`solve_probe_counter`].
///
/// # Errors
///
/// Propagates controller construction / solve failures.
pub fn solve_probe_wall(n_cores: usize, reps: u32) -> Result<(CostCounter, f64)> {
    let mut ctl = FastCapController::new(synthetic_controller_config(n_cores, 0.6)?)?;
    let obs = synthetic_observation(n_cores);
    ctl.observe(&obs);
    let candidates = ctl.candidates().to_vec();
    let before = ctl.cost();
    let start = Instant::now();
    for _ in 0..reps {
        std::hint::black_box(ctl.solve_quantized(&obs, &candidates)?);
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    Ok((ctl.cost().delta_since(&before), elapsed))
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

/// Runs the DES probe and returns its queue/RNG operation counts.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn sim_probe_counter() -> Result<CostCounter> {
    Ok(sim_probe_server()?.cost())
}

fn sim_probe_server() -> Result<Server> {
    let cfg = SimConfig::ispass(16)?.with_time_dilation(200.0);
    let mix = mixes::by_name("MIX1").ok_or(Error::InvalidConfig {
        what: "sim probe",
        why: "mix MIX1 missing".into(),
    })?;
    let mut server = Server::for_workload(cfg, &mix, 42)?;
    server.run(20, |_| None);
    Ok(server)
}

/// Wall-clock twin of [`sim_probe_counter`].
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn sim_probe_wall() -> Result<(CostCounter, f64)> {
    let start = Instant::now();
    let server = sim_probe_server()?;
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    Ok((server.cost(), elapsed))
}

/// Wall-clock water-fill probe: `iters` exact breakpoint divisions over
/// an 8-child node, isolating the `waterfill_pass` weight.
#[must_use]
pub fn waterfill_probe_wall(iters: u64) -> (CostCounter, f64) {
    let demand: Vec<f64> = (0..8).map(|i| 40.0 + 17.0 * i as f64).collect();
    let lo = vec![10.0; 8];
    let hi = vec![180.0; 8];
    let start = Instant::now();
    for _ in 0..iters {
        std::hint::black_box(fastcap_fleet::divide(640.0, &demand, &lo, &hi));
    }
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    (
        CostCounter {
            waterfill_passes: iters,
            ..Default::default()
        },
        elapsed,
    )
}

/// Wall-clock lane-machinery probe: `rounds` isolated lane-stream
/// barrier/refill cycles ([`fastcap_sim::lane_calibration_probe`]),
/// isolating the `{lane_sync, barrier_wait}` weights. Inside the full DES
/// probe those ops scale with epoch count exactly like the event-queue
/// ops, so without this probe the fit collapses their weight into
/// `event_push` and a lane-sync count regression would price at 0 ns.
#[must_use]
pub fn lane_probe_wall(rounds: u64) -> (CostCounter, f64) {
    let start = Instant::now();
    let (lane_syncs, barrier_waits) =
        std::hint::black_box(fastcap_sim::lane_calibration_probe(rounds));
    let elapsed = start.elapsed().as_secs_f64() * 1e9;
    (
        CostCounter {
            lane_syncs,
            barrier_waits,
            ..Default::default()
        },
        elapsed,
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

/// All deterministic expectation probes — decide probes, solver-isolating
/// probes, the DES probe — as `(name, counter)` rows. This is the probe
/// set `repro costgate` checks and `repro calibrate` writes expectations
/// for; the two must agree, so both call this.
///
/// # Errors
///
/// Propagates probe failures.
pub fn expectation_counters() -> Result<Vec<(String, CostCounter)>> {
    let mut v = Vec::new();
    for (name, kind, n, reps) in probe_specs() {
        v.push((name, decide_counter(kind, n, reps)?));
    }
    for n in SOLVE_CORES {
        v.push((
            format!("solve/FastCap/{n}"),
            solve_probe_counter(n, DECIDE_REPS)?,
        ));
    }
    v.push((SIM_PROBE.into(), sim_probe_counter()?));
    Ok(v)
}

/// The wall-clock probe matrix: every expectation probe re-run with a
/// timer, plus the calibration-only water-fill probe. Returns
/// `(name, counter, measured ns)` rows.
///
/// # Errors
///
/// Propagates probe failures.
pub fn wall_probes() -> Result<Vec<(String, CostCounter, f64)>> {
    let mut rows = Vec::new();
    for (name, kind, n, reps) in probe_specs() {
        let (c, ns) = decide_probe_wall(kind, n, reps)?;
        rows.push((name, c, ns));
    }
    for n in SOLVE_CORES {
        let (c, ns) = solve_probe_wall(n, DECIDE_REPS)?;
        rows.push((format!("solve/FastCap/{n}"), c, ns));
    }
    let (c, ns) = sim_probe_wall()?;
    rows.push((SIM_PROBE.into(), c, ns));
    let (c, ns) = waterfill_probe_wall(20_000);
    rows.push(("calib/waterfill".into(), c, ns));
    let (c, ns) = lane_probe_wall(2_000);
    rows.push(("calib/lanes".into(), c, ns));
    Ok(rows)
}

/// Runs the full wall-clock probe matrix and fits a fresh [`CostModel`]:
/// the `repro calibrate` engine. Expectations are the *modeled* costs of
/// the deterministic probes under the freshly fitted weights, so the
/// gate's reference is exactly what a clean checkout reproduces.
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

/// Runs the cost gate: re-hash the three modeled timing artifacts against
/// [`TIMING_GOLDENS`] (quick mode, seed 42) and re-count every canonical
/// probe against the checked-in expectations (±[`GATE_TOLERANCE`]).
/// Returns the failure messages (empty = gate green).
///
/// # Errors
///
/// Propagates artifact-run and probe failures (distinct from gate
/// failures, which are returned).
pub fn cost_gate(jobs: usize) -> Result<Vec<String>> {
    let model = CostModel::embedded()?;
    let mut failures = Vec::new();

    // 1. Golden byte pins of the modeled artifacts. Per-process dir:
    // concurrent gate runs (e.g. the integration tests) must not race.
    let dir = std::env::temp_dir().join(format!("fastcap_costgate_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let opts = Opts {
        quick: true,
        seed: 42,
        jobs,
        out_dir: dir.clone(),
        ..Opts::default()
    };
    for id in ["tab1", "overhead", "scaling"] {
        for t in crate::experiments::run(id, &opts)? {
            t.write_to(&dir).map_err(|e| Error::InvalidConfig {
                what: "costgate",
                why: format!("write {}: {e}", t.id),
            })?;
        }
    }
    for &(name, want) in TIMING_GOLDENS {
        let bytes = std::fs::read(dir.join(name)).map_err(|e| Error::InvalidConfig {
            what: "costgate",
            why: format!("missing artifact {name}: {e}"),
        })?;
        let have = fnv1a(&bytes);
        if have != want {
            failures.push(format!(
                "{name}: bytes drifted from the golden hash (got {have:#018x}, want {want:#018x})"
            ));
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    // 2. Modeled-cost expectations.
    let current: Vec<(String, f64)> = expectation_counters()?
        .into_iter()
        .map(|(name, c)| (name, model.weights.modeled_ns(&c)))
        .collect();
    for (name, now_ns) in &current {
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
        if !current.iter().any(|(n, _)| n == &e.name) {
            failures.push(format!(
                "{}: checked-in expectation has no matching probe — recalibrate",
                e.name
            ));
        }
    }
    Ok(failures)
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
        let c = sim_probe_counter().unwrap();
        assert!(c.event_pushes > 0 && c.event_pops > 0 && c.rng_draws > 0);
        assert!(
            c.lane_syncs > 0 && c.barrier_waits == 20,
            "the DES probe anchors the lane-sync weights: {c:?}"
        );
        assert_eq!(c, sim_probe_counter().unwrap());
    }
}
