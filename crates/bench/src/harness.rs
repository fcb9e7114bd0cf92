//! Shared experiment machinery: baseline/capped run pairs over the
//! [`PolicyKind`] registry (re-exported here), scenario runs, the settle
//! rule of the transient artifacts, and observation synthesis for the
//! algorithm-only probes (Table I, `overhead`, the cost-model probes).
//! The sweep execution engine that shards these runs across `--jobs`
//! worker threads lives in [`crate::sweep`].

use fastcap_core::capper::FastCapConfig;
use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
use fastcap_core::error::{Error, Result};
use fastcap_core::units::{Hz, Secs, Watts};
use fastcap_policies::ClosedLoop;
pub use fastcap_policies::PolicyKind;
use fastcap_scenario::{Scenario, ScenarioRunner};
use fastcap_sim::{RunResult, Server, SimConfig};
use fastcap_workloads::WorkloadSpec;
use std::path::PathBuf;

/// Global experiment options (CLI flags of the `repro` binary).
#[derive(Debug, Clone)]
pub struct Opts {
    /// Shrinks epochs and raises time dilation for fast turnarounds.
    pub quick: bool,
    /// Base RNG seed (each sweep point derives its own — see
    /// [`crate::sweep::derive_seed`]).
    pub seed: u64,
    /// Worker threads for sweep execution (≥ 1). Artifact bytes are
    /// independent of this value; only wall-clock changes.
    pub jobs: usize,
    /// Output directory for CSV/JSON artifacts.
    pub out_dir: PathBuf,
    /// Shared spare-worker pool when several artifacts run concurrently
    /// (two-level `repro all` sharding — see [`crate::sweep::WorkBudget`]).
    /// `None` (the default) gives every sweep its full `jobs` workers.
    pub budget: Option<std::sync::Arc<crate::sweep::WorkBudget>>,
    /// Scenario-file override for the `scn_*` artifacts (`--scenario`).
    /// `None` runs each artifact's checked-in default scenario.
    pub scenario: Option<PathBuf>,
}

impl Default for Opts {
    fn default() -> Self {
        Self {
            quick: false,
            seed: 42,
            jobs: rayon::current_num_threads(),
            out_dir: PathBuf::from("results"),
            budget: None,
            scenario: None,
        }
    }
}

impl Opts {
    /// Epochs per run.
    pub fn epochs(&self) -> usize {
        if self.quick {
            40
        } else {
            100
        }
    }

    /// Warm-up epochs excluded from aggregates.
    pub fn skip(&self) -> usize {
        5
    }

    /// Simulator time dilation.
    pub fn dilation(&self) -> f64 {
        if self.quick {
            100.0
        } else {
            25.0
        }
    }

    /// The standard simulator config for this options set.
    ///
    /// # Errors
    ///
    /// Propagates [`SimConfig::ispass`] validation.
    pub fn sim_config(&self, n_cores: usize) -> Result<SimConfig> {
        Ok(SimConfig::ispass(n_cores)?.with_time_dilation(self.dilation()))
    }
}

/// A baseline/capped run pair for one workload.
#[derive(Debug, Clone)]
pub struct CappedRun {
    /// Uncapped (maximum frequencies) reference run.
    pub baseline: RunResult,
    /// The policy-controlled run.
    pub capped: RunResult,
    /// Absolute budget in force.
    pub budget: Watts,
}

/// Runs the uncapped baseline for a workload.
///
/// # Errors
///
/// Propagates simulator construction failures.
pub fn run_baseline(
    sim_cfg: &SimConfig,
    mix: &WorkloadSpec,
    epochs: usize,
    seed: u64,
) -> Result<RunResult> {
    let mut server = Server::for_workload(sim_cfg.clone(), mix, seed)?;
    Ok(server.run(epochs, |_| None))
}

/// Runs `kind` under `budget_frac` on `mix`, including a matching baseline
/// (same seed, same workload).
///
/// # Errors
///
/// Propagates simulator / policy construction failures.
pub fn run_capped(
    sim_cfg: &SimConfig,
    mix: &WorkloadSpec,
    kind: PolicyKind,
    budget_frac: f64,
    epochs: usize,
    seed: u64,
) -> Result<CappedRun> {
    let baseline = run_baseline(sim_cfg, mix, epochs, seed)?;
    let capped = run_capped_only(sim_cfg, mix, kind, budget_frac, epochs, seed)?;
    let budget = sim_cfg.controller_config(budget_frac)?.budget();
    Ok(CappedRun {
        baseline,
        capped,
        budget,
    })
}

/// Runs only the capped side (reuse a cached baseline when sweeping
/// policies or budgets over the same workload).
///
/// # Errors
///
/// Propagates simulator / policy construction failures.
pub fn run_capped_only(
    sim_cfg: &SimConfig,
    mix: &WorkloadSpec,
    kind: PolicyKind,
    budget_frac: f64,
    epochs: usize,
    seed: u64,
) -> Result<RunResult> {
    let ctl_cfg = sim_cfg.controller_config(budget_frac)?;
    let policy = kind.build(ctl_cfg)?;
    let server = Server::for_workload(sim_cfg.clone(), mix, seed)?;
    // The extracted loop reproduces the historical inline
    // `server.run(epochs, |obs| policy.decide(obs).ok())` byte for byte
    // (pinned by the golden-hash suite) while letting the fleet layer run
    // the same decision cycle against any model tier.
    let mut loop_ = ClosedLoop::new(server, policy);
    match fastcap_trace::hub() {
        None => Ok(loop_.run(epochs)),
        Some(hub) => {
            let mut tracer = hub.tracer();
            let result = loop_.run_traced(epochs, Some(&mut tracer));
            hub.submit(
                format!(
                    "cap/{}/{}/b{budget_frac}/e{epochs}/s{seed}",
                    mix.name,
                    kind.name()
                ),
                tracer,
            );
            Ok(result)
        }
    }
}

/// How an `scn_*` artifact is set up: its embedded scenario, initial
/// budget and mix. Each artifact module exports its one `SPEC`, which its
/// runner, `repro explain` and the oracle tests all read.
#[derive(Debug, Clone, Copy)]
pub struct ScnArtifactSpec {
    /// Artifact id (`scn_capstep`, …).
    pub id: &'static str,
    /// The checked-in default scenario JSON (compile-time embedded).
    pub scenario_json: &'static str,
    /// Budget fraction in force at epoch 0.
    pub initial_budget: f64,
    /// Workload mix the artifact runs.
    pub mix: &'static str,
}

/// Resolves the scenario an `scn_*` artifact runs: the `--scenario` file
/// override when given, otherwise the artifact's checked-in default
/// (embedded at compile time from `scenarios/`). The scenario is linted
/// before it is returned.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for unreadable, malformed or
/// lint-failing scenarios.
pub fn resolve_scenario(opts: &Opts, embedded_default: &str) -> Result<Scenario> {
    let scenario = match &opts.scenario {
        Some(path) => Scenario::load(path),
        None => Scenario::from_json(embedded_default),
    }
    .map_err(|why| Error::InvalidConfig {
        what: "scenario",
        why,
    })?;
    scenario.validate().map_err(|why| Error::InvalidConfig {
        what: "scenario",
        why,
    })?;
    Ok(scenario)
}

/// Runs one policy (or, with `kind = None`, the uncapped baseline) under
/// a compiled scenario: same seed ⇒ same sampled workload, with the
/// scenario's perturbations applied identically.
///
/// # Errors
///
/// Propagates simulator/policy construction and scenario failures.
pub fn run_scenario(
    sim_cfg: &SimConfig,
    mix: &WorkloadSpec,
    kind: Option<PolicyKind>,
    runner: &ScenarioRunner,
    epochs: usize,
    seed: u64,
) -> Result<RunResult> {
    let mut server = Server::for_workload(sim_cfg.clone(), mix, seed)?;
    runner.install(&mut server)?;
    let mut factory;
    let factory: Option<&mut fastcap_scenario::PolicyFactory<'_>> = match kind {
        None => None,
        Some(kind) => {
            factory = move |n_active: usize, budget: f64| {
                kind.build(sim_cfg.controller_config_n(budget, n_active)?)
            };
            Some(&mut factory)
        }
    };
    match fastcap_trace::hub() {
        None => runner.run_traced(&mut server, epochs, factory, None),
        Some(hub) => {
            let mut tracer = hub.tracer();
            let result = runner.run_traced(&mut server, epochs, factory, Some(&mut tracer));
            hub.submit(
                format!(
                    "scn/{}/{}/b{}x{}/e{epochs}/s{seed}",
                    mix.name,
                    kind.map_or("uncapped", PolicyKind::name),
                    runner.initial_budget(),
                    runner.budget_moves().len(),
                ),
                tracer,
            );
            result
        }
    }
}

/// Settling tolerance of the transient artifacts (`scn_capstep`,
/// `scn_hotplug`, `scn_matrix`, `fleet_settle`): power within 2 % above
/// the cap counts as settled.
pub(crate) const SETTLE_TOLERANCE: f64 = 0.02;

/// Whether `power` sits above `cap` by more than [`SETTLE_TOLERANCE`].
pub(crate) fn over_cap(power: f64, cap: f64) -> bool {
    power > cap * (1.0 + SETTLE_TOLERANCE)
}

/// Settle epochs of a window: one past the last epoch whose power is
/// [`over_cap`], or 0 when none is. `power_and_cap` reads each epoch's
/// power and the cap in force over it.
pub(crate) fn settle_epochs<T>(window: &[T], power_and_cap: impl Fn(&T) -> (f64, f64)) -> usize {
    window
        .iter()
        .rposition(|e| {
            let (power, cap) = power_and_cap(e);
            over_cap(power, cap)
        })
        .map_or(0, |i| i + 1)
}

/// Pools per-application degradations from several runs and returns
/// `(average, worst)` — the two bars of Fig. 6/9/10/11/13.
///
/// # Errors
///
/// Returns [`Error::InvalidModel`] when no degradations are supplied.
pub fn avg_worst(degradations: &[f64]) -> Result<(f64, f64)> {
    if degradations.is_empty() {
        return Err(Error::InvalidModel {
            why: "no degradations to pool".into(),
        });
    }
    let avg = degradations.iter().sum::<f64>() / degradations.len() as f64;
    let worst = degradations.iter().cloned().fold(f64::MIN, f64::max);
    Ok((avg, worst))
}

/// Synthesizes a plausible `N`-core observation for algorithm-only probes
/// (Table I, the overhead table, the cost-model probes) — no simulator in
/// the loop, mixed CPU/memory-bound cores.
pub fn synthetic_observation(n_cores: usize) -> EpochObservation {
    let cores = (0..n_cores)
        .map(|i| CoreSample {
            freq: Hz::from_ghz(4.0),
            busy_time_per_instruction: Secs::from_nanos(0.25 + 0.01 * (i % 7) as f64),
            instructions: 1_000_000,
            last_level_misses: match i % 4 {
                0 => 400,
                1 => 2_000,
                2 => 8_000,
                _ => 20_000,
            },
            power: Watts(3.8 + 0.1 * (i % 5) as f64),
        })
        .collect();
    EpochObservation::single(
        cores,
        MemorySample {
            bus_freq: Hz::from_mhz(800.0),
            bank_queue: 1.7,
            bus_queue: 1.4,
            bank_service_time: Secs::from_nanos(27.0),
            power: Watts(30.0),
        },
        Watts(4.5 * n_cores as f64 + 40.0),
    )
}

/// The controller configuration used for synthetic-observation probes.
///
/// # Errors
///
/// Propagates builder validation (never fails for supported `n_cores`).
pub fn synthetic_controller_config(n_cores: usize, budget_frac: f64) -> Result<FastCapConfig> {
    FastCapConfig::builder(n_cores)
        .budget_fraction(budget_frac)
        .build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_workloads::mixes;

    #[test]
    fn opts_quick_vs_full() {
        let q = Opts {
            quick: true,
            ..Opts::default()
        };
        let f = Opts::default();
        assert!(q.epochs() < f.epochs());
        assert!(q.dilation() > f.dilation());
    }

    #[test]
    fn resolve_scenario_prefers_the_override() {
        let embedded = r#"{"name":"embedded","description":"d","n_cores":16,"events":[]}"#;
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        assert_eq!(resolve_scenario(&opts, embedded).unwrap().name, "embedded");
        // Broken embedded JSON surfaces as a config error.
        assert!(resolve_scenario(&opts, "{").is_err());
        // An override path that does not exist fails loudly.
        let opts = Opts {
            scenario: Some(std::path::PathBuf::from("/nonexistent/scn.json")),
            ..Opts::default()
        };
        assert!(resolve_scenario(&opts, embedded).is_err());
    }

    #[test]
    fn scenario_runs_share_the_workload_draw() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let cfg = opts.sim_config(16).unwrap().with_time_dilation(200.0);
        let mix = mixes::by_name("MID1").unwrap();
        let runner = ScenarioRunner::new(&Scenario::empty(16), 0.6).unwrap();
        let base = run_scenario(&cfg, &mix, None, &runner, 8, 3).unwrap();
        let capped = run_scenario(&cfg, &mix, Some(PolicyKind::FastCap), &runner, 8, 3).unwrap();
        assert!(capped.avg_power(2) < base.avg_power(2));
        // Same seed, but epoch 0 is no longer a shared warm-up: the capped
        // run bootstraps a budget-respecting decision from the initial
        // power laws, so its first epoch already draws less power.
        assert!(
            capped.epochs[0].total_power < base.epochs[0].total_power,
            "bootstrap must cap epoch 0: {} vs {}",
            capped.epochs[0].total_power,
            base.epochs[0].total_power
        );
    }

    #[test]
    fn capped_run_end_to_end() {
        let opts = Opts {
            quick: true,
            ..Opts::default()
        };
        let cfg = opts.sim_config(16).unwrap().with_time_dilation(200.0);
        let mix = mixes::by_name("MID1").unwrap();
        let run = run_capped(&cfg, &mix, PolicyKind::FastCap, 0.6, 12, 1).unwrap();
        assert!(run.capped.avg_power(3) < run.baseline.avg_power(3));
        assert!(run.capped.avg_power(3).get() <= run.budget.get() * 1.1);
        let d = run.capped.degradation_vs(&run.baseline, 3).unwrap();
        assert!(d.iter().all(|&x| x > 0.8));
    }

    #[test]
    fn avg_worst_pools() {
        let (a, w) = avg_worst(&[1.0, 1.2, 1.4]).unwrap();
        assert!((a - 1.2).abs() < 1e-12);
        assert!((w - 1.4).abs() < 1e-12);
        assert!(avg_worst(&[]).is_err());
    }

    #[test]
    fn synthetic_observation_shapes() {
        let obs = synthetic_observation(32);
        assert_eq!(obs.cores.len(), 32);
        assert!(obs.total_power.get() > 100.0);
    }
}
