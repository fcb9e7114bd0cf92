//! Property tests for the scenario engine's determinism contract.
//!
//! The central invariant: an **empty scenario is byte-identical to a plain
//! run** — same RNG draws, same event order, same reports — for any seed,
//! mix, budget and epoch count. Also pinned: events scheduled past the end
//! of the run change nothing, and scenario runs themselves replay
//! identically from the same seed.

use fastcap_policies::{CappingPolicy, FastCapPolicy};
use fastcap_scenario::{Action, Scenario, ScenarioEvent, ScenarioRunner};
use fastcap_sim::{Server, SimConfig};
use fastcap_workloads::mixes;
use proptest::prelude::*;

const MIXES: &[&str] = &["ILP2", "MID1", "MEM2", "MIX3"];

fn quick_cfg() -> SimConfig {
    SimConfig::ispass(16)
        .unwrap()
        .with_time_dilation(200.0)
        .with_meter_noise(0.0)
}

/// A run's exact rendering: `Debug` prints every `f64` round-trip exact
/// and tells `-0.0` from `0.0`, where `PartialEq` would call them equal
/// (and NaN unequal to itself).
fn bytes(r: &fastcap_sim::RunResult) -> String {
    format!("{r:?}")
}

fn scenario_run(
    scenario: &Scenario,
    mix: &str,
    seed: u64,
    budget: f64,
    epochs: usize,
) -> fastcap_sim::RunResult {
    let cfg = quick_cfg();
    let runner = ScenarioRunner::new(scenario, budget).unwrap();
    let mut server =
        Server::for_workload(cfg.clone(), &mixes::by_name(mix).unwrap(), seed).unwrap();
    runner.install(&mut server).unwrap();
    let mut factory = |n_active: usize, b: f64| {
        let ctl = cfg.controller_config_n(b, n_active)?;
        Ok(Box::new(FastCapPolicy::new(ctl)?) as Box<dyn CappingPolicy>)
    };
    runner.run(&mut server, epochs, Some(&mut factory)).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Empty scenario == plain run, byte for byte.
    #[test]
    fn empty_scenario_is_byte_identical_to_plain_run(
        seed in 0u64..1_000_000,
        mix_idx in 0usize..MIXES.len(),
        budget in 0.5f64..0.95,
        epochs in 4usize..10,
    ) {
        let mix = MIXES[mix_idx];
        let cfg = quick_cfg();
        // Plain run, as the bench harness drives it: observe → decide with
        // the epoch-0 bootstrap the harness's ClosedLoop also takes.
        let mut policy = FastCapPolicy::new(cfg.controller_config(budget).unwrap()).unwrap();
        let mut plain =
            Server::for_workload(cfg.clone(), &mixes::by_name(mix).unwrap(), seed).unwrap();
        let mut reports = Vec::new();
        for _ in 0..epochs {
            let d = match fastcap_sim::EpochBackend::observation(&plain) {
                Some(obs) => policy.decide(&obs).ok(),
                None => policy.bootstrap(),
            };
            reports.push(fastcap_sim::EpochBackend::run_epoch(&mut plain, d.as_ref()));
        }
        let r_plain = fastcap_sim::RunResult {
            n_cores: 16,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs: reports,
        };

        let r_scn = scenario_run(&Scenario::empty(16), mix, seed, budget, epochs);
        prop_assert_eq!(bytes(&r_plain), bytes(&r_scn));
    }

    /// Events scheduled entirely past the run's end are invisible.
    #[test]
    fn post_run_events_change_nothing(
        seed in 0u64..1_000_000,
        mix_idx in 0usize..MIXES.len(),
    ) {
        let mix = MIXES[mix_idx];
        let late = Scenario {
            name: "late".into(),
            description: "everything fires after the run ends".into(),
            n_cores: 16,
            events: vec![
                ScenarioEvent { at_epoch: 900, action: Action::BudgetStep { fraction: 0.5 } },
                ScenarioEvent {
                    at_epoch: 901,
                    action: Action::IntensityScale { factor: 10.0, cores: vec![] },
                },
                ScenarioEvent { at_epoch: 902, action: Action::CoresOffline { cores: vec![0] } },
            ],
        };
        let r_empty = scenario_run(&Scenario::empty(16), mix, seed, 0.7, 6);
        let r_late = scenario_run(&late, mix, seed, 0.7, 6);
        prop_assert_eq!(bytes(&r_empty), bytes(&r_late));
    }

    /// A non-trivial scenario replays byte-identically from the same seed.
    #[test]
    fn scenario_runs_are_deterministic(
        seed in 0u64..1_000_000,
        step_epoch in 2u64..6,
    ) {
        let s = Scenario {
            name: "det".into(),
            description: "replay determinism".into(),
            n_cores: 16,
            events: vec![
                ScenarioEvent {
                    at_epoch: step_epoch,
                    action: Action::BudgetStep { fraction: 0.55 },
                },
                ScenarioEvent {
                    at_epoch: step_epoch + 1,
                    action: Action::IntensityScale { factor: 4.0, cores: vec![0, 5] },
                },
            ],
        };
        let a = scenario_run(&s, "MIX3", seed, 0.8, 9);
        let b = scenario_run(&s, "MIX3", seed, 0.8, 9);
        prop_assert_eq!(bytes(&a), bytes(&b));
    }
}
