//! Invariant-oracle coverage over the whole artifact set plus the
//! run-level oracle on the checked-in scenarios.
//!
//! The all-artifact pass runs every pre-existing artifact in quick mode
//! (in-process, two-level sharded like `repro all`) and asserts each
//! emitted table is oracle-green at the table level: non-empty, no blank
//! cells, no non-finite numerics. The run-level pass replays the three
//! checked-in `scn_*` scenarios under FastCap and asserts the full
//! invariant set (budget-after-settle, conservation, offline gating,
//! degradation bounds) on the raw runs.

use fastcap_bench::experiments::{self, scn_capstep, scn_flashcrowd, scn_hotplug};
use fastcap_bench::harness::{resolve_scenario, run_scenario, Opts, PolicyKind, ScnArtifactSpec};
use fastcap_scenario::{oracle, ScenarioRunner};

#[test]
fn all_artifacts_are_table_oracle_green() {
    // Every runner once (fig8/fig13 ride with fig7/fig12), quick mode,
    // exactly how `repro all --quick` drives them.
    let ids: Vec<&str> = experiments::ALL
        .iter()
        .copied()
        .filter(|&id| id != "fig8" && id != "fig13")
        .collect();
    let opts = Opts {
        quick: true,
        seed: 42,
        out_dir: std::env::temp_dir().join("fastcap_oracle_all"),
        ..Opts::default()
    };
    let (runs, err) = experiments::run_many(&ids, &opts, |_| {});
    assert!(err.is_none(), "artifact failed: {err:?}");
    assert_eq!(runs.len(), ids.len(), "every artifact must complete");
    let mut tables = 0usize;
    for run in &runs {
        assert!(!run.tables.is_empty(), "{}: no tables", run.id);
        for t in &run.tables {
            let v = t.oracle_violations();
            assert!(v.is_empty(), "{}/{}: {v:?}", run.id, t.id);
            tables += 1;
        }
    }
    // The 23-artifact set currently emits 36+ tables; a collapse in that
    // number means a runner silently stopped publishing.
    assert!(tables >= 31, "only {tables} tables emitted");
}

#[test]
fn checked_in_scenarios_run_oracle_green_under_fastcap() {
    let opts = Opts {
        quick: true,
        seed: 42,
        ..Opts::default()
    };
    let cfg = opts.sim_config(16).unwrap();
    // The scn_* artifacts as they run, plus the diurnal-churn scenario
    // no artifact runs.
    let diurnal = ScnArtifactSpec {
        id: "scn_diurnal_churn",
        scenario_json: include_str!("../../../scenarios/scn_diurnal_churn.json"),
        initial_budget: 0.7,
        mix: "MID3",
    };
    for spec in [
        scn_capstep::SPEC,
        scn_flashcrowd::SPEC,
        scn_hotplug::SPEC,
        diurnal,
    ] {
        let scenario = resolve_scenario(&opts, spec.scenario_json).unwrap();
        let runner = ScenarioRunner::new(&scenario, spec.initial_budget).unwrap();
        let mix = fastcap_workloads::mixes::by_name(spec.mix).unwrap();
        let epochs = opts.epochs();
        let base = run_scenario(&cfg, &mix, None, &runner, epochs, 7).unwrap();
        let capped =
            run_scenario(&cfg, &mix, Some(PolicyKind::FastCap), &runner, epochs, 7).unwrap();
        let report = oracle::check_run(
            &capped,
            &runner,
            cfg.other_power,
            Some(&base),
            &oracle::OracleConfig::default(),
        );
        assert!(report.is_green(), "{}: {:?}", spec.id, report.violations);
    }
}

#[test]
fn matrix_cells_are_oracle_green_at_the_tightened_tolerance() {
    // The ISSUE-level acceptance bar, as a test: every cell of the
    // default scenario matrix — 2 generated scenarios × 16 mixes per
    // policy — must be oracle-green at the tightened default tolerance
    // (2.5%, persistence 2), for every policy in the scenario set. Quick
    // mode keeps the runtime test-sized; the artifact pins full mode.
    let opts = Opts {
        quick: true,
        seed: 42,
        out_dir: std::env::temp_dir().join("fastcap_oracle_matrix"),
        ..Opts::default()
    };
    let spec = experiments::scn_matrix::MatrixSpec::default_spec().unwrap();
    let tables = experiments::scn_matrix::run_matrix(&spec, &opts).unwrap();
    let agg = tables.iter().find(|t| t.id == "scn_matrix").unwrap();
    for row in &agg.rows {
        let (policy, green) = (&row[0], row.last().unwrap());
        assert_eq!(
            green, "32/32",
            "{policy}: not every matrix cell is oracle-green: {green}"
        );
    }
    let cells = tables.iter().find(|t| t.id == "scn_matrix_cells").unwrap();
    for row in &cells.rows {
        assert_eq!(
            row.last().unwrap(),
            "ok",
            "red cell: {}/{}/{}",
            row[0],
            row[1],
            row[2]
        );
    }
}

#[test]
fn bias_fixes_disabled_is_red_at_tight_tolerance_green_at_legacy() {
    // Negative control for the loose-cap bias fix: FastCap with
    // quantize-down and the slack integrator both disabled re-creates
    // the nearest-rounding overshoot on a 90% recovery step — red at
    // the tightened default tolerance, green at the legacy 10% floor
    // that used to absorb it. Proves the tightened oracle has teeth
    // against exactly the bias this family of fixes removes.
    let opts = Opts {
        quick: true,
        seed: 42,
        ..Opts::default()
    };
    let cfg = opts.sim_config(16).unwrap();
    let scenario = fastcap_scenario::Scenario {
        name: "recovery-step".into(),
        description: "budget dip and 90% recovery".into(),
        n_cores: 16,
        events: vec![
            fastcap_scenario::ScenarioEvent {
                at_epoch: 8,
                action: fastcap_scenario::Action::BudgetStep { fraction: 0.6 },
            },
            fastcap_scenario::ScenarioEvent {
                at_epoch: 20,
                action: fastcap_scenario::Action::BudgetStep { fraction: 0.9 },
            },
        ],
    };
    let runner = ScenarioRunner::new(&scenario, 0.9).unwrap();
    let mix = fastcap_workloads::mixes::by_name("MID1").unwrap();
    let epochs = 80;
    let mut server = fastcap_sim::Server::for_workload(cfg.clone(), &mix, 11).unwrap();
    runner.install(&mut server).unwrap();
    let mut factory = |n_active: usize, budget: f64| {
        let mut ctl = cfg.controller_config_n(budget, n_active).unwrap();
        ctl.quantize_down = false;
        ctl.slack_gain = 0.0;
        fastcap_policies::FastCapPolicy::new(ctl)
            .map(|p| Box::new(p) as Box<dyn fastcap_policies::CappingPolicy>)
    };
    let run = runner.run(&mut server, epochs, Some(&mut factory)).unwrap();
    let tight = oracle::check_run(
        &run,
        &runner,
        cfg.other_power,
        None,
        &oracle::OracleConfig::default(),
    );
    assert!(
        tight.violations.iter().any(|v| v.check == "budget"),
        "bias fixes disabled must breach the tightened budget check: {:?}",
        tight.violations
    );
    let legacy = oracle::check_run(
        &run,
        &runner,
        cfg.other_power,
        None,
        &oracle::OracleConfig::legacy(),
    );
    assert!(
        legacy.is_green(),
        "the legacy 10% tolerance used to absorb this bias: {:?}",
        legacy.violations
    );
}

#[test]
fn oracle_flags_a_policyless_run_over_a_tight_cap() {
    // Negative control: an *uncapped* run pretending to be capped at 50%
    // must trip the budget invariant — proving the oracle has teeth on
    // real simulator output, not just synthetic fixtures.
    let opts = Opts {
        quick: true,
        seed: 3,
        ..Opts::default()
    };
    let cfg = opts.sim_config(16).unwrap();
    let scenario = fastcap_scenario::Scenario::empty(16);
    let runner = ScenarioRunner::new(&scenario, 0.5).unwrap();
    let mix = fastcap_workloads::mixes::by_name("ILP1").unwrap();
    let run = run_scenario(&cfg, &mix, None, &runner, 30, 3).unwrap();
    let report = oracle::check_run(
        &run,
        &runner,
        cfg.other_power,
        None,
        &oracle::OracleConfig::default(),
    );
    assert!(
        report
            .violations
            .iter()
            .any(|v| v.message.contains("budget:")),
        "uncapped ILP1 at a 50% cap must violate: {:?}",
        report.violations
    );
}
