//! The timed wrappers must not change what the program computes: for one
//! seed per workload, runs through the timed policy wrapper, the split
//! FastCap and the timed fleet leaf give byte-identical results to
//! `FastCapPolicy` run through `ClosedLoop`, `ScenarioRunner` and
//! `AnalyticModel` — with span recording armed or not.

use fastcap_bench::fleet_support::{fleet_spec, FLEET_MIXES, FLEET_SEED_STREAM};
use fastcap_bench::PolicyKind;
use fastcap_core::error::Result;
use fastcap_core::seed::derive_seed;
use fastcap_fleet::{AnalyticModel, Fleet, FleetRun, LeafSpec};
use fastcap_policies::{CappingPolicy, ClosedLoop, FastCapPolicy};
use fastcap_scenario::{generate, FleetScenario, GeneratorConfig, Scenario, ScenarioRunner};
use fastcap_sim::{AnalyticServer, EpochBackend, RunResult, Server, SimConfig};
use fastcap_workloads::mixes;
use perfbench::prof;
use perfbench::timed::{self, SplitFastCap, TimedBackend, TimedLeaf, TimedPolicy};

const SEED: u64 = 1;

fn plain(cfg: &SimConfig, budget: f64) -> Box<dyn CappingPolicy> {
    Box::new(FastCapPolicy::new(cfg.controller_config(budget).unwrap()).unwrap())
}

/// The three wrapped variants of FastCap the benchmark can run.
fn wrapped(cfg: &SimConfig, budget: f64) -> Vec<Box<dyn CappingPolicy>> {
    let ctl = || cfg.controller_config(budget).unwrap();
    vec![
        Box::new(TimedPolicy::new(plain(cfg, budget))),
        Box::new(SplitFastCap::new(ctl()).unwrap()),
        timed::fastcap(ctl()).unwrap(),
    ]
}

/// Runs `f` with span recording off and on; both must equal `want`.
fn both_ways<T: PartialEq + std::fmt::Debug>(want: &T, mut f: impl FnMut() -> T) {
    for armed in [false, true] {
        prof::reset(armed);
        let got = f();
        prof::reset(false);
        assert_eq!(&got, want, "armed={armed}");
    }
}

fn closed_loop_case<B: EpochBackend>(
    cfg: &SimConfig,
    budget: f64,
    epochs: usize,
    backend: impl Fn() -> B,
    timed_backend: impl Fn(B) -> TimedBackend<B>,
) {
    let want = ClosedLoop::new(backend(), plain(cfg, budget)).run(epochs);
    for i in 0..wrapped(cfg, budget).len() {
        both_ways(&want, || {
            let p = wrapped(cfg, budget).remove(i);
            ClosedLoop::new(timed_backend(backend()), p).run(epochs)
        });
    }
}

#[test]
fn des_platforms_closed_loop_is_unchanged() {
    let cfg = SimConfig::ispass(16).unwrap().with_time_dilation(25.0);
    let mix = mixes::by_name(FLEET_MIXES[0]).unwrap();
    let seed = derive_seed(SEED, 0);
    let server = || Server::for_workload(cfg.clone(), &mix, seed).unwrap();
    closed_loop_case(&cfg, 0.6, 8, server, TimedBackend::des);
    // The timed backend alone, uncapped: the harness's baseline loop.
    let want = server().run(8, |_| None);
    both_ways(&want, || {
        timed::run_uncapped(&mut TimedBackend::des(server()), 8)
    });
}

#[test]
fn manycore_closed_loop_is_unchanged() {
    let cfg = SimConfig::ispass(256).unwrap().with_time_dilation(25.0);
    let mix = mixes::by_name("MID1").unwrap();
    let seed = derive_seed(SEED, 4);
    let server = |cfg: &SimConfig| AnalyticServer::for_workload(cfg.clone(), &mix, seed).unwrap();
    // `manycore-256` (noise-free meter, 60 %) and `manycore-256-b40`.
    let quiet = cfg.clone().with_meter_noise(0.0);
    closed_loop_case(&quiet, 0.6, 6, || server(&quiet), TimedBackend::analytic);
    closed_loop_case(&cfg, 0.4, 6, || server(&cfg), TimedBackend::analytic);
}

fn scenario_run(
    cfg: &SimConfig,
    runner: &ScenarioRunner,
    seed: u64,
    build: &dyn Fn(f64, usize) -> Result<Box<dyn CappingPolicy>>,
) -> RunResult {
    let mut server =
        Server::for_workload(cfg.clone(), &mixes::by_name("MEM2").unwrap(), seed).unwrap();
    runner.install(&mut server).unwrap();
    let mut factory = |n: usize, budget: f64| build(budget, n);
    runner.run(&mut server, 40, Some(&mut factory)).unwrap()
}

#[test]
fn scn_matrix_scenario_runs_are_unchanged() {
    let cfg = &SimConfig::ispass(16).unwrap().with_time_dilation(100.0);
    let hotplug = Scenario::from_json(include_str!("../../scenarios/scn_hotplug.json")).unwrap();
    let generated = generate(
        &GeneratorConfig::for_run(16, 40),
        derive_seed(SEED, 1 << 32),
    );
    for scenario in [hotplug, generated] {
        let runner = ScenarioRunner::new(&scenario, 0.8).unwrap();
        let seed = derive_seed(SEED, 2);
        for kind in PolicyKind::SCENARIO_SET {
            let ctl = move |b: f64, n: usize| cfg.controller_config_n(b, n);
            let want = scenario_run(cfg, &runner, seed, &|b, n| kind.build(ctl(b, n)?));
            both_ways(&want, || {
                scenario_run(cfg, &runner, seed, &|b, n| {
                    Ok(Box::new(TimedPolicy::new(kind.build(ctl(b, n)?)?)))
                })
            });
            if kind == PolicyKind::FastCap {
                both_ways(&want, || {
                    scenario_run(cfg, &runner, seed, &|b, n| timed::fastcap(ctl(b, n)?))
                });
            }
        }
    }
}

#[test]
fn fleet_settle_leaves_are_unchanged() {
    let scenario =
        FleetScenario::from_json(include_str!("../../scenarios/fleet/fleet_settle.json")).unwrap();
    let spec = fleet_spec(4, 16, 16);
    let seed = derive_seed(SEED, FLEET_SEED_STREAM);
    let cfg = SimConfig::ispass(16).unwrap().with_time_dilation(25.0);
    let epochs = 40;
    let want: FleetRun = Fleet::new(&spec, &scenario, 0.85, seed, &mut |l: &LeafSpec, s, f| {
        AnalyticModel::new(
            cfg.clone(),
            &mixes::by_name(&l.mix).unwrap(),
            &l.policy,
            f,
            s,
        )
    })
    .unwrap()
    .run(epochs)
    .unwrap();
    assert!(want.violations.is_empty());
    // The benchmark steps the fleet one epoch at a time.
    both_ways(&want, || {
        let mut fleet = Fleet::new(&spec, &scenario, 0.85, seed, &mut |l: &LeafSpec, s, f| {
            TimedLeaf::new(cfg.clone(), &mixes::by_name(&l.mix).unwrap(), f, s)
        })
        .unwrap();
        let mut run = FleetRun {
            epochs: Vec::new(),
            traces: Vec::new(),
            violations: Vec::new(),
        };
        for _ in 0..epochs {
            let step = fleet.run(1).unwrap();
            run.epochs.extend(step.epochs);
            run.violations.extend(step.violations);
        }
        run
    });
}
