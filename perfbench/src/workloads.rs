//! The four closed-loop workloads.
//!
//! Each workload is a fixed list of steps derived from the seed. One pass
//! runs every step once, in order; a step starts only when the previous
//! one has finished (one client, one thread, lane width 1, no sweep
//! engine). [`Workload::setup`] builds every server, policy, scenario and
//! tree a pass needs before its first epoch.

use crate::prof::{self, Layer};
use crate::tally;
use crate::timed::{self, counted, run_uncapped, TimedBackend, TimedLeaf, TimedPolicy};
use fastcap_bench::fleet_support::{fleet_spec, FLEET_MIXES, FLEET_SEED_STREAM};
use fastcap_bench::{Opts, PolicyKind};
use fastcap_core::capper::FastCapConfig;
use fastcap_core::error::{Error, Result};
use fastcap_core::seed::derive_seed;
use fastcap_fleet::Fleet;
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_scenario::oracle::{check_run, OracleConfig};
use fastcap_scenario::{generate, FleetScenario, GeneratorConfig, Scenario, ScenarioRunner};
use fastcap_sim::{AnalyticServer, Interleaving, RunResult, Server, SimConfig};
use fastcap_workloads::{mixes, WorkloadSpec};

/// Workload names, in the order `--workload all` runs them.
/// `des-platforms` and `manycore-256-b40` run only by name (see
/// [`DesPlatforms`] and [`Manycore`]).
pub const NAMES: [&str; 3] = ["scn-matrix", "manycore-256", "fleet-settle"];

/// What one step did.
#[derive(Debug, Clone, Copy, Default)]
pub struct Step {
    /// Simulated server-epochs (capped, uncapped and fleet-leaf).
    pub epochs: u64,
    /// Operations attempted: capped runs, or fleet epochs.
    pub attempted: u64,
    /// Operations whose oracle was red or whose `decide` returned `Err`.
    pub failed: u64,
}

/// FastCap's capping quality over one pass.
#[derive(Debug, Clone, Default)]
pub struct Quality {
    /// Settled-epoch power over the in-force budget.
    ratios: Vec<f64>,
    degradations: Vec<f64>,
}

impl Quality {
    /// Adds one settled epoch's power `p` against the in-force budget `b`.
    fn epoch(&mut self, p: f64, b: f64) {
        self.ratios.push(p / b);
    }

    /// The 99th-percentile (nearest rank) settled-epoch power, % of the
    /// budget in force: 100 is exactly at the cap.
    #[must_use]
    pub fn power_p99_pct(&self) -> f64 {
        let mut r = self.ratios.clone();
        r.sort_by(f64::total_cmp);
        let rank = (r.len() * 99).div_ceil(100).max(1);
        r.get(rank - 1).map_or(0.0, |x| 100.0 * x)
    }

    /// Mean and worst per-application degradation.
    #[must_use]
    pub fn degradation(&self) -> (f64, f64) {
        let d = &self.degradations;
        let avg = d.iter().sum::<f64>() / d.len().max(1) as f64;
        (avg, d.iter().copied().fold(0.0, f64::max))
    }

    /// Settled epochs counted.
    #[must_use]
    pub fn settled_epochs(&self) -> usize {
        self.ratios.len()
    }
}

/// A benchmark workload.
pub trait Workload {
    /// Drops the pass set up last, if any.
    fn teardown(&mut self);

    /// Builds every server, policy, scenario and tree of one pass.
    ///
    /// # Errors
    ///
    /// Propagates construction failures.
    fn setup(&mut self) -> Result<()>;

    /// Steps in one pass.
    fn steps(&self) -> usize;

    /// Runs step `i` of the pass set up last, adding FastCap's quality
    /// figures to `q`.
    fn run_step(&mut self, i: usize, q: &mut Quality) -> Step;
}

/// Builds workload `name` for `seed`.
///
/// # Errors
///
/// Returns [`Error::InvalidConfig`] for an unknown name and propagates
/// input generation failures.
pub fn build(name: &str, seed: u64) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "des-platforms" => Box::new(DesPlatforms::new(seed)?),
        "scn-matrix" => Box::new(ScnMatrix::new(seed)?),
        "manycore-256" => Box::new(Manycore::new(
            seed,
            Manycore::platform()?.with_meter_noise(0.0),
            MANY_BUDGET,
        )?),
        "manycore-256-b40" => {
            Box::new(Manycore::new(seed, Manycore::platform()?, MANY_B40_BUDGET)?)
        }
        "fleet-settle" => Box::new(FleetSettle::new(seed)?),
        other => {
            return Err(Error::InvalidConfig {
                what: "workload",
                why: format!(
                    "unknown workload `{other}`; known: {} des-platforms manycore-256-b40",
                    NAMES.join(" ")
                ),
            })
        }
    })
}

fn mix(name: &str) -> Result<WorkloadSpec> {
    mixes::by_name(name).ok_or_else(|| Error::InvalidConfig {
        what: "mix",
        why: format!("unknown mix `{name}`"),
    })
}

/// The timed policy of `kind`: FastCap is split into its observe and
/// solve layers, every other policy is timed as one `decide`.
fn timed_policy(kind: PolicyKind, cfg: FastCapConfig) -> Result<Box<dyn CappingPolicy>> {
    match kind {
        PolicyKind::FastCap => timed::fastcap(cfg),
        _ => Ok(Box::new(TimedPolicy::new(kind.build(cfg)?))),
    }
}

/// Epochs the oracle checks for budget compliance: past the warm-up and
/// outside the settle window after every move.
fn settled(epochs: usize, moves: impl Iterator<Item = u64>, cfg: &OracleConfig) -> Vec<bool> {
    let mut ok: Vec<bool> = (0..epochs).map(|e| e >= cfg.warmup).collect();
    for m in moves {
        let lo = (m as usize).min(epochs);
        let hi = (lo + cfg.settle_window).min(epochs);
        ok[lo..hi].iter_mut().for_each(|f| *f = false);
    }
    ok
}

fn scenario_moves(runner: &ScenarioRunner) -> impl Iterator<Item = u64> + '_ {
    runner
        .budget_moves()
        .iter()
        .map(|&(e, _)| e)
        .chain(runner.mask_moves().iter().map(|&(e, _)| e))
        .chain(runner.server_moves().iter().map(|&(e, _)| e))
}

/// Adds per-app degradations of `run` against its uncapped `twin`, past
/// the oracle warm-up. Cores idle on either side (offline through the
/// window) carry no signal and are skipped.
fn add_degradations(q: &mut Quality, run: &RunResult, twin: &RunResult) {
    let warmup = OracleConfig::default().warmup;
    let (tb, tm) = (twin.throughput(warmup), run.throughput(warmup));
    q.degradations.extend(
        tb.iter()
            .zip(&tm)
            .filter(|(&b, &m)| b > 0.0 && m > 0.0)
            .map(|(&b, &m)| b / m),
    );
}

/// Adds a capped FastCap run's settled-epoch power and its degradations.
fn add_quality(q: &mut Quality, run: &RunResult, twin: &RunResult, runner: &ScenarioRunner) {
    let budgets = runner.budget_trace(run.epochs.len());
    let peak = run.peak_power.get();
    let ok = settled(
        run.epochs.len(),
        scenario_moves(runner),
        &OracleConfig::default(),
    );
    for (e, epoch) in run.epochs.iter().enumerate().filter(|&(e, _)| ok[e]) {
        q.epoch(epoch.total_power.get(), budgets[e] * peak);
    }
    add_degradations(q, run, twin);
}

fn digest(run: &RunResult) {
    tally::with(|t| run.epochs.iter().for_each(|r| t.digest.report(r)));
}

/// Runs the oracle at its default config on a capped run; `true` is red.
fn oracle_red(run: &RunResult, twin: &RunResult, runner: &ScenarioRunner, cfg: &SimConfig) -> bool {
    prof::span(Layer::Oracle, || {
        !check_run(
            run,
            runner,
            cfg.other_power,
            Some(twin),
            &OracleConfig::default(),
        )
        .is_green()
    })
}

fn decide_errors() -> u64 {
    tally::with(|t| t.decide_errors)
}

/// One capped FastCap run and its same-seed uncapped twin, on either
/// backend, as the step of `des-platforms` and `manycore-256`.
struct Pair<B: fastcap_sim::EpochBackend> {
    twin: TimedBackend<B>,
    capped: ClosedLoop<TimedBackend<B>>,
}

fn run_pair<B: fastcap_sim::EpochBackend>(
    pair: &mut Pair<B>,
    epochs: usize,
    runner: &ScenarioRunner,
    q: &mut Quality,
) -> Step {
    let errors = decide_errors();
    prof::next_run();
    let twin = run_uncapped(&mut pair.twin, epochs);
    prof::next_run();
    let run = pair.capped.run(epochs);
    digest(&twin);
    digest(&run);
    let red = oracle_red(&run, &twin, runner, pair.capped.config());
    add_quality(q, &run, &twin, runner);
    Step {
        epochs: 2 * epochs as u64,
        attempted: 1,
        failed: u64::from(red || decide_errors() > errors),
    }
}

/// `des-platforms`: FastCap at a 60 % budget on the full DES over the
/// Fig. 12/13 platform set, one mix per Table III class, at the time
/// dilation `repro` uses in full mode.
///
/// Not one of the listed workloads: three workloads leave room for
/// 40-second runs, which the host's noise needs, and `scn-matrix` also
/// runs the DES. It stays runnable by name for changes to the DES.
pub struct DesPlatforms {
    platforms: Vec<SimConfig>,
    mixes: Vec<(WorkloadSpec, u64)>,
    epochs: usize,
    runners: Vec<ScenarioRunner>,
    pass: Vec<Pair<Server>>,
}

/// Budget fraction of `des-platforms` (Fig. 12/13).
const DES_BUDGET: f64 = 0.6;
/// Epochs per `des-platforms` run: short enough that a pass takes a few
/// seconds, so a run times every step several times.
const DES_EPOCHS: usize = 20;

impl DesPlatforms {
    fn new(seed: u64) -> Result<Self> {
        let full = Opts::default();
        let base = |n| Ok::<_, Error>(SimConfig::ispass(n)?.with_time_dilation(full.dilation()));
        let platforms = vec![
            base(16)?,
            base(64)?,
            base(16)?.out_of_order(),
            base(16)?.with_controllers(4, Interleaving::Skewed { decay: 0.45 }),
        ];
        // One RNG stream per mix, shared across platforms, as in fig12.
        let mixes = FLEET_MIXES
            .iter()
            .enumerate()
            .map(|(i, name)| Ok((mix(name)?, derive_seed(seed, i as u64))))
            .collect::<Result<_>>()?;
        let runners = platforms
            .iter()
            .map(|c| ScenarioRunner::new(&Scenario::empty(c.n_cores), DES_BUDGET))
            .collect::<Result<_>>()?;
        Ok(Self {
            platforms,
            mixes,
            epochs: DES_EPOCHS,
            runners,
            pass: Vec::new(),
        })
    }
}

impl Workload for DesPlatforms {
    fn teardown(&mut self) {
        self.pass.clear();
    }

    fn setup(&mut self) -> Result<()> {
        self.teardown();
        for cfg in &self.platforms {
            for (mix, seed) in &self.mixes {
                let policy = timed::fastcap(cfg.controller_config(DES_BUDGET)?)?;
                self.pass.push(Pair {
                    twin: TimedBackend::des(Server::for_workload(cfg.clone(), mix, *seed)?),
                    capped: ClosedLoop::new(
                        TimedBackend::des(Server::for_workload(cfg.clone(), mix, *seed)?),
                        policy,
                    ),
                });
            }
        }
        Ok(())
    }

    fn steps(&self) -> usize {
        self.platforms.len() * self.mixes.len()
    }

    fn run_step(&mut self, i: usize, q: &mut Quality) -> Step {
        let runner = &self.runners[i / self.mixes.len()];
        run_pair(&mut self.pass[i], self.epochs, runner, q)
    }
}

/// `manycore-256`: FastCap on the 256-core analytic model, all sixteen
/// mixes, in the configuration `repro scaling` runs at 256 cores: a 60 %
/// budget and a noise-free power meter.
///
/// `manycore-256-b40` keeps the 40 % budget and the default 1 % meter
/// noise. FastCap does not hold that cap (some mixes oscillate around it
/// and the oracle is red on every seed), so its runs count as failed
/// operations and it is not one of the benchmark's listed workloads.
pub struct Manycore {
    cfg: SimConfig,
    budget: f64,
    mixes: Vec<(WorkloadSpec, u64)>,
    runner: ScenarioRunner,
    pass: Vec<Pair<AnalyticServer>>,
}

/// Core count of `manycore-256`.
const MANY_CORES: usize = 256;
/// Budget fraction of `manycore-256`, as in `repro scaling`.
const MANY_BUDGET: f64 = 0.6;
/// Budget fraction of `manycore-256-b40`.
const MANY_B40_BUDGET: f64 = 0.4;
/// Epochs per `manycore-256` run.
const MANY_EPOCHS: usize = 40;

impl Manycore {
    /// The 256-core platform at full-mode dilation and default meter noise.
    fn platform() -> Result<SimConfig> {
        Ok(SimConfig::ispass(MANY_CORES)?.with_time_dilation(Opts::default().dilation()))
    }

    fn new(seed: u64, cfg: SimConfig, budget: f64) -> Result<Self> {
        let mixes = mixes::all()
            .into_iter()
            .enumerate()
            .map(|(i, m)| (m, derive_seed(seed, i as u64)))
            .collect();
        let runner = ScenarioRunner::new(&Scenario::empty(MANY_CORES), budget)?;
        Ok(Self {
            cfg,
            budget,
            mixes,
            runner,
            pass: Vec::new(),
        })
    }
}

impl Workload for Manycore {
    fn teardown(&mut self) {
        self.pass.clear();
    }

    fn setup(&mut self) -> Result<()> {
        self.teardown();
        for (mix, seed) in &self.mixes {
            let analytic = || AnalyticServer::for_workload(self.cfg.clone(), mix, *seed);
            self.pass.push(Pair {
                twin: TimedBackend::analytic(analytic()?),
                capped: ClosedLoop::new(
                    TimedBackend::analytic(analytic()?),
                    timed::fastcap(self.cfg.controller_config(self.budget)?)?,
                ),
            });
        }
        Ok(())
    }

    fn steps(&self) -> usize {
        self.mixes.len()
    }

    fn run_step(&mut self, i: usize, q: &mut Quality) -> Step {
        run_pair(&mut self.pass[i], MANY_EPOCHS, &self.runner, q)
    }
}

/// `scn-matrix`: the `repro matrix` cells the CI smoke runs — the two
/// default generated scenarios (generator seed 42, `repro`'s default) ×
/// MID1 and MEM2 — under the six 16-core policies, plus each cell's
/// uncapped baseline, on the 16-core DES at B0 = 80 % and quick-mode
/// dilation. Four cells keep a pass under two seconds, so a run times
/// every step about twenty times.
/// The benchmark seed drives every cell's workload draws. The scenario set
/// stays fixed because scenarios generated from the benchmark seed made
/// the degradation and throughput figures differ by 13–37 % between seeds.
pub struct ScnMatrix {
    cfg: SimConfig,
    epochs: usize,
    cells: Vec<(ScenarioRunner, WorkloadSpec, u64)>,
    pass: Vec<Option<Cell>>,
}

/// A cell's servers: the baseline's, and each policy's with its initial
/// policy.
struct Cell {
    baseline: Server,
    capped: Vec<(PolicyKind, Server, Box<dyn CappingPolicy>)>,
}

/// Budget fraction in force at epoch 0 of every matrix cell.
const SCN_BUDGET: f64 = 0.8;
/// Scenarios `repro matrix` generates by default.
const SCN_SCENARIOS: u64 = 2;
/// Seed stream base `repro matrix` generates scenarios on.
const SCN_GEN_STREAM: u64 = 1 << 32;
/// Mixes of the CI matrix smoke.
const SCN_MIXES: [&str; 2] = ["MID1", "MEM2"];

impl ScnMatrix {
    fn new(seed: u64) -> Result<Self> {
        let quick = Opts {
            quick: true,
            ..Opts::default()
        };
        let cfg = SimConfig::ispass(16)?.with_time_dilation(quick.dilation());
        let epochs = quick.epochs();
        let gen_cfg = GeneratorConfig::for_run(16, epochs);
        let mixes = SCN_MIXES
            .iter()
            .map(|m| mix(m))
            .collect::<Result<Vec<_>>>()?;
        let mut cells = Vec::new();
        for k in 0..SCN_SCENARIOS {
            let scenario = generate(&gen_cfg, derive_seed(quick.seed, SCN_GEN_STREAM + k));
            let runner = ScenarioRunner::new(&scenario, SCN_BUDGET)?;
            for mix in &mixes {
                let stream = cells.len() as u64;
                cells.push((runner.clone(), mix.clone(), derive_seed(seed, stream)));
            }
        }
        Ok(Self {
            cfg,
            epochs,
            cells,
            pass: Vec::new(),
        })
    }

    /// One `ScenarioRunner::run` of cell `i`; its self time is DES time.
    fn run(
        &self,
        i: usize,
        mut server: Server,
        factory: Option<&mut fastcap_scenario::PolicyFactory<'_>>,
    ) -> Result<RunResult> {
        let runner = &self.cells[i].0;
        let epochs = self.epochs;
        prof::next_run();
        let out = counted(
            Layer::ScenarioRun,
            |s: &Server| s.cost(),
            &mut server,
            |s| runner.run(s, epochs, factory),
        );
        let events = scenario_moves(runner)
            .filter(|&e| e < epochs as u64)
            .count();
        tally::with(|t| {
            t.control_events += events as u64;
            if prof::armed() {
                t.scenario_epochs += epochs as u64;
            }
        });
        out
    }
}

impl Workload for ScnMatrix {
    fn teardown(&mut self) {
        self.pass.clear();
    }

    fn setup(&mut self) -> Result<()> {
        self.teardown();
        for (runner, mix, seed) in &self.cells {
            let server = || -> Result<Server> {
                let mut s = Server::for_workload(self.cfg.clone(), mix, *seed)?;
                runner.install(&mut s)?;
                Ok(s)
            };
            let cfg = self.cfg.controller_config_n(SCN_BUDGET, runner.n_cores())?;
            let capped = PolicyKind::SCENARIO_SET
                .into_iter()
                .map(|kind| Ok((kind, server()?, timed_policy(kind, cfg.clone())?)))
                .collect::<Result<_>>()?;
            self.pass.push(Some(Cell {
                baseline: server()?,
                capped,
            }));
        }
        Ok(())
    }

    fn steps(&self) -> usize {
        self.cells.len()
    }

    fn run_step(&mut self, i: usize, q: &mut Quality) -> Step {
        let cell = self.pass[i].take().expect("setup before run_step");
        let mut step = Step {
            epochs: (1 + cell.capped.len() as u64) * self.epochs as u64,
            attempted: cell.capped.len() as u64,
            failed: 0,
        };
        let baseline = self.run(i, cell.baseline, None);
        if let Ok(base) = &baseline {
            digest(base);
        }
        for (kind, server, policy) in cell.capped {
            let errors = decide_errors();
            // The policy built at set-up serves epoch 0; hotplug rebuilds
            // (policies without warm carry) build afresh.
            let mut initial = Some(policy);
            let cfg = &self.cfg;
            let mut factory = |n_active: usize, budget: f64| match initial.take() {
                Some(p) => Ok(p),
                None => timed_policy(kind, cfg.controller_config_n(budget, n_active)?),
            };
            let red = match (self.run(i, server, Some(&mut factory)), &baseline) {
                (Ok(run), Ok(base)) => {
                    digest(&run);
                    let runner = &self.cells[i].0;
                    if kind == PolicyKind::FastCap {
                        add_quality(q, &run, base, runner);
                    }
                    oracle_red(&run, base, runner, cfg)
                }
                _ => true,
            };
            step.failed += u64::from(red || decide_errors() > errors);
        }
        step
    }
}

/// `fleet-settle`: a fleet of 16-core FastCap leaves on the analytic
/// model (canonical tree and mix rotation), driven through the checked-in
/// `fleet_settle` scenario from an 85 % budget. Each leaf has a same-seed
/// uncapped twin stepped alongside it for the degradation figures.
pub struct FleetSettle {
    seed: u64,
    dilation: f64,
    epochs: usize,
    scenario: FleetScenario,
    /// Fleet epochs past the warm-up and outside every event's settle
    /// window.
    settled: Vec<bool>,
    pass: Option<FleetPass>,
}

struct FleetPass {
    fleet: Fleet<TimedLeaf>,
    twins: Vec<(TimedBackend<AnalyticServer>, RunResult)>,
}

/// The checked-in scenario the `fleet_settle` artifact runs.
const FLEET_SCENARIO: &str = include_str!("../../scenarios/fleet/fleet_settle.json");
/// Racks × servers per rack × cores per server, as in `fleet_settle`.
const FLEET_SHAPE: (usize, usize, usize) = (4, 16, 16);
/// Budget fraction in force at epoch 0.
const FLEET_BUDGET: f64 = 0.85;

impl FleetSettle {
    fn new(seed: u64) -> Result<Self> {
        let scenario =
            FleetScenario::from_json(FLEET_SCENARIO).map_err(|why| Error::InvalidConfig {
                what: "fleet scenario",
                why,
            })?;
        let full = Opts::default();
        let moves = scenario.events.iter().map(|e| e.at_epoch);
        let settled = settled(full.epochs(), moves, &OracleConfig::default());
        Ok(Self {
            seed: derive_seed(seed, FLEET_SEED_STREAM),
            dilation: full.dilation(),
            epochs: full.epochs(),
            scenario,
            settled,
            pass: None,
        })
    }
}

impl Workload for FleetSettle {
    fn teardown(&mut self) {
        self.pass = None;
    }

    fn setup(&mut self) -> Result<()> {
        self.teardown();
        let (racks, per_rack, n_cores) = FLEET_SHAPE;
        let cfg = SimConfig::ispass(n_cores)?.with_time_dilation(self.dilation);
        let mut twins = Vec::new();
        let fleet = Fleet::new(
            &fleet_spec(racks, per_rack, n_cores),
            &self.scenario,
            FLEET_BUDGET,
            self.seed,
            &mut |leaf, seed, fraction| {
                let m = mix(&leaf.mix)?;
                let mut twin =
                    TimedBackend::analytic(AnalyticServer::for_workload(cfg.clone(), &m, seed)?);
                let run = run_uncapped(&mut twin, 0);
                twins.push((twin, run));
                TimedLeaf::new(cfg.clone(), &m, fraction, seed)
            },
        )?;
        self.pass = Some(FleetPass { fleet, twins });
        Ok(())
    }

    fn steps(&self) -> usize {
        self.epochs
    }

    fn run_step(&mut self, i: usize, q: &mut Quality) -> Step {
        let pass = self.pass.as_mut().expect("setup before run_step");
        let errors = decide_errors();
        prof::next_run();
        let out = counted(
            Layer::FleetEpoch,
            |f: &Fleet<TimedLeaf>| f.total_cost(),
            &mut pass.fleet,
            |f| f.run(1),
        );
        let mut step = Step {
            attempted: 1,
            ..Step::default()
        };
        // Step each leaf's twin once for every epoch the leaf stepped.
        for (l, (twin, run)) in pass.twins.iter_mut().enumerate() {
            let behind = pass.fleet.leaf_model(l).steps() - run.epochs.len();
            let more = run_uncapped(twin, behind);
            digest(&more);
            run.epochs.extend(more.epochs);
            step.epochs += 2 * behind as u64;
        }
        let red = match out {
            Ok(run) => {
                tally::with(|t| run.epochs.iter().for_each(|e| t.digest.fleet_epoch(e)));
                if self.settled[i] {
                    run.epochs
                        .iter()
                        .for_each(|e| q.epoch(e.power_w, e.committed_w));
                }
                !run.violations.is_empty()
            }
            Err(_) => true,
        };
        step.failed = u64::from(red || decide_errors() > errors);
        if i + 1 == self.epochs {
            for (l, (_, twin)) in pass.twins.iter().enumerate() {
                add_degradations(q, &pass.fleet.leaf_model(l).result(), twin);
            }
        }
        step
    }
}
