//! Timed wrappers around the program's layer calls.
//!
//! Each wrapper forwards to the wrapped value unchanged and only adds a
//! span, a `CostCounter` delta and a digest update around the call, so a
//! run through the wrappers gives the same bytes as a run without them
//! (checked by `tests/transparency.rs`).

use crate::prof::{self, Layer};
use crate::tally;
use fastcap_bench::PolicyKind;
use fastcap_core::capper::{DvfsDecision, FastCapConfig, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::units::Watts;
use fastcap_fleet::{report_bips, ModelTier, ServerEpoch, ServerModel};
use fastcap_policies::{CappingPolicy, ClosedLoop};
use fastcap_sim::{AnalyticServer, EpochBackend, EpochReport, RunResult, Server, SimConfig};

/// Calls `f` inside a span of `layer`; while tracing, also attributes the
/// change of `cost` across the call to `layer`.
pub(crate) fn counted<C: ?Sized, T>(
    layer: Layer,
    cost: impl Fn(&C) -> CostCounter,
    this: &mut C,
    f: impl FnOnce(&mut C) -> T,
) -> T {
    if !prof::armed() {
        return f(this);
    }
    let before = cost(this);
    let out = prof::span(layer, || f(this));
    tally::count(layer, &cost(this).delta_since(&before));
    out
}

/// An [`EpochBackend`] whose `run_epoch` is timed as one layer.
pub struct TimedBackend<B> {
    inner: B,
    layer: Layer,
}

impl TimedBackend<Server> {
    /// Times the DES as layer `sim.epoch`.
    #[must_use]
    pub fn des(server: Server) -> Self {
        Self {
            inner: server,
            layer: Layer::SimEpoch,
        }
    }
}

impl TimedBackend<AnalyticServer> {
    /// Times the analytic model as layer `sim.analytic_epoch`.
    #[must_use]
    pub fn analytic(server: AnalyticServer) -> Self {
        Self {
            inner: server,
            layer: Layer::AnalyticEpoch,
        }
    }
}

impl<B: EpochBackend> EpochBackend for TimedBackend<B> {
    fn config(&self) -> &SimConfig {
        self.inner.config()
    }

    fn observation(&self) -> Option<EpochObservation> {
        self.inner.observation()
    }

    fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        let layer = self.layer;
        counted(
            layer,
            |b: &B| b.cost(),
            &mut self.inner,
            |b| b.run_epoch(decision),
        )
    }

    fn ops(&self) -> u64 {
        self.inner.ops()
    }

    fn cost(&self) -> CostCounter {
        self.inner.cost()
    }
}

/// Runs `epochs` uncapped epochs (no DVFS decision, so every core stays
/// at its maximum frequency), the same loop as the harness's baseline.
pub fn run_uncapped<B: EpochBackend>(backend: &mut B, epochs: usize) -> RunResult {
    let reports = (0..epochs).map(|_| backend.run_epoch(None)).collect();
    let cfg = backend.config();
    RunResult {
        n_cores: cfg.n_cores,
        sim_epoch_length: cfg.sim_epoch_length(),
        peak_power: cfg.peak_power,
        epochs: reports,
    }
}

/// A [`CappingPolicy`] whose `decide` is timed as `policies.decide.<name>`.
/// FastCap's decide latencies are kept as end-to-end samples; every
/// returned decision goes into the run digest.
pub struct TimedPolicy {
    inner: Box<dyn CappingPolicy>,
    layer: Layer,
    /// Whether `decide` latencies are end-to-end samples.
    fastcap: bool,
}

impl TimedPolicy {
    /// Wraps `inner`.
    ///
    /// # Panics
    ///
    /// Panics when `inner` is not one of `PolicyKind::SCENARIO_SET`, the
    /// policies the benchmark times.
    #[must_use]
    pub fn new(inner: Box<dyn CappingPolicy>) -> Self {
        let layer = Layer::decide(inner.name()).expect("a 16-core scenario policy");
        let fastcap = inner.name() == PolicyKind::FastCap.name();
        Self {
            inner,
            layer,
            fastcap,
        }
    }
}

impl CappingPolicy for TimedPolicy {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        let (layer, fastcap) = (self.layer, self.fastcap);
        let t0 = prof::cpu_ns();
        let out = counted(
            layer,
            |p: &(dyn CappingPolicy + 'static)| p.decision_cost(),
            self.inner.as_mut(),
            |p| p.decide(obs),
        );
        let ns = u32::try_from(prof::cpu_ns() - t0).unwrap_or(u32::MAX);
        tally::with(|t| {
            if fastcap {
                t.fastcap_decide_ns.push(ns);
            }
            match &out {
                Ok(d) => t.digest.decision(d),
                Err(_) => t.decide_errors += 1,
            }
        });
        out
    }

    fn bootstrap(&mut self) -> Option<DvfsDecision> {
        let d = self.inner.bootstrap();
        if let Some(d) = &d {
            tally::with(|t| t.digest.decision(d));
        }
        d
    }

    fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
        tally::with(|t| t.budget_moves += 1);
        self.inner.on_budget_change(fraction)
    }

    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
        let carried = self.inner.on_active_set_change(carried)?;
        if carried {
            tally::with(|t| t.warm_carries += 1);
        }
        Ok(carried)
    }

    fn decision_cost(&self) -> CostCounter {
        self.inner.decision_cost()
    }

    fn in_force_budget(&self) -> Option<Watts> {
        self.inner.in_force_budget()
    }
}

/// FastCap driven through its two public halves, so each is its own
/// layer: `FastCapController::observe` (fitter update, slack feedback)
/// then `FastCapController::solve_quantized` over the controller's own
/// `candidates()` (Algorithm 1 plus quantization). This is exactly what
/// `FastCapController::decide` does.
pub struct SplitFastCap {
    ctl: FastCapController,
}

impl SplitFastCap {
    /// Builds the controller.
    ///
    /// # Errors
    ///
    /// Propagates configuration validation.
    pub fn new(cfg: FastCapConfig) -> Result<Self> {
        Ok(Self {
            ctl: FastCapController::new(cfg)?,
        })
    }
}

impl CappingPolicy for SplitFastCap {
    fn name(&self) -> &'static str {
        "FastCap"
    }

    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        let cost = |c: &FastCapController| c.cost();
        counted(Layer::Observe, cost, &mut self.ctl, |c| c.observe(obs));
        let candidates = self.ctl.candidates().to_vec();
        counted(Layer::Solve, cost, &mut self.ctl, |c| {
            c.solve_quantized(obs, &candidates)
        })
    }

    fn bootstrap(&mut self) -> Option<DvfsDecision> {
        Some(self.ctl.bootstrap(None))
    }

    fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
        self.ctl.set_budget_fraction(fraction)
    }

    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
        self.ctl = self.ctl.warm_carry(carried)?;
        Ok(true)
    }

    fn decision_cost(&self) -> CostCounter {
        self.ctl.cost()
    }

    fn in_force_budget(&self) -> Option<Watts> {
        Some(self.ctl.config().budget())
    }
}

/// The timed FastCap every workload runs: the split controller inside the
/// timed policy wrapper.
///
/// # Errors
///
/// Propagates configuration validation.
pub fn fastcap(cfg: FastCapConfig) -> Result<Box<dyn CappingPolicy>> {
    Ok(Box::new(TimedPolicy::new(Box::new(SplitFastCap::new(
        cfg,
    )?))))
}

/// A fleet leaf equal to `fastcap_fleet::AnalyticModel` under FastCap: a
/// [`ClosedLoop`] over the analytic model with the timed FastCap, so the
/// leaf's `decide` and epoch are timed. It keeps its epoch reports for the
/// degradation comparison against an uncapped twin.
pub struct TimedLeaf {
    inner: ClosedLoop<TimedBackend<AnalyticServer>>,
    fraction: f64,
    reports: Vec<EpochReport>,
}

impl TimedLeaf {
    /// An analytic server running `mix` under FastCap at `fraction` of
    /// peak, seeded with `seed`.
    ///
    /// # Errors
    ///
    /// Propagates configuration, workload and policy validation.
    pub fn new(
        cfg: SimConfig,
        mix: &fastcap_workloads::WorkloadSpec,
        fraction: f64,
        seed: u64,
    ) -> Result<Self> {
        let policy = fastcap(cfg.controller_config(fraction)?)?;
        let server = AnalyticServer::for_workload(cfg, mix, seed)?;
        Ok(Self {
            inner: ClosedLoop::new(TimedBackend::analytic(server), policy),
            fraction,
            reports: Vec::new(),
        })
    }

    /// The epochs this leaf has stepped, as a run.
    #[must_use]
    pub fn result(&self) -> RunResult {
        let cfg = self.inner.config();
        RunResult {
            n_cores: cfg.n_cores,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs: self.reports.clone(),
        }
    }

    /// Epochs stepped so far.
    #[must_use]
    pub fn steps(&self) -> usize {
        self.reports.len()
    }
}

impl ServerModel for TimedLeaf {
    fn tier(&self) -> ModelTier {
        ModelTier::Analytic
    }

    fn peak_power(&self) -> Watts {
        self.inner.config().peak_power
    }

    fn budget_fraction(&self) -> f64 {
        self.fraction
    }

    fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        self.inner.set_budget_fraction(fraction)?;
        self.fraction = fraction;
        Ok(())
    }

    fn step(&mut self) -> ServerEpoch {
        let sim_epoch = self.inner.config().sim_epoch_length().get();
        let report = prof::span(Layer::LeafStep, || self.inner.step());
        tally::with(|t| t.digest.report(&report));
        let out = ServerEpoch {
            power: report.total_power,
            bips: report_bips(&report, sim_epoch),
        };
        self.reports.push(report);
        out
    }

    fn ops(&self) -> u64 {
        self.inner.backend().ops()
    }

    fn cost(&self) -> CostCounter {
        self.inner.cost()
    }
}
