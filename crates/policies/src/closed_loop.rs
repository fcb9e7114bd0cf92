//! The closed control loop: one policy driving one simulation backend.
//!
//! [`ClosedLoop`] is the extracted per-server capping decision the fleet
//! layer builds on: the observe → decide → actuate cycle that used to live
//! inline in the bench harness, generic over
//! [`fastcap_sim::EpochBackend`] so FastCap / Freq-Par / any
//! [`CappingPolicy`] can solve against the exact DES tier or the analytic
//! tier without code changes. Stepping a `ClosedLoop<Server>` is
//! byte-identical to the harness's original
//! `server.run(epochs, |obs| policy.decide(obs).ok())` loop — decide
//! errors map to "no decision" (run at current frequencies), never to a
//! run abort, exactly as before.

use crate::policy::CappingPolicy;
use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_sim::metrics::{EpochReport, RunResult};
use fastcap_sim::{EpochBackend, SimConfig};
use fastcap_trace::{DecisionRecord, LaneRecord, TraceEvent, Tracer};

/// A capping policy wired to a simulation backend, stepped one epoch at a
/// time (fleet use) or run to completion (single-server use).
pub struct ClosedLoop<B: EpochBackend> {
    backend: B,
    policy: Box<dyn CappingPolicy>,
}

impl<B: EpochBackend> ClosedLoop<B> {
    /// Wires `policy` to `backend`. The policy's configured budget is in
    /// force from epoch 0: with no observation yet, the loop asks the
    /// policy for a [`CappingPolicy::bootstrap`] decision solved from its
    /// initial power laws, so model-predictive policies cap the very first
    /// epoch too. Feedback-only policies (no bootstrap) keep the old
    /// contract — epoch 0 runs uncontrolled at maximum frequencies.
    pub fn new(backend: B, policy: Box<dyn CappingPolicy>) -> Self {
        Self { backend, policy }
    }

    /// The backend being driven.
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// The active policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Deterministic operation counts of the whole loop: the backend's
    /// simulation work merged with the policy's decision-path work.
    pub fn cost(&self) -> fastcap_core::cost::CostCounter {
        let mut c = self.backend.cost();
        c.add(&self.policy.decision_cost());
        c
    }

    /// The backend's configuration.
    pub fn config(&self) -> &SimConfig {
        self.backend.config()
    }

    /// Moves the policy's power cap (fleet re-allocations, scenario budget
    /// steps). Learned state is kept; the next decision re-solves against
    /// the new budget.
    ///
    /// # Errors
    ///
    /// Propagates [`CappingPolicy::on_budget_change`] (fraction outside
    /// `(0, 1]`); the loop is unchanged on error.
    pub fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        self.policy.on_budget_change(fraction)
    }

    /// Runs one epoch: observe the last epoch, decide, actuate. A decide
    /// error degrades to "hold current frequencies" — the historical
    /// harness contract — so stepping never fails.
    pub fn step(&mut self) -> EpochReport {
        let decision = match self.backend.observation() {
            Some(obs) => self.policy.decide(&obs).ok(),
            None => self.policy.bootstrap(),
        };
        self.backend.run_epoch(decision.as_ref())
    }

    /// Runs `epochs` epochs and packages the reports.
    pub fn run(&mut self, epochs: usize) -> RunResult {
        self.run_traced(epochs, None)
    }

    /// [`ClosedLoop::run`] with an optional audit-trail tracer: when
    /// `trace` is `Some`, each epoch goes to [`trace_epoch`], timestamped
    /// on the modeled-cost clock ([`ClosedLoop::cost`] deltas priced by
    /// the tracer's weights). Tracing only reads the counters the loop
    /// already maintains, so the [`RunResult`] is byte-identical with
    /// `trace` `Some` or `None`.
    pub fn run_traced(&mut self, epochs: usize, mut trace: Option<&mut Tracer>) -> RunResult {
        let cfg = self.backend.config();
        let (n_cores, sim_epoch_length, peak_power) =
            (cfg.n_cores, cfg.sim_epoch_length(), cfg.peak_power);
        let mut reports = Vec::with_capacity(epochs);
        let mut backend_cost = self.backend.cost();
        let mut policy_cost = self.policy.decision_cost();
        for e in 0..epochs as u64 {
            let obs = self.backend.observation();
            let decision = match &obs {
                Some(o) => self.policy.decide(o).ok(),
                None => self.policy.bootstrap(),
            };
            let report = self.backend.run_epoch(decision.as_ref());
            if let Some(t) = trace.as_deref_mut() {
                let policy_now = self.policy.decision_cost();
                let policy_delta = policy_now.delta_since(&policy_cost);
                policy_cost = policy_now;
                let backend_now = self.backend.cost();
                let backend_delta = backend_now.delta_since(&backend_cost);
                backend_cost = backend_now;
                trace_epoch(
                    t,
                    e,
                    backend_delta,
                    Some((self.policy.as_ref(), policy_delta)),
                    decision.as_ref(),
                    obs.as_ref(),
                    &report,
                );
            }
            reports.push(report);
        }
        RunResult {
            n_cores,
            sim_epoch_length,
            peak_power,
            epochs: reports,
        }
    }
}

/// Appends one closed-loop epoch to `t`'s audit trail: an epoch span on
/// the modeled clock, advanced by the epoch's backend and policy cost
/// deltas; a [`DecisionRecord`] with the overshoot histogram when the
/// policy decided; then the [`LaneRecord`] and the bank-queue gauge.
/// `policy` pairs the policy in force with the decision cost it added
/// this epoch and is `None` for an uncapped run; `observed` is the
/// observation the decision read (`None` before the first epoch). The
/// [`ClosedLoop`] and scenario-runner loops both emit through here.
pub fn trace_epoch(
    t: &mut Tracer,
    epoch: u64,
    backend_delta: CostCounter,
    policy: Option<(&dyn CappingPolicy, CostCounter)>,
    decision: Option<&DvfsDecision>,
    observed: Option<&EpochObservation>,
    report: &EpochReport,
) {
    let (observed_w, bank_queue) =
        observed.map_or((0.0, 0.0), |o| (o.total_power.get(), o.memory.bank_queue));
    let t_start_ns = t.now_ns();
    let mut epoch_delta = backend_delta;
    if let Some((_, policy_delta)) = &policy {
        epoch_delta.add(policy_delta);
    }
    t.advance(&epoch_delta);
    let measured_w = report.total_power.get();
    t.record_at(
        t_start_ns,
        TraceEvent::EpochSpan {
            epoch,
            t_start_ns,
            t_end_ns: t.now_ns(),
            power_w: measured_w,
        },
    );
    if let (Some((p, pd)), Some(d)) = (policy, decision) {
        let budget_w = p.in_force_budget().map(fastcap_core::units::Watts::get);
        t.record(TraceEvent::Decision(DecisionRecord {
            epoch,
            policy: p.name().to_string(),
            budget_w,
            observed_w,
            solver_iters: pd.solver_iters,
            candidates: pd.grid_points + pd.bus_evals,
            core_freqs: d.core_freqs.clone(),
            mem_freq: d.mem_freq,
            predicted_w: d.predicted_power.get(),
            quantized_w: d.quantized_power.get(),
            trim_w: d.budget_trim.get(),
            measured_w,
            slack_w: budget_w.map(|b| b - measured_w),
            budget_bound: d.budget_bound,
            emergency: d.emergency,
            decide_ns: t.price_ns(&pd),
        }));
        t.metrics.counter_add("policy.decisions", 1);
        if let Some(b) = budget_w {
            if b > 0.0 {
                t.metrics.histogram_observe(
                    "policy.overshoot_pct",
                    &[0.0, 1.0, 2.0, 5.0, 10.0, 20.0],
                    (measured_w - b) / b * 100.0,
                );
            }
        }
    }
    t.record(TraceEvent::Lane(LaneRecord {
        epoch,
        prefill_draws: backend_delta.rng_draws,
        refill_fallbacks: backend_delta.lane_syncs,
        barrier_waits: backend_delta.barrier_waits,
    }));
    t.metrics.gauge_set("sim.mem_bank_queue", bank_queue);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::FastCapPolicy;
    use fastcap_sim::{AnalyticServer, Server};
    use fastcap_workloads::mixes;

    fn cfg() -> SimConfig {
        SimConfig::ispass(4).unwrap().with_time_dilation(200.0)
    }

    fn policy(budget: f64) -> Box<dyn CappingPolicy> {
        let cfg = cfg().controller_config(budget).unwrap();
        Box::new(FastCapPolicy::new(cfg).unwrap())
    }

    /// The extracted loop must reproduce an inline observe → decide →
    /// actuate loop exactly, including the epoch-0 bootstrap decision.
    #[test]
    fn matches_inline_policy_loop() {
        let mix = mixes::by_name("MEM3").unwrap();
        let mut inline_policy = FastCapPolicy::new(cfg().controller_config(0.6).unwrap()).unwrap();
        let mut inline_srv = Server::for_workload(cfg(), &mix, 11).unwrap();
        let mut reports = Vec::new();
        for _ in 0..6 {
            let d = match fastcap_sim::EpochBackend::observation(&inline_srv) {
                Some(obs) => inline_policy.decide(&obs).ok(),
                None => inline_policy.bootstrap(),
            };
            reports.push(fastcap_sim::EpochBackend::run_epoch(
                &mut inline_srv,
                d.as_ref(),
            ));
        }
        let server = Server::for_workload(cfg(), &mix, 11).unwrap();
        let got = ClosedLoop::new(server, policy(0.6)).run(6);
        assert_eq!(got.epochs, reports);
        // And epoch 0 actually ran capped: the bootstrap decision holds
        // the first epoch's power near the cap instead of at peak.
        let peak = cfg().peak_power.get();
        assert!(
            got.epochs[0].total_power.get() < 0.9 * peak,
            "epoch 0 ran uncontrolled: {} of peak {peak}",
            got.epochs[0].total_power
        );
    }

    /// Same policy code, analytic tier — the ladder's cheap rung.
    #[test]
    fn drives_the_analytic_backend() {
        let mix = mixes::by_name("MEM3").unwrap();
        let server = AnalyticServer::for_workload(cfg(), &mix, 11).unwrap();
        let mut cl = ClosedLoop::new(server, policy(0.5));
        let r = cl.run(12);
        assert_eq!(r.epochs.len(), 12);
        let budget = cfg().peak_power.get() * 0.5;
        // The settled mean respects the cap (5% controller tolerance).
        let avg = r.avg_power(6).get();
        assert!(avg <= budget * 1.05, "settled mean {avg} > budget {budget}");
        assert!(cl.backend().ops() > 0);
    }

    #[test]
    fn budget_moves_take_effect_and_validate() {
        let mix = mixes::by_name("MID1").unwrap();
        let server = AnalyticServer::for_workload(cfg(), &mix, 5).unwrap();
        let mut cl = ClosedLoop::new(server, policy(0.9));
        for _ in 0..4 {
            cl.step();
        }
        assert!(cl.set_budget_fraction(1.5).is_err());
        cl.set_budget_fraction(0.6).unwrap();
        let mut post = Vec::new();
        for _ in 0..8 {
            post.push(cl.step().total_power.get());
        }
        let settled = post[4..].iter().sum::<f64>() / 4.0;
        let budget = cfg().peak_power.get() * 0.6;
        assert!(settled <= budget * 1.05, "settled {settled} > {budget}");
    }
}
