//! The scenario interpreter: compiles a [`Scenario`] into (a) timed
//! control events injected into the simulator's timing wheel and (b) an
//! epoch-indexed policy-side schedule (budget moves, active-core masks),
//! then drives the epoch loop.
//!
//! ## Determinism contract
//!
//! Server-side actions ride the existing `(time, FIFO-seq)` event order of
//! the DES engine; policy-side actions apply at fixed epoch indices before
//! that epoch's decision. Nothing depends on wall clock or worker count,
//! so scenario artifacts are byte-identical at any `--jobs` value, and an
//! empty scenario reproduces a plain run byte for byte (pinned by the
//! proptests in this crate).
//!
//! ## Hotplug and the policy
//!
//! The policy is built once, before epoch 0, and re-shapes itself after
//! that. Budget moves go through [`CappingPolicy::on_budget_change`]:
//! learned state survives and the next decision re-solves against the new
//! cap. Active-set changes go through
//! [`CappingPolicy::on_active_set_change`]: every model-predictive policy
//! warm-carries its surviving cores' fitted power models onto the new
//! online set (newcomers start from the initial laws), so the transient
//! isolates budget re-allocation; Freq-Par, whose feedback state has no
//! per-core model, re-scopes its quota to the new online core count. A
//! policy that declines the change fails the run. Observations are
//! projected onto the online cores before each decision and the decision
//! is scattered back (offline cores pinned to the lowest frequency; the
//! simulator power-gates them regardless).

use crate::format::{Action, Scenario};
use fastcap_core::capper::DvfsDecision;
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::{Error, Result};
use fastcap_policies::{trace_epoch, CappingPolicy};
use fastcap_sim::{ControlAction, RunResult, Server};
use fastcap_trace::{TraceEvent, Tracer};
use fastcap_workloads::{spec, AppInstance, PhaseSpec};

/// Builds a policy for `n_active` online cores under `budget_fraction`.
/// The runner calls it once, before epoch 0, with the full core count and
/// the initial budget.
pub type PolicyFactory<'a> = dyn FnMut(usize, f64) -> Result<Box<dyn CappingPolicy>> + 'a;

/// A compiled scenario, ready to install on a server and run.
#[derive(Debug, Clone)]
pub struct ScenarioRunner {
    n_cores: usize,
    initial_budget: f64,
    /// `(epoch, fraction)` budget moves, epoch-sorted (ramps expanded to
    /// one step per epoch).
    budget_schedule: Vec<(u64, f64)>,
    /// `(epoch, mask)` active-set changes, epoch-sorted and cumulative.
    mask_schedule: Vec<(u64, Vec<bool>)>,
    /// Server-side actions, epoch-sorted (stable within an epoch in
    /// declaration order).
    server_actions: Vec<(u64, ControlAction)>,
}

impl ScenarioRunner {
    /// Compiles a validated scenario. `initial_budget` is the budget
    /// fraction in force at epoch 0 (ramps start from the running value).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the scenario fails its lints
    /// or `initial_budget` is outside `(0, 1]`.
    pub fn new(scenario: &Scenario, initial_budget: f64) -> Result<Self> {
        scenario.validate().map_err(|why| Error::InvalidConfig {
            what: "scenario",
            why,
        })?;
        if !(initial_budget > 0.0 && initial_budget <= 1.0) {
            return Err(Error::InvalidConfig {
                what: "scenario",
                why: format!("initial budget fraction {initial_budget} outside (0, 1]"),
            });
        }
        let n = scenario.n_cores;
        let mut events: Vec<&crate::format::ScenarioEvent> = scenario.events.iter().collect();
        events.sort_by_key(|e| e.at_epoch);

        let mut budget_schedule = Vec::new();
        let mut mask_schedule = Vec::new();
        let mut server_actions = Vec::new();
        let mut budget = initial_budget;
        let mut mask = vec![true; n];
        let expand = |cores: &[usize]| -> Vec<usize> {
            if cores.is_empty() {
                (0..n).collect()
            } else {
                cores.to_vec()
            }
        };
        for ev in events {
            let at = ev.at_epoch;
            match &ev.action {
                Action::BudgetStep { fraction } => {
                    budget = *fraction;
                    budget_schedule.push((at, budget));
                }
                Action::BudgetRamp {
                    to_fraction,
                    over_epochs,
                } => {
                    let from = budget;
                    let k = *over_epochs;
                    for j in 0..k {
                        let f = from + (to_fraction - from) * (j + 1) as f64 / k as f64;
                        budget_schedule.push((at + j, f));
                    }
                    budget = *to_fraction;
                }
                Action::CoresOffline { cores } => {
                    for &c in cores {
                        mask[c] = false;
                        server_actions.push((
                            at,
                            ControlAction::SetOnline {
                                core: c,
                                online: false,
                            },
                        ));
                    }
                    mask_schedule.push((at, mask.clone()));
                }
                Action::CoresOnline { cores } => {
                    for &c in cores {
                        mask[c] = true;
                        server_actions.push((
                            at,
                            ControlAction::SetOnline {
                                core: c,
                                online: true,
                            },
                        ));
                    }
                    mask_schedule.push((at, mask.clone()));
                }
                Action::IntensityScale { factor, cores } => {
                    for c in expand(cores) {
                        server_actions.push((
                            at,
                            ControlAction::SetIntensity {
                                core: c,
                                factor: *factor,
                            },
                        ));
                    }
                }
                Action::Overlay {
                    period_epochs,
                    amplitude,
                    cores,
                } => {
                    let phase = PhaseSpec {
                        period_epochs: *period_epochs,
                        amplitude: *amplitude,
                        ripple_period_epochs: 1.0,
                        ripple_amplitude: 0.0,
                        offset: 0.0,
                        mode_period_epochs: 0.0,
                        mode_amplitude: 0.0,
                    };
                    for c in expand(cores) {
                        server_actions.push((
                            at,
                            ControlAction::SetOverlay {
                                core: c,
                                phase: Some(phase),
                            },
                        ));
                    }
                }
                Action::SwapApp { core, app } => {
                    let profile = spec::base(app).expect("linted: app exists");
                    server_actions.push((
                        at,
                        ControlAction::SwapApp {
                            core: *core,
                            // Copy index = core index: deterministic
                            // de-phasing for arrivals on any core.
                            app: Box::new(AppInstance::new(&profile, *core)),
                        },
                    ));
                }
            }
        }
        Ok(Self {
            n_cores: n,
            initial_budget,
            budget_schedule,
            mask_schedule,
            server_actions,
        })
    }

    /// The budget fraction in force at epoch 0.
    pub fn initial_budget(&self) -> f64 {
        self.initial_budget
    }

    /// The platform core count the compiled scenario targets.
    pub fn n_cores(&self) -> usize {
        self.n_cores
    }

    /// The compiled `(epoch, fraction)` budget moves, epoch-sorted (ramps
    /// expanded to one step per epoch). Artifact runners derive their
    /// transient-metric windows from this rather than hard-coding epochs,
    /// so `--scenario` overrides keep the summaries meaningful.
    pub fn budget_moves(&self) -> &[(u64, f64)] {
        &self.budget_schedule
    }

    /// The compiled `(epoch, online-mask)` hotplug moves, epoch-sorted and
    /// cumulative.
    pub fn mask_moves(&self) -> &[(u64, Vec<bool>)] {
        &self.mask_schedule
    }

    /// The budget fraction in force at each of the first `epochs` epochs
    /// (initial value replayed through the compiled move schedule, each
    /// move effective from its own epoch). The single source of truth for
    /// per-epoch budget semantics — the invariant oracle's compliance
    /// windows and the matrix runner's overshoot denominators both read
    /// this, so they can never disagree.
    pub fn budget_trace(&self, epochs: usize) -> Vec<f64> {
        let mut frac = self.initial_budget;
        let mut moves = self.budget_schedule.iter().peekable();
        (0..epochs as u64)
            .map(|e| {
                while let Some(&&(me, f)) = moves.peek() {
                    if me <= e {
                        frac = f;
                        moves.next();
                    } else {
                        break;
                    }
                }
                frac
            })
            .collect()
    }

    /// The online mask in force at each of the first `epochs` epochs
    /// (`None` until the first hotplug move — the machine is still
    /// full). Like [`ScenarioRunner::budget_trace`], this is the single
    /// source of truth for per-epoch hotplug semantics: the same cursor
    /// the epoch loop applies, replayed for the oracle's offline-gating
    /// windows.
    pub fn mask_trace(&self, epochs: usize) -> Vec<Option<Vec<bool>>> {
        let mut mask: Option<Vec<bool>> = None;
        let mut moves = self.mask_schedule.iter().peekable();
        (0..epochs as u64)
            .map(|e| {
                while let Some((me, m)) = moves.peek() {
                    if *me <= e {
                        mask = Some(m.clone());
                        moves.next();
                    } else {
                        break;
                    }
                }
                mask.clone()
            })
            .collect()
    }

    /// The compiled server-side actions, epoch-sorted.
    pub fn server_moves(&self) -> &[(u64, ControlAction)] {
        &self.server_actions
    }

    /// Schedules the server-side actions into the server's event stream.
    /// Call once, before the first epoch runs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the server's core count does
    /// not match the scenario, or scheduling fails.
    pub fn install(&self, server: &mut Server) -> Result<()> {
        if server.config().n_cores != self.n_cores {
            return Err(Error::InvalidConfig {
                what: "scenario",
                why: format!(
                    "scenario targets {} cores but the server has {}",
                    self.n_cores,
                    server.config().n_cores
                ),
            });
        }
        for (epoch, action) in &self.server_actions {
            server.schedule_control(*epoch, action.clone())?;
        }
        Ok(())
    }

    /// Runs `epochs` epochs of the scenario on an installed server.
    /// `factory` builds the capping policy once, before epoch 0; `None`
    /// runs the uncapped baseline (maximum frequencies) under the same
    /// scenario perturbations.
    ///
    /// # Errors
    ///
    /// Propagates policy construction/decision failures and budget- and
    /// active-set-change rejections, and returns
    /// [`Error::InvalidConfig`] naming the policy when it declines an
    /// active-set change.
    pub fn run(
        &self,
        server: &mut Server,
        epochs: usize,
        factory: Option<&mut PolicyFactory<'_>>,
    ) -> Result<RunResult> {
        self.run_traced(server, epochs, factory, None)
    }

    /// [`ScenarioRunner::run`] with an optional audit-trail tracer. When
    /// `trace` is `Some`, every epoch appends a control event per scenario
    /// move and then [`trace_epoch`]'s epoch span, decision record (capped
    /// runs) and lane record to the tracer's ring, timestamped by
    /// the modeled-cost clock (the server + policy [`CostCounter`] deltas
    /// priced by the tracer's weights). Tracing reads the counters the run
    /// already maintains and never mutates them, so the simulated artifact
    /// bytes are identical with `trace` `Some` or `None` (pinned by this
    /// crate's tests and the bench trace goldens).
    ///
    /// # Errors
    ///
    /// Fails exactly as [`ScenarioRunner::run`].
    pub fn run_traced(
        &self,
        server: &mut Server,
        epochs: usize,
        factory: Option<&mut PolicyFactory<'_>>,
        mut trace: Option<&mut Tracer>,
    ) -> Result<RunResult> {
        let n = server.config().n_cores;
        if n != self.n_cores {
            return Err(Error::InvalidConfig {
                what: "scenario",
                why: format!(
                    "scenario targets {} cores but the server has {}",
                    self.n_cores, n
                ),
            });
        }
        let mut budget = self.initial_budget;
        let mut mask = vec![true; n];
        let mut policy = match factory {
            Some(f) => Some(f(n, budget)?),
            None => None,
        };
        let mut bi = 0;
        let mut mi = 0;
        let mut reports = Vec::with_capacity(epochs);
        // Cost snapshots for the modeled trace clock, which advances by
        // the delta each epoch adds to the server and policy counters.
        let mut server_cost = server.cost();
        let mut policy_cost = policy
            .as_ref()
            .map_or_else(CostCounter::default, |p| p.decision_cost());
        for e in 0..epochs as u64 {
            let prev_mask = mask.clone();
            let mut mask_changed = false;
            while mi < self.mask_schedule.len() && self.mask_schedule[mi].0 <= e {
                mask = self.mask_schedule[mi].1.clone();
                mi += 1;
                mask_changed = true;
            }
            let mut budget_changed = false;
            while bi < self.budget_schedule.len() && self.budget_schedule[bi].0 <= e {
                budget = self.budget_schedule[bi].1;
                bi += 1;
                budget_changed = true;
            }
            if let Some(t) = trace.as_deref_mut() {
                if budget_changed {
                    t.record(TraceEvent::Control {
                        epoch: e,
                        kind: "budget_step",
                        detail: format!("fraction={budget}"),
                    });
                    t.metrics.counter_add("scenario.budget_moves", 1);
                }
                if mask_changed {
                    let online = mask.iter().filter(|&&a| a).count();
                    t.record(TraceEvent::Control {
                        epoch: e,
                        kind: "hotplug",
                        detail: format!("online={online}/{n}"),
                    });
                    t.metrics.counter_add("scenario.hotplug_moves", 1);
                }
            }
            if let Some(p) = policy.as_mut() {
                if mask_changed && !p.on_active_set_change(&carry_map(&prev_mask, &mask))? {
                    return Err(Error::InvalidConfig {
                        what: "scenario",
                        why: format!(
                            "policy {} declined the active-set change at epoch {e}",
                            p.name()
                        ),
                    });
                }
                // After the carry: a same-epoch budget move applies to the
                // re-shaped policy.
                if budget_changed {
                    p.on_budget_change(budget)?;
                }
            }
            let obs = server.observation();
            let decision = match (&mut policy, &obs) {
                (Some(p), Some(o)) => {
                    let d = p.decide(&project(o, &mask))?;
                    Some(scatter(d, &mask))
                }
                // Epoch 0: no observation yet — model-predictive policies
                // bootstrap from their initial laws so the first epoch
                // already runs under the cap.
                (Some(p), None) => p.bootstrap().map(|d| scatter(d, &mask)),
                _ => None,
            };
            let report = server.run_epoch(decision.as_ref());
            if let Some(t) = trace.as_deref_mut() {
                let policy_side = policy.as_deref().map(|p| {
                    let now = p.decision_cost();
                    let d = now.delta_since(&policy_cost);
                    policy_cost = now;
                    (p, d)
                });
                let server_now = server.cost();
                let server_delta = server_now.delta_since(&server_cost);
                server_cost = server_now;
                trace_epoch(
                    t,
                    e,
                    server_delta,
                    policy_side,
                    decision.as_ref(),
                    obs.as_ref(),
                    &report,
                );
            }
            reports.push(report);
        }
        let cfg = server.config();
        Ok(RunResult {
            n_cores: n,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs: reports,
        })
    }
}

/// Builds the warm-carry map for an online-mask change: entry `j` of the
/// result names the position (within the *previous* online set) of the
/// `j`-th newly-online core, or `None` for a core that was offline before
/// (no prior state). Policies model online cores contiguously in mask
/// order, so positions — not raw core indices — are what carries.
fn carry_map(prev: &[bool], now: &[bool]) -> Vec<Option<usize>> {
    let prev_pos: Vec<Option<usize>> = {
        let mut at = 0usize;
        prev.iter()
            .map(|&a| {
                if a {
                    at += 1;
                    Some(at - 1)
                } else {
                    None
                }
            })
            .collect()
    };
    now.iter()
        .enumerate()
        .filter(|&(_, &a)| a)
        .map(|(c, _)| prev_pos[c])
        .collect()
}

/// Projects an observation onto the online cores (no-op for a full mask).
fn project(obs: &EpochObservation, mask: &[bool]) -> EpochObservation {
    if mask.iter().all(|&a| a) {
        return obs.clone();
    }
    let keep = |i: &usize| mask[*i];
    let mut out = obs.clone();
    out.cores = obs
        .cores
        .iter()
        .enumerate()
        .filter(|(i, _)| keep(i))
        .map(|(_, s)| *s)
        .collect();
    if !obs.access_weights.is_empty() {
        out.access_weights = obs
            .access_weights
            .iter()
            .enumerate()
            .filter(|(i, _)| keep(i))
            .map(|(_, w)| w.clone())
            .collect();
    }
    out
}

/// Scatters a decision over the online cores back to the full core list;
/// offline cores are pinned to the lowest frequency (they are power-gated
/// in the simulator regardless).
fn scatter(d: DvfsDecision, mask: &[bool]) -> DvfsDecision {
    if mask.iter().all(|&a| a) {
        return d;
    }
    let mut it = d.core_freqs.iter().copied();
    let core_freqs = mask
        .iter()
        .map(|&a| if a { it.next().unwrap_or(0) } else { 0 })
        .collect();
    DvfsDecision { core_freqs, ..d }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::format::ScenarioEvent;
    use fastcap_core::units::Watts;
    use fastcap_policies::{FastCapPolicy, FreqParPolicy};
    use fastcap_sim::SimConfig;
    use fastcap_workloads::mixes;
    use std::cell::RefCell;
    use std::rc::Rc;

    fn quick_cfg(n: usize) -> SimConfig {
        SimConfig::ispass(n)
            .unwrap()
            .with_time_dilation(100.0)
            .with_meter_noise(0.0)
    }

    fn server(mix: &str, seed: u64) -> Server {
        Server::for_workload(quick_cfg(16), &mixes::by_name(mix).unwrap(), seed).unwrap()
    }

    /// FastCap that drops its fitted models on every active-set change:
    /// it rebuilds a fresh controller for the new online set, the cold
    /// transient the warm carry is compared against. Each rebuild's core
    /// count goes to `rebuilds`.
    struct Rebuilt {
        inner: FastCapPolicy,
        cfg: SimConfig,
        budget: f64,
        rebuilds: Rc<RefCell<Vec<usize>>>,
    }

    impl CappingPolicy for Rebuilt {
        fn name(&self) -> &'static str {
            self.inner.name()
        }

        fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
            self.inner.decide(obs)
        }

        fn bootstrap(&mut self) -> Option<DvfsDecision> {
            self.inner.bootstrap()
        }

        fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
            self.inner.on_budget_change(fraction)?;
            self.budget = fraction;
            Ok(())
        }

        fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
            let ctl = self.cfg.controller_config_n(self.budget, carried.len())?;
            self.inner = FastCapPolicy::new(ctl)?;
            self.rebuilds.borrow_mut().push(carried.len());
            Ok(true)
        }

        fn decision_cost(&self) -> CostCounter {
            self.inner.decision_cost()
        }

        fn in_force_budget(&self) -> Option<Watts> {
            self.inner.in_force_budget()
        }
    }

    /// Freq-Par that declines every active-set change.
    struct Declines(FreqParPolicy);

    impl CappingPolicy for Declines {
        fn name(&self) -> &'static str {
            "Declines"
        }

        fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
            self.0.decide(obs)
        }

        fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
            self.0.on_budget_change(fraction)
        }

        fn on_active_set_change(&mut self, _carried: &[Option<usize>]) -> Result<bool> {
            Ok(false)
        }

        fn decision_cost(&self) -> CostCounter {
            self.0.decision_cost()
        }

        fn in_force_budget(&self) -> Option<Watts> {
            self.0.in_force_budget()
        }
    }

    fn fastcap_factory(
        cfg: &SimConfig,
    ) -> impl FnMut(usize, f64) -> Result<Box<dyn CappingPolicy>> + '_ {
        move |n_active, budget| {
            let ctl = cfg.controller_config_n(budget, n_active)?;
            Ok(Box::new(FastCapPolicy::new(ctl)?) as Box<dyn CappingPolicy>)
        }
    }

    fn scenario(events: Vec<ScenarioEvent>) -> Scenario {
        Scenario {
            name: "test".into(),
            description: "runtime test".into(),
            n_cores: 16,
            events,
        }
    }

    #[test]
    fn empty_scenario_matches_plain_capped_run() {
        use fastcap_sim::EpochBackend;
        let cfg = quick_cfg(16);
        let mix = mixes::by_name("MID2").unwrap();
        // Plain run, the way the bench harness drives it (observe → decide,
        // with the epoch-0 bootstrap the harness's ClosedLoop also takes).
        let mut plain_policy = FastCapPolicy::new(cfg.controller_config(0.6).unwrap()).unwrap();
        let mut plain = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        let mut reports = Vec::new();
        for _ in 0..12 {
            let d = match EpochBackend::observation(&plain) {
                Some(obs) => plain_policy.decide(&obs).ok(),
                None => plain_policy.bootstrap(),
            };
            reports.push(EpochBackend::run_epoch(&mut plain, d.as_ref()));
        }
        let r_plain = fastcap_sim::metrics::RunResult {
            n_cores: 16,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs: reports,
        };
        // Scenario run with zero events.
        let runner = ScenarioRunner::new(&Scenario::empty(16), 0.6).unwrap();
        let mut srv = Server::for_workload(cfg.clone(), &mix, 11).unwrap();
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r_scn = runner.run(&mut srv, 12, Some(&mut factory)).unwrap();
        assert_eq!(r_plain, r_scn);
    }

    #[test]
    fn budget_step_caps_power_within_epochs() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 8,
            action: Action::BudgetStep { fraction: 0.5 },
        }]);
        let runner = ScenarioRunner::new(&s, 0.9).unwrap();
        let mut srv = server("MID1", 5);
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r = runner.run(&mut srv, 20, Some(&mut factory)).unwrap();
        let budget_lo = 120.0 * 0.5;
        // Before the step, power may exceed the later cap...
        assert!(r.epochs[6].total_power.get() > budget_lo);
        // ...within a few epochs after it, power is under the new cap.
        for e in 12..20 {
            assert!(
                r.epochs[e].total_power.get() <= budget_lo * 1.05,
                "epoch {e}: {} over stepped cap",
                r.epochs[e].total_power
            );
        }
    }

    #[test]
    fn budget_ramp_descends_monotonically() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 5,
            action: Action::BudgetRamp {
                to_fraction: 0.5,
                over_epochs: 10,
            },
        }]);
        let runner = ScenarioRunner::new(&s, 0.9).unwrap();
        // The compiled schedule has 10 steps ending exactly at 0.5.
        assert_eq!(runner.budget_schedule.len(), 10);
        assert_eq!(runner.budget_schedule[0].0, 5);
        assert_eq!(runner.budget_schedule[9].0, 14);
        assert!((runner.budget_schedule[9].1 - 0.5).abs() < 1e-12);
        for w in runner.budget_schedule.windows(2) {
            assert!(w[1].1 < w[0].1, "ramp must descend: {w:?}");
        }
        let mut srv = server("MID1", 6);
        runner.install(&mut srv).unwrap();
        let mut factory = fastcap_factory(&cfg);
        let r = runner.run(&mut srv, 22, Some(&mut factory)).unwrap();
        // End state respects the final cap.
        for e in 18..22 {
            assert!(r.epochs[e].total_power.get() <= 60.0 * 1.05, "epoch {e}");
        }
    }

    #[test]
    fn hotplug_rebuilds_and_reallocates() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![
            ScenarioEvent {
                at_epoch: 6,
                action: Action::CoresOffline {
                    cores: vec![0, 1, 2, 3],
                },
            },
            ScenarioEvent {
                at_epoch: 14,
                action: Action::CoresOnline {
                    cores: vec![0, 1, 2, 3],
                },
            },
        ]);
        // A policy that rebuilds itself cold at each active-set change:
        // this test pins the cold re-allocation path.
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let mut builds = Vec::new();
        let rebuilds = Rc::new(RefCell::new(Vec::new()));
        let mut factory = |n_active: usize, budget: f64| {
            builds.push(n_active);
            let ctl = cfg.controller_config_n(budget, n_active)?;
            Ok(Box::new(Rebuilt {
                inner: FastCapPolicy::new(ctl)?,
                cfg: cfg.clone(),
                budget,
                rebuilds: Rc::clone(&rebuilds),
            }) as Box<dyn CappingPolicy>)
        };
        let mut srv = server("MID1", 7);
        runner.install(&mut srv).unwrap();
        let r = runner.run(&mut srv, 20, Some(&mut factory)).unwrap();
        assert_eq!(builds, vec![16], "the factory builds once, before epoch 0");
        assert_eq!(*rebuilds.borrow(), vec![12, 16], "two hotplug rebuilds");
        // Offline window: cores 0-3 are gated, decisions still apply to
        // the remaining 12.
        assert_eq!(r.epochs[10].core_power[2], fastcap_core::units::Watts::ZERO);
        assert!(r.epochs[10].core_power[8].get() > 0.5);
        // After the return, all cores execute again.
        assert!(r.epochs[18].instructions[2] > 0.0);
        // Power stays under the (unchanged) machine budget throughout the
        // steady windows.
        for e in [4, 5, 11, 12, 13, 18, 19] {
            assert!(
                r.epochs[e].total_power.get() <= 72.0 * 1.08,
                "epoch {e}: {}",
                r.epochs[e].total_power
            );
        }
    }

    #[test]
    fn carry_map_positions_survivors() {
        // 4 cores, core 1 goes offline: survivors 0,2,3 keep positions.
        let all = [true, true, true, true];
        let off1 = [true, false, true, true];
        assert_eq!(carry_map(&all, &off1), vec![Some(0), Some(2), Some(3)]);
        // Core 1 returns: it is cold (None), the rest map back.
        assert_eq!(
            carry_map(&off1, &all),
            vec![Some(0), None, Some(1), Some(2)]
        );
        // Simultaneous swap: 1 returns while 3 leaves.
        let off3 = [true, true, true, false];
        assert_eq!(carry_map(&off1, &off3), vec![Some(0), None, Some(1)]);
        // No change: identity.
        assert_eq!(
            carry_map(&all, &all),
            vec![Some(0), Some(1), Some(2), Some(3)]
        );
    }

    #[test]
    fn warm_hotplug_carries_models_instead_of_rebuilding() {
        // The warm-carry pin: through an offline/online cycle the policy
        // never rebuilds, the pre-event epochs match the rebuild path byte
        // for byte, and the transient isolates *allocation* — the carried
        // models keep capping tightly where the rebuilt controller must
        // re-fit from its initial laws first.
        let cfg = quick_cfg(16);
        let s = scenario(vec![
            ScenarioEvent {
                at_epoch: 6,
                action: Action::CoresOffline {
                    cores: vec![0, 1, 2, 3],
                },
            },
            ScenarioEvent {
                at_epoch: 14,
                action: Action::CoresOnline {
                    cores: vec![0, 1, 2, 3],
                },
            },
        ]);
        let run_with = |warm: bool| {
            let runner = ScenarioRunner::new(&s, 0.6).unwrap();
            let mut builds = Vec::new();
            let rebuilds = Rc::new(RefCell::new(Vec::new()));
            let mut factory = |n_active: usize, budget: f64| {
                builds.push(n_active);
                let p = FastCapPolicy::new(cfg.controller_config_n(budget, n_active)?)?;
                Ok(if warm {
                    Box::new(p) as Box<dyn CappingPolicy>
                } else {
                    Box::new(Rebuilt {
                        inner: p,
                        cfg: cfg.clone(),
                        budget,
                        rebuilds: Rc::clone(&rebuilds),
                    })
                })
            };
            let mut srv = server("MID1", 7);
            runner.install(&mut srv).unwrap();
            let r = runner.run(&mut srv, 24, Some(&mut factory)).unwrap();
            assert_eq!(builds, vec![16], "the factory builds once, before epoch 0");
            let rebuilt = rebuilds.borrow().clone();
            (r, rebuilt)
        };
        let (r_warm, b_warm) = run_with(true);
        let (r_rebuild, b_rebuild) = run_with(false);
        assert_eq!(b_rebuild, vec![12, 16], "rebuild path unchanged");
        assert!(b_warm.is_empty(), "warm carry never rebuilds");
        for e in 0..6 {
            assert_eq!(
                r_warm.epochs[e], r_rebuild.epochs[e],
                "epoch {e}: identical before the first hotplug event"
            );
        }
        assert_ne!(
            r_warm.epochs[7..14],
            r_rebuild.epochs[7..14],
            "carried models must actually change post-hotplug decisions"
        );
        // After the cores return, the warm policy's worst transient above
        // the cap is no worse than the rebuilt policy's (its models never
        // went cold; only the returning four start fresh either way).
        let budget = 120.0 * 0.6;
        let worst = |r: &RunResult| {
            r.epochs[14..]
                .iter()
                .map(|ep| (ep.total_power.get() - budget) / budget)
                .fold(0.0f64, f64::max)
        };
        assert!(
            worst(&r_warm) <= worst(&r_rebuild) + 1e-9,
            "warm {} vs rebuild {}",
            worst(&r_warm),
            worst(&r_rebuild)
        );
    }

    /// Hotplug and budget moves on the same epochs, which no checked-in
    /// scenario has.
    const SAME_EPOCH: &str = r#"{"name":"same_epoch","description":"hotplug and budget moves on the same epochs","n_cores":16,"events":[
     {"at_epoch":10,"action":{"kind":"cores_offline","cores":[0,1,2,3]}},
     {"at_epoch":10,"action":{"kind":"budget_step","fraction":0.5}},
     {"at_epoch":20,"action":{"kind":"cores_online","cores":[0,1,2,3]}},
     {"at_epoch":20,"action":{"kind":"budget_step","fraction":0.75}},
     {"at_epoch":28,"action":{"kind":"cores_offline","cores":[5,9]}},
     {"at_epoch":28,"action":{"kind":"budget_ramp","to_fraction":0.55,"over_epochs":4}}]}"#;

    /// The runner's epoch loop as it stood when a policy that declined an
    /// active-set change was rebuilt by the factory: Freq-Par is rebuilt
    /// from `controller_config_n(budget, n_active)` at every mask change
    /// (a same-epoch budget move rides along in the rebuild) and takes
    /// every other budget move through `on_budget_change`.
    fn freq_par_rebuild_twin(
        runner: &ScenarioRunner,
        cfg: &SimConfig,
        server: &mut Server,
        epochs: usize,
    ) -> RunResult {
        let build = |budget: f64, n_active: usize| {
            FreqParPolicy::new(cfg.controller_config_n(budget, n_active).unwrap()).unwrap()
        };
        let mut budget = runner.initial_budget;
        let mut mask = vec![true; runner.n_cores];
        let mut policy = build(budget, runner.n_cores);
        let (mut bi, mut mi) = (0, 0);
        let mut reports = Vec::new();
        for e in 0..epochs as u64 {
            let mut mask_changed = false;
            while mi < runner.mask_schedule.len() && runner.mask_schedule[mi].0 <= e {
                mask = runner.mask_schedule[mi].1.clone();
                mi += 1;
                mask_changed = true;
            }
            let mut budget_changed = false;
            while bi < runner.budget_schedule.len() && runner.budget_schedule[bi].0 <= e {
                budget = runner.budget_schedule[bi].1;
                bi += 1;
                budget_changed = true;
            }
            if mask_changed {
                policy = build(budget, mask.iter().filter(|&&a| a).count());
            } else if budget_changed {
                policy.on_budget_change(budget).unwrap();
            }
            let decision = match server.observation() {
                Some(o) => Some(scatter(policy.decide(&project(&o, &mask)).unwrap(), &mask)),
                None => policy.bootstrap().map(|d| scatter(d, &mask)),
            };
            reports.push(server.run_epoch(decision.as_ref()));
        }
        RunResult {
            n_cores: runner.n_cores,
            sim_epoch_length: cfg.sim_epoch_length(),
            peak_power: cfg.peak_power,
            epochs: reports,
        }
    }

    #[test]
    fn freq_par_carry_matches_the_factory_rebuild_twin() {
        let cfg = quick_cfg(16);
        let runner = ScenarioRunner::new(&Scenario::from_json(SAME_EPOCH).unwrap(), 0.9).unwrap();
        for mix in ["MID1", "MIX3"] {
            for seed in [7, 42] {
                let mut srv = server(mix, seed);
                runner.install(&mut srv).unwrap();
                let mut factory = |n_active: usize, budget: f64| {
                    let ctl = cfg.controller_config_n(budget, n_active)?;
                    Ok(Box::new(FreqParPolicy::new(ctl)?) as Box<dyn CappingPolicy>)
                };
                let carried = runner.run(&mut srv, 40, Some(&mut factory)).unwrap();
                let mut srv = server(mix, seed);
                runner.install(&mut srv).unwrap();
                let rebuilt = freq_par_rebuild_twin(&runner, &cfg, &mut srv, 40);
                assert_eq!(carried, rebuilt, "{mix} seed {seed}");
            }
        }
    }

    #[test]
    fn a_declined_active_set_change_fails_the_run_naming_the_policy() {
        let cfg = quick_cfg(16);
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 6,
            action: Action::CoresOffline {
                cores: vec![0, 1, 2, 3],
            },
        }]);
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let mut factory = |n_active: usize, budget: f64| {
            let ctl = cfg.controller_config_n(budget, n_active)?;
            Ok(Box::new(Declines(FreqParPolicy::new(ctl)?)) as Box<dyn CappingPolicy>)
        };
        let mut srv = server("MID1", 7);
        runner.install(&mut srv).unwrap();
        let err = runner
            .run(&mut srv, 12, Some(&mut factory))
            .unwrap_err()
            .to_string();
        assert!(
            err.contains("policy Declines declined the active-set change at epoch 6"),
            "{err}"
        );
    }

    #[test]
    fn uncapped_baseline_sees_the_same_scenario() {
        let s = scenario(vec![ScenarioEvent {
            at_epoch: 4,
            action: Action::IntensityScale {
                factor: 10.0,
                cores: vec![],
            },
        }]);
        let runner = ScenarioRunner::new(&s, 0.6).unwrap();
        let mut srv = server("MIX2", 9);
        runner.install(&mut srv).unwrap();
        let r = runner.run(&mut srv, 10, None).unwrap();
        // Uncapped: everything stays at maximum frequency...
        assert!(r.epochs[8].core_freq_idx.iter().all(|&i| i == 9));
        // ...but the surge still bites throughput.
        let before: f64 = r.epochs[2].instructions.iter().sum();
        let after: f64 = r.epochs[8].instructions.iter().sum();
        assert!(after < before * 0.6, "surge must bite: {after} vs {before}");
    }

    #[test]
    fn runner_rejects_mismatched_server() {
        let runner = ScenarioRunner::new(&Scenario::empty(4), 0.6).unwrap();
        let mut srv = server("MIX1", 1);
        assert!(runner.install(&mut srv).is_err());
        assert!(runner.run(&mut srv, 4, None).is_err());
    }

    #[test]
    fn runner_rejects_invalid_scenarios_and_budgets() {
        let bad = scenario(vec![ScenarioEvent {
            at_epoch: 1,
            action: Action::BudgetStep { fraction: 2.0 },
        }]);
        assert!(ScenarioRunner::new(&bad, 0.6).is_err());
        assert!(ScenarioRunner::new(&Scenario::empty(16), 0.0).is_err());
    }

    #[test]
    fn projection_and_scatter_are_inverse_shapes() {
        let obs = fastcap_core::counters::EpochObservation::single(
            (0..4)
                .map(|i| fastcap_core::counters::CoreSample {
                    freq: fastcap_core::units::Hz::from_ghz(4.0),
                    busy_time_per_instruction: fastcap_core::units::Secs::from_nanos(0.3),
                    instructions: 1000 + i,
                    last_level_misses: 100,
                    power: fastcap_core::units::Watts(4.0),
                })
                .collect(),
            fastcap_core::counters::MemorySample {
                bus_freq: fastcap_core::units::Hz::from_mhz(800.0),
                bank_queue: 1.0,
                bus_queue: 1.0,
                bank_service_time: fastcap_core::units::Secs::from_nanos(20.0),
                power: fastcap_core::units::Watts(20.0),
            },
            fastcap_core::units::Watts(50.0),
        );
        let mask = [true, false, true, false];
        let p = project(&obs, &mask);
        assert_eq!(p.cores.len(), 2);
        assert_eq!(p.cores[0].instructions, 1000);
        assert_eq!(p.cores[1].instructions, 1002);
        let d = DvfsDecision {
            core_freqs: vec![7, 3],
            mem_freq: 5,
            predicted_power: fastcap_core::units::Watts(40.0),
            quantized_power: fastcap_core::units::Watts(40.0),
            budget_trim: fastcap_core::units::Watts(0.0),
            degradation: 1.1,
            budget_bound: true,
            emergency: false,
        };
        let full = scatter(d, &mask);
        assert_eq!(full.core_freqs, vec![7, 0, 3, 0]);
        assert_eq!(full.mem_freq, 5);
    }
}
