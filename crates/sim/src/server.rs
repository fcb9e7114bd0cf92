//! The simulated many-core server: epoch loop, DVFS actuation, counter
//! collection and power metering.
//!
//! [`Server`] owns the closed queuing network (cores ↔ banks ↔ bus) and
//! advances it epoch by epoch. Every epoch it:
//!
//! 1. hands the *previous* epoch's counters and measured powers to the
//!    capping policy (they cover that whole epoch: the paper's profiling
//!    phase is not modeled — see DESIGN.md §2),
//! 2. applies the returned [`DvfsDecision`] (cores stall ~10 µs on a
//!    frequency change; the whole memory subsystem freezes ~20 µs for
//!    PLL/DLL resync — Sec. III-C),
//! 3. simulates the epoch and measures per-component power with the
//!    activity/voltage/current models of [`crate::config`] and
//!    [`crate::dram`].
//!
//! The policy is any `FnMut(&EpochObservation) -> Option<DvfsDecision>`;
//! returning `None` keeps the current frequencies (used for uncapped
//! baseline runs).

use crate::config::SimConfig;
use crate::core_model::CoreSim;
use crate::engine::{to_ps, Event, EventQueue, Ps, PS_PER_SEC};
use crate::lanes::LaneSet;
use crate::memory::{MemController, Request};
use crate::metrics::{EpochReport, RunResult};
use fastcap_core::capper::DvfsDecision;
use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
use fastcap_core::error::{Error, Result};
use fastcap_core::freq::VoltageCurve;
use fastcap_core::units::{Secs, Watts};
use fastcap_workloads::{AppInstance, PhaseSpec, WorkloadSpec};

/// A scheduled mid-run mutation of the simulated platform, injected into
/// the DES event stream by [`Server::schedule_control`] (the scenario
/// engine's server-side actions). Each action targets one core; scenario
/// events naming several cores expand to one action per core.
///
/// Controls fire in the timing wheel exactly like simulation events —
/// `(time, FIFO-seq)` ordered — so a scenario perturbs the simulation
/// deterministically and identically at any `--jobs` count.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// Hotplug: bring a core online (`true`) or take it offline (`false`).
    /// Offline cores stop issuing work once their in-flight requests drain
    /// and are power-gated (zero measured power).
    SetOnline {
        /// Core index.
        core: usize,
        /// Desired state.
        online: bool,
    },
    /// Set the core's workload-intensity multiplier (1.0 = nominal). A
    /// flash crowd is a large factor over a window of epochs.
    SetIntensity {
        /// Core index.
        core: usize,
        /// Absolute multiplier applied over the phase model.
        factor: f64,
    },
    /// Install (or clear) a load-envelope overlay layered over the
    /// application's own phase model — e.g. a diurnal sinusoid.
    SetOverlay {
        /// Core index.
        core: usize,
        /// The overlay; `None` removes any installed overlay.
        phase: Option<PhaseSpec>,
    },
    /// Workload churn: the application on `core` departs and `app` arrives
    /// in its place. In-flight requests of the departing application drain
    /// normally.
    SwapApp {
        /// Core index.
        core: usize,
        /// The arriving application.
        app: Box<AppInstance>,
    },
}

impl ControlAction {
    /// The core this action targets.
    pub fn core(&self) -> usize {
        match *self {
            ControlAction::SetOnline { core, .. }
            | ControlAction::SetIntensity { core, .. }
            | ControlAction::SetOverlay { core, .. }
            | ControlAction::SwapApp { core, .. } => core,
        }
    }
}

/// The simulated server.
#[derive(Debug)]
pub struct Server {
    cfg: SimConfig,
    /// Per-core draw lanes (DESIGN.md §11): one private RNG stream
    /// partition per core plus a memory/meter lane, prefilled at every
    /// epoch barrier.
    lanes: LaneSet,
    queue: EventQueue,
    now: Ps,
    cores: Vec<CoreSim>,
    ctrls: Vec<MemController>,
    core_freq_idx: Vec<usize>,
    mem_freq_idx: usize,
    bus_transfer: Ps,
    l2_ps: Ps,
    // Hot-path tables, precomputed once at construction so the per-event
    // and per-decision paths never re-derive them from `Secs` floats:
    /// Bank service time for a row hit (`tCL`).
    service_hit: Ps,
    /// Bank service time for a row miss.
    service_miss: Ps,
    /// Bus transfer time per memory frequency index.
    bus_tbl: Vec<Ps>,
    /// Dilated core DVFS transition stall.
    core_stall: Ps,
    /// Dilated memory DVFS transition freeze.
    mem_freeze: Ps,
    mc_vcurve: VoltageCurve,
    epoch_index: u64,
    /// Reused observation buffer, refilled in place every epoch (the
    /// `access_weights` rows are constant and written exactly once).
    obs: EpochObservation,
    /// Whether `obs` holds a completed epoch.
    obs_ready: bool,
    /// Scheduled scenario mutations; `Event::Control { slot }` indexes
    /// this table. Empty for plain (non-scenario) runs.
    controls: Vec<ControlAction>,
    /// Per-core count of attributed stochastic sampling events (initial
    /// jitter, think sampling, burst issue, meter sampling) — the
    /// invariant-oracle probe behind "offline cores draw no RNG": a
    /// hot-unplugged core's count must freeze until it comes back online.
    rng_draws: Vec<u64>,
}

impl Server {
    /// Builds a server for an explicit list of per-core applications.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid configurations or an
    /// application count that does not match `n_cores`.
    pub fn new(cfg: SimConfig, apps: Vec<AppInstance>, seed: u64) -> Result<Self> {
        Self::build(cfg, apps, seed, false)
    }

    /// Builds a server whose draw lanes run as the serial byte-exact
    /// oracle from construction on: every record is generated at its
    /// consumption site, one at a time, with no epoch prefill and no
    /// `lane_sync`/`barrier_wait` accounting, so [`Self::cost`] reports
    /// zero of both. Artifact bytes are identical to [`Self::new`]'s
    /// (proptested in `tests/lane_oracle.rs`); the oracle exists to verify
    /// exactly that, the way `HeapQueue` verifies the timing wheel.
    ///
    /// # Errors
    ///
    /// Same as [`Self::new`].
    pub fn serial_oracle(cfg: SimConfig, apps: Vec<AppInstance>, seed: u64) -> Result<Self> {
        Self::build(cfg, apps, seed, true)
    }

    fn build(
        cfg: SimConfig,
        apps: Vec<AppInstance>,
        seed: u64,
        serial_oracle: bool,
    ) -> Result<Self> {
        cfg.validate()?;
        if apps.len() != cfg.n_cores {
            return Err(Error::InvalidConfig {
                what: "apps",
                why: format!("{} applications for {} cores", apps.len(), cfg.n_cores),
            });
        }
        for a in &apps {
            a.profile
                .check()
                .map_err(|why| Error::InvalidConfig { what: "apps", why })?;
        }
        let weights = cfg.interleaving.weights(cfg.n_controllers);
        let mut cum = Vec::with_capacity(weights.len());
        let mut acc = 0.0;
        for w in &weights {
            acc += w;
            cum.push(acc);
        }
        let mc_vcurve = crate::power_model::mc_voltage_curve(&cfg)?;
        let max_core = cfg.core_ladder.len() - 1;
        let max_mem = cfg.mem_ladder.len() - 1;
        let bus_tbl: Vec<Ps> = (0..cfg.mem_ladder.len())
            .map(|i| to_ps(cfg.bus_transfer_time(i)))
            .collect();
        let dilate = |t: Secs| to_ps(Secs(t.get() / cfg.time_dilation));
        let obs = EpochObservation {
            cores: Vec::with_capacity(cfg.n_cores),
            memory: MemorySample {
                bus_freq: cfg.mem_ladder.at(max_mem),
                bank_queue: 1.0,
                bus_queue: 1.0,
                bank_service_time: cfg.dram.t_cl,
                power: Watts::ZERO,
            },
            controllers: Vec::with_capacity(cfg.n_controllers),
            access_weights: if cfg.n_controllers > 1 {
                vec![weights.clone(); cfg.n_cores]
            } else {
                Vec::new()
            },
            total_power: Watts::ZERO,
        };
        let l2_ps = to_ps(cfg.l2_time);
        let service_hit = to_ps(cfg.dram.bank_service_time(true));
        // Conservative lookahead (DESIGN.md §11): a core cannot consume more
        // than one think sample per minimum in-flight round trip (1 ps
        // think + L2 + row-hit service + fastest bus transfer), so the
        // per-epoch prefill target is capped at span / that bound.
        let span = to_ps(cfg.sim_epoch_length());
        let min_cycle = 1 + l2_ps + service_hit + bus_tbl[max_mem];
        let think_cap = (span / min_cycle.max(1)) as usize + 64;
        let lanes = LaneSet::new(
            seed,
            cfg.n_cores,
            cum,
            cfg.banks_per_controller,
            think_cap,
            serial_oracle,
        );
        let mut server = Self {
            l2_ps,
            bus_transfer: bus_tbl[max_mem],
            service_hit,
            service_miss: to_ps(cfg.dram.bank_service_time(false)),
            bus_tbl,
            core_stall: dilate(cfg.core_transition),
            mem_freeze: dilate(cfg.mem_transition),
            ctrls: (0..cfg.n_controllers)
                .map(|i| MemController::new(i, cfg.banks_per_controller))
                .collect(),
            cores: apps.into_iter().map(CoreSim::new).collect(),
            core_freq_idx: vec![max_core; cfg.n_cores],
            mem_freq_idx: max_mem,
            lanes,
            queue: EventQueue::new(),
            now: 0,
            mc_vcurve,
            epoch_index: 0,
            obs,
            obs_ready: false,
            controls: Vec::new(),
            rng_draws: vec![0; cfg.n_cores],
            cfg,
        };
        server.refresh_cores();
        // Stagger initial activity so cores do not issue in lockstep; each
        // core's jitter comes from its own lane's one-off jitter stream.
        for core in 0..server.cores.len() {
            let jitter = server.lanes.jitter(core, server.l2_ps * 4 + 1000);
            server.rng_draws[core] += 1;
            server.schedule_core(core, jitter);
        }
        Ok(server)
    }

    /// Convenience constructor: instantiate a Table III workload onto the
    /// configured core count.
    ///
    /// # Errors
    ///
    /// Propagates configuration and instantiation failures.
    pub fn for_workload(cfg: SimConfig, workload: &WorkloadSpec, seed: u64) -> Result<Self> {
        let apps = workload
            .instantiate(cfg.n_cores)
            .map_err(|why| Error::InvalidConfig {
                what: "workload",
                why,
            })?;
        Self::new(cfg, apps, seed)
    }

    /// The configuration in force.
    pub fn config(&self) -> &SimConfig {
        &self.cfg
    }

    /// Total events scheduled since construction — the backend's work
    /// unit (`EpochBackend::ops`) and the `event_push` term of
    /// [`Self::cost`].
    pub fn events_scheduled(&self) -> u64 {
        self.queue.scheduled()
    }

    /// Per-core counts of attributed stochastic sampling events (initial
    /// jitter, think sampling, burst issue, meter sampling). An offline
    /// core's count freezes — the simulator draws nothing on its behalf —
    /// which is the RNG half of the invariant oracle's "offline cores
    /// draw no power/RNG" check.
    pub fn rng_draws(&self) -> &[u64] {
        &self.rng_draws
    }

    /// Cumulative draw records consumed from `core`'s lane streams
    /// (the per-lane counterpart of [`Server::rng_draws`]): an
    /// offline core's lane freezes — no think, access, or meter records
    /// are taken on its behalf until it comes back online.
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn lane_draws(&self, core: usize) -> u64 {
        self.lanes.lane_draws(core)
    }

    /// Total events consumed from the queue since construction — the
    /// `event_pop` term of the deterministic cost model.
    pub fn events_popped(&self) -> u64 {
        self.queue.popped()
    }

    /// Deterministic operation counts attributable to this server's
    /// discrete-event machinery: queue pushes/pops, attributed RNG draws,
    /// and the draw lanes' sync ops (stream refills and epoch barriers,
    /// zero for a [`Self::serial_oracle`] server). Counts are cumulative
    /// since construction and identical for either event-queue
    /// implementation.
    pub fn cost(&self) -> fastcap_core::cost::CostCounter {
        fastcap_core::cost::CostCounter {
            event_pushes: self.events_scheduled(),
            event_pops: self.events_popped(),
            rng_draws: self.rng_draws.iter().sum(),
            lane_syncs: self.lanes.lane_syncs(),
            barrier_waits: self.lanes.barrier_waits(),
            ..Default::default()
        }
    }

    /// Whether a core is currently online (scenario hotplug state).
    ///
    /// # Panics
    ///
    /// Panics if `core` is out of range.
    pub fn core_active(&self, core: usize) -> bool {
        self.cores[core].active
    }

    /// Schedules a scenario mutation to fire at the **start** of epoch
    /// `at_epoch`, injected into the timing wheel as a regular event: it
    /// is `(time, FIFO-seq)`-ordered against simulation events, fires
    /// inside that epoch's event loop (after the epoch's DVFS decision is
    /// applied), and therefore perturbs the simulation identically at any
    /// `--jobs` count. A server with no scheduled controls behaves — byte
    /// for byte — like one built before this API existed.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for an out-of-range core, an epoch
    /// that already started, or too many scheduled controls.
    pub fn schedule_control(&mut self, at_epoch: u64, action: ControlAction) -> Result<()> {
        if action.core() >= self.cfg.n_cores {
            return Err(Error::InvalidConfig {
                what: "control",
                why: format!(
                    "core {} out of range for {} cores",
                    action.core(),
                    self.cfg.n_cores
                ),
            });
        }
        if at_epoch < self.epoch_index {
            return Err(Error::InvalidConfig {
                what: "control",
                why: format!(
                    "epoch {at_epoch} already simulated (at epoch {})",
                    self.epoch_index
                ),
            });
        }
        let slot = self.controls.len();
        if slot >= 1 << 22 {
            return Err(Error::InvalidConfig {
                what: "control",
                why: "at most 2^22 controls can be scheduled".into(),
            });
        }
        let span = to_ps(self.cfg.sim_epoch_length());
        self.controls.push(action);
        self.queue.push(at_epoch * span, Event::Control { slot });
        Ok(())
    }

    /// The observation a policy would receive right now (from the last
    /// completed epoch), if any epoch has completed.
    ///
    /// This clones the internal buffer; [`Server::run`] hands the policy a
    /// reference instead, so the epoch loop itself never copies samples.
    pub fn observation(&self) -> Option<EpochObservation> {
        self.obs_ready.then(|| self.obs.clone())
    }

    /// Runs `epochs` epochs under `policy` and returns the result. Epoch 0
    /// is always a warm-up at the current (initially maximum) frequencies.
    pub fn run<P>(&mut self, epochs: usize, mut policy: P) -> RunResult
    where
        P: FnMut(&EpochObservation) -> Option<DvfsDecision>,
    {
        let mut reports = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            let decision = if self.obs_ready {
                policy(&self.obs)
            } else {
                None
            };
            reports.push(self.run_epoch(decision.as_ref()));
        }
        RunResult {
            n_cores: self.cfg.n_cores,
            sim_epoch_length: self.cfg.sim_epoch_length(),
            peak_power: self.cfg.peak_power,
            epochs: reports,
        }
    }

    /// Runs one epoch, optionally applying a DVFS decision at its start.
    pub fn run_epoch(&mut self, decision: Option<&DvfsDecision>) -> EpochReport {
        let span = to_ps(self.cfg.sim_epoch_length());
        let start = self.now;
        let end = start + span;
        let mut emergency = false;

        if let Some(d) = decision {
            emergency = d.emergency;
            self.apply_decision(d);
        }
        self.refresh_cores();
        for c in &mut self.cores {
            c.stats.reset();
        }
        for ctl in &mut self.ctrls {
            ctl.counters.reset();
            ctl.activity.reset();
        }
        // Epoch boundary = barrier: refill every lane's draw streams
        // before the event loop runs.
        self.lanes.epoch_barrier(self.cfg.meter_noise > 0.0);

        self.advance_until(end);

        let report = self.measure(start, span, emergency);
        self.epoch_index += 1;
        report
    }

    // ---- internals -----------------------------------------------------

    fn apply_decision(&mut self, d: &DvfsDecision) {
        for (i, &idx) in d.core_freqs.iter().enumerate().take(self.cfg.n_cores) {
            let idx = idx.min(self.cfg.core_ladder.len() - 1);
            if idx != self.core_freq_idx[i] {
                self.core_freq_idx[i] = idx;
                self.cores[i].stall_until = self.now + self.core_stall;
            }
        }
        let mem_idx = d.mem_freq.min(self.cfg.mem_ladder.len() - 1);
        if mem_idx != self.mem_freq_idx {
            self.mem_freq_idx = mem_idx;
            self.bus_transfer = self.bus_tbl[mem_idx];
            let freeze = self.now + self.mem_freeze;
            for ctl in &mut self.ctrls {
                ctl.frozen_until = freeze;
            }
        }
    }

    /// The phase-model clock at the current simulation time: phase models
    /// are calibrated in units of the paper's 5 ms quantum, anchored to
    /// (undilated) wall time so studies that change the epoch length
    /// (Sec. IV-B: 10 ms, 20 ms) see the same application behaviour per
    /// unit time.
    fn phase_epoch(&self) -> f64 {
        let wall = self.now as f64 / PS_PER_SEC * self.cfg.time_dilation;
        wall / 5.0e-3
    }

    fn refresh_cores(&mut self) {
        let epoch = self.phase_epoch();
        for (i, core) in self.cores.iter_mut().enumerate() {
            let f = self.cfg.core_ladder.at(self.core_freq_idx[i]);
            core.refresh(epoch, self.cfg.core_mode, f);
        }
    }

    fn advance_until(&mut self, end: Ps) {
        while let Some((t, ev)) = self.queue.pop_if_before(end) {
            self.now = t;
            match ev {
                Event::CoreReady { core } => self.on_core_ready(core),
                Event::BankDone { ctrl, bank } => {
                    let sb = self.bus_transfer;
                    self.ctrls[ctrl].on_bank_done(bank, t, sb, &mut self.queue);
                }
                Event::BusDone { ctrl } => {
                    let sb = self.bus_transfer;
                    let req = self.ctrls[ctrl].on_bus_done(t, sb, &mut self.queue);
                    if let Some(core) = req.owner {
                        self.cores[core].outstanding -= 1;
                        if self.cores[core].outstanding == 0 {
                            self.schedule_core(core, t);
                        }
                    }
                }
                Event::Control { slot } => self.apply_control(slot),
            }
        }
        self.now = end;
    }

    /// Applies one scheduled scenario mutation at its event time.
    fn apply_control(&mut self, slot: usize) {
        let action = self.controls[slot].clone();
        match action {
            ControlAction::SetOnline { core, online } => {
                let was = self.cores[core].active;
                self.cores[core].active = online;
                if online && !was && self.cores[core].chain_dead {
                    // Fresh kick: the chain died while offline. Uses the
                    // same think-sampling path as the initial schedule.
                    self.cores[core].chain_dead = false;
                    let now = self.now;
                    self.schedule_core(core, now);
                }
            }
            ControlAction::SetIntensity { core, factor } => {
                self.cores[core].intensity_scale = factor;
                self.refresh_core(core);
            }
            ControlAction::SetOverlay { core, phase } => {
                self.cores[core].overlay = phase;
                self.refresh_core(core);
            }
            ControlAction::SwapApp { core, app } => {
                // Only the application changes: outstanding counters and
                // the chain state stay, so in-flight requests drain safely.
                self.cores[core].app = *app;
                self.refresh_core(core);
            }
        }
    }

    /// Re-derives one core's epoch-effective behaviour at the current
    /// simulation time (mid-epoch variant of [`Server::refresh_cores`]).
    fn refresh_core(&mut self, core: usize) {
        let epoch = self.phase_epoch();
        let f = self.cfg.core_ladder.at(self.core_freq_idx[core]);
        self.cores[core].refresh(epoch, self.cfg.core_mode, f);
    }

    fn schedule_core(&mut self, core: usize, now: Ps) {
        if !self.cores[core].active {
            // Offline: the chain dies here (no reschedule, no RNG draw);
            // coming back online re-kicks it.
            self.cores[core].chain_dead = true;
            return;
        }
        let mean = self.cores[core].think_mean;
        self.rng_draws[core] += 1;
        // Exponential think time: the lane record carries the unit-mean
        // `-ln(u)` factor; scaling by the mean at consumption time keeps
        // the record valid across mid-epoch intensity/app changes.
        let z = (mean * self.lanes.next_think(core)).round().max(1.0) as Ps;
        let c = &mut self.cores[core];
        c.pending_think = z;
        let start = now.max(c.stall_until);
        self.queue
            .push(start + z + self.l2_ps, Event::CoreReady { core });
    }

    fn on_core_ready(&mut self, core: usize) {
        if !self.cores[core].active {
            // The interval completed while the core was hot-unplugged: the
            // work is discarded, nothing is credited, the chain dies.
            self.cores[core].chain_dead = true;
            return;
        }
        self.cores[core].credit_interval();
        self.rng_draws[core] += 1;
        let burst = self.cores[core].burst;
        let row_hit_p = self.cores[core].row_hit_p;
        let wb_p = self.cores[core].wb_prob;
        let now = self.now;
        self.cores[core].outstanding = burst;
        for _ in 0..burst {
            // One fixed-size lane record per burst slot; the probability
            // thresholds are applied here, at consumption, so the stream
            // stays valid across mid-epoch wb/row-hit parameter changes.
            let d = self.lanes.next_access(core);
            let service = if d.hit_u < row_hit_p {
                self.service_hit
            } else {
                self.service_miss
            };
            self.ctrls[d.ctrl as usize].enqueue(
                d.bank as usize,
                Request {
                    owner: Some(core),
                    service,
                },
                now,
                &mut self.queue,
            );
            // Background writeback, off the critical path.
            if d.wb_u < wb_p {
                let wb_service = if d.wb_hit_u < row_hit_p {
                    self.service_hit
                } else {
                    self.service_miss
                };
                self.ctrls[d.wb_ctrl as usize].enqueue(
                    d.wb_bank as usize,
                    Request {
                        owner: None,
                        service: wb_service,
                    },
                    now,
                    &mut self.queue,
                );
            }
        }
    }

    /// Applies one lane-drawn approximately-normal meter sample `g` to a
    /// true power reading.
    fn noisy(noise: f64, g: f64, w: Watts) -> Watts {
        Watts((w.get() * (1.0 + noise * g)).max(0.0))
    }

    fn measure(&mut self, _start: Ps, span: Ps, emergency: bool) -> EpochReport {
        // Per-core power: dynamic (V²f × activity) + static. The counter
        // samples land directly in the reused observation buffer — no
        // intermediate snapshot, no per-epoch clone.
        let mut core_power = Vec::with_capacity(self.cfg.n_cores);
        let mut instructions = Vec::with_capacity(self.cfg.n_cores);
        self.obs.cores.clear();
        for i in 0..self.cfg.n_cores {
            let f = self.cfg.core_ladder.at(self.core_freq_idx[i]);
            let stats = self.cores[i].stats;
            let busy_frac = (stats.busy / span as f64).min(1.0);
            let p = if self.cores[i].active {
                let p_true = crate::power_model::core_power(&self.cfg, f, busy_frac);
                if self.cfg.meter_noise > 0.0 {
                    self.rng_draws[i] += 1;
                    let g = self.lanes.next_meter(i);
                    Self::noisy(self.cfg.meter_noise, g, p_true)
                } else {
                    p_true
                }
            } else {
                // Hot-unplugged cores are power-gated: no dynamic, no
                // static, no meter sample (and no RNG draw).
                Watts::ZERO
            };
            core_power.push(p);
            instructions.push(stats.instructions);

            // Counter sample for the next observation. A core that finished
            // no interval this epoch (possible for extremely CPU-bound apps
            // in short dilated epochs) synthesizes nominal counters.
            let (tpi, tic, tlm) = if stats.misses > 0 && stats.instructions > 0.0 {
                (
                    Secs(stats.busy / stats.instructions / PS_PER_SEC),
                    stats.instructions as u64,
                    stats.misses,
                )
            } else {
                let c = &self.cores[i];
                (
                    Secs(c.app.profile.base_cpi / f.get()),
                    c.instr_per_interval.max(1.0) as u64,
                    c.burst as u64,
                )
            };
            self.obs.cores.push(CoreSample {
                freq: f,
                busy_time_per_instruction: tpi,
                instructions: tic,
                last_level_misses: tlm,
                power: p,
            });
        }

        // Memory power: DRAM background + activity + controller V²f + bus IO.
        let f_mem = self.cfg.mem_ladder.at(self.mem_freq_idx);
        let fallback_service = self.service_hit; // row-hit `tCL`

        let mut mem_power_total = Watts::ZERO;
        let multi = self.cfg.n_controllers > 1;
        self.obs.controllers.clear();
        let mut agg = crate::memory::MemCounters::default();
        for ctl in &self.ctrls {
            let bank_util = (ctl.activity.bank_busy
                / (span as f64 * self.cfg.banks_per_controller as f64))
                .min(1.0);
            let bus_util = (ctl.activity.bus_busy / span as f64).min(1.0);
            let share = 1.0 / self.cfg.n_controllers as f64;
            // Each controller covers `share` of the DIMM population; its
            // banks' utilization drives that share's background/activity.
            let p = crate::power_model::memory_power(
                &self.cfg,
                &self.mc_vcurve,
                f_mem,
                bank_util,
                bus_util,
                ctl.activity.read_fraction(),
                share,
            );
            mem_power_total += p;
            if multi {
                self.obs.controllers.push(MemorySample {
                    bus_freq: f_mem,
                    bank_queue: ctl.counters.mean_q(),
                    bus_queue: ctl.counters.mean_u(),
                    bank_service_time: Secs(
                        ctl.counters.mean_service_ps(fallback_service) / PS_PER_SEC,
                    ),
                    power: p,
                });
            }
            agg.q_sum += ctl.counters.q_sum;
            agg.q_n += ctl.counters.q_n;
            agg.u_sum += ctl.counters.u_sum;
            agg.u_n += ctl.counters.u_n;
            agg.service_sum += ctl.counters.service_sum;
            agg.service_n += ctl.counters.service_n;
        }
        // The memory subsystem meters from its own lane (index `n_cores`).
        let mem_power = if self.cfg.meter_noise > 0.0 {
            let g = self.lanes.next_mem_meter();
            Self::noisy(self.cfg.meter_noise, g, mem_power_total)
        } else {
            mem_power_total
        };
        self.obs.memory = MemorySample {
            bus_freq: f_mem,
            bank_queue: agg.mean_q(),
            bus_queue: agg.mean_u(),
            bank_service_time: Secs(agg.mean_service_ps(fallback_service) / PS_PER_SEC),
            power: mem_power,
        };

        let cores_total: Watts = core_power.iter().copied().sum();
        let total = cores_total + mem_power + self.cfg.other_power;
        self.obs.total_power = total;
        self.obs_ready = true;

        EpochReport {
            epoch: self.epoch_index,
            core_freq_idx: self.core_freq_idx.clone(),
            mem_freq_idx: self.mem_freq_idx,
            core_power,
            mem_power,
            total_power: total,
            instructions,
            emergency,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_workloads::mixes;

    fn quick_cfg(n: usize) -> SimConfig {
        SimConfig::ispass(n)
            .unwrap()
            .with_time_dilation(100.0)
            .with_meter_noise(0.0)
    }

    fn server(mix: &str, n: usize, seed: u64) -> Server {
        Server::for_workload(quick_cfg(n), &mixes::by_name(mix).unwrap(), seed).unwrap()
    }

    #[test]
    fn construction_validates() {
        let cfg = quick_cfg(16);
        let w = mixes::by_name("MIX1").unwrap();
        assert!(Server::for_workload(cfg.clone(), &w, 1).is_ok());
        // Wrong app count.
        let apps = w.instantiate(16).unwrap();
        let mut cfg4 = quick_cfg(4);
        cfg4.n_cores = 4;
        assert!(Server::new(cfg4, apps, 1).is_err());
    }

    #[test]
    fn uncapped_run_produces_sane_epochs() {
        let mut s = server("MEM1", 16, 42);
        let r = s.run(10, |_| None);
        assert_eq!(r.epochs.len(), 10);
        for e in &r.epochs {
            // Everything at max frequency.
            assert!(e.core_freq_idx.iter().all(|&i| i == 9));
            assert_eq!(e.mem_freq_idx, 9);
            assert!(e.total_power.get() > 30.0, "power {e:?}");
            assert!(e.total_power.get() < 130.0);
            // Memory-bound cores retire instructions.
            assert!(e.instructions.iter().all(|&i| i > 0.0));
        }
    }

    #[test]
    fn peak_power_is_near_calibration_target() {
        // ILP at max frequencies should approach the 120 W peak target for
        // 16 cores; MEM should draw visibly less CPU power.
        let mut ilp = server("ILP1", 16, 7);
        let p_ilp = ilp.run(8, |_| None).avg_power(2);
        assert!(
            p_ilp.get() > 95.0 && p_ilp.get() < 125.0,
            "ILP1 peak draw = {p_ilp}"
        );
        let mut mem = server("MEM1", 16, 7);
        let p_mem = mem.run(8, |_| None).avg_power(2);
        assert!(
            p_mem < p_ilp,
            "MEM ({p_mem}) should draw less than ILP ({p_ilp})"
        );
    }

    #[test]
    fn observation_reflects_workload_intensity() {
        let mut s = server("MEM1", 16, 3);
        s.run(3, |_| None);
        let obs = s.observation().unwrap();
        assert_eq!(obs.cores.len(), 16);
        // Memory-bound: plenty of misses, short think times.
        let z = obs.cores[0].min_think_time(fastcap_core::units::Hz::from_ghz(4.0));
        assert!(z.nanos() < 100.0, "MEM think time {z}");
        assert!(obs.cores[0].last_level_misses > 100);
        assert!(obs.memory.bank_queue >= 1.0);
        assert!(obs.memory.bus_queue >= 1.0);
        assert!(obs.memory.bank_service_time.nanos() >= 14.0);

        let mut s = server("ILP2", 16, 3);
        s.run(3, |_| None);
        let obs_ilp = s.observation().unwrap();
        let z_ilp = obs_ilp.cores[0].min_think_time(fastcap_core::units::Hz::from_ghz(4.0));
        assert!(z_ilp > z, "ILP think ({z_ilp}) must exceed MEM think ({z})");
    }

    #[test]
    fn lowering_core_freq_reduces_power_and_throughput() {
        let mut fast = server("MID1", 16, 9);
        let r_fast = fast.run(6, |_| None);

        let slow_decision = DvfsDecision {
            core_freqs: vec![0; 16],
            mem_freq: 9,
            predicted_power: Watts(0.0),
            quantized_power: Watts(0.0),
            budget_trim: Watts(0.0),
            degradation: 0.5,
            budget_bound: true,
            emergency: false,
        };
        let mut slow = server("MID1", 16, 9);
        let r_slow = slow.run(6, |_| Some(slow_decision.clone()));

        assert!(
            r_slow.avg_power(2) < r_fast.avg_power(2),
            "slow {} vs fast {}",
            r_slow.avg_power(2),
            r_fast.avg_power(2)
        );
        let t_fast: f64 = r_fast.throughput(2).iter().sum();
        let t_slow: f64 = r_slow.throughput(2).iter().sum();
        assert!(t_slow < t_fast, "slow {t_slow} vs fast {t_fast}");
    }

    #[test]
    fn lowering_mem_freq_hurts_memory_bound_more() {
        let slow_mem = DvfsDecision {
            core_freqs: vec![9; 16],
            mem_freq: 0,
            predicted_power: Watts(0.0),
            quantized_power: Watts(0.0),
            budget_trim: Watts(0.0),
            degradation: 0.8,
            budget_bound: true,
            emergency: false,
        };
        let loss = |mix: &str| {
            let mut base = server(mix, 16, 11);
            let rb = base.run(6, |_| None);
            let mut capped = server(mix, 16, 11);
            let rc = capped.run(6, |_| Some(slow_mem.clone()));
            let d = rc.degradation_vs(&rb, 2).unwrap();
            d.iter().sum::<f64>() / d.len() as f64
        };
        let mem_loss = loss("MEM1");
        let ilp_loss = loss("ILP2");
        assert!(
            mem_loss > ilp_loss,
            "MEM loss {mem_loss} should exceed ILP loss {ilp_loss}"
        );
        assert!(mem_loss > 1.2, "slow memory must hurt MEM1: {mem_loss}");
    }

    #[test]
    fn determinism_same_seed_same_result() {
        let mut a = server("MIX3", 16, 123);
        let mut b = server("MIX3", 16, 123);
        let ra = a.run(4, |_| None);
        let rb = b.run(4, |_| None);
        assert_eq!(ra, rb);
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = server("MIX3", 16, 1);
        let mut b = server("MIX3", 16, 2);
        let ra = a.run(4, |_| None);
        let rb = b.run(4, |_| None);
        assert_ne!(ra, rb);
    }

    #[test]
    fn ooo_mode_runs_and_issues_bursts() {
        let cfg = quick_cfg(16).out_of_order();
        let mut s = Server::for_workload(cfg, &mixes::by_name("MEM2").unwrap(), 5).unwrap();
        let r = s.run(4, |_| None);
        // OoO must still retire instructions and draw sane power.
        assert!(r.epochs[3].instructions.iter().all(|&i| i > 0.0));
        assert!(r.avg_power(1).get() > 30.0);
    }

    #[test]
    fn multi_controller_mode_reports_per_controller_samples() {
        let cfg =
            quick_cfg(16).with_controllers(4, crate::config::Interleaving::Skewed { decay: 0.45 });
        let mut s = Server::for_workload(cfg, &mixes::by_name("MEM3").unwrap(), 5).unwrap();
        s.run(4, |_| None);
        let obs = s.observation().unwrap();
        assert_eq!(obs.controllers.len(), 4);
        assert_eq!(obs.access_weights.len(), 16);
        // Skew: controller 0 must be visibly busier (higher Q) than 3.
        assert!(
            obs.controllers[0].bank_queue >= obs.controllers[3].bank_queue,
            "skewed Q: {} vs {}",
            obs.controllers[0].bank_queue,
            obs.controllers[3].bank_queue
        );
    }

    #[test]
    fn scheduling_no_controls_changes_nothing() {
        // The control machinery must be invisible to plain runs: a server
        // that never schedules a control is byte-identical to the
        // pre-scenario engine (also pinned repo-wide by the golden tests).
        let mut plain = server("MIX2", 16, 77);
        let mut silent = server("MIX2", 16, 77);
        // Scheduling for an epoch past the run's end also changes nothing
        // observable within the run.
        silent
            .schedule_control(
                1_000,
                ControlAction::SetIntensity {
                    core: 0,
                    factor: 5.0,
                },
            )
            .unwrap();
        assert_eq!(plain.run(5, |_| None), silent.run(5, |_| None));
    }

    #[test]
    fn control_validation_rejects_bad_input() {
        let mut s = server("MIX1", 16, 1);
        assert!(s
            .schedule_control(
                0,
                ControlAction::SetIntensity {
                    core: 16,
                    factor: 2.0
                }
            )
            .is_err());
        s.run(3, |_| None);
        // Epoch 2 already simulated.
        assert!(s
            .schedule_control(
                2,
                ControlAction::SetIntensity {
                    core: 0,
                    factor: 2.0
                }
            )
            .is_err());
        assert!(s
            .schedule_control(
                3,
                ControlAction::SetIntensity {
                    core: 0,
                    factor: 2.0
                }
            )
            .is_ok());
    }

    #[test]
    fn controls_fire_at_their_epoch_boundary_not_before() {
        // An intensity surge scheduled for epoch 3 must leave epochs 0..3
        // byte-identical to an unperturbed run and visibly change epoch 3+.
        let mut plain = server("MEM1", 16, 9);
        let r_plain = plain.run(6, |_| None);
        let mut surged = server("MEM1", 16, 9);
        for core in 0..16 {
            surged
                .schedule_control(3, ControlAction::SetIntensity { core, factor: 8.0 })
                .unwrap();
        }
        let r_surged = surged.run(6, |_| None);
        for e in 0..3 {
            assert_eq!(
                r_plain.epochs[e], r_surged.epochs[e],
                "epoch {e} perturbed before the event"
            );
        }
        // 8x the miss intensity → far fewer instructions per epoch.
        let i_plain: f64 = r_plain.epochs[4].instructions.iter().sum();
        let i_surged: f64 = r_surged.epochs[4].instructions.iter().sum();
        assert!(
            i_surged < i_plain * 0.5,
            "surge must bite: {i_surged} vs {i_plain}"
        );
    }

    #[test]
    fn offline_cores_are_power_gated_and_idle() {
        let mut s = server("MID1", 16, 21);
        for core in 0..4 {
            s.schedule_control(
                2,
                ControlAction::SetOnline {
                    core,
                    online: false,
                },
            )
            .unwrap();
        }
        let r = s.run(6, |_| None);
        for core in 0..4 {
            assert!(!s.core_active(core));
            // Power-gated from the hotplug epoch onward.
            assert_eq!(r.epochs[3].core_power[core], Watts::ZERO);
            assert_eq!(r.epochs[5].core_power[core], Watts::ZERO);
            // No instructions retire once the in-flight interval drains.
            assert_eq!(r.epochs[5].instructions[core], 0.0);
        }
        // Online cores keep drawing power and retiring work.
        assert!(r.epochs[5].core_power[8].get() > 0.5);
        assert!(r.epochs[5].instructions[8] > 0.0);
    }

    #[test]
    fn offline_cores_stop_drawing_rng() {
        let mut s = server("MID1", 16, 31);
        s.schedule_control(
            2,
            ControlAction::SetOnline {
                core: 3,
                online: false,
            },
        )
        .unwrap();
        s.schedule_control(
            6,
            ControlAction::SetOnline {
                core: 3,
                online: true,
            },
        )
        .unwrap();
        s.run(3, |_| None);
        let at_offline = s.rng_draws().to_vec();
        assert!(at_offline.iter().all(|&d| d > 0), "everyone drew at start");
        s.run(3, |_| None); // epochs 3..6: core 3 fully offline
        let mid = s.rng_draws().to_vec();
        assert_eq!(
            mid[3], at_offline[3],
            "offline core's draw count must freeze"
        );
        assert!(mid[4] > at_offline[4], "online cores keep drawing");
        s.run(3, |_| None); // back online at epoch 6
        assert!(
            s.rng_draws()[3] > mid[3],
            "returning core resumes drawing RNG"
        );
    }

    #[test]
    fn hotplug_round_trip_restarts_the_chain() {
        let mut s = server("MID1", 16, 22);
        s.schedule_control(
            1,
            ControlAction::SetOnline {
                core: 5,
                online: false,
            },
        )
        .unwrap();
        s.schedule_control(
            4,
            ControlAction::SetOnline {
                core: 5,
                online: true,
            },
        )
        .unwrap();
        let r = s.run(8, |_| None);
        assert!(s.core_active(5));
        assert_eq!(r.epochs[3].instructions[5], 0.0, "offline window");
        assert!(
            r.epochs[6].instructions[5] > 0.0,
            "core must resume after coming back online"
        );
        assert!(r.epochs[6].core_power[5].get() > 0.5);
    }

    #[test]
    fn swap_app_changes_behaviour_mid_run() {
        let mut s = server("ILP2", 16, 23);
        // Swap a compute-bound core to the most memory-intensive profile.
        let swim = fastcap_workloads::spec::base("swim").unwrap();
        s.schedule_control(
            3,
            ControlAction::SwapApp {
                core: 0,
                app: Box::new(AppInstance::new(&swim, 0)),
            },
        )
        .unwrap();
        let r = s.run(6, |_| None);
        // swim misses ~50x more: far fewer instructions per epoch after.
        assert!(
            r.epochs[5].instructions[0] < r.epochs[1].instructions[0] * 0.5,
            "after swap {} vs before {}",
            r.epochs[5].instructions[0],
            r.epochs[1].instructions[0]
        );
    }

    #[test]
    fn overlay_control_modulates_load() {
        let mut s = server("MEM2", 16, 24);
        let envelope = PhaseSpec {
            period_epochs: 8.0,
            amplitude: 0.9,
            ripple_period_epochs: 1.0,
            ripple_amplitude: 0.0,
            offset: 0.0,
            mode_period_epochs: 0.0,
            mode_amplitude: 0.0,
        };
        for core in 0..16 {
            s.schedule_control(
                0,
                ControlAction::SetOverlay {
                    core,
                    phase: Some(envelope),
                },
            )
            .unwrap();
        }
        let r = s.run(10, |_| None);
        // The envelope must visibly move per-epoch throughput.
        let sums: Vec<f64> = r
            .epochs
            .iter()
            .map(|e| e.instructions.iter().sum())
            .collect();
        let min = sums.iter().cloned().fold(f64::MAX, f64::min);
        let max = sums.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max / min > 1.3, "envelope too flat: {min}..{max}");
    }

    #[test]
    fn emergency_flag_propagates() {
        let mut s = server("MIX1", 16, 5);
        let d = DvfsDecision {
            core_freqs: vec![0; 16],
            mem_freq: 0,
            predicted_power: Watts(50.0),
            quantized_power: Watts(50.0),
            budget_trim: Watts(0.0),
            degradation: 0.0,
            budget_bound: true,
            emergency: true,
        };
        let r = s.run(3, move |_| Some(d.clone()));
        assert!(r.epochs[1].emergency);
        assert!(!r.epochs[0].emergency, "warm-up epoch has no decision");
    }
}
