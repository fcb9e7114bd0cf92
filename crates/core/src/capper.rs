//! The epoch-driven FastCap controller (Sec. III-C).
//!
//! [`FastCapController`] is what the OS would invoke once per time quantum:
//! it consumes an [`EpochObservation`], refits the power models from the
//! observed (frequency, power) pairs, assembles the optimization instance,
//! runs Algorithm 1, and quantizes the continuous solution onto the DVFS
//! ladders — to the nearest level when the optimum is interior ("the
//! closest frequency after normalization"), but to the nearest level *at
//! or below* when the optimum is budget-bound, since a budget-bound
//! optimum sits on the cap and rounding up overshoots by construction.
//! A slack-feedback integrator additionally trims the cap handed to the
//! optimizer by the accumulated measured-minus-budget slack, cancelling
//! systematic fitter prediction bias (DESIGN.md §13).

use crate::cost::CostCounter;
use crate::counters::EpochObservation;
use crate::error::{Error, Result};
use crate::freq::FreqLadder;
use crate::model::{CapModel, CoreModel, MemoryModel, ResponseModel};
use crate::optimizer::{self, bus_candidates};
use crate::power::{ExponentBounds, PowerLaw, PowerModelFitter, PowerSample};
use crate::queueing::{MultiControllerModel, ResponseTimeModel};
use crate::units::{Hz, Secs, Watts};
use serde::{Deserialize, Serialize};

/// Static configuration of the controller.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FastCapConfig {
    /// Number of cores `N`.
    pub n_cores: usize,
    /// Core DVFS ladder (`F` levels).
    pub core_ladder: FreqLadder,
    /// Memory-bus DVFS ladder (`M` levels).
    pub mem_ladder: FreqLadder,
    /// Peak full-system power `P̄` (measured at maximum frequencies).
    pub peak_power: Watts,
    /// Budget fraction `B ∈ (0, 1]`; the cap is `B·P̄`.
    pub budget_fraction: f64,
    /// Per-core static (frequency-independent) power.
    pub core_static_power: Watts,
    /// Memory static power (DIMM background at lowest state, etc.).
    pub mem_static_power: Watts,
    /// Everything else (disks, NICs, L2, board) — the fixed 10 W of
    /// Sec. IV-A plus any other frequency-independent draw.
    pub other_static_power: Watts,
    /// `s̄_b`: bus transfer time at the maximum memory frequency.
    pub min_bus_transfer_time: Secs,
    /// Average L2 time per access, `c_i` (frequency-independent).
    pub cache_time: Secs,
    /// Initial core power law used until the fitter has data.
    pub initial_core_law: PowerLaw,
    /// Initial memory power law used until the fitter has data.
    pub initial_mem_law: PowerLaw,
    /// When `true` (the default), a *budget-bound* continuous optimum is
    /// quantized to the nearest ladder step at or **below** each continuous
    /// frequency, so quantization error can only create slack, never
    /// overshoot. Interior (performance-bound) optima keep the paper's
    /// nearest-level rule, where rounding up costs nothing.
    pub quantize_down: bool,
    /// Integral gain on the measured-minus-budget slack: each epoch the
    /// controller adds `slack_gain · (measured − budget)` to a budget trim
    /// that shrinks the cap handed to the optimizer, cancelling systematic
    /// fitter prediction bias the way Freq-Par's feedback loop implicitly
    /// does. `0` disables the integrator.
    pub slack_gain: f64,
    /// Anti-windup clamp: the integrator trim stays in
    /// `[0, slack_clamp · budget]` — it only ever *tightens* the cap, and
    /// never by more than this fraction.
    pub slack_clamp: f64,
}

impl FastCapConfig {
    /// Starts a builder with the paper's defaults for an `n_cores` system.
    pub fn builder(n_cores: usize) -> FastCapConfigBuilder {
        FastCapConfigBuilder::new(n_cores)
    }

    /// The absolute power budget `B·P̄`.
    #[inline]
    pub fn budget(&self) -> Watts {
        Watts(self.peak_power.get() * self.budget_fraction)
    }

    /// Total static power `P_s`.
    #[inline]
    pub fn total_static_power(&self) -> Watts {
        self.core_static_power * self.n_cores as f64
            + self.mem_static_power
            + self.other_static_power
    }

    /// Returns a copy with a new budget fraction, revalidated — the one
    /// validation path for mid-run budget moves (used by every policy's
    /// `on_budget_change`).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the fraction is outside
    /// `(0, 1]`.
    pub fn with_budget_fraction(&self, fraction: f64) -> Result<Self> {
        let mut cfg = self.clone();
        cfg.budget_fraction = fraction;
        cfg.validate()?;
        Ok(cfg)
    }

    /// Returns a copy modelling `n_cores` cores, revalidated. Everything
    /// per-core (static power, ladders, initial laws) is kept; only the
    /// modelled core count — and therefore the total static power — moves.
    /// This is the configuration step of warm-carry hotplug
    /// ([`FastCapController::warm_carry`]).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `n_cores` is zero.
    pub fn with_n_cores(&self, n_cores: usize) -> Result<Self> {
        let mut cfg = self.clone();
        cfg.n_cores = n_cores;
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<()> {
        if self.n_cores == 0 {
            return Err(Error::InvalidConfig {
                what: "n_cores",
                why: "must be at least 1".into(),
            });
        }
        if !(self.budget_fraction > 0.0 && self.budget_fraction <= 1.0) {
            return Err(Error::InvalidConfig {
                what: "budget_fraction",
                why: format!("must be in (0, 1], got {}", self.budget_fraction),
            });
        }
        if !(self.peak_power.get() > 0.0 && self.peak_power.is_finite()) {
            return Err(Error::InvalidConfig {
                what: "peak_power",
                why: format!("must be positive, got {}", self.peak_power),
            });
        }
        // `is_nan() ||` rather than a negated comparison so NaN is rejected
        // explicitly (clippy: neg_cmp_op_on_partial_ord).
        let sb = self.min_bus_transfer_time.get();
        if sb.is_nan() || sb <= 0.0 {
            return Err(Error::InvalidConfig {
                what: "min_bus_transfer_time",
                why: "must be positive".into(),
            });
        }
        for (name, w) in [
            ("core_static_power", self.core_static_power),
            ("mem_static_power", self.mem_static_power),
            ("other_static_power", self.other_static_power),
        ] {
            if !(w.get() >= 0.0 && w.is_finite()) {
                return Err(Error::InvalidConfig {
                    what: "static power",
                    why: format!("{name} must be >= 0 and finite, got {w}"),
                });
            }
        }
        let ct = self.cache_time.get();
        if ct.is_nan() || ct < 0.0 {
            return Err(Error::InvalidConfig {
                what: "cache_time",
                why: "must be >= 0".into(),
            });
        }
        if !(self.slack_gain >= 0.0 && self.slack_gain <= 1.0) {
            return Err(Error::InvalidConfig {
                what: "slack_gain",
                why: format!("must be in [0, 1], got {}", self.slack_gain),
            });
        }
        if !(self.slack_clamp >= 0.0 && self.slack_clamp <= 0.5) {
            return Err(Error::InvalidConfig {
                what: "slack_clamp",
                why: format!("must be in [0, 0.5], got {}", self.slack_clamp),
            });
        }
        Ok(())
    }
}

/// Builder for [`FastCapConfig`] with paper-matching defaults.
#[derive(Debug, Clone)]
pub struct FastCapConfigBuilder {
    cfg: FastCapConfig,
}

impl FastCapConfigBuilder {
    fn new(n_cores: usize) -> Self {
        // Defaults mirror the 16-core ISPASS platform, scaled to N:
        // per-core 3.5 W dynamic + 1.0 W static, memory 24 W dynamic +
        // 12 W static, 10 W other.
        let peak = Watts(4.5 * n_cores as f64 + 36.0 + 10.0);
        Self {
            cfg: FastCapConfig {
                n_cores,
                core_ladder: FreqLadder::ispass_core(),
                mem_ladder: FreqLadder::ispass_memory_bus(),
                peak_power: peak,
                budget_fraction: 0.6,
                core_static_power: Watts(1.0),
                mem_static_power: Watts(12.0),
                other_static_power: Watts(10.0),
                min_bus_transfer_time: Secs::from_nanos(5.0),
                cache_time: Secs::from_nanos(7.5),
                initial_core_law: PowerLaw {
                    p_max: Watts(3.5),
                    alpha: 2.5,
                },
                initial_mem_law: PowerLaw {
                    p_max: Watts(24.0),
                    alpha: 1.0,
                },
                quantize_down: true,
                slack_gain: 0.2,
                slack_clamp: 0.05,
            },
        }
    }

    /// Sets the budget fraction `B`.
    #[must_use]
    pub fn budget_fraction(mut self, b: f64) -> Self {
        self.cfg.budget_fraction = b;
        self
    }

    /// Sets the measured peak full-system power `P̄`.
    #[must_use]
    pub fn peak_power(mut self, p: Watts) -> Self {
        self.cfg.peak_power = p;
        self
    }

    /// Sets the core DVFS ladder.
    #[must_use]
    pub fn core_ladder(mut self, l: FreqLadder) -> Self {
        self.cfg.core_ladder = l;
        self
    }

    /// Sets the memory-bus DVFS ladder.
    #[must_use]
    pub fn mem_ladder(mut self, l: FreqLadder) -> Self {
        self.cfg.mem_ladder = l;
        self
    }

    /// Sets static powers (per-core, memory, other).
    #[must_use]
    pub fn static_powers(mut self, core: Watts, mem: Watts, other: Watts) -> Self {
        self.cfg.core_static_power = core;
        self.cfg.mem_static_power = mem;
        self.cfg.other_static_power = other;
        self
    }

    /// Sets the minimum bus transfer time `s̄_b`.
    #[must_use]
    pub fn min_bus_transfer_time(mut self, s: Secs) -> Self {
        self.cfg.min_bus_transfer_time = s;
        self
    }

    /// Sets the L2 cache time `c_i`.
    #[must_use]
    pub fn cache_time(mut self, c: Secs) -> Self {
        self.cfg.cache_time = c;
        self
    }

    /// Sets the initial (pre-fit) power laws.
    #[must_use]
    pub fn initial_laws(mut self, core: PowerLaw, mem: PowerLaw) -> Self {
        self.cfg.initial_core_law = core;
        self.cfg.initial_mem_law = mem;
        self
    }

    /// Enables or disables quantize-down rounding of budget-bound optima
    /// (on by default; off reproduces the pre-PR-10 nearest-level bias,
    /// kept for the `bias_ablation` artifact).
    #[must_use]
    pub fn quantize_down(mut self, on: bool) -> Self {
        self.cfg.quantize_down = on;
        self
    }

    /// Sets the slack-feedback integrator gain and anti-windup clamp
    /// fraction (gain 0 disables the integrator).
    #[must_use]
    pub fn slack_feedback(mut self, gain: f64, clamp: f64) -> Self {
        self.cfg.slack_gain = gain;
        self.cfg.slack_clamp = clamp;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when any parameter is out of range.
    pub fn build(self) -> Result<FastCapConfig> {
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

/// The DVFS settings chosen for the next epoch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DvfsDecision {
    /// Per-core ladder indices.
    pub core_freqs: Vec<usize>,
    /// Memory-bus ladder index.
    pub mem_freq: usize,
    /// Predicted total power at the (continuous) optimum.
    pub predicted_power: Watts,
    /// Predicted total power at the **quantized** ladder point — the
    /// frequencies the actuators will actually set. This is the number to
    /// audit against the cap: with quantize-down on it is `<=` the
    /// effective budget whenever the solve is budget-bound, while the
    /// continuous prediction merely saturates the cap.
    pub quantized_power: Watts,
    /// The slack-feedback integrator's trim subtracted from the cap for
    /// this solve (zero when the integrator is disabled or fully unwound).
    pub budget_trim: Watts,
    /// The achieved degradation factor `D` (1.0 = no degradation).
    pub degradation: f64,
    /// Whether the budget constraint was binding.
    pub budget_bound: bool,
    /// `true` when the optimizer found no feasible point and the controller
    /// fell back to minimum frequencies everywhere.
    pub emergency: bool,
}

impl DvfsDecision {
    /// Resolves the chosen core frequencies against a ladder.
    pub fn core_freqs_hz(&self, ladder: &FreqLadder) -> Vec<Hz> {
        self.core_freqs.iter().map(|&i| ladder.at(i)).collect()
    }

    /// Resolves the chosen memory frequency against a ladder.
    pub fn mem_freq_hz(&self, ladder: &FreqLadder) -> Hz {
        ladder.at(self.mem_freq)
    }
}

/// The online FastCap controller.
#[derive(Debug, Clone)]
pub struct FastCapController {
    cfg: FastCapConfig,
    core_fitters: Vec<PowerModelFitter>,
    mem_fitter: PowerModelFitter,
    candidates: Vec<Secs>,
    epochs_seen: u64,
    cost: CostCounter,
    /// Slack-feedback integrator state: watts currently trimmed off the
    /// cap (`>= 0`; see [`FastCapConfig::slack_gain`]).
    slack_trim: f64,
    /// `false` for exactly one observation after a budget step or
    /// hotplug: that epoch ran under a *different* cap, so charging its
    /// slack to the integrator would be bias, not signal.
    slack_armed: bool,
}

impl FastCapController {
    /// Creates a controller from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if the configuration is invalid.
    pub fn new(cfg: FastCapConfig) -> Result<Self> {
        cfg.validate()?;
        let core_fitters = (0..cfg.n_cores)
            .map(|_| PowerModelFitter::new(cfg.initial_core_law, ExponentBounds::CORE))
            .collect();
        let mem_fitter = PowerModelFitter::new(cfg.initial_mem_law, ExponentBounds::MEMORY);
        let candidates = bus_candidates(cfg.min_bus_transfer_time, cfg.mem_ladder.levels());
        Ok(Self {
            cfg,
            core_fitters,
            mem_fitter,
            candidates,
            epochs_seen: 0,
            cost: CostCounter::default(),
            slack_trim: 0.0,
            slack_armed: true,
        })
    }

    /// The controller's configuration.
    #[inline]
    pub fn config(&self) -> &FastCapConfig {
        &self.cfg
    }

    /// Number of epochs processed so far.
    #[inline]
    pub fn epochs_seen(&self) -> u64 {
        self.epochs_seen
    }

    /// Changes the budget fraction `B` mid-run (a datacenter power
    /// emergency, or its end). This is the explicit re-solve path for
    /// scripted budget steps and ramps: the fitted power models and all
    /// other state are kept — only the cap moves — so the very next
    /// [`FastCapController::decide`] call solves against the new budget
    /// with fully warm models instead of re-converging from scratch.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when the new fraction is outside
    /// `(0, 1]`; the controller is left unchanged.
    pub fn set_budget_fraction(&mut self, fraction: f64) -> Result<()> {
        self.cfg = self.cfg.with_budget_fraction(fraction)?;
        // The integrator's accumulated slack was measured against the old
        // cap; carrying it across a step would mis-trim the new one.
        self.slack_trim = 0.0;
        self.slack_armed = false;
        Ok(())
    }

    /// Rebuilds the controller for a changed online-core set while
    /// **carrying** the surviving cores' fitted power models — the
    /// warm-carry hotplug path: the transient after a hotplug event then
    /// isolates budget re-allocation, not model re-fitting.
    ///
    /// `carried[j]` names the previous controller's core index that new
    /// core `j` corresponds to, or `None` for a core with no prior state
    /// (it starts from the configured initial law, exactly like a fresh
    /// controller's cores). The memory fitter and the epoch counter always
    /// carry over.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `carried` is empty or names
    /// an out-of-range previous core.
    pub fn warm_carry(&self, carried: &[Option<usize>]) -> Result<Self> {
        let cfg = self.cfg.with_n_cores(carried.len())?;
        let core_fitters = carried
            .iter()
            .map(|&src| match src {
                Some(i) if i < self.core_fitters.len() => Ok(self.core_fitters[i].clone()),
                Some(i) => Err(Error::InvalidConfig {
                    what: "warm_carry",
                    why: format!(
                        "carried core {i} out of range for {} previous cores",
                        self.core_fitters.len()
                    ),
                }),
                None => Ok(PowerModelFitter::new(
                    cfg.initial_core_law,
                    ExponentBounds::CORE,
                )),
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(Self {
            cfg,
            core_fitters,
            mem_fitter: self.mem_fitter.clone(),
            candidates: self.candidates.clone(),
            epochs_seen: self.epochs_seen,
            cost: self.cost,
            // Hotplug resets the integrator: the carried slack was
            // measured against a different active set.
            slack_trim: 0.0,
            slack_armed: false,
        })
    }

    /// Builds the optimization instance from an observation (exposed for
    /// baseline policies that reuse FastCap's modelling but search
    /// differently).
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] when the observation does not match
    /// `n_cores`, or [`Error::InvalidModel`] for malformed counters.
    pub fn build_model(&self, obs: &EpochObservation) -> Result<CapModel> {
        if obs.cores.len() != self.cfg.n_cores {
            return Err(Error::ShapeMismatch {
                expected: self.cfg.n_cores,
                got: obs.cores.len(),
            });
        }
        let f_max = self.cfg.core_ladder.max();
        let cores = obs
            .cores
            .iter()
            .enumerate()
            .map(|(i, s)| CoreModel {
                min_think_time: s.min_think_time(f_max),
                cache_time: self.cfg.cache_time,
                power: self.core_fitters[i].model(),
            })
            .collect();

        let response = if obs.controllers.is_empty() {
            ResponseModel::Single(ResponseTimeModel::new(
                obs.memory.bank_queue,
                obs.memory.bus_queue,
                obs.memory.bank_service_time,
            )?)
        } else {
            let ctls = obs
                .controllers
                .iter()
                .map(|c| ResponseTimeModel::new(c.bank_queue, c.bus_queue, c.bank_service_time))
                .collect::<Result<Vec<_>>>()?;
            ResponseModel::Multi(MultiControllerModel::new(ctls, obs.access_weights.clone())?)
        };

        let model = CapModel {
            cores,
            memory: MemoryModel {
                min_bus_transfer_time: self.cfg.min_bus_transfer_time,
                response,
                power: self.mem_fitter.model(),
            },
            static_power: self.cfg.total_static_power(),
            budget: self.effective_budget(),
        };
        model.validate()?;
        Ok(model)
    }

    /// Feeds the fitters with this epoch's (frequency, power) observations
    /// and advances the epoch counter. [`FastCapController::decide`] calls
    /// this internally; baseline policies that reuse FastCap's modelling but
    /// search differently call it before [`FastCapController::build_model`].
    pub fn observe(&mut self, obs: &EpochObservation) {
        let updates = self.update_fitters(obs);
        self.cost.fitter_updates += updates;
        if self.cfg.slack_gain > 0.0 {
            if self.slack_armed {
                let over = obs.total_power.get() - self.cfg.budget().get();
                self.slack_trim = (self.slack_trim + self.cfg.slack_gain * over)
                    .clamp(0.0, self.cfg.slack_clamp * self.cfg.budget().get());
            } else {
                self.slack_armed = true;
            }
        }
        self.epochs_seen += 1;
    }

    /// The slack-feedback integrator's current budget trim (watts).
    #[inline]
    pub fn budget_trim(&self) -> Watts {
        Watts(self.slack_trim)
    }

    /// The cap the optimizer actually solves against: the configured
    /// budget minus the integrator trim.
    #[inline]
    pub fn effective_budget(&self) -> Watts {
        Watts(self.cfg.budget().get() - self.slack_trim)
    }

    /// Cumulative deterministic operation counts for everything this
    /// controller has done (fitter updates, bus-point evaluations, solver
    /// inner-loop terms, ladder quantizations). Same inputs → same counts,
    /// on any host at any parallelism level.
    #[inline]
    pub fn cost(&self) -> CostCounter {
        self.cost
    }

    /// The ordered candidate bus-transfer-time array (one per memory
    /// frequency level, ascending in `s_b`).
    pub fn candidates(&self) -> &[Secs] {
        &self.candidates
    }

    /// Feeds the fitters with this epoch's (frequency, power) observations,
    /// returning how many fitter updates actually ran (cores with zero
    /// dynamic power are skipped, so the count is data-dependent but
    /// deterministic).
    fn update_fitters(&mut self, obs: &EpochObservation) -> u64 {
        let f_max = self.cfg.core_ladder.max();
        let mut updates = 0u64;
        for (i, s) in obs.cores.iter().enumerate() {
            let dynamic = s.power - self.cfg.core_static_power;
            if dynamic.get() > 0.0 {
                self.core_fitters[i].observe(PowerSample {
                    scale: s.freq / f_max,
                    dynamic_power: dynamic,
                });
                updates += 1;
            }
        }
        let mem_dyn = obs.memory.power - self.cfg.mem_static_power;
        if mem_dyn.get() > 0.0 {
            self.mem_fitter.observe(PowerSample {
                scale: obs.memory.bus_freq / self.cfg.mem_ladder.max(),
                dynamic_power: mem_dyn,
            });
            updates += 1;
        }
        updates
    }

    /// Runs one FastCap iteration: refit, optimize, quantize.
    ///
    /// When the budget is infeasible even at minimum frequencies (a static
    /// floor higher than the cap) this does not error: it returns an
    /// *emergency* decision with every frequency at its minimum, which is
    /// the best the DVFS actuators can do.
    ///
    /// # Errors
    ///
    /// Returns [`Error::ShapeMismatch`] / [`Error::InvalidModel`] for
    /// malformed observations.
    pub fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        self.observe(obs);
        let candidates = self.candidates.clone();
        self.solve_quantized(obs, &candidates)
    }

    /// Runs the optimization over an arbitrary candidate `s_b` array and
    /// quantizes, *without* updating the fitters (call
    /// [`FastCapController::observe`] first). The CPU-only baseline passes
    /// just `[s̄_b]` here to pin memory at its maximum frequency.
    ///
    /// # Errors
    ///
    /// Same conditions as [`FastCapController::decide`].
    pub fn solve_quantized(
        &mut self,
        obs: &EpochObservation,
        candidates: &[Secs],
    ) -> Result<DvfsDecision> {
        let model = self.build_model(obs)?;
        self.solve_model(&model, candidates)
    }

    /// [`FastCapController::solve_quantized`] on a model already built by
    /// [`FastCapController::build_model`].
    ///
    /// # Errors
    ///
    /// Propagates optimizer failures other than infeasibility.
    pub fn solve_model(&mut self, model: &CapModel, candidates: &[Secs]) -> Result<DvfsDecision> {
        match optimizer::algorithm1(model, candidates) {
            Ok(sol) => {
                self.cost.bus_evals += sol.points_evaluated as u64;
                self.cost.solver_iters += sol.core_terms;
                self.cost.quantize_ops += self.cfg.n_cores as u64 + 1;
                // Quantize-down: a budget-bound optimum sits *on* the cap
                // (Theorem 1), so rounding any frequency up overshoots by
                // construction — take the ladder step at or below instead.
                // Interior optima keep the paper's nearest-level rule.
                let down = self.cfg.quantize_down && sol.inner.budget_bound;
                let core_freqs: Vec<usize> = sol
                    .inner
                    .core_scales
                    .iter()
                    .map(|&s| {
                        if down {
                            self.cfg.core_ladder.floor_scale(s)
                        } else {
                            self.cfg.core_ladder.nearest_scale(s)
                        }
                    })
                    .collect();
                let mem_freq = if down {
                    self.cfg.mem_ladder.floor_scale(sol.bus_scale)
                } else {
                    self.cfg.mem_ladder.nearest_scale(sol.bus_scale)
                };
                let quantized_power = self.quantized_power(model, &core_freqs, mem_freq);
                Ok(DvfsDecision {
                    core_freqs,
                    mem_freq,
                    predicted_power: sol.inner.predicted_power,
                    quantized_power,
                    budget_trim: self.budget_trim(),
                    degradation: sol.inner.degradation,
                    budget_bound: sol.inner.budget_bound,
                    emergency: false,
                })
            }
            Err(Error::Infeasible { floor_watts, .. }) => {
                let min_scale = self.cfg.core_ladder.scale(0);
                let predicted: Watts = model
                    .cores
                    .iter()
                    .map(|c| c.power.dynamic_power(min_scale))
                    .sum::<Watts>()
                    + model
                        .memory
                        .power
                        .dynamic_power(self.cfg.mem_ladder.scale(0))
                    + Watts(floor_watts).max(model.static_power);
                Ok(DvfsDecision {
                    core_freqs: vec![0; self.cfg.n_cores],
                    mem_freq: 0,
                    predicted_power: predicted,
                    quantized_power: predicted,
                    budget_trim: self.budget_trim(),
                    degradation: 0.0,
                    budget_bound: true,
                    emergency: true,
                })
            }
            Err(e) => Err(e),
        }
    }

    /// Predicted total power at a quantized ladder point: static power
    /// plus the fitted dynamic laws evaluated at the scales the actuators
    /// will actually set.
    fn quantized_power(&self, model: &CapModel, core_freqs: &[usize], mem_freq: usize) -> Watts {
        model.static_power
            + model
                .memory
                .power
                .dynamic_power(self.cfg.mem_ladder.scale(mem_freq))
            + core_freqs
                .iter()
                .zip(&model.cores)
                .map(|(&i, c)| c.power.dynamic_power(self.cfg.core_ladder.scale(i)))
                .sum::<Watts>()
    }

    /// A cold-start decision from the current (initially configured) power
    /// laws, before any observation exists. The closed loop uses this for
    /// epoch 0, so the very first epoch already runs under the cap instead
    /// of at maximum frequencies. Without performance counters there is no
    /// response-time model to optimize against, so the bootstrap is purely
    /// power-driven: the highest uniform core level — and for it the
    /// highest memory level — whose predicted power fits the budget.
    /// `mem_pin` forces the memory level (the CPU-only baseline pins it at
    /// maximum).
    pub fn bootstrap(&mut self, mem_pin: Option<usize>) -> DvfsDecision {
        let budget = self.effective_budget();
        let stat = self.cfg.total_static_power();
        let mem_law = self.mem_fitter.model();
        let top_core = self.cfg.core_ladder.len() - 1;
        let top_mem = self.cfg.mem_ladder.len() - 1;
        for ci in (0..=top_core).rev() {
            self.cost.quantize_ops += 1;
            let cscale = self.cfg.core_ladder.scale(ci);
            let core_dyn: Watts = self
                .core_fitters
                .iter()
                .map(|f| f.model().dynamic_power(cscale))
                .sum();
            let mem_budget = budget - stat - core_dyn;
            if mem_budget.get() <= 0.0 {
                continue;
            }
            let mi = mem_pin.unwrap_or_else(|| {
                self.cfg
                    .mem_ladder
                    .floor_scale(mem_law.scale_for_power(mem_budget))
            });
            let predicted = stat + core_dyn + mem_law.dynamic_power(self.cfg.mem_ladder.scale(mi));
            if predicted.get() <= budget.get() + 1e-9 {
                return DvfsDecision {
                    core_freqs: vec![ci; self.cfg.n_cores],
                    mem_freq: mi,
                    predicted_power: predicted,
                    quantized_power: predicted,
                    budget_trim: self.budget_trim(),
                    // No response model yet: the uniform core scale is the
                    // degradation lower bound, reported as a proxy.
                    degradation: cscale,
                    budget_bound: !(ci == top_core && mi == top_mem),
                    emergency: false,
                };
            }
        }
        // Even minimum frequencies don't fit: the emergency floor.
        let mi = mem_pin.unwrap_or(0);
        let predicted = stat
            + self
                .core_fitters
                .iter()
                .map(|f| f.model().dynamic_power(self.cfg.core_ladder.scale(0)))
                .sum::<Watts>()
            + mem_law.dynamic_power(self.cfg.mem_ladder.scale(mi));
        DvfsDecision {
            core_freqs: vec![0; self.cfg.n_cores],
            mem_freq: mi,
            predicted_power: predicted,
            quantized_power: predicted,
            budget_trim: self.budget_trim(),
            degradation: 0.0,
            budget_bound: true,
            emergency: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counters::{CoreSample, MemorySample};

    fn obs_16(cpu_bound: bool) -> EpochObservation {
        let cores = (0..16)
            .map(|i| CoreSample {
                freq: Hz::from_ghz(4.0),
                busy_time_per_instruction: Secs::from_nanos(0.28),
                instructions: 1_000_000,
                last_level_misses: if cpu_bound {
                    400
                } else {
                    15_000 + 500 * (i as u64 % 4)
                },
                power: Watts(4.3),
            })
            .collect();
        EpochObservation::single(
            cores,
            MemorySample {
                bus_freq: Hz::from_mhz(800.0),
                bank_queue: 1.6,
                bus_queue: 1.3,
                bank_service_time: Secs::from_nanos(30.0),
                power: Watts(30.0),
            },
            Watts(110.0),
        )
    }

    fn controller(budget: f64) -> FastCapController {
        let cfg = FastCapConfig::builder(16)
            .budget_fraction(budget)
            .peak_power(Watts(120.0))
            .build()
            .unwrap();
        FastCapController::new(cfg).unwrap()
    }

    #[test]
    fn config_defaults_match_paper_platform() {
        let cfg = FastCapConfig::builder(16).build().unwrap();
        assert_eq!(cfg.core_ladder.len(), 10);
        assert_eq!(cfg.mem_ladder.len(), 10);
        assert!((cfg.peak_power.get() - 118.0).abs() < 1e-9);
        assert!((cfg.budget().get() - 70.8).abs() < 1e-9);
        // Ps = 16*1 + 12 + 10 = 38 W.
        assert!((cfg.total_static_power().get() - 38.0).abs() < 1e-9);
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        assert!(FastCapConfig::builder(0).build().is_err());
        assert!(FastCapConfig::builder(4)
            .budget_fraction(0.0)
            .build()
            .is_err());
        assert!(FastCapConfig::builder(4)
            .budget_fraction(1.5)
            .build()
            .is_err());
        assert!(FastCapConfig::builder(4)
            .peak_power(Watts(-1.0))
            .build()
            .is_err());
        assert!(FastCapConfig::builder(4)
            .min_bus_transfer_time(Secs(0.0))
            .build()
            .is_err());
        assert!(FastCapConfig::builder(4)
            .static_powers(Watts(-1.0), Watts(0.0), Watts(0.0))
            .build()
            .is_err());
    }

    #[test]
    fn decide_returns_valid_indices() {
        let mut ctl = controller(0.6);
        let d = ctl.decide(&obs_16(true)).unwrap();
        assert_eq!(d.core_freqs.len(), 16);
        assert!(d.core_freqs.iter().all(|&i| i < 10));
        assert!(d.mem_freq < 10);
        assert!(!d.emergency);
        assert_eq!(ctl.epochs_seen(), 1);
    }

    #[test]
    fn cpu_bound_gets_fast_cores_slow_memory() {
        let mut ctl = controller(0.6);
        let d = ctl.decide(&obs_16(true)).unwrap();
        let avg_core: f64 =
            d.core_freqs.iter().map(|&i| i as f64).sum::<f64>() / d.core_freqs.len() as f64;
        assert!(
            d.mem_freq <= 4,
            "CPU-bound under 60% budget should slow memory, got level {}",
            d.mem_freq
        );
        assert!(
            avg_core >= 4.0,
            "cores should stay fast, avg level {avg_core}"
        );
    }

    #[test]
    fn memory_bound_gets_fast_memory() {
        let mut ctl = controller(0.6);
        let d = ctl.decide(&obs_16(false)).unwrap();
        assert!(
            d.mem_freq >= 6,
            "memory-bound should keep memory fast, got level {}",
            d.mem_freq
        );
    }

    #[test]
    fn loose_budget_runs_everything_at_max() {
        let mut ctl = controller(1.0);
        let d = ctl.decide(&obs_16(false)).unwrap();
        assert!(!d.budget_bound);
        assert!((d.degradation - 1.0).abs() < 1e-6);
        assert!(d.core_freqs.iter().all(|&i| i == 9));
        assert_eq!(d.mem_freq, 9);
    }

    #[test]
    fn shape_mismatch_is_reported() {
        let mut ctl = controller(0.6);
        let mut obs = obs_16(true);
        obs.cores.truncate(3);
        assert!(matches!(
            ctl.decide(&obs),
            Err(Error::ShapeMismatch {
                expected: 16,
                got: 3
            })
        ));
    }

    #[test]
    fn infeasible_budget_yields_emergency_floor() {
        // Peak 120 W but budget fraction 0.25 => 30 W cap < 38 W static.
        let cfg = FastCapConfig::builder(16)
            .budget_fraction(0.25)
            .peak_power(Watts(120.0))
            .build()
            .unwrap();
        let mut ctl = FastCapController::new(cfg).unwrap();
        let d = ctl.decide(&obs_16(true)).unwrap();
        assert!(d.emergency);
        assert!(d.core_freqs.iter().all(|&i| i == 0));
        assert_eq!(d.mem_freq, 0);
        assert_eq!(d.degradation, 0.0);
    }

    #[test]
    fn budget_changes_resolve_immediately_with_warm_models() {
        let mut ctl = controller(0.9);
        let obs = obs_16(true);
        // Warm the fitters for a few epochs under the loose budget.
        for _ in 0..3 {
            ctl.decide(&obs).unwrap();
        }
        let epochs_before = ctl.epochs_seen();
        // Power emergency: cap drops to 50%.
        ctl.set_budget_fraction(0.5).unwrap();
        assert_eq!(ctl.config().budget(), Watts(60.0));
        assert_eq!(ctl.epochs_seen(), epochs_before, "state preserved");
        let d = ctl.decide(&obs).unwrap();
        // The very next decision solves against the new cap.
        assert!(
            d.predicted_power.get() <= 60.0 + 1e-6,
            "predicted {} over the stepped budget",
            d.predicted_power
        );
        // And the mean core level must drop vs the loose-budget solution.
        let mut loose = controller(0.9);
        for _ in 0..3 {
            loose.decide(&obs).unwrap();
        }
        let dl = loose.decide(&obs).unwrap();
        let sum = |d: &DvfsDecision| -> usize { d.core_freqs.iter().sum() };
        assert!(sum(&d) < sum(&dl));
    }

    #[test]
    fn budget_change_rejects_bad_fractions() {
        let mut ctl = controller(0.6);
        assert!(ctl.set_budget_fraction(0.0).is_err());
        assert!(ctl.set_budget_fraction(1.5).is_err());
        assert!(ctl.set_budget_fraction(f64::NAN).is_err());
        // Unchanged after a rejected update.
        assert!((ctl.config().budget_fraction - 0.6).abs() < 1e-12);
    }

    #[test]
    fn fitters_learn_from_observations() {
        let mut ctl = controller(0.6);
        // Feed epochs at different frequencies so the fitter sees multiple
        // distinct points of the true law P = 3.0 * scale^2.8.
        for (f_ghz, _) in [(4.0, 0), (3.0, 0), (2.2, 0)] {
            let scale = f_ghz / 4.0;
            let mut obs = obs_16(true);
            for c in &mut obs.cores {
                c.freq = Hz::from_ghz(f_ghz);
                c.power = Watts(1.0 + 3.0 * f64::powf(scale, 2.8)); // +1 static
            }
            ctl.decide(&obs).unwrap();
        }
        let model = ctl.build_model(&obs_16(true)).unwrap();
        let law = model.cores[0].power;
        assert!((law.alpha - 2.8).abs() < 0.05, "alpha = {}", law.alpha);
        assert!((law.p_max.get() - 3.0).abs() < 0.1, "p_max = {}", law.p_max);
    }

    #[test]
    fn warm_carry_preserves_surviving_fitters() {
        let mut ctl = controller(0.6);
        // Distinct per-core laws so carried state is attributable: core i
        // follows P = (2 + 0.2·i)·scale^2.6.
        for f_ghz in [4.0, 3.0, 2.2] {
            let scale: f64 = f_ghz / 4.0;
            let mut obs = obs_16(true);
            for (i, c) in obs.cores.iter_mut().enumerate() {
                c.freq = Hz::from_ghz(f_ghz);
                c.power = Watts(1.0 + (2.0 + 0.2 * i as f64) * scale.powf(2.6));
            }
            ctl.decide(&obs).unwrap();
        }
        let full = ctl.build_model(&obs_16(true)).unwrap();

        // 16 → 12: cores 0-3 vanish, survivors shift down.
        let carried: Vec<Option<usize>> = (4..16).map(Some).collect();
        let small = ctl.warm_carry(&carried).unwrap();
        assert_eq!(small.config().n_cores, 12);
        assert_eq!(small.epochs_seen(), ctl.epochs_seen(), "counter carried");
        let mut obs12 = obs_16(true);
        obs12.cores.truncate(12);
        let carried_model = small.build_model(&obs12).unwrap();
        for j in 0..12 {
            assert_eq!(
                carried_model.cores[j].power,
                full.cores[j + 4].power,
                "survivor {j} must keep its fitted law"
            );
        }

        // 12 → 16: the four returning cores start from the initial law,
        // the survivors keep carrying.
        let back: Vec<Option<usize>> = (0..16)
            .map(|i| if i < 4 { None } else { Some(i - 4) })
            .collect();
        let regrown = small.warm_carry(&back).unwrap();
        let regrown_model = regrown.build_model(&obs_16(true)).unwrap();
        for i in 0..4 {
            assert_eq!(
                regrown_model.cores[i].power,
                ctl.config().initial_core_law,
                "returning core {i} starts from the initial law"
            );
        }
        for i in 4..16 {
            assert_eq!(regrown_model.cores[i].power, full.cores[i].power);
        }
        // The memory fitter carried both ways: same memory law as the
        // original warmed controller.
        assert_eq!(regrown_model.memory.power, full.memory.power);
    }

    #[test]
    fn warm_carry_rejects_bad_maps() {
        let ctl = controller(0.6);
        assert!(ctl.warm_carry(&[]).is_err(), "empty active set");
        assert!(ctl.warm_carry(&[Some(16)]).is_err(), "out of range");
        assert!(ctl.warm_carry(&[Some(15), None]).is_ok());
    }

    #[test]
    fn with_n_cores_scales_static_power_only() {
        let cfg = FastCapConfig::builder(16)
            .peak_power(Watts(120.0))
            .build()
            .unwrap();
        let sub = cfg.with_n_cores(12).unwrap();
        assert_eq!(sub.n_cores, 12);
        assert_eq!(sub.peak_power, cfg.peak_power);
        assert_eq!(sub.budget(), cfg.budget(), "machine budget unchanged");
        assert!(
            (cfg.total_static_power().get()
                - sub.total_static_power().get()
                - 4.0 * cfg.core_static_power.get())
            .abs()
                < 1e-9
        );
        assert!(cfg.with_n_cores(0).is_err());
    }

    #[test]
    fn multi_controller_observation_builds_multi_model() {
        let mut obs = obs_16(false);
        let ctl_sample = MemorySample {
            bus_freq: Hz::from_mhz(800.0),
            bank_queue: 2.0,
            bus_queue: 1.5,
            bank_service_time: Secs::from_nanos(35.0),
            power: Watts(8.0),
        };
        obs.controllers = vec![ctl_sample; 4];
        obs.access_weights = vec![vec![0.25; 4]; 16];
        let ctl = controller(0.6);
        let model = ctl.build_model(&obs).unwrap();
        assert!(matches!(model.memory.response, ResponseModel::Multi(_)));
        let mut c = controller(0.6);
        assert!(c.decide(&obs).is_ok());
    }

    #[test]
    fn budget_bound_quantization_rounds_down() {
        let mut ctl = controller(0.6);
        let obs = obs_16(true);
        let d = ctl.decide(&obs).unwrap();
        assert!(d.budget_bound && !d.emergency);
        // Re-derive the continuous optimum from the same (already updated)
        // fitter state: every quantized level must sit at or below it.
        let model = ctl.build_model(&obs).unwrap();
        let sol = optimizer::algorithm1(&model, ctl.candidates()).unwrap();
        let cores = &ctl.config().core_ladder;
        for (i, &lvl) in d.core_freqs.iter().enumerate() {
            assert!(
                cores.scale(lvl) <= sol.inner.core_scales[i] * (1.0 + 1e-9),
                "core {i} rounded up: level scale {} > continuous {}",
                cores.scale(lvl),
                sol.inner.core_scales[i]
            );
        }
        assert!(ctl.config().mem_ladder.scale(d.mem_freq) <= sol.bus_scale * (1.0 + 1e-9));
        // ... and therefore the quantized prediction respects the cap.
        assert!(
            d.quantized_power.get() <= model.budget.get() + 1e-9,
            "quantized {} over effective budget {}",
            d.quantized_power,
            model.budget
        );
    }

    #[test]
    fn slack_integrator_trims_and_resets() {
        let mut ctl = controller(0.6); // 72 W cap
        let obs = obs_16(true); // measured 110 W: 38 W over
        ctl.decide(&obs).unwrap();
        let t1 = ctl.budget_trim().get();
        assert!(t1 > 0.0, "overshoot must charge the integrator");
        let clamp = 0.05 * 72.0;
        assert!(t1 <= clamp + 1e-12, "anti-windup clamp");
        ctl.decide(&obs).unwrap();
        assert!((ctl.budget_trim().get() - clamp).abs() < 1e-9, "saturated");
        // Under-cap epochs unwind the trim instead of winding up negative.
        let mut under = obs_16(true);
        under.total_power = Watts(50.0);
        ctl.decide(&under).unwrap();
        let unwound = ctl.budget_trim().get();
        assert!(unwound < clamp && unwound >= 0.0);
        // A budget step resets the trim and skips exactly one observation
        // (which ran under the old cap) before re-arming.
        ctl.set_budget_fraction(0.5).unwrap();
        assert_eq!(ctl.budget_trim().get(), 0.0);
        ctl.decide(&obs).unwrap();
        assert_eq!(ctl.budget_trim().get(), 0.0, "grace epoch not charged");
        ctl.decide(&obs).unwrap();
        assert!(ctl.budget_trim().get() > 0.0, "re-armed");
        // Warm-carry resets too.
        let carried: Vec<Option<usize>> = (0..16).map(Some).collect();
        assert_eq!(ctl.warm_carry(&carried).unwrap().budget_trim().get(), 0.0);
        // Disabled integrator never trims.
        let cfg = FastCapConfig::builder(16)
            .budget_fraction(0.6)
            .peak_power(Watts(120.0))
            .slack_feedback(0.0, 0.05)
            .build()
            .unwrap();
        let mut off = FastCapController::new(cfg).unwrap();
        off.decide(&obs).unwrap();
        assert_eq!(off.budget_trim().get(), 0.0);
    }

    #[test]
    fn bootstrap_fits_budget_from_initial_laws() {
        let mut ctl = controller(0.6);
        let d = ctl.bootstrap(None);
        assert!(!d.emergency);
        assert!(d.budget_bound);
        assert!(d.predicted_power.get() <= 72.0 + 1e-9);
        assert_eq!(d.quantized_power, d.predicted_power);
        assert!(
            d.core_freqs.iter().all(|&i| i == d.core_freqs[0]),
            "uniform"
        );
        // A loose budget bootstraps straight to maximum everywhere.
        let mut loose = controller(1.0);
        let dl = loose.bootstrap(None);
        assert!(dl.core_freqs.iter().all(|&i| i == 9));
        assert_eq!(dl.mem_freq, 9);
        assert!(!dl.budget_bound);
        // An infeasible budget bootstraps to the emergency floor.
        let cfg = FastCapConfig::builder(16)
            .budget_fraction(0.25)
            .peak_power(Watts(120.0))
            .build()
            .unwrap();
        let mut tight = FastCapController::new(cfg).unwrap();
        assert!(tight.bootstrap(None).emergency);
        // A pinned memory level is honored (CPU-only).
        let mut pin = controller(0.8);
        let dp = pin.bootstrap(Some(9));
        assert_eq!(dp.mem_freq, 9);
        assert!(!dp.emergency);
        assert!(dp.predicted_power.get() <= 96.0 + 1e-9);
    }

    #[test]
    fn decision_resolves_to_hz() {
        let mut ctl = controller(0.6);
        let d = ctl.decide(&obs_16(true)).unwrap();
        let ladder = FreqLadder::ispass_core();
        let freqs = d.core_freqs_hz(&ladder);
        assert_eq!(freqs.len(), 16);
        for f in freqs {
            assert!(f >= ladder.min() && f <= ladder.max());
        }
        let mf = d.mem_freq_hz(&FreqLadder::ispass_memory_bus());
        assert!(mf.mhz() >= 200.0 - 1e-6 && mf.mhz() <= 800.0 + 1e-6);
    }
}
