//! The model-predictive policy skeleton: FastCap and the five baselines
//! that reuse its counter-driven models (Sec. IV-B) differ only in how
//! they search the model, so one [`ModelPredictive`] owns everything
//! around the search and a [`Search`] supplies the search alone.
//!
//! The skeleton owns the [`FastCapController`] (fitted power laws, the
//! slack-feedback trim, the memory candidates) and the search's operation
//! counter, and writes every [`CappingPolicy`] hook once: `decide` runs
//! observe → build the model → search, `bootstrap` solves epoch 0 from the
//! initial power laws, budget moves keep the fitted laws, and hotplug
//! warm-carries the surviving cores' laws. The four grid searches (equal
//! power share, equal frequency, exhaustive, beam) also share one
//! envelope, `grid_decision`: the controller's trim, the static-power
//! emergency floor, and the memory level of the winning `s_b` candidate.

use crate::policy::CappingPolicy;
use fastcap_core::capper::{DvfsDecision, FastCapConfig, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::model::CapModel;
use fastcap_core::units::{Secs, Watts};

/// The allocation search of a model-predictive policy.
pub trait Search {
    /// The policy's display name (used in experiment tables).
    const NAME: &'static str;

    /// Rejects configurations the search cannot run on — the check runs
    /// at construction and again for the core count of every warm carry.
    /// The default accepts all.
    ///
    /// # Errors
    ///
    /// Returns [`fastcap_core::error::Error::InvalidConfig`] for a
    /// configuration the search cannot handle.
    fn admits(cfg: &FastCapConfig) -> Result<()> {
        let _ = cfg;
        Ok(())
    }

    /// The memory level every decision, the bootstrap included, is pinned
    /// to, or `None` (the default) when the search chooses it.
    fn mem_pin(cfg: &FastCapConfig) -> Option<usize> {
        let _ = cfg;
        None
    }

    /// Searches `model`, built by `ctl` from `obs` after `ctl` observed
    /// it, for the next decision, counting its own operations into `cost`.
    ///
    /// # Errors
    ///
    /// Propagates model evaluation failures.
    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        obs: &EpochObservation,
        cost: &mut CostCounter,
    ) -> Result<DvfsDecision>;
}

/// A model-predictive capping policy: FastCap's controller around the
/// allocation search `S`.
#[derive(Debug, Clone)]
pub struct ModelPredictive<S> {
    controller: FastCapController,
    search_cost: CostCounter,
    pub(crate) search: S,
}

impl<S: Search + Default> ModelPredictive<S> {
    /// Creates the policy from a controller configuration.
    ///
    /// # Errors
    ///
    /// Returns the search's rejection ([`Search::admits`]; MaxBIPS refuses
    /// an exhaustive space `F^N · M` above ~10⁸ points) and propagates
    /// configuration validation failures.
    pub fn new(cfg: FastCapConfig) -> Result<Self> {
        Self::with_search(cfg, S::default())
    }
}

impl<S: Search> ModelPredictive<S> {
    pub(crate) fn with_search(cfg: FastCapConfig, search: S) -> Result<Self> {
        S::admits(&cfg)?;
        Ok(Self {
            controller: FastCapController::new(cfg)?,
            search_cost: CostCounter::default(),
            search,
        })
    }

    /// Access to the wrapped controller (e.g. for overhead benchmarks).
    pub fn controller(&self) -> &FastCapController {
        &self.controller
    }
}

impl<S: Search> CappingPolicy for ModelPredictive<S> {
    fn name(&self) -> &'static str {
        S::NAME
    }

    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        self.controller.observe(obs);
        let model = self.controller.build_model(obs)?;
        let mut d = self
            .search
            .search(&mut self.controller, &model, obs, &mut self.search_cost)?;
        if let Some(pin) = S::mem_pin(self.controller.config()) {
            d.mem_freq = pin;
        }
        Ok(d)
    }

    fn bootstrap(&mut self) -> Option<DvfsDecision> {
        let pin = S::mem_pin(self.controller.config());
        Some(self.controller.bootstrap(pin))
    }

    fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
        self.controller.set_budget_fraction(fraction)
    }

    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
        let carried = self.controller.warm_carry(carried)?;
        S::admits(carried.config())?;
        self.controller = carried;
        Ok(true)
    }

    fn decision_cost(&self) -> CostCounter {
        let mut c = self.controller.cost();
        c.add(&self.search_cost);
        c
    }

    fn in_force_budget(&self) -> Option<Watts> {
        Some(self.controller.config().budget())
    }
}

/// The best feasible ladder point a grid search found.
pub(crate) struct GridPoint {
    /// Per-core ladder levels.
    pub core_freqs: Vec<usize>,
    /// The memory candidate's bus transfer time.
    pub sb: Secs,
    /// Predicted degradation factor `D` at the point.
    pub degradation: f64,
    /// Predicted total power at the point.
    pub power: Watts,
}

/// Every memory candidate `s_b` of `ctl` with the power left for the
/// cores once static and memory power are paid (`<= 0` when nothing is).
pub(crate) fn core_budgets<'a>(
    ctl: &'a FastCapController,
    model: &'a CapModel,
) -> impl Iterator<Item = (Secs, f64)> + 'a {
    ctl.candidates().iter().map(move |&sb| {
        let bus_scale = model.memory.min_bus_transfer_time / sb;
        let mem_dyn = model.memory.power.dynamic_power(bus_scale);
        (
            sb,
            model.budget.get() - model.static_power.get() - mem_dyn.get(),
        )
    })
}

/// The decision for a grid search's winner: `best` at its memory level,
/// or the emergency floor when no point fits. Both report the
/// controller's trim, since the search solved against the trimmed budget.
pub(crate) fn grid_decision(
    ctl: &FastCapController,
    model: &CapModel,
    best: Option<GridPoint>,
) -> DvfsDecision {
    let budget_trim = ctl.budget_trim();
    match best {
        // The point was evaluated at ladder scales on both axes, so the
        // continuous and quantized predictions coincide. `s_b` is a
        // ladder point, so flooring its scale cannot drop a level.
        Some(p) => DvfsDecision {
            core_freqs: p.core_freqs,
            mem_freq: ctl
                .config()
                .mem_ladder
                .floor_scale(model.memory.min_bus_transfer_time / p.sb),
            predicted_power: p.power,
            quantized_power: p.power,
            budget_trim,
            degradation: p.degradation,
            budget_bound: true,
            emergency: false,
        },
        None => DvfsDecision {
            core_freqs: vec![0; model.n_cores()],
            mem_freq: 0,
            predicted_power: model.static_power,
            quantized_power: model.static_power,
            budget_trim,
            degradation: 0.0,
            budget_bound: true,
            emergency: true,
        },
    }
}
