//! The per-epoch optimization input.
//!
//! Every epoch, the controller assembles a [`CapModel`] from counters: one
//! [`CoreModel`] per core (minimum think time, cache time, fitted power
//! law), a [`MemoryModel`] (minimum bus transfer time, response-time
//! counters, fitted power law), the frequency-independent background power
//! `P_s`, and the budget `B·P̄`. The [`optimizer`](crate::optimizer) consumes
//! this structure.

use crate::error::{Error, Result};
use crate::power::PowerLaw;
use crate::queueing::{MultiControllerModel, ResponseTimeModel};
use crate::units::{Secs, Watts};

/// Optimization inputs for one core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreModel {
    /// `z̄_i`: minimum average think time, achieved at the maximum core
    /// frequency. Determining the core frequency is equivalent to
    /// determining the think time `z_i ∈ [z̄_i, ∞)`.
    pub min_think_time: Secs,
    /// `c_i`: average shared-cache (L2) time per memory access; modelled as
    /// independent of the core frequency (the L2 sits in its own voltage
    /// domain — Sec. III-A).
    pub cache_time: Secs,
    /// Fitted frequency-dependent power law (`P_i`, `α_i` of Eq. 2).
    pub power: PowerLaw,
}

impl CoreModel {
    /// Validates the per-core inputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] for non-positive think time or
    /// negative cache time.
    pub fn validate(&self) -> Result<()> {
        if !(self.min_think_time.get() > 0.0 && self.min_think_time.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!(
                    "min_think_time must be positive and finite, got {}",
                    self.min_think_time
                ),
            });
        }
        if !(self.cache_time.get() >= 0.0 && self.cache_time.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!(
                    "cache_time must be >= 0 and finite, got {}",
                    self.cache_time
                ),
            });
        }
        Ok(())
    }
}

/// How the memory response time is computed for each core.
#[derive(Debug, Clone, PartialEq)]
pub enum ResponseModel {
    /// One shared memory controller: every core sees the same `R(s_b)`.
    Single(ResponseTimeModel),
    /// Multiple controllers with per-core access weights (Sec. IV-B);
    /// cores see different, weighted response times.
    Multi(MultiControllerModel),
}

impl ResponseModel {
    /// Mean response time experienced by `core` at bus transfer time `s_b`.
    #[inline]
    pub fn response_time(&self, core: usize, bus_transfer_time: Secs) -> Secs {
        match self {
            ResponseModel::Single(m) => m.response_time(bus_transfer_time),
            ResponseModel::Multi(m) => m.response_time_for_core(core, bus_transfer_time),
        }
    }
}

/// Optimization inputs for the memory subsystem.
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryModel {
    /// `s̄_b`: minimum bus transfer time, at the maximum memory frequency.
    /// Determining the memory frequency is equivalent to determining
    /// `s_b ∈ [s̄_b, ∞)`.
    pub min_bus_transfer_time: Secs,
    /// The counter-derived response-time model (Eq. 1), single- or
    /// multi-controller.
    pub response: ResponseModel,
    /// Fitted memory power law (`P_m`, `β` of Eq. 3).
    pub power: PowerLaw,
}

impl MemoryModel {
    /// Validates the memory inputs.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] for a non-positive minimum bus
    /// transfer time.
    pub fn validate(&self) -> Result<()> {
        if !(self.min_bus_transfer_time.get() > 0.0 && self.min_bus_transfer_time.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!(
                    "min_bus_transfer_time must be positive and finite, got {}",
                    self.min_bus_transfer_time
                ),
            });
        }
        Ok(())
    }
}

/// The complete optimization problem instance for one epoch (Sec. III-B).
#[derive(Debug, Clone, PartialEq)]
pub struct CapModel {
    /// Per-core inputs (`N` entries).
    pub cores: Vec<CoreModel>,
    /// Memory subsystem inputs.
    pub memory: MemoryModel,
    /// `P_s`: all frequency-independent power (core and memory static power,
    /// memory-controller static power, L2, disks, NICs, ...).
    pub static_power: Watts,
    /// The full-system budget `B·P̄` (already multiplied by the budget
    /// fraction).
    pub budget: Watts,
}

impl CapModel {
    /// Validates the whole instance.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidModel`] if there are no cores, any component
    /// fails validation, or the budget / static power are not finite and
    /// positive / non-negative respectively.
    pub fn validate(&self) -> Result<()> {
        if self.cores.is_empty() {
            return Err(Error::InvalidModel {
                why: "need at least one core".into(),
            });
        }
        for c in &self.cores {
            c.validate()?;
        }
        self.memory.validate()?;
        if let ResponseModel::Multi(m) = &self.memory.response {
            // `MultiControllerModel` validated row shapes already, but the
            // row *count* must match N exactly.
            if m.core_count() != self.cores.len() {
                return Err(Error::InvalidModel {
                    why: format!(
                        "multi-controller weights cover {} cores but model has {}",
                        m.core_count(),
                        self.cores.len()
                    ),
                });
            }
        }
        if !(self.static_power.get() >= 0.0 && self.static_power.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!(
                    "static_power must be >= 0 and finite, got {}",
                    self.static_power
                ),
            });
        }
        if !(self.budget.get() > 0.0 && self.budget.is_finite()) {
            return Err(Error::InvalidModel {
                why: format!("budget must be positive and finite, got {}", self.budget),
            });
        }
        Ok(())
    }

    /// Number of cores `N`.
    #[inline]
    pub fn n_cores(&self) -> usize {
        self.cores.len()
    }

    /// The budget available to frequency-*dependent* consumers:
    /// `B·P̄ − P_s`.
    #[inline]
    pub fn dynamic_budget(&self) -> Watts {
        self.budget - self.static_power
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power::PowerLaw;

    fn core(z_ns: f64) -> CoreModel {
        CoreModel {
            min_think_time: Secs::from_nanos(z_ns),
            cache_time: Secs::from_nanos(7.5),
            power: PowerLaw::new(Watts(3.5), 2.5).unwrap(),
        }
    }

    fn memory() -> MemoryModel {
        MemoryModel {
            min_bus_transfer_time: Secs::from_nanos(5.0),
            response: ResponseModel::Single(
                ResponseTimeModel::new(1.5, 1.2, Secs::from_nanos(30.0)).unwrap(),
            ),
            power: PowerLaw::new(Watts(24.0), 1.0).unwrap(),
        }
    }

    fn model() -> CapModel {
        CapModel {
            cores: vec![core(50.0), core(20.0)],
            memory: memory(),
            static_power: Watts(20.0),
            budget: Watts(60.0),
        }
    }

    #[test]
    fn valid_model_passes() {
        assert!(model().validate().is_ok());
    }

    #[test]
    fn dynamic_budget_subtracts_static() {
        assert_eq!(model().dynamic_budget(), Watts(40.0));
        assert_eq!(model().n_cores(), 2);
    }

    #[test]
    fn rejects_empty_cores() {
        let mut m = model();
        m.cores.clear();
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_bad_think_time() {
        let mut m = model();
        m.cores[0].min_think_time = Secs(0.0);
        assert!(m.validate().is_err());
        m.cores[0].min_think_time = Secs(f64::NAN);
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_bad_cache_time() {
        let mut m = model();
        m.cores[1].cache_time = Secs(-1.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_bad_bus_time() {
        let mut m = model();
        m.memory.min_bus_transfer_time = Secs(0.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn rejects_bad_budget_and_static() {
        let mut m = model();
        m.budget = Watts(0.0);
        assert!(m.validate().is_err());
        let mut m = model();
        m.static_power = Watts(-1.0);
        assert!(m.validate().is_err());
    }

    #[test]
    fn multi_controller_row_count_must_match() {
        use crate::queueing::MultiControllerModel;
        let rt = ResponseTimeModel::new(1.0, 1.0, Secs(30e-9)).unwrap();
        let mut m = model(); // 2 cores
        m.memory.response = ResponseModel::Multi(
            MultiControllerModel::uniform(vec![rt, rt], 3).unwrap(), // 3 rows
        );
        assert!(m.validate().is_err());
        m.memory.response =
            ResponseModel::Multi(MultiControllerModel::uniform(vec![rt, rt], 2).unwrap());
        assert!(m.validate().is_ok());
    }

    #[test]
    fn response_model_dispatch() {
        let rt = ResponseTimeModel::new(2.0, 1.0, Secs(10e-9)).unwrap();
        let single = ResponseModel::Single(rt);
        let sb = Secs(5e-9);
        assert_eq!(single.response_time(0, sb), rt.response_time(sb));
        let multi = ResponseModel::Multi(
            crate::queueing::MultiControllerModel::uniform(vec![rt], 2).unwrap(),
        );
        assert_eq!(multi.response_time(1, sb), rt.response_time(sb));
    }
}
