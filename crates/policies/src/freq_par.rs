//! Freq-Par: control-theoretic power capping (Ma et al., ISCA'11 \[22\]).
//!
//! Freq-Par stabilizes power with a linear feedback loop on a global
//! *frequency quota*: every epoch the quota is corrected proportionally to
//! the power error, assuming a **linear** power–frequency model; each core
//! then receives a share of the quota proportional to its measured power
//! efficiency (instructions per watt). Memory DVFS is not part of the
//! policy — the memory stays at maximum frequency (the paper's `Freq-Par*`).
//!
//! Both properties the paper criticizes emerge here by construction:
//!
//! * the linear model mispredicts the true superlinear (`V²f`) core power,
//!   so the loop over- and under-corrects, oscillating around the budget;
//! * efficiency-proportional allocation starves inefficient applications —
//!   power is allocated to whoever converts it to the most instructions,
//!   not fairly.

use crate::policy::CappingPolicy;
use fastcap_core::capper::{DvfsDecision, FastCapConfig};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::{Error, Result};
use fastcap_core::units::Watts;

/// The Freq-Par controller state.
#[derive(Debug, Clone)]
pub struct FreqParPolicy {
    cfg: FastCapConfig,
    /// Total normalized frequency quota, in units of "sum of per-core
    /// scaling factors" (`N` = everything at maximum).
    quota: f64,
    /// Proportional gain of the feedback loop.
    gain: f64,
    /// Deterministic decision-path op counts.
    cost: CostCounter,
}

impl FreqParPolicy {
    /// Creates the policy with the default gain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid controller
    /// configurations.
    pub fn new(cfg: FastCapConfig) -> Result<Self> {
        Self::with_gain(cfg, 0.6)
    }

    /// Creates the policy with an explicit proportional gain.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] for invalid configurations or a
    /// non-positive gain.
    pub fn with_gain(cfg: FastCapConfig, gain: f64) -> Result<Self> {
        if !(gain > 0.0 && gain.is_finite()) {
            return Err(Error::InvalidConfig {
                what: "FreqPar::gain",
                why: format!("must be positive, got {gain}"),
            });
        }
        let quota = cfg.n_cores as f64;
        // Touch the builder-validated invariants early.
        if cfg.n_cores == 0 {
            return Err(Error::InvalidConfig {
                what: "n_cores",
                why: "must be positive".into(),
            });
        }
        Ok(Self {
            cfg,
            quota,
            gain,
            cost: CostCounter::default(),
        })
    }

    /// Current frequency quota (sum of per-core scaling factors).
    pub fn quota(&self) -> f64 {
        self.quota
    }
}

impl CappingPolicy for FreqParPolicy {
    fn name(&self) -> &'static str {
        "Freq-Par"
    }

    fn decide(&mut self, obs: &EpochObservation) -> Result<DvfsDecision> {
        let n = self.cfg.n_cores;
        if obs.cores.len() != n {
            return Err(Error::ShapeMismatch {
                expected: n,
                got: obs.cores.len(),
            });
        }
        let min_scale = self.cfg.core_ladder.scale(0);

        // Linear power-frequency belief: dP/d(scale) = P_max per core.
        let slope = self.cfg.initial_core_law.p_max.get().max(1e-6);
        let err = self.cfg.budget().get() - obs.total_power.get();
        self.quota += self.gain * err / slope;
        self.quota = self.quota.clamp(n as f64 * min_scale, n as f64);

        // Efficiency-proportional distribution (instructions per watt).
        let eff: Vec<f64> = obs
            .cores
            .iter()
            .map(|c| c.instructions as f64 / c.power.get().max(1e-6))
            .collect();
        let eff_sum: f64 = eff.iter().sum();
        let core_freqs: Vec<usize> = if eff_sum > 0.0 {
            self.cost.quantize_ops += n as u64;
            eff.iter()
                .map(|e| {
                    let scale = (self.quota * e / eff_sum).clamp(min_scale, 1.0);
                    self.cfg.core_ladder.nearest_scale(scale)
                })
                .collect()
        } else {
            vec![self.cfg.core_ladder.len() - 1; n]
        };
        // One feedback pass over n efficiency terms per decide.
        self.cost.grid_points += n as u64;

        Ok(DvfsDecision {
            core_freqs,
            mem_freq: self.cfg.mem_ladder.len() - 1,
            predicted_power: Watts(self.cfg.budget().get()),
            quantized_power: Watts(self.cfg.budget().get()),
            budget_trim: Watts::ZERO,
            degradation: 0.0,
            budget_bound: true,
            emergency: false,
        })
    }

    fn on_budget_change(&mut self, fraction: f64) -> Result<()> {
        // The feedback loop keeps its quota: the next error term against
        // the moved setpoint corrects it (that transient is the policy's
        // documented oscillation, not a bug).
        self.cfg = self.cfg.with_budget_fraction(fraction)?;
        Ok(())
    }

    fn on_active_set_change(&mut self, carried: &[Option<usize>]) -> Result<bool> {
        // The feedback state is one machine-wide quota with no per-core
        // model to carry: re-scope to the new core count and restart the
        // quota there, exactly as a policy built for that count would.
        if let Some(i) = carried.iter().flatten().find(|&&i| i >= self.cfg.n_cores) {
            return Err(Error::InvalidConfig {
                what: "warm_carry",
                why: format!(
                    "carried core {i} out of range for {} previous cores",
                    self.cfg.n_cores
                ),
            });
        }
        self.cfg = self.cfg.with_n_cores(carried.len())?;
        self.quota = self.cfg.n_cores as f64;
        Ok(true)
    }

    fn decision_cost(&self) -> CostCounter {
        self.cost
    }

    fn in_force_budget(&self) -> Option<Watts> {
        Some(self.cfg.budget())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_16, obs_16};

    #[test]
    fn rejects_bad_gain() {
        assert!(FreqParPolicy::with_gain(cfg_16(0.6), 0.0).is_err());
        assert!(FreqParPolicy::with_gain(cfg_16(0.6), f64::NAN).is_err());
    }

    #[test]
    fn over_budget_lowers_quota() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let q0 = p.quota();
        let mut obs = obs_16();
        obs.total_power = Watts(110.0); // way over the 72 W budget
        p.decide(&obs).unwrap();
        assert!(p.quota() < q0, "quota must shrink: {} -> {}", q0, p.quota());
    }

    #[test]
    fn under_budget_raises_quota() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let mut obs = obs_16();
        obs.total_power = Watts(110.0);
        p.decide(&obs).unwrap();
        let q_low = p.quota();
        obs.total_power = Watts(40.0); // far under budget
        p.decide(&obs).unwrap();
        assert!(p.quota() > q_low);
    }

    #[test]
    fn quota_is_clamped() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let mut obs = obs_16();
        obs.total_power = Watts(20.0);
        for _ in 0..50 {
            p.decide(&obs).unwrap();
        }
        assert!(p.quota() <= 16.0 + 1e-9);
        obs.total_power = Watts(500.0);
        for _ in 0..200 {
            p.decide(&obs).unwrap();
        }
        let min_scale = 2.2 / 4.0;
        assert!(p.quota() >= 16.0 * min_scale - 1e-9);
    }

    #[test]
    fn memory_never_scales() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert_eq!(d.mem_freq, 9);
    }

    #[test]
    fn efficient_cores_get_higher_frequency() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let mut obs = obs_16();
        // Core 0: very efficient; core 1: very inefficient.
        obs.cores[0].instructions = 4_000_000;
        obs.cores[0].power = Watts(2.0);
        obs.cores[1].instructions = 200_000;
        obs.cores[1].power = Watts(5.0);
        // Push power over budget so the quota becomes scarce.
        obs.total_power = Watts(100.0);
        let d = p.decide(&obs).unwrap();
        assert!(
            d.core_freqs[0] > d.core_freqs[1],
            "efficient core must win: {:?}",
            &d.core_freqs[..2]
        );
    }

    #[test]
    fn hotplug_rescopes_like_a_fresh_policy() {
        let cfg = cfg_16(0.6);
        let mut p = FreqParPolicy::new(cfg.clone()).unwrap();
        // Bad carry maps leave the 16-core policy unchanged.
        assert!(p.on_active_set_change(&[]).is_err());
        assert!(p.on_active_set_change(&[Some(0), Some(16)]).is_err());
        let mut obs = obs_16();
        obs.total_power = Watts(110.0);
        p.decide(&obs).unwrap();
        assert!(p.quota() < 16.0);
        let spent = p.decision_cost();
        // Cores 0-3 go offline: the quota restarts at the 12 survivors.
        let carried: Vec<Option<usize>> = (4..16).map(Some).collect();
        assert!(p.on_active_set_change(&carried).unwrap());
        assert_eq!(p.quota(), 12.0);
        let mut fresh = FreqParPolicy::new(cfg.with_n_cores(12).unwrap()).unwrap();
        obs.cores.truncate(12);
        assert_eq!(p.decide(&obs).unwrap(), fresh.decide(&obs).unwrap());
        assert_eq!(p.quota(), fresh.quota());
        // The cost counter keeps counting across the carry.
        assert_eq!(
            p.decision_cost().grid_points,
            spent.grid_points + fresh.decision_cost().grid_points
        );
    }

    #[test]
    fn shape_mismatch_detected() {
        let mut p = FreqParPolicy::new(cfg_16(0.6)).unwrap();
        let mut obs = obs_16();
        obs.cores.truncate(3);
        assert!(matches!(
            p.decide(&obs),
            Err(Error::ShapeMismatch {
                expected: 16,
                got: 3
            })
        ));
    }
}
