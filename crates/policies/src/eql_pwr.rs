//! Eql-Pwr: equal per-core power budget (Sharkey et al. \[16\]).
//!
//! "This policy assigns an equal share of the overall power budget to all
//! cores." Implemented as the paper's extended variant of FastCap: for each
//! memory frequency, the core share is `(budget − memory − background) / N`
//! and each core independently picks the highest frequency whose predicted
//! power fits its share; the memory frequency yielding the best degradation
//! factor `D` wins.
//!
//! The weakness the paper demonstrates (Fig. 9): power-hungry applications
//! are starved while frugal ones cannot spend their share, so the *worst*
//! application degradation is much larger than FastCap's, especially in
//! mixed workloads.

use crate::model_predictive::{core_budgets, grid_decision, GridPoint, ModelPredictive, Search};
use fastcap_core::capper::{DvfsDecision, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::model::CapModel;
use fastcap_core::optimizer::evaluate_point;
use fastcap_core::units::{Hz, Watts};

/// The Eql-Pwr baseline.
pub type EqlPwrPolicy = ModelPredictive<EqualPower>;

/// Equal per-core power shares at every memory candidate, `O(N·M)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualPower;

impl Search for EqualPower {
    const NAME: &'static str = "Eql-Pwr";

    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        _obs: &EpochObservation,
        cost: &mut CostCounter,
    ) -> Result<DvfsDecision> {
        let ladder = &ctl.config().core_ladder;
        let n = model.n_cores();
        let mut best: Option<GridPoint> = None;
        for (sb, core_budget) in core_budgets(ctl, model) {
            if core_budget <= 0.0 {
                continue;
            }
            let share = Watts(core_budget / n as f64);
            // Highest ladder level whose predicted power fits the share.
            let mut core_freqs = Vec::with_capacity(n);
            let mut scales = Vec::with_capacity(n);
            for c in &model.cores {
                let scale = c.power.scale_for_power(share).min(1.0);
                let idx = ladder.floor(Hz(ladder.max().get() * scale));
                core_freqs.push(idx);
                scales.push(ladder.scale(idx));
            }
            let (degradation, power) = evaluate_point(model, &scales, sb)?;
            // Per candidate: n per-core share quantizations + the memory
            // one, and n grid terms inside evaluate_point.
            cost.quantize_ops += n as u64 + 1;
            cost.grid_points += n as u64;
            if best.as_ref().is_none_or(|b| degradation > b.degradation) {
                best = Some(GridPoint {
                    core_freqs,
                    sb,
                    degradation,
                    power,
                });
            }
        }
        Ok(grid_decision(ctl, model, best))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_16, obs_16};
    use crate::{CappingPolicy, FastCapPolicy};
    use fastcap_core::units::Secs;

    #[test]
    fn stays_within_budget_prediction() {
        let mut p = EqlPwrPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert!(!d.emergency);
        assert!(
            d.predicted_power.get() <= 72.0 + 1e-6,
            "Eql-Pwr must not predict over budget: {}",
            d.predicted_power
        );
    }

    #[test]
    fn heterogeneous_demand_leaves_d_below_fastcap() {
        // Strongly heterogeneous cores: equal shares waste budget on the
        // frugal cores, so Eql-Pwr's achieved D cannot beat FastCap's.
        let mut obs = obs_16();
        for (i, c) in obs.cores.iter_mut().enumerate() {
            c.last_level_misses = if i < 8 { 200 } else { 20_000 };
        }
        let mut ep = EqlPwrPolicy::new(cfg_16(0.55)).unwrap();
        let mut fc = FastCapPolicy::new(cfg_16(0.55)).unwrap();
        let de = ep.decide(&obs).unwrap();
        let df = fc.decide(&obs).unwrap();
        assert!(
            de.degradation <= df.degradation + 1e-6,
            "Eql-Pwr D {} vs FastCap D {}",
            de.degradation,
            df.degradation
        );
    }

    #[test]
    fn infeasible_budget_goes_emergency() {
        // Budget below static power: no memory point works.
        let cfg = fastcap_core::capper::FastCapConfig::builder(16)
            .budget_fraction(0.3)
            .peak_power(fastcap_core::units::Watts(120.0))
            .build()
            .unwrap(); // 36 W budget < 38 W static
        let mut p = EqlPwrPolicy::new(cfg).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert!(d.emergency);
        assert!(d.core_freqs.iter().all(|&i| i == 0));
    }

    #[test]
    fn uniform_cores_get_uniform_levels() {
        let mut obs = obs_16();
        for c in &mut obs.cores {
            c.last_level_misses = 3000;
            c.busy_time_per_instruction = Secs::from_nanos(0.3);
            c.freq = Hz::from_ghz(4.0);
            c.power = fastcap_core::units::Watts(4.0);
        }
        let mut p = EqlPwrPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs).unwrap();
        let first = d.core_freqs[0];
        assert!(
            d.core_freqs.iter().all(|&i| i == first),
            "{:?}",
            d.core_freqs
        );
    }
}
