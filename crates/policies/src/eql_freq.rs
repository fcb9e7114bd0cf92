//! Eql-Freq: one global core frequency (Herbert & Marculescu \[42\]).
//!
//! "This policy assigns the same frequency to all cores." Implemented as
//! the paper's extended variant: every `(core frequency, memory frequency)`
//! pair is evaluated with FastCap's models, and the feasible pair with the
//! best degradation factor `D` wins — `O(F·M)` work per epoch.
//!
//! Locking all cores together is conservative: raising every core one level
//! may overshoot the budget even when a few cores could safely speed up, so
//! on large mixed systems Eql-Freq leaves budget unharvested (Fig. 10).

use crate::model_predictive::{grid_decision, GridPoint, ModelPredictive, Search};
use fastcap_core::capper::{DvfsDecision, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::model::CapModel;
use fastcap_core::optimizer::evaluate_point;

/// The Eql-Freq baseline.
pub type EqlFreqPolicy = ModelPredictive<EqualFrequency>;

/// One core level for all cores at every memory candidate, `O(F·M)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct EqualFrequency;

impl Search for EqualFrequency {
    const NAME: &'static str = "Eql-Freq";

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
        for &sb in ctl.candidates() {
            // The memory quantization of this candidate.
            cost.quantize_ops += 1;
            for level in 0..ladder.len() {
                let scales = vec![ladder.scale(level); n];
                let (degradation, power) = evaluate_point(model, &scales, sb)?;
                // Each (level, s_b) pair costs n grid terms.
                cost.grid_points += n as u64;
                if power.get() <= model.budget.get() + 1e-9
                    && best.as_ref().is_none_or(|b| degradation > b.degradation)
                {
                    best = Some(GridPoint {
                        core_freqs: vec![level; n],
                        sb,
                        degradation,
                        power,
                    });
                }
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

    #[test]
    fn all_cores_share_one_frequency() {
        let mut p = EqlFreqPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        let first = d.core_freqs[0];
        assert!(d.core_freqs.iter().all(|&i| i == first));
        assert!(!d.emergency);
    }

    #[test]
    fn never_predicts_over_budget() {
        let mut p = EqlFreqPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert!(d.predicted_power.get() <= 72.0 + 1e-6);
    }

    #[test]
    fn d_no_better_than_fastcap() {
        // FastCap's per-core freedom dominates the locked-frequency search.
        let obs = obs_16();
        let mut ef = EqlFreqPolicy::new(cfg_16(0.6)).unwrap();
        let mut fc = FastCapPolicy::new(cfg_16(0.6)).unwrap();
        let de = ef.decide(&obs).unwrap();
        let df = fc.decide(&obs).unwrap();
        assert!(
            de.degradation <= df.degradation + 1e-6,
            "Eql-Freq D {} vs FastCap D {}",
            de.degradation,
            df.degradation
        );
    }

    #[test]
    fn emergency_when_nothing_fits() {
        let cfg = fastcap_core::capper::FastCapConfig::builder(16)
            .budget_fraction(0.3)
            .peak_power(fastcap_core::units::Watts(120.0))
            .build()
            .unwrap();
        let mut p = EqlFreqPolicy::new(cfg).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert!(d.emergency);
    }
}
