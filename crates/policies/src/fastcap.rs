//! FastCap's search: Algorithm 1 over every memory candidate, quantized
//! by [`fastcap_core::capper::FastCapController`] itself.

use crate::model_predictive::{ModelPredictive, Search};
use fastcap_core::capper::{DvfsDecision, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::model::CapModel;

/// The paper's policy: joint core + memory DVFS via Algorithm 1.
pub type FastCapPolicy = ModelPredictive<Algorithm1>;

/// Algorithm 1, `O(N log M)`: a binary search over the `M` memory
/// candidates, each an `O(N)` solve for the per-core frequencies.
#[derive(Debug, Clone, Copy, Default)]
pub struct Algorithm1;

impl Search for Algorithm1 {
    const NAME: &'static str = "FastCap";

    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        _obs: &EpochObservation,
        _cost: &mut CostCounter,
    ) -> Result<DvfsDecision> {
        let candidates = ctl.candidates().to_vec();
        ctl.solve_model(model, &candidates)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_16, obs_16};
    use crate::CappingPolicy;

    #[test]
    fn wraps_controller_decisions() {
        let mut p = FastCapPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        assert!(!d.emergency);
        assert!(d.degradation > 0.0 && d.degradation <= 1.0);
        assert_eq!(p.controller().epochs_seen(), 1);
    }

    #[test]
    fn respects_budget_in_prediction() {
        let mut p = FastCapPolicy::new(cfg_16(0.6)).unwrap();
        let d = p.decide(&obs_16()).unwrap();
        // Continuous optimum saturates the effective budget — the 72 W cap
        // minus whatever the slack integrator already trimmed (Theorem 1).
        let effective = 72.0 - d.budget_trim.get();
        assert!(
            (d.predicted_power.get() - effective).abs() < 0.5,
            "predicted {} vs effective cap {effective}",
            d.predicted_power
        );
        // The quantized prediction — what the actuators will actually set —
        // must respect the cap outright when the solve is budget-bound.
        assert!(d.budget_bound);
        assert!(
            d.quantized_power.get() <= effective + 1e-9,
            "quantized {} over effective cap {effective}",
            d.quantized_power
        );
    }
}
