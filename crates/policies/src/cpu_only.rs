//! CPU-only baseline: FastCap's algorithm with memory pinned at maximum
//! frequency.
//!
//! The paper uses this comparison to isolate the value of *memory* DVFS:
//! "This policy sets the core frequencies using the FastCap algorithm for
//! every epoch, but keeps the memory frequency fixed at the maximum value."
//! All prior capping policies suffer from this limitation.

use crate::model_predictive::{ModelPredictive, Search};
use fastcap_core::capper::{DvfsDecision, FastCapConfig, FastCapController};
use fastcap_core::cost::CostCounter;
use fastcap_core::counters::EpochObservation;
use fastcap_core::error::Result;
use fastcap_core::model::CapModel;

/// FastCap restricted to core DVFS (memory fixed at maximum).
pub type CpuOnlyPolicy = ModelPredictive<PinnedMemory>;

/// Algorithm 1 on the single candidate `[s̄_b]`, with the memory level
/// pinned at the ladder's maximum.
#[derive(Debug, Clone, Copy, Default)]
pub struct PinnedMemory;

impl Search for PinnedMemory {
    const NAME: &'static str = "CPU-only";

    fn mem_pin(cfg: &FastCapConfig) -> Option<usize> {
        Some(cfg.mem_ladder.len() - 1)
    }

    fn search(
        &mut self,
        ctl: &mut FastCapController,
        model: &CapModel,
        _obs: &EpochObservation,
        _cost: &mut CostCounter,
    ) -> Result<DvfsDecision> {
        // Only the fastest candidate (s_b = s̄_b): memory stays at maximum.
        let only_max = [ctl.candidates()[0]];
        ctl.solve_model(model, &only_max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_16, obs_16};
    use crate::{CappingPolicy, FastCapPolicy};

    #[test]
    fn memory_is_always_max() {
        let mut p = CpuOnlyPolicy::new(cfg_16(0.6)).unwrap();
        for _ in 0..5 {
            let d = p.decide(&obs_16()).unwrap();
            assert_eq!(d.mem_freq, 9);
        }
    }

    #[test]
    fn cores_run_at_most_as_fast_as_fastcap() {
        // With memory pinned at max (max memory power), the cores have less
        // budget to spend than under FastCap, which may slow memory down.
        let obs = obs_16();
        let mut fc = FastCapPolicy::new(cfg_16(0.6)).unwrap();
        let mut co = CpuOnlyPolicy::new(cfg_16(0.6)).unwrap();
        let df = fc.decide(&obs).unwrap();
        let dc = co.decide(&obs).unwrap();
        let sum = |d: &fastcap_core::capper::DvfsDecision| -> usize { d.core_freqs.iter().sum() };
        assert!(
            sum(&dc) <= sum(&df),
            "CPU-only cores ({:?}) should not exceed FastCap cores ({:?})",
            dc.core_freqs,
            df.core_freqs
        );
        // And its achievable D is no better.
        assert!(dc.degradation <= df.degradation + 1e-9);
    }
}
