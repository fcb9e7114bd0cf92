//! Property-based tests across capping policies: for any plausible
//! observation, every policy emits a structurally valid decision, FastCap's
//! achieved D dominates the restricted baselines, and predictions respect
//! the budget.

use fastcap_core::capper::FastCapConfig;
use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
use fastcap_core::units::{Hz, Secs, Watts};
use fastcap_policies::{
    CappingPolicy, CpuOnlyPolicy, EqlFreqPolicy, EqlPwrPolicy, FastCapPolicy, FreqParPolicy,
    MaxBipsBeamPolicy,
};
use proptest::prelude::*;

fn observation_strategy(n: usize) -> impl Strategy<Value = EpochObservation> {
    (
        proptest::collection::vec(
            (
                200u64..40_000, // misses
                0.2_f64..0.4,   // TPI ns
                3.0_f64..5.5,   // core power
            ),
            n..=n,
        ),
        1.0_f64..3.0,
        1.0_f64..2.0,
        16.0_f64..45.0,
        15.0_f64..45.0, // memory power
    )
        .prop_map(move |(cores, q, u, sm, mp)| {
            let cores = cores
                .into_iter()
                .map(|(misses, tpi, power)| CoreSample {
                    freq: Hz::from_ghz(4.0),
                    busy_time_per_instruction: Secs::from_nanos(tpi),
                    instructions: 1_000_000,
                    last_level_misses: misses,
                    power: Watts(power),
                })
                .collect::<Vec<_>>();
            let total = cores.iter().map(|c| c.power.get()).sum::<f64>() + mp + 10.0;
            EpochObservation::single(
                cores,
                MemorySample {
                    bus_freq: Hz::from_mhz(800.0),
                    bank_queue: q,
                    bus_queue: u,
                    bank_service_time: Secs::from_nanos(sm),
                    power: Watts(mp),
                },
                Watts(total),
            )
        })
}

fn cfg(budget: f64) -> FastCapConfig {
    FastCapConfig::builder(16)
        .budget_fraction(budget)
        .peak_power(Watts(120.0))
        .build()
        .expect("valid config")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Structural validity for every policy on arbitrary observations.
    #[test]
    fn decisions_are_well_formed(obs in observation_strategy(16), b in 0.45_f64..0.95) {
        let mut policies: Vec<Box<dyn CappingPolicy>> = vec![
            Box::new(FastCapPolicy::new(cfg(b)).expect("build")),
            Box::new(CpuOnlyPolicy::new(cfg(b)).expect("build")),
            Box::new(FreqParPolicy::new(cfg(b)).expect("build")),
            Box::new(EqlPwrPolicy::new(cfg(b)).expect("build")),
            Box::new(EqlFreqPolicy::new(cfg(b)).expect("build")),
            Box::new(MaxBipsBeamPolicy::new(cfg(b)).expect("build")),
        ];
        for p in &mut policies {
            let d = p.decide(&obs).expect("decide");
            prop_assert_eq!(d.core_freqs.len(), 16, "{}", p.name());
            prop_assert!(d.core_freqs.iter().all(|&i| i < 10), "{}", p.name());
            prop_assert!(d.mem_freq < 10, "{}", p.name());
            prop_assert!(d.predicted_power.get() >= 0.0, "{}", p.name());
        }
    }

    /// FastCap's model-predicted degradation dominates every restricted
    /// search over the same model (CPU-only, Eql-Pwr, Eql-Freq optimize a
    /// subset of FastCap's space).
    #[test]
    fn fastcap_dominates_restricted_searches(obs in observation_strategy(16), b in 0.5_f64..0.9) {
        let mut fc = FastCapPolicy::new(cfg(b)).expect("build");
        let df = fc.decide(&obs).expect("decide");
        if df.emergency {
            return Ok(()); // infeasible instance: nothing to compare
        }
        let mut co = CpuOnlyPolicy::new(cfg(b)).expect("build");
        let mut ep = EqlPwrPolicy::new(cfg(b)).expect("build");
        let mut ef = EqlFreqPolicy::new(cfg(b)).expect("build");
        for (name, d) in [
            ("CPU-only", co.decide(&obs).expect("decide")),
            ("Eql-Pwr", ep.decide(&obs).expect("decide")),
            ("Eql-Freq", ef.decide(&obs).expect("decide")),
        ] {
            prop_assert!(
                d.degradation <= df.degradation + 1e-6,
                "{name} D {} beats FastCap {}",
                d.degradation,
                df.degradation
            );
        }
    }

    /// Model-based policies never *predict* power above the budget
    /// (Freq-Par excepted: it is feedback-only and carries no model;
    /// Eql-Pwr excepted when the DVFS floor binds: a tiny per-core share
    /// still cannot push a core below the ladder's minimum frequency).
    #[test]
    fn predictions_respect_budget(obs in observation_strategy(16), b in 0.45_f64..0.95) {
        let budget = 120.0 * b;
        for (name, d) in [
            ("FastCap", FastCapPolicy::new(cfg(b)).expect("build").decide(&obs).expect("decide")),
            ("Eql-Pwr", EqlPwrPolicy::new(cfg(b)).expect("build").decide(&obs).expect("decide")),
            ("Eql-Freq", EqlFreqPolicy::new(cfg(b)).expect("build").decide(&obs).expect("decide")),
        ] {
            let floor_bound = name == "Eql-Pwr" && d.core_freqs.contains(&0);
            if !d.emergency && !floor_bound {
                prop_assert!(
                    d.predicted_power.get() <= budget + 1e-6,
                    "{name} predicts {} over budget {budget}",
                    d.predicted_power
                );
            }
        }
    }

    /// FastCap decisions are deterministic functions of the observation
    /// history: same inputs, same outputs.
    #[test]
    fn fastcap_is_deterministic(obs in observation_strategy(16)) {
        let mut a = FastCapPolicy::new(cfg(0.6)).expect("build");
        let mut b = FastCapPolicy::new(cfg(0.6)).expect("build");
        let da = a.decide(&obs).expect("decide");
        let db = b.decide(&obs).expect("decide");
        prop_assert_eq!(da, db);
    }
}
