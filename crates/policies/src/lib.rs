//! # fastcap-policies
//!
//! The FastCap capping policy and every baseline the paper evaluates it
//! against (Sec. IV-B), behind one [`CappingPolicy`] trait:
//!
//! | Policy | Origin | Memory DVFS | Search |
//! |---|---|---|---|
//! | [`FastCapPolicy`] | this paper | yes | [`Algorithm1`], `O(N log M)` |
//! | [`CpuOnlyPolicy`] | FastCap minus memory DVFS | fixed max | [`PinnedMemory`]: Algorithm 1 on `[s̄_b]` |
//! | [`FreqParPolicy`] | Ma et al. \[22\] | fixed max | linear feedback control |
//! | [`EqlPwrPolicy`] | Sharkey et al. \[16\] | yes (grid) | [`EqualPower`]: equal per-core power split |
//! | [`EqlFreqPolicy`] | Herbert & Marculescu \[42\] | yes (grid) | [`EqualFrequency`]: single global core frequency |
//! | [`MaxBipsPolicy`] | Isci et al. \[14\] | yes (grid) | [`Exhaustive`], `O(Fᴺ·M)` |
//! | [`MaxBipsBeamPolicy`] | beam-search MaxBIPS | yes (grid) | [`Beam`]: width `W`, `O(N·W·F·M)` |
//!
//! The baselines marked "grid" are the paper's extended variants: they get
//! FastCap's counter-driven performance/power models and the ability to
//! scale memory, so the comparison isolates the *allocation* policy rather
//! than the modelling machinery. Every policy in the table but Freq-Par is a
//! [`ModelPredictive`] over its [`Search`]: the skeleton owns FastCap's
//! controller and writes the observe → model → search sequence, the
//! cold-start bootstrap, budget moves and warm-carry hotplug once, so the
//! six differ in their search alone. [`PolicyKind`] is the one registry
//! of names and constructors every caller builds a policy through.
//!
//! All policies consume the same hardware-counter observations
//! ([`fastcap_core::counters::EpochObservation`]) and emit the same
//! [`fastcap_core::capper::DvfsDecision`], so any of them can drive
//! `fastcap_sim::Server::run`:
//!
//! ```
//! use fastcap_policies::{CappingPolicy, FastCapPolicy};
//! use fastcap_core::capper::FastCapConfig;
//!
//! let cfg = FastCapConfig::builder(16).budget_fraction(0.6).build().unwrap();
//! let mut policy = FastCapPolicy::new(cfg).unwrap();
//! assert_eq!(policy.name(), "FastCap");
//! // let result = server.run(100, |obs| policy.decide(obs).ok());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod closed_loop;
mod cpu_only;
mod eql_freq;
mod eql_pwr;
mod fastcap;
mod freq_par;
mod maxbips;
mod model_predictive;
mod policy;
mod registry;

pub use closed_loop::{trace_epoch, ClosedLoop};
pub use cpu_only::{CpuOnlyPolicy, PinnedMemory};
pub use eql_freq::{EqlFreqPolicy, EqualFrequency};
pub use eql_pwr::{EqlPwrPolicy, EqualPower};
pub use fastcap::{Algorithm1, FastCapPolicy};
pub use freq_par::FreqParPolicy;
pub use maxbips::{Beam, Exhaustive, MaxBipsBeamPolicy, MaxBipsPolicy};
pub use model_predictive::{ModelPredictive, Search};
pub use policy::CappingPolicy;
pub use registry::PolicyKind;

#[cfg(test)]
mod tests {
    use super::*;
    use fastcap_core::capper::{FastCapConfig, FastCapController};
    use fastcap_core::counters::{CoreSample, EpochObservation, MemorySample};
    use fastcap_core::units::{Hz, Secs, Watts};

    /// A plausible 16-core observation shared by the policy smoke tests.
    pub(crate) fn obs_16() -> EpochObservation {
        let cores = (0..16)
            .map(|i| CoreSample {
                freq: Hz::from_ghz(4.0),
                busy_time_per_instruction: Secs::from_nanos(0.28),
                instructions: 1_000_000,
                last_level_misses: if i % 2 == 0 { 600 } else { 8_000 },
                power: Watts(4.3),
            })
            .collect();
        EpochObservation::single(
            cores,
            MemorySample {
                bus_freq: Hz::from_mhz(800.0),
                bank_queue: 1.5,
                bus_queue: 1.3,
                bank_service_time: Secs::from_nanos(28.0),
                power: Watts(30.0),
            },
            Watts(108.0),
        )
    }

    pub(crate) fn cfg_16(budget: f64) -> FastCapConfig {
        FastCapConfig::builder(16)
            .budget_fraction(budget)
            .peak_power(Watts(120.0))
            .build()
            .unwrap()
    }

    /// A 4-core configuration, small enough for exhaustive MaxBIPS.
    pub(crate) fn cfg_4(budget: f64) -> FastCapConfig {
        FastCapConfig::builder(4)
            .budget_fraction(budget)
            .peak_power(Watts(60.0))
            .build()
            .unwrap()
    }

    /// A 4-core observation: two CPU-bound and two memory-bound cores.
    pub(crate) fn obs_4() -> EpochObservation {
        let cores = (0..4)
            .map(|i| CoreSample {
                freq: Hz::from_ghz(4.0),
                busy_time_per_instruction: Secs::from_nanos(0.28),
                instructions: 1_000_000,
                last_level_misses: if i < 2 { 500 } else { 12_000 },
                power: Watts(4.0),
            })
            .collect();
        EpochObservation::single(
            cores,
            MemorySample {
                bus_freq: Hz::from_mhz(800.0),
                bank_queue: 1.4,
                bus_queue: 1.2,
                bank_service_time: Secs::from_nanos(28.0),
                power: Watts(25.0),
            },
            Watts(55.0),
        )
    }

    /// Every 16-core policy of the registry, capped at 60 %.
    fn scenario_set_16() -> Vec<Box<dyn CappingPolicy>> {
        PolicyKind::SCENARIO_SET
            .iter()
            .map(|k| k.build(cfg_16(0.6)).unwrap())
            .collect()
    }

    #[test]
    fn every_policy_emits_valid_decisions() {
        let obs = obs_16();
        for p in &mut scenario_set_16() {
            let d = p
                .decide(&obs)
                .unwrap_or_else(|e| panic!("{}: {e}", p.name()));
            assert_eq!(d.core_freqs.len(), 16, "{}", p.name());
            assert!(d.core_freqs.iter().all(|&i| i < 10), "{}", p.name());
            assert!(d.mem_freq < 10, "{}", p.name());
        }
    }

    #[test]
    fn every_model_predictive_policy_shares_the_hooks() {
        // A 54 W cap leaves every search a feasible bootstrap (CPU-only's
        // pinned memory needs ~53 W at minimum core levels). The
        // observation draws 60 W, so the slack integrator trims from the
        // first decide on; a bare controller fed it shows by how much.
        let cfg = cfg_4(0.9);
        let mut obs = obs_4();
        obs.total_power = Watts(60.0);
        let mut twin = FastCapController::new(cfg.clone()).unwrap();
        twin.observe(&obs);
        let mut survivors = obs.clone();
        survivors.cores.remove(1);
        let policies: Vec<Box<dyn CappingPolicy>> = vec![
            Box::new(FastCapPolicy::new(cfg.clone()).unwrap()),
            Box::new(CpuOnlyPolicy::new(cfg.clone()).unwrap()),
            Box::new(EqlPwrPolicy::new(cfg.clone()).unwrap()),
            Box::new(EqlFreqPolicy::new(cfg.clone()).unwrap()),
            Box::new(MaxBipsPolicy::new(cfg.clone()).unwrap()),
            Box::new(MaxBipsBeamPolicy::new(cfg.clone()).unwrap()),
        ];
        for mut p in policies {
            let name = p.name();
            let boot = p
                .bootstrap()
                .unwrap_or_else(|| panic!("{name}: no bootstrap"));
            assert!(
                boot.predicted_power <= cfg.budget(),
                "{name}: bootstrap predicts {}",
                boot.predicted_power
            );
            let d = p.decide(&obs).unwrap();
            assert!(d.budget_trim.get() > 0.0, "{name}: no trim reported");
            assert_eq!(d.budget_trim, twin.budget_trim(), "{name}");
            // Core 1 goes offline; the other three carry their fitted laws.
            assert!(
                p.on_active_set_change(&[Some(0), Some(2), Some(3)])
                    .unwrap(),
                "{name}: declined warm carry"
            );
            assert_eq!(p.decide(&survivors).unwrap().core_freqs.len(), 3, "{name}");
        }
    }

    #[test]
    fn decision_costs_are_deterministic_and_nonzero() {
        // Two identical runs of every policy must report identical cost
        // counters — the property the modeled timing artifacts stand on —
        // and every capping policy's decision path must count *something*.
        let obs = obs_16();
        let run = || {
            scenario_set_16()
                .iter_mut()
                .map(|p| {
                    for _ in 0..3 {
                        p.decide(&obs).unwrap();
                    }
                    (p.name(), p.decision_cost())
                })
                .collect::<Vec<_>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "cost counters must be run-invariant");
        for (name, cost) in &a {
            assert!(!cost.is_zero(), "{name} counted nothing");
        }
    }

    #[test]
    fn policy_names_are_distinct() {
        let mut names: Vec<&str> = scenario_set_16().iter().map(|p| p.name()).collect();
        names.push(PolicyKind::MaxBips.build(cfg_4(0.6)).unwrap().name());
        let mut unique = names.to_vec();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "{names:?}");
    }
}
