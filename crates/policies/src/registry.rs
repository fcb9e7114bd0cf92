//! The policy registry: every policy's display name and constructor in
//! one table, so a name from a CLI flag, a fleet leaf or an experiment
//! resolves to the same policy everywhere.

use crate::policy::CappingPolicy;
use crate::{
    CpuOnlyPolicy, EqlFreqPolicy, EqlPwrPolicy, FastCapPolicy, FreqParPolicy, MaxBipsBeamPolicy,
    MaxBipsPolicy,
};
use fastcap_core::capper::FastCapConfig;
use fastcap_core::error::{Error, Result};

/// Which capping policy to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's policy.
    FastCap,
    /// FastCap minus memory DVFS.
    CpuOnly,
    /// Linear feedback control (Ma et al.).
    FreqPar,
    /// Equal per-core power shares (Sharkey et al.).
    EqlPwr,
    /// One global core frequency (Herbert & Marculescu).
    EqlFreq,
    /// Exhaustive throughput maximization (Isci et al.).
    MaxBips,
    /// Beam-search MaxBIPS: same objective, scales past 8 cores (used in
    /// the 16-core `scn_*` scenario artifacts).
    MaxBipsBeam,
}

impl PolicyKind {
    /// The policy set the scenario artifacts compare, in display order:
    /// every baseline that runs at 16 cores, with MaxBIPS represented by
    /// its beam-search variant.
    pub const SCENARIO_SET: [PolicyKind; 6] = [
        PolicyKind::FastCap,
        PolicyKind::CpuOnly,
        PolicyKind::FreqPar,
        PolicyKind::EqlPwr,
        PolicyKind::EqlFreq,
        PolicyKind::MaxBipsBeam,
    ];

    /// Resolves a display name (case-insensitive) to a member of
    /// [`PolicyKind::SCENARIO_SET`] — the parser behind `repro matrix
    /// --policies` and fleet leaf policy names. Exhaustive MaxBIPS is
    /// deliberately absent: it cannot build at 16 cores (its beam variant
    /// can).
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] naming the unknown policy and
    /// listing the known ones.
    pub fn parse(name: &str) -> Result<PolicyKind> {
        PolicyKind::SCENARIO_SET
            .into_iter()
            .find(|k| k.name().eq_ignore_ascii_case(name))
            .ok_or_else(|| Error::InvalidConfig {
                what: "policy",
                why: format!(
                    "unknown policy `{name}`; known: {}",
                    PolicyKind::SCENARIO_SET.map(PolicyKind::name).join(" ")
                ),
            })
    }

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            PolicyKind::FastCap => "FastCap",
            PolicyKind::CpuOnly => "CPU-only",
            PolicyKind::FreqPar => "Freq-Par",
            PolicyKind::EqlPwr => "Eql-Pwr",
            PolicyKind::EqlFreq => "Eql-Freq",
            PolicyKind::MaxBips => "MaxBIPS",
            PolicyKind::MaxBipsBeam => "MaxBIPS-beam",
        }
    }

    /// Instantiates the policy.
    ///
    /// # Errors
    ///
    /// Propagates policy constructor failures (e.g. MaxBIPS on too many
    /// cores).
    pub fn build(self, cfg: FastCapConfig) -> Result<Box<dyn CappingPolicy>> {
        Ok(match self {
            PolicyKind::FastCap => Box::new(FastCapPolicy::new(cfg)?),
            PolicyKind::CpuOnly => Box::new(CpuOnlyPolicy::new(cfg)?),
            PolicyKind::FreqPar => Box::new(FreqParPolicy::new(cfg)?),
            PolicyKind::EqlPwr => Box::new(EqlPwrPolicy::new(cfg)?),
            PolicyKind::EqlFreq => Box::new(EqlFreqPolicy::new(cfg)?),
            PolicyKind::MaxBips => Box::new(MaxBipsPolicy::new(cfg)?),
            PolicyKind::MaxBipsBeam => Box::new(MaxBipsBeamPolicy::new(cfg)?),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tests::{cfg_16, cfg_4};

    #[test]
    fn policy_kinds_build() {
        for kind in PolicyKind::SCENARIO_SET {
            let p = kind.build(cfg_16(0.6)).unwrap();
            assert_eq!(p.name(), kind.name());
        }
        // MaxBIPS rejects 16 cores but accepts 4; the beam variant covers
        // 16 cores in the scenario comparison set.
        assert!(PolicyKind::MaxBips.build(cfg_16(0.6)).is_err());
        assert!(PolicyKind::MaxBips.build(cfg_4(0.6)).is_ok());
        assert!(PolicyKind::SCENARIO_SET.contains(&PolicyKind::MaxBipsBeam));
    }

    #[test]
    fn parse_resolves_display_names_and_lists_the_known_ones() {
        for kind in PolicyKind::SCENARIO_SET {
            assert_eq!(PolicyKind::parse(kind.name()).unwrap(), kind);
        }
        assert_eq!(PolicyKind::parse("freq-par").unwrap(), PolicyKind::FreqPar);
        let err = PolicyKind::parse("MaxBIPS").unwrap_err().to_string();
        assert!(
            err.contains("unknown policy `MaxBIPS`; known: FastCap CPU-only"),
            "{err}"
        );
        assert!(PolicyKind::parse("CPUOnly").is_err());
    }
}
