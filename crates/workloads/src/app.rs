//! Application profiles.
//!
//! An [`AppProfile`] captures everything the simulator needs to emulate one
//! SPEC-like application on one core: how often it misses the shared cache
//! (MPKI), how much writeback traffic it produces (WPKI), its compute CPI,
//! its DRAM row-buffer locality, its memory-level parallelism (used by the
//! idealized out-of-order mode of Sec. IV-B), and its phase behaviour.

use crate::phases::PhaseSpec;
use std::fmt;

/// The four workload classes of Table III.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WorkloadClass {
    /// Compute-intensive (`ILP*`).
    Ilp,
    /// Compute/memory balanced (`MID*`).
    Mid,
    /// Memory-intensive (`MEM*`).
    Mem,
    /// Mixed (`MIX*`) — one or two applications from each other class.
    Mix,
}

impl WorkloadClass {
    /// All classes, in the paper's presentation order.
    pub const ALL: [WorkloadClass; 4] = [
        WorkloadClass::Ilp,
        WorkloadClass::Mid,
        WorkloadClass::Mem,
        WorkloadClass::Mix,
    ];
}

impl fmt::Display for WorkloadClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WorkloadClass::Ilp => "ILP",
            WorkloadClass::Mid => "MID",
            WorkloadClass::Mem => "MEM",
            WorkloadClass::Mix => "MIX",
        };
        f.write_str(s)
    }
}

/// A synthetic stand-in for one SPEC application.
#[derive(Debug, Clone, PartialEq)]
pub struct AppProfile {
    /// SPEC benchmark name (e.g. `"swim"`).
    pub name: String,
    /// Core-only cycles per instruction at any frequency (single-issue
    /// in-order pipeline; memory stalls excluded).
    pub base_cpi: f64,
    /// Last-level cache misses per kilo-instruction in the current mix
    /// context.
    pub mpki: f64,
    /// Writebacks per kilo-instruction in the current mix context.
    pub wpki: f64,
    /// Probability a DRAM access hits an open row.
    pub row_hit_ratio: f64,
    /// Average overlappable misses per stall window in the idealized
    /// out-of-order mode (1.0 = fully blocking, in-order behaviour).
    pub mlp: f64,
    /// Phase behaviour.
    pub phase: PhaseSpec,
}

impl AppProfile {
    /// Validates physical plausibility of the profile.
    ///
    /// Returns a human-readable complaint rather than an error type: this
    /// crate is pure data, and callers decide whether violations are fatal.
    pub fn check(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("profile name is empty".into());
        }
        if !(self.base_cpi > 0.0 && self.base_cpi.is_finite()) {
            return Err(format!("{}: base_cpi must be positive", self.name));
        }
        if !(self.mpki > 0.0 && self.mpki.is_finite()) {
            return Err(format!("{}: mpki must be positive", self.name));
        }
        if !(self.wpki >= 0.0 && self.wpki.is_finite()) {
            return Err(format!("{}: wpki must be >= 0", self.name));
        }
        if self.wpki > self.mpki {
            return Err(format!(
                "{}: wpki ({}) cannot exceed mpki ({}) — writebacks are a subset of evictions",
                self.name, self.wpki, self.mpki
            ));
        }
        if !(0.0..=1.0).contains(&self.row_hit_ratio) {
            return Err(format!("{}: row_hit_ratio must be in [0,1]", self.name));
        }
        if !(self.mlp >= 1.0 && self.mlp <= 128.0) {
            return Err(format!("{}: mlp must be in [1,128]", self.name));
        }
        Ok(())
    }

    /// Average instructions between two last-level misses
    /// (`1000 / MPKI`).
    #[inline]
    pub fn instructions_per_miss(&self) -> f64 {
        1000.0 / self.mpki
    }

    /// Probability that a miss is accompanied by a dirty writeback
    /// (`WPKI / MPKI`).
    #[inline]
    pub fn writeback_probability(&self) -> f64 {
        (self.wpki / self.mpki).clamp(0.0, 1.0)
    }

    /// Returns this profile with mix-context MPKI/WPKI overrides.
    #[must_use]
    pub fn with_memory_intensity(mut self, mpki: f64, wpki: f64) -> Self {
        self.mpki = mpki;
        self.wpki = wpki;
        self
    }
}

/// One application pinned to one core: a profile plus its copy index (used
/// to de-phase the `N/4` copies of Table III).
#[derive(Debug, Clone, PartialEq)]
pub struct AppInstance {
    /// The (possibly context-adjusted) profile.
    pub profile: AppProfile,
    /// Which copy of the application this is (0-based).
    pub copy: usize,
}

impl AppInstance {
    /// Creates a copy of `profile` with its phase offset rotated so distinct
    /// copies are not synchronized.
    pub fn new(profile: &AppProfile, copy: usize) -> Self {
        // Golden-ratio de-phasing: well spread for any copy count.
        const GOLDEN: f64 = 0.618_033_988_749_894_9;
        let mut p = profile.clone();
        p.phase = p.phase.with_offset(p.phase.offset + copy as f64 * GOLDEN);
        Self { profile: p, copy }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profile() -> AppProfile {
        AppProfile {
            name: "swim".into(),
            base_cpi: 1.2,
            mpki: 24.0,
            wpki: 10.0,
            row_hit_ratio: 0.8,
            mlp: 6.0,
            phase: PhaseSpec::strong(0.1),
        }
    }

    #[test]
    fn valid_profile_checks_out() {
        assert!(profile().check().is_ok());
    }

    #[test]
    fn check_catches_violations() {
        let mut p = profile();
        p.name.clear();
        assert!(p.check().is_err());

        let mut p = profile();
        p.base_cpi = 0.0;
        assert!(p.check().is_err());

        let mut p = profile();
        p.mpki = -1.0;
        assert!(p.check().is_err());

        let mut p = profile();
        p.wpki = p.mpki + 1.0;
        assert!(p.check().is_err(), "wpki > mpki must fail");

        let mut p = profile();
        p.row_hit_ratio = 1.5;
        assert!(p.check().is_err());

        let mut p = profile();
        p.mlp = 0.5;
        assert!(p.check().is_err());
    }

    #[test]
    fn derived_quantities() {
        let p = profile();
        assert!((p.instructions_per_miss() - 1000.0 / 24.0).abs() < 1e-9);
        assert!((p.writeback_probability() - 10.0 / 24.0).abs() < 1e-9);
    }

    #[test]
    fn intensity_override() {
        let p = profile().with_memory_intensity(8.0, 3.0);
        assert_eq!(p.mpki, 8.0);
        assert_eq!(p.wpki, 3.0);
        assert_eq!(p.name, "swim");
    }

    #[test]
    fn instances_are_dephased() {
        let p = profile();
        let a = AppInstance::new(&p, 0);
        let b = AppInstance::new(&p, 1);
        assert_ne!(a.profile.phase.offset, b.profile.phase.offset);
        assert_eq!(a.copy, 0);
        assert_eq!(b.copy, 1);
    }

    #[test]
    fn class_display() {
        assert_eq!(WorkloadClass::Ilp.to_string(), "ILP");
        assert_eq!(WorkloadClass::Mix.to_string(), "MIX");
        assert_eq!(WorkloadClass::ALL.len(), 4);
    }
}
