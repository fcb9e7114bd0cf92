//! The sixteen workload mixes of Table III.
//!
//! Each mix names four applications and the mix-context MPKI/WPKI each
//! exhibits there (the same application is more or less memory-intensive
//! depending on how contended the shared L2 is — see the crate docs). The
//! per-mix *means* equal Table III's MPKI and WPKI columns exactly; the
//! `table_iii_means_match` test locks this in.

use crate::app::{AppInstance, AppProfile, WorkloadClass};
use crate::spec;

/// `(app, mpki, wpki)` for the four members of each mix, plus the Table III
/// aggregate `(mpki, wpki)` the mix must average to.
struct MixDef {
    name: &'static str,
    class: WorkloadClass,
    apps: [(&'static str, f64, f64); 4],
    // Read by the `table_iii_means_match` lock-in test.
    #[cfg_attr(not(test), allow(dead_code))]
    table_mpki: f64,
    #[cfg_attr(not(test), allow(dead_code))]
    table_wpki: f64,
}

const MIXES: &[MixDef] = &[
    MixDef {
        name: "ILP1",
        class: WorkloadClass::Ilp,
        apps: [
            ("vortex", 0.50, 0.08),
            ("gcc", 0.40, 0.07),
            ("sixtrack", 0.32, 0.05),
            ("mesa", 0.26, 0.04),
        ],
        table_mpki: 0.37,
        table_wpki: 0.06,
    },
    MixDef {
        name: "ILP2",
        class: WorkloadClass::Ilp,
        apps: [
            ("perlbmk", 0.28, 0.05),
            ("crafty", 0.22, 0.04),
            ("gzip", 0.08, 0.02),
            ("eon", 0.06, 0.01),
        ],
        table_mpki: 0.16,
        table_wpki: 0.03,
    },
    MixDef {
        name: "ILP3",
        class: WorkloadClass::Ilp,
        apps: [
            ("sixtrack", 0.34, 0.09),
            ("mesa", 0.28, 0.08),
            ("perlbmk", 0.26, 0.06),
            ("crafty", 0.20, 0.05),
        ],
        table_mpki: 0.27,
        table_wpki: 0.07,
    },
    MixDef {
        name: "ILP4",
        class: WorkloadClass::Ilp,
        apps: [
            ("vortex", 0.45, 0.06),
            ("gcc", 0.35, 0.05),
            ("gzip", 0.12, 0.03),
            ("eon", 0.08, 0.02),
        ],
        table_mpki: 0.25,
        table_wpki: 0.04,
    },
    MixDef {
        name: "MID1",
        class: WorkloadClass::Mid,
        apps: [
            ("ammp", 2.10, 0.90),
            ("gap", 1.50, 0.60),
            ("wupwise", 2.20, 0.80),
            ("vpr", 1.24, 0.66),
        ],
        table_mpki: 1.76,
        table_wpki: 0.74,
    },
    MixDef {
        name: "MID2",
        class: WorkloadClass::Mid,
        apps: [
            ("astar", 3.10, 1.10),
            ("parser", 2.40, 0.80),
            ("twolf", 2.90, 1.00),
            ("facerec", 2.04, 0.66),
        ],
        table_mpki: 2.61,
        table_wpki: 0.89,
    },
    MixDef {
        name: "MID3",
        class: WorkloadClass::Mid,
        apps: [
            ("apsi", 1.30, 0.80),
            ("bzip2", 0.90, 0.50),
            ("ammp", 1.10, 0.60),
            ("gap", 0.70, 0.50),
        ],
        table_mpki: 1.00,
        table_wpki: 0.60,
    },
    MixDef {
        name: "MID4",
        class: WorkloadClass::Mid,
        apps: [
            ("wupwise", 2.50, 1.10),
            ("vpr", 1.60, 0.70),
            ("astar", 2.70, 1.05),
            ("parser", 1.72, 0.75),
        ],
        table_mpki: 2.13,
        table_wpki: 0.90,
    },
    MixDef {
        name: "MEM1",
        class: WorkloadClass::Mem,
        apps: [
            ("swim", 24.00, 10.00),
            ("applu", 20.00, 9.00),
            ("galgel", 14.00, 6.00),
            ("equake", 14.88, 6.68),
        ],
        table_mpki: 18.22,
        table_wpki: 7.92,
    },
    MixDef {
        name: "MEM2",
        class: WorkloadClass::Mem,
        apps: [
            ("art", 9.00, 3.00),
            ("milc", 8.00, 2.60),
            ("mgrid", 7.50, 2.40),
            ("fma3d", 6.50, 2.12),
        ],
        table_mpki: 7.75,
        table_wpki: 2.53,
    },
    MixDef {
        name: "MEM3",
        class: WorkloadClass::Mem,
        apps: [
            ("fma3d", 7.00, 2.30),
            ("mgrid", 8.00, 2.50),
            ("galgel", 8.50, 2.70),
            ("equake", 8.22, 2.70),
        ],
        table_mpki: 7.93,
        table_wpki: 2.55,
    },
    MixDef {
        name: "MEM4",
        class: WorkloadClass::Mem,
        apps: [
            ("swim", 22.00, 9.50),
            ("applu", 18.00, 8.50),
            ("sphinx3", 12.00, 6.50),
            ("lucas", 8.28, 4.74),
        ],
        table_mpki: 15.07,
        table_wpki: 7.31,
    },
    MixDef {
        name: "MIX1",
        class: WorkloadClass::Mix,
        apps: [
            ("applu", 8.00, 7.50),
            ("hmmer", 1.50, 1.20),
            ("gap", 1.20, 0.90),
            ("gzip", 1.02, 0.64),
        ],
        table_mpki: 2.93,
        table_wpki: 2.56,
    },
    MixDef {
        name: "MIX2",
        class: WorkloadClass::Mix,
        apps: [
            ("milc", 7.00, 2.20),
            ("gobmk", 1.40, 0.50),
            ("facerec", 1.50, 0.40),
            ("perlbmk", 0.30, 0.10),
        ],
        table_mpki: 2.55,
        table_wpki: 0.80,
    },
    MixDef {
        name: "MIX3",
        class: WorkloadClass::Mix,
        apps: [
            ("equake", 6.50, 1.00),
            ("ammp", 1.80, 0.30),
            ("sjeng", 0.80, 0.16),
            ("crafty", 0.26, 0.10),
        ],
        table_mpki: 2.34,
        table_wpki: 0.39,
    },
    MixDef {
        name: "MIX4",
        class: WorkloadClass::Mix,
        apps: [
            ("swim", 9.50, 3.40),
            ("ammp", 2.20, 0.70),
            ("twolf", 2.30, 0.50),
            ("sixtrack", 0.48, 0.20),
        ],
        table_mpki: 3.62,
        table_wpki: 1.20,
    },
];

/// A fully resolved workload: four context-adjusted application profiles.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Mix name (e.g. `"MEM1"`).
    pub name: String,
    /// Workload class.
    pub class: WorkloadClass,
    /// The four member applications, with mix-context MPKI/WPKI applied.
    pub apps: Vec<AppProfile>,
}

impl WorkloadSpec {
    /// Mean MPKI across the four members (the Table III column).
    pub fn mean_mpki(&self) -> f64 {
        self.apps.iter().map(|a| a.mpki).sum::<f64>() / self.apps.len() as f64
    }

    /// Mean WPKI across the four members (the Table III column).
    pub fn mean_wpki(&self) -> f64 {
        self.apps.iter().map(|a| a.wpki).sum::<f64>() / self.apps.len() as f64
    }

    /// Expands the mix onto `n_cores` cores: `n_cores/4` de-phased copies of
    /// each member, interleaved so copy `k` of each app are adjacent
    /// (matching the paper's "`×N/4` each").
    ///
    /// # Errors
    ///
    /// Returns a description when `n_cores` is not a positive multiple of 4.
    pub fn instantiate(&self, n_cores: usize) -> Result<Vec<AppInstance>, String> {
        if n_cores == 0 || !n_cores.is_multiple_of(self.apps.len()) {
            return Err(format!(
                "{}: core count {} is not a positive multiple of {}",
                self.name,
                n_cores,
                self.apps.len()
            ));
        }
        let copies = n_cores / self.apps.len();
        let mut out = Vec::with_capacity(n_cores);
        for copy in 0..copies {
            for app in &self.apps {
                out.push(AppInstance::new(app, copy));
            }
        }
        Ok(out)
    }
}

fn resolve(def: &MixDef) -> WorkloadSpec {
    let apps = def
        .apps
        .iter()
        .map(|&(name, mpki, wpki)| {
            spec::base(name)
                .unwrap_or_else(|| panic!("Table III names unknown app {name}"))
                .with_memory_intensity(mpki, wpki)
        })
        .collect();
    WorkloadSpec {
        name: def.name.to_string(),
        class: def.class,
        apps,
    }
}

/// All sixteen mixes, in Table III order.
pub fn all() -> Vec<WorkloadSpec> {
    MIXES.iter().map(resolve).collect()
}

/// A mix by name (case-insensitive), if it exists.
pub fn by_name(name: &str) -> Option<WorkloadSpec> {
    MIXES
        .iter()
        .find(|m| m.name.eq_ignore_ascii_case(name))
        .map(resolve)
}

/// The four mixes of one class, in Table III order.
pub fn by_class(class: WorkloadClass) -> Vec<WorkloadSpec> {
    MIXES
        .iter()
        .filter(|m| m.class == class)
        .map(resolve)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sixteen_mixes_four_per_class() {
        assert_eq!(all().len(), 16);
        for class in WorkloadClass::ALL {
            assert_eq!(by_class(class).len(), 4, "{class}");
        }
    }

    #[test]
    fn table_iii_means_match() {
        for def in MIXES {
            let w = resolve(def);
            assert!(
                (w.mean_mpki() - def.table_mpki).abs() < 5e-3,
                "{}: mean MPKI {} vs Table III {}",
                def.name,
                w.mean_mpki(),
                def.table_mpki
            );
            assert!(
                (w.mean_wpki() - def.table_wpki).abs() < 5e-3,
                "{}: mean WPKI {} vs Table III {}",
                def.name,
                w.mean_wpki(),
                def.table_wpki
            );
        }
    }

    #[test]
    fn all_mix_profiles_are_valid() {
        for w in all() {
            for a in &w.apps {
                a.check().unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
        }
    }

    #[test]
    fn table_iii_membership_matches_paper() {
        let names = |mix: &str| -> Vec<String> {
            by_name(mix)
                .unwrap()
                .apps
                .iter()
                .map(|a| a.name.clone())
                .collect()
        };
        assert_eq!(names("ILP1"), ["vortex", "gcc", "sixtrack", "mesa"]);
        assert_eq!(names("MID2"), ["astar", "parser", "twolf", "facerec"]);
        assert_eq!(names("MEM4"), ["swim", "applu", "sphinx3", "lucas"]);
        assert_eq!(names("MIX3"), ["equake", "ammp", "sjeng", "crafty"]);
    }

    #[test]
    fn by_name_is_case_insensitive_and_total() {
        assert!(by_name("mem1").is_some());
        assert!(by_name("MeM1").is_some());
        assert!(by_name("MEM5").is_none());
    }

    #[test]
    fn instantiate_shapes() {
        let w = by_name("MIX4").unwrap();
        for n in [4usize, 16, 32, 64] {
            let apps = w.instantiate(n).unwrap();
            assert_eq!(apps.len(), n);
            // Each member appears exactly n/4 times.
            for member in &w.apps {
                let count = apps
                    .iter()
                    .filter(|a| a.profile.name == member.name)
                    .count();
                assert_eq!(count, n / 4, "{}", member.name);
            }
        }
        assert!(w.instantiate(0).is_err());
        assert!(w.instantiate(6).is_err());
    }

    #[test]
    fn copies_are_dephased() {
        let w = by_name("MEM1").unwrap();
        let apps = w.instantiate(16).unwrap();
        // Copies 0 and 1 of swim must have different phase offsets.
        let swims: Vec<_> = apps.iter().filter(|a| a.profile.name == "swim").collect();
        assert_eq!(swims.len(), 4);
        assert_ne!(swims[0].profile.phase.offset, swims[1].profile.phase.offset);
    }

    #[test]
    fn classes_order_by_memory_intensity() {
        let mean = |c: WorkloadClass| {
            let ws = by_class(c);
            ws.iter().map(|w| w.mean_mpki()).sum::<f64>() / ws.len() as f64
        };
        assert!(mean(WorkloadClass::Ilp) < mean(WorkloadClass::Mid));
        assert!(mean(WorkloadClass::Mid) < mean(WorkloadClass::Mem));
        assert!(mean(WorkloadClass::Mix) < mean(WorkloadClass::Mem));
    }
}
