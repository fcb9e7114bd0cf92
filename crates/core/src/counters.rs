//! Performance-counter-shaped controller inputs (Sec. III-C).
//!
//! FastCap is an OS-level controller: everything it knows about the machine
//! arrives through a handful of per-epoch hardware counters, collected in
//! the paper during a short *profiling phase* (300 µs) at the start of each
//! epoch; the simulator collects them over the whole previous epoch instead
//! (DESIGN.md §2):
//!
//! * per core: `TPI` (busy time per instruction), `TIC` (instructions
//!   executed), `TLM` (last-level cache misses), the average L2 time, the
//!   frequency the core ran at, and its average power;
//! * per memory controller: the MemScale occupancy counters `Q` (mean bank
//!   queue at arrival) and `U` (mean bus queue at departure), the mean bank
//!   service time `s_m`, the bus frequency and the memory power.
//!
//! [`CoreSample::min_think_time`] implements Eq. 9: the think time during
//! profiling is `TPI · TIC / TLM`, then scaled by the ratio between the
//! profiling frequency and the maximum frequency to obtain `z̄_i`.

use crate::units::{Hz, Secs, Watts};

/// One epoch of counters for a single core.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoreSample {
    /// Frequency the core ran at during the profiling phase.
    pub freq: Hz,
    /// `TPI`: average *busy* (non-stalled) time per instruction during
    /// profiling.
    pub busy_time_per_instruction: Secs,
    /// `TIC`: total instructions executed during profiling.
    pub instructions: u64,
    /// `TLM`: total last-level cache misses (memory accesses) during
    /// profiling.
    pub last_level_misses: u64,
    /// Average core power over the previous epoch (used for model fitting).
    pub power: Watts,
}

impl CoreSample {
    /// Eq. 9: minimum think time `z̄_i` extrapolated to `f_max`.
    ///
    /// `TPI·TIC/TLM` is the average busy time between two memory accesses at
    /// the profiling frequency; multiplying by `freq/f_max` rescales it to
    /// the maximum frequency. A core with zero misses is treated as having
    /// one (think time = entire profiling busy time): the core is simply
    /// extremely CPU-bound, not divergent.
    pub fn min_think_time(&self, f_max: Hz) -> Secs {
        let misses = self.last_level_misses.max(1) as f64;
        let z_prof = self.busy_time_per_instruction.get() * self.instructions as f64 / misses;
        Secs(z_prof * (self.freq.get() / f_max.get()))
    }

    /// Instructions per memory access (`TIC / TLM`), a handy intensity
    /// metric (inverse of misses-per-instruction).
    pub fn instructions_per_miss(&self) -> f64 {
        self.instructions as f64 / self.last_level_misses.max(1) as f64
    }
}

/// One epoch of counters for one memory controller (or the aggregate when a
/// single controller is modelled).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemorySample {
    /// Bus frequency during the epoch.
    pub bus_freq: Hz,
    /// `Q`: expected number of requests found at a bank on arrival,
    /// including the arriving one.
    pub bank_queue: f64,
    /// `U`: expected number of bus waiters at departure, including the
    /// departing request.
    pub bus_queue: f64,
    /// `s_m`: mean bank service time during profiling.
    pub bank_service_time: Secs,
    /// Average memory subsystem power over the previous epoch.
    pub power: Watts,
}

/// Everything the controller sees at the end of a profiling phase.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochObservation {
    /// Per-core samples (length `N`).
    pub cores: Vec<CoreSample>,
    /// Aggregate memory sample (always present; equals the single
    /// controller's sample in single-controller mode).
    pub memory: MemorySample,
    /// Per-controller samples for the multi-controller extension
    /// (Sec. IV-B). Empty in single-controller mode.
    pub controllers: Vec<MemorySample>,
    /// `access_weights[i][j]`: probability that core `i`'s accesses route to
    /// controller `j`. Empty in single-controller mode.
    pub access_weights: Vec<Vec<f64>>,
    /// Measured full-system average power over the previous epoch.
    pub total_power: Watts,
}

impl EpochObservation {
    /// Convenience constructor for the common single-controller case.
    pub fn single(cores: Vec<CoreSample>, memory: MemorySample, total_power: Watts) -> Self {
        Self {
            cores,
            memory,
            controllers: Vec::new(),
            access_weights: Vec::new(),
            total_power,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn think_time_matches_eq9() {
        // TPI = 0.25 ns, TIC = 1M, TLM = 1000 -> z_prof = 250 ns at 2 GHz.
        // Scaled to 4 GHz max: z̄ = 125 ns.
        let s = CoreSample {
            freq: Hz::from_ghz(2.0),
            busy_time_per_instruction: Secs::from_nanos(0.25),
            instructions: 1_000_000,
            last_level_misses: 1000,
            power: Watts(3.0),
        };
        let z = s.min_think_time(Hz::from_ghz(4.0));
        assert!((z.nanos() - 125.0).abs() < 1e-9, "z̄ = {} ns", z.nanos());
    }

    #[test]
    fn think_time_at_max_frequency_is_unscaled() {
        let s = CoreSample {
            freq: Hz::from_ghz(4.0),
            busy_time_per_instruction: Secs::from_nanos(0.25),
            instructions: 100_000,
            last_level_misses: 500,
            power: Watts(3.0),
        };
        let z = s.min_think_time(Hz::from_ghz(4.0));
        assert!((z.nanos() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn zero_misses_handled_as_one() {
        let s = CoreSample {
            freq: Hz::from_ghz(4.0),
            busy_time_per_instruction: Secs::from_nanos(0.25),
            instructions: 1_000_000,
            last_level_misses: 0,
            power: Watts(3.0),
        };
        let z = s.min_think_time(Hz::from_ghz(4.0));
        assert!(z.is_finite());
        assert!((z.micros() - 250.0).abs() < 1e-6);
        assert!((s.instructions_per_miss() - 1_000_000.0).abs() < 1e-9);
    }

    #[test]
    fn instructions_per_miss_is_inverse_mpki() {
        let s = CoreSample {
            freq: Hz::from_ghz(4.0),
            busy_time_per_instruction: Secs::from_nanos(0.3),
            instructions: 1_000_000,
            last_level_misses: 2000, // MPKI = 2
            power: Watts(3.0),
        };
        assert!((s.instructions_per_miss() - 500.0).abs() < 1e-9);
    }

    #[test]
    fn single_constructor_leaves_multi_fields_empty() {
        let mem = MemorySample {
            bus_freq: Hz::from_mhz(800.0),
            bank_queue: 1.0,
            bus_queue: 1.0,
            bank_service_time: Secs::from_nanos(30.0),
            power: Watts(20.0),
        };
        let obs = EpochObservation::single(vec![], mem, Watts(50.0));
        assert!(obs.controllers.is_empty());
        assert!(obs.access_weights.is_empty());
        assert_eq!(obs.total_power, Watts(50.0));
    }
}
