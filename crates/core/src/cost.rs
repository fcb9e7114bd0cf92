//! Deterministic operation-count cost taxonomy.
//!
//! [`CostCounter`] is the currency of the deterministic cost model: every
//! layer of the stack counts the abstract operations it performs (event
//! pops, RNG draws, solver inner-loop iterations, …) instead of timing
//! them. The counts are exact functions of the inputs — identical at any
//! `--jobs` level and across hosts — so multiplying them by a checked-in
//! per-op nanosecond weight vector (`COST_MODEL.json`, fitted once by
//! `repro calibrate`) yields *modeled* latencies that are byte-reproducible
//! and therefore golden-pinnable and CI-gateable, unlike wall clock.
//!
//! The taxonomy is deliberately small: one counter per op class whose unit
//! cost is roughly constant. Consumers that need a scalar combine the
//! counts with weights (see `fastcap-bench::costmodel`); the core crate
//! itself stays unit-free.

/// Canonical op-class names, index-aligned with [`CostCounter::as_array`].
///
/// The order is part of the `COST_MODEL.json` schema: weight `i` prices op
/// class `OPS[i]`. Append-only; never reorder.
pub const OPS: [&str; 11] = [
    "event_push",
    "event_pop",
    "rng_draw",
    "fitter_update",
    "solver_iter",
    "bus_eval",
    "grid_point",
    "quantize_op",
    "waterfill_pass",
    "lane_sync",
    "barrier_wait",
];

/// Counts of abstract operations performed, one field per op class.
///
/// All counts advance deterministically: the same inputs produce the same
/// counts on any host, at any `--jobs` level, and under either event-queue
/// implementation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CostCounter {
    /// Events pushed into a simulation event queue.
    pub event_pushes: u64,
    /// Events popped from a simulation event queue.
    pub event_pops: u64,
    /// Pseudo-random numbers drawn by workload generators.
    pub rng_draws: u64,
    /// Power-model fitter updates (one per `PowerSample` observed).
    pub fitter_updates: u64,
    /// Solver inner-loop iterations: per-core terms evaluated by
    /// Algorithm 1's inner solve, its Newton search and the midpoints of
    /// its bisection that the Newton root leaves open (or by the analytic
    /// backend's fixed-point solver).
    pub solver_iters: u64,
    /// Candidate bus points evaluated by the optimizer's outer search.
    pub bus_evals: u64,
    /// Grid points touched by baseline policies' configuration searches
    /// (Eql-Pwr/Eql-Freq ladder scans, MaxBIPS combination enumeration).
    pub grid_points: u64,
    /// Frequency-ladder quantizations (`nearest_scale` calls).
    pub quantize_ops: u64,
    /// Water-filling divide passes in the fleet budget tree.
    pub waterfill_passes: u64,
    /// Draw-lane stream refills in the DES: one per batch prefill at an
    /// epoch barrier or inline refill on underrun.
    pub lane_syncs: u64,
    /// Epoch-boundary barriers in the DES: one per epoch prefill round.
    pub barrier_waits: u64,
}

impl CostCounter {
    /// The counts as an array, index-aligned with [`OPS`].
    #[must_use]
    pub fn as_array(&self) -> [u64; 11] {
        [
            self.event_pushes,
            self.event_pops,
            self.rng_draws,
            self.fitter_updates,
            self.solver_iters,
            self.bus_evals,
            self.grid_points,
            self.quantize_ops,
            self.waterfill_passes,
            self.lane_syncs,
            self.barrier_waits,
        ]
    }

    /// Builds a counter from an [`OPS`]-ordered array.
    #[must_use]
    pub fn from_array(a: [u64; 11]) -> Self {
        CostCounter {
            event_pushes: a[0],
            event_pops: a[1],
            rng_draws: a[2],
            fitter_updates: a[3],
            solver_iters: a[4],
            bus_evals: a[5],
            grid_points: a[6],
            quantize_ops: a[7],
            waterfill_passes: a[8],
            lane_syncs: a[9],
            barrier_waits: a[10],
        }
    }

    /// Adds another counter's counts into this one, field-wise.
    pub fn add(&mut self, other: &CostCounter) {
        let mut a = self.as_array();
        for (x, y) in a.iter_mut().zip(other.as_array()) {
            *x += y;
        }
        *self = CostCounter::from_array(a);
    }

    /// The field-wise difference `self - earlier` (saturating at zero), for
    /// metering a cumulative counter across a region of interest.
    #[must_use]
    pub fn delta_since(&self, earlier: &CostCounter) -> CostCounter {
        let mut a = self.as_array();
        for (x, y) in a.iter_mut().zip(earlier.as_array()) {
            *x = x.saturating_sub(y);
        }
        CostCounter::from_array(a)
    }

    /// Total operations across all classes (a quick magnitude check; the
    /// classes have different unit costs, so this is not a latency proxy).
    #[must_use]
    pub fn total(&self) -> u64 {
        self.as_array().iter().sum()
    }

    /// `true` when every count is zero.
    #[must_use]
    pub fn is_zero(&self) -> bool {
        self.as_array().iter().all(|&x| x == 0)
    }

    /// Prices the counts against an [`OPS`]-ordered per-op nanosecond
    /// weight vector, in fixed index order.
    ///
    /// This is the canonical modeled-clock evaluation: the accumulation
    /// order is part of the determinism contract (f64 addition is not
    /// associative), so every consumer — the timing tables, the
    /// expectation check, trace timestamps — must price through this one
    /// function to agree bit-for-bit.
    #[must_use]
    pub fn priced_ns(&self, ns: &[f64; OPS.len()]) -> f64 {
        self.as_array()
            .iter()
            .zip(ns.iter())
            .map(|(&count, &w)| count as f64 * w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> CostCounter {
        CostCounter::from_array([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11])
    }

    #[test]
    fn array_round_trip_is_ops_ordered() {
        let c = sample();
        assert_eq!(CostCounter::from_array(c.as_array()), c);
        assert_eq!(c.event_pushes, 1);
        assert_eq!(c.waterfill_passes, 9);
        assert_eq!(c.lane_syncs, 10);
        assert_eq!(c.barrier_waits, 11);
        assert_eq!(OPS.len(), c.as_array().len());
    }

    #[test]
    fn add_and_delta_are_inverse() {
        let mut c = sample();
        c.add(&sample());
        assert_eq!(c.delta_since(&sample()), sample());
        assert_eq!(c.total(), 2 * 66);
    }

    #[test]
    fn priced_ns_is_the_ops_ordered_dot_product() {
        let mut ns = [0.0f64; OPS.len()];
        ns[0] = 2.0; // event_push
        ns[4] = 10.0; // solver_iter
        ns[10] = 0.5; // barrier_wait
        let t = sample().priced_ns(&ns);
        assert_eq!(t, 1.0 * 2.0 + 5.0 * 10.0 + 11.0 * 0.5);
        assert_eq!(CostCounter::default().priced_ns(&ns), 0.0);
    }

    #[test]
    fn delta_saturates() {
        let d = CostCounter::default().delta_since(&sample());
        assert!(d.is_zero());
        assert!(!sample().is_zero());
    }
}
