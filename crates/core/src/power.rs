//! Power models (paper Eq. 2 and Eq. 3) and their online fitting.
//!
//! FastCap models the frequency-dependent power of core `i` as
//!
//! ```text
//! P_i · (z̄_i / z_i)^α_i + P_i,static        (Eq. 2)
//! ```
//!
//! where `z̄_i / z_i ∈ (0, 1]` is the frequency scaling factor, `α_i` is an
//! exponent typically between 2 and 3, and similarly the memory power as
//!
//! ```text
//! P_m · (s̄_b / s_b)^β + P_m,static          (Eq. 3)
//! ```
//!
//! with `β ≈ 1` in practice (only frequency, not voltage, is scaled for bus
//! and DRAM chips).
//!
//! The parameters `(P, α)` are *not* assumed known: Sec. III-C has FastCap
//! keep "data about the last three frequencies it has seen" and periodically
//! re-solve Eq. 2/3 for the parameters. [`PowerModelFitter`] reproduces that:
//! it retains recent `(scale, dynamic power)` observations at distinct
//! frequencies and fits `log P_dyn = log P + α·log scale` by least squares.

use crate::error::{Error, Result};
use crate::units::Watts;

/// A fitted frequency-to-power law `P_dyn(scale) = p_max · scale^alpha`.
///
/// `scale` is the normalized frequency-scaling factor `f / f_max ∈ (0, 1]`
/// (equivalently `z̄/z` for cores, `s̄_b/s_b` for memory).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerLaw {
    /// Maximum frequency-dependent power, drawn at `scale = 1`.
    pub p_max: Watts,
    /// The exponent (`α_i` for cores, `β` for memory).
    pub alpha: f64,
}

impl PowerLaw {
    /// Creates a power law.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if `p_max` is negative/non-finite or
    /// `alpha` is not positive and finite.
    pub fn new(p_max: Watts, alpha: f64) -> Result<Self> {
        if !(p_max.get() >= 0.0 && p_max.is_finite()) {
            return Err(Error::InvalidConfig {
                what: "PowerLaw::p_max",
                why: format!("must be non-negative and finite, got {p_max}"),
            });
        }
        if !(alpha > 0.0 && alpha.is_finite()) {
            return Err(Error::InvalidConfig {
                what: "PowerLaw::alpha",
                why: format!("must be positive and finite, got {alpha}"),
            });
        }
        Ok(Self { p_max, alpha })
    }

    /// Dynamic power at the given frequency scaling factor (clamped to
    /// `[0, 1]`).
    #[inline]
    pub fn dynamic_power(&self, scale: f64) -> Watts {
        Watts(self.p_max.get() * scale.clamp(0.0, 1.0).powf(self.alpha))
    }

    /// Inverse: the scaling factor that would draw `target` dynamic power.
    ///
    /// Clamped to `[0, 1]`; returns 1.0 when `target >= p_max` and 0.0 when
    /// `target <= 0`.
    #[inline]
    pub fn scale_for_power(&self, target: Watts) -> f64 {
        if self.p_max.get() <= 0.0 {
            return 1.0;
        }
        (target.get() / self.p_max.get())
            .max(0.0)
            .powf(1.0 / self.alpha)
            .clamp(0.0, 1.0)
    }
}

/// Range of exponents the fitter will accept; values outside are clamped.
///
/// The paper observes `α ∈ [2, 3]` for cores and `β ≈ 1` for memory; we allow
/// a generous margin so noisy observations do not produce absurd exponents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ExponentBounds {
    /// Smallest admissible exponent.
    pub lo: f64,
    /// Largest admissible exponent.
    pub hi: f64,
}

impl ExponentBounds {
    /// Bounds for core models (`α`). The physical `V²f` law gives 2–3, but
    /// the *effective* exponent observed through counters can be lower: a
    /// slowed core stays busy longer, so its activity factor rises and
    /// power falls less than `f^2` would predict.
    pub const CORE: Self = Self { lo: 0.8, hi: 3.5 };
    /// Bounds for the memory model (`β`): `β ≈ 1` in the paper; saturation
    /// effects can push the observed exponent below it.
    pub const MEMORY: Self = Self { lo: 0.3, hi: 2.0 };
}

/// One power observation: dynamic power measured while running at a given
/// frequency scaling factor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerSample {
    /// Normalized frequency `f/f_max ∈ (0, 1]` during the observation.
    pub scale: f64,
    /// Measured frequency-dependent (dynamic) power.
    pub dynamic_power: Watts,
}

/// Online estimator for a [`PowerLaw`], following Sec. III-C: keep the last
/// few observations at *distinct* frequencies and periodically re-solve the
/// model for `(P, α)`.
///
/// "Recent" is enforced in **time**, not just identity: a retained sample
/// that has not been refreshed within [`PowerModelFitter::MAX_SAMPLE_AGE`]
/// subsequent observations is evicted. Without aging, a workload shift
/// leaves samples from the old behaviour parked at unvisited frequencies;
/// the least-squares line then tilts through them and the law mispredicts
/// *at the frequency being observed every epoch* — a persistent bias no
/// amount of fresh data at one scale can fix, because the stale points
/// never get replaced.
#[derive(Debug, Clone)]
pub struct PowerModelFitter {
    /// Most recent sample per distinct scale, newest last.
    samples: Vec<PowerSample>,
    /// Observation-clock stamp of each retained sample (parallel to
    /// `samples`).
    last_seen: Vec<u64>,
    /// Monotonic count of accepted observations.
    clock: u64,
    capacity: usize,
    bounds: ExponentBounds,
    current: PowerLaw,
}

impl PowerModelFitter {
    /// Default number of distinct frequencies retained (the paper keeps
    /// three).
    pub const DEFAULT_CAPACITY: usize = 3;

    /// Observations a retained sample may go unrefreshed before it is
    /// evicted as stale. One observation arrives per control epoch, so
    /// this bounds how long a pre-shift sample can bias the fit — well
    /// inside the oracle's settle window.
    pub const MAX_SAMPLE_AGE: u64 = 8;

    /// Creates a fitter seeded with an initial model (used until enough
    /// observations accumulate).
    pub fn new(initial: PowerLaw, bounds: ExponentBounds) -> Self {
        Self {
            samples: Vec::with_capacity(Self::DEFAULT_CAPACITY),
            last_seen: Vec::with_capacity(Self::DEFAULT_CAPACITY),
            clock: 0,
            capacity: Self::DEFAULT_CAPACITY,
            bounds,
            current: initial,
        }
    }

    /// Overrides the number of retained distinct-frequency samples
    /// (minimum 2).
    #[must_use]
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(2);
        self
    }

    /// The current model estimate.
    #[inline]
    pub fn model(&self) -> PowerLaw {
        self.current
    }

    /// Number of distinct-frequency samples currently held.
    #[inline]
    pub fn sample_count(&self) -> usize {
        self.samples.len()
    }

    /// Records an observation and refits the model if at least two distinct
    /// frequencies have been seen.
    ///
    /// Non-finite or non-positive observations are ignored (a sensor glitch
    /// must not poison the model).
    pub fn observe(&mut self, sample: PowerSample) {
        if !(sample.scale > 0.0
            && sample.scale.is_finite()
            && sample.dynamic_power.get() > 0.0
            && sample.dynamic_power.is_finite())
        {
            return;
        }
        // Replace an existing sample at (nearly) the same frequency, else
        // append and evict the oldest beyond capacity.
        const SAME_FREQ_EPS: f64 = 1e-6;
        self.clock += 1;
        if let Some(i) = self
            .samples
            .iter()
            .position(|s| (s.scale - sample.scale).abs() < SAME_FREQ_EPS)
        {
            self.samples[i] = sample;
            self.last_seen[i] = self.clock;
        } else {
            self.samples.push(sample);
            self.last_seen.push(self.clock);
            if self.samples.len() > self.capacity {
                self.samples.remove(0);
                self.last_seen.remove(0);
            }
        }
        // Age out samples the loop has stopped refreshing: after a
        // workload shift they describe the *old* behaviour and would bias
        // the fit against every fresh observation.
        let mut i = 0;
        while i < self.samples.len() {
            if self.clock - self.last_seen[i] > Self::MAX_SAMPLE_AGE {
                self.samples.remove(i);
                self.last_seen.remove(i);
            } else {
                i += 1;
            }
        }
        self.refit();
    }

    /// Least-squares fit of `ln p = ln P + α·ln scale` over retained samples.
    fn refit(&mut self) {
        if self.samples.is_empty() {
            return;
        }
        if self.samples.len() == 1 {
            // One distinct frequency: keep the exponent, track the magnitude.
            let s = self.samples[0];
            let p = s.dynamic_power.get() / s.scale.powf(self.current.alpha);
            if p.is_finite() && p > 0.0 {
                self.current.p_max = Watts(p);
            }
            return;
        }
        let n = self.samples.len() as f64;
        let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
        for s in &self.samples {
            let x = s.scale.ln();
            let y = s.dynamic_power.get().ln();
            sx += x;
            sy += y;
            sxx += x * x;
            sxy += x * y;
        }
        let denom = n * sxx - sx * sx;
        if denom.abs() < 1e-12 {
            // All samples at (numerically) the same frequency: keep the
            // current exponent, update the magnitude from the newest sample.
            let newest = self.samples[self.samples.len() - 1];
            let p = newest.dynamic_power.get() / newest.scale.powf(self.current.alpha);
            if p.is_finite() && p > 0.0 {
                self.current.p_max = Watts(p);
            }
            return;
        }
        let alpha = ((n * sxy - sx * sy) / denom).clamp(self.bounds.lo, self.bounds.hi);
        // Re-solve the intercept with the clamped exponent so the fit still
        // passes through the centroid.
        let intercept = (sy - alpha * sx) / n;
        let p_max = intercept.exp();
        if p_max.is_finite() && p_max > 0.0 && alpha.is_finite() {
            self.current = PowerLaw {
                p_max: Watts(p_max),
                alpha,
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn law(p: f64, a: f64) -> PowerLaw {
        PowerLaw::new(Watts(p), a).unwrap()
    }

    #[test]
    fn power_law_evaluation() {
        let l = law(4.0, 2.0);
        assert!((l.dynamic_power(1.0).get() - 4.0).abs() < 1e-12);
        assert!((l.dynamic_power(0.5).get() - 1.0).abs() < 1e-12);
        // Clamped outside [0, 1].
        assert!((l.dynamic_power(2.0).get() - 4.0).abs() < 1e-12);
        assert_eq!(l.dynamic_power(-1.0), Watts(0.0));
    }

    #[test]
    fn power_law_inverse() {
        let l = law(4.0, 2.0);
        assert!((l.scale_for_power(Watts(1.0)) - 0.5).abs() < 1e-12);
        assert!((l.scale_for_power(Watts(4.0)) - 1.0).abs() < 1e-12);
        assert!((l.scale_for_power(Watts(100.0)) - 1.0).abs() < 1e-12);
        assert_eq!(l.scale_for_power(Watts(-1.0)), 0.0);
        // Degenerate zero-power law.
        let z = law(0.0, 2.0);
        assert_eq!(z.scale_for_power(Watts(1.0)), 1.0);
    }

    #[test]
    fn power_law_rejects_bad_params() {
        assert!(PowerLaw::new(Watts(-1.0), 2.0).is_err());
        assert!(PowerLaw::new(Watts(f64::NAN), 2.0).is_err());
        assert!(PowerLaw::new(Watts(1.0), 0.0).is_err());
        assert!(PowerLaw::new(Watts(1.0), -1.0).is_err());
        assert!(PowerLaw::new(Watts(1.0), f64::INFINITY).is_err());
    }

    #[test]
    fn fitter_recovers_exact_law() {
        let truth = law(5.0, 2.5);
        let mut f = PowerModelFitter::new(law(1.0, 2.0), ExponentBounds::CORE);
        for scale in [1.0, 0.8, 0.6] {
            f.observe(PowerSample {
                scale,
                dynamic_power: truth.dynamic_power(scale),
            });
        }
        let m = f.model();
        assert!((m.alpha - 2.5).abs() < 1e-6, "alpha = {}", m.alpha);
        assert!((m.p_max.get() - 5.0).abs() < 1e-6, "p_max = {}", m.p_max);
    }

    #[test]
    fn fitter_recovers_memory_like_beta() {
        let truth = law(24.0, 1.0);
        let mut f = PowerModelFitter::new(law(10.0, 1.5), ExponentBounds::MEMORY);
        for scale in [0.25, 0.5, 1.0] {
            f.observe(PowerSample {
                scale,
                dynamic_power: truth.dynamic_power(scale),
            });
        }
        let m = f.model();
        assert!((m.alpha - 1.0).abs() < 1e-6);
        assert!((m.p_max.get() - 24.0).abs() < 1e-6);
    }

    #[test]
    fn fitter_clamps_exponent() {
        // Data with slope 5 (outside CORE bounds) must clamp to 3.5.
        let mut f = PowerModelFitter::new(law(1.0, 2.0), ExponentBounds::CORE);
        for scale in [1.0, 0.5] {
            f.observe(PowerSample {
                scale,
                dynamic_power: Watts(10.0 * scale.powf(5.0)),
            });
        }
        assert!((f.model().alpha - 3.5).abs() < 1e-12);
    }

    #[test]
    fn fitter_ignores_garbage_samples() {
        let initial = law(2.0, 2.0);
        let mut f = PowerModelFitter::new(initial, ExponentBounds::CORE);
        f.observe(PowerSample {
            scale: 0.0,
            dynamic_power: Watts(1.0),
        });
        f.observe(PowerSample {
            scale: f64::NAN,
            dynamic_power: Watts(1.0),
        });
        f.observe(PowerSample {
            scale: 0.5,
            dynamic_power: Watts(-3.0),
        });
        assert_eq!(f.sample_count(), 0);
        assert_eq!(f.model(), initial);
    }

    #[test]
    fn fitter_replaces_same_frequency_sample() {
        let mut f = PowerModelFitter::new(law(1.0, 2.0), ExponentBounds::CORE);
        f.observe(PowerSample {
            scale: 1.0,
            dynamic_power: Watts(4.0),
        });
        f.observe(PowerSample {
            scale: 1.0,
            dynamic_power: Watts(5.0),
        });
        assert_eq!(f.sample_count(), 1);
        // Single distinct frequency: magnitude tracks the newest sample via
        // the current exponent.
        assert!((f.model().p_max.get() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn fitter_evicts_oldest_beyond_capacity() {
        let truth = law(8.0, 3.0);
        let mut f = PowerModelFitter::new(law(1.0, 2.0), ExponentBounds::CORE);
        for scale in [0.3, 0.5, 0.7, 0.9] {
            f.observe(PowerSample {
                scale,
                dynamic_power: truth.dynamic_power(scale),
            });
        }
        assert_eq!(f.sample_count(), PowerModelFitter::DEFAULT_CAPACITY);
        let m = f.model();
        assert!((m.alpha - 3.0).abs() < 1e-6);
        assert!((m.p_max.get() - 8.0).abs() < 1e-5);
    }

    #[test]
    fn fitter_evicts_stale_samples_after_workload_shift() {
        // Old workload observed at three scales; then the workload shifts
        // (power up 30%) but the loop settles on a single frequency. The
        // stale off-frequency samples must age out so the refit converges
        // to the fresh data instead of splitting the difference forever.
        let old = law(4.0, 2.0);
        let mut f = PowerModelFitter::new(law(4.0, 2.0), ExponentBounds::CORE);
        for scale in [1.0, 0.8, 0.6] {
            f.observe(PowerSample {
                scale,
                dynamic_power: old.dynamic_power(scale),
            });
        }
        let new = law(5.2, 2.0);
        let fresh = PowerSample {
            scale: 0.9,
            dynamic_power: new.dynamic_power(0.9),
        };
        for _ in 0..=PowerModelFitter::MAX_SAMPLE_AGE {
            f.observe(fresh);
        }
        // Only the refreshed sample survives; the model now reproduces the
        // fresh observation exactly at the observed frequency.
        assert_eq!(f.sample_count(), 1);
        let predicted = f.model().dynamic_power(0.9);
        assert!(
            (predicted.get() - fresh.dynamic_power.get()).abs() < 1e-9,
            "stale samples still bias the fit: predicted {predicted} vs observed {}",
            fresh.dynamic_power
        );
    }

    #[test]
    fn fitter_tracks_drifting_workload() {
        // Workload changes behaviour: dynamic power halves. The fitter must
        // converge to the new magnitude once old samples are evicted.
        let mut f = PowerModelFitter::new(law(4.0, 2.0), ExponentBounds::CORE);
        let old = law(4.0, 2.0);
        for scale in [1.0, 0.8, 0.6] {
            f.observe(PowerSample {
                scale,
                dynamic_power: old.dynamic_power(scale),
            });
        }
        let new = law(2.0, 2.0);
        for scale in [0.9, 0.7, 0.5] {
            f.observe(PowerSample {
                scale,
                dynamic_power: new.dynamic_power(scale),
            });
        }
        let m = f.model();
        assert!((m.p_max.get() - 2.0).abs() < 1e-6, "p_max = {}", m.p_max);
        assert!((m.alpha - 2.0).abs() < 1e-6);
    }
}
