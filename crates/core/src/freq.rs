//! DVFS frequency ladders and the voltage/frequency curve.
//!
//! The paper's platform (Sec. IV-A) exposes:
//!
//! * **Cores:** 10 equally spaced frequencies in 2.2–4.0 GHz, voltage scaling
//!   linearly with frequency from 0.65 V to 1.2 V (Sandybridge-like).
//! * **Memory bus / DRAM chips:** frequencies from 200 MHz to 800 MHz in
//!   66.67 MHz steps (10 points). The memory controller runs at twice the
//!   bus frequency and is voltage-scaled like a core; bus and DRAM chips are
//!   frequency-scaled only — which is why the paper observes the memory
//!   power exponent `β ≈ 1`.

use crate::error::{Error, Result};
use crate::units::Hz;

/// An ordered, discrete set of DVFS frequencies.
///
/// Levels are stored ascending; the last level is the maximum frequency used
/// to normalize scaling factors.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqLadder {
    levels: Vec<Hz>,
}

impl FreqLadder {
    /// Builds a ladder from arbitrary levels.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] if fewer than two levels are given,
    /// any level is non-positive/non-finite, or the levels are not strictly
    /// ascending.
    pub fn new(levels: Vec<Hz>) -> Result<Self> {
        if levels.len() < 2 {
            return Err(Error::InvalidConfig {
                what: "FreqLadder::levels",
                why: format!("need at least 2 levels, got {}", levels.len()),
            });
        }
        for w in levels.windows(2) {
            if !(w[0].get() > 0.0 && w[0].is_finite() && w[1] > w[0]) {
                return Err(Error::InvalidConfig {
                    what: "FreqLadder::levels",
                    why: "levels must be positive, finite and strictly ascending".into(),
                });
            }
        }
        Ok(Self { levels })
    }

    /// `count` equally spaced levels from `lo` to `hi` inclusive.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] when `count < 2` or `lo >= hi`.
    pub fn equally_spaced(lo: Hz, hi: Hz, count: usize) -> Result<Self> {
        if count < 2 {
            return Err(Error::InvalidConfig {
                what: "FreqLadder::count",
                why: format!("need at least 2 levels, got {count}"),
            });
        }
        if !(lo.get() > 0.0 && hi > lo) {
            return Err(Error::InvalidConfig {
                what: "FreqLadder::range",
                why: format!("need 0 < lo < hi, got lo={lo}, hi={hi}"),
            });
        }
        let step = (hi.get() - lo.get()) / (count - 1) as f64;
        let levels = (0..count).map(|i| Hz(lo.get() + step * i as f64)).collect();
        Self::new(levels)
    }

    /// The paper's core ladder: 10 equally spaced levels, 2.2–4.0 GHz.
    pub fn ispass_core() -> Self {
        Self::equally_spaced(Hz::from_ghz(2.2), Hz::from_ghz(4.0), 10)
            .expect("static ladder parameters are valid")
    }

    /// The paper's memory-bus ladder: 200–800 MHz in 66.67 MHz steps
    /// (10 levels).
    pub fn ispass_memory_bus() -> Self {
        Self::equally_spaced(Hz::from_mhz(200.0), Hz::from_mhz(800.0), 10)
            .expect("static ladder parameters are valid")
    }

    /// Number of levels (`F` for cores, `M` for memory in the paper).
    #[inline]
    pub fn len(&self) -> usize {
        self.levels.len()
    }

    /// Always `false`: a ladder has at least two levels.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The levels in ascending order.
    #[inline]
    pub fn levels(&self) -> &[Hz] {
        &self.levels
    }

    /// The minimum frequency.
    #[inline]
    pub fn min(&self) -> Hz {
        self.levels[0]
    }

    /// The maximum frequency.
    #[inline]
    pub fn max(&self) -> Hz {
        *self.levels.last().expect("ladder is non-empty")
    }

    /// The frequency at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    #[inline]
    pub fn at(&self, index: usize) -> Hz {
        self.levels[index]
    }

    /// The scaling factor `f / f_max ∈ (0, 1]` for the level at `index`.
    #[inline]
    pub fn scale(&self, index: usize) -> f64 {
        self.levels[index] / self.max()
    }

    /// Index of the level closest to `target` (paper: "the closest frequency
    /// after normalization"). Ties resolve to the higher level.
    pub fn nearest(&self, target: Hz) -> usize {
        let mut best = 0usize;
        let mut best_d = f64::INFINITY;
        for (i, &f) in self.levels.iter().enumerate() {
            let d = (f.get() - target.get()).abs();
            if d <= best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }

    /// Index of the level closest to `scale * f_max`, where
    /// `scale ∈ [0, 1]` is a normalized frequency-scaling factor.
    pub fn nearest_scale(&self, scale: f64) -> usize {
        self.nearest(Hz(self.max().get() * scale.clamp(0.0, 1.0)))
    }

    /// Index of the highest level at or below `scale * f_max` — the
    /// quantize-down rule: rounding a budget-bound continuous optimum with
    /// this can only create slack, never overshoot. A one-part-per-billion
    /// relative guard keeps a continuous scale that lands exactly on a
    /// level (up to floating-point round-off) on that level instead of
    /// dropping a whole ladder step.
    pub fn floor_scale(&self, scale: f64) -> usize {
        self.floor(Hz(self.max().get() * scale.clamp(0.0, 1.0) * (1.0 + 1e-9)))
    }

    /// Index of the highest level whose frequency is `<= target`; level 0 if
    /// even the minimum exceeds `target`.
    pub fn floor(&self, target: Hz) -> usize {
        let mut idx = 0;
        for (i, &f) in self.levels.iter().enumerate() {
            if f <= target {
                idx = i;
            } else {
                break;
            }
        }
        idx
    }
}

/// Linear voltage/frequency curve: `V(f) = v_min + (v_max - v_min) ·
/// (f - f_min) / (f_max - f_min)`, matching the paper's measured i7
/// behaviour (0.65 V at 2.2 GHz up to 1.2 V at 4.0 GHz).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VoltageCurve {
    f_min: Hz,
    f_max: Hz,
    v_min: f64,
    v_max: f64,
}

impl VoltageCurve {
    /// Creates a linear V/f curve.
    ///
    /// # Errors
    ///
    /// Returns [`Error::InvalidConfig`] unless `0 < f_min < f_max` and
    /// `0 < v_min <= v_max`.
    pub fn new(f_min: Hz, f_max: Hz, v_min: f64, v_max: f64) -> Result<Self> {
        if !(f_min.get() > 0.0 && f_max > f_min) {
            return Err(Error::InvalidConfig {
                what: "VoltageCurve::freq_range",
                why: format!("need 0 < f_min < f_max, got {f_min}..{f_max}"),
            });
        }
        if !(v_min > 0.0 && v_max >= v_min) {
            return Err(Error::InvalidConfig {
                what: "VoltageCurve::volt_range",
                why: format!("need 0 < v_min <= v_max, got {v_min}..{v_max}"),
            });
        }
        Ok(Self {
            f_min,
            f_max,
            v_min,
            v_max,
        })
    }

    /// The paper's Sandybridge-like curve: 0.65 V @ 2.2 GHz → 1.2 V @ 4 GHz.
    pub fn ispass_core() -> Self {
        Self::new(Hz::from_ghz(2.2), Hz::from_ghz(4.0), 0.65, 1.2)
            .expect("static curve parameters are valid")
    }

    /// Voltage at frequency `f` (clamped to the curve's range).
    pub fn voltage(&self, f: Hz) -> f64 {
        let t =
            ((f.get() - self.f_min.get()) / (self.f_max.get() - self.f_min.get())).clamp(0.0, 1.0);
        self.v_min + (self.v_max - self.v_min) * t
    }

    /// Dynamic-power scaling factor `V(f)²·f / (V_max²·f_max) ∈ (0, 1]`.
    ///
    /// This is the *true* CMOS dynamic-power law the simulator applies; the
    /// controller only ever sees its `f^α` fit of it (Eq. 2).
    pub fn dynamic_power_scale(&self, f: Hz) -> f64 {
        let v = self.voltage(f);
        (v * v * f.get()) / (self.v_max * self.v_max * self.f_max.get())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ispass_core_ladder_matches_paper() {
        let l = FreqLadder::ispass_core();
        assert_eq!(l.len(), 10);
        assert!((l.min().ghz() - 2.2).abs() < 1e-9);
        assert!((l.max().ghz() - 4.0).abs() < 1e-9);
        // Equal spacing of 0.2 GHz.
        let step = l.at(1).get() - l.at(0).get();
        assert!((step - 0.2e9).abs() < 1e3);
    }

    #[test]
    fn ispass_memory_ladder_matches_paper() {
        let l = FreqLadder::ispass_memory_bus();
        assert_eq!(l.len(), 10);
        assert!((l.min().mhz() - 200.0).abs() < 1e-6);
        assert!((l.max().mhz() - 800.0).abs() < 1e-6);
        // ~66.67 MHz steps.
        let step = (l.at(1) - l.at(0)).mhz();
        assert!((step - 66.666_666).abs() < 1e-2, "step was {step}");
    }

    #[test]
    fn ladder_rejects_bad_input() {
        assert!(FreqLadder::new(vec![Hz(1.0)]).is_err());
        assert!(FreqLadder::new(vec![Hz(2.0), Hz(1.0)]).is_err());
        assert!(FreqLadder::new(vec![Hz(0.0), Hz(1.0)]).is_err());
        assert!(FreqLadder::new(vec![Hz(1.0), Hz(1.0)]).is_err());
        assert!(FreqLadder::equally_spaced(Hz(1.0), Hz(2.0), 1).is_err());
        assert!(FreqLadder::equally_spaced(Hz(2.0), Hz(1.0), 4).is_err());
    }

    #[test]
    fn nearest_picks_closest_level() {
        let l = FreqLadder::ispass_core();
        assert_eq!(l.nearest(Hz::from_ghz(4.5)), 9);
        assert_eq!(l.nearest(Hz::from_ghz(1.0)), 0);
        assert_eq!(l.nearest(Hz::from_ghz(2.25)), 0);
        assert_eq!(l.nearest(Hz::from_ghz(2.35)), 1);
        // Exact midpoint ties to the higher level.
        assert_eq!(l.nearest(Hz::from_ghz(2.3)), 1);
    }

    #[test]
    fn nearest_scale_normalizes() {
        let l = FreqLadder::ispass_core();
        assert_eq!(l.nearest_scale(1.0), 9);
        assert_eq!(l.nearest_scale(0.0), 0);
        // 0.55 * 4.0 GHz = 2.2 GHz exactly -> level 0.
        assert_eq!(l.nearest_scale(0.55), 0);
    }

    #[test]
    fn floor_behaviour() {
        let l = FreqLadder::ispass_core();
        assert_eq!(l.floor(Hz::from_ghz(4.1)), 9);
        assert_eq!(l.floor(Hz::from_ghz(2.39)), 0);
        assert_eq!(l.floor(Hz::from_ghz(2.4)), 1);
        assert_eq!(l.floor(Hz::from_ghz(0.1)), 0);
    }

    #[test]
    fn voltage_curve_endpoints() {
        let c = VoltageCurve::ispass_core();
        assert!((c.voltage(Hz::from_ghz(2.2)) - 0.65).abs() < 1e-12);
        assert!((c.voltage(Hz::from_ghz(4.0)) - 1.2).abs() < 1e-12);
        // Clamped outside the range.
        assert!((c.voltage(Hz::from_ghz(1.0)) - 0.65).abs() < 1e-12);
        assert!((c.voltage(Hz::from_ghz(5.0)) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn dynamic_power_scale_is_superlinear_and_normalized() {
        let c = VoltageCurve::ispass_core();
        assert!((c.dynamic_power_scale(Hz::from_ghz(4.0)) - 1.0).abs() < 1e-12);
        let half = c.dynamic_power_scale(Hz::from_ghz(2.2));
        // V²f law: (0.65/1.2)² * (2.2/4.0) ≈ 0.161 — far below linear 0.55.
        assert!(half < 0.2, "scale at fmin was {half}");
        assert!(half > 0.1);
        // Monotone in f.
        let mut prev = 0.0;
        for g in [2.2, 2.6, 3.0, 3.4, 3.8, 4.0] {
            let s = c.dynamic_power_scale(Hz::from_ghz(g));
            assert!(s > prev);
            prev = s;
        }
    }

    #[test]
    fn voltage_curve_rejects_bad_input() {
        assert!(VoltageCurve::new(Hz(0.0), Hz(1.0), 0.5, 1.0).is_err());
        assert!(VoltageCurve::new(Hz(2.0), Hz(1.0), 0.5, 1.0).is_err());
        assert!(VoltageCurve::new(Hz(1.0), Hz(2.0), 0.0, 1.0).is_err());
        assert!(VoltageCurve::new(Hz(1.0), Hz(2.0), 1.0, 0.5).is_err());
    }
}
