//! Deterministic application phase behaviour.
//!
//! Real applications move through phases: their memory intensity and IPC
//! drift over time, which is precisely what forces the capping controller to
//! re-balance power between cores and memory every epoch (Fig. 4). We model
//! phases as a sum of two sinusoids (a slow envelope and a faster ripple)
//! plus an optional square-wave "mode switch", all deterministic functions
//! of the epoch index — so every simulation is reproducible and two copies
//! of the same application can be de-phased via their `offset`.

/// Deterministic phase model for one application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhaseSpec {
    /// Period of the slow envelope, in epochs.
    pub period_epochs: f64,
    /// Amplitude of the slow envelope as a fraction of the base value
    /// (0.0 = steady application).
    pub amplitude: f64,
    /// Period of the fast ripple, in epochs.
    pub ripple_period_epochs: f64,
    /// Amplitude of the fast ripple (fraction of base).
    pub ripple_amplitude: f64,
    /// Phase offset in `[0, 1)` rotations — distinct copies of an
    /// application should get distinct offsets.
    pub offset: f64,
    /// If `> 0`, every `mode_period_epochs` the application flips between a
    /// high and a low mode, scaling intensity by `1 ± mode_amplitude`.
    pub mode_period_epochs: f64,
    /// Amplitude of the mode switch (fraction of base).
    pub mode_amplitude: f64,
}

impl PhaseSpec {
    /// A perfectly steady application (no phase behaviour).
    pub const STEADY: Self = Self {
        period_epochs: 1.0,
        amplitude: 0.0,
        ripple_period_epochs: 1.0,
        ripple_amplitude: 0.0,
        offset: 0.0,
        mode_period_epochs: 0.0,
        mode_amplitude: 0.0,
    };

    /// A gentle drift typical of compute-bound codes.
    pub fn gentle(offset: f64) -> Self {
        Self {
            period_epochs: 60.0,
            amplitude: 0.10,
            ripple_period_epochs: 7.0,
            ripple_amplitude: 0.04,
            offset,
            mode_period_epochs: 0.0,
            mode_amplitude: 0.0,
        }
    }

    /// Pronounced phases typical of memory-streaming codes that alternate
    /// between compute and sweep phases.
    pub fn strong(offset: f64) -> Self {
        Self {
            period_epochs: 40.0,
            amplitude: 0.30,
            ripple_period_epochs: 9.0,
            ripple_amplitude: 0.08,
            offset,
            mode_period_epochs: 90.0,
            mode_amplitude: 0.15,
        }
    }

    /// Returns a copy with a different offset (used to de-phase the `N/4`
    /// copies of an application).
    #[must_use]
    pub fn with_offset(mut self, offset: f64) -> Self {
        self.offset = offset.rem_euclid(1.0);
        self
    }

    /// Intensity multiplier at a (fractional) epoch index.
    ///
    /// Always positive; equals 1.0 on average for zero-offset sinusoids and
    /// is clamped to `[0.05, 3.0]` as a physical sanity bound.
    pub fn intensity(&self, epoch: f64) -> f64 {
        use std::f64::consts::TAU;
        let mut m = 1.0;
        if self.amplitude != 0.0 && self.period_epochs > 0.0 {
            m += self.amplitude * (TAU * (epoch / self.period_epochs + self.offset)).sin();
        }
        if self.ripple_amplitude != 0.0 && self.ripple_period_epochs > 0.0 {
            m += self.ripple_amplitude
                * (TAU * (epoch / self.ripple_period_epochs + 2.0 * self.offset)).sin();
        }
        if self.mode_amplitude != 0.0 && self.mode_period_epochs > 0.0 {
            let half = ((epoch + self.offset * self.mode_period_epochs) / self.mode_period_epochs)
                .floor() as i64;
            m += if half % 2 == 0 {
                self.mode_amplitude
            } else {
                -self.mode_amplitude
            };
        }
        m.clamp(0.05, 3.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn steady_is_constant_one() {
        for e in 0..100 {
            assert!((PhaseSpec::STEADY.intensity(e as f64) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn intensity_is_always_positive_and_bounded() {
        let p = PhaseSpec::strong(0.3);
        for e in 0..500 {
            let m = p.intensity(e as f64);
            assert!((0.05..=3.0).contains(&m), "epoch {e}: {m}");
        }
    }

    #[test]
    fn intensity_actually_varies() {
        let p = PhaseSpec::strong(0.0);
        let vals: Vec<f64> = (0..80).map(|e| p.intensity(e as f64)).collect();
        let min = vals.iter().cloned().fold(f64::MAX, f64::min);
        let max = vals.iter().cloned().fold(f64::MIN, f64::max);
        assert!(max - min > 0.3, "range {min}..{max} too flat");
    }

    #[test]
    fn gentle_varies_less_than_strong() {
        let range = |p: PhaseSpec| {
            let v: Vec<f64> = (0..200).map(|e| p.intensity(e as f64)).collect();
            v.iter().cloned().fold(f64::MIN, f64::max) - v.iter().cloned().fold(f64::MAX, f64::min)
        };
        assert!(range(PhaseSpec::gentle(0.0)) < range(PhaseSpec::strong(0.0)));
    }

    #[test]
    fn offsets_dephase_copies() {
        let a = PhaseSpec::strong(0.0);
        let b = PhaseSpec::strong(0.0).with_offset(0.5);
        // At some epoch the two copies must differ noticeably.
        let diff = (0..50)
            .map(|e| (a.intensity(e as f64) - b.intensity(e as f64)).abs())
            .fold(f64::MIN, f64::max);
        assert!(diff > 0.2, "max diff {diff}");
    }

    #[test]
    fn with_offset_wraps() {
        let p = PhaseSpec::gentle(0.0).with_offset(1.25);
        assert!((p.offset - 0.25).abs() < 1e-12);
        let p = PhaseSpec::gentle(0.0).with_offset(-0.25);
        assert!((p.offset - 0.75).abs() < 1e-12);
    }

    #[test]
    fn mode_switch_flips() {
        let p = PhaseSpec {
            period_epochs: 1.0,
            amplitude: 0.0,
            ripple_period_epochs: 1.0,
            ripple_amplitude: 0.0,
            offset: 0.0,
            mode_period_epochs: 10.0,
            mode_amplitude: 0.2,
        };
        assert!((p.intensity(5.0) - 1.2).abs() < 1e-12);
        assert!((p.intensity(15.0) - 0.8).abs() < 1e-12);
    }
}
