//! Typed physical units.
//!
//! The controller and the simulator exchange frequencies, times and powers
//! constantly; mixing them up (e.g. passing a bus *period* where a bus
//! *frequency* is expected) is the classic source of silent modelling bugs.
//! These are zero-cost `f64` newtypes with just enough arithmetic to keep
//! model code readable.
//!
//! Conversions are explicit: `Hz::period` / `Secs::rate` cross between the
//! frequency and time domains, and [`Secs`] `*` [`Watts`] yields [`Joules`].

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Neg, Sub, SubAssign};

macro_rules! unit {
    ($(#[$doc:meta])* $name:ident, $suffix:expr) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(pub f64);

        impl $name {
            /// The zero value.
            pub const ZERO: Self = Self(0.0);

            /// Returns the raw `f64` value.
            #[inline]
            pub fn get(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is finite (not NaN or infinite).
            #[inline]
            pub fn is_finite(self) -> bool {
                self.0.is_finite()
            }

            /// Returns the maximum of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the minimum of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Clamps the value into `[lo, hi]`.
            #[inline]
            pub fn clamp(self, lo: Self, hi: Self) -> Self {
                Self(self.0.clamp(lo.0, hi.0))
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl Neg for $name {
            type Output = Self;
            #[inline]
            fn neg(self) -> Self {
                Self(-self.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        /// Dimensionless ratio of two quantities of the same unit.
        impl Div for $name {
            type Output = f64;
            #[inline]
            fn div(self, rhs: Self) -> f64 {
                self.0 / rhs.0
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                Self(iter.map(|v| v.0).sum())
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", self.0, $suffix)
            }
        }
    };
}

unit!(
    /// A frequency in hertz.
    Hz,
    " Hz"
);
unit!(
    /// A time duration in seconds.
    Secs,
    " s"
);
unit!(
    /// A power in watts.
    Watts,
    " W"
);
unit!(
    /// An energy in joules.
    Joules,
    " J"
);

impl Hz {
    /// Constructs a frequency from a value in gigahertz.
    #[inline]
    pub fn from_ghz(ghz: f64) -> Self {
        Hz(ghz * 1e9)
    }

    /// Constructs a frequency from a value in megahertz.
    #[inline]
    pub fn from_mhz(mhz: f64) -> Self {
        Hz(mhz * 1e6)
    }

    /// Returns the value in gigahertz.
    #[inline]
    pub fn ghz(self) -> f64 {
        self.0 / 1e9
    }

    /// Returns the value in megahertz.
    #[inline]
    pub fn mhz(self) -> f64 {
        self.0 / 1e6
    }

    /// The period of one cycle at this frequency.
    ///
    /// Returns [`Secs`] of `+inf` for a zero frequency.
    #[inline]
    pub fn period(self) -> Secs {
        Secs(1.0 / self.0)
    }
}

impl Secs {
    /// Constructs a duration from nanoseconds.
    #[inline]
    pub fn from_nanos(ns: f64) -> Self {
        Secs(ns * 1e-9)
    }

    /// Constructs a duration from microseconds.
    #[inline]
    pub fn from_micros(us: f64) -> Self {
        Secs(us * 1e-6)
    }

    /// Constructs a duration from milliseconds.
    #[inline]
    pub fn from_millis(ms: f64) -> Self {
        Secs(ms * 1e-3)
    }

    /// Returns the value in nanoseconds.
    #[inline]
    pub fn nanos(self) -> f64 {
        self.0 * 1e9
    }

    /// Returns the value in microseconds.
    #[inline]
    pub fn micros(self) -> f64 {
        self.0 * 1e6
    }

    /// Returns the value in milliseconds.
    #[inline]
    pub fn millis(self) -> f64 {
        self.0 * 1e3
    }

    /// The rate (events per second) corresponding to this period.
    #[inline]
    pub fn rate(self) -> Hz {
        Hz(1.0 / self.0)
    }
}

impl Mul<Secs> for Watts {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Secs) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Mul<Watts> for Secs {
    type Output = Joules;
    #[inline]
    fn mul(self, rhs: Watts) -> Joules {
        Joules(self.0 * rhs.0)
    }
}

impl Div<Secs> for Joules {
    type Output = Watts;
    #[inline]
    fn div(self, rhs: Secs) -> Watts {
        Watts(self.0 / rhs.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hz_conversions_round_trip() {
        let f = Hz::from_ghz(4.0);
        assert_eq!(f, Hz(4.0e9));
        assert!((f.ghz() - 4.0).abs() < 1e-12);
        assert!((f.mhz() - 4000.0).abs() < 1e-9);
    }

    #[test]
    fn period_and_rate_are_inverses() {
        let f = Hz::from_mhz(800.0);
        let t = f.period();
        assert!((t.nanos() - 1.25).abs() < 1e-12);
        assert!((t.rate().get() - f.get()).abs() < 1e-3);
    }

    #[test]
    fn secs_constructors() {
        assert!((Secs::from_millis(5.0).get() - 0.005).abs() < 1e-15);
        assert!((Secs::from_micros(300.0).get() - 0.0003).abs() < 1e-15);
        assert!((Secs::from_nanos(15.0).get() - 15e-9).abs() < 1e-20);
        assert!((Secs::from_millis(5.0).micros() - 5000.0).abs() < 1e-9);
    }

    #[test]
    fn energy_algebra() {
        let e = Watts(10.0) * Secs(2.0);
        assert_eq!(e, Joules(20.0));
        let e2 = Secs(2.0) * Watts(10.0);
        assert_eq!(e, e2);
        assert_eq!(e / Secs(4.0), Watts(5.0));
    }

    #[test]
    fn ratio_is_dimensionless() {
        let ratio: f64 = Hz(2.0e9) / Hz(4.0e9);
        assert!((ratio - 0.5).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_ordering() {
        let a = Watts(3.0) + Watts(4.0);
        assert_eq!(a, Watts(7.0));
        assert_eq!(a - Watts(2.0), Watts(5.0));
        assert_eq!(a * 2.0, Watts(14.0));
        assert_eq!(2.0 * a, Watts(14.0));
        assert_eq!(a / 7.0, Watts(1.0));
        assert_eq!(-a, Watts(-7.0));
        assert!(Watts(1.0) < Watts(2.0));
        assert_eq!(Watts(1.0).max(Watts(2.0)), Watts(2.0));
        assert_eq!(Watts(1.0).min(Watts(2.0)), Watts(1.0));
        assert_eq!(Watts(5.0).clamp(Watts(0.0), Watts(3.0)), Watts(3.0));
    }

    #[test]
    fn sum_of_units() {
        let total: Watts = [Watts(1.0), Watts(2.0), Watts(3.5)].into_iter().sum();
        assert_eq!(total, Watts(6.5));
    }

    #[test]
    fn assign_ops() {
        let mut w = Watts(1.0);
        w += Watts(2.0);
        assert_eq!(w, Watts(3.0));
        w -= Watts(0.5);
        assert_eq!(w, Watts(2.5));
    }

    #[test]
    fn display_includes_suffix() {
        assert_eq!(format!("{}", Watts(2.5)), "2.5 W");
        assert_eq!(format!("{}", Secs(0.25)), "0.25 s");
    }
}
