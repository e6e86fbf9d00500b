//! Simulated time.
//!
//! All simulation in `parcache` runs on an integer nanosecond clock so that
//! results are exactly reproducible across platforms. [`Nanos`] is both a
//! point in time and a duration; arithmetic saturates on underflow rather
//! than panicking so stall computations (`arrival - ready`) are safe to
//! write directly.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Nanos(pub u64);

impl Nanos {
    /// The zero time.
    pub const ZERO: Nanos = Nanos(0);

    /// The largest representable time; useful as an "infinitely far" sentinel.
    pub const MAX: Nanos = Nanos(u64::MAX);

    /// Creates a time from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Nanos {
        Nanos(us * 1_000)
    }

    /// Creates a time from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Nanos {
        Nanos(ms * 1_000_000)
    }

    /// Creates a time from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Nanos {
        Nanos(s * 1_000_000_000)
    }

    /// Creates a time from fractional milliseconds, rounding to the nearest
    /// nanosecond.
    ///
    /// Negative and non-finite inputs are clamped to zero: all simulated
    /// durations are non-negative by construction.
    #[inline]
    pub fn from_millis_f64(ms: f64) -> Nanos {
        if !ms.is_finite() || ms <= 0.0 {
            return Nanos::ZERO;
        }
        Nanos((ms * 1_000_000.0).round() as u64)
    }

    /// Returns this time as fractional milliseconds.
    #[inline]
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000_000.0
    }

    /// Returns this time as fractional seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1_000_000_000.0
    }

    /// Returns the raw nanosecond count.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Checked addition, `None` on overflow.
    #[inline]
    pub fn checked_add(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_add(rhs.0).map(Nanos)
    }

    /// Checked subtraction, `None` on underflow. Unlike `-`, which
    /// saturates to zero, this lets accounting code detect an identity
    /// violation (a component exceeding its total) instead of silently
    /// clamping it away.
    #[inline]
    pub fn checked_sub(self, rhs: Nanos) -> Option<Nanos> {
        self.0.checked_sub(rhs.0).map(Nanos)
    }

    /// Checked multiplication by a scalar, `None` on overflow.
    #[inline]
    pub fn checked_mul(self, rhs: u64) -> Option<Nanos> {
        self.0.checked_mul(rhs).map(Nanos)
    }

    /// Division rounded to the nearest nanosecond (ties away from zero),
    /// unlike `/` which truncates toward zero. Returns zero when `rhs`
    /// is zero, so averages over empty sets are safe to write directly.
    #[inline]
    pub fn div_rounded(self, rhs: u64) -> Nanos {
        if rhs == 0 {
            return Nanos::ZERO;
        }
        // The exact u64 division whenever the half-divisor correction
        // fits; u128 otherwise, where it cannot overflow. Both give
        // the same quotient.
        match self.0.checked_add(rhs / 2) {
            Some(n) => Nanos(n / rhs),
            None => Nanos(((self.0 as u128 + rhs as u128 / 2) / rhs as u128) as u64),
        }
    }
}

impl Add for Nanos {
    type Output = Nanos;
    #[inline]
    fn add(self, rhs: Nanos) -> Nanos {
        Nanos(self.0 + rhs.0)
    }
}

impl AddAssign for Nanos {
    #[inline]
    fn add_assign(&mut self, rhs: Nanos) {
        self.0 += rhs.0;
    }
}

impl Sub for Nanos {
    type Output = Nanos;
    /// Saturating: simulation code frequently computes `later - earlier`
    /// where the operands may coincide; going below zero is never meaningful.
    #[inline]
    fn sub(self, rhs: Nanos) -> Nanos {
        Nanos(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Nanos {
    #[inline]
    fn sub_assign(&mut self, rhs: Nanos) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl Mul<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn mul(self, rhs: u64) -> Nanos {
        Nanos(self.0 * rhs)
    }
}

impl Div<u64> for Nanos {
    type Output = Nanos;
    #[inline]
    fn div(self, rhs: u64) -> Nanos {
        Nanos(self.0 / rhs)
    }
}

impl Sum for Nanos {
    fn sum<I: Iterator<Item = Nanos>>(iter: I) -> Nanos {
        iter.fold(Nanos::ZERO, Add::add)
    }
}

impl fmt::Display for Nanos {
    /// Formats as milliseconds with three decimal places, the natural unit
    /// of the paper's disk-time discussion.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_millis_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Nanos::from_millis(3).as_millis_f64(), 3.0);
        assert_eq!(Nanos::from_secs(2), Nanos(2_000_000_000));
        assert_eq!(Nanos::from_micros(5), Nanos(5_000));
        assert_eq!(Nanos::from_millis_f64(1.5), Nanos(1_500_000));
    }

    #[test]
    fn from_millis_f64_clamps_bad_inputs() {
        assert_eq!(Nanos::from_millis_f64(-1.0), Nanos::ZERO);
        assert_eq!(Nanos::from_millis_f64(f64::NAN), Nanos::ZERO);
        assert_eq!(Nanos::from_millis_f64(f64::INFINITY), Nanos::ZERO);
    }

    #[test]
    fn subtraction_saturates() {
        assert_eq!(Nanos(5) - Nanos(10), Nanos::ZERO);
        assert_eq!(Nanos(10) - Nanos(4), Nanos(6));
        let mut t = Nanos(3);
        t -= Nanos(9);
        assert_eq!(t, Nanos::ZERO);
    }

    #[test]
    fn checked_ops_detect_over_and_underflow() {
        assert_eq!(Nanos(10).checked_sub(Nanos(4)), Some(Nanos(6)));
        assert_eq!(Nanos(4).checked_sub(Nanos(10)), None);
        assert_eq!(Nanos(7).checked_sub(Nanos(7)), Some(Nanos::ZERO));
        assert_eq!(Nanos(3).checked_add(Nanos(4)), Some(Nanos(7)));
        assert_eq!(Nanos::MAX.checked_add(Nanos(1)), None);
        assert_eq!(Nanos(3).checked_mul(4), Some(Nanos(12)));
        assert_eq!(Nanos::MAX.checked_mul(2), None);
    }

    #[test]
    fn min_max_and_sum() {
        assert_eq!(Nanos(3).max(Nanos(7)), Nanos(7));
        assert_eq!(Nanos(3).min(Nanos(7)), Nanos(3));
        let total: Nanos = [Nanos(1), Nanos(2), Nanos(3)].into_iter().sum();
        assert_eq!(total, Nanos(6));
    }

    #[test]
    fn div_rounded_rounds_to_nearest() {
        // Truncating `/` drops the remainder; `div_rounded` keeps the
        // nearest nanosecond.
        assert_eq!(Nanos(10) / 3, Nanos(3));
        assert_eq!(Nanos(10).div_rounded(3), Nanos(3));
        assert_eq!(Nanos(11).div_rounded(3), Nanos(4));
        assert_eq!(Nanos(11).div_rounded(2), Nanos(6)); // ties round up
        assert_eq!(Nanos(5).div_rounded(0), Nanos::ZERO);
        assert_eq!(Nanos::MAX.div_rounded(1), Nanos::MAX); // no overflow
                                                           // Either side of the point where `self + rhs / 2` overflows u64:
                                                           // the u64 and u128 paths must agree with exact arithmetic.
        let exact = |n: u64, d: u64| ((n as u128 + d as u128 / 2) / d as u128) as u64;
        for d in [2, 3, 7, 1 << 32, u64::MAX / 2, u64::MAX - 1, u64::MAX] {
            let edge = u64::MAX - d / 2;
            for n in [edge - 1, edge, edge + 1, edge.saturating_add(2), u64::MAX] {
                assert_eq!(Nanos(n).div_rounded(d), Nanos(exact(n, d)), "{n} / {d}");
            }
        }
        assert_eq!(Nanos::MAX.div_rounded(2), Nanos(1 << 63)); // rounds up past the edge
        assert_eq!(Nanos::MAX.div_rounded(u64::MAX), Nanos(1));
        assert_eq!(Nanos(u64::MAX / 2).div_rounded(u64::MAX), Nanos(0));
        assert_eq!(Nanos(u64::MAX / 2 + 1).div_rounded(u64::MAX), Nanos(1)); // the tie
    }

    #[test]
    fn display_is_milliseconds() {
        assert_eq!(Nanos::from_millis(15).to_string(), "15.000ms");
        assert_eq!(Nanos(1_500_000).to_string(), "1.500ms");
    }
}
