//! Simulated time: cycle counts and frequency conversion.
//!
//! All simulation state advances in units of [`Cycles`]. Experiments that
//! report nanoseconds (as the paper does in §4, e.g. "3ns to 16ns for a 3GHz
//! CPU") convert through a [`Freq`].

use core::fmt;
use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A point in simulated time, or a duration, measured in CPU clock cycles.
///
/// `Cycles` is used for both instants and durations; the arithmetic is the
/// same and the simulator never needs the distinction enforced by the type
/// system.
///
/// # Examples
///
/// ```
/// use switchless_sim::time::Cycles;
///
/// let start = Cycles(100);
/// let lat = Cycles(20);
/// assert_eq!(start + lat, Cycles(120));
/// assert_eq!((start + lat) - start, lat);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Cycles(pub u64);

impl Cycles {
    /// The zero instant / duration.
    pub const ZERO: Cycles = Cycles(0);

    /// The maximum representable instant; used as "never" in schedulers.
    pub const MAX: Cycles = Cycles(u64::MAX);

    /// Saturating addition; stays at [`Cycles::MAX`] on overflow.
    #[must_use]
    pub fn saturating_add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_add(rhs.0))
    }

    /// Saturating subtraction; stays at zero on underflow.
    #[must_use]
    pub fn saturating_sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction, `None` if `rhs > self`.
    #[must_use]
    pub fn checked_sub(self, rhs: Cycles) -> Option<Cycles> {
        self.0.checked_sub(rhs.0).map(Cycles)
    }

    /// Returns the larger of two instants.
    #[must_use]
    pub fn max(self, other: Cycles) -> Cycles {
        if self >= other {
            self
        } else {
            other
        }
    }

    /// Returns the smaller of two instants.
    #[must_use]
    pub fn min(self, other: Cycles) -> Cycles {
        if self <= other {
            self
        } else {
            other
        }
    }
}

impl Add for Cycles {
    type Output = Cycles;

    fn add(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 + rhs.0)
    }
}

impl AddAssign for Cycles {
    fn add_assign(&mut self, rhs: Cycles) {
        self.0 += rhs.0;
    }
}

impl Sub for Cycles {
    type Output = Cycles;

    fn sub(self, rhs: Cycles) -> Cycles {
        Cycles(self.0 - rhs.0)
    }
}

impl SubAssign for Cycles {
    fn sub_assign(&mut self, rhs: Cycles) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Cycles {
    type Output = Cycles;

    fn mul(self, rhs: u64) -> Cycles {
        Cycles(self.0 * rhs)
    }
}

impl Div<u64> for Cycles {
    type Output = Cycles;

    fn div(self, rhs: u64) -> Cycles {
        Cycles(self.0 / rhs)
    }
}

impl Sum for Cycles {
    fn sum<I: Iterator<Item = Cycles>>(iter: I) -> Cycles {
        iter.fold(Cycles::ZERO, Add::add)
    }
}

impl fmt::Display for Cycles {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}cy", self.0)
    }
}

/// A CPU clock frequency, used to convert cycles to wall-clock time.
///
/// The paper's §4 arithmetic assumes a 3 GHz part; [`Freq::GHZ3`] is the
/// default everywhere in this project.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Freq {
    /// Clock rate in kilohertz. Kilohertz keeps all conversions exact for
    /// realistic clock rates while avoiding floating point in the common
    /// path.
    pub khz: u64,
}

impl Freq {
    /// A 3 GHz clock, the paper's reference frequency.
    pub const GHZ3: Freq = Freq { khz: 3_000_000 };

    /// Converts a duration in cycles to nanoseconds (floating point).
    ///
    /// # Examples
    ///
    /// ```
    /// use switchless_sim::time::{Cycles, Freq};
    ///
    /// // The paper: 10-50 cycles is "3ns to 16ns for a 3GHz CPU".
    /// let ns = Freq::GHZ3.cycles_to_ns(Cycles(50));
    /// assert!((ns - 16.6).abs() < 0.1);
    /// ```
    #[must_use]
    pub fn cycles_to_ns(self, c: Cycles) -> f64 {
        c.0 as f64 * 1e6 / self.khz as f64
    }

    /// Cycles per second, as a float (for throughput computations).
    #[must_use]
    pub fn hz(self) -> f64 {
        self.khz as f64 * 1e3
    }
}

impl Default for Freq {
    fn default() -> Freq {
        Freq::GHZ3
    }
}

impl fmt::Display for Freq {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.khz.is_multiple_of(1_000_000) {
            write!(f, "{}GHz", self.khz / 1_000_000)
        } else {
            write!(f, "{}MHz", self.khz / 1000)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cycles_arithmetic() {
        let a = Cycles(10);
        let b = Cycles(3);
        assert_eq!(a + b, Cycles(13));
        assert_eq!(a - b, Cycles(7));
        assert_eq!(a * 4, Cycles(40));
        assert_eq!(a / 2, Cycles(5));
        assert_eq!(a.max(b), a);
        assert_eq!(a.min(b), b);
    }

    #[test]
    fn cycles_saturating() {
        assert_eq!(Cycles::MAX.saturating_add(Cycles(1)), Cycles::MAX);
        assert_eq!(Cycles(1).saturating_sub(Cycles(5)), Cycles::ZERO);
        assert_eq!(Cycles(1).checked_sub(Cycles(5)), None);
        assert_eq!(Cycles(5).checked_sub(Cycles(1)), Some(Cycles(4)));
    }

    #[test]
    fn cycles_sum_and_display() {
        let total: Cycles = [Cycles(1), Cycles(2), Cycles(3)].into_iter().sum();
        assert_eq!(total, Cycles(6));
        assert_eq!(total.to_string(), "6cy");
    }

    #[test]
    fn freq_conversions_match_paper() {
        // §4: bulk transfer of 10-50 cycles is "3ns to 16ns for a 3GHz CPU".
        let low = Freq::GHZ3.cycles_to_ns(Cycles(10));
        let high = Freq::GHZ3.cycles_to_ns(Cycles(50));
        assert!((low - 3.33).abs() < 0.01);
        assert!((high - 16.67).abs() < 0.01);
    }

    #[test]
    fn freq_display() {
        assert_eq!(Freq::GHZ3.to_string(), "3GHz");
        assert_eq!(Freq { khz: 2_500_000 }.to_string(), "2500MHz");
    }
}
