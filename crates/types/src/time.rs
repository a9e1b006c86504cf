//! Virtual time for the deterministic simulator and the real-time runtime.
//!
//! All protocol code is written against [`Time`] and [`Duration`] rather
//! than `std::time`, so the same state machines run unchanged under the
//! discrete-event simulator (where time is a counter the scheduler owns)
//! and under the threaded UDP runtime (where time is a monotonic clock
//! sampled at each event).
//!
//! Resolution is one nanosecond; a `u64` of nanoseconds covers ~584 years
//! of simulated time, far beyond any experiment in this repository.

use core::fmt;
use core::ops::{Add, AddAssign, Sub, SubAssign};

/// An instant on the (virtual or monotonic) timeline, in nanoseconds since
/// an arbitrary epoch (simulation start, or runtime start).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Time(pub u64);

/// A span of time, in nanoseconds.
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Duration(pub u64);

impl Time {
    /// The epoch (t = 0).
    pub const ZERO: Time = Time(0);

    /// Nanoseconds since the epoch.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the epoch, as a float (for reporting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Duration elapsed since `earlier`. Saturates to zero if `earlier`
    /// is in the future (can happen with jittery monotonic clocks).
    #[inline]
    pub fn since(self, earlier: Time) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Checked addition of a duration; `None` on overflow.
    #[inline]
    pub fn checked_add(self, d: Duration) -> Option<Time> {
        self.0.checked_add(d.0).map(Time)
    }
}

impl Duration {
    /// The zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Constructs a duration from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Constructs a duration from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Constructs a duration from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Constructs a duration from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Constructs a duration from fractional seconds (rounded to the
    /// nearest nanosecond, saturating at zero for negative inputs).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        Duration((s.max(0.0) * 1e9).round() as u64)
    }

    /// Nanoseconds in this duration.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Milliseconds in this duration (truncated).
    #[inline]
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    /// Seconds in this duration, as a float.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// True if this duration is zero.
    #[inline]
    pub const fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Multiplies the duration by an integer factor (saturating).
    #[inline]
    pub const fn saturating_mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }

    /// Divides the duration by an integer divisor (panics on zero divisor,
    /// like integer division).
    #[inline]
    pub const fn div(self, k: u64) -> Duration {
        Duration(self.0 / k)
    }

    /// Converts to a `std::time::Duration` (for the real-time runtime).
    #[inline]
    pub const fn to_std(self) -> std::time::Duration {
        std::time::Duration::from_nanos(self.0)
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    #[inline]
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Duration> for Time {
    type Output = Time;
    #[inline]
    fn sub(self, rhs: Duration) -> Time {
        Time(self.0.saturating_sub(rhs.0))
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    #[inline]
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }
}

impl SubAssign for Duration {
    #[inline]
    fn sub_assign(&mut self, rhs: Duration) {
        self.0 = self.0.saturating_sub(rhs.0);
    }
}

impl fmt::Debug for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Debug for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1e6)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}us", self.0 as f64 / 1e3)
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Duration::from_secs(1), Duration::from_millis(1000));
        assert_eq!(Duration::from_millis(1), Duration::from_micros(1000));
        assert_eq!(Duration::from_micros(1), Duration::from_nanos(1000));
        assert_eq!(Duration::from_secs_f64(0.5), Duration::from_millis(500));
    }

    #[test]
    fn arithmetic() {
        let t = Time::ZERO + Duration::from_secs(2);
        assert_eq!(t.as_nanos(), 2_000_000_000);
        assert_eq!(t.since(Time::ZERO), Duration::from_secs(2));
        assert_eq!(Time::ZERO.since(t), Duration::ZERO); // saturating
        assert_eq!(t - Duration::from_secs(1), Time(1_000_000_000));
        let mut d = Duration::from_secs(1);
        d += Duration::from_secs(1);
        assert_eq!(d, Duration::from_secs(2));
        d -= Duration::from_secs(3);
        assert_eq!(d, Duration::ZERO);
    }

    #[test]
    fn scaling() {
        assert_eq!(
            Duration::from_secs(1).saturating_mul(3),
            Duration::from_secs(3)
        );
        assert_eq!(Duration::from_secs(3).div(3), Duration::from_secs(1));
        assert_eq!(Duration(u64::MAX).saturating_mul(2), Duration(u64::MAX));
    }

    #[test]
    fn float_round_trips() {
        let d = Duration::from_secs_f64(1.25);
        assert!((d.as_secs_f64() - 1.25).abs() < 1e-9);
        assert_eq!(Duration::from_secs_f64(-1.0), Duration::ZERO);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{:?}", Duration::from_secs(2)), "2.000s");
        assert_eq!(format!("{:?}", Duration::from_millis(2)), "2.000ms");
        assert_eq!(format!("{:?}", Duration::from_micros(2)), "2.000us");
        assert_eq!(format!("{:?}", Duration::from_nanos(2)), "2ns");
    }

    #[test]
    fn checked_add_overflow() {
        assert_eq!(Time(u64::MAX).checked_add(Duration(1)), None);
        assert_eq!(Time(1).checked_add(Duration(2)), Some(Time(3)));
    }

    #[test]
    fn std_conversion() {
        assert_eq!(
            Duration::from_millis(5).to_std(),
            std::time::Duration::from_millis(5)
        );
    }
}
