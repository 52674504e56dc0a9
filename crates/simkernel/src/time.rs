//! Simulated time: nanosecond-resolution instants and durations.
//!
//! All latency experiments in the reproduction run against this clock;
//! nothing in the workspace reads the host clock, which keeps every
//! experiment bit-for-bit deterministic.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// An instant on the simulated clock, in nanoseconds since kernel boot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(pub u64);

/// A span of simulated time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

impl SimTime {
    /// The boot instant.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since boot.
    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since boot as a float (for report formatting only).
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Span from an earlier instant, saturating at zero.
    #[inline]
    pub fn since(self, earlier: SimTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    /// Build from whole nanoseconds.
    #[inline]
    pub const fn from_nanos(ns: u64) -> Duration {
        Duration(ns)
    }

    /// Build from whole microseconds.
    #[inline]
    pub const fn from_micros(us: u64) -> Duration {
        Duration(us * 1_000)
    }

    /// Build from whole milliseconds.
    #[inline]
    pub const fn from_millis(ms: u64) -> Duration {
        Duration(ms * 1_000_000)
    }

    /// Build from whole seconds.
    #[inline]
    pub const fn from_secs(s: u64) -> Duration {
        Duration(s * 1_000_000_000)
    }

    /// Build from fractional seconds (rounds to nearest nanosecond).
    #[inline]
    pub fn from_secs_f64(s: f64) -> Duration {
        assert!(s >= 0.0 && s.is_finite(), "negative or non-finite duration");
        Duration((s * 1e9).round() as u64)
    }

    #[inline]
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    #[inline]
    pub fn as_micros(self) -> u64 {
        self.0 / 1_000
    }

    #[inline]
    pub fn as_millis(self) -> u64 {
        self.0 / 1_000_000
    }

    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating addition.
    #[inline]
    pub fn saturating_add(self, other: Duration) -> Duration {
        Duration(self.0.saturating_add(other.0))
    }

    /// Scale by an integer factor.
    #[inline]
    pub fn scaled(self, factor: u64) -> Duration {
        Duration(self.0.saturating_mul(factor))
    }

    /// Scale by a float factor (rounds; used by contention models).
    #[inline]
    pub fn scaled_f64(self, factor: f64) -> Duration {
        assert!(factor >= 0.0 && factor.is_finite());
        Duration((self.0 as f64 * factor).round() as u64)
    }
}

/// The simulated clock: one instant behind every handle cloned from it. A
/// standalone [`crate::Kernel`] has its own; a cluster boots every node's
/// kernel on one ([`crate::Kernel::boot_on`]). One thread drives a
/// simulation at a time and the value publishes no other data, so accesses
/// are relaxed and `advance` is a load and a store.
#[derive(Debug, Clone, Default)]
pub struct Clock {
    now_ns: Arc<AtomicU64>,
}

impl Clock {
    /// A clock of its own at this one's instant: what a fork of a
    /// simulation stands on (a `clone` is another handle to the *same*
    /// instant).
    pub fn fork(&self) -> Clock {
        Clock { now_ns: Arc::new(AtomicU64::new(self.now().0)) }
    }

    /// Current simulated time.
    #[inline]
    pub fn now(&self) -> SimTime {
        SimTime(self.now_ns.load(Ordering::Relaxed))
    }

    /// Move the clock forward by `d` (saturating).
    #[inline]
    pub fn advance(&self, d: Duration) {
        self.now_ns.store((self.now() + d).0, Ordering::Relaxed);
    }
}

impl Add<Duration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, d: Duration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }
}

impl AddAssign<Duration> for SimTime {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Add for Duration {
    type Output = Duration;
    #[inline]
    fn add(self, d: Duration) -> Duration {
        Duration(self.0.saturating_add(d.0))
    }
}

impl AddAssign for Duration {
    #[inline]
    fn add_assign(&mut self, d: Duration) {
        self.0 = self.0.saturating_add(d.0);
    }
}

impl Sub for SimTime {
    type Output = Duration;
    #[inline]
    fn sub(self, other: SimTime) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

impl fmt::Display for Duration {
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
    fn construction_and_conversion() {
        assert_eq!(Duration::from_secs(2).as_nanos(), 2_000_000_000);
        assert_eq!(Duration::from_millis(3).as_micros(), 3_000);
        assert_eq!(Duration::from_micros(5).as_nanos(), 5_000);
        assert_eq!(Duration::from_secs_f64(0.5).as_millis(), 500);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + Duration::from_secs(1);
        assert_eq!(t.as_nanos(), 1_000_000_000);
        let d = (t + Duration::from_millis(500)) - t;
        assert_eq!(d.as_millis(), 500);
        assert_eq!(SimTime::ZERO.since(t), Duration::ZERO);
    }

    #[test]
    fn clock_handles_share_one_instant() {
        let (clock, other) = (Clock::default(), Clock::default());
        let shared = clock.clone();
        clock.advance(Duration::from_secs(2));
        shared.advance(Duration::from_millis(500));
        assert_eq!((clock.now(), other.now()), (SimTime(2_500_000_000), SimTime::ZERO));
    }

    #[test]
    fn scaling() {
        let d = Duration::from_millis(10);
        assert_eq!(d.scaled(3).as_millis(), 30);
        assert_eq!(d.scaled_f64(2.5).as_millis(), 25);
    }

    #[test]
    fn saturation() {
        let max = Duration(u64::MAX);
        assert_eq!(max.saturating_add(Duration(1)), max);
        assert_eq!((SimTime(u64::MAX) + Duration(10)).0, u64::MAX);
    }

    #[test]
    fn display_units() {
        assert_eq!(format!("{}", Duration::from_nanos(7)), "7ns");
        assert_eq!(format!("{}", Duration::from_micros(7)), "7.000us");
        assert_eq!(format!("{}", Duration::from_millis(7)), "7.000ms");
        assert_eq!(format!("{}", Duration::from_secs(7)), "7.000s");
    }

    #[test]
    #[should_panic]
    fn negative_secs_f64_panics() {
        let _ = Duration::from_secs_f64(-1.0);
    }
}
