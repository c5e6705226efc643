//! Virtual time for the discrete-event simulation.
//!
//! All simulated components share a microsecond-resolution virtual clock.
//! The BR/EDR slot (625 µs) is the natural unit of baseband procedures.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A span of virtual time, in microseconds.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

/// One BR/EDR baseband slot: 625 µs.
pub const SLOT: Duration = Duration(625);

impl Duration {
    /// Zero-length duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(us: u64) -> Self {
        Duration(us)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Duration(ms * 1_000)
    }

    /// Creates a duration from seconds.
    pub const fn from_secs(s: u64) -> Self {
        Duration(s * 1_000_000)
    }

    /// Creates a duration from baseband slots (625 µs each).
    pub const fn from_slots(slots: u64) -> Self {
        Duration(slots * 625)
    }

    /// The duration in whole microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// The duration in whole milliseconds (truncating).
    pub const fn as_millis(self) -> u64 {
        self.0 / 1_000
    }

    /// The duration in whole slots (truncating).
    pub const fn as_slots(self) -> u64 {
        self.0 / 625
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Scales the duration by an integer factor.
    pub const fn mul(self, factor: u64) -> Duration {
        Duration(self.0 * factor)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.0 as f64 / 1_000_000.0)
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}ms", self.0 as f64 / 1_000.0)
        } else {
            write!(f, "{}µs", self.0)
        }
    }
}

/// A point in virtual time, measured from the start of the simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Instant(u64);

impl Instant {
    /// The simulation epoch.
    pub const EPOCH: Instant = Instant(0);

    /// Creates an instant from microseconds since the epoch.
    pub const fn from_micros(us: u64) -> Self {
        Instant(us)
    }

    /// Microseconds since the epoch.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Elapsed time since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is later than `self`.
    pub fn duration_since(self, earlier: Instant) -> Duration {
        Duration(
            self.0
                .checked_sub(earlier.0)
                .expect("duration_since: earlier instant is in the future"),
        )
    }
}

impl Add<Duration> for Instant {
    type Output = Instant;
    fn add(self, rhs: Duration) -> Instant {
        Instant(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Instant {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Instant> for Instant {
    type Output = Duration;
    fn sub(self, rhs: Instant) -> Duration {
        self.duration_since(rhs)
    }
}

impl fmt::Display for Instant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slot_is_625_micros() {
        assert_eq!(SLOT.as_micros(), 625);
        assert_eq!(Duration::from_slots(2).as_micros(), 1250);
        assert_eq!(Duration::from_millis(10).as_slots(), 16);
    }

    #[test]
    fn arithmetic() {
        let t = Instant::EPOCH + Duration::from_millis(5);
        assert_eq!(t.as_micros(), 5_000);
        assert_eq!(t - Instant::EPOCH, Duration::from_millis(5));
        assert_eq!(
            Duration::from_secs(1) - Duration::from_millis(200),
            Duration::from_millis(800)
        );
        assert_eq!(
            Duration::from_millis(1).saturating_sub(Duration::from_secs(1)),
            Duration::ZERO
        );
    }

    #[test]
    fn display_scales_units() {
        assert_eq!(Duration::from_micros(5).to_string(), "5µs");
        assert_eq!(Duration::from_millis(2).to_string(), "2.000ms");
        assert_eq!(Duration::from_secs(3).to_string(), "3.000s");
    }

    #[test]
    #[should_panic(expected = "duration_since")]
    fn duration_since_panics_when_reversed() {
        let early = Instant::EPOCH;
        let late = early + SLOT;
        let _ = early.duration_since(late);
    }
}
