//! Strongly-typed time and rate units used throughout the simulator.
//!
//! The event clock runs in integer **nanoseconds** so event ordering is
//! exact and reproducible; rates are expressed in bits per second and
//! converted to per-packet transmission times once, at configuration time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since simulation start.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Time(pub u64);

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

pub const NANOS_PER_MICRO: u64 = 1_000;
pub const NANOS_PER_MILLI: u64 = 1_000_000;

impl Time {
    pub const ZERO: Time = Time(0);

    /// Construct from whole milliseconds.
    pub fn from_ms(ms: u64) -> Time {
        Time(ms * NANOS_PER_MILLI)
    }

    /// Construct from whole microseconds.
    pub fn from_us(us: u64) -> Time {
        Time(us * NANOS_PER_MICRO)
    }

    /// The 1 ms bin this instant falls into (bin `k` covers `[k, k+1)` ms).
    pub fn ms_bin(self) -> u64 {
        self.0 / NANOS_PER_MILLI
    }

    /// Time as fractional milliseconds (for reporting only).
    pub fn as_ms_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_MILLI as f64
    }
}

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub fn from_ms(ms: u64) -> Duration {
        Duration(ms * NANOS_PER_MILLI)
    }

    pub fn from_us(us: u64) -> Duration {
        Duration(us * NANOS_PER_MICRO)
    }

    pub fn as_nanos(self) -> u64 {
        self.0
    }
}

impl Add<Duration> for Time {
    type Output = Time;
    fn add(self, rhs: Duration) -> Time {
        Time(self.0 + rhs.0)
    }
}

impl AddAssign<Duration> for Time {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub<Time> for Time {
    type Output = Duration;
    fn sub(self, rhs: Time) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl fmt::Display for Time {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}ms", self.as_ms_f64())
    }
}

/// A link rate in bits per second.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rate {
    pub bits_per_sec: u64,
}

impl Rate {
    pub fn gbps(g: u64) -> Rate {
        Rate {
            bits_per_sec: g * 1_000_000_000,
        }
    }

    /// Time to serialize `bytes` onto a link of this rate.
    ///
    /// Rounds up to a whole nanosecond so back-to-back transmissions never
    /// collapse onto the same instant.
    pub fn tx_time(self, bytes: u32) -> Duration {
        let bits = bytes as u64 * 8;
        let nanos = (bits * 1_000_000_000).div_ceil(self.bits_per_sec);
        Duration(nanos.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_1500b_at_1gbps_is_12us() {
        let d = Rate::gbps(1).tx_time(1500);
        assert_eq!(d.as_nanos(), 12_000);
    }

    #[test]
    fn tx_time_rounds_up_and_is_nonzero() {
        assert_eq!(Rate::gbps(100).tx_time(1).as_nanos(), 1);
        // 1500B at 100G = 120ns exactly.
        assert_eq!(Rate::gbps(100).tx_time(1500).as_nanos(), 120);
    }

    #[test]
    fn ms_bin_boundaries() {
        assert_eq!(Time::from_ms(3).ms_bin(), 3);
        assert_eq!(Time(3 * NANOS_PER_MILLI - 1).ms_bin(), 2);
        assert_eq!(Time::ZERO.ms_bin(), 0);
    }

    #[test]
    fn time_arithmetic() {
        let t = Time::from_ms(1) + Duration::from_us(500);
        assert_eq!(t.0, 1_500_000);
        assert_eq!((t - Time::from_ms(1)).as_nanos(), 500_000);
    }
}
