//! Simulated time: nanosecond instants and durations.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A nanosecond-resolution instant on the simulated clock.
///
/// `SimTime` is a monotone counter starting at [`SimTime::ZERO`]; engines only
/// ever move it forward.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimTime(u64);

/// A span of simulated time in nanoseconds.
#[derive(
    Debug,
    Clone,
    Copy,
    PartialEq,
    Eq,
    PartialOrd,
    Ord,
    Hash,
    Default,
    serde::Serialize,
    serde::Deserialize,
)]
pub struct SimDuration(u64);

impl SimTime {
    /// The start of simulated time.
    pub const ZERO: SimTime = SimTime(0);

    /// Creates an instant `ns` nanoseconds after time zero.
    pub const fn from_nanos(ns: u64) -> Self {
        SimTime(ns)
    }

    /// Nanoseconds since time zero.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since time zero as a float (for throughput math).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// Duration since `earlier`.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is after `self` — simulated clocks never run
    /// backwards, so this indicates an engine bug.
    pub fn duration_since(self, earlier: SimTime) -> SimDuration {
        assert!(earlier.0 <= self.0, "time went backwards: {earlier} > {self}");
        SimDuration(self.0 - earlier.0)
    }
}

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Creates a duration of `ns` nanoseconds.
    pub const fn from_nanos(ns: u64) -> Self {
        SimDuration(ns)
    }

    /// Creates a duration of `us` microseconds.
    pub const fn from_micros(us: u64) -> Self {
        SimDuration(us * 1_000)
    }

    /// Creates a duration of `ms` milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000_000)
    }

    /// Creates a duration from fractional seconds, saturating at zero.
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(round_to_u64(secs.max(0.0) * 1e9))
    }

    /// Length in nanoseconds.
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Length in microseconds as a float.
    pub fn as_micros_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// Length in milliseconds as a float.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// Saturating difference of two durations.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        self.duration_since(other)
    }
}

impl std::iter::Sum for SimDuration {
    fn sum<I: Iterator<Item = SimDuration>>(iter: I) -> Self {
        iter.fold(SimDuration::ZERO, |a, b| a + b)
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else if self.0 >= 1_000_000 {
            write!(f, "{:.3}ms", self.as_millis_f64())
        } else if self.0 >= 1_000 {
            write!(f, "{:.3}µs", self.as_micros_f64())
        } else {
            write!(f, "{}ns", self.0)
        }
    }
}

/// `x.round() as u64` (half away from zero, saturating, NaN to 0) without
/// the libm call: the saturating cast truncates, and below 2^53 the
/// remainder `x - trunc(x)` is exact, so comparing it with one half decides
/// the rounding; from 2^53 up `x` is an integer and the remainder is 0,
/// and past `u64::MAX` the increment saturates.
fn round_to_u64(x: f64) -> u64 {
    let whole = x as u64;
    if x - whole as f64 >= 0.5 {
        whole.saturating_add(1)
    } else {
        whole
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn arithmetic_round_trips() {
        let t = SimTime::ZERO + SimDuration::from_micros(5);
        assert_eq!(t.as_nanos(), 5_000);
        assert_eq!(t - SimTime::ZERO, SimDuration::from_micros(5));
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn negative_duration_panics() {
        let early = SimTime::from_nanos(10);
        let late = SimTime::from_nanos(20);
        let _ = early.duration_since(late);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(SimDuration::from_nanos(500).to_string(), "500ns");
        assert_eq!(SimDuration::from_micros(1500).to_string(), "1.500ms");
        assert_eq!(SimDuration::from_millis(2500).to_string(), "2.500s");
    }

    #[test]
    fn from_secs_f64_rounds() {
        assert_eq!(SimDuration::from_secs_f64(1e-6).as_nanos(), 1_000);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    /// The rounding `from_secs_f64` replaced, kept as its oracle.
    fn libm_nanos(secs: f64) -> u64 {
        (secs.max(0.0) * 1e9).round() as u64
    }

    #[test]
    fn from_secs_f64_matches_libm_round_at_the_edges() {
        let two_64 = 18_446_744_073_709_551_616.0f64;
        let mut secs = vec![f64::NAN, -f64::NAN, -0.0, -1e-12, -1.0, -f64::INFINITY];
        secs.extend([f64::INFINITY, f64::MAX, two_64 / 1e9, 2.0 * two_64 / 1e9, 1e300]);
        for x in secs {
            assert_eq!(SimDuration::from_secs_f64(x).as_nanos(), libm_nanos(x), "{x:e} s");
        }
        // Nanosecond values at and next to every kind of half: tiny, the
        // largest below one half, around 2^52 and 2^53 (where one half is
        // the last fraction left), and at the top of the range.
        let mut nanos = vec![0.5, 0.49999999999999994, 1.5, 2.5, 1e9 + 0.5, 4503599627370495.5];
        nanos.extend([4503599627370496.5, 9007199254740993.0, two_64 - 1024.0, two_64]);
        for k in 0..2_000u64 {
            nanos.push(k as f64 + 0.5);
            nanos.push((k as f64 * 7919.0 + 0.5) * 1024.0);
        }
        for x in nanos {
            for y in [x.next_down(), x, x.next_up()] {
                assert_eq!(round_to_u64(y), y.round() as u64, "{y:e} ns");
            }
        }
    }

    proptest! {
        #[test]
        fn from_secs_f64_matches_libm_round(secs in 0.0f64..1e4, bits in any::<u64>()) {
            prop_assert_eq!(SimDuration::from_secs_f64(secs).as_nanos(), libm_nanos(secs));
            let any = f64::from_bits(bits);
            prop_assert_eq!(SimDuration::from_secs_f64(any).as_nanos(), libm_nanos(any));
            prop_assert_eq!(round_to_u64(any), any.round() as u64);
        }
    }

    #[test]
    fn sum_of_durations() {
        let total: SimDuration =
            [SimDuration::from_nanos(1), SimDuration::from_nanos(2)].into_iter().sum();
        assert_eq!(total.as_nanos(), 3);
    }
}
