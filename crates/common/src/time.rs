//! Time values.
//!
//! All engine time is a [`Timestamp`]: microseconds since an arbitrary epoch.
//! The paper's LCP delays span minutes to months; [`Duration`] provides the
//! named constructors used throughout policies, tests and benchmarks.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Microseconds since epoch. The epoch is arbitrary (tests start at 0).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of time in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(pub u64);

pub const MICROS_PER_MILLI: u64 = 1_000;
pub const MICROS_PER_SEC: u64 = 1_000_000;
pub const MICROS_PER_MIN: u64 = 60 * MICROS_PER_SEC;
pub const MICROS_PER_HOUR: u64 = 60 * MICROS_PER_MIN;
pub const MICROS_PER_DAY: u64 = 24 * MICROS_PER_HOUR;
/// The paper expresses delays "in terms of … months"; we fix 1 month = 30 days.
pub const MICROS_PER_MONTH: u64 = 30 * MICROS_PER_DAY;
pub const MICROS_PER_YEAR: u64 = 365 * MICROS_PER_DAY;

impl Duration {
    pub const ZERO: Duration = Duration(0);

    pub const fn micros(n: u64) -> Self {
        Duration(n)
    }
    pub const fn millis(n: u64) -> Self {
        Duration(n * MICROS_PER_MILLI)
    }
    pub const fn secs(n: u64) -> Self {
        Duration(n * MICROS_PER_SEC)
    }
    pub const fn minutes(n: u64) -> Self {
        Duration(n * MICROS_PER_MIN)
    }
    pub const fn hours(n: u64) -> Self {
        Duration(n * MICROS_PER_HOUR)
    }
    pub const fn days(n: u64) -> Self {
        Duration(n * MICROS_PER_DAY)
    }
    pub const fn months(n: u64) -> Self {
        Duration(n * MICROS_PER_MONTH)
    }
    pub const fn years(n: u64) -> Self {
        Duration(n * MICROS_PER_YEAR)
    }

    pub const fn as_micros(self) -> u64 {
        self.0
    }
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// Saturating subtraction; used for lateness computation.
    pub fn saturating_sub(self, other: Duration) -> Duration {
        Duration(self.0.saturating_sub(other.0))
    }

    /// Integer division of durations (how many `other` fit in `self`).
    /// Not `std::ops::Div`: the quotient is a dimensionless count, not a
    /// `Duration`, and call sites should not need a trait import.
    #[expect(clippy::should_implement_trait, reason = "a count, not a Duration")]
    pub fn div(self, other: Duration) -> u64 {
        assert!(other.0 > 0, "division by zero duration");
        self.0 / other.0
    }

    /// Scale by an integer factor (saturating).
    /// Not `std::ops::Mul`: saturating semantics differ from the trait's
    /// expected exact multiplication, and call sites avoid a trait import.
    #[expect(clippy::should_implement_trait, reason = "saturating, unlike Mul")]
    pub fn mul(self, k: u64) -> Duration {
        Duration(self.0.saturating_mul(k))
    }
}

impl Timestamp {
    pub const ZERO: Timestamp = Timestamp(0);
    pub const MAX: Timestamp = Timestamp(u64::MAX);

    pub const fn micros(n: u64) -> Self {
        Timestamp(n)
    }

    /// Elapsed time since `earlier`; saturates to zero if `earlier` is later.
    pub fn since(self, earlier: Timestamp) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    pub fn saturating_add(self, d: Duration) -> Timestamp {
        Timestamp(self.0.saturating_add(d.0))
    }
}

impl Add<Duration> for Timestamp {
    type Output = Timestamp;
    fn add(self, d: Duration) -> Timestamp {
        Timestamp(self.0 + d.0)
    }
}

impl AddAssign<Duration> for Timestamp {
    fn add_assign(&mut self, d: Duration) {
        self.0 += d.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = Duration;
    fn sub(self, other: Timestamp) -> Duration {
        self.since(other)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, other: Duration) -> Duration {
        Duration(self.0 + other.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, other: Duration) {
        self.0 += other.0;
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let us = self.0;
        if us == 0 {
            return write!(f, "0s");
        }
        if us % MICROS_PER_MONTH == 0 {
            write!(f, "{}mo", us / MICROS_PER_MONTH)
        } else if us % MICROS_PER_DAY == 0 {
            write!(f, "{}d", us / MICROS_PER_DAY)
        } else if us % MICROS_PER_HOUR == 0 {
            write!(f, "{}h", us / MICROS_PER_HOUR)
        } else if us % MICROS_PER_MIN == 0 {
            write!(f, "{}min", us / MICROS_PER_MIN)
        } else if us % MICROS_PER_SEC == 0 {
            write!(f, "{}s", us / MICROS_PER_SEC)
        } else if us % MICROS_PER_MILLI == 0 {
            write!(f, "{}ms", us / MICROS_PER_MILLI)
        } else {
            write!(f, "{}us", us)
        }
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", Duration(self.0))
    }
}

/// Parse a duration literal like `10min`, `1h`, `1d`, `1mo`, `90s`, `250ms`.
///
/// Used by the policy DSL (`instant-lcp::policy`) and the SQL front end.
pub fn parse_duration(s: &str) -> Option<Duration> {
    let s = s.trim();
    let split = s.find(|c: char| !c.is_ascii_digit())?;
    let (num, unit) = s.split_at(split);
    let n: u64 = num.parse().ok()?;
    match unit.trim() {
        "us" => Some(Duration::micros(n)),
        "ms" => Some(Duration::millis(n)),
        "s" | "sec" => Some(Duration::secs(n)),
        "min" | "m" => Some(Duration::minutes(n)),
        "h" | "hr" => Some(Duration::hours(n)),
        "d" | "day" => Some(Duration::days(n)),
        "mo" | "month" => Some(Duration::months(n)),
        "y" | "yr" | "year" => Some(Duration::years(n)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_compose() {
        assert_eq!(Duration::minutes(60), Duration::hours(1));
        assert_eq!(Duration::hours(24), Duration::days(1));
        assert_eq!(Duration::days(30), Duration::months(1));
    }

    #[test]
    fn timestamp_arithmetic() {
        let t = Timestamp::ZERO + Duration::hours(2);
        assert_eq!(t.since(Timestamp::ZERO), Duration::hours(2));
        // saturation
        assert_eq!(Timestamp::ZERO.since(t), Duration::ZERO);
        assert_eq!(t - Timestamp::ZERO, Duration::hours(2));
    }

    #[test]
    fn display_picks_best_unit() {
        assert_eq!(Duration::months(1).to_string(), "1mo");
        assert_eq!(Duration::days(2).to_string(), "2d");
        assert_eq!(Duration::hours(3).to_string(), "3h");
        assert_eq!(Duration::minutes(10).to_string(), "10min");
        assert_eq!(Duration::secs(5).to_string(), "5s");
        assert_eq!(Duration::millis(7).to_string(), "7ms");
        assert_eq!(Duration::micros(3).to_string(), "3us");
        assert_eq!(Duration::ZERO.to_string(), "0s");
    }

    #[test]
    fn parse_round_trips_display() {
        for d in [
            Duration::micros(17),
            Duration::millis(9),
            Duration::secs(30),
            Duration::minutes(10),
            Duration::hours(1),
            Duration::days(1),
            Duration::months(1),
        ] {
            assert_eq!(parse_duration(&d.to_string()), Some(d), "{d}");
        }
    }

    #[test]
    fn parse_rejects_garbage() {
        assert_eq!(parse_duration(""), None);
        assert_eq!(parse_duration("10"), None);
        assert_eq!(parse_duration("ten minutes"), None);
        assert_eq!(parse_duration("10 fortnights"), None);
    }

    #[test]
    fn duration_div_and_mul() {
        assert_eq!(Duration::hours(3).div(Duration::minutes(30)), 6);
        assert_eq!(Duration::minutes(30).mul(2), Duration::hours(1));
    }

    #[test]
    fn lateness_via_saturating_sub() {
        let due = Duration::secs(10);
        let actual = Duration::secs(12);
        assert_eq!(actual.saturating_sub(due), Duration::secs(2));
        assert_eq!(due.saturating_sub(actual), Duration::ZERO);
    }
}
