//! Simulated time. The paper's campaign runs Mar–Apr 2024; here the clock
//! starts at zero and advances in milliseconds for (up to) 60 simulated
//! days. There is no wall clock anywhere in the workspace.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// Milliseconds since campaign start.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimTime(pub u64);

/// A span of simulated time in milliseconds.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct SimDuration(pub u64);

impl SimTime {
    pub const ZERO: SimTime = SimTime(0);

    pub fn millis(self) -> u64 {
        self.0
    }

    pub fn secs(self) -> u64 {
        self.0 / 1_000
    }

    /// Elapsed duration since `earlier`; saturates at zero.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    pub const ZERO: SimDuration = SimDuration(0);

    pub fn from_millis(ms: u64) -> Self {
        Self(ms)
    }

    pub fn from_secs(s: u64) -> Self {
        Self(s * 1_000)
    }

    pub fn from_mins(m: u64) -> Self {
        Self::from_secs(m * 60)
    }

    pub fn from_hours(h: u64) -> Self {
        Self::from_mins(h * 60)
    }

    pub fn from_days(d: u64) -> Self {
        Self::from_hours(d * 24)
    }

    pub fn millis(self) -> u64 {
        self.0
    }

    pub fn hours_f64(self) -> f64 {
        self.0 as f64 / 3_600_000.0
    }

    /// Saturating multiply, for backoff schedules.
    pub fn saturating_mul(self, k: u64) -> Self {
        Self(self.0.saturating_mul(k))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;

    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        *self = *self + rhs;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;

    fn sub(self, rhs: SimTime) -> SimDuration {
        self.since(rhs)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;

    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ms = self.0;
        if ms < 1_000 {
            write!(f, "{ms}ms")
        } else if ms < 60_000 {
            write!(f, "{:.1}s", ms as f64 / 1_000.0)
        } else if ms < 3_600_000 {
            write!(f, "{:.1}min", ms as f64 / 60_000.0)
        } else if ms < 86_400_000 {
            write!(f, "{:.1}h", ms as f64 / 3_600_000.0)
        } else {
            write!(f, "{:.1}d", ms as f64 / 86_400_000.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime::ZERO + SimDuration::from_secs(90);
        assert_eq!(t.millis(), 90_000);
        assert_eq!(t.secs(), 90);
        assert_eq!(t - SimTime(30_000), SimDuration::from_secs(60));
        // saturating
        assert_eq!(SimTime(5).since(SimTime(10)), SimDuration::ZERO);
    }

    #[test]
    fn constructors_compose() {
        assert_eq!(SimDuration::from_days(1).millis(), 86_400_000);
        assert_eq!(SimDuration::from_hours(2).hours_f64(), 2.0);
        assert_eq!(SimDuration::from_mins(3).millis(), 180_000);
    }

    #[test]
    fn display_picks_scale() {
        assert_eq!(SimDuration::from_millis(12).to_string(), "12ms");
        assert_eq!(SimDuration::from_secs(5).to_string(), "5.0s");
        assert_eq!(SimDuration::from_mins(30).to_string(), "30.0min");
        assert_eq!(SimDuration::from_hours(11).to_string(), "11.0h");
        assert_eq!(SimDuration::from_days(10).to_string(), "10.0d");
    }

    #[test]
    fn ordering() {
        assert!(SimTime(1) < SimTime(2));
        assert!(SimDuration::from_hours(1) < SimDuration::from_days(1));
    }
}
