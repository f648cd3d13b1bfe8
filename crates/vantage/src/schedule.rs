//! The decoy send scheduler.
//!
//! The paper runs "switching between different VPs ... in a round-robin
//! fashion without stop" under an ethical rate limit of "no more than 2
//! decoy packets per second to a given target". The scheduler hands out
//! deterministic send times one (VP, target) reservation at a time,
//! honoring both the per-target cap and a per-VP pacing gap. The Phase II
//! planner reserves every send; the Phase I planner reserves only the
//! first VP's first round and extends it by the round-robin's closed form
//! (`shadow_core::campaign::Phase1Schedule`).

use crate::platform::VpId;
use shadow_netsim::time::{SimDuration, SimTime};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Deterministic rate-limited scheduler.
#[derive(Debug)]
pub struct RateLimitedScheduler {
    /// Minimum spacing between sends to one target (2 pps ⇒ 500 ms).
    target_gap: SimDuration,
    /// Minimum spacing between sends from one VP.
    vp_gap: SimDuration,
    next_target_slot: HashMap<Ipv4Addr, SimTime>,
    next_vp_slot: HashMap<VpId, SimTime>,
}

impl RateLimitedScheduler {
    /// The paper's limit: ≤2 packets per second per target.
    pub fn paper_defaults() -> Self {
        Self::new(SimDuration::from_millis(500), SimDuration::from_millis(100))
    }

    pub fn new(target_gap: SimDuration, vp_gap: SimDuration) -> Self {
        Self {
            target_gap,
            vp_gap,
            next_target_slot: HashMap::new(),
            next_vp_slot: HashMap::new(),
        }
    }

    /// Minimum spacing between sends to one target.
    pub fn target_gap(&self) -> SimDuration {
        self.target_gap
    }

    /// Minimum spacing between sends from one VP.
    pub fn vp_gap(&self) -> SimDuration {
        self.vp_gap
    }

    /// Reserve the earliest slot at or after `not_before` satisfying both
    /// rate constraints.
    pub fn reserve(&mut self, not_before: SimTime, vp: VpId, target: Ipv4Addr) -> SimTime {
        let t_slot = self
            .next_target_slot
            .get(&target)
            .copied()
            .unwrap_or(SimTime::ZERO);
        let v_slot = self.next_vp_slot.get(&vp).copied().unwrap_or(SimTime::ZERO);
        let at = not_before.max(t_slot).max(v_slot);
        self.next_target_slot.insert(target, at + self.target_gap);
        self.next_vp_slot.insert(vp, at + self.vp_gap);
        at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn addr(last: u8) -> Ipv4Addr {
        Ipv4Addr::new(8, 8, 8, last)
    }

    #[test]
    fn per_target_rate_capped_at_2pps() {
        let mut sched = RateLimitedScheduler::paper_defaults();
        let target = addr(8);
        let times: Vec<SimTime> = (0..10)
            .map(|i| sched.reserve(SimTime::ZERO, VpId(i), target))
            .collect();
        for pair in times.windows(2) {
            assert!(
                pair[1].since(pair[0]) >= SimDuration::from_millis(500),
                "gap {} < 500ms",
                pair[1].since(pair[0])
            );
        }
        // Exactly 2 per second.
        assert_eq!(times[2].since(times[0]), SimDuration::from_secs(1));
    }

    #[test]
    fn per_vp_gap_enforced() {
        let mut sched = RateLimitedScheduler::paper_defaults();
        let t1 = sched.reserve(SimTime::ZERO, VpId(1), addr(1));
        let t2 = sched.reserve(SimTime::ZERO, VpId(1), addr(2));
        assert!(t2.since(t1) >= SimDuration::from_millis(100));
    }

    #[test]
    fn distinct_targets_and_vps_can_share_a_slot() {
        let mut sched = RateLimitedScheduler::paper_defaults();
        let t1 = sched.reserve(SimTime::ZERO, VpId(1), addr(1));
        let t2 = sched.reserve(SimTime::ZERO, VpId(2), addr(2));
        assert_eq!(t1, t2, "no shared constraint, no delay");
    }

    #[test]
    fn respects_not_before() {
        let mut sched = RateLimitedScheduler::paper_defaults();
        let at = sched.reserve(SimTime(5_000), VpId(1), addr(1));
        assert!(at >= SimTime(5_000));
    }
}
