//! Shared probe-scheduling logic used by every exhibitor embodiment —
//! on-wire DPI taps, shadowing resolvers, and shadowing destination
//! servers all run the same pipeline: dedup against retention, roll the
//! trigger dice, sample a schedule, drop probes past the retention TTL,
//! and pick an origin per probe.

use crate::policy::{sample_weighted, ReplayPolicy, WeightedChoice};
use crate::probe::ProbeOrder;
use crate::retention::{ObservedProtocol, RetentionStore};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use shadow_netsim::fault::fnv1a64;
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::dns::DnsName;

/// Derive the RNG for one observation from the exhibitor seed, the observed
/// domain, and the observation time. Keyed per *value* rather than drawn
/// from a stateful stream so an exhibitor's decisions for one domain do not
/// depend on which other domains it happened to see first — the property
/// that lets sharded campaigns reproduce the sequential run exactly.
/// `now` is part of the key so a domain re-observed after retention expiry
/// gets a fresh stream.
pub fn observation_rng(seed: u64, domain: &DnsName, now: SimTime) -> ChaCha20Rng {
    let mut h = fnv1a64(domain.as_str().as_bytes());
    h ^= seed;
    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    h ^= now.millis();
    h ^= h >> 31;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 29;
    ChaCha20Rng::seed_from_u64(h)
}

/// Outcome counters for one observation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PlanStats {
    pub was_new: bool,
    pub triggered: bool,
    pub probes: u32,
    pub beyond_retention: u32,
    /// Items FIFO-evicted from the store to make room for this one. In a
    /// sharded run per-shard stores see traffic subsets, so callers report
    /// this to the *run* telemetry section — nonzero means the DESIGN.md §5
    /// sharded-equivalence caveat is live for this campaign.
    pub capacity_evictions: u64,
}

/// Plan the unsolicited probes for one observed `domain`. Returns the
/// (origin node, delay, order) triples the caller must post, plus counters.
/// All randomness is derived from `(seed, domain, now)` via
/// [`observation_rng`]; the RNG is only consulted for *new* observations
/// (duplicates are inert), so planning for one domain is independent of
/// every other domain the exhibitor retains.
#[allow(clippy::too_many_arguments)]
pub fn plan_probes(
    policy: &ReplayPolicy,
    store: &mut RetentionStore,
    origins: &[WeightedChoice<NodeId>],
    seed: u64,
    domain: &DnsName,
    via: ObservedProtocol,
    now: SimTime,
    exhibitor: &str,
) -> (Vec<(NodeId, SimDuration, ProbeOrder)>, PlanStats) {
    let mut stats = PlanStats::default();
    let evictions_before = store.evictions();
    let was_new = store.observe(domain.clone(), via, now);
    stats.capacity_evictions = store.evictions() - evictions_before;
    if !was_new {
        return (Vec::new(), stats);
    }
    stats.was_new = true;
    let mut rng = observation_rng(seed, domain, now);
    if !policy.triggers(&mut rng) {
        return (Vec::new(), stats);
    }
    stats.triggered = true;
    let mut out = Vec::new();
    for (delay, kind) in policy.sample_schedule(&mut rng) {
        if delay > store.ttl() {
            stats.beyond_retention += 1;
            continue;
        }
        let origin = *sample_weighted(origins, &mut rng);
        store.mark_used(domain);
        stats.probes += 1;
        out.push((
            origin,
            delay,
            ProbeOrder {
                domain: domain.clone(),
                kind,
                exhibitor: exhibitor.to_string(),
                seed: rng.next_u64(),
            },
        ));
    }
    (out, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DelayBucket, ProbeKind};

    fn setup() -> (
        ReplayPolicy,
        RetentionStore,
        Vec<WeightedChoice<NodeId>>,
        u64,
    ) {
        let policy = ReplayPolicy {
            trigger_percent: 100,
            delays: vec![WeightedChoice::new(DelayBucket::Seconds(1, 10), 1)],
            protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
            reuse: vec![WeightedChoice::new(3, 1)],
        };
        let store = RetentionStore::new(100, SimDuration::from_days(1));
        let origins = vec![WeightedChoice::new(NodeId(7), 1)];
        (policy, store, origins, 5)
    }

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    #[test]
    fn plans_reuse_many_probes() {
        let (policy, mut store, origins, seed) = setup();
        let (orders, stats) = plan_probes(
            &policy,
            &mut store,
            &origins,
            seed,
            &name("a.example"),
            ObservedProtocol::Dns,
            SimTime(0),
            "x",
        );
        assert_eq!(orders.len(), 3);
        assert!(stats.was_new && stats.triggered);
        assert_eq!(stats.probes, 3);
        for (node, delay, order) in &orders {
            assert_eq!(*node, NodeId(7));
            assert!(*delay <= SimDuration::from_secs(10));
            assert_eq!(order.exhibitor, "x");
        }
    }

    #[test]
    fn duplicate_observation_is_inert() {
        let (policy, mut store, origins, seed) = setup();
        let d = name("a.example");
        let _ = plan_probes(
            &policy,
            &mut store,
            &origins,
            seed,
            &d,
            ObservedProtocol::Dns,
            SimTime(0),
            "x",
        );
        let (orders, stats) = plan_probes(
            &policy,
            &mut store,
            &origins,
            seed,
            &d,
            ObservedProtocol::Dns,
            SimTime(5),
            "x",
        );
        assert!(orders.is_empty());
        assert!(!stats.was_new);
    }

    #[test]
    fn retention_bound_drops_late_probes() {
        let (mut policy, _, origins, seed) = setup();
        policy.delays = vec![WeightedChoice::new(DelayBucket::Days(3, 4), 1)];
        let mut store = RetentionStore::new(100, SimDuration::from_hours(1));
        let (orders, stats) = plan_probes(
            &policy,
            &mut store,
            &origins,
            seed,
            &name("b.example"),
            ObservedProtocol::Tls,
            SimTime(0),
            "x",
        );
        assert!(orders.is_empty());
        assert_eq!(stats.beyond_retention, 3);
    }

    #[test]
    fn planning_is_value_derived_not_stream_dependent() {
        // Two exhibitor instances that saw *different* other domains first
        // must still plan identical probes for the same (domain, time).
        let (policy, mut store_a, origins, seed) = setup();
        let mut store_b = RetentionStore::new(100, SimDuration::from_days(1));
        let _ = plan_probes(
            &policy,
            &mut store_a,
            &origins,
            seed,
            &name("noise-1.example"),
            ObservedProtocol::Dns,
            SimTime(0),
            "x",
        );
        let _ = plan_probes(
            &policy,
            &mut store_a,
            &origins,
            seed,
            &name("noise-2.example"),
            ObservedProtocol::Dns,
            SimTime(1),
            "x",
        );
        let (a, _) = plan_probes(
            &policy,
            &mut store_a,
            &origins,
            seed,
            &name("same.example"),
            ObservedProtocol::Dns,
            SimTime(9),
            "x",
        );
        let (b, _) = plan_probes(
            &policy,
            &mut store_b,
            &origins,
            seed,
            &name("same.example"),
            ObservedProtocol::Dns,
            SimTime(9),
            "x",
        );
        assert_eq!(a, b);
        assert!(!a.is_empty());
    }
}
