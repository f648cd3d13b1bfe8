//! The exhibitor: what every shadowing party does with a name it sees.
//!
//! On-wire DPI taps, shadowing resolvers and destination-side SNI sensors
//! differ only in how they extract a name. What follows is one pipeline,
//! [`Exhibitor::observe`]: filter by zone, key on first sight against
//! retention, roll the trigger dice, sample a schedule, drop probes past
//! the retention TTL, pick an origin per probe, count and journal the
//! outcome, and post the orders.

use crate::policy::{sample_weighted, ReplayPolicy, WeightedChoice};
use crate::probe::ProbeOrder;
use crate::retention::{ObservedProtocol, RetentionStore};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha20Rng;
use shadow_netsim::engine::Ctx;
use shadow_netsim::fault::fnv1a64;
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_netsim::topology::NodeId;
use shadow_packet::dns::DnsName;
use std::sync::Arc;

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

/// What an exhibitor does with the names it sees.
#[derive(Debug, Clone)]
pub struct ExhibitorConfig {
    /// Only observe subdomains of this zone (`None` = everything). Real
    /// exhibitors key on newly-observed domains; the filter keeps large
    /// simulations cheap.
    pub zone_filter: Option<DnsName>,
    /// When, over what and how often to probe.
    pub policy: ReplayPolicy,
    /// How many names the exhibitor retains, and for how long.
    pub retention_capacity: usize,
    pub retention_ttl: SimDuration,
    /// Probe-origin hosts this exhibitor commands, with selection weights
    /// (one AS or data-analysis partner may carry most probes, echoing
    /// Section 5.2 and Figure 6's multi-AS fan-out for 114DNS).
    pub origins: Vec<WeightedChoice<NodeId>>,
}

/// Ground-truth counters for tests (never read by the measurement
/// pipeline).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExhibitorStats {
    /// In-zone names seen for the first time (while not retained).
    pub domains_observed: u64,
    pub probes_scheduled: u64,
    /// Probes the policy wanted after the retention TTL: the data is gone.
    pub probes_beyond_retention: u64,
}

/// One exhibitor's replay pipeline. Stateless apart from the retention
/// store: all probe randomness is derived per observation from the seed
/// ([`observation_rng`]), so what it does for one domain never depends on
/// what other names it saw.
#[derive(Clone)]
pub struct Exhibitor {
    /// Ground-truth provenance carried on every order, shared by all of
    /// them.
    label: Arc<str>,
    seed: u64,
    zone_filter: Option<DnsName>,
    policy: ReplayPolicy,
    origins: Vec<WeightedChoice<NodeId>>,
    store: RetentionStore,
    stats: ExhibitorStats,
}

impl Exhibitor {
    /// `seed` is the embodiment's own (salted) seed.
    pub fn new(label: impl Into<String>, seed: u64, config: ExhibitorConfig) -> Self {
        config
            .policy
            .validate()
            .expect("exhibitor replay policy must validate");
        assert!(
            !config.origins.is_empty(),
            "an exhibitor needs probe origins"
        );
        Self {
            label: Arc::from(label.into()),
            seed,
            zone_filter: config.zone_filter,
            policy: config.policy,
            origins: config.origins,
            store: RetentionStore::new(config.retention_capacity, config.retention_ttl),
            stats: ExhibitorStats::default(),
        }
    }

    pub fn stats(&self) -> ExhibitorStats {
        self.stats
    }

    /// Run the pipeline on `domain`, seen via `via`. Capacity evictions go
    /// to the run-section counter `retention_capacity_evictions`: per-shard
    /// stores see per-shard traffic subsets, so a nonzero count flags the
    /// DESIGN.md §5 sharded-equivalence caveat for this campaign.
    pub fn observe(&mut self, domain: &DnsName, via: ObservedProtocol, ctx: &mut Ctx<'_>) {
        let evictions = self.store.evictions();
        let orders = self.plan(domain, via, ctx.now());
        let evicted = self.store.evictions() - evictions;
        if evicted > 0 {
            if let Some(m) = ctx.telemetry().metrics() {
                m.retention_capacity_evictions.add(evicted);
            }
        }
        if !orders.is_empty() {
            let telemetry = ctx.telemetry();
            if let Some(m) = telemetry.metrics() {
                m.shadow_probes_scheduled.add(orders.len() as u64);
            }
            telemetry.event(ctx.now().millis(), Some(ctx.node().0), || {
                shadow_telemetry::EventKind::ShadowProbeScheduled {
                    domain: domain.shared(),
                }
            });
        }
        for (origin, delay, order) in orders {
            ctx.post(origin, delay, Box::new(order));
        }
    }

    /// The (origin, delay, order) triples for one observation. The RNG is
    /// only consulted for *new* in-zone names (duplicates are inert).
    fn plan(
        &mut self,
        domain: &DnsName,
        via: ObservedProtocol,
        now: SimTime,
    ) -> Vec<(NodeId, SimDuration, ProbeOrder)> {
        if let Some(zone) = &self.zone_filter {
            if !domain.is_subdomain_of(zone) {
                return Vec::new();
            }
        }
        if !self.store.observe(domain.clone(), via, now) {
            return Vec::new();
        }
        self.stats.domains_observed += 1;
        let mut rng = observation_rng(self.seed, domain, now);
        if !self.policy.triggers(&mut rng) {
            return Vec::new();
        }
        let mut out = Vec::new();
        for (delay, kind) in self.policy.sample_schedule(&mut rng) {
            // Data evicted after the retention TTL cannot fuel probes — the
            // mechanism behind the shorter intervals the paper sees for
            // mid-path (storage-bounded) observers.
            if delay > self.store.ttl() {
                self.stats.probes_beyond_retention += 1;
                continue;
            }
            let origin = *sample_weighted(&self.origins, &mut rng);
            out.push((
                origin,
                delay,
                ProbeOrder {
                    domain: domain.clone(),
                    kind,
                    exhibitor: Arc::clone(&self.label),
                    seed: rng.next_u64(),
                },
            ));
        }
        self.stats.probes_scheduled += out.len() as u64;
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{DelayBucket, ProbeKind};

    fn config() -> ExhibitorConfig {
        ExhibitorConfig {
            zone_filter: None,
            policy: ReplayPolicy {
                trigger_percent: 100,
                delays: vec![WeightedChoice::new(DelayBucket::Seconds(1, 10), 1)],
                protocols: vec![WeightedChoice::new(ProbeKind::Dns, 1)],
                reuse: vec![WeightedChoice::new(3, 1)],
            },
            retention_capacity: 100,
            retention_ttl: SimDuration::from_days(1),
            origins: vec![WeightedChoice::new(NodeId(7), 1)],
        }
    }

    fn exhibitor(config: ExhibitorConfig) -> Exhibitor {
        Exhibitor::new("x", 5, config)
    }

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    const DNS: ObservedProtocol = ObservedProtocol::Dns;

    #[test]
    fn plans_reuse_many_probes() {
        let mut ex = exhibitor(config());
        let orders = ex.plan(&name("a.example"), DNS, SimTime(0));
        assert_eq!(orders.len(), 3);
        assert_eq!(ex.stats().domains_observed, 1);
        assert_eq!(ex.stats().probes_scheduled, 3);
        for (node, delay, order) in &orders {
            assert_eq!(*node, NodeId(7));
            assert!(*delay <= SimDuration::from_secs(10));
            assert_eq!(&*order.exhibitor, "x");
        }
    }

    #[test]
    fn duplicate_observation_is_inert() {
        let mut ex = exhibitor(config());
        let d = name("a.example");
        let _ = ex.plan(&d, DNS, SimTime(0));
        let orders = ex.plan(&d, DNS, SimTime(5));
        assert!(orders.is_empty());
        assert_eq!(ex.stats().domains_observed, 1, "the repeat is not new");
    }

    #[test]
    fn retention_bound_drops_late_probes() {
        let mut config = config();
        config.policy.delays = vec![WeightedChoice::new(DelayBucket::Days(3, 4), 1)];
        config.retention_ttl = SimDuration::from_hours(1);
        let mut ex = exhibitor(config);
        let orders = ex.plan(&name("b.example"), ObservedProtocol::Tls, SimTime(0));
        assert!(orders.is_empty());
        assert_eq!(ex.stats().probes_beyond_retention, 3);
    }

    #[test]
    fn planning_is_value_derived_not_stream_dependent() {
        // Two exhibitor instances that saw *different* other domains first
        // must still plan identical probes for the same (domain, time).
        let mut a = exhibitor(config());
        let mut b = exhibitor(config());
        let _ = a.plan(&name("noise-1.example"), DNS, SimTime(0));
        let _ = a.plan(&name("noise-2.example"), DNS, SimTime(1));
        let planned_a = a.plan(&name("same.example"), DNS, SimTime(9));
        let planned_b = b.plan(&name("same.example"), DNS, SimTime(9));
        assert_eq!(planned_a, planned_b);
        assert!(!planned_a.is_empty());
    }

    #[test]
    #[should_panic(expected = "probe origins")]
    fn shadowing_without_origins_panics() {
        let mut config = config();
        config.origins.clear();
        let _ = exhibitor(config);
    }

    #[test]
    #[should_panic(expected = "validate")]
    fn shadowing_with_invalid_policy_panics() {
        let mut config = config();
        config.policy = ReplayPolicy::heavy_prober();
        config.policy.protocols = vec![WeightedChoice::new(ProbeKind::Dns, 0)];
        let _ = exhibitor(config);
    }
}
