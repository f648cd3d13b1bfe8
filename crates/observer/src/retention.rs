//! The retention store: what an observer remembers, for how long.
//!
//! The paper infers retention from the interval between a decoy and the
//! unsolicited requests bearing its data (Figures 4 and 7) and attributes
//! shorter HTTP/TLS retention to "the limited storage capacity of routing
//! devices serving as traffic observers". Both knobs live here: a hard
//! capacity (FIFO eviction) and a time-to-live.
//!
//! Capacity evictions are surfaced through the run-section telemetry
//! counter `retention_capacity_evictions`, bumped in one place:
//! [`Exhibitor::observe`](crate::exhibitor::Exhibitor::observe), which owns
//! every store a campaign drives. Per-shard stores see per-shard traffic
//! subsets, so a nonzero count flags the sharded-equivalence caveat
//! documented in DESIGN.md §5 instead of leaving it silent.
//!
//! ## Memory layout
//!
//! Lookups are O(1) via an open-addressed table of *absolute insertion
//! numbers* (monotonic, never reused), probed by an FNV-1a hash of the
//! domain's presentation bytes (deterministic across runs and shards: it
//! must not depend on process-random hasher keys). The table stores
//! 8-byte numbers instead of cloned domain keys, and an entry whose
//! number precedes `head` (how many items have ever left the queue
//! front) is simply dead — eviction and TTL expiry never
//! touch the table, and dead entries are purged wholesale whenever the
//! table rebuilds for growth. A paper-scale campaign drives thousands of
//! these stores (one per on-path observer), so the per-retained-domain
//! footprint — one 32-byte item plus one table word — is what bounds
//! campaign RSS.

use shadow_netsim::fault::fnv1a64;
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_packet::dns::DnsName;
use std::collections::VecDeque;

/// Which protocol a piece of data was extracted from.
///
/// Lives here (not in `dpi`) because every exhibitor embodiment — on-wire
/// tap, shadowing resolver, destination-side sensor — records it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ObservedProtocol {
    Dns,
    Http,
    Tls,
}

impl ObservedProtocol {
    pub fn as_str(self) -> &'static str {
        match self {
            ObservedProtocol::Dns => "dns",
            ObservedProtocol::Http => "http",
            ObservedProtocol::Tls => "tls",
        }
    }
}

/// One piece of sniffed data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObservedItem {
    pub domain: DnsName,
    pub first_seen: SimTime,
    /// How the data was observed.
    pub via: ObservedProtocol,
}

/// Marker for an unused table slot.
const EMPTY: u64 = u64::MAX;

/// Bounded FIFO store with TTL expiry and O(1) domain lookup.
#[derive(Debug, Clone)]
pub struct RetentionStore {
    items: VecDeque<ObservedItem>,
    /// Open-addressed (linear-probe) table of absolute insertion numbers;
    /// `EMPTY` marks unused slots. Entries `< head` are dead (their item
    /// left the queue) and are skipped on lookup, purged on rebuild.
    table: Vec<u64>,
    /// Slots holding any number, live or dead; drives the grow/rebuild
    /// threshold (load factor ≤ 1/2 counting dead entries).
    filled: usize,
    /// Absolute insertion number of the current queue front.
    head: u64,
    capacity: usize,
    ttl: SimDuration,
    evictions: u64,
    expirations: u64,
}

impl RetentionStore {
    /// `capacity` — maximum items held (router-grade observers are small);
    /// `ttl` — how long data stays usable.
    pub fn new(capacity: usize, ttl: SimDuration) -> Self {
        Self {
            items: VecDeque::new(),
            table: Vec::new(),
            filled: 0,
            head: 0,
            capacity: capacity.max(1),
            ttl,
            evictions: 0,
            expirations: 0,
        }
    }

    /// Remove the queue front. The table entry goes stale implicitly
    /// (`abs < head`); no table write needed.
    fn pop_front(&mut self) {
        if self.items.pop_front().is_some() {
            self.head += 1;
        }
    }

    /// Find `domain`'s slot offset in `items`, or `None`.
    fn lookup(&self, domain: &DnsName) -> Option<usize> {
        if self.table.is_empty() {
            return None;
        }
        let mask = self.table.len() - 1;
        let mut i = (fnv1a64(domain.as_str().as_bytes()) as usize) & mask;
        loop {
            let abs = self.table[i];
            if abs == EMPTY {
                return None;
            }
            if abs >= self.head {
                let idx = (abs - self.head) as usize;
                if idx < self.items.len() && self.items[idx].domain == *domain {
                    return Some(idx);
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Grow/rebuild so at least one more entry fits at ≤ 1/2 load,
    /// dropping dead entries in the process.
    fn ensure_slot(&mut self) {
        if !self.table.is_empty() && (self.filled + 1) * 2 <= self.table.len() {
            return;
        }
        let want = ((self.items.len() + 1) * 2).next_power_of_two().max(16);
        self.table.clear();
        self.table.resize(want, EMPTY);
        self.filled = 0;
        let mask = want - 1;
        for (offset, item) in self.items.iter().enumerate() {
            let abs = self.head + offset as u64;
            let mut i = (fnv1a64(item.domain.as_str().as_bytes()) as usize) & mask;
            while self.table[i] != EMPTY {
                i = (i + 1) & mask;
            }
            self.table[i] = abs;
            self.filled += 1;
        }
    }

    /// Place `abs` for `domain`; the caller guarantees free space and that
    /// the domain is not already live.
    fn place(&mut self, domain: &DnsName, abs: u64) {
        let mask = self.table.len() - 1;
        let mut i = (fnv1a64(domain.as_str().as_bytes()) as usize) & mask;
        while self.table[i] != EMPTY {
            i = (i + 1) & mask;
        }
        self.table[i] = abs;
        self.filled += 1;
    }

    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    pub fn len(&self) -> usize {
        self.items.len()
    }

    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    pub fn evictions(&self) -> u64 {
        self.evictions
    }

    pub fn expirations(&self) -> u64 {
        self.expirations
    }

    /// Drop items whose TTL elapsed as of `now`.
    pub fn expire(&mut self, now: SimTime) {
        while let Some(front) = self.items.front() {
            if now.since(front.first_seen) > self.ttl {
                self.pop_front();
                self.expirations += 1;
            } else {
                break;
            }
        }
    }

    /// Record an observation. Returns `false` if the domain was already
    /// stored (observation refreshed nothing; exhibitors key on first
    /// sight of a name).
    pub fn observe(&mut self, domain: DnsName, via: ObservedProtocol, now: SimTime) -> bool {
        self.expire(now);
        if self.lookup(&domain).is_some() {
            return false;
        }
        if self.items.len() == self.capacity {
            self.pop_front();
            self.evictions += 1;
        }
        self.ensure_slot();
        let abs = self.head + self.items.len() as u64;
        self.place(&domain, abs);
        self.items.push_back(ObservedItem {
            domain,
            first_seen: now,
            via,
        });
        true
    }

    /// Whether `domain` is currently retained (after expiry at `now`).
    pub fn contains(&mut self, domain: &DnsName, now: SimTime) -> bool {
        self.expire(now);
        self.lookup(domain).is_some()
    }

    pub fn iter(&self) -> impl Iterator<Item = &ObservedItem> {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name(s: &str) -> DnsName {
        DnsName::parse(s).unwrap()
    }

    const DNS: ObservedProtocol = ObservedProtocol::Dns;
    const HTTP: ObservedProtocol = ObservedProtocol::Http;

    #[test]
    fn stores_and_finds() {
        let mut store = RetentionStore::new(10, SimDuration::from_days(10));
        assert!(store.observe(name("a.example"), DNS, SimTime(0)));
        assert!(store.contains(&name("a.example"), SimTime(1_000)));
        assert!(!store.contains(&name("b.example"), SimTime(1_000)));
    }

    #[test]
    fn duplicate_observation_rejected() {
        let mut store = RetentionStore::new(10, SimDuration::from_days(1));
        assert!(store.observe(name("a.example"), DNS, SimTime(0)));
        assert!(!store.observe(name("a.example"), HTTP, SimTime(5)));
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn capacity_evicts_oldest() {
        let mut store = RetentionStore::new(2, SimDuration::from_days(30));
        store.observe(name("a.example"), DNS, SimTime(0));
        store.observe(name("b.example"), DNS, SimTime(1));
        store.observe(name("c.example"), DNS, SimTime(2));
        assert_eq!(store.len(), 2);
        assert_eq!(store.evictions(), 1);
        assert!(!store.contains(&name("a.example"), SimTime(3)));
        assert!(store.contains(&name("c.example"), SimTime(3)));
    }

    #[test]
    fn ttl_expires_items() {
        let mut store = RetentionStore::new(10, SimDuration::from_hours(1));
        store.observe(name("a.example"), HTTP, SimTime(0));
        assert!(store.contains(&name("a.example"), SimTime(3_599_000)));
        assert!(!store.contains(&name("a.example"), SimTime(3_600_001 + 1)));
        assert_eq!(store.expirations(), 1);
    }

    #[test]
    fn expired_domain_can_reenter() {
        let mut store = RetentionStore::new(10, SimDuration::from_secs(10));
        store.observe(name("a.example"), DNS, SimTime(0));
        let later = SimTime(20_000);
        assert!(!store.contains(&name("a.example"), later));
        assert!(store.observe(name("a.example"), DNS, later));
    }

    #[test]
    fn index_survives_mixed_eviction_and_expiry() {
        // Exercise the table ↔ queue offset accounting (`head`) across
        // capacity evictions, TTL expiry, and re-insertions.
        let mut store = RetentionStore::new(3, SimDuration::from_secs(100));
        for (i, n) in ["a", "b", "c", "d", "e"].iter().enumerate() {
            store.observe(name(&format!("{n}.example")), DNS, SimTime(i as u64));
        }
        assert_eq!(store.evictions(), 2, "a and b evicted by capacity");
        assert!(!store.contains(&name("a.example"), SimTime(10)));
        assert!(store.contains(&name("c.example"), SimTime(10)));
        // Lookups must hit the right slot despite the shifted head.
        assert!(store.contains(&name("d.example"), SimTime(10)));
        assert!(!store.observe(name("e.example"), DNS, SimTime(10)));
        let retained: Vec<_> = store.iter().map(|i| i.domain.as_str()).collect();
        assert_eq!(retained, ["c.example", "d.example", "e.example"]);
        // Expire everything, then reuse a previously-evicted name.
        assert!(!store.contains(&name("c.example"), SimTime(200_000)));
        assert_eq!(store.len(), 0);
        assert!(store.observe(name("a.example"), DNS, SimTime(200_000)));
        assert!(store.contains(&name("a.example"), SimTime(200_000)));
    }

    #[test]
    fn table_rebuilds_purge_dead_entries_under_churn() {
        // Heavy insert/evict churn: the table must keep finding live
        // domains while dead numbers accumulate and rebuilds purge them.
        let mut store = RetentionStore::new(64, SimDuration::from_days(30));
        for round in 0u64..2_000 {
            let d = name(&format!("d{round}.example"));
            assert!(store.observe(d.clone(), DNS, SimTime(round)));
            assert!(store.contains(&d, SimTime(round)));
            // The item evicted 64 inserts ago must be gone.
            if round >= 64 {
                assert!(!store.contains(&name(&format!("d{}.example", round - 64)), SimTime(round)));
            }
        }
        assert_eq!(store.len(), 64);
        assert_eq!(store.evictions(), 2_000 - 64);
        // The table never balloons past the live population's pow2 band
        // (64 live → 256 slots worst-case after a purge-rebuild).
        assert!(store.table.len() <= 4_096, "table leaked dead entries");
    }

    #[test]
    fn compact_layout_holds() {
        // The paper-scale RSS budget assumes a 32-byte retained item; a
        // regression here silently doubles campaign memory.
        assert_eq!(std::mem::size_of::<ObservedItem>(), 32);
    }
}
