//! Lock-free metrics: atomic counters, labeled counter banks, and
//! fixed-bucket histograms, plus the serializable snapshots the campaign
//! merges and exports.
//!
//! The live side ([`MetricsRegistry`]) is all `AtomicU64` — safe to bump
//! from any host/tap callback without locks. The frozen side
//! ([`MetricsSnapshot`]) is plain data with a commutative [`merge`]
//! (`MetricsSnapshot::merge`): merging K per-shard snapshots in any order
//! yields the same result, and the *world* section equals the sequential
//! run's (enforced by `tests/metrics_merge.rs`).

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// A monotonically increasing atomic counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    /// Read and reset (snapshotting between phases must not double-count).
    pub fn take(&self) -> u64 {
        self.0.swap(0, Ordering::Relaxed)
    }
}

/// A small bank of counters keyed by a fixed label set (e.g. one per decoy
/// protocol). Lookup is a linear scan over a handful of labels — the banks
/// are only touched on send/capture paths, never per simulated hop.
#[derive(Debug)]
pub struct CounterBank {
    labels: &'static [&'static str],
    counters: Box<[Counter]>,
}

impl CounterBank {
    pub fn new(labels: &'static [&'static str]) -> Self {
        let counters = labels.iter().map(|_| Counter::default()).collect();
        Self { labels, counters }
    }

    /// Bump the counter for `label`. Unknown labels are ignored rather than
    /// panicking — a metrics bug must never take down a campaign.
    #[inline]
    pub fn inc(&self, label: &str) {
        if let Some(i) = self.labels.iter().position(|l| *l == label) {
            self.counters[i].inc();
        }
    }

    pub fn take(&self) -> BTreeMap<String, u64> {
        self.labels
            .iter()
            .zip(self.counters.iter())
            .map(|(l, c)| (l.to_string(), c.take()))
            .filter(|(_, n)| *n > 0)
            .collect()
    }
}

/// A fixed-bucket histogram: `bounds[i]` is the inclusive upper edge of
/// bucket `i`; one extra overflow bucket catches everything larger.
#[derive(Debug)]
pub struct Histogram {
    bounds: Vec<u64>,
    buckets: Box<[AtomicU64]>,
}

impl Histogram {
    pub fn new(bounds: Vec<u64>) -> Self {
        let buckets = (0..=bounds.len()).map(|_| AtomicU64::new(0)).collect();
        Self { bounds, buckets }
    }

    /// Power-of-two buckets up to 2^20 — the queue-depth shape.
    pub fn pow2() -> Self {
        Self::new((0..=20).map(|i| 1u64 << i).collect())
    }

    /// Retention-interval buckets (milliseconds): 1s, 1m, 10m, 1h, 12h,
    /// 1d, 10d — the paper's Figure 4/7 time scales.
    pub const INTERVAL_BOUNDS_MS: [u64; 7] = [
        1_000,
        60_000,
        600_000,
        3_600_000,
        43_200_000,
        86_400_000,
        864_000_000,
    ];

    #[inline]
    pub fn record(&self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
    }

    pub fn take(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            bounds: self.bounds.clone(),
            counts: self
                .buckets
                .iter()
                .map(|b| b.swap(0, Ordering::Relaxed))
                .collect(),
        }
    }
}

/// Frozen histogram: parallel `bounds`/`counts` vectors (one extra count
/// for overflow).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    pub bounds: Vec<u64>,
    pub counts: Vec<u64>,
}

impl HistogramSnapshot {
    pub fn with_bounds(bounds: &[u64]) -> Self {
        Self {
            bounds: bounds.to_vec(),
            counts: vec![0; bounds.len() + 1],
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    #[inline]
    pub fn record(&mut self, value: u64) {
        if self.counts.is_empty() {
            *self = Self::with_bounds(&Histogram::INTERVAL_BOUNDS_MS);
        }
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
    }

    /// Sum another snapshot in. An empty side is the identity; mismatched
    /// bucket layouts merge into the overflow bucket rather than panicking.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.counts.is_empty() {
            return;
        }
        if self.counts.is_empty() {
            *self = other.clone();
            return;
        }
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
                *a += b;
            }
        } else if let Some(last) = self.counts.last_mut() {
            *last += other.total();
        }
    }
}

/// The live, lock-free registry — one per shard engine.
#[derive(Debug)]
pub struct MetricsRegistry {
    // -- world counters: deterministic simulated-traffic facts -----------
    /// Packets a router forwarded onward (post-tap, pre-TTL-expiry).
    pub packets_forwarded: Counter,
    /// Packets delivered to an endpoint host.
    pub packets_delivered: Counter,
    /// TTL decrements that hit zero at a router.
    pub ttl_expirations: Counter,
    /// ICMP Time Exceeded messages routers emitted.
    pub icmp_time_exceeded: Counter,
    /// Packets seen by on-path wire taps (one count per tap per packet).
    pub tap_observations: Counter,
    /// Packets swallowed by a tap (interception noise).
    pub tap_drops: Counter,
    /// Decoys sent, per decoy protocol.
    pub decoys_sent: CounterBank,
    /// Honeypot arrivals captured, per arrival protocol.
    pub arrivals_captured: CounterBank,
    /// Client queries recursive resolvers answered.
    pub resolver_queries: Counter,
    /// Resolver answers served from cache.
    pub resolver_cache_hits: Counter,
    /// Resolver recursions to an authoritative server.
    pub resolver_upstream_queries: Counter,
    /// Shadowing probes the on-path/exhibitor pipeline scheduled.
    pub shadow_probes_scheduled: Counter,
    /// Fault injection: packets lost to value-derived link loss.
    pub fault_packets_lost: Counter,
    /// Fault injection: duplicate copies scheduled.
    pub fault_packets_duplicated: Counter,
    /// Fault injection: transmissions given extra jitter delay.
    pub fault_packets_delayed: Counter,
    /// Fault injection: packets dropped by node/link outage windows.
    pub fault_outage_drops: Counter,
    /// Fault injection: ICMP Time Exceeded suppressed by rate limiting.
    pub fault_icmp_rate_limited: Counter,
    /// DNS decoy retransmissions VPs issued (retry-protected decoys only).
    pub dns_retries: Counter,
    /// Arrivals the streaming correlation sink resolved to a decoy at
    /// capture time (solicited or not). Unknown-domain noise is excluded,
    /// so this equals the sink aggregates' `classified` count.
    pub arrivals_classified: Counter,
    /// Encrypted flows a DPI tap saw (DoT/DoH/DoQ frames, ECH hellos) —
    /// `Visibility::Hidden`, name out of reach. Exactly one count per
    /// hidden packet per tap, checked against the finalize fold.
    pub encrypted_flows_observed: Counter,
    /// Hidden flows the IP-fingerprint fallback classifier attributed to a
    /// site by destination address + size window (no payload access).
    pub name_blind_classifications: Counter,
    /// TLS hellos whose clear SNI was the shared CDN front name — the
    /// flows an SNI-keyed tap *mis*attributes under domain fronting.
    pub front_sni_observations: Counter,
    /// Fronted hellos whose sealed inner name a terminating destination
    /// opened (destination-side taps are immune to front-SNI mislabeling).
    pub fronted_inner_observed: Counter,
    /// Real names wire taps read in the clear, per protocol class (front
    /// SNIs are excluded — they are counted as mislabelings above). The
    /// numerator of the on-wire name-recall curve.
    pub wire_names_observed: CounterBank,

    // -- run diagnostics: legitimately run/shard-dependent ---------------
    /// Engine event-queue depth, sampled every few thousand events.
    pub queue_depth: Histogram,
    /// Events the engine drained (this shard).
    pub events_drained: Counter,
    /// Retention-store capacity (FIFO) evictions. Run-section on purpose:
    /// sharded stores see per-shard traffic subsets, so eviction counts
    /// legitimately differ from the sequential run (DESIGN.md §5 caveat —
    /// nonzero here means that caveat is live, not silent).
    pub retention_capacity_evictions: Counter,
    /// Decoy states the streaming correlation sink held at drain time —
    /// the sink's memory footprint proxy. Run-section: each shard's sink
    /// only tracks the decoys its own traffic touched.
    pub sink_tracked_decoys: Counter,
    /// LPM table resolutions the engine performed on route-cache misses.
    /// Run-section: cache hit rates depend on per-shard traffic order.
    pub topo_lookups: Counter,
    /// Time-Exceeded observations folded into the router-graph builder.
    /// Run-section: per-shard folds sum to at least the merged graph's
    /// dedup'd edge count, not exactly it.
    pub router_graph_edges: Counter,
    /// Wall-clock nanoseconds per named phase (this shard).
    phase_wall_ns: Mutex<BTreeMap<String, u64>>,
}

pub const DECOY_LABELS: &[&str] = &["DNS", "HTTP", "TLS"];
pub const ARRIVAL_LABELS: &[&str] = &["DNS", "HTTP", "HTTPS"];

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self {
            packets_forwarded: Counter::default(),
            packets_delivered: Counter::default(),
            ttl_expirations: Counter::default(),
            icmp_time_exceeded: Counter::default(),
            tap_observations: Counter::default(),
            tap_drops: Counter::default(),
            decoys_sent: CounterBank::new(DECOY_LABELS),
            arrivals_captured: CounterBank::new(ARRIVAL_LABELS),
            resolver_queries: Counter::default(),
            resolver_cache_hits: Counter::default(),
            resolver_upstream_queries: Counter::default(),
            shadow_probes_scheduled: Counter::default(),
            fault_packets_lost: Counter::default(),
            fault_packets_duplicated: Counter::default(),
            fault_packets_delayed: Counter::default(),
            fault_outage_drops: Counter::default(),
            fault_icmp_rate_limited: Counter::default(),
            dns_retries: Counter::default(),
            arrivals_classified: Counter::default(),
            encrypted_flows_observed: Counter::default(),
            name_blind_classifications: Counter::default(),
            front_sni_observations: Counter::default(),
            fronted_inner_observed: Counter::default(),
            wire_names_observed: CounterBank::new(DECOY_LABELS),
            queue_depth: Histogram::pow2(),
            events_drained: Counter::default(),
            retention_capacity_evictions: Counter::default(),
            sink_tracked_decoys: Counter::default(),
            topo_lookups: Counter::default(),
            router_graph_edges: Counter::default(),
            phase_wall_ns: Mutex::new(BTreeMap::new()),
        }
    }
}

impl MetricsRegistry {
    /// Record wall-clock for a named phase (added to any prior value).
    pub fn record_phase_ns(&self, phase: &str, ns: u64) {
        *self
            .phase_wall_ns
            .lock()
            .entry(phase.to_string())
            .or_insert(0) += ns;
    }

    /// Freeze-and-reset into a snapshot attributed to `shard`. Resetting
    /// means phase-level snapshots never double-count: Phase II's snapshot
    /// starts from zero even though the engine (and registry) persist.
    pub fn take_snapshot(&self, shard: u32) -> MetricsSnapshot {
        let mut events_per_shard = BTreeMap::new();
        let drained = self.events_drained.take();
        if drained > 0 {
            events_per_shard.insert(shard, drained);
        }
        MetricsSnapshot {
            world: WorldMetrics {
                packets_forwarded: self.packets_forwarded.take(),
                packets_delivered: self.packets_delivered.take(),
                ttl_expirations: self.ttl_expirations.take(),
                icmp_time_exceeded: self.icmp_time_exceeded.take(),
                tap_observations: self.tap_observations.take(),
                tap_drops: self.tap_drops.take(),
                decoys_sent: self.decoys_sent.take(),
                arrivals_captured: self.arrivals_captured.take(),
                resolver_queries: self.resolver_queries.take(),
                resolver_cache_hits: self.resolver_cache_hits.take(),
                resolver_upstream_queries: self.resolver_upstream_queries.take(),
                shadow_probes_scheduled: self.shadow_probes_scheduled.take(),
                fault_packets_lost: self.fault_packets_lost.take(),
                fault_packets_duplicated: self.fault_packets_duplicated.take(),
                fault_packets_delayed: self.fault_packets_delayed.take(),
                fault_outage_drops: self.fault_outage_drops.take(),
                fault_icmp_rate_limited: self.fault_icmp_rate_limited.take(),
                dns_retries: self.dns_retries.take(),
                arrivals_classified: self.arrivals_classified.take(),
                encrypted_flows_observed: self.encrypted_flows_observed.take(),
                name_blind_classifications: self.name_blind_classifications.take(),
                front_sni_observations: self.front_sni_observations.take(),
                fronted_inner_observed: self.fronted_inner_observed.take(),
                wire_names_observed: self.wire_names_observed.take(),
                unsolicited_by_rule: BTreeMap::new(),
                retention_intervals_ms: HistogramSnapshot::default(),
            },
            run: RunMetrics {
                shards: 1,
                events_drained_per_shard: events_per_shard,
                queue_depth: self.queue_depth.take(),
                retention_capacity_evictions: self.retention_capacity_evictions.take(),
                sink_tracked_decoys: self.sink_tracked_decoys.take(),
                topo_lookups: self.topo_lookups.take(),
                router_graph_edges: self.router_graph_edges.take(),
                phase_wall_ns: std::mem::take(&mut self.phase_wall_ns.lock()),
            },
        }
    }
}

/// Deterministic simulated-traffic counters. For a fixed seed these are
/// identical for **any** shard count once per-shard snapshots are merged —
/// the telemetry analogue of the byte-identical analysis bundle.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WorldMetrics {
    pub packets_forwarded: u64,
    pub packets_delivered: u64,
    pub ttl_expirations: u64,
    pub icmp_time_exceeded: u64,
    pub tap_observations: u64,
    pub tap_drops: u64,
    pub decoys_sent: BTreeMap<String, u64>,
    pub arrivals_captured: BTreeMap<String, u64>,
    pub resolver_queries: u64,
    pub resolver_cache_hits: u64,
    pub resolver_upstream_queries: u64,
    pub shadow_probes_scheduled: u64,
    /// Fault-injection world counters. Value-derived per-packet decisions
    /// make these deterministic and shard-invariant like everything else
    /// in this section; all zero when no fault profile is installed.
    pub fault_packets_lost: u64,
    pub fault_packets_duplicated: u64,
    pub fault_packets_delayed: u64,
    pub fault_outage_drops: u64,
    pub fault_icmp_rate_limited: u64,
    /// DNS decoy retransmissions (a VP lives in exactly one shard, so the
    /// sum across shards matches the sequential run).
    pub dns_retries: u64,
    /// Arrivals the streaming sink resolved to a decoy at capture time.
    pub arrivals_classified: u64,
    /// Encryption-axis counters: hidden flows tapped, name-blind
    /// (IP-fingerprint) attributions, front-SNI sightings, and
    /// destination-side fronted-inner openings. Per-packet deterministic,
    /// so shard-invariant like the rest of this section; all zero on
    /// plaintext campaigns.
    pub encrypted_flows_observed: u64,
    pub name_blind_classifications: u64,
    pub front_sni_observations: u64,
    pub fronted_inner_observed: u64,
    /// Clear names wire taps read, per protocol (front SNIs excluded).
    pub wire_names_observed: BTreeMap<String, u64>,
    /// Unsolicited arrivals per classification rule (filled after
    /// correlation via [`MetricsSnapshot::record_classification`]).
    pub unsolicited_by_rule: BTreeMap<String, u64>,
    /// Decoy-emission → arrival intervals (retention proxy), fixed buckets.
    pub retention_intervals_ms: HistogramSnapshot,
}

impl WorldMetrics {
    fn merge(&mut self, other: &WorldMetrics) {
        self.packets_forwarded += other.packets_forwarded;
        self.packets_delivered += other.packets_delivered;
        self.ttl_expirations += other.ttl_expirations;
        self.icmp_time_exceeded += other.icmp_time_exceeded;
        self.tap_observations += other.tap_observations;
        self.tap_drops += other.tap_drops;
        merge_map(&mut self.decoys_sent, &other.decoys_sent);
        merge_map(&mut self.arrivals_captured, &other.arrivals_captured);
        self.resolver_queries += other.resolver_queries;
        self.resolver_cache_hits += other.resolver_cache_hits;
        self.resolver_upstream_queries += other.resolver_upstream_queries;
        self.shadow_probes_scheduled += other.shadow_probes_scheduled;
        self.fault_packets_lost += other.fault_packets_lost;
        self.fault_packets_duplicated += other.fault_packets_duplicated;
        self.fault_packets_delayed += other.fault_packets_delayed;
        self.fault_outage_drops += other.fault_outage_drops;
        self.fault_icmp_rate_limited += other.fault_icmp_rate_limited;
        self.dns_retries += other.dns_retries;
        self.arrivals_classified += other.arrivals_classified;
        self.encrypted_flows_observed += other.encrypted_flows_observed;
        self.name_blind_classifications += other.name_blind_classifications;
        self.front_sni_observations += other.front_sni_observations;
        self.fronted_inner_observed += other.fronted_inner_observed;
        merge_map(&mut self.wire_names_observed, &other.wire_names_observed);
        merge_map(&mut self.unsolicited_by_rule, &other.unsolicited_by_rule);
        self.retention_intervals_ms
            .merge(&other.retention_intervals_ms);
    }
}

/// Run-shape diagnostics — per-shard and wall-clock data that is *expected*
/// to differ between a sequential and a sharded run (and between hosts).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunMetrics {
    /// Number of per-shard registries merged into this snapshot.
    pub shards: u64,
    pub events_drained_per_shard: BTreeMap<u32, u64>,
    pub queue_depth: HistogramSnapshot,
    /// Retention-store capacity (FIFO) evictions — run-section because
    /// per-shard stores see traffic subsets (DESIGN.md §5).
    pub retention_capacity_evictions: u64,
    /// Streaming-sink decoy states held at drain time, summed over shards.
    pub sink_tracked_decoys: u64,
    /// LPM resolutions on route-cache misses, summed over shards.
    pub topo_lookups: u64,
    /// Time-Exceeded observations folded into router-graph builders,
    /// summed over shards (pre-dedup, so ≥ the merged graph's hop count).
    pub router_graph_edges: u64,
    pub phase_wall_ns: BTreeMap<String, u64>,
}

impl RunMetrics {
    fn merge(&mut self, other: &RunMetrics) {
        self.shards += other.shards;
        for (shard, n) in &other.events_drained_per_shard {
            *self.events_drained_per_shard.entry(*shard).or_insert(0) += n;
        }
        self.queue_depth.merge(&other.queue_depth);
        self.retention_capacity_evictions += other.retention_capacity_evictions;
        self.sink_tracked_decoys += other.sink_tracked_decoys;
        self.topo_lookups += other.topo_lookups;
        self.router_graph_edges += other.router_graph_edges;
        for (phase, ns) in &other.phase_wall_ns {
            *self.phase_wall_ns.entry(phase.clone()).or_insert(0) += ns;
        }
    }
}

/// The exported artifact: world counters + run diagnostics.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    pub world: WorldMetrics,
    pub run: RunMetrics,
}

impl MetricsSnapshot {
    /// Commutative, associative merge: both sections sum field-wise, so
    /// absorbing per-shard snapshots in any completion order is safe.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.world.merge(&other.world);
        self.run.merge(&other.run);
    }

    /// True when nothing was recorded (telemetry was disabled).
    pub fn is_empty(&self) -> bool {
        self == &MetricsSnapshot::default()
    }

    /// Fold one post-correlation classification into the world section.
    pub fn record_classification(&mut self, rule: &str, unsolicited: bool, interval_ms: u64) {
        if unsolicited {
            *self
                .world
                .unsolicited_by_rule
                .entry(rule.to_string())
                .or_insert(0) += 1;
        }
        self.world.retention_intervals_ms.record(interval_ms);
    }

    pub fn to_json(&self) -> Result<String, serde_json::Error> {
        serde_json::to_string_pretty(self)
    }

    /// Rows for a human summary table: (metric, value) over the world
    /// section, in a stable order.
    pub fn summary_rows(&self) -> Vec<(String, String)> {
        let w = &self.world;
        let mut rows = vec![
            (
                "packets forwarded".to_string(),
                w.packets_forwarded.to_string(),
            ),
            (
                "packets delivered".to_string(),
                w.packets_delivered.to_string(),
            ),
            ("TTL expirations".to_string(), w.ttl_expirations.to_string()),
            (
                "ICMP Time Exceeded".to_string(),
                w.icmp_time_exceeded.to_string(),
            ),
            (
                "tap observations".to_string(),
                w.tap_observations.to_string(),
            ),
            ("tap drops".to_string(), w.tap_drops.to_string()),
        ];
        for (label, n) in &w.decoys_sent {
            rows.push((format!("decoys sent ({label})"), n.to_string()));
        }
        for (label, n) in &w.arrivals_captured {
            rows.push((format!("arrivals captured ({label})"), n.to_string()));
        }
        if w.arrivals_classified > 0 {
            rows.push((
                "arrivals classified (sink)".to_string(),
                w.arrivals_classified.to_string(),
            ));
        }
        rows.push((
            "resolver queries".to_string(),
            w.resolver_queries.to_string(),
        ));
        rows.push((
            "resolver cache hits".to_string(),
            w.resolver_cache_hits.to_string(),
        ));
        rows.push((
            "resolver upstream queries".to_string(),
            w.resolver_upstream_queries.to_string(),
        ));
        rows.push((
            "shadow probes scheduled".to_string(),
            w.shadow_probes_scheduled.to_string(),
        ));
        for (rule, n) in &w.unsolicited_by_rule {
            rows.push((format!("unsolicited ({rule})"), n.to_string()));
        }
        // Fault rows appear only when a fault profile actually fired, so
        // fault-free summaries keep their pre-chaos shape.
        // Encryption rows appear only on campaigns that deployed encrypted
        // transports, so plaintext summaries keep their pre-axis shape.
        // (Wire-name rows are gated the same way: plaintext campaigns see
        // every name in the clear, but the rows only surface once an
        // encrypted counter is nonzero, to avoid reshaping old summaries.)
        if w.encrypted_flows_observed > 0 || w.front_sni_observations > 0 {
            for (label, n) in &w.wire_names_observed {
                rows.push((format!("wire names observed ({label})"), n.to_string()));
            }
        }
        for (label, n) in [
            ("encrypted flows observed", w.encrypted_flows_observed),
            ("name-blind classifications", w.name_blind_classifications),
            ("front-SNI observations", w.front_sni_observations),
            ("fronted inner names opened", w.fronted_inner_observed),
        ] {
            if n > 0 {
                rows.push((label.to_string(), n.to_string()));
            }
        }
        for (label, n) in [
            ("fault packets lost", w.fault_packets_lost),
            ("fault packets duplicated", w.fault_packets_duplicated),
            ("fault packets delayed", w.fault_packets_delayed),
            ("fault outage drops", w.fault_outage_drops),
            ("fault ICMP rate-limited", w.fault_icmp_rate_limited),
            ("DNS decoy retries", w.dns_retries),
        ] {
            if n > 0 {
                rows.push((label.to_string(), n.to_string()));
            }
        }
        if self.run.retention_capacity_evictions > 0 {
            rows.push((
                "retention capacity evictions".to_string(),
                self.run.retention_capacity_evictions.to_string(),
            ));
        }
        if self.run.sink_tracked_decoys > 0 {
            rows.push((
                "sink tracked decoys".to_string(),
                self.run.sink_tracked_decoys.to_string(),
            ));
        }
        if self.run.topo_lookups > 0 {
            rows.push((
                "topo LPM lookups".to_string(),
                self.run.topo_lookups.to_string(),
            ));
        }
        if self.run.router_graph_edges > 0 {
            rows.push((
                "router graph edges folded".to_string(),
                self.run.router_graph_edges.to_string(),
            ));
        }
        rows.push(("shards merged".to_string(), self.run.shards.to_string()));
        for (shard, n) in &self.run.events_drained_per_shard {
            rows.push((format!("events drained (shard {shard})"), n.to_string()));
        }
        rows
    }
}

fn merge_map(into: &mut BTreeMap<String, u64>, from: &BTreeMap<String, u64>) {
    for (k, v) in from {
        *into.entry(k.clone()).or_insert(0) += v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_take_resets() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        assert_eq!(c.take(), 5);
        assert_eq!(c.get(), 0);
    }

    #[test]
    fn histogram_buckets_by_inclusive_bound() {
        let h = Histogram::new(vec![10, 100]);
        h.record(0);
        h.record(10); // inclusive upper edge
        h.record(11);
        h.record(1_000); // overflow
        let snap = h.take();
        assert_eq!(snap.counts, vec![2, 1, 1]);
        assert_eq!(snap.total(), 4);
    }

    #[test]
    fn bank_ignores_unknown_labels() {
        let bank = CounterBank::new(&["A", "B"]);
        bank.inc("A");
        bank.inc("ZZZ");
        let taken = bank.take();
        assert_eq!(taken.get("A"), Some(&1));
        assert!(!taken.contains_key("ZZZ"));
    }

    #[test]
    fn snapshot_merge_is_commutative() {
        let make = |n: u64, shard: u32| {
            let reg = MetricsRegistry::default();
            reg.packets_forwarded.add(n);
            reg.decoys_sent.inc("DNS");
            reg.events_drained.add(n * 10);
            reg.take_snapshot(shard)
        };
        let (a, b, c) = (make(1, 0), make(2, 1), make(3, 2));
        let mut ab = a.clone();
        ab.merge(&b);
        ab.merge(&c);
        let mut cb = c.clone();
        cb.merge(&b);
        cb.merge(&a);
        assert_eq!(ab, cb);
        assert_eq!(ab.world.packets_forwarded, 6);
        assert_eq!(ab.world.decoys_sent.get("DNS"), Some(&3));
        assert_eq!(ab.run.shards, 3);
        assert_eq!(ab.run.events_drained_per_shard.len(), 3);
    }

    #[test]
    fn take_snapshot_resets_registry() {
        let reg = MetricsRegistry::default();
        reg.tap_observations.inc();
        reg.record_phase_ns("phase1", 42);
        let first = reg.take_snapshot(0);
        assert_eq!(first.world.tap_observations, 1);
        assert_eq!(first.run.phase_wall_ns.get("phase1"), Some(&42));
        let second = reg.take_snapshot(0);
        assert_eq!(second.world.tap_observations, 0);
        assert!(second.run.phase_wall_ns.is_empty());
    }

    #[test]
    fn classification_records_rule_and_interval() {
        let mut snap = MetricsSnapshot::default();
        snap.record_classification("RepeatedDnsQuery", true, 90_000);
        snap.record_classification("SolicitedResolution", false, 500);
        assert_eq!(snap.world.unsolicited_by_rule.len(), 1);
        assert_eq!(snap.world.retention_intervals_ms.total(), 2);
    }
}
