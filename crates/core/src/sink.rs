//! Streaming correlation: the capture-time sink every analysis reads.
//!
//! No honeypot [`Arrival`] is buffered. The [`CorrelationSink`] classifies
//! each arrival the moment a honeypot captures it (decoy lookup + the §3
//! rules via [`StreamingClassifier`]) and folds it into
//! [`CorrelationAggregates`]: compact maps bounded by the number of
//! decoys, paths, destinations, origin addresses and probed HTTP paths,
//! never by traffic volume. Each shard owns one sink; per-shard aggregates
//! merge commutatively through `CampaignData::absorb`, and every report
//! reads the merged aggregates alone. Lookups that need the world (origin
//! AS, country, blocklist, payload class) run once per distinct key at
//! report time, so the sink itself needs no `GeoDb`.
//! `tests/streaming_rules_prop.rs` pins every report against a naive
//! whole-vector reference over the raw arrivals.
//!
//! Why per-shard folding is exact: decoy domains are unique and each
//! belongs to exactly one VP, hence one shard. All DNS captures for a
//! domain happen at the single authoritative host in simulated-time order,
//! so the first-seen time the classifier keys on is the same in every
//! shard and in the sequential run. The only ambiguity — two
//! same-millisecond duplicates swapping `SolicitedResolution` and
//! `ReplicationNoise` — is between two non-unsolicited labels, which no
//! aggregate distinguishes.

use crate::correlate::{PathKey, StreamingClassifier, UnsolicitedLabel};
use crate::decoy::{DecoyProtocol, DecoyRecord, DecoyRegistry};
use serde::{Deserialize, Serialize};
use shadow_honeypot::capture::{
    Arrival, ArrivalProtocol, ArrivalSink, SharedArrivalSink, SinkDecision,
};
use shadow_netsim::time::{SimDuration, SimTime};
use shadow_packet::dns::DnsName;
use shadow_telemetry::HistogramSnapshot;
use std::collections::{BTreeMap, BTreeSet};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// How the streaming sink behaves for one campaign phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SinkConfig {
    /// Appendix E replication window fed to the classifier.
    pub replication_window: SimDuration,
    /// Strict cutoff separating "within the hour" from "later" in the
    /// per-decoy folds (Figure 5 classes, §5.1 reuse counting).
    pub late_cutoff: SimDuration,
}

impl SinkConfig {
    /// The shipped configuration: Appendix E's replication window and the
    /// paper's 1 h late cutoff.
    pub fn streaming() -> Self {
        Self {
            replication_window: StreamingClassifier::DEFAULT_REPLICATION_WINDOW,
            late_cutoff: SimDuration::from_hours(1),
        }
    }
}

impl Default for SinkConfig {
    fn default() -> Self {
        Self::streaming()
    }
}

/// Inclusive upper bucket edges (milliseconds) of the fixed-bucket
/// interval histograms. Includes **every** paper-grid point (1 s, 1 min,
/// 1 h, 1 d, 10 d, 30 d), so cumulative bucket counts are the exact
/// sample-CDF fractions at the grid, plus the edges the other printed
/// statistics read: 10 min (the §6 wire-evidence cut) and 55/65 min (the
/// Figure 4 cache-refresh spike window around 1 h).
pub const INTERVAL_EDGES_MS: [u64; 14] = [
    1_000,         // 1 s
    10_000,        // 10 s
    60_000,        // 1 min
    600_000,       // 10 min
    3_300_000,     // 55 min
    3_600_000,     // 1 h
    3_900_000,     // 65 min
    21_600_000,    // 6 h
    86_400_000,    // 1 d
    259_200_000,   // 3 d
    864_000_000,   // 10 d
    1_728_000_000, // 20 d
    2_592_000_000, // 30 d
    5_184_000_000, // 60 d
];

/// A fixed-bucket histogram over decoy-emission → arrival intervals, the
/// streaming replacement for buffering every interval sample. One extra
/// bucket catches overflow beyond the last edge.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IntervalHistogram {
    counts: [u64; INTERVAL_EDGES_MS.len() + 1],
}

impl Default for IntervalHistogram {
    fn default() -> Self {
        Self {
            counts: [0; INTERVAL_EDGES_MS.len() + 1],
        }
    }
}

impl IntervalHistogram {
    #[inline]
    pub fn record(&mut self, interval_ms: u64) {
        let idx = INTERVAL_EDGES_MS.partition_point(|&edge| edge < interval_ms);
        self.counts[idx] += 1;
    }

    pub fn merge(&mut self, other: &IntervalHistogram) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
    }

    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    pub fn is_empty(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }

    /// Samples ≤ `edge_ms`. Exact only when `edge_ms` is one of
    /// [`INTERVAL_EDGES_MS`]; `None` otherwise (an inexact answer would
    /// silently diverge from the sample CDF).
    pub fn cumulative_at(&self, edge_ms: u64) -> Option<u64> {
        let idx = INTERVAL_EDGES_MS.iter().position(|&e| e == edge_ms)?;
        Some(self.counts[..=idx].iter().sum())
    }

    /// Fraction of samples ≤ `edge` — the CDF value at a bucket edge, as
    /// the integer-count division a sorted sample vector would give, so it
    /// is exact bit for bit. `None` when empty or `edge` is not an edge.
    pub fn fraction_at(&self, edge: SimDuration) -> Option<f64> {
        let total = self.total();
        if total == 0 {
            return None;
        }
        self.cumulative_at(edge.millis())
            .map(|n| n as f64 / total as f64)
    }

    /// Fraction of samples in `(lo, hi]`; `None` when empty or either
    /// bound is not an edge.
    pub fn fraction_between(&self, lo: SimDuration, hi: SimDuration) -> Option<f64> {
        let total = self.total();
        let inside = self.cumulative_at(hi.millis())? - self.cumulative_at(lo.millis())?;
        (total > 0).then(|| inside as f64 / total as f64)
    }

    /// Upper edge of the bucket holding the sample of 0-based rank
    /// `total / 2` — the median at bucket resolution. `None` when empty or
    /// when the median lies past the last edge.
    pub fn median_upper_edge_ms(&self) -> Option<u64> {
        let rank = self.total() / 2;
        let mut seen = 0;
        for (bucket, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen > rank {
                return INTERVAL_EDGES_MS.get(bucket).copied();
            }
        }
        None
    }

    /// Raw bucket counts (len = `INTERVAL_EDGES_MS.len() + 1`, overflow
    /// bucket last) — the checkpoint wire form.
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// Rebuild from the wire form; `None` if the bucket count does not
    /// match this build's edge layout.
    pub fn from_counts(counts: &[u64]) -> Option<Self> {
        let counts: [u64; INTERVAL_EDGES_MS.len() + 1] = counts.try_into().ok()?;
        Some(Self { counts })
    }
}

/// Figure-5 outcome bits of one decoy, strongest-wins decodable.
pub const OUTCOME_DNS_EARLY: u8 = 1;
pub const OUTCOME_DNS_LATE: u8 = 2;
pub const OUTCOME_HTTP_EARLY: u8 = 4;
pub const OUTCOME_HTTP_LATE: u8 = 8;

/// Everything the analyses need to know about one decoy's unsolicited
/// traffic, folded incrementally (Figure 5 breakdown + §5.1 reuse).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DecoyFold {
    pub protocol: DecoyProtocol,
    /// OR of the `OUTCOME_*` bits this decoy's unsolicited arrivals set.
    pub outcome_bits: u8,
    /// Unsolicited arrivals later than the configured late cutoff.
    pub late_unsolicited: u64,
}

/// Everything the analyses need to know about one client-server path,
/// folded incrementally (Figure 3 numerators + Phase II TTL localization).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathFold {
    pub unsolicited: u64,
    pub first_unsolicited_at: SimTime,
    /// Decoy domains whose unsolicited arrivals implicate this path.
    pub triggering: BTreeSet<DnsName>,
    /// Smallest decoy TTL that still triggered — the incremental min-fold
    /// Phase II's binary-search localization reads.
    pub min_trigger_ttl: u8,
}

/// One origin key: (decoy protocol, destination, arrival protocol, source
/// address) — who sent unsolicited traffic about which decoys.
pub type OriginKey = (DecoyProtocol, Ipv4Addr, ArrivalProtocol, Ipv4Addr);

/// Compact per-shard correlation state. Every map is bounded by decoys,
/// paths, destinations, origin addresses or probed HTTP paths — never by
/// arrival volume — and every field merges commutatively in
/// [`CorrelationAggregates::absorb`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CorrelationAggregates {
    /// Arrivals offered to the sink, including unknown-domain noise.
    pub arrivals_seen: u64,
    /// Arrivals that resolved to a registered decoy.
    pub classified: u64,
    /// Classified arrivals per §3 label (solicited classes included).
    pub by_label: BTreeMap<UnsolicitedLabel, u64>,
    /// Intervals of **all** classified arrivals in the telemetry bucket
    /// layout (feeds `WorldMetrics::retention_intervals_ms`).
    pub retention_intervals_ms: HistogramSnapshot,
    /// Unsolicited-interval histograms per (decoy protocol, destination) —
    /// the streamed source of the Figure 4/7 temporal CDFs.
    pub interval_hists: BTreeMap<(DecoyProtocol, Ipv4Addr), IntervalHistogram>,
    /// Unsolicited arrivals per (path, arrival protocol) — the §5.2
    /// protocol combinations, overall and per observer AS.
    pub path_combos: BTreeMap<(PathKey, ArrivalProtocol), u64>,
    /// Problematic-path folds (Figure 3, Phase II trace targets).
    pub paths: BTreeMap<PathKey, PathFold>,
    /// Per-decoy folds (Figure 5 breakdown, §5.1 reuse, Case I).
    pub decoys: BTreeMap<DnsName, DecoyFold>,
    /// Unsolicited arrivals per [`OriginKey`] (Figure 6 origin ASes, §5
    /// origin blocklist rates, Case III).
    pub origins: BTreeMap<OriginKey, u64>,
    /// Unsolicited HTTP arrivals per decoy protocol and requested path (§5
    /// payload triage).
    pub http_paths: BTreeMap<DecoyProtocol, BTreeMap<String, u64>>,
}

impl CorrelationAggregates {
    /// Fold one classified arrival.
    pub fn fold(
        &mut self,
        decoy: &DecoyRecord,
        arrival: &Arrival,
        interval: SimDuration,
        label: UnsolicitedLabel,
        late_cutoff: SimDuration,
    ) {
        self.classified += 1;
        *self.by_label.entry(label).or_insert(0) += 1;
        self.retention_intervals_ms.record(interval.millis());
        if !label.is_unsolicited() {
            return;
        }
        let key = PathKey {
            vp: decoy.vp,
            dst: decoy.dst,
            protocol: decoy.protocol,
        };
        *self.path_combos.entry((key, arrival.protocol)).or_insert(0) += 1;
        *self
            .origins
            .entry((decoy.protocol, decoy.dst, arrival.protocol, arrival.src))
            .or_insert(0) += 1;
        if let (ArrivalProtocol::Http, Some(path)) = (arrival.protocol, &arrival.http_path) {
            // Probed paths repeat, so the path is cloned only for a new key.
            let per_path = self.http_paths.entry(decoy.protocol).or_default();
            match per_path.get_mut(path.as_str()) {
                Some(n) => *n += 1,
                None => {
                    per_path.insert(path.clone(), 1);
                }
            }
        }
        self.interval_hists
            .entry((decoy.protocol, decoy.dst))
            .or_default()
            .record(interval.millis());
        let path = self.paths.entry(key).or_insert_with(|| PathFold {
            unsolicited: 0,
            first_unsolicited_at: arrival.at,
            triggering: BTreeSet::new(),
            min_trigger_ttl: decoy.ttl,
        });
        path.unsolicited += 1;
        path.first_unsolicited_at = path.first_unsolicited_at.min(arrival.at);
        path.min_trigger_ttl = path.min_trigger_ttl.min(decoy.ttl);
        // Check-before-insert: a decoy's repeat arrivals dominate, and
        // cloning the domain `String` on every hit is the fold's only
        // per-arrival allocation.
        if !path.triggering.contains(&decoy.domain) {
            path.triggering.insert(decoy.domain.clone());
        }
        let late = interval > late_cutoff;
        if !self.decoys.contains_key(&decoy.domain) {
            self.decoys.insert(
                decoy.domain.clone(),
                DecoyFold {
                    protocol: decoy.protocol,
                    outcome_bits: 0,
                    late_unsolicited: 0,
                },
            );
        }
        let fold = self
            .decoys
            .get_mut(&decoy.domain)
            .expect("inserted above if absent");
        fold.outcome_bits |= match (arrival.protocol, late) {
            (ArrivalProtocol::Dns, false) => OUTCOME_DNS_EARLY,
            (ArrivalProtocol::Dns, true) => OUTCOME_DNS_LATE,
            (_, false) => OUTCOME_HTTP_EARLY,
            (_, true) => OUTCOME_HTTP_LATE,
        };
        if late {
            fold.late_unsolicited += 1;
        }
    }

    /// Commutative merge — the aggregates' half of `CampaignData::absorb`.
    /// Sums, minima, unions, and bit-ORs only, so any absorb order yields
    /// identical state.
    pub fn absorb(&mut self, other: CorrelationAggregates) {
        self.arrivals_seen += other.arrivals_seen;
        self.classified += other.classified;
        for (label, n) in other.by_label {
            *self.by_label.entry(label).or_insert(0) += n;
        }
        self.retention_intervals_ms
            .merge(&other.retention_intervals_ms);
        for (key, hist) in other.interval_hists {
            self.interval_hists.entry(key).or_default().merge(&hist);
        }
        for (key, n) in other.path_combos {
            *self.path_combos.entry(key).or_insert(0) += n;
        }
        for (key, fold) in other.paths {
            match self.paths.entry(key) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(fold);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    mine.unsolicited += fold.unsolicited;
                    mine.first_unsolicited_at =
                        mine.first_unsolicited_at.min(fold.first_unsolicited_at);
                    mine.min_trigger_ttl = mine.min_trigger_ttl.min(fold.min_trigger_ttl);
                    mine.triggering.extend(fold.triggering);
                }
            }
        }
        for (domain, fold) in other.decoys {
            match self.decoys.entry(domain) {
                std::collections::btree_map::Entry::Vacant(slot) => {
                    slot.insert(fold);
                }
                std::collections::btree_map::Entry::Occupied(mut slot) => {
                    let mine = slot.get_mut();
                    mine.outcome_bits |= fold.outcome_bits;
                    mine.late_unsolicited += fold.late_unsolicited;
                }
            }
        }
        for (key, n) in other.origins {
            *self.origins.entry(key).or_insert(0) += n;
        }
        for (protocol, paths) in other.http_paths {
            let mine = self.http_paths.entry(protocol).or_default();
            for (path, n) in paths {
                *mine.entry(path).or_insert(0) += n;
            }
        }
    }

    /// Offer a capture-ordered arrival vector to a fresh [`CorrelationSink`]
    /// — how tests build aggregates without running a campaign.
    pub fn from_arrivals(
        registry: &DecoyRegistry,
        arrivals: &[Arrival],
        config: &SinkConfig,
    ) -> Self {
        let mut sink = CorrelationSink::new(Arc::new(registry.clone()), *config);
        for arrival in arrivals {
            sink.offer(arrival);
        }
        sink.take_aggregates()
    }

    /// Total unsolicited arrivals across all rules.
    pub fn unsolicited_total(&self) -> u64 {
        self.by_label
            .iter()
            .filter(|(label, _)| label.is_unsolicited())
            .map(|(_, n)| n)
            .sum()
    }

    /// Smallest decoy TTL that triggered unsolicited traffic on `key`.
    pub fn min_trigger_ttl(&self, key: &PathKey) -> Option<u8> {
        self.paths.get(key).map(|fold| fold.min_trigger_ttl)
    }

    /// Sum of the unsolicited-interval histograms over `(protocol, dst)`
    /// cells selected by `keep` — the Figure 4/7 series source.
    pub fn interval_histogram(
        &self,
        protocol: DecoyProtocol,
        mut keep: impl FnMut(Ipv4Addr) -> bool,
    ) -> IntervalHistogram {
        let mut out = IntervalHistogram::default();
        for ((proto, dst), hist) in &self.interval_hists {
            if *proto == protocol && keep(*dst) {
                out.merge(hist);
            }
        }
        out
    }
}

/// Serialization twin of [`CorrelationAggregates`].
///
/// The in-memory aggregates key maps by tuples (`(DecoyProtocol,
/// Ipv4Addr)`, `(PathKey, ArrivalProtocol)`, [`OriginKey`]) and by a struct
/// (`PathKey`) — shapes a JSON object key cannot carry losslessly.
/// The portable form flattens every map to an entry vector (already in
/// `BTreeMap` iteration order, so rendering is deterministic) and the
/// fixed-size histogram arrays to plain `Vec<u64>`. This is the wire form
/// used by both the `shadow-serve` checkpoint file and the
/// `/api/aggregates` endpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PortableAggregates {
    pub arrivals_seen: u64,
    pub classified: u64,
    pub by_label: Vec<(UnsolicitedLabel, u64)>,
    pub retention_intervals_ms: HistogramSnapshot,
    pub interval_hists: Vec<(DecoyProtocol, Ipv4Addr, Vec<u64>)>,
    pub path_combos: Vec<(PathKey, ArrivalProtocol, u64)>,
    pub paths: Vec<(PathKey, PathFold)>,
    pub decoys: Vec<(DnsName, DecoyFold)>,
    pub origins: Vec<(OriginKey, u64)>,
    pub http_paths: Vec<(DecoyProtocol, String, u64)>,
}

impl CorrelationAggregates {
    /// Flatten into the serializable entry-vector form.
    pub fn to_portable(&self) -> PortableAggregates {
        PortableAggregates {
            arrivals_seen: self.arrivals_seen,
            classified: self.classified,
            by_label: self.by_label.iter().map(|(k, v)| (*k, *v)).collect(),
            retention_intervals_ms: self.retention_intervals_ms.clone(),
            interval_hists: self
                .interval_hists
                .iter()
                .map(|((proto, dst), hist)| (*proto, *dst, hist.counts().to_vec()))
                .collect(),
            path_combos: self
                .path_combos
                .iter()
                .map(|((path, proto), n)| (*path, *proto, *n))
                .collect(),
            paths: self
                .paths
                .iter()
                .map(|(k, fold)| (*k, fold.clone()))
                .collect(),
            decoys: self
                .decoys
                .iter()
                .map(|(name, fold)| (name.clone(), *fold))
                .collect(),
            origins: self.origins.iter().map(|(k, n)| (*k, *n)).collect(),
            http_paths: self
                .http_paths
                .iter()
                .flat_map(|(protocol, paths)| {
                    paths.iter().map(|(path, n)| (*protocol, path.clone(), *n))
                })
                .collect(),
        }
    }

    /// Rebuild from the portable form. `None` if a histogram's bucket
    /// layout does not match this build (a checkpoint written by an
    /// incompatible version).
    pub fn from_portable(portable: &PortableAggregates) -> Option<Self> {
        let mut interval_hists = BTreeMap::new();
        for (proto, dst, counts) in &portable.interval_hists {
            interval_hists.insert((*proto, *dst), IntervalHistogram::from_counts(counts)?);
        }
        let mut http_paths: BTreeMap<DecoyProtocol, BTreeMap<String, u64>> = BTreeMap::new();
        for (protocol, path, n) in &portable.http_paths {
            http_paths
                .entry(*protocol)
                .or_default()
                .insert(path.clone(), *n);
        }
        Some(Self {
            arrivals_seen: portable.arrivals_seen,
            classified: portable.classified,
            by_label: portable.by_label.iter().copied().collect(),
            retention_intervals_ms: portable.retention_intervals_ms.clone(),
            interval_hists,
            path_combos: portable
                .path_combos
                .iter()
                .map(|(path, proto, n)| ((*path, *proto), *n))
                .collect(),
            paths: portable.paths.iter().cloned().collect(),
            decoys: portable.decoys.iter().cloned().collect(),
            origins: portable.origins.iter().copied().collect(),
            http_paths,
        })
    }
}

/// The capture-time [`ArrivalSink`]: one per chunk engine, installed on
/// the authoritative server and every honey web host before campaign
/// traffic starts, drained into `CampaignData::aggregates` at harvest. It
/// resolves arrivals against the registry of the decoys its chunk posted,
/// which it shares with the chunk's campaign data through an `Arc`.
pub struct CorrelationSink {
    registry: Arc<DecoyRegistry>,
    config: SinkConfig,
    classifier: StreamingClassifier,
    aggregates: CorrelationAggregates,
}

impl CorrelationSink {
    pub fn new(registry: Arc<DecoyRegistry>, config: SinkConfig) -> Self {
        Self {
            registry,
            config,
            classifier: StreamingClassifier::new(config.replication_window),
            aggregates: CorrelationAggregates::default(),
        }
    }

    /// Build the shared handle the honeypot hosts hold.
    pub fn shared(registry: Arc<DecoyRegistry>, config: SinkConfig) -> SharedArrivalSink {
        Arc::new(parking_lot::Mutex::new(Box::new(Self::new(
            registry, config,
        ))))
    }

    /// Decoy states currently held (classifier first-seen entries plus
    /// per-decoy folds) — the sink-depth telemetry value.
    pub fn state_size(&self) -> usize {
        self.classifier.tracked_domains() + self.aggregates.decoys.len()
    }

    pub fn take_aggregates(&mut self) -> CorrelationAggregates {
        std::mem::take(&mut self.aggregates)
    }

    /// Drain the aggregates (and state-size reading) out of a shared
    /// handle after the run. Returns empty aggregates if the handle holds
    /// some other sink type — the campaign layer only ever installs
    /// [`CorrelationSink`]s, so that would be a bug upstream, not here.
    pub fn drain_shared(shared: &SharedArrivalSink) -> (CorrelationAggregates, usize) {
        let mut guard = shared.lock();
        match guard.as_any_mut().downcast_mut::<CorrelationSink>() {
            Some(sink) => {
                let state_size = sink.state_size();
                (sink.take_aggregates(), state_size)
            }
            None => (CorrelationAggregates::default(), 0),
        }
    }
}

impl ArrivalSink for CorrelationSink {
    fn offer(&mut self, arrival: &Arrival) -> SinkDecision {
        self.aggregates.arrivals_seen += 1;
        let Some(decoy) = self.registry.lookup(&arrival.domain) else {
            return SinkDecision::unclassified();
        };
        let label = self.classifier.classify(decoy, arrival);
        self.aggregates.fold(
            decoy,
            arrival,
            arrival.at.since(decoy.planned_at),
            label,
            self.config.late_cutoff,
        );
        SinkDecision {
            classified: true,
            unsolicited: label.is_unsolicited(),
            rule: label.is_unsolicited().then(|| label.journal_label()),
        }
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shadow_vantage::platform::VpId;

    fn zone() -> DnsName {
        DnsName::parse("www.experiment.example").unwrap()
    }

    fn arrival(domain: &DnsName, at: u64, proto: ArrivalProtocol) -> Arrival {
        Arrival {
            at: SimTime(at),
            src: Ipv4Addr::new(8, 8, 8, 8),
            protocol: proto,
            domain: domain.clone(),
            http_path: None,
            honeypot: "AUTH".into(),
        }
    }

    fn registry() -> (DecoyRegistry, DecoyRecord, DecoyRecord) {
        let mut reg = DecoyRegistry::new(zone());
        let dns = reg.register(
            VpId(1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(77, 88, 8, 8),
            DecoyProtocol::Dns,
            64,
            SimTime(1_000),
        );
        let http = reg.register(
            VpId(2),
            Ipv4Addr::new(10, 0, 0, 2),
            Ipv4Addr::new(93, 184, 216, 34),
            DecoyProtocol::Http,
            64,
            SimTime(2_000),
        );
        (reg, dns, http)
    }

    fn stream() -> (DecoyRegistry, Vec<Arrival>) {
        let (reg, dns, http) = registry();
        let arrivals = vec![
            arrival(&dns.domain, 2_000, ArrivalProtocol::Dns), // solicited
            arrival(&dns.domain, 2_500, ArrivalProtocol::Dns), // replication
            arrival(&dns.domain, 90_000, ArrivalProtocol::Dns), // repeated
            Arrival {
                http_path: Some("/admin/".into()),
                ..arrival(&dns.domain, 4_000_000, ArrivalProtocol::Http) // late HTTP probe
            },
            arrival(&http.domain, 9_000, ArrivalProtocol::Dns), // cross-protocol
            arrival(&zone().prepend("noise").unwrap(), 10, ArrivalProtocol::Dns), // unknown
        ];
        (reg, arrivals)
    }

    #[test]
    fn shared_handle_drains_the_same_fold() {
        let (reg, arrivals) = stream();
        let direct =
            CorrelationAggregates::from_arrivals(&reg, &arrivals, &SinkConfig::streaming());
        let shared = CorrelationSink::shared(Arc::new(reg), SinkConfig::streaming());
        for a in &arrivals {
            shared.lock().offer(a);
        }
        let (streamed, state) = CorrelationSink::drain_shared(&shared);
        assert_eq!(streamed, direct);
        assert!(state > 0);
        assert_eq!(streamed.arrivals_seen, 6);
        assert_eq!(streamed.classified, 5);
        assert_eq!(streamed.unsolicited_total(), 3);
    }

    #[test]
    fn origin_and_path_folds_count_unsolicited_only() {
        let (reg, arrivals) = stream();
        let agg = CorrelationAggregates::from_arrivals(&reg, &arrivals, &SinkConfig::streaming());
        let src = Ipv4Addr::new(8, 8, 8, 8);
        let yandex = Ipv4Addr::new(77, 88, 8, 8);
        let site = Ipv4Addr::new(93, 184, 216, 34);
        let origins: Vec<(OriginKey, u64)> = agg.origins.iter().map(|(k, n)| (*k, *n)).collect();
        assert_eq!(
            origins,
            vec![
                ((DecoyProtocol::Dns, yandex, ArrivalProtocol::Dns, src), 1),
                ((DecoyProtocol::Dns, yandex, ArrivalProtocol::Http, src), 1),
                ((DecoyProtocol::Http, site, ArrivalProtocol::Dns, src), 1),
            ],
            "solicited and replication arrivals stay out of the origin fold"
        );
        assert_eq!(agg.http_paths[&DecoyProtocol::Dns]["/admin/"], 1);
        assert_eq!(agg.http_paths.len(), 1);
    }

    #[test]
    fn absorb_merges_split_streams_exactly() {
        let (reg, arrivals) = stream();
        let whole = CorrelationAggregates::from_arrivals(&reg, &arrivals, &SinkConfig::streaming());
        // Split by owning decoy (domain), as sharding does.
        let (left, right): (Vec<Arrival>, Vec<Arrival>) = arrivals.iter().cloned().partition(|a| {
            a.domain
                .as_str()
                .contains(reg.iter().next().unwrap().domain.as_str())
        });
        let mut a = CorrelationAggregates::from_arrivals(&reg, &left, &SinkConfig::streaming());
        let b = CorrelationAggregates::from_arrivals(&reg, &right, &SinkConfig::streaming());
        let mut ba = b.clone();
        ba.absorb(a.clone());
        a.absorb(b);
        assert_eq!(a, ba, "absorb must be commutative");
        assert_eq!(a, whole, "split streams must merge to the whole");
    }

    #[test]
    fn offer_names_the_unsolicited_rule() {
        let (reg, arrivals) = stream();
        let mut sink = CorrelationSink::new(Arc::new(reg), SinkConfig::streaming());
        let solicited = sink.offer(&arrivals[0]);
        assert!(solicited.classified && !solicited.unsolicited);
        assert_eq!(solicited.rule, None);
        let verdict = sink.offer(&arrivals[3]);
        assert!(verdict.unsolicited);
        assert_eq!(verdict.rule.map(|r| r.as_str()), Some("HttpTlsArrival"));
        assert!(!sink.offer(&arrivals[5]).classified, "unknown domain");
    }

    #[test]
    fn portable_form_round_trips_through_json() {
        let (reg, arrivals) = stream();
        let agg = CorrelationAggregates::from_arrivals(&reg, &arrivals, &SinkConfig::streaming());
        assert!(agg.classified > 0, "fixture must exercise every map");
        let json = serde_json::to_string_pretty(&agg.to_portable()).unwrap();
        let portable: PortableAggregates = serde_json::from_str(&json).unwrap();
        let back = CorrelationAggregates::from_portable(&portable).unwrap();
        assert_eq!(back, agg);
        // Rendering is deterministic: same aggregates, same bytes.
        assert_eq!(
            serde_json::to_string_pretty(&back.to_portable()).unwrap(),
            json
        );
    }

    #[test]
    fn portable_form_rejects_foreign_histogram_layout() {
        let (reg, arrivals) = stream();
        let agg = CorrelationAggregates::from_arrivals(&reg, &arrivals, &SinkConfig::streaming());
        let mut portable = agg.to_portable();
        assert!(!portable.interval_hists.is_empty());
        portable.interval_hists[0].2.push(0); // one bucket too many
        assert!(CorrelationAggregates::from_portable(&portable).is_none());
    }

    #[test]
    fn interval_histogram_is_exact_at_edges() {
        let mut hist = IntervalHistogram::default();
        for ms in [500, 1_000, 1_001, 60_000, 3_600_001, 86_400_000] {
            hist.record(ms);
        }
        assert_eq!(hist.total(), 6);
        assert_eq!(hist.cumulative_at(1_000), Some(2));
        assert_eq!(hist.cumulative_at(60_000), Some(4));
        assert_eq!(hist.cumulative_at(86_400_000), Some(6));
        assert_eq!(hist.cumulative_at(1_234), None, "not a bucket edge");
        // Rank 3 (0-based) is 60_000 ms, in the (10 s, 1 min] bucket.
        assert_eq!(hist.median_upper_edge_ms(), Some(60_000));
        assert_eq!(
            hist.fraction_between(SimDuration::from_mins(55), SimDuration::from_mins(65)),
            Some(1.0 / 6.0)
        );
        assert_eq!(IntervalHistogram::default().median_upper_edge_ms(), None);
        let mut overflow = IntervalHistogram::default();
        overflow.record(u64::MAX);
        assert_eq!(overflow.median_upper_edge_ms(), None, "past the last edge");
    }
}
