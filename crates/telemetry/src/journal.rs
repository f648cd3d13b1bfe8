//! The structured event journal and the [`Telemetry`] handle that feeds it.
//!
//! Every record is a typed event ([`EventKind`]) stamped with sim-time,
//! shard id, and (when the event happened *at* a node) a node id. Events
//! split into two classes:
//!
//! * **world events** — facts about simulated traffic (a decoy left a VP, a
//!   tap saw a packet, a TTL expired, a honeypot captured an arrival …).
//!   Their [`JournalRecord::diff_key`] deliberately excludes the shard id
//!   and emission sequence, so the sorted world-event stream of a sharded
//!   run is identical to the sequential run's for the same seed.
//! * **meta events** ([`EventKind::is_meta`]) — run-structure markers
//!   (shard merges, phase boundaries). They stay in the journal for
//!   auditing but are skipped by [`crate::diff`].
//!
//! Records buffer in memory behind a mutex (one journal per shard — no
//! cross-thread contention) and are drained in emission order. A handle's
//! `seq` counter keeps running across drains, so (shard, seq) is unique
//! within a run, and [`sort_records`] on the concatenation of every
//! drained journal yields the total key order in one pass. The study
//! makes that one sort, then the journal is written as JSONL.
//!
//! Records are compact: a fixed label (protocol, transport, rule) is a
//! one-byte [`Label`] or [`IpLabel`], and a domain or honeypot name is an
//! `Arc<str>` shared with the emitter's own copy, so a record is at most
//! 80 bytes and no event allocates a label string. Both serialize as the
//! strings the journal has always carried.

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use serde::{Content, DeError, Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::io::BufRead;
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A fixed journal label: a decoy or arrival protocol, an encrypted
/// transport, or a §3 rule name. Emitters map their own enums onto it.
/// It serializes as [`Label::as_str`], and a string that names no label
/// fails to deserialize.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub enum Label {
    Dns,
    Http,
    Https,
    Tls,
    Dot,
    Doh,
    Doq,
    Ech,
    SolicitedResolution,
    CrossProtocol,
    HttpTlsArrival,
    RepeatedDnsQuery,
    ReplicationNoise,
}

impl Label {
    /// Every label.
    const ALL: [Label; 13] = [
        Label::Dns,
        Label::Http,
        Label::Https,
        Label::Tls,
        Label::Dot,
        Label::Doh,
        Label::Doq,
        Label::Ech,
        Label::SolicitedResolution,
        Label::CrossProtocol,
        Label::HttpTlsArrival,
        Label::RepeatedDnsQuery,
        Label::ReplicationNoise,
    ];

    /// The string the journal carries.
    pub fn as_str(self) -> &'static str {
        match self {
            Label::Dns => "DNS",
            Label::Http => "HTTP",
            Label::Https => "HTTPS",
            Label::Tls => "TLS",
            Label::Dot => "dot",
            Label::Doh => "doh",
            Label::Doq => "doq",
            Label::Ech => "ech",
            Label::SolicitedResolution => "SolicitedResolution",
            Label::CrossProtocol => "CrossProtocol",
            Label::HttpTlsArrival => "HttpTlsArrival",
            Label::RepeatedDnsQuery => "RepeatedDnsQuery",
            Label::ReplicationNoise => "ReplicationNoise",
        }
    }

    /// The label that renders as `s`, if any.
    fn parse(s: &str) -> Option<Label> {
        Label::ALL.into_iter().find(|label| label.as_str() == s)
    }
}

/// The IP protocol a tap saw, kept as its protocol number: "ICMP", "TCP"
/// and "UDP" for 1, 6 and 17, and "IP(n)" for any other number n.
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct IpLabel(u8);

impl IpLabel {
    pub fn new(number: u8) -> Self {
        IpLabel(number)
    }

    fn name(self) -> Option<&'static str> {
        match self.0 {
            1 => Some("ICMP"),
            6 => Some("TCP"),
            17 => Some("UDP"),
            _ => None,
        }
    }

    /// The label that renders as `s`, if any: "IP(6)" and "IP(06)" are
    /// not strings the journal writes, so they parse to nothing.
    fn parse(s: &str) -> Option<IpLabel> {
        match s {
            "ICMP" => Some(IpLabel(1)),
            "TCP" => Some(IpLabel(6)),
            "UDP" => Some(IpLabel(17)),
            _ => {
                let digits = s.strip_prefix("IP(")?.strip_suffix(')')?;
                let label = IpLabel(digits.parse().ok()?);
                (label.to_string() == s).then_some(label)
            }
        }
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl fmt::Display for IpLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.name() {
            Some(name) => f.write_str(name),
            None => write!(f, "IP({})", self.0),
        }
    }
}

// `Debug` prints the journal string, quoted, so a record's `Debug` (the
// form `journal_diff` reports a divergence in) reads as it did when the
// labels were strings.
impl fmt::Debug for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for IpLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.to_string(), f)
    }
}

impl Serialize for Label {
    fn serialize_content(&self) -> Content {
        Content::Str(self.as_str().to_string())
    }
}

impl Serialize for IpLabel {
    fn serialize_content(&self) -> Content {
        Content::Str(self.to_string())
    }
}

impl Deserialize for Label {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        parse_label(content, Label::parse)
    }
}

impl Deserialize for IpLabel {
    fn deserialize_content(content: &Content) -> Result<Self, DeError> {
        parse_label(content, IpLabel::parse)
    }
}

fn parse_label<T>(content: &Content, parse: fn(&str) -> Option<T>) -> Result<T, DeError> {
    match content {
        Content::Str(s) => {
            parse(s).ok_or_else(|| DeError::new(format!("unknown journal label `{s}`")))
        }
        other => Err(DeError::mismatch("journal label", other)),
    }
}

/// A typed journal event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A decoy was posted from a vantage point.
    DecoySent {
        protocol: Label,
        domain: Arc<str>,
        vp: u32,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// An on-path wire tap observed a packet at a router.
    TapObserved {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: IpLabel,
    },
    /// A TTL hit zero at a router that answers with ICMP Time Exceeded.
    IcmpTimeExceeded {
        expired_src: Ipv4Addr,
        expired_dst: Ipv4Addr,
    },
    /// A honeypot captured a request bearing an experiment domain.
    ArrivalCaptured {
        honeypot: Arc<str>,
        protocol: Label,
        domain: Arc<str>,
        src: Ipv4Addr,
    },
    /// A shadowing pipeline scheduled a future probe for a retained name.
    ShadowProbeScheduled { domain: Arc<str> },
    /// The streaming correlation sink classified an arrival at capture
    /// time. `rule` is only present for unsolicited arrivals: attributing
    /// solicited-vs-replication is a same-millisecond tie-break whose
    /// winner depends on engine event order, so naming it would make
    /// journals shard-sensitive; the unsolicited rules are order-invariant.
    ArrivalClassified {
        honeypot: Arc<str>,
        protocol: Label,
        domain: Arc<str>,
        src: Ipv4Addr,
        unsolicited: bool,
        rule: Option<Label>,
    },
    /// Meta: one shard's campaign data was absorbed into the merge.
    ShardMerged {
        shard: u32,
        arrivals: u64,
        decoys: u64,
    },
    /// Meta: a named phase finished on one shard.
    PhaseEnded { phase: String, shard: u32 },
    /// Meta: one shard finished folding its router-graph contribution
    /// from Phase II Time-Exceeded evidence.
    RouterGraphBuilt {
        shard: u32,
        /// Distinct probe paths with at least one revealed hop.
        paths: u64,
        /// Raw Time-Exceeded observations folded (pre-dedup).
        observations: u64,
    },
    /// An on-path wire tap saw an encrypted flow it could not name: a
    /// DoT/DoH/DoQ frame or an ECH hello. `transport` is the modeled
    /// encrypted transport; `classified` is the IP-fingerprint fallback's
    /// site attribution, when the destination matched the fingerprint DB.
    EncryptedFlowTapped {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        transport: Label,
        classified: Option<String>,
    },
}

impl EventKind {
    /// Meta events describe the *run*, not the simulated world; journal
    /// diffs skip them (a 4-shard run legitimately has more merges than a
    /// sequential one).
    pub fn is_meta(&self) -> bool {
        matches!(
            self,
            EventKind::ShardMerged { .. }
                | EventKind::PhaseEnded { .. }
                | EventKind::RouterGraphBuilt { .. }
        )
    }

    /// Stable rank for the total key order (ties on sim-time break on
    /// event type first, payload second).
    pub fn rank(&self) -> u8 {
        match self {
            EventKind::DecoySent { .. } => 0,
            EventKind::TapObserved { .. } => 1,
            EventKind::IcmpTimeExceeded { .. } => 2,
            EventKind::ArrivalCaptured { .. } => 3,
            EventKind::ShadowProbeScheduled { .. } => 4,
            // Rank 5 stays unused: ranks never move, so journals written
            // earlier keep their total order.
            EventKind::ShardMerged { .. } => 6,
            EventKind::PhaseEnded { .. } => 7,
            EventKind::ArrivalClassified { .. } => 8,
            EventKind::RouterGraphBuilt { .. } => 9,
            // Append-only: new kinds take the next rank so existing
            // journals keep their total order.
            EventKind::EncryptedFlowTapped { .. } => 10,
        }
    }
}

/// One journal line.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct JournalRecord {
    /// Simulated milliseconds since campaign start.
    pub at_ms: u64,
    /// Shard that emitted the record (0 for a sequential run).
    pub shard: u32,
    /// Topology node the event happened at, if any.
    pub node: Option<u32>,
    /// Per-shard emission sequence (tiebreaker for in-shard ordering);
    /// it keeps counting across phases and drains.
    pub seq: u64,
    pub event: EventKind,
}

impl JournalRecord {
    /// The leading fields of both keys below: (sim-time, event rank,
    /// node + 1, or 0 for none). It renders nothing.
    pub(crate) fn order_prefix(&self) -> (u64, u8, u32) {
        (
            self.at_ms,
            self.event.rank(),
            self.node.map(|n| n + 1).unwrap_or(0),
        )
    }

    /// The shard-independent total key [`crate::diff`] aligns on:
    /// (sim-time, event rank, node, canonical payload). Two world events
    /// from different shard counts compare equal iff they describe the
    /// same simulated fact.
    pub fn diff_key(&self) -> (u64, u8, u32, String) {
        let (at, rank, node) = self.order_prefix();
        (
            at,
            rank,
            node,
            serde_json::to_string(&self.event).unwrap_or_default(),
        )
    }

    /// The full deterministic sort key: diff key, then shard, then
    /// emission order — a total order over any record set.
    pub fn sort_key(&self) -> (u64, u8, u32, String, u32, u64) {
        let (at, rank, node, payload) = self.diff_key();
        (at, rank, node, payload, self.shard, self.seq)
    }
}

/// Sort records into the canonical total order (deterministic for a fixed
/// seed and shard count; world-event prefix identical across shard counts):
/// the order of [`JournalRecord::sort_key`]. An in-place sort on the
/// key's (sim-time, rank, node) prefix comes first; only the records of a
/// run that ties on it are then sorted on the full key, so only they have
/// their payload rendered.
pub fn sort_records(records: &mut [JournalRecord]) {
    // Unstable is exact here: every tie on the prefix is re-sorted below,
    // and the sort key is total.
    records.sort_unstable_by_key(JournalRecord::order_prefix);
    sort_prefix_ties(records, JournalRecord::sort_key);
}

/// Sort every run of `records` (already in prefix order) that ties on
/// [`JournalRecord::order_prefix`] by `key`, which must extend the
/// prefix: only the records of such a run have `key` computed. Stable.
pub(crate) fn sort_prefix_ties<R: Borrow<JournalRecord>, K: Ord>(
    records: &mut [R],
    key: impl Fn(&JournalRecord) -> K,
) {
    let prefix = |r: &R| r.borrow().order_prefix();
    let mut start = 0;
    while start < records.len() {
        let first = prefix(&records[start]);
        let ties = records[start..]
            .iter()
            .take_while(|r| prefix(r) == first)
            .count();
        if ties > 1 {
            records[start..start + ties].sort_by_cached_key(|r| key(r.borrow()));
        }
        start += ties;
    }
}

/// Serialize records as JSONL, one record per line, in the given order.
pub fn to_jsonl(records: &[JournalRecord]) -> Result<String, serde_json::Error> {
    let mut out = String::new();
    for record in records {
        out.push_str(&serde_json::to_string(record)?);
        out.push('\n');
    }
    Ok(out)
}

/// Parse a JSONL journal line by line, so only one line's text is held
/// at a time (text already in memory parses from `text.as_bytes()`).
/// Blank lines are skipped; an unreadable or malformed line is an error
/// naming its line number.
pub fn from_jsonl(input: impl BufRead) -> Result<Vec<JournalRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        let line = line.map_err(|e| format!("journal line {}: {e}", i + 1))?;
        if line.trim().is_empty() {
            continue;
        }
        let record: JournalRecord =
            serde_json::from_str(&line).map_err(|e| format!("journal line {}: {e:?}", i + 1))?;
        out.push(record);
    }
    Ok(out)
}

struct JournalBuf {
    seq: u64,
    records: Vec<JournalRecord>,
}

struct TelemetryInner {
    shard: u32,
    metrics: MetricsRegistry,
    journal: Option<Mutex<JournalBuf>>,
}

/// The cloneable telemetry handle an engine (and its hosts/taps) write
/// through. `Telemetry::disabled()` is the default everywhere: a `None`
/// that every emit path checks first, so disabled instrumentation costs a
/// predicted branch and nothing else — no allocation, no atomics.
#[derive(Clone, Default)]
pub struct Telemetry(Option<Arc<TelemetryInner>>);

impl Telemetry {
    /// The no-op handle.
    pub fn disabled() -> Self {
        Telemetry(None)
    }

    /// Metrics-only telemetry for one shard.
    pub fn metrics_only(shard: u32) -> Self {
        Self::new(shard, false)
    }

    /// Telemetry for one shard; `journal` additionally buffers events.
    pub fn new(shard: u32, journal: bool) -> Self {
        Telemetry(Some(Arc::new(TelemetryInner {
            shard,
            metrics: MetricsRegistry::default(),
            journal: journal.then(|| {
                Mutex::new(JournalBuf {
                    seq: 0,
                    records: Vec::new(),
                })
            }),
        })))
    }

    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.0.is_some()
    }

    #[inline]
    pub fn journal_enabled(&self) -> bool {
        self.0.as_ref().is_some_and(|i| i.journal.is_some())
    }

    pub fn shard(&self) -> u32 {
        self.0.as_ref().map(|i| i.shard).unwrap_or(0)
    }

    /// The live metrics registry, when enabled. Hot paths gate on this:
    /// `if let Some(m) = telemetry.metrics() { m.counter.inc() }`.
    #[inline]
    pub fn metrics(&self) -> Option<&MetricsRegistry> {
        self.0.as_ref().map(|i| &i.metrics)
    }

    /// Append an event. The payload closure only runs when a journal is
    /// attached — disabled or metrics-only handles never allocate here.
    #[inline]
    pub fn event(&self, at_ms: u64, node: Option<u32>, build: impl FnOnce() -> EventKind) {
        let Some(inner) = &self.0 else { return };
        let Some(journal) = &inner.journal else {
            return;
        };
        let mut buf = journal.lock();
        let seq = buf.seq;
        buf.seq += 1;
        buf.records.push(JournalRecord {
            at_ms,
            shard: inner.shard,
            node,
            seq,
            event: build(),
        });
    }

    /// Freeze-and-reset the metrics into a snapshot attributed to this
    /// shard. Disabled handles return the empty snapshot.
    pub fn take_snapshot(&self) -> MetricsSnapshot {
        match &self.0 {
            Some(inner) => inner.metrics.take_snapshot(inner.shard),
            None => MetricsSnapshot::default(),
        }
    }

    /// Drain buffered journal records (unsorted emission order). The
    /// sequence counter is not reset.
    pub fn drain_journal(&self) -> Vec<JournalRecord> {
        match &self.0 {
            Some(inner) => match &inner.journal {
                Some(journal) => std::mem::take(&mut journal.lock().records),
                None => Vec::new(),
            },
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decoy(at: u64, shard: u32, domain: &str) -> JournalRecord {
        JournalRecord {
            at_ms: at,
            shard,
            node: Some(3),
            seq: 0,
            event: EventKind::DecoySent {
                protocol: Label::Dns,
                domain: domain.into(),
                vp: 1,
                dst: Ipv4Addr::new(77, 88, 8, 8),
                ttl: 64,
            },
        }
    }

    #[test]
    fn disabled_handle_is_inert() {
        let t = Telemetry::disabled();
        assert!(!t.is_enabled());
        t.event(1, None, || unreachable!("closure must not run"));
        assert!(t.take_snapshot().is_empty());
        assert!(t.drain_journal().is_empty());
    }

    #[test]
    fn metrics_only_skips_journal_payloads() {
        let t = Telemetry::metrics_only(0);
        assert!(t.is_enabled());
        assert!(!t.journal_enabled());
        t.event(1, None, || unreachable!("no journal attached"));
        t.metrics().unwrap().tap_observations.inc();
        assert_eq!(t.take_snapshot().world.tap_observations, 1);
    }

    #[test]
    fn events_stamp_shard_node_and_sequence() {
        let t = Telemetry::new(5, true);
        t.event(10, Some(2), || EventKind::PhaseEnded {
            phase: "phase1".to_string(),
            shard: 5,
        });
        t.event(10, Some(2), || EventKind::PhaseEnded {
            phase: "phase2".to_string(),
            shard: 5,
        });
        let records = t.drain_journal();
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].shard, 5);
        assert_eq!(records[0].node, Some(2));
        assert_eq!(records[0].seq, 0);
        assert_eq!(records[1].seq, 1);
        assert!(t.drain_journal().is_empty(), "drain resets the buffer");
    }

    #[test]
    fn sequence_keeps_counting_across_drains() {
        // A handle's `seq` numbers every record it ever emits, so (shard,
        // seq) stays unique across a study's phases and one sort of their
        // concatenated journals is the canonical order.
        let t = Telemetry::new(0, true);
        let phase_end = || EventKind::PhaseEnded {
            phase: "phase1".to_string(),
            shard: 0,
        };
        t.event(10, None, phase_end);
        t.event(10, None, phase_end);
        assert_eq!(t.drain_journal().last().map(|r| r.seq), Some(1));
        t.event(10, None, phase_end);
        let records = t.drain_journal();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].seq, 2, "drain must not reset the sequence");
    }

    #[test]
    fn diff_key_ignores_shard_but_sort_key_is_total() {
        let a = decoy(100, 0, "x.example");
        let mut b = decoy(100, 7, "x.example");
        b.seq = 9;
        assert_eq!(a.diff_key(), b.diff_key());
        assert_ne!(a.sort_key(), b.sort_key());
    }

    #[test]
    fn jsonl_roundtrips_and_sorts() {
        let mut records = vec![
            decoy(200, 1, "b.example"),
            decoy(100, 0, "a.example"),
            decoy(100, 0, "c.example"),
        ];
        sort_records(&mut records);
        assert_eq!(records[0].at_ms, 100);
        let text = to_jsonl(&records).unwrap();
        assert_eq!(text.lines().count(), 3);
        let parsed = from_jsonl(text.as_bytes()).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn from_jsonl_skips_blank_lines_and_names_a_bad_one() {
        let records = vec![decoy(100, 0, "a.example"), decoy(200, 1, "b.example")];
        let text = to_jsonl(&records).unwrap();
        let mut lines: Vec<&str> = text.lines().collect();
        lines.insert(1, "  ");
        assert_eq!(from_jsonl(lines.join("\r\n").as_bytes()), Ok(records));
        lines.push("{\"at_ms\":");
        let err = from_jsonl(lines.join("\n").as_bytes()).unwrap_err();
        assert!(err.starts_with("journal line 4: "), "{err}");
    }

    fn record(at: u64, shard: u32, seq: u64, node: Option<u32>, event: EventKind) -> JournalRecord {
        JournalRecord {
            at_ms: at,
            shard,
            node,
            seq,
            event,
        }
    }

    fn sent(ttl: u8, dst: [u8; 4], domain: &str) -> EventKind {
        EventKind::DecoySent {
            protocol: Label::Dns,
            domain: domain.into(),
            vp: 1,
            dst: Ipv4Addr::from(dst),
            ttl,
        }
    }

    fn tapped(protocol: u8) -> EventKind {
        EventKind::TapObserved {
            src: Ipv4Addr::new(10, 0, 0, 1),
            dst: Ipv4Addr::new(8, 8, 8, 8),
            protocol: IpLabel::new(protocol),
        }
    }

    /// Records whose order the prefix alone does not decide.
    fn tie_fixtures() -> Vec<JournalRecord> {
        vec![
            // A last numeric field compares as text: "ttl":50} < "ttl":5}.
            record(100, 0, 0, Some(3), sent(5, [1, 1, 1, 1], "a.example")),
            record(100, 0, 1, Some(3), sent(50, [1, 1, 1, 1], "a.example")),
            // So do addresses: "10.0.0.1" < "9.0.0.1".
            record(200, 0, 2, Some(3), sent(64, [9, 0, 0, 1], "a.example")),
            record(200, 0, 3, Some(3), sent(64, [10, 0, 0, 1], "a.example")),
            // A domain sorts before the domains it prefixes.
            record(300, 0, 4, Some(3), sent(64, [1, 1, 1, 1], "a.example.org")),
            record(300, 0, 5, Some(3), sent(64, [1, 1, 1, 1], "a.example")),
            // Equal payloads order by shard, then seq.
            record(400, 1, 0, Some(3), sent(64, [1, 1, 1, 1], "a.example")),
            record(400, 0, 9, Some(3), sent(64, [1, 1, 1, 1], "a.example")),
            record(400, 0, 7, Some(3), sent(64, [1, 1, 1, 1], "a.example")),
            // The prefix alone decides these: no node first, then rank.
            record(400, 0, 8, None, sent(64, [1, 1, 1, 1], "a.example")),
            record(400, 0, 10, Some(3), tapped(6)),
            record(50, 2, 0, Some(9), tapped(17)),
        ]
    }

    /// The fixtures in their own order, every rotation, reversed and
    /// strided.
    fn fixture_orders() -> Vec<Vec<JournalRecord>> {
        let records = tie_fixtures();
        let n = records.len();
        let mut orders: Vec<Vec<usize>> = (0..n)
            .map(|k| (0..n).map(|i| (i + k) % n).collect())
            .collect();
        orders.push((0..n).rev().collect());
        orders.push((0..n).map(|i| i * 5 % n).collect());
        orders
            .into_iter()
            .map(|order| order.iter().map(|&i| records[i].clone()).collect())
            .collect()
    }

    #[test]
    fn sort_records_is_the_full_key_sort_on_ties() {
        let records = tie_fixtures();
        let mut reference = records.clone();
        reference.sort_by_cached_key(JournalRecord::sort_key);
        let order: Vec<(u32, u64)> = reference.iter().map(|r| (r.shard, r.seq)).collect();
        assert_eq!(
            order,
            [
                (2, 0),
                (0, 1),
                (0, 0),
                (0, 3),
                (0, 2),
                (0, 5),
                (0, 4),
                (0, 8),
                (0, 7),
                (0, 9),
                (1, 0),
                (0, 10),
            ]
        );
        for mut shuffled in fixture_orders() {
            let from = shuffled.clone();
            sort_records(&mut shuffled);
            assert_eq!(shuffled, reference, "from order {from:?}");
        }
    }

    #[test]
    fn diff_order_is_the_stable_diff_key_sort() {
        for shuffled in fixture_orders() {
            let mut reference: Vec<&JournalRecord> = shuffled.iter().collect();
            reference.sort_by_cached_key(|r| r.diff_key());
            let sorted = crate::diff::world_events_sorted(&shuffled);
            let seqs =
                |v: &[&JournalRecord]| v.iter().map(|r| (r.shard, r.seq)).collect::<Vec<_>>();
            assert_eq!(seqs(&sorted), seqs(&reference), "from order {shuffled:?}");
        }
    }

    #[test]
    fn journal_record_stays_80_bytes() {
        // A 3-wave daemon campaign holds about half a million of them.
        assert!(std::mem::size_of::<JournalRecord>() <= 80);
    }

    #[test]
    fn compact_fields_render_as_the_journal_strings() {
        let tap = record(7, 1, 3, Some(2), tapped(6));
        let line = serde_json::to_string(&tap).unwrap();
        assert_eq!(
            line,
            r#"{"at_ms":7,"shard":1,"node":2,"seq":3,"event":{"TapObserved":{"src":"10.0.0.1","dst":"8.8.8.8","protocol":"TCP"}}}"#
        );
        assert_eq!(serde_json::from_str::<JournalRecord>(&line).unwrap(), tap);
        let classified = EventKind::ArrivalClassified {
            honeypot: "US".into(),
            protocol: Label::Https,
            domain: "x.example".into(),
            src: Ipv4Addr::new(192, 0, 2, 1),
            unsolicited: true,
            rule: Some(Label::CrossProtocol),
        };
        let line = serde_json::to_string(&classified).unwrap();
        assert_eq!(
            line,
            r#"{"ArrivalClassified":{"honeypot":"US","protocol":"HTTPS","domain":"x.example","src":"192.0.2.1","unsolicited":true,"rule":"CrossProtocol"}}"#
        );
        assert_eq!(
            serde_json::from_str::<EventKind>(&line).unwrap(),
            classified
        );
        // `Debug` (journal_diff's divergence report) quotes labels as it
        // quoted the strings.
        assert_eq!(
            format!("{:?}", tapped(47)),
            r#"TapObserved { src: 10.0.0.1, dst: 8.8.8.8, protocol: "IP(47)" }"#
        );
    }

    #[test]
    fn labels_parse_what_they_render_and_nothing_else() {
        for label in Label::ALL {
            let content = label.serialize_content();
            assert_eq!(content, Content::Str(label.as_str().to_string()));
            assert_eq!(Label::deserialize_content(&content), Ok(label));
        }
        for n in 0..=u8::MAX {
            let label = IpLabel::new(n);
            assert_eq!(IpLabel::parse(&label.to_string()), Some(label), "{label}");
        }
        let names: Vec<String> = [1, 6, 17, 47].map(|n| IpLabel::new(n).to_string()).into();
        assert_eq!(names, ["ICMP", "TCP", "UDP", "IP(47)"]);
        for unknown in [
            "", "dns", "Tcp", "IP(6)", "IP(06)", "IP(256)", "IP(-1)", "IP()",
        ] {
            let content = Content::Str(unknown.to_string());
            for error in [
                Label::deserialize_content(&content).err(),
                IpLabel::deserialize_content(&content).err(),
            ] {
                let error = error.unwrap_or_else(|| panic!("`{unknown}` must not parse"));
                assert!(error.message().contains("unknown journal label"), "{error}");
            }
        }
        assert!(Label::deserialize_content(&Content::U64(1)).is_err());
    }

    #[test]
    fn meta_classification() {
        assert!(EventKind::ShardMerged {
            shard: 0,
            arrivals: 0,
            decoys: 0
        }
        .is_meta());
        assert!(!decoy(0, 0, "d").event.is_meta());
    }
}
