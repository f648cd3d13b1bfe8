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

use crate::metrics::{MetricsRegistry, MetricsSnapshot};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::net::Ipv4Addr;
use std::sync::Arc;

/// A typed journal event.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum EventKind {
    /// A decoy was posted from a vantage point.
    DecoySent {
        protocol: String,
        domain: String,
        vp: u32,
        dst: Ipv4Addr,
        ttl: u8,
    },
    /// An on-path wire tap observed a packet at a router.
    TapObserved {
        src: Ipv4Addr,
        dst: Ipv4Addr,
        protocol: String,
    },
    /// A TTL hit zero at a router that answers with ICMP Time Exceeded.
    IcmpTimeExceeded {
        expired_src: Ipv4Addr,
        expired_dst: Ipv4Addr,
    },
    /// A honeypot captured a request bearing an experiment domain.
    ArrivalCaptured {
        honeypot: String,
        protocol: String,
        domain: String,
        src: Ipv4Addr,
    },
    /// A shadowing pipeline scheduled a future probe for a retained name.
    ShadowProbeScheduled { domain: String },
    /// The streaming correlation sink classified an arrival at capture
    /// time. `rule` is only present for unsolicited arrivals: attributing
    /// solicited-vs-replication is a same-millisecond tie-break whose
    /// winner depends on engine event order, so naming it would make
    /// journals shard-sensitive; the unsolicited rules are order-invariant.
    ArrivalClassified {
        honeypot: String,
        protocol: String,
        domain: String,
        src: Ipv4Addr,
        unsolicited: bool,
        rule: Option<String>,
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
        transport: String,
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
    /// The shard-independent total key [`crate::diff`] aligns on:
    /// (sim-time, event rank, node, canonical payload). Two world events
    /// from different shard counts compare equal iff they describe the
    /// same simulated fact.
    pub fn diff_key(&self) -> (u64, u8, u32, String) {
        (
            self.at_ms,
            self.event.rank(),
            self.node.map(|n| n + 1).unwrap_or(0),
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
/// seed and shard count; world-event prefix identical across shard counts).
pub fn sort_records(records: &mut [JournalRecord]) {
    records.sort_by_cached_key(|r| r.sort_key());
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

/// Parse a JSONL journal. Blank lines are skipped; any malformed line is an
/// error naming its line number.
pub fn from_jsonl(input: &str) -> Result<Vec<JournalRecord>, String> {
    let mut out = Vec::new();
    for (i, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let record: JournalRecord =
            serde_json::from_str(line).map_err(|e| format!("journal line {}: {e:?}", i + 1))?;
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
                protocol: "DNS".to_string(),
                domain: domain.to_string(),
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
        let parsed = from_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
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
