//! `shadow-telemetry`: run-wide observability for the simulator.
//!
//! The campaign pipeline is fundamentally about *observing* silent on-path
//! behavior, and this crate gives the pipeline the same property about
//! itself. Two pillars:
//!
//! * **Metrics** ([`metrics`]): a lock-free registry of atomic counters and
//!   fixed-bucket histograms. Every shard of a sharded run owns a private
//!   registry; snapshots are merged (commutatively) when shard outputs are
//!   absorbed, and the merged [`metrics::MetricsSnapshot`] is exported
//!   alongside the analysis bundle. The snapshot separates *world* counters
//!   (deterministic facts about simulated traffic — identical for any shard
//!   count, and checked to be so) from *run* diagnostics (per-shard queue
//!   depths, events drained, wall-clock — legitimately run-dependent).
//!
//! * **Event journal** ([`journal`]): an opt-in stream of typed events
//!   ([`journal::EventKind`]) stamped with sim-time, shard id, and node id.
//!   Events carry a shard-independent total key order ([`journal::diff`]
//!   aligns two journals on it), so "the sharded run differs from the
//!   sequential run" stops being a byte-diff mystery and becomes "the first
//!   divergent event is …".
//!
//! The whole crate is **zero-cost when disabled**: the [`Telemetry`] handle
//! is an `Option<Arc<…>>`, every emit path starts with an inlined `None`
//! check, and event payloads are built inside closures that never run for a
//! disabled handle — no allocation, no atomics, no formatting on the hot
//! path.

pub mod diff;
pub mod journal;
pub mod metrics;
pub mod tail;

pub use diff::{diff, DiffReport, Divergence};
pub use journal::{
    from_jsonl, sort_records, to_jsonl, EventKind, IpLabel, JournalRecord, Label, Telemetry,
};
pub use metrics::{HistogramSnapshot, MetricsRegistry, MetricsSnapshot};
pub use tail::{JournalTailHub, TailSubscriber};
