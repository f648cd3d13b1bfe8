//! Event-journal determinism.
//!
//! 1. Re-running the same seed + shard count reproduces a **byte-identical**
//!    serialized journal (the canonical sort makes merge order irrelevant),
//!    whose record count, byte length and FNV-1a digest are pinned.
//! 2. Journals from different shard counts align under `journal diff`'s
//!    total event key order: the same world events occur at the same
//!    sim-times regardless of how the VPs were partitioned.
//! 3. The per-chunk `ShardMerged` audit records account for every arrival.

use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::shadow_telemetry::{diff, from_jsonl, to_jsonl, EventKind, JournalRecord};
use traffic_shadowing::study::{Study, StudyConfig};

const SEED: u64 = 99;

/// Per shape: record count, JSONL byte length and FNV-1a digest of the
/// serialized journal (`full_campaign 99 --tiny [--shards 2] --journal`).
/// Any change to the journal's content or order moves these.
const PINNED: [(Option<usize>, usize, usize, u64); 2] = [
    (None, 30_101, 4_739_503, 0x178e_7692_f3b2_6a1c),
    (Some(2), 30_106, 4_728_993, 0xbab5_0511_0ccd_63fc),
];

fn config() -> StudyConfig {
    StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(SEED)
    }
}

fn journal_of(shards: Option<usize>) -> Vec<JournalRecord> {
    let outcome = match shards {
        Some(k) => Study::run_sharded(config(), k),
        None => Study::run(config()),
    };
    outcome.journal.expect("journal enabled")
}

#[test]
fn same_seed_and_shard_count_reproduce_identical_journals() {
    for (shards, records, bytes, digest) in PINNED {
        let journal = journal_of(shards);
        assert!(
            journal.is_sorted_by_key(JournalRecord::sort_key),
            "shards {shards:?}: the study must hand out the journal in sort-key order"
        );
        let first = to_jsonl(&journal).expect("serializes");
        let second = to_jsonl(&journal_of(shards)).expect("serializes");
        assert_eq!(
            first, second,
            "shards {shards:?}: repeated runs must serialize byte-identically"
        );
        assert_eq!(
            (journal.len(), first.len(), fnv1a64(first.as_bytes())),
            (records, bytes, digest),
            "shards {shards:?}: journal records, bytes or digest moved"
        );
        // And the serialization round-trips.
        let reparsed = from_jsonl(&first).expect("parses");
        assert_eq!(to_jsonl(&reparsed).expect("serializes"), first);
    }
}

#[test]
fn journals_align_across_shard_counts() {
    let sequential = journal_of(None);
    for k in [1usize, 2, 7] {
        let sharded = journal_of(Some(k));
        let report = diff(&sequential, &sharded);
        assert!(
            report.identical(),
            "K={k} diverges from sequential:\n{}",
            report.render()
        );
        assert!(report.left_events > 0, "diff compared no events");
    }
}

#[test]
fn shard_merged_records_count_every_arrival() {
    let outcome = Study::run_sharded(config(), 2);
    let journal = outcome.journal.as_ref().expect("journal enabled");
    let merged: Vec<u64> = journal
        .iter()
        .filter_map(|r| match r.event {
            EventKind::ShardMerged { arrivals, .. } => Some(arrivals),
            _ => None,
        })
        .collect();
    assert_eq!(merged.len(), 2, "one audit record per Phase I chunk");
    assert!(outcome.phase1.aggregates.arrivals_seen > 0);
    assert_eq!(
        merged.iter().sum::<u64>(),
        outcome.phase1.aggregates.arrivals_seen,
        "ShardMerged arrivals must sum to the merged sink's arrival count"
    );
}

#[test]
fn different_seeds_produce_different_journals() {
    let a = journal_of(None);
    let outcome = Study::run(StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        ..StudyConfig::tiny(SEED + 1)
    });
    let b = outcome.journal.expect("journal enabled");
    let report = diff(&a, &b);
    assert!(
        !report.identical(),
        "distinct seeds must produce distinct journals"
    );
}
