//! Event-journal determinism.
//!
//! 1. Re-running the same seed + shard count reproduces a **byte-identical**
//!    serialized journal (the canonical sort makes merge order irrelevant),
//!    whose record count, byte length and FNV-1a digest are pinned.
//! 2. Journals from different shard counts align under `journal diff`'s
//!    total event key order: the same world events occur at the same
//!    sim-times regardless of how the VPs were partitioned.
//! 3. The per-chunk `ShardMerged` audit records account for every arrival.
//! 4. A mixed-encryption, lossy journal, which carries every label family
//!    (decoy, tap and arrival protocols, encrypted transports, rules), is
//!    pinned too, the one sort restores a shuffled journal, and
//!    `journal diff` orders that shuffle as the full diff-key sort would.

use std::collections::BTreeSet;
use traffic_shadowing::shadow_chaos::{FaultProfile, RetrySpec};
use traffic_shadowing::shadow_core::executor::TelemetryOptions;
use traffic_shadowing::shadow_netsim::fault::fnv1a64;
use traffic_shadowing::shadow_packet::transport::{splitmix64, EncryptionDeployment};
use traffic_shadowing::shadow_telemetry::diff::world_events_sorted;
use traffic_shadowing::shadow_telemetry::{
    diff, from_jsonl, sort_records, to_jsonl, EventKind, JournalRecord,
};
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

/// The same three values for the mixed-encryption, 2%-loss tiny world of
/// `full_campaign 7 --tiny --encryption mixed --loss 2 [--shards 2]
/// --journal`.
const LABELLED_PINNED: [(Option<usize>, usize, usize, u64); 2] = [
    (None, 4_034, 705_939, 0x8c9b_6f9c_37cf_1909),
    (Some(2), 4_039, 705_539, 0x3f40_43b5_2da4_955f),
];

/// `full_campaign 7 --tiny --encryption mixed --loss 2`'s configuration,
/// journal on.
fn labelled_config() -> StudyConfig {
    let mut config = StudyConfig {
        telemetry: TelemetryOptions::enabled(true),
        faults: Some(FaultProfile {
            dns_retry: Some(RetrySpec::STANDARD),
            ..FaultProfile::with_loss("loss2%", 0.02, 1)
        }),
        ..StudyConfig::tiny(7)
    };
    config.phase1.encryption = EncryptionDeployment::mixed();
    config
}

fn journal_with(config: StudyConfig, shards: Option<usize>) -> Vec<JournalRecord> {
    let outcome = match shards {
        Some(k) => Study::run_sharded(config, k),
        None => Study::run(config),
    };
    outcome.journal.expect("journal enabled")
}

fn journal_of(shards: Option<usize>) -> Vec<JournalRecord> {
    journal_with(config(), shards)
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
        let reparsed = from_jsonl(first.as_bytes()).expect("parses");
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

#[test]
fn mixed_encryption_lossy_journals_are_pinned() {
    for (shards, records, bytes, digest) in LABELLED_PINNED {
        let journal = journal_with(labelled_config(), shards);
        let text = to_jsonl(&journal).expect("serializes");
        assert_eq!(
            (journal.len(), text.len(), fnv1a64(text.as_bytes())),
            (records, bytes, digest),
            "shards {shards:?}: journal records, bytes or digest moved"
        );
        assert!(
            journal.iter().any(|r| matches!(
                &r.event,
                EventKind::EncryptedFlowTapped {
                    classified: Some(_),
                    ..
                }
            )),
            "shards {shards:?}: no fingerprinted encrypted flow"
        );
        let rules: BTreeSet<String> = journal
            .iter()
            .filter_map(|r| match &r.event {
                EventKind::ArrivalClassified {
                    rule: Some(rule), ..
                } => Some(rule.to_string()),
                _ => None,
            })
            .collect();
        assert!(rules.len() >= 3, "shards {shards:?}: rules {rules:?}");
        let reparsed = from_jsonl(text.as_bytes()).expect("parses");
        assert_eq!(reparsed, journal);
    }
}

/// The pinned 2-shard labelled journal and a seeded shuffle of it.
fn shuffled_labelled_journal() -> (Vec<JournalRecord>, Vec<JournalRecord>) {
    let journal = journal_with(labelled_config(), Some(2));
    let mut shuffled = journal.clone();
    let mut state = 0x5eed;
    for i in (1..shuffled.len()).rev() {
        let j = (splitmix64(&mut state) % (i as u64 + 1)) as usize;
        shuffled.swap(i, j);
    }
    assert_ne!(shuffled, journal);
    (journal, shuffled)
}

#[test]
fn sort_records_restores_a_shuffled_journal() {
    let (journal, mut shuffled) = shuffled_labelled_journal();
    let mut reference = shuffled.clone();
    reference.sort_by_cached_key(JournalRecord::sort_key);
    sort_records(&mut shuffled);
    assert_eq!(shuffled, reference);
    assert_eq!(shuffled, journal);
}

#[test]
fn diff_order_is_the_diff_key_sort_of_a_shuffled_journal() {
    let (_, shuffled) = shuffled_labelled_journal();
    let mut reference: Vec<&JournalRecord> =
        shuffled.iter().filter(|r| !r.event.is_meta()).collect();
    reference.sort_by_cached_key(|r| r.diff_key());
    let sorted = world_events_sorted(&shuffled);
    assert_eq!(sorted.len(), reference.len());
    assert!(
        sorted
            .iter()
            .zip(&reference)
            .all(|(a, b)| std::ptr::eq(*a, *b)),
        "journal_diff orders a shuffled journal as the full diff-key sort does"
    );
}
