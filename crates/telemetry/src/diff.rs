//! `journal diff`: align two journals on the total event key order and
//! report the first divergence.
//!
//! Both inputs are filtered to world events (meta events describe run
//! structure, which legitimately differs between shard counts), sorted by
//! [`JournalRecord::diff_key`], and walked in lockstep. The first position
//! where the keys disagree is reported with both sides' records — turning
//! "the sharded run differs" into "at sim-time T, the left journal has
//! this event and the right journal has that one". Like
//! [`crate::sort_records`], both the sort and the walk compare the key's
//! unrendered (sim-time, rank, node) prefix first and render an event's
//! payload only where that prefix ties (the walk, only where the two
//! events also differ).

use crate::journal::{sort_prefix_ties, JournalRecord};

/// One side of a divergence (or its absence, when a journal ran out).
#[derive(Debug, Clone, PartialEq)]
pub struct Divergence {
    /// Index into the sorted, meta-filtered event stream.
    pub index: usize,
    /// The left journal's record at that index, if any.
    pub left: Option<JournalRecord>,
    /// The right journal's record at that index, if any.
    pub right: Option<JournalRecord>,
}

/// The outcome of diffing two journals.
#[derive(Debug, Clone, PartialEq)]
pub struct DiffReport {
    /// World events compared on each side.
    pub left_events: usize,
    pub right_events: usize,
    /// The first key mismatch, if any.
    pub first_divergence: Option<Divergence>,
}

impl DiffReport {
    pub fn identical(&self) -> bool {
        self.first_divergence.is_none()
    }

    /// Human-readable one-paragraph verdict.
    pub fn render(&self) -> String {
        match &self.first_divergence {
            None => format!(
                "journals identical: {} world events align on the total key order",
                self.left_events
            ),
            Some(d) => {
                let describe = |r: &Option<JournalRecord>| match r {
                    Some(r) => format!(
                        "t={}ms shard={} node={:?} {:?}",
                        r.at_ms, r.shard, r.node, r.event
                    ),
                    None => "<journal exhausted>".to_string(),
                };
                format!(
                    "journals diverge at world-event #{} ({} vs {} events)\n  left:  {}\n  right: {}",
                    d.index,
                    self.left_events,
                    self.right_events,
                    describe(&d.left),
                    describe(&d.right),
                )
            }
        }
    }
}

/// The world events of `records` in [`JournalRecord::diff_key`] order;
/// events with equal keys keep their input order (the order of a stable
/// sort on the key).
pub fn world_events_sorted(records: &[JournalRecord]) -> Vec<&JournalRecord> {
    let mut events: Vec<&JournalRecord> = records.iter().filter(|r| !r.event.is_meta()).collect();
    events.sort_by_key(|r| r.order_prefix());
    sort_prefix_ties(&mut events, JournalRecord::diff_key);
    events
}

/// Diff two journals on the total event key order.
pub fn diff(left: &[JournalRecord], right: &[JournalRecord]) -> DiffReport {
    let l = world_events_sorted(left);
    let r = world_events_sorted(right);
    let mut first_divergence = None;
    for i in 0..l.len().max(r.len()) {
        // Equal events render equal payloads, so only unequal events
        // under an equal prefix need their keys rendered.
        let same_key = match (l.get(i), r.get(i)) {
            (Some(a), Some(b)) => {
                a.order_prefix() == b.order_prefix()
                    && (a.event == b.event || a.diff_key() == b.diff_key())
            }
            _ => false,
        };
        if !same_key {
            first_divergence = Some(Divergence {
                index: i,
                left: l.get(i).map(|e| (*e).clone()),
                right: r.get(i).map(|e| (*e).clone()),
            });
            break;
        }
    }
    DiffReport {
        left_events: l.len(),
        right_events: r.len(),
        first_divergence,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{EventKind, IpLabel};
    use std::net::Ipv4Addr;

    fn tap(at: u64, shard: u32, last_octet: u8) -> JournalRecord {
        JournalRecord {
            at_ms: at,
            shard,
            node: Some(1),
            seq: 0,
            event: EventKind::TapObserved {
                src: Ipv4Addr::new(10, 0, 0, last_octet),
                dst: Ipv4Addr::new(8, 8, 8, 8),
                protocol: IpLabel::new(17),
            },
        }
    }

    fn meta(shard: u32) -> JournalRecord {
        JournalRecord {
            at_ms: 0,
            shard,
            node: None,
            seq: 0,
            event: EventKind::ShardMerged {
                shard,
                arrivals: 1,
                decoys: 2,
            },
        }
    }

    #[test]
    fn identical_up_to_shard_and_order() {
        let left = vec![tap(5, 0, 1), tap(1, 0, 2), meta(0)];
        let right = vec![tap(1, 3, 2), meta(0), meta(1), tap(5, 7, 1)];
        let report = diff(&left, &right);
        assert!(report.identical(), "{}", report.render());
        assert_eq!(report.left_events, 2);
        assert_eq!(report.right_events, 2);
    }

    #[test]
    fn first_divergence_is_pinpointed() {
        let left = vec![tap(1, 0, 1), tap(2, 0, 2)];
        let right = vec![tap(1, 0, 1), tap(2, 0, 3)];
        let report = diff(&left, &right);
        let d = report.first_divergence.clone().expect("diverges");
        assert_eq!(d.index, 1);
        assert_eq!(d.left.unwrap().at_ms, 2);
        assert!(report.render().contains("world-event #1"));
    }

    #[test]
    fn missing_tail_reports_exhaustion() {
        let left = vec![tap(1, 0, 1), tap(2, 0, 2)];
        let right = vec![tap(1, 0, 1)];
        let report = diff(&left, &right);
        let d = report.first_divergence.clone().expect("diverges");
        assert_eq!(d.index, 1);
        assert!(d.right.is_none());
        assert!(report.render().contains("<journal exhausted>"));
    }
}
