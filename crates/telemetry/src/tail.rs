//! Live journal tailing for the measurement daemon.
//!
//! A [`JournalTailHub`] fans the structured event journal out to any number
//! of concurrent subscribers (the `/api/journal/tail` SSE readers in
//! `shadow-serve`). The design goals, in order:
//!
//! 1. **The publisher never blocks.** Campaign threads call
//!    [`JournalTailHub::publish_records`] between waves; a slow or stalled
//!    HTTP reader must not be able to stall the measurement.
//! 2. **Bounded memory per subscriber.** Each subscriber owns a fixed-size
//!    ring of pre-rendered JSON lines. When a ring is full the *oldest*
//!    line is dropped and a hub-wide `events_dropped` counter is bumped —
//!    an explicit, observable backpressure story instead of unbounded
//!    buffering.
//! 3. **No reader polling.** Subscribers park on a `Condvar` and are woken
//!    on publish or hub close.
//!
//! Lines are rendered to JSON once, by the publisher, and shared as
//! `Arc<str>` — N subscribers cost N pointer clones per event, not N
//! serializations.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, Weak};
use std::time::Duration;

use crate::journal::JournalRecord;

/// Shared ring state for one subscriber.
struct Ring {
    lines: Mutex<RingState>,
    wake: Condvar,
}

struct RingState {
    buf: VecDeque<Arc<str>>,
    capacity: usize,
    closed: bool,
}

/// A bounded, live view of the journal stream. Obtained from
/// [`JournalTailHub::subscribe`]; dropped subscribers are pruned by the hub
/// on the next publish.
pub struct TailSubscriber {
    ring: Arc<Ring>,
}

impl TailSubscriber {
    /// Pop the next journal line, waiting up to `timeout` for one to
    /// arrive. Returns `None` when the hub has been closed *and* the ring
    /// is drained, or when the timeout elapses with nothing buffered.
    pub fn next_line(&self, timeout: Duration) -> Option<Arc<str>> {
        let mut state = self.ring.lines.lock().expect("tail ring poisoned");
        loop {
            if let Some(line) = state.buf.pop_front() {
                return Some(line);
            }
            if state.closed {
                return None;
            }
            let (next, wait) = self
                .ring
                .wake
                .wait_timeout(state, timeout)
                .expect("tail ring poisoned");
            state = next;
            if wait.timed_out() {
                return state.buf.pop_front();
            }
        }
    }

    /// True once the hub is closed and every buffered line has been read.
    pub fn is_drained(&self) -> bool {
        let state = self.ring.lines.lock().expect("tail ring poisoned");
        state.closed && state.buf.is_empty()
    }
}

/// Fan-out point between the campaign driver (publisher) and the SSE
/// readers (subscribers).
pub struct JournalTailHub {
    subscribers: Mutex<Vec<Weak<Ring>>>,
    dropped: AtomicU64,
    capacity: usize,
    closed: Mutex<bool>,
}

impl JournalTailHub {
    /// `capacity` is the per-subscriber ring size; it is clamped to at
    /// least 1 so a full ring always holds the most recent line.
    pub fn new(capacity: usize) -> Self {
        JournalTailHub {
            subscribers: Mutex::new(Vec::new()),
            dropped: AtomicU64::new(0),
            capacity: capacity.max(1),
            closed: Mutex::new(false),
        }
    }

    /// Register a new tail reader. A subscriber that connects after
    /// [`close`](Self::close) observes an immediately-drained stream.
    pub fn subscribe(&self) -> TailSubscriber {
        let ring = Arc::new(Ring {
            lines: Mutex::new(RingState {
                buf: VecDeque::with_capacity(self.capacity),
                capacity: self.capacity,
                closed: *self.closed.lock().expect("tail hub poisoned"),
            }),
            wake: Condvar::new(),
        });
        self.subscribers
            .lock()
            .expect("tail hub poisoned")
            .push(Arc::downgrade(&ring));
        TailSubscriber { ring }
    }

    /// Number of currently-live subscribers (dead ones are pruned lazily).
    pub fn subscriber_count(&self) -> usize {
        self.subscribers
            .lock()
            .expect("tail hub poisoned")
            .iter()
            .filter(|w| w.strong_count() > 0)
            .count()
    }

    /// Total journal lines dropped across all subscribers because their
    /// ring was full. Monotonic; surfaced in `/api/status`.
    pub fn events_dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }

    /// Render `records` to JSON lines once and push them into every live
    /// subscriber ring, dropping the oldest buffered line of any ring that
    /// is full. Never blocks on readers. With no live subscriber nothing
    /// is rendered, and only the last `capacity` records are: a ring keeps
    /// at most that many lines, so each earlier record counts as dropped,
    /// once per live ring, exactly as if it had been pushed and evicted.
    pub fn publish_records(&self, records: &[JournalRecord]) {
        let mut subs = self.subscribers.lock().expect("tail hub poisoned");
        subs.retain(|weak| weak.strong_count() > 0);
        if records.is_empty() || subs.is_empty() {
            return;
        }
        let skipped = records.len().saturating_sub(self.capacity);
        let lines: Vec<Arc<str>> = records[skipped..]
            .iter()
            .filter_map(|r| serde_json::to_string(r).ok())
            .map(Arc::from)
            .collect();
        for ring in subs.iter().filter_map(Weak::upgrade) {
            {
                let mut state = ring.lines.lock().expect("tail ring poisoned");
                self.dropped.fetch_add(skipped as u64, Ordering::Relaxed);
                for line in &lines {
                    if state.buf.len() >= state.capacity {
                        state.buf.pop_front();
                        self.dropped.fetch_add(1, Ordering::Relaxed);
                    }
                    state.buf.push_back(Arc::clone(line));
                }
            }
            ring.wake.notify_all();
        }
    }

    /// Mark the stream finished: subscribers drain what they have buffered
    /// and then see end-of-stream.
    pub fn close(&self) {
        *self.closed.lock().expect("tail hub poisoned") = true;
        let mut subs = self.subscribers.lock().expect("tail hub poisoned");
        subs.retain(|weak| {
            let Some(ring) = weak.upgrade() else {
                return false;
            };
            ring.lines.lock().expect("tail ring poisoned").closed = true;
            ring.wake.notify_all();
            true
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::EventKind;

    fn record(seq: u64) -> JournalRecord {
        JournalRecord {
            at_ms: seq,
            shard: 0,
            node: Some(1),
            seq,
            event: EventKind::PhaseEnded {
                phase: "p".into(),
                shard: 0,
            },
        }
    }

    #[test]
    fn subscriber_sees_published_lines_in_order() {
        let hub = JournalTailHub::new(16);
        let sub = hub.subscribe();
        hub.publish_records(&[record(1), record(2)]);
        let a = sub.next_line(Duration::from_millis(50)).unwrap();
        let b = sub.next_line(Duration::from_millis(50)).unwrap();
        assert!(a.contains("\"seq\": 1") || a.contains("\"seq\":1"), "{a}");
        assert!(b.contains("\"seq\": 2") || b.contains("\"seq\":2"), "{b}");
        hub.close();
        assert_eq!(sub.next_line(Duration::from_millis(50)), None);
        assert!(sub.is_drained());
    }

    #[test]
    fn full_ring_drops_oldest_and_counts() {
        let hub = JournalTailHub::new(2);
        let sub = hub.subscribe();
        hub.publish_records(&[record(1), record(2), record(3)]);
        assert_eq!(hub.events_dropped(), 1);
        let first = sub.next_line(Duration::from_millis(50)).unwrap();
        assert!(first.contains("\"seq\": 2") || first.contains("\"seq\":2"));
    }

    #[test]
    fn oversized_batch_drops_exactly_what_a_full_push_would() {
        let hub = JournalTailHub::new(4);
        let holding = hub.subscribe();
        hub.publish_records(&[record(100), record(101)]);
        let empty = hub.subscribe();
        let batch: Vec<JournalRecord> = (0..12).map(record).collect();
        hub.publish_records(&batch);
        // 2 buffered + 12 new into a ring of 4 drops 10; 0 + 12 drops 8.
        assert_eq!(hub.events_dropped(), 18);
        for sub in [holding, empty] {
            let seqs: Vec<u64> = std::iter::from_fn(|| sub.next_line(Duration::ZERO))
                .map(|line| serde_json::from_str::<JournalRecord>(&line).unwrap().seq)
                .collect();
            assert_eq!(seqs, [8, 9, 10, 11]);
        }
    }

    #[test]
    fn dropped_subscribers_are_pruned() {
        let hub = JournalTailHub::new(4);
        let sub = hub.subscribe();
        drop(sub);
        hub.publish_records(&[record(1)]);
        assert_eq!(hub.subscriber_count(), 0);
    }

    #[test]
    fn close_wakes_waiting_subscriber() {
        let hub = Arc::new(JournalTailHub::new(4));
        let sub = hub.subscribe();
        let hub2 = Arc::clone(&hub);
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            hub2.close();
        });
        assert_eq!(sub.next_line(Duration::from_secs(5)), None);
        closer.join().unwrap();
    }

    #[test]
    fn late_subscriber_after_close_is_drained() {
        let hub = JournalTailHub::new(4);
        hub.close();
        let sub = hub.subscribe();
        assert!(sub.is_drained());
        assert_eq!(sub.next_line(Duration::from_millis(10)), None);
    }
}
