//! The time-driven scheduler (§6.2).
//!
//! "For each time stamp t, our scheduler waits till the event distributor
//! progress is larger than t and the context derivation for all
//! transactions with time stamps smaller than t is completed. Then, the
//! scheduler extracts all events with the time stamp t from the event
//! queues, wraps their processing into transactions (one transaction per
//! road segment) and submits them for execution."
//!
//! Streams are in-order (§6.2), so once an event with timestamp `T`
//! arrives, every event with timestamp `< T` has been observed — the
//! distributor progress. The engine executes released transactions
//! strictly in timestamp order (derivation before processing within each
//! transaction), which satisfies the conflict-ordering correctness
//! criterion checked in [`crate::txn`].
//!
//! The engine releases on every progress advance, so the scheduler never
//! holds more than the events of the progress timestamp: its buffer is
//! the single-timestamp frontier of [`caesar_events::queue`], and its
//! state (and snapshot) is independent of how many partitions the
//! stream has touched.

use caesar_events::{Event, EventError, PartitionedQueues, Time};
use serde::{Deserialize, Serialize};
use std::vec::Drain;

/// Buffers in-order events and releases them as per-partition,
/// per-timestamp stream transactions once the progress watermark passes.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct TimeDrivenScheduler {
    frontier: PartitionedQueues,
}

impl TimeDrivenScheduler {
    /// Creates an empty scheduler.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Ingests one event (the event distributor's enqueue). Rejects an
    /// arrival older than the progress: the *global* stream must be
    /// in-order for the progress watermark to be meaningful.
    pub fn ingest(&mut self, event: Event) -> Result<(), EventError> {
        self.frontier.push(event)
    }

    /// The distributor progress — the highest timestamp ingested: all
    /// events with smaller timestamps have arrived.
    #[must_use]
    pub fn progress(&self) -> Time {
        self.frontier.watermark()
    }

    /// Releases the events of every transaction with timestamp strictly
    /// below `up_to` (events at the watermark itself may still arrive):
    /// timestamp ascending, ties broken by partition id, arrival order
    /// inside a transaction. [`StreamTransaction::split`] cuts the run
    /// into its transactions.
    ///
    /// [`StreamTransaction::split`]: crate::txn::StreamTransaction::split
    pub fn release(&mut self, up_to: Time) -> Drain<'_, Event> {
        self.frontier.pop_below(up_to)
    }

    /// Releases everything buffered (end of stream).
    pub fn flush(&mut self) -> Drain<'_, Event> {
        self.release(Time::MAX)
    }

    /// Events currently buffered.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.frontier.buffered()
    }

    /// The buffered events, in arrival order: between two ingests, the
    /// not-yet-executed events of the progress timestamp.
    #[must_use]
    pub fn frontier(&self) -> &[Event] {
        self.frontier.events()
    }

    /// The earliest pending timestamp, if any.
    #[must_use]
    pub fn earliest_pending(&self) -> Option<Time> {
        self.frontier.earliest_pending()
    }

    /// Transactions released so far.
    #[must_use]
    pub fn transactions_released(&self) -> u64 {
        self.frontier.transactions_popped()
    }

    /// Largest transaction ever released (the queue depth gauge of the
    /// observability layer).
    #[must_use]
    pub fn peak_queue_depth(&self) -> usize {
        self.frontier.peak_depth()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::txn::StreamTransaction;
    use caesar_events::{PartitionId, TypeId, Value};
    use proptest::prelude::*;

    fn ev(t: Time, p: u32) -> Event {
        Event::simple(TypeId(0), t, PartitionId(p), vec![Value::Int(0)])
    }

    /// `(time, partition, events)` of each released transaction.
    fn shape(released: Drain<'_, Event>) -> Vec<(Time, u32, usize)> {
        let released: Vec<Event> = released.collect();
        StreamTransaction::split(&released)
            .map(|txn| (txn.time, txn.partition.0, txn.events.len()))
            .collect()
    }

    #[test]
    fn releases_only_below_watermark() {
        let mut s = TimeDrivenScheduler::new();
        for e in [ev(1, 0), ev(1, 1), ev(2, 0), ev(3, 1)] {
            s.ingest(e).unwrap();
        }
        // Both partitions' t=1 transactions released, t≥2 held back.
        assert_eq!(shape(s.release(2)), vec![(1, 0, 1), (1, 1, 1)]);
        assert_eq!(s.buffered(), 2);
        assert_eq!(s.earliest_pending(), Some(2));
    }

    #[test]
    fn released_transactions_are_time_ordered() {
        let mut s = TimeDrivenScheduler::new();
        for e in [ev(1, 1), ev(2, 0), ev(2, 1), ev(5, 0), ev(5, 1), ev(7, 0)] {
            s.ingest(e).unwrap();
        }
        let released: Vec<Event> = s.flush().collect();
        let txns: Vec<StreamTransaction<'_>> = StreamTransaction::split(&released).collect();
        assert!(StreamTransaction::is_correct_order(&txns));
        assert!(txns.windows(2).all(|w| w[0].time <= w[1].time));
        assert_eq!(s.transactions_released(), txns.len() as u64);
    }

    #[test]
    fn one_transaction_per_partition_per_timestamp() {
        let mut s = TimeDrivenScheduler::new();
        for e in [ev(4, 0), ev(4, 1), ev(4, 0)] {
            s.ingest(e).unwrap();
        }
        // Same-timestamp events of a partition share a transaction,
        // however the partitions interleave on arrival.
        assert_eq!(shape(s.flush()), vec![(4, 0, 2), (4, 1, 1)]);
        assert_eq!(s.peak_queue_depth(), 2);
    }

    #[test]
    fn out_of_order_is_rejected_with_the_progress_watermark() {
        let mut s = TimeDrivenScheduler::new();
        s.ingest(ev(10, 0)).unwrap();
        assert!(matches!(
            s.ingest(ev(5, 1)),
            Err(EventError::OutOfOrder {
                watermark: 10,
                timestamp: 5
            })
        ));
        assert_eq!(s.progress(), 10);
        assert_eq!(s.buffered(), 1);
    }

    #[test]
    fn flush_empties_everything() {
        let mut s = TimeDrivenScheduler::new();
        for t in 1..=5 {
            s.ingest(ev(t, 0)).unwrap();
        }
        assert_eq!(s.flush().count(), 5);
        assert_eq!(s.buffered(), 0);
        assert_eq!(s.flush().count(), 0);
    }

    /// The reference model of §6.2's extraction: the pending events
    /// below the bound, grouped by `(time, partition)` ascending,
    /// arrival order inside a group.
    #[derive(Default)]
    struct Model {
        pending: Vec<Tagged>,
        progress: Time,
    }

    /// `(time, partition, arrival tag)` of an event.
    type Tagged = (Time, u32, i64);

    impl Model {
        fn release(&mut self, up_to: Time) -> Vec<Vec<Tagged>> {
            let mut groups = std::collections::BTreeMap::<(Time, u32), Vec<_>>::new();
            self.pending.retain(|&(t, p, tag)| {
                if t < up_to {
                    groups.entry((t, p)).or_default().push((t, p, tag));
                }
                t >= up_to
            });
            groups.into_values().collect()
        }
    }

    proptest! {
        /// Random interleavings of `ingest` / `release` / `flush` —
        /// same-time runs across interleaved partitions and releases
        /// that span several timestamps included — hand out
        /// exactly the model's transactions, and a stale arrival is
        /// `OutOfOrder` against the same watermark.
        #[test]
        fn frontier_releases_the_models_transactions(
            script in prop::collection::vec((0u8..8, 0u64..3, 0u32..4, 1usize..5), 1..120)
        ) {
            let mut scheduler = TimeDrivenScheduler::new();
            let mut model = Model::default();
            let mut tag = 0i64;
            let mut tagged = |t: Time, p: u32| {
                tag += 1;
                (Event::simple(TypeId(0), t, PartitionId(p), vec![Value::Int(tag)]), tag)
            };
            for (op, step, p, n) in script {
                let released: Option<(Vec<Event>, Vec<Vec<Tagged>>)> = match op {
                    // One event, at the progress or `step` ticks later.
                    0..=2 => {
                        let t = model.progress + step;
                        let (event, tag) = tagged(t, p);
                        scheduler.ingest(event).unwrap();
                        model.pending.push((t, p, tag));
                        model.progress = t;
                        None
                    }
                    // A same-time run of `n` events over interleaved
                    // partitions.
                    3 | 4 => {
                        let t = model.progress + step;
                        for i in 0..n as u32 {
                            let (event, tag) = tagged(t, (p + i * 3) % 4);
                            model.pending.push((t, (p + i * 3) % 4, tag));
                            scheduler.ingest(event).unwrap();
                        }
                        model.progress = t;
                        None
                    }
                    // A stale arrival: rejected, nothing buffered.
                    5 if model.progress > 0 => {
                        let (event, _) = tagged(model.progress - 1, p);
                        let rejected = matches!(
                            scheduler.ingest(event),
                            Err(EventError::OutOfOrder { watermark, timestamp })
                                if watermark == model.progress && timestamp == model.progress - 1
                        );
                        prop_assert!(rejected);
                        None
                    }
                    // The engine's release: strictly below the progress.
                    5 | 6 => Some((
                        scheduler.release(model.progress).collect(),
                        model.release(model.progress),
                    )),
                    _ => Some((scheduler.flush().collect(), model.release(Time::MAX))),
                };
                if let Some((released, expected)) = released {
                    let tags = |e: &Event| match e.attrs[0] {
                        Value::Int(tag) => (e.time(), e.partition.0, tag),
                        _ => unreachable!("events carry their arrival tag"),
                    };
                    let got: Vec<Vec<_>> = StreamTransaction::split(&released)
                        .map(|txn| txn.events.iter().map(tags).collect())
                        .collect();
                    prop_assert_eq!(got, expected);
                }
                prop_assert_eq!(scheduler.progress(), model.progress);
                prop_assert_eq!(scheduler.buffered(), model.pending.len());
            }
        }
    }
}
