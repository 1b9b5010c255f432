//! The event distributor's buffer: one single-timestamp frontier.
//!
//! The storage layer's event distributor "buffers the incoming events in
//! the event queues" (§6.1), and for each timestamp `t` the time-driven
//! scheduler "extracts all events with the time stamp t from the event
//! queues, wraps their processing into transactions (one transaction per
//! road segment)" (§6.2). The stream is in order and the engine releases
//! on every progress advance, so what is buffered between two ingest
//! calls is the events of *one* timestamp (plus, for the instant between
//! a push and the release it triggers, the first arrivals of the next).
//! One arrival-ordered vector holds that; grouping it by partition when
//! it is released is all "one queue per partition" ever bought, and it
//! costs nothing for the partitions that are not in the current
//! timestamp — there is no per-partition structure to find, grow, index
//! or snapshot, however many partition ids the stream has touched.

use crate::error::EventError;
use crate::event::Event;
use crate::time::Time;
use serde::{Deserialize, Serialize};
use std::ops::Range;
use std::vec::Drain;

/// Splits a released run — events in `(time, partition, arrival)` order,
/// as [`PartitionedQueues::pop_time_slice`] and
/// [`PartitionedQueues::pop_below`] hand them out — into its stream
/// transactions: the maximal runs sharing a timestamp and a partition.
pub fn transactions(released: &[Event]) -> impl Iterator<Item = &[Event]> {
    released.chunk_by(|a, b| a.partition == b.partition && a.time() == b.time())
}

/// The distributor's buffer (see the module docs): the events that have
/// arrived but whose timestamp the progress watermark has not passed, in
/// arrival order — which, the stream being in order, is timestamp order.
///
/// The name is the paper's; the per-partition queues are notional. A
/// pop sorts the due prefix by `(time, partition id)` — stably, so
/// arrival order survives inside a transaction — and drains it.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct PartitionedQueues {
    /// Buffered events; timestamps are non-decreasing.
    events: Vec<Event>,
    /// Highest timestamp ever pushed: all events with smaller
    /// timestamps have been observed (streams are in-order).
    watermark: Time,
    /// Largest transaction — events of one partition at one timestamp —
    /// ever popped (the queue depth gauge of the observability layer).
    peak_depth: usize,
    /// Transactions popped so far.
    transactions: u64,
}

impl PartitionedQueues {
    /// Buffers an event, enforcing the in-order assumption of §6.2.
    pub fn push(&mut self, event: Event) -> Result<(), EventError> {
        let t = event.time();
        if t < self.watermark {
            return Err(EventError::OutOfOrder {
                watermark: self.watermark,
                timestamp: t,
            });
        }
        self.watermark = t;
        self.events.push(event);
        Ok(())
    }

    /// Highest timestamp ever pushed — the distributor progress the
    /// scheduler compares against (§6.2).
    #[must_use]
    pub fn watermark(&self) -> Time {
        self.watermark
    }

    /// Earliest buffered timestamp.
    #[must_use]
    pub fn earliest_pending(&self) -> Option<Time> {
        self.events.first().map(Event::time)
    }

    /// Pops the stream transactions of timestamp `t`: every buffered
    /// event carrying exactly `t`, partition id ascending, arrival order
    /// within a partition ([`transactions`] splits the run).
    pub fn pop_time_slice(&mut self, t: Time) -> Drain<'_, Event> {
        let start = self.events.partition_point(|e| e.time() < t);
        let len = self.events[start..].partition_point(|e| e.time() == t);
        self.pop(start..start + len)
    }

    /// Pops the stream transactions of every timestamp strictly below
    /// `up_to`: timestamp ascending, then as
    /// [`pop_time_slice`](Self::pop_time_slice).
    pub fn pop_below(&mut self, up_to: Time) -> Drain<'_, Event> {
        let len = self.events.partition_point(|e| e.time() < up_to);
        self.pop(0..len)
    }

    fn pop(&mut self, due: Range<usize>) -> Drain<'_, Event> {
        let run = &mut self.events[due.clone()];
        if run.len() > 1 {
            // Stable, and linear on a run that is already grouped (one
            // partition, or partition-major arrival).
            run.sort_by_key(|e| (e.time(), e.partition));
        }
        for txn in transactions(run) {
            self.peak_depth = self.peak_depth.max(txn.len());
            self.transactions += 1;
        }
        self.events.drain(due)
    }

    /// Partitions with a buffered event (the queues a per-partition
    /// layout would hold non-empty right now).
    #[must_use]
    pub fn partitions(&self) -> usize {
        let mut ids: Vec<_> = self.events.iter().map(|e| e.partition).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// Buffered events.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.events.len()
    }

    /// The buffered events, in arrival order — between two releases,
    /// the events of the watermark timestamp.
    #[must_use]
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Largest transaction ever popped (gauge).
    #[must_use]
    pub fn peak_depth(&self) -> usize {
        self.peak_depth
    }

    /// Transactions popped so far.
    #[must_use]
    pub fn transactions_popped(&self) -> u64 {
        self.transactions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PartitionId;
    use crate::schema::TypeId;
    use crate::value::Value;

    fn ev(t: Time, p: u32) -> Event {
        Event::simple(TypeId(0), t, PartitionId(p), vec![Value::Int(0)])
    }

    /// `(partition, events)` per transaction of a popped run.
    fn shape(popped: Drain<'_, Event>) -> Vec<(u32, usize)> {
        let popped: Vec<Event> = popped.collect();
        transactions(&popped)
            .map(|txn| (txn[0].partition.0, txn.len()))
            .collect()
    }

    #[test]
    fn push_tracks_watermark_and_rejects_regressions() {
        let mut pq = PartitionedQueues::default();
        pq.push(ev(5, 0)).unwrap();
        pq.push(ev(5, 1)).unwrap();
        pq.push(ev(9, 0)).unwrap();
        assert_eq!(pq.watermark(), 9);
        assert_eq!(pq.buffered(), 3);
        assert_eq!(pq.earliest_pending(), Some(5));
        // In-order is a property of the stream, not of one partition.
        assert!(matches!(
            pq.push(ev(7, 3)),
            Err(EventError::OutOfOrder {
                watermark: 9,
                timestamp: 7
            })
        ));
        assert_eq!(pq.buffered(), 3, "a rejected event is not buffered");
    }

    #[test]
    fn pop_time_slice_groups_by_partition_in_id_order() {
        let mut pq = PartitionedQueues::default();
        for e in [ev(5, 9), ev(5, 2), ev(5, 9), ev(5, 2), ev(7, 4), ev(9, 2)] {
            pq.push(e).unwrap();
        }
        assert_eq!(pq.partitions(), 3);
        assert_eq!(shape(pq.pop_time_slice(5)), vec![(2, 2), (9, 2)]);
        assert_eq!(pq.earliest_pending(), Some(7));
        assert!(pq.pop_time_slice(6).next().is_none());
        // A slice other than the earliest leaves the earlier ones alone.
        assert_eq!(shape(pq.pop_time_slice(9)), vec![(2, 1)]);
        assert_eq!(shape(pq.pop_time_slice(7)), vec![(4, 1)]);
        assert_eq!(pq.earliest_pending(), None);
        assert_eq!(pq.transactions_popped(), 4);
    }

    #[test]
    fn arrival_order_survives_inside_a_transaction() {
        let mut pq = PartitionedQueues::default();
        let tagged = |t, p, tag| Event::simple(TypeId(0), t, PartitionId(p), vec![Value::Int(tag)]);
        for e in [tagged(3, 1, 10), tagged(3, 0, 11), tagged(3, 1, 12)] {
            pq.push(e).unwrap();
        }
        let tags: Vec<Value> = pq.pop_time_slice(3).map(|e| e.attrs[0].clone()).collect();
        assert_eq!(tags, vec![Value::Int(11), Value::Int(10), Value::Int(12)]);
    }

    #[test]
    fn pop_below_spans_timestamps_in_order() {
        let mut pq = PartitionedQueues::default();
        for e in [ev(1, 7), ev(1, 3), ev(2, 9), ev(2, 9), ev(4, 1)] {
            pq.push(e).unwrap();
        }
        let popped: Vec<Event> = pq.pop_below(4).collect();
        let order: Vec<(Time, u32)> = popped.iter().map(|e| (e.time(), e.partition.0)).collect();
        assert_eq!(order, vec![(1, 3), (1, 7), (2, 9), (2, 9)]);
        assert_eq!(pq.buffered(), 1, "events at the bound stay");
        assert_eq!(pq.peak_depth(), 2);
    }

    #[test]
    fn state_does_not_grow_with_partitions_seen() {
        let mut pq = PartitionedQueues::default();
        for i in 0..10_000u32 {
            pq.push(ev(u64::from(i), i.wrapping_mul(0x9e37_79b9)))
                .unwrap();
            pq.pop_below(u64::from(i)).for_each(drop);
        }
        assert_eq!(pq.buffered(), 1);
        assert_eq!(pq.partitions(), 1);
        assert!(serde::to_bytes(&pq).len() < 128);
    }

    #[test]
    fn frontier_survives_serde_round_trip() {
        let mut pq = PartitionedQueues::default();
        for e in [ev(3, 7), ev(4, 1), ev(4, 7)] {
            pq.push(e).unwrap();
        }
        let mut back: PartitionedQueues = serde::from_bytes(&serde::to_bytes(&pq)).unwrap();
        assert_eq!(back.watermark(), 4);
        assert_eq!(shape(back.pop_time_slice(3)), vec![(7, 1)]);
        assert_eq!(shape(back.pop_time_slice(4)), vec![(1, 1), (7, 1)]);
        assert_eq!(back.buffered(), 0);
    }
}
