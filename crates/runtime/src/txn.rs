//! Stream transactions (§6.2, "Correct Context Management").
//!
//! "We define a stream transaction as a sequence of operations that are
//! triggered by all input events with the same time stamp. [...] An
//! algorithm for scheduling read and write operations on the shared
//! context data is correct if conflicting operations are processed
//! sorted by time stamps." Two operations conflict when they touch the
//! same context value and at least one writes.

use caesar_events::{Event, PartitionId, Time};

/// The operations a stream transaction performs on shared context data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ContextOp {
    /// Context derivation reads the vector and may write transitions.
    DeriveWrite,
    /// Context-window routing reads the vector.
    RouteRead,
}

/// One stream transaction: all events of one timestamp in one partition,
/// wrapped with the operations they trigger. A view into the run the
/// scheduler released — forming a transaction copies and allocates
/// nothing.
#[derive(Debug, Clone, Copy)]
pub struct StreamTransaction<'a> {
    /// Application timestamp shared by every triggering event.
    pub time: Time,
    /// The stream partition (one transaction per road segment in the
    /// traffic use case).
    pub partition: PartitionId,
    /// The triggering events, in arrival order. Never empty.
    pub events: &'a [Event],
}

impl<'a> StreamTransaction<'a> {
    /// Cuts a released run — `(time, partition, arrival)`-ordered, as
    /// [`TimeDrivenScheduler::release`] hands it out — into its
    /// transactions.
    ///
    /// [`TimeDrivenScheduler::release`]: crate::TimeDrivenScheduler::release
    pub fn split(released: &'a [Event]) -> impl Iterator<Item = StreamTransaction<'a>> {
        caesar_events::queue::transactions(released).map(|events| Self {
            time: events[0].time(),
            partition: events[0].partition,
            events,
        })
    }

    /// Conflict test (§6.2 footnote): same partition's context data, at
    /// least one side writing. Derivation writes; routing reads; within
    /// one partition any pair involving derivation conflicts.
    #[must_use]
    pub fn conflicts_with(
        &self,
        other: &StreamTransaction<'_>,
        a: ContextOp,
        b: ContextOp,
    ) -> bool {
        self.partition == other.partition
            && (a == ContextOp::DeriveWrite || b == ContextOp::DeriveWrite)
    }

    /// Correct schedules process conflicting transactions in timestamp
    /// order; this helper checks a proposed order.
    #[must_use]
    pub fn is_correct_order(transactions: &[StreamTransaction<'_>]) -> bool {
        // For each partition, timestamps must be non-decreasing.
        let mut last: std::collections::HashMap<PartitionId, Time> =
            std::collections::HashMap::new();
        for t in transactions {
            if let Some(&prev) = last.get(&t.partition) {
                if t.time < prev {
                    return false;
                }
            }
            last.insert(t.partition, t.time);
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_events::{TypeId, Value};

    fn ev(p: u32, t: Time) -> Event {
        Event::simple(TypeId(0), t, PartitionId(p), vec![Value::Int(0)])
    }

    /// One-event transactions over leaked events (test-only).
    fn txn(p: u32, t: Time) -> StreamTransaction<'static> {
        let events: &'static [Event] = Box::leak(Box::new([ev(p, t)]));
        StreamTransaction::split(events).next().unwrap()
    }

    #[test]
    fn split_cuts_at_time_and_partition_changes() {
        let released = [ev(0, 42), ev(0, 42), ev(3, 42), ev(3, 43)];
        let shape: Vec<(Time, u32, usize)> = StreamTransaction::split(&released)
            .map(|t| (t.time, t.partition.0, t.events.len()))
            .collect();
        assert_eq!(shape, vec![(42, 0, 2), (42, 3, 1), (43, 3, 1)]);
        assert_eq!(StreamTransaction::split(&[]).count(), 0);
    }

    #[test]
    fn derive_conflicts_with_everything_same_partition() {
        let a = txn(0, 1);
        let b = txn(0, 2);
        assert!(a.conflicts_with(&b, ContextOp::DeriveWrite, ContextOp::RouteRead));
        assert!(a.conflicts_with(&b, ContextOp::RouteRead, ContextOp::DeriveWrite));
        assert!(a.conflicts_with(&b, ContextOp::DeriveWrite, ContextOp::DeriveWrite));
        assert!(!a.conflicts_with(&b, ContextOp::RouteRead, ContextOp::RouteRead));
    }

    #[test]
    fn cross_partition_transactions_never_conflict() {
        let a = txn(0, 1);
        let b = txn(1, 1);
        assert!(!a.conflicts_with(&b, ContextOp::DeriveWrite, ContextOp::DeriveWrite));
    }

    #[test]
    fn order_check_is_per_partition() {
        // Interleaved partitions are fine as long as each partition's
        // own timestamps are sorted.
        let ok = vec![txn(0, 1), txn(1, 5), txn(0, 2), txn(1, 6)];
        assert!(StreamTransaction::is_correct_order(&ok));
        let bad = vec![txn(0, 2), txn(0, 1)];
        assert!(!StreamTransaction::is_correct_order(&bad));
    }

    #[test]
    fn same_timestamp_is_allowed() {
        let ok = vec![txn(0, 1), txn(0, 1)];
        assert!(StreamTransaction::is_correct_order(&ok));
    }
}
