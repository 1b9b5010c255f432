//! Event streams and batches.
//!
//! An input event stream is an unbounded, time-ordered sequence of events
//! (§2). The runtime pulls events in *batches* (all events sharing one
//! application timestamp within one partition form the unit of a stream
//! transaction, §6.2) — routing "happens for stream batches rather than
//! for single events" keeps the context-aware router lightweight.

use crate::event::Event;
use crate::time::Time;

/// A batch of events sharing one application timestamp.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EventBatch {
    /// Common application timestamp of all events in the batch.
    pub time: Time,
    /// The events; all satisfy `event.time() == time`.
    pub events: Vec<Event>,
}

impl EventBatch {
    /// Creates a batch, asserting (in debug builds) that all events share
    /// the stated timestamp.
    #[must_use]
    pub fn new(time: Time, events: Vec<Event>) -> Self {
        debug_assert!(events.iter().all(|e| e.time() == time));
        Self { time, events }
    }

    /// Number of events in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the batch carries no events.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// What one `Engine::ingest` call takes: a single event or a
/// same-timestamp batch. Both convert into it, so call sites pass either
/// directly and a single event never pays for a one-element `Vec`.
#[derive(Debug, Clone, PartialEq)]
pub enum Ingest {
    /// One event at its own timestamp.
    Event(Event),
    /// A same-timestamp batch.
    Batch(EventBatch),
}

impl Ingest {
    /// The timestamp the input carries; `None` for an empty batch.
    #[must_use]
    pub fn time(&self) -> Option<Time> {
        match self {
            Ingest::Event(event) => Some(event.time()),
            Ingest::Batch(batch) => (!batch.is_empty()).then_some(batch.time),
        }
    }
}

impl From<Event> for Ingest {
    fn from(event: Event) -> Self {
        Ingest::Event(event)
    }
}

impl From<EventBatch> for Ingest {
    fn from(batch: EventBatch) -> Self {
        Ingest::Batch(batch)
    }
}

/// A pull-based source of time-ordered events.
///
/// Implementations must yield events in non-decreasing `time()` order;
/// the event distributor enforces this at ingestion.
pub trait EventStream {
    /// Yields the next event, or `None` when the stream is exhausted.
    fn next_event(&mut self) -> Option<Event>;

    /// Optional hint of how many events remain (for buffer pre-sizing).
    fn size_hint(&self) -> Option<usize> {
        None
    }
}

/// An in-memory stream over a pre-generated, time-sorted event vector.
///
/// The workload generators produce these; they are also convenient in
/// tests. Construction verifies the ordering invariant once so the
/// runtime can rely on it.
#[derive(Debug, Clone)]
pub struct VecStream {
    events: std::vec::IntoIter<Event>,
    remaining: usize,
}

impl VecStream {
    /// Wraps a time-sorted vector of events.
    ///
    /// # Panics
    /// Panics if the events are not sorted by `time()`.
    #[must_use]
    pub fn new(events: Vec<Event>) -> Self {
        assert!(
            events.windows(2).all(|w| w[0].time() <= w[1].time()),
            "VecStream requires time-ordered events"
        );
        let remaining = events.len();
        Self {
            events: events.into_iter(),
            remaining,
        }
    }

    /// Sorts the events by time, then wraps them.
    #[must_use]
    pub fn from_unsorted(mut events: Vec<Event>) -> Self {
        events.sort_by_key(Event::time);
        Self::new(events)
    }
}

impl EventStream for VecStream {
    fn next_event(&mut self) -> Option<Event> {
        let e = self.events.next();
        if e.is_some() {
            self.remaining -= 1;
        }
        e
    }

    fn size_hint(&self) -> Option<usize> {
        Some(self.remaining)
    }
}

/// Merges several time-ordered streams into one time-ordered stream
/// (k-way merge). Used to combine per-road generators into a single
/// input stream for multi-road experiments.
pub struct MergedStream {
    /// One buffered head per source, kept ordered by peeking.
    sources: Vec<(Option<Event>, Box<dyn EventStream + Send>)>,
}

impl MergedStream {
    /// Builds a merged stream over the given sources.
    #[must_use]
    pub fn new(sources: Vec<Box<dyn EventStream + Send>>) -> Self {
        let sources = sources
            .into_iter()
            .map(|mut s| (s.next_event(), s))
            .collect();
        Self { sources }
    }
}

impl EventStream for MergedStream {
    fn next_event(&mut self) -> Option<Event> {
        let (idx, _) = self
            .sources
            .iter()
            .enumerate()
            .filter_map(|(i, (head, _))| head.as_ref().map(|e| (i, e.time())))
            .min_by_key(|&(_, t)| t)?;
        let (head, source) = &mut self.sources[idx];
        let next = source.next_event();
        std::mem::replace(head, next)
    }

    fn size_hint(&self) -> Option<usize> {
        self.sources
            .iter()
            .map(|(head, s)| s.size_hint().map(|n| n + usize::from(head.is_some())))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::PartitionId;
    use crate::schema::TypeId;
    use crate::value::Value;

    fn ev(t: Time) -> Event {
        Event::simple(TypeId(0), t, PartitionId(0), vec![Value::Int(t as i64)])
    }

    #[test]
    fn vec_stream_yields_in_order() {
        let mut s = VecStream::new(vec![ev(1), ev(2), ev(2), ev(5)]);
        assert_eq!(s.size_hint(), Some(4));
        let times: Vec<_> = std::iter::from_fn(|| s.next_event())
            .map(|e| e.time())
            .collect();
        assert_eq!(times, vec![1, 2, 2, 5]);
        assert_eq!(s.size_hint(), Some(0));
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn vec_stream_rejects_disorder() {
        let _ = VecStream::new(vec![ev(5), ev(1)]);
    }

    #[test]
    fn from_unsorted_sorts() {
        let mut s = VecStream::from_unsorted(vec![ev(5), ev(1), ev(3)]);
        let times: Vec<_> = std::iter::from_fn(|| s.next_event())
            .map(|e| e.time())
            .collect();
        assert_eq!(times, vec![1, 3, 5]);
    }

    #[test]
    fn merged_stream_interleaves_by_time() {
        let a = Box::new(VecStream::new(vec![ev(1), ev(4), ev(7)]));
        let b = Box::new(VecStream::new(vec![ev(2), ev(3), ev(8)]));
        let mut m = MergedStream::new(vec![a, b]);
        assert_eq!(m.size_hint(), Some(6));
        let times: Vec<_> = std::iter::from_fn(|| m.next_event())
            .map(|e| e.time())
            .collect();
        assert_eq!(times, vec![1, 2, 3, 4, 7, 8]);
    }

    #[test]
    fn merged_stream_handles_empty_sources() {
        let a = Box::new(VecStream::new(vec![]));
        let b = Box::new(VecStream::new(vec![ev(9)]));
        let mut m = MergedStream::new(vec![a, b]);
        assert_eq!(m.next_event().unwrap().time(), 9);
        assert!(m.next_event().is_none());
    }

    #[test]
    fn batch_len_and_emptiness() {
        let b = EventBatch::new(3, vec![ev(3), ev(3)]);
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
        assert!(EventBatch::default().is_empty());
    }
}
