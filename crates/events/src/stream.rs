//! Event streams.
//!
//! An input event stream is an unbounded, time-ordered sequence of events
//! (§2). The runtime pulls it one event at a time; the scheduler groups
//! the events sharing one application timestamp within one partition into
//! the unit of a stream transaction (§6.2).

use crate::event::Event;

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
    use crate::time::Time;
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
}
