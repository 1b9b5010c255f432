//! Bounded reordering buffer for slightly out-of-order streams.
//!
//! CAESAR's correctness argument assumes in-order event streams ("events
//! arrive in-order by time stamps", §6.2), and the scheduler rejects
//! violations. Real producers — the "bursty input streams, network and
//! processing delays" the paper mentions — deliver *almost*-ordered
//! streams. This extension sits in front of the distributor: it holds
//! events in a min-heap and only releases those older than
//! `watermark − slack`, turning any stream whose disorder is bounded by
//! `slack` ticks into an in-order stream. Events later than the slack
//! allows are rejected explicitly (counted, surfaced) rather than
//! silently corrupting context state.

use crate::event::Event;
use crate::time::Time;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A heap entry ordered by event time (ties broken by arrival order to
/// keep the release stable).
#[derive(Clone)]
struct Entry {
    time: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

/// The reordering buffer.
#[derive(Clone, Default)]
pub struct ReorderBuffer {
    heap: BinaryHeap<Reverse<Entry>>,
    /// Maximum tolerated disorder in ticks.
    slack: Time,
    /// Highest event time seen.
    high: Time,
    /// Highest time already released (events at or below are late).
    released: Time,
    seq: u64,
    /// Events rejected as too late.
    pub late_dropped: u64,
}

impl std::fmt::Debug for ReorderBuffer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ReorderBuffer")
            .field("slack", &self.slack)
            .field("buffered", &self.heap.len())
            .field("high", &self.high)
            .field("late_dropped", &self.late_dropped)
            .finish()
    }
}

/// Maximum lateness of an arrival sequence: the largest gap between an
/// event's timestamp and the running maximum at its arrival. A
/// [`ReorderBuffer`] whose slack is at least this value reorders the
/// sequence without dropping anything — stream generators use it to
/// compute the exact slack a disordered stream needs.
#[must_use]
pub fn max_lateness(events: &[Event]) -> Time {
    let mut high: Time = 0;
    let mut worst: Time = 0;
    for event in events {
        let t = event.time();
        worst = worst.max(high.saturating_sub(t));
        high = high.max(t);
    }
    worst
}

impl ReorderBuffer {
    /// Creates a buffer tolerating up to `slack` ticks of disorder.
    #[must_use]
    pub fn new(slack: Time) -> Self {
        Self {
            slack,
            ..Self::default()
        }
    }

    /// Offers one event; returns the events that become releasable (in
    /// order), or `Err(event)` if the event is too late to be ordered.
    #[allow(clippy::result_large_err)] // the rejected event is the payload
    pub fn push(&mut self, event: Event) -> Result<Vec<Event>, Event> {
        let t = event.time();
        if self.released > 0 && t < self.released {
            self.late_dropped += 1;
            return Err(event);
        }
        self.high = self.high.max(t);
        self.seq += 1;
        self.heap.push(Reverse(Entry {
            time: t,
            seq: self.seq,
            event,
        }));
        Ok(self.drain_ready())
    }

    /// Releases everything still buffered (end of stream), in order.
    pub fn flush(&mut self) -> Vec<Event> {
        let mut out = Vec::with_capacity(self.heap.len());
        while let Some(Reverse(e)) = self.heap.pop() {
            self.released = self.released.max(e.time);
            out.push(e.event);
        }
        out
    }

    /// Events currently held back.
    #[must_use]
    pub fn buffered(&self) -> usize {
        self.heap.len()
    }

    /// Highest event time seen so far (the stream's high-watermark).
    #[must_use]
    pub fn high_watermark(&self) -> Time {
        self.high
    }

    /// Runs a whole arrival sequence through a fresh buffer of `slack`
    /// ticks and returns the settled stream plus the number of events
    /// dropped as too late.
    ///
    /// This is *the* canonical settled order — `(time, arrival)` with a
    /// global watermark deciding lateness — and every consumer that
    /// needs to pre-sort a disordered stream (notably the sharded
    /// driver, whose shards would otherwise judge lateness against
    /// partition-local watermarks) must settle through this function so
    /// drops and tie-breaking match what a sequential engine with the
    /// same slack would do.
    #[must_use]
    pub fn settle_stream(slack: Time, events: &[Event]) -> (Vec<Event>, u64) {
        let mut buf = Self::new(slack);
        let mut out = Vec::with_capacity(events.len());
        for event in events {
            if let Ok(ready) = buf.push(event.clone()) {
                out.extend(ready);
            }
        }
        out.extend(buf.flush());
        (out, buf.late_dropped)
    }

    fn drain_ready(&mut self) -> Vec<Event> {
        let horizon = self.high.saturating_sub(self.slack);
        let mut out = Vec::new();
        while self.heap.peek().is_some_and(|Reverse(e)| e.time <= horizon) {
            let Reverse(e) = self.heap.pop().expect("peeked");
            self.released = self.released.max(e.time);
            out.push(e.event);
        }
        out
    }
}

// Snapshot support: a `BinaryHeap` has no stable iteration order, so the
// buffered entries are written sorted by `(time, seq)` — the same total
// order the heap releases them in — making the encoding deterministic.
impl serde::Serialize for ReorderBuffer {
    fn serialize(&self, out: &mut serde::Serializer) {
        self.slack.serialize(out);
        self.high.serialize(out);
        self.released.serialize(out);
        self.seq.serialize(out);
        self.late_dropped.serialize(out);
        let mut entries: Vec<&Entry> = self.heap.iter().map(|Reverse(e)| e).collect();
        entries.sort_by_key(|e| (e.time, e.seq));
        out.write_len(entries.len());
        for e in entries {
            e.time.serialize(out);
            e.seq.serialize(out);
            e.event.serialize(out);
        }
    }
}

impl serde::Deserialize for ReorderBuffer {
    fn deserialize(de: &mut serde::Deserializer<'_>) -> Result<Self, serde::Error> {
        let slack = Time::deserialize(de)?;
        let high = Time::deserialize(de)?;
        let released = Time::deserialize(de)?;
        let seq = u64::deserialize(de)?;
        let late_dropped = u64::deserialize(de)?;
        let n = de.read_len()?;
        let mut heap = BinaryHeap::with_capacity(n);
        for _ in 0..n {
            let time = Time::deserialize(de)?;
            let seq = u64::deserialize(de)?;
            let event = Event::deserialize(de)?;
            heap.push(Reverse(Entry { time, seq, event }));
        }
        Ok(Self {
            heap,
            slack,
            high,
            released,
            seq,
            late_dropped,
        })
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

    fn run(slack: Time, times: &[Time]) -> (Vec<Time>, u64) {
        let mut buf = ReorderBuffer::new(slack);
        let mut out = Vec::new();
        for &t in times {
            if let Ok(ready) = buf.push(ev(t)) {
                out.extend(ready.iter().map(Event::time));
            }
        }
        out.extend(buf.flush().iter().map(Event::time));
        (out, buf.late_dropped)
    }

    #[test]
    fn bounded_disorder_is_fully_repaired() {
        let (out, dropped) = run(5, &[3, 1, 2, 7, 5, 4, 10, 9, 8]);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 7, 8, 9, 10]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn in_order_stream_passes_through() {
        let (out, dropped) = run(0, &[1, 2, 3, 4]);
        assert_eq!(out, vec![1, 2, 3, 4]);
        assert_eq!(dropped, 0);
    }

    #[test]
    fn events_later_than_slack_are_rejected() {
        // With slack 2, seeing t=10 releases up to t=8; a t=3 afterwards
        // is too late.
        let mut buf = ReorderBuffer::new(2);
        let _ = buf.push(ev(5));
        let released = buf.push(ev(10)).unwrap();
        assert_eq!(
            released.iter().map(Event::time).collect::<Vec<_>>(),
            vec![5]
        );
        let rejected = buf.push(ev(3)).unwrap_err();
        assert_eq!(rejected.time(), 3);
        assert_eq!(buf.late_dropped, 1);
        // But a t=9 (within slack) is fine.
        assert!(buf.push(ev(9)).is_ok());
        let rest = buf.flush();
        assert_eq!(
            rest.iter().map(Event::time).collect::<Vec<_>>(),
            vec![9, 10]
        );
    }

    #[test]
    fn equal_timestamps_keep_arrival_order() {
        let mut buf = ReorderBuffer::new(1);
        let a = Event::simple(TypeId(0), 5, PartitionId(0), vec![Value::Int(1)]);
        let b = Event::simple(TypeId(0), 5, PartitionId(0), vec![Value::Int(2)]);
        let _ = buf.push(a);
        let _ = buf.push(b);
        let out = buf.flush();
        assert_eq!(out[0].attrs[0], Value::Int(1));
        assert_eq!(out[1].attrs[0], Value::Int(2));
    }

    #[test]
    fn serde_round_trip_preserves_release_order() {
        let mut buf = ReorderBuffer::new(5);
        for t in [9, 3, 7, 12, 11] {
            let _ = buf.push(ev(t));
        }
        let bytes = serde::to_bytes(&buf);
        // The encoding is deterministic (heap entries sorted), so
        // re-encoding a decoded buffer is the identity on bytes.
        let mut restored: ReorderBuffer = serde::from_bytes(&bytes).unwrap();
        assert_eq!(serde::to_bytes(&restored), bytes);
        assert_eq!(restored.buffered(), buf.buffered());
        assert_eq!(restored.late_dropped, buf.late_dropped);
        let a: Vec<Time> = buf.flush().iter().map(Event::time).collect();
        let b: Vec<Time> = restored.flush().iter().map(Event::time).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn settle_stream_matches_incremental_pushes() {
        let times = [3, 1, 2, 7, 5, 4, 10, 2, 9, 8, 8];
        let events: Vec<Event> = times.iter().map(|&t| ev(t)).collect();
        let (settled, dropped) = ReorderBuffer::settle_stream(3, &events);
        let (expected, expected_dropped) = run(3, &times);
        assert_eq!(
            settled.iter().map(Event::time).collect::<Vec<_>>(),
            expected
        );
        assert_eq!(dropped, expected_dropped);
    }

    #[test]
    fn settle_stream_keeps_arrival_order_for_ties() {
        // Two same-timestamp events arriving late (but within slack)
        // must settle in arrival order, exactly like push().
        let mut events = vec![ev(10)];
        events.push(Event::simple(
            TypeId(0),
            8,
            PartitionId(0),
            vec![Value::Int(1)],
        ));
        events.push(Event::simple(
            TypeId(0),
            8,
            PartitionId(1),
            vec![Value::Int(2)],
        ));
        let (settled, dropped) = ReorderBuffer::settle_stream(5, &events);
        assert_eq!(dropped, 0);
        assert_eq!(
            settled.iter().map(Event::time).collect::<Vec<_>>(),
            vec![8, 8, 10]
        );
        assert_eq!(settled[0].attrs[0], Value::Int(1));
        assert_eq!(settled[1].attrs[0], Value::Int(2));
    }

    #[test]
    fn buffered_count_tracks_heap() {
        let mut buf = ReorderBuffer::new(100);
        let _ = buf.push(ev(1));
        let _ = buf.push(ev(2));
        assert_eq!(buf.buffered(), 2);
        buf.flush();
        assert_eq!(buf.buffered(), 0);
    }
}
