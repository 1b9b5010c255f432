//! Pooled partial-match state: the generation-indexed slab
//! ([`PartialStore`]), the per-level ref lists and parked matches that
//! resolve into it ([`MatchState`]), and the detachable per-partition
//! [`RunState`] of a pattern operator or a shared-prefix group.

use super::negation::NegBuffer;
use super::{NegPosition, NegationCheck, Prefix};
use caesar_events::{Event, Time};
use serde::{Deserialize, Deserializer, Serialize, Serializer};

/// Generation-checked handle to a pooled partial match.
///
/// A ref is valid only while the slot it names is live *and* the slot's
/// generation equals the ref's: freeing a slot bumps its generation, so
/// a ref that outlives its partial (a use-after-free bug) can never
/// silently alias a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct PartialRef {
    index: u32,
    generation: u32,
}

/// One slab slot of the [`PartialStore`].
#[derive(Debug)]
struct Slot {
    generation: u32,
    live: bool,
    events: Vec<Event>,
}

impl Clone for Slot {
    fn clone(&self) -> Self {
        Self {
            generation: self.generation,
            live: self.live,
            events: self.events.clone(),
        }
    }

    /// Keeps the event vector's allocation ([`RunState::copy_from`]).
    fn clone_from(&mut self, src: &Self) {
        self.generation = src.generation;
        self.live = src.live;
        self.events.clone_from(&src.events);
    }
}

/// Slab allocator for partial-match event vectors. Freed slots keep
/// their `Vec` capacity and are recycled through a free list, so the
/// steady state allocates nothing per event.
#[derive(Debug, Clone, Default)]
pub(super) struct PartialStore {
    slots: Vec<Slot>,
    free: Vec<u32>,
    /// Free-list hits — how often a recycled slot saved an allocation.
    reused: u64,
    /// Currently live slots.
    live: usize,
    /// High-water mark of `live`.
    peak: usize,
    /// Summed `capacity()` of the slots' event vectors — slots keep
    /// their capacity when freed, so this only grows; it makes the
    /// slab's heap footprint readable in O(1).
    event_cap: usize,
}

impl PartialStore {
    /// Allocates an empty slot, recycling from the free list when
    /// possible.
    fn alloc(&mut self) -> PartialRef {
        self.live += 1;
        self.peak = self.peak.max(self.live);
        if let Some(index) = self.free.pop() {
            self.reused += 1;
            let slot = &mut self.slots[index as usize];
            debug_assert!(!slot.live && slot.events.is_empty());
            slot.live = true;
            PartialRef {
                index,
                generation: slot.generation,
            }
        } else {
            self.slots.push(Slot {
                generation: 0,
                live: true,
                events: Vec::new(),
            });
            PartialRef {
                index: (self.slots.len() - 1) as u32,
                generation: 0,
            }
        }
    }

    /// Adopts an already-built event list (deserialization path).
    fn adopt(&mut self, events: Vec<Event>) -> PartialRef {
        let r = self.alloc();
        // Only a fresh store adopts, so the slot is new and holds nothing.
        self.event_cap += events.capacity();
        self.slots[r.index as usize].events = events;
        r
    }

    /// Returns a slot to the free list, bumping its generation so any
    /// surviving ref to it becomes detectably stale.
    pub(super) fn free(&mut self, r: PartialRef) {
        let slot = &mut self.slots[r.index as usize];
        assert!(
            slot.live && slot.generation == r.generation,
            "freeing a stale partial ref"
        );
        slot.live = false;
        slot.generation = slot.generation.wrapping_add(1);
        // Drop the events now (releases their Arcs) but keep capacity.
        slot.events.clear();
        self.free.push(r.index);
        self.live -= 1;
    }

    /// The events of a live partial.
    pub(super) fn events(&self, r: PartialRef) -> &[Event] {
        let slot = &self.slots[r.index as usize];
        debug_assert!(slot.live, "stale partial ref (slot freed)");
        debug_assert_eq!(slot.generation, r.generation, "stale partial ref");
        &slot.events
    }

    /// Checked resolution — `None` for a stale or out-of-range ref.
    /// Test support for the generation-index invariant.
    fn get(&self, r: PartialRef) -> Option<&[Event]> {
        let slot = self.slots.get(r.index as usize)?;
        (slot.live && slot.generation == r.generation).then_some(slot.events.as_slice())
    }

    /// Stores a candidate — `prefix` followed by `tail` — as a new
    /// partial: the slab's one constructor, whichever prefix the step
    /// routine extended.
    pub(super) fn insert(&mut self, prefix: Prefix<'_>, tail: &Event) -> PartialRef {
        let r = self.alloc();
        let di = r.index as usize;
        let (src, dst): (&[Event], &mut Vec<Event>) = match prefix {
            Prefix::Empty => (&[], &mut self.slots[di].events),
            Prefix::Shared(events) => (events, &mut self.slots[di].events),
            Prefix::Own(src) => {
                // Slot-to-slot copy without tearing a borrow through
                // `&mut self`.
                let si = src.index as usize;
                assert_ne!(si, di, "alloc returned a live slot");
                let (src_slot, dst_slot) = if si < di {
                    let (head, rest) = self.slots.split_at_mut(di);
                    (&head[si], &mut rest[0])
                } else {
                    let (head, rest) = self.slots.split_at_mut(si);
                    (&rest[0], &mut head[di])
                };
                debug_assert!(src_slot.live && src_slot.generation == src.generation);
                (src_slot.events.as_slice(), &mut dst_slot.events)
            }
        };
        let before = dst.capacity();
        dst.reserve(src.len() + 1);
        dst.extend_from_slice(src);
        dst.push(tail.clone());
        self.event_cap += dst.capacity() - before;
        r
    }
}

/// A full match waiting for a trailing-negation horizon to pass.
#[derive(Debug, Clone, Copy)]
pub(super) struct Pending {
    pub(super) r: PartialRef,
    /// Emit once the watermark exceeds this deadline, unless a negated
    /// event arrives in `(last positive, deadline]`.
    pub(super) deadline: Time,
}

/// Pooled partial-match state: per-level ref lists, parked full matches,
/// and the slab both resolve into.
#[derive(Debug, Clone, Default)]
pub(super) struct MatchState {
    /// Partial matches indexed by number of bound elements − 1.
    pub(super) levels: Vec<Vec<PartialRef>>,
    pub(super) pending: Vec<Pending>,
    pub(super) store: PartialStore,
}

// Wire-compatible with the pre-pool representation — two consecutive
// fields `partials: Vec<Vec<Partial>>` (each `Partial` a bare
// `Vec<Event>`) and `pending: Vec<PendingMatch>` (`Vec<Event>` + `Time`).
// Refs are resolved to their event lists on write and re-pooled densely
// on read, so snapshots never observe slot order, generations, or the
// free list.
impl Serialize for MatchState {
    fn serialize(&self, out: &mut Serializer) {
        out.write_len(self.levels.len());
        for level in &self.levels {
            out.write_len(level.len());
            for &r in level {
                self.store.events(r).serialize(out);
            }
        }
        out.write_len(self.pending.len());
        for p in &self.pending {
            self.store.events(p.r).serialize(out);
            p.deadline.serialize(out);
        }
    }
}

impl Deserialize for MatchState {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let mut state = MatchState::default();
        let n_levels = de.read_len()?;
        state.levels.reserve(n_levels);
        for _ in 0..n_levels {
            let n = de.read_len()?;
            let mut level = Vec::with_capacity(n);
            for _ in 0..n {
                let events = Vec::<Event>::deserialize(de)?;
                level.push(state.store.adopt(events));
            }
            state.levels.push(level);
        }
        let n = de.read_len()?;
        state.pending.reserve(n);
        for _ in 0..n {
            let events = Vec::<Event>::deserialize(de)?;
            let deadline = Time::deserialize(de)?;
            state.pending.push(Pending {
                r: state.store.adopt(events),
                deadline,
            });
        }
        Ok(state)
    }
}

/// The mutable run state of one stateful operator — a [`PatternOp`](super::PatternOp) or a
/// [`SharedGroup`](super::SharedGroup) — in one stream partition: partial matches, parked
/// trailing-negation matches, negation buffers and their transient
/// indexes. Everything else about an operator (compiled program and
/// probe plans, counters) is the same for every partition and lives
/// once, in the operator.
///
/// The value is *detachable*: an operator owns one resident run state
/// (`run_mut`), and the runtime swaps a partition's stored state in
/// when the partition's turn comes and back out when another's does.
/// The default value is the empty state of *any* operator — the per-level
/// and per-negation vectors are sized on first use — so a partition
/// with no live partial match stores nothing, and an emptied state can
/// be recycled for another operator or partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RunState {
    /// Negation buffers and their keyed indexes, parallel to the
    /// program's negation checks.
    pub(super) negs: Vec<NegBuffer>,
    /// Pooled partial-match state (levels, pending, slab).
    pub(super) state: MatchState,
    /// A lower bound on the earliest deadline of anything held (see
    /// [`floor`](Self::floor)).
    pub(super) floor: Time,
}

impl Default for RunState {
    fn default() -> Self {
        Self {
            negs: Vec::new(),
            state: MatchState::default(),
            floor: Time::MAX,
        }
    }
}

impl RunState {
    /// A lower bound on the earliest deadline of what the state holds:
    /// the time a partial match's `within` horizon ends (first event +
    /// `within`), a buffered negated event's (its time + `within`), or
    /// a parked match's veto deadline. A watermark at or below it finds
    /// nothing due. Lowered as state is added, exact after
    /// [`expire`](Self::expire).
    #[must_use]
    pub fn floor(&self) -> Time {
        self.floor
    }

    /// Prunes what `watermark` put out of reach — partial matches and
    /// buffered negated events whose horizon ended before it — and
    /// recomputes [`floor`](Self::floor) over what is left. Parked
    /// matches are never touched: they mature at their partition's own
    /// watermark, through [`PatternOp::advance_time`](super::PatternOp::advance_time).
    ///
    /// `own` says whether `watermark` is the partition's own (its latest
    /// transaction) or global progress. A leading negation's buffer is
    /// pruned only by the former: its probe has no lower time bound, so
    /// what it may veto is exactly what the partition's own watermark
    /// has left in the buffer. Every other pruning is invisible —
    /// extensions and `Between` probes are span-guarded, trailing
    /// buffers are never probed.
    pub fn expire(
        &mut self,
        watermark: Time,
        within: Time,
        negations: &[NegationCheck],
        own: bool,
    ) {
        let dead = |t: Time| t.saturating_add(within) < watermark;
        let mut floor = Time::MAX;
        let MatchState {
            levels,
            pending,
            store,
        } = &mut self.state;
        for level in levels.iter_mut() {
            level.retain(|&r| {
                let first = store.events(r)[0].time();
                if dead(first) {
                    store.free(r);
                    return false;
                }
                floor = floor.min(first.saturating_add(within));
                true
            });
        }
        for (buf, check) in self.negs.iter_mut().zip(negations) {
            if own || check.position != NegPosition::Before {
                while buf.events.front().is_some_and(|e| dead(e.time())) {
                    buf.pop_front();
                }
            }
            if let Some(head) = buf.events.front() {
                floor = floor.min(head.time().saturating_add(within));
            }
        }
        let parked = pending.iter().map(|pm| pm.deadline);
        self.floor = parked.fold(floor, Time::min);
    }

    /// Sizes the per-level and per-negation vectors (empty after
    /// `default()` or a recycle from another operator) to the
    /// operator's shape.
    pub(super) fn ensure_shape(&mut self, levels: usize, negations: usize) {
        if self.state.levels.len() != levels {
            debug_assert!(!self.has_state(), "reshaping a live run state");
            self.state.levels.resize_with(levels, Vec::new);
        }
        if self.negs.len() != negations {
            self.negs.resize_with(negations, NegBuffer::default);
        }
    }

    /// Overwrites this state with a copy of `src` in place: slot by
    /// slot and buffer by buffer, down to the slab's event vectors, so
    /// a state that is overwritten again and again (the speculative
    /// fork's, on every rewind) settles on its largest shape and then
    /// allocates nothing. The transient negation indexes are copied the
    /// same way — plain vectors and one table of `u32` pairs — since
    /// dropping them (a restored snapshot does without) would have the
    /// first probe after every copy re-index the whole buffer.
    pub fn copy_from(&mut self, src: &RunState) {
        self.negs.clone_from(&src.negs);
        self.state.levels.clone_from(&src.state.levels);
        self.state.pending.clone_from(&src.state.pending);
        let (store, from) = (&mut self.state.store, &src.state.store);
        store.slots.clone_from(&from.slots);
        store.free.clone_from(&from.free);
        (store.reused, store.live, store.peak) = (from.reused, from.live, from.peak);
        store.event_cap = store.slots.iter().map(|s| s.events.capacity()).sum();
        self.floor = src.floor;
    }

    /// Returns `true` if any time-sensitive state is held — a partial,
    /// a parked match or a buffered negated event. When `false`,
    /// advancing the watermark is a no-op and the value may be dropped
    /// or recycled without changing any result.
    #[must_use]
    pub fn has_state(&self) -> bool {
        self.live_partials() > 0 || self.negs.iter().any(|b| !b.events.is_empty())
    }

    /// Live partial matches, parked ones included — O(1): every level
    /// and pending entry owns exactly one live slab slot
    /// ([`pool_consistent`](Self::pool_consistent) checks it).
    #[must_use]
    pub fn live_partials(&self) -> usize {
        self.state.store.live
    }

    /// Capacity-based estimate of the heap bytes behind this value, in
    /// O(levels + negations): the slab's event capacity is tracked as
    /// it grows and each negation index reads its capacities, so
    /// nothing is summed by a walk.
    #[must_use]
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let MatchState {
            levels,
            pending,
            store,
        } = &self.state;
        levels.capacity() * size_of::<Vec<PartialRef>>()
            + levels.iter().map(Vec::capacity).sum::<usize>() * size_of::<PartialRef>()
            + pending.capacity() * size_of::<Pending>()
            + store.slots.capacity() * size_of::<Slot>()
            + store.free.capacity() * size_of::<u32>()
            + store.event_cap * size_of::<Event>()
            + self.negs.capacity() * size_of::<NegBuffer>()
            + self.negs.iter().map(NegBuffer::heap_bytes).sum::<usize>()
    }

    /// Slab allocations served from the free list since the last
    /// [`take_pool_reused`](Self::take_pool_reused).
    #[must_use]
    pub fn pool_reused(&self) -> u64 {
        self.state.store.reused
    }

    /// Reads and resets [`pool_reused`](Self::pool_reused) (a flow: the
    /// runtime folds it into one engine-level total).
    pub fn take_pool_reused(&mut self) -> u64 {
        std::mem::take(&mut self.state.store.reused)
    }

    /// High-water mark of live pooled partials.
    #[must_use]
    pub fn pool_peak(&self) -> usize {
        self.state.store.peak
    }

    /// Prepares an emptied state for reuse by another partition or
    /// operator: the slab and the negation indexes keep their capacity
    /// (that is the point — an emptied buffer has an empty index), the
    /// per-partition high-water mark does not carry over.
    pub fn recycle(&mut self) {
        debug_assert!(!self.has_state(), "recycling a live run state");
        self.state.store.peak = 0;
        self.floor = Time::MAX;
    }

    /// Verifies the generation-index invariant: every partial ref held
    /// in a level or pending list resolves to a live slot of matching
    /// generation, no two refs alias one slot, the live count agrees,
    /// and every free-list entry is actually free. Test support — never
    /// called on the hot path.
    #[must_use]
    pub fn pool_consistent(&self) -> bool {
        let store = &self.state.store;
        let mut seen = vec![false; store.slots.len()];
        let mut live_refs = 0usize;
        let mut check = |r: PartialRef| -> bool {
            match store.get(r) {
                Some(events) if !events.is_empty() => {
                    !std::mem::replace(&mut seen[r.index as usize], true)
                }
                _ => false,
            }
        };
        for level in &self.state.levels {
            for &r in level {
                if !check(r) {
                    return false;
                }
                live_refs += 1;
            }
        }
        for p in &self.state.pending {
            if !check(p.r) {
                return false;
            }
            live_refs += 1;
        }
        live_refs == store.live
            && store
                .free
                .iter()
                .all(|&i| store.slots.get(i as usize).is_some_and(|s| !s.live))
    }

    /// Discards all state — the context window the operator belongs to
    /// ended, so its context history can be "safely discarded" (§6.2).
    /// In place: the slab and the buffers keep their capacity.
    pub fn reset(&mut self) {
        let MatchState {
            levels,
            pending,
            store,
        } = &mut self.state;
        for level in levels.iter_mut() {
            for &r in level.iter() {
                store.free(r);
            }
            level.clear();
        }
        for pm in pending.iter() {
            store.free(pm.r);
        }
        pending.clear();
        for buf in &mut self.negs {
            buf.clear();
        }
        self.floor = Time::MAX;
    }

    /// Expires partial matches whose first event is at or before `t` —
    /// used when an *original* context window ends while its grouped
    /// windows continue (Figure 7: "when the third window begins, the
    /// partial results within the first window expire").
    pub(super) fn expire_started_at_or_before(&mut self, t: Time) {
        let MatchState {
            levels,
            pending,
            store,
        } = &mut self.state;
        let mut keep = |r: PartialRef| {
            let keep = store.events(r)[0].time() > t;
            if !keep {
                store.free(r);
            }
            keep
        };
        for level in levels.iter_mut() {
            level.retain(|&r| keep(r));
        }
        pending.retain(|pm| keep(pm.r));
    }
}
