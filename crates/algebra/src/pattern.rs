//! The pattern operator `P` (§4.1): event matching, sequences, and
//! sequences with negation.
//!
//! Semantics (paper, §4.1):
//! * `E()` — event matching returns input events of type `E`.
//! * `SEQ(E1,...,En)` — constructs *all* sequences of `n` events with
//!   strictly increasing timestamps, one per type position; the output
//!   event carries the attribute values of every constituent and the
//!   occurrence interval `[e1.time, en.time]`.
//! * `SEQ(S1, NOT E, S2)` — as above, with no event of type `E` strictly
//!   between the end of the `S1` sub-match and the start of the `S2`
//!   sub-match (predicates referencing the negated variable further
//!   constrain which events count). A negated element may also start or
//!   end the sequence; then temporal constraints (the `within` horizon
//!   plus the predicates) bound the interval within which the negated
//!   event may not occur — trailing negation delays emission until the
//!   watermark passes that horizon.
//!
//! State management: partial matches are pruned by the `within` horizon,
//! and [`PatternOp::reset`] / [`PatternOp::expire_started_at_or_before`]
//! implement the context-history lifecycle of §6.2 (partial matches are
//! discarded when their context window ends).
//!
//! Memory discipline: partial matches live in a generation-indexed slab
//! (`PartialStore`) — freed slots keep their event-vector capacity and
//! are recycled, so steady-state matching performs no per-event `Vec`
//! allocation. Candidate extensions are evaluated through borrowed
//! [`Slots`] bindings (`Candidate` / `WithCand`) and only copied
//! into the slab when they must actually be stored; a completion that
//! is emitted or rejected never touches the slab at all. Snapshots
//! serialize the *event lists* the refs resolve to, so the pool layout
//! (slot order, free list, generations) is invisible on the wire.

use crate::expr::{CompiledExpr, Slots};
use crate::nfa::{NfaProgram, NfaStep};
use caesar_events::{Event, Interval, Provenance, Time, TypeId, Value};
use caesar_query::ast::BinOp;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

pub use crate::nfa::{NegPosition, NegationCheck};

/// Counters exposed for metrics and cost-model calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PatternStats {
    /// Full matches emitted.
    pub matches: u64,
    /// Partial matches created (including full ones).
    pub partials_created: u64,
    /// Candidate matches rejected by a negation check.
    pub negation_rejections: u64,
    /// Expression evaluation errors (counted as non-matches).
    pub eval_errors: u64,
    /// Inputs processed: events through the operator's chain, plus —
    /// for a member of a [`SharedGroup`] — `(prefix, event)` candidates
    /// tried at the shared-prefix boundary.
    pub events_processed: u64,
}

/// Generation-checked handle to a pooled partial match.
///
/// A ref is valid only while the slot it names is live *and* the slot's
/// generation equals the ref's: freeing a slot bumps its generation, so
/// a ref that outlives its partial (a use-after-free bug) can never
/// silently alias a recycled slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PartialRef {
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
struct PartialStore {
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
    /// Runs `f` on one slot's event vector, keeping `event_cap` exact.
    fn grow(&mut self, index: u32, f: impl FnOnce(&mut Vec<Event>)) {
        let events = &mut self.slots[index as usize].events;
        let before = events.capacity();
        f(events);
        self.event_cap += events.capacity() - before;
    }

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
    fn free(&mut self, r: PartialRef) {
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
    fn events(&self, r: PartialRef) -> &[Event] {
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

    /// Appends one event to a live partial.
    fn push_event(&mut self, r: PartialRef, ev: &Event) {
        let slot = &self.slots[r.index as usize];
        debug_assert!(slot.live && slot.generation == r.generation);
        self.grow(r.index, |events| events.push(ev.clone()));
    }

    /// Fills a live slot with a borrowed prefix plus `tail` — the
    /// shared-prefix boundary copies group-owned prefixes into a
    /// member's own slab through this.
    fn fill(&mut self, r: PartialRef, prefix: &[Event], tail: &Event) {
        let slot = &self.slots[r.index as usize];
        debug_assert!(slot.live && slot.generation == r.generation);
        self.grow(r.index, |events| {
            events.reserve(prefix.len() + 1);
            events.extend_from_slice(prefix);
            events.push(tail.clone());
        });
    }

    /// Fills `dst` with `src`'s events plus `tail` (slot-to-slot copy
    /// without tearing a borrow through `&mut self`).
    fn copy_extend(&mut self, src: PartialRef, dst: PartialRef, tail: &Event) {
        let (si, di) = (src.index as usize, dst.index as usize);
        assert_ne!(si, di, "alloc returned a live slot");
        let (src_slot, dst_slot): (&Slot, &mut Slot) = if si < di {
            let (head, rest) = self.slots.split_at_mut(di);
            (&head[si], &mut rest[0])
        } else {
            let (head, rest) = self.slots.split_at_mut(si);
            (&rest[0], &mut head[di])
        };
        debug_assert!(src_slot.live && src_slot.generation == src.generation);
        debug_assert!(dst_slot.live && dst_slot.generation == dst.generation);
        let before = dst_slot.events.capacity();
        dst_slot.events.reserve(src_slot.events.len() + 1);
        dst_slot.events.extend_from_slice(&src_slot.events);
        dst_slot.events.push(tail.clone());
        self.event_cap += dst_slot.events.capacity() - before;
    }
}

/// A full match waiting for a trailing-negation horizon to pass.
#[derive(Debug, Clone, Copy)]
struct Pending {
    r: PartialRef,
    /// Emit once the watermark exceeds this deadline, unless a negated
    /// event arrives in `(last positive, deadline]`.
    deadline: Time,
}

/// Pooled partial-match state: per-level ref lists, parked full matches,
/// and the slab both resolve into.
#[derive(Debug, Clone, Default)]
struct MatchState {
    /// Partial matches indexed by number of bound elements − 1.
    levels: Vec<Vec<PartialRef>>,
    pending: Vec<Pending>,
    store: PartialStore,
}

impl MatchState {
    /// Allocates a copy of `prefix`'s events extended by `tail`.
    fn alloc_extended(&mut self, prefix: PartialRef, tail: &Event) -> PartialRef {
        let r = self.store.alloc();
        self.store.copy_extend(prefix, r, tail);
        r
    }

    /// Allocates a single-event partial.
    fn alloc_single(&mut self, event: &Event) -> PartialRef {
        let r = self.store.alloc();
        self.store.push_event(r, event);
        r
    }

    /// Allocates a partial from a borrowed prefix plus `tail` (the
    /// shared-prefix boundary crossing).
    fn adopt_candidate(&mut self, prefix: &[Event], tail: &Event) -> PartialRef {
        let r = self.store.alloc();
        self.store.fill(r, prefix, tail);
        r
    }
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

/// The mutable run state of one stateful operator — a [`PatternOp`] or a
/// [`SharedGroup`] — in one stream partition: partial matches, parked
/// trailing-negation matches, negation buffers and their transient
/// index. Everything else about an operator (compiled program,
/// counters) is the same for every partition and lives once, in the
/// operator.
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
    /// Negation buffers, parallel to the program's negation checks.
    neg_buffers: Vec<VecDeque<Event>>,
    /// Pooled partial-match state (levels, pending, slab).
    state: MatchState,
    /// Per-check incremental negation-index state (sequence base plus
    /// the persistent index; see [`NegCtx::violates_indexed`]).
    /// Transient: a restored snapshot rebuilds from the buffers alone.
    #[serde(skip)]
    neg_state: Vec<NegState>,
    /// A lower bound on the earliest deadline of anything held (see
    /// [`floor`](Self::floor)).
    floor: Time,
}

impl Default for RunState {
    fn default() -> Self {
        Self {
            neg_buffers: Vec::new(),
            state: MatchState::default(),
            neg_state: Vec::new(),
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
    /// watermark, through [`PatternOp::advance_time`].
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
        self.neg_state
            .resize_with(self.neg_buffers.len(), NegState::default);
        let buffers = self.neg_buffers.iter_mut().zip(&mut self.neg_state);
        for ((buf, neg), check) in buffers.zip(negations) {
            if own || check.position != NegPosition::Before {
                while buf.front().is_some_and(|e| dead(e.time())) {
                    buf.pop_front();
                    neg.base += 1;
                }
            }
            if let Some(head) = buf.front() {
                floor = floor.min(head.time().saturating_add(within));
            }
        }
        let parked = pending.iter().map(|pm| pm.deadline);
        self.floor = parked.fold(floor, Time::min);
    }

    /// Sizes the per-level and per-negation vectors (empty after
    /// `default()`, a snapshot restore of the transient index, or a
    /// recycle from another operator) to the operator's shape.
    fn ensure_shape(&mut self, levels: usize, negations: usize) {
        if self.state.levels.len() != levels {
            debug_assert!(!self.has_state(), "reshaping a live run state");
            self.state.levels.resize_with(levels, Vec::new);
        }
        if self.neg_buffers.len() != negations {
            self.neg_buffers.resize_with(negations, VecDeque::new);
        }
        if self.neg_state.len() != negations {
            self.neg_state.resize_with(negations, NegState::default);
        }
    }

    /// Overwrites this state with a copy of `src` in place: slot by
    /// slot and buffer by buffer, down to the slab's event vectors, so
    /// a state that is overwritten again and again (the speculative
    /// fork's, on every rewind) settles on its largest shape and then
    /// allocates nothing. The transient negation index is copied the
    /// same way: dropping it (a restored snapshot does without one)
    /// would have the first probe after every copy rebuild it, hash
    /// table growth included.
    pub fn copy_from(&mut self, src: &RunState) {
        self.neg_buffers.clone_from(&src.neg_buffers);
        self.neg_state
            .resize_with(src.neg_state.len(), NegState::default);
        for (state, from) in self.neg_state.iter_mut().zip(&src.neg_state) {
            state.base = from.base;
            match (&mut state.index, &from.index) {
                (Some(index), Some(from)) => index.copy_from(from),
                (index, from) => index.clone_from(from),
            }
        }
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
        self.live_partials() > 0 || self.neg_buffers.iter().any(|b| !b.is_empty())
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
    /// it grows, never summed by a walk.
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
            + self.neg_buffers.capacity() * size_of::<VecDeque<Event>>()
            + self
                .neg_buffers
                .iter()
                .map(VecDeque::capacity)
                .sum::<usize>()
                * size_of::<Event>()
            + self.neg_state.capacity() * size_of::<NegState>()
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
    /// operator: the slab keeps its capacity (that is the point), the
    /// per-partition high-water mark and the negation index do not
    /// carry over.
    pub fn recycle(&mut self) {
        debug_assert!(!self.has_state(), "recycling a live run state");
        self.state.store.peak = 0;
        self.neg_state.clear();
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
        for buf in &mut self.neg_buffers {
            buf.clear();
        }
        // Nothing is buffered, so the index starts over.
        self.neg_state.clear();
        self.floor = Time::MAX;
    }

    /// Expires partial matches whose first event is at or before `t` —
    /// used when an *original* context window ends while its grouped
    /// windows continue (Figure 7: "when the third window begins, the
    /// partial results within the first window expire").
    fn expire_started_at_or_before(&mut self, t: Time) {
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

/// A candidate match — a stored (or empty) prefix plus the tail event
/// that would extend it, bound by reference. Slot `i` of the binding is
/// positive element `i`; the candidate is never materialized unless it
/// must be stored or parked.
#[derive(Debug, Clone, Copy)]
struct Candidate<'a> {
    prefix: &'a [Event],
    tail: &'a Event,
}

impl<'a> Candidate<'a> {
    /// Views a materialized event list as a candidate.
    fn of(events: &'a [Event]) -> Self {
        let (tail, prefix) = events.split_last().expect("non-empty partial");
        Candidate { prefix, tail }
    }

    fn len(&self) -> usize {
        self.prefix.len() + 1
    }

    fn get(&self, i: usize) -> &'a Event {
        if i == self.prefix.len() {
            self.tail
        } else {
            &self.prefix[i]
        }
    }

    fn try_get(&self, i: usize) -> Option<&'a Event> {
        if i == self.prefix.len() {
            Some(self.tail)
        } else {
            self.prefix.get(i)
        }
    }

    fn first(&self) -> &'a Event {
        self.get(0)
    }

    fn last(&self) -> &'a Event {
        self.tail
    }

    fn iter(&self) -> impl Iterator<Item = &'a Event> + '_ {
        self.prefix.iter().chain(std::iter::once(self.tail))
    }
}

impl Slots for Candidate<'_> {
    #[inline]
    fn slot(&self, slot: usize) -> &Event {
        self.get(slot)
    }
}

/// A candidate match plus a negated-event candidate bound at slot
/// `positive_count` — the binding shape of [`NegationCheck`] predicates.
#[derive(Debug, Clone, Copy)]
struct WithCand<'a> {
    pos: Candidate<'a>,
    cand: &'a Event,
}

impl Slots for WithCand<'_> {
    #[inline]
    fn slot(&self, slot: usize) -> &Event {
        if slot == self.pos.len() {
            self.cand
        } else {
            self.pos.get(slot)
        }
    }
}

/// Binds the same event at every slot — used to evaluate index-key
/// expressions that only reference the candidate slot.
struct AllSlots<'a>(&'a Event);

impl Slots for AllSlots<'_> {
    #[inline]
    fn slot(&self, _slot: usize) -> &Event {
        self.0
    }
}

/// Destination for emitted match events: the per-event path appends to
/// a plain `Vec<Event>`, the batch path tags each match with its input
/// row.
trait MatchSink {
    fn emit(&mut self, ev: Event);
}

impl MatchSink for Vec<Event> {
    #[inline]
    fn emit(&mut self, ev: Event) {
        self.push(ev);
    }
}

struct RowTagged<'a> {
    row: u32,
    out: &'a mut Vec<(u32, Event)>,
}

impl MatchSink for RowTagged<'_> {
    #[inline]
    fn emit(&mut self, ev: Event) {
        self.out.push((self.row, ev));
    }
}

/// Outcome of completing a candidate match.
enum Verdict {
    Rejected,
    Emit,
    Park { deadline: Time },
}

/// The pattern operator: an [`NfaProgram`] and its counters — one per
/// engine — plus the [`RunState`] of whichever
/// partition is currently bound (its own, when used standalone).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PatternOp {
    /// The compiled program (steps, negations, horizon, output shape).
    /// Behind an [`Arc`]: the optimizer and the baseline's redundant
    /// derivers clone operators; the program is immutable after
    /// optimization, so clones share it and the rare pre-execution
    /// mutators copy-on-write.
    program: Arc<NfaProgram>,
    /// The run state of the bound partition (the operator's own, when
    /// nothing detaches it).
    run: RunState,
    /// Number of leading steps owned by a [`SharedGroup`]: this operator
    /// never creates or extends partials below that level — the combined
    /// plan crosses the boundary via
    /// [`cross_boundary`](Self::cross_boundary). `0` ⇒ unshared.
    shared_prefix_len: usize,
    /// Observability counters.
    pub stats: PatternStats,
}

/// Hashable projection of a [`Value`] usable as a negation-index key.
/// Floats and nulls are not hashable (NaN, null-comparison semantics) —
/// candidates carrying them stay in the always-scanned overflow list.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum IndexKey {
    Int(i64),
    Bool(bool),
    Str(Arc<str>),
}

fn index_key(v: &Value) -> Option<IndexKey> {
    match v {
        Value::Int(i) => Some(IndexKey::Int(*i)),
        Value::Bool(b) => Some(IndexKey::Bool(*b)),
        Value::Str(s) => Some(IndexKey::Str(s.clone())),
        Value::Float(_) | Value::Null => None,
    }
}

/// Transient per-negation-check state of the incremental index.
#[derive(Debug, Clone, Default)]
struct NegState {
    /// Entries evicted from the buffer front so far — the monotone
    /// sequence base that gives index entries a stable identity.
    base: u64,
    /// The persistent index, built lazily on the first probe.
    index: Option<Box<NegIndex>>,
}

/// A persistent hash index over one negation buffer, keyed by one side
/// of an equality predicate and maintained *incrementally*: entries
/// appended since the last probe are indexed on the next one (the
/// un-indexed tail is caught up), and front evictions merely advance
/// the buffer's sequence base — bucket entries carry the monotone
/// sequence number assigned at push, so stale entries are recognized
/// (`seq < base`) and dropped lazily, with a full sweep only once the
/// stale debt dwarfs the live buffer. A probe therefore touches the
/// probe key's bucket and the unkeyed `overflow` list, never the whole
/// buffer: the scan's `any(time filter && all predicates)` is unchanged
/// because the key equality fails on every other bucket, and per-entry
/// times are stored so the time filter is applied at probe time.
#[derive(Debug, Clone, Default)]
struct NegIndex {
    /// Sequence number of the first buffer entry not yet indexed.
    next_seq: u64,
    /// Sequence base at the last full sweep (bounds stale-entry debt).
    swept_base: u64,
    /// `(seq, time)` of entries by key value, in sequence order.
    buckets: HashMap<IndexKey, Vec<(u64, Time)>>,
    /// `(seq, time)` of entries whose key failed to evaluate or hash.
    overflow: Vec<(u64, Time)>,
}

impl NegIndex {
    /// In-place copy ([`RunState::copy_from`]): the table and the
    /// buckets of the keys both sides hold keep their allocations.
    fn copy_from(&mut self, src: &NegIndex) {
        self.next_seq = src.next_seq;
        self.swept_base = src.swept_base;
        self.overflow.clone_from(&src.overflow);
        self.buckets.retain(|key, _| src.buckets.contains_key(key));
        for (key, entries) in &src.buckets {
            match self.buckets.get_mut(key) {
                Some(bucket) => bucket.clone_from(entries),
                None => drop(self.buckets.insert(key.clone(), entries.clone())),
            }
        }
    }
}

/// Splits an equality predicate into `(candidate side, positives side)`
/// when one operand is a pure function of the candidate slot and the
/// other never touches it.
fn split_equality(pred: &CompiledExpr, cand_slot: u8) -> Option<(&CompiledExpr, &CompiledExpr)> {
    let CompiledExpr::Bin {
        op: BinOp::Eq,
        lhs,
        rhs,
    } = pred
    else {
        return None;
    };
    let (l_cand, l_other) = lhs.slot_usage(cand_slot);
    let (r_cand, r_other) = rhs.slot_usage(cand_slot);
    if l_cand && !l_other && !r_cand {
        Some((lhs, rhs))
    } else if r_cand && !r_other && !l_cand {
        Some((rhs, lhs))
    } else {
        None
    }
}

/// Picks the equality predicate to index on: prefer a bare
/// attribute-to-attribute join key (e.g. `p1.vid = p2.vid` — selective),
/// fall back to any splittable equality.
fn pick_index_pred(preds: &[CompiledExpr], cand_slot: u8) -> Option<usize> {
    let mut fallback = None;
    for (i, p) in preds.iter().enumerate() {
        if let Some((c, o)) = split_equality(p, cand_slot) {
            if matches!(c, CompiledExpr::Attr { .. }) && matches!(o, CompiledExpr::Attr { .. }) {
                return Some(i);
            }
            fallback.get_or_insert(i);
        }
    }
    fallback
}

/// Stale-entry debt tolerated beyond `4 × live buffer` before a probe
/// sweeps the index (amortizes sweeps against eviction volume).
const NEG_INDEX_SWEEP_SLACK: u64 = 64;

/// Borrow bundle for negation checking — everything `violates` touches,
/// split from the operator so candidate bindings may keep borrowing the
/// partial store while checks run.
struct NegCtx<'a> {
    negations: &'a [NegationCheck],
    neg_buffers: &'a [VecDeque<Event>],
    neg_state: &'a mut [NegState],
    stats: &'a mut PatternStats,
    positive_count: usize,
}

impl NegCtx<'_> {
    /// Does any buffered negated event of check `i` fall strictly inside
    /// `(lo, hi)` (`None` bounds are open) with all predicates holding?
    fn violates(
        &mut self,
        check: usize,
        positives: Candidate<'_>,
        lo: Option<Time>,
        hi: Option<Time>,
    ) -> bool {
        // Hot path: the persistent per-check hash index restricts the
        // scan to the probe key's bucket — see `violates_indexed`.
        if let Some(hit) = self.violates_indexed(check, positives, lo, hi) {
            return hit;
        }
        let neg = &self.negations[check];
        let buf = &self.neg_buffers[check];
        let mut errors = 0;
        let hit = buf.iter().any(|cand| {
            let t = cand.time();
            if lo.is_some_and(|l| t <= l) || hi.is_some_and(|h| t >= h) {
                return false;
            }
            let binding = WithCand {
                pos: positives,
                cand,
            };
            neg.predicates
                .iter()
                .all(|p| p.matches_in(&binding, &mut errors))
        });
        self.stats.eval_errors += errors;
        hit
    }

    /// Index-accelerated [`violates`](Self::violates). Returns `None`
    /// (fall back to the scan) when no predicate splits into an
    /// indexable equality or the probe key does not evaluate to a
    /// hashable value.
    ///
    /// Exactness: the scan computes `∃ candidate: time-filter ∧ all
    /// predicates`. Candidates outside the probe's bucket fail the key
    /// equality, hence the conjunction — restricting the scan to the
    /// bucket and the unkeyed overflow leaves the result (and therefore
    /// matches, rejections, and outputs) unchanged; entry times are
    /// stored, so `lo`/`hi` filter exactly like the scan, and stale
    /// sequence numbers are exactly the entries the buffer no longer
    /// holds. Only `eval_errors` may count differently, since
    /// predicates are evaluated on fewer candidates.
    fn violates_indexed(
        &mut self,
        check: usize,
        positives: Candidate<'_>,
        lo: Option<Time>,
        hi: Option<Time>,
    ) -> Option<bool> {
        let NegCtx {
            negations,
            neg_buffers,
            neg_state,
            stats,
            positive_count,
        } = self;
        let cand_slot = *positive_count as u8;
        let key_pred = pick_index_pred(&negations[check].predicates, cand_slot)?;
        let (cand_side, probe_side) =
            split_equality(&negations[check].predicates[key_pred], cand_slot)
                .expect("pick_index_pred returned a splittable equality");
        // The probe side is almost always a bare attribute reference of
        // a positive event: read it directly, skipping the evaluator.
        let probe = match probe_side {
            CompiledExpr::Attr { slot, attr } => index_key(
                positives
                    .try_get(*slot as usize)?
                    .attrs
                    .get(*attr as usize)?,
            )?,
            _ => index_key(&probe_side.eval_in(&positives).ok()?)?,
        };
        let buf = &neg_buffers[check];
        let base = neg_state[check].base;
        let ix = neg_state[check].index.get_or_insert_with(Box::default);
        // Sweep once the stale debt dwarfs the live buffer.
        if base.saturating_sub(ix.swept_base) > 4 * buf.len() as u64 + NEG_INDEX_SWEEP_SLACK {
            ix.buckets.clear();
            ix.overflow.clear();
            ix.next_seq = base;
            ix.swept_base = base;
        }
        // Catch up over entries appended since the last probe (entries
        // both appended and evicted in between are gone — skip ahead).
        // The key side is almost always a bare attribute of the negated
        // candidate itself.
        let cand_attr = match cand_side {
            CompiledExpr::Attr { slot, attr } if *slot == cand_slot => Some(*attr as usize),
            _ => None,
        };
        let caught_up = (ix.next_seq.max(base) - base) as usize;
        for (j, cand) in buf.iter().enumerate().skip(caught_up) {
            let key = match cand_attr {
                Some(a) => cand.attrs.get(a).and_then(index_key),
                None => cand_side
                    .eval_in(&AllSlots(cand))
                    .ok()
                    .as_ref()
                    .and_then(index_key),
            };
            let entry = (base + j as u64, cand.time());
            match key {
                Some(k) => ix.buckets.entry(k).or_default().push(entry),
                None => ix.overflow.push(entry),
            }
        }
        ix.next_seq = base + buf.len() as u64;

        let neg = &negations[check];
        let mut errors = 0u64;
        let check_entry = |&(seq, t): &(u64, Time), errors: &mut u64| -> bool {
            if seq < base || lo.is_some_and(|l| t <= l) || hi.is_some_and(|h| t >= h) {
                return false;
            }
            let cand = &buf[(seq - base) as usize];
            let binding = WithCand {
                pos: positives,
                cand,
            };
            neg.predicates
                .iter()
                .all(|p| p.matches_in(&binding, errors))
        };
        // Stale entries form a prefix (sequence order): drop them from
        // the structures we touch anyway, keeping probes O(bucket).
        let hit = ix.buckets.get_mut(&probe).is_some_and(|bucket| {
            let dead = bucket.partition_point(|&(seq, _)| seq < base);
            if dead > 0 {
                bucket.drain(..dead);
            }
            bucket.iter().any(|e| check_entry(e, &mut errors))
        }) || {
            let dead = ix.overflow.partition_point(|&(seq, _)| seq < base);
            if dead > 0 {
                ix.overflow.drain(..dead);
            }
            ix.overflow.iter().any(|e| check_entry(e, &mut errors))
        };
        stats.eval_errors += errors;
        Some(hit)
    }
}

/// Runs non-trailing negation checks on a complete candidate and
/// decides its fate. The candidate stays borrowed — storage happens at
/// the call site only for [`Verdict::Park`].
fn complete_candidate(
    cand: Candidate<'_>,
    ctx: &mut NegCtx<'_>,
    trailing: bool,
    within: Time,
) -> Verdict {
    for i in 0..ctx.negations.len() {
        let position = ctx.negations[i].position;
        if position == NegPosition::After {
            continue;
        }
        let (lo, hi) = match position {
            NegPosition::Before => (None, Some(cand.first().time())),
            NegPosition::Between(k) => (Some(cand.get(k).time()), Some(cand.get(k + 1).time())),
            NegPosition::After => unreachable!(),
        };
        if ctx.violates(i, cand, lo, hi) {
            ctx.stats.negation_rejections += 1;
            return Verdict::Rejected;
        }
    }
    if trailing {
        Verdict::Park {
            deadline: cand.last().time().saturating_add(within),
        }
    } else {
        Verdict::Emit
    }
}

/// Builds the combined match event (attribute values of all events in
/// the sequence; occurrence `[e1.time, en.time]`). With `collect` the
/// event also carries the [`Provenance`] of the match — one step per
/// bound event, in step order.
fn assemble_match(match_type: TypeId, cand: Candidate<'_>, collect: bool) -> Event {
    let total: usize = cand.iter().map(|e| e.attrs.len()).sum();
    let mut attrs: Vec<Value> = Vec::with_capacity(total);
    for e in cand.iter() {
        attrs.extend(e.attrs.iter().cloned());
    }
    let event = Event::complex(
        match_type,
        Interval::new(cand.first().time(), cand.last().time()),
        cand.first().partition,
        Arc::from(attrs),
    );
    if collect {
        event.with_provenance(Arc::new(Provenance::from_steps(
            cand.iter().map(|e| (e.type_id, e.occurrence)),
        )))
    } else {
        event
    }
}

/// Provenance of a pass-through match: the triggering event itself.
fn passthrough_provenance(event: &Event) -> Arc<Provenance> {
    Arc::new(Provenance::from_steps([(event.type_id, event.occurrence)]))
}

impl PatternOp {
    /// Builds a pass-through pattern for a single positive step with
    /// no predicates: input events of the type flow through unchanged.
    #[must_use]
    pub fn passthrough(type_id: TypeId) -> Self {
        Self::compile(NfaProgram {
            steps: vec![NfaStep {
                type_id,
                predicates: Vec::new(),
            }],
            negations: Vec::new(),
            within: Time::MAX,
            match_type: None,
            offsets: vec![0],
            collect_provenance: false,
        })
    }

    /// Compiles a program into an executable operator. Prefer the
    /// [`PatternBuilder`](crate::nfa::PatternBuilder) front-end for
    /// hand-written construction.
    #[must_use]
    pub fn compile(program: NfaProgram) -> Self {
        assert!(
            !program.steps.is_empty(),
            "pattern needs at least one positive step"
        );
        assert_eq!(program.offsets.len(), program.steps.len());
        Self {
            program: Arc::new(program),
            run: RunState::default(),
            shared_prefix_len: 0,
            stats: PatternStats::default(),
        }
    }

    /// Sizes the bound run state to this program (see
    /// [`RunState::ensure_shape`]).
    fn ensure_shape(&mut self) {
        self.run
            .ensure_shape(self.program.steps.len(), self.program.negations.len());
    }

    /// The bound run state — the runtime's attachment point: it swaps a
    /// partition's stored state in here when the partition's turn comes
    /// and back out when another's does.
    pub fn run_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    /// Read access to the bound run state.
    #[must_use]
    pub fn run(&self) -> &RunState {
        &self.run
    }

    /// Event types this pattern consumes (positive and negated).
    #[must_use]
    pub fn input_types(&self) -> Vec<TypeId> {
        let mut types: Vec<TypeId> = self
            .program
            .steps
            .iter()
            .map(|s| s.type_id)
            .chain(self.program.negations.iter().map(|n| n.type_id))
            .collect();
        types.sort_unstable();
        types.dedup();
        types
    }

    /// Number of positive steps.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.program.steps.len()
    }

    /// The program's positive steps, in sequence order.
    #[must_use]
    pub fn steps(&self) -> &[NfaStep] {
        &self.program.steps
    }

    /// The program's negation checks.
    #[must_use]
    pub fn negations(&self) -> &[NegationCheck] {
        &self.program.negations
    }

    /// The program's match-span horizon.
    #[must_use]
    pub fn within(&self) -> Time {
        self.program.within
    }

    /// Returns `true` for pass-through patterns.
    #[must_use]
    pub fn is_passthrough(&self) -> bool {
        self.program.match_type.is_none()
    }

    /// Whether emitted matches carry [`Provenance`].
    #[must_use]
    pub fn collect_provenance(&self) -> bool {
        self.program.collect_provenance
    }

    /// Switches provenance collection on or off (the engine applies the
    /// `EngineConfig::provenance` knob here before execution starts).
    pub fn set_collect_provenance(&mut self, collect: bool) {
        if self.program.collect_provenance != collect {
            Arc::make_mut(&mut self.program).collect_provenance = collect;
        }
    }

    /// Number of leading steps delegated to a [`SharedGroup`] (`0` ⇒
    /// unshared).
    #[must_use]
    pub fn shared_prefix_len(&self) -> usize {
        self.shared_prefix_len
    }

    /// Delegates the leading `len` steps to a [`SharedGroup`]: the
    /// operator stops creating or extending partials at or below level
    /// `len` and expects boundary crossings via
    /// [`cross_boundary`](Self::cross_boundary). Must only be
    /// set on a sequence pattern with `1 <= len < arity`, before any
    /// event was processed.
    pub fn set_shared_prefix_len(&mut self, len: usize) {
        assert!(
            len < self.program.steps.len(),
            "shared prefix must be strictly shorter than the pattern"
        );
        assert!(
            len == 0 || !self.is_passthrough(),
            "pass-through patterns cannot share a prefix"
        );
        self.shared_prefix_len = len;
    }

    /// The single consumed type of a pass-through pattern without
    /// negation, or `None`. Such a pattern is a pure type filter —
    /// [`process`] emits the input unchanged exactly when the type
    /// matches, touching no state — so a batch may be filtered
    /// stage-major with identical outputs and counters.
    ///
    /// [`process`]: PatternOp::process
    #[must_use]
    pub fn passthrough_type(&self) -> Option<TypeId> {
        if self.is_passthrough() && self.program.negations.is_empty() && !self.collect_provenance()
        {
            Some(self.program.steps[0].type_id)
        } else {
            None
        }
    }

    /// Attribute offsets of the positive steps in the combined match
    /// event (offset 0 for pass-through patterns).
    #[must_use]
    pub fn offsets(&self) -> &[u16] {
        &self.program.offsets
    }

    /// Installs one step predicate, used by the optimizer's predicate
    /// push-down.
    pub fn push_step_predicate(&mut self, step: usize, predicate: CompiledExpr) {
        Arc::make_mut(&mut self.program).steps[step]
            .predicates
            .push(predicate);
    }

    /// Whether the pattern has a trailing negation (delayed emission).
    #[must_use]
    pub fn has_trailing_negation(&self) -> bool {
        self.program
            .negations
            .iter()
            .any(|n| n.position == NegPosition::After)
    }

    /// Number of live partial matches (for memory metrics).
    #[must_use]
    pub fn live_partials(&self) -> usize {
        self.run.live_partials()
    }

    /// Total pool allocations served from the free list — how many
    /// `Vec` allocations the slab saved.
    #[must_use]
    pub fn pool_reused(&self) -> u64 {
        self.run.pool_reused()
    }

    /// High-water mark of live pooled partials.
    #[must_use]
    pub fn pool_peak(&self) -> usize {
        self.run.pool_peak()
    }

    /// The bound run state's [`RunState::pool_consistent`].
    #[must_use]
    pub fn pool_consistent(&self) -> bool {
        self.run.pool_consistent()
    }

    /// Returns `true` if the operator holds any time-sensitive state —
    /// when `false`, advancing the watermark is a no-op, so suspended
    /// idle plans can be skipped entirely.
    #[must_use]
    pub fn has_state(&self) -> bool {
        self.run.has_state()
    }

    /// Processes one input event, appending emitted match events to `out`.
    pub fn process(&mut self, event: &Event, out: &mut Vec<Event>) {
        self.process_event(event, out);
    }

    /// Processes a same-`(partition, time)` run of rows, appending
    /// `(row, match)` pairs to `out` in exactly the per-row order
    /// [`process`](Self::process) would produce. Rows are the `sel`
    /// entries, in order, indexing `events`. Outputs and every counter
    /// are those of the per-event path: the rows take it one by one, and
    /// the row tags are what the combined plan's plan-major merge keys
    /// on.
    pub fn process_batch(&mut self, events: &[Event], sel: &[u32], out: &mut Vec<(u32, Event)>) {
        for &row in sel {
            let mut sink = RowTagged { row, out };
            self.process_event(&events[row as usize], &mut sink);
        }
    }

    /// The shared per-event engine behind [`process`](Self::process) and
    /// [`process_batch`](Self::process_batch).
    fn process_event<S: MatchSink>(&mut self, event: &Event, out: &mut S) {
        self.stats.events_processed += 1;
        self.ensure_shape();

        // 1. Feed negation buffers and check pending (trailing-negation)
        //    matches against the new event.
        self.feed_negations(event);

        if self.is_passthrough() {
            if self.program.steps[0].type_id == event.type_id {
                self.stats.matches += 1;
                if self.program.collect_provenance {
                    out.emit(event.clone().with_provenance(passthrough_provenance(event)));
                } else {
                    out.emit(event.clone());
                }
            }
            return;
        }

        // 2. Extend partial matches, longest prefix first so a new
        //    partial is never re-extended by the event that created it.
        let t = event.time();
        let within = self.program.within;
        let trailing = self.has_trailing_negation();
        let match_type = self.program.match_type.expect("sequence mode");
        let collect = self.program.collect_provenance;
        let shared_len = self.shared_prefix_len;
        let Self {
            program,
            run:
                RunState {
                    neg_buffers,
                    neg_state,
                    state,
                    floor,
                },
            stats,
            ..
        } = self;
        let steps = &program.steps;
        let negations = &program.negations;
        let n = steps.len();
        // What this event starts expires at `t + within`; an extension
        // expires with its prefix, which the floor already covers.
        let started = t.saturating_add(within);
        for i in (0..n).rev() {
            // Levels below the shared prefix live in the group's state:
            // the owning `SharedGroup` creates and extends them, and the
            // boundary step is taken by `cross_boundary` alone.
            if shared_len > 0 && i <= shared_len {
                break;
            }
            if steps[i].type_id != event.type_id {
                continue;
            }
            if i == 0 {
                let cand = Candidate {
                    prefix: &[],
                    tail: event,
                };
                let passed = steps[0]
                    .predicates
                    .iter()
                    .all(|p| p.matches_in(&cand, &mut stats.eval_errors));
                if !passed {
                    continue;
                }
                stats.partials_created += 1;
                if n == 1 {
                    let mut ctx = NegCtx {
                        negations,
                        neg_buffers,
                        neg_state: neg_state.as_mut_slice(),
                        stats: &mut *stats,
                        positive_count: n,
                    };
                    match complete_candidate(cand, &mut ctx, trailing, within) {
                        Verdict::Rejected => {}
                        Verdict::Emit => {
                            out.emit(assemble_match(match_type, cand, collect));
                            stats.matches += 1;
                        }
                        Verdict::Park { deadline } => {
                            let r = state.alloc_single(event);
                            state.pending.push(Pending { r, deadline });
                            *floor = (*floor).min(started);
                        }
                    }
                } else {
                    let r = state.alloc_single(event);
                    state.levels[0].push(r);
                    *floor = (*floor).min(started);
                }
            } else {
                // Take the shorter partials out to extend them without
                // aliasing; sequences require strictly increasing times
                // and a bounded total span.
                let refs = std::mem::take(&mut state.levels[i - 1]);
                for &pr in &refs {
                    let prefix = state.store.events(pr);
                    let last_t = prefix.last().expect("non-empty").time();
                    if !(last_t < t && t.saturating_sub(prefix[0].time()) <= within) {
                        continue;
                    }
                    let cand = Candidate {
                        prefix,
                        tail: event,
                    };
                    if !steps[i]
                        .predicates
                        .iter()
                        .all(|p| p.matches_in(&cand, &mut stats.eval_errors))
                    {
                        continue;
                    }
                    stats.partials_created += 1;
                    if i + 1 == n {
                        let mut ctx = NegCtx {
                            negations,
                            neg_buffers,
                            neg_state: neg_state.as_mut_slice(),
                            stats: &mut *stats,
                            positive_count: n,
                        };
                        match complete_candidate(cand, &mut ctx, trailing, within) {
                            Verdict::Rejected => {}
                            Verdict::Emit => {
                                out.emit(assemble_match(match_type, cand, collect));
                                stats.matches += 1;
                            }
                            Verdict::Park { deadline } => {
                                let r = state.alloc_extended(pr, event);
                                state.pending.push(Pending { r, deadline });
                            }
                        }
                    } else {
                        let r = state.alloc_extended(pr, event);
                        state.levels[i].push(r);
                    }
                }
                state.levels[i - 1] = refs;
            }
        }
    }

    /// Crosses the shared-prefix boundary: tries `event` — whose type is
    /// that of step `shared_prefix_len`, which the combined plan's
    /// routing table guarantees — against every full prefix `group`
    /// holds, emitting completed matches to `out` or storing the new
    /// partials in this operator's own state. The operator's input here
    /// is the `(prefix, event)` candidate: each one tried counts as one
    /// unit of `events_processed` and yields at most one match.
    pub fn cross_boundary(&mut self, group: &SharedGroup, event: &Event, out: &mut Vec<Event>) {
        debug_assert_eq!(
            self.program.steps[self.shared_prefix_len].type_id, event.type_id,
            "routed by the boundary step's type"
        );
        for prefix in group.full_prefixes() {
            self.stats.events_processed += 1;
            self.extend_from_shared(prefix, event, out);
        }
    }

    /// One boundary extension. Mirrors the extension arm of
    /// `process_event` exactly — same guards, predicates, counters, and
    /// verdict handling — so shared execution reproduces unshared
    /// outputs byte for byte.
    fn extend_from_shared(&mut self, prefix: &[Event], event: &Event, out: &mut Vec<Event>) {
        let i = self.shared_prefix_len;
        debug_assert!(i >= 1 && prefix.len() == i, "boundary needs a full prefix");
        let t = event.time();
        let within = self.program.within;
        let last_t = prefix.last().expect("non-empty prefix").time();
        if !(last_t < t && t.saturating_sub(prefix[0].time()) <= within) {
            return;
        }
        self.ensure_shape();
        let trailing = self.has_trailing_negation();
        let match_type = self.program.match_type.expect("sequence mode");
        let collect = self.program.collect_provenance;
        let Self {
            program,
            run:
                RunState {
                    neg_buffers,
                    neg_state,
                    state,
                    floor,
                },
            stats,
            ..
        } = self;
        let n = program.steps.len();
        // The prefix came from the group's state, not this one's floor.
        let expires = prefix[0].time().saturating_add(within);
        let cand = Candidate {
            prefix,
            tail: event,
        };
        if !program.steps[i]
            .predicates
            .iter()
            .all(|p| p.matches_in(&cand, &mut stats.eval_errors))
        {
            return;
        }
        stats.partials_created += 1;
        if i + 1 == n {
            let mut ctx = NegCtx {
                negations: &program.negations,
                neg_buffers,
                neg_state: neg_state.as_mut_slice(),
                stats: &mut *stats,
                positive_count: n,
            };
            match complete_candidate(cand, &mut ctx, trailing, within) {
                Verdict::Rejected => {}
                Verdict::Emit => {
                    out.push(assemble_match(match_type, cand, collect));
                    stats.matches += 1;
                }
                Verdict::Park { deadline } => {
                    let r = state.adopt_candidate(prefix, event);
                    state.pending.push(Pending { r, deadline });
                    *floor = (*floor).min(expires);
                }
            }
        } else {
            let r = state.adopt_candidate(prefix, event);
            state.levels[i].push(r);
            *floor = (*floor).min(expires);
        }
    }

    /// Feeds negation buffers with a matching event, rejecting pending
    /// trailing-negation matches and pruning each touched buffer by the
    /// `within` horizon.
    fn feed_negations(&mut self, event: &Event) {
        let t = event.time();
        for i in 0..self.program.negations.len() {
            if self.program.negations[i].type_id != event.type_id {
                continue;
            }
            if self.program.negations[i].position == NegPosition::After {
                self.reject_pending(i, event);
            }
            let within = self.program.within;
            let buf = &mut self.run.neg_buffers[i];
            buf.push_back(event.clone());
            // Prune by horizon; advancing the sequence base marks the
            // evicted entries' index records stale.
            let mut evicted = 0;
            while buf.front().is_some_and(|e| e.time() + within < t) {
                buf.pop_front();
                evicted += 1;
            }
            self.run.neg_state[i].base += evicted;
            self.run.floor = self.run.floor.min(t.saturating_add(within));
        }
    }

    /// Drops pending trailing-negation matches invalidated by `event`.
    fn reject_pending(&mut self, check: usize, event: &Event) {
        let Self {
            program,
            run,
            stats,
            ..
        } = self;
        let MatchState { pending, store, .. } = &mut run.state;
        let neg = &program.negations[check];
        let t = event.time();
        let mut errors = 0;
        let before = pending.len();
        pending.retain(|pm| {
            let events = store.events(pm.r);
            let last_t = events.last().expect("non-empty").time();
            if t <= last_t || t > pm.deadline {
                return true;
            }
            let binding = WithCand {
                pos: Candidate::of(events),
                cand: event,
            };
            let keep = !neg
                .predicates
                .iter()
                .all(|p| p.matches_in(&binding, &mut errors));
            if !keep {
                store.free(pm.r);
            }
            keep
        });
        stats.eval_errors += errors;
        stats.negation_rejections += (before - pending.len()) as u64;
    }

    /// Advances the partition's own watermark: emits matured
    /// trailing-negation matches and prunes state older than the
    /// `within` horizon ([`RunState::expire`]). Returns the earliest
    /// deadline of what is left ([`RunState::floor`]).
    pub fn advance_time(&mut self, watermark: Time, out: &mut Vec<Event>) -> Time {
        // Emit pending matches whose no-negation horizon fully passed.
        let match_type = self.program.match_type;
        let collect = self.program.collect_provenance;
        {
            let MatchState { pending, store, .. } = &mut self.run.state;
            let stats = &mut self.stats;
            pending.retain(|pm| {
                if pm.deadline < watermark {
                    let mt = match_type.expect("pending only in sequence mode");
                    out.push(assemble_match(
                        mt,
                        Candidate::of(store.events(pm.r)),
                        collect,
                    ));
                    stats.matches += 1;
                    store.free(pm.r);
                    false
                } else {
                    true
                }
            });
        }
        let program = &self.program;
        self.run
            .expire(watermark, program.within, &program.negations, true);
        self.run.floor
    }

    /// Discards all partial state — the context window this pattern
    /// belongs to ended, so its context history can be "safely
    /// discarded" (§6.2).
    pub fn reset(&mut self) {
        self.run.reset();
    }

    /// Expires partial matches whose first event is at or before `t` —
    /// used when an *original* context window ends while its grouped
    /// windows continue (Figure 7: "when the third window begins, the
    /// partial results within the first window expire").
    pub fn expire_started_at_or_before(&mut self, t: Time) {
        self.run.expire_started_at_or_before(t);
    }
}

/// One pattern participating in a [`SharedGroup`]: the index of its
/// query plan within the combined plan and the pattern operator's
/// position in that plan's chain.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SharedMember {
    /// Index of the member's query plan in `CombinedPlan::plans`.
    pub plan: usize,
    /// Position of the pattern operator in the member plan's chain.
    pub pattern_pos: usize,
}

/// Shared partial-match state for a common pattern prefix (§5 workload
/// sharing, extended from context windows to sequence prefixes).
///
/// The optimizer groups sequence patterns of one combined plan whose
/// leading steps agree on event type and interned step predicates (see
/// `prefix_sharing`); the group builds prefix partials *once* on
/// its own `MatchState` slab, and each full prefix crosses into a
/// member's private state through
/// [`PatternOp::cross_boundary`] — after which the member's own
/// levels, negations, and emission logic run unchanged, so shared
/// execution is output-identical to unshared execution.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SharedGroup {
    /// The shared steps (types + interned-identical predicates).
    steps: Vec<NfaStep>,
    /// The members' common match horizon — prefix sharing requires an
    /// *equal* `within` across members, recorded here for the span
    /// guard.
    within: Time,
    /// Whether the members sit under a pushed-down context window on
    /// the group's combined plan — the group then consults the context
    /// table before advancing, mirroring the members' gating.
    gated: bool,
    members: Vec<SharedMember>,
    /// The bound run state: prefix partials, levels `0..prefix_len`
    /// (no negations — members own theirs).
    run: RunState,
    /// Counters of the shared prefix work: `events_processed` counts
    /// [`advance`](Self::advance) calls, `matches` full prefixes built.
    pub stats: PatternStats,
    /// Events a gated group's window probe admitted — one count per
    /// event routed to the group, whether it advanced the prefix, was
    /// tried at members' boundaries, or both. The members' own context
    /// windows never see these events, so the context's observed
    /// activity needs the group's verdicts (always 0 when ungated).
    pub admitted: u64,
    /// Events the probe dropped because the context did not hold.
    pub dropped: u64,
}

impl SharedGroup {
    /// Builds a group over `steps` for `members` (at least two).
    #[must_use]
    pub fn new(steps: Vec<NfaStep>, within: Time, gated: bool, members: Vec<SharedMember>) -> Self {
        assert!(!steps.is_empty(), "shared prefix needs at least one step");
        assert!(members.len() >= 2, "sharing needs at least two members");
        SharedGroup {
            steps,
            within,
            gated,
            members,
            run: RunState::default(),
            stats: PatternStats::default(),
            admitted: 0,
            dropped: 0,
        }
    }

    /// The shared steps, in sequence order.
    #[must_use]
    pub fn steps(&self) -> &[NfaStep] {
        &self.steps
    }

    /// Number of shared steps.
    #[must_use]
    pub fn prefix_len(&self) -> usize {
        self.steps.len()
    }

    /// The participating patterns.
    #[must_use]
    pub fn members(&self) -> &[SharedMember] {
        &self.members
    }

    /// Whether the group gates on the combined plan's context window.
    #[must_use]
    pub fn gated(&self) -> bool {
        self.gated
    }

    /// Records the context-window probe's verdict for one event routed
    /// to this group (ungated groups count nothing).
    pub fn record_probe(&mut self, window_holds: bool) {
        if self.gated {
            if window_holds {
                self.admitted += 1;
            } else {
                self.dropped += 1;
            }
        }
    }

    /// Whether the group may see an event given the probe's verdict.
    #[must_use]
    pub fn open(&self, window_holds: bool) -> bool {
        !self.gated || window_holds
    }

    /// Live prefix partials across all levels.
    #[must_use]
    pub fn live_partials(&self) -> usize {
        self.run.live_partials()
    }

    /// Whether any prefix state is held.
    #[must_use]
    pub fn has_state(&self) -> bool {
        self.run.has_state()
    }

    /// The bound run state (see [`PatternOp::run_mut`]).
    pub fn run_mut(&mut self) -> &mut RunState {
        &mut self.run
    }

    /// Read access to the bound run state.
    #[must_use]
    pub fn run(&self) -> &RunState {
        &self.run
    }

    /// Advances the shared prefix levels with one external event —
    /// creation at level 0, extension below the boundary. Runs *after*
    /// the members processed the event, so a full prefix completed by
    /// this event is never extended by it at the boundary (sequences
    /// require strictly increasing times).
    pub fn advance(&mut self, event: &Event) {
        let t = event.time();
        let within = self.within;
        self.stats.events_processed += 1;
        self.run.ensure_shape(self.steps.len(), 0);
        let SharedGroup {
            steps,
            run: RunState { state, floor, .. },
            stats,
            ..
        } = self;
        let l = steps.len();
        for i in (0..l).rev() {
            if steps[i].type_id != event.type_id {
                continue;
            }
            if i == 0 {
                let cand = Candidate {
                    prefix: &[],
                    tail: event,
                };
                if !steps[0]
                    .predicates
                    .iter()
                    .all(|p| p.matches_in(&cand, &mut stats.eval_errors))
                {
                    continue;
                }
                stats.partials_created += 1;
                stats.matches += u64::from(l == 1);
                let r = state.alloc_single(event);
                state.levels[0].push(r);
                *floor = (*floor).min(t.saturating_add(within));
            } else {
                let refs = std::mem::take(&mut state.levels[i - 1]);
                for &pr in &refs {
                    let prefix = state.store.events(pr);
                    let last_t = prefix.last().expect("non-empty").time();
                    if !(last_t < t && t.saturating_sub(prefix[0].time()) <= within) {
                        continue;
                    }
                    let cand = Candidate {
                        prefix,
                        tail: event,
                    };
                    if !steps[i]
                        .predicates
                        .iter()
                        .all(|p| p.matches_in(&cand, &mut stats.eval_errors))
                    {
                        continue;
                    }
                    stats.partials_created += 1;
                    stats.matches += u64::from(i + 1 == l);
                    let r = state.alloc_extended(pr, event);
                    state.levels[i].push(r);
                }
                state.levels[i - 1] = refs;
            }
        }
    }

    /// The full prefixes (level `prefix_len − 1`) currently held, in
    /// creation order — the boundary feed of
    /// [`PatternOp::cross_boundary`].
    fn full_prefixes(&self) -> impl Iterator<Item = &[Event]> + '_ {
        let state = &self.run.state;
        // No level exists until the first event sized the state.
        let top = state.levels.get(self.steps.len() - 1);
        top.into_iter()
            .flatten()
            .map(move |&r| state.store.events(r))
    }

    /// The members' common match horizon.
    #[must_use]
    pub fn within(&self) -> Time {
        self.within
    }

    /// Prunes prefixes older than the `within` horizon; returns the
    /// earliest deadline of what is left ([`RunState::floor`]).
    pub fn advance_time(&mut self, watermark: Time) -> Time {
        self.run.expire(watermark, self.within, &[], true);
        self.run.floor
    }

    /// Discards all prefix state (context termination).
    pub fn reset(&mut self) {
        self.run.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BindingLayout, LayoutVar, SlotSource};
    use crate::nfa::PatternBuilder;
    use caesar_events::{AttrType, PartitionId, Schema, SchemaRegistry};
    use caesar_query::ast::{BinOp, Expr};

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "P",
            &[("vid", AttrType::Int), ("sec", AttrType::Int)],
        ))
        .unwrap();
        reg.register(Schema::new("A", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("B", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("C", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new(
            "M",
            &[("a.v", AttrType::Int), ("b.v", AttrType::Int)],
        ))
        .unwrap();
        reg
    }

    fn ev(reg: &SchemaRegistry, ty: &str, t: Time, v: i64) -> Event {
        Event::simple(
            reg.lookup(ty).unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(v)],
        )
    }

    fn pr(reg: &SchemaRegistry, t: Time, vid: i64) -> Event {
        Event::simple(
            reg.lookup("P").unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(vid), Value::Int(t as i64)],
        )
    }

    #[test]
    fn passthrough_filters_by_type() {
        let reg = registry();
        let mut p = PatternOp::passthrough(reg.lookup("A").unwrap());
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 10), &mut out);
        p.process(&ev(&reg, "B", 2, 20), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats.matches, 1);
        assert_eq!(p.stats.events_processed, 2);
    }

    fn seq_ab(reg: &SchemaRegistry, within: Time) -> PatternOp {
        PatternBuilder::new(reg.lookup("M").unwrap())
            .then(reg.lookup("A").unwrap())
            .then(reg.lookup("B").unwrap())
            .within(within)
            .offsets(vec![0, 1])
            .build()
    }

    #[test]
    fn seq_constructs_all_combinations() {
        let reg = registry();
        let mut p = seq_ab(&reg, 100);
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 10), &mut out);
        p.process(&ev(&reg, "A", 2, 11), &mut out);
        p.process(&ev(&reg, "B", 3, 20), &mut out);
        p.process(&ev(&reg, "B", 4, 21), &mut out);
        // 2 As × 2 Bs = 4 matches.
        assert_eq!(out.len(), 4);
        // Match event carries both attrs and spans the sequence.
        assert_eq!(out[0].attrs.len(), 2);
        assert_eq!(out[0].occurrence, Interval::new(1, 3));
    }

    #[test]
    fn seq_requires_strictly_increasing_time() {
        let reg = registry();
        let mut p = seq_ab(&reg, 100);
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 5, 10), &mut out);
        p.process(&ev(&reg, "B", 5, 20), &mut out);
        assert!(
            out.is_empty(),
            "same-timestamp events cannot form a sequence"
        );
        p.process(&ev(&reg, "B", 6, 21), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn order_matters_b_before_a_does_not_match() {
        let reg = registry();
        let mut p = seq_ab(&reg, 100);
        let mut out = Vec::new();
        p.process(&ev(&reg, "B", 1, 20), &mut out);
        p.process(&ev(&reg, "A", 2, 10), &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn within_horizon_bounds_matches_and_prunes() {
        let reg = registry();
        let mut p = seq_ab(&reg, 10);
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 10), &mut out);
        p.process(&ev(&reg, "B", 20, 20), &mut out);
        assert!(out.is_empty(), "span 19 exceeds within=10");
        p.advance_time(20, &mut out);
        assert_eq!(p.live_partials(), 0, "stale partial pruned");
    }

    #[test]
    fn step_predicates_prune_partials_eagerly() {
        let reg = registry();
        let tid_a = reg.lookup("A").unwrap();
        let tid_b = reg.lookup("B").unwrap();
        let layout = BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "a".into(),
                    type_id: tid_a,
                    source: SlotSource::EventSlot(0),
                },
                LayoutVar {
                    name: "b".into(),
                    type_id: tid_b,
                    source: SlotSource::EventSlot(1),
                },
            ],
        };
        // a.v > 5 at step 0; a.v = b.v at step 1.
        let p0 = CompiledExpr::compile(
            &Expr::bin(BinOp::Gt, Expr::attr("a", "v"), Expr::int(5)),
            &layout,
            &reg,
        )
        .unwrap();
        let p1 = CompiledExpr::compile(
            &Expr::bin(BinOp::Eq, Expr::attr("a", "v"), Expr::attr("b", "v")),
            &layout,
            &reg,
        )
        .unwrap();
        let mut p = PatternBuilder::new(reg.lookup("M").unwrap())
            .then(tid_a)
            .filter(p0)
            .then(tid_b)
            .filter(p1)
            .within(100)
            .offsets(vec![0, 1])
            .build();
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 3), &mut out); // fails a.v > 5
        assert_eq!(p.live_partials(), 0);
        p.process(&ev(&reg, "A", 2, 7), &mut out);
        assert_eq!(p.live_partials(), 1);
        p.process(&ev(&reg, "B", 3, 7), &mut out); // a.v = b.v holds
        p.process(&ev(&reg, "B", 4, 9), &mut out); // fails
        assert_eq!(out.len(), 1);
    }

    /// The Figure 3 query-2 shape: SEQ(NOT P p1, P p2) WHERE
    /// p1.sec + 30 = p2.sec AND p1.vid = p2.vid — a car with no position
    /// report 30 seconds earlier is "new".
    fn leading_negation_pattern(reg: &SchemaRegistry) -> PatternOp {
        let tid_p = reg.lookup("P").unwrap();
        // Binding: slot 0 = p2 (the only positive), slot 1 = negated p1.
        let layout = BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "p2".into(),
                    type_id: tid_p,
                    source: SlotSource::EventSlot(0),
                },
                LayoutVar {
                    name: "p1".into(),
                    type_id: tid_p,
                    source: SlotSource::EventSlot(1),
                },
            ],
        };
        let pred_sec = CompiledExpr::compile(
            &Expr::bin(
                BinOp::Eq,
                Expr::bin(BinOp::Add, Expr::attr("p1", "sec"), Expr::int(30)),
                Expr::attr("p2", "sec"),
            ),
            &layout,
            reg,
        )
        .unwrap();
        let pred_vid = CompiledExpr::compile(
            &Expr::bin(BinOp::Eq, Expr::attr("p1", "vid"), Expr::attr("p2", "vid")),
            &layout,
            reg,
        )
        .unwrap();
        PatternBuilder::new(reg.lookup("M").unwrap())
            .then(tid_p)
            .not_before(tid_p, vec![pred_sec, pred_vid])
            .within(60)
            .offsets(vec![0])
            .build()
    }

    #[test]
    fn leading_negation_detects_new_cars() {
        let reg = registry();
        let mut p = leading_negation_pattern(&reg);
        let mut out = Vec::new();
        // Car 1 reports at 0 and 30: at t=30 it is NOT new.
        p.process(&pr(&reg, 0, 1), &mut out);
        assert_eq!(out.len(), 1, "t=0 report has no prior report");
        out.clear();
        p.process(&pr(&reg, 30, 1), &mut out);
        assert!(out.is_empty(), "car 1 reported 30s ago: negation rejects");
        assert_eq!(p.stats.negation_rejections, 1);
        // Car 2 first appears at t=30: it IS new.
        p.process(&pr(&reg, 30, 2), &mut out);
        assert_eq!(out.len(), 1);
    }

    /// The persistent negation index must be invisible: `live` keeps
    /// its incrementally maintained index (accumulating stale entries
    /// across horizon evictions and resets); `fresh` is serde
    /// round-tripped every step, which drops the transient index so the
    /// next probe rebuilds it from the buffer alone. Outputs and every
    /// counter except `eval_errors` must match exactly.
    #[test]
    fn negation_index_survives_evictions_and_restores() {
        let reg = registry();
        let mut live = leading_negation_pattern(&reg);
        let mut fresh = leading_negation_pattern(&reg);
        let mut out_live = Vec::new();
        let mut out_fresh = Vec::new();
        // Same-time runs of 8 cars, with per-car gaps so some reports
        // are "new" (no report 30s earlier) and some are not; long
        // enough that the `within = 60` horizon evicts buffer entries
        // and marks their index records stale.
        for step in 0..10u64 {
            let t = step * 30;
            let batch: Vec<Event> = (0..8)
                .filter(|vid| (step + vid) % 3 != 0)
                .map(|vid| pr(&reg, t, vid as i64))
                .collect();
            for e in &batch {
                live.process(e, &mut out_live);
                fresh.process(e, &mut out_fresh);
            }
            if step == 6 {
                live.reset();
                fresh.reset();
            }
            fresh = serde::from_bytes(&serde::to_bytes(&fresh)).unwrap();
        }
        assert!(!out_live.is_empty());
        assert_eq!(out_live, out_fresh, "outputs must be byte-identical");
        assert_eq!(live.stats.matches, fresh.stats.matches);
        assert_eq!(
            live.stats.negation_rejections,
            fresh.stats.negation_rejections
        );
        assert_eq!(live.stats.partials_created, fresh.stats.partials_created);
        assert!(live.stats.negation_rejections > 0, "rejections exercised");
        assert!(
            live.run.neg_state.iter().any(|st| st.index.is_some()),
            "index path exercised"
        );
    }

    #[test]
    fn between_negation_blocks_interleaved_event() {
        let reg = registry();
        let tid_a = reg.lookup("A").unwrap();
        let tid_b = reg.lookup("B").unwrap();
        let tid_c = reg.lookup("C").unwrap();
        let mut p = PatternBuilder::new(reg.lookup("M").unwrap())
            .then(tid_a)
            .then(tid_b)
            .not_between(0, tid_c, vec![])
            .within(100)
            .offsets(vec![0, 1])
            .build();
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 0), &mut out);
        p.process(&ev(&reg, "C", 2, 0), &mut out);
        p.process(&ev(&reg, "B", 3, 0), &mut out);
        assert!(out.is_empty(), "C between A and B blocks the match");
        // A fresh A after the C can still match the next B.
        p.process(&ev(&reg, "A", 4, 0), &mut out);
        p.process(&ev(&reg, "B", 5, 0), &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn trailing_negation_delays_and_rejects() {
        let reg = registry();
        let tid_a = reg.lookup("A").unwrap();
        let tid_c = reg.lookup("C").unwrap();
        let mut p = PatternBuilder::new(reg.lookup("M").unwrap())
            .then(tid_a)
            .not_after(tid_c, vec![])
            .within(10)
            .offsets(vec![0])
            .build();
        let mut out = Vec::new();
        // First A: a C arrives inside the horizon → rejected.
        p.process(&ev(&reg, "A", 1, 0), &mut out);
        assert!(out.is_empty(), "emission deferred");
        p.process(&ev(&reg, "C", 5, 0), &mut out);
        p.advance_time(20, &mut out);
        assert!(out.is_empty(), "C within horizon kills the match");
        assert_eq!(p.stats.negation_rejections, 1);
        // Second A: no C inside horizon → emitted at watermark.
        p.process(&ev(&reg, "A", 30, 0), &mut out);
        p.advance_time(41, &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn reset_discards_all_state() {
        let reg = registry();
        let mut p = seq_ab(&reg, 100);
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 10), &mut out);
        assert_eq!(p.live_partials(), 1);
        p.reset();
        assert_eq!(p.live_partials(), 0);
        p.process(&ev(&reg, "B", 2, 20), &mut out);
        assert!(out.is_empty(), "partial was discarded by reset");
    }

    #[test]
    fn expire_by_start_time_keeps_younger_partials() {
        let reg = registry();
        let mut p = seq_ab(&reg, 100);
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 5, 10), &mut out);
        p.process(&ev(&reg, "A", 15, 11), &mut out);
        assert_eq!(p.live_partials(), 2);
        p.expire_started_at_or_before(5);
        assert_eq!(p.live_partials(), 1);
        p.process(&ev(&reg, "B", 20, 20), &mut out);
        assert_eq!(out.len(), 1, "only the younger partial completes");
    }

    #[test]
    fn input_types_dedup() {
        let reg = registry();
        let p = leading_negation_pattern(&reg);
        assert_eq!(p.input_types().len(), 1, "P appears positive and negated");
    }

    #[test]
    fn three_element_sequence() {
        let reg = registry();
        let mut p = ["A", "B", "C"]
            .iter()
            .fold(PatternBuilder::new(reg.lookup("M").unwrap()), |b, ty| {
                b.then(reg.lookup(ty).unwrap())
            })
            .within(100)
            .offsets(vec![0, 1, 2])
            .build();
        let mut out = Vec::new();
        for (ty, t) in [("A", 1), ("B", 2), ("C", 3), ("B", 4), ("C", 5)] {
            p.process(&ev(&reg, ty, t, 0), &mut out);
        }
        // A(1): sequences A1-B2-C3, A1-B2-C5, A1-B4-C5 → 3 matches.
        assert_eq!(out.len(), 3);
        assert_eq!(out[0].attrs.len(), 3);
    }

    #[test]
    fn pool_recycles_slots_and_stays_consistent() {
        let reg = registry();
        let mut p = seq_ab(&reg, 10);
        let mut out = Vec::new();
        for t in 0..5u64 {
            p.process(&ev(&reg, "A", t, t as i64), &mut out);
        }
        assert_eq!(p.live_partials(), 5);
        assert!(p.pool_consistent());
        assert_eq!(p.pool_peak(), 5);
        // All five partials fall out of the `within = 10` horizon.
        p.advance_time(100, &mut out);
        assert_eq!(p.live_partials(), 0);
        assert!(p.pool_consistent());
        // New partials must reuse the freed slots, not grow the pool.
        for t in 100..103u64 {
            p.process(&ev(&reg, "A", t, 0), &mut out);
        }
        assert_eq!(p.pool_reused(), 3, "freed slots are recycled");
        assert_eq!(p.pool_peak(), 5, "reuse does not grow the pool");
        assert!(p.pool_consistent());
    }

    /// The batched entry point must be invisible: same outputs (in the
    /// same per-row order) and the same counters, evaluation errors
    /// included, as feeding the run event-at-a-time.
    #[test]
    fn batch_path_matches_per_event_path() {
        let reg = registry();
        let mut per_event = leading_negation_pattern(&reg);
        let mut batched = leading_negation_pattern(&reg);
        let mut out_per_event: Vec<Event> = Vec::new();
        let mut out_batched: Vec<(u32, Event)> = Vec::new();
        for step in 0..10u64 {
            let t = step * 30;
            let batch: Vec<Event> = (0..8)
                .filter(|vid| (step + vid) % 3 != 0)
                .map(|vid| pr(&reg, t, vid as i64))
                .collect();
            for e in &batch {
                per_event.process(e, &mut out_per_event);
            }
            let sel: Vec<u32> = (0..batch.len() as u32).collect();
            batched.process_batch(&batch, &sel, &mut out_batched);
        }
        // Rows are processed in order and matches per row in generation
        // order — flattening the tagged pairs must give the per-event
        // output stream exactly.
        let flattened: Vec<Event> = out_batched.iter().map(|(_, e)| e.clone()).collect();
        assert_eq!(out_per_event, flattened);
        assert_eq!(per_event.stats.matches, batched.stats.matches);
        assert_eq!(
            per_event.stats.negation_rejections,
            batched.stats.negation_rejections
        );
        assert_eq!(
            per_event.stats.partials_created,
            batched.stats.partials_created
        );
        assert_eq!(
            per_event.stats.events_processed,
            batched.stats.events_processed
        );
        assert_eq!(per_event.stats.eval_errors, batched.stats.eval_errors);
        assert!(batched.pool_consistent());
    }

    /// Snapshots must be independent of pool layout: a fragmented slab
    /// (holes, bumped generations) serializes to the same bytes as its
    /// densely re-pooled round-trip, and the restored operator behaves
    /// identically.
    #[test]
    fn pooled_state_snapshot_is_layout_independent() {
        let reg = registry();
        let mut p = seq_ab(&reg, 50);
        let mut out = Vec::new();
        for t in 0..6u64 {
            p.process(&ev(&reg, "A", t, t as i64), &mut out);
        }
        // Expire the three oldest → holes in the slab.
        p.expire_started_at_or_before(2);
        // Refill one hole → recycled slot with bumped generation.
        p.process(&ev(&reg, "A", 10, 99), &mut out);
        assert!(p.pool_reused() > 0, "slab is fragmented and recycled");
        let bytes = serde::to_bytes(&p);
        let mut restored: PatternOp = serde::from_bytes(&bytes).unwrap();
        assert_eq!(
            serde::to_bytes(&restored),
            bytes,
            "pool layout must be invisible on the wire"
        );
        assert!(restored.pool_consistent());
        assert_eq!(restored.live_partials(), p.live_partials());
        let mut out_orig = Vec::new();
        let mut out_restored = Vec::new();
        p.process(&ev(&reg, "B", 11, 99), &mut out_orig);
        restored.process(&ev(&reg, "B", 11, 99), &mut out_restored);
        assert_eq!(out_orig, out_restored);
        assert!(!out_orig.is_empty(), "recycled partial completes");
    }
}
