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
use caesar_events::{Event, Interval, PartitionHasher, Provenance, Time, TypeId, Value};
use caesar_query::ast::BinOp;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};
use std::hash::BuildHasherDefault;
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
    negs: Vec<NegBuffer>,
    /// Pooled partial-match state (levels, pending, slab).
    state: MatchState,
    /// A lower bound on the earliest deadline of anything held (see
    /// [`floor`](Self::floor)).
    floor: Time,
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
    fn ensure_shape(&mut self, levels: usize, negations: usize) {
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

/// Binds the same event at every slot — used to evaluate the negated
/// side of a key component, which references the candidate slot alone.
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
    /// Scratch for a probe's positives-side key, reused across probes.
    #[serde(skip)]
    probe_key: Vec<Value>,
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

/// Splits an equality conjunct into `(negated side, positives side)`
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

/// The negated side of a key component.
#[derive(Debug, Clone)]
enum NegSide {
    /// An attribute of the negated event: its value is read from the
    /// buffered event itself.
    Attr(usize),
    /// Anything else (`p1.sec + 30`): evaluated once per buffered event,
    /// its value stored beside the event.
    Eval(CompiledExpr),
}

/// One component of a composite key: `negated side = positives side`.
#[derive(Debug, Clone)]
struct KeyPart {
    neg: NegSide,
    /// Evaluated once per probe.
    pos: CompiledExpr,
}

/// How one negation check probes its buffer, compiled once from the
/// check's conjuncts when its program is built or restored
/// ([`NfaProgram::new`]): every conjunct that [`split_equality`] splits
/// into `negated side = positives side` is one component of a composite
/// key, the others are residual. A plan without a key component scans.
#[derive(Debug, Clone, Default)]
pub(crate) struct NegPlan {
    key: Vec<KeyPart>,
    /// Components with an [`NegSide::Eval`] side — the values an
    /// indexed entry stores.
    stored: usize,
    /// The conjuncts outside the key, evaluated only on entries whose
    /// key equals the probe's.
    residual: Vec<CompiledExpr>,
}

impl NegPlan {
    /// The plans of `negations`, whose negated candidate binds at slot
    /// `arity`.
    pub(crate) fn compile_all(arity: usize, negations: &[NegationCheck]) -> Vec<NegPlan> {
        let cand_slot = arity as u8;
        let compile = |check: &NegationCheck| {
            let mut plan = NegPlan::default();
            for pred in &check.predicates {
                let Some((neg, pos)) = split_equality(pred, cand_slot) else {
                    plan.residual.push(pred.clone());
                    continue;
                };
                let neg = match neg {
                    CompiledExpr::Attr { attr, .. } => NegSide::Attr(usize::from(*attr)),
                    _ => {
                        plan.stored += 1;
                        NegSide::Eval(neg.clone())
                    }
                };
                let pos = pos.clone();
                plan.key.push(KeyPart { neg, pos });
            }
            plan
        };
        negations.iter().map(compile).collect()
    }

    /// The key values of a buffered event, in component order:
    /// attributes read from the event, the other components from
    /// `stored`.
    fn entry_key<'a>(
        &'a self,
        event: &'a Event,
        mut stored: impl Iterator<Item = &'a Value> + 'a,
    ) -> impl Iterator<Item = &'a Value> + 'a {
        self.key.iter().map(move |part| match part.neg {
            NegSide::Attr(attr) => &event.attrs[attr],
            NegSide::Eval(_) => stored.next().expect("one stored value per evaluated side"),
        })
    }
}

/// Whether a value can be a key component. Between Int, Bool and Str
/// values `eq_value` holds exactly when variant and payload are equal,
/// so keys compare exactly and hash consistently; Float (NaN, `1 =
/// 1.0`) and Null (equal to nothing) cannot be keys.
fn hashable(v: &Value) -> bool {
    matches!(v, Value::Int(_) | Value::Bool(_) | Value::Str(_))
}

#[cfg(test)]
thread_local! {
    /// Test hook: every key hashes alike, so a test can show that
    /// exactness never rests on the hash.
    static COLLIDE: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Hash of a composite key of [`hashable`] values, the key of the
/// chain-head table. A collision costs a longer chain walk, never a
/// wrong answer: probes compare keys exactly. The hash is unkeyed, like
/// the partition maps': values crafted to collide make a probe walk
/// every live entry with their hash, which is at most what a scan of
/// the buffer examines.
fn key_hash<'a>(key: impl Iterator<Item = &'a Value>) -> u32 {
    #[cfg(test)]
    if COLLIDE.with(std::cell::Cell::get) {
        return 0;
    }
    let mut h = 0u64;
    for v in key {
        let word = match v {
            Value::Int(i) => *i as u64,
            Value::Bool(b) => u64::from(*b),
            Value::Str(s) => s.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            }),
            Value::Float(_) | Value::Null => unreachable!("not a key value"),
        };
        h = (h ^ word)
            .wrapping_mul(0x9e37_79b9_7f4a_7c15)
            .rotate_left(29);
    }
    // MurmurHash3's finalizer, then the well-mixed low half.
    h = (h ^ (h >> 33)).wrapping_mul(0xff51_afd7_ed55_8ccd);
    h = (h ^ (h >> 33)).wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    (h ^ (h >> 33)) as u32
}

/// One indexed buffer entry's place in its chain. Chains are walked by
/// buffer position, so 32 bits hold any distance a buffer can span.
#[derive(Debug, Clone, Copy)]
struct Link {
    /// The entry's key hash (0 for an unkeyed entry).
    hash: u32,
    /// How many entries back the next older entry of its chain sits;
    /// 0 if there is none.
    back: u32,
}

/// One negation check's buffer — the negated-type events inside the
/// `within` horizon, in arrival order — and its keyed index. Entry `i`
/// of the buffer has sequence number `base + i`. On the wire a buffer
/// is its events alone: the index is transient, and a restored
/// buffer's first probe indexes it.
#[derive(Debug, Default)]
struct NegBuffer {
    events: VecDeque<Event>,
    /// Events evicted from the front so far.
    base: u64,
    index: NegIndex,
}

/// The keyed index over a [`NegBuffer`], flat and parallel to the
/// buffer's front: its first `links.len()` entries are indexed, each
/// chained to the next older entry with the same key hash (an unkeyed
/// entry to the next older unkeyed one). Entries are indexed by the
/// first probe after they were buffered, so a buffer that is never
/// probed — a trailing negation's — is never indexed. Sequence numbers
/// are kept modulo 2³², which tells apart any two entries one buffer
/// holds.
#[derive(Debug, Default)]
struct NegIndex {
    /// Key hash → sequence number of the newest entry with that hash.
    /// Live entries only: evicting a chain's last entry removes it.
    /// Hashed like the partition maps (one multiplication per `u32`).
    heads: HashMap<u32, u32, BuildHasherDefault<PartitionHasher>>,
    /// Sequence number of the newest unkeyed entry — one whose negated
    /// side did not evaluate to a [`hashable`] value.
    unkeyed: Option<u32>,
    links: VecDeque<Link>,
    /// The entries' evaluated key values, [`NegPlan::stored`] per entry
    /// (Nulls for an unkeyed one).
    keys: VecDeque<Value>,
    /// Stored values per entry: the plan's [`NegPlan::stored`], kept
    /// here for evictions, which have no plan at hand.
    width: usize,
    /// Work counter: probes answered.
    probes: u64,
    /// Work counter: buffer entries those probes examined — chain
    /// entries walked, unkeyed entries checked, the whole buffer for a
    /// scan.
    examined: u64,
}

impl NegIndex {
    /// Buffer position of the live entry with sequence number `seq`.
    fn position(&self, seq: u32, base: u64) -> usize {
        let pos = seq.wrapping_sub(base as u32) as usize;
        debug_assert!(pos < self.links.len(), "chains start at live entries");
        pos
    }

    /// Position of the next older entry on `pos`'s chain, if it is
    /// still buffered.
    fn older(&self, pos: usize) -> Option<usize> {
        let back = self.links[pos].back as usize;
        (back != 0 && back <= pos).then(|| pos - back)
    }
}

impl Clone for NegIndex {
    fn clone(&self) -> Self {
        let mut index = Self::default();
        index.clone_from(self);
        index
    }

    fn clone_from(&mut self, src: &Self) {
        self.heads.clone_from(&src.heads);
        self.unkeyed = src.unkeyed;
        self.links.clone_from(&src.links);
        self.keys.clone_from(&src.keys);
        (self.width, self.probes, self.examined) = (src.width, src.probes, src.examined);
    }
}

impl Clone for NegBuffer {
    fn clone(&self) -> Self {
        Self {
            events: self.events.clone(),
            base: self.base,
            index: self.index.clone(),
        }
    }

    /// In place ([`RunState::copy_from`]): the vectors and the table
    /// keep their allocations.
    fn clone_from(&mut self, src: &Self) {
        self.events.clone_from(&src.events);
        self.base = src.base;
        self.index.clone_from(&src.index);
    }
}

impl Serialize for NegBuffer {
    fn serialize(&self, out: &mut Serializer) {
        self.events.serialize(out);
    }
}

impl Deserialize for NegBuffer {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        Ok(Self {
            events: VecDeque::deserialize(de)?,
            ..Self::default()
        })
    }
}

impl NegBuffer {
    /// Evicts the oldest event and, if it was indexed, its entry.
    fn pop_front(&mut self) {
        self.events.pop_front();
        let seq = self.base as u32;
        self.base += 1;
        let ix = &mut self.index;
        let Some(link) = ix.links.pop_front() else {
            return;
        };
        ix.keys.drain(..ix.width);
        // The oldest entry still heads its chain only if it is the
        // chain's last one.
        if let Entry::Occupied(head) = ix.heads.entry(link.hash) {
            if *head.get() == seq {
                head.remove();
            }
        }
        if ix.unkeyed == Some(seq) {
            ix.unkeyed = None;
        }
    }

    /// Empties the buffer and its index, keeping their capacity.
    fn clear(&mut self) {
        self.events.clear();
        let ix = &mut self.index;
        ix.heads.clear();
        ix.unkeyed = None;
        ix.links.clear();
        ix.keys.clear();
    }

    /// Capacity-based heap estimate, in O(1).
    fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        let ix = &self.index;
        self.events.capacity() * size_of::<Event>()
            // A table slot is a `(u32, u32)` pair plus a control byte.
            + ix.heads.capacity() * (size_of::<(u32, u32)>() + 1)
            + ix.links.capacity() * size_of::<Link>()
            + ix.keys.capacity() * size_of::<Value>()
    }

    /// Indexes the entries buffered since the last probe: evaluates
    /// their negated sides once and links each into its chain.
    fn catch_up(&mut self, plan: &NegPlan) {
        let NegBuffer {
            events,
            base,
            index: ix,
        } = self;
        if ix.links.is_empty() {
            ix.width = plan.stored;
        }
        for (pos, event) in events.iter().enumerate().skip(ix.links.len()) {
            let seq = (*base + pos as u64) as u32;
            let start = ix.keys.len();
            let keyed = plan.key.iter().all(|part| match &part.neg {
                NegSide::Attr(attr) => hashable(&event.attrs[*attr]),
                NegSide::Eval(neg) => match neg.eval_in(&AllSlots(event)) {
                    Ok(v) if hashable(&v) => {
                        ix.keys.push_back(v);
                        true
                    }
                    _ => false,
                },
            });
            let (hash, newest) = if keyed {
                let hash = key_hash(plan.entry_key(event, ix.keys.range(start..)));
                (hash, ix.heads.insert(hash, seq))
            } else {
                ix.keys.truncate(start);
                ix.keys.resize(start + ix.width, Value::Null);
                (0, ix.unkeyed.replace(seq))
            };
            let back = newest.map_or(0, |newest| seq.wrapping_sub(newest));
            ix.links.push_back(Link { hash, back });
        }
    }
}

/// Borrow bundle for negation checking — everything a probe touches,
/// split from the operator so candidate bindings may keep borrowing the
/// partial store while checks run.
struct NegCtx<'a> {
    negations: &'a [NegationCheck],
    plans: &'a [NegPlan],
    negs: &'a mut [NegBuffer],
    /// Scratch for the probe key.
    probe_key: &'a mut Vec<Value>,
    stats: &'a mut PatternStats,
}

impl NegCtx<'_> {
    /// Does a buffered event of check `i` fall strictly inside
    /// `(lo, hi)` (`None` bounds are open) with every conjunct holding?
    ///
    /// With a hashable probe key the answer comes from walking the
    /// key's chain — comparing keys exactly and evaluating only the
    /// residual conjuncts — and the unkeyed chain; without one (no key
    /// component, or a positives side that is Float, Null or fails to
    /// evaluate) from a scan of the whole buffer. Both are exact
    /// (DESIGN.md, "The keyed negation index"); only `eval_errors`
    /// depends on which conjuncts were evaluated.
    fn violates(
        &mut self,
        i: usize,
        positives: Candidate<'_>,
        lo: Option<Time>,
        hi: Option<Time>,
    ) -> bool {
        let (check, plan, buf) = (&self.negations[i], &self.plans[i], &mut self.negs[i]);
        let errors = &mut self.stats.eval_errors;
        let inside = |t: Time| lo.is_none_or(|l| t > l) && hi.is_none_or(|h| t < h);
        let holds = |preds: &[CompiledExpr], cand: &Event, errors: &mut u64| {
            let binding = WithCand {
                pos: positives,
                cand,
            };
            preds.iter().all(|p| p.matches_in(&binding, errors))
        };
        buf.index.probes += 1;
        let probe = &mut *self.probe_key;
        probe.clear();
        let keyed = !plan.key.is_empty()
            && plan
                .key
                .iter()
                .all(|part| match part.pos.eval_in(&positives) {
                    Ok(v) if hashable(&v) => {
                        probe.push(v);
                        true
                    }
                    _ => false,
                });
        if !keyed {
            buf.index.examined += buf.events.len() as u64;
            return buf
                .events
                .iter()
                .any(|cand| inside(cand.time()) && holds(&check.predicates, cand, errors));
        }
        buf.catch_up(plan);
        let NegBuffer {
            events,
            base,
            index: ix,
        } = buf;
        let head = ix.heads.get(&key_hash(probe.iter()));
        let mut at = head.map(|&seq| ix.position(seq, *base));
        while let Some(pos) = at {
            ix.examined += 1;
            let cand = &events[pos];
            let stored = ix.keys.range(pos * ix.width..);
            let key = plan.entry_key(cand, stored);
            if key.zip(probe.iter()).all(|(k, p)| k.eq_value(p))
                && inside(cand.time())
                && holds(&plan.residual, cand, errors)
            {
                return true;
            }
            at = ix.older(pos);
        }
        let mut at = ix.unkeyed.map(|seq| ix.position(seq, *base));
        while let Some(pos) = at {
            ix.examined += 1;
            let cand = &events[pos];
            if inside(cand.time()) && holds(&check.predicates, cand, errors) {
                return true;
            }
            at = ix.older(pos);
        }
        false
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
        Self::compile(NfaProgram::new(
            vec![NfaStep {
                type_id,
                predicates: Vec::new(),
            }],
            Vec::new(),
            Time::MAX,
            None,
            vec![0],
            false,
        ))
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
            probe_key: Vec::new(),
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
            probe_key,
            run: RunState { negs, state, floor },
            stats,
            ..
        } = self;
        let steps = &program.steps;
        let negations = &program.negations;
        let plans = &program.neg_plans;
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
                        plans,
                        negs,
                        probe_key,
                        stats: &mut *stats,
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
                            plans,
                            negs,
                            probe_key,
                            stats: &mut *stats,
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
            probe_key,
            run: RunState { negs, state, floor },
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
                plans: &program.neg_plans,
                negs,
                probe_key,
                stats: &mut *stats,
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
        let within = self.program.within;
        for i in 0..self.program.negations.len() {
            if self.program.negations[i].type_id != event.type_id {
                continue;
            }
            if self.program.negations[i].position == NegPosition::After {
                self.reject_pending(i, event);
            }
            let buf = &mut self.run.negs[i];
            buf.events.push_back(event.clone());
            // Prune by horizon, saturating like every horizon test: an
            // unbounded `within` keeps everything.
            while buf
                .events
                .front()
                .is_some_and(|e| e.time().saturating_add(within) < t)
            {
                buf.pop_front();
            }
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
    use proptest::test_runner::TestRng;

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

    /// A binding layout placing `vars` (`(name, type)`) at event slots
    /// `0, 1, ...`.
    fn layout(reg: &SchemaRegistry, vars: &[(&str, &str)]) -> BindingLayout {
        let var = |(slot, (name, ty)): (usize, &(&str, &str))| LayoutVar {
            name: (*name).into(),
            type_id: reg.lookup(ty).unwrap(),
            source: SlotSource::EventSlot(slot as u8),
        };
        BindingLayout {
            vars: vars.iter().enumerate().map(var).collect(),
        }
    }

    /// The Figure 3 query-2 shape: SEQ(NOT P p1, P p2) WHERE
    /// p1.sec + 30 = p2.sec AND p1.vid = p2.vid — a car with no position
    /// report 30 seconds earlier is "new".
    fn figure_three(reg: &SchemaRegistry, within: Time) -> PatternOp {
        let tid_p = reg.lookup("P").unwrap();
        // Binding: slot 0 = p2 (the only positive), slot 1 = negated p1.
        let layout = layout(reg, &[("p2", "P"), ("p1", "P")]);
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
            .within(within)
            .offsets(vec![0])
            .build()
    }

    fn leading_negation_pattern(reg: &SchemaRegistry) -> PatternOp {
        figure_three(reg, 60)
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

    /// The keyed negation index must be invisible: `live` keeps its
    /// incrementally maintained index (unlinking entries across horizon
    /// evictions and resets); `fresh` is serde round-tripped every step,
    /// which drops the transient index and recompiles the probe plans,
    /// so the next probe indexes the buffer afresh. Outputs and every
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
        // enough that the `within = 60` horizon evicts indexed entries.
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
            !live.run.negs[0].index.links.is_empty(),
            "index path exercised"
        );
    }

    /// A twin of `op` whose probes always scan — the fallback inside
    /// `NegCtx::violates`, the reference a keyed probe must equal.
    fn scanning(mut op: PatternOp) -> PatternOp {
        let scan = |check: &NegationCheck| NegPlan {
            residual: check.predicates.clone(),
            ..NegPlan::default()
        };
        let plans = op.program.negations.iter().map(scan).collect();
        Arc::make_mut(&mut op.program).neg_plans = plans;
        op
    }

    /// A join value of every kind a key meets: Int (one whose `+ 1`
    /// overflows), Str, Bool, Float (equal to an Int when whole) and
    /// Null.
    fn join_value(rng: &mut TestRng) -> Value {
        match rng.below(10) {
            0..=2 => Value::Int(rng.below(3) as i64),
            3 => Value::Int(i64::MAX),
            4 => Value::str(["x", "y"][rng.below(2) as usize]),
            5 => Value::Bool(rng.below(2) == 1),
            6 => Value::Float(rng.below(3) as f64),
            7 => Value::Float(0.5),
            _ => Value::Null,
        }
    }

    /// Exactness of the keyed probe: on random buffers, a keyed operator
    /// and its scanning twin produce the same outputs and the same
    /// `matches`, `negation_rejections`, `partials_created` — with two
    /// key components (attribute to attribute, and an arithmetic
    /// negated side that errors on overflow and on non-numbers) plus a
    /// residual conjunct, join values of every kind, evictions, watermark
    /// advances and snapshot restores, for a leading and a between
    /// negation, and again with every key hashing alike.
    #[test]
    fn keyed_probe_equals_the_full_scan() {
        let mut reg = SchemaRegistry::new();
        let abc = [
            ("a", AttrType::Int),
            ("b", AttrType::Int),
            ("c", AttrType::Int),
        ];
        for ty in ["N", "Q", "O"] {
            reg.register(Schema::new(ty, &abc)).unwrap();
        }
        let (n, q) = (reg.lookup("N").unwrap(), reg.lookup("Q").unwrap());
        let bin = |op, l, r| Expr::bin(op, l, r);
        let plus_one = |e| bin(BinOp::Add, e, Expr::int(1));
        // SEQ(NOT N n, Q q) WHERE n.a = q.a AND n.b + 1 = q.b AND n.c < q.c
        let lay = layout(&reg, &[("q", "Q"), ("n", "N")]);
        let preds = [
            bin(BinOp::Eq, Expr::attr("n", "a"), Expr::attr("q", "a")),
            bin(
                BinOp::Eq,
                plus_one(Expr::attr("n", "b")),
                Expr::attr("q", "b"),
            ),
            bin(BinOp::Lt, Expr::attr("n", "c"), Expr::attr("q", "c")),
        ];
        let compiled = preds.map(|p| CompiledExpr::compile(&p, &lay, &reg).unwrap());
        let leading = PatternBuilder::new(reg.lookup("O").unwrap())
            .then(q)
            .not_before(n, compiled.to_vec())
            .within(3)
            .offsets(vec![0])
            .build();
        // SEQ(Q q1, NOT N n, Q q2) WHERE q1.a = n.a AND n.b + 1 = q2.b
        //   AND n.c != q1.c
        let lay = layout(&reg, &[("q1", "Q"), ("q2", "Q"), ("n", "N")]);
        let preds = [
            bin(BinOp::Eq, Expr::attr("q1", "a"), Expr::attr("n", "a")),
            bin(
                BinOp::Eq,
                plus_one(Expr::attr("n", "b")),
                Expr::attr("q2", "b"),
            ),
            bin(BinOp::Ne, Expr::attr("n", "c"), Expr::attr("q1", "c")),
        ];
        let compiled = preds.map(|p| CompiledExpr::compile(&p, &lay, &reg).unwrap());
        let between = PatternBuilder::new(reg.lookup("O").unwrap())
            .then(q)
            .then(q)
            .not_between(0, n, compiled.to_vec())
            .within(3)
            .offsets(vec![0, 3])
            .build();
        for template in [leading, between] {
            assert_eq!(template.program.neg_plans[0].key.len(), 2);
            assert_eq!(template.program.neg_plans[0].stored, 1);
            assert_eq!(template.program.neg_plans[0].residual.len(), 1);
            for collide in [false, true] {
                COLLIDE.with(|c| c.set(collide));
                let (mut examined, mut scanned, mut unkeyed) = (0, 0, false);
                for seed in 0..150 {
                    let mut keyed = template.clone();
                    let mut scan = scanning(template.clone());
                    let rng = &mut TestRng::from_seed(seed);
                    let (mut out_keyed, mut out_scan) = (Vec::new(), Vec::new());
                    let mut t = 0;
                    for _ in 0..120 {
                        t += rng.below(2);
                        let ty = if rng.below(2) == 0 { n } else { q };
                        let attrs: Vec<Value> = (0..3).map(|_| join_value(rng)).collect();
                        let e = Event::simple(ty, t, PartitionId(0), attrs);
                        keyed.process(&e, &mut out_keyed);
                        scan.process(&e, &mut out_scan);
                        unkeyed |= keyed.run.negs[0].index.unkeyed.is_some();
                        match rng.below(40) {
                            0 => {
                                keyed.advance_time(t, &mut out_keyed);
                                scan.advance_time(t, &mut out_scan);
                            }
                            1 => keyed = serde::from_bytes(&serde::to_bytes(&keyed)).unwrap(),
                            _ => {}
                        }
                    }
                    let case = format!("seed {seed}, collide {collide}");
                    assert_eq!(out_keyed, out_scan, "{case}");
                    let (k, s) = (keyed.stats, scan.stats);
                    assert_eq!(k.matches, s.matches, "{case}");
                    assert_eq!(k.negation_rejections, s.negation_rejections, "{case}");
                    assert_eq!(k.partials_created, s.partials_created, "{case}");
                    examined += keyed.run.negs[0].index.examined;
                    scanned += scan.run.negs[0].index.examined;
                }
                assert!(examined < scanned, "the keyed path answered probes");
                assert!(unkeyed, "the unkeyed chain was exercised");
            }
        }
        COLLIDE.with(|c| c.set(false));
    }

    /// ROADMAP item 6's bound for the Figure 3 negation, in work units
    /// the index counts itself: with one vehicle reporting every tick, a
    /// probe examines at most the one report that can match (30 ticks
    /// earlier), whatever the `WITHIN` horizon — a per-vehicle bucket
    /// would examine about `WITHIN - 30`.
    #[test]
    fn negation_probe_work_is_bounded_by_what_can_match() {
        let reg = registry();
        for within in [60, 240] {
            let mut p = figure_three(&reg, within);
            let mut out = Vec::new();
            for t in 0..2_000 {
                p.process(&pr(&reg, t, 7), &mut out);
            }
            let ix = &p.run.negs[0].index;
            println!(
                "WITHIN {within}: {} probes examined {} entries",
                ix.probes, ix.examined
            );
            assert_eq!(ix.probes, 2_000);
            assert_eq!(p.stats.negation_rejections, 2_000 - 30);
            assert!(ix.examined <= ix.probes, "WITHIN {within}");
        }
    }

    /// The `run_state_bytes` gauge counts the negation index: a state
    /// whose buffer was probed, and so indexed, reports more heap than
    /// a twin holding the same buffer unprobed.
    #[test]
    fn probed_state_counts_its_index_bytes() {
        let reg = registry();
        let (a, c) = (reg.lookup("A").unwrap(), reg.lookup("C").unwrap());
        // SEQ(NOT C c, A a) WHERE c.v = a.v
        let join = CompiledExpr::compile(
            &Expr::bin(BinOp::Eq, Expr::attr("c", "v"), Expr::attr("a", "v")),
            &layout(&reg, &[("a", "A"), ("c", "C")]),
            &reg,
        )
        .unwrap();
        let build = || {
            PatternBuilder::new(reg.lookup("M").unwrap())
                .then(a)
                .not_before(c, vec![join.clone()])
                .within(100)
                .offsets(vec![0])
                .build()
        };
        let (mut probed, mut unprobed) = (build(), build());
        let mut out = Vec::new();
        for t in 0..50 {
            let e = ev(&reg, "C", t, t as i64);
            probed.process(&e, &mut out);
            unprobed.process(&e, &mut out);
        }
        probed.process(&ev(&reg, "A", 50, 7), &mut out);
        assert!(out.is_empty(), "C(7) at t = 7 vetoes A(7)");
        assert!(probed.run().heap_bytes() > unprobed.run().heap_bytes());
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
