//! Pooled partial-match state: the generation-indexed slab
//! ([`PartialStore`]), the per-level ref lists and parked matches that
//! resolve into it ([`MatchState`]), the per-partition [`RunState`] of a
//! pattern operator or a shared-prefix group, a partition's slots of
//! them ([`RunStates`]), and the workspace a transaction reaches its
//! partition's slots through ([`StateSlots`]).

use super::negation::NegBuffer;
use super::{NegPosition, Prefix};
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
/// An operator holds none: a transaction hands each stateful operator
/// its partition's value, by the operator's slot number
/// ([`StateSlots`]). The default value is the empty state of *any*
/// operator — the per-level and per-negation vectors are sized on first
/// use — so a partition with no live partial match stores nothing, and
/// an emptied state can be recycled for another operator or partition.
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
    /// Listed in the running transaction's reached slots.
    #[serde(skip)]
    reached: bool,
    /// [`bytes`](Self::bytes) as last counted into its partition's
    /// [`RunStates`] (0 while not held).
    #[serde(skip)]
    counted: usize,
}

impl Default for RunState {
    fn default() -> Self {
        Self {
            negs: Vec::new(),
            state: MatchState::default(),
            floor: Time::MAX,
            reached: false,
            counted: 0,
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
        negations: impl IntoIterator<Item = NegPosition>,
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
        for (buf, position) in self.negs.iter_mut().zip(negations) {
            if own || position != NegPosition::Before {
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

    /// Capacity-based estimate of the bytes behind a stored value — the
    /// box and its heap — in O(levels + negations): the slab's event
    /// capacity is tracked as it grows and each negation index reads
    /// its capacities, so nothing is summed by a walk.
    #[must_use]
    pub fn bytes(&self) -> usize {
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
            + size_of::<Self>()
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
        self.counted = 0;
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
    pub fn expire_started_at_or_before(&mut self, t: Time) {
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

/// Cap on the free list of emptied run states: enough to absorb the
/// churn of windows closing and reopening, small enough that a burst of
/// short-lived partitions does not pin its slabs.
const SPARE_RUN_STATES: usize = 1024;

/// The run states one stream partition holds: slot `i` belongs to its
/// program's stateful operator `i` and is empty unless that operator
/// holds something there. Empty, without slots, while nothing is held.
#[derive(Debug, Clone, Default)]
pub struct RunStates {
    slots: Vec<Option<Box<RunState>>>,
    /// Occupied slots.
    held: usize,
    /// Summed [`RunState::bytes`] of the occupied slots.
    bytes: usize,
}

impl RunStates {
    /// True when no slot holds a state.
    #[must_use]
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.held == 0
    }

    /// Capacity-based size of the slot vector and the states it holds,
    /// kept as slots fill and empty.
    #[must_use]
    #[inline]
    pub fn bytes(&self) -> usize {
        self.slots.len() * std::mem::size_of::<Option<Box<RunState>>>() + self.bytes
    }

    /// The held states, in slot order.
    pub fn iter(&self) -> impl Iterator<Item = &RunState> {
        self.slots.iter().flatten().map(|state| &**state)
    }

    /// Applies `f` to every held state, recycling those it empties into
    /// `spare` (a free list of [`StateSlots`]), and recounts the held
    /// states and their bytes. Returns how many states emptied.
    pub fn retain(
        &mut self,
        spare: &mut StateSlots,
        mut f: impl FnMut(usize, &mut RunState),
    ) -> usize {
        let (mut emptied, mut held, mut bytes) = (0, 0, 0);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            let Some(state) = slot else { continue };
            f(i, state);
            if state.has_state() {
                if spare.sizes {
                    state.counted = state.bytes();
                }
                (held, bytes) = (held + 1, bytes + state.counted);
            } else if let Some(state) = slot.take() {
                emptied += 1;
                spare.recycle(i, state);
            }
        }
        (self.held, self.bytes) = (held, bytes);
        if held == 0 {
            self.slots = Vec::new();
        }
        emptied
    }

    /// Overwrites these states with a copy of `src`'s, in place down to
    /// the slabs ([`RunState::copy_from`]), taking new states from and
    /// returning emptied ones to `spare`: overwriting a partition's
    /// states again and again allocates nothing once they have seen
    /// their largest shape.
    pub fn copy_from(&mut self, src: &RunStates, spare: &mut StateSlots) {
        let len = self.slots.len().max(src.slots.len());
        self.slots.resize_with(len, || None);
        for (i, held) in self.slots.iter_mut().enumerate() {
            match src.slots.get(i).and_then(Option::as_deref) {
                Some(from) => {
                    let held = held.get_or_insert_with(|| spare.fresh(i));
                    held.copy_from(from);
                    held.reached = false;
                }
                None => held.take().into_iter().for_each(|mut emptied| {
                    emptied.reset();
                    spare.recycle(i, emptied);
                }),
            }
        }
        self.retain(spare, |_, _| {});
    }
}

impl Serialize for RunStates {
    fn serialize(&self, out: &mut Serializer) {
        self.slots.serialize(out);
    }
}

impl Deserialize for RunStates {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let mut states = RunStates {
            slots: Vec::deserialize(de)?,
            ..RunStates::default()
        };
        let counting = &mut StateSlots {
            sizes: true,
            ..StateSlots::default()
        };
        states.retain(counting, |_, _| {});
        Ok(states)
    }
}

/// The workspace a transaction reaches its partition's run states
/// through: the partition's [`RunStates`] move in at
/// [`enter`](Self::enter) and back out at [`leave`](Self::leave), and a
/// stateful operator asks for its own slot by number. A slot is
/// *reached* the first time the transaction asks for it mutably; only
/// reached slots are examined at `leave` — their slab counters folded,
/// those left empty recycled — so what a transaction costs there is
/// what it touched, not the size of the program.
#[derive(Debug, Clone, Default)]
pub struct StateSlots {
    /// Slots per partition: the program's stateful operators.
    len: usize,
    /// Largest slab high-water mark folded so far — the most partial
    /// matches one operator held in one partition. Part of a snapshot
    /// ([`restore_peak`](Self::restore_peak)): a recovered run reports
    /// the uninterrupted run's peak.
    peak: usize,
    /// The states of the partition whose transaction runs.
    states: RunStates,
    /// Slots reached since `enter`, each once.
    reached: Vec<u32>,
    /// Per slot, the state its operator last emptied, shaped for it —
    /// what a new state there is taken from first: handing an operator
    /// a state shaped for another reshapes and regrows its vectors.
    idle: Vec<Option<Box<RunState>>>,
    /// Other emptied run states (their slabs keep their capacity).
    #[allow(clippy::vec_box)]
    spare: Vec<Box<RunState>>,
    /// What a stateless pattern runs on: it never keeps anything.
    stateless: RunState,
    /// Slab allocations served from a free list, folded so far.
    reused: u64,
    /// Keep the partitions' [`RunStates::bytes`] as transactions end
    /// (only a state-size gauge reads them).
    sizes: bool,
}

impl StateSlots {
    /// A workspace for a program of `len` stateful operators.
    #[must_use]
    pub fn new(len: usize) -> Self {
        Self {
            len,
            ..Self::default()
        }
    }

    /// Keeps [`RunStates::bytes`] up to date at every
    /// [`leave`](Self::leave) from now on, or stops.
    pub fn count_sizes(&mut self, on: bool) {
        self.sizes = on;
    }

    /// Moves a partition's states in for one transaction; returns how
    /// many slots it holds.
    #[inline]
    pub fn enter(&mut self, states: &mut RunStates) -> usize {
        debug_assert!(self.states.is_empty() && self.reached.is_empty());
        if !states.is_empty() {
            std::mem::swap(&mut self.states, states);
        }
        self.states.held
    }

    /// Ends the transaction: examines each reached slot — folds its
    /// slab counters, recycles it if it emptied, re-counts its bytes
    /// when [counting](Self::count_sizes) — and moves the states back.
    /// Returns `(slots reached, slots examined)`.
    pub fn leave(&mut self, states: &mut RunStates) -> (usize, usize) {
        let reached = self.reached.len();
        let mut examined = 0;
        for k in 0..reached {
            examined += 1;
            let slot = self.reached[k] as usize;
            let held = &mut self.states.slots[slot];
            let state = held.as_mut().expect("a reached slot holds a state");
            state.reached = false;
            self.reused += state.take_pool_reused();
            self.peak = self.peak.max(state.pool_peak());
            if self.sizes {
                self.states.bytes -= state.counted;
                state.counted = if state.has_state() { state.bytes() } else { 0 };
                self.states.bytes += state.counted;
            }
            if !state.has_state() {
                self.states.held -= 1;
                let emptied = held.take().expect("held");
                self.recycle(slot, emptied);
            }
        }
        self.reached.clear();
        if self.states.held > 0 {
            std::mem::swap(&mut self.states, states);
        } else {
            // Nothing held: the partition's record keeps no slots, and
            // the cleared vector stays here for the next transaction.
            self.states.slots.clear();
            self.states.bytes = 0;
            debug_assert!(states.is_empty());
        }
        (reached, examined)
    }

    /// Operator `slot`'s state in the running transaction, created
    /// empty if the partition holds none there; `None` is a stateless
    /// pattern's.
    #[inline]
    pub fn get(&mut self, slot: Option<u32>) -> &mut RunState {
        let Some(slot) = slot else {
            return &mut self.stateless;
        };
        let i = slot as usize;
        if !matches!(self.states.slots.get(i), Some(Some(_))) {
            return self.create(i);
        }
        let state = self.states.slots[i].as_deref_mut().expect("held");
        if !state.reached {
            state.reached = true;
            self.reached.push(slot);
        }
        state
    }

    /// Gives empty slot `i` a state, reached.
    #[inline(never)]
    fn create(&mut self, i: usize) -> &mut RunState {
        if self.states.slots.len() <= i {
            let len = (i + 1).max(self.len);
            self.states.slots.resize_with(len, || None);
        }
        let fresh = self.fresh(i);
        self.states.held += 1;
        self.reached.push(i as u32);
        self.states.slots[i].insert(fresh)
    }

    /// Operator `slot`'s state, if the partition holds one — reached, as
    /// the caller may change it.
    pub fn held_mut(&mut self, slot: Option<u32>) -> Option<&mut RunState> {
        self.peek(slot)?;
        Some(self.get(slot))
    }

    /// Read access to operator `slot`'s state, if the partition holds
    /// one; not reached.
    #[must_use]
    pub fn peek(&self, slot: Option<u32>) -> Option<&RunState> {
        let slot = self.states.slots.get(slot? as usize)?;
        slot.as_deref()
    }

    /// Moves operator `slot`'s state out, to be read beside another
    /// operator's; [`put`](Self::put) returns it.
    pub fn take(&mut self, slot: Option<u32>) -> Option<Box<RunState>> {
        self.states.slots.get_mut(slot? as usize)?.take()
    }

    /// Returns a state moved out by [`take`](Self::take).
    pub fn put(&mut self, slot: Option<u32>, state: Box<RunState>) {
        let slot = slot.expect("taken from a slot") as usize;
        self.states.slots[slot] = Some(state);
    }

    /// `(slab allocations served from a free list, largest slab
    /// high-water mark)` over every transaction so far.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, usize) {
        (self.reused, self.peak)
    }

    /// Sets the largest slab high-water mark to a snapshot's.
    pub fn restore_peak(&mut self, peak: usize) {
        self.peak = peak;
    }

    /// A new state for `slot`, reached: the one its operator last
    /// emptied, else one from the free list, else a new one.
    fn fresh(&mut self, slot: usize) -> Box<RunState> {
        let idle = self.idle.get_mut(slot).and_then(Option::take);
        let mut state = idle.or_else(|| self.spare.pop()).unwrap_or_default();
        state.reached = true;
        state
    }

    /// Takes an emptied state of `slot` back, for its operator or the
    /// free list.
    fn recycle(&mut self, slot: usize, mut state: Box<RunState>) {
        state.recycle();
        if self.idle.len() <= slot {
            self.idle.resize_with(slot + 1, || None);
        }
        match &mut self.idle[slot] {
            idle @ None => *idle = Some(state),
            Some(_) if self.spare.len() < SPARE_RUN_STATES => self.spare.push(state),
            Some(_) => {}
        }
    }
}
