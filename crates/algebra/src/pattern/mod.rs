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
//! and [`RunState::reset`] / [`RunState::expire_started_at_or_before`]
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
//!
//! One step routine (`Steps`) extends every partial match — a
//! pattern's own, and a shared group's on both sides of its boundary.
//!
//! An operator holds no partial match itself: its methods take the
//! [`RunState`] of the partition they run for, which a transaction hands
//! each stateful operator by slot number ([`StateSlots`]).
//!
//! Module map: `mod.rs` holds the operator, the candidate bindings and
//! the step routine; `state.rs` the slab, the run state and a
//! partition's slots of them; `negation.rs` the negation buffers, their
//! keyed index and probe plans; `shared.rs` the shared-prefix group.

mod negation;
mod shared;
mod state;

use crate::expr::{CompiledExpr, Slots};
use crate::nfa::{NfaProgram, NfaStep};
use caesar_events::{Event, Interval, Provenance, Time, TypeId, Value};
use negation::NegCtx;
use serde::Serialize;
use state::{MatchState, PartialRef, PartialStore, Pending};
use std::sync::Arc;

pub use crate::nfa::{NegPosition, NegationCheck};
pub(crate) use negation::NegPlan;
pub use shared::{SharedGroup, SharedMember};
pub use state::{RunState, RunStates, StateSlots};

/// Counters exposed for metrics and cost-model calibration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
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

/// The pattern operator: an [`NfaProgram`], its counters and its slot
/// number — one per engine. The [`RunState`] it extends is the caller's.
#[derive(Debug, Clone, Serialize)]
pub struct PatternOp {
    /// The compiled program (steps, negations, horizon, output shape).
    /// Behind an [`Arc`]: the optimizer and the baseline's private
    /// re-derivers clone operators; the program is immutable after
    /// optimization, so clones share it and the rare pre-execution
    /// mutators copy-on-write.
    program: Arc<NfaProgram>,
    /// Scratch for a probe's positives-side key, reused across probes.
    #[serde(skip)]
    probe_key: Vec<Value>,
    /// Where a partition's [`RunState`] for this operator sits among the
    /// program's ([`StateSlots`]); `None` for a standalone or stateless
    /// operator.
    slot: Option<u32>,
    /// Number of leading steps owned by a [`SharedGroup`]: this operator
    /// never creates or extends partials below that level — the combined
    /// plan crosses the boundary via
    /// [`cross_boundary`](Self::cross_boundary). `0` ⇒ unshared.
    shared_prefix_len: usize,
    /// Observability counters.
    #[serde(skip)]
    pub stats: PatternStats,
}

/// Runs non-trailing negation checks on a complete candidate and
/// decides its fate: a trailing negation parks it. The candidate stays
/// borrowed — storage happens at the call site only for
/// [`Verdict::Park`].
fn complete_candidate(cand: Candidate<'_>, ctx: &mut NegCtx<'_>, within: Time) -> Verdict {
    let mut trailing = false;
    for i in 0..ctx.negations.len() {
        let (lo, hi) = match ctx.negations[i].position {
            NegPosition::Before => (None, Some(cand.first().time())),
            NegPosition::Between(k) => (Some(cand.get(k).time()), Some(cand.get(k + 1).time())),
            NegPosition::After => {
                trailing = true;
                continue;
            }
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

/// Where the prefix of a candidate comes from.
#[derive(Debug, Clone, Copy)]
enum Prefix<'p> {
    /// Nowhere: the event starts a partial match at step 0.
    Empty,
    /// A partial match held by the state the routine extends.
    Own(PartialRef),
    /// A full prefix held by a [`SharedGroup`], crossing its boundary.
    Shared(&'p [Event]),
}

impl<'p> Prefix<'p> {
    /// The prefix's events; an own partial resolves in `store`.
    fn events<'s>(self, store: &'s PartialStore) -> &'s [Event]
    where
        'p: 's,
    {
        match self {
            Prefix::Empty => &[],
            Prefix::Own(r) => store.events(r),
            Prefix::Shared(events) => events,
        }
    }
}

/// The step routine: a sequence's steps and negation checks with the
/// run state they extend, borrowed apart from the operator that owns
/// them — a [`PatternOp`] or a [`SharedGroup`]. Every partial match is made in
/// [`offer`](Self::offer), whether it is created, extended from the
/// state's own partial or crossed over from a group's full prefix, so
/// shared and unshared execution agree because they run the same code.
struct Steps<'a> {
    steps: &'a [NfaStep],
    within: Time,
    /// `(match type, collect provenance)` of a pattern, whose complete
    /// candidates are checked and emitted, parked or dropped; `None` for
    /// a shared group, whose complete candidates are full prefixes kept
    /// at its last level.
    emits: Option<(TypeId, bool)>,
    negations: &'a [NegationCheck],
    plans: &'a [NegPlan],
    /// Scratch for a probe's positives-side key.
    probe_key: &'a mut Vec<Value>,
    stats: &'a mut PatternStats,
    run: &'a mut RunState,
}

// Both methods are inlined into their callers, as the three copies
// they replaced were: out of line, the per-partial call costs 10–18 %
// on the `operators` pattern micro-benchmarks.
impl Steps<'_> {
    /// Offers `event` at every step from `lowest` up whose type it has,
    /// longest prefix first, so a partial is never extended by the
    /// event that made it.
    #[inline(always)]
    fn feed<S: MatchSink>(&mut self, lowest: usize, event: &Event, out: &mut S) {
        for i in (lowest..self.steps.len()).rev() {
            if self.steps[i].type_id != event.type_id {
                continue;
            }
            if i == 0 {
                self.offer(0, Prefix::Empty, event, out);
                continue;
            }
            // Take the shorter partials out to extend them without
            // aliasing.
            let refs = std::mem::take(&mut self.run.state.levels[i - 1]);
            for &r in &refs {
                self.offer(i, Prefix::Own(r), event, out);
            }
            self.run.state.levels[i - 1] = refs;
        }
    }

    /// Offers `event` as step `i` after `prefix`. A candidate survives a
    /// strictly increasing time and a bounded span (sequences require
    /// both) and step `i`'s predicates; a complete one is then emitted,
    /// parked or rejected ([`complete_candidate`]), and whatever must be
    /// kept is stored through [`PartialStore::insert`]. The run state is
    /// shaped by the first candidate past the span guard, so a boundary
    /// crossing that extends nothing leaves a detached state as it was.
    ///
    /// [`PartialStore::insert`]: state::PartialStore::insert
    #[inline(always)]
    fn offer<S: MatchSink>(&mut self, i: usize, prefix: Prefix<'_>, event: &Event, out: &mut S) {
        let Steps {
            steps,
            within,
            emits,
            negations,
            plans,
            probe_key,
            stats,
            run,
        } = self;
        let events = prefix.events(&run.state.store);
        if let (Some(first), Some(last)) = (events.first(), events.last()) {
            let t = event.time();
            if !(last.time() < t && t.saturating_sub(first.time()) <= *within) {
                return;
            }
        }
        run.ensure_shape(steps.len(), negations.len());
        let cand = Candidate {
            prefix: prefix.events(&run.state.store),
            tail: event,
        };
        if !steps[i]
            .predicates
            .iter()
            .all(|p| p.matches_in(&cand, &mut stats.eval_errors))
        {
            return;
        }
        stats.partials_created += 1;
        let complete = i + 1 == steps.len();
        let deadline = match *emits {
            Some((match_type, collect)) if complete => {
                let mut ctx = NegCtx {
                    negations,
                    plans,
                    negs: &mut run.negs,
                    probe_key,
                    stats,
                };
                match complete_candidate(cand, &mut ctx, *within) {
                    Verdict::Rejected => return,
                    Verdict::Emit => {
                        out.emit(assemble_match(match_type, cand, collect));
                        stats.matches += 1;
                        return;
                    }
                    Verdict::Park { deadline } => Some(deadline),
                }
            }
            // A shared group's match is a full prefix.
            _ => {
                stats.matches += u64::from(complete);
                None
            }
        };
        // What is stored expires with its first event.
        run.floor = run.floor.min(cand.first().time().saturating_add(*within));
        let r = run.state.store.insert(prefix, event);
        match deadline {
            Some(deadline) => run.state.pending.push(Pending { r, deadline }),
            None => run.state.levels[i].push(r),
        }
    }
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
            slot: None,
            shared_prefix_len: 0,
            stats: PatternStats::default(),
        }
    }

    /// The operator's run-state slot in its program.
    #[must_use]
    pub fn slot(&self) -> Option<u32> {
        self.slot
    }

    /// Numbers the operator's run-state slot (the program does, once).
    pub fn set_slot(&mut self, slot: u32) {
        self.slot = Some(slot);
    }

    /// Whether the operator can keep anything between events: a single
    /// step without negations emits or drops each candidate at once.
    #[must_use]
    pub fn keeps_state(&self) -> bool {
        self.program.steps.len() > 1 || !self.program.negations.is_empty()
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

    /// Processes one input event against `run`, appending emitted match
    /// events to `out`.
    pub fn process(&mut self, run: &mut RunState, event: &Event, out: &mut Vec<Event>) {
        self.process_event(run, event, out);
    }

    /// Processes a same-`(partition, time)` run of rows, appending
    /// `(row, match)` pairs to `out` in exactly the per-row order
    /// [`process`](Self::process) would produce. Rows are the `sel`
    /// entries, in order, indexing `events`. Outputs and every counter
    /// are those of the per-event path: the rows take it one by one, and
    /// the row tags are what the combined plan's plan-major merge keys
    /// on.
    pub fn process_batch(
        &mut self,
        run: &mut RunState,
        events: &[Event],
        sel: &[u32],
        out: &mut Vec<(u32, Event)>,
    ) {
        for &row in sel {
            let mut sink = RowTagged { row, out };
            self.process_event(run, &events[row as usize], &mut sink);
        }
    }

    /// The shared per-event engine behind [`process`](Self::process) and
    /// [`process_batch`](Self::process_batch).
    fn process_event<S: MatchSink>(&mut self, run: &mut RunState, event: &Event, out: &mut S) {
        self.stats.events_processed += 1;
        run.ensure_shape(self.program.steps.len(), self.program.negations.len());

        // 1. Feed negation buffers and check pending (trailing-negation)
        //    matches against the new event.
        self.feed_negations(run, event);

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

        // 2. Offer the event at every step of its type. Levels at or
        //    below a shared prefix live in the group's state: the
        //    owning `SharedGroup` creates and extends them, and the
        //    boundary step is taken by `cross_boundary` alone.
        let lowest = match self.shared_prefix_len {
            0 => 0,
            len => len + 1,
        };
        self.routine(run).feed(lowest, event, out);
    }

    /// The step routine over this operator's program and `run`.
    fn routine<'a>(&'a mut self, run: &'a mut RunState) -> Steps<'a> {
        let Self {
            program,
            probe_key,
            stats,
            ..
        } = self;
        let match_type = program.match_type.expect("sequence mode");
        Steps {
            steps: &program.steps,
            within: program.within,
            emits: Some((match_type, program.collect_provenance)),
            negations: &program.negations,
            plans: &program.neg_plans,
            probe_key,
            stats,
            run,
        }
    }

    /// Crosses the shared-prefix boundary: tries `event` — whose type is
    /// that of step `shared_prefix_len`, which the combined plan's
    /// routing table guarantees — against every full prefix `group`
    /// holds in `prefixes`, emitting completed matches to `out` or
    /// storing the new partials in `run`. The operator's input here is
    /// the `(prefix, event)` candidate: each one tried counts as one
    /// unit of `events_processed` and yields at most one match.
    pub fn cross_boundary(
        &mut self,
        run: &mut RunState,
        group: &SharedGroup,
        prefixes: &RunState,
        event: &Event,
        out: &mut Vec<Event>,
    ) {
        let i = self.shared_prefix_len;
        debug_assert_eq!(
            self.program.steps[i].type_id, event.type_id,
            "routed by the boundary step's type"
        );
        let mut routine = self.routine(run);
        for prefix in group.full_prefixes(prefixes) {
            debug_assert_eq!(prefix.len(), i, "boundary needs a full prefix");
            routine.stats.events_processed += 1;
            routine.offer(i, Prefix::Shared(prefix), event, out);
        }
    }

    /// Feeds negation buffers with a matching event, rejecting pending
    /// trailing-negation matches and pruning each touched buffer by the
    /// `within` horizon.
    fn feed_negations(&mut self, run: &mut RunState, event: &Event) {
        let t = event.time();
        let within = self.program.within;
        for i in 0..self.program.negations.len() {
            if self.program.negations[i].type_id != event.type_id {
                continue;
            }
            if self.program.negations[i].position == NegPosition::After {
                self.reject_pending(run, i, event);
            }
            let buf = &mut run.negs[i];
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
            run.floor = run.floor.min(t.saturating_add(within));
        }
    }

    /// Drops pending trailing-negation matches invalidated by `event`.
    fn reject_pending(&mut self, run: &mut RunState, check: usize, event: &Event) {
        let Self { program, stats, .. } = self;
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

    /// Advances the partition's own watermark on its `run`: emits
    /// matured trailing-negation matches and prunes state older than the
    /// `within` horizon ([`RunState::expire`]). Returns the earliest
    /// deadline of what is left ([`RunState::floor`]).
    pub fn advance_time(
        &mut self,
        run: &mut RunState,
        watermark: Time,
        out: &mut Vec<Event>,
    ) -> Time {
        // Emit pending matches whose no-negation horizon fully passed.
        let match_type = self.program.match_type;
        let collect = self.program.collect_provenance;
        {
            let MatchState { pending, store, .. } = &mut run.state;
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
        let negations = program.negations.iter().map(|n| n.position);
        run.expire(watermark, program.within, negations, true);
        run.floor
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BindingLayout, LayoutVar, SlotSource};
    use crate::nfa::PatternBuilder;
    use caesar_events::{AttrType, PartitionId, Schema, SchemaRegistry};
    use caesar_query::ast::{BinOp, Expr};
    use std::ops::{Deref, DerefMut};

    /// A pattern operator with the run state of its one partition.
    #[derive(Debug, Clone)]
    pub(super) struct Solo {
        pub(super) op: PatternOp,
        pub(super) run: RunState,
    }

    impl From<PatternOp> for Solo {
        fn from(op: PatternOp) -> Self {
            Solo {
                op,
                run: RunState::default(),
            }
        }
    }

    impl Deref for Solo {
        type Target = PatternOp;
        fn deref(&self) -> &PatternOp {
            &self.op
        }
    }

    impl DerefMut for Solo {
        fn deref_mut(&mut self) -> &mut PatternOp {
            &mut self.op
        }
    }

    impl Solo {
        pub(super) fn process(&mut self, event: &Event, out: &mut Vec<Event>) {
            self.op.process(&mut self.run, event, out);
        }

        pub(super) fn process_batch(
            &mut self,
            events: &[Event],
            sel: &[u32],
            out: &mut Vec<(u32, Event)>,
        ) {
            self.op.process_batch(&mut self.run, events, sel, out);
        }

        pub(super) fn advance_time(&mut self, watermark: Time, out: &mut Vec<Event>) -> Time {
            self.op.advance_time(&mut self.run, watermark, out)
        }

        pub(super) fn cross_boundary(
            &mut self,
            group: &Group,
            event: &Event,
            out: &mut Vec<Event>,
        ) {
            self.op
                .cross_boundary(&mut self.run, &group.group, &group.run, event, out);
        }

        pub(super) fn reset(&mut self) {
            self.run.reset();
        }

        pub(super) fn expire_started_at_or_before(&mut self, t: Time) {
            self.run.expire_started_at_or_before(t);
        }

        pub(super) fn live_partials(&self) -> usize {
            self.run.live_partials()
        }

        pub(super) fn pool_reused(&self) -> u64 {
            self.run.pool_reused()
        }

        pub(super) fn pool_peak(&self) -> usize {
            self.run.pool_peak()
        }

        pub(super) fn pool_consistent(&self) -> bool {
            self.run.pool_consistent()
        }

        /// The state through a snapshot's bytes, beside the same
        /// operator (a snapshot carries no program).
        pub(super) fn round_trip(&self) -> Solo {
            Solo {
                op: self.op.clone(),
                run: serde::from_bytes(&serde::to_bytes(&self.run)).unwrap(),
            }
        }
    }

    /// A shared-prefix group with the run state of its one partition.
    pub(super) struct Group {
        pub(super) group: SharedGroup,
        pub(super) run: RunState,
    }

    impl Group {
        pub(super) fn advance(&mut self, event: &Event) {
            self.group.advance(&mut self.run, event);
        }

        pub(super) fn advance_time(&mut self, watermark: Time) -> Time {
            self.group.advance_time(&mut self.run, watermark)
        }
    }

    pub(super) fn registry() -> SchemaRegistry {
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

    pub(super) fn ev(reg: &SchemaRegistry, ty: &str, t: Time, v: i64) -> Event {
        Event::simple(
            reg.lookup(ty).unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(v)],
        )
    }

    pub(super) fn pr(reg: &SchemaRegistry, t: Time, vid: i64) -> Event {
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
        let mut p = Solo::from(PatternOp::passthrough(reg.lookup("A").unwrap()));
        let mut out = Vec::new();
        p.process(&ev(&reg, "A", 1, 10), &mut out);
        p.process(&ev(&reg, "B", 2, 20), &mut out);
        assert_eq!(out.len(), 1);
        assert_eq!(p.stats.matches, 1);
        assert_eq!(p.stats.events_processed, 2);
    }

    fn seq_ab(reg: &SchemaRegistry, within: Time) -> Solo {
        PatternBuilder::new(reg.lookup("M").unwrap())
            .then(reg.lookup("A").unwrap())
            .then(reg.lookup("B").unwrap())
            .within(within)
            .offsets(vec![0, 1])
            .build()
            .into()
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
        let mut p = Solo::from(
            PatternBuilder::new(reg.lookup("M").unwrap())
                .then(tid_a)
                .filter(p0)
                .then(tid_b)
                .filter(p1)
                .within(100)
                .offsets(vec![0, 1])
                .build(),
        );
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
    pub(super) fn layout(reg: &SchemaRegistry, vars: &[(&str, &str)]) -> BindingLayout {
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
    pub(super) fn figure_three(reg: &SchemaRegistry, within: Time) -> Solo {
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
            .into()
    }

    pub(super) fn leading_negation_pattern(reg: &SchemaRegistry) -> Solo {
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

    #[test]
    fn between_negation_blocks_interleaved_event() {
        let reg = registry();
        let tid_a = reg.lookup("A").unwrap();
        let tid_b = reg.lookup("B").unwrap();
        let tid_c = reg.lookup("C").unwrap();
        let mut p = Solo::from(
            PatternBuilder::new(reg.lookup("M").unwrap())
                .then(tid_a)
                .then(tid_b)
                .not_between(0, tid_c, vec![])
                .within(100)
                .offsets(vec![0, 1])
                .build(),
        );
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
        let mut p = Solo::from(
            PatternBuilder::new(reg.lookup("M").unwrap())
                .then(tid_a)
                .not_after(tid_c, vec![])
                .within(10)
                .offsets(vec![0])
                .build(),
        );
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
        let mut p: Solo = ["A", "B", "C"]
            .iter()
            .fold(PatternBuilder::new(reg.lookup("M").unwrap()), |b, ty| {
                b.then(reg.lookup(ty).unwrap())
            })
            .within(100)
            .offsets(vec![0, 1, 2])
            .build()
            .into();
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

    /// A run of rows must be invisible: same outputs (in the
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
        let bytes = serde::to_bytes(&p.run);
        let mut restored = p.clone();
        restored.run = serde::from_bytes(&bytes).unwrap();
        assert_eq!(
            serde::to_bytes(&restored.run),
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
