//! Property-based pool-recycling invariants.
//!
//! The pattern operator stores partial matches in a generation-indexed
//! slab of the caller's [`RunState`] ([`RunState::pool_consistent`]
//! checks its structural invariants). These properties drive a stateful sequence pattern with
//! trailing negation through adversarial interleavings of feeds,
//! watermark advances, window closes (reset) and history expiry
//! (retraction cycles), asserting after every step that
//!
//! 1. the slab never leaks or double-frees a slot (every level/pending
//!    reference points at a live generation-matching slot, free list and
//!    live count agree), and
//! 2. a snapshot/restore mid-stream — which re-pools the surviving
//!    partials into a *differently laid out* slab, exactly like a
//!    speculative splice — changes nothing observable: outputs stay
//!    equal to a never-snapshotted twin, so no match can ever assemble
//!    from a stale (freed-and-reused) partial, and
//! 3. the same holds when one operator serves several partitions
//!    through their slots ([`StateSlots`] entered and left per
//!    transaction), with emptied states (slab capacity and bumped
//!    generations included) recycled from one partition to the next.

use caesar_algebra::nfa::PatternBuilder;
use caesar_algebra::pattern::{PatternOp, RunState, RunStates, StateSlots};
use caesar_events::{AttrType, Event, PartitionId, Schema, SchemaRegistry, Time, TypeId, Value};
use proptest::prelude::*;

fn registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    reg.register(Schema::new("A", &[("v", AttrType::Int)]))
        .unwrap();
    reg.register(Schema::new("B", &[("v", AttrType::Int)]))
        .unwrap();
    reg.register(Schema::new("C", &[("v", AttrType::Int)]))
        .unwrap();
    reg
}

/// SEQ(A a, B b, NOT A) WITHIN 40 → C(a.v, b.v): keeps partials in the
/// slab (level 0), parks completed matches as pending (trailing
/// negation), and frees through all paths — extension, emission,
/// rejection, expiry and reset.
fn pattern(reg: &SchemaRegistry) -> PatternOp {
    let a = reg.lookup("A").unwrap();
    let b = reg.lookup("B").unwrap();
    let c = reg.lookup("C").unwrap();
    PatternBuilder::new(c)
        .then(a)
        .then(b)
        .not_after(a, vec![])
        .within(40)
        .offsets(vec![0, 1])
        .build()
}

fn event(ty: TypeId, t: Time, v: i64) -> Event {
    Event::simple(ty, t, PartitionId(0), vec![Value::Int(v)])
}

/// One scripted step: `kind` selects the operation, `arg` parameterizes
/// it (payload value / time increment).
fn arb_script() -> impl Strategy<Value = Vec<(u8, u64)>> {
    prop::collection::vec((0u8..=5, 0u64..8), 1..80)
}

proptest! {
    #[test]
    fn interleaved_cycles_never_observe_a_stale_partial(script in arb_script()) {
        let reg = registry();
        let a = reg.lookup("A").unwrap();
        let b = reg.lookup("B").unwrap();
        // `live` is snapshot/restored mid-stream (slab re-pooled, like a
        // speculative splice); `twin` never is. Byte-for-byte equal
        // outputs prove slab layout is unobservable.
        let (mut live_op, mut twin_op) = (pattern(&reg), pattern(&reg));
        let (mut live, mut twin) = (RunState::default(), RunState::default());
        let mut t: Time = 1;
        let mut out_live: Vec<Event> = Vec::new();
        let mut out_twin: Vec<Event> = Vec::new();
        for (step, &(kind, arg)) in script.iter().enumerate() {
            match kind {
                // Feed an A (opens a partial) or a B (extends it into a
                // parked pending match).
                0 | 1 => {
                    t += arg % 2;
                    let ty = if kind == 0 { a } else { b };
                    let ev = event(ty, t, arg as i64);
                    live_op.process(&mut live, &ev, &mut out_live);
                    twin_op.process(&mut twin, &ev, &mut out_twin);
                }
                // Watermark advance: emits matured pending matches,
                // expires window-exceeded partials.
                2 => {
                    t += arg;
                    live_op.advance_time(&mut live, t, &mut out_live);
                    twin_op.advance_time(&mut twin, t, &mut out_twin);
                }
                // History expiry (grouped-window retraction cycle).
                3 => {
                    let cutoff = t.saturating_sub(arg);
                    live.expire_started_at_or_before(cutoff);
                    twin.expire_started_at_or_before(cutoff);
                }
                // Window close: discard all partial state.
                4 => {
                    live.reset();
                    twin.reset();
                }
                // Snapshot/restore: the survivors re-pool into a dense
                // slab with fresh generations (splice semantics).
                _ => {
                    let bytes = serde::to_bytes(&live);
                    live = serde::from_bytes(&bytes).unwrap();
                }
            }
            prop_assert!(
                live.pool_consistent(),
                "slab inconsistent after step {step} (kind {kind})"
            );
            prop_assert!(twin.pool_consistent());
            prop_assert_eq!(&out_live, &out_twin, "outputs diverged at step {}", step);
            prop_assert_eq!(live.live_partials(), twin.live_partials());
        }
        // Drain: everything still parked must mature identically.
        live_op.advance_time(&mut live, t + 100, &mut out_live);
        twin_op.advance_time(&mut twin, t + 100, &mut out_twin);
        prop_assert_eq!(out_live, out_twin);
        live.reset();
        prop_assert!(live.pool_consistent());
        prop_assert_eq!(live.live_partials(), 0);
    }

    /// One shared operator, three partitions taking turns the way the
    /// runtime runs them (their slots entered, the operator handed its
    /// slot, the slots left; a state that emptied goes to a free list
    /// the next new state is taken from), against one private operator
    /// and state per partition.
    #[test]
    fn recycled_run_states_never_leak_across_partitions(
        script in prop::collection::vec((0usize..3, 0u8..=4, 0u64..8), 1..120)
    ) {
        let reg = registry();
        let a = reg.lookup("A").unwrap();
        let b = reg.lookup("B").unwrap();
        let mut shared = pattern(&reg);
        shared.set_slot(0);
        let slot = shared.slot();
        let mut slots = StateSlots::new(1);
        let mut held: [RunStates; 3] = Default::default();
        let mut twin_op = pattern(&reg);
        let mut twins: [RunState; 3] = Default::default();
        let mut out_shared: [Vec<Event>; 3] = Default::default();
        let mut out_twins: [Vec<Event>; 3] = Default::default();
        let mut t: Time = 1;
        for (step, &(p, kind, arg)) in script.iter().enumerate() {
            slots.enter(&mut held[p]);
            let twin = &mut twins[p];
            let (out, twin_out) = (&mut out_shared[p], &mut out_twins[p]);
            match kind {
                0 | 1 => {
                    let ty = if kind == 0 { a } else { b };
                    let e = event(ty, t + arg % 2, arg as i64);
                    shared.process(slots.get(slot), &e, out);
                    twin_op.process(twin, &e, twin_out);
                }
                2 => {
                    if let Some(run) = slots.held_mut(slot) {
                        shared.advance_time(run, t + arg, out);
                    }
                    twin_op.advance_time(twin, t + arg, twin_out);
                }
                3 => {
                    let cutoff = t.saturating_sub(arg);
                    if let Some(run) = slots.held_mut(slot) {
                        run.expire_started_at_or_before(cutoff);
                    }
                    twin.expire_started_at_or_before(cutoff);
                }
                _ => {
                    if let Some(run) = slots.held_mut(slot) {
                        run.reset();
                    }
                    twin.reset();
                }
            }
            t += if kind == 2 { arg } else { arg % 2 };
            if let Some(state) = slots.peek(slot) {
                prop_assert!(state.pool_consistent(), "entered state, step {}", step);
            }
            slots.leave(&mut held[p]);
            for states in &held {
                prop_assert!(states.iter().all(|s| s.pool_consistent() && s.has_state()));
            }
            prop_assert_eq!(&out_shared, &out_twins, "outputs diverged at step {}", step);
            let live: usize = held[p].iter().map(RunState::live_partials).sum();
            prop_assert_eq!(live, twins[p].live_partials());
        }
    }
}
