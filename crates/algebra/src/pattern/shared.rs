//! Shared-prefix groups: one [`SharedGroup`] builds the partial matches
//! of a sequence prefix several patterns agree on, once, and its
//! members take the boundary step from its full prefixes.

use super::state::RunState;
use super::{PatternStats, Steps};
use crate::nfa::NfaStep;
use caesar_events::{Event, Time};
use serde::{Deserialize, Serialize};

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
/// [`PatternOp::cross_boundary`](super::PatternOp::cross_boundary).
/// The group's advance, the crossing and the member's own levels run
/// one step routine, so shared execution is output-identical to
/// unshared execution.
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

    /// The bound run state (see [`PatternOp::run_mut`](super::PatternOp::run_mut)).
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
        self.stats.events_processed += 1;
        self.run.ensure_shape(self.steps.len(), 0);
        let mut routine = Steps {
            steps: &self.steps,
            within: self.within,
            emits: None,
            negations: &[],
            plans: &[],
            probe_key: &mut Vec::new(),
            stats: &mut self.stats,
            run: &mut self.run,
        };
        // A group emits nothing: its full prefixes stay at its last level.
        routine.feed(0, event, &mut Vec::new());
    }

    /// The full prefixes (level `prefix_len − 1`) currently held, in
    /// creation order — the boundary feed of
    /// [`PatternOp::cross_boundary`](super::PatternOp::cross_boundary).
    pub(super) fn full_prefixes(&self) -> impl Iterator<Item = &[Event]> + '_ {
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
    use super::super::tests::registry;
    use super::*;
    use crate::nfa::PatternBuilder;
    use caesar_events::{PartitionId, Value};
    use proptest::test_runner::TestRng;

    /// A member whose `SEQ(A, B)` prefix a group builds — fed as the
    /// combined plan feeds it: its own chain first, then the boundary
    /// crossing, then the group's advance — emits exactly what the
    /// unshared pattern emits, in the same order, with the same
    /// `matches` and `negation_rejections`; the partials the unshared
    /// pattern creates are the member's plus the group's. Leading,
    /// between and trailing negations, watermark advances included.
    #[test]
    fn member_through_a_group_matches_the_unshared_pattern() {
        let reg = registry();
        let [a, b, c, p] = ["A", "B", "C", "P"].map(|ty| reg.lookup(ty).unwrap());
        let seq = || {
            PatternBuilder::new(reg.lookup("M").unwrap())
                .then(a)
                .then(b)
                .then(c)
        };
        let templates = [
            seq().not_before(p, vec![]),
            seq().not_between(1, p, vec![]),
            seq().not_after(p, vec![]),
        ];
        for template in templates {
            let template = template.within(6).offsets(vec![0, 1, 2]).build();
            let (mut emitted, mut rejected) = (0, 0);
            for seed in 0..100 {
                let mut plain = template.clone();
                let mut member = template.clone();
                member.set_shared_prefix_len(2);
                let members = (0..2).map(|plan| SharedMember {
                    plan,
                    pattern_pos: 0,
                });
                let mut group =
                    SharedGroup::new(template.steps()[..2].to_vec(), 6, false, members.collect());
                let rng = &mut TestRng::from_seed(seed);
                let (mut out_plain, mut out_shared) = (Vec::new(), Vec::new());
                let mut t = 0;
                for _ in 0..80 {
                    t += rng.below(3);
                    let ty = [a, b, c, p][rng.below(4) as usize];
                    let attrs = if ty == p {
                        vec![Value::Int(0), Value::Int(0)]
                    } else {
                        vec![Value::Int(0)]
                    };
                    let e = Event::simple(ty, t, PartitionId(0), attrs);
                    plain.process(&e, &mut out_plain);
                    if ty == p {
                        member.process(&e, &mut out_shared);
                    }
                    if ty == c {
                        member.cross_boundary(&group, &e, &mut out_shared);
                    }
                    if ty == a || ty == b {
                        group.advance(&e);
                    }
                    if rng.below(10) == 0 {
                        plain.advance_time(t, &mut out_plain);
                        member.advance_time(t, &mut out_shared);
                        group.advance_time(t);
                    }
                }
                plain.advance_time(Time::MAX, &mut out_plain);
                member.advance_time(Time::MAX, &mut out_shared);
                assert_eq!(out_plain, out_shared, "seed {seed}");
                let (s, m, g) = (plain.stats, member.stats, group.stats);
                assert_eq!(s.matches, m.matches, "seed {seed}");
                assert_eq!(s.negation_rejections, m.negation_rejections);
                assert_eq!(s.partials_created, m.partials_created + g.partials_created);
                (emitted, rejected) = (emitted + s.matches, rejected + s.negation_rejections);
            }
            assert!(
                emitted > 0 && rejected > 0,
                "{emitted} emitted, {rejected} rejected"
            );
        }
    }
}
