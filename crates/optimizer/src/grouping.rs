//! The context window grouping algorithm (§5.3, Listing 1, Figure 7).
//!
//! Overlapping user-defined context windows are split at their bounds
//! into finer-granularity slices; slices covering the same interval are
//! grouped into one non-overlapping window whose workload is the
//! de-duplicated union of the covering windows' workloads. "Since several
//! subsequent grouped context windows correspond to one original context
//! window, an event query within a grouped context window may need access
//! to its partial matches in the previous grouped context windows" — the
//! [`GroupedWindow::origins`] metadata drives that context-history logic
//! in the runtime.
//!
//! Window bounds are *compile-time order keys* (threshold values from the
//! subsumption analysis of [`crate::subsume`], or direct timeline
//! positions for data-driven experiment workloads); actual start/end
//! times remain unknown until runtime.

use caesar_algebra::nfa::{step_signature, PredicateId, PredicateTable};
use caesar_algebra::pattern::{SharedGroup, SharedMember};
use caesar_algebra::{CombinedPlan, Op};
use caesar_events::{Time, TypeId};
use caesar_query::ast::QueryId;
use std::collections::BTreeSet;
use std::fmt;

/// A user-defined context window with compile-time-ordered bounds.
#[derive(Debug, Clone, PartialEq)]
pub struct UserWindow {
    /// The context this window belongs to.
    pub context: String,
    /// Order key of the initiation bound.
    pub start: f64,
    /// Order key of the termination bound (`start <= end`).
    pub end: f64,
    /// The window's query workload.
    pub queries: Vec<QueryId>,
}

impl UserWindow {
    /// Creates a window.
    #[must_use]
    pub fn new(context: impl Into<String>, start: f64, end: f64, queries: Vec<QueryId>) -> Self {
        let w = Self {
            context: context.into(),
            start,
            end,
            queries,
        };
        assert!(w.start <= w.end, "window start after end");
        w
    }

    /// Returns `true` if the two windows share part of their interval.
    #[must_use]
    pub fn overlaps(&self, other: &UserWindow) -> bool {
        self.start < other.end && other.start < self.end
    }
}

/// A grouped (non-overlapping) context window produced by Listing 1.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupedWindow {
    /// Order key of the slice start.
    pub start: f64,
    /// Order key of the slice end.
    pub end: f64,
    /// De-duplicated union of the covering windows' workloads.
    pub queries: Vec<QueryId>,
    /// Contexts of the original windows covering this slice — the
    /// context-history metadata.
    pub origins: Vec<String>,
}

/// Output of the grouping algorithm.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GroupingResult {
    /// All grouped windows, sorted by start key. Windows that overlapped
    /// nothing pass through as single-origin groups ("context windows
    /// which do not overlap any other window remain unchanged").
    pub windows: Vec<GroupedWindow>,
    /// Number of original windows that were split/merged (excludes the
    /// untouched non-overlapping ones).
    pub split_count: usize,
}

impl GroupingResult {
    /// Grouped windows covering the given original context, in start
    /// order — the chain across which that context's partial matches are
    /// preserved.
    #[must_use]
    pub fn windows_of(&self, context: &str) -> Vec<&GroupedWindow> {
        self.windows
            .iter()
            .filter(|w| w.origins.iter().any(|o| o == context))
            .collect()
    }

    /// Synthesized deriving-query descriptions for the grouped windows
    /// (Figure 7 bottom): `(start key, end key)` per window, which the
    /// runtime turns into initiation/termination triggers.
    #[must_use]
    pub fn new_deriving_bounds(&self) -> Vec<(f64, f64)> {
        self.windows.iter().map(|w| (w.start, w.end)).collect()
    }
}

/// The context window grouping algorithm (Listing 1).
#[must_use]
pub fn group_windows(windows: Vec<UserWindow>) -> GroupingResult {
    let mut result = GroupingResult::default();

    // Line 4: extract windows that overlap no other window — unchanged.
    let mut overlapping_idx: Vec<usize> = Vec::new();
    for i in 0..windows.len() {
        let overlaps_any = (0..windows.len()).any(|j| i != j && windows[i].overlaps(&windows[j]));
        if overlaps_any {
            overlapping_idx.push(i);
        } else {
            result.windows.push(GroupedWindow {
                start: windows[i].start,
                end: windows[i].end,
                queries: dedup(windows[i].queries.clone()),
                origins: vec![windows[i].context.clone()],
            });
        }
    }

    // Lines 5-6: sort the overlapping windows by start; merge identical
    // windows into one by unioning their workloads.
    let mut overlapping: Vec<UserWindow> = overlapping_idx
        .into_iter()
        .map(|i| windows[i].clone())
        .collect();
    overlapping.sort_by(|a, b| {
        a.start
            .partial_cmp(&b.start)
            .expect("finite keys")
            .then(a.end.partial_cmp(&b.end).expect("finite keys"))
    });
    let mut merged: Vec<UserWindow> = Vec::new();
    for w in overlapping {
        match merged.last_mut() {
            Some(last) if last.start == w.start && last.end == w.end => {
                // Identical windows: keep one, merge workloads and
                // remember both origins via a combined context label.
                last.queries.extend(w.queries);
                if !last.context.split('+').any(|c| c == w.context) {
                    last.context = format!("{}+{}", last.context, w.context);
                }
            }
            _ => merged.push(w),
        }
    }
    result.split_count = merged.len();

    // Lines 8-19: sweep the bounds; a grouped window forms between each
    // pair of subsequent bounds, carrying the union of the workloads of
    // all windows active in that slice.
    let mut bounds: Vec<f64> = merged.iter().flat_map(|w| [w.start, w.end]).collect();
    bounds.sort_by(|a, b| a.partial_cmp(b).expect("finite keys"));
    bounds.dedup();

    let mut active: BTreeSet<usize> = BTreeSet::new();
    let mut previous: Option<f64> = None;
    for &next in &bounds {
        if let Some(prev) = previous {
            if !active.is_empty() {
                let mut queries: Vec<QueryId> = Vec::new();
                let mut origins: Vec<String> = Vec::new();
                for &i in &active {
                    queries.extend(merged[i].queries.iter().copied());
                    for part in merged[i].context.split('+') {
                        if !origins.iter().any(|o| o == part) {
                            origins.push(part.to_string());
                        }
                    }
                }
                // Lines 20-22: drop duplicate event queries.
                result.windows.push(GroupedWindow {
                    start: prev,
                    end: next,
                    queries: dedup(queries),
                    origins,
                });
            }
        }
        // Update the active set at this bound: ending windows leave,
        // starting windows enter.
        for (i, w) in merged.iter().enumerate() {
            if w.end == next {
                active.remove(&i);
            }
        }
        for (i, w) in merged.iter().enumerate() {
            if w.start == next {
                active.insert(i);
            }
        }
        previous = Some(next);
    }

    result
        .windows
        .sort_by(|a, b| a.start.partial_cmp(&b.start).expect("finite keys"));
    result
}

fn dedup(mut queries: Vec<QueryId>) -> Vec<QueryId> {
    queries.sort_unstable();
    queries.dedup();
    queries
}

/// One sequence pattern eligible for prefix sharing.
struct PrefixCandidate {
    plan: usize,
    pattern_pos: usize,
    gated: bool,
    within: Time,
    /// Interned per-step signatures (type + sorted predicate refs).
    sig: Vec<(TypeId, Vec<PredicateId>)>,
}

/// The eligibility rule that keeps a sequence pattern out of every
/// shared-prefix group (see [`prefix_sharing`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PrefixExclusion {
    /// A context window sits above the pattern: it resets the member's
    /// state on termination, which a group below it would not mirror.
    WindowAbovePattern,
    /// The window below the pattern was widened to other contexts by
    /// workload sharing (§5.3); a group gates on its own context alone.
    WidenedWindow,
    /// No other sequence under the same window starts with the same
    /// step (event type and pushed-down predicates).
    DifferingFirstStep,
    /// Sequences with the same first step exist, but none with the same
    /// `WITHIN` horizon (the span guard would prune differently).
    DifferingWithin,
    /// A prefix or boundary step's type is produced by a member plan:
    /// groups advance, and boundaries cross, on external events only.
    NonExternalPrefix,
}

impl fmt::Display for PrefixExclusion {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Self::WindowAbovePattern => "context window above the pattern",
            Self::WidenedWindow => "context window widened by workload sharing",
            Self::DifferingFirstStep => "no other sequence with the same first step",
            Self::DifferingWithin => "differing WITHIN",
            Self::NonExternalPrefix => "prefix or boundary type is derived by a member plan",
        })
    }
}

/// The prefix-sharing decision for one combined plan: the groups to
/// install, and why each remaining multi-step sequence runs privately.
#[derive(Debug, Clone)]
pub struct PrefixSharing {
    /// The groups every eligible bucket forms.
    pub groups: Vec<SharedGroup>,
    /// `(plan index, rule)` of the sequence patterns left private, in
    /// plan order.
    pub private: Vec<(usize, PrefixExclusion)>,
}

/// Extends §5 workload sharing from context windows to *pattern
/// prefixes*: sequence patterns of one combined plan whose leading
/// steps agree on event type and (interned) step predicates build those
/// prefix partials once, in a [`SharedGroup`], instead of once per
/// query.
///
/// Eligibility *is* the decision — every group found here is installed
/// whenever the engine shares at all. With type-indexed dispatch in the
/// combined plan a prefix event costs one group advance instead of one
/// chain run per member, and a tail event one boundary attempt, so a
/// group of two already does less work per event than two private
/// patterns on every shape measured (EXPERIMENTS.md, "Prefix sharing
/// by eligibility"); there is no cost inequality to evaluate.
///
/// Eligibility is deliberately conservative — sharing must be
/// output-invariant, byte for byte:
///
/// * Only non-pass-through patterns of arity ≥ 2. Negations never
///   constrain eligibility: they are checked at match completion
///   against member-local buffers that the member's own (unchanged)
///   processing keeps feeding.
/// * The pattern sits either at the very bottom of its chain (ungated —
///   it observes the raw input stream) or directly above a pushed-down
///   context window of the combined plan's own context with no extra
///   bits (gated — the group mirrors that admission check).
/// * All prefix step types, and each member's first step *above* the
///   prefix, are external inputs of the combined plan: the boundary
///   crossing runs on the external-event path only.
/// * Members agree on `within` (the span guard prunes identically) and
///   on the interned signature of every shared step.
///
/// The shared prefix length is the longest common signature prefix
/// across the bucket, capped one below the smallest member arity so
/// every member keeps at least its final step private.
#[must_use]
pub fn prefix_sharing(combined: &CombinedPlan) -> PrefixSharing {
    let mut table = PredicateTable::new();
    let mut cands: Vec<PrefixCandidate> = Vec::new();
    let mut private: Vec<(usize, PrefixExclusion)> = Vec::new();
    for (pi, plan) in combined.plans.iter().enumerate() {
        let Some(pos) = plan.pattern_position() else {
            continue;
        };
        let Op::Pattern(p) = &plan.ops[pos] else {
            continue;
        };
        if p.is_passthrough() || p.arity() < 2 {
            continue;
        }
        let gated = match (pos, plan.ops.first()) {
            // Ungated sharing requires a window-free chain: a context
            // window *above* the pattern still resets the member's state
            // on termination, which a shared group would not mirror.
            (0, _) if plan.context_window_position().is_none() => false,
            (1, Some(Op::ContextWindow(cw))) if cw.context_bit == combined.context_bit => {
                if !cw.extra_bits.is_empty() {
                    private.push((pi, PrefixExclusion::WidenedWindow));
                    continue;
                }
                true
            }
            _ => {
                private.push((pi, PrefixExclusion::WindowAbovePattern));
                continue;
            }
        };
        let sig = p
            .steps()
            .iter()
            .map(|s| step_signature(s, &mut table))
            .collect();
        cands.push(PrefixCandidate {
            plan: pi,
            pattern_pos: pos,
            gated,
            within: p.within(),
            sig,
        });
    }

    // Bucket by (gated, within, step-0 signature); a pattern lands in
    // exactly one bucket, so members join at most one group.
    let mut groups: Vec<SharedGroup> = Vec::new();
    let mut used = vec![false; cands.len()];
    for i in 0..cands.len() {
        if used[i] {
            continue;
        }
        let bucket: Vec<usize> = (i..cands.len())
            .filter(|&j| {
                !used[j]
                    && cands[j].gated == cands[i].gated
                    && cands[j].within == cands[i].within
                    && cands[j].sig[0] == cands[i].sig[0]
            })
            .collect();
        if bucket.len() < 2 {
            continue;
        }
        // Longest common signature prefix, capped one below the
        // smallest arity (≥ 1: the bucket agrees on step 0).
        let cap = bucket.iter().map(|&j| cands[j].sig.len()).min().unwrap() - 1;
        let mut l = cap;
        for k in 0..cap {
            if !bucket.iter().all(|&j| cands[j].sig[k] == cands[i].sig[k]) {
                l = k;
                break;
            }
        }
        // External-input constraint: the group advances, and boundaries
        // cross, on the external-event path only.
        let members: Vec<usize> = bucket
            .iter()
            .copied()
            .filter(|&j| {
                let plan = &combined.plans[cands[j].plan];
                let Op::Pattern(p) = &plan.ops[cands[j].pattern_pos] else {
                    return false;
                };
                p.steps()[..=l]
                    .iter()
                    .all(|s| combined.consumes_external(s.type_id))
            })
            .collect();
        if members.len() < 2 {
            continue;
        }
        for &j in &members {
            used[j] = true;
        }
        let first = &combined.plans[cands[members[0]].plan];
        let Op::Pattern(p) = &first.ops[cands[members[0]].pattern_pos] else {
            unreachable!("candidate points at a pattern");
        };
        groups.push(SharedGroup::new(
            p.steps()[..l].to_vec(),
            cands[i].within,
            cands[i].gated,
            members
                .iter()
                .map(|&j| SharedMember {
                    plan: cands[j].plan,
                    pattern_pos: cands[j].pattern_pos,
                })
                .collect(),
        ));
    }

    // Name the rule behind every candidate left over. A peer agreeing
    // on window, first step and `WITHIN` always shares at least that
    // step, so only the external-input rule can have kept the two apart.
    for (i, c) in cands.iter().enumerate().filter(|(i, _)| !used[*i]) {
        let mut peers = cands
            .iter()
            .enumerate()
            .filter(|(j, o)| *j != i && o.gated == c.gated && o.sig[0] == c.sig[0])
            .peekable();
        let why = if peers.peek().is_none() {
            PrefixExclusion::DifferingFirstStep
        } else if peers.any(|(_, o)| o.within == c.within) {
            PrefixExclusion::NonExternalPrefix
        } else {
            PrefixExclusion::DifferingWithin
        };
        private.push((c.plan, why));
    }
    private.sort_unstable_by_key(|(plan, _)| *plan);
    PrefixSharing { groups, private }
}

/// Installs every group [`prefix_sharing`] finds on `combined` and
/// returns the sequences left private, each with the rule that
/// excluded it.
pub fn install_prefix_sharing(combined: &mut CombinedPlan) -> Vec<(usize, PrefixExclusion)> {
    let PrefixSharing { groups, private } = prefix_sharing(combined);
    if !groups.is_empty() {
        combined.install_shared_prefixes(groups);
    }
    private
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ids: &[u32]) -> Vec<QueryId> {
        ids.iter().map(|i| QueryId(*i)).collect()
    }

    /// The Figure 7 scenario: w_c1 = \[10, 30\] with {Q1, Q3},
    /// w_c2 = \[20, 40\] with {Q1, Q2}.
    fn figure7() -> Vec<UserWindow> {
        vec![
            UserWindow::new("c1", 10.0, 30.0, q(&[1, 3])),
            UserWindow::new("c2", 20.0, 40.0, q(&[1, 2])),
        ]
    }

    #[test]
    fn figure7_grouping_produces_three_windows() {
        let result = group_windows(figure7());
        assert_eq!(result.windows.len(), 3);
        assert_eq!(result.split_count, 2);

        // w_c11 = [10, 20] with Q1, Q3.
        let w11 = &result.windows[0];
        assert_eq!((w11.start, w11.end), (10.0, 20.0));
        assert_eq!(w11.queries, q(&[1, 3]));
        assert_eq!(w11.origins, vec!["c1"]);

        // w = [20, 30] with Q1, Q2, Q3 (duplicate Q1 dropped).
        let w = &result.windows[1];
        assert_eq!((w.start, w.end), (20.0, 30.0));
        assert_eq!(w.queries, q(&[1, 2, 3]));
        assert_eq!(w.origins, vec!["c1", "c2"]);

        // w_c22 = [30, 40] with Q1, Q2.
        let w22 = &result.windows[2];
        assert_eq!((w22.start, w22.end), (30.0, 40.0));
        assert_eq!(w22.queries, q(&[1, 2]));
        assert_eq!(w22.origins, vec!["c2"]);
    }

    #[test]
    fn figure7_query1_spans_all_three_grouped_windows() {
        let result = group_windows(figure7());
        let covering: Vec<_> = result
            .windows
            .iter()
            .filter(|w| w.queries.contains(&QueryId(1)))
            .collect();
        assert_eq!(
            covering.len(),
            3,
            "Q1 executes during all 3 grouped windows"
        );
    }

    #[test]
    fn non_overlapping_windows_pass_through_unchanged() {
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 5.0, q(&[1])),
            UserWindow::new("b", 10.0, 15.0, q(&[2])),
        ]);
        assert_eq!(result.windows.len(), 2);
        assert_eq!(result.split_count, 0);
        assert_eq!(result.windows[0].origins, vec!["a"]);
        assert_eq!(result.windows[1].origins, vec!["b"]);
    }

    #[test]
    fn touching_windows_do_not_group() {
        // [0,10] and [10,20] share only the bound — not overlapping.
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 10.0, q(&[1])),
            UserWindow::new("b", 10.0, 20.0, q(&[2])),
        ]);
        assert_eq!(result.windows.len(), 2);
        assert_eq!(result.split_count, 0);
    }

    #[test]
    fn identical_windows_merge_workloads() {
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 10.0, q(&[1, 2])),
            UserWindow::new("b", 0.0, 10.0, q(&[2, 3])),
        ]);
        // Identical windows overlap → merged into one slice [0,10].
        assert_eq!(result.windows.len(), 1);
        let w = &result.windows[0];
        assert_eq!(w.queries, q(&[1, 2, 3]), "duplicate Q2 dropped");
        assert_eq!(w.origins, vec!["a", "b"]);
    }

    #[test]
    fn containment_splits_outer_into_three() {
        // outer [0,30] ⊃ inner [10,20].
        let result = group_windows(vec![
            UserWindow::new("outer", 0.0, 30.0, q(&[1])),
            UserWindow::new("inner", 10.0, 20.0, q(&[2])),
        ]);
        assert_eq!(result.windows.len(), 3);
        assert_eq!(result.windows[0].queries, q(&[1]));
        assert_eq!(result.windows[1].queries, q(&[1, 2]));
        assert_eq!(result.windows[2].queries, q(&[1]));
        assert_eq!(result.windows[1].origins, vec!["outer", "inner"]);
    }

    #[test]
    fn chain_of_three_overlapping_windows() {
        // a=[0,20], b=[10,30], c=[25,40]: bounds 0,10,20,25,30,40.
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 20.0, q(&[1])),
            UserWindow::new("b", 10.0, 30.0, q(&[2])),
            UserWindow::new("c", 25.0, 40.0, q(&[3])),
        ]);
        let slices: Vec<(f64, f64)> = result.windows.iter().map(|w| (w.start, w.end)).collect();
        assert_eq!(
            slices,
            vec![
                (0.0, 10.0),
                (10.0, 20.0),
                (20.0, 25.0),
                (25.0, 30.0),
                (30.0, 40.0)
            ]
        );
        assert_eq!(result.windows[1].queries, q(&[1, 2]));
        assert_eq!(result.windows[2].queries, q(&[2]));
        assert_eq!(result.windows[3].queries, q(&[2, 3]));
    }

    #[test]
    fn grouped_windows_never_overlap() {
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 50.0, q(&[1])),
            UserWindow::new("b", 10.0, 30.0, q(&[2])),
            UserWindow::new("c", 20.0, 60.0, q(&[3])),
            UserWindow::new("d", 100.0, 110.0, q(&[4])),
        ]);
        let mut sorted = result.windows;
        sorted.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for pair in sorted.windows(2) {
            assert!(pair[0].end <= pair[1].start, "slices {pair:?} overlap");
        }
    }

    #[test]
    fn windows_of_returns_origin_chain() {
        let result = group_windows(figure7());
        let c1_chain = result.windows_of("c1");
        assert_eq!(c1_chain.len(), 2, "c1 covered by w11 and w");
        assert_eq!(c1_chain[0].start, 10.0);
        assert_eq!(c1_chain[1].start, 20.0);
    }

    #[test]
    fn new_deriving_bounds_match_figure7_bottom() {
        let result = group_windows(figure7());
        assert_eq!(
            result.new_deriving_bounds(),
            vec![(10.0, 20.0), (20.0, 30.0), (30.0, 40.0)]
        );
    }

    #[test]
    fn empty_input_is_fine() {
        let result = group_windows(vec![]);
        assert!(result.windows.is_empty());
        assert_eq!(result.split_count, 0);
    }

    fn prefix_combined(src: &str) -> CombinedPlan {
        use caesar_algebra::translate::{translate_query_set, TranslateOptions};
        use caesar_events::{AttrType, Schema, SchemaRegistry};
        let model = caesar_query::parser::parse_model(src).unwrap();
        let qs = caesar_query::queryset::QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        for name in ["A", "B", "C", "D", "E"] {
            reg.register(Schema::new(name, &[("v", AttrType::Int)]))
                .unwrap();
        }
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let program = crate::optimizer::Optimizer::default().optimize(t, &reg);
        let mut combined = program.translation.combined;
        assert_eq!(combined.len(), 1);
        combined.pop().unwrap()
    }

    #[test]
    fn prefix_sharing_finds_common_two_step_prefix() {
        // Out1 and Out2 agree on SEQ(A, B, _); predicates sit on the
        // final variable, which predicate push-down leaves alone, so the
        // interned prefix signatures stay equal. Solo starts with E and
        // shares nothing.
        let combined = prefix_combined(
            r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Out1(a.v) PATTERN SEQ(A a, B b, C c) WHERE c.v > 1
                DERIVE Out2(a.v) PATTERN SEQ(A a, B b, D d) WHERE d.v > 2
                DERIVE Solo(e.v) PATTERN SEQ(E e, A a2)
            }
        "#,
        );
        let PrefixSharing { groups, private } = prefix_sharing(&combined);
        assert_eq!(groups.len(), 1, "one group for the A-B prefix");
        let g = &groups[0];
        assert_eq!(g.prefix_len(), 2);
        let members: Vec<usize> = g.members().iter().map(|m| m.plan).collect();
        assert_eq!(members, vec![0, 1], "Solo (plan 2) is not a member");
        for m in g.members() {
            let Op::Pattern(p) = &combined.plans[m.plan].ops[m.pattern_pos] else {
                panic!("member does not point at a pattern");
            };
            assert_eq!(p.arity(), 3);
        }
        assert_eq!(private, vec![(2, PrefixExclusion::DifferingFirstStep)]);
    }

    #[test]
    fn differing_within_horizons_do_not_share() {
        let combined = prefix_combined(
            r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Out1(a.v) PATTERN SEQ(A a, B b) WITHIN 10
                DERIVE Out2(a.v) PATTERN SEQ(A a, C c) WITHIN 20
            }
        "#,
        );
        let decision = prefix_sharing(&combined);
        assert!(
            decision.groups.is_empty(),
            "span pruning differs, so the partials are not interchangeable"
        );
        let why = PrefixExclusion::DifferingWithin;
        assert_eq!(decision.private, vec![(0, why), (1, why)]);
    }

    #[test]
    fn pushed_prefix_predicate_blocks_sharing() {
        // `a.v > 5` is pushed into Out1's first step; Out2's first step
        // carries no predicate, so the interned signatures differ.
        let combined = prefix_combined(
            r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Out1(a.v) PATTERN SEQ(A a, B b, C c) WHERE a.v > 5
                DERIVE Out2(a.v) PATTERN SEQ(A a, B b, D d)
            }
        "#,
        );
        let decision = prefix_sharing(&combined);
        assert!(decision.groups.is_empty());
        let why = PrefixExclusion::DifferingFirstStep;
        assert_eq!(decision.private, vec![(0, why), (1, why)]);
    }

    #[test]
    fn derived_prefix_types_and_windows_above_the_pattern_stay_private() {
        // `Mid` is produced by a member plan: the group would have to
        // advance on the cascade, which it never sees.
        let src = r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Mid(c.v) PATTERN C c
                DERIVE Out1(a.v) PATTERN SEQ(A a, Mid m, D d)
                DERIVE Out2(a.v) PATTERN SEQ(A a, Mid m, E e)
            }
        "#;
        let decision = prefix_sharing(&prefix_combined(src));
        assert!(decision.groups.is_empty());
        let why = PrefixExclusion::NonExternalPrefix;
        assert_eq!(decision.private, vec![(1, why), (2, why)]);

        // Unoptimized chains keep the context window above the pattern.
        let mut combined = prefix_combined(src);
        for plan in &mut combined.plans {
            let window = plan.ops.remove(0);
            assert!(window.is_context_window());
            plan.ops.push(window);
        }
        let decision = prefix_sharing(&combined);
        assert!(decision.groups.is_empty());
        let why = PrefixExclusion::WindowAbovePattern;
        assert_eq!(decision.private, vec![(1, why), (2, why)]);
    }

    #[test]
    fn identical_pushed_prefix_predicates_still_share() {
        // Both queries push `a.v > 5` into step 0: the predicates intern
        // to the same id, so the prefix remains shared.
        let combined = prefix_combined(
            r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Out1(a.v) PATTERN SEQ(A a, B b, C c) WHERE a.v > 5
                DERIVE Out2(a.v) PATTERN SEQ(A a, B b, D d) WHERE a.v > 5
            }
        "#,
        );
        let groups = prefix_sharing(&combined).groups;
        assert_eq!(groups.len(), 1);
        assert_eq!(groups[0].prefix_len(), 2);
    }

    #[test]
    fn fully_encompassing_merge_is_avoided() {
        // The "naive solution" of §5.3 would merge everything into one
        // huge window; grouping instead produces fine slices whose query
        // sets differ.
        let result = group_windows(vec![
            UserWindow::new("a", 0.0, 100.0, q(&[1])),
            UserWindow::new("b", 90.0, 200.0, q(&[2])),
        ]);
        assert!(result.windows.len() > 1);
        let sets: BTreeSet<Vec<QueryId>> =
            result.windows.iter().map(|w| w.queries.clone()).collect();
        assert!(sets.len() > 1, "slices carry different workloads");
    }
}
