//! Intra-group multi-query sharing (§5.3) and search-space accounting.
//!
//! "We observe the opportunity that substantial computational savings can
//! be achieved by executing only one instance of each context deriving
//! query for each context" — and, within a grouped context window,
//! structurally identical event queries execute once with their results
//! fanned out to every subscriber.
//!
//! The search-space mathematics of §5.3 (Bell numbers as sums of Stirling
//! numbers of the second kind) is implemented exactly, and
//! [`search_space_reduction`] computes the factor by which dividing `n`
//! queries into `m` groups shrinks the grouping search space.

use caesar_algebra::{CombinedPlan, Op, QueryPlan};
use caesar_query::ast::{EventQuery, QueryId};
use caesar_query::queryset::CompiledQuery;
use std::collections::BTreeMap;

/// A set of structurally identical queries sharing one execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SharedWorkload {
    /// The query whose plan actually executes.
    pub representative: QueryId,
    /// All member queries (including the representative).
    pub members: Vec<QueryId>,
}

impl SharedWorkload {
    /// Number of plan executions saved by this sharing group.
    #[must_use]
    pub fn savings(&self) -> usize {
        self.members.len().saturating_sub(1)
    }
}

/// Structural identity key of a query: everything that affects its
/// results except its name and context membership.
///
/// Exception: a `SWITCH` deriving query keeps its context in the key —
/// `SWITCH CONTEXT c` compiles to `CI_c, CT_curr` (Table 1), so two
/// textually identical switches in different contexts terminate
/// *different* windows and must never share one execution.
fn structure_key(query: &EventQuery) -> String {
    let mut stripped = query.clone();
    stripped.name = None;
    let is_switch = matches!(
        stripped.action,
        Some(caesar_query::ast::ContextAction::Switch(_))
    );
    if !is_switch {
        stripped.contexts.clear();
    }
    // Debug formatting is stable for our AST and avoids a bespoke
    // canonical form; queries compare equal iff their structure matches.
    format!("{stripped:?}")
}

/// Finds sharing opportunities in a workload: queries with the same
/// *source* (instances of one model query compiled into several
/// contexts) or the same structure share one execution.
#[must_use]
pub fn find_sharing(queries: &[&CompiledQuery]) -> Vec<SharedWorkload> {
    let mut groups: BTreeMap<String, Vec<QueryId>> = BTreeMap::new();
    for cq in queries {
        // Source id folds multi-context instances; the structural key
        // folds coincidentally identical queries.
        let key = structure_key(&cq.query);
        groups.entry(key).or_default().push(cq.id);
    }
    let mut out: Vec<SharedWorkload> = groups
        .into_values()
        .map(|mut members| {
            members.sort_unstable();
            SharedWorkload {
                representative: members[0],
                members,
            }
        })
        .collect();
    out.sort_by_key(|s| s.representative);
    out
}

/// The plans of a translated program that execute once workload
/// sharing is applied: structurally identical queries keep a single
/// *representative* plan whose context window admits the union of all
/// member contexts (the grouped windows of Listing 1); the other
/// members are dropped and accounted as fan-out.
#[derive(Debug, Clone)]
pub struct ExecutingPlans {
    /// Context-deriving plans (flattened across contexts).
    pub deriving: Vec<QueryPlan>,
    /// Per-context combined plans of the processing queries, in the
    /// order of their contexts (contexts without one are skipped).
    pub processing: Vec<CombinedPlan>,
    /// Fan-out per representative query id (members sharing its
    /// execution, including itself).
    pub fanout: BTreeMap<QueryId, usize>,
    /// Router gates: per processing plan, the union of its members'
    /// context window bits, ascending. An empty gate is always open.
    pub gates: Vec<Vec<u8>>,
}

/// Applies `sharing` to the translated combined plans (pass an empty
/// slice to execute every query privately) and splits the deriving
/// plans from the processing ones.
#[must_use]
pub fn executing_plans(combined: Vec<CombinedPlan>, sharing: &[SharedWorkload]) -> ExecutingPlans {
    // Which queries are dropped in favour of a representative, and
    // which extra context bits each representative gains.
    let mut drop: BTreeMap<QueryId, QueryId> = BTreeMap::new();
    let mut fanout: BTreeMap<QueryId, usize> = BTreeMap::new();
    for group in sharing {
        if group.members.len() > 1 {
            fanout.insert(group.representative, group.members.len());
            for &m in &group.members {
                if m != group.representative {
                    drop.insert(m, group.representative);
                }
            }
        }
    }
    // Context bit of each dropped member, keyed by representative.
    let mut extra_bits: BTreeMap<QueryId, Vec<u8>> = BTreeMap::new();
    for c in &combined {
        for p in &c.plans {
            if let Some(&rep) = drop.get(&p.query_id) {
                extra_bits.entry(rep).or_default().push(p.context_bit);
            }
        }
    }

    let mut deriving = Vec::new();
    let mut processing = Vec::new();
    for c in combined {
        let mut kept_processing = Vec::new();
        for mut p in c.plans {
            if drop.contains_key(&p.query_id) {
                continue; // executed by its representative
            }
            if let Some(bits) = extra_bits.get(&p.query_id) {
                widen_context_window(&mut p, bits);
            }
            if p.is_deriving {
                deriving.push(p);
            } else {
                kept_processing.push(p);
            }
        }
        if !kept_processing.is_empty() {
            processing.push(CombinedPlan::new(c.context, c.context_bit, kept_processing));
        }
    }
    let gates = processing.iter().map(window_bits).collect();
    ExecutingPlans {
        deriving,
        processing,
        fanout,
        gates,
    }
}

/// The context bits of every member's context window, ascending.
fn window_bits(combined: &CombinedPlan) -> Vec<u8> {
    let windows = combined
        .plans
        .iter()
        .flat_map(|p| &p.ops)
        .filter_map(|op| match op {
            Op::ContextWindow(cw) => Some(cw),
            _ => None,
        });
    let mut bits: Vec<u8> = windows.flat_map(|cw| cw.bits()).collect();
    bits.sort_unstable();
    bits.dedup();
    bits
}

fn widen_context_window(plan: &mut QueryPlan, extra: &[u8]) {
    for op in &mut plan.ops {
        if let Op::ContextWindow(cw) = op {
            for &b in extra {
                if b != cw.context_bit && !cw.extra_bits.contains(&b) {
                    cw.extra_bits.push(b);
                }
            }
        }
    }
}

/// Total executions saved across all sharing groups.
#[must_use]
pub fn total_savings(sharing: &[SharedWorkload]) -> usize {
    sharing.iter().map(SharedWorkload::savings).sum()
}

/// Stirling number of the second kind `S(n, k)`: the number of ways to
/// partition `n` elements into `k` non-empty groups.
///
/// Computed by the recurrence `S(n,k) = k·S(n−1,k) + S(n−1,k−1)`;
/// saturates at `u128::MAX` (never reached for the n ≤ 26 used here).
#[must_use]
pub fn stirling2(n: u32, k: u32) -> u128 {
    if k == 0 {
        return u128::from(n == 0);
    }
    if k > n {
        return 0;
    }
    // dp[j] = S(i, j) as i grows.
    let mut dp = vec![0u128; (k + 1) as usize];
    dp[0] = 1; // S(0,0)
    for _ in 1..=n {
        for j in (1..=k as usize).rev() {
            dp[j] = (j as u128).saturating_mul(dp[j]).saturating_add(dp[j - 1]);
        }
        dp[0] = 0;
    }
    dp[k as usize]
}

/// Bell number `B(n) = Σ_k S(n, k)`: the number of distinct groupings of
/// `n` event queries — the multi-query-optimization search space of §5.3.
#[must_use]
pub fn bell_number(n: u32) -> u128 {
    (0..=n).map(|k| stirling2(n, k)).sum()
}

/// Search-space reduction of dividing `n` queries into `m` equal groups:
/// `B(n) / (m · B(n/m))` (each of the `m` groups of `n/m` queries is
/// optimized independently). Returned as an `f64` ratio since the
/// numerator overflows any integer type for realistic `n`.
#[must_use]
pub fn search_space_reduction(n: u32, m: u32) -> f64 {
    if m == 0 || n == 0 {
        return 1.0;
    }
    let per_group = (n / m).max(1);
    let full = bell_number(n) as f64;
    let grouped = (m as f64) * bell_number(per_group) as f64;
    full / grouped
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_query::ast::{DeriveClause, Expr, Pattern};

    fn cq(id: u32, source: u32, context: &str, event_type: &str) -> CompiledQuery {
        CompiledQuery {
            id: QueryId(id),
            query: EventQuery {
                name: Some(format!("q{id}")),
                action: None,
                derive: Some(DeriveClause {
                    event_type: event_type.to_string(),
                    args: vec![Expr::attr("x", "v")],
                }),
                pattern: Pattern::event("In", "x"),
                where_clause: None,
                within: None,
                contexts: vec![context.to_string()],
            },
            context: context.to_string(),
            source,
        }
    }

    #[test]
    fn identical_structure_shares() {
        let a = cq(0, 0, "c1", "Out");
        let b = cq(1, 0, "c2", "Out"); // same source, other context
        let c = cq(2, 1, "c1", "Other"); // different structure
        let sharing = find_sharing(&[&a, &b, &c]);
        assert_eq!(sharing.len(), 2);
        let shared = sharing.iter().find(|s| s.members.len() == 2).unwrap();
        assert_eq!(shared.representative, QueryId(0));
        assert_eq!(shared.members, vec![QueryId(0), QueryId(1)]);
        assert_eq!(total_savings(&sharing), 1);
    }

    #[test]
    fn name_and_context_do_not_break_sharing() {
        let mut a = cq(0, 0, "c1", "Out");
        let mut b = cq(1, 5, "c2", "Out");
        a.query.name = Some("alpha".into());
        b.query.name = Some("beta".into());
        let sharing = find_sharing(&[&a, &b]);
        assert_eq!(sharing.len(), 1, "names/contexts stripped from the key");
    }

    #[test]
    fn different_predicates_do_not_share() {
        let a = cq(0, 0, "c", "Out");
        let mut b = cq(1, 1, "c", "Out");
        b.query.where_clause = Some(Expr::bin(
            caesar_query::ast::BinOp::Gt,
            Expr::attr("x", "v"),
            Expr::int(10),
        ));
        let sharing = find_sharing(&[&a, &b]);
        assert_eq!(sharing.len(), 2);
        assert_eq!(total_savings(&sharing), 0);
    }

    #[test]
    fn stirling_known_values() {
        assert_eq!(stirling2(0, 0), 1);
        assert_eq!(stirling2(3, 2), 3);
        assert_eq!(stirling2(4, 2), 7);
        assert_eq!(stirling2(5, 3), 25);
        assert_eq!(stirling2(10, 5), 42_525);
        assert_eq!(stirling2(5, 0), 0);
        assert_eq!(stirling2(3, 5), 0);
    }

    #[test]
    fn bell_known_values() {
        // OEIS A000110.
        let expected: [u128; 11] = [1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975];
        for (n, want) in expected.iter().enumerate() {
            assert_eq!(bell_number(n as u32), *want, "B({n})");
        }
        assert_eq!(bell_number(24), 445_958_869_294_805_289);
    }

    #[test]
    fn grouping_reduces_search_space_dramatically() {
        // 24 queries in 6 groups of 4 vs. one global optimization.
        let reduction = search_space_reduction(24, 6);
        assert!(
            reduction > 1e15,
            "B(24)/(6·B(4)) should be astronomic, got {reduction}"
        );
        assert_eq!(search_space_reduction(0, 3), 1.0);
    }
}
