//! Plan search: context-aware greedy vs. context-independent exhaustive
//! (the subject of Figure 11(a)).
//!
//! The exhaustive search is a Selinger-style dynamic program over
//! operator subsets — Θ(2ⁿ·n) time and Θ(2ⁿ) space, honestly exponential
//! in the number of operators. The greedy search orders operators by the
//! classic rank `(1 − selectivity) / cost` in O(n log n); for independent
//! commuting operators (the paper's filter/projection reordering space)
//! rank ordering is known to be optimal, so greedy matches the exhaustive
//! cost while being exponentially faster to *find* — exactly the gap
//! Figure 11(a) plots.

/// A reorderable operator: per-input-event cost and selectivity.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperatorSpec {
    /// CPU cost per input event.
    pub cost: f64,
    /// Fraction of events passed through.
    pub selectivity: f64,
}

/// Result of a plan search.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchResult {
    /// Operator evaluation order (indices into the input).
    pub order: Vec<usize>,
    /// Estimated cost of the chosen order.
    pub cost: f64,
    /// Number of partial plans the search considered.
    pub plans_considered: u64,
}

/// Evaluates the cost of executing the operators in the given order.
#[must_use]
pub fn order_cost(ops: &[OperatorSpec], order: &[usize], input_rate: f64) -> f64 {
    let mut rate = input_rate;
    let mut cost = 0.0;
    for &i in order {
        cost += rate * ops[i].cost;
        rate *= ops[i].selectivity;
    }
    cost
}

/// Exhaustive (context-independent) search: dynamic program over all
/// 2ⁿ operator subsets.
///
/// # Panics
/// Panics for more than 26 operators (the table would exceed memory).
#[must_use]
#[allow(clippy::needless_range_loop)] // bitmask indexing is the clearest form here
pub fn exhaustive_search(ops: &[OperatorSpec], input_rate: f64) -> SearchResult {
    let n = ops.len();
    assert!(n <= 26, "exhaustive search is capped at 26 operators");
    if n == 0 {
        return SearchResult {
            order: vec![],
            cost: 0.0,
            plans_considered: 0,
        };
    }
    let size = 1usize << n;
    // dp[mask]: cheapest cost of having executed exactly `mask`;
    // parent[mask]: last operator of the best order.
    let mut dp = vec![f64::INFINITY; size];
    let mut parent = vec![u8::MAX; size];
    // Rate after a mask is order-independent: input · ∏ selectivities.
    dp[0] = 0.0;
    let mut considered = 0u64;
    for mask in 0..size {
        if dp[mask].is_infinite() {
            continue;
        }
        // Rate entering the next operator.
        let mut rate = input_rate;
        for i in 0..n {
            if mask & (1 << i) != 0 {
                rate *= ops[i].selectivity;
            }
        }
        for i in 0..n {
            if mask & (1 << i) != 0 {
                continue;
            }
            considered += 1;
            let next = mask | (1 << i);
            let cost = dp[mask] + rate * ops[i].cost;
            if cost < dp[next] {
                dp[next] = cost;
                parent[next] = i as u8;
            }
        }
    }
    // Reconstruct the order.
    let mut order = Vec::with_capacity(n);
    let mut mask = size - 1;
    while mask != 0 {
        let last = parent[mask] as usize;
        order.push(last);
        mask &= !(1 << last);
    }
    order.reverse();
    SearchResult {
        cost: dp[size - 1],
        order,
        plans_considered: considered,
    }
}

/// Greedy (context-aware) search: rank ordering by
/// `(1 − selectivity) / cost`, descending.
#[must_use]
pub fn greedy_search(ops: &[OperatorSpec], input_rate: f64) -> SearchResult {
    let mut order: Vec<usize> = (0..ops.len()).collect();
    order.sort_by(|&a, &b| {
        let rank = |o: &OperatorSpec| (1.0 - o.selectivity) / o.cost.max(1e-12);
        rank(&ops[b])
            .partial_cmp(&rank(&ops[a]))
            .expect("finite ranks")
    });
    let cost = order_cost(ops, &order, input_rate);
    SearchResult {
        plans_considered: ops.len() as u64,
        order,
        cost,
    }
}

/// Deterministic synthetic operator workload for the Figure 11(a)
/// experiment: mixed selectivities and costs seeded by `seed`.
#[must_use]
pub fn synthetic_operators(n: usize, seed: u64) -> Vec<OperatorSpec> {
    // Small linear congruential generator: the bench must not depend on
    // rand in this crate.
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).max(1);
    let mut next = || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    (0..n)
        .map(|_| OperatorSpec {
            cost: 0.2 + next() * 2.0,
            selectivity: 0.05 + next() * 0.9,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn specs(pairs: &[(f64, f64)]) -> Vec<OperatorSpec> {
        pairs
            .iter()
            .map(|&(cost, selectivity)| OperatorSpec { cost, selectivity })
            .collect()
    }

    #[test]
    fn exhaustive_finds_optimal_for_small_cases() {
        // Expensive unselective op must go last.
        let ops = specs(&[(10.0, 0.9), (1.0, 0.1)]);
        let result = exhaustive_search(&ops, 100.0);
        assert_eq!(result.order, vec![1, 0]);
        // cost = 100·1 + 10·10 = 200 vs 100·10 + 90·1 = 1090.
        assert!((result.cost - 200.0).abs() < 1e-9);
    }

    #[test]
    fn greedy_matches_exhaustive_for_independent_operators() {
        for seed in 0..20 {
            let ops = synthetic_operators(8, seed);
            let ex = exhaustive_search(&ops, 50.0);
            let gr = greedy_search(&ops, 50.0);
            assert!(
                (ex.cost - gr.cost).abs() < 1e-6 * ex.cost.max(1.0),
                "seed {seed}: greedy {:.6} vs exhaustive {:.6}",
                gr.cost,
                ex.cost
            );
        }
    }

    #[test]
    fn exhaustive_considers_exponentially_many_plans() {
        let ops = synthetic_operators(10, 1);
        let result = exhaustive_search(&ops, 1.0);
        // Σ over masks of free operators = n · 2^(n-1).
        assert_eq!(result.plans_considered, 10 * (1 << 9));
        let greedy = greedy_search(&ops, 1.0);
        assert_eq!(greedy.plans_considered, 10);
    }

    #[test]
    fn order_cost_is_consistent_with_search() {
        let ops = synthetic_operators(6, 7);
        let result = exhaustive_search(&ops, 10.0);
        let recomputed = order_cost(&ops, &result.order, 10.0);
        assert!((result.cost - recomputed).abs() < 1e-9);
    }

    #[test]
    fn orders_are_permutations() {
        let ops = synthetic_operators(7, 3);
        for result in [exhaustive_search(&ops, 1.0), greedy_search(&ops, 1.0)] {
            let mut sorted = result.order.clone();
            sorted.sort_unstable();
            assert_eq!(sorted, (0..7).collect::<Vec<_>>());
        }
    }

    #[test]
    fn empty_input() {
        let result = exhaustive_search(&[], 1.0);
        assert!(result.order.is_empty());
        assert_eq!(result.cost, 0.0);
    }

    #[test]
    fn synthetic_operators_are_deterministic_and_bounded() {
        let a = synthetic_operators(16, 42);
        let b = synthetic_operators(16, 42);
        assert_eq!(a, b);
        for op in &a {
            assert!(op.cost > 0.0 && op.cost <= 2.2);
            assert!(op.selectivity > 0.0 && op.selectivity < 1.0);
        }
    }

    #[test]
    #[should_panic(expected = "capped at 26")]
    fn exhaustive_refuses_oversized_input() {
        let ops = synthetic_operators(27, 1);
        let _ = exhaustive_search(&ops, 1.0);
    }
}
