//! Predicate subsumption over context-deriving queries (Definition 2,
//! Figure 7 top).
//!
//! "Even though the exact start time of context windows is not known at
//! compile time, the order of their beginning can be determined for
//! overlapping context windows" — when the deriving predicates are
//! threshold comparisons over a shared monotone signal (`initiate c1 if
//! X > 10`, `initiate c2 if X > 20`), the window of `c1` is guaranteed to
//! start no later than the window of `c2`, and `c1` terminating at
//! `X < 30` before `c2`'s `X < 40` orders the ends likewise. "CAESAR
//! employs established approaches for predicate subsumption \[14\]."

use caesar_events::Value;
use caesar_query::ast::{BinOp, ContextAction, EventQuery, Expr, QueryId};
use std::collections::BTreeMap;

/// A one-sided threshold constraint `attr OP value` extracted from a
/// deriving query's `WHERE` clause.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdBound {
    /// Comparison direction: `true` for `>` / `>=` (lower bound).
    pub is_lower: bool,
    /// The threshold value.
    pub value: f64,
    /// Whether equality is included (`>=` / `<=`).
    pub inclusive: bool,
}

/// Compile-time window description of one context, extracted from the
/// deriving queries: the threshold that initiates it and the threshold
/// that terminates it, both over the same signal attribute.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowSpec {
    /// The context name.
    pub context: String,
    /// Signal attribute both thresholds constrain.
    pub signal: String,
    /// Initiation threshold (e.g. `X > 10`).
    pub start: ThresholdBound,
    /// Termination threshold (e.g. `X < 30`).
    pub end: ThresholdBound,
    /// Queries in the context's workload.
    pub queries: Vec<QueryId>,
}

/// Relationship between two context windows (Definition 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowRelation {
    /// For each window of the first type there is an overlapping window
    /// of the second type.
    Overlaps,
    /// The first window is contained in the second.
    ContainedIn,
    /// The windows never share a time point (on a monotone signal).
    Disjoint,
    /// The predicates do not determine the relation.
    Unknown,
}

/// Extracts `attr OP const` from a conjunct, normalizing the constant to
/// the right-hand side.
fn extract_threshold(expr: &Expr) -> Option<(String, ThresholdBound)> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    let (attr, value, op) = match (lhs.as_ref(), rhs.as_ref()) {
        (Expr::Attr { attr, .. }, Expr::Const(c)) => (attr.clone(), const_f64(c)?, *op),
        (Expr::Const(c), Expr::Attr { attr, .. }) => {
            // Flip: 10 < X ≡ X > 10.
            let flipped = match op {
                BinOp::Lt => BinOp::Gt,
                BinOp::Le => BinOp::Ge,
                BinOp::Gt => BinOp::Lt,
                BinOp::Ge => BinOp::Le,
                other => *other,
            };
            (attr.clone(), const_f64(c)?, flipped)
        }
        _ => return None,
    };
    let bound = match op {
        BinOp::Gt => ThresholdBound {
            is_lower: true,
            value,
            inclusive: false,
        },
        BinOp::Ge => ThresholdBound {
            is_lower: true,
            value,
            inclusive: true,
        },
        BinOp::Lt => ThresholdBound {
            is_lower: false,
            value,
            inclusive: false,
        },
        BinOp::Le => ThresholdBound {
            is_lower: false,
            value,
            inclusive: true,
        },
        _ => return None,
    };
    Some((attr, bound))
}

fn const_f64(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Float(f) => Some(*f),
        _ => None,
    }
}

/// Derives compile-time window specs from a set of deriving queries.
///
/// For each context `c`, the initiation threshold comes from queries
/// performing `INITIATE c` / `SWITCH c`, the termination threshold from
/// `TERMINATE c` queries (or from a `SWITCH` away in `c`'s own workload).
/// Contexts whose bounds cannot be extracted as single thresholds over a
/// common signal are omitted (relation [`WindowRelation::Unknown`]).
#[must_use]
pub fn derive_window_specs(
    deriving: &[(QueryId, &EventQuery)],
    workloads: &BTreeMap<String, Vec<QueryId>>,
) -> Vec<WindowSpec> {
    #[derive(Default)]
    struct Partial {
        start: Option<(String, ThresholdBound)>,
        end: Option<(String, ThresholdBound)>,
    }
    let mut partials: BTreeMap<String, Partial> = BTreeMap::new();
    for (_, query) in deriving {
        let Some(action) = &query.action else {
            continue;
        };
        let Some(where_clause) = &query.where_clause else {
            continue;
        };
        let conjuncts = where_clause.conjuncts();
        if conjuncts.len() != 1 {
            continue;
        }
        let Some(threshold) = extract_threshold(conjuncts[0]) else {
            continue;
        };
        match action {
            ContextAction::Initiate(c) => {
                partials.entry(c.clone()).or_default().start = Some(threshold);
            }
            ContextAction::Terminate(c) => {
                partials.entry(c.clone()).or_default().end = Some(threshold);
            }
            ContextAction::Switch(c) => {
                // Switch initiates the target and terminates the source.
                partials.entry(c.clone()).or_default().start = Some(threshold.clone());
                if let Some(source) = query.contexts.first() {
                    partials.entry(source.clone()).or_default().end = Some(threshold);
                }
            }
        }
    }
    partials
        .into_iter()
        .filter_map(|(context, p)| {
            let (start_attr, start) = p.start?;
            let (end_attr, end) = p.end?;
            if start_attr != end_attr {
                return None;
            }
            Some(WindowSpec {
                queries: workloads.get(&context).cloned().unwrap_or_default(),
                context,
                signal: start_attr,
                start,
                end,
            })
        })
        .collect()
}

/// Infers the relation between two window specs over the same monotone
/// signal (Figure 7: `c1 = (X>10, X<30)`, `c2 = (X>20, X<40)` overlap).
///
/// Following Figure 7, the window of a spec is read as the interval
/// `[start threshold, end threshold]` on the signal axis: `c1 = \[10,30\]`
/// starts no later than `c2 = \[20,40\]` and ends no later either, so the
/// two windows are *guaranteed to overlap* but neither contains the
/// other. Hysteresis-style specs (end threshold below the start
/// threshold, e.g. `initiate if load > 80, terminate if load < 20`) have
/// no interval reading and yield [`WindowRelation::Unknown`].
#[must_use]
pub fn window_relation(a: &WindowSpec, b: &WindowSpec) -> WindowRelation {
    if a.signal != b.signal {
        return WindowRelation::Unknown;
    }
    // Interval reading requires lower-bound starts, upper-bound ends and
    // non-inverted thresholds.
    let interval = |s: &WindowSpec| -> Option<(f64, f64)> {
        (s.start.is_lower && !s.end.is_lower && s.start.value <= s.end.value)
            .then_some((s.start.value, s.end.value))
    };
    let (Some((a_lo, a_hi)), Some((b_lo, b_hi))) = (interval(a), interval(b)) else {
        return WindowRelation::Unknown;
    };
    if a_hi < b_lo || b_hi < a_lo {
        return WindowRelation::Disjoint;
    }
    if b_lo <= a_lo && a_hi <= b_hi && (b_lo < a_lo || a_hi < b_hi) {
        return WindowRelation::ContainedIn;
    }
    WindowRelation::Overlaps
}

/// Orders all window bounds of the given specs on the shared signal axis,
/// returning `(order key, context, is_start)` sorted ascending — the
/// input the grouping algorithm's sweep consumes. At equal keys, ends
/// sort before starts so touching windows do not group.
#[must_use]
pub fn ordered_bounds(specs: &[WindowSpec]) -> Vec<(f64, String, bool)> {
    let mut bounds: Vec<(f64, String, bool)> = Vec::new();
    for s in specs {
        bounds.push((s.start.value, s.context.clone(), true));
        bounds.push((s.end.value, s.context.clone(), false));
    }
    bounds.sort_by(|a, b| {
        a.0.partial_cmp(&b.0)
            .expect("finite keys")
            .then_with(|| a.2.cmp(&b.2)) // false (end) before true (start)
    });
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_query::ast::Pattern;

    fn deriving(action: ContextAction, ctx: &str, predicate: Expr) -> EventQuery {
        EventQuery {
            name: None,
            action: Some(action),
            derive: None,
            pattern: Pattern::event("Signal", "s"),
            where_clause: Some(predicate),
            within: None,
            contexts: vec![ctx.to_string()],
        }
    }

    fn figure7_queries() -> Vec<(QueryId, EventQuery)> {
        vec![
            (
                QueryId(0),
                deriving(
                    ContextAction::Initiate("c1".into()),
                    "default",
                    Expr::bin(BinOp::Gt, Expr::bare("X"), Expr::int(10)),
                ),
            ),
            (
                QueryId(1),
                deriving(
                    ContextAction::Initiate("c2".into()),
                    "default",
                    Expr::bin(BinOp::Gt, Expr::bare("X"), Expr::int(20)),
                ),
            ),
            (
                QueryId(2),
                deriving(
                    ContextAction::Terminate("c1".into()),
                    "c1",
                    Expr::bin(BinOp::Lt, Expr::bare("X"), Expr::int(30)),
                ),
            ),
            (
                QueryId(3),
                deriving(
                    ContextAction::Terminate("c2".into()),
                    "c2",
                    Expr::bin(BinOp::Lt, Expr::bare("X"), Expr::int(40)),
                ),
            ),
        ]
    }

    fn figure7_specs() -> Vec<WindowSpec> {
        let queries = figure7_queries();
        let refs: Vec<(QueryId, &EventQuery)> = queries.iter().map(|(id, q)| (*id, q)).collect();
        let mut workloads = BTreeMap::new();
        workloads.insert("c1".to_string(), vec![QueryId(10), QueryId(12)]); // Q1, Q3
        workloads.insert("c2".to_string(), vec![QueryId(10), QueryId(11)]); // Q1, Q2
        derive_window_specs(&refs, &workloads)
    }

    #[test]
    fn extracts_figure7_thresholds() {
        let specs = figure7_specs();
        assert_eq!(specs.len(), 2);
        let c1 = specs.iter().find(|s| s.context == "c1").unwrap();
        assert_eq!(c1.signal, "X");
        assert_eq!(c1.start.value, 10.0);
        assert!(c1.start.is_lower);
        assert_eq!(c1.end.value, 30.0);
        assert!(!c1.end.is_lower);
        assert_eq!(c1.queries, vec![QueryId(10), QueryId(12)]);
    }

    #[test]
    fn figure7_windows_overlap() {
        let specs = figure7_specs();
        let c1 = specs.iter().find(|s| s.context == "c1").unwrap();
        let c2 = specs.iter().find(|s| s.context == "c2").unwrap();
        assert_eq!(window_relation(c1, c2), WindowRelation::Overlaps);
    }

    #[test]
    fn containment_detected() {
        let outer = WindowSpec {
            context: "outer".into(),
            signal: "X".into(),
            start: ThresholdBound {
                is_lower: true,
                value: 5.0,
                inclusive: false,
            },
            end: ThresholdBound {
                is_lower: false,
                value: 50.0,
                inclusive: false,
            },
            queries: vec![],
        };
        let inner = WindowSpec {
            context: "inner".into(),
            signal: "X".into(),
            start: ThresholdBound {
                is_lower: true,
                value: 10.0,
                inclusive: false,
            },
            end: ThresholdBound {
                is_lower: false,
                value: 30.0,
                inclusive: false,
            },
            queries: vec![],
        };
        assert_eq!(window_relation(&inner, &outer), WindowRelation::ContainedIn);
    }

    #[test]
    fn different_signals_are_unknown() {
        let mut specs = figure7_specs();
        specs[1].signal = "Y".into();
        assert_eq!(
            window_relation(&specs[0], &specs[1]),
            WindowRelation::Unknown
        );
    }

    #[test]
    fn flipped_constant_side_normalizes() {
        // 20 < X ≡ X > 20.
        let (attr, bound) =
            extract_threshold(&Expr::bin(BinOp::Lt, Expr::int(20), Expr::bare("X"))).unwrap();
        assert_eq!(attr, "X");
        assert!(bound.is_lower);
        assert_eq!(bound.value, 20.0);
    }

    #[test]
    fn non_threshold_predicates_are_skipped() {
        assert!(
            extract_threshold(&Expr::bin(BinOp::Eq, Expr::bare("X"), Expr::bare("Y"))).is_none()
        );
        assert!(extract_threshold(&Expr::bare("X")).is_none());
    }

    #[test]
    fn switch_contributes_both_bounds() {
        let queries = [
            (
                QueryId(0),
                deriving(
                    ContextAction::Switch("busy".into()),
                    "idle",
                    Expr::bin(BinOp::Gt, Expr::bare("load"), Expr::int(80)),
                ),
            ),
            (
                QueryId(1),
                deriving(
                    ContextAction::Switch("idle".into()),
                    "busy",
                    Expr::bin(BinOp::Lt, Expr::bare("load"), Expr::int(20)),
                ),
            ),
        ];
        let refs: Vec<(QueryId, &EventQuery)> = queries.iter().map(|(id, q)| (*id, q)).collect();
        let specs = derive_window_specs(&refs, &BTreeMap::new());
        // busy: start load>80 (from switch into), end load<20 (switch away).
        let busy = specs.iter().find(|s| s.context == "busy").unwrap();
        assert_eq!(busy.start.value, 80.0);
        assert_eq!(busy.end.value, 20.0);
    }

    #[test]
    fn ordered_bounds_follow_figure7() {
        let specs = figure7_specs();
        let bounds = ordered_bounds(&specs);
        assert_eq!(bounds.len(), 4);
        // Figure 7 order: start c1 (10), start c2 (20), end c1 (30),
        // end c2 (40).
        assert!(bounds[0].2 && bounds[0].1 == "c1");
        assert!(bounds[1].2 && bounds[1].1 == "c2");
        assert!(!bounds[2].2 && bounds[2].1 == "c1");
        assert!(!bounds[3].2 && bounds[3].1 == "c2");
    }

    #[test]
    fn disjoint_windows_detected() {
        let a = WindowSpec {
            context: "a".into(),
            signal: "X".into(),
            start: ThresholdBound {
                is_lower: true,
                value: 0.0,
                inclusive: false,
            },
            end: ThresholdBound {
                is_lower: false,
                value: 10.0,
                inclusive: false,
            },
            queries: vec![],
        };
        let b = WindowSpec {
            context: "b".into(),
            signal: "X".into(),
            start: ThresholdBound {
                is_lower: true,
                value: 20.0,
                inclusive: false,
            },
            end: ThresholdBound {
                is_lower: false,
                value: 30.0,
                inclusive: false,
            },
            queries: vec![],
        };
        assert_eq!(window_relation(&a, &b), WindowRelation::Disjoint);
    }

    #[test]
    fn hysteresis_spec_is_unknown() {
        let a = WindowSpec {
            context: "busy".into(),
            signal: "load".into(),
            start: ThresholdBound {
                is_lower: true,
                value: 80.0,
                inclusive: false,
            },
            end: ThresholdBound {
                is_lower: false,
                value: 20.0,
                inclusive: false,
            },
            queries: vec![],
        };
        assert_eq!(window_relation(&a, &a), WindowRelation::Unknown);
    }
}
