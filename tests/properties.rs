//! Property-based tests of the core invariants:
//!
//! * grouping (Listing 1) produces non-overlapping windows that cover
//!   exactly the union of the inputs and preserve every query;
//! * context window push-down never increases the modelled cost
//!   (Theorem 1) and never changes results;
//! * parse → pretty-print → parse is the identity on queries;
//! * context-aware and context-independent execution produce identical
//!   outputs on arbitrary streams.

use caesar::algebra::cost::{chain_cost, Stats};
use caesar::optimizer::grouping::{group_windows, UserWindow};
use caesar::optimizer::pushdown::push_down_context_window;
use caesar::prelude::*;
use caesar::query::ast::QueryId;
use caesar::query::parser::parse_queries;
use caesar::query::pretty::query_to_string;
use proptest::prelude::*;

fn arb_windows() -> impl Strategy<Value = Vec<UserWindow>> {
    prop::collection::vec(
        (0u32..100, 1u32..50, prop::collection::vec(0u32..6, 1..4)),
        1..8,
    )
    .prop_map(|specs| {
        specs
            .into_iter()
            .enumerate()
            .map(|(i, (start, len, queries))| {
                UserWindow::new(
                    format!("c{i}"),
                    f64::from(start),
                    f64::from(start + len),
                    queries.into_iter().map(QueryId).collect(),
                )
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn grouped_windows_never_overlap(windows in arb_windows()) {
        let result = group_windows(windows);
        let mut sorted = result.windows;
        sorted.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
        for pair in sorted.windows(2) {
            // Slices sharing only a bound are fine; interiors must not
            // intersect.
            prop_assert!(pair[0].end <= pair[1].start + 1e-9,
                "overlap: {:?} vs {:?}", pair[0], pair[1]);
        }
    }

    #[test]
    fn grouping_preserves_coverage_and_queries(windows in arb_windows()) {
        let result = group_windows(windows.clone());
        // Every point of every original window is covered by a grouped
        // window carrying (at least) that window's queries.
        for w in &windows {
            let mut probe = w.start + 0.25;
            while probe < w.end {
                let covering: Vec<_> = result
                    .windows
                    .iter()
                    .filter(|g| g.start <= probe && probe < g.end)
                    .collect();
                prop_assert!(!covering.is_empty(),
                    "point {probe} of {w:?} uncovered");
                for q in &w.queries {
                    prop_assert!(
                        covering.iter().any(|g| g.queries.contains(q)),
                        "query {q:?} missing at {probe}"
                    );
                }
                probe += 0.5;
            }
        }
        // No grouped window extends beyond the union of the originals.
        for g in &result.windows {
            prop_assert!(windows.iter().any(|w| w.start <= g.start && g.end <= w.end
                || w.overlaps(&UserWindow::new("probe", g.start, g.end, vec![]))),
                "grouped window {g:?} outside all originals");
        }
    }

    #[test]
    fn grouped_queries_are_deduplicated(windows in arb_windows()) {
        let result = group_windows(windows);
        for g in &result.windows {
            let mut seen = g.queries.clone();
            seen.dedup();
            prop_assert_eq!(seen.len(), g.queries.len(), "duplicates survived");
        }
    }
}

fn arb_query_text() -> impl Strategy<Value = String> {
    // Compose random but well-formed queries from a small vocabulary.
    let attr = prop::sample::select(vec!["vid", "sec", "speed"]);
    let cmp = prop::sample::select(vec!["=", "!=", "<", "<=", ">", ">="]);
    (attr, cmp, 0i64..100, prop::bool::ANY).prop_map(|(a, c, v, negated)| {
        let pattern = if negated {
            "SEQ(NOT Report r1, Report r2)".to_string()
        } else {
            "SEQ(Report r1, Report r2)".to_string()
        };
        let var = if negated { "r2" } else { "r1" };
        format!("DERIVE Out({var}.{a}) PATTERN {pattern} WHERE {var}.{a} {c} {v} CONTEXT busy")
    })
}

proptest! {
    #[test]
    fn parse_pretty_roundtrip(text in arb_query_text()) {
        let q = parse_queries(&text).unwrap().remove(0);
        let printed = query_to_string(&q);
        let reparsed = parse_queries(&printed).unwrap().remove(0);
        prop_assert_eq!(q, reparsed, "printed: {}", printed);
    }
}

proptest! {
    #[test]
    fn pushdown_never_increases_cost(
        rate in 1.0f64..100.0,
        activity in 0.01f64..1.0,
        selectivity_seed in 0u64..1000,
    ) {
        // Build a plan via the real pipeline, then compare costs with
        // the context window at every position.
        let mut system_plans = build_lr_plans();
        let mut stats = Stats::new();
        stats.default_rate = rate;
        stats.default_activity = activity;
        let _ = selectivity_seed;
        for plan in &mut system_plans {
            let baseline = plan.clone();
            push_down_context_window(plan);
            let (c_opt, _) = chain_cost(&plan.ops, &stats, rate);
            let (c_orig, _) = chain_cost(&baseline.ops, &stats, rate);
            prop_assert!(c_opt <= c_orig + 1e-9,
                "pushdown increased cost {c_orig} -> {c_opt}");
        }
    }
}

fn build_lr_plans() -> Vec<caesar::algebra::plan::QueryPlan> {
    use caesar::algebra::translate::{translate_query_set, TranslateOptions};
    use caesar::query::queryset::QuerySet;
    let model = caesar::linear_road::lr_model(1);
    let qs = QuerySet::from_model(&model).unwrap();
    let mut reg = caesar::linear_road::lr_registry();
    translate_query_set(&qs, &mut reg, &TranslateOptions { default_within: 60 })
        .unwrap()
        .combined
        .into_iter()
        .flat_map(|c| c.plans)
        .collect()
}

/// Random small workload streams: CA and CI must agree exactly.
fn arb_stream_script() -> impl Strategy<Value = Vec<(u8, u64)>> {
    // (kind, payload): kind 0 = reading, 1 = enter busy, 2 = leave busy.
    prop::collection::vec((0u8..=2, 1u64..60), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]
    #[test]
    fn modes_agree_on_arbitrary_streams(script in arb_stream_script()) {
        let build = |mode: ExecutionMode| {
            Caesar::builder()
                .schema("Reading", &[("v", AttrType::Int), ("sec", AttrType::Int)])
                .schema("Enter", &[("sec", AttrType::Int)])
                .schema("Leave", &[("sec", AttrType::Int)])
                .within(60)
                .model_text(
                    r#"
                    MODEL m DEFAULT idle
                    CONTEXT idle {
                        SWITCH CONTEXT busy PATTERN Enter
                    }
                    CONTEXT busy {
                        SWITCH CONTEXT idle PATTERN Leave
                        DERIVE Pair(a.v, b.v, b.sec)
                            PATTERN SEQ(Reading a, Reading b)
                            WHERE a.v = b.v
                        DERIVE Fresh(r2.v, r2.sec)
                            PATTERN SEQ(NOT Reading r1, Reading r2)
                            WHERE r1.sec + 10 = r2.sec AND r1.v = r2.v
                    }
                "#,
                )
                .engine_config(EngineConfig::builder().mode(mode).build())
                .build()
                .unwrap()
        };
        let mut t: Time = 0;
        let mk_events = |sys: &CaesarSystem, script: &[(u8, u64)], t: &mut Time| {
            let mut events = Vec::new();
            for (kind, payload) in script {
                *t += 1 + payload % 7;
                let e = match kind {
                    0 => sys
                        .event("Reading", *t)
                        .unwrap()
                        .attr("v", (*payload % 5) as i64)
                        .unwrap()
                        .attr("sec", *t as i64)
                        .unwrap()
                        .build()
                        .unwrap(),
                    1 => sys.event("Enter", *t).unwrap()
                        .attr("sec", *t as i64).unwrap().build().unwrap(),
                    _ => sys.event("Leave", *t).unwrap()
                        .attr("sec", *t as i64).unwrap().build().unwrap(),
                };
                events.push(e);
            }
            events
        };
        let mut ca = build(ExecutionMode::ContextAware);
        let events_ca = mk_events(&ca, &script, &mut t);
        let report_ca = ca.run_stream(events_ca).unwrap();
        t = 0;
        let mut ci = build(ExecutionMode::ContextIndependent);
        let events_ci = mk_events(&ci, &script, &mut t);
        let report_ci = ci.run_stream(events_ci).unwrap();
        prop_assert_eq!(report_ca.outputs_of("Pair"), report_ci.outputs_of("Pair"));
        prop_assert_eq!(report_ca.outputs_of("Fresh"), report_ci.outputs_of("Fresh"));
        prop_assert_eq!(report_ca.transitions_applied, report_ci.transitions_applied);
    }
}
