//! The §7 comparisons as deterministic work-unit claims. Operator
//! counters, not clocks: each claim holds on any machine, in any build.
//!
//! * Figure 12: the context-independent baseline (every query always
//!   active, each processing query privately re-deriving its context)
//!   does more operator work than CAESAR, the more so the more queries
//!   a context holds, and CAESAR's router suspends plans the baseline
//!   feeds.
//! * Figure 11(b): with context windows pushed down, pattern operators
//!   see fewer events than on the unoptimized program — both
//!   busy-waiting, so push-down is the only difference.

use caesar::linear_road::{LinearRoadConfig, TrafficSim};
use caesar::optimizer::OptimizerConfig;
use caesar::prelude::*;
use caesar::runtime::Engine;
use caesar_testkit::lr;
use std::collections::BTreeSet;

/// What one run did, in work units.
#[derive(Debug)]
struct Work {
    /// Summed `events_in` over every operator.
    operator_events_in: u64,
    /// Summed `events_in` over the pattern operators.
    pattern_events_in: u64,
    /// Summed chain `events_in` of the deriving queries (a
    /// context-independent program's private re-derivers count under
    /// the query they clone).
    derivation_events_in: u64,
    plans_fed: u64,
    plans_suspended: u64,
    outputs: u64,
}

fn run(
    replication: usize,
    optimizer: OptimizerConfig,
    engine: EngineConfig,
    events: &[Event],
) -> Work {
    let (program, registry, _) = lr::lr_builder(replication)
        .optimizer_config(optimizer)
        .build_program()
        .expect("LR model builds");
    let deriving: BTreeSet<String> = program
        .translation
        .combined
        .iter()
        .flat_map(|c| &c.plans)
        .filter(|p| p.is_deriving)
        .map(|p| p.query_id.to_string())
        .collect();
    let mut engine = Engine::new(program, &registry, engine);
    let report = engine
        .run_stream(events.to_vec())
        .expect("stream is in order");
    let operators = &report.metrics.operators;
    let queries = &report.metrics.queries;
    Work {
        operator_events_in: operators.values().map(|m| m.events_in).sum(),
        pattern_events_in: operators
            .iter()
            .filter(|(key, _)| key.ends_with(":Pattern"))
            .map(|(_, m)| m.events_in)
            .sum(),
        // A shared deriving query's dropped members have no row.
        derivation_events_in: deriving
            .iter()
            .filter_map(|q| queries.get(q))
            .map(|m| m.events_in)
            .sum(),
        plans_fed: report.plans_fed,
        plans_suspended: report.plans_suspended,
        outputs: report.events_out,
    }
}

fn traffic() -> Vec<Event> {
    TrafficSim::new(LinearRoadConfig {
        roads: 1,
        segments_per_road: 6,
        duration: 900,
        seed: 1,
        base_cars: 2.0,
        peak_cars: 5.0,
        ..Default::default()
    })
    .generate()
}

#[test]
fn figure_12_context_independent_work_exceeds_caesars_and_grows_with_queries() {
    let events = traffic();
    let ca_config = EngineConfig::default();
    let ci_config = EngineConfig::builder()
        .mode(ExecutionMode::ContextIndependent)
        .sharing(false)
        .build();
    let mut gaps = Vec::new();
    let mut derivation = Vec::new();
    for replication in [1, 3] {
        let optimized = OptimizerConfig::default();
        let ca = run(replication, optimized, ca_config, &events);
        let ci = run(replication, optimized, ci_config, &events);
        assert_eq!(ca.outputs, ci.outputs, "the baseline computes the same");
        assert!(
            ci.operator_events_in > ca.operator_events_in,
            "replication {replication}: CI {ci:?} vs CA {ca:?}"
        );
        // CAESAR's router suspends plans whose context is closed; the
        // baseline feeds every plan every transaction.
        assert!(ca.plans_suspended > 0, "{ca:?}");
        assert_eq!(ci.plans_suspended, 0, "{ci:?}");
        assert!(ci.plans_fed > ca.plans_fed, "CI {ci:?} vs CA {ca:?}");
        gaps.push(ci.operator_events_in - ca.operator_events_in);
        derivation.push((ca.derivation_events_in, ci.derivation_events_in));
    }
    assert!(
        gaps[1] > gaps[0],
        "gap must grow with replication: {gaps:?}"
    );
    // CAESAR derives each context once, whatever the queries in it; the
    // baseline's processing queries each re-derive their context.
    let ((ca_1, ci_1), (ca_3, ci_3)) = (derivation[0], derivation[1]);
    assert_eq!(ca_1, ca_3, "CA derivation (r=1, r=3): {derivation:?}");
    assert!(ci_3 > ci_1, "CI re-derivation (r=1, r=3): {derivation:?}");
}

#[test]
fn figure_11b_push_down_feeds_patterns_fewer_events() {
    let events = traffic();
    let busy_wait = EngineConfig::builder()
        .mode(ExecutionMode::BusyWait)
        .build();
    let pushed = run(1, OptimizerConfig::default(), busy_wait, &events);
    let unoptimized = run(1, OptimizerConfig::unoptimized(), busy_wait, &events);
    assert!(
        pushed.pattern_events_in < unoptimized.pattern_events_in,
        "push-down {pushed:?} vs unoptimized {unoptimized:?}"
    );
}
