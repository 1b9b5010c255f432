//! End-to-end tests of the statistics-gatherer feedback loop (observe →
//! re-optimize with measured statistics) and of the sharded parallel
//! executor on the Linear Road workload.

use caesar::linear_road::{expected_outputs, lr_model, lr_registry, LinearRoadConfig, TrafficSim};
use caesar::optimizer::{Optimizer, OptimizerConfig};
use caesar::prelude::*;
use caesar::query::QuerySet;
use caesar::runtime::{run_sharded, Engine};

fn lr_program(registry: &mut SchemaRegistry) -> caesar::optimizer::optimizer::OptimizedProgram {
    let model = lr_model(2);
    let qs = QuerySet::from_model(&model).unwrap();
    let translation = caesar::algebra::translate::translate_query_set(
        &qs,
        registry,
        &caesar::algebra::translate::TranslateOptions { default_within: 60 },
    )
    .unwrap();
    Optimizer::default().optimize(translation, registry)
}

fn lr_stream(seed: u64) -> (Vec<Event>, SchemaRegistry) {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        segments_per_road: 5,
        duration: 600,
        seed,
        ..Default::default()
    });
    let events = sim.generate();
    (events, sim.registry().clone())
}

#[test]
fn gathered_stats_reflect_the_stream() {
    let (events, _) = lr_stream(3);
    let mut registry = lr_registry();
    let program = lr_program(&mut registry);
    let mut engine = Engine::new(program, &registry, EngineConfig::default());
    let _ = engine.run_stream(events).unwrap();
    let obs = engine.gather_stats();

    // Position reports dominate the input.
    let pr = registry.lookup("PositionReport").unwrap();
    let pr_count = obs.inputs_by_type.get(&pr).copied().unwrap_or(0);
    assert!(pr_count > 100, "position reports observed: {pr_count}");
    assert!(obs.progress > 0);

    let stats = obs.to_stats();
    assert!(stats.rate(pr) > 0.1, "rate {:.4}", stats.rate(pr));
    // Context activities observed for at least one bit, all in [0, 1].
    assert!(!obs.window_counts.is_empty());
    for &bit in obs.window_counts.keys() {
        let a = stats.activity(bit);
        assert!((0.0..=1.0).contains(&a));
    }
    // Filter selectivities observed (lane != "exit" accepts most).
    assert!(!obs.filter_selectivities.is_empty());
    let summary = obs.summary();
    assert!(summary.contains("rate["), "{summary}");
}

#[test]
fn reoptimizing_with_observed_stats_preserves_results() {
    let (events, _) = lr_stream(4);
    let mut registry = lr_registry();
    let program = lr_program(&mut registry);
    let mut engine = Engine::new(program, &registry, EngineConfig::default());
    let first = engine.run_stream(events.clone()).unwrap();
    let observed = engine.gather_stats().to_stats();

    // Adaptive loop: re-translate and re-optimize with observed stats.
    let mut registry2 = lr_registry();
    let model = lr_model(2);
    let qs = QuerySet::from_model(&model).unwrap();
    let translation = caesar::algebra::translate::translate_query_set(
        &qs,
        &mut registry2,
        &caesar::algebra::translate::TranslateOptions { default_within: 60 },
    )
    .unwrap();
    let program2 =
        Optimizer::new(OptimizerConfig::default(), observed).optimize(translation, &registry2);
    assert!(program2.cost_after <= program2.cost_before);
    let mut engine2 = Engine::new(program2, &registry2, EngineConfig::default());
    let second = engine2.run_stream(events).unwrap();
    assert_eq!(
        first.outputs_of("TollNotification"),
        second.outputs_of("TollNotification")
    );
    assert_eq!(first.outputs_of("ZeroToll"), second.outputs_of("ZeroToll"));
}

#[test]
fn sharded_execution_matches_oracle() {
    let (events, sim_registry) = lr_stream(5);
    let oracle = expected_outputs(&events, &sim_registry);
    let mut registry = lr_registry();
    let program = lr_program(&mut registry);
    for shards in [1usize, 2, 5] {
        let (report, _, _) = run_sharded(
            &program,
            &registry,
            EngineConfig::default(),
            shards,
            events.clone(),
        )
        .unwrap();
        assert_eq!(
            report.outputs_of("TollNotification"),
            oracle.real_tolls,
            "{shards} shards"
        );
        assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
        assert_eq!(
            report.outputs_of("AccidentWarning"),
            oracle.accident_warnings
        );
        // Replicated copies too.
        assert_eq!(report.outputs_of("TollNotification_1"), oracle.real_tolls);
    }
}

/// The statistics gatherer reports the *stream's* selectivity and match
/// rate, not those of whichever partition has the highest id: partition
/// 0 passes every reading and pairs up every mark, partition 9 passes
/// no reading and sees a single mark.
#[test]
fn gathered_stats_aggregate_over_partitions() {
    let mut sys = caesar_testkit::fixture::system(
        &[
            ("Reading", &[("v", AttrType::Int)]),
            ("Mark", &[("v", AttrType::Int)]),
        ],
        50,
        r#"
            MODEL m DEFAULT on
            CONTEXT on {
                DERIVE Hot(r.v) PATTERN Reading r WHERE r.v > 10
                DERIVE Pair(a.v, b.v) PATTERN SEQ(Mark a, Mark b)
            }
        "#,
        EngineConfig::default(),
    );
    let mut events = Vec::new();
    let mut push = |sys: &CaesarSystem, ty: &str, t: Time, partition: u32, v: i64| {
        let event = sys.event(ty, t).unwrap().partition(PartitionId(partition));
        events.push(event.attr("v", v).unwrap().build().unwrap());
    };
    for t in 1..=10u64 {
        push(&sys, "Reading", t, 0, 50);
        push(&sys, "Mark", t, 0, 1);
        for _ in 0..3 {
            push(&sys, "Reading", t, 9, 1);
        }
        if t == 1 {
            push(&sys, "Mark", t, 9, 1);
        }
    }
    sys.run_stream(events).unwrap();
    sys.finish();
    let obs = sys.engine.gather_stats();

    // 10 of 40 readings pass `v > 10` (partition 9 alone: 0 of 30).
    let selectivities: Vec<f64> = obs.filter_selectivities.values().copied().collect();
    assert_eq!(selectivities, [0.25]);
    // Partition 0's k-th mark completes k − 1 pairs, 45 in all, over
    // its 10 marks and partition 9's one (partition 9 alone: 0 of 1).
    let rates: Vec<f64> = obs.pattern_match_rates.values().copied().collect();
    assert!(
        rates.contains(&(45.0 / 11.0)),
        "pattern match rates {rates:?}: 45 pairs over 11 marks"
    );
}
