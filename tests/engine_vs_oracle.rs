//! End-to-end correctness: the engine's Linear Road outputs must equal
//! the reference oracle's, in every execution mode and optimizer
//! configuration — optimization and context-awareness change cost, never
//! results.

use caesar::linear_road::{expected_outputs, LinearRoadConfig, TrafficSim};
use caesar::prelude::*;
use caesar_testkit::lr;

fn lr_system(mode: ExecutionMode, optimized: bool, replication: usize) -> CaesarSystem {
    lr::lr_system(
        optimized,
        replication,
        EngineConfig::builder().mode(mode).build(),
    )
}

fn check_against_oracle(config: LinearRoadConfig, mode: ExecutionMode, optimized: bool) {
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let oracle = expected_outputs(&events, sim.registry());
    let mut system = lr_system(mode, optimized, 1);
    let report = system.run_stream(events).expect("stream is in order");
    assert_eq!(
        report.outputs_of("ZeroToll"),
        oracle.zero_tolls,
        "zero tolls ({mode:?}, optimized={optimized})"
    );
    assert_eq!(
        report.outputs_of("TollNotification"),
        oracle.real_tolls,
        "real tolls ({mode:?}, optimized={optimized})"
    );
    assert_eq!(
        report.outputs_of("AccidentWarning"),
        oracle.accident_warnings,
        "accident warnings ({mode:?}, optimized={optimized})"
    );
}

fn benchmark_config(seed: u64) -> LinearRoadConfig {
    LinearRoadConfig {
        roads: 1,
        segments_per_road: 6,
        duration: 900,
        seed,
        base_cars: 2.0,
        peak_cars: 5.0,
        ..Default::default()
    }
}

#[test]
fn context_aware_optimized_matches_oracle() {
    check_against_oracle(benchmark_config(1), ExecutionMode::ContextAware, true);
}

#[test]
fn context_aware_unoptimized_matches_oracle() {
    check_against_oracle(benchmark_config(2), ExecutionMode::ContextAware, false);
}

#[test]
fn context_independent_matches_oracle() {
    check_against_oracle(
        benchmark_config(3),
        ExecutionMode::ContextIndependent,
        false,
    );
}

#[test]
fn several_seeds_all_match() {
    for seed in 10..15 {
        check_against_oracle(benchmark_config(seed), ExecutionMode::ContextAware, true);
    }
}

#[test]
fn multi_road_streams_match() {
    let config = LinearRoadConfig {
        roads: 2,
        segments_per_road: 4,
        directions: 2,
        duration: 600,
        seed: 77,
        ..Default::default()
    };
    check_against_oracle(config, ExecutionMode::ContextAware, true);
}

#[test]
fn replicated_workload_multiplies_outputs() {
    let config = benchmark_config(4);
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let oracle = expected_outputs(&events, sim.registry());

    let mut system = lr_system(ExecutionMode::ContextAware, true, 3);
    let report = system.run_stream(events).expect("in order");
    // Base copies plus suffixed replicas must each match the oracle.
    assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
    assert_eq!(report.outputs_of("TollNotification_1"), oracle.real_tolls);
    assert_eq!(report.outputs_of("TollNotification_2"), oracle.real_tolls);
    assert_eq!(
        report.outputs_of("AccidentWarning_2"),
        oracle.accident_warnings
    );
}

#[test]
fn sharing_does_not_change_results() {
    let config = benchmark_config(5);
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let run = |sharing: bool| {
        let mut system = lr::lr_builder(1)
            .engine_config(EngineConfig::builder().sharing(sharing).build())
            .build()
            .unwrap();
        system.run_stream(events.clone()).unwrap()
    };
    let shared = run(true);
    let non_shared = run(false);
    assert_eq!(
        shared.outputs_of("TollNotification"),
        non_shared.outputs_of("TollNotification")
    );
    assert_eq!(
        shared.outputs_of("AccidentWarning"),
        non_shared.outputs_of("AccidentWarning")
    );
    assert_eq!(
        shared.outputs_of("ZeroToll"),
        non_shared.outputs_of("ZeroToll")
    );
}

#[test]
fn boundary_aligned_windows_match_oracle() {
    // Context windows whose bounds collide with the 30-second report
    // cadence maximize same-timestamp marker/report transactions — the
    // `(t_i, t_t]` boundary cases.
    use caesar::events::Interval;
    use caesar::linear_road::{SchedulePolicy, SegmentSchedule};
    for seed in 20..30 {
        let config = LinearRoadConfig {
            roads: 1,
            segments_per_road: 4,
            duration: 600,
            seed,
            base_cars: 3.0,
            peak_cars: 6.0,
            schedule: SchedulePolicy::Explicit(SegmentSchedule {
                congestion: vec![Interval::new(120, 240), Interval::new(390, 480)],
                accidents: vec![Interval::new(270, 330)],
            }),
            ..Default::default()
        };
        check_against_oracle(config, ExecutionMode::ContextAware, true);
    }
}
