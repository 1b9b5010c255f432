//! Out-of-order ingestion: a shuffled (bounded-disorder) Linear Road
//! stream through an engine with `reorder_slack` must produce exactly
//! the ordered run's results; without slack the same stream is rejected
//! with a typed error.

use caesar::events::EventError;
use caesar::linear_road::{build_lr_system, expected_outputs, LinearRoadConfig, TrafficSim};
use caesar::prelude::*;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Locally shuffles a time-sorted stream within windows of `window`
/// events — disorder bounded by the largest timestamp span of a window.
fn jumble(mut events: Vec<Event>, window: usize, seed: u64) -> (Vec<Event>, Time) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut max_disorder: Time = 0;
    for chunk in events.chunks_mut(window) {
        let before: Vec<Time> = chunk.iter().map(Event::time).collect();
        let span = before.iter().max().unwrap() - before.iter().min().unwrap();
        max_disorder = max_disorder.max(span);
        chunk.shuffle(&mut rng);
    }
    (events, max_disorder)
}

#[test]
fn reorder_slack_repairs_bounded_disorder() {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        segments_per_road: 4,
        duration: 500,
        seed: 8,
        ..Default::default()
    });
    let ordered = sim.generate();
    let oracle = expected_outputs(&ordered, sim.registry());
    let (shuffled, max_disorder) = jumble(ordered, 16, 42);
    assert!(max_disorder > 0, "test needs actual disorder");

    let mut system = build_lr_system(
        1,
        OptimizerConfig::default(),
        EngineConfig::builder()
            .reorder_slack(max_disorder + 1)
            .build(),
    );
    let report = system
        .run_stream(shuffled)
        .expect("slack covers the disorder");
    assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
    assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
    assert_eq!(
        report.outputs_of("AccidentWarning"),
        oracle.accident_warnings
    );
}

#[test]
fn without_slack_disorder_is_rejected() {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        segments_per_road: 2,
        duration: 200,
        seed: 9,
        ..Default::default()
    });
    let ordered = sim.generate();
    let (shuffled, max_disorder) = jumble(ordered, 16, 43);
    assert!(max_disorder > 0);
    let mut system = build_lr_system(
        1,
        OptimizerConfig::default(),
        EngineConfig::default(), // slack 0
    );
    let err = system
        .run_stream(shuffled)
        .expect_err("out-of-order stream must be rejected without slack");
    assert!(
        matches!(err, CaesarError::Event(EventError::OutOfOrder { .. })),
        "{err}"
    );
}
