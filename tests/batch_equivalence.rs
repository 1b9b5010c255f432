//! The batch entry points against the traffic oracle.
//!
//! The engine runs a transaction through the operators' batch entry
//! points (selection vectors, vectorized kernels, the per-batch
//! negation index) when it holds at least `BATCH_MIN_EVENTS` events,
//! and through the per-event entry points otherwise. Each operator's
//! own tests pin the two as equivalent; this test holds a run whose
//! dense traffic takes the batch entry points against the Linear Road
//! oracle directly, so the batched path is *correct*, not merely
//! self-consistent.

use caesar::linear_road::{expected_outputs, LinearRoadConfig, TrafficSim};
use caesar::prelude::*;

/// Dense Linear Road traffic: long same-(partition, time) runs of
/// position reports, the regime of the batch entry points.
#[test]
fn batched_run_matches_oracle() {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        roads: 1,
        segments_per_road: 2,
        duration: 300,
        seed: 42,
        base_cars: 120.0,
        peak_cars: 220.0,
        ..Default::default()
    });
    let events = sim.generate();
    let oracle = expected_outputs(&events, sim.registry());
    let mut system = caesar_testkit::lr::lr_system(
        true,
        1,
        EngineConfig::builder()
            .observability(ObservabilityLevel::Counters)
            .build(),
    );
    let report = system
        .run_stream(&mut VecStream::new(events))
        .expect("stream is in order");
    assert!(
        report.metrics.counters["batched_transactions"] > 0,
        "dense traffic must take the batch entry points"
    );
    assert!(report.outputs_of("TollNotification") > 0);
    assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
    assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
    assert_eq!(
        report.outputs_of("AccidentWarning"),
        oracle.accident_warnings
    );
}
