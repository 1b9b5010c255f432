//! Dense transactions against the traffic oracle.
//!
//! Every plan takes a transaction as one slice of events; a combined
//! plan may run a many-event slice plan-major (each member over its
//! rows before the next, one context-window probe per run, selection
//! vectors). Each operator's own tests pin a slice as equivalent to its
//! events fed one per slice; this test holds a run of dense traffic —
//! transactions of many position reports — against the Linear Road
//! oracle directly, so the many-event path is *correct*, not merely
//! self-consistent.

use caesar::linear_road::{expected_outputs, LinearRoadConfig, TrafficSim};
use caesar::prelude::*;

/// Dense Linear Road traffic: long same-(partition, time) runs of
/// position reports.
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
    // Transactions of more than 8 events: those past the histogram's
    // 8-event bucket.
    let sizes = &report.metrics.batch_sizes;
    let past_8 = sizes.bounds.partition_point(|&b| b <= 8);
    assert!(
        sizes.counts[past_8..].iter().sum::<u64>() > 0,
        "dense traffic must have transactions of more than 8 events"
    );
    assert!(report.outputs_of("TollNotification") > 0);
    assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
    assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
    assert_eq!(
        report.outputs_of("AccidentWarning"),
        oracle.accident_warnings
    );
}
