//! Linear Road traffic monitoring end to end: generate a seeded traffic
//! stream, run it through CAESAR (context-aware) and through the
//! context-independent baseline, check both against the reference
//! oracle, and compare run times.
//!
//! ```text
//! cargo run --release --example traffic_monitoring
//! ```

use caesar::linear_road::{expected_outputs, lr_model, LinearRoadConfig, TrafficSim};
use caesar::prelude::*;
use std::time::Instant;

fn build_system(mode: ExecutionMode, replication: usize) -> CaesarSystem {
    let optimizer_config = if mode == ExecutionMode::ContextAware {
        OptimizerConfig::default()
    } else {
        OptimizerConfig::unoptimized()
    };
    Caesar::builder()
        .model(lr_model(replication))
        .schema(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("speed", AttrType::Int),
                ("xway", AttrType::Int),
                ("lane", AttrType::Str),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("pos", AttrType::Int),
            ],
        )
        .schema(
            "ManySlowCars",
            &[
                ("xway", AttrType::Int),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("sec", AttrType::Int),
            ],
        )
        .schema(
            "FewFastCars",
            &[
                ("xway", AttrType::Int),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("sec", AttrType::Int),
            ],
        )
        .schema(
            "StoppedCars",
            &[
                ("xway", AttrType::Int),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("sec", AttrType::Int),
            ],
        )
        .schema(
            "StoppedCarsRemoved",
            &[
                ("xway", AttrType::Int),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("sec", AttrType::Int),
            ],
        )
        .within(60)
        .engine_config(EngineConfig::builder().mode(mode).build())
        .optimizer_config(optimizer_config)
        .build()
        .expect("linear road model builds")
}

fn main() {
    let config = LinearRoadConfig {
        roads: 1,
        segments_per_road: 20,
        duration: 1800, // 30 simulated minutes
        seed: 2016,
        base_cars: 2.0,
        peak_cars: 8.0,
        ..Default::default()
    };
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let oracle = expected_outputs(&events, sim.registry());
    println!(
        "stream: {} events over {} partitions",
        events.len(),
        oracle.per_partition.len()
    );
    println!(
        "oracle: {} zero tolls, {} real tolls, {} accident warnings",
        oracle.zero_tolls, oracle.real_tolls, oracle.accident_warnings
    );

    let mut results = Vec::new();
    for (label, mode) in [
        ("context-aware  (CAESAR) ", ExecutionMode::ContextAware),
        (
            "context-independent (CI)",
            ExecutionMode::ContextIndependent,
        ),
    ] {
        let mut system = build_system(mode, 1);
        let start = Instant::now();
        let report = system
            .run_stream(&mut VecStream::new(events.clone()))
            .expect("in-order stream");
        let run_time = start.elapsed();
        println!(
            "{label}: zero={} real={} warn={} | suspended plan-batches={} | run time {:.2} ms",
            report.outputs_of("ZeroToll"),
            report.outputs_of("TollNotification"),
            report.outputs_of("AccidentWarning"),
            report.plans_suspended,
            run_time.as_secs_f64() * 1e3,
        );
        assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
        assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
        assert_eq!(
            report.outputs_of("AccidentWarning"),
            oracle.accident_warnings
        );
        results.push(run_time);
    }
    println!(
        "CI / CA run time: {:.2}x",
        results[1].as_secs_f64() / results[0].as_secs_f64()
    );
    println!("both modes match the reference oracle ✓");
}
