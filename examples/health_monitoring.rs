//! Physical-activity health monitoring on the synthetic PAMAP2-like
//! data set: 14 subjects, contexts *rest* / *active* / *exercise*,
//! context-specific alerting.
//!
//! ```text
//! cargo run --release --example health_monitoring
//! ```

use caesar::pam::{generate, pam_model, pam_registry, PamConfig};
use caesar::prelude::*;

fn main() {
    let config = PamConfig {
        duration: 75 * 60, // the full 1h15 of PAMAP2
        ..Default::default()
    };
    let registry = pam_registry();
    let (events, schedules) = generate(&config, &registry);
    let exercise_windows: usize = schedules.iter().map(|s| s.exercise.len()).sum();
    println!(
        "stream: {} events, {} subjects, {} exercise windows",
        events.len(),
        config.subjects,
        exercise_windows
    );

    let mut system = Caesar::builder()
        .model(pam_model(2))
        .schema(
            "SensorReading",
            &[
                ("subject", AttrType::Int),
                ("sec", AttrType::Int),
                ("heart_rate", AttrType::Int),
                ("hand_acc", AttrType::Float),
                ("chest_acc", AttrType::Float),
            ],
        )
        .schema(
            "ActivityStarted",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        )
        .schema(
            "ActivityEnded",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        )
        .schema(
            "ExerciseStarted",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        )
        .schema(
            "ExerciseEnded",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        )
        .within(30)
        .build()
        .expect("PAM model builds");

    let report = system
        .run_stream(&mut VecStream::new(events))
        .expect("in-order stream");

    println!("--- outputs ---");
    for (ty, n) in &report.outputs_by_type {
        if !ty.starts_with("$match") {
            println!("{ty:32} {n}");
        }
    }
    println!(
        "suspended plan-batches: {} ({}% of routing decisions)",
        report.plans_suspended,
        (report.plans_suspended * 100) / (report.plans_fed + report.plans_suspended).max(1)
    );
}
