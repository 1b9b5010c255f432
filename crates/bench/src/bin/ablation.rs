//! Ablation study: the contribution of each optimization pass, measured
//! on the Linear Road workload by CPU (busy) time with one pass
//! disabled at a time.
//!
//! Knobs ablated (see `OptimizerConfig` / `EngineConfig`):
//! * context window push-down (§5.2, Theorem 1),
//! * batch-level suspension by the context-aware router (§6.2),
//! * predicate push-down into pattern operators,
//! * adjacent-filter merging,
//! * workload sharing (§5.3).
//!
//! ```text
//! cargo run --release -p caesar-bench --bin ablation
//! ```

use caesar_bench::{measure, print_table, TICK_NS};
use caesar_core::prelude::*;
use caesar_events::generator::WindowPlacement;
use caesar_linear_road::{build_lr_system_critical, LinearRoadConfig, SchedulePolicy, TrafficSim};

const REPEATS: usize = 3;

fn busy_ms(events: &[Event], optimizer: OptimizerConfig, engine: EngineConfig) -> (f64, u64) {
    let (busy, outputs) = (0..REPEATS)
        .map(|_| {
            let mut system = build_lr_system_critical(10, optimizer, engine);
            let m = measure("ablation", &mut system, events.to_vec(), TICK_NS);
            (
                m.latency.busy.as_nanos() as u64,
                m.report.outputs_of("TollNotification"),
            )
        })
        .min_by_key(|(busy, _)| *busy)
        .expect("repeats");
    (busy as f64 / 1e6, outputs)
}

fn main() {
    let mut sim = TrafficSim::new(LinearRoadConfig {
        roads: 3,
        segments_per_road: 8,
        directions: 1,
        duration: 900,
        seed: 61,
        base_cars: 3.0,
        peak_cars: 9.0,
        schedule: SchedulePolicy::Placed {
            count: 2,
            length: 60,
            placement: WindowPlacement::Uniform,
        },
        ..Default::default()
    });
    let events = sim.generate();
    println!(
        "workload: {} events, 10 critical queries per window",
        events.len()
    );

    let full_opt = OptimizerConfig::default();
    let engine_ca = EngineConfig::default();
    // Warm caches so the first measured row is not inflated.
    let _ = busy_ms(&events, full_opt, engine_ca);
    let (baseline_busy, baseline_outputs) = busy_ms(&events, full_opt, engine_ca);

    let mut rows = vec![vec![
        "full CAESAR".to_string(),
        format!("{baseline_busy:.1}"),
        "1.00".to_string(),
        baseline_outputs.to_string(),
    ]];

    let mut ablate = |label: &str, optimizer: OptimizerConfig, engine: EngineConfig| {
        let (busy, outputs) = busy_ms(&events, optimizer, engine);
        rows.push(vec![
            label.to_string(),
            format!("{busy:.1}"),
            format!("{:.2}", busy / baseline_busy),
            outputs.to_string(),
        ]);
    };

    ablate(
        "- context window push-down",
        OptimizerConfig {
            push_down_context_windows: false,
            ..full_opt
        },
        engine_ca,
    );
    ablate(
        "- predicate push-down",
        OptimizerConfig {
            push_predicates: false,
            ..full_opt
        },
        engine_ca,
    );
    ablate(
        "- filter merging",
        OptimizerConfig {
            merge_filters: false,
            ..full_opt
        },
        engine_ca,
    );
    ablate(
        "- workload sharing",
        full_opt,
        engine_ca.to_builder().sharing(false).build(),
    );
    ablate(
        "- batch suspension (busy-wait)",
        full_opt,
        engine_ca.to_builder().mode(ExecutionMode::BusyWait).build(),
    );
    ablate(
        "- everything (full CI baseline)",
        full_opt,
        engine_ca
            .to_builder()
            .mode(ExecutionMode::ContextIndependent)
            .sharing(false)
            .build(),
    );

    print_table(
        "Ablation: CPU (busy) time with one optimization disabled",
        &["configuration", "busy (ms)", "vs full", "tolls"],
        &rows,
    );
    println!(
        "note: the optimizer passes change cost, never results, so toll counts \
         match across those rows; the busy-wait row keeps stream-scoped pattern \
         state and could differ at window boundaries (§3.2)."
    );
}
