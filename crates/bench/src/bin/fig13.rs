//! Figure 13 — context window distribution: max latency vs. number of
//! event queries under uniform vs. Poisson-positive-skew (windows at
//! the start of the run, where the ramping stream rate is low) vs.
//! Poisson-negative-skew (windows at the end, where the rate is high)
//! window placement.
//!
//! The context windows activate the suspendable workload; where they
//! fall relative to the rate ramp decides how much work coincides with
//! the high-rate phase.
//!
//! ```text
//! cargo run --release -p caesar-bench --bin fig13
//! ```

use caesar_bench::{measure, print_table};
use caesar_core::prelude::*;
use caesar_events::generator::WindowPlacement;
use caesar_linear_road::{build_lr_system_critical, LinearRoadConfig, SchedulePolicy, TrafficSim};

/// Simulated nanoseconds of arrival time per tick.
const TICK_NS: u64 = 200_000;

fn run(placement: WindowPlacement, replication: usize, seed: u64) -> u64 {
    let config = LinearRoadConfig {
        roads: 3,
        segments_per_road: 8,
        directions: 1,
        duration: 900,
        seed,
        base_cars: 1.0,
        peak_cars: 8.0, // strong ramp: placement matters
        schedule: SchedulePolicy::Placed {
            count: 2,
            length: 180,
            placement,
        },
        ..Default::default()
    };
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let mut system = build_lr_system_critical(
        replication,
        OptimizerConfig::default(),
        EngineConfig::default(),
    );
    measure("fig13", &mut system, events, TICK_NS)
        .latency
        .max_latency_ns
}

fn main() {
    let mut rows = Vec::new();
    for queries in [4usize, 8, 12, 16, 20] {
        let uniform = run(WindowPlacement::Uniform, queries, 41);
        let pos = run(WindowPlacement::PoissonPositiveSkew, queries, 41);
        let neg = run(WindowPlacement::PoissonNegativeSkew, queries, 41);
        rows.push(vec![
            queries.to_string(),
            format!("{:.3}", pos as f64 / 1e6),
            format!("{:.3}", neg as f64 / 1e6),
            format!("{:.3}", uniform as f64 / 1e6),
        ]);
    }
    print_table(
        "Figure 13: max latency (ms) vs queries, by context window placement",
        &[
            "queries",
            "Poisson +skew (early)",
            "Poisson -skew (late)",
            "uniform",
        ],
        &rows,
    );
    println!(
        "note: windows at the high-rate end of the ramp coincide the workload \
         with the heaviest traffic; see EXPERIMENTS.md for the comparison with \
         the paper's reported ordering."
    );
}
