//! Figure 11 — CAESAR optimization techniques.
//!
//! (a) optimizer efficiency: CPU time of the exhaustive
//!     (context-independent) plan search vs. the context-aware greedy
//!     search, 16–24 operators, log2 seconds (the paper reports a
//!     2712× gap at 24 operators);
//! (b) L-factor: maximal latency vs. number of roads for the optimized
//!     context-aware plan vs. the non-optimized plan (busy-waiting: all
//!     plans always fed, context windows filtering event by event). The
//!     paper's constraint is 5 seconds; the optimized plan sustains 7
//!     roads, the non-optimized 5.
//!
//! ```text
//! cargo run --release -p caesar-bench --bin fig11 [-- a|b]
//! ```

use caesar_bench::latency::l_factor;
use caesar_bench::{measure, print_table, TICK_NS};
use caesar_core::prelude::*;
use caesar_linear_road::{build_lr_system, LinearRoadConfig, TrafficSim};
use caesar_optimizer::search::{exhaustive_search, greedy_search, synthetic_operators};
use std::time::Instant;

fn part_a() {
    let mut rows = Vec::new();
    for n in 16..=24 {
        let ops = synthetic_operators(n, 2016);
        let t0 = Instant::now();
        let ex = exhaustive_search(&ops, 100.0);
        let t_ex = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        let gr = greedy_search(&ops, 100.0);
        let t_gr = t1.elapsed().as_secs_f64().max(1e-9);
        rows.push(vec![
            n.to_string(),
            format!("{:.3}", t_ex.max(1e-9).log2()),
            format!("{:.3}", t_gr.log2()),
            format!("{:.0}", t_ex / t_gr),
            format!("{:.4}", gr.cost / ex.cost),
        ]);
    }
    print_table(
        "Figure 11(a): plan search CPU time (log2 seconds)",
        &[
            "operators",
            "exhaustive log2(s)",
            "greedy log2(s)",
            "speedup",
            "greedy/optimal cost",
        ],
        &rows,
    );
}

/// Repeats a measurement (the paper runs every experiment three times)
/// and keeps the smallest max-latency — robust against OS scheduling
/// spikes that would otherwise dominate underloaded runs.
fn robust_max_latency(
    replication: usize,
    optimizer: OptimizerConfig,
    mode: ExecutionMode,
    events: &[caesar_core::prelude::Event],
    tick_ns: u64,
) -> u64 {
    let engine_config = EngineConfig::builder().mode(mode).build();
    (0..3)
        .map(|_| {
            let mut system = build_lr_system(replication, optimizer, engine_config);
            measure("run", &mut system, events.to_vec(), tick_ns)
                .latency
                .max_latency_ns
        })
        .min()
        .expect("three runs")
}

fn part_b() {
    let mut rows = Vec::new();
    let mut optimized_points = Vec::new();
    let mut plain_points = Vec::new();
    // Runtime calibration: pick the arrival-clock scale from the
    // 2-road optimized run so the sweep brackets the overload knee on
    // any machine (see DESIGN.md, substitution #4).
    let mut tick_ns = 0u64;
    for roads in 2..=8u32 {
        let config = LinearRoadConfig {
            roads,
            segments_per_road: 10,
            directions: 1,
            duration: 900,
            seed: 21,
            base_cars: 2.0,
            peak_cars: 8.0,
            ..Default::default()
        };
        let mut sim = TrafficSim::new(config);
        let events = sim.generate();
        if tick_ns == 0 {
            // Calibrate: process as fast as possible three times, then
            // set the tick so the optimized 2-road run sits at ~15%
            // average utilization.
            let busy_ns = (0..3)
                .map(|_| {
                    let mut warm =
                        build_lr_system(10, OptimizerConfig::default(), EngineConfig::default());
                    let m = measure("warm", &mut warm, events.clone(), TICK_NS);
                    m.latency.busy.as_nanos() as u64
                })
                .min()
                .expect("three runs");
            tick_ns = (busy_ns * 7 / 900).max(1_000);
            println!("calibrated tick_ns = {tick_ns}");
        }
        // Busy-waiting only: the "non-optimized plan" comparison
        // isolates suspension and push-down, without the per-query
        // re-derivation of the full CI baseline (Figure 12's
        // subject). `BusyWait` on the unoptimized program leaves the
        // context window mid-chain, so every event traverses the
        // pattern and filter operators before being dropped — the
        // literal non-optimized plan of Figure 6(a).
        let (optimized, unoptimized) = (OptimizerConfig::default(), OptimizerConfig::unoptimized());
        let opt = robust_max_latency(10, optimized, ExecutionMode::ContextAware, &events, tick_ns);
        let plain = robust_max_latency(10, unoptimized, ExecutionMode::BusyWait, &events, tick_ns);
        optimized_points.push((roads, opt));
        plain_points.push((roads, plain));
        rows.push(vec![
            roads.to_string(),
            format!("{:.3}", opt as f64 / tick_ns as f64),
            format!("{:.3}", plain as f64 / tick_ns as f64),
        ]);
    }
    print_table(
        "Figure 11(b): max latency (simulated seconds) vs number of roads",
        &["roads", "optimized", "non-optimized"],
        &rows,
    );
    let constraint = 5 * tick_ns; // "5 seconds" in simulated time
    println!(
        "L-factor (5 s constraint): optimized = {} roads, non-optimized = {} roads",
        l_factor(&optimized_points, constraint),
        l_factor(&plain_points, constraint)
    );
}

fn main() {
    let part = std::env::args().nth(1);
    match part.as_deref() {
        Some("a") => part_a(),
        Some("b") => part_b(),
        _ => {
            part_a();
            part_b();
        }
    }
}
