//! Figure 14 — shared workload of overlapping context windows: the
//! context window grouping of Listing 1 (shared execution of identical
//! queries across overlapping windows) vs. the non-shared default.
//!
//! (a) max latency vs. maximal number of overlapping windows
//!     (paper: ≈10× at 45);
//! (b) max latency vs. length of the window overlap (≈6× at 15 min);
//! (c) max latency vs. shared workload size — queries per window
//!     (≈9× at 10).
//!
//! ```text
//! cargo run --release -p caesar-bench --bin fig14 [-- a|b|c]
//! ```

use caesar_bench::overlap::{build_system, overlap_stream, OverlapConfig};
use caesar_bench::{measure, print_table, ratio, TICK_NS};

const REPEATS: usize = 3;

fn run_pair(config: &OverlapConfig) -> (u64, u64, f64) {
    let probe = build_system(config, true);
    let events = overlap_stream(config, &probe);
    drop(probe);
    // Calibrate the arrival clock per row at the geometric midpoint of
    // the two strategies' per-tick busy times: the non-shared baseline
    // runs overloaded, the shared plan has headroom, and the measured
    // gain tracks the true work ratio instead of saturating.
    let busy = |sharing: bool| {
        (0..REPEATS)
            .map(|_| {
                let mut system = build_system(config, sharing);
                measure("cal", &mut system, events.clone(), TICK_NS)
                    .latency
                    .busy
                    .as_nanos() as u64
            })
            .min()
            .expect("repeats") as f64
            / config.duration() as f64
    };
    let (busy_shared, busy_plain) = (busy(true), busy(false));
    let cpu_gain = busy_plain / busy_shared.max(1.0);
    let tick_ns = ((busy_shared * busy_plain).sqrt() as u64).max(1_000);
    let robust = |sharing: bool| {
        (0..REPEATS)
            .map(|_| {
                let mut system = build_system(config, sharing);
                measure("run", &mut system, events.clone(), tick_ns)
                    .latency
                    .max_latency_ns
            })
            .min()
            .expect("repeats")
    };
    (robust(true), robust(false), cpu_gain)
}

fn part_a() {
    let mut rows = Vec::new();
    for overlapping in [5usize, 15, 25, 35, 45] {
        let length = 90;
        let config = OverlapConfig {
            windows: overlapping,
            length,
            step: (length / overlapping as u64).max(1),
            queries_per_context: 4,
            unique_queries_per_context: 0,
            readings_per_tick: 3,
            tail: 30,
            seed: 51,
        };
        let (shared, plain, cpu_gain) = run_pair(&config);
        rows.push(vec![
            config.max_simultaneous().to_string(),
            format!("{:.3}", shared as f64 / 1e6),
            format!("{:.3}", plain as f64 / 1e6),
            ratio(plain, shared),
            format!("{cpu_gain:.2}"),
        ]);
    }
    print_table(
        "Figure 14(a): max latency (ms) vs number of overlapping context windows",
        &[
            "overlapping",
            "shared (ms)",
            "non-shared (ms)",
            "latency gain",
            "cpu gain",
        ],
        &rows,
    );
}

fn part_b() {
    let mut rows = Vec::new();
    // 30 windows of length 60 ticks (≈15 scaled minutes); vary the
    // overlap of consecutive windows from 0 to 56 ticks.
    for overlap in [0u64, 8, 16, 24, 40, 56] {
        let length = 60;
        let config = OverlapConfig {
            windows: 30,
            length,
            step: length - overlap,
            queries_per_context: 4,
            unique_queries_per_context: 0,
            readings_per_tick: 3,
            tail: 30,
            seed: 52,
        };
        let (shared, plain, cpu_gain) = run_pair(&config);
        rows.push(vec![
            overlap.to_string(),
            format!("{:.3}", shared as f64 / 1e6),
            format!("{:.3}", plain as f64 / 1e6),
            ratio(plain, shared),
            format!("{cpu_gain:.2}"),
        ]);
    }
    print_table(
        "Figure 14(b): max latency (ms) vs context window overlap (ticks)",
        &[
            "overlap",
            "shared (ms)",
            "non-shared (ms)",
            "latency gain",
            "cpu gain",
        ],
        &rows,
    );
}

fn part_c() {
    let mut rows = Vec::new();
    for queries in [2usize, 4, 6, 8, 10] {
        let config = OverlapConfig {
            windows: 30,
            length: 60,
            step: 6, // deep overlap: ~11 windows open at once
            queries_per_context: queries,
            unique_queries_per_context: 1,
            readings_per_tick: 3,
            tail: 30,
            seed: 53,
        };
        let (shared, plain, cpu_gain) = run_pair(&config);
        rows.push(vec![
            queries.to_string(),
            format!("{:.3}", shared as f64 / 1e6),
            format!("{:.3}", plain as f64 / 1e6),
            ratio(plain, shared),
            format!("{cpu_gain:.2}"),
        ]);
    }
    print_table(
        "Figure 14(c): max latency (ms) vs shared workload size (queries per window)",
        &[
            "queries",
            "shared (ms)",
            "non-shared (ms)",
            "latency gain",
            "cpu gain",
        ],
        &rows,
    );
}

fn main() {
    let part = std::env::args().nth(1);
    match part.as_deref() {
        Some("a") => part_a(),
        Some("b") => part_b(),
        Some("c") => part_c(),
        _ => {
            part_a();
            part_b();
            part_c();
        }
    }
}
