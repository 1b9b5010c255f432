//! Figure 12 — efficiency of context-aware event stream analytics:
//! CAESAR (context-aware, CA) vs. the state-of-the-art
//! context-independent baseline (CI: every query always active, each
//! processing query privately re-deriving its context).
//!
//! (a) max latency vs. number of event queries per context window
//!     (paper: ≈8× at 10 queries on Linear Road, same win on the
//!     physical-activity data at 20);
//! (b) max latency vs. number of roads (≈9× at 7 roads);
//! (c) win ratio vs. context window length, annotated with the % of the
//!     stream covered by suspension-friendly windows (>3× above 80%
//!     coverage, ≈1 below 50%);
//! (d) win ratio vs. number of context windows (>2× above 80%).
//!
//! ```text
//! cargo run --release -p caesar-bench --bin fig12 [-- a|b|c|d]
//! ```

use caesar_bench::{measure, print_table, ratio, TICK_NS};
use caesar_core::prelude::*;
use caesar_events::generator::WindowPlacement;
use caesar_linear_road::{build_lr_system_critical, LinearRoadConfig, SchedulePolicy, TrafficSim};
use caesar_pam::{generate, pam_model, pam_registry, PamConfig};

/// Repeats (the paper averages three runs; we keep the minimum of the
/// max-latency, which is robust against OS scheduling spikes).
const REPEATS: usize = 3;

fn engine(mode: ExecutionMode) -> EngineConfig {
    EngineConfig::builder().mode(mode).build()
}

/// Busy nanoseconds per tick of a mode on this machine (min of three
/// as-fast-as-possible runs, like the paper's three repetitions).
fn busy_per_tick(mode: ExecutionMode, replication: usize, events: &[Event], duration: u64) -> f64 {
    (0..REPEATS)
        .map(|_| {
            let mut system =
                build_lr_system_critical(replication, OptimizerConfig::default(), engine(mode));
            measure("cal", &mut system, events.to_vec(), TICK_NS)
                .latency
                .busy
                .as_nanos() as u64
        })
        .min()
        .expect("repeats") as f64
        / duration as f64
}

/// Picks the arrival-clock scale at the geometric midpoint of the two
/// modes' per-tick busy times at the sweep's heaviest point: CAESAR
/// stays below capacity, the baseline overloads — the regime in which
/// the paper's latency constraint is meaningful (DESIGN.md,
/// substitution #4).
fn calibrate(replication: usize, events: &[Event], duration: u64) -> u64 {
    let ci = busy_per_tick(
        ExecutionMode::ContextIndependent,
        replication,
        events,
        duration,
    );
    // 80% of the baseline's average need: the baseline runs sustainably
    // overloaded while CAESAR's out-of-window cost is far below it.
    ((ci * 0.8) as u64).max(1_000)
}

fn lr_events(roads: u32, seed: u64, schedule: SchedulePolicy) -> (Vec<Event>, f64) {
    let config = LinearRoadConfig {
        roads,
        segments_per_road: 8,
        directions: 1,
        duration: 900,
        seed,
        base_cars: 3.0,
        peak_cars: 9.0,
        schedule,
        ..Default::default()
    };
    let mut sim = TrafficSim::new(config);
    let events = sim.generate();
    let coverage = sim.congestion_coverage();
    (events, coverage)
}

/// "2 critical non-overlapping context windows of length 3 minutes
/// process 10 event queries each. These queries can be suspended in
/// other contexts" (§7.3.1) — the windows cover only a small slice of
/// the run, so almost the whole workload is suspendable.
fn critical_windows() -> SchedulePolicy {
    SchedulePolicy::Placed {
        count: 2,
        length: 30,
        placement: WindowPlacement::Uniform,
    }
}

fn robust(mode: ExecutionMode, replication: usize, events: &[Event], tick_ns: u64) -> u64 {
    (0..REPEATS)
        .map(|_| {
            let mut system =
                build_lr_system_critical(replication, OptimizerConfig::default(), engine(mode));
            measure("run", &mut system, events.to_vec(), tick_ns)
                .latency
                .max_latency_ns
        })
        .min()
        .expect("repeats >= 1")
}

fn compare(events: Vec<Event>, replication: usize, tick_ns: u64) -> (u64, u64) {
    let ca = robust(ExecutionMode::ContextAware, replication, &events, tick_ns);
    let ci = robust(
        ExecutionMode::ContextIndependent,
        replication,
        &events,
        tick_ns,
    );
    (ca, ci)
}

fn part_a() {
    let mut rows = Vec::new();
    let (cal_events, _) = lr_events(3, 31, critical_windows());
    let tick_ns = calibrate(20, &cal_events, 900);
    println!("calibrated tick_ns = {tick_ns}");
    for queries in [2usize, 4, 6, 8, 10, 12, 14, 16, 18, 20] {
        let (events, _) = lr_events(3, 31, critical_windows());
        let (ca, ci) = compare(events, queries, tick_ns);
        rows.push(vec![
            queries.to_string(),
            format!("{:.3}", ca as f64 / 1e6),
            format!("{:.3}", ci as f64 / 1e6),
            ratio(ci, ca),
        ]);
    }
    print_table(
        "Figure 12(a): max latency (ms) vs event queries per context window (LR, 3 roads)",
        &["queries", "CA max (ms)", "CI max (ms)", "win ratio"],
        &rows,
    );

    // The PAM counterpart at 20 queries.
    let registry = pam_registry();
    let (events, _) = generate(
        &PamConfig {
            duration: 1800,
            ..Default::default()
        },
        &registry,
    );
    let build = |mode| {
        Caesar::builder()
            .model(pam_model(20))
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
            .engine_config(engine(mode))
            .build()
            .unwrap()
    };
    let pam_busy = |mode| {
        (0..REPEATS)
            .map(|_| {
                let mut system = build(mode);
                measure("PAM cal", &mut system, events.clone(), TICK_NS)
                    .latency
                    .busy
                    .as_nanos() as u64
            })
            .min()
            .expect("repeats") as f64
            / 1800.0
    };
    let pam_tick = ((pam_busy(ExecutionMode::ContextIndependent) * 0.8) as u64).max(1_000);
    let robust_pam = |mode| {
        (0..REPEATS)
            .map(|_| {
                let mut system = build(mode);
                measure("PAM", &mut system, events.clone(), pam_tick)
                    .latency
                    .max_latency_ns
            })
            .min()
            .expect("repeats")
    };
    let ca = robust_pam(ExecutionMode::ContextAware);
    let ci = robust_pam(ExecutionMode::ContextIndependent);
    println!(
        "PAM, 20 queries: CA {:.3} ms, CI {:.3} ms, win ratio {}",
        ca as f64 / 1e6,
        ci as f64 / 1e6,
        ratio(ci, ca)
    );
}

fn part_b() {
    let mut rows = Vec::new();
    let (cal_events, _) = lr_events(7, 32, critical_windows());
    let tick_ns = calibrate(10, &cal_events, 900);
    println!("calibrated tick_ns = {tick_ns}");
    for roads in 2..=7u32 {
        let (events, _) = lr_events(roads, 32, critical_windows());
        let (ca, ci) = compare(events, 10, tick_ns);
        rows.push(vec![
            roads.to_string(),
            format!("{:.3}", ca as f64 / 1e6),
            format!("{:.3}", ci as f64 / 1e6),
            ratio(ci, ca),
        ]);
    }
    print_table(
        "Figure 12(b): max latency (ms) vs number of roads (10 queries per window)",
        &["roads", "CA max (ms)", "CI max (ms)", "win ratio"],
        &rows,
    );
}

fn part_c() {
    let mut rows = Vec::new();
    let (cal_events, _) = lr_events(2, 33, critical_windows());
    let tick_ns = calibrate(10, &cal_events, 900);
    println!("calibrated tick_ns = {tick_ns}");
    for length in [90u64, 135, 180, 270, 360, 430] {
        let (events, coverage) = lr_events(
            2,
            33,
            SchedulePolicy::Placed {
                count: 2,
                length,
                placement: WindowPlacement::Uniform,
            },
        );
        let (ca, ci) = compare(events, 10, tick_ns);
        rows.push(vec![
            length.to_string(),
            format!("{:.0}%", (1.0 - coverage) * 100.0),
            ratio(ci, ca),
        ]);
    }
    print_table(
        "Figure 12(c): win ratio vs context window length (2 windows; % = stream \
         outside congestion, i.e. suspension opportunity)",
        &["window length (s)", "suspendable %", "win ratio CA/CI"],
        &rows,
    );
}

fn part_d() {
    let mut rows = Vec::new();
    let (cal_events, _) = lr_events(2, 34, critical_windows());
    let tick_ns = calibrate(10, &cal_events, 900);
    println!("calibrated tick_ns = {tick_ns}");
    for count in [1usize, 2, 4, 8, 12, 16] {
        let (events, coverage) = lr_events(
            2,
            34,
            SchedulePolicy::Placed {
                count,
                length: 45,
                placement: WindowPlacement::Uniform,
            },
        );
        let (ca, ci) = compare(events, 10, tick_ns);
        rows.push(vec![
            count.to_string(),
            format!("{:.0}%", (1.0 - coverage) * 100.0),
            ratio(ci, ca),
        ]);
    }
    print_table(
        "Figure 12(d): win ratio vs number of context windows (length 45 s each)",
        &["windows", "suspendable %", "win ratio CA/CI"],
        &rows,
    );
}

fn main() {
    let part = std::env::args().nth(1);
    match part.as_deref() {
        Some("a") => part_a(),
        Some("b") => part_b(),
        Some("c") => part_c(),
        Some("d") => part_d(),
        _ => {
            part_a();
            part_b();
            part_c();
            part_d();
        }
    }
}
