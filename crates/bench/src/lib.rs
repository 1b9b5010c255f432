//! Benchmark harness for the CAESAR evaluation (§7): shared measurement
//! utilities, the §7 queueing-latency model ([`latency`]), the synthetic
//! overlapping-context workload of §7.3.2, and table printing that
//! mirrors the paper's figures.
//!
//! Each figure of the paper has a dedicated binary in `src/bin/`
//! (`fig10` … `fig14`); `EXPERIMENTS.md` at the workspace root records
//! paper-vs-measured values.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod latency;
pub mod overlap;

use caesar_core::prelude::*;
use latency::LatencyTracker;
use std::time::Instant;

/// The arrival clock for runs that only need busy time: one tick is one
/// simulated millisecond.
pub const TICK_NS: u64 = 1_000_000;

/// One measured run: label → report.
#[derive(Debug, Clone)]
pub struct Measured {
    /// Configuration label.
    pub label: String,
    /// The engine's run report.
    pub report: RunReport,
    /// Wall-clock time of the whole run.
    pub wall_secs: f64,
    /// The queueing model fed with the run's service intervals.
    pub latency: LatencyTracker,
}

/// Runs a time-ordered stream through a system, measuring wall time and
/// feeding the queueing model at `tick_ns` simulated nanoseconds per
/// tick. Each ingest that advances the stream's timestamp — the only
/// kind that executes transactions, those of the previous timestamp —
/// is timed as one service interval charged to that previous
/// timestamp, and so is the end-of-stream [`Engine::drain`], which
/// executes the last one (the report is built off the clock).
///
/// [`Engine::drain`]: caesar_runtime::Engine::drain
///
/// # Panics
/// If the stream is out of order.
pub fn measure(
    label: impl Into<String>,
    system: &mut CaesarSystem,
    events: Vec<Event>,
    tick_ns: u64,
) -> Measured {
    let mut latency = LatencyTracker::new(tick_ns);
    let mut progress: Option<Time> = None;
    let start = Instant::now();
    for event in events {
        let t = event.time();
        let advanced_from = progress.filter(|&p| t > p);
        let service = advanced_from.map(|_| Instant::now());
        system
            .ingest(event)
            .expect("benchmark streams are in order");
        if let (Some(arrival), Some(service)) = (advanced_from, service) {
            latency.record(arrival, service.elapsed());
        }
        progress = Some(t);
    }
    let service = Instant::now();
    system.engine.drain();
    if let Some(arrival) = progress {
        latency.record(arrival, service.elapsed());
    }
    let report = system.finish();
    Measured {
        label: label.into(),
        report,
        wall_secs: start.elapsed().as_secs_f64(),
        latency,
    }
}

/// Prints a figure-style table: a title line, a header row, then rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .max()
                .unwrap_or(0)
                .max(h.len())
        })
        .collect();
    let fmt_row = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(headers.iter().map(|s| (*s).to_string()).collect())
    );
    for row in rows {
        println!("{}", fmt_row(row.clone()));
    }
}

/// Milliseconds with two decimals.
#[must_use]
pub fn ms(ns: u64) -> String {
    format!("{:.2}", ns as f64 / 1e6)
}

/// A ratio with two decimals.
#[must_use]
pub fn ratio(num: u64, den: u64) -> String {
    if den == 0 {
        "inf".to_string()
    } else {
        format!("{:.2}", num as f64 / den as f64)
    }
}
