//! Clickstream funnel benchmark: context-aware vs context-insensitive
//! execution and a sharing vs non-sharing engine over a Zipf-skewed
//! session-state workload with ≥ 100k user partitions.
//!
//! The workload is the `caesar-clickstream` substrate: per-user web
//! sessions whose state (browsing / engaged / abandoning / bot_suspect)
//! is the application context, with funnel-conversion,
//! cart-abandonment (negation + WITHIN) and bot-detection SEQ queries
//! registered per state. Two axes are compared, each sequentially and
//! hash-sharded:
//!
//! * **CA vs CI** — the same program run context-aware (queries
//!   suspended outside their session state) vs context-independent
//!   (every query always active, contexts privately re-derived). The
//!   CAESAR claim: suspension pays exactly when most partitions sit in
//!   states most queries don't watch.
//! * **shared vs unshared** — context-aware execution with
//!   `EngineConfig::sharing` on (the default: every eligible
//!   shared-prefix group installed) vs off (per-query pattern state).
//!   Replicated funnel queries differ only in a predicate on the last
//!   pattern variable, so the `SEQ` prefixes stay identical and sharing
//!   deduplicates the dominant step-0/step-1 admission work.
//!
//! Both sides of each pair run in this process over the same pre-built
//! stream, in back-to-back pairs that alternate which side goes first
//! (the `hotpath` bench methodology); the reported speedup is the median
//! per-pair ratio. Warmup runs double as the correctness pin: every
//! variant must emit the same number of outputs.
//!
//! ```text
//! cargo run --release -p caesar-bench --bin clickstream
//! ```
//!
//! Results are written to `BENCH_clickstream.json`; EXPERIMENTS.md
//! records a committed run. The CI `clickstream` job runs this and
//! archives the JSON.

use caesar_algebra::translate::{translate_query_set, TranslateOptions};
use caesar_bench::print_table;
use caesar_clickstream::{
    clickstream_model, clickstream_registry, generate, ClickConfig, ClickSummary, DEFAULT_WITHIN,
    QUERIES_PER_REPLICATION,
};
use caesar_core::prelude::*;
use caesar_optimizer::{OptimizedProgram, Optimizer};
use caesar_query::QuerySet;
use caesar_runtime::{run_mode, ModeSpec};
use std::time::Instant;

/// Model replications per workload row (5 queries each → 10 and 15
/// queries, inside the issue's 8–16 band).
const FLEETS: [usize; 2] = [2, 3];
/// Measurement pairs per comparison (median ratio is reported).
const PAIRS: usize = 3;
/// Shard count for the sharded rows.
const SHARDS: usize = 4;

/// The ≥ 100k-partition Zipf stream: a one-million-user key space,
/// 105k sessions with a 101k distinct-user floor, a heavy-headed
/// `s = 1.2` skew on the rest, and ids scattered over the full `u32`
/// space so the sparse partition structures are on the hot path.
fn stream(registry: &SchemaRegistry) -> (Vec<Event>, ClickSummary) {
    let config = ClickConfig {
        users: 1_000_000,
        sessions: 105_000,
        coverage_floor: 101_000,
        zipf_s: 1.2,
        seed: 47,
        bot_fraction: 0.02,
        buy_fraction: 0.15,
        abandon_fraction: 0.15,
        min_views: 1,
        max_views: 2,
        mean_gap: 6,
        scatter_ids: true,
        ..ClickConfig::default()
    };
    let (events, summary) = generate(&config, registry);
    assert!(
        summary.partitions_touched >= 100_000,
        "bench stream must hold the 100k-partition floor, got {}",
        summary.partitions_touched
    );
    (events, summary)
}

fn build(replication: usize) -> (OptimizedProgram, SchemaRegistry) {
    let model = clickstream_model(replication);
    let qs = QuerySet::from_model(&model).expect("query set");
    let mut reg = clickstream_registry();
    let options = TranslateOptions {
        default_within: DEFAULT_WITHIN,
    };
    let t = translate_query_set(&qs, &mut reg, &options).expect("translate");
    let program = Optimizer::default().optimize(t, &reg);
    (program, reg)
}

/// One timed run. Returns `(outputs, elapsed seconds)`; the output
/// count doubles as the cross-variant correctness check.
fn timed_run(
    program: &OptimizedProgram,
    reg: &SchemaRegistry,
    mode: ExecutionMode,
    sharing: bool,
    shards: usize,
    events: &[Event],
) -> (u64, f64) {
    let config = EngineConfig::builder().mode(mode).sharing(sharing).build();
    let spec = ModeSpec {
        label: "bench".into(),
        config,
        shards,
        optimized: true,
        restart_after: None,
    };
    let start = Instant::now();
    let (report, _, _) = run_mode(program, reg, &spec, events).expect("bench run");
    (report.events_out, start.elapsed().as_secs_f64())
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_unstable_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Interleaved back-to-back pairs of `base` (slow side) vs `faster`
/// (hypothesized-fast side); returns `(base ev/s, fast ev/s, median
/// per-pair base/fast ratio)`.
#[allow(clippy::type_complexity)]
fn paired(
    n_events: f64,
    base: &dyn Fn() -> (u64, f64),
    fast: &dyn Fn() -> (u64, f64),
) -> (f64, f64, f64) {
    let (mut base_evs, mut fast_evs, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    for pair in 0..PAIRS {
        let (b, f) = if pair % 2 == 0 {
            let b = base().1;
            (b, fast().1)
        } else {
            let f = fast().1;
            (base().1, f)
        };
        base_evs.push(n_events / b);
        fast_evs.push(n_events / f);
        ratios.push(b / f);
    }
    (
        median(&mut base_evs),
        median(&mut fast_evs),
        median(&mut ratios),
    )
}

struct Row {
    queries: usize,
    topology: &'static str,
    events: usize,
    partitions: usize,
    outputs: u64,
    ci_evs: f64,
    ca_evs: f64,
    ca_ci_speedup: f64,
    unshared_evs: f64,
    shared_evs: f64,
    sharing_speedup: f64,
}

fn bench_fleet(replication: usize, events: &[Event], summary: &ClickSummary) -> Vec<Row> {
    let (program, reg) = build(replication);
    let run = |mode, sharing, shards| timed_run(&program, &reg, mode, sharing, shards, events);

    // Warmup — and the correctness pin: neither context-aware
    // suspension, sharing, nor sharding may change what comes out. (The
    // scale test pins byte-identical outputs; counts suffice here.)
    let (ca_out, _) = run(ExecutionMode::ContextAware, true, 0);
    let (ci_out, _) = run(ExecutionMode::ContextIndependent, true, 0);
    let (plain_out, _) = run(ExecutionMode::ContextAware, false, 0);
    let (sharded_out, _) = run(ExecutionMode::ContextAware, true, SHARDS);
    assert_eq!(ca_out, ci_out, "CI mode changed the output count");
    assert_eq!(ca_out, plain_out, "sharing changed the output count");
    assert_eq!(ca_out, sharded_out, "sharding changed the output count");
    assert!(ca_out > 0, "workload produced no outputs");

    let n = events.len() as f64;
    [0usize, SHARDS]
        .into_iter()
        .map(|shards| {
            let ca = || run(ExecutionMode::ContextAware, true, shards);
            let ci = || run(ExecutionMode::ContextIndependent, true, shards);
            let plain = || run(ExecutionMode::ContextAware, false, shards);
            let (ci_evs, ca_evs, ca_ci_speedup) = paired(n, &ci, &ca);
            let (unshared_evs, shared_evs, sharing_speedup) = paired(n, &plain, &ca);
            Row {
                queries: replication * QUERIES_PER_REPLICATION,
                topology: if shards == 0 {
                    "sequential"
                } else {
                    "sharded-4"
                },
                events: events.len(),
                partitions: summary.partitions_touched,
                outputs: ca_out,
                ci_evs,
                ca_evs,
                ca_ci_speedup,
                unshared_evs,
                shared_evs,
                sharing_speedup,
            }
        })
        .collect()
}

fn write_json(rows: &[Row]) {
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "  {{\"queries\": {}, \"topology\": \"{}\", \"events\": {}, \
                 \"partitions\": {}, \"outputs\": {}, \
                 \"ci_events_per_sec\": {:.1}, \"ca_events_per_sec\": {:.1}, \
                 \"ca_vs_ci_speedup\": {:.3}, \
                 \"unshared_events_per_sec\": {:.1}, \"shared_events_per_sec\": {:.1}, \
                 \"sharing_speedup\": {:.3}}}",
                r.queries,
                r.topology,
                r.events,
                r.partitions,
                r.outputs,
                r.ci_evs,
                r.ca_evs,
                r.ca_ci_speedup,
                r.unshared_evs,
                r.shared_evs,
                r.sharing_speedup
            )
        })
        .collect();
    let json = format!(
        "{{\n\"benchmark\": \"clickstream funnel: context-aware vs context-independent, \
         EngineConfig::sharing on vs off, over 1M-user Zipf sessions\",\n\
         \"unit\": \"events per second of wall time; median of interleaved back-to-back \
         pairs, speedup = median per-pair ratio\",\n\
         \"zipf_s\": 1.2,\n\
         \"rows\": [\n{}\n]\n}}\n",
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_clickstream.json", &json).expect("write BENCH_clickstream.json");
    println!("\nwrote BENCH_clickstream.json");
}

fn main() {
    let registry = clickstream_registry();
    let (events, summary) = stream(&registry);
    println!(
        "stream: {} events, {} partitions",
        events.len(),
        summary.partitions_touched
    );
    let rows: Vec<Row> = FLEETS
        .iter()
        .flat_map(|&r| bench_fleet(r, &events, &summary))
        .collect();
    print_table(
        "Clickstream funnel: CA vs CI and shared vs unshared (median of interleaved pairs)",
        &[
            "queries",
            "topology",
            "partitions",
            "outputs",
            "CI ev/s",
            "CA ev/s",
            "CA/CI",
            "unshared ev/s",
            "shared ev/s",
            "sharing",
        ],
        &rows
            .iter()
            .map(|r| {
                vec![
                    r.queries.to_string(),
                    r.topology.to_string(),
                    r.partitions.to_string(),
                    r.outputs.to_string(),
                    format!("{:.0}", r.ci_evs),
                    format!("{:.0}", r.ca_evs),
                    format!("{:.2}x", r.ca_ci_speedup),
                    format!("{:.0}", r.unshared_evs),
                    format!("{:.0}", r.shared_evs),
                    format!("{:.2}x", r.sharing_speedup),
                ]
            })
            .collect::<Vec<_>>(),
    );
    write_json(&rows);
}
