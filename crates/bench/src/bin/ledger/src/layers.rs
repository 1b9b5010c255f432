//! The traced run: per-layer numbers, measured from outside. Four
//! sources, none of which changes the program: the set-up stages timed
//! one by one; single layers replayed alone over the workload's own
//! stream through their public functions; spans this benchmark records
//! around its calls into the engine; and the engine's own stage timers
//! and counters read from `RunReport.metrics` at
//! `ObservabilityLevel::Spans`.
//!
//! Which end-to-end metric each should move, on which workload:
//! set-up split → `setup_s` everywhere; `events.codec.*`,
//! `server.protocol.*`, `server.queue.*` → `throughput_eps` on `served`
//! and nothing elsewhere; `events.reorder.*` → throughput and p50 on
//! `disorder_strict`; `events.queue.*` → throughput on `click_sparse`;
//! `recovery.*`, `runtime.state.*` → `peak_rss_mb` on `click_sparse`;
//! stage `processing` → `lr_dense`, `shared_prefix`; `distributor`,
//! `scheduler`, `advance_time`, `gc_runs` → `click_sparse`; `reorder`,
//! `scheduler` → `disorder_strict`; `speculate.*` → `disorder_spec`
//! only.

use crate::embedded::{self, Built, Inputs, Latency, Pass};
use crate::measure::{median, quantile, Metrics};
use crate::trace::Tracer;
use crate::workloads::Spec;
use crate::{Args, Outcome};
use bytes::BytesMut;
use caesar_algebra::translate::{translate_query_set, TranslateOptions};
use caesar_core::prelude::*;
use caesar_events::{codec, PartitionedQueues, ReorderBuffer};
use caesar_optimizer::Optimizer;
use caesar_query::QuerySet;
use caesar_runtime::Engine;
use caesar_server::{BoundedQueue, Request, Response};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

/// The per-layer metrics, as `BENCHMARK.json` lists them. A metric of a
/// layer the workload does not exercise reads 0.
pub const PER_LAYER: [(&str, &str); 63] = [
    ("query.parse_us", "us"),
    ("algebra.translate_us", "us"),
    ("optimizer.optimize_us", "us"),
    ("runtime.engine_new_us", "us"),
    ("server.spawn_to_ready_ms", "ms"),
    ("events.codec.encode_ns_per_event", "ns"),
    ("events.codec.decode_ns_per_event", "ns"),
    ("events.codec.bytes_per_event", "B"),
    ("server.protocol.ingest_encode_ns_per_event", "ns"),
    ("server.protocol.ingest_decode_ns_per_event", "ns"),
    ("server.protocol.outputs_encode_ns_per_output", "ns"),
    ("server.queue.push_pop_ns", "ns"),
    ("events.reorder.ns_per_event", "ns"),
    ("events.reorder.peak_buffered", "count"),
    ("events.queue.ns_per_event", "ns"),
    ("events.queue.partitions", "count"),
    ("recovery.snapshot_ms", "ms"),
    ("recovery.snapshot_bytes", "B"),
    ("recovery.restore_ms", "ms"),
    ("runtime.state.bytes_per_partition", "B"),
    ("runtime.engine.ingest_ns_per_event", "ns"),
    ("runtime.engine.ingest_call_p99_us", "us"),
    ("runtime.engine.finish_ms", "ms"),
    ("runtime.engine.drain_ns_per_output", "ns"),
    ("runtime.stage.distributor_ns_per_event", "ns"),
    ("runtime.stage.reorder_ns_per_event", "ns"),
    ("runtime.stage.scheduler_ns_per_event", "ns"),
    ("runtime.stage.derivation_ns_per_event", "ns"),
    ("runtime.stage.transitions_ns_per_event", "ns"),
    ("runtime.stage.router_ns_per_event", "ns"),
    ("runtime.stage.processing_ns_per_event", "ns"),
    ("runtime.stage.advance_time_ns_per_event", "ns"),
    ("runtime.txn.count", "count"),
    ("runtime.txn.mean_events", "count"),
    ("runtime.scheduler.queue_depth_peak", "count"),
    ("runtime.gc_runs", "count"),
    ("runtime.router.suspended_share", "share"),
    ("algebra.context_window.admit_ratio", "ratio"),
    ("algebra.pattern.match_ratio", "ratio"),
    ("algebra.pattern.partials_peak", "count"),
    ("algebra.kernel.coverage", "ratio"),
    ("runtime.speculate.retraction_rate", "ratio"),
    ("runtime.speculate.rebuilds", "count"),
    ("runtime.speculate.pool_reuse", "count"),
    ("client.encode_ns_per_event", "ns"),
    ("client.write_ns_per_event", "ns"),
    ("client.outputs_decode_ns_per_output", "ns"),
    ("server.ack_rtt_p50_us", "us"),
    ("server.ack_rtt_p99_us", "us"),
    ("server.ack_eps", "1/s"),
    ("server.bytes_in_per_event", "B"),
    ("server.bytes_out_per_output", "B"),
    ("server.queue_depth_peak", "count"),
    ("server.rejected_frames", "count"),
    ("server.vs_embedded_ratio", "ratio"),
    ("server.sustained_rate_eps", "1/s"),
    ("bench.gen_s", "s"),
    ("bench.gen_lag_p99_us", "us"),
    ("bench.backlog_end_events", "count"),
    ("bench.unattributed_share", "share"),
    ("bench.trace_overhead_share", "share"),
    ("bench.out_latency_p99_us", "us"),
    ("bench.out_latency_p999_us", "us"),
];

/// Events of the stream a single-layer replay runs over.
const REPLAY_EVENTS: usize = 50_000;
/// Events that build the state `replay_state` snapshots. (A whole
/// `click_sparse` pass leaves half a gigabyte of snapshot; the prefix
/// keeps the traced run inside its time box, and bytes per partition
/// is a ratio.)
const STATE_EVENTS: usize = 20_000;
/// The engine stages, children of `distributor` in the engine's own
/// span tree (self time = stage − children).
const STAGES: [&str; 8] = [
    "distributor",
    "reorder",
    "scheduler",
    "derivation",
    "transitions",
    "router",
    "processing",
    "advance_time",
];

/// How well the open loop held its schedule.
pub fn push_latency_health(metrics: &mut Metrics, latency: &Latency) {
    metrics.push(
        "bench.out_latency_samples",
        "count",
        latency.samples.len() as f64,
    );
    // Whole-phase percentiles over every sample: what a user of this
    // box saw, the box's own pauses included (not gated: they read
    // 28 µs or 19 ms on the same binary).
    metrics.push(
        "bench.out_latency_p99_us",
        "us",
        latency.percentile_us(0.99),
    );
    metrics.push(
        "bench.out_latency_p999_us",
        "us",
        latency.p999().unwrap_or(0.0),
    );
    metrics.push(
        "bench.gen_lag_p99_us",
        "us",
        quantile(&latency.lag, 0.99) / 1000.0,
    );
    metrics.push(
        "bench.backlog_end_events",
        "count",
        latency.backlog_end as f64,
    );
}

/// The predictions this benchmark was designed around, checked against
/// the traced run at hand.
pub fn print_predictions(workload: &str, metrics: &Metrics) {
    let value = |name: &str| metrics.get(name).unwrap_or(0.0);
    let stage = |s: &str| value(&format!("runtime.stage.{s}_ns_per_event"));
    let processing_largest = STAGES.iter().all(|s| stage("processing") >= stage(s));
    let reorder_share =
        value("events.reorder.ns_per_event") / value("runtime.engine.ingest_ns_per_event");
    let checks = match workload {
        "lr_dense" => vec![
            ("processing is the largest engine stage", processing_largest),
            (
                "the reorder buffer costs under 1 % of ingest time",
                reorder_share < 0.01,
            ),
        ],
        "click_sparse" => vec![(
            "processing is not the largest engine stage",
            !processing_largest,
        )],
        "disorder_strict" => vec![(
            "the reorder buffer is visible (over 1 % of ingest time)",
            reorder_share > 0.01,
        )],
        "served" => vec![(
            "served throughput is below embedded on the same stream",
            value("server.vs_embedded_ratio") < 1.0,
        )],
        _ => Vec::new(),
    };
    for (what, held) in checks {
        println!(
            "# prediction {}: {what}",
            if held { "held" } else { "MISSED" }
        );
    }
}

/// The traced embedded run.
pub fn traced_embedded(spec: &Spec, inputs: &Inputs, args: &Args) -> Outcome {
    println!("# measuring on CPU {:?}", crate::measure::pin_to_last_cpu());
    let mut metrics = Metrics::default();
    setup_split(spec, &mut metrics, if args.smoke { 3 } else { 20 });

    let built = embedded::build(spec);
    let off = embedded::engine_config(spec, ObservabilityLevel::Off);
    let spans = embedded::engine_config(spec, ObservabilityLevel::Spans);
    // One pass first, off the books: a fresh heap makes the first pass
    // slower, which would otherwise read as negative tracing overhead.
    let warm_up = embedded::capacity_phase(&built, off, &inputs.events, 0.0, 1, None);
    let untraced =
        embedded::capacity_phase(&built, off, &inputs.events, args.seconds * 0.25, 1, None);
    let mut tracer = Tracer::new();
    let traced = embedded::capacity_phase(
        &built,
        spans,
        &inputs.events,
        args.seconds * 0.35,
        1,
        Some(&mut tracer),
    );
    let latency = embedded::latency_phase(
        spec,
        &built,
        off,
        inputs,
        args.seconds * 0.2,
        embedded::Scratch::new(inputs),
    );

    push_span_metrics(&mut metrics, &mut tracer, &traced);
    push_stage_metrics(&mut metrics, traced.last().expect("at least one pass"));
    metrics.push(
        "bench.trace_overhead_share",
        "share",
        1.0 - embedded::throughput(&traced) / embedded::throughput(&untraced),
    );
    push_latency_health(&mut metrics, &latency);
    replay_layers(spec, &built, inputs, &mut metrics);
    replay_state(spec, &built, inputs, &mut metrics);

    let trace_path = crate::scratch_dir().join(format!("{}.trace.json", spec.name));
    match tracer.write_json(&trace_path) {
        Ok(()) => println!(
            "# {} spans written to {}",
            tracer.spans.len(),
            trace_path.display()
        ),
        Err(e) => println!("# trace not written to {}: {e}", trace_path.display()),
    }

    let all: Vec<&Pass> = warm_up.iter().chain(&untraced).chain(&traced).collect();
    let digests: Vec<_> = all
        .iter()
        .map(|p| &p.digest)
        .chain(&latency.digests)
        .collect();
    let (wrong, notes) = embedded::verify(spec, &built, inputs, &digests);
    Outcome {
        metrics,
        attempted: all.iter().map(|p| p.events).sum::<u64>() + latency.events,
        failed: all.iter().map(|p| p.failed).sum::<u64>() + latency.failed + wrong,
        notes,
    }
}

/// Times each set-up stage by itself, through the same public
/// functions `CaesarBuilder::build` calls, median of `builds`.
pub fn setup_split(spec: &Spec, metrics: &mut Metrics, builds: usize) {
    let (mut parse, mut translate, mut optimize, mut engine_new) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let us = |start: Instant| start.elapsed().as_secs_f64() * 1e6;
    for _ in 0..builds {
        let start = Instant::now();
        let model = caesar_query::parse_model(&spec.model_text).expect("model parses");
        parse.push(us(start));

        let mut registry = spec.inputs.clone();
        let options = TranslateOptions {
            default_within: spec.within(),
        };
        let start = Instant::now();
        let query_set = QuerySet::from_model(&model).expect("query set");
        let translation =
            translate_query_set(&query_set, &mut registry, &options).expect("model translates");
        translate.push(us(start));

        let start = Instant::now();
        let program = Optimizer::default().optimize(translation, &registry);
        optimize.push(us(start));

        let start = Instant::now();
        let engine = Engine::new(program, &registry, EngineConfig::default());
        engine_new.push(us(start));
        drop(engine);
    }
    metrics.push("query.parse_us", "us", median(&mut parse));
    metrics.push("algebra.translate_us", "us", median(&mut translate));
    metrics.push("optimizer.optimize_us", "us", median(&mut optimize));
    metrics.push("runtime.engine_new_us", "us", median(&mut engine_new));
}

/// Numbers from the spans the benchmark recorded around its engine
/// calls, and the share of the passes' wall time no layer span covers.
fn push_span_metrics(metrics: &mut Metrics, tracer: &mut Tracer, passes: &[Pass]) {
    let totals = tracer.totals();
    let total = |name: &str| totals.get(name).map_or(0, |t| t.0) as f64;
    let self_time = |name: &str| totals.get(name).map_or(0, |t| t.1) as f64;
    let events: u64 = passes.iter().map(|p| p.events).sum();
    let outputs: u64 = passes.iter().map(|p| p.outputs).sum();
    metrics.push(
        "runtime.engine.ingest_ns_per_event",
        "ns",
        total("runtime.engine.ingest") / events as f64,
    );
    tracer.call_ns.sort_unstable();
    metrics.push(
        "runtime.engine.ingest_call_p99_us",
        "us",
        quantile(&tracer.call_ns, 0.99) / 1000.0,
    );
    metrics.push(
        "runtime.engine.finish_ms",
        "ms",
        total("runtime.engine.finish") / passes.len() as f64 / 1e6,
    );
    metrics.push(
        "runtime.engine.drain_ns_per_output",
        "ns",
        total("runtime.engine.drain") / outputs.max(1) as f64,
    );
    // The pass and frame spans are the harness's own glue: what they do
    // not hand to a named layer is unattributed.
    metrics.push(
        "bench.unattributed_share",
        "share",
        (self_time("bench.pass") + self_time("bench.frame")) / total("bench.pass"),
    );
}

/// Stage self-times and counters from the engine's own registry.
fn push_stage_metrics(metrics: &mut Metrics, pass: &Pass) {
    let snapshot = &pass.report.metrics;
    let events = pass.events as f64;
    let stage_ns = |name: &str| snapshot.stages.get(name).map_or(0, |h| h.sum) as f64;
    let children: f64 = STAGES[1..].iter().map(|s| stage_ns(s)).sum();
    let mut largest = ("", 0.0);
    for stage in STAGES {
        let ns = if stage == "distributor" {
            (stage_ns(stage) - children).max(0.0)
        } else {
            stage_ns(stage)
        };
        if ns > largest.1 {
            largest = (stage, ns);
        }
        metrics.push(
            format!("runtime.stage.{stage}_ns_per_event"),
            "ns",
            ns / events,
        );
    }
    println!("# largest engine stage by self time: {}", largest.0);

    let counter = |name: &str| snapshot.counters.get(name).copied().unwrap_or(0) as f64;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    metrics.push(
        "runtime.txn.count",
        "count",
        counter("transactions_executed"),
    );
    metrics.push(
        "runtime.txn.mean_events",
        "count",
        ratio(snapshot.batch_sizes.sum, snapshot.batch_sizes.count),
    );
    metrics.push(
        "runtime.scheduler.queue_depth_peak",
        "count",
        snapshot.queue_depth_peak as f64,
    );
    metrics.push("runtime.gc_runs", "count", counter("gc_runs"));

    let contexts = snapshot.contexts.values();
    let suspended: u64 = contexts.clone().map(|c| c.suspended_ticks).sum();
    let active: u64 = contexts.clone().map(|c| c.active_ticks).sum();
    let admitted: u64 = contexts.clone().map(|c| c.events_admitted).sum();
    let dropped: u64 = contexts.map(|c| c.events_dropped).sum();
    // The paper's Theorem 1 saving: routing ticks that found the plan
    // suspended.
    metrics.push(
        "runtime.router.suspended_share",
        "share",
        ratio(suspended, suspended + active),
    );
    metrics.push(
        "algebra.context_window.admit_ratio",
        "ratio",
        ratio(admitted, admitted + dropped),
    );

    let patterns = snapshot
        .operators
        .iter()
        .filter(|(key, _)| key.ends_with(":Pattern"));
    let (pattern_in, pattern_out) =
        patterns.fold((0, 0), |(i, o), (_, m)| (i + m.events_in, o + m.events_out));
    metrics.push(
        "algebra.pattern.match_ratio",
        "ratio",
        ratio(pattern_out, pattern_in),
    );
    metrics.push(
        "algebra.pattern.partials_peak",
        "count",
        counter("partials_peak"),
    );
    let kernel: u64 = snapshot.operators.values().map(|m| m.kernel_rows).sum();
    let fallback: u64 = snapshot.operators.values().map(|m| m.fallback_rows).sum();
    metrics.push(
        "algebra.kernel.coverage",
        "ratio",
        ratio(kernel, kernel + fallback),
    );

    metrics.push(
        "runtime.speculate.retraction_rate",
        "ratio",
        ratio(pass.spec_retractions, pass.spec_emits),
    );
    metrics.push(
        "runtime.speculate.rebuilds",
        "count",
        pass.spec_rebuilds as f64,
    );
    metrics.push(
        "runtime.speculate.pool_reuse",
        "count",
        counter("spec_pool_reuse"),
    );
}

/// Nanoseconds per item of `f` run once over `n` items.
fn ns_per(n: usize, f: impl FnOnce()) -> f64 {
    let start = Instant::now();
    f();
    start.elapsed().as_nanos() as f64 / n.max(1) as f64
}

/// Single layers replayed alone, each through its public functions,
/// over a prefix of the workload's own stream (and the outputs that
/// prefix derives).
pub fn replay_layers(spec: &Spec, built: &Built, inputs: &Inputs, metrics: &mut Metrics) {
    let events = &inputs.events[..inputs.events.len().min(REPLAY_EVENTS)];
    let n = events.len();
    let outputs = prefix_outputs(spec, built, events);

    // events::codec
    let mut buf = BytesMut::with_capacity(n * 64);
    let encode = ns_per(n, || {
        for event in events {
            codec::encode(event, &mut buf);
        }
    });
    metrics.push("events.codec.encode_ns_per_event", "ns", encode);
    metrics.push(
        "events.codec.bytes_per_event",
        "B",
        buf.len() as f64 / n as f64,
    );
    let mut wire = buf.freeze();
    let decode = ns_per(n, || {
        while let Ok(Some(event)) = codec::decode(&mut wire) {
            black_box(event);
        }
    });
    metrics.push("events.codec.decode_ns_per_event", "ns", decode);

    // server::protocol, in the frames the served workload sends
    let frames: Vec<Request> = events
        .chunks(crate::served::FRAME)
        .map(|chunk| Request::Ingest {
            tenant: "t".into(),
            events: chunk.to_vec(),
        })
        .collect();
    let mut bodies = Vec::with_capacity(frames.len());
    let encode = ns_per(n, || bodies.extend(frames.iter().map(Request::encode)));
    metrics.push("server.protocol.ingest_encode_ns_per_event", "ns", encode);
    let decode = ns_per(n, || {
        for body in &bodies {
            black_box(Request::decode(body).expect("own encoding decodes"));
        }
    });
    metrics.push("server.protocol.ingest_decode_ns_per_event", "ns", decode);
    let replies: Vec<Response> = outputs
        .chunks(crate::served::FRAME)
        .map(|chunk| Response::Outputs(chunk.to_vec()))
        .collect();
    let encode = ns_per(outputs.len(), || {
        for reply in &replies {
            black_box(reply.encode());
        }
    });
    metrics.push("server.protocol.outputs_encode_ns_per_output", "ns", encode);

    // server::queue: one push and one pop, uncontended
    let queue = BoundedQueue::new(1024);
    let push_pop = ns_per(n, || {
        for i in 0..n {
            queue.push(i).expect("open queue");
            black_box(queue.pop());
        }
    });
    metrics.push("server.queue.push_pop_ns", "ns", push_pop);

    // events::reorder, at the workload's own slack; slack 0 means the
    // engine builds no buffer at all, which reads 0 here too.
    let mut ordered = events.to_vec();
    if spec.slack > 0 {
        let mut reorder = ReorderBuffer::new(spec.slack);
        let mut peak = 0usize;
        let mut released = Vec::with_capacity(n);
        let ns = ns_per(n, || {
            for event in events {
                released.extend(
                    reorder
                        .push(event.clone())
                        .expect("slack covers the disorder"),
                );
                peak = peak.max(reorder.buffered());
            }
            released.extend(reorder.flush());
        });
        metrics.push("events.reorder.ns_per_event", "ns", ns);
        metrics.push("events.reorder.peak_buffered", "count", peak as f64);
        ordered = released;
    }

    // events::queue, driven the way the scheduler drives it: enqueue,
    // and pop every time slice the watermark has passed.
    let mut queues = PartitionedQueues::default();
    let mut progress = 0;
    let ns = ns_per(n, || {
        for event in &ordered {
            let t = event.time();
            if t > progress {
                while queues.earliest_pending().is_some_and(|pending| pending < t) {
                    let slice = queues.earliest_pending().expect("checked");
                    black_box(queues.pop_time_slice(slice));
                }
                progress = t;
            }
            queues.push(event.clone()).expect("ordered stream");
        }
        while let Some(slice) = queues.earliest_pending() {
            black_box(queues.pop_time_slice(slice));
        }
    });
    metrics.push("events.queue.ns_per_event", "ns", ns);
    metrics.push(
        "events.queue.partitions",
        "count",
        queues.partitions() as f64,
    );
}

/// The outputs the engine derives from a stream prefix (strict, so the
/// list is the settled one under either consistency level).
fn prefix_outputs(spec: &Spec, built: &Built, events: &[Event]) -> Vec<Event> {
    let mut config = embedded::engine_config(spec, ObservabilityLevel::Off);
    config.consistency = Consistency::Strict;
    let mut engine = Engine::new(built.program.clone(), &built.registry, config);
    for event in events {
        engine.ingest(event.clone()).expect("prefix ingests");
    }
    engine.finish();
    std::mem::take(&mut engine.collected_outputs)
}

/// State size and the recovery layer: a stream prefix goes through an
/// engine, which is then snapshotted (before `finish`, as a checkpoint
/// would find it), written, read back and restored.
pub fn replay_state(spec: &Spec, built: &Built, inputs: &Inputs, metrics: &mut Metrics) {
    let mut config = embedded::engine_config(spec, ObservabilityLevel::Off);
    // A snapshot is a strict state; outputs are not part of it.
    config.consistency = Consistency::Strict;
    config.collect_outputs = false;
    let mut engine = Engine::new(built.program.clone(), &built.registry, config);
    let events = &inputs.events[..inputs.events.len().min(STATE_EVENTS)];
    for event in events {
        engine.ingest(event.clone()).expect("stream ingests");
    }
    let partitions = events
        .iter()
        .map(|e| e.partition)
        .collect::<HashSet<_>>()
        .len();
    let dir = crate::scratch_dir();
    std::fs::create_dir_all(&dir).expect("scratch directory");
    let path = dir.join(format!("{}.caesnap", spec.name));
    let start = Instant::now();
    let state = engine.snapshot_state();
    caesar_recovery::write_snapshot(&path, events.len() as u64, &state).expect("snapshot writes");
    metrics.push(
        "recovery.snapshot_ms",
        "ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    drop(state);
    let bytes = std::fs::metadata(&path).map_or(0, |m| m.len()) as f64;
    metrics.push("recovery.snapshot_bytes", "B", bytes);
    metrics.push(
        "runtime.state.bytes_per_partition",
        "B",
        bytes / partitions.max(1) as f64,
    );

    let mut fresh = Engine::new(built.program.clone(), &built.registry, config);
    let start = Instant::now();
    let snapshot = caesar_recovery::read_snapshot(&path).expect("snapshot reads back");
    fresh
        .restore_state(snapshot.state)
        .expect("snapshot restores");
    metrics.push(
        "recovery.restore_ms",
        "ms",
        start.elapsed().as_secs_f64() * 1e3,
    );
    let _ = std::fs::remove_file(&path);
}
