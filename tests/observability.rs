//! Observability equivalence: turning metrics collection on must never
//! change what the engine computes. The same stream — transactions of
//! 3 and 8 events — runs under every observability level; outputs must be
//! byte-identical and every stream-derived counter — report totals,
//! per-operator in/out, per-query roll-ups, per-context admission —
//! must agree exactly. Only the measurement side (counters, span
//! histograms) may differ.

use caesar::prelude::*;
use caesar::recovery::outputs_equivalent;
use caesar::runtime::obs::Histogram;
use caesar::runtime::MetricsSnapshot;

const MODEL: &str = r#"
    MODEL m DEFAULT idle
    CONTEXT idle {
        SWITCH CONTEXT busy PATTERN Enter
    }
    CONTEXT busy {
        SWITCH CONTEXT idle PATTERN Leave
        DERIVE Hot(r.v, r.sec)
            PATTERN Reading r
            WHERE r.v + 1 > 2 AND r.sec > 0
        DERIVE Pair(a.v, b.v)
            PATTERN SEQ(Mark a, Mark b)
            WHERE a.v = b.v
    }
"#;

fn build(level: ObservabilityLevel) -> CaesarSystem {
    caesar_testkit::fixture::system(
        &[
            ("Reading", &[("v", AttrType::Int), ("sec", AttrType::Int)]),
            ("Enter", &[("v", AttrType::Int)]),
            ("Mark", &[("v", AttrType::Int)]),
            ("Leave", &[("v", AttrType::Int)]),
        ],
        50,
        MODEL,
        EngineConfig::builder()
            .collect_outputs(true)
            .observability(level)
            .build(),
    )
}

/// Deterministic stream with same-timestamp runs, several partitions and
/// a few context switches.
fn events(sys: &CaesarSystem) -> Vec<Event> {
    let mut out = Vec::new();
    for t in 1..=120u64 {
        let p = PartitionId((t % 3) as u32);
        if t % 40 == 10 {
            let e = sys
                .event("Enter", t)
                .unwrap()
                .partition(p)
                .attr("v", 0i64)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
        if t % 40 == 35 {
            let e = sys
                .event("Leave", t)
                .unwrap()
                .partition(p)
                .attr("v", 0i64)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
        // Marks feed the SEQ query. They ride a different partition, so
        // a Reading transaction holds readings alone.
        if t % 10 == 7 {
            let e = sys
                .event("Mark", t)
                .unwrap()
                .partition(PartitionId(((t + 1) % 3) as u32))
                .attr("v", (t as i64) % 4)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
        // A same-timestamp run of readings per tick: 8 events, 3 on
        // every third tick.
        let run = if t % 3 == 0 { 3 } else { 8 };
        for k in 0..run {
            let e = sys
                .event("Reading", t)
                .unwrap()
                .partition(p)
                .attr("v", (t as i64 + k) % 5)
                .unwrap()
                .attr("sec", t as i64)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
    }
    out
}

struct Run {
    outputs: Vec<Event>,
    report: RunReport,
}

fn run(level: ObservabilityLevel) -> Run {
    let mut sys = build(level);
    let stream = events(&sys);
    sys.run_stream(stream).unwrap();
    let report = sys.finish();
    let outputs = std::mem::take(&mut sys.engine.collected_outputs);
    Run { outputs, report }
}

/// The stream-derived projection of a snapshot: everything that must be
/// identical no matter how the run was observed.
fn stream_derived(m: &MetricsSnapshot) -> Vec<(String, u64, u64, u64)> {
    let mut rows = Vec::new();
    for (k, op) in &m.operators {
        rows.push((format!("op:{k}"), op.events_in, op.events_out, op.errors));
    }
    for (k, q) in &m.queries {
        rows.push((format!("q:{k}"), q.events_in, q.matches_out, 0));
    }
    for (k, c) in &m.contexts {
        rows.push((format!("c:{k}"), c.events_admitted, c.events_dropped, 0));
    }
    rows
}

#[test]
fn levels_and_modes_agree_byte_for_byte() {
    let baseline = run(ObservabilityLevel::Off);
    assert!(
        baseline.report.events_out > 0,
        "the workload must actually derive events"
    );
    let derived = stream_derived(&baseline.report.metrics);
    assert!(!derived.is_empty(), "operator walk populated even at Off");

    for level in [ObservabilityLevel::Counters, ObservabilityLevel::Spans] {
        let candidate = run(level);
        assert!(
            outputs_equivalent(&baseline.outputs, &candidate.outputs),
            "{level:?}: outputs diverged"
        );
        let totals = |r: &RunReport| {
            let counts = (r.events_in, r.events_out, r.transitions_applied);
            (counts, r.outputs_by_type.clone())
        };
        assert_eq!(
            totals(&baseline.report),
            totals(&candidate.report),
            "{level:?}"
        );
        assert_eq!(
            derived,
            stream_derived(&candidate.report.metrics),
            "{level:?}: stream-derived metrics diverged"
        );
    }
}

#[test]
fn counters_level_records_live_counters() {
    let counted = run(ObservabilityLevel::Counters);
    let m = &counted.report.metrics;
    assert_eq!(
        m.counters.get("events_ingested"),
        Some(&counted.report.events_in),
        "live counter matches the report"
    );
    assert!(m.counters.get("transactions_executed").copied() > Some(0));
    assert!(!m.batch_sizes.is_empty(), "batch sizes observed");
    assert!(m.stages.is_empty(), "no span timing below Spans");
    assert!(m.queue_depth_peak > 0);

    let spanned = run(ObservabilityLevel::Spans);
    let stages = &spanned.report.metrics.stages;
    for stage in ["distributor", "scheduler", "derivation", "processing"] {
        assert!(
            stages.get(stage).is_some_and(|h| !h.is_empty()),
            "stage `{stage}` timed under Spans (got {:?})",
            stages.keys().collect::<Vec<_>>()
        );
    }

    // State-size gauges: mid-stream, partition 0 is `busy` with an open
    // `SEQ(Mark, Mark)` partial; the final watermark of `finish` flushes
    // it, and with it the last run state the engine holds.
    let mut live = build(ObservabilityLevel::Counters);
    for event in events(&live) {
        live.ingest(event).unwrap();
    }
    let gauges = live.engine.metrics_snapshot().counters;
    assert_eq!(gauges["partitions_materialized"], 3);
    assert_eq!(
        gauges["partitions_with_state"],
        live.engine.partitions_with_state() as u64
    );
    assert!(gauges["partitions_with_state"] >= 1 && gauges["run_state_bytes"] > 0);
    assert_eq!(m.counters["partitions_with_state"], 0);
    assert_eq!(m.counters["run_state_bytes"], 0);

    let off = run(ObservabilityLevel::Off);
    assert!(off.report.metrics.counters.is_empty());
    assert!(off.report.metrics.stages.is_empty());
}

#[test]
fn histogram_buckets_round_trip_through_serde() {
    let mut h = Histogram::latency_ns();
    for v in [0u64, 1, 999, 1_000, 50_000, 4_194_304_000, u64::MAX] {
        h.record(v);
    }
    let bytes = serde::to_bytes(&h);
    let back: Histogram = serde::from_bytes(&bytes).unwrap();
    assert_eq!(h, back, "bucket bounds and counts survive the codec");

    let mut sizes = Histogram::batch_sizes();
    sizes.record(1);
    sizes.record(4096);
    sizes.record(100_000);
    let back: Histogram = serde::from_bytes(&serde::to_bytes(&sizes)).unwrap();
    assert_eq!(sizes, back);
    assert_eq!(back.count, 3);
    assert_eq!(back.max, 100_000);
}

/// One line per metric family: full per-key rows where the family is
/// small (contexts, outputs), key count + column sums + an FNV-1a hash
/// of the per-key rows where it is not (operators, queries).
fn pinned(report: &RunReport) -> Vec<String> {
    fn digest<'a>(rows: impl Iterator<Item = (&'a String, Vec<u64>)>) -> String {
        let (mut n, mut sums, mut fnv) = (0, Vec::new(), 0xcbf2_9ce4_8422_2325u64);
        for (key, row) in rows {
            n += 1;
            sums.resize(row.len(), 0);
            for (sum, v) in sums.iter_mut().zip(&row) {
                *sum += v;
            }
            for byte in format!("{key}{row:?}").bytes() {
                fnv = (fnv ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
            }
        }
        format!("n={n} sums={sums:?} fnv={fnv:016x}")
    }
    let m = &report.metrics;
    let operators = m.operators.iter().map(|(k, o)| {
        let row = vec![o.events_in, o.events_out, o.errors];
        (k, row)
    });
    let queries = m.queries.iter().map(|(k, q)| {
        let row = vec![q.events_in, q.matches_out];
        (k, row)
    });
    let contexts: Vec<String> = m
        .contexts
        .iter()
        .map(|(k, c)| {
            format!(
                "{k}={}/{}/{}/{}",
                c.active_ticks, c.suspended_ticks, c.events_admitted, c.events_dropped
            )
        })
        .collect();
    let outputs: Vec<String> = report
        .outputs_by_type
        .iter()
        .map(|(k, n)| format!("{k}={n}"))
        .collect();
    vec![
        format!("operators {}", digest(operators)),
        format!("queries {}", digest(queries)),
        format!("contexts {}", contexts.join(" ")),
        format!("outputs {}", outputs.join(" ")),
    ]
}

/// Operator counters accumulate once per engine, per (plan, operator);
/// before the program / run-state split every partition carried its own
/// set and the snapshot summed them. The totals must not have moved:
/// the literals below were captured from the per-partition-clone engine
/// (commit 44883b6) on a multi-partition Linear Road run and a
/// clickstream run.
///
/// The clickstream `operators`, `queries` and `contexts` lines were
/// re-pinned when prefix sharing became a property of the program and
/// the combined plan started routing by event type; its `outputs` line
/// and the whole Linear Road block (no eligible group) did not move.
/// What moved, and why: five `<context>/shared<g>:prefix` operator rows
/// appear; a member query's context window, pattern and chain
/// `events_in` no longer count the prefix events its group takes for it
/// (the pattern counts the candidates it tries at the boundary
/// instead); and a context's admitted count holds one verdict per
/// prefix event — the group's — where every member's window used to add
/// its own. Ticks, drops and the queries' `matches_out` are as before.
///
/// Deleting the batch policy, the kernel switch and the
/// `batches_ingested` counter moved none of the lines: the pinned
/// families are the operator, query and context accounting and the
/// outputs, which the default configuration pinned here computes exactly
/// as before (same-size transactions take the same entry points; the
/// registry's own counters are not part of the pin).
///
/// Expiry by global progress re-pinned the clickstream `operators`
/// line alone (`events_in` 126 624 → 125 950): a shared-prefix member
/// counts the `(prefix, event)` candidates it tries at the boundary, and
/// a prefix whose horizon ended while its partition sat idle is now
/// swept before the partition's next session instead of being offered
/// to it once more and refused by the span guard.
///
/// Both `operators` and `queries` lines were re-pinned when the
/// vectorized kernels were deleted: their rows lost the kernel / fallback
/// columns, and every remaining column reads as before.
#[test]
fn metric_totals_match_the_per_partition_counter_engine() {
    use caesar::clickstream::{clickstream_builder, generate, ClickConfig};
    use caesar::linear_road::{lr_model, lr_registry, LinearRoadConfig, TrafficSim};

    let config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build();

    let mut sim = TrafficSim::new(LinearRoadConfig {
        segments_per_road: 4,
        duration: 300,
        seed: 3,
        base_cars: 150.0,
        peak_cars: 250.0,
        ..Default::default()
    });
    let events = sim.generate();
    let mut lr = Caesar::builder().model(lr_model(2)).within(60);
    for (_, schema) in lr_registry().iter() {
        let attrs: Vec<(&str, AttrType)> = schema.attrs.iter().map(|a| (&*a.name, a.ty)).collect();
        lr = lr.schema(&schema.name, &attrs);
    }
    let mut lr = lr.engine_config(config).build().unwrap();
    lr.run_stream(events).unwrap();
    assert_eq!(
        pinned(&lr.finish()),
        [
            "operators n=38 sums=[75382, 63698, 0] fnv=7763b81ab3ae4329",
            "queries n=12 sums=[25174, 13490] fnv=7318779aab03cb78",
            "contexts accident=130/1056/2450/0 clear=331/855/5592/0 congestion=725/461/17132/0",
            "outputs AccidentWarning=1052 AccidentWarning_1=1052 NewTravelingCar=1910 \
             NewTravelingCar_1=1910 TollNotification=1910 TollNotification_1=1910 \
             ZeroToll=1867 ZeroToll_1=1867",
        ]
    );

    let mut clicks = clickstream_builder(2)
        .engine_config(config)
        .build()
        .unwrap();
    let click_config = ClickConfig {
        users: 50_000,
        sessions: 4_000,
        ..ClickConfig::default()
    };
    let (events, summary) = generate(&click_config, &clicks.registry);
    assert!(summary.partitions_touched > 1_000);
    clicks.run_stream(events).unwrap();
    let report = clicks.finish();
    // 4 000 sessions over 50 000 users: most partitions go quiet, and
    // global progress, not their next session, expires what they hold.
    let counter = |name: &str| report.metrics.counters[name];
    assert!(counter("expired_states") > 0 && counter("gc_runs") > 0);
    assert_eq!(
        pinned(&report),
        [
            "operators n=63 sums=[125950, 105126, 0] fnv=7914c49f88a6b03c",
            "queries n=19 sums=[21102, 30796] fnv=0c482387a266b6d1",
            "contexts abandoning=1213/19812/1403/7484 bot_suspect=1227/19798/1841/0 \
             browsing=14619/6406/11640/1932 engaged=3966/17059/9476/4308",
            "outputs BotBurst=1396 BotBurst_1=1396 BrowsePath=9460 BrowsePath_1=9146 \
             CartAbandoned=729 CartAbandoned_1=729 Conversion=1013 Conversion_1=1013 \
             WinBack=281 WinBack_1=281",
        ]
    );
}
