//! High-cardinality clickstream stress: ≥ 100k Zipf-skewed user
//! partitions with ids scattered over the full `u32` space, asserting
//!
//! * sharded output ≡ sequential output, byte for byte (canonical
//!   per-event encodings — shards interleave emission order, which is
//!   not part of the contract),
//! * per-partition pattern state is reclaimed after sessions close:
//!   the engine's peak live-partials watermark stays orders of
//!   magnitude below both the partition count and the event count, and
//!   the partial-slab pool reports reuse (freed slots recycled rather
//!   than state accumulating per partition), and
//! * the engine holds run state only for the partitions where some
//!   operator has a live partial, parked match or buffered negated
//!   event: global progress expires them, so only partitions active
//!   within the longest `WITHIN` horizon hold any — as few after `4n`
//!   sessions as after `n` — none once the stream drains, and none for
//!   a partition that only saw events no pattern retains, and
//! * nothing the engine keeps — scheduler buffer, run state, context
//!   rows, snapshot bytes — grows with the number of partitions the
//!   stream has merely passed through, even ones that switched context
//!   and went quiet, and a restored engine releases the rows the
//!   uninterrupted one releases, and
//! * ending a transaction costs what the transaction touched: the
//!   run-state slots examined at its end are no more than the slots its
//!   partition held plus the slots it reached, the same whether or not
//!   the program carries queries the stream never reaches, and a
//!   snapshot taken between two transactions of one mid-session
//!   partition resumes exactly.
//!
//! This is also the regression test for the sparse partition
//! structures: scattered ids near `u32::MAX` would OOM any
//! Vec-indexed-by-partition state, and the SplitMix64 shard router
//! must spread structured id sets across all shards.

use caesar::clickstream::{
    clickstream_model, clickstream_registry, generate, output_types, ClickConfig, ClickSummary,
    ABANDON_WITHIN, DEFAULT_WITHIN,
};
use caesar::prelude::*;
use caesar::query::parse_model;
use caesar_runtime::{run_mode_full, Engine, ModeSpec};
use caesar_testkit::{build_programs, canonical, Workload};
use std::collections::BTreeSet;

/// ≥ 100k scattered user partitions, one short session each for most.
fn scale_workload() -> (Workload, ClickSummary) {
    let config = ClickConfig {
        users: 1_000_000,
        sessions: 105_000,
        coverage_floor: 101_000,
        zipf_s: 1.2,
        seed: 99,
        bot_fraction: 0.02,
        buy_fraction: 0.15,
        abandon_fraction: 0.15,
        min_views: 1,
        max_views: 2,
        mean_gap: 6,
        disorder: 0.0,
        scatter_ids: true,
        ..ClickConfig::default()
    };
    let registry = clickstream_registry();
    let (events, summary) = generate(&config, &registry);
    assert!(
        summary.partitions_touched >= 100_000,
        "cardinality floor violated: {} partitions",
        summary.partitions_touched
    );
    assert!(
        events.iter().any(|e| e.partition.0 > u32::MAX / 2),
        "scattered ids should reach the upper id space"
    );

    let workload = Workload {
        seed: config.seed,
        model: clickstream_model(1),
        registry,
        events,
        default_within: DEFAULT_WITHIN,
        reorder_slack: 0,
        output_types: output_types(1),
    };
    (workload, summary)
}

#[test]
fn sharded_equals_sequential_at_100k_partitions() {
    let (workload, summary) = scale_workload();
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let engine_config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build();

    let (seq_report, seq_outputs, _) = run_mode_full(
        &optimized,
        &registry,
        &ModeSpec::sequential("scale/seq", engine_config),
        &workload.events,
    )
    .expect("sequential run");
    let sharded_spec = ModeSpec {
        label: "scale/sharded4".into(),
        config: engine_config,
        shards: 4,
        optimized: true,
        restart_after: None,
    };
    let (shard_report, shard_outputs, _) =
        run_mode_full(&optimized, &registry, &sharded_spec, &workload.events).expect("sharded run");

    assert_eq!(seq_report.events_in, shard_report.events_in);
    assert_eq!(seq_report.events_out, shard_report.events_out);
    assert_eq!(seq_report.outputs_by_type, shard_report.outputs_by_type);
    assert_eq!(
        canonical(&seq_outputs),
        canonical(&shard_outputs),
        "sharded output multiset diverged from sequential"
    );
    assert!(seq_report.events_out > 0, "workload produced no outputs");

    // State reclamation: sessions close, WITHIN horizons evict, context
    // flips discard — live partials never approach the partition or
    // event count.
    for report in [&seq_report, &shard_report] {
        assert!(report.peak_partials > 0);
        assert!(
            report.peak_partials < 20_000,
            "peak live partials {} suggests per-partition state is not \
             reclaimed ({} partitions, {} events)",
            report.peak_partials,
            summary.partitions_touched,
            summary.events
        );
    }
    let pool_peak = seq_report
        .metrics
        .counters
        .get("partials_peak")
        .copied()
        .expect("counters level exposes the pool watermark");
    assert!(
        pool_peak > 0 && pool_peak < 20_000,
        "slab high-water mark {pool_peak} suggests per-partition state is not reclaimed"
    );
    assert!(
        seq_report.metrics.counters.get("spec_pool_reuse").copied() > Some(0),
        "partial-slab pool never reused a freed slot"
    );
}

#[test]
fn run_state_is_held_only_where_state_is_live() {
    let (workload, summary) = scale_workload();
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let mut engine = Engine::new(optimized, &registry, EngineConfig::default());
    for event in &workload.events {
        engine.ingest(event.clone()).expect("in-order stream");
    }
    // An event of the named type (payload borrowed from the stream) for
    // a partition the stream never touched.
    let fresh = PartitionId(77);
    assert!(workload.events.iter().all(|e| e.partition != fresh));
    let lone = |name: &str, t: Time| {
        let ty = registry.lookup(name).expect("clickstream input type");
        let like = workload.events.iter().find(|e| e.type_id == ty);
        let attrs = like.expect("type occurs in the stream").attrs.to_vec();
        Event::simple(ty, t, fresh, attrs)
    };
    let end = summary.max_time;

    // Every transaction of the generated stream has executed once the
    // watermark passes `end`, and global progress has swept every
    // partition whose state died with it: nothing a query holds
    // outlives its longest `WITHIN` (cart abandonment's), so only a
    // partition with an event in the last `ABANDON_WITHIN` ticks can
    // hold run state — a few dozen of 100k.
    engine.ingest(lone("CaptchaOk", end + 1)).unwrap();
    let held = engine.partitions_with_state();
    let recent: BTreeSet<PartitionId> = workload
        .events
        .iter()
        .filter(|e| e.time() + ABANDON_WITHIN > end)
        .map(|e| e.partition)
        .collect();
    assert!(
        0 < held && held <= recent.len(),
        "{held} of {} partitions hold run state, {} had an event in the last {ABANDON_WITHIN} ticks",
        summary.partitions_touched,
        recent.len()
    );

    // Once progress has passed that horizon too, nothing is held; in
    // the default `browsing` context nothing retains a CaptchaOk, a
    // SessionEnd or a Purchase (their consumers are suspended)...
    let quiet = end + ABANDON_WITHIN + 2;
    engine.ingest(lone("CaptchaOk", quiet)).unwrap();
    engine.ingest(lone("SessionEnd", quiet + 1)).unwrap();
    engine.ingest(lone("Purchase", quiet + 2)).unwrap();
    engine.ingest(lone("View", quiet + 3)).unwrap();
    assert_eq!(engine.partitions_with_state(), 0);
    // ...while a View opens a BrowsePath partial.
    engine.ingest(lone("CaptchaOk", quiet + 4)).unwrap();
    assert_eq!(engine.partitions_with_state(), 1);

    // Draining: every pattern has a WITHIN horizon, so the final
    // watermark flushes the last partial, and with it the last record.
    let report = engine.finish();
    assert_eq!(report.events_in, summary.events as u64 + 6);
    assert_eq!(engine.partitions_with_state(), 0);
}

/// ROADMAP item 6's state bound in stream length: the same session mix
/// at the same density over `n` and `4n` sessions (so over 4× the
/// partitions and 4× the ticks) leaves the same few partitions holding
/// run state when ingest ends — those active within the last
/// `ABANDON_WITHIN` ticks — where a partition's watermark that advanced
/// only with its own transactions kept one per browse session.
#[test]
fn run_state_is_independent_of_stream_length() {
    let held_after = |sessions: usize| {
        let workload = click_workload(&one_session_per_user(sessions));
        let (optimized, _, registry) = build_programs(&workload).expect("build");
        let config = EngineConfig::builder()
            .observability(ObservabilityLevel::Counters)
            .build();
        let mut engine = Engine::new(optimized, &registry, config);
        for event in workload.events {
            engine.ingest(event).expect("in-order stream");
        }
        let counters = engine.metrics_snapshot().counters;
        (
            counters["partitions_with_state"],
            counters["run_state_bytes"],
            counters["partitions_materialized"],
        )
    };
    // A session every 6 ticks and a 240-tick horizon: ≈ 40 sessions'
    // partitions can be live, whatever the stream's length — and only
    // those keep a context row: the others are back at the startup
    // state, which the sweep releases.
    for sessions in [5_000, 20_000] {
        let (held, bytes, rows) = held_after(sessions);
        assert!(
            held <= 96 && bytes <= 256 * 1024,
            "{sessions} sessions over as many partitions: {held} hold {bytes} B of run state"
        );
        assert!(
            rows <= 96,
            "{sessions} sessions over as many partitions: {rows} context rows"
        );
    }
}

/// ROADMAP item 6's state bound: `n` events over `n` distinct scattered
/// partitions, none of which any pattern retains (a `CaptchaOk` in the
/// default `browsing` context reaches no active consumer), leave the
/// engine holding nothing per partition — scheduler buffer, run state
/// and snapshot bytes are the same after 1 000 partitions and 32 000.
#[test]
fn engine_state_is_independent_of_partitions_passed_through() {
    let (workload, _) = scale_workload();
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let captcha = stream_event(&workload, &registry, "CaptchaOk");
    let snapshot_bytes_after = |n: u32| {
        let mut engine = Engine::new(optimized.clone(), &registry, EngineConfig::default());
        for i in 0..n {
            // Two partitions per timestamp, ids spread over the u32 space.
            let partition = PartitionId(i.wrapping_mul(0x9e37_79b1));
            engine
                .ingest(captcha(Time::from(i / 2), partition))
                .expect("in-order stream");
        }
        // The scheduler holds the last timestamp's two events, not a
        // queue per partition seen.
        assert!(engine.events_buffered() <= 2);
        assert_eq!(engine.partitions_with_state(), 0);
        serde::to_bytes(&engine.snapshot_state()).len()
    };
    let (small, large) = (snapshot_bytes_after(1_000), snapshot_bytes_after(32_000));
    assert!(
        small.abs_diff(large) <= 1024,
        "snapshot grew with partitions passed through: {small} B after 1 000, {large} B after 32 000"
    );
}

/// The same bound over partitions that each switched context and went
/// quiet: a `BotAlarm` opens `bot_suspect`, the `CaptchaOk` a tick later
/// reopens the default `browsing`. Once progress has passed a row's last
/// update by the program's longest `WITHIN`, the row is back at the
/// startup state and the sweep releases it, so the rows left are those
/// of the last horizon's partitions — as many after 32 000 as after
/// 1 000.
#[test]
fn engine_state_is_independent_of_partitions_that_switched_context() {
    let (workload, _) = scale_workload();
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let alarm = stream_event(&workload, &registry, "BotAlarm");
    let captcha = stream_event(&workload, &registry, "CaptchaOk");
    let after = |n: u32| {
        let config = EngineConfig::builder()
            .observability(ObservabilityLevel::Counters)
            .build();
        let mut engine = Engine::new(optimized.clone(), &registry, config);
        for i in 0..n {
            let partition = PartitionId(i.wrapping_mul(0x9e37_79b1));
            let t = 2 * Time::from(i);
            engine.ingest(alarm(t, partition)).expect("in-order stream");
            engine
                .ingest(captcha(t + 1, partition))
                .expect("in-order stream");
        }
        assert_eq!(engine.partitions_with_state(), 0);
        let rows = engine.metrics_snapshot().counters["partitions_materialized"];
        (rows, serde::to_bytes(&engine.snapshot_state()).len())
    };
    let ((small_rows, small), (large_rows, large)) = (after(1_000), after(32_000));
    assert!(
        small_rows == large_rows && large_rows <= ABANDON_WITHIN / 2 + 2,
        "context rows grew with partitions that switched context: \
         {small_rows} after 1 000, {large_rows} after 32 000"
    );
    assert!(
        small.abs_diff(large) <= 1024,
        "snapshot grew with partitions that switched context: \
         {small} B after 1 000, {large} B after 32 000"
    );
}

/// A clickstream run snapshotted mid-stream and restored into a fresh
/// engine ends where the uninterrupted run ends: the same context rows
/// (a restored row is entered in the expiry worklist under its
/// `W.time`, so the sweep releases it when the original's does), the
/// same run state, the same final snapshot, byte for byte.
#[test]
fn restored_engine_releases_the_rows_the_uninterrupted_one_releases() {
    let workload = click_workload(&one_session_per_user(5_000));
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build();
    let fresh = || Engine::new(optimized.clone(), &registry, config);
    let state = |engine: &Engine| {
        let counters = engine.metrics_snapshot().counters;
        (
            counters["partitions_materialized"],
            counters["partitions_with_state"],
            serde::to_bytes(&engine.snapshot_state()).len(),
        )
    };
    let (head, tail) = workload.events.split_at(workload.events.len() / 2);
    let mut uninterrupted = fresh();
    for event in head {
        uninterrupted
            .ingest(event.clone())
            .expect("in-order stream");
    }
    let snapshot = uninterrupted.snapshot_state();
    assert!(
        uninterrupted.context_table().materialized_partitions() > 0,
        "the snapshot carries context rows"
    );
    let mut restored = fresh();
    restored.restore_state(snapshot).expect("same program");
    for event in tail {
        uninterrupted
            .ingest(event.clone())
            .expect("in-order stream");
        restored.ingest(event.clone()).expect("in-order stream");
    }
    let (rows, held, bytes) = state(&uninterrupted);
    assert!(rows <= 96, "{rows} context rows at the end of the stream");
    assert_eq!(state(&restored), (rows, held, bytes));
    uninterrupted.finish();
    restored.finish();
    assert_eq!(state(&restored), state(&uninterrupted));
}

/// ROADMAP item 6's bound on ending a transaction: it examines only
/// the run-state slots its partition held or it reached, so the same
/// sessions cost the same per transaction under `clickstream_model(2)`
/// and under that model plus 24 sequence queries (four of them
/// context-deriving) on event types the stream never carries — a
/// program with more than twice the stateful operators.
#[test]
fn transaction_end_work_is_independent_of_queries_the_stream_never_reaches() {
    let mut workload = click_workload(&one_session_per_user(2_000));
    workload.model = clickstream_model(2);
    for ghost in ["Ghost0", "Ghost1", "Ghost2"] {
        let schema = Schema::new(ghost, &[("v", AttrType::Int)]);
        workload.registry.register(schema).expect("fresh type");
    }
    let mut extended = workload.clone();
    let mut ghosts = String::new();
    for context in ["browsing", "engaged", "abandoning", "bot_suspect"] {
        let mut queries = String::new();
        for i in 0..5 {
            queries += &format!(
                "DERIVE {context}Ghost{i}(a.v, c.v) PATTERN SEQ(Ghost0 a, NOT Ghost2 n, Ghost1 c) \
                 WHERE c.v > {i} WITHIN {}\n",
                10 + 7 * i
            );
        }
        let switch = if context == "browsing" {
            "engaged"
        } else {
            "browsing"
        };
        queries += &format!("SWITCH CONTEXT {switch} PATTERN SEQ(Ghost1 a, Ghost0 b) WITHIN 9\n");
        ghosts += &format!("CONTEXT {context} {{ {queries} }}\n");
    }
    let ghosts = parse_model(&format!("MODEL ghosts DEFAULT browsing {ghosts}")).expect("valid");
    for (context, more) in extended.model.contexts.iter_mut().zip(ghosts.contexts) {
        assert_eq!(context.name, more.name);
        context.processing.extend(more.processing);
        context.deriving.extend(more.deriving);
    }
    let run = |workload: &Workload| {
        let (optimized, _, registry) = build_programs(workload).expect("build");
        let plans: usize = optimized
            .translation
            .combined
            .iter()
            .map(|c| c.plans.len())
            .sum();
        let config = EngineConfig::builder()
            .observability(ObservabilityLevel::Counters)
            .build();
        let mut engine = Engine::new(optimized, &registry, config);
        for event in &workload.events {
            engine.ingest(event.clone()).expect("in-order stream");
        }
        let report = engine.finish();
        let counters = report.metrics.counters.clone();
        let [txns, held, reached, examined] = [
            "transactions_executed",
            "run_slots_held",
            "run_slots_reached",
            "run_slots_examined",
        ]
        .map(|name| counters[name]);
        (plans, report.outputs_by_type, txns, held, reached, examined)
    };
    let (plans, outputs, txns, held, reached, examined) = run(&workload);
    let (more_plans, more_outputs, more_txns, more_held, more_reached, more_examined) =
        run(&extended);
    assert!(more_plans >= plans + 20, "{plans} → {more_plans} plans");
    // Derived type ids differ between the two programs; names do not.
    assert!(!outputs.is_empty() && outputs == more_outputs);
    assert_eq!(txns, more_txns);
    assert!(
        reached > 0 && examined > 0,
        "transactions reached run state"
    );
    for (held, reached, examined) in [
        (held, reached, examined),
        (more_held, more_reached, more_examined),
    ] {
        assert!(
            examined <= held + reached,
            "{examined} slots examined over {txns} transactions, which held {held} and reached {reached}"
        );
    }
    assert_eq!(
        (held, reached, examined),
        (more_held, more_reached, more_examined),
        "slots held, reached and examined over {txns} transactions"
    );
}

/// A clickstream run snapshotted between two transactions of one
/// partition in the middle of its session — the partition that last
/// executed, whose state an engine that kept it in the operators would
/// have held outside its records — and restored into a fresh engine
/// finishes like the uninterrupted run: the same outputs in the same
/// order, the same `peak_partials`, the same partitions holding run
/// state and the same run-state bytes.
#[test]
fn snapshot_between_two_transactions_of_one_session_resumes_identically() {
    let workload = click_workload(&one_session_per_user(3_000));
    let events = &workload.events;
    // The first event whose predecessor in the stream is its own
    // partition's at an earlier time, with more of that session to come:
    // ingesting it executes the predecessor's transaction, and the
    // snapshot falls before the partition's next one.
    let cut = (1..events.len())
        .find(|&i| {
            let (prev, next) = (&events[i - 1], &events[i]);
            let p = next.partition;
            prev.partition == p
                && prev.time() < next.time()
                && events[..i - 1].iter().any(|e| e.partition == p)
                && events[i + 1..].iter().any(|e| e.partition == p)
        })
        .expect("a session with consecutive transactions")
        + 1;
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .collect_outputs(true)
        .build();
    let fresh = || Engine::new(optimized.clone(), &registry, config);
    let gauges = |engine: &Engine| {
        let counters = engine.metrics_snapshot().counters;
        (
            engine.partitions_with_state(),
            counters["partitions_with_state"],
            counters["run_state_bytes"],
        )
    };
    let mut uninterrupted = fresh();
    for event in &events[..cut] {
        uninterrupted
            .ingest(event.clone())
            .expect("in-order stream");
    }
    assert!(
        uninterrupted.partitions_with_state() > 0,
        "mid-session state"
    );
    let bytes = serde::to_bytes(&uninterrupted.snapshot_state());
    let mut restored = fresh();
    restored
        .restore_state(serde::from_bytes(&bytes).expect("decodes"))
        .expect("same program");
    assert_eq!(gauges(&restored).0, gauges(&uninterrupted).0);
    for event in &events[cut..] {
        uninterrupted
            .ingest(event.clone())
            .expect("in-order stream");
        restored.ingest(event.clone()).expect("in-order stream");
    }
    let (a, b) = (uninterrupted.finish(), restored.finish());
    assert!(a.events_out > 0);
    assert_eq!(
        caesar::events::encode_all(&uninterrupted.collected_outputs),
        caesar::events::encode_all(&restored.collected_outputs),
    );
    assert_eq!(a.peak_partials, b.peak_partials);
    assert_eq!(gauges(&uninterrupted), gauges(&restored));
}

/// The soak of ROADMAP item 2(d): a million sessions over scattered
/// partitions, streamed in chunks so the stream itself is never held,
/// leave the engine holding what the last `ABANDON_WITHIN` ticks' few
/// dozen sessions hold — context rows, run state and resident memory do
/// not grow with the stream. The RSS figure is this process's `VmHWM`
/// after ingest minus its `VmRSS` before, as the ledger measures, so run
/// it alone: `cargo test --release --test clickstream_scale --
/// --ignored --exact a_million_sessions_keep_engine_state_bounded`.
#[test]
#[ignore = "soak: a million sessions, run on its own in release"]
fn a_million_sessions_keep_engine_state_bounded() {
    const SESSIONS: usize = 1_000_000;
    const CHUNK: usize = 2_000;
    let chunk_config = |seed: u64| ClickConfig {
        users: 1_000_000,
        sessions: CHUNK,
        seed,
        scatter_ids: true,
        mean_gap: 6,
        ..ClickConfig::default()
    };
    let first = click_workload(&chunk_config(0));
    let (optimized, _, registry) = build_programs(&first).expect("build");
    let config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build();
    let mut engine = Engine::new(optimized, &registry, config);
    let mut chunk = first.events;
    let before = proc_status_kib("VmRSS");
    let (mut offset, mut events, mut ceiling) = (0, 0, (0, 0, 0));
    for seed in 0..(SESSIONS / CHUNK) as u64 {
        if seed > 0 {
            chunk = generate(&chunk_config(seed), &first.registry).0;
        }
        // Each chunk starts after the last one ends, so a user's
        // sessions never overlap across chunks either.
        let end = chunk.last().map_or(0, Event::time);
        for event in chunk.drain(..) {
            let t = event.time() + offset;
            engine
                .ingest(Event::simple(
                    event.type_id,
                    t,
                    event.partition,
                    event.attrs.to_vec(),
                ))
                .expect("in-order stream");
            events += 1;
            if events % 1_024 == 0 {
                let counters = engine.metrics_snapshot().counters;
                let [rows, held, bytes] = [
                    "partitions_materialized",
                    "partitions_with_state",
                    "run_state_bytes",
                ]
                .map(|name| counters[name]);
                ceiling = (
                    ceiling.0.max(rows),
                    ceiling.1.max(held),
                    ceiling.2.max(bytes),
                );
            }
        }
        offset += end;
    }
    let growth_kib = proc_status_kib("VmHWM").saturating_sub(before);
    eprintln!(
        "{SESSIONS} sessions, {events} events: at most {} context rows, {} partitions \
         holding {} B of run state; RSS growth {growth_kib} KiB",
        ceiling.0, ceiling.1, ceiling.2
    );
    assert!(ceiling.0 <= 96, "{} context rows", ceiling.0);
    assert!(ceiling.1 <= 96, "{} partitions hold run state", ceiling.1);
    assert!(ceiling.2 <= 512 * 1024, "{} B of run state", ceiling.2);
    assert!(growth_kib <= 8 * 1024, "RSS grew by {growth_kib} KiB");
}

/// The expiry worklist enters a partition once, however often its
/// record comes and goes: after every ingest of a clickstream stream
/// (the benchmark's sparse shape — Zipf-skewed returning users, one or
/// two views a session) it holds no more entries than there are
/// partitions with a record or a context row.
#[test]
fn the_expiry_worklist_holds_one_entry_per_kept_partition() {
    let config = ClickConfig {
        users: 1_000_000,
        sessions: 5_000,
        coverage_floor: 4_800,
        zipf_s: 1.2,
        seed: 1,
        min_views: 1,
        max_views: 2,
        mean_gap: 6,
        scatter_ids: true,
        ..ClickConfig::default()
    };
    let registry = clickstream_registry();
    let (events, _) = generate(&config, &registry);
    let workload = Workload {
        seed: config.seed,
        model: clickstream_model(2),
        registry,
        events,
        default_within: DEFAULT_WITHIN,
        reorder_slack: 0,
        output_types: output_types(2),
    };
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let mut engine = Engine::new(optimized, &registry, EngineConfig::default());
    let mut peak = 0;
    for (i, event) in workload.events.into_iter().enumerate() {
        engine.ingest(event).expect("in-order stream");
        let (entries, kept) = (engine.expiry_entries(), engine.partitions_kept());
        assert!(
            entries <= kept,
            "after event {i}: {entries} entries, {kept} partitions kept"
        );
        peak = peak.max(entries);
    }
    assert!(peak > 0, "the stream enters partitions");
}

/// `sessions` sessions of distinct users, ids scattered over the `u32`
/// space, one every 6 ticks.
fn one_session_per_user(sessions: usize) -> ClickConfig {
    ClickConfig {
        users: 1_000_000,
        sessions,
        coverage_floor: sessions,
        scatter_ids: true,
        mean_gap: 6,
        ..ClickConfig::default()
    }
}

/// A clickstream workload of the replication-1 model over `config`'s
/// stream.
fn click_workload(config: &ClickConfig) -> Workload {
    let registry = clickstream_registry();
    let (events, _) = generate(config, &registry);
    Workload {
        seed: config.seed,
        model: clickstream_model(1),
        registry,
        events,
        default_within: DEFAULT_WITHIN,
        reorder_slack: 0,
        output_types: output_types(1),
    }
}

/// An event of type `name` at `(t, p)`, its payload borrowed from the
/// stream.
fn stream_event(
    workload: &Workload,
    registry: &SchemaRegistry,
    name: &str,
) -> impl Fn(Time, PartitionId) -> Event {
    let ty = registry.lookup(name).expect("clickstream input type");
    let like = workload.events.iter().find(|e| e.type_id == ty);
    let attrs = like.expect("type occurs in the stream").attrs.to_vec();
    move |t, p| Event::simple(ty, t, p, attrs.clone())
}

/// A `/proc/self/status` field in KiB.
fn proc_status_kib(field: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs");
    let line = status.lines().find(|l| l.starts_with(field));
    let kib = line.and_then(|l| l.split_whitespace().nth(1));
    kib.and_then(|v| v.parse().ok())
        .expect("a VmRSS / VmHWM line")
}
