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
//! * nothing the engine keeps — scheduler buffer, run state, snapshot
//!   bytes — grows with the number of partitions the stream has merely
//!   passed through.
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
        let config = ClickConfig {
            users: 1_000_000,
            sessions,
            coverage_floor: sessions,
            scatter_ids: true,
            mean_gap: 6,
            ..ClickConfig::default()
        };
        let registry = clickstream_registry();
        let (events, _) = generate(&config, &registry);
        let workload = Workload {
            seed: config.seed,
            model: clickstream_model(1),
            registry,
            events,
            default_within: DEFAULT_WITHIN,
            reorder_slack: 0,
            output_types: output_types(1),
        };
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
        )
    };
    // A session every 6 ticks and a 240-tick horizon: ≈ 40 sessions'
    // partitions can be live, whatever the stream's length.
    for sessions in [5_000, 20_000] {
        let (held, bytes) = held_after(sessions);
        assert!(
            held <= 96 && bytes <= 256 * 1024,
            "{sessions} sessions over as many partitions: {held} hold {bytes} B of run state"
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
    let ty = registry
        .lookup("CaptchaOk")
        .expect("clickstream input type");
    let like = workload.events.iter().find(|e| e.type_id == ty);
    let attrs = like.expect("type occurs in the stream").attrs.to_vec();
    let snapshot_bytes_after = |n: u32| {
        let mut engine = Engine::new(optimized.clone(), &registry, EngineConfig::default());
        for i in 0..n {
            // Two partitions per timestamp, ids spread over the u32 space.
            let partition = PartitionId(i.wrapping_mul(0x9e37_79b1));
            let event = Event::simple(ty, Time::from(i / 2), partition, attrs.clone());
            engine.ingest(event).expect("in-order stream");
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
