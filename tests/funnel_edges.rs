//! Hand-computed clickstream funnel edge cases, pinned against the
//! session-state model of `caesar-clickstream` at replication 1:
//!
//! * conversion exactly at the `WITHIN` horizon (and one tick past it),
//! * cart-abandonment whose negated pattern straddles the context flip
//!   (the session end both terminates the *engaged* window and, being
//!   termination-inclusive, completes the match),
//! * same-timestamp view/cart pairs (the view at the switch timestamp
//!   belongs to the *old* window; `SEQ` needs strictly increasing
//!   timestamps, so the tie itself never pairs),
//! * bot-burst context gating (views before the alarm and after the
//!   captcha never feed the burst pattern; browsing partials do not
//!   survive across the window flip),
//! * a user's second session after global progress released the
//!   context row the first one left (the row is re-created from the
//!   startup state; nothing either session derives changes).
//!
//! Every expectation is a small enumeration over the §4.1 semantics:
//! `SEQ` builds *all* strictly-increasing tuples from events admitted
//! to the query's context window `(t_initiation, t_termination]`, and a
//! match spanning exactly `WITHIN` ticks is still admitted.

use caesar::clickstream::{
    clickstream_builder, clickstream_model, output_types, ABANDON_WITHIN, CONVERSION_WITHIN,
    DEFAULT_WITHIN,
};
use caesar::prelude::*;
use caesar_runtime::{run_mode_full, Engine, ModeSpec};
use caesar_testkit::{build_programs, canonical, check_workload, oracle_run, Workload};

/// Runs `events` (one partition, time-ordered) through the replication-1
/// clickstream model and returns the run report.
fn run(events: Vec<Event>) -> RunReport {
    let mut system = clickstream_builder(1).build().expect("model builds");
    system
        .run_stream(&mut VecStream::new(events))
        .expect("stream is in order")
}

fn ev(system_reg: &SchemaRegistry, ty: &str, t: Time, attrs: &[i64]) -> Event {
    let type_id = system_reg.lookup(ty).expect("registered");
    Event::simple(
        type_id,
        t,
        PartitionId(1),
        attrs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>(),
    )
}

fn registry() -> SchemaRegistry {
    caesar::clickstream::clickstream_registry()
}

#[test]
fn conversion_exactly_at_the_within_horizon() {
    let reg = registry();
    // CartAdd@10 switches browsing → engaged; initiation is exclusive,
    // so only CartAdd@12 is in the window. Purchase lands exactly
    // CONVERSION_WITHIN ticks after it: span == horizon is admitted.
    let t_buy = 12 + CONVERSION_WITHIN;
    let report = run(vec![
        ev(&reg, "CartAdd", 10, &[1, 3, 50]),
        ev(&reg, "CartAdd", 12, &[1, 4, 60]),
        ev(&reg, "Purchase", t_buy, &[1, 100, 2]),
    ]);
    assert_eq!(report.outputs_of("Conversion"), 1, "span == WITHIN matches");

    // One tick past the horizon: the same stream shifted by one.
    let report = run(vec![
        ev(&reg, "CartAdd", 10, &[1, 3, 50]),
        ev(&reg, "CartAdd", 12, &[1, 4, 60]),
        ev(&reg, "Purchase", t_buy + 1, &[1, 100, 2]),
    ]);
    assert_eq!(report.outputs_of("Conversion"), 0, "span > WITHIN is out");
}

#[test]
fn abandonment_negation_straddles_the_context_flip() {
    let reg = registry();
    // The SessionEnd@40 *terminates* the engaged window — and, because
    // termination is inclusive, it is also the final element of the
    // SEQ(CartAdd, NOT Purchase, SessionEnd) match. Only CartAdd@12 is
    // in-window (the @10 initiator is excluded), so exactly one match.
    let report = run(vec![
        ev(&reg, "CartAdd", 10, &[1, 3, 50]),
        ev(&reg, "CartAdd", 12, &[1, 4, 60]),
        ev(&reg, "SessionEnd", 40, &[1, 40]),
    ]);
    assert_eq!(report.outputs_of("CartAbandoned"), 1);
    assert_eq!(report.outputs_of("Conversion"), 0);

    // A purchase in between both vetoes the negation *and* flips the
    // context first: the engaged window becomes (10, 20], the session
    // end at 40 is never admitted to it, and the conversion fires
    // instead.
    let report = run(vec![
        ev(&reg, "CartAdd", 10, &[1, 3, 50]),
        ev(&reg, "CartAdd", 12, &[1, 4, 60]),
        ev(&reg, "Purchase", 20, &[1, 100, 2]),
        ev(&reg, "SessionEnd", 40, &[1, 40]),
    ]);
    assert_eq!(report.outputs_of("CartAbandoned"), 0);
    assert_eq!(report.outputs_of("Conversion"), 1);
}

#[test]
fn same_timestamp_view_cart_pair() {
    let reg = registry();
    // View@10 shares its timestamp with the CartAdd that flips
    // browsing → engaged. The browsing window is (…, 10] — termination
    // inclusive — so the view still belongs to *browsing* and pairs
    // with the earlier views: (5,8), (5,10), (8,10). It can never pair
    // with itself or the cart (SEQ needs strictly increasing times),
    // and nothing after the flip feeds BrowsePath.
    let report = run(vec![
        ev(&reg, "View", 5, &[1, 7, 10]),
        ev(&reg, "View", 8, &[1, 8, 10]),
        ev(&reg, "View", 10, &[1, 9, 10]),
        ev(&reg, "CartAdd", 10, &[1, 3, 50]),
        ev(&reg, "View", 11, &[1, 2, 10]),
    ]);
    assert_eq!(report.outputs_of("BrowsePath"), 3);
}

#[test]
fn bot_burst_is_gated_by_the_suspect_context() {
    let reg = registry();
    // Views at 1 and 2 would complete within-5 triples with the burst
    // (6-1 == 5 ≤ WITHIN) — but they live in the *browsing* window, so
    // the only burst triple is (4,5,6). Symmetrically the dwell-10
    // views at 4 and 5 would extend BrowsePath pairs, but they live in
    // the *bot_suspect* window, and the browsing partial from View@1
    // does not survive the flip: BrowsePath is exactly the (1,2) pair.
    // After CaptchaOk@7 re-opens browsing, (8,9) fails the dwell
    // predicate, and (1,8)/(2,8) would need partials from the closed
    // first window.
    let report = run(vec![
        ev(&reg, "View", 1, &[1, 7, 10]),
        ev(&reg, "View", 2, &[1, 8, 10]),
        ev(&reg, "BotAlarm", 3, &[1, 120]),
        ev(&reg, "View", 4, &[1, 9, 10]),
        ev(&reg, "View", 5, &[1, 9, 10]),
        ev(&reg, "View", 6, &[1, 9, 1]),
        ev(&reg, "CaptchaOk", 7, &[1, 7]),
        ev(&reg, "View", 8, &[1, 2, 10]),
        ev(&reg, "View", 9, &[1, 2, 1]),
    ]);
    assert_eq!(
        report.outputs_of("BotBurst"),
        1,
        "only the in-window triple"
    );
    assert_eq!(
        report.outputs_of("BrowsePath"),
        1,
        "only the pre-alarm pair"
    );
}

/// `ev` on partition `p`.
fn on(reg: &SchemaRegistry, p: u32, ty: &str, t: Time, attrs: &[i64]) -> Event {
    let attrs = attrs.iter().map(|&v| Value::Int(v)).collect::<Vec<_>>();
    Event::simple(
        reg.lookup(ty).expect("registered"),
        t,
        PartitionId(p),
        attrs,
    )
}

/// `events` over the replication-1 model, as the differential harness
/// takes it.
fn workload(events: Vec<Event>) -> Workload {
    Workload {
        seed: 0,
        model: clickstream_model(1),
        registry: registry(),
        events,
        default_within: DEFAULT_WITHIN,
        reorder_slack: 0,
        output_types: output_types(1),
    }
}

/// The `partitions_materialized` gauge after each ingest of the
/// workload's events — the same whether the engine ran uninterrupted or
/// was snapshotted after any prefix and restored into a fresh one.
fn rows_after_each_event(workload: &Workload) -> Vec<u64> {
    let (optimized, _, registry) = build_programs(workload).expect("build");
    let config = EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build();
    let fresh = || Engine::new(optimized.clone(), &registry, config);
    let rows = |engine: &mut Engine, events: &[Event]| -> Vec<u64> {
        let rows = events.iter().map(|e| {
            engine.ingest(e.clone()).expect("in-order stream");
            engine.metrics_snapshot().counters["partitions_materialized"]
        });
        rows.collect()
    };
    let uninterrupted = rows(&mut fresh(), &workload.events);
    for k in 0..workload.events.len() {
        let (head, tail) = workload.events.split_at(k);
        let mut original = fresh();
        rows(&mut original, head);
        let mut restored = fresh();
        restored
            .restore_state(original.snapshot_state())
            .expect("same program");
        assert_eq!(
            rows(&mut restored, tail),
            uninterrupted[k..],
            "restored after {k} events"
        );
    }
    uninterrupted
}

#[test]
fn second_session_after_the_row_was_released() {
    let reg = registry();
    // User 1's first session flips browsing → engaged at 10 and back at
    // 40; only CartAdd@12 is in the engaged window, so one abandonment.
    // User 2's views (30 ticks apart is the BrowsePath horizon; these
    // are 190 apart) only move global progress past 40 + the longest
    // WITHIN, where user 1's row is back at the startup state and the
    // sweep releases it. User 1's second session then re-creates it at
    // CartAdd@310: BrowsePath from the two browsing views, Conversion
    // from the in-window CartAdd@312 (the @310 initiator is excluded).
    let workload = workload(vec![
        on(&reg, 1, "CartAdd", 10, &[1, 3, 50]),
        on(&reg, 1, "CartAdd", 12, &[1, 4, 60]),
        on(&reg, 1, "SessionEnd", 40, &[1, 40]),
        on(&reg, 2, "View", 100, &[2, 5, 10]),
        on(&reg, 2, "View", 290, &[2, 6, 10]),
        on(&reg, 1, "View", 300, &[1, 7, 10]),
        on(&reg, 1, "View", 305, &[1, 8, 10]),
        on(&reg, 1, "CartAdd", 310, &[1, 3, 50]),
        on(&reg, 1, "CartAdd", 312, &[1, 4, 60]),
        on(&reg, 1, "Purchase", 320, &[1, 100, 2]),
        on(&reg, 1, "SessionEnd", 330, &[1, 330]),
    ]);
    // The release needs progress past the first session's horizon.
    const _: () = assert!(40 + ABANDON_WITHIN < 290);
    let (optimized, _, registry) = build_programs(&workload).expect("build");
    let spec = ModeSpec::sequential("release/seq", EngineConfig::default());
    let (_, outputs, _) = run_mode_full(&optimized, &registry, &spec, &workload.events).unwrap();
    let rendered: Vec<String> = outputs
        .iter()
        .map(|e| {
            let name = &registry.schema(e.type_id).name;
            format!("{name}@{}/p{}{:?}", e.time(), e.partition.0, &e.attrs[..])
        })
        .collect();
    assert_eq!(
        rendered,
        [
            "CartAbandoned@40/p1[Int(60), Int(40)]",
            "BrowsePath@305/p1[Int(7), Int(8)]",
            "Conversion@320/p1[Int(60), Int(100)]",
        ]
    );
    let oracle = oracle_run(&workload).expect("oracle");
    assert_eq!(canonical(&outputs), canonical(&oracle.outputs));
    check_workload(&workload).unwrap_or_else(|failure| panic!("{failure}"));

    // User 1's row from CartAdd@10's transaction on, gone once progress
    // passes 40 + ABANDON_WITHIN, back with the second session's
    // CartAdd@310.
    assert_eq!(
        rows_after_each_event(&workload),
        [0, 1, 1, 1, 0, 0, 0, 0, 1, 1, 1]
    );
}

/// A partition that executed last when its row falls due — the stream
/// went quiet for longer than the longest `WITHIN` — keeps its row
/// while it holds a partial, and releases it once that partial is gone:
/// user 1's View@25 opens a BrowsePath partial whose horizon progress
/// has passed by the time CaptchaOk@300 arrives, so the sweep to 300
/// prunes it from the stored record and releases the row in the same
/// pass (the executing partition is swept like any other; none is left
/// to its own next transaction). Nothing matches.
#[test]
fn a_partial_held_across_a_quiet_stretch_releases_its_row_later() {
    let reg = registry();
    let workload = workload(vec![
        on(&reg, 1, "CartAdd", 10, &[1, 3, 50]),
        on(&reg, 1, "SessionEnd", 20, &[1, 20]),
        on(&reg, 1, "View", 25, &[1, 7, 10]),
        on(&reg, 1, "CaptchaOk", 300, &[1, 300]),
        on(&reg, 2, "View", 301, &[2, 5, 10]),
        on(&reg, 2, "View", 600, &[2, 6, 10]),
    ]);
    const _: () = assert!(25 + ABANDON_WITHIN < 300);
    let oracle = oracle_run(&workload).expect("oracle");
    assert!(oracle.outputs.is_empty());
    check_workload(&workload).unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(rows_after_each_event(&workload), [0, 1, 1, 0, 0, 0]);
}

/// A row is released one horizon after its latest transition, whatever
/// entry brings the sweep to it — so a restored engine, which enters
/// the row afresh under that time, releases it on the same ingest.
/// User 1's CartAdd@10 enters it under 250 and the SessionEnd@100 that
/// makes the row idle under 340; when the first falls due (the ingest
/// of View@260) the row, updated since, is due at 340.
#[test]
fn a_row_is_released_one_horizon_after_its_latest_transition() {
    let reg = registry();
    let workload = workload(vec![
        on(&reg, 1, "CartAdd", 10, &[1, 3, 50]),
        on(&reg, 1, "SessionEnd", 100, &[1, 100]),
        on(&reg, 2, "View", 200, &[2, 5, 10]),
        on(&reg, 2, "View", 260, &[2, 6, 10]),
        on(&reg, 2, "View", 300, &[2, 7, 10]),
        on(&reg, 2, "View", 350, &[2, 8, 10]),
    ]);
    const _: () = assert!(10 + ABANDON_WITHIN < 260 && 100 + ABANDON_WITHIN < 350);
    check_workload(&workload).unwrap_or_else(|failure| panic!("{failure}"));
    assert_eq!(rows_after_each_event(&workload), [0, 1, 1, 1, 1, 0]);
}
