//! Sharded settlement semantics: the sharded driver leg must pin the
//! *exact* sequential reorder semantics — equal timestamps release in
//! arrival order, and events later than the reorder slack are dropped
//! under the same global watermark.
//!
//! Regression: the sharded leg used to order its input with a plain
//! stable sort, which silently resurrected beyond-slack stragglers the
//! sequential legs count and drop — the sort has no watermark, so a
//! straggler that arrived hopelessly late was quietly slotted back into
//! position and processed. The driver now
//! pre-settles the arrival stream through a [`ReorderBuffer`]
//! (`ReorderBuffer::settle_stream`), so both legs see the same drops
//! and the same tie order.

use caesar::events::{Event, PartitionId, Value};
use caesar::prelude::*;
use caesar::runtime::{run_mode, ModeSpec};
use caesar_testkit::canonical;

const MODEL: &str = r#"
MODEL traffic DEFAULT clear
CONTEXT clear {
    SWITCH CONTEXT congestion PATTERN ManySlowCars
}
CONTEXT congestion {
    SWITCH CONTEXT clear PATTERN FewFastCars
    DERIVE TollNotification(p.vid, p.sec, 5)
        PATTERN PositionReport p WHERE p.lane != "exit"
}
"#;

fn build() -> (caesar::optimizer::OptimizedProgram, SchemaRegistry) {
    let (program, registry, _explain) = Caesar::builder()
        .schema(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("lane", AttrType::Str),
            ],
        )
        .schema("ManySlowCars", &[("seg", AttrType::Int)])
        .schema("FewFastCars", &[("seg", AttrType::Int)])
        .model_text(MODEL)
        .within(300)
        .build_program()
        .expect("model builds");
    (program, registry)
}

fn pr(registry: &SchemaRegistry, t: Time, p: u32, vid: i64) -> Event {
    let ty = registry.lookup("PositionReport").unwrap();
    Event::simple(
        ty,
        t,
        PartitionId(p),
        vec![Value::Int(vid), Value::Int(t as i64), Value::str("travel")],
    )
}

fn msc(registry: &SchemaRegistry, t: Time, p: u32) -> Event {
    let ty = registry.lookup("ManySlowCars").unwrap();
    Event::simple(ty, t, PartitionId(p), vec![Value::Int(0)])
}

/// Arrival stream with bounded disorder, a same-timestamp tie pair, and
/// one straggler *beyond* the slack. With `reorder_slack = 3` the
/// watermark reaches 12 before the straggler (t = 8) arrives, so the
/// lateness floor sits at 9 and the straggler must be dropped — in
/// every leg.
fn arrivals(registry: &SchemaRegistry) -> Vec<Event> {
    vec![
        pr(registry, 1, 0, 1),
        msc(registry, 5, 0),
        msc(registry, 5, 1),
        pr(registry, 8, 0, 2),
        // Disorder within the slack: t=10 arrives before t=9.
        pr(registry, 10, 0, 3),
        pr(registry, 9, 0, 4),
        // Same-timestamp tie on one partition: released in arrival
        // order into a single stream transaction.
        pr(registry, 10, 0, 5),
        pr(registry, 11, 1, 7),
        pr(registry, 12, 0, 6),
        // Beyond-slack straggler: would derive a toll if resurrected.
        pr(registry, 8, 0, 9),
    ]
}

#[test]
fn sharded_leg_drops_and_ties_like_the_sequential_leg() {
    let (program, registry) = build();
    let events = arrivals(&registry);
    let config = EngineConfig::builder().reorder_slack(3).build();

    let seq = ModeSpec::sequential("seq/per-event", config);
    let sharded = ModeSpec {
        label: "sharded2".into(),
        config,
        shards: 2,
        optimized: true,
        restart_after: None,
    };

    let (seq_report, seq_outputs, _) =
        run_mode(&program, &registry, &seq, &events).expect("sequential run");
    let (sh_report, sh_outputs, _) =
        run_mode(&program, &registry, &sharded, &events).expect("sharded run");

    // The straggler is dropped, not processed: 10 arrivals, 9 ingested.
    assert_eq!(seq_report.events_in, 9, "sequential drops the straggler");
    assert_eq!(
        sh_report.events_in, seq_report.events_in,
        "sharded leg must not resurrect a beyond-slack straggler"
    );
    // Tolls for vids 2, 3, 4, 5, 6 (partition 0) and 7 (partition 1);
    // the straggler's vid 9 must appear in neither leg.
    assert_eq!(seq_report.outputs_of("TollNotification"), 6);
    assert_eq!(
        sh_report.outputs_of("TollNotification"),
        seq_report.outputs_of("TollNotification")
    );
    assert_eq!(
        canonical(&sh_outputs),
        canonical(&seq_outputs),
        "sharded and sequential legs must settle to byte-identical outputs"
    );
    assert_eq!(
        sh_report.transitions_applied,
        seq_report.transitions_applied
    );
}

/// The same stream *without* the straggler: pure disorder and ties.
/// Both legs must agree with slack large enough that nothing drops —
/// the tie-order half of the settlement contract.
#[test]
fn tie_order_matches_without_drops() {
    let (program, registry) = build();
    let mut events = arrivals(&registry);
    events.pop(); // remove the beyond-slack straggler
    let config = EngineConfig::builder().reorder_slack(4).build();

    let seq = ModeSpec::sequential("seq/per-event", config);
    let sharded = ModeSpec {
        label: "sharded2".into(),
        config,
        shards: 2,
        optimized: true,
        restart_after: None,
    };
    let (seq_report, seq_outputs, _) =
        run_mode(&program, &registry, &seq, &events).expect("sequential run");
    let (sh_report, sh_outputs, _) =
        run_mode(&program, &registry, &sharded, &events).expect("sharded run");
    assert_eq!(seq_report.events_in, events.len() as u64, "nothing drops");
    assert_eq!(sh_report.events_in, seq_report.events_in);
    assert_eq!(canonical(&sh_outputs), canonical(&seq_outputs));
}
