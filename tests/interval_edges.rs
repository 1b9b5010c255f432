//! Interval edge cases pinned as explicit examples: the `(t_i, t_t]`
//! context-window boundaries, zero-span windows, simultaneous events in
//! one partition, sequence matches exactly at the `WITHIN` horizon, and
//! state expired by global progress while its partition is idle. The
//! generative differential suite covers these statistically; this file
//! states the expected answers by hand so a regression points straight
//! at the broken rule.

use caesar::prelude::*;
use caesar::recovery::{outputs_equivalent, reports_equivalent};
use caesar_testkit::fixture;

const SCHEMAS: &[fixture::SchemaDecl<'_>] = &[
    ("Start", &[("v", AttrType::Int)]),
    ("Stop", &[("v", AttrType::Int)]),
    ("X", &[("v", AttrType::Int)]),
    ("Y", &[("v", AttrType::Int)]),
    ("A", &[("v", AttrType::Int)]),
    ("B", &[("v", AttrType::Int)]),
    ("C", &[("v", AttrType::Int)]),
    ("Reading", &[("v", AttrType::Int)]),
];

fn system(model: &str, within: Time) -> CaesarSystem {
    fixture::system(
        SCHEMAS,
        within,
        model,
        EngineConfig::builder().collect_outputs(true).build(),
    )
}

fn ev(sys: &CaesarSystem, ty: &str, t: Time, p: u32) -> Event {
    sys.event(ty, t)
        .unwrap()
        .partition(PartitionId(p))
        .attr("v", t as i64)
        .unwrap()
        .build()
        .unwrap()
}

const SWITCHED: &str = r#"
    MODEL m DEFAULT off
    CONTEXT off {
        SWITCH CONTEXT on PATTERN Start
    }
    CONTEXT on {
        SWITCH CONTEXT off PATTERN Stop
        DERIVE Out(r.v) PATTERN Reading r
    }
"#;

/// Definition 2's window is open on the left: an event carrying the
/// initiation timestamp itself is *not* part of the window, even when
/// it rides the very transaction that opened it — and contexts are
/// per-partition, so another partition stays in its default context.
#[test]
fn initiation_boundary_is_exclusive_and_per_partition() {
    let mut sys = system(SWITCHED, 100);
    for e in [
        ev(&sys, "Start", 5, 0),
        ev(&sys, "Reading", 5, 0), // same txn as the switch: excluded
        ev(&sys, "Reading", 6, 0), // first admitted instant
        ev(&sys, "Reading", 6, 1), // partition 1 never left `off`
        ev(&sys, "Reading", 7, 0),
    ] {
        sys.ingest(e).unwrap();
    }
    let report = sys.finish();
    assert_eq!(report.outputs_of("Out"), 2, "t=6 and t=7 in partition 0");
}

/// ... and closed on the right: an event at the termination timestamp is
/// still inside the window, including when it shares the transaction
/// with the terminating marker. The next instant is outside.
#[test]
fn termination_boundary_is_inclusive() {
    let mut sys = system(SWITCHED, 100);
    for e in [
        ev(&sys, "Start", 5, 0),
        ev(&sys, "Reading", 7, 0), // inside
        ev(&sys, "Stop", 9, 0),
        ev(&sys, "Reading", 9, 0),  // exactly at t_t: inside
        ev(&sys, "Reading", 10, 0), // outside
    ] {
        sys.ingest(e).unwrap();
    }
    let report = sys.finish();
    assert_eq!(report.outputs_of("Out"), 2, "t=7 and the boundary t=9");
}

/// A context initiated and terminated in the same transaction leaves a
/// zero-span window `(t, t]` behind — which admits nothing, not even
/// events at `t` itself.
#[test]
fn zero_span_window_admits_nothing() {
    let model = r#"
        MODEL z DEFAULT a
        CONTEXT a {
            SWITCH CONTEXT b PATTERN X
            TERMINATE CONTEXT b PATTERN Y
        }
        CONTEXT b {
            DERIVE Out(r.v) PATTERN Reading r
        }
    "#;
    let mut sys = system(model, 100);
    for e in [
        ev(&sys, "X", 5, 0), // initiates b at 5 (and closes a)
        ev(&sys, "Y", 5, 0), // same txn: terminates b at 5 → window (5, 5]
        ev(&sys, "Reading", 5, 0),
        ev(&sys, "Reading", 6, 0),
        ev(&sys, "Reading", 7, 0),
    ] {
        sys.ingest(e).unwrap();
    }
    let report = sys.finish();
    assert_eq!(
        report.outputs_of("Out"),
        0,
        "(5, 5] is empty and b never reopens"
    );
}

const PAIRED: &str = r#"
    MODEL p DEFAULT main
    CONTEXT main {
        DERIVE Pair(a.v, b.v) PATTERN SEQ(A a, B b) WITHIN 10
    }
"#;

/// `WITHIN w` admits a sequence spanning exactly `w` ticks and rejects
/// `w + 1`; sequence order is strict, so a same-timestamp pair never
/// matches.
#[test]
fn sequence_span_boundary_at_within_horizon() {
    let mut sys = system(PAIRED, 10);
    for e in [
        ev(&sys, "A", 1, 0),
        ev(&sys, "B", 11, 0), // span 10 = WITHIN: match
        ev(&sys, "A", 20, 0),
        ev(&sys, "B", 30, 0), // span 10: match
        ev(&sys, "A", 40, 0),
        ev(&sys, "B", 51, 0), // span 11: one past the horizon
        ev(&sys, "A", 60, 0),
        ev(&sys, "B", 60, 0), // simultaneous: SEQ is strict, no match
    ] {
        sys.ingest(e).unwrap();
    }
    let report = sys.finish();
    assert_eq!(report.outputs_of("Pair"), 2);
}

/// Simultaneous events in one partition form a single transaction:
/// every one of them is processed, and a single-event pattern derives
/// once per input even when all inputs share a timestamp.
#[test]
fn simultaneous_events_one_partition_all_processed() {
    let model = r#"
        MODEL s DEFAULT main
        CONTEXT main {
            DERIVE Out(r.v) PATTERN Reading r
        }
    "#;
    let mut sys = system(model, 100);
    for _ in 0..5 {
        sys.ingest(ev(&sys, "Reading", 3, 0)).unwrap();
    }
    sys.ingest(ev(&sys, "Reading", 4, 0)).unwrap();
    let report = sys.finish();
    assert_eq!(report.events_in, 6);
    assert_eq!(report.outputs_of("Out"), 6);
}

/// A negated element between two positives vetoes only events *strictly*
/// inside `(a.time, c.time)`: a `B` sharing either endpoint's timestamp
/// does not cancel the match.
#[test]
fn between_negation_boundaries_are_exclusive() {
    let model = r#"
        MODEL n DEFAULT main
        CONTEXT main {
            DERIVE Guard(a.v, c.v) PATTERN SEQ(A a, NOT B, C c) WITHIN 10
        }
    "#;
    let mut sys = system(model, 10);
    for e in [
        ev(&sys, "A", 1, 0),
        ev(&sys, "B", 1, 0), // at a.time: outside (1, 5)
        ev(&sys, "C", 5, 0), // match
        ev(&sys, "A", 20, 0),
        ev(&sys, "B", 22, 0), // strictly inside (20, 25): veto
        ev(&sys, "C", 25, 0),
        ev(&sys, "A", 40, 0),
        ev(&sys, "B", 43, 0),
        ev(&sys, "C", 43, 0), // B at c.time: outside (40, 43) → match
    ] {
        sys.ingest(e).unwrap();
    }
    let report = sys.finish();
    assert_eq!(report.outputs_of("Guard"), 2);
}

/// An unbounded horizon — what a query without `WITHIN` inherits from
/// `Caesar::builder().within(Time::MAX)` — keeps every negated event, so
/// a leading negation still vetoes a positive arbitrarily long after
/// it. `time + within` overflows there, so the buffer's horizon test
/// must saturate like every other one, in the engine and the oracle.
#[test]
fn leading_negation_with_an_unbounded_horizon_keeps_every_veto() {
    let model = r#"
        MODEL u DEFAULT main
        CONTEXT main {
            DERIVE Fresh(b.v) PATTERN SEQ(NOT A a, B b) WHERE a.v = b.v
        }
    "#;
    let mut sys = system(model, Time::MAX);
    let with_v = |sys: &CaesarSystem, ty: &str, t: Time, v: i64| {
        let builder = sys.event(ty, t).unwrap().partition(PartitionId(0));
        builder.attr("v", v).unwrap().build().unwrap()
    };
    let events = vec![
        with_v(&sys, "A", 1, 1),
        with_v(&sys, "B", 2, 1), // A(1)@1 before it: veto
        with_v(&sys, "B", 3, 2), // no A(2) before it: Fresh(2)
        with_v(&sys, "A", 1_000, 2),
        with_v(&sys, "B", 1_000_000, 1), // A(1)@1 is still buffered: veto
        with_v(&sys, "B", 1_000_001, 3), // Fresh(3)
        with_v(&sys, "B", 1_000_002, 2), // A(2)@1000: veto
    ];
    for e in &events {
        sys.ingest(e.clone()).unwrap();
    }
    sys.finish();
    assert_eq!(rendered(&sys), ["Fresh(2)@0", "Fresh(3)@0"]);

    let parsed = caesar::query::parser::parse_model(model).unwrap();
    let oracle = caesar_testkit::oracle::Oracle::build(&parsed, &sys.registry, Time::MAX).unwrap();
    assert_eq!(oracle.run(&events).outputs, sys.engine.collected_outputs);
}

/// Out-of-order arrival inside the configured slack is repaired before
/// the distributor, so a disordered stream computes exactly what its
/// sorted counterpart does — including across a window boundary.
#[test]
fn reordered_stream_matches_sorted_stream() {
    let run = |events: Vec<Event>, slack: Time| -> u64 {
        let mut sys = fixture::system(
            SCHEMAS,
            100,
            SWITCHED,
            EngineConfig::builder()
                .collect_outputs(true)
                .reorder_slack(slack)
                .build(),
        );
        for e in events {
            sys.ingest(e).unwrap();
        }
        sys.finish().outputs_of("Out")
    };
    let sys = system(SWITCHED, 100);
    let sorted = vec![
        ev(&sys, "Start", 5, 0),
        ev(&sys, "Reading", 6, 0),
        ev(&sys, "Reading", 8, 0),
        ev(&sys, "Stop", 9, 0),
        ev(&sys, "Reading", 9, 0),
        ev(&sys, "Reading", 10, 0),
    ];
    // Worst lateness 4 (the t=5 switch arrives after t=9 events).
    let disordered = vec![
        ev(&sys, "Reading", 6, 0),
        ev(&sys, "Reading", 8, 0),
        ev(&sys, "Stop", 9, 0),
        ev(&sys, "Start", 5, 0),
        ev(&sys, "Reading", 9, 0),
        ev(&sys, "Reading", 10, 0),
    ];
    assert_eq!(run(sorted, 0), 3, "t=6, t=8 and the boundary t=9");
    assert_eq!(run(disordered, 4), 3, "slack 4 repairs the disorder");
}

/// The outputs collected so far, one `Type(attrs)@partition` each, in
/// emission order.
fn rendered(sys: &CaesarSystem) -> Vec<String> {
    let outputs = sys.engine.collected_outputs.iter();
    outputs
        .map(|e| {
            let attrs: Vec<String> = e.attrs.iter().map(ToString::to_string).collect();
            let name = &sys.registry.schema(e.type_id).name;
            format!("{name}({})@{}", attrs.join(","), e.partition.0)
        })
        .collect()
}

fn outs(p: u32, ticks: impl IntoIterator<Item = Time>) -> impl Iterator<Item = String> {
    ticks.into_iter().map(move |t| format!("Out({t})@{p}"))
}

fn counted(model: &str, within: Time) -> CaesarSystem {
    let config = EngineConfig::builder()
        .collect_outputs(true)
        .observability(ObservabilityLevel::Counters)
        .build();
    fixture::system(SCHEMAS, within, model, config)
}

/// A parked trailing-negation match is decided by its own partition's
/// watermark, never by global progress. Partition 0's `Lone(1)` is past
/// its deadline (11) from tick 12 on; partition 1's readings carry
/// progress to 30 and the sweep visits partition 0, which keeps the
/// match — it comes out in partition 0's next transaction (t = 31,
/// after that transaction's own `Out`), and partition 2's, whose
/// partition never has another one, at `finish`.
#[test]
fn parked_trailing_match_waits_for_its_own_partition() {
    let model = r#"
        MODEL q DEFAULT main
        CONTEXT main {
            DERIVE Lone(a.v) PATTERN SEQ(A a, NOT B) WITHIN 10
            DERIVE Out(r.v) PATTERN Reading r
        }
    "#;
    let mut sys = system(model, 10);
    sys.ingest(ev(&sys, "A", 1, 0)).unwrap();
    for t in 2..=30 {
        sys.ingest(ev(&sys, "Reading", t, 1)).unwrap();
    }
    assert_eq!(
        sys.engine.partitions_with_state(),
        1,
        "the parked match stays"
    );
    for (ty, t, p) in [
        ("Reading", 31, 0),
        ("Reading", 31, 1),
        ("A", 40, 2),
        ("Reading", 41, 1),
    ] {
        sys.ingest(ev(&sys, ty, t, p)).unwrap();
    }
    sys.finish();
    let expected: Vec<String> = outs(1, 2..=30)
        .chain(["Out(31)@0".into(), "Lone(1)@0".into(), "Out(31)@1".into()])
        .chain(["Out(41)@1".into(), "Lone(40)@2".into()])
        .collect();
    assert_eq!(rendered(&sys), expected);
    assert_eq!(sys.engine.partitions_with_state(), 0);
}

const GUARDED: &str = r#"
    MODEL g DEFAULT main
    CONTEXT main {
        DERIVE Pair(a.v, b.v) PATTERN SEQ(A a, B b) WITHIN 10
        DERIVE Guard(a.v, c.v) PATTERN SEQ(A a, NOT B, C c) WITHIN 10
        DERIVE Out(r.v) PATTERN Reading r
    }
"#;

const FIRST_SESSION: [(&str, Time); 4] = [("A", 1), ("B", 2), ("A", 3), ("C", 4)];
const SECOND_SESSION: [(&str, Time); 5] = [("B", 31), ("C", 32), ("A", 33), ("C", 35), ("B", 36)];

/// Partition 0's first session (t = 1..4) leaves partials of `A@1` and
/// `A@3` and a buffered `B@2` behind; partition 1's readings carry
/// progress past all their horizons (≤ 14), and the sweep drops them
/// without partition 0 executing again. Its next session computes what
/// it would have with the stale state still held: the old `A`s are out
/// of every horizon.
#[test]
fn swept_partition_resumes_as_if_idle() {
    let mut sys = counted(GUARDED, 10);
    for (ty, t) in FIRST_SESSION {
        sys.ingest(ev(&sys, ty, t, 0)).unwrap();
    }
    for t in 5..=30 {
        sys.ingest(ev(&sys, "Reading", t, 1)).unwrap();
    }
    assert_eq!(sys.engine.partitions_with_state(), 0, "partition 0 swept");
    let counters = sys.engine.metrics_snapshot().counters;
    assert!(counters["expired_states"] >= 2 && counters["gc_runs"] >= 1);
    for (ty, t) in SECOND_SESSION {
        sys.ingest(ev(&sys, ty, t, 0)).unwrap();
    }
    sys.ingest(ev(&sys, "Reading", 37, 1)).unwrap();
    sys.finish();
    // `A@1 → C@4` is vetoed by `B@2`; `A@3 → C@4` is not. The second
    // session pairs only its own `A@33`.
    let expected: Vec<String> = ["Pair(1,2)@0".into(), "Guard(3,4)@0".into()]
        .into_iter()
        .chain(outs(1, 5..=30))
        .chain(["Guard(33,35)@0".into(), "Pair(33,36)@0".into()])
        .chain(outs(1, [37]))
        .collect();
    assert_eq!(rendered(&sys), expected);
}

/// A snapshot taken after a sweep, while another partition is bound
/// with a live partial, restores into an engine that resumes exactly
/// like the original: the worklist is rebuilt from the records and the
/// bound partition bound again.
#[test]
fn snapshot_after_a_sweep_resumes_identically() {
    let mut sys = counted(GUARDED, 10);
    for (ty, t) in FIRST_SESSION {
        sys.ingest(ev(&sys, ty, t, 0)).unwrap();
    }
    for t in 5..=28 {
        sys.ingest(ev(&sys, "Reading", t, 1)).unwrap();
    }
    sys.ingest(ev(&sys, "A", 29, 1)).unwrap();
    sys.ingest(ev(&sys, "Reading", 30, 1)).unwrap();
    assert_eq!(sys.engine.partitions_with_state(), 1, "partition 1's A@29");

    let bytes = serde::to_bytes(&sys.engine.snapshot_state());
    let mut restored = counted(GUARDED, 10);
    restored
        .engine
        .restore_state(serde::from_bytes(&bytes).unwrap())
        .unwrap();
    let suffix = SECOND_SESSION.iter().map(|&(ty, t)| (ty, t, 0)).chain([
        ("B", 38, 1),
        ("Reading", 60, 1),
        ("A", 61, 0),
    ]);
    for (ty, t, p) in suffix {
        for target in [&mut sys, &mut restored] {
            target.ingest(ev(target, ty, t, p)).unwrap();
        }
        assert_eq!(
            sys.engine.partitions_with_state(),
            restored.engine.partitions_with_state()
        );
    }
    let (a, b) = (sys.finish(), restored.finish());
    assert!(reports_equivalent(&a, &b));
    assert!(outputs_equivalent(
        &sys.engine.collected_outputs,
        &restored.engine.collected_outputs
    ));
    assert_eq!(
        a.outputs_of("Pair"),
        3,
        "(1,2), (33,36) and partition 1's (29,38)"
    );
}

/// Runs `arrivals` through a strict and a speculative engine with the
/// same slack, checks that the speculative record stream folds to the
/// strict outputs, and returns both engines after `finish`.
fn strict_and_speculative(
    slack: Time,
    arrivals: &[(&str, Time, u32)],
) -> (CaesarSystem, CaesarSystem) {
    let build = |consistency| {
        let config = EngineConfig::builder()
            .collect_outputs(true)
            .reorder_slack(slack)
            .consistency(consistency)
            .observability(ObservabilityLevel::Counters)
            .build();
        fixture::system(SCHEMAS, 10, PAIRED, config)
    };
    let (mut strict, mut spec) = (build(Consistency::Strict), build(Consistency::Speculative));
    for &(ty, t, p) in arrivals {
        for sys in [&mut strict, &mut spec] {
            sys.ingest(ev(sys, ty, t, p)).unwrap();
        }
    }
    strict.finish();
    spec.finish();
    let mut folded: Vec<String> = Vec::new();
    for record in &spec.engine.collected_records {
        let key = format!("{:?}", record.event());
        if record.is_retraction() {
            let at = folded.iter().position(|k| *k == key);
            folded.swap_remove(at.expect("retracts a prior emission"));
        } else {
            folded.push(key);
        }
    }
    let outputs = strict.engine.collected_outputs.iter();
    let mut settled: Vec<String> = outputs.map(|e| format!("{e:?}")).collect();
    folded.sort();
    settled.sort();
    assert_eq!(folded, settled);
    (strict, spec)
}

/// A speculative revision of a partition the sweep emptied rewinds it
/// to the settled core's (swept) state and folds to the strict outputs.
/// Slack 4: `A@42` arrives after the fork executed partition 0 at 43,
/// whose first session (t = 1, 2) both core and fork swept long before.
#[test]
fn revision_of_a_swept_partition_folds_to_strict() {
    let mut arrivals = vec![("A", 1, 0), ("B", 2, 0)];
    arrivals.extend((3..=40).map(|t| ("Reading", t, 1)));
    arrivals.extend([("A", 41, 0), ("B", 43, 0), ("Reading", 44, 1), ("A", 42, 0)]);
    arrivals.extend((45..=50).map(|t| ("Reading", t, 1)));
    let (strict, spec) = strict_and_speculative(4, &arrivals);
    assert!(spec.engine.metrics_snapshot().counters["expired_states"] >= 1);
    assert!(
        spec.engine.spec_rebuilds >= 1,
        "the straggler rewound partition 0"
    );
    assert_eq!(
        strict.engine.collected_outputs.len(),
        3,
        "(1,2), (41,43), (42,43)"
    );
}

/// The fork sweeps to the settled core's progress, not its own. Slack
/// 10: partition 1 carries the fork to 15, past `A@1`'s horizon (11),
/// while the core has settled only up to 5; then partition 0's `B@8`
/// arrives. Partition 0 ran nothing at or after 8, so the fork executes
/// it on its head state — which must still hold `A@1`.
#[test]
fn late_transaction_on_head_state_sees_what_the_core_still_holds() {
    let mut arrivals = vec![("A", 1, 0)];
    arrivals.extend((2..=15).map(|t| ("Reading", t, 1)));
    arrivals.push(("B", 8, 0));
    arrivals.extend((16..=30).map(|t| ("Reading", t, 1)));
    let (strict, spec) = strict_and_speculative(10, &arrivals);
    assert_eq!(spec.engine.spec_rebuilds, 0, "a head-state transaction");
    assert_eq!(strict.engine.collected_outputs.len(), 1, "Pair(1,8)");
}
