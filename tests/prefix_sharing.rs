//! Pattern-prefix sharing (§5 optimizer, PR "shared NFA runtime"):
//! queries in one context whose compiled NFAs agree on a leading run of
//! `(type, interned predicates)` steps execute that run once through a
//! [`SharedGroup`], and member completions extend from the group's
//! partials.
//!
//! Sharing is a property of the program — every eligible group is
//! installed whenever the engine shares at all — and a pure throughput
//! optimization: it must never change outputs. The unshared arm of
//! every comparison here is the same program run with
//! `EngineConfig::sharing(false)`. These tests pin that:
//!
//! * groups actually *form* for the workloads the tests run (otherwise
//!   the equivalence assertions would vacuously compare the unshared
//!   path against itself);
//! * a crafted stream that walks the tricky edges (same-timestamp
//!   non-matches, boundary completion where `prefix_len == arity - 1`,
//!   context termination mid-prefix, `WITHIN` expiry) produces a
//!   byte-identical output multiset with sharing on and off;
//! * boundary crossings that a member's negation rejects, emits, or
//!   parks until a later event rejects it or its horizon matures it;
//! * a randomized sweep (proptest) holds the same equivalence over
//!   arbitrary interleavings of signal and pattern events;
//! * the dispatch edges: a member whose negation or private suffix
//!   names a prefix type, a derived type in the suffix, and a
//!   snapshot/restore mid-prefix (the routing table is rebuilt, not
//!   stored);
//! * dispatch cost as a work-unit bound: per event, the operators' own
//!   counters show one group advance or one member, whatever the
//!   number of members.
//!
//! [`SharedGroup`]: caesar::algebra::pattern::SharedGroup

use caesar::algebra::translate::{translate_query_set, TranslateOptions};
use caesar::events::{AttrType, Event, PartitionId, Schema, SchemaRegistry, Value};
use caesar::optimizer::Mode;
use caesar::optimizer::{OptimizedProgram, Optimizer};
use caesar::prelude::*;
use caesar::query::QuerySet;
use caesar::runtime::programs::ProgramTemplate;
use caesar::runtime::{run_mode_full, Engine, ModeSpec, RunReport};
use caesar_testkit::canonical;
use proptest::prelude::*;

/// The gated two-long-query model: `LongC` and `LongD` share the
/// two-step `SEQ(A, B, ...)` prefix (their predicates sit on the final
/// variable, which predicate push-down leaves in place), and both run
/// only inside the `busy` context window.
const TWO_QUERY_MODEL: &str = r#"
    MODEL m DEFAULT idle
    CONTEXT idle {
        INITIATE CONTEXT busy PATTERN Go
    }
    CONTEXT busy {
        TERMINATE CONTEXT busy PATTERN Stop
        DERIVE LongC(a.v, c.v) PATTERN SEQ(A a, B b, C c) WHERE c.v > 1 WITHIN 12
        DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WHERE d.v < 3 WITHIN 12
    }
"#;

/// Same workload plus an arity-2 `Short` query: the common prefix drops
/// to a single step, and `Short` completes *entirely* from the group's
/// boundary extension (`prefix_len == arity - 1`).
const THREE_QUERY_MODEL: &str = r#"
    MODEL m DEFAULT idle
    CONTEXT idle {
        INITIATE CONTEXT busy PATTERN Go
    }
    CONTEXT busy {
        TERMINATE CONTEXT busy PATTERN Stop
        DERIVE LongC(a.v, c.v) PATTERN SEQ(A a, B b, C c) WHERE c.v > 1 WITHIN 12
        DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WHERE d.v < 3 WITHIN 12
        DERIVE Short(a.v, b.v) PATTERN SEQ(A a, B b) WITHIN 12
    }
"#;

/// Three members of one `SEQ(A, B)` group, each with a negation of its
/// own: a leading one joined to the prefix (`Lead`), one between the
/// boundary step and the last (`Mid`) and a trailing one joined to the
/// last step (`Tail`). Every completion crosses the group's boundary, so
/// the boundary's rejections, emissions and parked matches are the
/// members' own.
const NEGATION_MODEL: &str = r#"
    MODEL m DEFAULT idle
    CONTEXT idle {
        INITIATE CONTEXT busy PATTERN Go
    }
    CONTEXT busy {
        TERMINATE CONTEXT busy PATTERN Stop
        DERIVE Lead(a.v, c.v) PATTERN SEQ(NOT D x, A a, B b, C c) WHERE x.v = a.v WITHIN 12
        DERIVE Mid(a.v, c.v) PATTERN SEQ(A a, B b, NOT D y, C c) WITHIN 12
        DERIVE Tail(a.v, c.v) PATTERN SEQ(A a, B b, C c, NOT D z) WHERE z.v = c.v WITHIN 12
    }
"#;

const TYPE_NAMES: [&str; 6] = ["Go", "Stop", "A", "B", "C", "D"];

fn input_registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for name in TYPE_NAMES {
        reg.register(Schema::new(name, &[("v", AttrType::Int)]))
            .unwrap();
    }
    reg
}

/// Translates and optimizes `src` over `reg`'s input types.
fn build_over(src: &str, mut reg: SchemaRegistry) -> (OptimizedProgram, SchemaRegistry) {
    let model = caesar::query::parser::parse_model(src).unwrap();
    let qs = QuerySet::from_model(&model).unwrap();
    let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
    let program = Optimizer::default().optimize(t, &reg);
    (program, reg)
}

fn build(src: &str) -> (OptimizedProgram, SchemaRegistry) {
    build_over(src, input_registry())
}

/// `(prefix_len, member_count, gated)` of every shared group an engine
/// with `EngineConfig::sharing == sharing` installs for `program`.
fn installed_groups(program: &OptimizedProgram, sharing: bool) -> Vec<(usize, usize, bool)> {
    let template = ProgramTemplate::build(program.clone().executing(Mode::ContextAware, sharing));
    template
        .processing
        .iter()
        .flat_map(|c| c.shared_groups())
        .map(|g| (g.prefix_len(), g.members().len(), g.gated()))
        .collect()
}

fn event(reg: &SchemaRegistry, name: &str, t: Time, part: u32, v: i64) -> Event {
    Event::simple(
        reg.lookup(name).expect("registered"),
        t,
        PartitionId(part),
        vec![Value::Int(v)],
    )
}

fn run_leg(
    program: &OptimizedProgram,
    reg: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> (RunReport, Vec<Event>) {
    let spec = ModeSpec::sequential("prefix-sharing-test", config);
    let (report, outputs, _records) =
        run_mode_full(program, reg, &spec, events).expect("engine run");
    (report, outputs)
}

/// Runs the same stream shared and unshared under `config` and
/// demands byte-identical outputs in canonical (sorted per-event
/// encoding) form, plus equal counters. Canonical, not emission-order:
/// when one event completes several partials of the same query, they
/// emit in partial-store iteration order, which depends on slab
/// allocation history and therefore legitimately differs between the
/// shared and unshared stores — the multiset is the contract (the
/// differential harness compares the same way).
fn assert_equivalent(src: &str, events: &[Event], config: EngineConfig) -> (RunReport, Vec<Event>) {
    let (program, reg) = build(src);
    assert_equivalent_program(&program, &reg, events, config)
}

fn assert_equivalent_program(
    program: &OptimizedProgram,
    reg: &SchemaRegistry,
    events: &[Event],
    config: EngineConfig,
) -> (RunReport, Vec<Event>) {
    assert!(
        !installed_groups(program, true).is_empty(),
        "no shared group formed — the equivalence check would be vacuous"
    );
    assert!(installed_groups(program, false).is_empty());
    let unshared = config.to_builder().sharing(false).build();
    let (shared_report, shared_out) = run_leg(program, reg, events, config);
    let (plain_report, plain_out) = run_leg(program, reg, events, unshared);
    assert_eq!(
        canonical(&shared_out),
        canonical(&plain_out),
        "shared-prefix execution changed the output multiset"
    );
    assert_eq!(shared_report.events_out, plain_report.events_out);
    assert_eq!(
        shared_report.transitions_applied,
        plain_report.transitions_applied
    );
    assert_eq!(shared_report.outputs_by_type, plain_report.outputs_by_type);
    (shared_report, shared_out)
}

#[test]
fn groups_form_with_expected_shape() {
    let (two, _) = build(TWO_QUERY_MODEL);
    assert_eq!(
        installed_groups(&two, true),
        vec![(2, 2, true)],
        "LongC/LongD share SEQ(A, B) behind the busy context window"
    );

    let (three, _) = build(THREE_QUERY_MODEL);
    assert_eq!(
        installed_groups(&three, true),
        vec![(1, 3, true)],
        "adding arity-2 Short caps the common prefix at min(arity) - 1 = 1"
    );

    let (negated, _) = build(NEGATION_MODEL);
    assert_eq!(
        installed_groups(&negated, true),
        vec![(2, 3, true)],
        "negations stay with the members; the positive prefix is shared"
    );

    // An engine that does not share installs nothing.
    assert!(installed_groups(&two, false).is_empty());
}

/// One crafted stream per tricky edge, all in one pass:
/// same-timestamp `B`/`C` (strict `<` rejects the completion), `WITHIN`
/// expiry of a stale prefix, predicate rejection on the final step,
/// context termination wiping group state mid-prefix, and a second
/// activation proving the wipe was clean.
fn crafted_stream(reg: &SchemaRegistry) -> Vec<Event> {
    vec![
        event(reg, "Go", 1, 0, 0),
        event(reg, "A", 2, 0, 5),
        event(reg, "B", 3, 0, 0),
        // Same timestamp as B: SEQ is strictly increasing, no match.
        event(reg, "C", 3, 0, 2),
        event(reg, "C", 4, 0, 2), // LongC (5, 2)
        event(reg, "D", 4, 0, 1), // LongD (5, 1)
        event(reg, "C", 5, 0, 0), // predicate c.v > 1 fails
        event(reg, "Stop", 6, 0, 0),
        // busy inactive: these must not form prefixes anywhere.
        event(reg, "A", 7, 0, 9),
        event(reg, "B", 8, 0, 9),
        event(reg, "Go", 9, 0, 0),
        event(reg, "A", 10, 0, 2),
        event(reg, "B", 11, 0, 3),
        event(reg, "D", 12, 0, 0), // LongD (2, 0)
        // 23 - 10 > WITHIN 12: the (A@10, B@11) prefix has expired.
        event(reg, "C", 23, 0, 5),
        // Fresh prefix inside the still-open window completes.
        event(reg, "A", 24, 0, 7),
        event(reg, "B", 25, 0, 7),
        event(reg, "C", 26, 0, 7), // LongC (7, 7)
        event(reg, "Stop", 27, 0, 0),
    ]
}

/// The engine at `ObservabilityLevel::Counters`.
fn counted() -> EngineConfig {
    EngineConfig::builder()
        .observability(ObservabilityLevel::Counters)
        .build()
}

/// The crafted stream, one or two events per transaction.
#[test]
fn crafted_stream_matches_unshared_per_event() {
    let reg = input_registry();
    let events = crafted_stream(&reg);
    let (report, outputs) = assert_equivalent(TWO_QUERY_MODEL, &events, counted());
    assert_eq!(report.events_out, 4, "LongC ×2, LongD ×2");
    assert_eq!(outputs.len(), 4);
}

/// The crafted stream with every event repeated 8 times in place: every
/// transaction holds at least 8 events.
#[test]
fn crafted_stream_matches_unshared_dense() {
    let reg = input_registry();
    let dense: Vec<Event> = crafted_stream(&reg)
        .into_iter()
        .flat_map(|e| std::iter::repeat_n(e, 8))
        .collect();
    let (report, _) = assert_equivalent(TWO_QUERY_MODEL, &dense, counted());
    assert!(report.events_out > 4);
}

#[test]
fn crafted_stream_matches_unshared_with_provenance() {
    let reg = input_registry();
    let events = crafted_stream(&reg);
    let (_report, outputs) = assert_equivalent(
        TWO_QUERY_MODEL,
        &events,
        EngineConfig::builder().provenance(true).build(),
    );
    assert!(
        outputs.iter().all(|e| e.provenance.is_some()),
        "provenance mode must attach provenance on the shared path too"
    );
}

#[test]
fn boundary_completion_short_query_matches_unshared() {
    // Short's whole body is the shared prefix plus one step, so every
    // one of its matches goes through the group's boundary extension.
    let reg = input_registry();
    let events = crafted_stream(&reg);
    let (report, _outputs) = assert_equivalent(THREE_QUERY_MODEL, &events, EngineConfig::default());
    // Short fires for (A@2,B@3), (A@10,B@11) and (A@24,B@25).
    assert_eq!(*report.outputs_by_type.get("Short").unwrap(), 3);
}

/// Boundary crossings under negation: each `C` is tried against the
/// group's full prefixes, and what happens next is the member's own
/// negation at work — a rejection (`Lead` by a buffered `D` before its
/// `A`, `Mid` by a `D` between `B` and `C`), an emission, or a park
/// (`Tail`) that a later `D` rejects or the partition's next
/// transaction matures.
#[test]
fn boundary_crossings_under_negation_match_unshared() {
    let reg = input_registry();
    let events = vec![
        event(&reg, "Go", 1, 0, 0),
        event(&reg, "D", 2, 0, 5),
        event(&reg, "A", 3, 0, 5),
        event(&reg, "B", 4, 0, 0),
        // (A@3, B@4) + C@5: Lead rejected by D@2 (x.v = a.v = 5), Mid
        // emitted, Tail parked until 17.
        event(&reg, "C", 5, 0, 1),
        // Vetoes Mid for every later C of (A@3, B@4); misses Tail's
        // z.v = 1.
        event(&reg, "D", 6, 0, 9),
        // (A@3, B@4) + C@7: Lead and Mid rejected, Tail parked until 19.
        event(&reg, "C", 7, 0, 9),
        // z.v = c.v = 9 inside (7, 19]: the second Tail is rejected.
        event(&reg, "D", 8, 0, 9),
        event(&reg, "A", 10, 0, 7),
        event(&reg, "B", 11, 0, 7),
        // Three full prefixes meet C@12, and each Tail parks until 24.
        // (A@3, B@4): Lead and Mid rejected. (A@3, B@11): Lead
        // rejected, Mid emitted. (A@10, B@11): Lead and Mid emitted.
        event(&reg, "C", 12, 0, 1),
        // The partition's watermark passes 17: Tail (5, 1) of C@5
        // matures.
        event(&reg, "A", 18, 0, 0),
        // Past 24: the three Tails of C@12 mature. C@30 extends
        // nothing — (A@10, B@11) spans 20 > WITHIN 12.
        event(&reg, "C", 30, 0, 3),
        event(&reg, "Stop", 31, 0, 0),
    ];
    let (report, _) = assert_equivalent(NEGATION_MODEL, &events, counted());
    let fired = |name: &str| report.outputs_by_type.get(name).copied();
    assert_eq!(fired("Lead"), Some(1));
    assert_eq!(fired("Mid"), Some(3));
    assert_eq!(fired("Tail"), Some(4));
}

fn stream_from_choices(reg: &SchemaRegistry, raw: &[(u8, u64, i64, u32)]) -> Vec<Event> {
    let mut t: Time = 0;
    raw.iter()
        .map(|&(ty, dt, v, part)| {
            t += dt;
            event(reg, TYPE_NAMES[ty as usize % TYPE_NAMES.len()], t, part, v)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Randomized shared ≡ unshared: arbitrary interleavings of signal
    /// (`Go`/`Stop`) and pattern events, same-timestamp runs (`dt = 0`),
    /// two partitions, values straddling both predicates.
    #[test]
    fn random_streams_match_unshared(
        raw in proptest::collection::vec(
            (0u8..6, 0u64..3, 0i64..6, 0u32..2),
            1..120,
        )
    ) {
        let reg = input_registry();
        let events = stream_from_choices(&reg, &raw);
        assert_equivalent(THREE_QUERY_MODEL, &events, EngineConfig::default());
        assert_equivalent(TWO_QUERY_MODEL, &events, counted());
        assert_equivalent(NEGATION_MODEL, &events, EngineConfig::default());
    }
}

/// The busy-context model around `queries`, over the standard types.
fn busy_model(queries: &str) -> String {
    format!(
        "MODEL m DEFAULT idle
        CONTEXT idle {{ INITIATE CONTEXT busy PATTERN Go }}
        CONTEXT busy {{
            TERMINATE CONTEXT busy PATTERN Stop
            {queries}
        }}"
    )
}

/// A member whose negation names a prefix type: `Guarded` delegates
/// `SEQ(A, B)` to the group, yet its chain must still see every `A` —
/// the negation buffer is the member's own.
#[test]
fn negation_naming_a_prefix_type_still_buffers_every_a() {
    let model = busy_model(
        "DERIVE Guarded(a.v, c.v) PATTERN SEQ(A a, B b, NOT A x, C c) WITHIN 12
         DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WITHIN 12",
    );
    let (program, reg) = build(&model);
    assert_eq!(installed_groups(&program, true), vec![(2, 2, true)]);
    let events = vec![
        event(&reg, "Go", 1, 0, 0),
        event(&reg, "A", 2, 0, 1),
        event(&reg, "B", 3, 0, 1),
        event(&reg, "A", 4, 0, 2), // between B@3 and C@5: blocks (A@2, B@3)
        event(&reg, "C", 5, 0, 1),
        event(&reg, "A", 6, 0, 3),
        event(&reg, "B", 7, 0, 1),
        // No A in (7, 8): one Guarded per A before B@7. The (A@2, B@3)
        // prefix stays blocked by A@4 and A@6.
        event(&reg, "C", 8, 0, 1),
    ];
    let (report, _) = assert_equivalent_program(&program, &reg, &events, EngineConfig::default());
    assert_eq!(report.outputs_by_type.get("Guarded"), Some(&3));
}

/// Members whose *private* steps reuse a prefix type: `Again`'s
/// boundary step is an `A` (an `A` both advances the group and crosses
/// `Again`'s boundary — with the prefixes held before it), and
/// `Again4`'s last step is an `A` above its boundary (its chain is fed
/// `A`s although its prefix delegates them).
#[test]
fn private_suffix_reusing_a_prefix_type() {
    let model = busy_model(
        "DERIVE Again(a.v, c.v) PATTERN SEQ(A a, B b, A c) WITHIN 20
         DERIVE Again4(a.v, d.v) PATTERN SEQ(A a, B b, C c, A d) WITHIN 20
         DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WITHIN 20",
    );
    let (program, reg) = build(&model);
    assert_eq!(installed_groups(&program, true), vec![(2, 3, true)]);
    let events = vec![
        event(&reg, "Go", 1, 0, 0),
        event(&reg, "A", 2, 0, 1),
        event(&reg, "B", 3, 0, 1),
        event(&reg, "A", 4, 0, 2), // Again (A@2, B@3, A@4)
        event(&reg, "B", 5, 0, 1),
        event(&reg, "C", 6, 0, 1),
        // Again ×3: (2,3), (2,5), (4,5). Again4 ×3: same prefixes + C@6.
        event(&reg, "A", 7, 0, 3),
    ];
    let (report, _) = assert_equivalent_program(&program, &reg, &events, EngineConfig::default());
    assert_eq!(report.outputs_by_type.get("Again"), Some(&4));
    assert_eq!(report.outputs_by_type.get("Again4"), Some(&3));
}

/// A derived (non-external) type above the boundary still reaches the
/// member through the cascade: `Late`'s last step consumes `Mid`, which
/// another member of the same combined plan produces.
#[test]
fn derived_type_in_the_suffix_still_cascades() {
    let model = busy_model(
        "DERIVE Mid(c.v) PATTERN C c
         DERIVE Late(a.v, m.v) PATTERN SEQ(A a, B b, D d, Mid m) WITHIN 12
         DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WITHIN 12",
    );
    let (program, reg) = build(&model);
    assert_eq!(installed_groups(&program, true), vec![(2, 2, true)]);
    let events = vec![
        event(&reg, "Go", 1, 0, 0),
        event(&reg, "A", 2, 0, 1),
        event(&reg, "B", 3, 0, 1),
        event(&reg, "D", 4, 0, 1),
        event(&reg, "C", 5, 0, 9), // Mid@5 → Late (A@2, B@3, D@4, Mid@5)
    ];
    let (report, _) = assert_equivalent_program(&program, &reg, &events, EngineConfig::default());
    assert_eq!(report.outputs_by_type.get("Late"), Some(&1));
}

/// Snapshot → bytes → `restore_state` with a prefix half built: no plan
/// is in the bytes, so the restored engine's own program — its routing
/// table included — must dispatch the rest of the stream exactly like
/// the uninterrupted run from the snapshot's state alone.
#[test]
fn restore_mid_prefix_dispatches_identically() {
    let (program, reg) = build(TWO_QUERY_MODEL);
    let events = crafted_stream(&reg);
    let config = EngineConfig::builder().collect_outputs(true).build();
    let (_, uninterrupted) = run_leg(&program, &reg, &events, config);

    // Cut after A@2, B@3 and the same-timestamp C@3: the group holds a
    // full prefix no member has extended yet.
    let mut engine = Engine::new(program.clone(), &reg, config);
    for e in &events[..4] {
        engine.ingest(e.clone()).unwrap();
    }
    let bytes = serde::to_bytes(&engine.snapshot_state());
    let mut resumed = Engine::new(program, &reg, config);
    resumed
        .restore_state(serde::from_bytes(&bytes).expect("snapshot decodes"))
        .expect("same program, same config");
    assert_eq!(
        serde::to_bytes(&resumed.snapshot_state()),
        bytes,
        "restore is lossless"
    );
    for e in &events[4..] {
        resumed.ingest(e.clone()).unwrap();
    }
    resumed.finish();
    assert_eq!(
        canonical(&resumed.collected_outputs),
        canonical(&uninterrupted)
    );
    assert_eq!(uninterrupted.len(), 4);
}

/// Dispatch cost as a work-unit bound, from the operators' own
/// counters: over `SEQ(A a, B b, T_i t)` × N, an `A` or `B` costs one
/// group advance and no member chain run, a `T_i` costs the candidates
/// of one member's boundary and nothing else — whatever N is. Feeding
/// every consumer every event again (N chain runs per `A`) fails this.
#[test]
fn dispatch_work_per_event_is_independent_of_the_member_count() {
    const ROUNDS: u64 = 40;
    let work: Vec<[u64; 4]> = [2usize, 12, 48]
        .into_iter()
        .map(|n| {
            let mut reg = SchemaRegistry::new();
            let names = ["A".to_string(), "B".to_string()]
                .into_iter()
                .chain((0..n).map(|i| format!("T{i}")));
            for name in names {
                reg.register(Schema::new(name, &[("v", AttrType::Int)]))
                    .unwrap();
            }
            let mut model = String::from("MODEL fleet DEFAULT main\nCONTEXT main {\n");
            for i in 0..n {
                model.push_str(&format!(
                    "DERIVE Out{i}(a.v, t.v) PATTERN SEQ(A a, B b, T{i} t) WITHIN 2\n"
                ));
            }
            model.push_str("}\n");
            let (program, reg) = build_over(&model, reg);
            assert_eq!(installed_groups(&program, true), vec![(2, n, true)]);

            // A@3r+1, B@3r+2, T@3r+3: WITHIN 2 leaves exactly the
            // round's own (A, B) as the full prefix each T sees.
            let mut engine = Engine::new(program, &reg, EngineConfig::default());
            for r in 0..ROUNDS {
                let tail = format!("T{}", r as usize % n);
                for (k, name) in ["A", "B", tail.as_str()].into_iter().enumerate() {
                    engine
                        .ingest(event(&reg, name, 3 * r + 1 + k as u64, 0, 1))
                        .unwrap();
                }
            }
            let report = engine.finish();
            let rows = |suffix: &str| -> u64 {
                let ops = report.metrics.operators.iter();
                ops.filter(|(key, _)| key.ends_with(suffix))
                    .map(|(_, m)| m.events_in)
                    .sum()
            };
            // No member's window saw an event, so the context's observed
            // activity rests on the group's verdicts: one per event.
            let main = &report.metrics.contexts["main"];
            assert_eq!((main.events_admitted, main.events_dropped), (3 * ROUNDS, 0));
            [
                rows(":ContextWindow"),
                rows(":Pattern"),
                rows(":prefix"),
                report.events_out,
            ]
        })
        .collect();
    // [member chain runs, boundary candidates, group advances, matches]
    assert_eq!(work[0], [0, ROUNDS, 2 * ROUNDS, ROUNDS]);
    assert_eq!(work[1], work[0], "12 members cost what 2 do");
    assert_eq!(work[2], work[0], "48 members cost what 2 do");
}
