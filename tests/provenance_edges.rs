//! Hand-computed provenance cases: exact [`Provenance`] values for
//! known streams, pinned against the engine's opt-in
//! timestamp-collecting mode (`EngineConfig::provenance`).
//!
//! The differential sweep (`differential_random.rs`) already checks
//! provenance byte-for-byte against the oracle on generated workloads;
//! these tests complement it with human-auditable expectations:
//!
//! * a three-step `SEQ` match carries one `ProvStep` per bound event,
//!   in pattern order, with the contributing events' occurrence times;
//! * two queries sharing a two-step NFA prefix report *distinct*
//!   provenance — the shared partial contributes the same `A`/`B`
//!   steps, the divergent tails contribute their own final step;
//! * a passthrough (single-variable) pattern carries exactly its one
//!   input event;
//! * with provenance off, outputs carry `None` — the mode is strictly
//!   opt-in and the wire encoding stays byte-identical to pre-provenance
//!   builds.
//!
//! [`Provenance`]: caesar::events::Provenance

use caesar::algebra::translate::{translate_query_set, TranslateOptions};
use caesar::events::{
    AttrType, Event, Interval, PartitionId, Provenance, Schema, SchemaRegistry, Value,
};
use caesar::optimizer::{OptimizedProgram, Optimizer};
use caesar::prelude::*;
use caesar::query::QuerySet;
use caesar::runtime::{run_mode_full, ModeSpec};

const MODEL: &str = r#"
    MODEL m DEFAULT idle
    CONTEXT idle {
        INITIATE CONTEXT busy PATTERN Go
    }
    CONTEXT busy {
        TERMINATE CONTEXT busy PATTERN Stop
        DERIVE LongC(a.v, c.v) PATTERN SEQ(A a, B b, C c) WHERE c.v > 1 WITHIN 12
        DERIVE LongD(a.v, d.v) PATTERN SEQ(A a, B b, D d) WHERE d.v < 3 WITHIN 12
        DERIVE Pass(e.v) PATTERN E e WHERE e.v > 90
    }
"#;

fn input_registry() -> SchemaRegistry {
    let mut reg = SchemaRegistry::new();
    for name in ["Go", "Stop", "A", "B", "C", "D", "E"] {
        reg.register(Schema::new(name, &[("v", AttrType::Int)]))
            .unwrap();
    }
    reg
}

fn build() -> (OptimizedProgram, SchemaRegistry) {
    let model = caesar::query::parser::parse_model(MODEL).unwrap();
    let qs = QuerySet::from_model(&model).unwrap();
    let mut reg = input_registry();
    let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
    let program = Optimizer::default().optimize(t, &reg);
    (program, reg)
}

fn event(reg: &SchemaRegistry, name: &str, t: Time, v: i64) -> Event {
    Event::simple(
        reg.lookup(name).expect("registered"),
        t,
        PartitionId(0),
        vec![Value::Int(v)],
    )
}

/// `Go@1  A@2  B@3  C@4(v=5)  D@5(v=1)  E@6(v=99)`: one match each for
/// `LongC`, `LongD` and `Pass`.
fn stream(reg: &SchemaRegistry) -> Vec<Event> {
    vec![
        event(reg, "Go", 1, 0),
        event(reg, "A", 2, 7),
        event(reg, "B", 3, 8),
        event(reg, "C", 4, 5),
        event(reg, "D", 5, 1),
        event(reg, "E", 6, 99),
    ]
}

/// Runs the stream with (`sharing`) or without the shared `SEQ(A, B)`
/// prefix group of `LongC`/`LongD`.
fn run(
    program: &OptimizedProgram,
    reg: &SchemaRegistry,
    provenance: bool,
    sharing: bool,
) -> Vec<Event> {
    let spec = ModeSpec::sequential(
        "provenance-edges",
        EngineConfig::builder()
            .provenance(provenance)
            .sharing(sharing)
            .build(),
    );
    let (_report, outputs, _records) =
        run_mode_full(program, reg, &spec, &stream(reg)).expect("engine run");
    outputs
}

/// The single output of derived type `name`.
fn output_of<'a>(outputs: &'a [Event], reg: &SchemaRegistry, name: &str) -> &'a Event {
    let tid = reg.lookup(name).expect("derived type registered");
    let mut hits = outputs.iter().filter(|e| e.type_id == tid);
    let first = hits.next().unwrap_or_else(|| panic!("no {name} output"));
    assert!(hits.next().is_none(), "expected exactly one {name} output");
    first
}

fn prov(reg: &SchemaRegistry, steps: &[(&str, Time)]) -> Provenance {
    Provenance::from_steps(
        steps
            .iter()
            .map(|&(name, t)| (reg.lookup(name).unwrap(), Interval::point(t))),
    )
}

fn assert_expected_provenance(outputs: &[Event], reg: &SchemaRegistry) {
    assert_eq!(outputs.len(), 3, "LongC, LongD and Pass each fire once");

    let long_c = output_of(outputs, reg, "LongC");
    assert_eq!(long_c.occurrence, Interval::new(2, 4));
    assert_eq!(long_c.attrs.as_ref(), &[Value::Int(7), Value::Int(5)]);
    assert_eq!(
        long_c.provenance.as_deref(),
        Some(&prov(reg, &[("A", 2), ("B", 3), ("C", 4)]))
    );

    let long_d = output_of(outputs, reg, "LongD");
    assert_eq!(long_d.occurrence, Interval::new(2, 5));
    assert_eq!(long_d.attrs.as_ref(), &[Value::Int(7), Value::Int(1)]);
    assert_eq!(
        long_d.provenance.as_deref(),
        Some(&prov(reg, &[("A", 2), ("B", 3), ("D", 5)]))
    );

    // Shared prefix, distinct provenance: the A/B steps agree between
    // the two queries, the final step is each query's own.
    let pc = long_c.provenance.as_deref().unwrap();
    let pd = long_d.provenance.as_deref().unwrap();
    assert_eq!(pc.steps[..2], pd.steps[..2]);
    assert_ne!(pc.steps[2], pd.steps[2]);

    let pass = output_of(outputs, reg, "Pass");
    assert_eq!(pass.occurrence, Interval::point(6));
    assert_eq!(
        pass.provenance.as_deref(),
        Some(&prov(reg, &[("E", 6)])),
        "a passthrough match is derived from exactly its input event"
    );
}

#[test]
fn hand_computed_provenance_unshared() {
    let (program, reg) = build();
    assert_expected_provenance(&run(&program, &reg, true, false), &reg);
}

#[test]
fn hand_computed_provenance_shared_prefix() {
    // Same expectations with the NFA prefix shared between LongC and
    // LongD: completions assembled from the group's partial must carry
    // per-query provenance, not a per-group amalgam.
    let (program, reg) = build();
    assert_expected_provenance(&run(&program, &reg, true, true), &reg);
}

#[test]
fn provenance_is_strictly_opt_in() {
    let (program, reg) = build();
    let outputs = run(&program, &reg, false, true);
    assert_eq!(outputs.len(), 3);
    assert!(
        outputs.iter().all(|e| e.provenance.is_none()),
        "provenance-off runs must not attach provenance"
    );
}
