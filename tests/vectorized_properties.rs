//! Property-based differential testing of the vectorized predicate
//! kernels against the row interpreter.
//!
//! Two layers, both adversarial:
//!
//! 1. [`BoolKernel`] vs [`CompiledExpr::matches`] on random columns and
//!    random predicate trees, including the value-error frontier
//!    (integer overflow, division by zero, NaN ordering): whenever the
//!    kernel compiler covers an expression, survivors *and* error
//!    counts must match the interpreter exactly.
//! 2. [`FilterOp::accepts_batch`] vs per-event [`FilterOp::accepts`]
//!    on mixed/NULL-polluted columns, where kernels partially or fully
//!    fall back to the interpreter (and on untyped selections, which
//!    the interpreter evaluates row by row): survivors and the
//!    `evaluated`/`accepted` counters must agree (only `eval_errors`
//!    may differ, under documented conjunct reordering).

use caesar::algebra::kernel::BoolKernel;
use caesar::algebra::ops::FilterOp;
use caesar::algebra::CompiledExpr;
use caesar::events::{ColumnarBatch, ColumnarView, Event, Interval, PartitionId, TypeId, Value};
use caesar::query::BinOp;
use proptest::prelude::*;
use std::sync::Arc;

fn ev(attrs: Vec<Value>) -> Event {
    Event::complex(
        TypeId(1),
        Interval::point(1),
        PartitionId(0),
        Arc::from(attrs),
    )
}

fn attr(attr: u16) -> CompiledExpr {
    CompiledExpr::Attr { slot: 0, attr }
}

fn bin(op: BinOp, lhs: CompiledExpr, rhs: CompiledExpr) -> CompiledExpr {
    CompiledExpr::Bin {
        op,
        lhs: Box::new(lhs),
        rhs: Box::new(rhs),
    }
}

/// Well-typed rows over the fixed 5-column layout
/// (Int, Int, Float, Bool, Str), biased towards the error frontier:
/// extreme integers (overflow), zero divisors, NaN/∞ floats.
fn arb_row() -> impl Strategy<Value = Vec<Value>> {
    (
        prop_oneof![
            -4i64..5,
            -4i64..5,
            -4i64..5,
            any::<i64>(),
            Just(i64::MAX),
            Just(i64::MIN),
        ],
        -2i64..3,
        prop_oneof![
            -4.0f64..4.0,
            -4.0f64..4.0,
            -4.0f64..4.0,
            Just(f64::NAN),
            Just(f64::INFINITY),
            Just(-0.0f64),
        ],
        any::<bool>(),
        prop_oneof![Just("red"), Just("green"), Just("blue")],
    )
        .prop_map(|(a, b, f, flag, s)| {
            vec![
                Value::Int(a),
                Value::Int(b),
                Value::Float(f),
                Value::Bool(flag),
                Value::from(s),
            ]
        })
}

/// Rows where any cell may also be Null or of a surprise type, so the
/// affected columns degrade to `Opaque` and kernels must fall back.
fn arb_wild_row() -> impl Strategy<Value = Vec<Value>> {
    let wild = |base: BoxedStrategy<Value>| {
        prop_oneof![
            base.clone(),
            base.clone(),
            base.clone(),
            base,
            Just(Value::Null),
            Just(Value::Float(0.5)),
        ]
    };
    (
        wild((-3i64..4).prop_map(Value::Int).boxed()),
        wild((-2i64..3).prop_map(Value::Int).boxed()),
        wild((-2.0f64..2.0).prop_map(Value::Float).boxed()),
        wild(any::<bool>().prop_map(Value::Bool).boxed()),
        wild(
            prop_oneof![Just("red"), Just("blue")]
                .prop_map(Value::from)
                .boxed(),
        ),
    )
        .prop_map(|(a, b, c, d, e)| vec![a, b, c, d, e])
}

fn arb_cmp() -> impl Strategy<Value = BinOp> {
    prop_oneof![
        Just(BinOp::Eq),
        Just(BinOp::Ne),
        Just(BinOp::Lt),
        Just(BinOp::Le),
        Just(BinOp::Gt),
        Just(BinOp::Ge),
    ]
}

/// Integer-valued operand trees over the two int columns, with
/// checked arithmetic nodes that can overflow or divide by zero.
fn arb_int_operand() -> impl Strategy<Value = CompiledExpr> {
    let leaf = prop_oneof![
        Just(attr(0)),
        Just(attr(0)),
        Just(attr(1)),
        Just(attr(1)),
        (-3i64..4).prop_map(|k| CompiledExpr::Const(Value::Int(k))),
        Just(CompiledExpr::Const(Value::Int(i64::MAX))),
    ];
    leaf.prop_recursive(2, 8, 2, |inner| {
        (
            prop_oneof![
                Just(BinOp::Add),
                Just(BinOp::Sub),
                Just(BinOp::Mul),
                Just(BinOp::Div),
            ],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, lhs, rhs)| bin(op, lhs, rhs))
    })
}

/// Random predicate trees mixing every kernel family: int compares
/// (column/column, column/expression), float compares against
/// constants (NaN included), bool columns, string equality, and
/// And/Or combinators above them.
fn arb_predicate() -> impl Strategy<Value = CompiledExpr> {
    let int_cmp = (arb_cmp(), arb_int_operand(), arb_int_operand())
        .prop_map(|(op, lhs, rhs)| bin(op, lhs, rhs))
        .boxed();
    let leaf = prop_oneof![
        int_cmp.clone(),
        int_cmp.clone(),
        int_cmp,
        (
            arb_cmp(),
            prop_oneof![-2.0f64..2.0, -2.0f64..2.0, -2.0f64..2.0, Just(f64::NAN)],
        )
            .prop_map(|(op, k)| bin(op, attr(2), CompiledExpr::Const(Value::Float(k)))),
        (arb_cmp(), any::<bool>()).prop_map(|(op, k)| bin(
            op,
            attr(3),
            CompiledExpr::Const(Value::Bool(k))
        )),
        (
            prop_oneof![Just(BinOp::Eq), Just(BinOp::Ne)],
            prop_oneof![Just("red"), Just("violet")],
        )
            .prop_map(|(op, s)| bin(op, attr(4), CompiledExpr::Const(Value::from(s)))),
        Just(attr(3)),
    ];
    leaf.prop_recursive(3, 16, 2, |inner| {
        (
            prop_oneof![Just(BinOp::And), Just(BinOp::Or)],
            inner.clone(),
            inner,
        )
            .prop_map(|(op, lhs, rhs)| bin(op, lhs, rhs))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Whenever the kernel compiler covers a predicate, the kernel's
    /// survivors and its error count are exactly the interpreter's.
    #[test]
    fn kernel_matches_interpreter(
        rows in prop::collection::vec(arb_row(), 1..40),
        expr in arb_predicate(),
    ) {
        let events: Vec<Event> = rows.into_iter().map(ev).collect();
        let view = ColumnarView::build(&events, TypeId(1));
        if let Some(kernel) = BoolKernel::compile(&expr, &view.kinds()) {
            let mut sel: Vec<u32> = (0..events.len() as u32).collect();
            let mut errors = 0u64;
            kernel.filter(&view, &mut sel, &mut errors);
            let mut interp_errors = 0u64;
            let expected: Vec<u32> = (0..events.len())
                .filter(|&i| expr.matches(&[&events[i]], &mut interp_errors))
                .map(|i| i as u32)
                .collect();
            prop_assert_eq!(&sel, &expected, "survivors diverge for {:?}", expr);
            prop_assert_eq!(errors, interp_errors, "error counts diverge for {:?}", expr);
        }
    }

    /// Kernels must also agree when started from a *partial* selection
    /// (the mid-chain case: an upstream operator already dropped rows).
    #[test]
    fn kernel_matches_interpreter_on_partial_selection(
        rows in prop::collection::vec(arb_row(), 2..40),
        expr in arb_predicate(),
        keep in prop::collection::vec(any::<bool>(), 2..40),
    ) {
        let events: Vec<Event> = rows.into_iter().map(ev).collect();
        let view = ColumnarView::build(&events, TypeId(1));
        if let Some(kernel) = BoolKernel::compile(&expr, &view.kinds()) {
            let start: Vec<u32> = (0..events.len())
                .filter(|&i| *keep.get(i).unwrap_or(&false))
                .map(|i| i as u32)
                .collect();
            let mut sel = start.clone();
            let mut errors = 0u64;
            kernel.filter(&view, &mut sel, &mut errors);
            let mut interp_errors = 0u64;
            let expected: Vec<u32> = start
                .iter()
                .copied()
                .filter(|&i| expr.matches(&[&events[i as usize]], &mut interp_errors))
                .collect();
            prop_assert_eq!(&sel, &expected, "survivors diverge for {:?}", expr);
            prop_assert_eq!(errors, interp_errors, "error counts diverge for {:?}", expr);
        }
    }

    /// `FilterOp::accepts_batch` on NULL-polluted, mixed-type columns
    /// (kernels degrade per conjunct to the interpreter fallback) must
    /// keep exactly the per-event survivors and the same
    /// `evaluated`/`accepted` counters. `eval_errors` is deliberately
    /// not compared: conjunct reordering may change which predicate
    /// sees a row first (documented batch-path caveat).
    #[test]
    fn filter_op_batch_matches_per_event(
        rows in prop::collection::vec(arb_wild_row(), 1..30),
        preds in prop::collection::vec(arb_predicate(), 1..3),
    ) {
        let events: Vec<Event> = rows.into_iter().map(ev).collect();
        let mut per_event = FilterOp::new(preds.clone());
        let expected: Vec<u32> = (0..events.len())
            .filter(|&i| per_event.accepts(&events[i]))
            .map(|i| i as u32)
            .collect();
        // A typed selection runs the kernels; an untyped one the
        // interpreter, row by row.
        for event_type in [Some(TypeId(1)), None] {
            let mut batched = FilterOp::new(preds.clone());
            let mut cols = ColumnarBatch::new(&events);
            let mut sel: Vec<u32> = (0..events.len() as u32).collect();
            batched.accepts_batch(&mut cols, event_type, &mut sel);
            prop_assert_eq!(&sel, &expected, "survivors diverge (type {:?})", event_type);
            prop_assert_eq!(batched.evaluated, per_event.evaluated);
            prop_assert_eq!(batched.accepted, per_event.accepted);
        }
    }
}
