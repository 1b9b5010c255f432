//! Expression compilation: AST expressions → positional attribute
//! accesses evaluated against event bindings.
//!
//! The surface syntax references attributes as `var.attr` (or bare
//! `attr`). At plan-build time these are resolved against a
//! [`BindingLayout`] — the mapping from pattern variables to *slots* and
//! from attribute names to positional indices — so the hot path never
//! touches a string.

use caesar_events::{AttrType, Event, EventError, Schema, SchemaRegistry, TypeId, Value};
use caesar_query::ast::{BinOp, Expr};
use serde::Serialize;
use std::fmt;

/// Where a pattern variable's attribute values live at evaluation time.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub enum SlotSource {
    /// The variable is the `i`-th event of a multi-event binding
    /// (used inside the pattern operator).
    EventSlot(u8),
    /// The variable's attributes were copied into a combined match event
    /// starting at the given offset (used by filter / projection
    /// operators above a multi-variable pattern).
    CombinedOffset(u16),
}

/// One variable of a binding layout.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct LayoutVar {
    /// Variable name.
    pub name: String,
    /// Event type the variable binds.
    pub type_id: TypeId,
    /// Where its values live.
    pub source: SlotSource,
}

/// The mapping from pattern variables to evaluation-time positions.
///
/// Two shapes exist:
/// * *event-slot* layouts, where each variable is a separate event in a
///   binding slice (inside the pattern operator, including negation
///   checks);
/// * *combined* layouts, where a match event concatenates the attributes
///   of all positive variables (operators above the pattern).
///
/// A single-variable pass-through plan is simply a combined layout with
/// one variable at offset 0.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct BindingLayout {
    /// The variables, in pattern order.
    pub vars: Vec<LayoutVar>,
}

impl BindingLayout {
    /// Looks up a variable by name.
    #[must_use]
    pub fn var(&self, name: &str) -> Option<&LayoutVar> {
        self.vars.iter().find(|v| v.name == name)
    }

    /// Resolves a bare attribute against the unique variable that has it.
    /// Model validation guarantees uniqueness of the positive variable,
    /// so this picks the first variable whose schema declares the
    /// attribute.
    fn resolve_bare<'a>(
        &'a self,
        attr: &str,
        registry: &SchemaRegistry,
    ) -> Option<(&'a LayoutVar, u16)> {
        self.vars.iter().find_map(|v| {
            registry
                .schema(v.type_id)
                .attr_id(attr)
                .ok()
                .map(|a| (v, a.0))
        })
    }
}

/// A binding of events by slot — the evaluation-time argument of
/// [`CompiledExpr::eval_in`] / [`CompiledExpr::matches_in`].
///
/// The canonical binding is a slice of event references, but the
/// pattern operator's candidates are *logical* sequences whose
/// constituents live in different places (a pooled prefix, the incoming
/// event, a negation-buffer candidate). Implementing `Slots` lets those
/// be evaluated without materializing a `Vec<&Event>` per candidate.
/// Out-of-range slots panic, exactly like slice indexing.
pub trait Slots {
    /// The event bound at `slot`.
    fn slot(&self, slot: usize) -> &Event;
}

impl Slots for [&Event] {
    #[inline]
    fn slot(&self, slot: usize) -> &Event {
        self[slot]
    }
}

impl<const N: usize> Slots for [&Event; N] {
    #[inline]
    fn slot(&self, slot: usize) -> &Event {
        self[slot]
    }
}

/// Errors during expression compilation or evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum EvalError {
    /// A referenced variable is not in the layout.
    UnknownVar(String),
    /// A referenced attribute is not on the variable's schema.
    UnknownAttr {
        /// The variable.
        var: String,
        /// The attribute.
        attr: String,
    },
    /// Runtime value error (type mismatch, arithmetic).
    Value(EventError),
    /// A comparison between incomparable values.
    Incomparable,
    /// A logical operator received a non-boolean operand.
    NotBoolean,
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::UnknownVar(v) => write!(f, "unknown variable '{v}'"),
            EvalError::UnknownAttr { var, attr } => {
                write!(f, "variable '{var}' has no attribute '{attr}'")
            }
            EvalError::Value(e) => write!(f, "value error: {e}"),
            EvalError::Incomparable => write!(f, "incomparable values in comparison"),
            EvalError::NotBoolean => write!(f, "logical operator on non-boolean operand"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<EventError> for EvalError {
    fn from(e: EventError) -> Self {
        EvalError::Value(e)
    }
}

/// A compiled expression: attribute references resolved to
/// `(slot, attribute index)` pairs.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub enum CompiledExpr {
    /// Literal.
    Const(Value),
    /// Attribute of the event in binding slot `slot` at position `attr`.
    Attr {
        /// Binding slot.
        slot: u8,
        /// Positional attribute index (already offset for combined
        /// layouts).
        attr: u16,
    },
    /// Binary operation.
    Bin {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<CompiledExpr>,
        /// Right operand.
        rhs: Box<CompiledExpr>,
    },
}

impl CompiledExpr {
    /// Compiles `expr` against a layout.
    ///
    /// For variables with [`SlotSource::EventSlot`] the slot is the event
    /// index and `attr` the schema-local index; for
    /// [`SlotSource::CombinedOffset`] the slot is `0` and `attr` is
    /// `offset + schema-local index` (the binding is the single combined
    /// match event).
    pub fn compile(
        expr: &Expr,
        layout: &BindingLayout,
        registry: &SchemaRegistry,
    ) -> Result<Self, EvalError> {
        match expr {
            Expr::Const(v) => Ok(CompiledExpr::Const(v.clone())),
            Expr::Attr { var, attr } => {
                let (layout_var, local) = match var {
                    Some(name) => {
                        let lv = layout
                            .var(name)
                            .ok_or_else(|| EvalError::UnknownVar(name.clone()))?;
                        let local = registry
                            .schema(lv.type_id)
                            .attr_id(attr)
                            .map_err(|_| EvalError::UnknownAttr {
                                var: name.clone(),
                                attr: attr.clone(),
                            })?
                            .0;
                        (lv, local)
                    }
                    None => layout.resolve_bare(attr, registry).ok_or_else(|| {
                        EvalError::UnknownAttr {
                            var: "<bare>".into(),
                            attr: attr.clone(),
                        }
                    })?,
                };
                Ok(match layout_var.source {
                    SlotSource::EventSlot(slot) => CompiledExpr::Attr { slot, attr: local },
                    SlotSource::CombinedOffset(offset) => CompiledExpr::Attr {
                        slot: 0,
                        attr: offset + local,
                    },
                })
            }
            Expr::Binary { op, lhs, rhs } => Ok(Self::fold(
                *op,
                Self::compile(lhs, layout, registry)?,
                Self::compile(rhs, layout, registry)?,
            )),
        }
    }

    /// Constant folding + algebraic simplification at compile time.
    /// Children are already folded (compilation is bottom-up), so only
    /// the top node needs inspecting. Folds are exact with respect to
    /// `eval` *and* `matches`, including error counting:
    ///
    /// * `Const op Const` evaluates now; if it would error at runtime
    ///   the node is kept so the error still surfaces (and counts) per
    ///   evaluation.
    /// * `false AND x` → `false` and `true OR x` → `true`
    ///   unconditionally — short-circuiting never evaluates `x`.
    /// * `true AND x` → `x` and `false OR x` → `x` only when `x` is
    ///   boolean-or-error (a comparison, a logical node, or a boolean
    ///   constant), since the logical wrapper would have mapped a
    ///   non-boolean `x` to `NotBoolean`. The mirrored `x AND true` /
    ///   `x OR false` folds need the same guard on `x`.
    ///   `x AND false` / `x OR true` are *not* folded: `x`'s runtime
    ///   errors must still surface first.
    fn fold(op: BinOp, lhs: CompiledExpr, rhs: CompiledExpr) -> CompiledExpr {
        use CompiledExpr::Const;
        match (op, &lhs, &rhs) {
            (BinOp::And, Const(Value::Bool(false)), _) => Const(Value::Bool(false)),
            (BinOp::Or, Const(Value::Bool(true)), _) => Const(Value::Bool(true)),
            (BinOp::And, Const(Value::Bool(true)), _)
            | (BinOp::Or, Const(Value::Bool(false)), _)
                if rhs.is_boolean_shaped() =>
            {
                rhs
            }
            (BinOp::And, _, Const(Value::Bool(true)))
            | (BinOp::Or, _, Const(Value::Bool(false)))
                if lhs.is_boolean_shaped() =>
            {
                lhs
            }
            (_, Const(_), Const(_)) => {
                let node = CompiledExpr::Bin {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                };
                match node.eval(&[]) {
                    Ok(v) => Const(v),
                    // Evaluating would error (e.g. overflow, div by
                    // zero): keep the tree so the error is raised — and
                    // counted — at runtime, exactly as before.
                    Err(_) => node,
                }
            }
            _ => CompiledExpr::Bin {
                op,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            },
        }
    }

    /// True when evaluation can only yield `Bool` or an error:
    /// comparisons and logical nodes (their success value is always a
    /// bool) and boolean constants. Used to drop logical identity
    /// wrappers without changing `NotBoolean` semantics.
    fn is_boolean_shaped(&self) -> bool {
        match self {
            CompiledExpr::Const(Value::Bool(_)) => true,
            CompiledExpr::Bin { op, .. } => matches!(
                op,
                BinOp::And
                    | BinOp::Or
                    | BinOp::Eq
                    | BinOp::Ne
                    | BinOp::Lt
                    | BinOp::Le
                    | BinOp::Gt
                    | BinOp::Ge
            ),
            _ => false,
        }
    }

    /// Evaluates against a binding of events (indexed by slot).
    pub fn eval(&self, binding: &[&Event]) -> Result<Value, EvalError> {
        self.eval_in(binding)
    }

    /// Evaluates against any [`Slots`] binding. The pattern operator's
    /// hot path uses this with logical bindings (a pooled prefix + the
    /// incoming event + a negation candidate) so no `Vec<&Event>` is
    /// materialized per candidate; semantics are identical to
    /// [`eval`](Self::eval) on the equivalent slice.
    pub fn eval_in<B: Slots + ?Sized>(&self, binding: &B) -> Result<Value, EvalError> {
        match self {
            CompiledExpr::Const(v) => Ok(v.clone()),
            CompiledExpr::Attr { slot, attr } => {
                Ok(binding.slot(*slot as usize).attrs[*attr as usize].clone())
            }
            CompiledExpr::Bin { op, lhs, rhs } => {
                // Short-circuit logical operators.
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = lhs
                        .eval_in(binding)?
                        .as_bool()
                        .map_err(|_| EvalError::NotBoolean)?;
                    return match (op, l) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => {
                            let r = rhs
                                .eval_in(binding)?
                                .as_bool()
                                .map_err(|_| EvalError::NotBoolean)?;
                            Ok(Value::Bool(r))
                        }
                    };
                }
                let l = lhs.eval_in(binding)?;
                let r = rhs.eval_in(binding)?;
                match op {
                    BinOp::Add => Ok(l.add(&r)?),
                    BinOp::Sub => Ok(l.sub(&r)?),
                    BinOp::Mul => Ok(l.mul(&r)?),
                    BinOp::Div => Ok(l.div(&r)?),
                    BinOp::Eq => Ok(Value::Bool(l.eq_value(&r))),
                    BinOp::Ne => Ok(Value::Bool(!l.is_null() && !r.is_null() && !l.eq_value(&r))),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let ord = l.partial_cmp_value(&r).ok_or(EvalError::Incomparable)?;
                        Ok(Value::Bool(match op {
                            BinOp::Lt => ord.is_lt(),
                            BinOp::Le => ord.is_le(),
                            BinOp::Gt => ord.is_gt(),
                            BinOp::Ge => ord.is_ge(),
                            _ => unreachable!(),
                        }))
                    }
                    BinOp::And | BinOp::Or => unreachable!("handled above"),
                }
            }
        }
    }

    /// Evaluates as a predicate; evaluation errors count as non-matches
    /// (streaming robustness), reported through `errors`.
    pub fn matches(&self, binding: &[&Event], errors: &mut u64) -> bool {
        self.matches_in(binding, errors)
    }

    /// [`matches`](Self::matches) over any [`Slots`] binding.
    pub fn matches_in<B: Slots + ?Sized>(&self, binding: &B, errors: &mut u64) -> bool {
        match self.eval_in(binding) {
            Ok(Value::Bool(b)) => b,
            Ok(_) => {
                *errors += 1;
                false
            }
            Err(_) => {
                *errors += 1;
                false
            }
        }
    }

    /// Reports which binding slots the expression references: returns
    /// `(references target, references any other slot)`. Used to
    /// recognize equality predicates that split into a pure function of
    /// one slot versus the rest of the binding (the key components of
    /// the negation index).
    #[must_use]
    pub fn slot_usage(&self, target: u8) -> (bool, bool) {
        match self {
            CompiledExpr::Const(_) => (false, false),
            CompiledExpr::Attr { slot, .. } => (*slot == target, *slot != target),
            CompiledExpr::Bin { lhs, rhs, .. } => {
                let (lt, lo) = lhs.slot_usage(target);
                let (rt, ro) = rhs.slot_usage(target);
                (lt || rt, lo || ro)
            }
        }
    }

    /// Estimated selectivity of the predicate, used by the cost model:
    /// equality is selective (0.1), inequality broad (0.9), ranges 0.5,
    /// conjunction multiplies, disjunction adds-with-overlap.
    #[must_use]
    pub fn selectivity(&self) -> f64 {
        match self {
            CompiledExpr::Bin { op, lhs, rhs } => match op {
                BinOp::Eq => 0.1,
                BinOp::Ne => 0.9,
                BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => 0.5,
                BinOp::And => lhs.selectivity() * rhs.selectivity(),
                BinOp::Or => {
                    let (a, b) = (lhs.selectivity(), rhs.selectivity());
                    (a + b - a * b).min(1.0)
                }
                _ => 1.0,
            },
            _ => 1.0,
        }
    }
}

/// Builds the combined match-event schema for a set of positive pattern
/// variables: attribute names are `var.attr`, types copied from each
/// variable's schema. Returns the schema plus per-variable offsets.
#[must_use]
pub fn combined_schema(
    name: &str,
    vars: &[(String, TypeId)],
    registry: &SchemaRegistry,
) -> (Schema, Vec<u16>) {
    let mut attrs: Vec<(String, AttrType)> = Vec::new();
    let mut offsets = Vec::with_capacity(vars.len());
    for (var, type_id) in vars {
        offsets.push(attrs.len() as u16);
        for def in &registry.schema(*type_id).attrs {
            attrs.push((format!("{var}.{}", def.name), def.ty));
        }
    }
    let refs: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    (Schema::new(name, &refs), offsets)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_events::{PartitionId, Schema};
    use caesar_query::ast::Expr as AstExpr;

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "P",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("lane", AttrType::Str),
            ],
        ))
        .unwrap();
        reg
    }

    fn event(reg: &SchemaRegistry, vid: i64, sec: i64, lane: &str) -> Event {
        Event::simple(
            reg.lookup("P").unwrap(),
            sec as u64,
            PartitionId(0),
            vec![Value::Int(vid), Value::Int(sec), Value::str(lane)],
        )
    }

    fn slot_layout(reg: &SchemaRegistry) -> BindingLayout {
        let tid = reg.lookup("P").unwrap();
        BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "p1".into(),
                    type_id: tid,
                    source: SlotSource::EventSlot(0),
                },
                LayoutVar {
                    name: "p2".into(),
                    type_id: tid,
                    source: SlotSource::EventSlot(1),
                },
            ],
        }
    }

    #[test]
    fn compiles_and_evaluates_figure_three_predicate() {
        let reg = registry();
        let layout = slot_layout(&reg);
        // p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != "exit"
        let ast = AstExpr::bin(
            BinOp::Eq,
            AstExpr::bin(BinOp::Add, AstExpr::attr("p1", "sec"), AstExpr::int(30)),
            AstExpr::attr("p2", "sec"),
        )
        .and(AstExpr::bin(
            BinOp::Eq,
            AstExpr::attr("p1", "vid"),
            AstExpr::attr("p2", "vid"),
        ))
        .and(AstExpr::bin(
            BinOp::Ne,
            AstExpr::attr("p2", "lane"),
            AstExpr::string("exit"),
        ));
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();

        let e1 = event(&reg, 7, 0, "travel");
        let e2 = event(&reg, 7, 30, "travel");
        let e3 = event(&reg, 7, 30, "exit");
        let e4 = event(&reg, 8, 30, "travel");
        let mut errs = 0;
        assert!(compiled.matches(&[&e1, &e2], &mut errs));
        assert!(!compiled.matches(&[&e1, &e3], &mut errs), "exit lane");
        assert!(!compiled.matches(&[&e1, &e4], &mut errs), "vid mismatch");
        assert!(!compiled.matches(&[&e2, &e2], &mut errs), "sec mismatch");
        assert_eq!(errs, 0);
    }

    #[test]
    fn combined_offset_layout_shifts_attr_indices() {
        let reg = registry();
        let tid = reg.lookup("P").unwrap();
        let layout = BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "p1".into(),
                    type_id: tid,
                    source: SlotSource::CombinedOffset(0),
                },
                LayoutVar {
                    name: "p2".into(),
                    type_id: tid,
                    source: SlotSource::CombinedOffset(3),
                },
            ],
        };
        let ast = AstExpr::bin(
            BinOp::Eq,
            AstExpr::attr("p1", "vid"),
            AstExpr::attr("p2", "vid"),
        );
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        match &compiled {
            CompiledExpr::Bin { lhs, rhs, .. } => {
                assert_eq!(**lhs, CompiledExpr::Attr { slot: 0, attr: 0 });
                assert_eq!(**rhs, CompiledExpr::Attr { slot: 0, attr: 3 });
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn bare_attr_resolves_against_layout() {
        let reg = registry();
        let tid = reg.lookup("P").unwrap();
        let layout = BindingLayout {
            vars: vec![LayoutVar {
                name: "p".into(),
                type_id: tid,
                source: SlotSource::EventSlot(0),
            }],
        };
        let ast = AstExpr::bin(BinOp::Gt, AstExpr::bare("sec"), AstExpr::int(10));
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        let e = event(&reg, 1, 30, "travel");
        assert_eq!(compiled.eval(&[&e]).unwrap(), Value::Bool(true));
    }

    #[test]
    fn unknown_var_and_attr_fail_compilation() {
        let reg = registry();
        let layout = slot_layout(&reg);
        assert!(matches!(
            CompiledExpr::compile(&AstExpr::attr("ghost", "vid"), &layout, &reg),
            Err(EvalError::UnknownVar(_))
        ));
        assert!(matches!(
            CompiledExpr::compile(&AstExpr::attr("p1", "ghost"), &layout, &reg),
            Err(EvalError::UnknownAttr { .. })
        ));
    }

    #[test]
    fn logical_short_circuit_avoids_rhs_errors() {
        let reg = registry();
        let layout = slot_layout(&reg);
        // false AND (lane + 1 ...) — rhs would be a type error.
        let ast = AstExpr::bin(BinOp::Eq, AstExpr::attr("p1", "vid"), AstExpr::int(-1)).and(
            AstExpr::bin(
                BinOp::Gt,
                AstExpr::bin(BinOp::Add, AstExpr::attr("p1", "lane"), AstExpr::int(1)),
                AstExpr::int(0),
            ),
        );
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        let e = event(&reg, 1, 0, "x");
        assert_eq!(compiled.eval(&[&e, &e]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn eval_errors_count_as_non_match() {
        let reg = registry();
        let layout = slot_layout(&reg);
        let ast = AstExpr::bin(
            BinOp::Gt,
            AstExpr::bin(BinOp::Add, AstExpr::attr("p1", "lane"), AstExpr::int(1)),
            AstExpr::int(0),
        );
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        let e = event(&reg, 1, 0, "x");
        let mut errs = 0;
        assert!(!compiled.matches(&[&e, &e], &mut errs));
        assert_eq!(errs, 1);
    }

    #[test]
    fn null_comparisons_are_false() {
        let reg = registry();
        let tid = reg.lookup("P").unwrap();
        let layout = BindingLayout {
            vars: vec![LayoutVar {
                name: "p".into(),
                type_id: tid,
                source: SlotSource::EventSlot(0),
            }],
        };
        let e = Event::simple(
            tid,
            0,
            PartitionId(0),
            vec![Value::Null, Value::Null, Value::Null],
        );
        let eq = CompiledExpr::compile(
            &AstExpr::bin(BinOp::Eq, AstExpr::attr("p", "vid"), AstExpr::int(0)),
            &layout,
            &reg,
        )
        .unwrap();
        assert_eq!(eq.eval(&[&e]).unwrap(), Value::Bool(false));
        let ne = CompiledExpr::compile(
            &AstExpr::bin(BinOp::Ne, AstExpr::attr("p", "vid"), AstExpr::int(0)),
            &layout,
            &reg,
        )
        .unwrap();
        assert_eq!(ne.eval(&[&e]).unwrap(), Value::Bool(false));
    }

    #[test]
    fn selectivity_estimates() {
        let reg = registry();
        let layout = slot_layout(&reg);
        let eq = CompiledExpr::compile(
            &AstExpr::bin(BinOp::Eq, AstExpr::attr("p1", "vid"), AstExpr::int(1)),
            &layout,
            &reg,
        )
        .unwrap();
        assert!((eq.selectivity() - 0.1).abs() < 1e-9);
        let conj = CompiledExpr::Bin {
            op: BinOp::And,
            lhs: Box::new(eq.clone()),
            rhs: Box::new(eq),
        };
        assert!((conj.selectivity() - 0.01).abs() < 1e-9);
    }

    #[test]
    fn folds_constant_subtrees() {
        let reg = registry();
        let layout = slot_layout(&reg);
        // (10 + 20) = p1.sec  →  30 = p1.sec (the const subtree folds).
        let ast = AstExpr::bin(
            BinOp::Eq,
            AstExpr::bin(BinOp::Add, AstExpr::int(10), AstExpr::int(20)),
            AstExpr::attr("p1", "sec"),
        );
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        assert_eq!(
            compiled,
            CompiledExpr::Bin {
                op: BinOp::Eq,
                lhs: Box::new(CompiledExpr::Const(Value::Int(30))),
                rhs: Box::new(CompiledExpr::Attr { slot: 0, attr: 1 }),
            }
        );
        // A fully constant comparison folds to a boolean literal.
        let ast = AstExpr::bin(BinOp::Lt, AstExpr::int(1), AstExpr::int(2));
        assert_eq!(
            CompiledExpr::compile(&ast, &layout, &reg).unwrap(),
            CompiledExpr::Const(Value::Bool(true))
        );
    }

    #[test]
    fn folds_logical_identities() {
        let reg = registry();
        let layout = slot_layout(&reg);
        let cmp = AstExpr::bin(BinOp::Gt, AstExpr::attr("p1", "sec"), AstExpr::int(10));
        let expected = CompiledExpr::compile(&cmp, &layout, &reg).unwrap();
        // true AND x → x;  false OR x → x.
        let t = AstExpr::Const(Value::Bool(true));
        let f = AstExpr::Const(Value::Bool(false));
        let and = AstExpr::bin(BinOp::And, t.clone(), cmp.clone());
        assert_eq!(
            CompiledExpr::compile(&and, &layout, &reg).unwrap(),
            expected
        );
        let or = AstExpr::bin(BinOp::Or, f.clone(), cmp.clone());
        assert_eq!(CompiledExpr::compile(&or, &layout, &reg).unwrap(), expected);
        // false AND x → false;  true OR x → true (short-circuit means x
        // never runs, so the fold is exact even for erroring x).
        let and = AstExpr::bin(BinOp::And, f, cmp.clone());
        assert_eq!(
            CompiledExpr::compile(&and, &layout, &reg).unwrap(),
            CompiledExpr::Const(Value::Bool(false))
        );
        let or = AstExpr::bin(BinOp::Or, t, cmp);
        assert_eq!(
            CompiledExpr::compile(&or, &layout, &reg).unwrap(),
            CompiledExpr::Const(Value::Bool(true))
        );
    }

    #[test]
    fn erroring_constants_are_not_folded() {
        let reg = registry();
        let layout = slot_layout(&reg);
        // 1 / 0 must keep erroring (and counting) at runtime.
        let ast = AstExpr::bin(
            BinOp::Gt,
            AstExpr::bin(BinOp::Div, AstExpr::int(1), AstExpr::int(0)),
            AstExpr::int(0),
        );
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        assert!(matches!(compiled, CompiledExpr::Bin { .. }));
        let e = event(&reg, 1, 0, "x");
        let mut errs = 0;
        assert!(!compiled.matches(&[&e, &e], &mut errs));
        assert_eq!(errs, 1);
        // x AND false is likewise kept: x's errors must surface first.
        let bad = AstExpr::bin(
            BinOp::Gt,
            AstExpr::bin(BinOp::Add, AstExpr::attr("p1", "lane"), AstExpr::int(1)),
            AstExpr::int(0),
        );
        let ast = AstExpr::bin(BinOp::And, bad, AstExpr::Const(Value::Bool(false)));
        let compiled = CompiledExpr::compile(&ast, &layout, &reg).unwrap();
        let mut errs = 0;
        assert!(!compiled.matches(&[&e, &e], &mut errs));
        assert_eq!(errs, 1, "lhs error still counted");
    }

    #[test]
    fn combined_schema_names_and_offsets() {
        let reg = registry();
        let tid = reg.lookup("P").unwrap();
        let (schema, offsets) = combined_schema(
            "$match:Q0",
            &[("p1".to_string(), tid), ("p2".to_string(), tid)],
            &reg,
        );
        assert_eq!(schema.arity(), 6);
        assert_eq!(offsets, vec![0, 3]);
        assert_eq!(schema.attrs[3].name.as_ref(), "p2.vid");
    }
}
