//! Compiled NFA pattern programs (§4.1) and the fluent construction API.
//!
//! A [`NfaProgram`] is the compiled form of one `SEQ(...)` pattern: a
//! linear automaton whose states are the positive steps (each guarded by
//! a type test plus eagerly evaluated step predicates) and whose
//! negation checks veto candidate matches at completion time. The
//! [`PatternOp`] runtime executes programs
//! over the pooled partial-match slab; the program itself is immutable
//! data, which is what makes cross-query *prefix sharing* possible — two
//! programs whose leading steps agree (same type, same predicates) can
//! run those steps once on shared state (see
//! [`SharedGroup`](crate::pattern::SharedGroup)).
//!
//! Step equality across queries is decided over *interned predicate
//! references*: a [`PredicateTable`] maps each compiled predicate to a
//! dense [`PredicateId`] by its canonical serialized form, so two
//! independently compiled-but-identical predicates (same slots, same
//! attribute ids, same constants) get the same id and step signatures
//! become cheaply comparable.
//!
//! Programs are built through [`PatternBuilder`]:
//!
//! ```text
//! PatternBuilder::new(match_type)
//!     .then(a).then(b).filter(pred)      // SEQ(A a, B b) with a step predicate on b
//!     .not_between(0, c, vec![])         // NOT C strictly between a and b
//!     .within(60)
//!     .offsets(vec![0, 1])
//!     .collect_provenance()              // opt-in match provenance
//!     .build()
//! ```

use crate::expr::CompiledExpr;
use crate::pattern::{NegPlan, PatternOp};
use caesar_events::{Time, TypeId};
use serde::Serialize;
use std::collections::HashMap;

/// Where a negated element sits relative to the positive steps.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub enum NegPosition {
    /// Before the first positive step (leading `NOT`).
    Before,
    /// Strictly between positive steps `i` and `i + 1`.
    Between(usize),
    /// After the last positive step (trailing `NOT`).
    After,
}

/// One negation constraint of a sequence pattern.
#[derive(Debug, Clone, Serialize)]
pub struct NegationCheck {
    /// Type of the forbidden event.
    pub type_id: TypeId,
    /// Position relative to the positive steps.
    pub position: NegPosition,
    /// Predicates over `[positive events..., negated candidate]` —
    /// the negated candidate is bound at slot `positive_count`.
    /// An event only *counts* as forbidden if all predicates hold.
    pub predicates: Vec<CompiledExpr>,
}

/// One positive step of the compiled automaton.
#[derive(Debug, Clone, Serialize)]
pub struct NfaStep {
    /// Event type the step matches.
    pub type_id: TypeId,
    /// Predicates whose referenced slots are all bound once this step
    /// matches — evaluated eagerly to prune partial matches.
    pub predicates: Vec<CompiledExpr>,
}

/// A compiled pattern program: the data half of the pattern operator
/// (the [`PatternOp`] runtime adds the mutable match state).
#[derive(Debug, Clone, Serialize)]
pub struct NfaProgram {
    /// Positive steps in sequence order.
    pub steps: Vec<NfaStep>,
    /// Negation checks (evaluated on candidate completion).
    pub negations: Vec<NegationCheck>,
    /// Maximum allowed span of a full match; also the negation-buffer
    /// horizon and the trailing-negation deadline.
    pub within: Time,
    /// Output type of assembled match events (`None` ⇒ pass-through:
    /// a single step without negation or step predicates).
    pub match_type: Option<TypeId>,
    /// Per-step attribute offsets in the combined match event.
    pub offsets: Vec<u16>,
    /// Collect [`Provenance`](caesar_events::Provenance) on every
    /// emitted match (the opt-in provenance execution mode).
    pub collect_provenance: bool,
    /// How each negation check probes its buffer, compiled from the
    /// checks by [`new`](Self::new) — when the program is built, never
    /// per probe — and derived from them, so left out of the encoding.
    #[serde(skip)]
    pub(crate) neg_plans: Vec<NegPlan>,
}

impl NfaProgram {
    /// Assembles a program and compiles its negation probe plans.
    #[must_use]
    pub fn new(
        steps: Vec<NfaStep>,
        negations: Vec<NegationCheck>,
        within: Time,
        match_type: Option<TypeId>,
        offsets: Vec<u16>,
        collect_provenance: bool,
    ) -> Self {
        let neg_plans = NegPlan::compile_all(steps.len(), &negations);
        Self {
            steps,
            negations,
            within,
            match_type,
            offsets,
            collect_provenance,
            neg_plans,
        }
    }

    /// Number of positive steps.
    #[must_use]
    pub fn arity(&self) -> usize {
        self.steps.len()
    }
}

/// Dense reference to an interned predicate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PredicateId(pub u32);

/// Interns compiled predicates by their canonical serialized form.
///
/// Two predicates receive the same [`PredicateId`] exactly when they
/// serialize to the same bytes — same expression tree, same slot
/// bindings, same attribute ids, same constants — which is precisely the
/// condition under which evaluating one of them is equivalent to
/// evaluating the other on any slot binding. Step signatures built from
/// these ids therefore decide prefix-sharing eligibility soundly.
#[derive(Debug, Clone, Default)]
pub struct PredicateTable {
    ids: HashMap<Vec<u8>, u32>,
}

impl PredicateTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns one predicate, returning its dense id.
    pub fn intern(&mut self, predicate: &CompiledExpr) -> PredicateId {
        let fingerprint = serde::to_bytes(predicate);
        let next = self.ids.len() as u32;
        PredicateId(*self.ids.entry(fingerprint).or_insert(next))
    }

    /// Number of distinct predicates interned so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// True when nothing has been interned.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }
}

/// The comparable signature of one step: its type plus the sorted ids of
/// its predicates (step predicates are a conjunction, so order is
/// irrelevant for equivalence).
#[must_use]
pub fn step_signature(step: &NfaStep, table: &mut PredicateTable) -> (TypeId, Vec<PredicateId>) {
    let mut ids: Vec<PredicateId> = step.predicates.iter().map(|p| table.intern(p)).collect();
    ids.sort_unstable();
    (step.type_id, ids)
}

/// Fluent builder for pattern operators — the construction API of the
/// NFA runtime (see the module docs for an example).
#[derive(Debug, Clone)]
pub struct PatternBuilder {
    steps: Vec<NfaStep>,
    negations: Vec<NegationCheck>,
    within: Time,
    match_type: TypeId,
    offsets: Vec<u16>,
    collect_provenance: bool,
}

impl PatternBuilder {
    /// Starts a sequence pattern deriving events of `match_type`.
    #[must_use]
    pub fn new(match_type: TypeId) -> Self {
        Self {
            steps: Vec::new(),
            negations: Vec::new(),
            within: Time::MAX,
            match_type,
            offsets: Vec::new(),
            collect_provenance: false,
        }
    }

    /// Appends a positive step matching `type_id`.
    #[must_use]
    pub fn then(mut self, type_id: TypeId) -> Self {
        self.steps.push(NfaStep {
            type_id,
            predicates: Vec::new(),
        });
        self
    }

    /// Adds a step predicate to the most recent [`then`](Self::then)
    /// step. All slots the predicate references must be bound by that
    /// step (slot `i` is step `i`).
    #[must_use]
    pub fn filter(mut self, predicate: CompiledExpr) -> Self {
        self.steps
            .last_mut()
            .expect("filter() requires a preceding then()")
            .predicates
            .push(predicate);
        self
    }

    /// Forbids `type_id` events before the first positive step.
    #[must_use]
    pub fn not_before(mut self, type_id: TypeId, predicates: Vec<CompiledExpr>) -> Self {
        self.negations.push(NegationCheck {
            type_id,
            position: NegPosition::Before,
            predicates,
        });
        self
    }

    /// Forbids `type_id` events strictly between positive steps `k` and
    /// `k + 1`.
    #[must_use]
    pub fn not_between(mut self, k: usize, type_id: TypeId, predicates: Vec<CompiledExpr>) -> Self {
        self.negations.push(NegationCheck {
            type_id,
            position: NegPosition::Between(k),
            predicates,
        });
        self
    }

    /// Forbids `type_id` events after the last positive step (delays
    /// emission until the `within` horizon passes).
    #[must_use]
    pub fn not_after(mut self, type_id: TypeId, predicates: Vec<CompiledExpr>) -> Self {
        self.negations.push(NegationCheck {
            type_id,
            position: NegPosition::After,
            predicates,
        });
        self
    }

    /// Bounds the span of a full match.
    #[must_use]
    pub fn within(mut self, within: Time) -> Self {
        self.within = within;
        self
    }

    /// Sets the per-step attribute offsets in the combined match event
    /// (defaults to `[0]` for single-step patterns; required otherwise).
    #[must_use]
    pub fn offsets(mut self, offsets: Vec<u16>) -> Self {
        self.offsets = offsets;
        self
    }

    /// Collects match [`Provenance`](caesar_events::Provenance) on every
    /// emitted event.
    #[must_use]
    pub fn collect_provenance(mut self) -> Self {
        self.collect_provenance = true;
        self
    }

    /// Compiles the program into an executable pattern operator.
    ///
    /// # Panics
    ///
    /// Panics when no step was added, or when explicit offsets disagree
    /// with the step count.
    #[must_use]
    pub fn build(self) -> PatternOp {
        assert!(!self.steps.is_empty(), "pattern needs at least one step");
        let offsets = if self.offsets.is_empty() {
            assert_eq!(
                self.steps.len(),
                1,
                "multi-step patterns require explicit offsets"
            );
            vec![0]
        } else {
            self.offsets
        };
        PatternOp::compile(NfaProgram::new(
            self.steps,
            self.negations,
            self.within,
            Some(self.match_type),
            offsets,
            self.collect_provenance,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BindingLayout, LayoutVar, SlotSource};
    use caesar_events::{AttrType, Schema, SchemaRegistry};
    use caesar_query::ast::{BinOp, Expr};

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("A", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("B", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new(
            "M",
            &[("a.v", AttrType::Int), ("b.v", AttrType::Int)],
        ))
        .unwrap();
        reg
    }

    fn layout(reg: &SchemaRegistry) -> BindingLayout {
        BindingLayout {
            vars: vec![
                LayoutVar {
                    name: "a".into(),
                    type_id: reg.lookup("A").unwrap(),
                    source: SlotSource::EventSlot(0),
                },
                LayoutVar {
                    name: "b".into(),
                    type_id: reg.lookup("B").unwrap(),
                    source: SlotSource::EventSlot(1),
                },
            ],
        }
    }

    #[test]
    fn interning_is_structural() {
        let reg = registry();
        let layout = layout(&reg);
        let compile = |e: &Expr| CompiledExpr::compile(e, &layout, &reg).unwrap();
        let gt5a = compile(&Expr::bin(BinOp::Gt, Expr::attr("a", "v"), Expr::int(5)));
        let gt5b = compile(&Expr::bin(BinOp::Gt, Expr::attr("a", "v"), Expr::int(5)));
        let gt6 = compile(&Expr::bin(BinOp::Gt, Expr::attr("a", "v"), Expr::int(6)));
        let mut table = PredicateTable::new();
        assert_eq!(table.intern(&gt5a), table.intern(&gt5b));
        assert_ne!(table.intern(&gt5a), table.intern(&gt6));
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn step_signature_ignores_predicate_order() {
        let reg = registry();
        let layout = layout(&reg);
        let compile = |e: &Expr| CompiledExpr::compile(e, &layout, &reg).unwrap();
        let p1 = compile(&Expr::bin(BinOp::Gt, Expr::attr("a", "v"), Expr::int(5)));
        let p2 = compile(&Expr::bin(BinOp::Lt, Expr::attr("a", "v"), Expr::int(9)));
        let ty = reg.lookup("A").unwrap();
        let fwd = NfaStep {
            type_id: ty,
            predicates: vec![p1.clone(), p2.clone()],
        };
        let rev = NfaStep {
            type_id: ty,
            predicates: vec![p2, p1],
        };
        let mut table = PredicateTable::new();
        assert_eq!(
            step_signature(&fwd, &mut table),
            step_signature(&rev, &mut table)
        );
    }

    #[test]
    fn builder_compiles_runnable_pattern() {
        let reg = registry();
        let p = PatternBuilder::new(reg.lookup("M").unwrap())
            .then(reg.lookup("A").unwrap())
            .then(reg.lookup("B").unwrap())
            .within(100)
            .offsets(vec![0, 1])
            .build();
        assert_eq!(p.arity(), 2);
        assert!(!p.is_passthrough());
        assert_eq!(p.offsets(), &[0, 1]);
    }

    #[test]
    #[should_panic(expected = "explicit offsets")]
    fn builder_rejects_missing_offsets() {
        let reg = registry();
        let _ = PatternBuilder::new(reg.lookup("M").unwrap())
            .then(reg.lookup("A").unwrap())
            .then(reg.lookup("B").unwrap())
            .build();
    }
}
