//! Phase 2 of the CAESAR model translation (§4.2): machine-readable
//! query set → executable combined query plans.
//!
//! 1. *Individual query plan construction* — each clause becomes the
//!    operators of Table 1:
//!
//!    | clause                | operators        |
//!    |-----------------------|------------------|
//!    | `INITIATE CONTEXT c`  | `CI_c`           |
//!    | `SWITCH CONTEXT c`    | `CI_c, CT_curr`  |
//!    | `TERMINATE CONTEXT c` | `CT_c`           |
//!    | `DERIVE E(A)`         | `PR_{A,E}`       |
//!    | `PATTERN P`           | `P`              |
//!    | `WHERE θ`             | `Fl_θ`           |
//!    | `CONTEXT c`           | `CW_c`           |
//!
//!    The initial chain order follows Figure 6(a): pattern at the bottom,
//!    then filter, then the context window, then projection (or the
//!    context initiation/termination operators for deriving queries).
//!    Conjuncts of `WHERE` referencing a negated pattern variable cannot
//!    live in the filter operator (the negated event does not exist in
//!    the match); they compile into the pattern operator's negation
//!    check.
//!
//! 2. *Combined query plan construction* — individual plans of the same
//!    context are wired producer-before-consumer (topological order on
//!    derived event types).

use crate::expr::{combined_schema, BindingLayout, CompiledExpr, EvalError, LayoutVar, SlotSource};
use crate::nfa::PatternBuilder;
use crate::ops::{ContextInitOp, ContextTermOp, ContextWindowOp, FilterOp, Op, ProjectOp};
use crate::pattern::{NegPosition, NegationCheck, PatternOp};
use crate::plan::{CombinedPlan, QueryPlan};
use caesar_events::{AttrType, Schema, SchemaRegistry, Time, TypeId, Value};
use caesar_query::ast::{ContextAction, Expr, Pattern};
use caesar_query::queryset::{CompiledQuery, QuerySet};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

/// Errors raised during Phase-2 translation.
#[derive(Debug, Clone, PartialEq)]
pub enum TranslateError {
    /// A pattern references an event type that is neither registered nor
    /// derived by any query in the set.
    UnknownEventType(String),
    /// Expression compilation failed.
    Expr(EvalError),
    /// A `WHERE` conjunct references more than one negated variable.
    MultiNegatedPredicate(String),
    /// Queries within one context form a derivation cycle.
    CyclicDependency(String),
    /// The query's context is not among the set's context names.
    UnknownContext(String),
    /// A derived type was declared twice with different arity.
    ConflictingDerivedType(String),
}

impl fmt::Display for TranslateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TranslateError::UnknownEventType(t) => {
                write!(f, "event type '{t}' is neither registered nor derived")
            }
            TranslateError::Expr(e) => write!(f, "expression error: {e}"),
            TranslateError::MultiNegatedPredicate(q) => write!(
                f,
                "query {q}: a WHERE conjunct references more than one negated variable"
            ),
            TranslateError::CyclicDependency(c) => {
                write!(f, "queries in context '{c}' form a derivation cycle")
            }
            TranslateError::UnknownContext(c) => write!(f, "unknown context '{c}'"),
            TranslateError::ConflictingDerivedType(t) => {
                write!(
                    f,
                    "derived type '{t}' declared twice with conflicting schemas"
                )
            }
        }
    }
}

impl std::error::Error for TranslateError {}

impl From<EvalError> for TranslateError {
    fn from(e: EvalError) -> Self {
        TranslateError::Expr(e)
    }
}

/// Knobs of the translation.
#[derive(Debug, Clone, Copy)]
pub struct TranslateOptions {
    /// Maximum span of a sequence match; also the negation buffer horizon
    /// (the language has no `WITHIN` clause; the paper relies on
    /// "temporal constraints" \[34\]).
    pub default_within: Time,
}

impl Default for TranslateOptions {
    fn default() -> Self {
        Self {
            default_within: 300,
        }
    }
}

/// Result of Phase-2 translation.
#[derive(Debug, Clone)]
pub struct TranslationOutput {
    /// One combined plan per context that carries queries, in
    /// bit-vector (alphabetical) context order.
    pub combined: Vec<CombinedPlan>,
    /// Context names in bit order.
    pub context_names: Vec<String>,
    /// Bit of the default context.
    pub default_bit: u8,
}

impl TranslationOutput {
    /// The combined plan of a context, if it has one.
    #[must_use]
    pub fn plan_for(&self, context: &str) -> Option<&CombinedPlan> {
        self.combined.iter().find(|c| c.context == context)
    }
}

/// Translates a Phase-1 query set into executable combined plans,
/// registering derived and match event types in `registry`.
pub fn translate_query_set(
    query_set: &QuerySet,
    registry: &mut SchemaRegistry,
    options: &TranslateOptions,
) -> Result<TranslationOutput, TranslateError> {
    let default_bit = query_set
        .context_bit(&query_set.default_context)
        .ok_or_else(|| TranslateError::UnknownContext(query_set.default_context.clone()))?
        as u8;

    register_derived_types(query_set, registry)?;

    let bits: BTreeMap<String, u8> = query_set
        .context_names
        .iter()
        .enumerate()
        .map(|(i, name)| (name.clone(), i as u8))
        .collect();

    // Group translated plans by context.
    let mut by_context: BTreeMap<String, Vec<QueryPlan>> = BTreeMap::new();
    for cq in &query_set.queries {
        let bit = query_set
            .context_bit(&cq.context)
            .ok_or_else(|| TranslateError::UnknownContext(cq.context.clone()))?
            as u8;
        let plan = translate_query(cq, bit, &bits, registry, options)?;
        by_context.entry(cq.context.clone()).or_default().push(plan);
    }

    let mut combined = Vec::new();
    for (context, plans) in by_context {
        let bit = query_set.context_bit(&context).expect("checked above") as u8;
        let ordered = topo_sort(plans, &context)?;
        combined.push(CombinedPlan::new(context, bit, ordered));
    }

    Ok(TranslationOutput {
        combined,
        context_names: query_set.context_names.clone(),
        default_bit,
    })
}

/// Registers the output schema of every `DERIVE` clause. Schema inference
/// may need the schemas of *other* derived types (a pattern over a
/// derived event), so passes repeat until a fixpoint.
fn register_derived_types(
    query_set: &QuerySet,
    registry: &mut SchemaRegistry,
) -> Result<(), TranslateError> {
    let mut pending: Vec<&CompiledQuery> = query_set
        .queries
        .iter()
        .filter(|q| q.query.derive.is_some())
        .collect();
    loop {
        let before = pending.len();
        let mut still_pending = Vec::new();
        for cq in pending {
            match try_register_derived(cq, registry)? {
                true => {}
                false => still_pending.push(cq),
            }
        }
        if still_pending.is_empty() {
            return Ok(());
        }
        if still_pending.len() == before {
            // No progress: some pattern type is genuinely unknown.
            let missing = still_pending
                .iter()
                .flat_map(|cq| cq.query.pattern.event_types())
                .find(|t| registry.lookup(t).is_err())
                .unwrap_or("<unknown>");
            return Err(TranslateError::UnknownEventType(missing.to_string()));
        }
        pending = still_pending;
    }
}

/// Attempts to register one query's derived type; `Ok(false)` when its
/// input types are not all known yet.
fn try_register_derived(
    cq: &CompiledQuery,
    registry: &mut SchemaRegistry,
) -> Result<bool, TranslateError> {
    let derive = cq.query.derive.as_ref().expect("filtered");
    // All pattern types known?
    let vars = pattern_vars(&cq.query.pattern, registry);
    let Ok(vars) = vars else { return Ok(false) };

    let mut names: Vec<String> = Vec::with_capacity(derive.args.len());
    let mut used: BTreeSet<String> = BTreeSet::new();
    let mut attrs: Vec<(String, AttrType)> = Vec::new();
    for (i, arg) in derive.args.iter().enumerate() {
        let base = match arg {
            Expr::Attr { attr, .. } => attr.clone(),
            _ => format!("arg{i}"),
        };
        let mut name = base.clone();
        let mut k = 2;
        while !used.insert(name.clone()) {
            name = format!("{base}_{k}");
            k += 1;
        }
        let ty = infer_expr_type(arg, &vars, registry);
        attrs.push((name.clone(), ty));
        names.push(name);
    }
    let refs: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let schema = Schema::new(&derive.event_type, &refs);
    match registry.register(schema) {
        Ok(_) => Ok(true),
        Err(_) => {
            // Already registered: multiple instances of the same source
            // query (or replicated workloads) re-declare the type. Accept
            // if the arity matches; reject genuine conflicts.
            let existing = registry
                .schema_by_name(&derive.event_type)
                .expect("registration failed means the name exists");
            if existing.arity() == derive.args.len() {
                Ok(true)
            } else {
                Err(TranslateError::ConflictingDerivedType(
                    derive.event_type.clone(),
                ))
            }
        }
    }
}

/// Resolves the positive pattern variables to `(name, TypeId)` pairs;
/// fails if any pattern type is unregistered.
fn pattern_vars(
    pattern: &Pattern,
    registry: &SchemaRegistry,
) -> Result<Vec<(String, TypeId)>, TranslateError> {
    let mut vars = Vec::new();
    for (i, el) in pattern.elements().into_iter().enumerate() {
        let Pattern::Event {
            event_type,
            var,
            negated,
        } = el
        else {
            continue;
        };
        if *negated {
            continue;
        }
        let type_id = registry
            .lookup(event_type)
            .map_err(|_| TranslateError::UnknownEventType(event_type.clone()))?;
        let name = var.clone().unwrap_or_else(|| format!("$e{i}"));
        vars.push((name, type_id));
    }
    Ok(vars)
}

/// Infers the value domain of an expression over the given variables.
fn infer_expr_type(expr: &Expr, vars: &[(String, TypeId)], registry: &SchemaRegistry) -> AttrType {
    match expr {
        Expr::Const(Value::Int(_)) => AttrType::Int,
        Expr::Const(Value::Float(_)) => AttrType::Float,
        Expr::Const(Value::Str(_)) => AttrType::Str,
        Expr::Const(Value::Bool(_)) => AttrType::Bool,
        Expr::Const(Value::Null) => AttrType::Int,
        Expr::Attr { var, attr } => {
            let found = match var {
                Some(v) => vars
                    .iter()
                    .find(|(name, _)| name == v)
                    .and_then(|(_, tid)| {
                        registry
                            .schema(*tid)
                            .attrs
                            .iter()
                            .find(|a| a.name.as_ref() == attr)
                    }),
                None => vars.iter().find_map(|(_, tid)| {
                    registry
                        .schema(*tid)
                        .attrs
                        .iter()
                        .find(|a| a.name.as_ref() == attr)
                }),
            };
            found.map_or(AttrType::Int, |a| a.ty)
        }
        Expr::Binary { op, lhs, rhs } => {
            if op.is_comparison() || op.is_logical() {
                AttrType::Bool
            } else {
                let (l, r) = (
                    infer_expr_type(lhs, vars, registry),
                    infer_expr_type(rhs, vars, registry),
                );
                if l == AttrType::Float || r == AttrType::Float {
                    AttrType::Float
                } else {
                    AttrType::Int
                }
            }
        }
    }
}

/// Translates one compiled query into its individual plan (Table 1).
/// `context_bits` maps context names to bit-vector positions
/// (alphabetical order over the query set's contexts).
pub fn translate_query(
    cq: &CompiledQuery,
    context_bit: u8,
    context_bits: &BTreeMap<String, u8>,
    registry: &mut SchemaRegistry,
    options: &TranslateOptions,
) -> Result<QueryPlan, TranslateError> {
    let query = &cq.query;
    let elements = query.pattern.elements();

    // Classify elements: positives in order; negations with positions.
    struct NegSpec {
        type_id: TypeId,
        var: Option<String>,
        position: NegPosition,
    }
    let mut positives: Vec<(TypeId, Option<String>)> = Vec::new();
    let mut negs: Vec<NegSpec> = Vec::new();
    let total_positives = elements
        .iter()
        .filter(|e| matches!(e, Pattern::Event { negated: false, .. }))
        .count();
    for el in &elements {
        let Pattern::Event {
            event_type,
            var,
            negated,
        } = el
        else {
            continue;
        };
        let type_id = registry
            .lookup(event_type)
            .map_err(|_| TranslateError::UnknownEventType(event_type.clone()))?;
        if *negated {
            let position = if positives.is_empty() {
                NegPosition::Before
            } else if positives.len() == total_positives {
                NegPosition::After
            } else {
                NegPosition::Between(positives.len() - 1)
            };
            negs.push(NegSpec {
                type_id,
                var: var.clone(),
                position,
            });
        } else {
            positives.push((type_id, var.clone()));
        }
    }

    // Variable slots: positives 0..k-1 (pattern order).
    let positive_vars: Vec<(String, TypeId)> = positives
        .iter()
        .enumerate()
        .map(|(i, (tid, var))| (var.clone().unwrap_or_else(|| format!("$e{i}")), *tid))
        .collect();

    // Split WHERE conjuncts into negation predicates and filter
    // predicates.
    let negated_var_names: Vec<Option<String>> = negs.iter().map(|n| n.var.clone()).collect();
    let mut filter_conjuncts: Vec<&Expr> = Vec::new();
    let mut neg_conjuncts: Vec<Vec<&Expr>> = vec![Vec::new(); negs.len()];
    if let Some(w) = &query.where_clause {
        for conjunct in w.conjuncts() {
            let referenced = conjunct.referenced_vars();
            let hit_negs: Vec<usize> = negated_var_names
                .iter()
                .enumerate()
                .filter_map(|(i, v)| {
                    v.as_deref()
                        .filter(|name| referenced.contains(&Some(name)))
                        .map(|_| i)
                })
                .collect();
            match hit_negs.len() {
                0 => filter_conjuncts.push(conjunct),
                1 => neg_conjuncts[hit_negs[0]].push(conjunct),
                _ => return Err(TranslateError::MultiNegatedPredicate(cq.id.to_string())),
            }
        }
    }

    // Binding layout for negation checks: positives at slots 0..k-1,
    // the negated candidate at slot k.
    let slot_layout_with = |neg: Option<(&str, TypeId)>| -> BindingLayout {
        let mut vars: Vec<LayoutVar> = positive_vars
            .iter()
            .enumerate()
            .map(|(i, (name, tid))| LayoutVar {
                name: name.clone(),
                type_id: *tid,
                source: SlotSource::EventSlot(i as u8),
            })
            .collect();
        if let Some((name, tid)) = neg {
            vars.push(LayoutVar {
                name: name.to_string(),
                type_id: tid,
                source: SlotSource::EventSlot(positive_vars.len() as u8),
            });
        }
        BindingLayout { vars }
    };

    // Compile negation checks.
    let mut negation_checks = Vec::with_capacity(negs.len());
    for (i, spec) in negs.iter().enumerate() {
        let layout = slot_layout_with(spec.var.as_deref().map(|name| (name, spec.type_id)));
        let predicates = neg_conjuncts[i]
            .iter()
            .map(|c| CompiledExpr::compile(c, &layout, registry))
            .collect::<Result<Vec<_>, _>>()?;
        negation_checks.push(NegationCheck {
            type_id: spec.type_id,
            position: spec.position,
            predicates,
        });
    }

    // Build the pattern operator and the layout seen by operators above
    // it.
    let passthrough = positives.len() == 1 && negation_checks.is_empty();
    let (pattern_op, above_layout) = if passthrough {
        let (tid, _) = positives[0];
        let layout = BindingLayout {
            vars: vec![LayoutVar {
                name: positive_vars[0].0.clone(),
                type_id: tid,
                source: SlotSource::CombinedOffset(0),
            }],
        };
        (PatternOp::passthrough(tid), layout)
    } else {
        let match_name = format!("$match:{}", cq.id);
        let (schema, offsets) = combined_schema(&match_name, &positive_vars, registry);
        let match_tid = registry
            .register(schema)
            .map_err(|_| TranslateError::ConflictingDerivedType(match_name.clone()))?;
        let layout = BindingLayout {
            vars: positive_vars
                .iter()
                .zip(offsets.iter())
                .map(|((name, tid), off)| LayoutVar {
                    name: name.clone(),
                    type_id: *tid,
                    source: SlotSource::CombinedOffset(*off),
                })
                .collect(),
        };
        let mut builder = PatternBuilder::new(match_tid);
        for (tid, _) in &positives {
            builder = builder.then(*tid);
        }
        for check in negation_checks {
            builder = match check.position {
                NegPosition::Before => builder.not_before(check.type_id, check.predicates),
                NegPosition::Between(k) => builder.not_between(k, check.type_id, check.predicates),
                NegPosition::After => builder.not_after(check.type_id, check.predicates),
            };
        }
        (
            builder
                // Per-query WITHIN clause overrides the global default.
                .within(query.within.unwrap_or(options.default_within))
                .offsets(offsets)
                .build(),
            layout,
        )
    };

    let input_types = pattern_op.input_types();

    // Assemble the chain in the initial (Figure 6a) order.
    let mut ops: Vec<Op> = vec![Op::Pattern(pattern_op)];
    if !filter_conjuncts.is_empty() {
        let compiled = filter_conjuncts
            .iter()
            .map(|c| CompiledExpr::compile(c, &above_layout, registry))
            .collect::<Result<Vec<_>, _>>()?;
        ops.push(Op::Filter(FilterOp::new(compiled)));
    }
    ops.push(Op::ContextWindow(ContextWindowOp::new(context_bit)));

    let mut output_type = None;
    let action_bit = |action: &ContextAction| -> Result<u8, TranslateError> {
        context_bits
            .get(action.target())
            .copied()
            .ok_or_else(|| TranslateError::UnknownContext(action.target().to_string()))
    };
    match (&query.action, &query.derive) {
        (Some(action), None) => match action {
            ContextAction::Initiate(_) => {
                ops.push(Op::ContextInit(ContextInitOp {
                    context_bit: action_bit(action)?,
                }));
            }
            ContextAction::Terminate(_) => {
                ops.push(Op::ContextTerm(ContextTermOp {
                    context_bit: action_bit(action)?,
                }));
            }
            ContextAction::Switch(_) => {
                // Table 1: SWITCH CONTEXT c → CI_c, CT_curr — in exactly
                // this order. Initiating first matters when the current
                // context is the DEFAULT: terminating it first would
                // empty the window set, reopen the default (CT's
                // empty-set rule) and let the subsequent CI close it
                // again with a degenerate `(t, t]` span, destroying the
                // closing window's right to admit events at the switch
                // timestamp.
                ops.push(Op::ContextInit(ContextInitOp {
                    context_bit: action_bit(action)?,
                }));
                ops.push(Op::ContextTerm(ContextTermOp { context_bit }));
            }
        },
        (None, Some(derive)) => {
            let out_tid = registry
                .lookup(&derive.event_type)
                .map_err(|_| TranslateError::UnknownEventType(derive.event_type.clone()))?;
            let args = derive
                .args
                .iter()
                .map(|a| CompiledExpr::compile(a, &above_layout, registry))
                .collect::<Result<Vec<_>, _>>()?;
            ops.push(Op::Project(ProjectOp::new(out_tid, args)));
            output_type = Some(out_tid);
        }
        _ => unreachable!("model validation enforces exactly one of action/derive"),
    }

    Ok(QueryPlan {
        query_id: cq.id,
        context: cq.context.clone(),
        context_bit,
        ops,
        input_types,
        output_type,
        is_deriving: query.is_deriving(),
        source: Arc::new(cq.clone()),
    })
}

/// Topologically sorts plans so producers precede consumers; errors on
/// cycles.
fn topo_sort(plans: Vec<QueryPlan>, context: &str) -> Result<Vec<QueryPlan>, TranslateError> {
    let n = plans.len();
    // Edge u → v when u's output type is consumed by v.
    let mut indegree = vec![0usize; n];
    let mut edges: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (u, pu) in plans.iter().enumerate() {
        let Some(out) = pu.output_type else { continue };
        for (v, pv) in plans.iter().enumerate() {
            if u != v && pv.consumes(out) {
                edges[u].push(v);
                indegree[v] += 1;
            }
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
    // Stable order: lowest query id first among ready plans.
    queue.sort_by_key(|&i| plans[i].query_id);
    let mut order = Vec::with_capacity(n);
    let mut queue = std::collections::VecDeque::from(queue);
    while let Some(u) = queue.pop_front() {
        order.push(u);
        for &v in &edges[u] {
            indegree[v] -= 1;
            if indegree[v] == 0 {
                queue.push_back(v);
            }
        }
    }
    if order.len() != n {
        return Err(TranslateError::CyclicDependency(context.to_string()));
    }
    let mut slots: Vec<Option<QueryPlan>> = plans.into_iter().map(Some).collect();
    Ok(order
        .into_iter()
        .map(|i| slots[i].take().expect("each index once"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_events::{Event, PartitionId};
    use caesar_query::parser::parse_model;
    use caesar_query::queryset::QuerySet;

    /// Numbers the run-state slots of `plan`'s patterns, one each, and
    /// returns the slots they run on.
    fn numbered(plan: &mut crate::plan::CombinedPlan) -> crate::pattern::StateSlots {
        let patterns = plan.plans.iter_mut().flat_map(|p| &mut p.ops);
        let mut n = 0;
        for op in patterns {
            if let Op::Pattern(p) = op {
                p.set_slot(n);
                n += 1;
            }
        }
        crate::pattern::StateSlots::new(n as usize)
    }

    fn lr_registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("speed", AttrType::Int),
                ("lane", AttrType::Str),
            ],
        ))
        .unwrap();
        reg.register(Schema::new("ManySlowCars", &[("seg", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("FewFastCars", &[("seg", AttrType::Int)]))
            .unwrap();
        reg
    }

    fn translate_figure_three() -> (TranslationOutput, SchemaRegistry) {
        let model = parse_model(
            r#"
            MODEL traffic DEFAULT clear
            CONTEXT clear {
                SWITCH CONTEXT congestion PATTERN ManySlowCars
            }
            CONTEXT congestion {
                DERIVE TollNotification(p.vid, p.sec, 5) PATTERN NewTravelingCar p
                DERIVE NewTravelingCar(p2.vid, p2.sec, p2.lane)
                    PATTERN SEQ(NOT PositionReport p1, PositionReport p2)
                    WHERE p1.sec + 30 = p2.sec AND p1.vid = p2.vid AND p2.lane != "exit"
                SWITCH CONTEXT clear PATTERN FewFastCars
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = lr_registry();
        let out =
            translate_query_set(&qs, &mut reg, &TranslateOptions { default_within: 60 }).unwrap();
        (out, reg)
    }

    #[test]
    fn figure_six_initial_plan_shape() {
        let (out, _reg) = translate_figure_three();
        let congestion = out.plan_for("congestion").unwrap();
        // Combined plan: NewTravelingCar producer must precede the
        // TollNotification consumer.
        let producer_idx = congestion
            .plans
            .iter()
            .position(|p| {
                p.source
                    .query
                    .derive
                    .as_ref()
                    .is_some_and(|d| d.event_type == "NewTravelingCar")
            })
            .unwrap();
        let consumer_idx = congestion
            .plans
            .iter()
            .position(|p| {
                p.source
                    .query
                    .derive
                    .as_ref()
                    .is_some_and(|d| d.event_type == "TollNotification")
            })
            .unwrap();
        assert!(producer_idx < consumer_idx, "topological order");

        // Initial chain order (Fig. 6a): Pattern, Filter, CW, Project.
        let producer = &congestion.plans[producer_idx];
        let tags: Vec<&str> = producer.ops.iter().map(Op::tag).collect();
        assert_eq!(tags, vec!["Pattern", "Filter", "ContextWindow", "Project"]);
        assert!(!producer.is_context_window_pushed_down());
    }

    #[test]
    fn negation_predicates_live_in_pattern_not_filter() {
        let (out, _reg) = translate_figure_three();
        let congestion = out.plan_for("congestion").unwrap();
        let producer = congestion
            .plans
            .iter()
            .find(|p| {
                p.source
                    .query
                    .derive
                    .as_ref()
                    .is_some_and(|d| d.event_type == "NewTravelingCar")
            })
            .unwrap();
        // Filter holds only the p2.lane != "exit" conjunct.
        let filter = producer
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Filter(f) => Some(f),
                _ => None,
            })
            .unwrap();
        assert_eq!(filter.predicates.len(), 1);
        // Pattern holds the two negation conjuncts.
        let pattern = producer
            .ops
            .iter()
            .find_map(|o| match o {
                Op::Pattern(p) => Some(p),
                _ => None,
            })
            .unwrap();
        assert!(!pattern.is_passthrough());
        assert_eq!(pattern.arity(), 1);
    }

    #[test]
    fn switch_compiles_to_init_then_term() {
        // Table 1 order: CI_c, CT_curr.
        let (out, _reg) = translate_figure_three();
        let clear = out.plan_for("clear").unwrap();
        let switch = &clear.plans[0];
        let tags: Vec<&str> = switch.ops.iter().map(Op::tag).collect();
        assert_eq!(
            tags,
            vec!["Pattern", "ContextWindow", "ContextInit", "ContextTerm"]
        );
        assert!(switch.is_deriving);
    }

    #[test]
    fn derived_type_registered_with_inferred_schema() {
        let (_out, reg) = translate_figure_three();
        let toll = reg.schema_by_name("TollNotification").unwrap();
        assert_eq!(toll.arity(), 3);
        assert_eq!(toll.attrs[0].name.as_ref(), "vid");
        assert_eq!(toll.attrs[1].name.as_ref(), "sec");
        assert_eq!(toll.attrs[2].name.as_ref(), "arg2");
        assert_eq!(toll.attrs[2].ty, AttrType::Int);
        // NewTravelingCar: vid, sec, lane (string preserved).
        let ntc = reg.schema_by_name("NewTravelingCar").unwrap();
        assert_eq!(ntc.attrs[2].ty, AttrType::Str);
    }

    #[test]
    fn end_to_end_congestion_toll_flow() {
        let (mut out, reg) = translate_figure_three();
        let mut table = crate::context_table::ContextTable::new(2, out.default_bit);
        // Activate congestion (bit = index of "congestion").
        let congestion_bit = out
            .context_names
            .iter()
            .position(|c| c == "congestion")
            .unwrap() as u8;
        table
            .partition_mut(PartitionId(0))
            .initiate(congestion_bit, 0);

        let pr_tid = reg.lookup("PositionReport").unwrap();
        let toll_tid = reg.lookup("TollNotification").unwrap();
        let plan = out
            .combined
            .iter_mut()
            .find(|c| c.context == "congestion")
            .unwrap();
        let mut sink = crate::plan::PlanOutput::default();
        let mut slots = numbered(plan);
        // A car reporting at t=30 with no prior report is new → toll.
        let e = Event::simple(
            pr_tid,
            30,
            PartitionId(0),
            vec![
                Value::Int(77),
                Value::Int(30),
                Value::Int(55),
                Value::str("travel"),
            ],
        );
        plan.process(std::slice::from_ref(&e), &table, &mut sink, &mut slots);
        let tolls: Vec<&Event> = sink
            .events
            .iter()
            .filter(|e| e.type_id == toll_tid)
            .collect();
        assert_eq!(tolls.len(), 1);
        assert_eq!(tolls[0].attrs.as_ref()[0], Value::Int(77));
        assert_eq!(tolls[0].attrs.as_ref()[2], Value::Int(5));

        // The same car reporting 30s later is NOT new → no new toll.
        sink.clear();
        let e2 = Event::simple(
            pr_tid,
            60,
            PartitionId(0),
            vec![
                Value::Int(77),
                Value::Int(60),
                Value::Int(50),
                Value::str("travel"),
            ],
        );
        plan.process(std::slice::from_ref(&e2), &table, &mut sink, &mut slots);
        assert!(sink.events.iter().all(|e| e.type_id != toll_tid));
    }

    #[test]
    fn exit_lane_cars_are_not_tolled() {
        let (mut out, reg) = translate_figure_three();
        let mut table = crate::context_table::ContextTable::new(2, out.default_bit);
        let congestion_bit = out
            .context_names
            .iter()
            .position(|c| c == "congestion")
            .unwrap() as u8;
        table
            .partition_mut(PartitionId(0))
            .initiate(congestion_bit, 0);
        let pr_tid = reg.lookup("PositionReport").unwrap();
        let toll_tid = reg.lookup("TollNotification").unwrap();
        let plan = out
            .combined
            .iter_mut()
            .find(|c| c.context == "congestion")
            .unwrap();
        let mut sink = crate::plan::PlanOutput::default();
        let mut slots = numbered(plan);
        let e = Event::simple(
            pr_tid,
            30,
            PartitionId(0),
            vec![
                Value::Int(9),
                Value::Int(30),
                Value::Int(55),
                Value::str("exit"),
            ],
        );
        plan.process(std::slice::from_ref(&e), &table, &mut sink, &mut slots);
        assert!(sink.events.iter().all(|ev| ev.type_id != toll_tid));
    }

    #[test]
    fn context_window_suspends_out_of_context_processing() {
        let (mut out, reg) = translate_figure_three();
        // Default context (clear) — congestion never initiated.
        let table = crate::context_table::ContextTable::new(2, out.default_bit);
        let pr_tid = reg.lookup("PositionReport").unwrap();
        let plan = out
            .combined
            .iter_mut()
            .find(|c| c.context == "congestion")
            .unwrap();
        let mut sink = crate::plan::PlanOutput::default();
        let mut slots = numbered(plan);
        let e = Event::simple(
            pr_tid,
            30,
            PartitionId(0),
            vec![
                Value::Int(1),
                Value::Int(30),
                Value::Int(55),
                Value::str("travel"),
            ],
        );
        plan.process(std::slice::from_ref(&e), &table, &mut sink, &mut slots);
        assert!(
            sink.events.is_empty(),
            "congestion plan inactive in clear context"
        );
    }

    #[test]
    fn switch_transition_flow() {
        let (mut out, reg) = translate_figure_three();
        let table = crate::context_table::ContextTable::new(2, out.default_bit);
        let msc_tid = reg.lookup("ManySlowCars").unwrap();
        let clear_plan = out
            .combined
            .iter_mut()
            .find(|c| c.context == "clear")
            .unwrap();
        let mut sink = crate::plan::PlanOutput::default();
        let mut slots = numbered(clear_plan);
        let e = Event::simple(msc_tid, 100, PartitionId(0), vec![Value::Int(3)]);
        clear_plan.process(std::slice::from_ref(&e), &table, &mut sink, &mut slots);
        assert_eq!(sink.transitions.len(), 2);
        use crate::context_table::TransitionKind;
        assert_eq!(sink.transitions[0].kind, TransitionKind::Initiate);
        assert_eq!(sink.transitions[1].kind, TransitionKind::Terminate);
    }

    #[test]
    fn cyclic_derivation_is_rejected() {
        let model = parse_model(
            r#"
            MODEL m DEFAULT c
            CONTEXT c {
                DERIVE B(a.v) PATTERN A a
                DERIVE A(b.v) PATTERN B b
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        // Neither A nor B pre-registered: both derive from each other.
        let err = translate_query_set(&qs, &mut reg, &TranslateOptions::default());
        assert!(err.is_err());
    }

    #[test]
    fn unknown_pattern_type_is_reported() {
        let model = parse_model(
            r#"
            MODEL m DEFAULT c
            CONTEXT c {
                DERIVE B(a.v) PATTERN Ghost a
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        let err = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap_err();
        assert_eq!(err, TranslateError::UnknownEventType("Ghost".into()));
    }
}
