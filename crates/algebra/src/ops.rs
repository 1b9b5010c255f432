//! The non-pattern CAESAR operators (§4.1) and single-chain execution.
//!
//! * [`FilterOp`] — `Fl_θ`: passes events satisfying the predicate.
//! * [`ProjectOp`] — `PR_{A,E}`: evaluates the `DERIVE` argument
//!   expressions and emits an event of the derived type `E`.
//! * [`ContextWindowOp`] — `CW_c`: passes events occurring during the
//!   current window of context `c`; while the context does not hold it
//!   suspends everything above it in the chain.
//! * [`ContextInitOp`] / [`ContextTermOp`] — `CI_c` / `CT_c`: convert a
//!   match into a [`Transition`] applied to the context table by the
//!   runtime (they "update the set of the current context windows").
//!
//! [`Op`] composes these with [`PatternOp`]
//! into an executable operator and provides chain execution.
//!
//! Operators derive `Serialize` only: their encoding is a program's
//! fingerprint, never read back. The counters are process metrics and
//! left out of it (`#[serde(skip)]`), so the encoding does not change
//! as the program runs.

use crate::context_table::{ContextTable, Transition, TransitionKind};
use crate::expr::CompiledExpr;
use crate::pattern::{PatternOp, StateSlots};
use caesar_events::{Event, Time, TypeId, Value};
use serde::Serialize;
use std::sync::Arc;

/// `Fl_θ` — the filter operator.
#[derive(Debug, Clone, Serialize)]
pub struct FilterOp {
    /// Conjunction of compiled predicates (all must hold), evaluated in
    /// declaration order. Shared across plan clones (the optimizer's
    /// search, the baseline's private re-derivers); rewrites
    /// copy-on-write before execution starts.
    pub predicates: Arc<Vec<CompiledExpr>>,
    /// Evaluation errors (counted as non-matches).
    #[serde(skip)]
    pub eval_errors: u64,
    /// Events evaluated (statistics gatherer input, §6.1).
    #[serde(skip)]
    pub evaluated: u64,
    /// Events accepted.
    #[serde(skip)]
    pub accepted: u64,
}

impl FilterOp {
    /// Builds a filter from compiled conjuncts.
    #[must_use]
    pub fn new(predicates: Vec<CompiledExpr>) -> Self {
        Self {
            predicates: Arc::new(predicates),
            eval_errors: 0,
            evaluated: 0,
            accepted: 0,
        }
    }

    /// Returns `true` if the event passes all predicates.
    pub fn accepts(&mut self, event: &Event) -> bool {
        self.evaluated += 1;
        let binding = [event];
        let ok = self
            .predicates
            .iter()
            .all(|p| p.matches(&binding, &mut self.eval_errors));
        if ok {
            self.accepted += 1;
        }
        ok
    }

    /// Combined selectivity estimate from the predicate structure.
    #[must_use]
    pub fn selectivity(&self) -> f64 {
        self.predicates
            .iter()
            .map(CompiledExpr::selectivity)
            .product()
    }

    /// Observed selectivity (`None` until at least one event was seen).
    #[must_use]
    pub fn observed_selectivity(&self) -> Option<f64> {
        (self.evaluated > 0).then(|| self.accepted as f64 / self.evaluated as f64)
    }

    /// Merges another filter into this one (adjacent-filter merging, §5.2).
    pub fn merge(&mut self, other: FilterOp) {
        Arc::make_mut(&mut self.predicates).extend(other.predicates.iter().cloned());
    }
}

/// `PR_{A,E}` — the projection operator: computes the derived event's
/// attributes from the match event.
#[derive(Debug, Clone, Serialize)]
pub struct ProjectOp {
    /// The derived (output) event type.
    pub output_type: TypeId,
    /// One expression per output attribute. Shared across plan clones
    /// (see [`FilterOp::predicates`]).
    pub args: Arc<Vec<CompiledExpr>>,
    /// Evaluation errors (events dropped).
    #[serde(skip)]
    pub eval_errors: u64,
    /// Derived events emitted.
    #[serde(skip)]
    pub projected: u64,
}

impl ProjectOp {
    /// Builds a projection.
    #[must_use]
    pub fn new(output_type: TypeId, args: Vec<CompiledExpr>) -> Self {
        Self {
            output_type,
            args: Arc::new(args),
            eval_errors: 0,
            projected: 0,
        }
    }

    /// Projects one event; `None` if any argument fails to evaluate.
    pub fn project(&mut self, event: &Event) -> Option<Event> {
        let binding = [event];
        let mut attrs: Vec<Value> = Vec::with_capacity(self.args.len());
        for arg in self.args.iter() {
            match arg.eval(&binding) {
                Ok(v) => attrs.push(v),
                Err(_) => {
                    self.eval_errors += 1;
                    return None;
                }
            }
        }
        self.projected += 1;
        let mut derived = Event::complex(
            self.output_type,
            event.occurrence,
            event.partition,
            Arc::from(attrs),
        );
        // Projection reshapes attributes; the match provenance of the
        // input (if collected) identifies the derived event just as well.
        derived.provenance = event.provenance.clone();
        Some(derived)
    }
}

/// `CW_c` — the context window operator.
///
/// A plan executing a *shared* workload (one execution for structurally
/// identical queries of several overlapping contexts, §5.3) carries the
/// extra member contexts in `extra_bits`: the event is admitted when any
/// member context's window covers it — exactly the union of the grouped
/// windows the shared query spans.
#[derive(Debug, Clone, Serialize)]
pub struct ContextWindowOp {
    /// Bit of the guarding context.
    pub context_bit: u8,
    /// Additional member-context bits of a shared workload.
    pub extra_bits: Vec<u8>,
    /// Events admitted.
    #[serde(skip)]
    pub admitted: u64,
    /// Events dropped because the context did not hold.
    #[serde(skip)]
    pub dropped: u64,
}

impl ContextWindowOp {
    /// Builds a context window for the given context bit.
    #[must_use]
    pub fn new(context_bit: u8) -> Self {
        Self {
            context_bit,
            extra_bits: Vec::new(),
            admitted: 0,
            dropped: 0,
        }
    }

    /// Admission test: does the event occur during the current window of
    /// the context (`e.time ⊑ w_c`), or of any shared member context?
    pub fn admits(&mut self, event: &Event, table: &ContextTable) -> bool {
        self.admits_run(event, 1, table)
    }

    /// Batched admission: one context-table probe for a run of `n`
    /// events sharing `probe`'s `(partition, time)` — admission depends
    /// on nothing else, so the single probe decides the whole run. The
    /// counters advance exactly as `n` individual [`admits`] calls
    /// would.
    ///
    /// [`admits`]: ContextWindowOp::admits
    pub fn admits_run(&mut self, probe: &Event, n: u64, table: &ContextTable) -> bool {
        let t = probe.time();
        let ok = table.admits(probe.partition, self.context_bit, t)
            || self
                .extra_bits
                .iter()
                .any(|&b| table.admits(probe.partition, b, t));
        if ok {
            self.admitted += n;
        } else {
            self.dropped += n;
        }
        ok
    }

    /// All context bits this window admits (primary first).
    pub fn bits(&self) -> impl Iterator<Item = u8> + '_ {
        std::iter::once(self.context_bit).chain(self.extra_bits.iter().copied())
    }
}

/// `CI_c` — context initiation: a match becomes an `Initiate` transition.
#[derive(Debug, Clone, Serialize)]
pub struct ContextInitOp {
    /// Bit of the context to initiate.
    pub context_bit: u8,
}

/// `CT_c` — context termination: a match becomes a `Terminate` transition.
#[derive(Debug, Clone, Serialize)]
pub struct ContextTermOp {
    /// Bit of the context to terminate.
    pub context_bit: u8,
}

/// One operator of a query plan chain.
#[derive(Debug, Clone, Serialize)]
pub enum Op {
    /// Pattern matching (chain source).
    Pattern(PatternOp),
    /// Predicate filter.
    Filter(FilterOp),
    /// Derivation projection.
    Project(ProjectOp),
    /// Context window guard.
    ContextWindow(ContextWindowOp),
    /// Context initiation.
    ContextInit(ContextInitOp),
    /// Context termination.
    ContextTerm(ContextTermOp),
}

impl Op {
    /// Short tag for explain output.
    #[must_use]
    pub fn tag(&self) -> &'static str {
        match self {
            Op::Pattern(_) => "Pattern",
            Op::Filter(_) => "Filter",
            Op::Project(_) => "Project",
            Op::ContextWindow(_) => "ContextWindow",
            Op::ContextInit(_) => "ContextInit",
            Op::ContextTerm(_) => "ContextTerm",
        }
    }

    /// Returns `true` for the stateful pattern operator.
    #[must_use]
    pub fn is_pattern(&self) -> bool {
        matches!(self, Op::Pattern(_))
    }

    /// Returns `true` for the context window operator.
    #[must_use]
    pub fn is_context_window(&self) -> bool {
        matches!(self, Op::ContextWindow(_))
    }

    /// A uniform read-out of the operator's counters for the
    /// observability layer; `None` for operators that count nothing
    /// (`CI_c` / `CT_c`, which fire on every match unconditionally).
    /// Every counter is the same whether a transaction's events run as
    /// one slice or one per slice.
    #[must_use]
    pub fn observation(&self) -> Option<OpObservation> {
        match self {
            Op::Pattern(p) => Some(OpObservation {
                kind: self.tag(),
                events_in: p.stats.events_processed,
                events_out: p.stats.matches,
                errors: 0,
            }),
            Op::Filter(f) => Some(OpObservation {
                kind: self.tag(),
                events_in: f.evaluated,
                events_out: f.accepted,
                errors: f.eval_errors,
            }),
            Op::Project(p) => Some(OpObservation {
                kind: self.tag(),
                events_in: p.projected + p.eval_errors,
                events_out: p.projected,
                errors: p.eval_errors,
            }),
            Op::ContextWindow(cw) => Some(OpObservation {
                kind: self.tag(),
                events_in: cw.admitted + cw.dropped,
                events_out: cw.admitted,
                errors: 0,
            }),
            Op::ContextInit(_) | Op::ContextTerm(_) => None,
        }
    }
}

/// One operator's counters, read uniformly by [`Op::observation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpObservation {
    /// The operator's [`tag`](Op::tag).
    pub kind: &'static str,
    /// Events (or rows) the operator evaluated.
    pub events_in: u64,
    /// Events it passed on (matches, accepted rows, derived events).
    pub events_out: u64,
    /// Evaluation errors.
    pub errors: u64,
}

/// Output sink of chain execution: derived events plus context
/// transitions for the runtime to apply.
#[derive(Debug, Clone, Default)]
pub struct ChainOutput {
    /// Derived (complex) events.
    pub events: Vec<Event>,
    /// Context transitions requested by `CI`/`CT` operators.
    pub transitions: Vec<Transition>,
}

impl ChainOutput {
    /// Clears both sinks for reuse.
    pub fn clear(&mut self) {
        self.events.clear();
        self.transitions.clear();
    }

    /// True if nothing was produced.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.transitions.is_empty()
    }
}

/// Reusable traversal buffers for chain execution — over a transaction's
/// events and on watermark advances. All buffers are empty between calls —
/// holding one per plan (or per partition) hoists every per-transaction
/// allocation out of the hot loop.
#[derive(Debug, Clone, Default)]
pub struct ChainScratch {
    /// Buffers of [`run_chain_from`].
    walk: WalkBuffers,
    /// Matured trailing-negation matches of [`advance_chain_time`].
    matured: Vec<Event>,
    /// Row-tagged pattern output of the pattern-major path.
    items: Vec<(u32, Event)>,
    /// Per-match suffix output of the pattern-major path.
    chain_out: ChainOutput,
    /// Row-tagged sinks of [`run_chain_batch`]'s untagged wrapper.
    sink_items: Vec<(u32, Event)>,
    /// Companion transition sink of the wrapper.
    sink_transitions: Vec<(u32, Transition)>,
    /// Selection-vector buffer for callers that build the initial
    /// selection themselves (`QueryPlan::process`).
    pub(crate) sel: Vec<u32>,
}

impl ChainScratch {
    /// Runs one event through `ops[start..]` — the per-event chain
    /// walk — reusing this scratch's traversal buffers; a pattern takes
    /// its run state from `slots`.
    pub fn run_one(
        &mut self,
        ops: &mut [Op],
        start: usize,
        event: Event,
        table: &ContextTable,
        out: &mut ChainOutput,
        slots: &mut StateSlots,
    ) {
        run_chain_from(ops, start, event, table, out, &mut self.walk, slots);
    }
}

/// Advances time on the stateful operators of a chain that hold state
/// in `slots`, collecting any matured trailing-negation matches through
/// the rest of the chain. Returns the earliest deadline of the state
/// left behind.
pub fn advance_chain_time(
    ops: &mut [Op],
    watermark: Time,
    table: &ContextTable,
    out: &mut ChainOutput,
    scratch: &mut ChainScratch,
    slots: &mut StateSlots,
) -> Time {
    // Only patterns hold time-sensitive state; matured matches must flow
    // through the operators above the pattern.
    let mut next = Time::MAX;
    let ChainScratch { walk, matured, .. } = scratch;
    for idx in 0..ops.len() {
        let Op::Pattern(p) = &mut ops[idx] else {
            continue;
        };
        let Some(run) = slots.held_mut(p.slot()) else {
            continue;
        };
        next = next.min(p.advance_time(run, watermark, matured));
        for m in matured.drain(..) {
            run_chain_from(ops, idx + 1, m, table, out, walk, slots);
        }
    }
    next
}

/// Executes a same-`(partition, time)` run of events — given as a
/// selection vector of row indices into `events` — through a chain.
///
/// Semantically identical to calling [`ChainScratch::run_one`] once per
/// selected event in selection order — outputs and every operator
/// counter; the differential batch-equivalence suite holds it to byte
/// identity on exactly that claim — but with the per-event costs
/// amortized over the run:
///
/// * a context window at the chain bottom probes the context table once
///   for the whole run (admission depends only on partition and time,
///   both constant within a stream transaction), short-circuiting every
///   event at once while its context is suspended;
/// * a chain whose (post-window) bottom is a pattern runs the pattern
///   over the whole selection ([`PatternOp::process_batch`]), and only
///   the matches — typically far fewer than the inputs — walk the
///   suffix;
/// * traversal buffers come from the caller's [`ChainScratch`], so the
///   per-event loop allocates nothing.
pub fn run_chain_batch(
    ops: &mut [Op],
    events: &[Event],
    sel: &[u32],
    table: &ContextTable,
    out: &mut ChainOutput,
    scratch: &mut ChainScratch,
    slots: &mut StateSlots,
) {
    debug_assert!(
        sel.first().is_none_or(|&f| {
            let first = &events[f as usize];
            sel.iter().all(|&i| {
                let e = &events[i as usize];
                e.time() == first.time() && e.partition == first.partition
            })
        }),
        "run_chain_batch requires a same-(partition, time) run"
    );
    // The row-tagged worker does the work; strip the tags. The sinks
    // are moved out so the worker may borrow the rest of the scratch.
    let mut items = std::mem::take(&mut scratch.sink_items);
    let mut transitions = std::mem::take(&mut scratch.sink_transitions);
    run_chain_batch_items(
        ops,
        events,
        sel,
        table,
        scratch,
        slots,
        &mut items,
        &mut transitions,
    );
    out.events.extend(items.drain(..).map(|(_, e)| e));
    out.transitions
        .extend(transitions.drain(..).map(|(_, t)| t));
    scratch.sink_items = items;
    scratch.sink_transitions = transitions;
}

/// Reverses each run of equal row tags in place: the per-event work
/// stack pops one row's pattern matches last-first, so the batched
/// pattern-major path must walk each row group in reversed emission
/// order to keep suffix effects (and outputs) byte-identical.
fn reverse_row_groups(items: &mut [(u32, Event)]) {
    let mut i = 0;
    while i < items.len() {
        let row = items[i].0;
        let mut j = i + 1;
        while j < items.len() && items[j].0 == row {
            j += 1;
        }
        items[i..j].reverse();
        i = j;
    }
}

/// Row-tagged batched chain execution — the worker behind
/// [`run_chain_batch`], also used directly by the combined plan's
/// plan-major path (the row tags key the cross-plan output merge).
///
/// Semantically identical to running [`ChainScratch::run_one`] once per
/// selected event in selection order, with each output and transition
/// tagged by the input row that produced it. A pattern-bottom chain
/// runs the pattern over the whole selection with only the matches
/// walking the suffix; any other chain walks row by row over the shared
/// traversal buffers.
#[allow(clippy::too_many_arguments)] // the chain, its input and its three sinks' buffers
pub fn run_chain_batch_items(
    ops: &mut [Op],
    events: &[Event],
    sel: &[u32],
    table: &ContextTable,
    scratch: &mut ChainScratch,
    slots: &mut StateSlots,
    out: &mut Vec<(u32, Event)>,
    transitions: &mut Vec<(u32, Transition)>,
) {
    if sel.is_empty() {
        return;
    }
    let mut start = 0;
    if let Some(Op::ContextWindow(cw)) = ops.first_mut() {
        if !cw.admits_run(&events[sel[0] as usize], sel.len() as u64, table) {
            return;
        }
        start = 1;
    }
    let ChainScratch {
        walk,
        items,
        chain_out,
        ..
    } = scratch;
    if let Op::Pattern(p) = &mut ops[start] {
        items.clear();
        p.process_batch(slots.get(p.slot()), events, sel, items);
        reverse_row_groups(items);
        if start + 1 == ops.len() {
            out.append(items);
            return;
        }
        for (row, m) in items.drain(..) {
            chain_out.clear();
            run_chain_from(ops, start + 1, m, table, chain_out, walk, slots);
            out.extend(chain_out.events.drain(..).map(|e| (row, e)));
            transitions.extend(chain_out.transitions.drain(..).map(|t| (row, t)));
        }
        return;
    }
    for &row in sel.iter() {
        chain_out.clear();
        let event = events[row as usize].clone();
        run_chain_from(ops, start, event, table, chain_out, walk, slots);
        out.extend(chain_out.events.drain(..).map(|e| (row, e)));
        transitions.extend(chain_out.transitions.drain(..).map(|t| (row, t)));
    }
}

/// The buffers of [`run_chain_from`], both empty between calls.
#[derive(Debug, Clone, Default)]
struct WalkBuffers {
    /// Work stack of `(next_op_index, event)` pairs.
    work: Vec<(usize, Event)>,
    /// One pattern step's matches.
    matches: Vec<Event>,
}

/// Executes one event through the chain starting at operator `start`
/// (index 0 = bottom), reusing `buffers`; a pattern takes its run state
/// from `slots`. The pattern operator may fan one input out to several
/// matches, so execution walks a small work stack of `(next_op_index,
/// event)` pairs.
fn run_chain_from(
    ops: &mut [Op],
    start: usize,
    event: Event,
    table: &ContextTable,
    out: &mut ChainOutput,
    buffers: &mut WalkBuffers,
    slots: &mut StateSlots,
) {
    let WalkBuffers {
        work,
        matches: scratch,
    } = buffers;
    debug_assert!(work.is_empty());
    work.push((start, event));
    while let Some((idx, ev)) = work.pop() {
        if idx == ops.len() {
            out.events.push(ev);
            continue;
        }
        match &mut ops[idx] {
            Op::Pattern(p) => {
                scratch.clear();
                p.process(slots.get(p.slot()), &ev, scratch);
                for m in scratch.drain(..) {
                    work.push((idx + 1, m));
                }
            }
            Op::Filter(f) => {
                if f.accepts(&ev) {
                    work.push((idx + 1, ev));
                }
            }
            Op::Project(p) => {
                if let Some(derived) = p.project(&ev) {
                    work.push((idx + 1, derived));
                }
            }
            Op::ContextWindow(cw) => {
                if cw.admits(&ev, table) {
                    work.push((idx + 1, ev));
                }
            }
            Op::ContextInit(ci) => {
                out.transitions.push(Transition {
                    kind: TransitionKind::Initiate,
                    context_bit: ci.context_bit,
                    time: ev.time(),
                    partition: ev.partition,
                });
                work.push((idx + 1, ev));
            }
            Op::ContextTerm(ct) => {
                out.transitions.push(Transition {
                    kind: TransitionKind::Terminate,
                    context_bit: ct.context_bit,
                    time: ev.time(),
                    partition: ev.partition,
                });
                work.push((idx + 1, ev));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{BindingLayout, LayoutVar, SlotSource};
    use caesar_events::{AttrType, PartitionId, Schema, SchemaRegistry};
    use caesar_query::ast::{BinOp, Expr};

    /// One event through the whole chain by the per-event walker; a
    /// stateful pattern keeps its state in `slots`.
    fn run_chain_in(
        ops: &mut [Op],
        event: &Event,
        table: &ContextTable,
        out: &mut ChainOutput,
        slots: &mut StateSlots,
    ) {
        ChainScratch::default().run_one(ops, 0, event.clone(), table, out, slots);
    }

    /// [`run_chain_in`] for a chain whose patterns keep nothing.
    fn run_chain(ops: &mut [Op], event: &Event, table: &ContextTable, out: &mut ChainOutput) {
        run_chain_in(ops, event, table, out, &mut StateSlots::default());
    }

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "P",
            &[("vid", AttrType::Int), ("speed", AttrType::Int)],
        ))
        .unwrap();
        reg.register(Schema::new(
            "Out",
            &[("vid", AttrType::Int), ("toll", AttrType::Int)],
        ))
        .unwrap();
        reg
    }

    fn layout(reg: &SchemaRegistry) -> BindingLayout {
        BindingLayout {
            vars: vec![LayoutVar {
                name: "p".into(),
                type_id: reg.lookup("P").unwrap(),
                source: SlotSource::CombinedOffset(0),
            }],
        }
    }

    fn pev(reg: &SchemaRegistry, t: Time, vid: i64, speed: i64) -> Event {
        Event::simple(
            reg.lookup("P").unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(vid), Value::Int(speed)],
        )
    }

    fn speed_filter(reg: &SchemaRegistry, min: i64) -> FilterOp {
        let pred = CompiledExpr::compile(
            &Expr::bin(BinOp::Ge, Expr::attr("p", "speed"), Expr::int(min)),
            &layout(reg),
            reg,
        )
        .unwrap();
        FilterOp::new(vec![pred])
    }

    #[test]
    fn filter_accepts_and_rejects() {
        let reg = registry();
        let mut f = speed_filter(&reg, 40);
        assert!(f.accepts(&pev(&reg, 1, 7, 55)));
        assert!(!f.accepts(&pev(&reg, 1, 7, 30)));
        assert_eq!(f.eval_errors, 0);
    }

    #[test]
    fn filter_merge_combines_predicates() {
        let reg = registry();
        let mut f = speed_filter(&reg, 40);
        let g = speed_filter(&reg, 50);
        f.merge(g);
        assert_eq!(f.predicates.len(), 2);
        assert!(f.accepts(&pev(&reg, 1, 7, 55)));
        assert!(!f.accepts(&pev(&reg, 1, 7, 45)));
    }

    #[test]
    fn project_computes_derived_event() {
        let reg = registry();
        let out_ty = reg.lookup("Out").unwrap();
        let args = vec![
            CompiledExpr::compile(&Expr::attr("p", "vid"), &layout(&reg), &reg).unwrap(),
            CompiledExpr::compile(&Expr::int(5), &layout(&reg), &reg).unwrap(),
        ];
        let mut pr = ProjectOp::new(out_ty, args);
        let derived = pr.project(&pev(&reg, 9, 42, 10)).unwrap();
        assert_eq!(derived.type_id, out_ty);
        assert_eq!(derived.attrs.as_ref(), &[Value::Int(42), Value::Int(5)]);
        assert_eq!(derived.time(), 9);
    }

    #[test]
    fn context_window_gates_by_table() {
        let reg = registry();
        let mut table = ContextTable::new(2, 0);
        let mut cw = ContextWindowOp::new(1);
        let e = pev(&reg, 10, 1, 1);
        assert!(!cw.admits(&e, &table));
        table.partition_mut(PartitionId(0)).initiate(1, 5);
        assert!(cw.admits(&e, &table));
        assert_eq!(cw.admitted, 1);
        assert_eq!(cw.dropped, 1);
    }

    #[test]
    fn chain_executes_pattern_filter_window_project() {
        let reg = registry();
        let mut table = ContextTable::new(2, 0);
        table.partition_mut(PartitionId(0)).initiate(1, 0);
        let out_ty = reg.lookup("Out").unwrap();
        let mut ops = vec![
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
            Op::Filter(speed_filter(&reg, 40)),
            Op::ContextWindow(ContextWindowOp::new(1)),
            Op::Project(ProjectOp::new(
                out_ty,
                vec![
                    CompiledExpr::compile(&Expr::attr("p", "vid"), &layout(&reg), &reg).unwrap(),
                    CompiledExpr::Const(Value::Int(5)),
                ],
            )),
        ];
        let mut out = ChainOutput::default();
        run_chain(&mut ops, &pev(&reg, 10, 7, 55), &table, &mut out);
        run_chain(&mut ops, &pev(&reg, 11, 8, 10), &table, &mut out);
        assert_eq!(out.events.len(), 1, "slow car filtered out");
        assert_eq!(out.events[0].attrs[0], Value::Int(7));
        assert!(out.transitions.is_empty());
    }

    #[test]
    fn deriving_chain_emits_transitions() {
        let reg = registry();
        let table = ContextTable::new(2, 0);
        let mut ops = vec![
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
            Op::ContextInit(ContextInitOp { context_bit: 1 }),
        ];
        let mut out = ChainOutput::default();
        run_chain(&mut ops, &pev(&reg, 10, 7, 55), &table, &mut out);
        assert_eq!(out.transitions.len(), 1);
        let tr = out.transitions[0];
        assert_eq!(tr.kind, TransitionKind::Initiate);
        assert_eq!(tr.context_bit, 1);
        assert_eq!(tr.time, 10);
    }

    #[test]
    fn switch_chain_emits_initiate_then_terminate() {
        let reg = registry();
        let table = ContextTable::new(3, 0);
        // SWITCH CONTEXT c2 from context c1: Table 1 → CI_{c2}, CT_{c1}.
        let mut ops = vec![
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
            Op::ContextInit(ContextInitOp { context_bit: 2 }),
            Op::ContextTerm(ContextTermOp { context_bit: 1 }),
        ];
        let mut out = ChainOutput::default();
        run_chain(&mut ops, &pev(&reg, 10, 7, 55), &table, &mut out);
        assert_eq!(out.transitions.len(), 2);
        assert_eq!(out.transitions[0].kind, TransitionKind::Initiate);
        assert_eq!(out.transitions[1].kind, TransitionKind::Terminate);
    }

    #[test]
    fn context_window_at_bottom_suspends_everything_above() {
        let reg = registry();
        let table = ContextTable::new(2, 0); // context 1 never initiated
        let mut ops = vec![
            Op::ContextWindow(ContextWindowOp::new(1)),
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
        ];
        let mut out = ChainOutput::default();
        run_chain(&mut ops, &pev(&reg, 10, 7, 55), &table, &mut out);
        assert!(out.is_empty());
        if let Op::Pattern(p) = &ops[1] {
            assert_eq!(p.stats.events_processed, 0, "pattern never ran");
        }
    }

    /// Two structurally identical chains; one processes per event, the
    /// other as one batch. Outputs and operator counters — evaluation
    /// errors included — must agree. Returns the batched chain.
    fn assert_batch_equivalent(
        mut ops: Vec<Op>,
        events: &[Event],
        table: &ContextTable,
    ) -> Vec<Op> {
        let mut batched_ops = ops.clone();
        let mut per_event = ChainOutput::default();
        for e in events {
            run_chain(&mut ops, e, table, &mut per_event);
        }
        let mut batched = ChainOutput::default();
        let sel: Vec<u32> = (0..events.len() as u32).collect();
        let mut scratch = ChainScratch::default();
        run_chain_batch(
            &mut batched_ops,
            events,
            &sel,
            table,
            &mut batched,
            &mut scratch,
            &mut StateSlots::default(),
        );
        assert_eq!(per_event.events, batched.events);
        assert_eq!(per_event.transitions, batched.transitions);
        let counters = |ops: &[Op]| ops.iter().map(Op::observation).collect::<Vec<_>>();
        assert_eq!(counters(&ops), counters(&batched_ops));
        batched_ops
    }

    #[test]
    fn batch_chain_matches_per_event_without_pattern() {
        let reg = registry();
        let mut table = ContextTable::new(2, 0);
        table.partition_mut(PartitionId(0)).initiate(1, 5);
        let out_ty = reg.lookup("Out").unwrap();
        // CW -> Filter -> Project: one window probe, then row by row.
        let ops = vec![
            Op::ContextWindow(ContextWindowOp::new(1)),
            Op::Filter(speed_filter(&reg, 40)),
            Op::Project(ProjectOp::new(
                out_ty,
                vec![
                    CompiledExpr::compile(&Expr::attr("p", "vid"), &layout(&reg), &reg).unwrap(),
                    CompiledExpr::Const(Value::Int(5)),
                ],
            )),
        ];
        let events: Vec<Event> = vec![
            pev(&reg, 10, 1, 55),
            pev(&reg, 10, 2, 30),
            pev(&reg, 10, 3, 70),
            pev(&reg, 10, 4, 39),
        ];
        assert_batch_equivalent(ops, &events, &table);
    }

    /// Conjuncts run in declaration order on both paths: a first
    /// conjunct that errors on every row (division by zero) is counted
    /// once per row, even though a cheaper second conjunct would reject
    /// most rows without an error.
    #[test]
    fn batch_chain_counts_eval_errors_like_per_event() {
        let reg = registry();
        let compile = |e: &Expr| CompiledExpr::compile(e, &layout(&reg), &reg).unwrap();
        let div_zero = Expr::bin(BinOp::Div, Expr::attr("p", "speed"), Expr::int(0));
        let errs = compile(&Expr::bin(BinOp::Gt, div_zero, Expr::int(1)));
        let cheap = compile(&Expr::bin(BinOp::Ge, Expr::attr("p", "vid"), Expr::int(6)));
        let ops = vec![Op::Filter(FilterOp::new(vec![errs, cheap]))];
        let events: Vec<Event> = (0..8).map(|i| pev(&reg, 3, i, 50)).collect();
        let batched = assert_batch_equivalent(ops, &events, &ContextTable::new(1, 0));
        let Op::Filter(f) = &batched[0] else {
            unreachable!()
        };
        assert_eq!((f.eval_errors, f.accepted), (8, 0));
    }

    #[test]
    fn batch_chain_matches_per_event_with_pattern() {
        let reg = registry();
        let mut table = ContextTable::new(2, 0);
        table.partition_mut(PartitionId(0)).initiate(1, 0);
        // CW -> pass-through Pattern -> Filter: the pattern runs over the
        // whole selection, and each match walks the filter.
        let ops = vec![
            Op::ContextWindow(ContextWindowOp::new(1)),
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
            Op::Filter(speed_filter(&reg, 40)),
        ];
        let events: Vec<Event> = (0..5).map(|i| pev(&reg, 9, i, 30 + 10 * i)).collect();
        assert_batch_equivalent(ops, &events, &table);
    }

    #[test]
    fn batch_chain_short_circuits_suspended_context() {
        let reg = registry();
        let table = ContextTable::new(2, 0); // context 1 never initiated
        let mut ops = vec![
            Op::ContextWindow(ContextWindowOp::new(1)),
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
        ];
        let events: Vec<Event> = (0..4).map(|i| pev(&reg, 9, i, 50)).collect();
        let mut out = ChainOutput::default();
        let sel: Vec<u32> = (0..events.len() as u32).collect();
        let mut scratch = ChainScratch::default();
        let slots = &mut StateSlots::default();
        run_chain_batch(
            &mut ops,
            &events,
            &sel,
            &table,
            &mut out,
            &mut scratch,
            slots,
        );
        assert!(out.is_empty());
        let Op::ContextWindow(cw) = &ops[0] else {
            unreachable!()
        };
        assert_eq!(cw.dropped, 4, "one probe accounted for all four events");
        if let Op::Pattern(p) = &ops[1] {
            assert_eq!(p.stats.events_processed, 0, "pattern never ran");
        }
    }

    #[test]
    fn batch_chain_emits_transitions_in_event_order() {
        let reg = registry();
        let table = ContextTable::new(3, 0);
        let ops = vec![
            Op::Pattern(PatternOp::passthrough(reg.lookup("P").unwrap())),
            Op::ContextInit(ContextInitOp { context_bit: 2 }),
            Op::ContextTerm(ContextTermOp { context_bit: 1 }),
        ];
        let events = vec![pev(&reg, 4, 1, 10), pev(&reg, 4, 2, 20)];
        assert_batch_equivalent(ops, &events, &table);
    }

    /// A stateful sequence at the chain bottom takes the pattern-major
    /// batch path; a completing run where each event finishes several
    /// stored partials exercises the per-row suffix-order reversal.
    #[test]
    fn batch_chain_pattern_major_matches_per_event() {
        let reg = registry();
        let table = ContextTable::new(1, 0);
        let p_ty = reg.lookup("P").unwrap();
        let out_ty = reg.lookup("Out").unwrap();
        let mut seq = crate::nfa::PatternBuilder::new(out_ty)
            .then(p_ty)
            .then(p_ty)
            .within(100)
            .offsets(vec![0, 1])
            .build();
        seq.set_slot(0);
        let mut ops_a = vec![Op::Pattern(seq), Op::Filter(speed_filter(&reg, 40))];
        let mut ops_b = ops_a.clone();
        // Run 1 stores four partials; every run-2 event then completes
        // all four, so each row fans out to several suffix walks.
        let runs: Vec<Vec<Event>> = vec![
            (0..4).map(|i| pev(&reg, 1, i, 30 + 10 * i)).collect(),
            (0..4).map(|i| pev(&reg, 2, 10 + i, 50)).collect(),
        ];
        let mut per_event = ChainOutput::default();
        let mut batched = ChainOutput::default();
        let mut scratch = ChainScratch::default();
        let (mut slots_a, mut slots_b) = (StateSlots::default(), StateSlots::default());
        for run in &runs {
            for e in run {
                run_chain_in(&mut ops_a, e, &table, &mut per_event, &mut slots_a);
            }
            let sel: Vec<u32> = (0..run.len() as u32).collect();
            run_chain_batch(
                &mut ops_b,
                run,
                &sel,
                &table,
                &mut batched,
                &mut scratch,
                &mut slots_b,
            );
        }
        assert!(per_event.events.len() > 4, "multi-match rows exercised");
        assert_eq!(per_event.events, batched.events);
        let (Op::Filter(fa), Op::Filter(fb)) = (&ops_a[1], &ops_b[1]) else {
            unreachable!()
        };
        assert_eq!((fa.evaluated, fa.accepted), (fb.evaluated, fb.accepted));
    }

    #[test]
    fn chain_output_clear() {
        let mut out = ChainOutput::default();
        out.events.push(pev(&registry(), 1, 1, 1));
        out.clear();
        assert!(out.is_empty());
    }
}
