//! A naive, executable reference interpreter for CAESAR models.
//!
//! This is the differential-testing *oracle*: it evaluates a model
//! directly from the paper's §3–§4 definitions — context initiation and
//! termination over the transition network (Definition 2), context
//! windows with `(t_i, t_t]` admission (Definition 1), `SEQ` patterns
//! with negation, filters and projection — with none of the engine's
//! machinery. No query plans, no batching, no sharing, no indexes. Sequence matching enumerates candidate tuples
//! quadratically from per-slot history lists; clarity and obvious
//! correctness are the point, cost is not.
//!
//! The oracle intentionally mirrors three *operational* choices of the
//! runtime that are semantically visible and therefore part of the
//! contract being tested:
//!
//! * the negation buffer evicts candidates older than the `WITHIN`
//!   horizon (an absent-event veto cannot look back further),
//! * a context close resets the partial-match state of every query
//!   attached to that context (§6.2 "Context Processing"), and
//! * trailing-negation matches mature one watermark tick after their
//!   deadline passes; matured matches on *deriving* queries are
//!   discarded (the runtime never applies transitions produced by the
//!   watermark-advance phase — see DESIGN.md "Testing & correctness").
//!
//! [`Mutation`] injects deliberate off-by-one semantics bugs into the
//! oracle so the differential harness can prove it would notice a real
//! divergence (the mutation smoke-check in EXPERIMENTS.md).

use caesar_events::{AttrId, Event, Interval, Provenance, SchemaRegistry, Time, TypeId, Value};
use caesar_query::{BinOp, CaesarModel, ContextAction, Expr, Pattern, QuerySet};
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::Arc;

/// A deliberately injected semantics bug, used to smoke-check that the
/// differential harness actually detects divergence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// Context windows admit their initiation timestamp: `[t_i, t_t]`
    /// instead of the paper's `(t_i, t_t]`.
    InclusiveInitiation,
    /// `CT` does not restore the default context when the window set
    /// becomes empty (drops the "if the set becomes empty" clause of
    /// Definition 2).
    NoDefaultRestore,
    /// The `WITHIN` span constraint on sequence matches is ignored.
    IgnoreWithin,
}

/// The oracle rejects models outside its (and the engine's) envelope.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OracleBuildError(pub String);

impl fmt::Display for OracleBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "oracle build error: {}", self.0)
    }
}

impl std::error::Error for OracleBuildError {}

/// Where a negated pattern element sits relative to the positives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NegPos {
    /// Before the first positive: `SEQ(NOT N, A, ...)`.
    Before,
    /// Between positives `j` and `j + 1`.
    Between(usize),
    /// After the last positive (trailing): `SEQ(..., Z, NOT N)`.
    After,
}

/// A compiled expression over a tuple binding: slot `i` is the `i`-th
/// positive pattern element; negation predicates see the candidate at
/// slot `positives.len()`. Evaluation mirrors the engine's compiled
/// expressions exactly — same short-circuiting, same null handling,
/// same arithmetic error behaviour (an erroring predicate never holds,
/// an erroring projection argument drops the output event).
#[derive(Debug, Clone)]
enum OExpr {
    Const(Value),
    Attr {
        slot: usize,
        attr: AttrId,
    },
    Bin {
        op: BinOp,
        lhs: Box<OExpr>,
        rhs: Box<OExpr>,
    },
}

impl OExpr {
    fn eval(&self, binding: &[&Event]) -> Result<Value, ()> {
        match self {
            OExpr::Const(v) => Ok(v.clone()),
            OExpr::Attr { slot, attr } => Ok(binding[*slot].attr(*attr).clone()),
            OExpr::Bin { op, lhs, rhs } => {
                if matches!(op, BinOp::And | BinOp::Or) {
                    let l = lhs.eval(binding)?.as_bool().map_err(|_| ())?;
                    return match (op, l) {
                        (BinOp::And, false) => Ok(Value::Bool(false)),
                        (BinOp::Or, true) => Ok(Value::Bool(true)),
                        _ => Ok(Value::Bool(rhs.eval(binding)?.as_bool().map_err(|_| ())?)),
                    };
                }
                let l = lhs.eval(binding)?;
                let r = rhs.eval(binding)?;
                match op {
                    BinOp::Add => l.add(&r).map_err(|_| ()),
                    BinOp::Sub => l.sub(&r).map_err(|_| ()),
                    BinOp::Mul => l.mul(&r).map_err(|_| ()),
                    BinOp::Div => l.div(&r).map_err(|_| ()),
                    BinOp::Eq => Ok(Value::Bool(l.eq_value(&r))),
                    BinOp::Ne => Ok(Value::Bool(!l.is_null() && !r.is_null() && !l.eq_value(&r))),
                    BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                        let ord = l.partial_cmp_value(&r).ok_or(())?;
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

    /// A predicate holds iff it evaluates to `Bool(true)`; type errors,
    /// arithmetic errors and non-boolean results all mean "does not
    /// hold" — exactly the engine's `matches` semantics.
    fn holds(&self, binding: &[&Event]) -> bool {
        matches!(self.eval(binding), Ok(Value::Bool(true)))
    }
}

#[derive(Debug, Clone)]
struct NegSpec {
    type_id: TypeId,
    pos: NegPos,
    preds: Vec<OExpr>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum TrKind {
    Initiate,
    Terminate,
}

/// One compiled query: the oracle's flattened view of a deriving or
/// processing query attached to a single context bit.
#[derive(Debug, Clone)]
struct QuerySpec {
    ctx_bit: u8,
    /// Transitions a match emits, in emission order (`SWITCH` is
    /// `CI(target)` then `CT(enclosing)`, §4.2). Empty for processing.
    transitions: Vec<(TrKind, u8)>,
    /// Projection for processing queries: output type + name + args.
    project: Option<(TypeId, String, Vec<OExpr>)>,
    positives: Vec<TypeId>,
    negations: Vec<NegSpec>,
    /// `WHERE` conjuncts referencing no negated variable.
    filter: Vec<OExpr>,
    within: Time,
    /// Single positive, no negation: the match is the event itself.
    passthrough: bool,
}

impl QuerySpec {
    fn has_trailing_negation(&self) -> bool {
        self.negations.iter().any(|n| n.pos == NegPos::After)
    }
}

/// Per-context window state of one partition — a from-scratch
/// re-implementation of Definition 1/2 semantics (bit order is
/// alphabetical by context name, as in §6.2).
#[derive(Debug, Clone)]
struct CtxState {
    bits: u64,
    slots: Vec<CtxSlot>,
    default_bit: u8,
}

#[derive(Debug, Clone, Copy, Default)]
struct CtxSlot {
    /// Exclusive start of the open window (meaningful when bit set).
    initiated: Time,
    /// Open since startup: admits every timestamp.
    genesis: bool,
    /// The most recently closed window `(t_i, t_t]`, kept so events
    /// carrying exactly the termination timestamp are still admitted.
    recent: Option<(Time, Time)>,
}

impl CtxState {
    fn new(num_contexts: usize, default_bit: u8) -> Self {
        let mut slots = vec![CtxSlot::default(); num_contexts];
        slots[default_bit as usize].genesis = true;
        Self {
            bits: 1 << default_bit,
            slots,
            default_bit,
        }
    }

    fn holds(&self, bit: u8) -> bool {
        self.bits & (1 << bit) != 0
    }

    /// The `CW_c` admission test of Definition 1: `t_i < t <= t_t`.
    fn admits(&self, bit: u8, t: Time, mutation: Option<Mutation>) -> bool {
        let slot = &self.slots[bit as usize];
        let after_start = |initiated: Time| {
            if mutation == Some(Mutation::InclusiveInitiation) {
                initiated <= t
            } else {
                initiated < t
            }
        };
        if self.holds(bit) && (slot.genesis || after_start(slot.initiated)) {
            return true;
        }
        slot.recent
            .is_some_and(|(ti, tt)| after_start(ti) && t <= tt)
    }

    /// `CI_c` (Definition 2): open `w_c`, remove the default window.
    /// No-op if `w_c` is already open.
    fn initiate(&mut self, bit: u8, t: Time) {
        if self.holds(bit) {
            return;
        }
        self.open(bit, t);
        if bit != self.default_bit && self.holds(self.default_bit) {
            self.close(self.default_bit, t);
        }
    }

    /// `CT_c` (Definition 2): close `w_c`; if the window set becomes
    /// empty, restore the default window. No-op if `w_c` is not open.
    fn terminate(&mut self, bit: u8, t: Time, mutation: Option<Mutation>) {
        if !self.holds(bit) {
            return;
        }
        self.close(bit, t);
        if self.bits == 0 && mutation != Some(Mutation::NoDefaultRestore) {
            self.open(self.default_bit, t);
        }
    }

    fn open(&mut self, bit: u8, t: Time) {
        let slot = &mut self.slots[bit as usize];
        slot.initiated = t;
        slot.genesis = false;
        self.bits |= 1 << bit;
    }

    fn close(&mut self, bit: u8, t: Time) {
        let slot = &mut self.slots[bit as usize];
        let initiated = if slot.genesis { 0 } else { slot.initiated };
        slot.recent = Some((initiated, t));
        slot.genesis = false;
        self.bits &= !(1 << bit);
    }
}

/// Per-query pattern-matching state in one partition.
#[derive(Debug, Clone)]
struct QState {
    /// Per positive slot: events of that type seen so far (pruned at
    /// the `WITHIN` horizon; pruning is invisible because the span
    /// constraint already excludes anything older).
    seen: Vec<Vec<Event>>,
    /// Per negation: buffered candidate vetoes within the horizon.
    negbuf: Vec<VecDeque<Event>>,
    /// Trailing-negation matches awaiting their veto deadline.
    pending: Vec<Pending>,
}

#[derive(Debug, Clone)]
struct Pending {
    tuple: Vec<Event>,
    deadline: Time,
}

impl QState {
    fn fresh(spec: &QuerySpec) -> Self {
        Self {
            seen: vec![Vec::new(); spec.positives.len()],
            negbuf: vec![VecDeque::new(); spec.negations.len()],
            pending: Vec::new(),
        }
    }
}

struct PartState {
    ctx: CtxState,
    q: Vec<QState>,
}

/// What one oracle run produced — the counters mirror the engine's
/// [`RunReport`](caesar_runtime::RunReport) stream-derived fields.
#[derive(Debug, Clone, Default)]
pub struct OracleRun {
    /// Every derived output event, in emission order per partition.
    pub outputs: Vec<Event>,
    /// Input events consumed.
    pub events_in: u64,
    /// Output events emitted.
    pub events_out: u64,
    /// Context transitions applied to the window state.
    pub transitions_applied: u64,
    /// Output counts per derived type name.
    pub outputs_by_type: BTreeMap<String, u64>,
}

impl OracleRun {
    /// Output count for one derived type name (0 if never emitted).
    #[must_use]
    pub fn outputs_of(&self, name: &str) -> u64 {
        self.outputs_by_type.get(name).copied().unwrap_or(0)
    }
}

/// The compiled reference interpreter for one CAESAR model.
pub struct Oracle {
    num_contexts: usize,
    default_bit: u8,
    specs: Vec<QuerySpec>,
    /// Deriving spec indices in (context bit, query id) order — the
    /// order transitions are emitted and therefore applied in.
    deriving: Vec<usize>,
    /// Processing spec indices per context bit, in query id order.
    processing_by_bit: Vec<Vec<usize>>,
    mutation: Option<Mutation>,
    /// Attach [`Provenance`] to every output, mirroring the engine's
    /// timestamp-collecting mode (`EngineConfig::provenance`).
    provenance: bool,
}

impl Oracle {
    /// Compiles `model` against `registry` (which must already hold
    /// every input *and* derived output schema).
    pub fn build(
        model: &CaesarModel,
        registry: &SchemaRegistry,
        default_within: Time,
    ) -> Result<Self, OracleBuildError> {
        Self::build_inner(model, registry, default_within, None)
    }

    /// [`build`](Self::build) with a deliberate semantics bug injected.
    pub fn build_mutated(
        model: &CaesarModel,
        registry: &SchemaRegistry,
        default_within: Time,
        mutation: Mutation,
    ) -> Result<Self, OracleBuildError> {
        Self::build_inner(model, registry, default_within, Some(mutation))
    }

    fn build_inner(
        model: &CaesarModel,
        registry: &SchemaRegistry,
        default_within: Time,
        mutation: Option<Mutation>,
    ) -> Result<Self, OracleBuildError> {
        let qs = QuerySet::from_model(model).map_err(|e| OracleBuildError(e.to_string()))?;
        let num_contexts = qs.context_names.len();
        let default_bit = qs
            .context_bit(&qs.default_context)
            .ok_or_else(|| OracleBuildError("default context unknown".into()))?
            as u8;

        let mut specs = Vec::with_capacity(qs.queries.len());
        for cq in &qs.queries {
            let ctx_bit = qs
                .context_bit(&cq.context)
                .ok_or_else(|| OracleBuildError(format!("unknown context {}", cq.context)))?
                as u8;
            let spec = compile_query(cq, ctx_bit, &qs, registry, default_within)?;
            specs.push(spec);
        }

        let mut deriving: Vec<usize> = specs
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.transitions.is_empty())
            .map(|(i, _)| i)
            .collect();
        deriving.sort_by_key(|&i| (specs[i].ctx_bit, i));

        let mut processing_by_bit = vec![Vec::new(); num_contexts];
        for (i, s) in specs.iter().enumerate() {
            if s.project.is_some() {
                processing_by_bit[s.ctx_bit as usize].push(i);
            }
        }

        Ok(Self {
            num_contexts,
            default_bit,
            specs,
            deriving,
            processing_by_bit,
            mutation,
            provenance: false,
        })
    }

    /// Switches provenance collection on: every output event carries the
    /// `(type, occurrence)` of each bound positive pattern element, in
    /// step order — exactly what the engine attaches in its
    /// timestamp-collecting mode. (A pass-through match contributes its
    /// single triggering event.)
    #[must_use]
    pub fn with_provenance(mut self, collect: bool) -> Self {
        self.provenance = collect;
        self
    }

    /// Evaluates the model over `events` (arrival order; the oracle
    /// sorts stably by timestamp per partition, which is exactly the
    /// order a correctly-slacked reorder stage would release).
    #[must_use]
    pub fn run(&self, events: &[Event]) -> OracleRun {
        let mut run = OracleRun {
            events_in: events.len() as u64,
            ..OracleRun::default()
        };
        let max_time = events.iter().map(Event::time).max().unwrap_or(0);
        // Mirrors the runtime's final watermark: far enough past the
        // last event that every horizon and deadline has passed.
        let final_mark = max_time.saturating_add(1_000_000);

        let mut by_partition: BTreeMap<u32, Vec<Event>> = BTreeMap::new();
        for ev in events {
            by_partition
                .entry(ev.partition.0)
                .or_default()
                .push(ev.clone());
        }
        for evs in by_partition.values_mut() {
            // Stable: same-timestamp events keep their arrival order.
            evs.sort_by_key(Event::time);
            let mut st = PartState {
                ctx: CtxState::new(self.num_contexts, self.default_bit),
                q: self.specs.iter().map(QState::fresh).collect(),
            };
            let mut i = 0;
            while i < evs.len() {
                let t = evs[i].time();
                let mut j = i;
                while j < evs.len() && evs[j].time() == t {
                    j += 1;
                }
                self.txn(&evs[i..j], &mut st, &mut run);
                i = j;
            }
            self.advance(final_mark, &mut st, &mut run);
        }
        run
    }

    /// One stream transaction: all events of one partition carrying the
    /// same timestamp. Phases mirror §5's transaction template:
    /// derivation (against the pre-transaction window state), context
    /// transitions, gated processing, context-close resets, watermark
    /// advance.
    fn txn(&self, events: &[Event], st: &mut PartState, run: &mut OracleRun) {
        let t = events[0].time();

        // Phase 1: context derivation. Every deriving query always runs;
        // its window test uses the state from *before* this transaction.
        let pre = st.ctx.clone();
        let mut transitions: Vec<(TrKind, u8)> = Vec::new();
        for &qi in &self.deriving {
            let spec = &self.specs[qi];
            for ev in events {
                for tuple in feed(spec, ev, &mut st.q[qi], self.mutation) {
                    let refs: Vec<&Event> = tuple.iter().collect();
                    if spec.filter.iter().all(|f| f.holds(&refs))
                        && pre.admits(spec.ctx_bit, tuple_end(&tuple), self.mutation)
                    {
                        transitions.extend(spec.transitions.iter().copied());
                    }
                }
            }
        }

        // Phase 2: apply transitions in emission order, tracking which
        // windows closed (including a default window displaced by CI).
        let mut closed_bits: Vec<u8> = Vec::new();
        for (kind, bit) in transitions {
            let default_was_open = kind == TrKind::Initiate
                && bit != self.default_bit
                && st.ctx.holds(self.default_bit);
            match kind {
                TrKind::Initiate => st.ctx.initiate(bit, t),
                TrKind::Terminate => st.ctx.terminate(bit, t, self.mutation),
            }
            run.transitions_applied += 1;
            if kind == TrKind::Terminate {
                closed_bits.push(bit);
            } else if default_was_open && !st.ctx.holds(self.default_bit) {
                closed_bits.push(self.default_bit);
            }
        }

        // Phase 3: context processing, gated per context at the
        // post-transition state. A window closed *in this transaction*
        // still admits events at its termination timestamp.
        for bit in 0..self.num_contexts as u8 {
            if !st.ctx.admits(bit, t, self.mutation) {
                continue;
            }
            for &qi in &self.processing_by_bit[bit as usize] {
                let spec = &self.specs[qi];
                for ev in events {
                    for tuple in feed(spec, ev, &mut st.q[qi], self.mutation) {
                        self.emit(spec, &tuple, &st.ctx, run);
                    }
                }
            }
        }

        // Phase 4: a closed window discards the partial-match state of
        // every query attached to that context.
        closed_bits.dedup();
        for bit in closed_bits {
            for (qi, spec) in self.specs.iter().enumerate() {
                if spec.ctx_bit == bit {
                    st.q[qi] = QState::fresh(spec);
                }
            }
        }

        // Phase 5: the transaction timestamp is this partition's
        // watermark — mature deadlines, expire horizons.
        self.advance(t, st, run);
    }

    /// Watermark advance: emit trailing-negation matches whose veto
    /// deadline has passed, expire out-of-horizon state.
    fn advance(&self, watermark: Time, st: &mut PartState, run: &mut OracleRun) {
        for (qi, spec) in self.specs.iter().enumerate() {
            let qs = &mut st.q[qi];
            let mut kept = Vec::new();
            let mut matured = Vec::new();
            for p in qs.pending.drain(..) {
                if p.deadline < watermark {
                    matured.push(p);
                } else {
                    kept.push(p);
                }
            }
            qs.pending = kept;
            for p in matured {
                // Matches on deriving queries maturing here are dropped:
                // the runtime never applies advance-phase transitions.
                if spec.project.is_some() {
                    self.emit(spec, &p.tuple, &st.ctx, run);
                }
            }
            for slot in &mut qs.seen {
                slot.retain(|e| e.time().saturating_add(spec.within) >= watermark);
            }
            for buf in &mut qs.negbuf {
                while buf
                    .front()
                    .is_some_and(|e| e.time().saturating_add(spec.within) < watermark)
                {
                    buf.pop_front();
                }
            }
        }
    }

    /// Filter → context window → projection for one completed tuple.
    fn emit(&self, spec: &QuerySpec, tuple: &[Event], ctx: &CtxState, run: &mut OracleRun) {
        let refs: Vec<&Event> = tuple.iter().collect();
        if !spec.filter.iter().all(|f| f.holds(&refs)) {
            return;
        }
        if !ctx.admits(spec.ctx_bit, tuple_end(tuple), self.mutation) {
            return;
        }
        let Some((out_type, name, args)) = spec.project.as_ref() else {
            return;
        };
        let mut attrs = Vec::with_capacity(args.len());
        for arg in args {
            match arg.eval(&refs) {
                Ok(v) => attrs.push(v),
                // An erroring projection argument drops the event.
                Err(()) => return,
            }
        }
        let occurrence = if spec.passthrough {
            tuple[0].occurrence
        } else {
            Interval::new(tuple[0].time(), tuple_end(tuple))
        };
        let mut out = Event::complex(*out_type, occurrence, tuple[0].partition, attrs);
        if self.provenance {
            out = out.with_provenance(Arc::new(Provenance::from_steps(
                tuple.iter().map(|e| (e.type_id, e.occurrence)),
            )));
        }
        run.outputs.push(out);
        run.events_out += 1;
        *run.outputs_by_type.entry(name.clone()).or_default() += 1;
    }
}

fn tuple_end(tuple: &[Event]) -> Time {
    tuple.last().map(Event::time).unwrap_or(0)
}

/// Feeds one event into one query's pattern state, returning completed
/// (non-pending) match tuples. Negation intake happens before positive
/// matching, exactly as in the runtime's pattern operator.
fn feed(
    spec: &QuerySpec,
    ev: &Event,
    qs: &mut QState,
    mutation: Option<Mutation>,
) -> Vec<Vec<Event>> {
    let t = ev.time();

    // 1. Negation intake: trailing negations veto pending matches
    //    within their deadline; every candidate is buffered, and the
    //    buffer front expires at the WITHIN horizon.
    for (ni, neg) in spec.negations.iter().enumerate() {
        if neg.type_id != ev.type_id {
            continue;
        }
        if neg.pos == NegPos::After {
            qs.pending.retain(|p| {
                let last_t = tuple_end(&p.tuple);
                let mut binding: Vec<&Event> = p.tuple.iter().collect();
                binding.push(ev);
                let vetoed =
                    last_t < t && t <= p.deadline && neg.preds.iter().all(|pr| pr.holds(&binding));
                !vetoed
            });
        }
        qs.negbuf[ni].push_back(ev.clone());
        while qs.negbuf[ni]
            .front()
            .is_some_and(|e| e.time().saturating_add(spec.within) < t)
        {
            qs.negbuf[ni].pop_front();
        }
    }

    // 2. Positive matching.
    let k = spec.positives.len();
    let mut completed = Vec::new();
    if spec.passthrough {
        if spec.positives[0] == ev.type_id {
            completed.push(vec![ev.clone()]);
        }
        return completed;
    }

    if spec.positives[k - 1] == ev.type_id {
        // Enumerate every strictly time-increasing prefix from the
        // per-slot history, with the current event in the last slot.
        let mut prefixes: Vec<Vec<Event>> = vec![Vec::new()];
        for slot in qs.seen.iter().take(k - 1) {
            let mut extended = Vec::new();
            for prefix in &prefixes {
                let lo = prefix.last().map(Event::time);
                for cand in slot {
                    let ct = cand.time();
                    if lo.is_none_or(|l| l < ct) && ct < t {
                        let mut next = prefix.clone();
                        next.push(cand.clone());
                        extended.push(next);
                    }
                }
            }
            prefixes = extended;
        }
        for mut tuple in prefixes {
            tuple.push(ev.clone());
            let span_ok = mutation == Some(Mutation::IgnoreWithin)
                || t.saturating_sub(tuple[0].time()) <= spec.within;
            if !span_ok || violated(spec, &tuple, qs) {
                continue;
            }
            if spec.has_trailing_negation() {
                qs.pending.push(Pending {
                    deadline: t.saturating_add(spec.within),
                    tuple,
                });
            } else {
                completed.push(tuple);
            }
        }
    }
    for (i, positive) in spec.positives.iter().enumerate() {
        if *positive == ev.type_id {
            qs.seen[i].push(ev.clone());
        }
    }
    completed
}

/// Does any buffered negation candidate veto this tuple? A candidate
/// vetoes if it falls *strictly* between the bracketing positives
/// (`lo < t < hi`; for a leading negation anything before the first
/// positive that is still within the horizon) and its predicates hold
/// over `[positives..., candidate]`.
fn violated(spec: &QuerySpec, tuple: &[Event], qs: &QState) -> bool {
    for (ni, neg) in spec.negations.iter().enumerate() {
        let (lo, hi) = match neg.pos {
            NegPos::Before => (None, tuple[0].time()),
            NegPos::Between(j) => (Some(tuple[j].time()), tuple[j + 1].time()),
            NegPos::After => continue,
        };
        for cand in &qs.negbuf[ni] {
            let ct = cand.time();
            let inside = lo.is_none_or(|l| ct > l) && ct < hi;
            if inside {
                let mut binding: Vec<&Event> = tuple.iter().collect();
                binding.push(cand);
                if neg.preds.iter().all(|p| p.holds(&binding)) {
                    return true;
                }
            }
        }
    }
    false
}

/// How a pattern variable binds into the tuple.
#[derive(Debug, Clone, Copy)]
enum VarRef {
    Pos(usize),
    Neg(usize),
}

fn compile_query(
    cq: &caesar_query::CompiledQuery,
    ctx_bit: u8,
    qs: &QuerySet,
    registry: &SchemaRegistry,
    default_within: Time,
) -> Result<QuerySpec, OracleBuildError> {
    let query = &cq.query;
    let mut positives: Vec<TypeId> = Vec::new();
    let mut positive_types: Vec<String> = Vec::new();
    let mut raw_negs: Vec<(String, TypeId, usize)> = Vec::new(); // (var?, type, positives seen)
    let mut neg_vars: Vec<Option<String>> = Vec::new();
    let mut vars: BTreeMap<String, VarRef> = BTreeMap::new();
    let mut all_vars: Vec<String> = Vec::new();

    for element in query.pattern.elements() {
        let Pattern::Event {
            event_type,
            var,
            negated,
        } = element
        else {
            return Err(OracleBuildError("nested SEQ unsupported".into()));
        };
        let type_id = registry
            .lookup(event_type)
            .map_err(|e| OracleBuildError(e.to_string()))?;
        if *negated {
            let ni = raw_negs.len();
            raw_negs.push((event_type.clone(), type_id, positives.len()));
            neg_vars.push(var.clone());
            if let Some(v) = var {
                vars.insert(v.clone(), VarRef::Neg(ni));
                all_vars.push(v.clone());
            }
        } else {
            let slot = positives.len();
            positives.push(type_id);
            positive_types.push(event_type.clone());
            if let Some(v) = var {
                vars.insert(v.clone(), VarRef::Pos(slot));
                all_vars.push(v.clone());
            }
        }
    }
    if positives.is_empty() {
        return Err(OracleBuildError("pattern has no positive element".into()));
    }
    let total_positives = positives.len();

    // Slot type lookup for attribute resolution: positives 0..k-1, the
    // negation candidate at slot k.
    let slot_type = |r: VarRef| -> TypeId {
        match r {
            VarRef::Pos(s) => positives[s],
            VarRef::Neg(ni) => raw_negs[ni].1,
        }
    };
    let slot_index = |r: VarRef| -> usize {
        match r {
            VarRef::Pos(s) => s,
            VarRef::Neg(_) => total_positives,
        }
    };
    // A bare attribute resolves against the query's unique *positive*
    // variable (validation guarantees uniqueness when one appears).
    let positive_vars: Vec<&String> = all_vars
        .iter()
        .filter(|v| matches!(vars.get(v.as_str()), Some(VarRef::Pos(_))))
        .collect();
    let unique_var = if positive_vars.len() == 1 {
        Some(positive_vars[0].clone())
    } else {
        None
    };
    let resolve_var = |var: &Option<String>| -> Result<VarRef, OracleBuildError> {
        let name = match var {
            Some(v) => v.clone(),
            None => unique_var
                .clone()
                .ok_or_else(|| OracleBuildError("bare attribute with no unique variable".into()))?,
        };
        vars.get(&name)
            .copied()
            .ok_or_else(|| OracleBuildError(format!("unknown variable {name}")))
    };
    let compile_expr = |expr: &Expr| -> Result<OExpr, OracleBuildError> {
        fn go(
            expr: &Expr,
            resolve: &dyn Fn(&Option<String>) -> Result<VarRef, OracleBuildError>,
            slot_index: &dyn Fn(VarRef) -> usize,
            slot_type: &dyn Fn(VarRef) -> TypeId,
            registry: &SchemaRegistry,
        ) -> Result<OExpr, OracleBuildError> {
            match expr {
                Expr::Const(v) => Ok(OExpr::Const(v.clone())),
                Expr::Attr { var, attr } => {
                    let r = resolve(var)?;
                    let schema = registry.schema(slot_type(r));
                    let attr = schema
                        .attr_id(attr)
                        .map_err(|e| OracleBuildError(e.to_string()))?;
                    Ok(OExpr::Attr {
                        slot: slot_index(r),
                        attr,
                    })
                }
                Expr::Binary { op, lhs, rhs } => Ok(OExpr::Bin {
                    op: *op,
                    lhs: Box::new(go(lhs, resolve, slot_index, slot_type, registry)?),
                    rhs: Box::new(go(rhs, resolve, slot_index, slot_type, registry)?),
                }),
            }
        }
        go(expr, &resolve_var, &slot_index, &slot_type, registry)
    };

    // Classify WHERE conjuncts by the negated variables they reference:
    // none → filter, one → that negation's predicates, several → out of
    // the translatable envelope (the engine rejects these too).
    let mut filter: Vec<OExpr> = Vec::new();
    let mut neg_preds: Vec<Vec<OExpr>> = vec![Vec::new(); raw_negs.len()];
    if let Some(where_clause) = &query.where_clause {
        for conjunct in where_clause.conjuncts() {
            let mut touched: Vec<usize> = Vec::new();
            for var in conjunct.referenced_vars() {
                let var = var.map(str::to_string);
                if let VarRef::Neg(ni) = resolve_var(&var)? {
                    if !touched.contains(&ni) {
                        touched.push(ni);
                    }
                }
            }
            match touched.as_slice() {
                [] => filter.push(compile_expr(conjunct)?),
                [ni] => neg_preds[*ni].push(compile_expr(conjunct)?),
                _ => {
                    return Err(OracleBuildError(
                        "predicate references several negated variables".into(),
                    ))
                }
            }
        }
    }

    let negations: Vec<NegSpec> = raw_negs
        .iter()
        .enumerate()
        .map(|(ni, (_, type_id, seen))| NegSpec {
            type_id: *type_id,
            pos: if *seen == 0 {
                NegPos::Before
            } else if *seen == total_positives {
                NegPos::After
            } else {
                NegPos::Between(*seen - 1)
            },
            preds: neg_preds[ni].clone(),
        })
        .collect();

    let bit_of = |name: &str| -> Result<u8, OracleBuildError> {
        qs.context_bit(name)
            .map(|b| b as u8)
            .ok_or_else(|| OracleBuildError(format!("unknown context {name}")))
    };
    let transitions = match &query.action {
        Some(ContextAction::Initiate(c)) => vec![(TrKind::Initiate, bit_of(c)?)],
        Some(ContextAction::Terminate(c)) => vec![(TrKind::Terminate, bit_of(c)?)],
        Some(ContextAction::Switch(c)) => {
            vec![(TrKind::Initiate, bit_of(c)?), (TrKind::Terminate, ctx_bit)]
        }
        None => Vec::new(),
    };
    let project = match &query.derive {
        Some(d) => {
            let out_type = registry
                .lookup(&d.event_type)
                .map_err(|e| OracleBuildError(e.to_string()))?;
            let args = d
                .args
                .iter()
                .map(&compile_expr)
                .collect::<Result<Vec<_>, _>>()?;
            Some((out_type, d.event_type.clone(), args))
        }
        None => None,
    };
    if transitions.is_empty() && project.is_none() {
        return Err(OracleBuildError(
            "query neither derives nor processes".into(),
        ));
    }

    Ok(QuerySpec {
        ctx_bit,
        transitions,
        project,
        passthrough: positives.len() == 1 && negations.is_empty(),
        positives,
        negations,
        filter,
        within: query.within.unwrap_or(default_within),
    })
}
