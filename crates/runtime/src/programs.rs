//! The engine's one executing program and the per-partition run state.
//!
//! Context state is partition-scoped (one context bit vector per road
//! segment, §6.2), and so is all pattern state: a sequence must not mix
//! events of different road segments. The paper keeps *one* set of
//! query plans and, per partition, only the context bit vector and the
//! context history; so does the engine: a [`ProgramTemplate`] holds the
//! plans — compiled data, kernel caches, every operator counter, the
//! router gates — once, and a [`PartitionRun`] holds what one partition
//! keeps between transactions: the [`RunState`] of each stateful
//! operator that has live state there, and the derived-event feedback
//! queue. The engine binds a partition's run state into the program
//! when the partition's turn comes ([`ProgramTemplate::bind`]) and
//! unbinds it when another's does.
//!
//! The template construction also realizes two execution-strategy
//! decisions:
//!
//! * **Workload sharing** (§5.3): the optimizer's
//!   [`executing_plans`] keeps one *representative* plan per set of
//!   structurally identical queries, and a sharing context-aware engine
//!   installs every eligible shared-prefix group on what remains.
//! * **Context-independent baseline** (§7, state of the art \[34, 5\]):
//!   every plan stays active all the time, and every processing query
//!   carries private clones of its context's deriving queries — the
//!   re-derivation work a context-unaware engine performs per query.
//!   [`Mode::BusyWait`] is the same baseline without the clones and
//!   without moving context windows: Figure 11(b)'s non-optimized plan.

use caesar_algebra::context_table::{ContextTable, PartitionContexts, Transition};
use caesar_algebra::ops::{ChainScratch, Op};
use caesar_algebra::pattern::{NegationCheck, RunState};
use caesar_algebra::plan::{CombinedPlan, PlanOutput, QueryPlan};
use caesar_events::{ColumnarBatch, Event, PartitionId, Time, TypeId};
use caesar_optimizer::install_prefix_sharing;
use caesar_optimizer::mqo::{executing_plans, ExecutingPlans, SharedWorkload};
use caesar_query::ast::QueryId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Whether the engine runs context-aware or as the baseline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Mode {
    /// CAESAR: suspension by context, derivation shared per context.
    #[default]
    ContextAware,
    /// Baseline: all queries always active; each processing query
    /// re-derives its context privately; context windows are pushed to
    /// the chain bottom, so pattern state stays window-scoped and
    /// results match CAESAR exactly.
    ContextIndependent,
    /// Pure busy-waiting, the "non-optimized query plan" of Figure
    /// 11(b): all queries always active, no private re-derivation, and
    /// context windows left where the plans put them — a SASE-style
    /// engine taken literally, where every event traverses pattern and
    /// filter before a mid-chain window drops out-of-context *matches*.
    /// Pattern state is stream-scoped, so results may differ at window
    /// boundaries (§3.2).
    BusyWait,
}

/// The program every partition's transactions execute (see the module
/// docs): built once per engine, never cloned per partition.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ProgramTemplate {
    /// Context-deriving plans (flattened across contexts).
    pub deriving: Vec<QueryPlan>,
    /// Per-context combined plans of the processing queries.
    pub processing: Vec<CombinedPlan>,
    /// Fan-out per representative query id (members sharing its
    /// execution, including itself).
    pub fanout: BTreeMap<QueryId, usize>,
    /// Redundant deriving clones of the baseline (empty in CAESAR mode):
    /// one clone of each deriving plan per processing query of its
    /// context, with the transition operators stripped.
    pub redundant: Vec<QueryPlan>,
    /// Execution mode.
    pub mode: Mode,
    /// Router gates: per processing plan, the union of its members'
    /// context window bits (the router's per-transaction lookup is then
    /// O(active bits)).
    gates: Vec<Vec<u8>>,
    /// Derived types some deriving plan consumes — the only derived
    /// events worth queueing as feedback.
    feedback_types: Vec<TypeId>,
    /// The stateful operators, in the order a non-empty
    /// [`PartitionRun`]'s state vector lists them.
    stateful: Vec<StatefulOp>,
    /// The shortest `within` horizon of a stateful operator: whatever a
    /// transaction at `t` adds expires at `t + min_within` or later.
    pub min_within: Time,
    /// The longest finite `within` horizon of a stateful operator: what
    /// a partition holds that any sweep can free is dead once progress
    /// passes its last transaction by this much.
    pub horizon: Time,
    /// Slab allocations served from a free list, over all partitions.
    #[serde(skip)]
    pool_reused: u64,
    /// Largest slab high-water mark seen: the most partial matches any
    /// one operator held live in any one partition. Part of the
    /// snapshot — a recovered run reports the uninterrupted run's peak.
    pool_peak: usize,
    /// Free list of emptied run states (slabs keep their capacity).
    /// Boxed: a box moves between here and a [`PartitionRun`] slot as a
    /// pointer, its allocation reused.
    #[serde(skip)]
    #[allow(clippy::vec_box)]
    spare: Vec<Box<RunState>>,
    /// Reusable output sink of the run methods (always empty between
    /// calls).
    #[serde(skip)]
    sink: PlanOutput,
    /// Reusable chain-traversal buffers shared by the deriving and
    /// redundant plans (the combined plans carry their own).
    #[serde(skip)]
    scratch: ChainScratch,
}

impl ProgramTemplate {
    /// Builds a template from translated combined plans.
    ///
    /// `sharing` is the optimizer's workload-sharing analysis, `None`
    /// when the engine does not share at all (`EngineConfig::sharing`
    /// off): every query then keeps a private plan and no shared-prefix
    /// group is installed.
    ///
    /// A sharing, context-aware engine installs every shared-prefix
    /// group the optimizer finds eligible ([`install_prefix_sharing`]);
    /// the baselines never do — they model an engine without the §5
    /// optimizer, and the re-derivation clones share nothing anyway.
    #[must_use]
    pub fn build(
        mut combined: Vec<CombinedPlan>,
        sharing: Option<&[SharedWorkload]>,
        mode: Mode,
    ) -> Self {
        // Pattern state is scoped to the context window. In
        // context-aware mode the batch-level router provides that
        // scoping even for unoptimized chains; the baseline has no
        // router, so the context window MUST sit below the pattern —
        // this is a semantic requirement here, not an optimization.
        // (The busy-waiting baseline gives that up on purpose.)
        if mode == Mode::ContextIndependent {
            for p in combined.iter_mut().flat_map(|c| &mut c.plans) {
                caesar_optimizer::pushdown::push_down_context_window(p);
            }
        }
        let ExecutingPlans {
            deriving,
            mut processing,
            fanout,
        } = executing_plans(combined, sharing.unwrap_or_default());
        if sharing.is_some() && mode == Mode::ContextAware {
            for cp in &mut processing {
                install_prefix_sharing(cp);
            }
        }

        // Baseline re-derivation clones: per processing query, each
        // deriving plan of the same context, transitions stripped (the
        // canonical deriving plans still maintain the real table).
        let mut redundant = Vec::new();
        if mode == Mode::ContextIndependent {
            for c in &processing {
                let context_derivers: Vec<&QueryPlan> =
                    deriving.iter().filter(|d| d.context == c.context).collect();
                for _query in &c.plans {
                    for d in &context_derivers {
                        let mut clone = (*d).clone();
                        clone
                            .ops
                            .retain(|op| !matches!(op, Op::ContextInit(_) | Op::ContextTerm(_)));
                        // The baseline evaluates the derivation condition
                        // itself regardless of context state: drop the
                        // context window too.
                        clone.ops.retain(|op| !op.is_context_window());
                        redundant.push(clone);
                    }
                }
            }
        }

        let gates = processing
            .iter()
            .map(|c| {
                let windows = c
                    .plans
                    .iter()
                    .flat_map(|p| &p.ops)
                    .filter_map(|op| match op {
                        Op::ContextWindow(cw) => Some(cw),
                        _ => None,
                    });
                let mut bits: Vec<u8> = windows.flat_map(|cw| cw.bits()).collect();
                bits.sort_unstable();
                bits.dedup();
                bits
            })
            .collect();
        let mut feedback_types: Vec<TypeId> = processing
            .iter()
            .flat_map(|c| &c.plans)
            .filter_map(|p| p.output_type)
            .filter(|&t| deriving.iter().any(|d| d.consumes(t)))
            .collect();
        feedback_types.sort_unstable();
        feedback_types.dedup();
        let stateful = StatefulOp::index(&deriving, &processing, &redundant);

        let mut template = Self {
            deriving,
            processing,
            fanout,
            redundant,
            mode,
            gates,
            feedback_types,
            stateful,
            min_within: Time::MAX,
            horizon: 0,
            pool_reused: 0,
            pool_peak: 0,
            spare: Vec::new(),
            sink: PlanOutput::default(),
            scratch: ChainScratch::default(),
        };
        let withins = template.stateful.iter().map(|at| at.horizon(&template).0);
        let finite = |within: Time| if within == Time::MAX { 0 } else { within };
        (template.min_within, template.horizon) = withins
            .fold((Time::MAX, 0), |(min, max), within| {
                (min.min(within), max.max(finite(within)))
            });
        template
    }

    /// Total number of executing plans (deriving + processing).
    #[must_use]
    pub fn plan_count(&self) -> usize {
        self.deriving.len() + self.processing.iter().map(CombinedPlan::len).sum::<usize>()
    }
}

/// Cap on the engine-level free list of emptied run states: enough to
/// absorb the churn of windows closing and reopening, small enough
/// that a burst of short-lived partitions does not pin its slabs.
const SPARE_RUN_STATES: usize = 1024;

/// The mutable run state of one stream partition: per stateful
/// operator of the program (in [`ProgramTemplate`] binding order) its
/// detached [`RunState`], if it holds any, plus the derived-event
/// feedback queue. The engine keeps a record only for partitions where
/// one of the two is non-empty — a partition with no live partial
/// match costs nothing here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionRun {
    /// Empty, or one entry per stateful operator.
    states: Vec<Option<Box<RunState>>>,
    /// Derived events awaiting the next transaction's derivation pass
    /// (deriving queries over derived event types see producer outputs
    /// one transaction later, which keeps transactions acyclic).
    feedback: Vec<Event>,
    /// Heap estimate as of the last unbind — the partition's share of
    /// the engine's `run_state_bytes` gauge.
    #[serde(skip)]
    bytes: usize,
    /// A lower bound on the earliest deadline of anything the states
    /// hold ([`RunState::floor`]): the partition's own watermark finds
    /// nothing due until it passes this.
    pub next: Time,
    /// Time of the partition's latest transaction: nothing held was
    /// added later.
    pub touched: Time,
    /// The deadline of the partition's live entry in the engine's
    /// expiry worklist, if it has one. Process-local: a restored or
    /// forked engine enters its records afresh.
    #[serde(skip)]
    pub queued: Option<Time>,
}

impl Default for PartitionRun {
    fn default() -> Self {
        Self {
            states: Vec::new(),
            feedback: Vec::new(),
            bytes: 0,
            next: Time::MAX,
            touched: 0,
            queued: None,
        }
    }
}

impl PartitionRun {
    /// True when nothing is held: the record can be dropped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty() && self.feedback.is_empty()
    }

    /// The detached run states held (test and introspection support).
    pub fn states(&self) -> impl Iterator<Item = &RunState> {
        self.states.iter().flatten().map(|b| &**b)
    }

    /// The partition's share of the `run_state_bytes` gauge, as of the
    /// last unbind (or [`refresh_bytes`](Self::refresh_bytes)).
    #[must_use]
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Recomputes the capacity-based heap estimate — O(stateful ops),
    /// each operator's slab footprint being tracked as it grows.
    pub fn refresh_bytes(&mut self) -> usize {
        self.bytes = if self.is_empty() {
            0
        } else {
            Self::record_bytes(self.states.capacity(), &self.feedback, self.states())
        };
        self.bytes
    }

    /// Heap estimate of a non-empty record with `slots` state slots
    /// holding `states`.
    fn record_bytes<'a>(
        slots: usize,
        feedback: &Vec<Event>,
        states: impl Iterator<Item = &'a RunState>,
    ) -> usize {
        use std::mem::size_of;
        size_of::<Self>()
            + slots * size_of::<Option<Box<RunState>>>()
            + feedback.capacity() * size_of::<Event>()
            + states
                .map(|s| size_of::<RunState>() + s.heap_bytes())
                .sum::<usize>()
    }
}

/// Where one stateful operator sits in the program. The template
/// indexes them once, so a transaction's bind and unbind touch the
/// stateful operators alone instead of walking every chain.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
enum StatefulOp {
    /// Pattern at `deriving[plan].ops[op]`.
    Deriving { plan: usize, op: usize },
    /// Shared-prefix group `group` of `processing[combined]`.
    Group { combined: usize, group: usize },
    /// Pattern at `processing[combined].plans[plan].ops[op]`.
    Member {
        combined: usize,
        plan: usize,
        op: usize,
    },
    /// Pattern at `redundant[plan].ops[op]`.
    Redundant { plan: usize, op: usize },
}

impl StatefulOp {
    /// Every stateful operator of a program, in binding order.
    fn index(
        deriving: &[QueryPlan],
        processing: &[CombinedPlan],
        redundant: &[QueryPlan],
    ) -> Vec<Self> {
        fn patterns(plan: &QueryPlan) -> impl Iterator<Item = usize> + '_ {
            let ops = plan.ops.iter().enumerate();
            ops.filter(|(_, op)| op.is_pattern()).map(|(i, _)| i)
        }
        let mut index = Vec::new();
        for (plan, p) in deriving.iter().enumerate() {
            index.extend(patterns(p).map(|op| Self::Deriving { plan, op }));
        }
        for (combined, c) in processing.iter().enumerate() {
            let groups = 0..c.shared_groups().len();
            index.extend(groups.map(|group| Self::Group { combined, group }));
            for (plan, p) in c.plans.iter().enumerate() {
                index.extend(patterns(p).map(|op| Self::Member { combined, plan, op }));
            }
        }
        for (plan, p) in redundant.iter().enumerate() {
            index.extend(patterns(p).map(|op| Self::Redundant { plan, op }));
        }
        index
    }

    /// The operator's resident run state.
    fn resident<'a>(
        self,
        deriving: &'a mut [QueryPlan],
        processing: &'a mut [CombinedPlan],
        redundant: &'a mut [QueryPlan],
    ) -> &'a mut RunState {
        match self {
            Self::Deriving { plan, op } => deriving[plan].run_state_mut(op),
            Self::Group { combined, group } => processing[combined].group_run_mut(group),
            Self::Member { combined, plan, op } => {
                processing[combined].plans[plan].run_state_mut(op)
            }
            Self::Redundant { plan, op } => redundant[plan].run_state_mut(op),
        }
    }

    /// The operator's `within` horizon and negation checks — what
    /// [`RunState::expire`] needs to prune one of its detached states.
    fn horizon(self, program: &ProgramTemplate) -> (Time, &[NegationCheck]) {
        fn pattern(plan: &QueryPlan, op: usize) -> (Time, &[NegationCheck]) {
            match &plan.ops[op] {
                Op::Pattern(p) => (p.within(), p.negations()),
                other => unreachable!("{} indexed as a pattern", other.tag()),
            }
        }
        match self {
            Self::Deriving { plan, op } => pattern(&program.deriving[plan], op),
            Self::Group { combined, group } => (
                program.processing[combined].shared_groups()[group].within(),
                &[],
            ),
            Self::Member { combined, plan, op } => {
                pattern(&program.processing[combined].plans[plan], op)
            }
            Self::Redundant { plan, op } => pattern(&program.redundant[plan], op),
        }
    }

    /// Read access to the operator's resident run state.
    fn resident_ref(self, program: &ProgramTemplate) -> &RunState {
        match self {
            Self::Deriving { plan, op } => program.deriving[plan].run_state(op),
            Self::Group { combined, group } => program.processing[combined].group_run(group),
            Self::Member { combined, plan, op } => {
                program.processing[combined].plans[plan].run_state(op)
            }
            Self::Redundant { plan, op } => program.redundant[plan].run_state(op),
        }
    }
}

/// Execution: the template *is* the engine's one executing program.
/// A stream transaction runs the phases below against the shared
/// operators, with its partition's [`PartitionRun`] bound.
impl ProgramTemplate {
    /// Swaps the partition's stored run states into their operators.
    /// The partition stays bound — consecutive transactions of one
    /// partition pay nothing — until [`unbind`](Self::unbind), which
    /// must come before any other partition binds.
    pub fn bind(&mut self, run: &mut PartitionRun) {
        let Self {
            deriving,
            processing,
            redundant,
            stateful,
            ..
        } = self;
        for (at, held) in stateful.iter().zip(&mut run.states) {
            if let Some(held) = held {
                std::mem::swap(at.resident(deriving, processing, redundant), &mut **held);
            }
        }
    }

    /// Moves every operator's live run state back into the partition's
    /// record, leaving the operators empty. A state that emptied during
    /// the transaction is not stored: its slab goes to the free list
    /// the next new state is taken from, so steady-state churn (windows
    /// closing and reopening, sessions ending and starting) allocates
    /// nothing. Folds the slabs' reuse counts and high-water marks into
    /// the engine-level pool counters — here, at partition switch, not
    /// per transaction — and the stored states' floors into the
    /// record's [`next`](PartitionRun::next).
    pub fn unbind(&mut self, run: &mut PartitionRun) {
        let Self {
            deriving,
            processing,
            redundant,
            stateful,
            spare,
            pool_reused,
            pool_peak,
            ..
        } = self;
        let mut any_held = false;
        run.next = Time::MAX;
        for (i, at) in stateful.iter().enumerate() {
            let resident = at.resident(deriving, processing, redundant);
            let stored = run.states.get_mut(i).and_then(Option::take);
            // The common case: nothing was bound here and the operator
            // allocated and buffered nothing since its last recycle.
            if stored.is_none() && resident.pool_peak() == 0 && !resident.has_state() {
                continue;
            }
            *pool_reused += resident.take_pool_reused();
            *pool_peak = (*pool_peak).max(resident.pool_peak());
            if resident.has_state() {
                run.next = run.next.min(resident.floor());
                let mut stored = stored.or_else(|| spare.pop()).unwrap_or_default();
                std::mem::swap(resident, &mut *stored);
                if run.states.is_empty() {
                    run.states.resize_with(stateful.len(), || None);
                }
                run.states[i] = Some(stored);
                any_held = true;
            } else {
                resident.recycle();
                // `stored` is what was resident at bind time: empty too.
                if spare.len() < SPARE_RUN_STATES {
                    spare.extend(stored);
                }
            }
        }
        if !any_held {
            run.states.clear();
        }
        run.refresh_bytes();
    }

    /// Overwrites `dst`, a stored record of this program, with a copy
    /// of one partition's run state in `from` — another engine's
    /// instance of the same program, which is not touched: `src` is
    /// the partition's record there, and `bound` says whether it is
    /// the bound one (its live states then sit in `from`'s operators,
    /// as [`unbind`](Self::unbind) would move them out). In place, down
    /// to the slabs ([`RunState::copy_from`]), and through this
    /// program's free list like any other state that comes or goes:
    /// overwriting a record again and again allocates nothing once it
    /// has seen its largest shape.
    pub fn copy_run(
        &mut self,
        from: &ProgramTemplate,
        src: &PartitionRun,
        bound: bool,
        dst: &mut PartitionRun,
    ) {
        let spare = &mut self.spare;
        dst.feedback.clone_from(&src.feedback);
        dst.states.resize_with(from.stateful.len(), || None);
        (dst.next, dst.touched) = (Time::MAX, src.touched);
        let mut any_held = false;
        for (i, (at, held)) in from.stateful.iter().zip(&mut dst.states).enumerate() {
            let state = if bound {
                Some(at.resident_ref(from)).filter(|r| r.has_state())
            } else {
                src.states.get(i).and_then(Option::as_deref)
            };
            if let Some(state) = state {
                let held = held.get_or_insert_with(|| spare.pop().unwrap_or_default());
                held.copy_from(state);
                dst.next = dst.next.min(state.floor());
                any_held = true;
            } else if let Some(mut emptied) = held.take() {
                emptied.reset();
                emptied.recycle();
                if spare.len() < SPARE_RUN_STATES {
                    spare.push(emptied);
                }
            }
        }
        if !any_held {
            dst.states.clear();
        }
        dst.refresh_bytes();
    }

    /// Prunes a stored record in place, without binding it, by global
    /// progress `watermark` ([`RunState::expire`]: parked matches and
    /// leading-negation buffers wait for the partition's own
    /// transactions). A state left empty goes to the free list the next
    /// new state is taken from. Returns how many states emptied.
    pub fn expire(&mut self, run: &mut PartitionRun, watermark: Time) -> usize {
        let mut emptied = 0;
        run.next = Time::MAX;
        for (at, slot) in self.stateful.iter().zip(&mut run.states) {
            let Some(state) = slot else { continue };
            let (within, negations) = at.horizon(self);
            state.expire(watermark, within, negations, false);
            if state.has_state() {
                run.next = run.next.min(state.floor());
            } else if let Some(mut state) = slot.take() {
                emptied += 1;
                state.recycle();
                if self.spare.len() < SPARE_RUN_STATES {
                    self.spare.push(state);
                }
            }
        }
        if run.states.iter().all(Option::is_none) {
            run.states.clear();
        }
        run.refresh_bytes();
        emptied
    }

    /// Heap estimate of the bound partition's record as
    /// [`unbind`](Self::unbind) would leave it, `None` if it would be
    /// empty — what the state-size gauges add for the one partition
    /// that is not in the engine's map.
    #[must_use]
    pub fn bound_bytes(&self, run: &PartitionRun) -> Option<usize> {
        let live = || {
            let residents = self.stateful.iter().map(|at| at.resident_ref(self));
            residents.filter(|r| r.has_state())
        };
        if live().next().is_none() && run.feedback.is_empty() {
            return None;
        }
        let slots = self.stateful.len();
        Some(PartitionRun::record_bytes(slots, &run.feedback, live()))
    }

    /// Partial-pool efficacy across all partitions so far, the bound
    /// one included: `(slab slots reused from a free list, largest slab
    /// high-water mark)`. The second is the engine's peak-partials
    /// figure: a maximum of maxima, so it does not depend on when
    /// partitions took turns — a run restored from a snapshot that
    /// carries it reports what the uninterrupted run does.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, usize) {
        let residents = self.stateful.iter().map(|at| at.resident_ref(self));
        residents.fold((self.pool_reused, self.pool_peak), |(reused, peak), r| {
            (reused + r.pool_reused(), peak.max(r.pool_peak()))
        })
    }

    /// Phase 1 of a transaction: context derivation. All input events run
    /// through the deriving plans of currently active contexts (their
    /// pushed-down context windows gate inactive ones); appends the
    /// requested transitions to `transitions` in plan/chain order.
    pub fn run_derivation(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        run: &mut PartitionRun,
        transitions: &mut Vec<Transition>,
    ) {
        let Self { deriving, sink, .. } = self;
        sink.clear();
        for plan in deriving.iter_mut() {
            for ev in run.feedback.iter().chain(events.iter()) {
                if plan.consumes(ev.type_id) {
                    plan.process(ev, table, sink);
                }
            }
        }
        run.feedback.clear();
        // Deriving queries have no DERIVE clause: their chain output is
        // just the pass-through trigger match, not an output-stream
        // event — only the transitions matter.
        transitions.append(&mut sink.transitions);
    }

    /// Batched [`run_derivation`](Self::run_derivation): the
    /// transaction's events go through each deriving plan's batch entry
    /// point, amortizing the context-window probe and reusing the
    /// transaction's columnar views. Feedback events carry earlier
    /// timestamps than the transaction, so they stay per-event and run
    /// ahead of the batch — the same plan-major order as the per-event
    /// path, hence identical transitions.
    pub fn run_derivation_batch(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        table: &ContextTable,
        run: &mut PartitionRun,
        transitions: &mut Vec<Transition>,
    ) {
        let Self {
            deriving,
            sink,
            scratch,
            ..
        } = self;
        sink.clear();
        for plan in deriving.iter_mut() {
            for ev in &run.feedback {
                if plan.consumes(ev.type_id) {
                    plan.process(ev, table, sink);
                }
            }
            plan.process_batch(cols, table, sink, scratch);
        }
        run.feedback.clear();
        transitions.append(&mut sink.transitions);
    }

    /// The baseline's redundant derivation work: every processing query
    /// privately re-evaluates its context's deriving conditions on every
    /// event. Outputs and transitions are discarded — only the canonical
    /// derivation updates the table.
    pub fn run_private_derivation(&mut self, events: &[Event], table: &ContextTable) {
        let Self {
            redundant, sink, ..
        } = self;
        sink.clear();
        for plan in redundant.iter_mut() {
            for ev in events {
                if plan.consumes(ev.type_id) {
                    plan.process(ev, table, sink);
                }
            }
            sink.clear();
        }
    }

    /// Batched [`run_private_derivation`](Self::run_private_derivation).
    pub fn run_private_derivation_batch(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        table: &ContextTable,
    ) {
        let Self {
            redundant,
            sink,
            scratch,
            ..
        } = self;
        sink.clear();
        for plan in redundant.iter_mut() {
            plan.process_batch(cols, table, sink, scratch);
            sink.clear();
        }
    }

    /// Phase 2 of a transaction: context processing. In context-aware
    /// mode the router has already selected active plans (`active` holds
    /// indices into `processing`); in the baseline every plan runs.
    /// Derived events a deriving plan consumes are also queued as
    /// feedback for the partition's next derivation pass.
    pub fn run_processing(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        active: &[usize],
        run: &mut PartitionRun,
        out: &mut PlanOutput,
    ) {
        self.sink.clear();
        for &idx in active {
            let plan = &mut self.processing[idx];
            for ev in events {
                if plan.consumes_external(ev.type_id) {
                    plan.process(ev, table, &mut self.sink);
                }
            }
        }
        self.emit_processed(run, out);
    }

    /// Batched [`run_processing`](Self::run_processing): one batch call
    /// per active combined plan. The external-consumption filter and the
    /// derived-event feedback loop live inside
    /// [`CombinedPlan::process_batch`], which iterates plan-major like
    /// the per-event path, so outputs come out in the same order.
    pub fn run_processing_batch(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        table: &ContextTable,
        active: &[usize],
        run: &mut PartitionRun,
        out: &mut PlanOutput,
    ) {
        self.sink.clear();
        for &idx in active {
            self.processing[idx].process_batch(cols, table, &mut self.sink);
        }
        self.emit_processed(run, out);
    }

    /// Moves the processing phase's sink into `out`, queueing as
    /// feedback the derived events some deriving plan consumes (the
    /// others would be skipped by every plan of the next derivation
    /// pass, and would keep an otherwise stateless partition's record
    /// alive until then).
    fn emit_processed(&mut self, run: &mut PartitionRun, out: &mut PlanOutput) {
        let Self {
            sink,
            feedback_types,
            ..
        } = self;
        let consumed = sink
            .events
            .iter()
            .filter(|e| feedback_types.contains(&e.type_id));
        run.feedback.extend(consumed.cloned());
        out.events.append(&mut sink.events);
        out.transitions.append(&mut sink.transitions);
    }

    /// Context-history maintenance after a window of `bit` terminated in
    /// the bound partition (§6.2 "Context Processing"):
    /// * plans scoped to `bit` alone discard their partial matches;
    /// * shared plans spanning other still-open member windows only
    ///   expire partials that started before every still-open member
    ///   window began (Figure 7's grouped-window expiry).
    pub fn on_context_terminated(&mut self, bit: u8, partition: PartitionId, table: &ContextTable) {
        fn reset_or_expire(plan: &mut QueryPlan, bit: u8, pc: &PartitionContexts) {
            let Some(Op::ContextWindow(cw)) = plan.ops.iter().find(|o| o.is_context_window())
            else {
                return;
            };
            if !cw.bits().any(|b| b == bit) {
                return;
            }
            // Earliest start among the member windows still open
            // (other than the terminated one).
            let earliest: Option<Time> = cw
                .bits()
                .filter(|&b| b != bit && pc.holds(b))
                .filter_map(|b| pc.open_span(b).map(|w| w.initiated))
                .min();
            match earliest {
                None => plan.reset_state(),
                Some(earliest) => plan.expire_history(earliest),
            }
        }
        let pc = table.partition(partition);
        for c in &mut self.processing {
            // Gated shared-prefix groups are scoped to exactly the
            // combined plan's context window, like their members.
            if c.context_bit == bit {
                c.reset_shared_gated();
            }
            for plan in &mut c.plans {
                reset_or_expire(plan, bit, pc);
            }
        }
        for plan in &mut self.deriving {
            reset_or_expire(plan, bit, pc);
        }
    }

    /// Advances the bound partition's own watermark on every plan
    /// (pruning partial state and flushing matured trailing-negation
    /// matches through the chains); returns the earliest deadline of
    /// what the partition still holds.
    pub fn advance_time(
        &mut self,
        watermark: Time,
        table: &ContextTable,
        out: &mut PlanOutput,
    ) -> Time {
        let mut next = Time::MAX;
        for plan in &mut self.deriving {
            // Transitions matter; pass-through matches are discarded
            // (see `run_derivation`).
            let mut sink = PlanOutput::default();
            next = next.min(plan.advance_time(watermark, table, &mut sink));
            out.transitions.append(&mut sink.transitions);
        }
        for combined in &mut self.processing {
            next = next.min(combined.advance_time(watermark, table, out));
        }
        for plan in &mut self.redundant {
            let mut discard = PlanOutput::default();
            next = next.min(plan.advance_time(watermark, table, &mut discard));
        }
        next
    }

    /// Fills `active` with the indices of the processing plans whose
    /// gate admits time `t` at `partition` — the context-aware router's
    /// batch-level selection, one context-table lookup per transaction.
    /// In the baseline modes every plan is selected.
    pub fn active_processing(
        &self,
        partition: PartitionId,
        t: Time,
        table: &ContextTable,
        active: &mut Vec<usize>,
    ) {
        active.clear();
        if self.mode != Mode::ContextAware {
            active.extend(0..self.processing.len());
            return;
        }
        let pc = table.partition(partition);
        for (idx, bits) in self.gates.iter().enumerate() {
            if bits.iter().any(|&b| pc.admits(b, t)) {
                active.push(idx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_algebra::translate::{translate_query_set, TranslateOptions};
    use caesar_events::{AttrType, Schema, SchemaRegistry, Value};
    use caesar_optimizer::{Optimizer, OptimizerConfig};
    use caesar_query::parser::parse_model;
    use caesar_query::queryset::QuerySet;

    fn setup(share: bool, mode: Mode) -> (ProgramTemplate, SchemaRegistry, Vec<String>, u8) {
        let model = parse_model(
            r#"
            MODEL m DEFAULT idle
            CONTEXT idle {
                SWITCH CONTEXT busy PATTERN Spike
                DERIVE Ping(r.v) PATTERN Reading r CONTEXT idle, busy
            }
            CONTEXT busy {
                SWITCH CONTEXT idle PATTERN Lull
                DERIVE Heavy(r.v) PATTERN Reading r WHERE r.v > 10
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("Reading", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Spike", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Lull", &[("v", AttrType::Int)]))
            .unwrap();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let names = t.context_names.clone();
        let default_bit = t.default_bit;
        let cfg = OptimizerConfig {
            share_workloads: share,
            ..OptimizerConfig::default()
        };
        let program = Optimizer::new(cfg, Default::default()).optimize(t, &reg);
        let sharing = program.sharing.clone();
        let template = ProgramTemplate::build(program.translation.combined, Some(&sharing), mode);
        (template, reg, names, default_bit)
    }

    fn reading(reg: &SchemaRegistry, t: Time, v: i64) -> Event {
        Event::simple(
            reg.lookup("Reading").unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(v)],
        )
    }

    #[test]
    fn template_splits_deriving_and_processing() {
        let (template, ..) = setup(false, Mode::ContextAware);
        assert_eq!(template.deriving.len(), 2, "two switch queries");
        // Processing: Ping in idle, Ping in busy, Heavy in busy.
        let total: usize = template.processing.iter().map(CombinedPlan::len).sum();
        assert_eq!(total, 3);
        assert!(template.redundant.is_empty());
    }

    #[test]
    fn sharing_drops_duplicate_instances_and_widens_gate() {
        let (template, ..) = setup(true, Mode::ContextAware);
        let total: usize = template.processing.iter().map(CombinedPlan::len).sum();
        assert_eq!(total, 2, "Ping executes once for both contexts");
        // The representative's context window covers both contexts.
        let rep = template
            .processing
            .iter()
            .flat_map(|c| c.plans.iter())
            .find(|p| {
                p.source
                    .query
                    .derive
                    .as_ref()
                    .is_some_and(|d| d.event_type == "Ping")
            })
            .unwrap();
        let cw = rep
            .ops
            .iter()
            .find_map(|o| match o {
                Op::ContextWindow(cw) => Some(cw),
                _ => None,
            })
            .unwrap();
        assert_eq!(cw.bits().count(), 2);
        assert_eq!(template.fanout.len(), 1);
    }

    #[test]
    fn baseline_builds_redundant_derivers() {
        let (template, ..) = setup(false, Mode::ContextIndependent);
        // idle has 1 processing query × 1 deriver; busy has 2 × 1.
        assert_eq!(template.redundant.len(), 3);
        for r in &template.redundant {
            assert!(
                !r.ops
                    .iter()
                    .any(|o| matches!(o, Op::ContextInit(_) | Op::ContextTerm(_))
                        || o.is_context_window()),
                "redundant clones must not mutate context state"
            );
        }
    }

    #[test]
    fn router_selects_only_active_contexts() {
        let (template, _reg, names, default_bit) = setup(false, Mode::ContextAware);
        let table = ContextTable::new(names.len(), default_bit);
        let mut active = Vec::new();
        template.active_processing(PartitionId(0), 5, &table, &mut active);
        // Only the idle (default) context's combined plan is active.
        assert_eq!(active.len(), 1);
        assert_eq!(template.processing[active[0]].context, "idle");
    }

    #[test]
    fn baseline_router_selects_everything() {
        let (template, _reg, names, default_bit) = setup(false, Mode::ContextIndependent);
        let table = ContextTable::new(names.len(), default_bit);
        let mut active = vec![7];
        template.active_processing(PartitionId(0), 5, &table, &mut active);
        assert_eq!(active.len(), template.processing.len());
    }

    #[test]
    fn derivation_produces_transitions() {
        let (mut template, reg, names, default_bit) = setup(false, Mode::ContextAware);
        let table = ContextTable::new(names.len(), default_bit);
        let spike = Event::simple(
            reg.lookup("Spike").unwrap(),
            10,
            PartitionId(0),
            vec![Value::Int(1)],
        );
        let mut run = PartitionRun::default();
        let mut transitions = Vec::new();
        template.run_derivation(&[spike], &table, &mut run, &mut transitions);
        assert_eq!(transitions.len(), 2, "switch = terminate + initiate");
    }

    #[test]
    fn processing_respects_active_selection() {
        let (mut template, reg, names, default_bit) = setup(false, Mode::ContextAware);
        let table = ContextTable::new(names.len(), default_bit);
        let mut out = PlanOutput::default();
        let mut active = Vec::new();
        template.active_processing(PartitionId(0), 5, &table, &mut active);
        let mut run = PartitionRun::default();
        template.run_processing(&[reading(&reg, 5, 3)], &table, &active, &mut run, &mut out);
        // Ping fires in idle; Heavy (busy) suspended.
        let ping = reg.lookup("Ping").unwrap();
        assert!(out.events.iter().all(|e| e.type_id == ping));
        assert_eq!(out.events.len(), 1);
        // No deriving plan consumes Ping: nothing queues as feedback,
        // and these stateless plans leave nothing to store.
        template.unbind(&mut run);
        assert!(run.is_empty());
    }

    #[test]
    fn context_termination_resets_plain_plans() {
        let (mut template, reg, names, default_bit) = setup(false, Mode::ContextAware);
        let mut table = ContextTable::new(names.len(), default_bit);
        let busy_bit = names.iter().position(|n| n == "busy").unwrap() as u8;
        table.partition_mut(PartitionId(0)).initiate(busy_bit, 0);
        // Feed an event so plans in busy could build state, then
        // terminate busy and confirm reset.
        let mut out = PlanOutput::default();
        let mut active = Vec::new();
        template.active_processing(PartitionId(0), 5, &table, &mut active);
        let mut run = PartitionRun::default();
        template.run_processing(&[reading(&reg, 5, 50)], &table, &active, &mut run, &mut out);
        table.partition_mut(PartitionId(0)).terminate(busy_bit, 6);
        template.on_context_terminated(busy_bit, PartitionId(0), &table);
        template.unbind(&mut run);
        assert!(run.is_empty());
    }
}
