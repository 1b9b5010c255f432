//! The engine's one executing program and the per-partition run state.
//!
//! Context state is partition-scoped (one context bit vector per road
//! segment, §6.2), and so is all pattern state: a sequence must not mix
//! events of different road segments. The paper keeps *one* set of
//! query plans and, per partition, only the context bit vector and the
//! context history; so does the engine: a [`ProgramTemplate`] holds the
//! plans — compiled data, every operator counter, the router gates and
//! the routing tables — once, and a [`PartitionRun`] holds what one
//! partition keeps between transactions: the [`RunState`](caesar_algebra::pattern::RunState) of each
//! stateful operator that has live state there, in that operator's
//! slot ([`RunStates`]), and the derived-event feedback queue.
//!
//! No operator holds run state. The program numbers its stateful
//! operators (patterns that can keep anything, shared-prefix groups)
//! once, and a transaction moves its partition's slots into the
//! program's [`StateSlots`] ([`StateSlots::enter`]), where each operator
//! the transaction reaches finds its own by number; at
//! [`StateSlots::leave`] only the slots it reached are examined.
//! A transaction therefore touches the state its events reach, never
//! every operator of the program. Each phase hands a plan the whole
//! transaction as one slice ([`QueryPlan::process`],
//! [`CombinedPlan::process`]); the partition's feedback events, which
//! carry earlier timestamps, run ahead of it as one-event slices.
//!
//! Which program runs — CAESAR's or a §7 baseline, with or without
//! workload sharing — is the optimizer's decision
//! ([`OptimizedProgram::executing`](caesar_optimizer::OptimizedProgram::executing)):
//! the template executes the plans it is given, one way.

use caesar_algebra::context_table::{ContextTable, PartitionContexts, Transition};
use caesar_algebra::ops::{advance_chain_time, ChainScratch, Op};
use caesar_algebra::pattern::{NegPosition, RunStates, StateSlots};
use caesar_algebra::plan::{CombinedPlan, PlanOutput, QueryPlan};
use caesar_events::{Event, PartitionId, Time, TypeId};
use caesar_optimizer::mqo::ExecutingPlans;
use caesar_query::ast::QueryId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// The program every partition's transactions execute (see the module
/// docs): built once per engine, never cloned per partition.
#[derive(Debug, Clone, Serialize)]
pub struct ProgramTemplate {
    /// Context-deriving plans (flattened across contexts), including
    /// the private re-derivers of a context-independent program.
    pub deriving: Vec<QueryPlan>,
    /// Per-context combined plans of the processing queries.
    pub processing: Vec<CombinedPlan>,
    /// Fan-out per representative query id (members sharing its
    /// execution, including itself).
    pub fanout: BTreeMap<QueryId, usize>,
    /// Router gates: per processing plan, the union of its members'
    /// context window bits (the router's per-transaction lookup is then
    /// O(active bits)); an empty gate is always open.
    gates: Vec<Vec<u8>>,
    /// Derived types some deriving plan consumes — the only derived
    /// events worth queueing as feedback.
    feedback_types: Vec<TypeId>,
    /// The routing table of the deriving plans, indexed by
    /// [`TypeId::index`]: the plans that consume the type, ascending.
    derivers: Vec<Vec<u32>>,
    /// Per context bit, the plans whose context window holds it — what
    /// the window's termination resets or expires ([`scoped_plans`]).
    scoped: Vec<Vec<(Option<usize>, usize)>>,
    /// The run-state slots, in walk order ([`number_slots`]).
    stateful: Vec<Slot>,
    /// The shortest `within` horizon of a stateful operator: whatever a
    /// transaction at `t` adds expires at `t + min_within` or later.
    pub min_within: Time,
    /// The longest finite `within` horizon of a stateful operator: what
    /// a partition holds that any sweep can free is dead once progress
    /// passes its last transaction by this much.
    pub horizon: Time,
    /// Where the running transaction's operators find their run states,
    /// with the free list of emptied ones and the slab counters.
    #[serde(skip)]
    pub(crate) slots: StateSlots,
    /// The deriving plans a transaction's events reach (always empty
    /// between calls).
    #[serde(skip)]
    reach: Vec<u32>,
    /// Reusable output sink of the run methods (always empty between
    /// calls).
    #[serde(skip)]
    sink: PlanOutput,
    /// Reusable chain-traversal buffers of the deriving plans (the
    /// combined plans carry their own).
    #[serde(skip)]
    scratch: ChainScratch,
}

impl ProgramTemplate {
    /// Builds a template from the plans the optimizer emits for
    /// execution.
    #[must_use]
    pub fn build(plans: ExecutingPlans) -> Self {
        let ExecutingPlans {
            mut deriving,
            mut processing,
            fanout,
            gates,
        } = plans;
        let mut feedback_types: Vec<TypeId> = processing
            .iter()
            .flat_map(|c| &c.plans)
            .filter_map(|p| p.output_type)
            .filter(|&t| deriving.iter().any(|d| d.consumes(t)))
            .collect();
        feedback_types.sort_unstable();
        feedback_types.dedup();
        let mut derivers: Vec<Vec<u32>> = Vec::new();
        for (i, plan) in deriving.iter().enumerate() {
            for t in plan.input_types.iter().map(|t| t.index()) {
                derivers.resize_with(derivers.len().max(t + 1), Vec::new);
                derivers[t].push(i as u32);
            }
        }
        let scoped = scoped_plans(&deriving, &processing);
        let stateful = number_slots(&mut deriving, &mut processing);

        let mut template = Self {
            deriving,
            processing,
            fanout,
            gates,
            feedback_types,
            derivers,
            scoped,
            slots: StateSlots::new(stateful.len()),
            stateful,
            min_within: Time::MAX,
            horizon: 0,
            reach: Vec::new(),
            sink: PlanOutput::default(),
            scratch: ChainScratch::default(),
        };
        let withins = template.stateful.iter().map(|slot| slot.within);
        let finite = |within: Time| if within == Time::MAX { 0 } else { within };
        (template.min_within, template.horizon) = withins
            .fold((Time::MAX, 0), |(min, max), within| {
                (min.min(within), max.max(finite(within)))
            });
        template
    }

    /// FNV-1a over the program's encoding, which leaves out what
    /// changes as it runs — the operator counters, the run-state
    /// workspace, the scratch buffers: equal for two engines built from
    /// one model, optimizer setting and configuration, and fixed over
    /// an engine's life. A snapshot carries it in place of the program.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        serde::to_bytes(self)
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }
}

/// The mutable run state of one stream partition: the [`RunState`](caesar_algebra::pattern::RunState)s its
/// stateful operators hold there, by slot ([`RunStates`]), plus the
/// derived-event feedback queue. The engine keeps a record only for
/// partitions where one of the two is non-empty — a partition with no
/// live partial match costs nothing here.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PartitionRun {
    pub(crate) states: RunStates,
    /// Derived events awaiting the next transaction's derivation pass
    /// (deriving queries over derived event types see producer outputs
    /// one transaction later, which keeps transactions acyclic).
    feedback: Vec<Event>,
    /// A lower bound on the earliest deadline of anything the states
    /// hold ([`RunState::floor`](caesar_algebra::pattern::RunState::floor)): the partition's own watermark finds
    /// nothing due until it passes this.
    pub next: Time,
    /// Time of the partition's latest transaction: nothing held was
    /// added later.
    pub touched: Time,
}

impl Default for PartitionRun {
    fn default() -> Self {
        Self {
            states: RunStates::default(),
            feedback: Vec::new(),
            next: Time::MAX,
            touched: 0,
        }
    }
}

impl PartitionRun {
    /// True when nothing is held: the record can be dropped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.states.is_empty() && self.feedback.is_empty()
    }

    /// The partition's share of the `run_state_bytes` gauge: a
    /// capacity-based estimate kept as states fill and empty, so
    /// reading it walks nothing.
    #[must_use]
    pub fn bytes(&self) -> usize {
        if self.is_empty() {
            return 0;
        }
        std::mem::size_of::<Self>()
            + self.feedback.capacity() * std::mem::size_of::<Event>()
            + self.states.bytes()
    }
}

/// One run-state slot of the program: whose it is, and what a sweep
/// needs to prune the state there — the operator's `within` horizon
/// and negation positions.
#[derive(Debug, Clone, Serialize)]
struct Slot {
    owner: Owner,
    within: Time,
    negations: Vec<NegPosition>,
}

/// The stateful operator a run-state slot belongs to.
#[derive(Debug, Clone, Copy, Serialize)]
enum Owner {
    /// The pattern of `deriving[plan]`.
    Deriving(usize),
    /// Shared-prefix group `group` of `processing[combined]`.
    Group { combined: usize, group: usize },
    /// The pattern of `processing[combined].plans[plan]`.
    Member { combined: usize, plan: usize },
}

/// Numbers every stateful operator of a program — a pattern that can
/// keep anything between events, a shared-prefix group — with its
/// run-state slot, in the order a watermark walks them: the deriving
/// plans, then per combined plan its groups and its members.
fn number_slots(deriving: &mut [QueryPlan], processing: &mut [CombinedPlan]) -> Vec<Slot> {
    fn pattern(plan: &mut QueryPlan, owner: Owner, slots: &mut Vec<Slot>) {
        for op in &mut plan.ops {
            let Op::Pattern(p) = op else { continue };
            if p.keeps_state() {
                p.set_slot(slots.len() as u32);
                let negations = p.negations().iter().map(|n| n.position).collect();
                let within = p.within();
                slots.push(Slot {
                    owner,
                    within,
                    negations,
                });
            }
        }
    }
    let mut slots = Vec::new();
    for (plan, p) in deriving.iter_mut().enumerate() {
        pattern(p, Owner::Deriving(plan), &mut slots);
    }
    for (combined, c) in processing.iter_mut().enumerate() {
        for (group, g) in c.shared_groups_mut().iter_mut().enumerate() {
            g.set_slot(slots.len() as u32);
            let (owner, within) = (Owner::Group { combined, group }, g.within());
            slots.push(Slot {
                owner,
                within,
                negations: Vec::new(),
            });
        }
        for (plan, p) in c.plans.iter_mut().enumerate() {
            pattern(p, Owner::Member { combined, plan }, &mut slots);
        }
    }
    slots
}

/// Per context bit, the plans whose context window holds it:
/// `(Some(c), p)` names `processing[c].plans[p]`, `(None, p)` names
/// `deriving[p]`.
fn scoped_plans(
    deriving: &[QueryPlan],
    processing: &[CombinedPlan],
) -> Vec<Vec<(Option<usize>, usize)>> {
    let members = processing.iter().enumerate().flat_map(|(c, combined)| {
        combined
            .plans
            .iter()
            .enumerate()
            .map(move |(p, plan)| (Some(c), p, plan))
    });
    let derivers = deriving.iter().enumerate().map(|(p, plan)| (None, p, plan));
    let mut scoped: Vec<Vec<_>> = Vec::new();
    for (combined, p, plan) in members.chain(derivers) {
        let Some(Op::ContextWindow(cw)) = plan.ops.iter().find(|o| o.is_context_window()) else {
            continue;
        };
        for bit in cw.bits().map(usize::from) {
            if scoped.len() <= bit {
                scoped.resize_with(bit + 1, Vec::new);
            }
            scoped[bit].push((combined, p));
        }
    }
    scoped
}

/// Execution: the template *is* the engine's one executing program. A
/// stream transaction runs the phases below between
/// [`StateSlots::enter`] and [`StateSlots::leave`] of its partition's
/// states: the stateful operators it reaches find theirs in `slots`.
impl ProgramTemplate {
    /// Overwrites `dst`, a stored record of this program, with a copy
    /// of `src`, a record of another engine's instance of the same
    /// program. In place, down to the slabs, and through this program's
    /// free list like any other state that comes or goes
    /// ([`RunStates::copy_from`]).
    pub fn copy_run(&mut self, src: &PartitionRun, dst: &mut PartitionRun) {
        dst.feedback.clone_from(&src.feedback);
        dst.states.copy_from(&src.states, &mut self.slots);
        (dst.next, dst.touched) = (src.next, src.touched);
    }

    /// Prunes a stored record in place by global progress `watermark`
    /// ([`RunState::expire`](caesar_algebra::pattern::RunState::expire): parked matches and leading-negation
    /// buffers wait for the partition's own transactions). A state left
    /// empty goes to the free list the next new state is taken from.
    /// Returns how many states emptied.
    pub fn expire(&mut self, run: &mut PartitionRun, watermark: Time) -> usize {
        let Self {
            stateful, slots, ..
        } = self;
        let mut next = Time::MAX;
        let emptied = run.states.retain(slots, |slot, state| {
            let Slot {
                within, negations, ..
            } = &stateful[slot];
            state.expire(watermark, *within, negations.iter().copied(), false);
            if state.has_state() {
                next = next.min(state.floor());
            }
        });
        run.next = next;
        emptied
    }

    /// Partial-pool efficacy across all partitions so far: `(slab slots
    /// reused from a free list, largest slab high-water mark)`. The
    /// second is the engine's peak-partials figure: a maximum of
    /// maxima, so it does not depend on when partitions took turns — a
    /// run restored from a snapshot that carries it reports what the
    /// uninterrupted run does.
    #[must_use]
    pub fn pool_stats(&self) -> (u64, usize) {
        self.slots.pool_stats()
    }

    /// Phase 1 of a transaction: context derivation. The partition's
    /// feedback and the input events run through the deriving plans
    /// that consume them — routed by type, in plan order (their
    /// pushed-down context windows gate inactive ones); appends the
    /// requested transitions to `transitions` in plan/chain order.
    /// Feedback events carry earlier timestamps than the transaction,
    /// so each runs ahead of it, as a slice of its own.
    pub fn run_derivation(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        run: &mut PartitionRun,
        transitions: &mut Vec<Transition>,
    ) {
        let Self {
            deriving,
            derivers,
            reach,
            sink,
            scratch,
            slots,
            ..
        } = self;
        // The plans some event reaches, ascending: the plan-major order
        // of a walk over all.
        reach.clear();
        for ev in run.feedback.iter().chain(events) {
            reach.extend(derivers.get(ev.type_id.index()).into_iter().flatten());
        }
        if reach.len() > 1 {
            reach.sort_unstable();
            reach.dedup();
        }
        sink.clear();
        for &plan in reach.iter() {
            let plan = &mut deriving[plan as usize];
            for ev in &run.feedback {
                if plan.consumes(ev.type_id) {
                    let ev = std::slice::from_ref(ev);
                    plan.process(ev, table, sink, scratch, slots);
                }
            }
            plan.process(events, table, sink, scratch, slots);
        }
        run.feedback.clear();
        // Deriving queries have no DERIVE clause: their chain output is
        // just the pass-through trigger match, not an output-stream
        // event — only the transitions matter.
        transitions.append(&mut sink.transitions);
    }

    /// Phase 2 of a transaction: context processing. The router has
    /// already selected the active plans (`active` holds indices into
    /// `processing`).
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
        let Self {
            processing,
            sink,
            slots,
            ..
        } = self;
        sink.clear();
        for &idx in active {
            processing[idx].process(events, table, sink, slots);
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
    /// the executing partition (§6.2 "Context Processing"), for the
    /// plans whose window holds `bit`:
    /// * plans scoped to `bit` alone discard their partial matches;
    /// * shared plans spanning other still-open member windows only
    ///   expire partials that started before every still-open member
    ///   window began (Figure 7's grouped-window expiry).
    pub fn on_context_terminated(&mut self, bit: u8, partition: PartitionId, table: &ContextTable) {
        fn reset_or_expire(
            plan: &QueryPlan,
            bit: u8,
            pc: &PartitionContexts,
            slots: &mut StateSlots,
        ) {
            let Some(Op::ContextWindow(cw)) = plan.ops.iter().find(|o| o.is_context_window())
            else {
                return;
            };
            // Earliest start among the member windows still open
            // (other than the terminated one).
            let earliest: Option<Time> = cw
                .bits()
                .filter(|&b| b != bit && pc.holds(b))
                .filter_map(|b| pc.open_span(b).map(|w| w.initiated))
                .min();
            plan.discard_history(earliest, slots);
        }
        let pc = table.partition(partition);
        let Self {
            deriving,
            processing,
            scoped,
            slots,
            ..
        } = self;
        // Gated shared-prefix groups are scoped to exactly the combined
        // plan's context window, like their members.
        for c in processing.iter().filter(|c| c.context_bit == bit) {
            c.reset_shared_gated(slots);
        }
        for &(combined, p) in scoped.get(usize::from(bit)).into_iter().flatten() {
            let plan = match combined {
                Some(c) => &processing[c].plans[p],
                None => &deriving[p],
            };
            reset_or_expire(plan, bit, pc, slots);
        }
    }

    /// Advances the executing partition's own watermark on every
    /// stateful operator that holds state there — visiting its slots in
    /// walk order, each when the walk reaches it, so a state a cascade
    /// created further on is walked too — pruning partial state and
    /// flushing matured trailing-negation matches through the chains;
    /// returns the earliest deadline of what the partition still holds.
    pub fn advance_time(
        &mut self,
        watermark: Time,
        table: &ContextTable,
        out: &mut PlanOutput,
    ) -> Time {
        let Self {
            deriving,
            processing,
            stateful,
            sink,
            scratch,
            slots,
            ..
        } = self;
        let mut next = Time::MAX;
        sink.clear();
        for (slot, at) in stateful.iter().enumerate() {
            if slots.peek(Some(slot as u32)).is_none() {
                continue;
            }
            let ops = match at.owner {
                Owner::Deriving(plan) => &mut deriving[plan].ops,
                Owner::Group { combined, group } => {
                    let group = &processing[combined].shared_groups()[group];
                    next = next.min(group.advance_time(slots.get(Some(slot as u32)), watermark));
                    continue;
                }
                Owner::Member { combined, plan } => {
                    let combined = &mut processing[combined];
                    next = next.min(combined.advance_member(plan, watermark, table, out, slots));
                    continue;
                }
            };
            // Transitions matter; pass-through matches are discarded
            // (see `run_derivation`).
            next = next.min(advance_chain_time(
                ops, watermark, table, sink, scratch, slots,
            ));
            out.transitions.append(&mut sink.transitions);
        }
        next
    }

    /// Fills `active` with the indices of the processing plans whose
    /// gate admits time `t` at `partition` — the context-aware router's
    /// batch-level selection, one context-table lookup per transaction.
    /// A plan with an empty gate is always selected.
    pub fn active_processing(
        &self,
        partition: PartitionId,
        t: Time,
        table: &ContextTable,
        active: &mut Vec<usize>,
    ) {
        active.clear();
        let pc = table.partition(partition);
        for (idx, bits) in self.gates.iter().enumerate() {
            if bits.is_empty() || bits.iter().any(|&b| pc.admits(b, t)) {
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
    use caesar_optimizer::{Mode, Optimizer};
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
        let program = Optimizer::default().optimize(t, &reg);
        let template = ProgramTemplate::build(program.executing(mode, share));
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
    fn baseline_appends_private_rederivers() {
        let (template, ..) = setup(false, Mode::ContextIndependent);
        // Two switch queries, then the private clones: idle has 1
        // processing query × 1 deriver; busy has 2 × 1.
        assert_eq!(template.deriving.len(), 2 + 3);
        for r in &template.deriving[2..] {
            assert!(
                !r.ops
                    .iter()
                    .any(|o| matches!(o, Op::ContextInit(_) | Op::ContextTerm(_))
                        || o.is_context_window()),
                "private re-derivers must not touch context state"
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
        template.slots.enter(&mut run.states);
        template.run_derivation(&[spike], &table, &mut run, &mut transitions);
        template.slots.leave(&mut run.states);
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
        template.slots.enter(&mut run.states);
        template.run_processing(&[reading(&reg, 5, 3)], &table, &active, &mut run, &mut out);
        // Ping fires in idle; Heavy (busy) suspended.
        let ping = reg.lookup("Ping").unwrap();
        assert!(out.events.iter().all(|e| e.type_id == ping));
        assert_eq!(out.events.len(), 1);
        // No deriving plan consumes Ping: nothing queues as feedback,
        // and these stateless plans leave nothing to store.
        template.slots.leave(&mut run.states);
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
        template.slots.enter(&mut run.states);
        template.run_processing(&[reading(&reg, 5, 50)], &table, &active, &mut run, &mut out);
        table.partition_mut(PartitionId(0)).terminate(busy_bit, 6);
        template.on_context_terminated(busy_bit, PartitionId(0), &table);
        template.slots.leave(&mut run.states);
        assert!(run.is_empty());
    }
}
