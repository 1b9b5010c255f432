//! Executable query plans.
//!
//! A [`QueryPlan`] is the chain of operators one event query compiles to
//! (§4.2, "Individual query plan construction", Table 1). A
//! [`CombinedPlan`] composes the individual plans of one context: "if one
//! query plan produces events which are consumed by another query plan
//! then the output of the first plan is the input of the second plan.
//! Since event queries in different contexts are independent, all event
//! queries in a combined query plan belong to the same context."

use crate::context_table::{ContextTable, Transition};
use crate::nfa::NfaStep;
use crate::ops::{
    advance_chain_time, run_chain_batch, run_chain_batch_items, ChainOutput, ChainScratch, Op,
};
use crate::pattern::{RunState, SharedGroup};
use caesar_events::{Event, Time, TypeId};
use caesar_query::ast::QueryId;
use caesar_query::queryset::CompiledQuery;
use serde::{Deserialize, Deserializer, Serialize};
use std::sync::Arc;

/// Re-export: the output sink of plan execution.
pub type PlanOutput = ChainOutput;

/// One query's executable operator chain (`ops\[0\]` is the bottom).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QueryPlan {
    /// The compiled query this plan executes.
    pub query_id: QueryId,
    /// Context the plan belongs to (every plan of a combined plan shares
    /// it, §4.2).
    pub context: String,
    /// Bit of that context in the context bit vector.
    pub context_bit: u8,
    /// The operator chain, bottom to top.
    pub ops: Vec<Op>,
    /// Event types consumed by the plan's pattern.
    pub input_types: Vec<TypeId>,
    /// Derived output type (processing queries only).
    pub output_type: Option<TypeId>,
    /// `true` for context-deriving queries.
    pub is_deriving: bool,
    /// The source query (kept for re-optimization and sharing
    /// analysis). Pure metadata, shared by every clone of the plan.
    pub source: Arc<CompiledQuery>,
}

impl QueryPlan {
    /// Feeds one event through the chain.
    pub fn process(
        &mut self,
        event: &Event,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut ChainScratch,
    ) {
        scratch.run_one(&mut self.ops, 0, event.clone(), table, out);
    }

    /// Feeds a same-`(partition, time)` run of events through the
    /// chain, skipping events the plan does not consume. Equivalent to
    /// calling [`process`] once per consumed event, but the bottom
    /// context-window probe (if any) and the traversal buffers amortize
    /// over the run (a selection vector means unconsumed events are
    /// skipped without copying).
    ///
    /// [`process`]: QueryPlan::process
    pub fn process_batch(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut ChainScratch,
    ) {
        // The selection buffer lives in the scratch too; it is taken out
        // so the chain may borrow the rest.
        let mut sel = std::mem::take(&mut scratch.sel);
        sel.clear();
        sel.extend(
            events
                .iter()
                .enumerate()
                .filter(|(_, e)| self.consumes(e.type_id))
                .map(|(i, _)| i as u32),
        );
        run_chain_batch(&mut self.ops, events, &mut sel, table, out, scratch);
        scratch.sel = sel;
    }

    /// Advances the watermark on stateful operators; returns the
    /// earliest deadline of the state left behind.
    pub fn advance_time(
        &mut self,
        watermark: Time,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut ChainScratch,
    ) -> Time {
        if !self.needs_advance() {
            return Time::MAX;
        }
        advance_chain_time(&mut self.ops, watermark, table, out, scratch)
    }

    /// Returns `true` if any operator holds time-sensitive state —
    /// watermark advances on stateless plans are no-ops and skipped.
    #[must_use]
    pub fn needs_advance(&self) -> bool {
        self.ops.iter().any(|op| match op {
            Op::Pattern(p) => p.has_state(),
            _ => false,
        })
    }

    /// Returns `true` if the plan consumes events of `type_id`.
    #[must_use]
    pub fn consumes(&self, type_id: TypeId) -> bool {
        self.input_types.contains(&type_id)
    }

    /// Position of the context window operator in the chain, if any.
    #[must_use]
    pub fn context_window_position(&self) -> Option<usize> {
        self.ops.iter().position(Op::is_context_window)
    }

    /// Position of the pattern operator in the chain, if any (prefix
    /// sharing needs the exact chain slot to resume above the pattern).
    #[must_use]
    pub fn pattern_position(&self) -> Option<usize> {
        self.ops.iter().position(Op::is_pattern)
    }

    /// Returns `true` if the context window sits at the very bottom of
    /// the chain (the push-down invariant of §5.2).
    #[must_use]
    pub fn is_context_window_pushed_down(&self) -> bool {
        self.context_window_position() == Some(0)
    }

    /// The resident run state of the pattern operator at chain slot
    /// `op` — where the runtime binds a partition's stored state for
    /// the duration of one transaction.
    ///
    /// # Panics
    ///
    /// Panics if `ops[op]` is not a pattern.
    pub fn run_state_mut(&mut self, op: usize) -> &mut RunState {
        match &mut self.ops[op] {
            Op::Pattern(p) => p.run_mut(),
            other => panic!("{} holds no run state", other.tag()),
        }
    }

    /// Read access to [`run_state_mut`](Self::run_state_mut)'s value.
    #[must_use]
    pub fn run_state(&self, op: usize) -> &RunState {
        match &self.ops[op] {
            Op::Pattern(p) => p.run(),
            other => panic!("{} holds no run state", other.tag()),
        }
    }

    /// Discards all partial state of the plan's stateful operators —
    /// called when the plan's context window ends (§6.2).
    pub fn reset_state(&mut self) {
        for op in &mut self.ops {
            if let Op::Pattern(p) = op {
                p.reset();
            }
        }
    }

    /// Expires partial matches started at or before `t` (context history
    /// expiry for grouped windows, Figure 7).
    pub fn expire_history(&mut self, t: Time) {
        for op in &mut self.ops {
            if let Op::Pattern(p) = op {
                p.expire_started_at_or_before(t);
            }
        }
    }

    /// One-line explain string, e.g.
    /// `Q3[congestion]: ContextWindow -> Pattern -> Filter -> Project`.
    #[must_use]
    pub fn explain(&self) -> String {
        let chain: Vec<&str> = self.ops.iter().map(Op::tag).collect();
        format!(
            "{}[{}]: {}",
            self.query_id,
            self.context,
            chain.join(" -> ")
        )
    }

    /// Live partial-match count across stateful operators.
    #[must_use]
    pub fn live_partials(&self) -> usize {
        self.ops
            .iter()
            .map(|op| match op {
                Op::Pattern(p) => p.live_partials(),
                _ => 0,
            })
            .sum()
    }
}

/// The combined query plan of one context: individual plans wired so
/// derived events flow to downstream consumers in the same context.
///
/// # Dispatch
///
/// An event reaches only the operators that can use it. The plan keeps
/// one routing table, `TypeId →` route, derived from the member
/// plans and the installed [`SharedGroup`]s (rebuilt whenever those
/// change and after deserialization; never part of the serialized
/// form). Every traversal — the external pass, the derived-event
/// cascade, both batch paths and the watermark flush — reads it:
///
/// * a member plan's chain runs for the types its *own* operators
///   mention; for a member of a shared-prefix group those are the steps
///   above the boundary step and the negations, not the delegated
///   prefix;
/// * a member's boundary step is tried against the group's full
///   prefixes exactly when the event carries that step's type;
/// * a group advances exactly when one of its steps has the type, and
///   a gated group's window probe runs once per event.
///
/// Emission order is that of feeding every consumer every event:
/// members in ascending plan index, a member's own chain before its
/// boundary crossings, derived events cascading LIFO to later members,
/// groups advancing last.
#[derive(Debug, Clone, Serialize)]
pub struct CombinedPlan {
    /// The shared context.
    pub context: String,
    /// Its bit in the context bit vector.
    pub context_bit: u8,
    /// Member plans in topological (producer-before-consumer) order.
    pub plans: Vec<QueryPlan>,
    /// Types consumed from the *external* input stream (not produced by
    /// a member plan).
    pub external_inputs: Vec<TypeId>,
    /// Shared pattern-prefix groups installed by the optimizer (§5
    /// workload sharing, extended to sequence prefixes). Empty when the
    /// engine does not share or no eligible group was found.
    shared: Vec<SharedGroup>,
    /// The routing table, indexed by [`TypeId::index`].
    #[serde(skip)]
    routes: Vec<Route>,
    /// Reusable execution buffers (always empty between calls; not part
    /// of the plan's persistent state).
    #[serde(skip)]
    scratch: CombinedScratch,
}

/// Where events of one type go in a [`CombinedPlan`].
#[derive(Debug, Clone, Default)]
struct Route {
    /// The type arrives on the external input stream (no member plan
    /// produces it).
    external: bool,
    /// A transaction carrying this type may execute plan-major. That
    /// runs each member plan over the *whole* run before any
    /// member-produced event is offered downstream, which is
    /// unobservable unless a member fed this type also consumes a type
    /// produced by a member plan — it would see its two input streams
    /// in a different interleaving than per-event execution (stateful
    /// patterns and negation buffers observe input order) — or the type
    /// reaches a shared group, whose state interleaves with its
    /// members' per event.
    plan_major: bool,
    /// Whether a gated group is among `groups`: the event needs the
    /// context-window probe.
    gated: bool,
    /// Member plans that use the type, in ascending plan index.
    members: Vec<MemberRoute>,
    /// Shared groups the type reaches.
    groups: Vec<GroupRoute>,
}

/// One member plan's use of an event type.
#[derive(Debug, Clone, Copy)]
struct MemberRoute {
    /// Index into [`CombinedPlan::plans`].
    plan: usize,
    /// Run the member's chain from the bottom: one of its own steps
    /// (above a delegated prefix's boundary step) or negations has the
    /// type.
    feed: bool,
    /// `(group, pattern position)`: the member's boundary step has the
    /// type — try the group's full prefixes at the member's pattern.
    boundary: Option<(usize, usize)>,
}

/// One shared group's use of an event type.
#[derive(Debug, Clone, Copy)]
struct GroupRoute {
    /// Index into the plan's shared groups.
    group: usize,
    /// One of the group's prefix steps has the type (otherwise the
    /// type only crosses members' boundaries).
    advance: bool,
}

/// Reusable per-transaction buffers of a [`CombinedPlan`]. Every buffer
/// is empty between calls, so skipping it on snapshots (and cloning it
/// along with the plan) is free and harmless.
#[derive(Debug, Clone, Default)]
struct CombinedScratch {
    /// Shared chain-traversal buffers.
    chain: ChainScratch,
    /// Distinct externally consumed types of the transaction.
    types: Vec<TypeId>,
    /// Per-member selection vectors of the plan-major pass.
    sels: Vec<Vec<u32>>,
    /// Per-member row-tagged outputs of the plan-major pass.
    plan_outs: Vec<Vec<(u32, Event)>>,
    /// Per-member row-tagged transitions of the plan-major pass.
    plan_trans: Vec<Vec<(u32, Transition)>>,
    /// Per-member cursors into `plan_outs` during the per-row merge.
    cursors: Vec<usize>,
    /// Per-member cursors into `plan_trans`.
    tcursors: Vec<usize>,
    /// Worklist of derived events cascading to downstream members:
    /// `(producer plan index + 1, event)` — derived events are only
    /// offered to later plans (topological order prevents cycles).
    work: Vec<(usize, Event)>,
    /// Sink for member-plan chain runs.
    inner: ChainOutput,
    /// Matches produced by shared-prefix boundary crossings, before they
    /// resume the member chain above the pattern.
    boundary: Vec<Event>,
    /// One member plan's output of a watermark advance, before its
    /// matured matches cascade downstream.
    matured: ChainOutput,
}

impl CombinedScratch {
    /// Runs `event` through `ops[start..]` of member `plan`: the
    /// chain's transitions and derived events move to `out`, and the
    /// derived events queue for the members after `plan`.
    fn run_member(
        &mut self,
        ops: &mut [Op],
        start: usize,
        event: Event,
        plan: usize,
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        self.inner.clear();
        self.chain
            .run_one(ops, start, event, table, &mut self.inner);
        out.transitions.append(&mut self.inner.transitions);
        for derived in self.inner.events.drain(..) {
            out.events.push(derived.clone());
            self.work.push((plan + 1, derived));
        }
    }
}

impl Route {
    /// Notes that the type reaches `group`, to advance it or only to
    /// cross members' boundaries.
    fn reach(&mut self, group: usize, advance: bool) {
        match self.groups.iter_mut().find(|r| r.group == group) {
            Some(r) => r.advance |= advance,
            None => self.groups.push(GroupRoute { group, advance }),
        }
    }
}

/// Builds the routing table of a combined plan (see [`CombinedPlan`]).
/// Every group member must point at a pattern that delegates the
/// group's prefix (`install_shared_prefixes` and `deserialize` see to
/// that).
fn build_routes(plans: &[QueryPlan], external: &[TypeId], shared: &[SharedGroup]) -> Vec<Route> {
    let types = plans.iter().flat_map(|p| p.input_types.iter());
    let len = types.map(|t| t.index() + 1).max().unwrap_or(0);
    let mut routes = vec![
        Route {
            plan_major: true,
            ..Route::default()
        };
        len
    ];
    for t in external {
        routes[t.index()].external = true;
    }
    // (group, pattern position) of the plans that are group members.
    let mut member_of: Vec<Option<(usize, usize)>> = vec![None; plans.len()];
    for (g, group) in shared.iter().enumerate() {
        for m in group.members() {
            member_of[m.plan] = Some((g, m.pattern_pos));
        }
        for step in group.steps() {
            routes[step.type_id.index()].reach(g, true);
        }
    }
    let produced: Vec<TypeId> = plans.iter().filter_map(|p| p.output_type).collect();
    for (idx, plan) in plans.iter().enumerate() {
        let consumes_derived = produced.iter().any(|&t| plan.consumes(t));
        for &t in &plan.input_types {
            // A member's delegated prefix and boundary step are not its
            // chain's business; everything else it lists is.
            let (feed, boundary) = match member_of[idx] {
                None => (true, None),
                Some((g, pos)) => {
                    let Op::Pattern(p) = &plan.ops[pos] else {
                        unreachable!("group members point at patterns");
                    };
                    let (delegated, own) = p.steps().split_at(p.shared_prefix_len() + 1);
                    let has = |steps: &[NfaStep]| steps.iter().any(|s| s.type_id == t);
                    let own = has(own) || p.negations().iter().any(|n| n.type_id == t);
                    let boundary = delegated.last().is_some_and(|s| s.type_id == t);
                    (own || !has(delegated), boundary.then_some((g, pos)))
                }
            };
            let route = &mut routes[t.index()];
            if feed || boundary.is_some() {
                route.members.push(MemberRoute {
                    plan: idx,
                    feed,
                    boundary,
                });
            }
            route.plan_major &= !(feed && consumes_derived);
            if let Some((group, _)) = boundary {
                route.reach(group, false);
            }
        }
    }
    for route in &mut routes {
        route.groups.sort_unstable_by_key(|g| g.group);
        route.gated = route.groups.iter().any(|g| shared[g.group].gated());
        route.plan_major &= route.groups.is_empty();
    }
    routes
}

impl CombinedPlan {
    /// Builds a combined plan from topologically ordered member plans.
    #[must_use]
    pub fn new(context: String, context_bit: u8, plans: Vec<QueryPlan>) -> Self {
        let produced: Vec<TypeId> = plans.iter().filter_map(|p| p.output_type).collect();
        let mut external: Vec<TypeId> = plans
            .iter()
            .flat_map(|p| p.input_types.iter().copied())
            .filter(|t| !produced.contains(t))
            .collect();
        external.sort_unstable();
        external.dedup();
        let routes = build_routes(&plans, &external, &[]);
        Self {
            context,
            context_bit,
            plans,
            external_inputs: external,
            shared: Vec::new(),
            routes,
            scratch: CombinedScratch::default(),
        }
    }

    /// Installs shared pattern-prefix groups, marking each member
    /// pattern's delegated prefix length. Must run before any event is
    /// processed (the members' below-boundary levels move to the group).
    ///
    /// # Panics
    ///
    /// Panics if a member reference does not point at a pattern
    /// operator.
    pub fn install_shared_prefixes(&mut self, groups: Vec<SharedGroup>) {
        for g in &groups {
            for m in g.members() {
                match &mut self.plans[m.plan].ops[m.pattern_pos] {
                    Op::Pattern(p) => p.set_shared_prefix_len(g.prefix_len()),
                    other => panic!(
                        "shared member points at {} — expected a pattern",
                        other.tag()
                    ),
                }
            }
        }
        self.shared = groups;
        self.routes = build_routes(&self.plans, &self.external_inputs, &self.shared);
    }

    /// The installed shared-prefix groups.
    #[must_use]
    pub fn shared_groups(&self) -> &[SharedGroup] {
        &self.shared
    }

    /// The resident run state of shared-prefix group `group` (see
    /// [`QueryPlan::run_state_mut`]).
    pub fn group_run_mut(&mut self, group: usize) -> &mut RunState {
        self.shared[group].run_mut()
    }

    /// Read access to [`group_run_mut`](Self::group_run_mut)'s value.
    #[must_use]
    pub fn group_run(&self, group: usize) -> &RunState {
        self.shared[group].run()
    }

    /// Returns `true` if the combined plan consumes `type_id` from the
    /// external input stream.
    #[must_use]
    pub fn consumes_external(&self, type_id: TypeId) -> bool {
        self.routes.get(type_id.index()).is_some_and(|r| r.external)
    }

    /// Feeds one external event through the combined plan. Derived events
    /// flow to downstream member plans *and* to `out.events` (they are
    /// part of the output stream).
    pub fn process(&mut self, event: &Event, table: &ContextTable, out: &mut PlanOutput) {
        let Self {
            plans,
            shared,
            routes,
            context_bit,
            scratch,
            ..
        } = self;
        Self::process_one(
            plans,
            shared,
            routes,
            *context_bit,
            event,
            table,
            out,
            scratch,
        );
    }

    /// The per-event traversal behind [`process`](Self::process) and the
    /// event-major batch path, in the order the type's [`Route`] lists:
    /// each member plan that uses the event runs its chain and then
    /// tries its shared-prefix boundary — the exact chain position where
    /// unshared execution would have completed those matches — then the
    /// derived events cascade to downstream members, and finally the
    /// shared prefixes advance (after the members, so a prefix completed
    /// by this event is never also extended by it).
    #[allow(clippy::too_many_arguments)] // split borrows of `self`, so batch loops can hold the event slice
    fn process_one(
        plans: &mut [QueryPlan],
        shared: &mut [SharedGroup],
        routes: &[Route],
        context_bit: u8,
        event: &Event,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
    ) {
        debug_assert!(scratch.work.is_empty());
        let Some(route) = routes.get(event.type_id.index()) else {
            return;
        };
        // One window probe per event decides for every gated group.
        let holds = !route.gated || table.admits(event.partition, context_bit, event.time());
        for g in &route.groups {
            shared[g.group].record_probe(holds);
        }
        for m in &route.members {
            let plan = &mut plans[m.plan];
            if m.feed {
                scratch.run_member(&mut plan.ops, 0, event.clone(), m.plan, table, out);
            }
            let Some((g, pos)) = m.boundary else { continue };
            if !shared[g].open(holds) {
                continue;
            }
            let mut crossed = std::mem::take(&mut scratch.boundary);
            debug_assert!(crossed.is_empty());
            if let Op::Pattern(p) = &mut plan.ops[pos] {
                p.cross_boundary(&shared[g], event, &mut crossed);
            }
            for matched in crossed.drain(..) {
                scratch.run_member(&mut plan.ops, pos + 1, matched, m.plan, table, out);
            }
            scratch.boundary = crossed;
        }
        Self::cascade(plans, routes, table, out, scratch);
        for g in &route.groups {
            let group = &mut shared[g.group];
            if g.advance && group.open(holds) {
                group.advance(event);
            }
        }
    }

    /// Drains the worklist of derived events: each goes to the later
    /// members whose chains use its type, whose own derived events join
    /// the worklist (LIFO).
    fn cascade(
        plans: &mut [QueryPlan],
        routes: &[Route],
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
    ) {
        while let Some((start, ev)) = scratch.work.pop() {
            let Some(route) = routes.get(ev.type_id.index()) else {
                continue;
            };
            for m in route.members.iter().filter(|m| m.plan >= start && m.feed) {
                scratch.run_member(&mut plans[m.plan].ops, 0, ev.clone(), m.plan, table, out);
            }
        }
    }

    /// Feeds a same-`(partition, time)` run of external events through
    /// the combined plan. Equivalent to calling [`process`] once per
    /// consumed event in slice order — member plans see the exact same
    /// event sequence and `out` receives the exact same outputs — but
    /// executed *plan-major* where that is unobservable (no member fed
    /// the run also consumes member-produced events, no shared group is
    /// reached): each member plan consumes the whole run before the next
    /// starts (one context-window probe per run, a selection vector of
    /// its rows), and the per-plan
    /// outputs are merged back into per-event order by their input-row
    /// tags. All buffers come from the plan's scratch, so the steady
    /// state allocates nothing.
    ///
    /// [`process`]: CombinedPlan::process
    pub fn process_batch(&mut self, events: &[Event], table: &ContextTable, out: &mut PlanOutput) {
        // Distinct externally consumed types of the transaction (almost
        // always exactly 1).
        let mut types = std::mem::take(&mut self.scratch.types);
        types.clear();
        for e in events {
            if self.consumes_external(e.type_id) && !types.contains(&e.type_id) {
                types.push(e.type_id);
            }
        }
        if types.is_empty() {
            self.scratch.types = types;
            return;
        }
        if types.iter().all(|t| self.routes[t.index()].plan_major) {
            self.process_batch_plan_major(events, &types, table, out);
        } else {
            self.process_batch_event_major(events, &types, table, out);
        }
        self.scratch.types = types;
    }

    /// The batched hot path: each member plan consumes its selection of
    /// the run batch-at-a-time into row-tagged sinks; the merge then
    /// walks the input rows with one cursor per member, replaying the
    /// per-event emission order exactly — for each row, member plans in
    /// topological order, then the LIFO cascade of derived events
    /// through downstream members (see [`process`]). The per-plan sinks
    /// are already row-ordered (selections ascend), so the merge is a
    /// linear cursor walk with no sort.
    ///
    /// [`process`]: CombinedPlan::process
    fn process_batch_plan_major(
        &mut self,
        events: &[Event],
        types: &[TypeId],
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        let Self {
            plans,
            routes,
            scratch,
            ..
        } = self;
        let n = plans.len();
        scratch.sels.resize_with(n, Vec::new);
        scratch.plan_outs.resize_with(n, Vec::new);
        scratch.plan_trans.resize_with(n, Vec::new);
        scratch.sels.iter_mut().for_each(Vec::clear);
        for (row, e) in events.iter().enumerate() {
            if types.contains(&e.type_id) {
                for m in &routes[e.type_id.index()].members {
                    scratch.sels[m.plan].push(row as u32);
                }
            }
        }
        for (idx, plan) in plans.iter_mut().enumerate() {
            let outs = &mut scratch.plan_outs[idx];
            let trans = &mut scratch.plan_trans[idx];
            outs.clear();
            trans.clear();
            run_chain_batch_items(
                &mut plan.ops,
                events,
                &mut scratch.sels[idx],
                table,
                &mut scratch.chain,
                outs,
                trans,
            );
        }
        scratch.cursors.clear();
        scratch.cursors.resize(n, 0);
        scratch.tcursors.clear();
        scratch.tcursors.resize(n, 0);
        debug_assert!(scratch.work.is_empty());
        for (row_idx, e) in events.iter().enumerate() {
            if !types.contains(&e.type_id) {
                continue;
            }
            let row = row_idx as u32;
            for idx in 0..n {
                while let Some((r, ev)) = scratch.plan_outs[idx].get(scratch.cursors[idx]) {
                    if *r != row {
                        break;
                    }
                    out.events.push(ev.clone());
                    scratch.work.push((idx + 1, ev.clone()));
                    scratch.cursors[idx] += 1;
                }
                while let Some((r, t)) = scratch.plan_trans[idx].get(scratch.tcursors[idx]) {
                    if *r != row {
                        break;
                    }
                    out.transitions.push(*t);
                    scratch.tcursors[idx] += 1;
                }
            }
            // Cascade this row's derived events to downstream members —
            // plan-major legality guarantees no member consuming them
            // also consumed the external run, so their state still sees
            // inputs in per-event order.
            Self::cascade(plans, routes, table, out, scratch);
        }
        // Cursor walks must have drained every sink: each output's row
        // tag is a selected row of `types`-membership, all visited.
        debug_assert!((0..n).all(|i| scratch.cursors[i] == scratch.plan_outs[i].len()));
        debug_assert!((0..n).all(|i| scratch.tcursors[i] == scratch.plan_trans[i].len()));
    }

    /// Event-major execution for the transactions where plan-major
    /// reordering would be observable — identical traversal to
    /// [`process`] per event, but reusing the plan's scratch buffers.
    ///
    /// [`process`]: CombinedPlan::process
    fn process_batch_event_major(
        &mut self,
        events: &[Event],
        types: &[TypeId],
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        let Self {
            plans,
            shared,
            routes,
            context_bit,
            scratch,
            ..
        } = self;
        for event in events {
            if !types.contains(&event.type_id) {
                continue;
            }
            Self::process_one(
                plans,
                shared,
                routes,
                *context_bit,
                event,
                table,
                out,
                scratch,
            );
        }
    }

    /// Advances the watermark on all member plans, feeding any matured
    /// matches to downstream consumers. Shared-prefix groups prune their
    /// partials by the same horizon. Returns the earliest deadline of
    /// the state left behind — a cascade only feeds later members, so
    /// each is walked after everything it could receive.
    pub fn advance_time(
        &mut self,
        watermark: Time,
        table: &ContextTable,
        out: &mut PlanOutput,
    ) -> Time {
        let groups = self.shared.iter_mut();
        let mut next = groups.fold(Time::MAX, |next, g| next.min(g.advance_time(watermark)));
        let Self {
            plans,
            routes,
            scratch,
            ..
        } = self;
        let mut matured = std::mem::take(&mut scratch.matured);
        for idx in 0..plans.len() {
            if !plans[idx].needs_advance() {
                continue;
            }
            matured.clear();
            let plan = &mut plans[idx];
            next = next.min(plan.advance_time(watermark, table, &mut matured, &mut scratch.chain));
            out.transitions.append(&mut matured.transitions);
            // Feed matured matches to downstream members, one full
            // cascade per match (the per-event order).
            for derived in matured.events.drain(..) {
                out.events.push(derived.clone());
                debug_assert!(scratch.work.is_empty());
                scratch.work.push((idx + 1, derived));
                Self::cascade(plans, routes, table, out, scratch);
            }
        }
        scratch.matured = matured;
        next
    }

    /// Resets the partial state of every member plan (context window
    /// ended) and of every shared-prefix group.
    pub fn reset_state(&mut self) {
        for p in &mut self.plans {
            p.reset_state();
        }
        for g in &mut self.shared {
            g.reset();
        }
    }

    /// Resets the *gated* shared-prefix groups — called when this plan's
    /// context window terminates. Gated members are scoped to exactly
    /// that window (eligibility forbids extra bits), so their private
    /// state is reset at the same moment; ungated groups mirror their
    /// window-free members and keep their state.
    pub fn reset_shared_gated(&mut self) {
        for g in &mut self.shared {
            if g.gated() {
                g.reset();
            }
        }
    }

    /// Total number of queries in the combined plan.
    #[must_use]
    pub fn len(&self) -> usize {
        self.plans.len()
    }

    /// Returns `true` if the combined plan has no member plans.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.plans.is_empty()
    }

    /// Multi-line explain output: the member plans, then every
    /// installed shared-prefix group.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut s = format!("CombinedPlan[{}] ({} queries)\n", self.context, self.len());
        for p in &self.plans {
            s.push_str("  ");
            s.push_str(&p.explain());
            s.push('\n');
        }
        s.push_str(&self.explain_shared());
        s
    }

    /// One explain line per installed shared-prefix group: the shared
    /// steps, the prefix length, whether the group gates on the context
    /// window, and the member queries.
    #[must_use]
    pub fn explain_shared(&self) -> String {
        let mut s = String::new();
        for (g, group) in self.shared.iter().enumerate() {
            let steps: Vec<String> = group
                .steps()
                .iter()
                .map(|s| s.type_id.to_string())
                .collect();
            let members: Vec<String> = group
                .members()
                .iter()
                .map(|m| self.plans[m.plan].query_id.to_string())
                .collect();
            s.push_str(&format!(
                "  shared prefix {g}: SEQ({}), length {}, {}, members {}\n",
                steps.join(", "),
                group.prefix_len(),
                if group.gated() { "gated" } else { "ungated" },
                members.join(", ")
            ));
        }
        s
    }
}

// The routing table is derived data: absent from the bytes, rebuilt
// here. Snapshots come from disk, so the group members are checked
// before anything indexes by them.
impl Deserialize for CombinedPlan {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let context = String::deserialize(de)?;
        let context_bit = u8::deserialize(de)?;
        let plans = Vec::<QueryPlan>::deserialize(de)?;
        let external_inputs = Vec::<TypeId>::deserialize(de)?;
        let shared = Vec::<SharedGroup>::deserialize(de)?;
        for group in &shared {
            for m in group.members() {
                let op = plans.get(m.plan).and_then(|p| p.ops.get(m.pattern_pos));
                let delegated = match op {
                    Some(Op::Pattern(p)) if p.arity() > group.prefix_len() => p.shared_prefix_len(),
                    _ => 0,
                };
                if delegated != group.prefix_len() {
                    return Err(serde::Error::custom(
                        "shared-prefix member does not point at a pattern delegating the group's prefix",
                    ));
                }
            }
        }
        let routes = build_routes(&plans, &external_inputs, &shared);
        Ok(Self {
            context,
            context_bit,
            plans,
            external_inputs,
            shared,
            routes,
            scratch: CombinedScratch::default(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompiledExpr;
    use crate::ops::{ContextWindowOp, ProjectOp};
    use crate::pattern::PatternOp;
    use caesar_events::{AttrType, PartitionId, Schema, SchemaRegistry, Value};
    use caesar_query::ast::{EventQuery, Pattern};

    fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("In", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Mid", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Final", &[("v", AttrType::Int)]))
            .unwrap();
        reg
    }

    fn dummy_source(id: u32) -> CompiledQuery {
        CompiledQuery {
            id: QueryId(id),
            query: EventQuery {
                name: None,
                action: None,
                derive: None,
                pattern: Pattern::event_unbound("In"),
                where_clause: None,
                within: None,
                contexts: vec!["c".into()],
            },
            context: "c".into(),
            source: id,
        }
    }

    /// Plan: passthrough(In) -> Project(out_ty, [v]).
    fn relay_plan(reg: &SchemaRegistry, id: u32, input: &str, output: &str) -> QueryPlan {
        let in_ty = reg.lookup(input).unwrap();
        let out_ty = reg.lookup(output).unwrap();
        QueryPlan {
            query_id: QueryId(id),
            context: "c".into(),
            context_bit: 0,
            ops: vec![
                Op::Pattern(PatternOp::passthrough(in_ty)),
                Op::Project(ProjectOp::new(
                    out_ty,
                    vec![CompiledExpr::Attr { slot: 0, attr: 0 }],
                )),
            ],
            input_types: vec![in_ty],
            output_type: Some(out_ty),
            is_deriving: false,
            source: dummy_source(id).into(),
        }
    }

    fn in_event(reg: &SchemaRegistry, t: Time, v: i64) -> Event {
        Event::simple(
            reg.lookup("In").unwrap(),
            t,
            PartitionId(0),
            vec![Value::Int(v)],
        )
    }

    #[test]
    fn combined_plan_chains_producers_to_consumers() {
        let reg = registry();
        // In -> Mid -> Final, like Figure 6(a)'s two composed queries.
        let p1 = relay_plan(&reg, 0, "In", "Mid");
        let p2 = relay_plan(&reg, 1, "Mid", "Final");
        let mut combined = CombinedPlan::new("c".into(), 0, vec![p1, p2]);
        assert_eq!(combined.external_inputs, vec![reg.lookup("In").unwrap()]);
        assert!(combined.consumes_external(reg.lookup("In").unwrap()));
        assert!(!combined.consumes_external(reg.lookup("Mid").unwrap()));

        let table = ContextTable::new(1, 0);
        let mut out = PlanOutput::default();
        combined.process(&in_event(&reg, 5, 42), &table, &mut out);
        // Both the intermediate and the final derived event are output.
        assert_eq!(out.events.len(), 2);
        let types: Vec<TypeId> = out.events.iter().map(|e| e.type_id).collect();
        assert!(types.contains(&reg.lookup("Mid").unwrap()));
        assert!(types.contains(&reg.lookup("Final").unwrap()));
    }

    #[test]
    fn derived_events_do_not_flow_backwards() {
        let reg = registry();
        // p2 consumes Mid and produces Final; p1 consumes In and
        // produces Mid. Order: p2 first (wrong topological order on
        // purpose) — Mid produced by p1 must NOT reach p2 at index 0.
        let p2 = relay_plan(&reg, 1, "Mid", "Final");
        let p1 = relay_plan(&reg, 0, "In", "Mid");
        let mut combined = CombinedPlan::new("c".into(), 0, vec![p2, p1]);
        let table = ContextTable::new(1, 0);
        let mut out = PlanOutput::default();
        combined.process(&in_event(&reg, 5, 42), &table, &mut out);
        assert_eq!(out.events.len(), 1, "only Mid; Final not produced");
    }

    #[test]
    fn combined_batch_matches_per_event() {
        let reg = registry();
        let p1 = relay_plan(&reg, 0, "In", "Mid");
        let p2 = relay_plan(&reg, 1, "Mid", "Final");
        let mut per_event = CombinedPlan::new("c".into(), 0, vec![p1, p2]);
        let mut batched = per_event.clone();
        let table = ContextTable::new(1, 0);
        let events: Vec<Event> = (0..6).map(|i| in_event(&reg, 5, i)).collect();

        let mut out_a = PlanOutput::default();
        for e in &events {
            if per_event.consumes_external(e.type_id) {
                per_event.process(e, &table, &mut out_a);
            }
        }
        let mut out_b = PlanOutput::default();
        batched.process_batch(&events, &table, &mut out_b);
        assert_eq!(out_a.events, out_b.events);
        assert_eq!(out_a.transitions, out_b.transitions);
    }

    #[test]
    fn query_plan_batch_skips_unconsumed_types() {
        let reg = registry();
        let mut plan = relay_plan(&reg, 0, "In", "Mid");
        let table = ContextTable::new(1, 0);
        let mid = Event::simple(
            reg.lookup("Mid").unwrap(),
            5,
            PartitionId(0),
            vec![Value::Int(1)],
        );
        // Mixed batch: only the two In events are consumed.
        let events = vec![in_event(&reg, 5, 1), mid, in_event(&reg, 5, 2)];
        let mut out = PlanOutput::default();
        plan.process_batch(&events, &table, &mut out, &mut ChainScratch::default());
        assert_eq!(out.events.len(), 2);
        assert_eq!(out.events[0].attrs[0], Value::Int(1));
        assert_eq!(out.events[1].attrs[0], Value::Int(2));
    }

    #[test]
    fn plan_introspection() {
        let reg = registry();
        let mut plan = relay_plan(&reg, 3, "In", "Mid");
        assert!(plan.context_window_position().is_none());
        plan.ops
            .insert(0, Op::ContextWindow(ContextWindowOp::new(0)));
        assert_eq!(plan.context_window_position(), Some(0));
        assert!(plan.is_context_window_pushed_down());
        let explain = plan.explain();
        assert!(
            explain.contains("ContextWindow -> Pattern -> Project"),
            "{explain}"
        );
    }

    /// `SEQ(In, tail)` deriving `out`, pattern at the chain bottom.
    fn seq_plan(reg: &SchemaRegistry, id: u32, tail: &str, out: &str) -> QueryPlan {
        let types = [reg.lookup("In").unwrap(), reg.lookup(tail).unwrap()];
        let out_ty = reg.lookup(out).unwrap();
        let seq = crate::nfa::PatternBuilder::new(out_ty)
            .then(types[0])
            .then(types[1])
            .within(1000)
            .offsets(vec![0, 1])
            .build();
        QueryPlan {
            query_id: QueryId(id),
            context: "c".into(),
            context_bit: 0,
            ops: vec![Op::Pattern(seq)],
            input_types: types.to_vec(),
            output_type: Some(out_ty),
            is_deriving: false,
            source: dummy_source(id).into(),
        }
    }

    #[test]
    fn routing_table_is_rebuilt_not_serialized() {
        use crate::pattern::SharedMember;
        use serde::Serializer;
        let mut reg = registry();
        for name in ["OutMid", "OutFinal"] {
            reg.register(Schema::new(name, &[("v", AttrType::Int)]))
                .unwrap();
        }
        let plans = vec![
            seq_plan(&reg, 0, "Mid", "OutMid"),
            seq_plan(&reg, 1, "Final", "OutFinal"),
        ];
        let prefix = match &plans[0].ops[0] {
            Op::Pattern(p) => p.steps()[..1].to_vec(),
            _ => unreachable!(),
        };
        let member = |plan| SharedMember {
            plan,
            pattern_pos: 0,
        };
        let mut combined = CombinedPlan::new("c".into(), 0, plans);
        combined.install_shared_prefixes(vec![SharedGroup::new(
            prefix,
            1000,
            false,
            vec![member(0), member(1)],
        )]);

        // The bytes are the five persistent fields and nothing else.
        let bytes = serde::to_bytes(&combined);
        let mut fields = Serializer::new();
        combined.context.serialize(&mut fields);
        combined.context_bit.serialize(&mut fields);
        combined.plans.serialize(&mut fields);
        combined.external_inputs.serialize(&mut fields);
        combined.shared.serialize(&mut fields);
        assert_eq!(bytes, fields.into_bytes());

        // A deserialized plan routes like the one it was written from.
        let mut restored: CombinedPlan = serde::from_bytes(&bytes).unwrap();
        let table = ContextTable::new(1, 0);
        let stream: Vec<Event> = [("In", 1), ("Mid", 2), ("In", 3), ("Final", 4)]
            .into_iter()
            .map(|(ty, t)| {
                Event::simple(
                    reg.lookup(ty).unwrap(),
                    t,
                    PartitionId(0),
                    vec![Value::Int(t as i64)],
                )
            })
            .collect();
        let (mut out_a, mut out_b) = (PlanOutput::default(), PlanOutput::default());
        for e in &stream {
            assert!(restored.consumes_external(e.type_id));
            combined.process(e, &table, &mut out_a);
            restored.process(e, &table, &mut out_b);
        }
        assert_eq!(out_a.events.len(), 3, "(1,2), (1,4), (3,4)");
        assert_eq!(out_a.events, out_b.events);

        // A member reference that points nowhere is refused, not indexed.
        let mut broken = combined.clone();
        broken.plans.pop();
        assert!(serde::from_bytes::<CombinedPlan>(&serde::to_bytes(&broken)).is_err());
    }

    #[test]
    fn reset_clears_member_state() {
        let reg = registry();
        let in_ty = reg.lookup("In").unwrap();
        let mid_ty = reg.lookup("Mid").unwrap();
        // A 2-element sequence keeps partials.
        let seq = crate::nfa::PatternBuilder::new(reg.lookup("Final").unwrap())
            .then(in_ty)
            .then(mid_ty)
            .within(1000)
            .offsets(vec![0, 1])
            .build();
        let plan = QueryPlan {
            query_id: QueryId(0),
            context: "c".into(),
            context_bit: 0,
            ops: vec![Op::Pattern(seq)],
            input_types: vec![in_ty, mid_ty],
            output_type: Some(reg.lookup("Final").unwrap()),
            is_deriving: false,
            source: dummy_source(0).into(),
        };
        let mut combined = CombinedPlan::new("c".into(), 0, vec![plan]);
        let table = ContextTable::new(1, 0);
        let mut out = PlanOutput::default();
        combined.process(&in_event(&reg, 1, 7), &table, &mut out);
        assert_eq!(combined.plans[0].live_partials(), 1);
        combined.reset_state();
        assert_eq!(combined.plans[0].live_partials(), 0);
    }
}
