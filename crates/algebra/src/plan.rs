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
use crate::pattern::{SharedGroup, StateSlots};
use caesar_events::{Event, Time, TypeId};
use caesar_query::ast::QueryId;
use caesar_query::queryset::CompiledQuery;
use serde::Serialize;
use std::sync::Arc;

/// Re-export: the output sink of plan execution.
pub type PlanOutput = ChainOutput;

/// One query's executable operator chain (`ops\[0\]` is the bottom).
#[derive(Debug, Clone, Serialize)]
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
    /// Feeds a same-`(partition, time)` run of events through the
    /// chain, its pattern's run state in `slots`, skipping events the
    /// plan does not consume: outputs and counters are those of the
    /// events walking the chain one by one, but the bottom
    /// context-window probe (if any) and the traversal buffers amortize
    /// over the run (a selection vector means unconsumed events are
    /// skipped without copying).
    pub fn process(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut ChainScratch,
        slots: &mut StateSlots,
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
        run_chain_batch(&mut self.ops, events, &sel, table, out, scratch, slots);
        scratch.sel = sel;
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

    /// Discards the partial state the plan's stateful operators hold in
    /// `slots` as its context window ends (§6.2): all of it, or — while
    /// grouped windows continue (Figure 7) — the partial matches started
    /// at or before `started_by`.
    pub fn discard_history(&self, started_by: Option<Time>, slots: &mut StateSlots) {
        for op in &self.ops {
            let Op::Pattern(p) = op else { continue };
            let Some(run) = slots.held_mut(p.slot()) else {
                continue;
            };
            match started_by {
                None => run.reset(),
                Some(t) => run.expire_started_at_or_before(t),
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
}

/// The combined query plan of one context: individual plans wired so
/// derived events flow to downstream consumers in the same context.
///
/// # Dispatch
///
/// An event reaches only the operators that can use it. The plan keeps
/// one routing table, `TypeId →` route, derived from the member
/// plans and the installed [`SharedGroup`]s (rebuilt whenever those
/// change; never part of the plan's encoding). Every traversal — the
/// external pass, the derived-event cascade, the plan-major pass and
/// the watermark flush — reads it:
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
/// is empty between calls, so leaving it out of the encoding (and
/// cloning it along with the plan) is free and harmless.
#[derive(Debug, Clone, Default)]
struct CombinedScratch {
    /// Shared chain-traversal buffers.
    chain: ChainScratch,
    /// The transaction's rows of externally consumed types.
    rows: Vec<u32>,
    /// The members the plan-major pass runs, ascending.
    members: Vec<usize>,
    /// Per-member buffers of the plan-major pass, by plan index.
    lanes: Vec<Lane>,
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

/// One member plan's buffers in a plan-major pass (empty, cursors at
/// zero, between calls).
#[derive(Debug, Clone, Default)]
struct Lane {
    /// The rows routed to the member.
    sel: Vec<u32>,
    /// Row-tagged outputs of its chain.
    outs: Vec<(u32, Event)>,
    /// Row-tagged transitions of its chain.
    trans: Vec<(u32, Transition)>,
    /// The merge's cursor into `outs`.
    cursor: usize,
    /// The merge's cursor into `trans`.
    tcursor: usize,
}

impl CombinedScratch {
    /// Runs `event` through `ops[start..]` of member `plan`: the
    /// chain's transitions and derived events move to `out`, and the
    /// derived events queue for the members after `plan`.
    #[allow(clippy::too_many_arguments)] // one member chain step, its sinks and its slots
    fn run_member(
        &mut self,
        ops: &mut [Op],
        start: usize,
        event: Event,
        plan: usize,
        table: &ContextTable,
        out: &mut PlanOutput,
        slots: &mut StateSlots,
    ) {
        self.inner.clear();
        self.chain
            .run_one(ops, start, event, table, &mut self.inner, slots);
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

    /// The installed shared-prefix groups, to number their run-state
    /// slots.
    pub fn shared_groups_mut(&mut self) -> &mut [SharedGroup] {
        &mut self.shared
    }

    /// Returns `true` if the combined plan consumes `type_id` from the
    /// external input stream.
    #[must_use]
    pub fn consumes_external(&self, type_id: TypeId) -> bool {
        self.routes.get(type_id.index()).is_some_and(|r| r.external)
    }

    /// One event's traversal, in the order its type's [`Route`] lists:
    /// each member plan that uses the event runs its chain and then
    /// tries its shared-prefix boundary — the exact chain position where
    /// unshared execution would have completed those matches — then the
    /// derived events cascade to downstream members, and finally the
    /// shared prefixes advance (after the members, so a prefix completed
    /// by this event is never also extended by it).
    #[allow(clippy::too_many_arguments)] // split borrows of `self`, so the row loop can hold the event slice
    fn process_one(
        plans: &mut [QueryPlan],
        shared: &mut [SharedGroup],
        routes: &[Route],
        context_bit: u8,
        event: &Event,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
        slots: &mut StateSlots,
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
                scratch.run_member(&mut plan.ops, 0, event.clone(), m.plan, table, out, slots);
            }
            let Some((g, pos)) = m.boundary else { continue };
            let group = &shared[g];
            if !group.open(holds) {
                continue;
            }
            // A group that holds nothing has no full prefix to cross.
            let Some(prefixes) = slots.take(group.slot()) else {
                continue;
            };
            let mut crossed = std::mem::take(&mut scratch.boundary);
            debug_assert!(crossed.is_empty());
            if let Op::Pattern(p) = &mut plan.ops[pos] {
                let run = slots.get(p.slot());
                p.cross_boundary(run, group, &prefixes, event, &mut crossed);
            }
            slots.put(group.slot(), prefixes);
            for matched in crossed.drain(..) {
                let ops = &mut plan.ops;
                scratch.run_member(ops, pos + 1, matched, m.plan, table, out, slots);
            }
            scratch.boundary = crossed;
        }
        Self::cascade(plans, routes, table, out, scratch, slots);
        for g in &route.groups {
            let group = &mut shared[g.group];
            if g.advance && group.open(holds) {
                group.advance(slots.get(group.slot()), event);
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
        slots: &mut StateSlots,
    ) {
        while let Some((start, ev)) = scratch.work.pop() {
            let Some(route) = routes.get(ev.type_id.index()) else {
                continue;
            };
            for m in route.members.iter().filter(|m| m.plan >= start && m.feed) {
                let ops = &mut plans[m.plan].ops;
                scratch.run_member(ops, 0, ev.clone(), m.plan, table, out, slots);
            }
        }
    }

    /// Feeds a same-`(partition, time)` run of external events through
    /// the combined plan, its operators' run states in `slots`. Derived
    /// events flow to downstream member plans *and* to `out.events`
    /// (they are part of the output stream). Member plans see, and
    /// `out` receives, exactly what walking each consumed event through
    /// the members one by one (`process_one`) in slice order gives; where
    /// that is unobservable — no row's type feeds a member that also
    /// consumes member-produced events or reaches a shared group — and
    /// there is more than one row to reorder, the rows run
    /// *plan-major* instead (`process_plan_major`).
    /// For a single row the two orders coincide. All buffers come from
    /// the plan's scratch, so the steady state allocates nothing.
    pub fn process(
        &mut self,
        events: &[Event],
        table: &ContextTable,
        out: &mut PlanOutput,
        slots: &mut StateSlots,
    ) {
        let Self {
            plans,
            shared,
            routes,
            context_bit,
            scratch,
            ..
        } = self;
        let mut rows = std::mem::take(&mut scratch.rows);
        rows.clear();
        let mut plan_major = true;
        for (row, e) in events.iter().enumerate() {
            if let Some(route) = routes.get(e.type_id.index()).filter(|r| r.external) {
                rows.push(row as u32);
                plan_major &= route.plan_major;
            }
        }
        if plan_major && rows.len() > 1 {
            Self::process_plan_major(plans, routes, events, &rows, table, out, scratch, slots);
        } else {
            for &row in &rows {
                let event = &events[row as usize];
                Self::process_one(
                    plans,
                    shared,
                    routes,
                    *context_bit,
                    event,
                    table,
                    out,
                    scratch,
                    slots,
                );
            }
        }
        scratch.rows = rows;
    }

    /// Plan-major execution of the consumed `rows`: each member plan
    /// they route to consumes its selection of them into row-tagged
    /// sinks, in ascending plan index; the merge then walks the rows
    /// with one cursor per such member, replaying the per-event
    /// emission order exactly — for each row, member plans in
    /// topological order, then the LIFO cascade of derived events
    /// through downstream members (see
    /// [`process_one`](Self::process_one)). The sinks are already
    /// row-ordered (selections ascend), so the merge is a linear cursor
    /// walk with no sort, and members no row routes to are never
    /// visited.
    #[allow(clippy::too_many_arguments)] // split borrows of `self`, the rows and the sinks
    fn process_plan_major(
        plans: &mut [QueryPlan],
        routes: &[Route],
        events: &[Event],
        rows: &[u32],
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
        slots: &mut StateSlots,
    ) {
        if scratch.lanes.len() < plans.len() {
            scratch.lanes.resize_with(plans.len(), Lane::default);
        }
        let mut members = std::mem::take(&mut scratch.members);
        members.clear();
        for &row in rows {
            for m in &routes[events[row as usize].type_id.index()].members {
                let sel = &mut scratch.lanes[m.plan].sel;
                if sel.is_empty() {
                    members.push(m.plan);
                }
                sel.push(row);
            }
        }
        members.sort_unstable();
        for &idx in &members {
            let lane = &mut scratch.lanes[idx];
            run_chain_batch_items(
                &mut plans[idx].ops,
                events,
                &lane.sel,
                table,
                &mut scratch.chain,
                slots,
                &mut lane.outs,
                &mut lane.trans,
            );
            lane.sel.clear();
        }
        debug_assert!(scratch.work.is_empty());
        for &row in rows {
            for &idx in &members {
                let lane = &mut scratch.lanes[idx];
                while let Some((r, ev)) = lane.outs.get(lane.cursor) {
                    if *r != row {
                        break;
                    }
                    out.events.push(ev.clone());
                    scratch.work.push((idx + 1, ev.clone()));
                    lane.cursor += 1;
                }
                while let Some((r, t)) = lane.trans.get(lane.tcursor) {
                    if *r != row {
                        break;
                    }
                    out.transitions.push(*t);
                    lane.tcursor += 1;
                }
            }
            // Cascade this row's derived events to downstream members —
            // plan-major legality guarantees no member consuming them
            // also consumed the external run, so their state still sees
            // inputs in per-event order.
            Self::cascade(plans, routes, table, out, scratch, slots);
        }
        // Cursor walks must have drained every sink: each output's row
        // tag is one of `rows`, all visited.
        for &idx in &members {
            let lane = &mut scratch.lanes[idx];
            debug_assert!(lane.cursor == lane.outs.len() && lane.tcursor == lane.trans.len());
            lane.outs.clear();
            lane.trans.clear();
            (lane.cursor, lane.tcursor) = (0, 0);
        }
        scratch.members = members;
    }

    /// Advances member `idx`'s watermark on its state in `slots`,
    /// feeding any matured matches to downstream consumers, one full
    /// cascade per match (the per-event order). Returns the earliest
    /// deadline of the state left behind — a cascade only feeds later
    /// members, so a walk in member order visits each after everything
    /// it could receive.
    pub fn advance_member(
        &mut self,
        idx: usize,
        watermark: Time,
        table: &ContextTable,
        out: &mut PlanOutput,
        slots: &mut StateSlots,
    ) -> Time {
        let Self {
            plans,
            routes,
            scratch,
            ..
        } = self;
        let mut matured = std::mem::take(&mut scratch.matured);
        matured.clear();
        let (ops, chain) = (&mut plans[idx].ops, &mut scratch.chain);
        let next = advance_chain_time(ops, watermark, table, &mut matured, chain, slots);
        out.transitions.append(&mut matured.transitions);
        for derived in matured.events.drain(..) {
            out.events.push(derived.clone());
            debug_assert!(scratch.work.is_empty());
            scratch.work.push((idx + 1, derived));
            Self::cascade(plans, routes, table, out, scratch, slots);
        }
        scratch.matured = matured;
        next
    }

    /// Resets the *gated* shared-prefix groups' state in `slots` —
    /// called when this plan's context window terminates. Gated members
    /// are scoped to exactly that window (eligibility forbids extra
    /// bits), so their private state is reset at the same moment;
    /// ungated groups mirror their window-free members and keep their
    /// state.
    pub fn reset_shared_gated(&self, slots: &mut StateSlots) {
        for g in self.shared.iter().filter(|g| g.gated()) {
            if let Some(run) = slots.held_mut(g.slot()) {
                run.reset();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CompiledExpr;
    use crate::ops::{ContextWindowOp, OpObservation, ProjectOp};
    use crate::pattern::{PatternOp, RunState};
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
        combined.process(
            &[in_event(&reg, 5, 42)],
            &table,
            &mut out,
            &mut StateSlots::default(),
        );
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
        combined.process(
            &[in_event(&reg, 5, 42)],
            &table,
            &mut out,
            &mut StateSlots::default(),
        );
        assert_eq!(out.events.len(), 1, "only Mid; Final not produced");
    }

    /// Every operator counter of a combined plan's members, in plan
    /// and chain order.
    fn counters(plan: &CombinedPlan) -> Vec<OpObservation> {
        let ops = plan.plans.iter().flat_map(|p| p.ops.iter());
        ops.filter_map(Op::observation).collect()
    }

    /// Runs each transaction of `txns` through one clone of `plan` as
    /// one slice and through another one event per slice: outputs, their
    /// order and every operator counter must agree.
    fn assert_slice_equivalent(plan: &CombinedPlan, txns: &[Vec<Event>]) -> PlanOutput {
        let (mut whole, mut single) = (plan.clone(), plan.clone());
        let (mut out_a, mut out_b) = (PlanOutput::default(), PlanOutput::default());
        let (mut slots_a, mut slots_b) = (StateSlots::default(), StateSlots::default());
        let table = ContextTable::new(1, 0);
        for txn in txns {
            whole.process(txn, &table, &mut out_a, &mut slots_a);
            for e in txn {
                single.process(std::slice::from_ref(e), &table, &mut out_b, &mut slots_b);
            }
        }
        assert_eq!(out_a.events, out_b.events);
        assert_eq!(out_a.transitions, out_b.transitions);
        assert_eq!(counters(&whole), counters(&single));
        out_a
    }

    /// In -> Mid -> Final: no member fed `In` consumes a derived type,
    /// so a many-row transaction runs plan-major.
    #[test]
    fn plan_major_slice_matches_one_event_slices() {
        let reg = registry();
        let p1 = relay_plan(&reg, 0, "In", "Mid");
        let p2 = relay_plan(&reg, 1, "Mid", "Final");
        let combined = CombinedPlan::new("c".into(), 0, vec![p1, p2]);
        assert!(combined.routes[reg.lookup("In").unwrap().index()].plan_major);
        let txn: Vec<Event> = (0..6).map(|i| in_event(&reg, 5, i)).collect();
        let out = assert_slice_equivalent(&combined, &[txn]);
        assert_eq!(out.events.len(), 12);
    }

    /// `SEQ(In, Mid)` is fed `In` and consumes the `Mid` a relay derives
    /// from it, so the rows must interleave event by event: plan-major is
    /// illegal for `In`.
    #[test]
    fn event_major_slice_matches_one_event_slices() {
        let reg = registry();
        let relay = relay_plan(&reg, 0, "In", "Mid");
        let mut seq = seq_plan(&reg, 1, "Mid", "Final");
        if let Op::Pattern(p) = &mut seq.ops[0] {
            p.set_slot(0);
        }
        let combined = CombinedPlan::new("c".into(), 0, vec![relay, seq]);
        assert!(!combined.routes[reg.lookup("In").unwrap().index()].plan_major);
        let txns: Vec<Vec<Event>> = (1..4)
            .map(|t| (0..3).map(|v| in_event(&reg, t, v)).collect())
            .collect();
        let out = assert_slice_equivalent(&combined, &txns);
        assert!(out
            .events
            .iter()
            .any(|e| e.type_id == reg.lookup("Final").unwrap()));
    }

    #[test]
    fn query_plan_skips_unconsumed_types() {
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
        let slots = &mut StateSlots::default();
        plan.process(
            &events,
            &table,
            &mut out,
            &mut ChainScratch::default(),
            slots,
        );
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
    fn routing_table_is_not_in_the_encoding() {
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
        combined.shared_groups_mut()[0].set_slot(0);
        for (slot, plan) in (1..).zip(&mut combined.plans) {
            if let Op::Pattern(p) = &mut plan.ops[0] {
                p.set_slot(slot);
            }
        }

        // The bytes are the five persistent fields and nothing else.
        let bytes = serde::to_bytes(&combined);
        let mut fields = Serializer::new();
        combined.context.serialize(&mut fields);
        combined.context_bit.serialize(&mut fields);
        combined.plans.serialize(&mut fields);
        combined.external_inputs.serialize(&mut fields);
        combined.shared.serialize(&mut fields);
        assert_eq!(bytes, fields.into_bytes());

        // Nor are the operators' counters: running the plan leaves its
        // encoding as it was.
        let table = ContextTable::new(1, 0);
        let mut out = PlanOutput::default();
        let mut slots = StateSlots::default();
        for (ty, t) in [("In", 1), ("Mid", 2), ("Final", 4)] {
            let e = Event::simple(
                reg.lookup(ty).unwrap(),
                t,
                PartitionId(0),
                vec![Value::Int(t as i64)],
            );
            combined.process(&[e], &table, &mut out, &mut slots);
        }
        assert_eq!(out.events.len(), 2, "(1,2), (1,4)");
        assert_eq!(serde::to_bytes(&combined), bytes);
    }

    #[test]
    fn reset_clears_member_state() {
        let reg = registry();
        let in_ty = reg.lookup("In").unwrap();
        let mid_ty = reg.lookup("Mid").unwrap();
        // A 2-element sequence keeps partials.
        let mut seq = crate::nfa::PatternBuilder::new(reg.lookup("Final").unwrap())
            .then(in_ty)
            .then(mid_ty)
            .within(1000)
            .offsets(vec![0, 1])
            .build();
        seq.set_slot(0);
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
        let mut slots = StateSlots::default();
        combined.process(&[in_event(&reg, 1, 7)], &table, &mut out, &mut slots);
        let live = |slots: &StateSlots| slots.peek(Some(0)).map_or(0, RunState::live_partials);
        assert_eq!(live(&slots), 1);
        combined.plans[0].discard_history(None, &mut slots);
        assert_eq!(live(&slots), 0);
    }
}
