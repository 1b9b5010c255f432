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
use crate::ops::{
    advance_chain_time, run_chain, run_chain_batch, run_chain_batch_items, ChainOutput,
    ChainScratch, Op,
};
use crate::pattern::{RunState, SharedGroup};
use caesar_events::{ColumnarBatch, Event, Time, TypeId};
use caesar_query::ast::QueryId;
use caesar_query::queryset::CompiledQuery;
use serde::{Deserialize, Serialize};
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
    pub fn process(&mut self, event: &Event, table: &ContextTable, out: &mut PlanOutput) {
        run_chain(&mut self.ops, event, table, out);
    }

    /// Feeds a same-`(partition, time)` run of events — presented as a
    /// [`ColumnarBatch`] over the transaction — through the chain,
    /// skipping events the plan does not consume. Equivalent to calling
    /// [`process`] once per consumed event, but the bottom context-window
    /// probe (if any) and the traversal buffers amortize over the run,
    /// and stage-major chains evaluate predicates through vectorized
    /// kernels over the batch's columnar views (selection vectors mean
    /// unconsumed events are skipped without copying).
    ///
    /// [`process`]: QueryPlan::process
    pub fn process_batch(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut ChainScratch,
    ) {
        // The selection buffer lives in the scratch too; it is taken out
        // so the chain may borrow the rest.
        let mut sel = std::mem::take(&mut scratch.sel);
        sel.clear();
        sel.extend(
            cols.events()
                .iter()
                .enumerate()
                .filter(|(_, e)| self.consumes(e.type_id))
                .map(|(i, _)| i as u32),
        );
        run_chain_batch(&mut self.ops, cols, &mut sel, table, out, scratch);
        scratch.sel = sel;
    }

    /// Advances the watermark on stateful operators.
    pub fn advance_time(&mut self, watermark: Time, table: &ContextTable, out: &mut PlanOutput) {
        if !self.needs_advance() {
            return;
        }
        advance_chain_time(&mut self.ops, watermark, table, out);
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
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// workload sharing, extended to sequence prefixes). Empty unless
    /// prefix sharing is enabled and an eligible group was found.
    shared: Vec<SharedGroup>,
    /// Reusable execution buffers (always empty between calls; not part
    /// of the plan's persistent state).
    #[serde(skip)]
    scratch: CombinedScratch,
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
    /// Per-member selection vector of the plan-major pass.
    sel: Vec<u32>,
    /// Per-member row-tagged outputs of the plan-major pass.
    plan_outs: Vec<Vec<(u32, Event)>>,
    /// Per-member row-tagged transitions of the plan-major pass.
    plan_trans: Vec<Vec<(u32, Transition)>>,
    /// Per-member cursors into `plan_outs` during the per-row merge.
    cursors: Vec<usize>,
    /// Per-member cursors into `plan_trans`.
    tcursors: Vec<usize>,
    /// Worklist of derived events cascading to downstream members.
    work: Vec<(usize, Event)>,
    /// Sink for member-plan cascade processing.
    inner: ChainOutput,
    /// Matches produced by shared-prefix boundary crossings, before they
    /// resume the member chain above the pattern.
    boundary: Vec<Event>,
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
        Self {
            context,
            context_bit,
            plans,
            external_inputs: external,
            shared: Vec::new(),
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
    }

    /// Whether any shared-prefix group is installed.
    #[must_use]
    pub fn has_shared(&self) -> bool {
        !self.shared.is_empty()
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
        self.external_inputs.binary_search(&type_id).is_ok()
    }

    /// Feeds one external event through the combined plan. Derived events
    /// flow to downstream member plans *and* to `out.events` (they are
    /// part of the output stream).
    pub fn process(&mut self, event: &Event, table: &ContextTable, out: &mut PlanOutput) {
        let Self {
            plans,
            shared,
            context_bit,
            scratch,
            ..
        } = self;
        Self::process_one(plans, shared, *context_bit, event, table, out, scratch);
    }

    /// The per-event traversal behind [`process`](Self::process) and the
    /// event-major batch path: each member plan consumes the external
    /// event (in topological order) and immediately receives its
    /// shared-prefix boundary crossings — the exact chain position where
    /// unshared execution would have completed those matches — then the
    /// derived events cascade LIFO to downstream members, and finally
    /// the shared prefixes advance (after the members, so a prefix
    /// completed by this event is never also extended by it).
    fn process_one(
        plans: &mut [QueryPlan],
        shared: &mut [SharedGroup],
        context_bit: u8,
        event: &Event,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
    ) {
        debug_assert!(scratch.work.is_empty());
        for idx in 0..plans.len() {
            if plans[idx].consumes(event.type_id) {
                scratch.inner.clear();
                scratch.chain.run_one(
                    &mut plans[idx].ops,
                    0,
                    event.clone(),
                    table,
                    &mut scratch.inner,
                );
                out.transitions.append(&mut scratch.inner.transitions);
                for derived in scratch.inner.events.drain(..) {
                    out.events.push(derived.clone());
                    scratch.work.push((idx + 1, derived));
                }
            }
            if !shared.is_empty() {
                Self::boundary_crossings(
                    plans,
                    shared,
                    idx,
                    context_bit,
                    event,
                    table,
                    out,
                    scratch,
                );
            }
        }
        // Cascade derived events. The worklist holds (producer plan
        // index + 1, event): derived events are only offered to later
        // plans (topological order prevents cycles).
        while let Some((start, ev)) = scratch.work.pop() {
            for (idx, plan) in plans.iter_mut().enumerate().skip(start) {
                if !plan.consumes(ev.type_id) {
                    continue;
                }
                scratch.inner.clear();
                scratch
                    .chain
                    .run_one(&mut plan.ops, 0, ev.clone(), table, &mut scratch.inner);
                out.transitions.append(&mut scratch.inner.transitions);
                for derived in scratch.inner.events.drain(..) {
                    out.events.push(derived.clone());
                    scratch.work.push((idx + 1, derived));
                }
            }
        }
        for group in shared.iter_mut() {
            if group.gated() && !table.admits(event.partition, context_bit, event.time()) {
                continue;
            }
            group.advance(event);
        }
    }

    /// Feeds each shared group's full prefixes to member `idx`'s
    /// pattern for boundary extension by `event`, resuming completed
    /// matches through the member chain above the pattern. Runs in the
    /// member's own slot of the external pass so emissions land exactly
    /// where unshared execution would put them.
    #[allow(clippy::too_many_arguments)] // split-borrow helper of process_one: its params plus the member index
    fn boundary_crossings(
        plans: &mut [QueryPlan],
        shared: &[SharedGroup],
        idx: usize,
        context_bit: u8,
        event: &Event,
        table: &ContextTable,
        out: &mut PlanOutput,
        scratch: &mut CombinedScratch,
    ) {
        for group in shared {
            if group.gated() && !table.admits(event.partition, context_bit, event.time()) {
                continue;
            }
            for member in group.members() {
                if member.plan != idx {
                    continue;
                }
                let plan = &mut plans[idx];
                debug_assert!(scratch.boundary.is_empty());
                if let Op::Pattern(p) = &mut plan.ops[member.pattern_pos] {
                    for prefix in group.full_prefixes() {
                        p.extend_from_shared(prefix, event, &mut scratch.boundary);
                    }
                }
                for m in scratch.boundary.drain(..) {
                    scratch.inner.clear();
                    scratch.chain.run_one(
                        &mut plan.ops,
                        member.pattern_pos + 1,
                        m,
                        table,
                        &mut scratch.inner,
                    );
                    out.transitions.append(&mut scratch.inner.transitions);
                    for d in scratch.inner.events.drain(..) {
                        out.events.push(d.clone());
                        scratch.work.push((idx + 1, d));
                    }
                }
            }
        }
    }

    /// Feeds a same-`(partition, time)` run of external events —
    /// presented as a [`ColumnarBatch`] over the transaction — through
    /// the combined plan. Equivalent to calling [`process`] once per
    /// consumed event in slice order — member plans see the exact same
    /// event sequence and `out` receives the exact same outputs — but
    /// executed *plan-major* where legal: each member plan consumes the
    /// whole run batch-at-a-time (vectorized kernels, pooled pattern
    /// state, one context-window probe per run), and the per-plan
    /// outputs are merged back into per-event order by their input-row
    /// tags. All buffers come from the plan's scratch, so the steady
    /// state allocates nothing.
    ///
    /// [`process`]: CombinedPlan::process
    pub fn process_batch(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        // Distinct externally consumed types of the transaction (almost
        // always exactly 1).
        let mut types = std::mem::take(&mut self.scratch.types);
        types.clear();
        for e in cols.events() {
            if self.consumes_external(e.type_id) && !types.contains(&e.type_id) {
                types.push(e.type_id);
            }
        }
        if types.is_empty() {
            self.scratch.types = types;
            return;
        }
        // Shared-prefix groups interleave member and group state per
        // event, so sharing always takes the event-major path.
        if self.shared.is_empty() && self.plan_major_applies(&types) {
            self.process_batch_plan_major(cols, &types, table, out);
        } else {
            self.process_batch_event_major(cols, &types, table, out);
        }
        self.scratch.types = types;
    }

    /// Plan-major execution runs each member plan over the *whole* run
    /// before any member-produced event is offered downstream. That is
    /// unobservable unless some member consumes both a type present in
    /// this transaction's external input *and* a type produced by a
    /// member plan — such a plan would see its two input streams in a
    /// different interleaving than the per-event path (stateful patterns
    /// and negation buffers observe input order). Those transactions
    /// take the event-major path instead.
    fn plan_major_applies(&self, types: &[TypeId]) -> bool {
        self.plans.iter().all(|plan| {
            !types.iter().any(|&t| plan.consumes(t))
                || !self
                    .plans
                    .iter()
                    .filter_map(|p| p.output_type)
                    .any(|t| plan.consumes(t))
        })
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
        cols: &mut ColumnarBatch<'_>,
        types: &[TypeId],
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        let Self { plans, scratch, .. } = self;
        let n = plans.len();
        scratch.plan_outs.resize_with(n, Vec::new);
        scratch.plan_trans.resize_with(n, Vec::new);
        let events = cols.events();
        for (idx, plan) in plans.iter_mut().enumerate() {
            let outs = &mut scratch.plan_outs[idx];
            let trans = &mut scratch.plan_trans[idx];
            outs.clear();
            trans.clear();
            scratch.sel.clear();
            scratch.sel.extend(
                events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| types.contains(&e.type_id) && plan.consumes(e.type_id))
                    .map(|(i, _)| i as u32),
            );
            run_chain_batch_items(
                &mut plan.ops,
                cols,
                &mut scratch.sel,
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
            // the qualifier guarantees no member consuming them also
            // consumed the external run, so their state still sees
            // inputs in per-event order.
            while let Some((start, ev)) = scratch.work.pop() {
                for (j, plan) in plans.iter_mut().enumerate().skip(start) {
                    if !plan.consumes(ev.type_id) {
                        continue;
                    }
                    scratch.inner.clear();
                    scratch
                        .chain
                        .run_one(&mut plan.ops, 0, ev.clone(), table, &mut scratch.inner);
                    out.transitions.append(&mut scratch.inner.transitions);
                    for d in scratch.inner.events.drain(..) {
                        out.events.push(d.clone());
                        scratch.work.push((j + 1, d));
                    }
                }
            }
        }
        // Cursor walks must have drained every sink: each output's row
        // tag is a selected row of `types`-membership, all visited.
        debug_assert!((0..n).all(|i| scratch.cursors[i] == scratch.plan_outs[i].len()));
        debug_assert!((0..n).all(|i| scratch.tcursors[i] == scratch.plan_trans[i].len()));
    }

    /// Event-major fallback for the (rare) transactions where plan-major
    /// reordering would be observable — identical traversal to
    /// [`process`] per event, but reusing the plan's scratch buffers.
    ///
    /// [`process`]: CombinedPlan::process
    fn process_batch_event_major(
        &mut self,
        cols: &mut ColumnarBatch<'_>,
        types: &[TypeId],
        table: &ContextTable,
        out: &mut PlanOutput,
    ) {
        let Self {
            plans,
            shared,
            context_bit,
            scratch,
            ..
        } = self;
        let events = cols.events();
        for event in events {
            if !types.contains(&event.type_id) {
                continue;
            }
            Self::process_one(plans, shared, *context_bit, event, table, out, scratch);
        }
    }

    /// Advances the watermark on all member plans, feeding any matured
    /// matches to downstream consumers. Shared-prefix groups prune their
    /// partials by the same horizon.
    pub fn advance_time(&mut self, watermark: Time, table: &ContextTable, out: &mut PlanOutput) {
        for group in &mut self.shared {
            group.advance_time(watermark);
        }
        let Self { plans, scratch, .. } = self;
        let mut matured = PlanOutput::default();
        for idx in 0..plans.len() {
            if !plans[idx].needs_advance() {
                continue;
            }
            matured.clear();
            plans[idx].advance_time(watermark, table, &mut matured);
            out.transitions.append(&mut matured.transitions);
            // Feed matured matches to downstream members, one full
            // cascade per match (the per-event order).
            for derived in matured.events.drain(..) {
                out.events.push(derived.clone());
                debug_assert!(scratch.work.is_empty());
                scratch.work.push((idx + 1, derived));
                while let Some((start, ev)) = scratch.work.pop() {
                    for (j, plan) in plans.iter_mut().enumerate().skip(start) {
                        if !plan.consumes(ev.type_id) {
                            continue;
                        }
                        scratch.inner.clear();
                        scratch.chain.run_one(
                            &mut plan.ops,
                            0,
                            ev.clone(),
                            table,
                            &mut scratch.inner,
                        );
                        out.transitions.append(&mut scratch.inner.transitions);
                        for d in scratch.inner.events.drain(..) {
                            out.events.push(d.clone());
                            scratch.work.push((j + 1, d));
                        }
                    }
                }
            }
        }
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

    /// Resets only the shared-prefix groups (used when the owning code
    /// resets member plans individually).
    pub fn reset_shared(&mut self) {
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

    /// Expires shared-prefix partials started at or before `t`
    /// (original-window expiry for grouped windows, Figure 7).
    pub fn expire_shared_history(&mut self, t: Time) {
        for g in &mut self.shared {
            g.expire_started_at_or_before(t);
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

    /// Multi-line explain output.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut s = format!("CombinedPlan[{}] ({} queries)\n", self.context, self.len());
        for p in &self.plans {
            s.push_str("  ");
            s.push_str(&p.explain());
            s.push('\n');
        }
        s
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
        let pristine = per_event.clone();
        let table = ContextTable::new(1, 0);
        let events: Vec<Event> = (0..6).map(|i| in_event(&reg, 5, i)).collect();

        let mut out_a = PlanOutput::default();
        for e in &events {
            if per_event.consumes_external(e.type_id) {
                per_event.process(e, &table, &mut out_a);
            }
        }
        for vectorize in [false, true] {
            let mut batched = pristine.clone();
            let mut out_b = PlanOutput::default();
            let mut cols = ColumnarBatch::new(&events, vectorize);
            batched.process_batch(&mut cols, &table, &mut out_b);
            assert_eq!(out_a.events, out_b.events, "vectorize={vectorize}");
            assert_eq!(
                out_a.transitions, out_b.transitions,
                "vectorize={vectorize}"
            );
        }
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
        let mut cols = ColumnarBatch::new(&events, true);
        plan.process_batch(&mut cols, &table, &mut out, &mut ChainScratch::default());
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
