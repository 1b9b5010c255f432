//! The CAESAR engine: distributor → time-driven scheduler → context
//! derivation → transition application → context-aware routing →
//! context processing, with context-history maintenance and garbage
//! collection (Figures 8 and 9 of the paper).
//!
//! There is one ingest path: events enter one at a time, and the
//! scheduler groups them into stream transactions. Each plan takes a
//! transaction as one slice of events; a slice gives the outputs and
//! operator counters of its events fed one at a time (each operator's
//! tests pin it).
//!
//! Expiry follows global time, state is per partition: one worklist of
//! `(deadline, partition)` entries, advanced with the scheduler's
//! progress, prunes the run state, clears the closed context spans and
//! releases the startup-state context rows of partitions that have gone
//! quiet (`Engine::sweep_to`); the
//! partition a transaction executes in walks its own state only when
//! something it holds fell due.

use crate::obs::{CounterId, MetricsRegistry, MetricsSnapshot, ObservabilityLevel, Stage};
use crate::programs::{PartitionRun, ProgramTemplate};
use crate::router::Router;
use crate::scheduler::TimeDrivenScheduler;
use crate::stats::Observations;
use crate::txn::StreamTransaction;
use caesar_algebra::context_table::{ContextTable, Transition, TransitionKind};
use caesar_algebra::plan::PlanOutput;
use caesar_events::{
    Event, EventError, EventStream, OutputRecord, PartitionId, PartitionMap, ReorderBuffer,
    SchemaRegistry, Time, TypeId,
};
use caesar_optimizer::optimizer::OptimizedProgram;
use serde::{Deserialize, Serialize};
use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::fmt;
use std::time::Instant;

mod speculate;
pub use speculate::Consistency;
use speculate::Speculation;

/// Which program the engine executes: CAESAR's or a §7 baseline
/// (the optimizer emits it, [`OptimizedProgram::executing`]).
pub type ExecutionMode = caesar_optimizer::Mode;

/// Engine configuration.
///
/// The struct is `#[non_exhaustive]`: outside this crate it cannot be
/// built with a literal, so new knobs stop breaking downstream
/// constructors. Build one with [`EngineConfig::builder`] (or mutate
/// the public fields of [`EngineConfig::default`]):
///
/// ```
/// use caesar_runtime::{EngineConfig, ObservabilityLevel};
/// let config = EngineConfig::builder()
///     .reorder_slack(4)
///     .observability(ObservabilityLevel::Counters)
///     .build();
/// assert_eq!(config.reorder_slack, 4);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub struct EngineConfig {
    /// Context-aware (CAESAR) or a baseline program (see
    /// [`ExecutionMode`]).
    pub mode: ExecutionMode,
    /// Execute shared workloads once (the optimizer's sharing analysis;
    /// nothing to share if it found nothing).
    pub sharing: bool,
    /// Disorder tolerance of the distributor in ticks: events are held
    /// in a bounded reordering buffer and released once the stream's
    /// high-watermark passes them by this slack. `0` = require strictly
    /// in-order input (the paper's assumption).
    pub reorder_slack: Time,
    /// Keep every output event in memory (testing / debugging; do not
    /// enable on unbounded streams).
    pub collect_outputs: bool,
    /// How much the engine records about itself while running (see
    /// [`ObservabilityLevel`]): `Off` (default, within noise of no
    /// instrumentation), `Counters`, or `Spans`. Never affects results.
    pub observability: ObservabilityLevel,
    /// When outputs become visible relative to the reorder slack (see
    /// [`Consistency`]): `Strict` (default) waits out the slack before
    /// anything is emitted; `Speculative` emits immediately and
    /// compensates late arrivals with typed retraction records. The
    /// settled computation is identical either way — the knob trades
    /// output latency against retraction traffic, never results.
    #[serde(default)]
    pub consistency: Consistency,
    /// Collect match provenance: every derived complex event carries the
    /// `(type, occurrence time)` of each contributing input event
    /// (`caesar_events::Provenance`). Off by default — provenance
    /// changes the payload of every output event (and therefore its
    /// wire bytes), so unlike the other opt-in layers it participates
    /// in [`semantics_eq`](EngineConfig::semantics_eq).
    #[serde(default)]
    pub provenance: bool,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            mode: ExecutionMode::ContextAware,
            sharing: true,
            reorder_slack: 0,
            collect_outputs: false,
            observability: ObservabilityLevel::Off,
            consistency: Consistency::Strict,
            provenance: false,
        }
    }
}

impl EngineConfig {
    /// Starts building a configuration from the defaults.
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder::default()
    }

    /// Turns this configuration back into a builder (tweak a preset).
    #[must_use]
    pub fn to_builder(self) -> EngineConfigBuilder {
        EngineConfigBuilder { config: self }
    }

    /// Equality of every result-affecting knob. The observability level
    /// and the consistency level are excluded: they change recording and
    /// output latency, never settled results, so snapshots taken by
    /// instrumented / speculative and plain runs are interchangeable (a
    /// WAL written by one replays into the other; a speculative engine
    /// settles before snapshotting, so its state is a strict state).
    #[must_use]
    pub fn semantics_eq(&self, other: &Self) -> bool {
        Self {
            observability: other.observability,
            consistency: other.consistency,
            ..*self
        } == *other
    }
}

/// Builder for [`EngineConfig`] — the only way to construct a
/// non-default configuration outside this crate (the struct is
/// `#[non_exhaustive]`). Every setter mirrors one config field.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Context-aware (CAESAR) or context-independent (baseline).
    #[must_use]
    pub fn mode(mut self, mode: ExecutionMode) -> Self {
        self.config.mode = mode;
        self
    }

    /// Execute shared workloads once (see [`EngineConfig::sharing`]).
    #[must_use]
    pub fn sharing(mut self, sharing: bool) -> Self {
        self.config.sharing = sharing;
        self
    }

    /// Distributor disorder tolerance in ticks
    /// (see [`EngineConfig::reorder_slack`]).
    #[must_use]
    pub fn reorder_slack(mut self, slack: Time) -> Self {
        self.config.reorder_slack = slack;
        self
    }

    /// Keep every output event in memory
    /// (see [`EngineConfig::collect_outputs`]).
    #[must_use]
    pub fn collect_outputs(mut self, collect: bool) -> Self {
        self.config.collect_outputs = collect;
        self
    }

    /// Observability level (see [`EngineConfig::observability`]).
    #[must_use]
    pub fn observability(mut self, level: ObservabilityLevel) -> Self {
        self.config.observability = level;
        self
    }

    /// Consistency level (see [`EngineConfig::consistency`]).
    #[must_use]
    pub fn consistency(mut self, level: Consistency) -> Self {
        self.config.consistency = level;
        self
    }

    /// Match provenance collection (see [`EngineConfig::provenance`]).
    #[must_use]
    pub fn provenance(mut self, enabled: bool) -> Self {
        self.config.provenance = enabled;
        self
    }

    /// Finishes the build.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// Result of a stream run.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Input events processed.
    pub events_in: u64,
    /// Output (derived) events produced.
    pub events_out: u64,
    /// Context transitions applied.
    pub transitions_applied: u64,
    /// Per-derived-type output counts, by type name.
    pub outputs_by_type: BTreeMap<String, u64>,
    /// Combined plans fed / suspended (router accounting).
    pub plans_fed: u64,
    /// Combined plans skipped while their context was inactive.
    pub plans_suspended: u64,
    /// Peak live partial matches (memory proxy): the most any one
    /// operator held in any one partition — the largest high-water mark
    /// of the partial-match slabs, the same number as the
    /// `partials_peak` gauge.
    pub peak_partials: usize,
    /// Structured metrics recorded by the observability layer. Mostly
    /// empty when the engine ran with [`ObservabilityLevel::Off`]
    /// (the per-operator / per-query / per-context accounting is always
    /// populated — the operators count unconditionally).
    pub metrics: MetricsSnapshot,
}

impl RunReport {
    /// Output count of one derived type.
    #[must_use]
    pub fn outputs_of(&self, type_name: &str) -> u64 {
        self.outputs_by_type.get(type_name).copied().unwrap_or(0)
    }
}

/// The state of an [`Engine`] — context table, run states, scheduler,
/// router, reorder buffer, counts — taken by [`Engine::snapshot_state`]
/// and applied by [`Engine::restore_state`]. Not its program: the
/// engine a snapshot restores into runs the one it was built from, and
/// the snapshot carries that program's
/// [`fingerprint`](ProgramTemplate::fingerprint) to check it is the
/// same. No field holds a wall-clock reading.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EngineState {
    /// Configuration the snapshot was taken under (checked on restore).
    pub config: EngineConfig,
    /// Fingerprint of the program the snapshot was taken from.
    program: u64,
    table: ContextTable,
    partitions: PartitionMap<PartitionRun>,
    /// The largest slab high-water mark so far
    /// ([`RunReport::peak_partials`]).
    peak_partials: usize,
    scheduler: TimeDrivenScheduler,
    router: Router,
    outputs_by_type: Vec<u64>,
    inputs_by_type: Vec<u64>,
    events_in: u64,
    events_out: u64,
    transitions_applied: u64,
    reorder: Option<ReorderBuffer>,
    late_dropped: u64,
    collected_outputs: Vec<Event>,
}

impl EngineState {
    /// Input events the snapshotted engine had ingested — the stream
    /// position a recovery log must replay from.
    #[must_use]
    pub fn events_in(&self) -> u64 {
        self.events_in
    }
}

/// Why a snapshot cannot be restored into a particular engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RestoreError {
    /// The engine was built with a different configuration.
    ConfigMismatch,
    /// The engine runs a different program: another model, optimizer
    /// setting or execution mode.
    ProgramMismatch,
}

impl fmt::Display for RestoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RestoreError::ConfigMismatch => {
                write!(
                    f,
                    "snapshot was taken under a different engine configuration"
                )
            }
            RestoreError::ProgramMismatch => write!(
                f,
                "snapshot was taken from a different program \
                 (different model or optimizer settings?)"
            ),
        }
    }
}

impl std::error::Error for RestoreError {}

/// The run the scheduler last released, and a transaction's output
/// sink, requested transitions and closed context bits: all empty
/// between transactions, kept for their capacity.
#[derive(Debug, Default)]
pub(crate) struct Scratch {
    released: Vec<Event>,
    out: PlanOutput,
    transitions: Vec<Transition>,
    closed_bits: Vec<u8>,
}

/// What an engine derived, by producing transaction: the `(partition,
/// time, outputs)` of every transaction that derived anything, in
/// execution order, and the outputs themselves end to end. The
/// speculative overlay reads the fork's to learn what to emit and the
/// core's to learn what is confirmed.
#[derive(Debug, Default)]
struct Capture {
    txns: Vec<(PartitionId, Time, usize)>,
    events: Vec<Event>,
}

impl Capture {
    fn push(&mut self, partition: PartitionId, time: Time, events: &[Event]) {
        self.txns.push((partition, time, events.len()));
        self.events.extend_from_slice(events);
    }

    /// The captured transactions with their outputs.
    fn iter(&self) -> impl Iterator<Item = (PartitionId, Time, &[Event])> {
        let mut rest = self.events.as_slice();
        self.txns.iter().map(move |&(partition, time, n)| {
            let (events, tail) = rest.split_at(n);
            rest = tail;
            (partition, time, events)
        })
    }

    fn clear(&mut self) {
        self.txns.clear();
        self.events.clear();
    }
}

/// The CAESAR execution engine.
#[derive(Debug)]
pub struct Engine {
    config: EngineConfig,
    table: ContextTable,
    /// The one executing program: plans, operator counters, router
    /// gates. Its operators hold no run state: a transaction hands them
    /// its partition's.
    template: ProgramTemplate,
    /// Run state of the partitions that hold any (a live partial, a
    /// parked match, a buffered negated event, queued feedback), keyed
    /// by (sparse) partition id; a partition without is absent. A hash
    /// map — a transaction looks its partition up once — so the one
    /// walk whose order is observable, `finish`, sorts the ids (a
    /// snapshot encodes the map key-sorted).
    partitions: PartitionMap<PartitionRun>,
    /// The expiry worklist ([`sweep_to`](Self::sweep_to)).
    worklist: Worklist,
    /// Sum of the stored records' [`PartitionRun::bytes`].
    run_state_bytes: usize,
    /// The router's selection buffer, reused across transactions.
    active: Vec<usize>,
    /// Buffers of the release-and-execute path, reused so that a
    /// steady-state transaction allocates nothing there.
    scratch: Scratch,
    scheduler: TimeDrivenScheduler,
    router: Router,
    type_names: BTreeMap<TypeId, String>,
    /// Output events by type, indexed by [`TypeId::index`].
    outputs_by_type: Vec<u64>,
    /// Input events by type, indexed by [`TypeId::index`].
    inputs_by_type: Vec<u64>,
    events_in: u64,
    events_out: u64,
    transitions_applied: u64,
    reorder: Option<ReorderBuffer>,
    /// The observability recorder (gated by `config.observability`).
    /// Deliberately not part of [`EngineState`]: metrics describe a
    /// process, not the stream computation, so recovery restarts them.
    obs: MetricsRegistry,
    /// Events dropped because they arrived later than the reorder slack.
    pub late_dropped: u64,
    /// Output events retained when `collect_outputs` is set. Under
    /// [`Consistency::Speculative`] these are the *settled* outputs —
    /// identical to a strict run; the speculative emissions and
    /// retractions land in [`collected_records`](Self::collected_records).
    pub collected_outputs: Vec<Event>,
    /// The speculative overlay (`Some` exactly when the configuration's
    /// consistency is [`Consistency::Speculative`]). Deliberately not
    /// part of [`EngineState`]: checkpoints force a settle first, so a
    /// snapshot is always a strict state.
    speculation: Option<Box<Speculation>>,
    /// When `Some`, [`account_outputs`](Self::account_outputs) also
    /// copies produced outputs here, by producing transaction — the
    /// speculative overlay keeps one on its fork (what to emit) and
    /// installs one here around settlement (what to confirm).
    spec_capture: Option<Capture>,
    /// Speculative output records (emissions and retractions, in
    /// emission order) retained when `collect_outputs` is set and the
    /// consistency level is [`Consistency::Speculative`]. Folding the
    /// records (cancelling retractions) yields `collected_outputs`.
    pub collected_records: Vec<OutputRecord>,
    /// Output events emitted speculatively (includes re-emissions).
    pub spec_emits: u64,
    /// Retraction records emitted.
    pub spec_retractions: u64,
    /// Revision passes forced by late (within-slack) arrivals: rewinds
    /// of the late event's partition to its settled state. A late
    /// transaction the partition's head state can execute is not one.
    pub spec_rebuilds: u64,
    /// Events executed by those revisions' replays.
    pub spec_replayed: u64,
}

impl Engine {
    /// Builds an engine from an optimized program. `registry` must be the
    /// registry the program was translated against (it names the derived
    /// types in reports).
    #[must_use]
    pub fn new(
        mut program: OptimizedProgram,
        registry: &SchemaRegistry,
        config: EngineConfig,
    ) -> Self {
        if config.provenance {
            // Flip every pattern into timestamp-collecting mode before
            // the template is built.
            for combined in &mut program.translation.combined {
                for plan in &mut combined.plans {
                    for op in &mut plan.ops {
                        if let caesar_algebra::Op::Pattern(p) = op {
                            p.set_collect_provenance(true);
                        }
                    }
                }
            }
        }
        let translation = &program.translation;
        let table = ContextTable::new(translation.context_names.len(), translation.default_bit);
        let mut template = ProgramTemplate::build(program.executing(config.mode, config.sharing));
        template
            .slots
            .count_sizes(config.observability.counters_enabled());
        let type_names = registry
            .iter()
            .map(|(id, s)| (id, s.name.to_string()))
            .collect();
        let mut engine = Self {
            obs: MetricsRegistry::new(config.observability),
            config,
            table,
            template,
            partitions: PartitionMap::default(),
            worklist: Worklist::default(),
            run_state_bytes: 0,
            active: Vec::new(),
            scratch: Scratch::default(),
            scheduler: TimeDrivenScheduler::new(),
            router: Router::new(),
            type_names,
            outputs_by_type: Vec::new(),
            inputs_by_type: Vec::new(),
            events_in: 0,
            events_out: 0,
            transitions_applied: 0,
            reorder: if config.reorder_slack > 0 {
                Some(ReorderBuffer::new(config.reorder_slack))
            } else {
                None
            },
            late_dropped: 0,
            collected_outputs: Vec::new(),
            speculation: None,
            spec_capture: None,
            collected_records: Vec::new(),
            spec_emits: 0,
            spec_retractions: 0,
            spec_rebuilds: 0,
            spec_replayed: 0,
        };
        engine.init_speculation();
        engine
    }

    /// A strict fork of the settled core for the speculative overlay:
    /// same semantic state, fresh non-semantic machinery (no reorder
    /// buffer — it is fed in settled order; no observability; outputs
    /// captured by transaction so they can be emitted, not collected).
    fn fork_core(&self) -> Box<Engine> {
        let mut fork = Box::new(Engine {
            config: EngineConfig {
                consistency: Consistency::Strict,
                reorder_slack: 0,
                collect_outputs: false,
                observability: ObservabilityLevel::Off,
                ..self.config
            },
            table: self.table.clone(),
            template: self.template.clone(),
            run_state_bytes: 0,
            partitions: PartitionMap::default(),
            worklist: Worklist::default(),
            active: Vec::new(),
            scratch: Scratch::default(),
            scheduler: self.scheduler.clone(),
            router: self.router.clone(),
            type_names: self.type_names.clone(),
            outputs_by_type: self.outputs_by_type.clone(),
            inputs_by_type: self.inputs_by_type.clone(),
            events_in: self.events_in,
            events_out: self.events_out,
            transitions_applied: self.transitions_applied,
            reorder: None,
            obs: MetricsRegistry::new(ObservabilityLevel::Off),
            late_dropped: 0,
            collected_outputs: Vec::new(),
            speculation: None,
            spec_capture: Some(Capture::default()),
            collected_records: Vec::new(),
            spec_emits: 0,
            spec_retractions: 0,
            spec_rebuilds: 0,
            spec_replayed: 0,
        });
        fork.adopt(self.partitions.clone());
        fork.enter_rows();
        fork
    }

    /// Read access to the context table (tests, introspection).
    #[must_use]
    pub fn context_table(&self) -> &ContextTable {
        &self.table
    }

    /// The configuration the engine was built with.
    #[must_use]
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Input events ingested so far (the stream position a recovery log
    /// pairs with a checkpoint).
    #[must_use]
    pub fn events_in(&self) -> u64 {
        self.events_in
    }

    /// Events the scheduler holds for transactions not yet released:
    /// on an in-order stream, the events of the newest timestamp — never
    /// a function of how many partitions the stream has touched.
    #[must_use]
    pub fn events_buffered(&self) -> usize {
        self.scheduler.buffered()
    }

    /// Captures the engine's state into a serializable [`EngineState`].
    /// Restoring it into an engine built from the same program and
    /// replaying the post-snapshot suffix of the stream reproduces the
    /// uninterrupted run exactly (same outputs, same report counts);
    /// the operator counters, like the observability registry, are the
    /// process's and start over.
    ///
    /// Speculative state (the overlay fork, the unsettled events and
    /// the unconfirmed emissions) is *excluded* by design: call
    /// [`settle`](Self::settle) first so the snapshot is a plain strict
    /// state (the checkpoint protocol does this for you).
    #[must_use]
    pub fn snapshot_state(&self) -> EngineState {
        debug_assert!(
            self.speculation_settled(),
            "snapshot of a speculative engine requires settle() first"
        );
        EngineState {
            config: self.config,
            program: self.template.fingerprint(),
            table: self.table.clone(),
            partitions: self.partitions.clone(),
            peak_partials: self.template.pool_stats().1,
            scheduler: self.scheduler.clone(),
            router: self.router.clone(),
            outputs_by_type: self.outputs_by_type.clone(),
            inputs_by_type: self.inputs_by_type.clone(),
            events_in: self.events_in,
            events_out: self.events_out,
            transitions_applied: self.transitions_applied,
            reorder: self.reorder.clone(),
            late_dropped: self.late_dropped,
            collected_outputs: self.collected_outputs.clone(),
        }
    }

    /// Replaces the engine's state with a snapshot; the engine keeps
    /// its program.
    ///
    /// The engine must have been built from the same model, optimizer
    /// settings and [`EngineConfig`] as the snapshotted one — verified
    /// (config equality, program fingerprint, context layout) before
    /// anything is overwritten, so a failed restore leaves the engine
    /// untouched.
    pub fn restore_state(&mut self, state: EngineState) -> Result<(), RestoreError> {
        if !state.config.semantics_eq(&self.config) {
            return Err(RestoreError::ConfigMismatch);
        }
        let layout = |t: &ContextTable| (t.num_contexts(), t.default_bit());
        if state.program != self.template.fingerprint()
            || layout(&state.table) != layout(&self.table)
        {
            return Err(RestoreError::ProgramMismatch);
        }
        self.table = state.table;
        self.template.slots.restore_peak(state.peak_partials);
        self.partitions.clear();
        self.worklist.clear();
        self.run_state_bytes = 0;
        self.adopt(state.partitions);
        self.enter_rows();
        self.scheduler = state.scheduler;
        self.router = state.router;
        self.outputs_by_type = state.outputs_by_type;
        self.inputs_by_type = state.inputs_by_type;
        self.events_in = state.events_in;
        self.events_out = state.events_out;
        self.transitions_applied = state.transitions_applied;
        self.reorder = state.reorder;
        self.late_dropped = state.late_dropped;
        self.collected_outputs = state.collected_outputs;
        // Speculative state is never part of a snapshot: the restored
        // engine starts over with an empty overlay forked off the
        // restored (strict) state.
        self.collected_records.clear();
        self.spec_emits = 0;
        self.spec_retractions = 0;
        self.spec_rebuilds = 0;
        self.spec_replayed = 0;
        self.init_speculation();
        Ok(())
    }

    /// Partitions the engine currently holds run state for — counted as
    /// records come and go, like the `run_state_bytes` gauge.
    #[must_use]
    pub fn partitions_with_state(&self) -> usize {
        self.partitions.len()
    }

    /// Partitions the engine keeps anything for: a record or a context
    /// row.
    #[must_use]
    pub fn partitions_kept(&self) -> usize {
        let rowless = self.partitions.keys().map(|&id| PartitionId(id));
        let rowless = rowless.filter(|&p| self.table.updated(p).is_none());
        self.table.materialized_partitions() + rowless.count()
    }

    /// Entries in the expiry worklist: at most one per partition, and
    /// never more than [`partitions_kept`](Self::partitions_kept) right
    /// after a transaction's sweep.
    #[must_use]
    pub fn expiry_entries(&self) -> usize {
        self.worklist.heap.len()
    }

    /// Stores a partition's record unless it is empty, making sure it
    /// has a worklist entry.
    fn store(&mut self, id: u32, run: PartitionRun) {
        if run.is_empty() {
            return;
        }
        let due = run.touched.saturating_add(self.template.horizon);
        self.worklist.enter(id, due);
        self.run_state_bytes += run.bytes();
        self.partitions.insert(id, run);
    }

    /// Stores the records of a snapshot or of the engine a fork is taken
    /// from, each entered in this engine's worklist afresh.
    fn adopt(&mut self, partitions: PartitionMap<PartitionRun>) {
        for (id, run) in partitions {
            self.store(id, run);
        }
    }

    /// Enters every context row in the worklist under its `W.time`, as
    /// the transition that last updated it did: a restored or forked
    /// engine then releases the rows the original releases. A partition
    /// with a record keeps the entry [`store`](Self::store) gave it,
    /// under its latest transaction, which no `W.time` follows.
    fn enter_rows(&mut self) {
        let horizon = self.template.horizon;
        for (p, t) in self.table.rows() {
            self.worklist.enter(p.0, t.saturating_add(horizon));
        }
    }

    /// Advances the expiry worklist to global progress `watermark`. An
    /// entry, once due, is re-entered if its partition was active
    /// since — its record took part in a transaction, or, without a
    /// record, its context row was updated; otherwise it clears the
    /// partition's closed context spans ([`ContextTable::expire`]),
    /// prunes the record in place ([`ProgramTemplate::expire`]), and,
    /// once the partition holds no run state, releases its row if that
    /// is back at the startup state ([`ContextTable::release`]). So a record is pruned, and a row
    /// released, at the first sweep past the partition's latest
    /// transaction (a row's latest update) plus the program's horizon,
    /// whatever the history of its entries — a restored engine, which
    /// enters its records and rows afresh, prunes and releases when the
    /// original does.
    ///
    /// Sound because no later event of any partition precedes the
    /// watermark (the scheduler's progress; for the speculative fork,
    /// its settled core's): a partial whose horizon ended before it is
    /// never extended, a negated event that old never falls strictly
    /// between a later match's positives, a span closed before it admits
    /// nothing later, and a row holding only a default window opened
    /// before it admits and holds at every later time what the startup
    /// row does. Parked matches and leading-negation buffers, which the
    /// partition's own watermark decides, are not touched.
    fn sweep_to(&mut self, watermark: Time) {
        if !self.worklist.due_before(watermark) {
            return;
        }
        let span = self.obs.span_start();
        let (mut emptied, mut cleared) = (0, false);
        let horizon = self.template.horizon;
        while let Some(id) = self.worklist.pop_before(watermark) {
            let partition = PartitionId(id);
            let Some(run) = self.partitions.get_mut(&id) else {
                // No run state: the row is due one horizon after its
                // latest update.
                match self.table.updated(partition) {
                    Some(t) if t.saturating_add(horizon) >= watermark => {
                        self.worklist.enter(id, t.saturating_add(horizon));
                    }
                    Some(_) => cleared |= self.table.release(partition, watermark),
                    None => {}
                }
                continue;
            };
            if run.touched.saturating_add(horizon) >= watermark {
                // Active since it was entered.
                self.worklist.enter(id, run.touched.saturating_add(horizon));
                continue;
            }
            cleared |= self.table.expire(partition, watermark);
            self.run_state_bytes -= run.bytes();
            emptied += self.template.expire(run, watermark);
            self.run_state_bytes += run.bytes();
            if run.is_empty() {
                self.partitions.remove(&id);
                cleared |= self.table.release(partition, watermark);
            }
        }
        self.obs.add(CounterId::ExpiredStates, emptied as u64);
        if emptied > 0 || cleared {
            self.obs.inc(CounterId::GcRuns);
        }
        self.obs.span_end(Stage::AdvanceTime, span);
    }

    /// The statistics gatherer (Figure 8): folds the program's operator
    /// counters — accumulated over every partition — into
    /// [`Observations`], from which
    /// [`Observations::to_stats`] produces cost-model statistics for
    /// re-optimization with observed rates, activities and
    /// selectivities. Every deriving plan is visited, a
    /// context-independent program's private re-derivers included: a
    /// filter or pattern rate observed by one of them replaces the one
    /// of the query it clones (it was evaluated on every event).
    #[must_use]
    pub fn gather_stats(&self) -> Observations {
        let mut obs = Observations {
            inputs_by_type: by_type(&self.inputs_by_type).collect(),
            progress: self.scheduler.progress(),
            ..Observations::default()
        };
        let processing = self.template.processing.iter().flat_map(|c| &c.plans);
        for plan in self.template.deriving.iter().chain(processing) {
            obs.visit_plan(plan);
        }
        for combined in &self.template.processing {
            for group in combined.shared_groups() {
                obs.visit_group(combined.context_bit, group);
            }
        }
        obs
    }

    /// Ingests one event — the engine's one entrypoint. Transactions
    /// whose timestamp the progress watermark passed are executed
    /// immediately.
    ///
    /// # Ordering semantics
    ///
    /// Input must be in non-decreasing timestamp order across calls
    /// (`EventError::OutOfOrder` otherwise) — unless the engine was
    /// built with `reorder_slack > 0`, in which case input first passes
    /// the distributor's bounded reordering buffer: disorder within the
    /// slack is repaired, events later than the slack are dropped
    /// (counted in `late_dropped`) instead of corrupting context state.
    pub fn ingest(&mut self, event: Event) -> Result<(), EventError> {
        let span = self.obs.span_start();
        self.obs.inc(CounterId::EventsIngested);
        let result = if self.speculation.is_some() {
            self.ingest_speculative(event)
        } else if let Some(mut reorder) = self.reorder.take() {
            let reorder_span = self.obs.span_start();
            let result = reorder.push(event);
            self.obs.span_end(Stage::Reorder, reorder_span);
            self.late_dropped = reorder.late_dropped;
            self.reorder = Some(reorder);
            match result {
                Ok(ready) => ready
                    .into_iter()
                    .try_for_each(|e| self.ingest_one_ordered(e)),
                Err(_late) => Ok(()), // dropped and counted
            }
        } else {
            self.ingest_one_ordered(event)
        };
        // No later event precedes the progress timestamp.
        self.sweep_to(self.scheduler.progress());
        self.obs.span_end(Stage::Distributor, span);
        result
    }

    fn ingest_one_ordered(&mut self, event: Event) -> Result<(), EventError> {
        self.events_in += 1;
        count(&mut self.inputs_by_type, event.type_id);
        let span = self.obs.span_start();
        let before = self.scheduler.progress();
        self.scheduler.ingest(event)?;
        self.run_released(before, span);
        Ok(())
    }

    /// The second half of an ordered ingest: when the progress moved
    /// past `before`, releases the transactions below it and executes
    /// them; `span` is the scheduler-stage span the ingest opened.
    ///
    /// Release is strictly-below-progress and runs on *every* advance,
    /// so between two calls the scheduler holds the events of the
    /// progress timestamp and nothing older — the invariant that makes
    /// its one-timestamp frontier sufficient — and an ingest that joins
    /// the current timestamp has nothing to release.
    fn run_released(&mut self, before: Time, span: Option<Instant>) {
        let progress = self.scheduler.progress();
        if progress == before {
            self.obs.span_end(Stage::Scheduler, span);
            return;
        }
        let mut released = std::mem::take(&mut self.scratch.released);
        released.extend(self.scheduler.release(progress));
        self.obs.span_end(Stage::Scheduler, span);
        self.execute_all(&released);
        released.clear();
        self.scratch.released = released;
    }

    /// Executes a released run, transaction by transaction.
    fn execute_all(&mut self, released: &[Event]) {
        for txn in StreamTransaction::split(released) {
            self.execute(txn);
        }
    }

    /// Flushes all buffered transactions (end of stream) and returns the
    /// run report. Under [`Consistency::Speculative`] the record stream
    /// first receives the overlay's trailing emissions, then everything
    /// unsettled settles — the report (and `collected_outputs`) is the
    /// strict run's.
    pub fn finish(&mut self) -> RunReport {
        self.drain();
        self.report()
    }

    /// Everything [`finish`](Self::finish) does short of building the
    /// report: the end of the stream is executed, and a later `finish`
    /// finds nothing left to run. For a host that times the stream's
    /// work apart from the report (the figure benches).
    pub fn drain(&mut self) {
        if self.speculation.is_some() {
            self.finish_speculative();
        } else {
            self.finish_strict();
        }
    }

    fn finish_strict(&mut self) {
        if let Some(mut reorder) = self.reorder.take() {
            for e in reorder.flush() {
                let _ = self.ingest_one_ordered(e);
            }
            self.reorder = Some(reorder);
        }
        let remaining: Vec<Event> = self.scheduler.flush().collect();
        self.execute_all(&remaining);
        // Final watermark push: flush matured trailing negations, prune.
        // Only partitions holding run state have anything to flush —
        // the sweeps have already dropped those whose state died with
        // progress — in ascending id order, which is the order their
        // trailing outputs are emitted in.
        let final_mark = self.scheduler.progress().saturating_add(1_000_000);
        let mut out = PlanOutput::default();
        let mut holding: Vec<(u32, PartitionRun)> = self.partitions.drain().collect();
        holding.sort_unstable_by_key(|(id, _)| *id);
        for (id, mut run) in holding {
            self.run_state_bytes -= run.bytes();
            self.template.slots.enter(&mut run.states);
            self.template
                .advance_time(final_mark, &self.table, &mut out);
            self.template.slots.leave(&mut run.states);
            self.store(id, run);
            // The trailing outputs of a partition belong to no
            // transaction: they are accounted under the end of time.
            self.account_outputs(PartitionId(id), Time::MAX, &out);
            out.clear();
        }
    }

    /// Convenience: runs an entire stream through the engine.
    pub fn run_stream(&mut self, stream: &mut dyn EventStream) -> Result<RunReport, EventError> {
        while let Some(event) = stream.next_event() {
            self.ingest(event)?;
        }
        Ok(self.finish())
    }

    /// The highest timestamp that has arrived (the reorder buffer's
    /// when there is one: the scheduler's progress trails it by the
    /// slack) — also the stream position speculative emissions are
    /// stamped with.
    fn arrival_watermark(&self) -> Time {
        self.reorder
            .as_ref()
            .map_or_else(|| self.scheduler.progress(), ReorderBuffer::high_watermark)
    }

    /// Executes one stream transaction: derivation, transition
    /// application (with context-history maintenance), routing,
    /// processing, the partition's watermark advance. The partition's
    /// record is looked up once; its run states are handed to the
    /// operators the transaction reaches and, at its end, only those
    /// are examined ([`StateSlots::leave`](caesar_algebra::pattern::StateSlots::leave)).
    fn execute(&mut self, txn: StreamTransaction<'_>) {
        let StreamTransaction {
            time: t,
            partition,
            events,
        } = txn;

        let id = partition.0;
        let mut fresh = None;
        let stored = self.partitions.get_mut(&id);
        let had_record = stored.is_some();
        let run = stored.unwrap_or_else(|| fresh.insert(PartitionRun::default()));
        self.run_state_bytes -= run.bytes();
        run.touched = t;
        let programs = &mut self.template;
        let held = programs.slots.enter(&mut run.states);

        let mut out = std::mem::take(&mut self.scratch.out);
        self.obs.inc(CounterId::TransactionsExecuted);
        self.obs.observe_batch_size(events.len() as u64);

        // Phase 1: context derivation (before any processing at t).
        let span = self.obs.span_start();
        let mut transitions = std::mem::take(&mut self.scratch.transitions);
        programs.run_derivation(events, &self.table, run, &mut transitions);
        self.obs.span_end(Stage::Derivation, span);
        let span = self.obs.span_start();
        // Windows closing at time t still admit events carrying exactly
        // t (`(t_i, t_t]`, Definition 1), so the closing plans' state
        // must survive until this transaction's processing phase is
        // done: collect the context bits to reset, apply them after
        // `run_processing`.
        let mut closed_bits = std::mem::take(&mut self.scratch.closed_bits);
        for transition in transitions.drain(..) {
            debug_assert_eq!(transition.partition, partition);
            // CI_c removes the default window as a side effect (§4.1)
            // without emitting a Terminate — the default context's plans
            // must still discard their window-scoped state.
            let default_bit = self.table.default_bit();
            let default_was_open = transition.kind == TransitionKind::Initiate
                && transition.context_bit != default_bit
                && self.table.holds(partition, default_bit);
            self.table.apply(transition);
            self.transitions_applied += 1;
            if transition.kind == TransitionKind::Terminate {
                closed_bits.push(transition.context_bit);
            } else if default_was_open && !self.table.holds(partition, default_bit) {
                closed_bits.push(default_bit);
            }
        }
        // The partition's entry, if it needs one, is due one horizon
        // after this transaction.
        let due = t.saturating_add(programs.horizon);
        if !closed_bits.is_empty() {
            // A stateless partition needs an entry too: for its spans.
            self.worklist.enter(id, due);
        }
        self.scratch.transitions = transitions;
        self.obs.span_end(Stage::Transitions, span);

        // Phase 2: context-aware routing + processing. Routing is one
        // decision per transaction, and each active plan runs once over
        // the whole event slice.
        let span = self.obs.span_start();
        let mut active = std::mem::take(&mut self.active);
        self.router.select(
            programs,
            partition,
            t,
            &self.table,
            events.len() as u64,
            &mut active,
        );
        self.obs.span_end(Stage::Router, span);
        self.obs.tick_contexts(&active, programs.processing.len());
        let span = self.obs.span_start();
        programs.run_processing(events, &self.table, &active, run, &mut out);
        self.active = active;
        self.obs.span_end(Stage::Processing, span);

        // Deferred context-history maintenance for windows that closed
        // in this transaction (their last admissible events were just
        // processed).
        closed_bits.dedup();
        for bit in closed_bits.drain(..) {
            programs.on_context_terminated(bit, partition, &self.table);
        }
        self.scratch.closed_bits = closed_bits;

        // Watermark: all events with time < t+1 of this partition seen.
        // Only what the partition held before `t` can be due at `t`
        // (what `t` added expires at `t + min_within` or later), so
        // the walk runs when that fell due, and does what it always did.
        if run.next < t {
            let span = self.obs.span_start();
            run.next = programs.advance_time(t, &self.table, &mut out);
            self.obs.span_end(Stage::AdvanceTime, span);
        } else {
            run.next = run.next.min(t.saturating_add(programs.min_within));
        }

        let (reached, examined) = programs.slots.leave(&mut run.states);
        self.obs.add(CounterId::RunSlotsHeld, held as u64);
        self.obs.add(CounterId::RunSlotsReached, reached as u64);
        self.obs.add(CounterId::RunSlotsExamined, examined as u64);
        self.run_state_bytes += run.bytes();
        if run.is_empty() {
            // An entry the record had stays: it is the row's now.
            if had_record {
                self.partitions.remove(&id);
            }
        } else {
            self.worklist.enter(id, due);
            if let Some(fresh) = fresh {
                self.partitions.insert(id, fresh);
            }
        }

        self.account_outputs(partition, t, &out);
        out.clear();
        self.scratch.out = out;
    }

    /// Accounts what the transaction of `partition` at `time` derived.
    fn account_outputs(&mut self, partition: PartitionId, time: Time, out: &PlanOutput) {
        if out.events.is_empty() {
            return;
        }
        self.events_out += out.events.len() as u64;
        for e in &out.events {
            count(&mut self.outputs_by_type, e.type_id);
        }
        if self.config.collect_outputs {
            self.collected_outputs.extend(out.events.iter().cloned());
        }
        if let Some(capture) = self.spec_capture.as_mut() {
            capture.push(partition, time, &out.events);
        }
    }

    /// Overwrites this engine's run state and context row of partition
    /// `p` with `core`'s — an engine executing the same program — and
    /// touches nothing else of either: the speculative fork's rewind.
    /// In place ([`ProgramTemplate::copy_run`],
    /// [`ContextTable::copy_partition`]).
    fn copy_partition_from(&mut self, core: &Engine, p: PartitionId) {
        let mut run = self.partitions.remove(&p.0).unwrap_or_default();
        self.run_state_bytes -= run.bytes();
        let empty = PartitionRun::default();
        let src = core.partitions.get(&p.0).unwrap_or(&empty);
        self.template.copy_run(src, &mut run);
        self.store(p.0, run);
        self.table.copy_partition(&core.table, p);
    }

    /// The current observability snapshot: the registry's counters and
    /// histograms, the scheduler's peak queue depth, and a walk of the
    /// program's operator counters — one set per engine, accumulated
    /// over every partition, so the walk is O(plans) — into
    /// per-operator (`<query>/<i>:<kind>`, and `<context>/shared<g>:prefix`
    /// per shared-prefix group), per-query and per-context-window
    /// accounting. The operator walk is always populated (operators
    /// count unconditionally); counters, gauges, histograms, ticks and
    /// spans honour the configured [`ObservabilityLevel`]. Every
    /// deriving plan is walked, so a context-independent program's
    /// private re-derivers count their work under the query they clone
    /// (their operator indices exclude the stripped context operators).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snap = self.obs.snapshot();
        snap.queue_depth_peak = self.scheduler.peak_queue_depth() as u64;
        // Context-bit → name map from the template's plans (bits with
        // no named plan render as `bit<n>`).
        let mut names: BTreeMap<u8, &str> = BTreeMap::new();
        for combined in &self.template.processing {
            names
                .entry(combined.context_bit)
                .or_insert(&combined.context);
        }
        for plan in &self.template.deriving {
            names.entry(plan.context_bit).or_insert(&plan.context);
        }
        let context_name = |bit: u8| {
            names
                .get(&bit)
                .map_or_else(|| format!("bit{bit}"), ToString::to_string)
        };
        let processing = self.template.processing.iter().flat_map(|c| &c.plans);
        for plan in self.template.deriving.iter().chain(processing) {
            let query = plan.query_id.to_string();
            let mut chain_in: Option<u64> = None;
            let mut chain_out = 0;
            for (i, op) in plan.ops.iter().enumerate() {
                let Some(o) = op.observation() else { continue };
                let m = snap
                    .operators
                    .entry(format!("{query}/{i}:{}", o.kind))
                    .or_default();
                m.events_in += o.events_in;
                m.events_out += o.events_out;
                m.errors += o.errors;
                chain_in.get_or_insert(o.events_in);
                chain_out = o.events_out;
                if let caesar_algebra::ops::Op::ContextWindow(cw) = op {
                    let c = snap
                        .contexts
                        .entry(context_name(cw.context_bit))
                        .or_default();
                    c.events_admitted += cw.admitted;
                    c.events_dropped += cw.dropped;
                }
            }
            let q = snap.queries.entry(query).or_default();
            q.events_in += chain_in.unwrap_or(0);
            q.matches_out += chain_out;
        }
        // Shared-prefix groups: the prefix work their members delegate,
        // and the window verdicts decided for events no member's own
        // context window saw.
        for combined in &self.template.processing {
            for (g, group) in combined.shared_groups().iter().enumerate() {
                let m = snap
                    .operators
                    .entry(format!("{}/shared{g}:prefix", combined.context))
                    .or_default();
                m.events_in += group.stats.events_processed;
                m.events_out += group.stats.matches;
                let c = snap.contexts.entry(combined.context.clone()).or_default();
                c.events_admitted += group.admitted;
                c.events_dropped += group.dropped;
            }
        }
        // Suspended-vs-active ticks from the router accounting, indexed
        // like the template's combined plans.
        for (idx, &(active, suspended)) in self.obs.context_ticks().iter().enumerate() {
            if let Some(combined) = self.template.processing.get(idx) {
                let c = snap.contexts.entry(combined.context.clone()).or_default();
                c.active_ticks += active;
                c.suspended_ticks += suspended;
            }
        }
        // Partial-pool efficacy (the slabs count unconditionally; the
        // counters honour the level like every other counter): total
        // free-list reuses and the partial-slab high-water mark across
        // all partitions. Then the state-size gauges: partitions with a
        // context vector, partitions with run state, and the
        // capacity-based size of that run state — maintained as
        // partitions take turns, never computed by a walk over them.
        if self.obs.counters_enabled() {
            let (reused, peak) = self.template.pool_stats();
            let (with_state, bytes) = (self.partitions.len(), self.run_state_bytes);
            let gauges = [
                ("spec_pool_reuse", reused),
                ("partials_peak", peak as u64),
                (
                    "partitions_materialized",
                    self.table.materialized_partitions() as u64,
                ),
                ("partitions_with_state", with_state as u64),
                ("run_state_bytes", bytes as u64),
            ];
            for (name, value) in gauges {
                snap.counters.insert(name.into(), value);
            }
        }
        snap
    }

    fn report(&self) -> RunReport {
        RunReport {
            metrics: self.metrics_snapshot(),
            events_in: self.events_in,
            events_out: self.events_out,
            transitions_applied: self.transitions_applied,
            outputs_by_type: by_type(&self.outputs_by_type)
                .map(|(tid, n)| {
                    let name = self.type_names.get(&tid);
                    (name.cloned().unwrap_or_else(|| tid.to_string()), n)
                })
                .collect(),
            plans_fed: self.router.plans_fed,
            plans_suspended: self.router.plans_suspended,
            peak_partials: self.template.pool_stats().1,
        }
    }
}

/// Counts one event of type `t` in a per-type vector.
fn count(counts: &mut Vec<u64>, t: TypeId) {
    if counts.len() <= t.index() {
        counts.resize(t.index() + 1, 0);
    }
    counts[t.index()] += 1;
}

/// The types a per-type vector counted, ascending, with their counts.
fn by_type(counts: &[u64]) -> impl Iterator<Item = (TypeId, u64)> + '_ {
    let counted = counts.iter().enumerate().filter(|(_, &n)| n > 0);
    counted.map(|(i, &n)| (TypeId(i as u32), n))
}

/// The expiry worklist: `(d, p)` entries, earliest first, once what `p`
/// held when entered — run state, closed context spans, its context row
/// — is dead at `d`. A partition has at most one entry. It outlives the
/// partition's record: a record a transaction empties leaves it to the
/// context row, and the partition's next record finds it there.
#[derive(Debug, Default)]
struct Worklist {
    heap: BinaryHeap<Reverse<(Time, u32)>>,
    /// Each entered partition's deadline.
    queued: PartitionMap<Time>,
}

impl Worklist {
    /// Enters partition `id` under `due` unless it has an entry.
    fn enter(&mut self, id: u32, due: Time) {
        if let Entry::Vacant(slot) = self.queued.entry(id) {
            slot.insert(due);
            self.heap.push(Reverse((due, id)));
        }
    }

    /// Whether an entry is due before `watermark`.
    fn due_before(&self, watermark: Time) -> bool {
        self.heap
            .peek()
            .is_some_and(|Reverse((due, _))| *due < watermark)
    }

    /// Removes the earliest entry if it is due before `watermark`, and
    /// returns its partition.
    fn pop_before(&mut self, watermark: Time) -> Option<u32> {
        if !self.due_before(watermark) {
            return None;
        }
        let Reverse((due, id)) = self.heap.pop()?;
        let queued = self.queued.remove(&id);
        debug_assert_eq!(queued, Some(due), "one entry per partition");
        Some(id)
    }

    fn clear(&mut self) {
        self.heap.clear();
        self.queued.clear();
    }
}

/// Builds, optimizes and runs a model against a stream in one call —
/// the simplest end-to-end entry point (the facade crate re-exports a
/// richer builder).
pub fn run_model(
    model: &caesar_query::model::CaesarModel,
    registry: &mut SchemaRegistry,
    optimizer: &caesar_optimizer::Optimizer,
    config: EngineConfig,
    stream: &mut dyn EventStream,
) -> Result<RunReport, Box<dyn std::error::Error>> {
    let query_set = caesar_query::queryset::QuerySet::from_model(model)?;
    let translation = caesar_algebra::translate::translate_query_set(
        &query_set,
        registry,
        &caesar_algebra::translate::TranslateOptions::default(),
    )?;
    let program = optimizer.optimize(translation, registry);
    let mut engine = Engine::new(program, registry, config);
    Ok(engine.run_stream(stream)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_algebra::translate::{translate_query_set, TranslateOptions};
    use caesar_events::{AttrType, PartitionId, Schema, Value, VecStream};
    use caesar_optimizer::{Mode, Optimizer, OptimizerConfig};
    use caesar_query::parser::parse_model;
    use caesar_query::queryset::QuerySet;

    const TRAFFIC: &str = r#"
        MODEL traffic DEFAULT clear
        CONTEXT clear {
            SWITCH CONTEXT congestion PATTERN ManySlowCars
        }
        CONTEXT congestion {
            SWITCH CONTEXT clear PATTERN FewFastCars
            DERIVE TollNotification(p.vid, p.sec, 5) PATTERN PositionReport p
                WHERE p.lane != "exit"
        }
    "#;

    pub(super) fn registry() -> SchemaRegistry {
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
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

    fn build_engine(mode: Mode) -> (Engine, SchemaRegistry) {
        let model = parse_model(TRAFFIC).unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = registry();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let cfg = if mode == Mode::ContextAware {
            OptimizerConfig::default()
        } else {
            OptimizerConfig::unoptimized()
        };
        let program = Optimizer::new(cfg, Default::default()).optimize(t, &reg);
        let engine = Engine::new(
            program,
            &reg,
            EngineConfig {
                mode,
                ..EngineConfig::default()
            },
        );
        (engine, reg)
    }

    pub(super) fn pr(reg: &SchemaRegistry, t: Time, vid: i64, lane: &str, p: u32) -> Event {
        Event::simple(
            reg.lookup("PositionReport").unwrap(),
            t,
            PartitionId(p),
            vec![Value::Int(vid), Value::Int(t as i64), Value::str(lane)],
        )
    }

    pub(super) fn marker(reg: &SchemaRegistry, ty: &str, t: Time, p: u32) -> Event {
        Event::simple(
            reg.lookup(ty).unwrap(),
            t,
            PartitionId(p),
            vec![Value::Int(0)],
        )
    }

    #[test]
    fn snapshot_restore_round_trip_mid_context() {
        // Snapshot while a congestion window is open (live context bits,
        // open pattern state): a fresh engine restored from the encoded
        // snapshot must finish the stream exactly like the original.
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        engine.ingest(pr(&reg, 1, 1, "travel", 0)).unwrap();
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 6, 2, "travel", 0)).unwrap();

        let bytes = serde::to_bytes(&engine.snapshot_state());
        let state: EngineState = serde::from_bytes(&bytes).unwrap();
        let (mut restored, _) = build_engine(Mode::ContextAware);
        restored.restore_state(state).unwrap();
        assert_eq!(restored.events_in(), 3);

        for target in [&mut engine, &mut restored] {
            target.ingest(pr(&reg, 7, 3, "exit", 0)).unwrap();
            target.ingest(marker(&reg, "FewFastCars", 10, 0)).unwrap();
            target.ingest(pr(&reg, 11, 4, "travel", 0)).unwrap();
        }
        let a = engine.finish();
        let b = restored.finish();
        assert_eq!(a.events_in, b.events_in);
        assert_eq!(a.events_out, b.events_out);
        assert_eq!(a.transitions_applied, b.transitions_applied);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(a.outputs_of("TollNotification"), 1);
    }

    #[test]
    fn snapshot_between_two_events_of_one_timestamp_resumes_identically() {
        // The snapshot falls inside timestamp 6: the scheduler's
        // frontier holds two of its events (one per partition), and
        // partition 0's second one arrives after the restore. Both
        // engines must form the same transactions (partition 0 before
        // 1, arrival order inside) and emit the same bytes.
        let config = EngineConfig::builder().collect_outputs(true).build();
        let (mut engine, reg) = build_engine_with(Mode::ContextAware, config);
        for p in 0..2 {
            engine.ingest(marker(&reg, "ManySlowCars", 5, p)).unwrap();
        }
        engine.ingest(pr(&reg, 6, 1, "travel", 0)).unwrap();
        engine.ingest(pr(&reg, 6, 2, "travel", 1)).unwrap();
        assert_eq!(engine.events_buffered(), 2);

        let bytes = serde::to_bytes(&engine.snapshot_state());
        let state: EngineState = serde::from_bytes(&bytes).unwrap();
        let (mut restored, _) = build_engine_with(Mode::ContextAware, config);
        restored.restore_state(state).unwrap();
        assert_eq!(restored.events_buffered(), 2);

        for target in [&mut engine, &mut restored] {
            target.ingest(pr(&reg, 6, 3, "travel", 0)).unwrap();
            target.ingest(pr(&reg, 7, 4, "travel", 1)).unwrap();
        }
        let a = engine.finish();
        let b = restored.finish();
        assert_eq!(a.outputs_of("TollNotification"), 4);
        assert_eq!(a.outputs_by_type, b.outputs_by_type);
        assert_eq!(a.peak_partials, b.peak_partials);
        let vids = |e: &Engine| -> Vec<Value> {
            let outputs = e.collected_outputs.iter();
            outputs.map(|o| o.attrs[0].clone()).collect()
        };
        assert_eq!(vids(&engine), [1, 3, 2, 4].map(Value::Int));
        assert_eq!(
            caesar_events::encode_all(&engine.collected_outputs),
            caesar_events::encode_all(&restored.collected_outputs),
        );
    }

    #[test]
    fn builder_round_trips_every_knob() {
        let built = EngineConfig::builder()
            .mode(Mode::ContextIndependent)
            .sharing(false)
            .reorder_slack(3)
            .collect_outputs(true)
            .observability(ObservabilityLevel::Spans)
            .consistency(Consistency::Speculative)
            .provenance(true)
            .build();
        assert_eq!(built.mode, Mode::ContextIndependent);
        assert!(!built.sharing);
        assert_eq!(built.reorder_slack, 3);
        assert!(built.collect_outputs);
        assert_eq!(built.observability, ObservabilityLevel::Spans);
        assert_eq!(built.consistency, Consistency::Speculative);
        assert!(built.provenance);
        assert_eq!(built.to_builder().build(), built);
        assert_eq!(EngineConfig::builder().build(), EngineConfig::default());
    }

    #[test]
    fn semantics_ignore_observability_level() {
        let instrumented = EngineConfig::builder()
            .observability(ObservabilityLevel::Spans)
            .build();
        assert!(EngineConfig::default().semantics_eq(&instrumented));
        let (engine, _) = build_engine(Mode::ContextAware);
        let state = engine.snapshot_state();
        let (mut other, _) = build_engine_with(Mode::ContextAware, instrumented);
        other.restore_state(state).unwrap();
        assert!(!EngineConfig::default().semantics_eq(&EngineConfig {
            provenance: true,
            ..EngineConfig::default()
        }));
    }

    #[test]
    fn restore_rejects_mismatched_config() {
        let (engine, _) = build_engine(Mode::ContextAware);
        let state = engine.snapshot_state();
        let (mut other, _) = build_engine(Mode::ContextIndependent);
        assert!(matches!(
            other.restore_state(state),
            Err(RestoreError::ConfigMismatch)
        ));
    }

    #[test]
    fn restore_rejects_a_different_program() {
        // The same model with one WHERE constant changed: same plans,
        // same contexts, another program.
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        engine.ingest(marker(&reg, "ManySlowCars", 5, 0)).unwrap();
        engine.ingest(pr(&reg, 6, 1, "travel", 0)).unwrap();
        let state = engine.snapshot_state();
        let edited = TRAFFIC.replace(r#"!= "exit""#, r#"!= "travel""#);
        let config = EngineConfig::default();
        let (mut other, _) = build_model_engine(&edited, Mode::ContextAware, config);
        let before = serde::to_bytes(&other.snapshot_state());
        assert_eq!(
            other.restore_state(state.clone()),
            Err(RestoreError::ProgramMismatch)
        );
        assert_eq!(
            serde::to_bytes(&other.snapshot_state()),
            before,
            "untouched"
        );
        let (mut same, _) = build_engine(Mode::ContextAware);
        same.restore_state(state).unwrap();
        assert_eq!(same.events_in(), 2);
    }

    pub(super) fn build_engine_with(mode: Mode, config: EngineConfig) -> (Engine, SchemaRegistry) {
        build_model_engine(TRAFFIC, mode, config)
    }

    fn build_model_engine(
        text: &str,
        mode: Mode,
        config: EngineConfig,
    ) -> (Engine, SchemaRegistry) {
        let model = parse_model(text).unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = registry();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let cfg = if mode == Mode::ContextAware {
            OptimizerConfig::default()
        } else {
            OptimizerConfig::unoptimized()
        };
        let program = Optimizer::new(cfg, Default::default()).optimize(t, &reg);
        let engine = Engine::new(program, &reg, EngineConfig { mode, ..config });
        (engine, reg)
    }

    #[test]
    fn tolls_only_during_congestion() {
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        let mut stream = VecStream::new(vec![
            pr(&reg, 1, 1, "travel", 0),        // clear: no toll
            marker(&reg, "ManySlowCars", 5, 0), // switch to congestion
            pr(&reg, 6, 2, "travel", 0),        // congestion: toll
            pr(&reg, 7, 3, "exit", 0),          // exit lane: no toll
            marker(&reg, "FewFastCars", 10, 0), // back to clear
            pr(&reg, 11, 4, "travel", 0),       // clear again: no toll
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.outputs_of("TollNotification"), 1);
        assert_eq!(report.transitions_applied, 4, "two switches");
        assert_eq!(report.events_in, 6);
    }

    #[test]
    fn switch_event_itself_is_not_tolled() {
        // The congestion window is (t_i, t_t]: an event at the switch
        // timestamp still belongs to clear.
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        let mut stream = VecStream::new(vec![
            marker(&reg, "ManySlowCars", 5, 0),
            pr(&reg, 5, 9, "travel", 0),
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.outputs_of("TollNotification"), 0);
    }

    #[test]
    fn termination_timestamp_still_tolled() {
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        let mut stream = VecStream::new(vec![
            marker(&reg, "ManySlowCars", 5, 0),
            marker(&reg, "FewFastCars", 10, 0),
            pr(&reg, 10, 9, "travel", 0), // at t_t: within (5, 10]
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.outputs_of("TollNotification"), 1);
    }

    #[test]
    fn partitions_have_independent_contexts() {
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        let mut stream = VecStream::new(vec![
            marker(&reg, "ManySlowCars", 5, 0), // only partition 0 congested
            pr(&reg, 6, 1, "travel", 0),
            pr(&reg, 6, 2, "travel", 1), // partition 1 still clear
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.outputs_of("TollNotification"), 1);
    }

    #[test]
    fn baseline_produces_identical_outputs() {
        let events = |reg: &SchemaRegistry| {
            vec![
                pr(reg, 1, 1, "travel", 0),
                marker(reg, "ManySlowCars", 5, 0),
                pr(reg, 6, 2, "travel", 0),
                pr(reg, 8, 3, "exit", 0),
                marker(reg, "FewFastCars", 10, 0),
                pr(reg, 11, 4, "travel", 0),
            ]
        };
        let (mut ca, reg_a) = build_engine(Mode::ContextAware);
        let ra = ca.run_stream(&mut VecStream::new(events(&reg_a))).unwrap();
        let (mut ci, reg_b) = build_engine(Mode::ContextIndependent);
        let rb = ci.run_stream(&mut VecStream::new(events(&reg_b))).unwrap();
        assert_eq!(
            ra.outputs_of("TollNotification"),
            rb.outputs_of("TollNotification"),
            "both modes must compute the same results"
        );
    }

    #[test]
    fn context_aware_mode_suspends_plans() {
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        // Stay in clear the whole time: the congestion plan never runs.
        let mut stream = VecStream::new(vec![
            pr(&reg, 1, 1, "travel", 0),
            pr(&reg, 2, 2, "travel", 0),
            pr(&reg, 3, 3, "travel", 0),
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.plans_fed, 0, "no processing plan active in clear");
        assert_eq!(report.plans_suspended, 3);
    }

    #[test]
    fn baseline_never_suspends() {
        let (mut engine, reg) = build_engine(Mode::ContextIndependent);
        let mut stream = VecStream::new(vec![
            pr(&reg, 1, 1, "travel", 0),
            pr(&reg, 2, 2, "travel", 0),
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.plans_suspended, 0);
        assert_eq!(report.plans_fed, 2);
        // ...and still computes nothing out of context.
        assert_eq!(report.outputs_of("TollNotification"), 0);
    }

    #[test]
    fn busy_wait_baseline_neither_suspends_nor_rederives() {
        let (mut engine, reg) = build_engine(Mode::BusyWait);
        let (ci, _) = build_engine(Mode::ContextIndependent);
        // Two switch queries; the baseline adds a private re-deriver for
        // the one processing query of congestion.
        assert_eq!(engine.template.deriving.len(), 2);
        assert_eq!(ci.template.deriving.len(), 3);
        let mut stream = VecStream::new(vec![
            pr(&reg, 1, 1, "travel", 0),
            pr(&reg, 2, 2, "travel", 0),
        ]);
        let report = engine.run_stream(&mut stream).unwrap();
        assert_eq!(report.plans_suspended, 0);
        assert_eq!(report.plans_fed, 2);
    }

    #[test]
    fn out_of_order_ingest_is_rejected() {
        let (mut engine, reg) = build_engine(Mode::ContextAware);
        engine.ingest(pr(&reg, 10, 1, "travel", 0)).unwrap();
        let err = engine.ingest(pr(&reg, 5, 2, "travel", 0)).unwrap_err();
        assert!(matches!(err, EventError::OutOfOrder { .. }));
    }

    #[test]
    fn run_model_facade_works() {
        let model = parse_model(TRAFFIC).unwrap();
        let mut reg = registry();
        let optimizer = Optimizer::default();
        let events = vec![
            marker(&reg, "ManySlowCars", 5, 0),
            pr(&reg, 6, 2, "travel", 0),
        ];
        let report = run_model(
            &model,
            &mut reg,
            &optimizer,
            EngineConfig::default(),
            &mut VecStream::new(events),
        )
        .unwrap();
        assert_eq!(report.outputs_of("TollNotification"), 1);
    }
}
