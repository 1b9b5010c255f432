//! The observability layer: a zero-dependency metrics registry of named
//! counters, fixed-bucket histograms and span-style stage timers.
//!
//! The paper's §7 evaluation is throughput and maximal latency; this
//! module makes the *composition* of those numbers visible — where time
//! goes per pipeline stage (distributor → reorder → scheduler → router
//! → operator execution, plus checkpoint write and WAL append), what
//! each operator saw (events in, matches out, evaluation errors), and
//! how often each context window was suspended versus active (the
//! Thm. 1 push-down savings, directly readable).
//!
//! # Ownership and gating
//!
//! Each [`Engine`](crate::engine::Engine) owns one [`MetricsRegistry`];
//! the recovery layer's `CheckpointManager` owns a second one for the
//! durability stages. Everything is gated at runtime by an
//! [`ObservabilityLevel`] carried in the engine configuration:
//!
//! * [`Off`](ObservabilityLevel::Off) — every recording method is a
//!   single branch on a plain enum; no clocks are read, no memory is
//!   written.
//! * [`Counters`](ObservabilityLevel::Counters) — named counters, the
//!   batch-size histogram, and per-context active/suspended tick
//!   accounting. No clock reads.
//! * [`Spans`](ObservabilityLevel::Spans) — everything above plus
//!   wall-clock stage timers (two `Instant` reads per span).
//!
//! Registries are deliberately *not* part of the engine's checkpoint
//! state: metrics describe a process, not the stream computation, so a
//! recovered engine restarts them at zero.
//!
//! The end-of-run aggregate is a [`MetricsSnapshot`] — a plain
//! serializable struct embedded in
//! [`RunReport`](crate::engine::RunReport), mergeable across shards,
//! with a hand-rolled JSON encoding for `caesar run --metrics-json`
//! (the vendored serde shim is binary-only).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// How much the engine records about itself while running.
///
/// The level is a plain run-time gate: the same binary serves all three
/// settings, and `Off` reduces every instrumentation site to one enum
/// comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Serialize, Deserialize)]
pub enum ObservabilityLevel {
    /// Record nothing (the default; within noise of no instrumentation).
    #[default]
    Off,
    /// Named counters, the batch-size histogram, per-context ticks.
    Counters,
    /// `Counters` plus wall-clock span timers around pipeline stages.
    Spans,
}

impl ObservabilityLevel {
    /// True when counters (and histograms fed by them) are recorded.
    #[must_use]
    pub fn counters_enabled(self) -> bool {
        self != ObservabilityLevel::Off
    }

    /// True when wall-clock stage spans are recorded.
    #[must_use]
    pub fn spans_enabled(self) -> bool {
        self == ObservabilityLevel::Spans
    }

    /// The level's lower-case name (`off` / `counters` / `spans`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            ObservabilityLevel::Off => "off",
            ObservabilityLevel::Counters => "counters",
            ObservabilityLevel::Spans => "spans",
        }
    }
}

impl std::str::FromStr for ObservabilityLevel {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "off" => Ok(ObservabilityLevel::Off),
            "counters" => Ok(ObservabilityLevel::Counters),
            "spans" => Ok(ObservabilityLevel::Spans),
            other => Err(format!(
                "unknown observability level `{other}` (expected off, counters or spans)"
            )),
        }
    }
}

/// A pipeline stage a span timer can cover.
///
/// Spans are *inclusive*: a stage's time contains the stages it invokes
/// (`distributor` wraps one whole ingest call, scheduler hand-off
/// included but transaction execution excluded; the execute-phase
/// stages — `derivation` through `advance_time` — partition one
/// transaction's service time between them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// One whole `Engine::ingest` call (accounting + scheduling;
    /// transaction execution is timed by the phase stages below).
    Distributor,
    /// Reorder-buffer insertion (only with `reorder_slack > 0`).
    Reorder,
    /// Scheduler ingest plus the ready-transaction release scan.
    Scheduler,
    /// Context derivation (phase 1 of a transaction).
    Derivation,
    /// Context-table transition application and history maintenance.
    Transitions,
    /// The context-aware routing decision (`Router::select`).
    Router,
    /// Processing-plan execution over the transaction's events.
    Processing,
    /// Expiry: a partition's own watermark walk when something it holds
    /// fell due (matured negations, state pruning), and the worklist
    /// sweep by global progress.
    AdvanceTime,
    /// Writing one engine checkpoint (recovery layer).
    CheckpointWrite,
    /// Appending events to the write-ahead log (recovery layer).
    WalAppend,
}

impl Stage {
    /// Every stage, in pipeline (and declaration) order.
    pub const ALL: [Stage; 10] = [
        Stage::Distributor,
        Stage::Reorder,
        Stage::Scheduler,
        Stage::Derivation,
        Stage::Transitions,
        Stage::Router,
        Stage::Processing,
        Stage::AdvanceTime,
        Stage::CheckpointWrite,
        Stage::WalAppend,
    ];

    /// The stage's snake_case name (the key in snapshots and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Stage::Distributor => "distributor",
            Stage::Reorder => "reorder",
            Stage::Scheduler => "scheduler",
            Stage::Derivation => "derivation",
            Stage::Transitions => "transitions",
            Stage::Router => "router",
            Stage::Processing => "processing",
            Stage::AdvanceTime => "advance_time",
            Stage::CheckpointWrite => "checkpoint_write",
            Stage::WalAppend => "wal_append",
        }
    }

    /// Position in [`ALL`](Self::ALL) (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// A named counter of the registry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// Input events accepted by the distributor.
    EventsIngested,
    /// Stream transactions executed.
    TransactionsExecuted,
    /// Sweeps of the expiry worklist that freed anything: an operator's
    /// run state, a closed context window's span or a context row (the
    /// name predates the worklist; it counted periodic context-table
    /// collections).
    GcRuns,
    /// Operator run states the expiry sweeps emptied and recycled.
    ExpiredStates,
    /// Run-state slots partitions held as their transactions began.
    RunSlotsHeld,
    /// Run-state slots transactions reached (asked to change), once each.
    RunSlotsReached,
    /// Run-state slots examined at transaction end: at most the slots
    /// held plus reached, whatever the size of the program.
    RunSlotsExamined,
    /// Checkpoints written (recovery-layer registry).
    CheckpointsWritten,
    /// Events appended to the write-ahead log (recovery-layer registry).
    WalEventsAppended,
    /// Client connections accepted (server-layer registry).
    ConnectionsAccepted,
    /// Client connections rejected or torn down on protocol errors
    /// (server-layer registry).
    ConnectionsRejected,
    /// Protocol frames received from clients (server-layer registry).
    FramesIn,
    /// Protocol frames sent to clients (server-layer registry).
    FramesOut,
    /// Ingest frames rejected by admission control — full tenant queue,
    /// draining server, unknown or finished tenant (server-layer
    /// registry).
    IngestRejected,
    /// Output events emitted speculatively (before their inputs settled;
    /// includes re-emissions after a revision).
    SpeculativeEmits,
    /// Retraction records emitted when a late arrival invalidated
    /// speculative output.
    SpeculativeRetractions,
    /// Revision passes: late arrivals that forced the speculative
    /// overlay to rewind their partition to the settled state and
    /// replay its unsettled events (a late transaction the partition's
    /// head state can execute is not one).
    SpeculativeRebuilds,
    /// Events executed by those replays — the work unit of a revision.
    SpeculativeReplayedEvents,
    /// Cumulative application-time ticks between an output's speculative
    /// emission and its settlement — divided by `speculative_emits`,
    /// the mean latency the speculation bought per output.
    SpeculationLeadTicks,
}

impl CounterId {
    /// Every counter, in snapshot order.
    pub const ALL: [CounterId; 19] = [
        CounterId::EventsIngested,
        CounterId::TransactionsExecuted,
        CounterId::GcRuns,
        CounterId::ExpiredStates,
        CounterId::RunSlotsHeld,
        CounterId::RunSlotsReached,
        CounterId::RunSlotsExamined,
        CounterId::CheckpointsWritten,
        CounterId::WalEventsAppended,
        CounterId::ConnectionsAccepted,
        CounterId::ConnectionsRejected,
        CounterId::FramesIn,
        CounterId::FramesOut,
        CounterId::IngestRejected,
        CounterId::SpeculativeEmits,
        CounterId::SpeculativeRetractions,
        CounterId::SpeculativeRebuilds,
        CounterId::SpeculativeReplayedEvents,
        CounterId::SpeculationLeadTicks,
    ];

    /// The counter's snake_case name (the key in snapshots and JSON).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            CounterId::EventsIngested => "events_ingested",
            CounterId::TransactionsExecuted => "transactions_executed",
            CounterId::GcRuns => "gc_runs",
            CounterId::ExpiredStates => "expired_states",
            CounterId::RunSlotsHeld => "run_slots_held",
            CounterId::RunSlotsReached => "run_slots_reached",
            CounterId::RunSlotsExamined => "run_slots_examined",
            CounterId::CheckpointsWritten => "checkpoints_written",
            CounterId::WalEventsAppended => "wal_events_appended",
            CounterId::ConnectionsAccepted => "connections_accepted",
            CounterId::ConnectionsRejected => "connections_rejected",
            CounterId::FramesIn => "frames_in",
            CounterId::FramesOut => "frames_out",
            CounterId::IngestRejected => "ingest_rejected",
            CounterId::SpeculativeEmits => "speculative_emits",
            CounterId::SpeculativeRetractions => "speculative_retractions",
            CounterId::SpeculativeRebuilds => "speculative_rebuilds",
            CounterId::SpeculativeReplayedEvents => "speculative_replayed_events",
            CounterId::SpeculationLeadTicks => "speculation_lead_ticks",
        }
    }

    /// Position in [`ALL`](Self::ALL) (declaration order).
    fn index(self) -> usize {
        self as usize
    }
}

/// A fixed-bucket histogram: `counts[i]` holds values `v ≤ bounds[i]`
/// (first bucket they fit), with one overflow bucket past the last
/// bound (`counts.len() == bounds.len() + 1`).
///
/// Bounds are chosen at construction and never change, so merging two
/// histograms of the same shape is element-wise addition — the property
/// sharded runs rely on.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Histogram {
    /// Inclusive upper bounds of the finite buckets, ascending.
    pub bounds: Vec<u64>,
    /// Per-bucket counts; the extra last slot is the overflow bucket.
    pub counts: Vec<u64>,
    /// Total values recorded.
    pub count: u64,
    /// Sum of all recorded values.
    pub sum: u64,
    /// Largest value recorded.
    pub max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::with_bounds(Vec::new())
    }
}

impl Histogram {
    /// A histogram over the given inclusive upper bounds (ascending).
    #[must_use]
    pub fn with_bounds(bounds: Vec<u64>) -> Self {
        debug_assert!(bounds.windows(2).all(|w| w[0] < w[1]), "bounds ascending");
        let counts = vec![0; bounds.len() + 1];
        Self {
            bounds,
            counts,
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// The latency shape: power-of-four nanosecond buckets from 1 µs to
    /// ~4.4 s, covering sub-microsecond operator calls to full
    /// checkpoint writes in 12 buckets.
    #[must_use]
    pub fn latency_ns() -> Self {
        Self::with_bounds(vec![
            1_000,
            4_000,
            16_000,
            64_000,
            256_000,
            1_024_000,
            4_096_000,
            16_384_000,
            65_536_000,
            262_144_000,
            1_048_576_000,
            4_194_304_000,
        ])
    }

    /// The batch-size shape: power-of-two buckets from 1 to 4096 events
    /// per transaction.
    #[must_use]
    pub fn batch_sizes() -> Self {
        Self::with_bounds(vec![1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 4096])
    }

    /// Records one value.
    pub fn record(&mut self, value: u64) {
        let idx = self.bounds.partition_point(|&b| b < value);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(value);
        self.max = self.max.max(value);
    }

    /// Mean of the recorded values (0 when empty).
    #[must_use]
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count).unwrap_or(0)
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Element-wise merge of a same-shape histogram (shard fan-in). A
    /// histogram that never recorded adopts the other's bounds; merging
    /// two non-empty histograms of different shapes is a caller bug and
    /// panics in debug builds (release: the other's totals still fold
    /// into `count`/`sum`/`max`, buckets are left alone).
    pub fn merge(&mut self, other: &Histogram) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 && self.bounds != other.bounds {
            *self = other.clone();
            return;
        }
        debug_assert_eq!(self.bounds, other.bounds, "merging same-shape histograms");
        if self.bounds == other.bounds {
            for (a, b) in self.counts.iter_mut().zip(&other.counts) {
                *a += b;
            }
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.max = self.max.max(other.max);
    }

    fn to_json(&self) -> String {
        format!(
            "{{\"count\":{},\"sum\":{},\"max\":{},\"mean\":{},\"bounds\":{},\"counts\":{}}}",
            self.count,
            self.sum,
            self.max,
            self.mean(),
            json_u64_array(&self.bounds),
            json_u64_array(&self.counts),
        )
    }
}

/// Per-operator accounting aggregated over all partitions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct OperatorMetrics {
    /// Events (or rows) the operator evaluated.
    pub events_in: u64,
    /// Events (matches, accepted rows, derived events) it passed on.
    pub events_out: u64,
    /// Always 0: predicates have one evaluator, the row interpreter.
    /// Kept because the benchmark ledger's layer report still reads it
    /// (as `algebra.kernel.coverage`); nothing writes, merges or prints
    /// it.
    pub kernel_rows: u64,
    /// Always 0, like [`kernel_rows`](Self::kernel_rows).
    pub fallback_rows: u64,
    /// Evaluation errors (counted as non-matches / dropped rows).
    pub errors: u64,
}

impl OperatorMetrics {
    fn merge(&mut self, other: &OperatorMetrics) {
        self.events_in += other.events_in;
        self.events_out += other.events_out;
        self.errors += other.errors;
    }
}

/// Per-context-window accounting: admission counters from the `CW_c`
/// operators plus the router's suspended-vs-active tick split — the
/// Thm. 1 push-down savings as two numbers.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ContextMetrics {
    /// Routing decisions taken while the context held (plans fed).
    pub active_ticks: u64,
    /// Routing decisions taken while the context did not hold (plans
    /// suspended without touching their operators).
    pub suspended_ticks: u64,
    /// Events admitted by the context's window operators.
    pub events_admitted: u64,
    /// Events dropped by the context's window operators.
    pub events_dropped: u64,
}

impl ContextMetrics {
    fn merge(&mut self, other: &ContextMetrics) {
        self.active_ticks += other.active_ticks;
        self.suspended_ticks += other.suspended_ticks;
        self.events_admitted += other.events_admitted;
        self.events_dropped += other.events_dropped;
    }
}

/// Per-query roll-up over the query's operator chain.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct QueryMetrics {
    /// Events entering the chain (its first counting operator).
    pub events_in: u64,
    /// Events leaving the chain (its last counting operator).
    pub matches_out: u64,
}

impl QueryMetrics {
    fn merge(&mut self, other: &QueryMetrics) {
        self.events_in += other.events_in;
        self.matches_out += other.matches_out;
    }
}

/// The end-of-run aggregate of everything the registry recorded, plus
/// the per-operator / per-query / per-context accounting the engine
/// collects from its operator counters.
///
/// Plain data: serializable (binary via the vendored serde,
/// machine-readable JSON via [`to_json`](Self::to_json)), mergeable
/// across shards via [`merge`](Self::merge), embedded in
/// [`RunReport`](crate::engine::RunReport).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// The level the run recorded under.
    pub level: ObservabilityLevel,
    /// Named counters (empty below `Counters`).
    pub counters: BTreeMap<String, u64>,
    /// Wall-clock stage latency histograms in ns (empty below `Spans`).
    pub stages: BTreeMap<String, Histogram>,
    /// Events per executed transaction (empty below `Counters`).
    pub batch_sizes: Histogram,
    /// Peak depth of any scheduler partition queue.
    pub queue_depth_peak: u64,
    /// Per-operator accounting, keyed `"<query>/<op index>:<op tag>"`.
    pub operators: BTreeMap<String, OperatorMetrics>,
    /// Per-query chain roll-ups, keyed by query id.
    pub queries: BTreeMap<String, QueryMetrics>,
    /// Per-context-window accounting, keyed by context name.
    pub contexts: BTreeMap<String, ContextMetrics>,
}

impl MetricsSnapshot {
    /// Folds another snapshot into this one (shard fan-in). Counters
    /// and per-key metrics add; same-shape histograms add element-wise;
    /// the level keeps the more verbose of the two.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        self.level = self.level.max(other.level);
        for (k, v) in &other.counters {
            let slot = self.counters.entry(k.clone()).or_insert(0);
            if k == "partials_peak" {
                // A high-water mark, not a flow: shards fold by max.
                *slot = (*slot).max(*v);
            } else {
                *slot += v;
            }
        }
        for (k, v) in &other.stages {
            self.stages.entry(k.clone()).or_default().merge(v);
        }
        self.batch_sizes.merge(&other.batch_sizes);
        self.queue_depth_peak = self.queue_depth_peak.max(other.queue_depth_peak);
        for (k, v) in &other.operators {
            self.operators.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.queries {
            self.queries.entry(k.clone()).or_default().merge(v);
        }
        for (k, v) in &other.contexts {
            self.contexts.entry(k.clone()).or_default().merge(v);
        }
    }

    /// Machine-readable JSON encoding (the vendored serde is
    /// binary-only, so `--metrics-json` is emitted by hand). Keys are
    /// sorted (BTreeMap iteration order), making the output
    /// deterministic for a given run.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\n");
        s.push_str(&format!("  \"level\": \"{}\",\n", self.level.name()));
        s.push_str("  \"counters\": {");
        push_entries(&mut s, self.counters.iter(), |v| v.to_string());
        s.push_str("},\n");
        s.push_str("  \"stages\": {");
        push_entries(&mut s, self.stages.iter(), Histogram::to_json);
        s.push_str("},\n");
        s.push_str(&format!(
            "  \"batch_sizes\": {},\n",
            self.batch_sizes.to_json()
        ));
        s.push_str(&format!(
            "  \"queue_depth_peak\": {},\n",
            self.queue_depth_peak
        ));
        s.push_str("  \"operators\": {");
        push_entries(&mut s, self.operators.iter(), |m| {
            format!(
                "{{\"events_in\":{},\"events_out\":{},\"errors\":{}}}",
                m.events_in, m.events_out, m.errors
            )
        });
        s.push_str("},\n");
        s.push_str("  \"queries\": {");
        push_entries(&mut s, self.queries.iter(), |m| {
            format!(
                "{{\"events_in\":{},\"matches_out\":{}}}",
                m.events_in, m.matches_out
            )
        });
        s.push_str("},\n");
        s.push_str("  \"contexts\": {");
        push_entries(&mut s, self.contexts.iter(), |m| {
            format!(
                "{{\"active_ticks\":{},\"suspended_ticks\":{},\"events_admitted\":{},\"events_dropped\":{}}}",
                m.active_ticks, m.suspended_ticks, m.events_admitted, m.events_dropped
            )
        });
        s.push_str("}\n}\n");
        s
    }

    /// Human-readable rendering (the CLI's `--metrics` table).
    #[must_use]
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(s, "metrics (level: {}):", self.level.name());
        if !self.counters.is_empty() {
            let _ = writeln!(s, "  counters:");
            for (k, v) in &self.counters {
                let _ = writeln!(s, "    {k:<24} {v}");
            }
        }
        if !self.batch_sizes.is_empty() {
            let _ = writeln!(
                s,
                "  batch size: mean {} max {} over {} transactions",
                self.batch_sizes.mean(),
                self.batch_sizes.max,
                self.batch_sizes.count
            );
        }
        if self.queue_depth_peak > 0 {
            let _ = writeln!(s, "  peak queue depth: {}", self.queue_depth_peak);
        }
        if !self.stages.is_empty() {
            let _ = writeln!(s, "  stage spans (wall-clock):");
            for (name, h) in &self.stages {
                let _ = writeln!(
                    s,
                    "    {name:<18} n={:<9} mean={:>9} ns  max={:>9} ns  total={:>6.3} ms",
                    h.count,
                    h.mean(),
                    h.max,
                    h.sum as f64 / 1e6
                );
            }
        }
        if !self.operators.is_empty() {
            let _ = writeln!(s, "  operators:");
            for (key, m) in &self.operators {
                let _ = writeln!(
                    s,
                    "    {key:<28} in={:<9} out={:<9} errors={}",
                    m.events_in, m.events_out, m.errors
                );
            }
        }
        if !self.contexts.is_empty() {
            let _ = writeln!(s, "  context windows:");
            for (name, m) in &self.contexts {
                let ticks = m.active_ticks + m.suspended_ticks;
                let pct = if ticks > 0 {
                    m.suspended_ticks as f64 / ticks as f64 * 100.0
                } else {
                    0.0
                };
                let _ = writeln!(
                    s,
                    "    {name:<18} active={:<8} suspended={:<8} ({pct:.1}% saved) admitted={:<9} dropped={}",
                    m.active_ticks, m.suspended_ticks, m.events_admitted, m.events_dropped
                );
            }
        }
        s
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

fn json_u64_array(values: &[u64]) -> String {
    let inner: Vec<String> = values.iter().map(u64::to_string).collect();
    format!("[{}]", inner.join(","))
}

fn push_entries<'a, V: 'a>(
    s: &mut String,
    entries: impl Iterator<Item = (&'a String, &'a V)>,
    render: impl Fn(&V) -> String,
) {
    let mut first = true;
    for (k, v) in entries {
        if !first {
            s.push(',');
        }
        first = false;
        s.push_str(&format!("\"{}\": {}", json_escape(k), render(v)));
    }
}

/// The live recorder: named counters, the batch-size histogram,
/// per-stage span histograms and per-context tick counts, all gated by
/// an [`ObservabilityLevel`].
///
/// Plain `&mut self` recording — the engine is single-threaded per
/// shard, so there is no interior mutability and no atomics on the hot
/// path. Sharded runs merge per-shard [`MetricsSnapshot`]s instead.
#[derive(Debug, Clone)]
pub struct MetricsRegistry {
    level: ObservabilityLevel,
    counters: [u64; CounterId::ALL.len()],
    stages: Vec<Histogram>,
    batch_sizes: Histogram,
    context_ticks: Vec<(u64, u64)>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        Self::new(ObservabilityLevel::Off)
    }
}

impl MetricsRegistry {
    /// A registry recording at the given level.
    #[must_use]
    pub fn new(level: ObservabilityLevel) -> Self {
        Self {
            level,
            counters: [0; CounterId::ALL.len()],
            stages: Stage::ALL.iter().map(|_| Histogram::latency_ns()).collect(),
            batch_sizes: Histogram::batch_sizes(),
            context_ticks: Vec::new(),
        }
    }

    /// The gating level.
    #[must_use]
    pub fn level(&self) -> ObservabilityLevel {
        self.level
    }

    /// True when counters are recorded (level ≥ `Counters`).
    #[must_use]
    pub fn counters_enabled(&self) -> bool {
        self.level.counters_enabled()
    }

    /// True when stage spans are recorded (level = `Spans`).
    #[must_use]
    pub fn spans_enabled(&self) -> bool {
        self.level.spans_enabled()
    }

    /// Adds 1 to a counter (no-op below `Counters`).
    pub fn inc(&mut self, id: CounterId) {
        self.add(id, 1);
    }

    /// Adds `n` to a counter (no-op below `Counters`).
    pub fn add(&mut self, id: CounterId, n: u64) {
        if self.level.counters_enabled() {
            self.counters[id.index()] += n;
        }
    }

    /// Current value of a counter.
    #[must_use]
    pub fn counter(&self, id: CounterId) -> u64 {
        self.counters[id.index()]
    }

    /// Starts a span: `Some(now)` at `Spans`, `None` (no clock read)
    /// otherwise. Pass the token to [`span_end`](Self::span_end).
    #[must_use]
    pub fn span_start(&self) -> Option<Instant> {
        if self.level.spans_enabled() {
            Some(Instant::now())
        } else {
            None
        }
    }

    /// Ends a span started by [`span_start`](Self::span_start),
    /// recording its elapsed wall-clock time under the stage.
    pub fn span_end(&mut self, stage: Stage, start: Option<Instant>) {
        if let Some(start) = start {
            self.record_stage(stage, start.elapsed());
        }
    }

    /// Records an externally measured stage duration (no-op below
    /// `Spans`).
    pub fn record_stage(&mut self, stage: Stage, elapsed: Duration) {
        if self.level.spans_enabled() {
            self.stages[stage.index()].record(elapsed.as_nanos() as u64);
        }
    }

    /// Records one executed transaction's event count (no-op below
    /// `Counters`).
    pub fn observe_batch_size(&mut self, events: u64) {
        if self.level.counters_enabled() {
            self.batch_sizes.record(events);
        }
    }

    /// Records one routing decision over `total` processing plans, of
    /// which the (ascending) `active` indices were fed and the rest
    /// suspended (no-op below `Counters`).
    pub fn tick_contexts(&mut self, active: &[usize], total: usize) {
        if !self.level.counters_enabled() {
            return;
        }
        if self.context_ticks.len() < total {
            self.context_ticks.resize(total, (0, 0));
        }
        let mut next = active.iter().copied().peekable();
        for (idx, ticks) in self.context_ticks.iter_mut().enumerate().take(total) {
            if next.peek() == Some(&idx) {
                next.next();
                ticks.0 += 1;
            } else {
                ticks.1 += 1;
            }
        }
    }

    /// Per-processing-plan `(active, suspended)` tick counts, indexed
    /// like the program template's combined plans.
    #[must_use]
    pub fn context_ticks(&self) -> &[(u64, u64)] {
        &self.context_ticks
    }

    /// Snapshots the registry's own state (counters, histograms). The
    /// engine layers its operator/query/context walk on top of this.
    #[must_use]
    pub fn snapshot(&self) -> MetricsSnapshot {
        let mut snap = MetricsSnapshot {
            level: self.level,
            ..MetricsSnapshot::default()
        };
        if !self.level.counters_enabled() {
            return snap;
        }
        for id in CounterId::ALL {
            snap.counters
                .insert(id.name().to_string(), self.counter(id));
        }
        snap.batch_sizes = self.batch_sizes.clone();
        for (stage, hist) in Stage::ALL.iter().zip(&self.stages) {
            if !hist.is_empty() {
                snap.stages.insert(stage.name().to_string(), hist.clone());
            }
        }
        snap
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn levels_gate_incrementally() {
        assert!(!ObservabilityLevel::Off.counters_enabled());
        assert!(!ObservabilityLevel::Off.spans_enabled());
        assert!(ObservabilityLevel::Counters.counters_enabled());
        assert!(!ObservabilityLevel::Counters.spans_enabled());
        assert!(ObservabilityLevel::Spans.counters_enabled());
        assert!(ObservabilityLevel::Spans.spans_enabled());
        assert_eq!("spans".parse(), Ok(ObservabilityLevel::Spans));
        assert!("verbose".parse::<ObservabilityLevel>().is_err());
    }

    #[test]
    fn histogram_buckets_values() {
        let mut h = Histogram::with_bounds(vec![10, 100, 1000]);
        for v in [5, 10, 11, 100, 999, 5000] {
            h.record(v);
        }
        assert_eq!(h.counts, vec![2, 2, 1, 1]);
        assert_eq!(h.count, 6);
        assert_eq!(h.max, 5000);
        assert_eq!(h.mean(), (5 + 10 + 11 + 100 + 999 + 5000) / 6);
    }

    #[test]
    fn histogram_bounds_round_trip_through_serde() {
        let mut h = Histogram::latency_ns();
        h.record(3_000);
        h.record(70_000);
        h.record(10_000_000_000); // overflow bucket
        let bytes = serde::to_bytes(&h);
        let back: Histogram = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back, h);
        assert_eq!(back.bounds, Histogram::latency_ns().bounds);
        assert_eq!(back.counts.len(), back.bounds.len() + 1);
        assert_eq!(*back.counts.last().unwrap(), 1, "overflow value kept");
    }

    #[test]
    fn histogram_merge_is_element_wise() {
        let mut a = Histogram::batch_sizes();
        let mut b = Histogram::batch_sizes();
        a.record(3);
        b.record(3);
        b.record(100);
        a.merge(&b);
        assert_eq!(a.count, 3);
        assert_eq!(a.sum, 106);
        assert_eq!(a.max, 100);
        let mut empty = Histogram::default();
        empty.merge(&a);
        assert_eq!(empty, a, "empty histogram adopts the other's shape");
    }

    #[test]
    fn registry_off_records_nothing() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Off);
        reg.inc(CounterId::EventsIngested);
        reg.observe_batch_size(10);
        reg.tick_contexts(&[0], 2);
        assert!(reg.span_start().is_none());
        let snap = reg.snapshot();
        assert!(snap.counters.is_empty());
        assert!(snap.batch_sizes.is_empty());
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn registry_counters_level_skips_spans() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Counters);
        reg.inc(CounterId::TransactionsExecuted);
        reg.observe_batch_size(4);
        let span = reg.span_start();
        assert!(span.is_none(), "no clock reads below Spans");
        reg.span_end(Stage::Processing, span);
        let snap = reg.snapshot();
        assert_eq!(snap.counters["transactions_executed"], 1);
        assert_eq!(snap.batch_sizes.count, 1);
        assert!(snap.stages.is_empty());
    }

    #[test]
    fn registry_spans_records_stage_time() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Spans);
        let span = reg.span_start();
        assert!(span.is_some());
        reg.span_end(Stage::Derivation, span);
        reg.record_stage(Stage::WalAppend, Duration::from_micros(5));
        let snap = reg.snapshot();
        assert_eq!(snap.stages["derivation"].count, 1);
        assert_eq!(snap.stages["wal_append"].count, 1);
        assert_eq!(snap.stages["wal_append"].sum, 5_000);
        assert!(
            !snap.stages.contains_key("processing"),
            "empty stages omitted"
        );
    }

    #[test]
    fn tick_contexts_splits_active_and_suspended() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Counters);
        reg.tick_contexts(&[1], 3);
        reg.tick_contexts(&[0, 1], 3);
        reg.tick_contexts(&[], 3);
        assert_eq!(reg.context_ticks(), &[(1, 2), (2, 1), (0, 3)]);
    }

    #[test]
    fn snapshot_merge_adds_and_maxes() {
        let mut a = MetricsSnapshot::default();
        a.counters.insert("events_ingested".into(), 5);
        a.queue_depth_peak = 3;
        a.operators
            .entry("Q1/0:Pattern".into())
            .or_default()
            .events_in = 10;
        let mut b = MetricsSnapshot {
            level: ObservabilityLevel::Spans,
            ..MetricsSnapshot::default()
        };
        b.counters.insert("events_ingested".into(), 7);
        b.queue_depth_peak = 2;
        b.operators
            .entry("Q1/0:Pattern".into())
            .or_default()
            .events_in = 4;
        b.contexts
            .entry("congestion".into())
            .or_default()
            .active_ticks = 9;
        a.merge(&b);
        assert_eq!(a.level, ObservabilityLevel::Spans);
        assert_eq!(a.counters["events_ingested"], 12);
        assert_eq!(a.queue_depth_peak, 3);
        assert_eq!(a.operators["Q1/0:Pattern"].events_in, 14);
        assert_eq!(a.contexts["congestion"].active_ticks, 9);
    }

    #[test]
    fn snapshot_round_trips_through_serde() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Spans);
        reg.inc(CounterId::EventsIngested);
        reg.observe_batch_size(8);
        reg.record_stage(Stage::Router, Duration::from_nanos(750));
        let mut snap = reg.snapshot();
        snap.queue_depth_peak = 4;
        snap.contexts
            .entry("clear".into())
            .or_default()
            .events_admitted = 2;
        let bytes = serde::to_bytes(&snap);
        let back: MetricsSnapshot = serde::from_bytes(&bytes).unwrap();
        assert_eq!(back, snap);
    }

    #[test]
    fn json_dump_is_well_formed_enough() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Spans);
        reg.inc(CounterId::EventsIngested);
        reg.observe_batch_size(3);
        reg.record_stage(Stage::Processing, Duration::from_micros(2));
        let mut snap = reg.snapshot();
        snap.operators
            .entry("Q1/2:Filter".into())
            .or_default()
            .events_in = 3;
        snap.contexts
            .entry("congestion".into())
            .or_default()
            .suspended_ticks = 1;
        let json = snap.to_json();
        assert!(json.contains("\"level\": \"spans\""));
        assert!(json.contains("\"events_ingested\": 1"));
        assert!(json.contains("\"Q1/2:Filter\""));
        assert!(json.contains("\"congestion\""));
        assert!(json.contains("\"processing\""));
        assert_eq!(
            json.matches('{').count(),
            json.matches('}').count(),
            "balanced braces"
        );
        assert!(json_escape("a\"b\\c\n").contains("\\\""));
    }

    #[test]
    fn render_mentions_sections() {
        let mut reg = MetricsRegistry::new(ObservabilityLevel::Counters);
        reg.inc(CounterId::TransactionsExecuted);
        reg.observe_batch_size(2);
        let mut snap = reg.snapshot();
        snap.contexts
            .entry("congestion".into())
            .or_default()
            .active_ticks = 1;
        let text = snap.render();
        assert!(text.contains("counters:"), "{text}");
        assert!(text.contains("transactions_executed"), "{text}");
        assert!(text.contains("context windows:"), "{text}");
    }
}
