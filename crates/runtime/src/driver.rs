//! Mode-matrix driver: run one optimized program over one event stream
//! under a *named* engine mode, returning the report plus every
//! collected output event.
//!
//! The differential-testing harness (`caesar-testkit`) uses this to
//! sweep a workload across the execution matrix — sequential and
//! sharded, optimized and unoptimized, every observability level, both
//! consistency levels, and a mid-stream snapshot/restore leg — without
//! re-implementing the run loop per leg. Each leg carries a label so a
//! divergence names the exact mode that produced it.

use crate::engine::{Consistency, Engine, EngineConfig, ExecutionMode, RunReport};
use crate::obs::ObservabilityLevel;
use crate::parallel::run_sharded;
use caesar_events::{Event, EventError, OutputRecord, ReorderBuffer, SchemaRegistry, Time};
use caesar_optimizer::OptimizedProgram;

/// One cell of the execution-mode matrix.
#[derive(Debug, Clone)]
pub struct ModeSpec {
    /// Human-readable leg name (shows up in divergence reports).
    pub label: String,
    /// Engine configuration for this leg.
    pub config: EngineConfig,
    /// `0` runs sequentially; `n > 0` runs `n` hash-sharded engines.
    pub shards: usize,
    /// Run the leg against the optimized program (`true`) or the
    /// unoptimized translation (`false`). The driver itself is agnostic
    /// — callers pick which program to pass — but the flag travels with
    /// the spec so matrices can describe both.
    pub optimized: bool,
    /// Sequential legs only: after ingesting this many events, snapshot
    /// the engine, restore into a fresh engine and continue — the
    /// checkpoint/restore leg of the matrix.
    pub restart_after: Option<usize>,
}

impl ModeSpec {
    /// A sequential leg with the given label and config.
    #[must_use]
    pub fn sequential(label: impl Into<String>, config: EngineConfig) -> Self {
        Self {
            label: label.into(),
            config,
            shards: 0,
            optimized: true,
            restart_after: None,
        }
    }
}

/// Runs `events` through `program` under `spec`, returning the run
/// report, the collected outputs and the leg's speculative output
/// records — empty unless the spec's consistency is
/// [`Consistency::Speculative`]. `collect_outputs` is forced on — the
/// whole point of a driver leg is comparing outputs. Folding the
/// records (each retraction cancels one prior emission of the same
/// event) must reproduce the settled outputs exactly; the testkit's
/// differential harness asserts that equality on every speculative leg.
pub fn run_mode(
    program: &OptimizedProgram,
    registry: &SchemaRegistry,
    spec: &ModeSpec,
    events: &[Event],
) -> Result<(RunReport, Vec<Event>, Vec<OutputRecord>), EventError> {
    let mut config = spec.config;
    config.collect_outputs = true;
    if spec.shards > 0 {
        // The sharded entry point refuses an unordered stream. Settling the
        // arrivals through a reorder buffer — not a plain stable sort —
        // pins the exact sequential-leg semantics: ties release in
        // arrival order *and* events beyond the slack are dropped under
        // the same global watermark. A sort would silently resurrect
        // beyond-slack stragglers the sequential legs count and drop
        // (see `tests/sharded_settlement.rs`).
        let (settled, _late_dropped) = ReorderBuffer::settle_stream(config.reorder_slack, events);
        return run_sharded(program, registry, config, spec.shards, settled);
    }
    let mut engine = Engine::new(program.clone(), registry, config);
    let mut earlier_records = Vec::new();
    match spec.restart_after {
        None => {
            for event in events {
                engine.ingest(event.clone())?;
            }
        }
        Some(cut) => {
            let cut = cut.min(events.len());
            for event in &events[..cut] {
                engine.ingest(event.clone())?;
            }
            // Snapshots capture strict state only, so a speculative
            // engine settles first (a no-op on strict legs). Note this
            // advances the lateness floor past the cut: a speculative
            // restart leg drops post-cut stragglers a strict leg would
            // still buffer, so the standard matrix keeps its restart
            // leg strict.
            engine.settle();
            let state = engine.snapshot_state();
            earlier_records = std::mem::take(&mut engine.collected_records);
            let mut resumed = Engine::new(program.clone(), registry, config);
            resumed
                .restore_state(state)
                .expect("snapshot restores into an engine built from the same program");
            engine = resumed;
            for event in &events[cut..] {
                engine.ingest(event.clone())?;
            }
        }
    }
    let report = engine.finish();
    let outputs = std::mem::take(&mut engine.collected_outputs);
    let mut records = earlier_records;
    records.append(&mut engine.collected_records);
    Ok((report, outputs, records))
}

/// The standard differential matrix: six legs spanning sequential and
/// sharded execution, optimized and unoptimized programs, every
/// observability level and both consistency levels (speculative legs
/// are checked twice: settled outputs byte-identical, and the folded
/// record stream identical to the settled outputs), plus a mid-stream
/// snapshot/restore leg. Every optimized leg runs with the eligible
/// shared-prefix groups installed; exactly one leg runs the paper's §7
/// baseline program (context-independent, [`EngineConfig::sharing`]
/// off), which keeps the private-pattern path and the optimizer-emitted
/// baseline under the oracle.
/// (`caesar-testkit` layers two *served* legs on top — the same
/// workload round-tripped through a loopback `caesar-server` instance,
/// strict and speculative — which live there because the runtime cannot
/// depend on the server.)
///
/// `slack` is the reorder tolerance every leg needs for the stream
/// under test; `n_events` positions the restart leg's cut point.
#[must_use]
pub fn standard_matrix(slack: Time, n_events: usize) -> Vec<ModeSpec> {
    let base = || EngineConfig::builder().reorder_slack(slack);
    let speculative = || base().consistency(Consistency::Speculative).build();
    let seq = ModeSpec::sequential;
    vec![
        seq(
            "seq/optimized/spans",
            base().observability(ObservabilityLevel::Spans).build(),
        ),
        ModeSpec {
            optimized: false,
            ..seq(
                "seq/unoptimized/counters",
                base().observability(ObservabilityLevel::Counters).build(),
            )
        },
        seq(
            "seq/unshared",
            base()
                .sharing(false)
                .mode(ExecutionMode::ContextIndependent)
                .build(),
        ),
        ModeSpec {
            restart_after: Some(n_events / 2),
            ..seq("seq/restart-midstream", base().build())
        },
        seq("seq/speculative", speculative()),
        // The settled outputs are the strict run's, so this leg also
        // stands for the strict sharded run.
        ModeSpec {
            shards: 3,
            ..seq("sharded3/speculative", speculative())
        },
    ]
}
