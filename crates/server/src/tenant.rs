//! One hosted tenant: an independent CAESAR model with its own sharded
//! runtime, bounded ingest queue and output fan-out.
//!
//! ```text
//!  connections ──▶ BoundedQueue<TenantMsg> ──▶ router thread
//!      one INGEST frame per message             │ splits the frame by partition hash:
//!      (admission control)                      │ one run per shard that got events
//!                                ┌──────────────┼───────────────┐
//!                                ▼              ▼               ▼
//!                           shard worker   shard worker    shard worker
//!                           (own Engine)   (own Engine)    (own Engine)
//!                                └──────────────┴───────────────┘
//!                          one publish per run ──▶ OutputHub ──▶ subscribers
//! ```
//!
//! The unit that crosses every boundary is the frame. The router
//! preserves the tenant's total admission order and splits each frame
//! by `partition.shard(shards)` exactly like
//! [`caesar_runtime::run_sharded`]; each shard owns a private
//! [`Engine`] (partitions are disjoint across shards, so results are
//! the disjoint union), feeds it the run in arrival order and publishes
//! what the run derived once. A one-shard tenant has nothing to route
//! and no second thread: the router executes the shard itself and the
//! frame's vector reaches the engine untouched. Grouping same-timestamp
//! events into stream transactions is the engine's job (its scheduler
//! does it per partition); the server does not regroup in front of it.
//! Control messages (flush barriers, finish, snapshot, metrics) travel
//! the same queues as data, so they order naturally behind every
//! admitted event.

use crate::hub::OutputHub;
use crate::protocol::TenantReport;
use crate::queue::{BoundedQueue, PushError};
use caesar_events::{Event, OutputRecord, SchemaRegistry};
use caesar_optimizer::OptimizedProgram;
use caesar_runtime::{
    merge_reports, Consistency, Engine, EngineConfig, EngineState, MetricsSnapshot, RunReport,
};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything needed to host one tenant.
#[derive(Clone)]
pub struct TenantConfig {
    /// Tenant name — the routing key of every `INGEST` frame.
    pub name: String,
    /// The optimized program all shard engines instantiate.
    pub program: OptimizedProgram,
    /// The post-translation schema registry matching `program`.
    pub registry: SchemaRegistry,
    /// Engine configuration per shard (`collect_outputs` is forced on —
    /// subscribers are fed from the collected outputs).
    pub engine_config: EngineConfig,
    /// Worker shards (≥ 1); events are hash-routed by partition id.
    pub shards: usize,
    /// Capacity of the bounded ingest queue (admission control).
    pub queue_capacity: usize,
    /// Artificial router stall per ingest message — a
    /// backpressure-rehearsal knob for the admission-control tests;
    /// leave at zero in production.
    pub ingest_hold: Duration,
}

impl TenantConfig {
    /// A tenant with default runtime knobs (1 shard, queue of 1024).
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        program: OptimizedProgram,
        registry: SchemaRegistry,
    ) -> Self {
        Self {
            name: name.into(),
            program,
            registry,
            engine_config: EngineConfig::default(),
            shards: 1,
            queue_capacity: 1024,
            ingest_hold: Duration::ZERO,
        }
    }
}

/// Why an operation was not admitted — maps one-to-one onto the typed
/// protocol error codes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionError {
    /// The bounded ingest queue stayed full past the deadline.
    QueueFull,
    /// The tenant (or whole server) is draining; no new work.
    Draining,
    /// A `FINISH` already ended this tenant's stream.
    Finished,
    /// A shard failed; detail carries the first error.
    Internal(String),
}

impl std::fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmissionError::QueueFull => write!(f, "ingest queue at capacity"),
            AdmissionError::Draining => write!(f, "tenant is draining"),
            AdmissionError::Finished => write!(f, "tenant already finished"),
            AdmissionError::Internal(m) => write!(f, "internal: {m}"),
        }
    }
}

/// End state of one drained tenant.
#[derive(Debug, Clone, Default)]
pub struct DrainOutcome {
    /// Input events processed across all shards.
    pub events_in: u64,
    /// Derived output events across all shards.
    pub events_out: u64,
    /// True when per-shard snapshots were written.
    pub checkpointed: bool,
    /// First failure hit while draining (snapshot IO, dead shard).
    pub error: Option<String>,
}

enum TenantMsg {
    Ingest(Vec<Event>),
    Flush(mpsc::Sender<()>),
    Finish(mpsc::Sender<Result<TenantReport, String>>),
    Metrics(mpsc::Sender<MetricsSnapshot>),
    Drain {
        checkpoint_dir: Option<PathBuf>,
        done: mpsc::Sender<DrainOutcome>,
    },
}

/// Runs a shard queue holds before the router blocks: enough to route
/// the next frame while the shard executes this one. What is admitted
/// but not yet executed stays bounded by the tenant queue.
const SHARD_QUEUE_RUNS: usize = 4;

enum ShardMsg {
    /// The events of one frame that hash to this shard, in arrival
    /// order.
    Run(Vec<Event>),
    Barrier(mpsc::Sender<()>),
    Finish(mpsc::Sender<ShardFinish>),
    Snapshot {
        path: PathBuf,
        done: mpsc::Sender<Result<u64, String>>,
    },
    Metrics(mpsc::Sender<MetricsSnapshot>),
}

struct ShardFinish {
    report: RunReport,
    late_dropped: u64,
}

struct TenantInner {
    queue: BoundedQueue<TenantMsg>,
    failure: Mutex<Option<String>>,
    /// Written by the router alone; `/metrics` reads them.
    ingest_frames: AtomicU64,
    ingest_events: AtomicU64,
    shard_runs: AtomicU64,
}

/// Work units that crossed each boundary of one tenant so far — the
/// hand-off granularity as numbers: a tenant whose `shard_runs` or
/// `output_frames` grow with its events rather than its frames is
/// paying a thread hand-off per event.
#[derive(Debug, Clone, Copy)]
pub(crate) struct HandOffs {
    /// Shards of the tenant.
    pub(crate) shards: usize,
    /// `INGEST` frames routed.
    pub(crate) ingest_frames: u64,
    /// Events in those frames.
    pub(crate) ingest_events: u64,
    /// Runs handed to shards (≤ `ingest_frames × shards`).
    pub(crate) shard_runs: u64,
    /// `OUTPUTS` and `RETRACT` frames published.
    pub(crate) output_frames: u64,
    /// Events in those frames.
    pub(crate) output_events: u64,
}

/// A running tenant: admission-controlled handle over the router +
/// shard threads.
pub(crate) struct Tenant {
    pub(crate) name: String,
    shards: usize,
    inner: Arc<TenantInner>,
    hub: Arc<OutputHub>,
    router: Mutex<Option<JoinHandle<()>>>,
    finished: AtomicBool,
}

impl Tenant {
    /// Builds one engine per shard of `config`, each restored from its
    /// resume state when there is one (all or nothing — validated by
    /// the caller). A state an engine refuses fails the set.
    pub(crate) fn engines(
        config: &TenantConfig,
        resume: Option<Vec<EngineState>>,
    ) -> Result<Vec<Engine>, String> {
        let mut engine_config = config.engine_config;
        engine_config.collect_outputs = true;
        let shards = config.shards.max(1);
        let mut resume = resume.map(Vec::into_iter);
        let mut engines = Vec::with_capacity(shards);
        for shard in 0..shards {
            let mut engine = Engine::new(config.program.clone(), &config.registry, engine_config);
            if let Some(state) = resume.as_mut().and_then(Iterator::next) {
                engine
                    .restore_state(state)
                    .map_err(|e| format!("shard {shard}: resume failed: {e}"))?;
                // Outputs collected before the snapshot were already
                // delivered by the previous incarnation; never replay
                // them.
                engine.collected_outputs.clear();
            }
            engines.push(engine);
        }
        Ok(engines)
    }

    /// Spawns the tenant's router over its shard engines
    /// ([`engines`](Self::engines)) and, with more than one shard, the
    /// shard workers.
    pub(crate) fn start(
        config: TenantConfig,
        engines: Vec<Engine>,
        publish_timeout: Duration,
    ) -> Self {
        let shards = engines.len();
        let inner = Arc::new(TenantInner {
            queue: BoundedQueue::new(config.queue_capacity),
            failure: Mutex::new(None),
            ingest_frames: AtomicU64::new(0),
            ingest_events: AtomicU64::new(0),
            shard_runs: AtomicU64::new(0),
        });
        let hub = Arc::new(OutputHub::new(publish_timeout));

        let router_inner = Arc::clone(&inner);
        let router_hub = Arc::clone(&hub);
        let router = std::thread::spawn(move || {
            let mut links = Vec::with_capacity(shards);
            let mut workers = Vec::new();
            for engine in engines {
                let (hub, inner) = (Arc::clone(&router_hub), Arc::clone(&router_inner));
                let shard = Shard::new(engine, hub, inner);
                if shards == 1 {
                    // Nothing to route, so no thread to hand over to:
                    // the router executes the one shard itself.
                    links.push(ShardLink::Inline(Box::new(shard)));
                    continue;
                }
                // The router blocks (backpressure, not loss) once a
                // shard falls this far behind.
                let queue = Arc::new(BoundedQueue::<ShardMsg>::new(SHARD_QUEUE_RUNS));
                let rx = Arc::clone(&queue);
                workers.push(std::thread::spawn(move || {
                    let mut shard = shard;
                    while let Some(msg) = rx.pop() {
                        shard.handle(msg);
                    }
                }));
                links.push(ShardLink::Worker(queue));
            }
            router_loop(config.ingest_hold, &router_inner, &mut links, workers);
        });

        Self {
            name: config.name,
            shards,
            inner,
            hub,
            router: Mutex::new(Some(router)),
            finished: AtomicBool::new(false),
        }
    }

    fn check_live(&self) -> Result<(), AdmissionError> {
        if let Some(failure) = self.inner.failure.lock().expect("failure poisoned").clone() {
            return Err(AdmissionError::Internal(failure));
        }
        if self.finished.load(Ordering::Acquire) {
            return Err(AdmissionError::Finished);
        }
        Ok(())
    }

    /// Admits a batch of events, waiting up to `timeout` for queue
    /// space (the slow-consumer throttle) before rejecting.
    pub(crate) fn ingest(
        &self,
        events: Vec<Event>,
        timeout: Duration,
    ) -> Result<(), AdmissionError> {
        self.check_live()?;
        match self
            .inner
            .queue
            .push_timeout(TenantMsg::Ingest(events), timeout)
        {
            Ok(()) => Ok(()),
            Err(PushError::Full(_)) => Err(AdmissionError::QueueFull),
            Err(PushError::Closed(_)) => Err(AdmissionError::Draining),
        }
    }

    /// Barrier: returns once every event admitted before it has been
    /// routed and executed by its shard.
    pub(crate) fn flush(&self) -> Result<(), AdmissionError> {
        self.check_live()?;
        let (tx, rx) = mpsc::channel();
        match self.inner.queue.push(TenantMsg::Flush(tx)) {
            Ok(()) => {}
            Err(PushError::Full(_) | PushError::Closed(_)) => return Err(AdmissionError::Draining),
        }
        rx.recv()
            .map_err(|_| AdmissionError::Internal("router exited".into()))
    }

    /// Ends the tenant's stream: flushes, finishes every shard engine
    /// (final watermark push) and returns the merged totals. A second
    /// call observes [`AdmissionError::Finished`].
    pub(crate) fn finish(&self) -> Result<TenantReport, AdmissionError> {
        if let Some(failure) = self.inner.failure.lock().expect("failure poisoned").clone() {
            return Err(AdmissionError::Internal(failure));
        }
        if self.finished.swap(true, Ordering::AcqRel) {
            return Err(AdmissionError::Finished);
        }
        let (tx, rx) = mpsc::channel();
        match self.inner.queue.push(TenantMsg::Finish(tx)) {
            Ok(()) => {}
            Err(PushError::Full(_) | PushError::Closed(_)) => return Err(AdmissionError::Draining),
        }
        match rx.recv() {
            Ok(Ok(report)) => Ok(report),
            Ok(Err(m)) => Err(AdmissionError::Internal(m)),
            Err(_) => Err(AdmissionError::Internal("router exited".into())),
        }
    }

    /// Merged metrics snapshot across shards; the tenant ingest queue's
    /// high-water mark folds into `queue_depth_peak`.
    pub(crate) fn metrics(&self) -> Result<MetricsSnapshot, AdmissionError> {
        let (tx, rx) = mpsc::channel();
        match self.inner.queue.push(TenantMsg::Metrics(tx)) {
            Ok(()) => {}
            Err(PushError::Full(_) | PushError::Closed(_)) => return Err(AdmissionError::Draining),
        }
        let mut snap = rx
            .recv()
            .map_err(|_| AdmissionError::Internal("router exited".into()))?;
        snap.queue_depth_peak = snap
            .queue_depth_peak
            .max(self.inner.queue.high_water() as u64);
        Ok(snap)
    }

    /// Subscribes a connection's outbound queue to this tenant's
    /// derived outputs.
    pub(crate) fn subscribe(&self, out: Arc<crate::hub::ConnectionOut>) -> u64 {
        self.hub.subscribe(out)
    }

    /// Drops one subscription.
    pub(crate) fn unsubscribe(&self, id: u64) {
        self.hub.unsubscribe(id);
    }

    /// Ingest-queue high-water mark (server `/metrics`).
    pub(crate) fn queue_high_water(&self) -> usize {
        self.inner.queue.high_water()
    }

    /// Hand-off counters (server `/metrics`). Runs are read before
    /// frames, so a scrape racing the router never sees a run whose
    /// frame it has not counted.
    pub(crate) fn hand_offs(&self) -> HandOffs {
        let shard_runs = self.inner.shard_runs.load(Ordering::Acquire);
        let (output_frames, output_events) = self.hub.published();
        HandOffs {
            shards: self.shards,
            ingest_frames: self.inner.ingest_frames.load(Ordering::Relaxed),
            ingest_events: self.inner.ingest_events.load(Ordering::Relaxed),
            shard_runs,
            output_frames,
            output_events,
        }
    }

    /// Drains the tenant: processes everything already admitted, then
    /// either snapshots every shard into `checkpoint_dir` (leaving the
    /// stream resumable) or — without a directory — finishes the
    /// engines so subscribers receive the final watermark flush. The
    /// router and shard threads exit; the handle is spent.
    pub(crate) fn drain(&self, checkpoint_dir: Option<PathBuf>) -> DrainOutcome {
        let (tx, rx) = mpsc::channel();
        let pushed = self
            .inner
            .queue
            .push(TenantMsg::Drain {
                checkpoint_dir,
                done: tx,
            })
            .is_ok();
        self.inner.queue.close();
        let mut outcome = if pushed {
            rx.recv().unwrap_or_default()
        } else {
            DrainOutcome {
                error: Some("tenant already drained".into()),
                ..DrainOutcome::default()
            }
        };
        if let Some(handle) = self.router.lock().expect("router poisoned").take() {
            let _ = handle.join();
        }
        if outcome.error.is_none() {
            outcome.error = self.inner.failure.lock().expect("failure poisoned").clone();
        }
        outcome
    }
}

/// The router's end of one shard.
enum ShardLink {
    /// The only shard of a one-shard tenant, executed by the router
    /// thread itself.
    Inline(Box<Shard>),
    /// A shard with its own worker thread, behind its run queue.
    Worker(Arc<BoundedQueue<ShardMsg>>),
}

impl ShardLink {
    /// Delivers one message — the same [`Shard::handle`] runs it either
    /// way; `false` when the worker's queue is closed.
    fn send(&mut self, msg: ShardMsg) -> bool {
        match self {
            ShardLink::Inline(shard) => {
                shard.handle(msg);
                true
            }
            ShardLink::Worker(queue) => queue.push(msg).is_ok(),
        }
    }
}

/// Sends every shard the message `make` builds around a reply channel
/// and collects the replies, in shard order.
fn ask_shards<T>(
    shards: &mut [ShardLink],
    make: impl Fn(usize, mpsc::Sender<T>) -> ShardMsg,
) -> Vec<Result<T, String>> {
    let receivers: Vec<_> = shards
        .iter_mut()
        .enumerate()
        .map(|(i, shard)| {
            let (tx, rx) = mpsc::channel();
            shard.send(make(i, tx)).then_some(rx)
        })
        .collect();
    receivers
        .into_iter()
        .map(|rx| match rx {
            None => Err("shard queue closed".to_string()),
            Some(rx) => rx.recv().map_err(|_| "shard worker exited".to_string()),
        })
        .collect()
}

fn finish_shards(shards: &mut [ShardLink]) -> Result<TenantReport, String> {
    let mut reports = Vec::with_capacity(shards.len());
    let mut late_dropped = 0;
    for fin in ask_shards(shards, |_, tx| ShardMsg::Finish(tx)) {
        let fin = fin?;
        late_dropped += fin.late_dropped;
        reports.push(fin.report);
    }
    let merged = merge_reports(reports);
    Ok(TenantReport {
        events_in: merged.events_in,
        events_out: merged.events_out,
        transitions_applied: merged.transitions_applied,
        late_dropped,
        outputs_by_type: merged.outputs_by_type.into_iter().collect(),
    })
}

fn router_loop(
    ingest_hold: Duration,
    inner: &TenantInner,
    shards: &mut [ShardLink],
    workers: Vec<JoinHandle<()>>,
) {
    let n = shards.len();
    let mut pending_drain: Option<(Option<PathBuf>, mpsc::Sender<DrainOutcome>)> = None;
    while let Some(msg) = inner.queue.pop() {
        match msg {
            TenantMsg::Ingest(events) => {
                if !ingest_hold.is_zero() {
                    std::thread::sleep(ingest_hold);
                }
                inner.ingest_frames.fetch_add(1, Ordering::Relaxed);
                inner
                    .ingest_events
                    .fetch_add(events.len() as u64, Ordering::Relaxed);
                // One shard: the frame's vector is the run.
                let runs = if n == 1 {
                    vec![events]
                } else {
                    let mut runs = vec![Vec::new(); n];
                    for event in events {
                        runs[event.partition.shard(n)].push(event);
                    }
                    runs
                };
                for (shard, run) in shards.iter_mut().zip(runs) {
                    if !run.is_empty() {
                        inner.shard_runs.fetch_add(1, Ordering::Release);
                        shard.send(ShardMsg::Run(run));
                    }
                }
            }
            TenantMsg::Flush(ack) => {
                ask_shards(shards, |_, tx| ShardMsg::Barrier(tx));
                let _ = ack.send(());
            }
            TenantMsg::Finish(ack) => {
                let _ = ack.send(finish_shards(shards));
            }
            TenantMsg::Metrics(ack) => {
                let mut merged = MetricsSnapshot::default();
                for snap in ask_shards(shards, |_, tx| ShardMsg::Metrics(tx))
                    .iter()
                    .flatten()
                {
                    merged.merge(snap);
                }
                let _ = ack.send(merged);
            }
            TenantMsg::Drain {
                checkpoint_dir,
                done,
            } => {
                // An ingest admitted concurrently with the drain call
                // can land *behind* this message (the queue closes just
                // after the push). Acknowledged events must execute, so
                // stash the drain and keep routing until the queue is
                // closed and fully drained.
                pending_drain = Some((checkpoint_dir, done));
            }
        }
    }
    if let Some((checkpoint_dir, done)) = pending_drain {
        let outcome = match checkpoint_dir {
            None => match finish_shards(shards) {
                Ok(report) => DrainOutcome {
                    events_in: report.events_in,
                    events_out: report.events_out,
                    checkpointed: false,
                    error: None,
                },
                Err(e) => DrainOutcome {
                    error: Some(e),
                    ..DrainOutcome::default()
                },
            },
            Some(dir) => {
                let mut outcome = DrainOutcome {
                    checkpointed: true,
                    ..DrainOutcome::default()
                };
                if let Err(e) = std::fs::create_dir_all(&dir) {
                    outcome.checkpointed = false;
                    outcome.error = Some(format!("{}: {e}", dir.display()));
                } else {
                    let snapshots = ask_shards(shards, |i, done| ShardMsg::Snapshot {
                        path: shard_snapshot_path(&dir, i),
                        done,
                    });
                    for snapshot in snapshots {
                        match snapshot.and_then(|written| written) {
                            Ok(events_in) => outcome.events_in += events_in,
                            Err(e) => {
                                outcome.checkpointed = false;
                                outcome.error.get_or_insert(e);
                            }
                        }
                    }
                }
                outcome
            }
        };
        let _ = done.send(outcome);
    }
    for shard in shards.iter() {
        if let ShardLink::Worker(queue) = shard {
            queue.close();
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Snapshot file of one shard inside a tenant's checkpoint directory.
pub(crate) fn shard_snapshot_path(dir: &std::path::Path, shard: usize) -> PathBuf {
    dir.join(format!("shard-{shard}.caesnap"))
}

/// One shard: a private engine and where its outputs and failures go.
struct Shard {
    engine: Engine,
    speculative: bool,
    /// Set by the first `FINISH`; later runs are ignored and later
    /// finishes answered from it.
    finish_report: Option<RunReport>,
    hub: Arc<OutputHub>,
    inner: Arc<TenantInner>,
}

impl Shard {
    fn new(engine: Engine, hub: Arc<OutputHub>, inner: Arc<TenantInner>) -> Self {
        Self {
            speculative: engine.config().consistency == Consistency::Speculative,
            engine,
            finish_report: None,
            hub,
            inner,
        }
    }

    /// Publishes what the engine derived since the last call. Strict
    /// engines stream their collected outputs as one `OUTPUTS` frame.
    /// Speculative engines stream the revision ledger instead —
    /// emission runs as `OUTPUTS`, retraction runs as `RETRACT`,
    /// preserving record order — and discard the settled outputs: they
    /// are the fold of the ledger, so sending both would deliver every
    /// confirmed event twice.
    fn publish(&mut self) {
        // Cleared, not taken: the engine keeps its buffers from run to
        // run.
        let engine = &mut self.engine;
        if !self.speculative {
            self.hub.publish(engine.collected_outputs.iter());
            engine.collected_outputs.clear();
            return;
        }
        engine.collected_outputs.clear();
        let mut rest = engine.collected_records.as_slice();
        while let Some(first) = rest.first() {
            let retract = first.is_retraction();
            let len = rest
                .iter()
                .position(|r| r.is_retraction() != retract)
                .unwrap_or(rest.len());
            let (run, tail) = rest.split_at(len);
            let events = run.iter().map(OutputRecord::event);
            if retract {
                self.hub.publish_retractions(events);
            } else {
                self.hub.publish(events);
            }
            rest = tail;
        }
        engine.collected_records.clear();
    }

    fn handle(&mut self, msg: ShardMsg) {
        match msg {
            ShardMsg::Run(events) => {
                if self.finish_report.is_some()
                    || self
                        .inner
                        .failure
                        .lock()
                        .expect("failure poisoned")
                        .is_some()
                {
                    return;
                }
                let engine = &mut self.engine;
                let result = events
                    .into_iter()
                    .try_for_each(|event| engine.ingest(event));
                // Also after a failure: what the events before the
                // failing one derived is still delivered.
                self.publish();
                if let Err(e) = result {
                    let mut failure = self.inner.failure.lock().expect("failure poisoned");
                    failure.get_or_insert_with(|| e.to_string());
                }
            }
            ShardMsg::Barrier(ack) => {
                let _ = ack.send(());
            }
            ShardMsg::Finish(ack) => {
                if self.finish_report.is_none() {
                    self.finish_report = Some(self.engine.finish());
                    self.publish();
                }
                let _ = ack.send(ShardFinish {
                    report: self.finish_report.clone().expect("set above"),
                    late_dropped: self.engine.late_dropped,
                });
            }
            ShardMsg::Snapshot { path, done } => {
                // Snapshots capture strict state only: a speculative
                // engine confirms or retracts everything in flight
                // before the state is serialized, and the retraction
                // frames go out before the checkpoint completes.
                self.engine.settle();
                self.publish();
                let state = self.engine.snapshot_state();
                let events_in = self.engine.events_in();
                let result = caesar_recovery::write_snapshot(&path, events_in, &state)
                    .map(|()| events_in)
                    .map_err(|e| e.to_string());
                let _ = done.send(result);
            }
            ShardMsg::Metrics(ack) => {
                let _ = ack.send(self.engine.metrics_snapshot());
            }
        }
    }
}
