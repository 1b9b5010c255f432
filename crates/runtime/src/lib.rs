//! The CAESAR runtime execution infrastructure (§6 of the paper).
//!
//! * [`txn`] — stream transactions: "a sequence of operations that are
//!   triggered by all input events with the same time stamp" in one
//!   stream partition, with the conflict rules of §6.2.
//! * [`scheduler`] — the time-driven scheduler: a transaction for
//!   timestamp `t` is released only after the event distributor's
//!   progress passed `t` and context derivation for all timestamps
//!   `< t` completed.
//! * [`router`] — the context-aware stream router: batches flow only to
//!   the query plans of currently active contexts; suspended plans
//!   receive nothing (no busy waiting).
//! * [`programs`] — the engine's one executing program, built from the
//!   plans the optimizer emits (CAESAR's or a §7 baseline's), and the
//!   thin per-partition run state bound to it per transaction.
//! * [`engine`] — the full engine: distributor → scheduler → derivation →
//!   transition application → routing → processing, with context-history
//!   maintenance and garbage collection.
//! * [`parallel`] — a sharded run: one engine per partition subset of a
//!   time-ordered `Vec<Event>`, each on a scoped thread.
//! * [`obs`] — the observability layer: a metrics registry of named
//!   counters, fixed-bucket histograms and span-style stage timers,
//!   gated by [`obs::ObservabilityLevel`] and snapshotted into every
//!   [`RunReport`].

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod driver;
pub mod engine;
pub mod obs;
pub mod parallel;
pub mod programs;
pub mod router;
pub mod scheduler;
pub mod stats;
pub mod txn;

pub use driver::{run_mode, standard_matrix, ModeSpec};
pub use engine::{
    Consistency, Engine, EngineConfig, EngineConfigBuilder, EngineState, ExecutionMode,
    RestoreError, RunReport,
};
pub use obs::{CounterId, Histogram, MetricsRegistry, MetricsSnapshot, ObservabilityLevel, Stage};
pub use parallel::{merge_reports, run_sharded};
pub use programs::PartitionRun;
pub use router::Router;
pub use scheduler::TimeDrivenScheduler;
pub use stats::Observations;
pub use txn::StreamTransaction;
