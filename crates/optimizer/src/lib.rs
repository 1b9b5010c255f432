//! The CAESAR optimizer (§5 of the paper).
//!
//! "Our CAESAR optimization problem is to find an optimized query plan
//! for all queries such that the CPU costs are minimized by suspending
//! event queries that are irrelevant to the current application contexts
//! and sharing the workload of overlapping context windows."
//! (Definition 5.)
//!
//! * [`pushdown`] — the context window push-down strategy (§5.2,
//!   Theorem 1), adjacent-filter merging, and predicate push-down into
//!   pattern operators.
//! * [`subsume`] — predicate subsumption over the deriving queries'
//!   threshold predicates, inferring the compile-time bound order and
//!   overlap relations of context windows (Definition 2, Figure 7 top).
//! * [`grouping`] — the context window grouping algorithm (Listing 1):
//!   splits overlapping user-defined windows at their bounds and groups
//!   the slices into non-overlapping windows with merged, de-duplicated
//!   workloads (Figure 7).
//! * [`mqo`] — intra-group multi-query sharing: structurally identical
//!   queries execute once; plus the Bell/Stirling search-space accounting
//!   of §5.3.
//! * [`search`] — greedy (context-aware) vs. exhaustive (Selinger-style
//!   dynamic program over operator subsets) plan search, the subject of
//!   Figure 11(a).
//! * [`optimizer`] — the pipeline gluing it all together, and the
//!   program it emits for execution: CAESAR's or a §7 baseline's
//!   ([`Mode`]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod grouping;
pub mod mqo;
pub mod optimizer;
pub mod pushdown;
pub mod search;
pub mod subsume;

pub use grouping::{
    group_windows, install_prefix_sharing, prefix_sharing, GroupedWindow, PrefixExclusion,
    PrefixSharing, UserWindow,
};
pub use mqo::{
    bell_number, executing_plans, find_sharing, stirling2, ExecutingPlans, SharedWorkload,
};
pub use optimizer::{Mode, OptimizedProgram, Optimizer, OptimizerConfig};
pub use pushdown::{
    merge_adjacent_filters, push_down_context_window, push_predicates_into_pattern,
};
pub use search::{exhaustive_search, greedy_search, OperatorSpec, SearchResult};
pub use subsume::{derive_window_specs, ThresholdBound, WindowRelation};
