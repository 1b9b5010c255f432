//! The CAESAR algebra (§4 of the paper): six context-aware stream
//! operators and the translation of query sets into executable plans.
//!
//! "The CAESAR algebra consists of six operators. While event pattern,
//! filter and projection are quite common for other stream algebras,
//! context initiation, termination and context window are unique operators
//! of the CAESAR algebra."
//!
//! * [`expr`] — expressions compiled to positional attribute accesses.
//! * [`context_table`] — the set `W` of current context windows, realized
//!   as the per-partition context bit vector of §6.2 plus window spans.
//! * [`nfa`] — compiled pattern programs: the [`nfa::PatternBuilder`]
//!   construction front-end, interned predicate references, and prefix
//!   signatures the optimizer shares across queries.
//! * [`pattern`] — the pattern operator: event matching, `SEQ` with and
//!   without negation (§4.1), with partial-match state and pruning.
//! * [`ops`] — filter, projection, context window, context initiation and
//!   context termination operators, and single-plan chain execution.
//! * [`plan`] — executable query plans and combined plans.
//! * [`translate`] — Phase 2 of §4.2: query set → individual plans
//!   (Table 1) → combined query plans.
//! * [`cost`] — the CPU cost model used by the optimizer (§5.1; pattern
//!   costs in the style of ZStream \[24\]).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod context_table;
pub mod cost;
pub mod expr;
pub mod nfa;
pub mod ops;
pub mod pattern;
pub mod plan;
pub mod translate;

pub use context_table::{ContextTable, Transition, TransitionKind};
pub use expr::{BindingLayout, CompiledExpr, EvalError};
pub use nfa::{NfaProgram, NfaStep, PatternBuilder, PredicateId, PredicateTable};
pub use ops::Op;
pub use pattern::{PatternOp, SharedGroup, SharedMember};
pub use plan::{CombinedPlan, PlanOutput, QueryPlan};
pub use translate::{translate_query_set, TranslationOutput};
