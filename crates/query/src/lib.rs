//! The CAESAR event query language and context model (§3 of the paper).
//!
//! This crate covers the *specification layer* of the CAESAR stack:
//!
//! * [`ast`] — the abstract syntax of context-aware event queries
//!   (Definition 3): context initiation / switch / termination clauses,
//!   complex-event derivation, `SEQ`+`NOT` patterns, `WHERE` expressions
//!   and `CONTEXT` clauses.
//! * [`lexer`] / [`parser`] — a hand-written lexer and recursive-descent
//!   parser for the grammar of Figure 4, extended with a `MODEL` /
//!   `CONTEXT { ... }` block syntax so whole applications (Figure 3) can
//!   be written as text.
//! * [`model`] — the CAESAR model (Definition 4): a finite set of context
//!   types with a default context, each carrying context-*deriving* and
//!   context-*processing* query workloads, plus validation.
//! * [`queryset`] — Phase 1 of the translation pipeline (§4.2):
//!   CAESAR model → machine-readable query set with mandatory `CONTEXT`
//!   clauses.
//! * [`pretty`] — prints queries and models back to parseable text.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod ast;
pub mod dot;
pub mod error;
pub mod lexer;
pub mod model;
pub mod parser;
pub mod pretty;
pub mod queryset;

pub use ast::{BinOp, ContextAction, DeriveClause, EventQuery, Expr, Pattern, QueryId};
pub use dot::model_to_dot;
pub use error::QueryError;
pub use model::{CaesarModel, ContextDef};
pub use parser::{parse_model, parse_queries};
pub use queryset::{CompiledQuery, QuerySet};
