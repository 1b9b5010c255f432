//! Event model substrate for the CAESAR context-aware event stream
//! analytics system (Poppe et al., EDBT 2016, §2).
//!
//! This crate provides the vocabulary every other CAESAR crate builds on:
//!
//! * [`Time`] / [`Interval`] — application time points and intervals
//!   (§2, "Time"). Time is a linearly ordered set of points; complex events
//!   carry an occurrence *interval* spanning the events they were derived
//!   from.
//! * [`Value`] — dynamically typed attribute values (integers, floats,
//!   strings, booleans).
//! * [`Schema`] / [`SchemaRegistry`] — event *types* with named, typed
//!   attributes (§2, "Event").
//! * [`Event`] — a timestamped message of a particular type carrying
//!   attribute values, optionally assigned to a stream *partition*
//!   (a unidirectional road segment in the traffic use case, §6.2).
//! * [`queue::PartitionedQueues`] — the event distributor's buffer
//!   (§6.1): the single-timestamp frontier the scheduler releases stream
//!   transactions from.
//! * [`PartitionMap`] — the map every partition-keyed state goes
//!   through, over one cheap hasher of the sparse partition id.
//! * [`generator`] — seeded synthetic-stream utilities (rate curves and
//!   window-placement distributions) shared by the workload substrates.
//!
//! There is no stream type. An input stream (§2) is a time-ordered
//! sequence of events that its host pushes one at a time into the
//! runtime's `Engine::ingest`, as the paper pushes events to the
//! distributor (§6.1); a finite one is a `Vec<Event>`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod codec;
pub mod error;
pub mod event;
pub mod generator;
pub mod provenance;
pub mod queue;
pub mod record;
pub mod reorder;
pub mod schema;
pub mod time;
pub mod value;

pub use codec::{
    decode, decode_all, decode_record, decode_records, decode_slice, encode, encode_all,
    encode_record, encode_records, encode_to_vec, CodecError,
};
pub use error::EventError;
pub use event::{Event, EventBuilder, PartitionHasher, PartitionId, PartitionMap};
pub use provenance::{ProvStep, Provenance};
pub use queue::PartitionedQueues;
pub use record::OutputRecord;
pub use reorder::{max_lateness, ReorderBuffer};
pub use schema::{AttrId, AttrType, Schema, SchemaRegistry, Symbol, SymbolTable, TypeId};
pub use time::{Interval, Time, WindowSpan, TIME_MAX};
pub use value::Value;
