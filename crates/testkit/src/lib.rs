//! Generative differential testing for the CAESAR stack.
//!
//! Three pieces:
//!
//! * [`oracle`] — a deliberately naive executable reference
//!   interpretation of the paper's §3–§4 semantics: context transitions
//!   in emission order, context-window admission, `SEQ`+`NOT` matching
//!   by plain tuple enumeration. No plans, no batching, no sharing, no
//!   indexes — quadratic and obviously correct is the point.
//! * [`generate`] — seeded, shrink-friendly generators for random
//!   CAESAR models (context transition networks + deriving/processing
//!   query workloads) and matching event streams, with bias knobs
//!   toward the features that historically break engines: overlapping
//!   context windows, leading/trailing negation, subsumable predicates,
//!   same-timestamp runs and out-of-order arrival.
//! * [`harness`] — the differential loop: each workload runs through
//!   the real engine across the full execution-mode matrix
//!   ([`caesar_runtime::standard_matrix`]) and every leg must reproduce
//!   the oracle byte-for-byte; failures report the seed and a greedily
//!   shrunk minimal model.
//!
//! [`served`] layers two more matrix legs on top: the same workload
//! round-tripped through a loopback `caesar-server` instance (framed
//! TCP, sharded tenant, subscription push-back) must also reproduce the
//! oracle byte-for-byte — once as a strict tenant, once as a
//! speculative tenant whose wire ledger of `OUTPUTS`/`RETRACT` frames
//! must fold back to the oracle's outputs. [`lr`] additionally
//! centralizes the Linear Road fixtures shared by the integration
//! tests.
//!
//! Reproducing a failure is always `seed → workload`:
//!
//! ```
//! use caesar_testkit::{check_workload, workload_from_seed, GenConfig};
//!
//! let workload = workload_from_seed(0x5eed, &GenConfig::default());
//! check_workload(&workload).unwrap();
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

pub mod clickstream;
pub mod fixture;
pub mod generate;
pub mod harness;
pub mod lr;
pub mod oracle;
pub mod served;

pub use clickstream::clickstream_workload_from_seed;
pub use generate::{workload_from_seed, workload_strategy, GenConfig, Workload};
pub use harness::{
    build_programs, canonical, check_workload, check_workload_against, check_workload_provenance,
    fold_records, mutated_oracle_run, oracle_run, shrink_workload, DiffFailure,
};
pub use oracle::{Mutation, Oracle, OracleBuildError, OracleRun};
pub use served::{
    check_workload_served, check_workload_served_against, SERVED_LEG, SERVED_SPECULATIVE_LEG,
};
