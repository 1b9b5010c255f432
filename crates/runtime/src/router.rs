//! The context-aware stream router (§6.2).
//!
//! "Based on the context window vector, the system is aware of the
//! currently active event query workloads. For each current context
//! window w_c, it routes all its events to the query plan associated with
//! the context c. Query plans of all currently inactive context windows
//! do not receive any input. They are suspended to avoid busy waiting."
//!
//! Routing is batch-level and O(active contexts): one bit-vector lookup
//! against the program's gates selects the combined plans fed for a
//! whole transaction.

use crate::programs::ProgramTemplate;
use caesar_algebra::context_table::ContextTable;
use caesar_events::{PartitionId, Time};
use serde::{Deserialize, Serialize};

/// Batch-level router with suspension accounting.
#[derive(Debug, Default, Clone, Serialize, Deserialize)]
pub struct Router {
    /// Transactions routed.
    pub batches_routed: u64,
    /// Events covered by routed transactions (each routing decision
    /// amortizes over this many events).
    pub events_routed: u64,
    /// Combined plans that received a batch.
    pub plans_fed: u64,
    /// Combined plans skipped because their context was inactive — the
    /// suspension saving the paper's optimization delivers.
    pub plans_suspended: u64,
}

impl Router {
    /// Creates a router.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Selects the active processing plans for one transaction of
    /// `events` events into `active` (a caller-owned buffer, so routing
    /// allocates nothing), updating the suspension and amortization
    /// counters.
    pub fn select(
        &mut self,
        program: &ProgramTemplate,
        partition: PartitionId,
        t: Time,
        table: &ContextTable,
        events: u64,
        active: &mut Vec<usize>,
    ) {
        program.active_processing(partition, t, table, active);
        self.events_routed += events;
        self.batches_routed += 1;
        self.plans_fed += active.len() as u64;
        self.plans_suspended += (program.processing.len() - active.len()) as u64;
    }

    /// Fraction of plan-batch pairs suspended so far.
    #[must_use]
    pub fn suspension_ratio(&self) -> f64 {
        let total = self.plans_fed + self.plans_suspended;
        if total == 0 {
            0.0
        } else {
            self.plans_suspended as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suspension_ratio_math() {
        let mut r = Router::new();
        r.plans_fed = 3;
        r.plans_suspended = 7;
        assert!((r.suspension_ratio() - 0.7).abs() < 1e-9);
        assert_eq!(Router::new().suspension_ratio(), 0.0);
    }
}
