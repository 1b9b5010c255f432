//! Clickstream differential fixtures: seeded funnel workloads for the
//! mode-matrix harness.
//!
//! Unlike [`generate`](crate::generate), which draws random models, the
//! clickstream profile keeps the hand-written session-state model from
//! `caesar-clickstream` (four contexts, funnel/abandonment/bot queries,
//! one negated pattern) and randomizes everything around it: user-key
//! population, Zipf skew, session mix, replication, disorder,
//! id-scattering and same-time view bursts. The model stays inside the reference-oracle envelope
//! by construction, so every sampled workload runs through
//! [`check_workload`](crate::check_workload),
//! [`check_workload_served`](crate::check_workload_served) and
//! [`check_workload_provenance`](crate::check_workload_provenance)
//! byte-for-byte.

use crate::generate::Workload;
use caesar_clickstream::{
    clickstream_model, clickstream_registry, generate, output_types, ClickConfig, DEFAULT_WITHIN,
};
use caesar_events::generator::rng;
use caesar_events::max_lateness;
use rand::Rng;

/// Derives a clickstream differential workload from a seed: a random
/// generator configuration (population, skew, session mix, disorder,
/// id scattering) paired with the clickstream model at a random
/// replication (1–3 → 5–15 queries).
#[must_use]
pub fn clickstream_workload_from_seed(seed: u64) -> Workload {
    let mut r = rng(seed ^ 0xc11c_57ea_4d1f_f001);
    let replication = r.gen_range(1..4usize);
    let config = ClickConfig {
        users: r.gen_range(2..40u64),
        sessions: r.gen_range(6..40usize),
        coverage_floor: if r.gen_bool(0.3) {
            r.gen_range(1..6)
        } else {
            0
        },
        zipf_s: r.gen_range(0.0..1.6),
        seed,
        bot_fraction: r.gen_range(0.0..0.25),
        buy_fraction: r.gen_range(0.1..0.4),
        abandon_fraction: r.gen_range(0.1..0.4),
        disorder: if r.gen_bool(0.5) {
            r.gen_range(0.05..0.35)
        } else {
            0.0
        },
        scatter_ids: r.gen_bool(0.3),
        ..ClickConfig::default()
    };
    let registry = clickstream_registry();
    let (mut events, _) = generate(&config, &registry);
    // Scripted sessions put few events into a transaction, so
    // half the workloads repeat a few views in place: same user, same
    // timestamp, arriving together — transactions of 8 to 12 events,
    // where a combined plan may run plan-major.
    if r.gen_bool(0.5) {
        let view = registry.lookup("View").expect("registered");
        for _ in 0..r.gen_range(1..4) {
            let views: Vec<usize> = (0..events.len())
                .filter(|&i| events[i].type_id == view)
                .collect();
            if views.is_empty() {
                break;
            }
            let at = views[r.gen_range(0..views.len())];
            let copies = r.gen_range(8..13);
            let burst = vec![events[at].clone(); copies - 1];
            events.splice(at..at, burst);
        }
    }
    let reorder_slack = max_lateness(&events);
    Workload {
        seed,
        model: clickstream_model(replication),
        registry,
        events,
        default_within: DEFAULT_WITHIN,
        reorder_slack,
        output_types: output_types(replication),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_deterministic_and_nonempty() {
        let a = clickstream_workload_from_seed(42);
        let b = clickstream_workload_from_seed(42);
        assert_eq!(a.events, b.events);
        assert_eq!(a.output_types, b.output_types);
        assert!(!a.events.is_empty());
        assert_eq!(a.reorder_slack, caesar_events::max_lateness(&a.events));
    }

    #[test]
    fn profile_varies_structurally_across_seeds() {
        let replications: std::collections::BTreeSet<usize> = (0..20u64)
            .map(|s| clickstream_workload_from_seed(s).output_types.len())
            .collect();
        assert!(replications.len() > 1, "replication never varied");
        let disordered = (0..20u64).any(|s| clickstream_workload_from_seed(s).reorder_slack > 0);
        assert!(disordered, "no seed produced a disordered stream");
    }
}
