//! The §7 latency model: simulated arrival schedules, measured service
//! times, queueing-model latency, and the win-ratio / L-factor
//! computations of Figures 11–14.
//!
//! The paper measures *maximal latency* — "the maximal time interval
//! elapsed from the event arrival time till the complex event derivation
//! time" — on 3-hour streams. Re-running hours of wall clock per data
//! point is impractical, so the figures simulate the arrival clock:
//! each event's arrival instant is its application timestamp scaled by
//! a tick length; service times are *measured* with a monotonic clock
//! while the engine processes as fast as it can ([`crate::measure`]);
//! and completion follows the single-server queue recurrence
//! `completion = max(arrival, previous completion) + service`.
//! When the engine is faster than the arrival rate, latency stays flat;
//! when it falls behind, the queue — and the latency — grows without
//! bound, which is exactly the behaviour that determines the L-factor
//! (Figure 11b).

use caesar_events::Time;
use std::time::Duration;

/// Queueing latency across a run, against an arrival clock of
/// `tick_ns` simulated nanoseconds per application tick.
#[derive(Debug, Clone, Default)]
pub struct LatencyTracker {
    /// Nanoseconds of simulated arrival time per application tick.
    tick_ns: u64,
    /// Completion instant of the previous service interval (ns).
    cursor_ns: u64,
    /// Maximum observed latency (ns).
    pub max_latency_ns: u64,
    /// Sum of latencies (ns), for averages.
    pub total_latency_ns: u128,
    /// Service intervals observed.
    pub observations: u64,
    /// Sum of the measured service intervals: the engine's busy time.
    pub busy: Duration,
}

impl LatencyTracker {
    /// An idle tracker whose arrival clock maps one application tick to
    /// `tick_ns` nanoseconds.
    #[must_use]
    pub fn new(tick_ns: u64) -> Self {
        Self {
            tick_ns,
            ..Self::default()
        }
    }

    /// Records one service interval for work that arrived at
    /// application time `arrival`. Returns its latency in ns.
    pub fn record(&mut self, arrival: Time, service: Duration) -> u64 {
        let arrival_ns = arrival.saturating_mul(self.tick_ns);
        let completion = self.cursor_ns.max(arrival_ns) + service.as_nanos() as u64;
        self.cursor_ns = completion;
        self.busy += service;
        let latency = completion - arrival_ns;
        self.max_latency_ns = self.max_latency_ns.max(latency);
        self.total_latency_ns += u128::from(latency);
        self.observations += 1;
        latency
    }

    /// Average latency in ns.
    #[must_use]
    pub fn avg_latency_ns(&self) -> u64 {
        if self.observations == 0 {
            0
        } else {
            (self.total_latency_ns / u128::from(self.observations)) as u64
        }
    }
}

/// Win ratio of context-aware over context-independent analytics:
/// "the maximal latency of context-independent processing divided by the
/// maximal latency of context-aware processing of the same event query
/// workload against the same input event stream" (§7.1).
#[must_use]
pub fn win_ratio(ci_max_latency_ns: u64, ca_max_latency_ns: u64) -> f64 {
    if ca_max_latency_ns == 0 {
        return if ci_max_latency_ns == 0 {
            1.0
        } else {
            f64::INFINITY
        };
    }
    ci_max_latency_ns as f64 / ca_max_latency_ns as f64
}

/// The L-factor (§7.1): the largest workload scale (e.g. number of
/// roads) whose maximal latency stays within the constraint. `points`
/// are `(scale, max latency ns)` pairs sorted by scale.
#[must_use]
pub fn l_factor(points: &[(u32, u64)], constraint_ns: u64) -> u32 {
    points
        .iter()
        .take_while(|(_, latency)| *latency <= constraint_ns)
        .map(|(scale, _)| *scale)
        .last()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MS: Duration = Duration::from_millis(1);

    #[test]
    fn arrival_clock_scales_ticks() {
        // 1 tick = 1 ms: work arriving at tick 5 and served instantly
        // completes at 5 ms.
        let mut tracker = LatencyTracker::new(1_000_000);
        assert_eq!(tracker.record(5, Duration::ZERO), 0);
        assert_eq!(tracker.cursor_ns, 5_000_000);
    }

    #[test]
    fn underloaded_latency_equals_service_time() {
        let mut tracker = LatencyTracker::new(1_000_000);
        // Arrivals 1 ms apart; service 0.1 ms: no queueing.
        for i in 0..10u64 {
            assert_eq!(tracker.record(i, MS / 10), 100_000);
        }
        assert_eq!(tracker.max_latency_ns, 100_000);
        assert_eq!(tracker.avg_latency_ns(), 100_000);
        assert_eq!(tracker.busy, MS);
    }

    #[test]
    fn overloaded_latency_grows_without_bound() {
        let mut tracker = LatencyTracker::new(1_000_000);
        // Arrivals 1 ms apart; service 2 ms: queue builds up.
        let mut last = 0;
        for i in 0..100u64 {
            last = tracker.record(i, 2 * MS);
        }
        // The 100th arrival waits ~99 ms behind the queue.
        assert!(last > 90_000_000, "latency {last} should approach 100 ms");
        assert_eq!(
            tracker.max_latency_ns, last,
            "latency is monotone under overload"
        );
    }

    #[test]
    fn burst_then_idle_drains_queue() {
        let mut tracker = LatencyTracker::new(1_000_000);
        // Burst: 5 intervals at t=0 with 1 ms service each.
        for _ in 0..5 {
            tracker.record(0, MS);
        }
        assert_eq!(tracker.max_latency_ns, 5_000_000);
        // Long idle gap: the next arrival sees an empty queue again.
        assert_eq!(tracker.record(1_000, MS), 1_000_000);
    }

    #[test]
    fn win_ratio_cases() {
        assert_eq!(win_ratio(8_000, 1_000), 8.0);
        assert_eq!(win_ratio(0, 0), 1.0);
        assert!(win_ratio(5, 0).is_infinite());
    }

    #[test]
    fn l_factor_finds_last_scale_under_constraint() {
        let points = vec![
            (2, 1_000_000_000),
            (3, 2_000_000_000),
            (5, 4_500_000_000),
            (7, 5_000_000_000),
            (8, 9_000_000_000),
        ];
        assert_eq!(l_factor(&points, 5_000_000_000), 7);
        assert_eq!(l_factor(&points, 500_000_000), 0);
    }
}
