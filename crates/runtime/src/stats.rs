//! The statistics gatherer of the optimization layer (Figure 8).
//!
//! "The query plan is optimized using several context-aware optimization
//! strategies" driven by a cost model; the statistics gatherer feeds
//! that model with *observed* values from a running engine: per-type
//! input rates, per-context activity fractions (from the context window
//! operators' admit/drop counters) and per-filter observed
//! selectivities. The output [`Stats`] can be handed back to the
//! [`Optimizer`](caesar_optimizer::Optimizer) to re-optimize with real
//! numbers instead of defaults.

use caesar_algebra::cost::Stats;
use caesar_algebra::ops::Op;
use caesar_algebra::pattern::SharedGroup;
use caesar_algebra::plan::QueryPlan;
use caesar_events::{Time, TypeId};
use std::collections::BTreeMap;

/// Raw observations accumulated while visiting plans.
#[derive(Debug, Clone, Default)]
pub struct Observations {
    /// Events ingested per input type.
    pub inputs_by_type: BTreeMap<TypeId, u64>,
    /// Stream progress (ticks observed).
    pub progress: Time,
    /// Per context bit: (admitted, dropped) sums over all context
    /// window operators guarding that bit.
    pub window_counts: BTreeMap<u8, (u64, u64)>,
    /// Per query: observed filter selectivity.
    pub filter_selectivities: BTreeMap<String, f64>,
    /// Per query: pattern matches / inputs processed (events through
    /// the chain plus candidates tried at a shared-prefix boundary).
    pub pattern_match_rates: BTreeMap<String, f64>,
}

impl Observations {
    /// Folds one plan's operator counters into the observations.
    pub fn visit_plan(&mut self, plan: &QueryPlan) {
        for op in &plan.ops {
            match op {
                Op::ContextWindow(cw) => {
                    let entry = self.window_counts.entry(cw.context_bit).or_insert((0, 0));
                    entry.0 += cw.admitted;
                    entry.1 += cw.dropped;
                }
                Op::Filter(f) => {
                    if let Some(sel) = f.observed_selectivity() {
                        self.filter_selectivities
                            .insert(plan.query_id.to_string(), sel);
                    }
                }
                Op::Pattern(p) if p.stats.events_processed > 0 => {
                    self.pattern_match_rates.insert(
                        plan.query_id.to_string(),
                        p.stats.matches as f64 / p.stats.events_processed as f64,
                    );
                }
                _ => {}
            }
        }
    }

    /// Folds one shared-prefix group's window verdicts into the
    /// observations: its members' context windows never see the events
    /// the group takes for them, so without these the context's
    /// activity would be computed from tail events alone.
    pub fn visit_group(&mut self, context_bit: u8, group: &SharedGroup) {
        let entry = self.window_counts.entry(context_bit).or_insert((0, 0));
        entry.0 += group.admitted;
        entry.1 += group.dropped;
    }

    /// Converts the observations into cost-model statistics.
    #[must_use]
    pub fn to_stats(&self) -> Stats {
        let mut stats = Stats::new();
        let ticks = self.progress.max(1) as f64;
        for (&tid, &count) in &self.inputs_by_type {
            stats.set_rate(tid, count as f64 / ticks);
        }
        for (&bit, &(admitted, dropped)) in &self.window_counts {
            let total = admitted + dropped;
            if total > 0 {
                stats.set_activity(bit, admitted as f64 / total as f64);
            }
        }
        stats
    }

    /// Human-readable summary (for the CLI's explain output and logs).
    #[must_use]
    pub fn summary(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let ticks = self.progress.max(1) as f64;
        let _ = writeln!(s, "observed over {} ticks:", self.progress);
        for (tid, count) in &self.inputs_by_type {
            let _ = writeln!(s, "  rate[{tid}] = {:.4}/tick", *count as f64 / ticks);
        }
        for (bit, (admitted, dropped)) in &self.window_counts {
            let total = (admitted + dropped).max(1);
            let _ = writeln!(
                s,
                "  activity[bit {bit}] = {:.1}% ({admitted} admitted / {dropped} dropped)",
                *admitted as f64 / total as f64 * 100.0
            );
        }
        for (query, sel) in &self.filter_selectivities {
            let _ = writeln!(s, "  filter selectivity[{query}] = {sel:.4}");
        }
        for (query, rate) in &self.pattern_match_rates {
            let _ = writeln!(s, "  pattern match rate[{query}] = {rate:.4}");
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_algebra::ops::{ContextWindowOp, FilterOp};
    use caesar_algebra::pattern::PatternOp;
    use caesar_query::ast::{EventQuery, Pattern as AstPattern, QueryId};
    use caesar_query::queryset::CompiledQuery;

    fn plan_with(ops: Vec<Op>) -> QueryPlan {
        QueryPlan {
            query_id: QueryId(4),
            context: "c".into(),
            context_bit: 0,
            ops,
            input_types: vec![TypeId(0)],
            output_type: None,
            is_deriving: false,
            source: std::sync::Arc::new(CompiledQuery {
                id: QueryId(4),
                query: EventQuery {
                    name: None,
                    action: None,
                    derive: None,
                    pattern: AstPattern::event_unbound("X"),
                    where_clause: None,
                    within: None,
                    contexts: vec!["c".into()],
                },
                context: "c".into(),
                source: 0,
            }),
        }
    }

    #[test]
    fn window_counters_become_activity() {
        let mut cw = ContextWindowOp::new(3);
        cw.admitted = 30;
        cw.dropped = 70;
        let plan = plan_with(vec![Op::ContextWindow(cw)]);
        let mut obs = Observations {
            progress: 100,
            ..Default::default()
        };
        obs.inputs_by_type.insert(TypeId(0), 250);
        obs.visit_plan(&plan);
        let stats = obs.to_stats();
        assert!((stats.activity(3) - 0.3).abs() < 1e-9);
        assert!((stats.rate(TypeId(0)) - 2.5).abs() < 1e-9);
    }

    #[test]
    fn filter_selectivity_observed() {
        let mut f = FilterOp::new(vec![]);
        f.evaluated = 10;
        f.accepted = 4;
        let plan = plan_with(vec![Op::Filter(f)]);
        let mut obs = Observations::default();
        obs.visit_plan(&plan);
        assert_eq!(obs.filter_selectivities.get("Q4"), Some(&0.4));
    }

    #[test]
    fn pattern_match_rate_observed() {
        let mut p = PatternOp::passthrough(TypeId(1));
        p.stats.events_processed = 50;
        p.stats.matches = 5;
        let plan = plan_with(vec![Op::Pattern(p)]);
        let mut obs = Observations::default();
        obs.visit_plan(&plan);
        assert_eq!(obs.pattern_match_rates.get("Q4"), Some(&0.1));
    }

    #[test]
    fn summary_mentions_everything() {
        let mut obs = Observations {
            progress: 10,
            ..Default::default()
        };
        obs.inputs_by_type.insert(TypeId(2), 20);
        obs.window_counts.insert(1, (8, 2));
        obs.filter_selectivities.insert("Q1".into(), 0.25);
        let text = obs.summary();
        assert!(text.contains("rate[T2] = 2.0000/tick"), "{text}");
        assert!(text.contains("activity[bit 1] = 80.0%"), "{text}");
        assert!(text.contains("selectivity[Q1] = 0.2500"), "{text}");
    }
}
