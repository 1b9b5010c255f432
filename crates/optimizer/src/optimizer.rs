//! The CAESAR optimizer pipeline (§5): translation output in, optimized
//! program out.
//!
//! Passes, in order:
//! 1. context window push-down (Theorem 1),
//! 2. adjacent-filter merging,
//! 3. predicate push-down into pattern operators,
//! 4. workload-sharing detection (one execution per structurally
//!    identical query),
//! 5. context window grouping over the subsumption-derived window specs
//!    of the deriving queries (Listing 1).
//!
//! [`OptimizedProgram::executing`] then emits the plans an engine runs:
//! CAESAR's context-aware program, or one of the §7 baselines.

use crate::grouping::{group_windows, install_prefix_sharing, GroupingResult, UserWindow};
use crate::mqo::{executing_plans, find_sharing, total_savings, ExecutingPlans, SharedWorkload};
use crate::pushdown::{
    merge_adjacent_filters, push_down_context_window, push_predicates_into_pattern,
};
use crate::subsume::{derive_window_specs, window_relation, WindowRelation, WindowSpec};
use caesar_algebra::cost::{plan_cost, Stats};
use caesar_algebra::translate::TranslationOutput;
use caesar_algebra::{CombinedPlan, Op, QueryPlan};
use caesar_events::SchemaRegistry;
use caesar_query::ast::QueryId;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Which optimizations to apply. Disabling everything and executing
/// the program as [`Mode::BusyWait`] yields the "non-optimized query
/// plan" baseline of Figure 11(b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptimizerConfig {
    /// Push context windows to the bottom of every chain (§5.2).
    pub push_down_context_windows: bool,
    /// Merge adjacent filter operators.
    pub merge_filters: bool,
    /// Install eagerly-evaluable conjuncts as pattern step predicates.
    pub push_predicates: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        Self {
            push_down_context_windows: true,
            merge_filters: true,
            push_predicates: true,
        }
    }
}

impl OptimizerConfig {
    /// The all-off baseline configuration.
    #[must_use]
    pub fn unoptimized() -> Self {
        Self {
            push_down_context_windows: false,
            merge_filters: false,
            push_predicates: false,
        }
    }
}

/// Which program [`OptimizedProgram::executing`] emits: CAESAR's, or
/// one of the §7 baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Mode {
    /// CAESAR: suspension by context, derivation shared per context.
    #[default]
    ContextAware,
    /// Baseline: all queries always active; each processing query
    /// re-derives its context privately; context windows are pushed to
    /// the chain bottom, so pattern state stays window-scoped and
    /// results match CAESAR exactly.
    ContextIndependent,
    /// Pure busy-waiting, the "non-optimized query plan" of Figure
    /// 11(b): all queries always active, no private re-derivation, and
    /// context windows left where the plans put them — a SASE-style
    /// engine taken literally, where every event traverses pattern and
    /// filter before a mid-chain window drops out-of-context *matches*.
    /// Pattern state is stream-scoped, so results may differ at window
    /// boundaries (§3.2).
    BusyWait,
}

/// The CAESAR optimizer.
#[derive(Debug, Clone, Default)]
pub struct Optimizer {
    /// Enabled passes.
    pub config: OptimizerConfig,
    /// Statistics feeding the cost model.
    pub stats: Stats,
}

/// An optimized, executable program.
#[derive(Debug, Clone)]
pub struct OptimizedProgram {
    /// The (rewritten) combined plans per context.
    pub translation: TranslationOutput,
    /// Sharing groups across the whole workload.
    pub sharing: Vec<SharedWorkload>,
    /// Grouped context windows (empty when no overlap is inferable).
    pub grouping: GroupingResult,
    /// The compile-time window specs the grouping was computed from.
    pub window_specs: Vec<WindowSpec>,
    /// Estimated cost before optimization (cost-model units).
    pub cost_before: f64,
    /// Estimated cost after optimization.
    pub cost_after: f64,
}

impl OptimizedProgram {
    /// The plans an engine executes in `mode`, with workload sharing
    /// (§5.3) applied when `share` is set.
    ///
    /// * [`Mode::ContextAware`]: a sharing program also installs every
    ///   shared-prefix group [`install_prefix_sharing`] finds eligible;
    ///   each processing plan is gated by its context windows.
    /// * [`Mode::ContextIndependent`] (§7, state of the art \[34, 5\]):
    ///   every gate is open, context windows sit at the chain bottom
    ///   (with no router, that keeps pattern state window-scoped), and
    ///   every processing query gets a private clone of each deriving
    ///   plan of its context, appended to `deriving` with its context
    ///   operators stripped: it re-evaluates the derivation condition on
    ///   every event and requests no transition.
    /// * [`Mode::BusyWait`]: every gate is open and nothing else changes.
    ///
    /// Neither baseline installs shared prefixes: they model an engine
    /// without the §5 optimizer.
    #[must_use]
    pub fn executing(self, mode: Mode, share: bool) -> ExecutingPlans {
        let mut combined = self.translation.combined;
        // A semantic requirement, not an optimization: with every gate
        // open, only a window below the pattern keeps its state
        // window-scoped (busy-waiting gives that up on purpose).
        if mode == Mode::ContextIndependent {
            for p in combined.iter_mut().flat_map(|c| &mut c.plans) {
                push_down_context_window(p);
            }
        }
        let sharing = if share { &self.sharing[..] } else { &[] };
        let mut plans = executing_plans(combined, sharing);
        match mode {
            Mode::ContextAware => {
                if share {
                    for cp in &mut plans.processing {
                        install_prefix_sharing(cp);
                    }
                }
                return plans;
            }
            Mode::ContextIndependent => {
                let private = private_derivers(&plans);
                plans.deriving.extend(private);
            }
            Mode::BusyWait => {}
        }
        plans.gates.iter_mut().for_each(Vec::clear);
        plans
    }

    /// Queries whose execution is saved by sharing.
    #[must_use]
    pub fn shared_savings(&self) -> usize {
        total_savings(&self.sharing)
    }

    /// Human-readable optimization report: the cost estimate, the
    /// workload-sharing and window-grouping summary, every translated
    /// plan, and — for each context that holds two or more multi-step
    /// sequences — the prefix-sharing decision: each installed group,
    /// and for each sequence left private the eligibility rule that
    /// excluded it.
    #[must_use]
    pub fn explain(&self) -> String {
        let mut s = String::new();
        s.push_str(&format!(
            "estimated cost: {:.1} -> {:.1}\n",
            self.cost_before, self.cost_after
        ));
        s.push_str(&format!(
            "sharing groups: {} (saving {} executions)\n",
            self.sharing.len(),
            self.shared_savings()
        ));
        s.push_str(&format!(
            "grouped windows: {} (from {} split originals)\n",
            self.grouping.windows.len(),
            self.grouping.split_count
        ));
        for c in &self.translation.combined {
            s.push_str(&c.explain());
        }
        // Prefix sharing is a question only where one context holds two
        // multi-step sequences; answering it takes the plans a sharing,
        // context-aware engine executes (one built with `sharing` off
        // runs every translated plan privately).
        let sequences = |c: &CombinedPlan| {
            let patterns = c.plans.iter().filter(|p| !p.is_deriving);
            let patterns = patterns.flat_map(|p| &p.ops).filter_map(|op| match op {
                Op::Pattern(p) => Some(p),
                _ => None,
            });
            patterns.filter(|p| p.arity() >= 2).count()
        };
        if !self.translation.combined.iter().any(|c| sequences(c) >= 2) {
            return s;
        }
        let executing = executing_plans(self.translation.combined.clone(), &self.sharing);
        for mut combined in executing.processing {
            let private = install_prefix_sharing(&mut combined);
            if combined.shared_groups().is_empty() && private.len() < 2 {
                continue;
            }
            s.push_str(&format!("prefix sharing[{}]:\n", combined.context));
            s.push_str(&combined.explain_shared());
            for (plan, why) in private {
                let query = combined.plans[plan].query_id;
                s.push_str(&format!("  {query} keeps a private pattern: {why}\n"));
            }
        }
        s
    }
}

/// The context-independent baseline's re-derivers: per processing
/// query, a clone of each deriving plan of its context without the
/// context operators (`CI_c`, `CT_c` and the context window).
fn private_derivers(plans: &ExecutingPlans) -> Vec<QueryPlan> {
    let mut private = Vec::new();
    for c in &plans.processing {
        let derivers: Vec<&QueryPlan> = plans
            .deriving
            .iter()
            .filter(|d| d.context == c.context)
            .collect();
        for _query in &c.plans {
            for &deriver in &derivers {
                let mut clone = deriver.clone();
                clone.ops.retain(|op| {
                    !matches!(
                        op,
                        Op::ContextInit(_) | Op::ContextTerm(_) | Op::ContextWindow(_)
                    )
                });
                private.push(clone);
            }
        }
    }
    private
}

impl Optimizer {
    /// Creates an optimizer with the given configuration and statistics.
    #[must_use]
    pub fn new(config: OptimizerConfig, stats: Stats) -> Self {
        Self { config, stats }
    }

    /// Runs all enabled passes.
    #[must_use]
    pub fn optimize(
        &self,
        mut translation: TranslationOutput,
        registry: &SchemaRegistry,
    ) -> OptimizedProgram {
        let cost_before = self.total_cost(&translation);

        for combined in &mut translation.combined {
            for plan in &mut combined.plans {
                if self.config.push_down_context_windows {
                    push_down_context_window(plan);
                }
                if self.config.merge_filters {
                    merge_adjacent_filters(plan);
                }
                if self.config.push_predicates {
                    push_predicates_into_pattern(plan, registry);
                }
            }
        }

        let all: Vec<&caesar_query::queryset::CompiledQuery> = translation
            .combined
            .iter()
            .flat_map(|c| c.plans.iter().map(|p| p.source.as_ref()))
            .collect();
        let sharing = find_sharing(&all);

        // Subsumption analysis over the deriving queries → window specs
        // → grouping.
        let deriving: Vec<(QueryId, &caesar_query::ast::EventQuery)> = translation
            .combined
            .iter()
            .flat_map(|c| c.plans.iter())
            .filter(|p| p.is_deriving)
            .map(|p| (p.query_id, &p.source.query))
            .collect();
        let mut workloads: BTreeMap<String, Vec<QueryId>> = BTreeMap::new();
        for c in &translation.combined {
            workloads.insert(
                c.context.clone(),
                c.plans.iter().map(|p| p.query_id).collect(),
            );
        }
        let window_specs = derive_window_specs(&deriving, &workloads);
        let grouping = if window_specs.len() >= 2
            && window_specs.iter().enumerate().any(|(i, a)| {
                window_specs[i + 1..].iter().any(|b| {
                    window_relation(a, b) == WindowRelation::Overlaps
                        || window_relation(a, b) == WindowRelation::ContainedIn
                })
            }) {
            group_windows(
                window_specs
                    .iter()
                    .map(|s| {
                        UserWindow::new(
                            s.context.clone(),
                            s.start.value,
                            s.end.value,
                            s.queries.clone(),
                        )
                    })
                    .collect(),
            )
        } else {
            GroupingResult::default()
        };

        let cost_after = self.total_cost(&translation);
        OptimizedProgram {
            translation,
            sharing,
            grouping,
            window_specs,
            cost_before,
            cost_after,
        }
    }

    fn total_cost(&self, translation: &TranslationOutput) -> f64 {
        translation
            .combined
            .iter()
            .flat_map(|c| c.plans.iter())
            .map(|p| plan_cost(p, &self.stats))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_algebra::translate::{translate_query_set, TranslateOptions};
    use caesar_events::{AttrType, Schema};
    use caesar_query::parser::parse_model;
    use caesar_query::queryset::QuerySet;

    fn setup() -> (TranslationOutput, SchemaRegistry) {
        let model = parse_model(
            r#"
            MODEL m DEFAULT low
            CONTEXT low {
                INITIATE CONTEXT mid PATTERN Signal s WHERE s.x > 10
                INITIATE CONTEXT high PATTERN Signal s WHERE s.x > 20
                DERIVE Alert(r.v) PATTERN Reading r CONTEXT low, mid
            }
            CONTEXT mid {
                TERMINATE CONTEXT mid PATTERN Signal s WHERE s.x < 30
                DERIVE Pair(a.v, b.v) PATTERN SEQ(Reading a, Reading b)
                    WHERE a.v = b.v AND a.v > 5
            }
            CONTEXT high {
                TERMINATE CONTEXT high PATTERN Signal s WHERE s.x < 40
                DERIVE Spike(r.v) PATTERN Reading r WHERE r.v > 100
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("Signal", &[("x", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Reading", &[("v", AttrType::Int)]))
            .unwrap();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        (t, reg)
    }

    #[test]
    fn default_pipeline_pushes_down_everything() {
        let (t, reg) = setup();
        let optimizer = Optimizer::default();
        let program = optimizer.optimize(t, &reg);
        for c in &program.translation.combined {
            for p in &c.plans {
                assert!(
                    p.is_context_window_pushed_down(),
                    "{} not pushed down",
                    p.explain()
                );
            }
        }
        assert!(program.cost_after <= program.cost_before);
    }

    #[test]
    fn unoptimized_config_changes_nothing() {
        let (t, reg) = setup();
        let before: Vec<String> = t
            .combined
            .iter()
            .flat_map(|c| c.plans.iter().map(|p| p.explain()))
            .collect();
        let optimizer = Optimizer::new(OptimizerConfig::unoptimized(), Stats::new());
        let program = optimizer.optimize(t, &reg);
        let after: Vec<String> = program
            .translation
            .combined
            .iter()
            .flat_map(|c| c.plans.iter().map(|p| p.explain()))
            .collect();
        assert_eq!(before, after);
        // The sharing analysis is not a pass: it always runs.
        assert_eq!(program.shared_savings(), 1);
    }

    #[test]
    fn multi_context_instances_share() {
        let (t, reg) = setup();
        let program = Optimizer::default().optimize(t, &reg);
        // The Alert query lives in low AND mid → one sharing group of 2.
        assert!(
            program.sharing.iter().any(|s| s.members.len() == 2),
            "sharing: {:?}",
            program.sharing
        );
        assert_eq!(program.shared_savings(), 1);
    }

    #[test]
    fn window_specs_and_grouping_derived_from_thresholds() {
        let (t, reg) = setup();
        let program = Optimizer::default().optimize(t, &reg);
        // mid = [10, 30], high = [20, 40] ⇒ overlap ⇒ 3 grouped windows.
        assert_eq!(program.window_specs.len(), 2);
        assert_eq!(program.grouping.windows.len(), 3);
        assert_eq!(program.grouping.split_count, 2);
    }

    #[test]
    fn explain_mentions_key_facts() {
        let (t, reg) = setup();
        let program = Optimizer::default().optimize(t, &reg);
        let explain = program.explain();
        assert!(explain.contains("estimated cost"));
        assert!(explain.contains("sharing groups"));
        assert!(explain.contains("grouped windows: 3"));
        // A lone multi-step sequence raises no sharing question.
        assert!(!explain.contains("prefix sharing"), "{explain}");
    }

    #[test]
    fn explain_lists_installed_prefix_groups() {
        let model = parse_model(
            r#"
            MODEL m DEFAULT ctx
            CONTEXT ctx {
                DERIVE Out1(a.x) PATTERN SEQ(Signal a, Reading b, Reading c) WHERE c.v > 1
                DERIVE Out2(a.x) PATTERN SEQ(Signal a, Reading b, Signal d) WHERE d.x > 2
                DERIVE Slow(a.x) PATTERN SEQ(Signal a, Reading b) WITHIN 5
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("Signal", &[("x", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Reading", &[("v", AttrType::Int)]))
            .unwrap();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        let explain = Optimizer::default().optimize(t, &reg).explain();
        assert!(
            explain.contains(
                "prefix sharing[ctx]:\n  \
                 shared prefix 0: SEQ(T0, T1), length 2, gated, members Q0, Q1\n  \
                 Q2 keeps a private pattern: differing WITHIN\n"
            ),
            "{explain}"
        );
    }

    #[test]
    fn cost_reduction_with_low_activity_contexts() {
        let (t, reg) = setup();
        let mut stats = Stats::new();
        stats.default_activity = 0.1;
        stats.default_rate = 100.0;
        let program = Optimizer::new(OptimizerConfig::default(), stats).optimize(t, &reg);
        assert!(
            program.cost_after < program.cost_before * 0.9,
            "push-down should cut >10% at 10% activity: {} -> {}",
            program.cost_before,
            program.cost_after
        );
    }
}
