//! Phase 1 of the CAESAR model translation (§4.2): model → machine-
//! readable query set.
//!
//! "During this phase, contexts that are implied by the CAESAR model
//! (the optional clauses in square brackets in Figure 3) become mandatory
//! clauses of the CAESAR event queries. As a result, an event query that
//! belongs to a context c has a mandatory clause CONTEXT c."
//!
//! A query appearing in several contexts (e.g. accident detection in both
//! *clear* and *congestion*, §3.3) is compiled once per context so that
//! each compiled instance lives in exactly one combined query plan; the
//! optimizer's workload-sharing pass may later merge them again.

use crate::ast::{EventQuery, QueryId};
use crate::error::QueryError;
use crate::model::CaesarModel;
use serde::Serialize;

/// A query with its mandatory context, as produced by Phase 1.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct CompiledQuery {
    /// Unique id within the set.
    pub id: QueryId,
    /// The underlying query (with `contexts` made explicit and singular).
    pub query: EventQuery,
    /// The single context this compiled instance belongs to.
    pub context: String,
    /// Id of the *source* query in the model: compiled instances of the
    /// same model query in different contexts share this, which is what
    /// the workload-sharing optimizer keys on.
    pub source: u32,
}

impl CompiledQuery {
    /// Returns `true` for compiled context-deriving queries.
    #[must_use]
    pub fn is_deriving(&self) -> bool {
        self.query.is_deriving()
    }
}

/// The machine-readable query set: every query carries a mandatory
/// `CONTEXT` clause.
#[derive(Debug, Clone, PartialEq)]
pub struct QuerySet {
    /// Application name (from the model).
    pub name: String,
    /// The default context `c_d`.
    pub default_context: String,
    /// Context type names sorted alphabetically — bit-vector order (§6.2).
    pub context_names: Vec<String>,
    /// All compiled queries.
    pub queries: Vec<CompiledQuery>,
}

impl QuerySet {
    /// Runs Phase 1 on a validated model.
    pub fn from_model(model: &CaesarModel) -> Result<Self, QueryError> {
        model.validate()?;
        let mut context_names: Vec<String> =
            model.contexts.iter().map(|c| c.name.clone()).collect();
        context_names.sort_unstable();

        let mut queries = Vec::new();
        let mut source = 0u32;
        let mut next_id = 0u32;
        for ctx in &model.contexts {
            for query in ctx.deriving.iter().chain(ctx.processing.iter()) {
                // Contexts listed on the query (defaulting to the
                // enclosing context) each get a compiled instance.
                let contexts: Vec<String> = if query.contexts.is_empty() {
                    vec![ctx.name.clone()]
                } else {
                    query.contexts.clone()
                };
                for context in contexts {
                    let mut q = query.clone();
                    q.contexts = vec![context.clone()];
                    queries.push(CompiledQuery {
                        id: QueryId(next_id),
                        query: q,
                        context,
                        source,
                    });
                    next_id += 1;
                }
                source += 1;
            }
        }
        Ok(Self {
            name: model.name.clone(),
            default_context: model.default_context.clone(),
            context_names,
            queries,
        })
    }

    /// Index of a context in bit-vector (alphabetical) order.
    #[must_use]
    pub fn context_bit(&self, name: &str) -> Option<usize> {
        self.context_names
            .binary_search_by(|c| c.as_str().cmp(name))
            .ok()
    }

    /// All compiled queries belonging to one context.
    pub fn queries_in_context<'a>(
        &'a self,
        context: &'a str,
    ) -> impl Iterator<Item = &'a CompiledQuery> {
        self.queries.iter().filter(move |q| q.context == context)
    }

    /// All compiled context-deriving queries.
    pub fn deriving_queries(&self) -> impl Iterator<Item = &CompiledQuery> {
        self.queries.iter().filter(|q| q.is_deriving())
    }

    /// All compiled context-processing queries.
    pub fn processing_queries(&self) -> impl Iterator<Item = &CompiledQuery> {
        self.queries.iter().filter(|q| !q.is_deriving())
    }

    /// Looks up a compiled query by id.
    #[must_use]
    pub fn query(&self, id: QueryId) -> Option<&CompiledQuery> {
        self.queries.get(id.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_model;

    fn model() -> CaesarModel {
        parse_model(
            r#"
            MODEL traffic DEFAULT clear
            CONTEXT clear {
                SWITCH CONTEXT congestion PATTERN ManySlowCars
                INITIATE CONTEXT accident PATTERN StoppedCars CONTEXT clear, congestion
            }
            CONTEXT congestion {
                DERIVE TollNotification(p.vid, p.sec, 5) PATTERN NewTravelingCar p
                SWITCH CONTEXT clear PATTERN FewFastCars
            }
            CONTEXT accident {
                TERMINATE CONTEXT accident PATTERN StoppedCarsRemoved
            }
        "#,
        )
        .unwrap()
    }

    #[test]
    fn every_compiled_query_has_exactly_one_context() {
        let qs = QuerySet::from_model(&model()).unwrap();
        for q in &qs.queries {
            assert_eq!(q.query.contexts.len(), 1);
            assert_eq!(q.query.contexts[0], q.context);
        }
    }

    #[test]
    fn multi_context_query_expands_to_instances_sharing_source() {
        let qs = QuerySet::from_model(&model()).unwrap();
        // Accident detection appears in clear AND congestion.
        let instances: Vec<_> = qs
            .queries
            .iter()
            .filter(|q| {
                q.query
                    .action
                    .as_ref()
                    .is_some_and(|a| a.target() == "accident" && a.keyword() == "INITIATE")
            })
            .collect();
        assert_eq!(instances.len(), 2);
        assert_eq!(instances[0].source, instances[1].source);
        let ctxs: Vec<_> = instances.iter().map(|q| q.context.as_str()).collect();
        assert!(ctxs.contains(&"clear"));
        assert!(ctxs.contains(&"congestion"));
    }

    #[test]
    fn context_names_are_alphabetical() {
        let qs = QuerySet::from_model(&model()).unwrap();
        assert_eq!(qs.context_names, vec!["accident", "clear", "congestion"]);
        assert_eq!(qs.context_bit("accident"), Some(0));
        assert_eq!(qs.context_bit("congestion"), Some(2));
        assert_eq!(qs.context_bit("ghost"), None);
    }

    #[test]
    fn deriving_and_processing_partition() {
        let qs = QuerySet::from_model(&model()).unwrap();
        let total = qs.queries.len();
        let deriving = qs.deriving_queries().count();
        let processing = qs.processing_queries().count();
        assert_eq!(deriving + processing, total);
        assert_eq!(processing, 1); // only the toll query
    }

    #[test]
    fn queries_in_context_filters() {
        let qs = QuerySet::from_model(&model()).unwrap();
        let clear: Vec<_> = qs.queries_in_context("clear").collect();
        assert_eq!(clear.len(), 2); // switch + accident initiation instance
    }

    #[test]
    fn ids_are_dense_and_resolvable() {
        let qs = QuerySet::from_model(&model()).unwrap();
        for (i, q) in qs.queries.iter().enumerate() {
            assert_eq!(q.id.index(), i);
            assert_eq!(qs.query(q.id).unwrap().id, q.id);
        }
    }
}
