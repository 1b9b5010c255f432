//! CAESAR — Context-Aware Event Stream Analytics in Real time.
//!
//! This crate is the public facade of the CAESAR reproduction (Poppe,
//! Lei, Rundensteiner, Dougherty — EDBT 2016): specify a context-aware
//! application model, let the optimizer push context windows down and
//! share overlapping workloads, and run event streams through the
//! runtime.
//!
//! ```
//! use caesar_core::prelude::*;
//!
//! let mut system = Caesar::builder()
//!     .schema("PositionReport", &[
//!         ("vid", AttrType::Int),
//!         ("sec", AttrType::Int),
//!         ("lane", AttrType::Str),
//!     ])
//!     .schema("ManySlowCars", &[("seg", AttrType::Int)])
//!     .schema("FewFastCars", &[("seg", AttrType::Int)])
//!     .model_text(r#"
//!         MODEL traffic DEFAULT clear
//!         CONTEXT clear {
//!             SWITCH CONTEXT congestion PATTERN ManySlowCars
//!         }
//!         CONTEXT congestion {
//!             SWITCH CONTEXT clear PATTERN FewFastCars
//!             DERIVE TollNotification(p.vid, p.sec, 5)
//!                 PATTERN PositionReport p
//!                 WHERE p.lane != "exit"
//!         }
//!     "#)
//!     .build()
//!     .unwrap();
//!
//! // Drive the stream: congestion starts at t=5, a car reports at t=6.
//! let congested = system.event("ManySlowCars", 5).unwrap()
//!     .attr("seg", 1).unwrap().build().unwrap();
//! let car = system.event("PositionReport", 6).unwrap()
//!     .attr("vid", 42).unwrap()
//!     .attr("sec", 6).unwrap()
//!     .attr("lane", "travel").unwrap()
//!     .build().unwrap();
//! system.ingest(congested).unwrap();
//! system.ingest(car).unwrap();
//! let report = system.finish();
//! assert_eq!(report.outputs_of("TollNotification"), 1);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

use caesar_algebra::translate::{translate_query_set, TranslateError, TranslateOptions};
use caesar_events::{
    AttrType, EventBuilder, EventError, EventStream, Schema, SchemaRegistry, Time,
};
use caesar_optimizer::{Optimizer, OptimizerConfig};
use caesar_query::{parse_model, CaesarModel, QueryError};
use caesar_runtime::{Engine, EngineConfig, RunReport};
use std::fmt;

/// Convenience re-exports for users of the facade.
pub mod prelude {
    pub use crate::{Caesar, CaesarBuilder, CaesarError, CaesarSystem};
    pub use caesar_events::{
        AttrType, Event, EventBuilder, EventStream, Interval, PartitionId, Schema, SchemaRegistry,
        Time, Value, VecStream,
    };
    pub use caesar_optimizer::OptimizerConfig;
    pub use caesar_query::{CaesarModel, ModelBuilder};
    pub use caesar_runtime::{
        Consistency, EngineConfig, EngineConfigBuilder, ExecutionMode, MetricsSnapshot,
        ObservabilityLevel, RunReport,
    };
}

pub use caesar_algebra as algebra;
pub use caesar_events as events;
pub use caesar_optimizer as optimizer;
pub use caesar_query as query;
pub use caesar_runtime as runtime;

/// Unified error of the facade.
#[derive(Debug)]
pub enum CaesarError {
    /// Specification-layer error (parsing, validation).
    Query(QueryError),
    /// Translation-layer error.
    Translate(TranslateError),
    /// Event-model error.
    Event(EventError),
    /// Builder misuse (e.g. missing model).
    Builder(String),
}

impl fmt::Display for CaesarError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CaesarError::Query(e) => write!(f, "query error: {e}"),
            CaesarError::Translate(e) => write!(f, "translation error: {e}"),
            CaesarError::Event(e) => write!(f, "event error: {e}"),
            CaesarError::Builder(m) => write!(f, "builder error: {m}"),
        }
    }
}

impl std::error::Error for CaesarError {}

impl From<QueryError> for CaesarError {
    fn from(e: QueryError) -> Self {
        CaesarError::Query(e)
    }
}

impl From<TranslateError> for CaesarError {
    fn from(e: TranslateError) -> Self {
        CaesarError::Translate(e)
    }
}

impl From<EventError> for CaesarError {
    fn from(e: EventError) -> Self {
        CaesarError::Event(e)
    }
}

/// Entry point: `Caesar::builder()`.
pub struct Caesar;

impl Caesar {
    /// Starts building a CAESAR system.
    #[must_use]
    pub fn builder() -> CaesarBuilder {
        CaesarBuilder::new()
    }
}

/// Fluent builder assembling model, schemas and configuration into a
/// runnable [`CaesarSystem`].
pub struct CaesarBuilder {
    model: Option<CaesarModel>,
    registry: SchemaRegistry,
    optimizer_config: OptimizerConfig,
    engine_config: EngineConfig,
    translate_options: TranslateOptions,
    errors: Vec<CaesarError>,
}

impl Default for CaesarBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl CaesarBuilder {
    /// Creates a builder with default configuration.
    #[must_use]
    pub fn new() -> Self {
        Self {
            model: None,
            registry: SchemaRegistry::new(),
            optimizer_config: OptimizerConfig::default(),
            engine_config: EngineConfig::default(),
            translate_options: TranslateOptions::default(),
            errors: Vec::new(),
        }
    }

    /// Registers an input event type.
    #[must_use]
    pub fn schema(mut self, name: &str, attrs: &[(&str, AttrType)]) -> Self {
        if let Err(e) = self.registry.register(Schema::new(name, attrs)) {
            self.errors.push(e.into());
        }
        self
    }

    /// Sets the model from its textual `MODEL` block.
    #[must_use]
    pub fn model_text(mut self, text: &str) -> Self {
        match parse_model(text) {
            Ok(m) => self.model = Some(m),
            Err(e) => self.errors.push(e.into()),
        }
        self
    }

    /// Sets the model directly (e.g. from
    /// [`ModelBuilder`](caesar_query::ModelBuilder)).
    #[must_use]
    pub fn model(mut self, model: CaesarModel) -> Self {
        self.model = Some(model);
        self
    }

    /// Overrides the optimizer configuration.
    #[must_use]
    pub fn optimizer_config(mut self, config: OptimizerConfig) -> Self {
        self.optimizer_config = config;
        self
    }

    /// Overrides the engine configuration.
    #[must_use]
    pub fn engine_config(mut self, config: EngineConfig) -> Self {
        self.engine_config = config;
        self
    }

    /// Sets the pattern `within` horizon (sequence span bound and
    /// negation buffer horizon) in application ticks.
    #[must_use]
    pub fn within(mut self, ticks: Time) -> Self {
        self.translate_options.default_within = ticks;
        self
    }

    /// Builds the system: Phase 1 + Phase 2 translation, optimization,
    /// engine construction.
    pub fn build(self) -> Result<CaesarSystem, CaesarError> {
        let engine_config = self.engine_config;
        let (program, registry, explain) = self.build_program()?;
        let engine = Engine::new(program, &registry, engine_config);
        Ok(CaesarSystem {
            engine,
            registry,
            explain,
        })
    }

    /// Builds just the optimized program (translation + optimization)
    /// without constructing an engine, returning the program, the
    /// post-translation registry (inputs plus derived/match types) and
    /// the optimizer's explain report.
    ///
    /// This is the entry point for hosts that instantiate *several*
    /// engines from one model — e.g. `caesar-server`, which builds one
    /// engine per shard of a tenant's partition-hash-sharded runtime.
    pub fn build_program(
        mut self,
    ) -> Result<(caesar_optimizer::OptimizedProgram, SchemaRegistry, String), CaesarError> {
        if let Some(e) = self.errors.pop() {
            return Err(e);
        }
        let model = self
            .model
            .take()
            .ok_or_else(|| CaesarError::Builder("no model supplied".into()))?;
        let query_set = caesar_query::QuerySet::from_model(&model)?;
        let translation =
            translate_query_set(&query_set, &mut self.registry, &self.translate_options)?;
        let optimizer = Optimizer::new(self.optimizer_config, Default::default());
        let program = optimizer.optimize(translation, &self.registry);
        let explain = program.explain();
        Ok((program, self.registry, explain))
    }
}

/// A built, runnable CAESAR system.
#[derive(Debug)]
pub struct CaesarSystem {
    /// The execution engine.
    pub engine: Engine,
    /// The schema registry (inputs + derived + match types).
    pub registry: SchemaRegistry,
    /// The optimizer's explain report captured at build time.
    pub explain: String,
}

impl CaesarSystem {
    /// Starts building an event of a registered type at time `t`.
    pub fn event(&self, type_name: &str, t: Time) -> Result<EventBuilder<'_>, CaesarError> {
        Ok(EventBuilder::new(&self.registry, type_name, t)?)
    }

    /// Ingests one event.
    pub fn ingest(&mut self, event: caesar_events::Event) -> Result<(), CaesarError> {
        Ok(self.engine.ingest(event)?)
    }

    /// Runs a whole stream.
    pub fn run_stream(&mut self, stream: &mut dyn EventStream) -> Result<RunReport, CaesarError> {
        Ok(self.engine.run_stream(stream)?)
    }

    /// Finishes the run and returns the report.
    pub fn finish(&mut self) -> RunReport {
        self.engine.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_events::Value;

    fn traffic_builder() -> CaesarBuilder {
        Caesar::builder()
            .schema(
                "PositionReport",
                &[
                    ("vid", AttrType::Int),
                    ("sec", AttrType::Int),
                    ("lane", AttrType::Str),
                ],
            )
            .schema("ManySlowCars", &[("seg", AttrType::Int)])
            .schema("FewFastCars", &[("seg", AttrType::Int)])
            .model_text(
                r#"
                MODEL traffic DEFAULT clear
                CONTEXT clear {
                    SWITCH CONTEXT congestion PATTERN ManySlowCars
                }
                CONTEXT congestion {
                    SWITCH CONTEXT clear PATTERN FewFastCars
                    DERIVE TollNotification(p.vid, p.sec, 5)
                        PATTERN PositionReport p WHERE p.lane != "exit"
                }
            "#,
            )
    }

    #[test]
    fn end_to_end_builder_flow() {
        let mut system = traffic_builder().build().unwrap();
        assert!(system.explain.contains("estimated cost"));
        let switch = system
            .event("ManySlowCars", 5)
            .unwrap()
            .attr("seg", 1)
            .unwrap()
            .build()
            .unwrap();
        let car = system
            .event("PositionReport", 6)
            .unwrap()
            .attr("vid", 42)
            .unwrap()
            .attr("sec", 6)
            .unwrap()
            .attr("lane", "travel")
            .unwrap()
            .build()
            .unwrap();
        system.ingest(switch).unwrap();
        system.ingest(car).unwrap();
        let report = system.finish();
        assert_eq!(report.outputs_of("TollNotification"), 1);
        assert_eq!(report.events_in, 2);
    }

    #[test]
    fn missing_model_is_builder_error() {
        let err = Caesar::builder().build().unwrap_err();
        assert!(matches!(err, CaesarError::Builder(_)));
    }

    #[test]
    fn parse_errors_surface_at_build() {
        let err = Caesar::builder()
            .model_text("MODEL broken")
            .build()
            .unwrap_err();
        assert!(matches!(err, CaesarError::Query(_)));
    }

    #[test]
    fn unknown_event_type_at_event_building() {
        let system = traffic_builder().build().unwrap();
        assert!(system.event("Ghost", 0).is_err());
    }

    #[test]
    fn derived_types_are_queryable_from_registry() {
        let system = traffic_builder().build().unwrap();
        let toll = system.registry.schema_by_name("TollNotification").unwrap();
        assert_eq!(toll.arity(), 3);
        let v = Value::Int(1);
        let _ = v;
    }
}
