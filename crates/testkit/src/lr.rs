//! Shared Linear Road test fixtures.
//!
//! Every integration test that drives the Linear Road workload used to
//! repeat the same five schema declarations and builder chain; this
//! module is the single copy. Tests layer their own optimizer / engine
//! configuration on top of [`lr_builder`] or grab a finished system via
//! [`lr_system`].

use caesar_core::prelude::*;
use caesar_linear_road::lr_model;

/// The `WITHIN` horizon (seconds) every Linear Road query uses.
pub const LR_WITHIN: Time = 60;

/// Attributes of the four segment-statistics event types
/// (`ManySlowCars`, `FewFastCars`, `StoppedCars`, `StoppedCarsRemoved`).
pub const SEG_ATTRS: &[(&str, AttrType)] = &[
    ("xway", AttrType::Int),
    ("dir", AttrType::Int),
    ("seg", AttrType::Int),
    ("sec", AttrType::Int),
];

/// Attributes of the `PositionReport` input type.
pub const POSITION_REPORT_ATTRS: &[(&str, AttrType)] = &[
    ("vid", AttrType::Int),
    ("sec", AttrType::Int),
    ("speed", AttrType::Int),
    ("xway", AttrType::Int),
    ("lane", AttrType::Str),
    ("dir", AttrType::Int),
    ("seg", AttrType::Int),
    ("pos", AttrType::Int),
];

/// A builder pre-loaded with the Linear Road model (optionally
/// workload-replicated), all five input schemas, and the standard
/// 60-second horizon. Callers chain `.optimizer_config(..)` /
/// `.engine_config(..)` and `.build()`.
#[must_use]
pub fn lr_builder(replication: usize) -> CaesarBuilder {
    Caesar::builder()
        .model(lr_model(replication))
        .schema("PositionReport", POSITION_REPORT_ATTRS)
        .schema("ManySlowCars", SEG_ATTRS)
        .schema("FewFastCars", SEG_ATTRS)
        .schema("StoppedCars", SEG_ATTRS)
        .schema("StoppedCarsRemoved", SEG_ATTRS)
        .within(LR_WITHIN)
}

/// The common Linear Road system: pick the execution mode, whether the
/// optimizer runs, and the engine's knobs via `engine`. `collect_outputs` etc. are whatever `engine` says — pass
/// `EngineConfig::builder().mode(mode).build()` for report-only runs.
#[must_use]
pub fn lr_system(optimized: bool, replication: usize, engine: EngineConfig) -> CaesarSystem {
    lr_builder(replication)
        .optimizer_config(if optimized {
            OptimizerConfig::default()
        } else {
            OptimizerConfig::unoptimized()
        })
        .engine_config(engine)
        .build()
        .expect("LR model builds")
}
