//! Canonical construction of a runnable CAESAR system for the Linear
//! Road workload — shared by examples, integration tests and the
//! benchmark harness.

use crate::model::lr_model;
use caesar_core::prelude::*;
use caesar_core::CaesarBuilder;

/// Registers all Linear Road input schemas on a [`CaesarBuilder`].
#[must_use]
pub fn with_lr_schemas(builder: CaesarBuilder) -> CaesarBuilder {
    let seg_attrs: &[(&str, AttrType)] = &[
        ("xway", AttrType::Int),
        ("dir", AttrType::Int),
        ("seg", AttrType::Int),
        ("sec", AttrType::Int),
    ];
    builder
        .schema(
            "PositionReport",
            &[
                ("vid", AttrType::Int),
                ("sec", AttrType::Int),
                ("speed", AttrType::Int),
                ("xway", AttrType::Int),
                ("lane", AttrType::Str),
                ("dir", AttrType::Int),
                ("seg", AttrType::Int),
                ("pos", AttrType::Int),
            ],
        )
        .schema("ManySlowCars", seg_attrs)
        .schema("FewFastCars", seg_attrs)
        .schema("StoppedCars", seg_attrs)
        .schema("StoppedCarsRemoved", seg_attrs)
}

/// Builds the Linear Road system with the given workload replication,
/// optimizer configuration and engine configuration.
///
/// # Panics
/// Never for valid configurations — the generated model is checked by
/// the crate's own tests.
#[must_use]
pub fn build_lr_system(
    replication: usize,
    optimizer_config: OptimizerConfig,
    engine_config: EngineConfig,
) -> CaesarSystem {
    with_lr_schemas(Caesar::builder())
        .model(lr_model(replication))
        .within(60)
        .optimizer_config(optimizer_config)
        .engine_config(engine_config)
        .build()
        .expect("linear road model builds")
}

/// [`build_lr_system`] with the §7.3.1 workload shape: one copy of the
/// default-context queries, `critical_replication` copies in the
/// critical (congestion / accident) contexts — the suspendable load.
#[must_use]
pub fn build_lr_system_critical(
    critical_replication: usize,
    optimizer_config: OptimizerConfig,
    engine_config: EngineConfig,
) -> CaesarSystem {
    with_lr_schemas(Caesar::builder())
        .model(crate::model::lr_model_weighted(
            1,
            critical_replication,
            critical_replication,
        ))
        .within(60)
        .optimizer_config(optimizer_config)
        .engine_config(engine_config)
        .build()
        .expect("linear road model builds")
}

/// The context-aware CAESAR configuration of §7.
#[must_use]
pub fn caesar_system(replication: usize) -> CaesarSystem {
    build_lr_system(
        replication,
        OptimizerConfig::default(),
        EngineConfig::default(),
    )
}

/// The context-independent baseline of §7 (state of the art \[34, 5\]):
/// every plan always active, per-query re-derivation.
#[must_use]
pub fn baseline_system(replication: usize) -> CaesarSystem {
    build_lr_system(
        replication,
        OptimizerConfig::default(),
        EngineConfig::builder()
            .mode(ExecutionMode::ContextIndependent)
            .sharing(false)
            .build(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{LinearRoadConfig, TrafficSim};
    use crate::validate::expected_outputs;

    #[test]
    fn canonical_builders_agree_with_oracle() {
        let mut sim = TrafficSim::new(LinearRoadConfig {
            segments_per_road: 3,
            duration: 400,
            ..Default::default()
        });
        let events = sim.generate();
        let oracle = expected_outputs(&events, sim.registry());
        for mut system in [caesar_system(1), baseline_system(1)] {
            let report = system.run_stream(events.clone()).unwrap();
            assert_eq!(report.outputs_of("TollNotification"), oracle.real_tolls);
            assert_eq!(report.outputs_of("ZeroToll"), oracle.zero_tolls);
        }
    }
}
