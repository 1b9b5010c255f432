//! Synthetic physical-activity-monitoring substrate.
//!
//! The paper's second evaluation data set is the PAMAP2 physical
//! activity monitoring set \[26\]: "physical activity reports from 14
//! people during 1 hour 15 minutes" (1.6 GB). The raw data is not
//! redistributable here, so this crate generates a synthetic equivalent
//! with the same structure: 14 subjects (one stream partition each),
//! sensor readings with heart-rate and accelerometer-magnitude
//! attributes, and per-subject activity schedules whose phase boundaries
//! surface as marker events. The CAESAR model mirrors the traffic model
//! shape: three contexts (*rest* — the default, *active*, *exercise*)
//! with context-specific analytics, and a replication knob for scaling
//! the query workload (§7.1 varies "the number of event queries" on
//! this data set).

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(deprecated)]

use caesar_events::generator::rng;
use caesar_events::{AttrType, Event, Interval, PartitionId, Schema, SchemaRegistry, Time, Value};
use caesar_query::parser::parse_model;
use caesar_query::CaesarModel;
use rand::Rng;
use std::fmt::Write;

/// Number of monitored subjects in PAMAP2.
pub const SUBJECTS: u32 = 14;

/// PAMAP2 covers 1 hour 15 minutes.
pub const DURATION_SECS: Time = 75 * 60;

/// Registers the input event schemas.
pub fn register_schemas(registry: &mut SchemaRegistry) {
    for schema in [
        Schema::new(
            "SensorReading",
            &[
                ("subject", AttrType::Int),
                ("sec", AttrType::Int),
                ("heart_rate", AttrType::Int),
                ("hand_acc", AttrType::Float),
                ("chest_acc", AttrType::Float),
            ],
        ),
        Schema::new(
            "ActivityStarted",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        ),
        Schema::new(
            "ActivityEnded",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        ),
        Schema::new(
            "ExerciseStarted",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        ),
        Schema::new(
            "ExerciseEnded",
            &[("subject", AttrType::Int), ("sec", AttrType::Int)],
        ),
    ] {
        registry
            .register(schema)
            .expect("PAM schemas are consistent");
    }
}

/// Builds the registry pre-loaded with the PAM input schemas.
#[must_use]
pub fn pam_registry() -> SchemaRegistry {
    let mut registry = SchemaRegistry::new();
    register_schemas(&mut registry);
    registry
}

/// Builds the PAM CAESAR model with `replication` copies of each
/// context-processing query.
#[must_use]
pub fn pam_model(replication: usize) -> CaesarModel {
    assert!(replication >= 1);
    let mut rest = String::new();
    let mut active = String::new();
    let mut exercise = String::new();
    for i in 0..replication {
        let sfx = if i == 0 {
            String::new()
        } else {
            format!("_{i}")
        };
        let _ = writeln!(
            rest,
            "DERIVE AbnormalRestingHeartRate{sfx}(r.subject, r.heart_rate, r.sec) \
             PATTERN SensorReading r WHERE r.heart_rate > 90"
        );
        let _ = writeln!(
            active,
            "DERIVE ActivityMinute{sfx}(r.subject, r.sec) \
             PATTERN SensorReading r WHERE r.hand_acc > 2.0"
        );
        let _ = writeln!(
            exercise,
            "DERIVE HighHeartRateAlert{sfx}(r.subject, r.heart_rate, r.sec) \
             PATTERN SensorReading r WHERE r.heart_rate > 180"
        );
        let _ = writeln!(
            exercise,
            "DERIVE RisingHeartRate{sfx}(a.heart_rate, b.heart_rate, b.sec) \
             PATTERN SEQ(SensorReading a, SensorReading b) \
             WHERE a.heart_rate + 15 < b.heart_rate"
        );
    }
    let text = format!(
        r#"
        MODEL pam DEFAULT rest
        CONTEXT rest {{
            SWITCH CONTEXT active PATTERN ActivityStarted
            {rest}
        }}
        CONTEXT active {{
            SWITCH CONTEXT rest PATTERN ActivityEnded
            SWITCH CONTEXT exercise PATTERN ExerciseStarted
            {active}
        }}
        CONTEXT exercise {{
            SWITCH CONTEXT active PATTERN ExerciseEnded
            {exercise}
        }}
        "#
    );
    parse_model(&text).expect("generated PAM model is valid")
}

/// Generator configuration.
#[derive(Debug, Clone)]
pub struct PamConfig {
    /// Number of subjects (stream partitions).
    pub subjects: u32,
    /// Duration in seconds.
    pub duration: Time,
    /// Seconds between readings per subject.
    pub reading_interval: Time,
    /// RNG seed.
    pub seed: u64,
}

impl Default for PamConfig {
    fn default() -> Self {
        Self {
            subjects: SUBJECTS,
            duration: DURATION_SECS,
            reading_interval: 5,
            seed: 11,
        }
    }
}

/// Per-subject ground-truth schedule.
#[derive(Debug, Clone, Default)]
pub struct SubjectSchedule {
    /// Activity (non-rest) windows.
    pub active: Vec<Interval>,
    /// Exercise windows (contained in activity windows).
    pub exercise: Vec<Interval>,
}

/// Generates the synthetic PAM stream; returns the events (time-sorted)
/// and per-subject schedules.
#[must_use]
pub fn generate(
    config: &PamConfig,
    registry: &SchemaRegistry,
) -> (Vec<Event>, Vec<SubjectSchedule>) {
    let reading = registry.lookup("SensorReading").expect("registered");
    let act_start = registry.lookup("ActivityStarted").expect("registered");
    let act_end = registry.lookup("ActivityEnded").expect("registered");
    let ex_start = registry.lookup("ExerciseStarted").expect("registered");
    let ex_end = registry.lookup("ExerciseEnded").expect("registered");

    let mut r = rng(config.seed);
    let mut events = Vec::new();
    let mut schedules = Vec::new();
    for subject in 0..config.subjects {
        let pid = PartitionId(subject);
        // Activity schedule: alternating rest / activity blocks; some
        // activity blocks contain an exercise core.
        let mut schedule = SubjectSchedule::default();
        let mut t: Time = r.gen_range(60..300);
        while t + 120 < config.duration {
            let act_len = r.gen_range(300..900).min(config.duration - t - 1);
            let act = Interval::new(t, t + act_len);
            schedule.active.push(act);
            if act_len > 240 && r.gen_bool(0.6) {
                let margin = act_len / 4;
                schedule
                    .exercise
                    .push(Interval::new(act.start + margin, act.end - margin));
            }
            t = act.end + r.gen_range(120..600);
        }
        let marker = |ty, t: Time, subject: u32| {
            Event::simple(
                ty,
                t,
                pid,
                vec![Value::Int(i64::from(subject)), Value::Int(t as i64)],
            )
        };
        for w in &schedule.active {
            events.push(marker(act_start, w.start, subject));
            events.push(marker(act_end, w.end, subject));
        }
        for w in &schedule.exercise {
            events.push(marker(ex_start, w.start, subject));
            events.push(marker(ex_end, w.end, subject));
        }
        // Sensor readings with phase-dependent heart rate.
        let mut t = r.gen_range(0..config.reading_interval.max(1));
        while t < config.duration {
            let in_exercise = schedule.exercise.iter().any(|w| w.contains(t));
            let in_activity = schedule.active.iter().any(|w| w.contains(t));
            let (hr, acc) = if in_exercise {
                (r.gen_range(140..195i64), r.gen_range(3.0..9.0f64))
            } else if in_activity {
                (r.gen_range(90..140i64), r.gen_range(1.5..5.0f64))
            } else {
                // Resting; occasional abnormal spikes.
                let hr = if r.gen_bool(0.05) {
                    r.gen_range(91..110i64)
                } else {
                    r.gen_range(55..88i64)
                };
                (hr, r.gen_range(0.0..1.0f64))
            };
            events.push(Event::simple(
                reading,
                t,
                pid,
                vec![
                    Value::Int(i64::from(subject)),
                    Value::Int(t as i64),
                    Value::Int(hr),
                    Value::Float(acc),
                    Value::Float(acc * 0.8),
                ],
            ));
            t += config.reading_interval;
        }
        schedules.push(schedule);
    }
    events.sort_by_key(Event::time);
    (events, schedules)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_shape_and_replication() {
        let model = pam_model(1);
        assert_eq!(model.default_context, "rest");
        assert_eq!(model.contexts.len(), 3);
        assert_eq!(model.context("exercise").unwrap().processing.len(), 2);
        let model5 = pam_model(5);
        assert_eq!(model5.context("exercise").unwrap().processing.len(), 10);
        assert_eq!(model5.context("rest").unwrap().processing.len(), 5);
    }

    #[test]
    fn generation_is_deterministic_and_sorted() {
        let reg = pam_registry();
        let config = PamConfig {
            duration: 600,
            ..Default::default()
        };
        let (a, _) = generate(&config, &reg);
        let (b, _) = generate(&config, &reg);
        assert_eq!(a, b);
        assert!(a.windows(2).all(|w| w[0].time() <= w[1].time()));
        assert!(!a.is_empty());
    }

    #[test]
    fn all_fourteen_subjects_report() {
        let reg = pam_registry();
        let (events, _) = generate(
            &PamConfig {
                duration: 1200,
                ..Default::default()
            },
            &reg,
        );
        let partitions: std::collections::BTreeSet<u32> =
            events.iter().map(|e| e.partition.0).collect();
        assert_eq!(partitions.len(), SUBJECTS as usize);
    }

    #[test]
    fn heart_rate_tracks_phase() {
        let reg = pam_registry();
        let config = PamConfig {
            subjects: 2,
            duration: 3000,
            ..Default::default()
        };
        let (events, _) = generate(&config, &reg);
        let ex_start = reg.lookup("ExerciseStarted").unwrap();
        let reading = reg.lookup("SensorReading").unwrap();
        // Find an exercise window and check readings inside it are fast.
        let Some(start) = events.iter().find(|e| e.type_id == ex_start) else {
            return; // seed produced no exercise in the shortened run
        };
        let subject = start.partition;
        let t0 = start.time();
        let fast = events
            .iter()
            .filter(|e| {
                e.type_id == reading
                    && e.partition == subject
                    && e.time() > t0
                    && e.time() <= t0 + 60
            })
            .all(|e| e.attrs[2].as_int().unwrap() >= 140);
        assert!(fast, "readings inside exercise must be ≥ 140 bpm");
    }

    #[test]
    fn model_translates_against_registry() {
        use caesar_core::prelude::*;
        let system = Caesar::builder()
            .model(pam_model(2))
            .schema(
                "SensorReading",
                &[
                    ("subject", AttrType::Int),
                    ("sec", AttrType::Int),
                    ("heart_rate", AttrType::Int),
                    ("hand_acc", AttrType::Float),
                    ("chest_acc", AttrType::Float),
                ],
            )
            .schema(
                "ActivityStarted",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ActivityEnded",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ExerciseStarted",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ExerciseEnded",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .build();
        assert!(system.is_ok(), "{:?}", system.err().map(|e| e.to_string()));
    }

    #[test]
    fn end_to_end_alerts_only_during_exercise() {
        use caesar_core::prelude::*;
        let reg = pam_registry();
        let config = PamConfig {
            subjects: 3,
            duration: 2400,
            ..Default::default()
        };
        let (events, schedules) = generate(&config, &reg);
        let mut system = Caesar::builder()
            .model(pam_model(1))
            .schema(
                "SensorReading",
                &[
                    ("subject", AttrType::Int),
                    ("sec", AttrType::Int),
                    ("heart_rate", AttrType::Int),
                    ("hand_acc", AttrType::Float),
                    ("chest_acc", AttrType::Float),
                ],
            )
            .schema(
                "ActivityStarted",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ActivityEnded",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ExerciseStarted",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .schema(
                "ExerciseEnded",
                &[("subject", AttrType::Int), ("sec", AttrType::Int)],
            )
            .build()
            .unwrap();
        let report = system.run_stream(events).unwrap();
        let has_exercise = schedules.iter().any(|s| !s.exercise.is_empty());
        if has_exercise {
            assert!(
                report.outputs_of("HighHeartRateAlert") > 0,
                "exercise windows exist but no alerts: {:?}",
                report.outputs_by_type
            );
        }
        // Resting alerts exist too (5% abnormal spikes).
        assert!(report.outputs_of("AbnormalRestingHeartRate") > 0);
    }
}
