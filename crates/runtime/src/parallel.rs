//! Parallel execution across stream partitions.
//!
//! Context state, pattern state and stream transactions are all
//! partition-scoped ("one transaction per road segment", §6.2), so
//! partitions are embarrassingly parallel: a sharded run moves each
//! event of a time-ordered `Vec<Event>` into its shard's partition
//! subset ([`PartitionId::shard`](caesar_events::PartitionId::shard))
//! and runs one independent [`Engine`] over each subset on a scoped
//! thread. Results are the disjoint union of the shards' outputs.

use crate::engine::{Engine, EngineConfig, RunReport};
use caesar_events::{Event, EventError, OutputRecord, SchemaRegistry};
use caesar_optimizer::optimizer::OptimizedProgram;

/// Runs a time-ordered stream through `shards` independent engines,
/// one thread each, sharding by partition id. Returns the merged report
/// ([`merge_reports`]), every collected output event (with
/// `collect_outputs` set in the config) and every speculative output
/// record (under [`Consistency`](crate::engine::Consistency)`::Speculative`).
///
/// Outputs and records are concatenated shard by shard (shard 0
/// first). Partitions are disjoint across shards, and within a shard
/// the order is the engine's deterministic execution order — so for a
/// fixed shard count the concatenation is deterministic, which is what
/// the differential tests compare byte for byte, and each retraction
/// applies against the emissions of its own shard.
///
/// # Errors
/// [`EventError::OutOfOrder`] for the first time inversion in
/// `events`, before any shard runs. A shard's input is a subsequence of
/// an ordered stream, and order is all `ingest` checks, so no shard can
/// fail partway.
pub fn run_sharded(
    program: &OptimizedProgram,
    registry: &SchemaRegistry,
    config: EngineConfig,
    shards: usize,
    events: Vec<Event>,
) -> Result<(RunReport, Vec<Event>, Vec<OutputRecord>), EventError> {
    assert!(shards >= 1, "at least one shard");
    if let Some(w) = events.windows(2).find(|w| w[1].time() < w[0].time()) {
        return Err(EventError::OutOfOrder {
            watermark: w[0].time(),
            timestamp: w[1].time(),
        });
    }
    let mut subsets: Vec<Vec<Event>> = (0..shards)
        .map(|_| Vec::with_capacity(events.len() / shards))
        .collect();
    for event in events {
        subsets[event.partition.shard(shards)].push(event);
    }
    let results = std::thread::scope(|scope| {
        let handles: Vec<_> = subsets
            .into_iter()
            .map(|subset| {
                let program = program.clone();
                scope.spawn(move || {
                    let mut engine = Engine::new(program, registry, config);
                    let report = engine.run_stream(subset)?;
                    let outputs = std::mem::take(&mut engine.collected_outputs);
                    let records = std::mem::take(&mut engine.collected_records);
                    Ok::<_, EventError>((report, outputs, records))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect::<Vec<_>>()
    });

    let mut reports = Vec::with_capacity(shards);
    let mut outputs = Vec::new();
    let mut records = Vec::new();
    for result in results {
        let (report, mut out, mut recs) = result?;
        reports.push(report);
        outputs.append(&mut out);
        records.append(&mut recs);
    }
    Ok((merge_reports(reports), outputs, records))
}

/// Merges per-shard reports: counters sum, peak partials by maximum.
/// Metrics snapshots merge element-wise (counters and histograms sum,
/// gauges take the maximum).
#[must_use]
pub fn merge_reports(reports: Vec<RunReport>) -> RunReport {
    let mut merged = RunReport::default();
    for r in reports {
        merged.metrics.merge(&r.metrics);
        merged.events_in += r.events_in;
        merged.events_out += r.events_out;
        merged.transitions_applied += r.transitions_applied;
        merged.plans_fed += r.plans_fed;
        merged.plans_suspended += r.plans_suspended;
        merged.peak_partials = merged.peak_partials.max(r.peak_partials);
        for (ty, n) in r.outputs_by_type {
            *merged.outputs_by_type.entry(ty).or_insert(0) += n;
        }
    }
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use caesar_algebra::translate::{translate_query_set, TranslateOptions};
    use caesar_events::{encode_to_vec, AttrType, PartitionId, Schema, Value};
    use caesar_optimizer::Optimizer;
    use caesar_query::parser::parse_model;
    use caesar_query::queryset::QuerySet;

    fn setup() -> (OptimizedProgram, SchemaRegistry) {
        let model = parse_model(
            r#"
            MODEL m DEFAULT idle
            CONTEXT idle {
                SWITCH CONTEXT busy PATTERN Enter
            }
            CONTEXT busy {
                SWITCH CONTEXT idle PATTERN Leave
                DERIVE Out(r.v) PATTERN R r WHERE r.v > 2
            }
        "#,
        )
        .unwrap();
        let qs = QuerySet::from_model(&model).unwrap();
        let mut reg = SchemaRegistry::new();
        reg.register(Schema::new("R", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Enter", &[("v", AttrType::Int)]))
            .unwrap();
        reg.register(Schema::new("Leave", &[("v", AttrType::Int)]))
            .unwrap();
        let t = translate_query_set(&qs, &mut reg, &TranslateOptions::default()).unwrap();
        (Optimizer::default().optimize(t, &reg), reg)
    }

    fn events(reg: &SchemaRegistry, partitions: u32) -> Vec<Event> {
        let r = reg.lookup("R").unwrap();
        let enter = reg.lookup("Enter").unwrap();
        let mut out = Vec::new();
        for t in 0..200u64 {
            let p = PartitionId(t as u32 % partitions);
            if t % 50 == 10 {
                out.push(Event::simple(enter, t, p, vec![Value::Int(0)]));
            }
            out.push(Event::simple(r, t, p, vec![Value::Int((t % 7) as i64)]));
        }
        out
    }

    fn sorted_encodings(outputs: &[Event]) -> Vec<Vec<u8>> {
        let mut encoded: Vec<_> = outputs.iter().map(encode_to_vec).collect();
        encoded.sort_unstable();
        encoded
    }

    #[test]
    fn sharded_outputs_equal_single_threaded() {
        let (program, reg) = setup();
        let stream_events = events(&reg, 8);
        let config = EngineConfig {
            collect_outputs: true,
            ..EngineConfig::default()
        };

        let mut single = Engine::new(program.clone(), &reg, config);
        let single_report = single.run_stream(stream_events.clone()).unwrap();
        let single_outputs = sorted_encodings(&single.collected_outputs);
        assert!(!single_outputs.is_empty());

        for shards in [1usize, 2, 4] {
            let (report, outputs, _) =
                run_sharded(&program, &reg, config, shards, stream_events.clone()).unwrap();
            assert_eq!(
                sorted_encodings(&outputs),
                single_outputs,
                "{shards} shards"
            );
            assert_eq!(
                report.outputs_of("Out"),
                single_report.outputs_of("Out"),
                "{shards} shards"
            );
            assert_eq!(report.events_in, single_report.events_in);
            assert_eq!(
                report.transitions_applied,
                single_report.transitions_applied
            );
        }
    }

    #[test]
    fn unordered_input_is_refused_before_any_shard_runs() {
        // Each shard's own subsequence is in order (one event each), so
        // only the check of the whole input can see the inversion.
        let (program, reg) = setup();
        let r = reg.lookup("R").unwrap();
        let p = PartitionId(0);
        let q = (1..)
            .map(PartitionId)
            .find(|q| q.shard(2) != p.shard(2))
            .unwrap();
        let stream = vec![
            Event::simple(r, 10, p, vec![Value::Int(5)]),
            Event::simple(r, 5, q, vec![Value::Int(5)]),
        ];
        let err = run_sharded(&program, &reg, EngineConfig::default(), 2, stream).unwrap_err();
        assert!(
            matches!(
                err,
                EventError::OutOfOrder {
                    watermark: 10,
                    timestamp: 5
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn merge_reports_sums_and_maxes() {
        let mut a = RunReport {
            events_in: 10,
            peak_partials: 5,
            ..RunReport::default()
        };
        a.outputs_by_type.insert("X".into(), 3);
        let mut b = RunReport {
            events_in: 5,
            peak_partials: 9,
            ..RunReport::default()
        };
        b.outputs_by_type.insert("X".into(), 4);
        let merged = merge_reports(vec![a, b]);
        assert_eq!(merged.events_in, 15);
        assert_eq!(merged.peak_partials, 9);
        assert_eq!(merged.outputs_by_type.get("X"), Some(&7));
    }

    #[test]
    fn empty_stream_is_fine() {
        let (program, reg) = setup();
        let (report, outputs, records) =
            run_sharded(&program, &reg, EngineConfig::default(), 3, vec![]).unwrap();
        assert_eq!(report.events_in, 0);
        assert!(outputs.is_empty() && records.is_empty());
    }
}
