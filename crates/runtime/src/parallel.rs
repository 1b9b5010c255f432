//! Parallel execution across stream partitions.
//!
//! Context state, pattern state and stream transactions are all
//! partition-scoped ("one transaction per road segment", §6.2), so
//! partitions are embarrassingly parallel: the distributor shards the
//! input stream by partition id onto worker threads, each running an
//! independent [`Engine`] over its partition subset. Results are the
//! disjoint union of the shards' outputs.

use crate::engine::{Engine, EngineConfig, RunReport};
use caesar_events::{Event, EventError, EventStream, OutputRecord, SchemaRegistry};
use caesar_optimizer::optimizer::OptimizedProgram;
use crossbeam::channel;

/// Events per run on a shard channel.
const RUN_EVENTS: usize = 256;

/// Runs a shard channel buffers before the distributor blocks.
const CHANNEL_RUNS: usize = 64;

/// Runs a stream through `shards` independent engines, sharding by
/// partition id. Returns the merged report.
///
/// # Errors
/// Returns the first ingestion error any shard hits (out-of-order
/// events within a shard). If a shard dies mid-stream the distributor
/// keeps draining the input and the error reports how many events were
/// never delivered ([`EventError::ShardsAborted`]).
pub fn run_sharded(
    program: &OptimizedProgram,
    registry: &SchemaRegistry,
    config: EngineConfig,
    shards: usize,
    stream: &mut dyn EventStream,
) -> Result<RunReport, EventError> {
    run_sharded_with_outputs(program, registry, config, shards, stream).map(|(report, _)| report)
}

/// [`run_sharded`], additionally returning every collected output event
/// (requires `collect_outputs` in the config to be meaningful).
///
/// Outputs are concatenated shard by shard (shard 0 first). Partitions
/// are disjoint across shards, and within a shard the order is the
/// engine's deterministic execution order — so for a fixed shard count
/// the concatenation is deterministic, which is what the differential
/// tests compare byte-for-byte.
pub fn run_sharded_with_outputs(
    program: &OptimizedProgram,
    registry: &SchemaRegistry,
    config: EngineConfig,
    shards: usize,
    stream: &mut dyn EventStream,
) -> Result<(RunReport, Vec<Event>), EventError> {
    run_sharded_full(program, registry, config, shards, stream)
        .map(|(report, outputs, _)| (report, outputs))
}

/// [`run_sharded_with_outputs`], additionally returning every collected
/// speculative output record — empty unless the config's consistency is
/// [`Consistency`](crate::engine::Consistency)`::Speculative`. Records,
/// like outputs, are concatenated shard by shard, so applying each
/// retraction against the emissions *of its own shard* is well-defined.
pub fn run_sharded_full(
    program: &OptimizedProgram,
    registry: &SchemaRegistry,
    config: EngineConfig,
    shards: usize,
    stream: &mut dyn EventStream,
) -> Result<(RunReport, Vec<Event>, Vec<OutputRecord>), EventError> {
    assert!(shards >= 1, "at least one shard");
    type ShardResult = Result<(RunReport, Vec<Event>, Vec<OutputRecord>), EventError>;
    let (results, undelivered): (Vec<ShardResult>, u64) = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            // Shard channels carry runs of up to `RUN_EVENTS` events:
            // one send/recv per run instead of per event.
            let (tx, rx) = channel::bounded::<Vec<Event>>(CHANNEL_RUNS);
            senders.push(tx);
            let program = program.clone();
            handles.push(scope.spawn(move || -> ShardResult {
                let mut engine = Engine::new(program, registry, config);
                for event in rx.into_iter().flatten() {
                    engine.ingest(event)?;
                }
                let report = engine.finish();
                let outputs = std::mem::take(&mut engine.collected_outputs);
                let records = std::mem::take(&mut engine.collected_records);
                Ok((report, outputs, records))
            }));
        }

        // Distribute: each shard's subsequence of the stream is still
        // time-ordered, cut into runs. A failed send means the worker
        // died: mark the shard dead and keep draining the stream so the
        // caller learns how many events went undelivered, instead of
        // silently stopping at the first casualty.
        let mut pending: Vec<Vec<Event>> = vec![Vec::new(); shards];
        let mut dead = vec![false; shards];
        let mut undelivered = 0u64;
        let mut send = |shard: usize, run: Vec<Event>, dead: &mut [bool]| {
            let n = run.len() as u64;
            if dead[shard] {
                undelivered += n;
            } else if senders[shard].send(run).is_err() {
                dead[shard] = true;
                undelivered += n;
            }
        };
        while let Some(event) = stream.next_event() {
            let shard = event.partition.shard(shards);
            pending[shard].push(event);
            if pending[shard].len() >= RUN_EVENTS {
                let run = std::mem::replace(&mut pending[shard], Vec::with_capacity(RUN_EVENTS));
                send(shard, run, &mut dead);
            }
        }
        for (shard, run) in pending.into_iter().enumerate() {
            if !run.is_empty() {
                send(shard, run, &mut dead);
            }
        }
        drop(senders);
        let results = handles
            .into_iter()
            .map(|h| h.join().expect("shard thread panicked"))
            .collect();
        (results, undelivered)
    });

    let mut reports = Vec::with_capacity(shards);
    let mut outputs = Vec::new();
    let mut records = Vec::new();
    let mut first_error: Option<EventError> = None;
    for result in results {
        match result {
            Ok((report, mut out, mut recs)) => {
                reports.push(report);
                outputs.append(&mut out);
                records.append(&mut recs);
            }
            Err(e) => {
                if first_error.is_none() {
                    first_error = Some(e);
                }
            }
        }
    }
    if undelivered > 0 {
        let cause = first_error.map_or_else(|| "shard exited early".to_string(), |e| e.to_string());
        return Err(EventError::ShardsAborted {
            unprocessed: undelivered,
            cause,
        });
    }
    if let Some(e) = first_error {
        return Err(e);
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
    use caesar_events::{AttrType, PartitionId, Schema, Value, VecStream};
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

    #[test]
    fn sharded_outputs_equal_single_threaded() {
        let (program, reg) = setup();
        let stream_events = events(&reg, 8);

        let mut single = Engine::new(program.clone(), &reg, EngineConfig::default());
        let single_report = single
            .run_stream(&mut VecStream::new(stream_events.clone()))
            .unwrap();

        for shards in [1usize, 2, 4] {
            let report = run_sharded(
                &program,
                &reg,
                EngineConfig::default(),
                shards,
                &mut VecStream::new(stream_events.clone()),
            )
            .unwrap();
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
    fn dead_shard_drains_stream_and_reports_unprocessed() {
        // A worker that hits an ingestion error dies mid-stream. The
        // distributor must keep draining the input and surface how many
        // events never reached a shard — the old behaviour was to stop
        // distributing entirely (starving healthy shards) and return the
        // bare worker error with no loss accounting.
        struct Raw(std::vec::IntoIter<Event>);
        impl EventStream for Raw {
            fn next_event(&mut self) -> Option<Event> {
                self.0.next()
            }
        }
        let (program, reg) = setup();
        let r = reg.lookup("R").unwrap();
        let mk = |t: u64, p: u32| Event::simple(r, t, PartitionId(p), vec![Value::Int(1)]);
        // Shard 0 poison: out of order. Then more follow-up traffic for
        // shard 0 than its channel buffers (`CHANNEL_RUNS` runs of
        // `RUN_EVENTS`), so a send must fail after the worker died.
        let mut events = vec![mk(10, 0), mk(5, 0)];
        let end = 11 + (CHANNEL_RUNS * RUN_EVENTS) as u64 * 2;
        for t in 11..end {
            events.push(mk(t, 0));
        }
        events.push(mk(end, 1)); // shard 1 stays healthy
        let err = run_sharded(
            &program,
            &reg,
            EngineConfig::default(),
            2,
            &mut Raw(events.into_iter()),
        )
        .unwrap_err();
        match err {
            EventError::ShardsAborted { unprocessed, cause } => {
                assert!(unprocessed > 0, "drained events must be counted");
                assert!(
                    cause.contains("out-of-order") || cause.contains("order"),
                    "cause carries the worker error: {cause}"
                );
            }
            other => panic!("expected ShardsAborted, got {other:?}"),
        }
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
        let report = run_sharded(
            &program,
            &reg,
            EngineConfig::default(),
            3,
            &mut VecStream::new(vec![]),
        )
        .unwrap();
        assert_eq!(report.events_in, 0);
    }
}
