//! Parallel execution across stream partitions.
//!
//! Context state, pattern state and stream transactions are all
//! partition-scoped ("one transaction per road segment", §6.2), so
//! partitions are embarrassingly parallel: the distributor shards the
//! input stream by partition id onto worker threads, each running an
//! independent [`Engine`] over its partition subset. Results are the
//! disjoint union of the shards' outputs; latency is reported per shard
//! and merged by maximum (each shard models one executor core of the
//! paper's 16-core evaluation host).

use crate::engine::{Engine, EngineConfig, RunReport};
use caesar_events::{
    Batcher, Event, EventBatch, EventError, EventStream, OutputRecord, SchemaRegistry,
};
use caesar_optimizer::optimizer::OptimizedProgram;
use crossbeam::channel;
use parking_lot::Mutex;
use std::sync::Arc;

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
/// batch-equivalence tests compare byte-for-byte.
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
    let progress = Arc::new(Mutex::new(0u64));
    type ShardResult = Result<(RunReport, Vec<Event>, Vec<OutputRecord>), EventError>;
    let (results, undelivered): (Vec<ShardResult>, u64) = std::thread::scope(|scope| {
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for _ in 0..shards {
            // Shard channels carry whole batches: one send/recv — and one
            // engine dispatch — per same-timestamp run instead of per
            // event.
            let (tx, rx) = channel::bounded::<EventBatch>(4096);
            senders.push(tx);
            let program = program.clone();
            let progress = Arc::clone(&progress);
            handles.push(scope.spawn(move || -> ShardResult {
                let mut engine = Engine::new(program, registry, config);
                let mut unflushed = 0u64;
                for batch in rx {
                    unflushed += batch.len() as u64;
                    if config.batch.enabled {
                        engine.ingest_timed(batch)?;
                    } else {
                        for event in batch.events {
                            engine.ingest_timed(event)?;
                        }
                    }
                    if unflushed >= 1024 {
                        *progress.lock() += unflushed;
                        unflushed = 0;
                    }
                }
                *progress.lock() += unflushed;
                let report = engine.finish_timed();
                let outputs = std::mem::take(&mut engine.collected_outputs);
                let records = std::mem::take(&mut engine.collected_records);
                Ok((report, outputs, records))
            }));
        }

        // Distribute. With batching enabled each shard gets its own
        // batcher (its subsequence of the stream is still time-ordered);
        // otherwise events ship as singleton batches. A failed send means
        // the worker died: mark the shard dead and keep draining the
        // stream so the caller learns how many events went undelivered,
        // instead of silently stopping at the first casualty.
        let mut batchers: Vec<Batcher> = (0..shards).map(|_| Batcher::new(config.batch)).collect();
        let mut dead = vec![false; shards];
        let mut undelivered = 0u64;
        while let Some(event) = stream.next_event() {
            let shard = event.partition.shard(shards);
            if dead[shard] {
                undelivered += 1;
                continue;
            }
            if config.batch.enabled {
                if let Some(batch) = batchers[shard].offer(event) {
                    let n = batch.len() as u64;
                    if senders[shard].send(batch).is_err() {
                        dead[shard] = true;
                        // The failed batch plus the event now buffered.
                        undelivered += n + batchers[shard].pending() as u64;
                    }
                }
            } else {
                let batch = EventBatch::new(event.time(), vec![event]);
                if senders[shard].send(batch).is_err() {
                    dead[shard] = true;
                    undelivered += 1;
                }
            }
        }
        for (shard, batcher) in batchers.iter_mut().enumerate() {
            if let Some(batch) = batcher.flush() {
                if dead[shard] {
                    continue; // already counted when the shard died
                }
                let n = batch.len() as u64;
                if senders[shard].send(batch).is_err() {
                    dead[shard] = true;
                    undelivered += n;
                }
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

/// Merges per-shard reports: counters sum, latency merges by maximum
/// (shards are independent queues), wall time by maximum (they ran
/// concurrently). Metrics snapshots merge element-wise (counters and
/// histograms sum, gauges take the maximum).
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
        merged.max_latency_ns = merged.max_latency_ns.max(r.max_latency_ns);
        merged.avg_latency_ns = merged.avg_latency_ns.max(r.avg_latency_ns);
        merged.wall_time = merged.wall_time.max(r.wall_time);
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
    use caesar_events::{AttrType, PartitionId, Schema, Time, Value, VecStream};
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
        let mut events = vec![mk(10, 0), mk(5, 0)]; // shard 0 poison: out of order
                                                    // Enough follow-up traffic for shard 0 to guarantee the bounded
                                                    // channel forces a failed send after the worker died (the
                                                    // channel buffers 4096 batches).
        for t in 11..6000u64 {
            events.push(mk(t, 0));
        }
        events.push(mk(6000, 1)); // shard 1 stays healthy
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
    fn sharded_batched_matches_sharded_per_event() {
        let (program, reg) = setup();
        let stream_events = events(&reg, 8);
        let collect = EngineConfig {
            collect_outputs: true,
            ..EngineConfig::default()
        };
        for shards in [1usize, 2, 4] {
            let (rb, out_b) = run_sharded_with_outputs(
                &program,
                &reg,
                collect,
                shards,
                &mut VecStream::new(stream_events.clone()),
            )
            .unwrap();
            let (re, out_e) = run_sharded_with_outputs(
                &program,
                &reg,
                EngineConfig {
                    batch: caesar_events::BatchPolicy::per_event(),
                    ..collect
                },
                shards,
                &mut VecStream::new(stream_events.clone()),
            )
            .unwrap();
            assert_eq!(rb.events_in, re.events_in, "{shards} shards");
            assert_eq!(rb.outputs_by_type, re.outputs_by_type, "{shards} shards");
            assert_eq!(rb.transitions_applied, re.transitions_applied);
            assert_eq!(
                caesar_events::encode_all(&out_b),
                caesar_events::encode_all(&out_e),
                "{shards} shards: byte-identical outputs"
            );
        }
    }

    #[test]
    fn merge_reports_sums_and_maxes() {
        let mut a = RunReport {
            events_in: 10,
            max_latency_ns: 500,
            ..RunReport::default()
        };
        a.outputs_by_type.insert("X".into(), 3);
        let mut b = RunReport {
            events_in: 5,
            max_latency_ns: 900,
            ..RunReport::default()
        };
        b.outputs_by_type.insert("X".into(), 4);
        let merged = merge_reports(vec![a, b]);
        assert_eq!(merged.events_in, 15);
        assert_eq!(merged.max_latency_ns, 900);
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

    #[test]
    fn shard_count_one_matches_plain_engine_latency_accounting() {
        let (program, reg) = setup();
        let stream_events = events(&reg, 4);
        let report = run_sharded(
            &program,
            &reg,
            EngineConfig::default(),
            1,
            &mut VecStream::new(stream_events),
        )
        .unwrap();
        assert!(report.max_latency_ns > 0);
        let elapsed: Time = 1;
        let _ = elapsed;
    }
}
