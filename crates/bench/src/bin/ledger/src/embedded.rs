//! The embedded run: set-up, the closed-loop capacity phase, the
//! open-loop latency phase and the verify phase of a workload that
//! drives a sequential in-process engine.

use crate::measure::{best_part, quantile, Digest};
use crate::trace::{spanned, Tracer};
use crate::workloads::{Reference, Spec};
use bytes::BytesMut;
use caesar_core::prelude::*;
use caesar_events::{max_lateness, OutputRecord};
use caesar_linear_road::expected_outputs;
use caesar_optimizer::OptimizedProgram;
use caesar_runtime::Engine;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Events per ingest chunk of the capacity phase (outputs are moved out
/// of the engine, and the timer read, once per chunk).
pub const CHUNK: usize = 256;
/// Outputs the latency phase lets pile up undigested while it runs
/// behind its schedule (half a second behind once read as 7 MiB of
/// engine memory on `disorder_strict`).
const PENDING_CAP: usize = 4096;
/// Latency samples (and lateness samples) kept per run.
const MAX_SAMPLES: usize = 4 << 20;

/// A generated input stream and what the harness derives from it.
pub struct Inputs {
    pub events: Vec<Event>,
    /// Seconds the generator process took, pipe and decode included.
    pub gen_s: f64,
    pub partitions: usize,
    /// Measured maximum lateness of the stream, ticks (0 when in order).
    pub lateness: Time,
    t_min: Time,
    t_span: usize,
}

impl Inputs {
    pub fn new(events: Vec<Event>, gen_s: f64) -> Self {
        let partitions = events
            .iter()
            .map(|e| e.partition)
            .collect::<HashSet<_>>()
            .len();
        let t_min = events.iter().map(Event::time).min().unwrap_or(0);
        let t_max = events.iter().map(Event::time).max().unwrap_or(0);
        Self {
            lateness: max_lateness(&events),
            partitions,
            t_min,
            t_span: (t_max - t_min) as usize + 1,
            events,
            gen_s,
        }
    }

    /// The first `n` events as a stream of their own.
    pub fn prefix(&self, n: usize) -> Inputs {
        Inputs::new(self.events[..n.min(self.events.len())].to_vec(), 0.0)
    }

    /// Index of an application timestamp into per-timestamp tables.
    pub fn time_index(&self, t: Time) -> usize {
        (t - self.t_min) as usize
    }

    /// Per timestamp, the frame (of `frame` events) holding the latest
    /// arrival that carries it.
    pub fn last_index_per_time(&self, frame: usize) -> Vec<u32> {
        let mut frames = vec![0u32; self.t_span];
        for (i, event) in self.events.iter().enumerate() {
            frames[self.time_index(event.time())] = (i / frame) as u32;
        }
        frames
    }
}

/// The translated and optimized program of a workload.
pub struct Built {
    pub program: OptimizedProgram,
    pub registry: SchemaRegistry,
}

pub fn build(spec: &Spec) -> Built {
    let (program, registry, _explain) = spec.builder().build_program().expect("model builds");
    Built { program, registry }
}

/// The pinned configuration surface: the default plus the four fields
/// the workloads need.
pub fn engine_config(spec: &Spec, observability: ObservabilityLevel) -> EngineConfig {
    let mut config = EngineConfig::default();
    config.collect_outputs = true;
    config.reorder_slack = spec.slack;
    config.consistency = spec.consistency;
    config.observability = observability;
    config
}

/// Samples of `setup_s`: model text + schemas → a system ready for its
/// first event (parse, translate, optimize, `Engine::new`), `builds`
/// times over, seconds appended to `secs`.
pub fn time_setups(spec: &Spec, config: EngineConfig, builds: usize, secs: &mut Vec<f64>) {
    for _ in 0..builds {
        let start = Instant::now();
        let system = spec
            .builder()
            .engine_config(config)
            .build()
            .expect("model builds");
        secs.push(start.elapsed().as_secs_f64());
        drop(system);
    }
}

/// Where the engine's outputs go: moved out of the engine inside the
/// timed region, digested outside it.
struct Sink {
    speculative: bool,
    events: Vec<Event>,
    records: Vec<OutputRecord>,
    digest: Digest,
    scratch: BytesMut,
    /// Outputs seen (speculative: emissions, re-emissions included).
    outputs: u64,
}

impl Sink {
    fn new(speculative: bool) -> Self {
        Self {
            speculative,
            events: Vec::new(),
            records: Vec::new(),
            digest: Digest::default(),
            scratch: BytesMut::with_capacity(256),
            outputs: 0,
        }
    }

    /// Moves everything the engine has made visible so far out of it.
    /// Under speculation the visible stream is the emission/retraction
    /// records; the settled copies are dropped.
    fn collect(&mut self, engine: &mut Engine) {
        if self.speculative {
            engine.collected_outputs.clear();
            self.records.append(&mut engine.collected_records);
        } else {
            self.events.append(&mut engine.collected_outputs);
        }
    }

    /// Folds what was collected into the digest.
    fn digest_pending(&mut self) {
        for event in self.events.drain(..) {
            self.digest.add(&event, &mut self.scratch);
            self.outputs += 1;
        }
        for record in self.records.drain(..) {
            if record.is_retraction() {
                self.digest.retract(record.event(), &mut self.scratch);
            } else {
                self.digest.add(record.event(), &mut self.scratch);
                self.outputs += 1;
            }
        }
    }
}

/// One whole pass of the stream through a fresh engine.
pub struct Pass {
    pub events: u64,
    /// Seconds inside ingest, output collection and `finish`.
    pub timed_s: f64,
    pub outputs: u64,
    pub digest: Digest,
    /// Events the engine refused or dropped as late.
    pub failed: u64,
    pub report: RunReport,
    pub spec_emits: u64,
    pub spec_retractions: u64,
    pub spec_rebuilds: u64,
}

/// Runs one closed-loop pass. With a tracer, every ingest call is
/// timed and a span is recorded per layer boundary (see `trace`).
pub fn run_pass(
    built: &Built,
    config: EngineConfig,
    events: &[Event],
    mut tracer: Option<&mut Tracer>,
) -> Pass {
    let pass = tracer.as_mut().map_or(0, |t| t.open("bench.pass", 0));
    let mut engine = spanned(&mut tracer, "runtime.engine.new", pass, || {
        Engine::new(built.program.clone(), &built.registry, config)
    });
    let mut sink = Sink::new(config.consistency == Consistency::Speculative);
    let mut failed = 0u64;
    let mut timed = Duration::ZERO;
    for chunk in events.chunks(CHUNK) {
        let start = Instant::now();
        match tracer.as_mut() {
            None => {
                for event in chunk {
                    failed += u64::from(engine.ingest(event.clone()).is_err());
                }
                sink.collect(&mut engine);
            }
            Some(t) => {
                let t0 = t.now();
                let mut prev = t0;
                for event in chunk {
                    failed += u64::from(engine.ingest(event.clone()).is_err());
                    let now = t.now();
                    t.call_ns.push((now - prev).min(u64::from(u32::MAX)) as u32);
                    prev = now;
                }
                sink.collect(&mut engine);
                let t2 = t.now();
                let frame = t.record("bench.frame", pass, t0, t2);
                t.record("runtime.engine.ingest", frame, t0, prev);
                t.record("runtime.engine.drain", frame, prev, t2);
            }
        }
        timed += start.elapsed();
        spanned(&mut tracer, "bench.digest", pass, || sink.digest_pending());
    }
    let start = Instant::now();
    let report = spanned(&mut tracer, "runtime.engine.finish", pass, || {
        let report = engine.finish();
        sink.collect(&mut engine);
        report
    });
    timed += start.elapsed();
    spanned(&mut tracer, "bench.digest", pass, || sink.digest_pending());
    if let Some(t) = tracer.as_mut() {
        t.close(pass);
    }
    Pass {
        events: events.len() as u64,
        timed_s: timed.as_secs_f64(),
        outputs: sink.outputs,
        digest: sink.digest,
        failed: failed + engine.late_dropped,
        report,
        spec_emits: engine.spec_emits,
        spec_retractions: engine.spec_retractions,
        spec_rebuilds: engine.spec_rebuilds,
    }
}

/// The capacity phase: whole passes until `budget` seconds of timed
/// work and at least `min_passes` passes are done. Time-boxing keeps
/// the run length fixed however fast the engine becomes.
pub fn capacity_phase(
    built: &Built,
    config: EngineConfig,
    events: &[Event],
    budget: f64,
    min_passes: usize,
    mut tracer: Option<&mut Tracer>,
) -> Vec<Pass> {
    let mut passes: Vec<Pass> = Vec::new();
    while passes.len() < min_passes || passes.iter().map(|p| p.timed_s).sum::<f64>() < budget {
        passes.push(run_pass(built, config, events, tracer.as_deref_mut()));
    }
    passes
}

/// `throughput_eps` of a capacity phase: events ÷ timed seconds of its
/// fastest whole pass. Every pass is the same work through a fresh
/// engine, and what else the host is doing only ever slows one down
/// (see `measure::best_part`), so the fastest is the one least
/// disturbed; the mean over all passes is printed beside it.
pub fn throughput(passes: &[Pass]) -> f64 {
    passes
        .iter()
        .map(|p| p.events as f64 / p.timed_s)
        .fold(0.0, f64::max)
}

/// What the open-loop phase measured.
pub struct Latency {
    /// The gated figures, µs: the lowest median and the lowest mean
    /// among the phase's parts (`measure::best_part`).
    pub p50_us: f64,
    pub mean_us: f64,
    /// Every output latency of the phase, ns, ascending.
    pub samples: Vec<u32>,
    /// Samples that did not fit the buffer (0 in any sane run).
    pub samples_dropped: u64,
    /// How late each event was ingested, ns, ascending.
    pub lag: Vec<u32>,
    /// Events due but not yet ingested when the phase's clock ran out.
    pub backlog_end: u64,
    /// Events ingested on schedule (the timed part of the phase).
    pub events: u64,
    pub failed: u64,
    /// Digest of every pass the phase completed (the last one is
    /// completed off the clock).
    pub digests: Vec<Digest>,
}

impl Latency {
    /// A whole-phase percentile, µs.
    pub fn percentile_us(&self, q: f64) -> f64 {
        quantile(&self.samples, q) / 1000.0
    }

    /// p99.9 in µs, only when at least ten samples lie beyond it.
    pub fn p999(&self) -> Option<f64> {
        (self.samples.len() >= 10_000).then(|| self.percentile_us(0.999))
    }
}

/// The latency phase's own buffers. Made — every page touched — before
/// the memory baseline is read, so the harness's bookkeeping never
/// shows in `peak_rss_mb`.
pub struct Scratch {
    samples: Vec<u32>,
    lag: Vec<u32>,
    /// Due time (ns from the phase start) of the latest arrival per
    /// application timestamp.
    last_due: Vec<u64>,
}

impl Scratch {
    pub fn new(inputs: &Inputs) -> Self {
        let touched = || {
            let mut buffer = vec![1u32; MAX_SAMPLES];
            buffer.clear();
            buffer
        };
        Self {
            samples: touched(),
            lag: touched(),
            last_due: vec![1u64; inputs.t_span],
        }
    }
}

/// Samples the outputs `sink` collected since `from` (its event and
/// record counts before the collect): now − the due time of the latest
/// arrival carrying the output's end timestamp. Returns how many did
/// not fit the buffer.
fn sample_outputs(
    samples: &mut Vec<u32>,
    now_ns: u64,
    sink: &Sink,
    from: (usize, usize),
    inputs: &Inputs,
    last_due: &[u64],
) -> u64 {
    let fresh = sink.events[from.0..].iter().chain(
        sink.records[from.1..]
            .iter()
            .filter(|r| !r.is_retraction())
            .map(OutputRecord::event),
    );
    let mut dropped = 0;
    for event in fresh {
        let ns = now_ns.saturating_sub(last_due[inputs.time_index(event.time())]);
        if samples.len() < samples.capacity() {
            samples.push(ns.min(u64::from(u32::MAX)) as u32);
        } else {
            dropped += 1;
        }
    }
    dropped
}

/// Sleeps, then spins for the last 150 µs, until `due`. Every embedded
/// rate has a period under 300 µs, so there the loop only spins;
/// `served`, with a millisecond between frames, sleeps most of it away —
/// a generator that spins all the time takes one of the two CPUs from
/// the server it is measuring (p99 read 1.4 or 2.4 ms depending on where
/// the scheduler put it).
pub fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(300) {
            std::thread::sleep(left - Duration::from_micros(150));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// The latency phase: events due one by one on a fixed schedule at
/// `spec.rate_eps` for `duration` seconds, outputs moved out after
/// every ingest call. An output is timed from the due time of the
/// latest arrival carrying the timestamp its occurrence interval ends
/// on, so a stall charges every event queued behind it. (Per-event
/// pacing, not frames: with frames of 256 the tail was the rare tick
/// that ends exactly on a frame boundary and waits a whole period for
/// the next frame — an artefact of the seed's tick sizes, not of the
/// engine.) When the stream ends inside the phase a fresh engine takes
/// the next pass and the schedule is pushed back by what the change
/// took: end of stream and tear-down are the harness restarting the
/// system (22 times a phase on `disorder_strict`), which open-loop
/// operation never sees. When the clock runs out the current pass is
/// completed unscheduled and untimed, so its digest can still be
/// checked.
pub fn latency_phase(
    spec: &Spec,
    built: &Built,
    config: EngineConfig,
    inputs: &Inputs,
    duration: f64,
    scratch: Scratch,
) -> Latency {
    let speculative = spec.consistency == Consistency::Speculative;
    let period_ns = 1e9 / spec.rate_eps;
    let scheduled = (duration * spec.rate_eps).floor().max(1.0) as usize;
    let Scratch {
        mut samples,
        lag,
        mut last_due,
    } = scratch;
    // Where each part's samples end.
    let parts = ((duration / spec.part_seconds).round() as usize).max(1);
    let mut part_ends = vec![0usize; parts];
    let mut result = Latency {
        p50_us: 0.0,
        mean_us: 0.0,
        samples: Vec::new(),
        samples_dropped: 0,
        lag,
        backlog_end: 0,
        events: scheduled as u64,
        failed: 0,
        digests: Vec::new(),
    };
    let mut engine = Engine::new(built.program.clone(), &built.registry, config);
    let mut sink = Sink::new(speculative);
    let mut pos = 0usize;
    // The schedule's origin; pushed back at every pass change.
    let mut start = Instant::now() + Duration::from_millis(2);

    for k in 0..scheduled {
        if pos == inputs.events.len() {
            // End of stream is off the clock as a whole: what `finish`
            // flushes is digested, not timed.
            let change = Instant::now();
            engine.finish();
            sink.collect(&mut engine);
            sink.digest_pending();
            result.failed += engine.late_dropped;
            result.digests.push(std::mem::take(&mut sink.digest));
            engine = Engine::new(built.program.clone(), &built.registry, config);
            pos = 0;
            start += change.elapsed();
        }
        let due_ns = (k as f64 * period_ns) as u64;
        let due = start + Duration::from_nanos(due_ns);
        // Early: digest what the last calls made visible while waiting.
        let mut began = Instant::now();
        if began < due {
            sink.digest_pending();
            wait_until(due);
            began = Instant::now();
        }
        if began >= start + Duration::from_secs_f64(duration) && result.backlog_end == 0 {
            result.backlog_end = (scheduled - k) as u64;
        }
        let late = (began - due).as_nanos().min(u128::from(u32::MAX)) as u32;
        if result.lag.len() < MAX_SAMPLES {
            result.lag.push(late);
        }
        let event = &inputs.events[pos];
        pos += 1;
        last_due[inputs.time_index(event.time())] = due_ns;
        result.failed += u64::from(engine.ingest(event.clone()).is_err());
        let visible = if speculative {
            engine.collected_records.len()
        } else {
            engine.collected_outputs.len()
        };
        if visible > 0 {
            let from = (sink.events.len(), sink.records.len());
            sink.collect(&mut engine);
            let now = start.elapsed().as_nanos() as u64;
            result.samples_dropped +=
                sample_outputs(&mut samples, now, &sink, from, inputs, &last_due);
            part_ends[k * parts / scheduled] = samples.len();
            // Running late leaves no wait to digest in: keep the
            // harness's own pile out of `peak_rss_mb` all the same.
            if sink.events.len() + sink.records.len() >= PENDING_CAP {
                sink.digest_pending();
            }
        }
    }
    let mut slices = Vec::with_capacity(parts);
    let (mut rest, mut start) = (&mut samples[..], 0);
    for end in part_ends {
        // A part that saw no output ends where the one before it did.
        let end = end.max(start);
        let (part, tail) = rest.split_at_mut(end - start);
        slices.push(part);
        (rest, start) = (tail, end);
    }
    (result.p50_us, result.mean_us) = best_part(slices.into_iter());
    samples.sort_unstable();
    result.samples = samples;

    // Off the clock: complete the pass so its digest can be compared.
    for chunk in inputs.events[pos..].chunks(CHUNK) {
        for event in chunk {
            result.failed += u64::from(engine.ingest(event.clone()).is_err());
        }
        sink.collect(&mut engine);
        sink.digest_pending();
    }
    engine.finish();
    sink.collect(&mut engine);
    sink.digest_pending();
    result.failed += engine.late_dropped;
    result.digests.push(sink.digest);

    result.lag.sort_unstable();
    result
}

/// The verify phase: every pass must have produced the same digest,
/// and that digest must agree with the workload's reference. Returns
/// the number of outputs missing or extra (0 = correct) and a note per
/// disagreement.
pub fn verify(
    spec: &Spec,
    built: &Built,
    inputs: &Inputs,
    digests: &[&Digest],
) -> (u64, Vec<String>) {
    let mut notes = Vec::new();
    let mut wrong = 0u64;
    let first = digests[0];
    // Outputs missing or extra between two multisets; at least one when
    // they differ with equal counts.
    let mismatch = |other: &Digest| match other == first {
        true => 0,
        false => (other.count() - first.count()).unsigned_abs().max(1),
    };
    for (i, digest) in digests.iter().enumerate().skip(1) {
        if *digest != first {
            wrong += mismatch(digest);
            notes.push(format!(
                "pass {i} produced a different output multiset than pass 0"
            ));
        }
    }
    match spec.reference {
        Reference::LinearRoad => {
            let mut sorted = inputs.events.clone();
            sorted.sort_by_key(Event::time);
            let oracle = expected_outputs(&sorted, &spec.inputs);
            for (type_name, expected) in [
                ("ZeroToll", oracle.zero_tolls),
                ("TollNotification", oracle.real_tolls),
                ("AccidentWarning", oracle.accident_warnings),
            ] {
                let id = built.registry.lookup(type_name).expect("derived type");
                let got = first.by_type.get(&id.0).copied().unwrap_or(0);
                if got != expected as i64 {
                    wrong += (got - expected as i64).unsigned_abs();
                    notes.push(format!(
                        "{type_name}: {got} outputs, oracle expects {expected}"
                    ));
                }
            }
            // Folding speculative emissions minus retractions must land
            // on what a strict engine settles to on the same arrivals.
            if spec.consistency == Consistency::Speculative {
                let mut config = engine_config(spec, ObservabilityLevel::Off);
                config.consistency = Consistency::Strict;
                let settled = run_pass(built, config, &inputs.events, None).digest;
                if settled != *first {
                    wrong += mismatch(&settled);
                    notes.push("folded speculative records differ from the strict outputs".into());
                }
            }
        }
        Reference::Baseline => {
            let baseline = baseline_digest(spec, built, inputs);
            if baseline != *first {
                wrong += mismatch(&baseline);
                notes.push(format!(
                    "{} outputs, the context-independent baseline produced {}",
                    first.count(),
                    baseline.count()
                ));
            }
        }
    }
    (wrong, notes)
}

/// One untimed run of the context-independent, non-sharing executor —
/// the paper's baseline — over the same program and stream.
fn baseline_digest(spec: &Spec, built: &Built, inputs: &Inputs) -> Digest {
    let config = EngineConfig::builder()
        .mode(ExecutionMode::ContextIndependent)
        .sharing(false)
        .reorder_slack(spec.slack)
        .collect_outputs(true)
        .build();
    run_pass(built, config, &inputs.events, None).digest
}
