//! The ledger: the one benchmark of this repository. Six workloads,
//! five gated end-to-end metrics, and per-layer attribution measured
//! from outside the program (nothing in the engine or server changes).
//!
//! ```text
//! cargo run --release --manifest-path crates/bench/src/bin/ledger/Cargo.toml -- \
//!     --workload lr_dense --seed 1 --seconds 14 --trace 0
//! ```
//!
//! One invocation runs one workload in this process (so `VmHWM` and
//! allocator state are per workload); without `--workload` every
//! workload runs in turn, each in a child process. `--trace 1` is the
//! traced run that yields the per-layer metrics (`layers`). Every
//! metric is printed as `name unit value`; the last line is one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`; the exit
//! code is non-zero when an output disagrees with its reference.
//!
//! # Run shape (same for every workload, same on every commit)
//!
//! *generate* (a child process, so the generator's garbage never sits
//! in this process's heap) → *setup* (model text + schemas → a system
//! ready for its first event, median of 400 spread over the run in
//! four bursts) → *capacity* (closed loop, time-boxed: one warm-up
//! pass, then whole passes of the stream through a fresh engine until
//! 35 % of `--seconds` is spent in timed work, at least three) →
//! *latency* (open loop, the other 65 %: events due one by one on a
//! fixed schedule at the workload's fixed rate, each output timed from
//! the due time of the latest arrival carrying the timestamp it ends
//! on, so a stall charges every event queued behind it) → *verify*
//! (untimed: every pass must produce the same output multiset, and
//! that multiset must agree with the workload's reference).
//! Time-boxing keeps the run length fixed however fast a later commit
//! makes a path. The box has two cores: the generator uses at most two
//! threads and two connections, and sharded topologies are left out
//! (they would measure the scheduler, not the program).
//!
//! Every run pins itself — and with it the generator child and, on
//! `served`, the server and the client's threads — to the
//! highest-numbered CPU (`measure::pin_to_last_cpu`: the box's
//! interrupts and housekeeping sit on CPU 0). The box is a guest on a
//! shared host whose neighbours slow it for seconds or minutes at a
//! time, and such interference only ever adds time. So each gated
//! figure is the best of several equal pieces of work inside the run:
//! `throughput_eps` is the fastest whole pass of the capacity phase,
//! and the latency phase is cut into parts of equal scheduled length
//! (`Spec::part_seconds`: a second where the stream takes that long to
//! repeat, an eighth where it repeats every few dozen events), of which
//! `out_latency_p50_us` is the lowest median and `out_latency_mean_us`
//! the lowest mean (`measure::best_part` says what that can and cannot
//! see). Within a part every sample counts and nothing is filtered.
//! The whole-phase p99 and p99.9 over every sample
//! are printed beside them (`bench.out_latency_p99_us`,
//! `bench.out_latency_p999_us`) and are not gated: on this box they
//! read 28 µs or 19 ms for the same binary and inputs.
//!
//! `peak_rss_mb` is `VmHWM` when the timed phases end minus `VmRSS`
//! just before setup (the input stream and the harness's own buffers
//! are resident by then), or the `VmHWM` of the server process on
//! `served`. Failures — ingest errors, refused or dropped events,
//! outputs missing or extra against the reference — are counted in the
//! result's `failed` over `attempted`; there is no `failed_share`
//! metric because a gated metric may not be zero.
//!
//! Sizes (seed 1; other seeds differ by well under a percent) and the
//! fixed open-loop rates, ≈ 40 % of the capacity measured on the
//! commit that added the ledger and never derived at run time
//! (`click_sparse` runs at 19 %: its latency phase must fit inside one
//! pass of the stream, because restarting means tearing down 1.4 GB of
//! engine state, and the allocator's consolidation of that lands in
//! the next engine's first calls):
//!
//! | workload | events | partitions | outputs | rate ev/s |
//! |---|---|---|---|---|
//! | `lr_dense` | 547k | 8 | 236k | 500k |
//! | `click_sparse` | 191k | 52k | 94k | 20k |
//! | `shared_prefix` | 660k | 1 | 17k | 160k |
//! | `disorder_strict` | 162k | 8 | 71k | 400k |
//! | `disorder_spec` | 4.6k | 2 | 2.6k | 4.5k |
//! | `served` | 1.11M (60k per closed-loop pass) | 128 | 68k | 120k |
//!
//! (`BENCHMARK.json` carries the same figures in each workload's line;
//! a unit test holds its `rate_eps=` to the constant in `workloads`.)
//! `served` sends frames of 512 events with eight unacknowledged in the
//! closed loop, and frames of 64 with one in flight in the open loop.
//!
//! # Workloads, and why each exists
//!
//! * `lr_dense` — Linear Road, 8 partitions of ~100-event ticks:
//!   pattern/negation/kernel work dominates, partition lookup and codec
//!   do nothing. The workload for `algebra.*` and the processing stage.
//! * `click_sparse` — the clickstream model (10 queries) over ~52k
//!   scattered partitions: per-event work is partition lookup, plan
//!   instantiation, context table, GC and state size (1.4 GB); prefix
//!   sharing currently loses here.
//! * `shared_prefix` — 12 queries sharing `SEQ(A, B, …)`, one
//!   partition: the side of the sharing decision where sharing wins,
//!   and the only workload where optimizer grouping matters.
//! * `disorder_strict` — Linear Road arriving up to 32 slots late,
//!   fixed slack of 4 ticks: the reorder buffer and scheduler release
//!   path, which every other workload (slack 0) skips.
//! * `disorder_spec` — such arrivals under speculative consistency: a
//!   repair to speculation that taxes the strict path (or the reverse)
//!   shows as one row up, one row down.
//! * `served` — `caesar serve` as a subprocess, one filter query: frame
//!   decode, admission queue, shard hand-off, output encode and socket
//!   writes dominate.
//!
//! # Pinned API surface
//!
//! `Caesar::builder` (`schema`, `model_text`, `within`, `engine_config`,
//! `build`, `build_program`); `EngineConfig::default()` plus only
//! `reorder_slack`, `consistency`, `collect_outputs`, `observability`;
//! `Engine::new`/`ingest`/`finish`/`collected_outputs`/
//! `collected_records`/`snapshot_state`/`restore_state`; the `serve`
//! flags `--tenant/--listen/--metrics-listen/--shards`. No `batch`,
//! `vectorize`, `sharing` or `share_prefixes` toggles. The reference
//! run alone sets `mode`/`sharing` (the paper's baseline executor), and
//! the per-layer replays call each layer's own public functions.

mod embedded;
mod layers;
mod measure;
mod served;
mod trace;
mod workloads;

use embedded::Inputs;
use measure::Metrics;
use std::io::{BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;
use workloads::{Spec, WORKLOADS};

/// The gated metrics, as `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("throughput_eps", "1/s"),
    ("out_latency_p50_us", "us"),
    ("out_latency_mean_us", "us"),
    ("peak_rss_mb", "MiB"),
];

/// What one run of one workload found.
pub struct Outcome {
    pub metrics: Metrics,
    /// Events offered to the system in the timed phases.
    pub attempted: u64,
    /// Ingest errors + rejected or dropped events + outputs missing or
    /// extra against the reference.
    pub failed: u64,
    pub notes: Vec<String>,
}

/// Parsed command line.
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    /// Tiny stream and 0.4 s of phases: the self-test.
    pub smoke: bool,
}

impl Args {
    fn parse(args: &[String]) -> Result<Self, String> {
        let mut parsed = Args {
            workload: None,
            seed: 1,
            seconds: 14.0,
            traced: false,
            smoke: false,
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = || it.next().ok_or(format!("{flag} needs a value"));
            match flag.as_str() {
                "--workload" => parsed.workload = Some(value()?.clone()),
                "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--seconds" => {
                    parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                }
                "--trace" => parsed.traced = value()? == "1",
                "--smoke" => parsed.smoke = true,
                other => return Err(format!("unknown argument {other}")),
            }
        }
        if parsed.smoke {
            parsed.seconds = 0.4;
        }
        Ok(parsed)
    }
}

/// Runs the generator as a child process and decodes its stream.
/// Generating here instead would leave the generator's freed memory in
/// this process's heap for the engine to reuse, hiding engine growth
/// from `peak_rss_mb`.
fn generate(spec: &Spec, args: &Args) -> Result<Inputs, String> {
    let start = Instant::now();
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args([
            "gen",
            "--workload",
            spec.name,
            "--seed",
            &args.seed.to_string(),
        ])
        .stdout(Stdio::piped());
    if args.smoke {
        command.arg("--smoke");
    }
    let mut child = command
        .spawn()
        .map_err(|e| format!("spawn generator: {e}"))?;
    let mut pipe = BufReader::with_capacity(1 << 20, child.stdout.take().expect("piped"));
    let decoded = read_events(&mut pipe);
    let status = child.wait().map_err(|e| format!("wait generator: {e}"))?;
    let events = decoded?;
    if !status.success() {
        return Err(format!("generator exited with {status}"));
    }
    Ok(Inputs::new(events, start.elapsed().as_secs_f64()))
}

fn read_events(pipe: &mut impl Read) -> Result<Vec<caesar_events::Event>, String> {
    let mut word = [0u8; 8];
    pipe.read_exact(&mut word)
        .map_err(|e| format!("generator stream: {e}"))?;
    let count = u64::from_le_bytes(word) as usize;
    let mut events = Vec::with_capacity(count);
    for _ in 0..count {
        let mut len = [0u8; 4];
        pipe.read_exact(&mut len)
            .map_err(|e| format!("generator stream: {e}"))?;
        let mut frame = len.to_vec();
        frame.resize(4 + u32::from_le_bytes(len) as usize, 0);
        pipe.read_exact(&mut frame[4..])
            .map_err(|e| format!("generator stream: {e}"))?;
        match caesar_events::codec::decode(&mut bytes::Bytes::from(frame)) {
            Ok(Some(event)) => events.push(event),
            other => return Err(format!("generator stream: {other:?}")),
        }
    }
    Ok(events)
}

/// `ledger gen …`: the generator process. Writes the event count, then
/// every event in the wire codec.
fn generator_main(args: &Args) -> Result<(), String> {
    let name = args.workload.as_deref().ok_or("gen needs --workload")?;
    let spec = Spec::of(name).ok_or(format!("unknown workload {name}"))?;
    let events = spec.generate(args.seed, args.smoke);
    let mut out = std::io::BufWriter::with_capacity(1 << 20, std::io::stdout().lock());
    let mut write = |bytes: &[u8]| out.write_all(bytes).map_err(|e| format!("write: {e}"));
    write(&(events.len() as u64).to_le_bytes())?;
    let mut buf = bytes::BytesMut::with_capacity(256);
    for event in &events {
        buf.clear();
        caesar_events::codec::encode(event, &mut buf);
        write(&buf)?;
    }
    out.flush().map_err(|e| format!("flush: {e}"))
}

/// The checkout this binary was built from.
pub fn repo_root() -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../../../..");
    root.canonicalize().unwrap_or(root)
}

/// Where `cargo build` at the repository root puts its output.
pub fn target_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR").map_or_else(|| repo_root().join("target"), PathBuf::from)
}

/// Where traces, tenant files and snapshots go: the build directory.
pub fn scratch_dir() -> PathBuf {
    target_dir().join("ledger")
}

/// The `[profile.release]` table of a manifest, comments dropped.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|line| *line != "[profile.release]")
        .skip(1)
        .take_while(|line| !line.starts_with('['))
        .filter(|line| !line.is_empty() && !line.starts_with('#'))
        .collect()
}

/// This package is its own workspace, so its release profile is a copy
/// of the repository root's. The embedded engine must be compiled as
/// `cargo build --release` at the root compiles `caesar` (which the
/// `served` workload spawns): refuse to measure once the copy drifts.
fn check_profile() -> Result<(), String> {
    let root_manifest = repo_root().join("Cargo.toml");
    let root = std::fs::read_to_string(&root_manifest)
        .map_err(|e| format!("{}: {e}", root_manifest.display()))?;
    let (root, own) = (
        release_profile(&root),
        release_profile(include_str!("../Cargo.toml")),
    );
    if root == own {
        Ok(())
    } else {
        Err(format!(
            "[profile.release] of the ledger's Cargo.toml is {own:?}, the repository root's is {root:?}: copy it over"
        ))
    }
}

/// One workload, in this process.
fn run_workload(name: &str, args: &Args) -> Result<Outcome, String> {
    check_profile()?;
    let spec = Spec::of(name).ok_or(format!("unknown workload {name}"))?;
    let inputs = generate(&spec, args)?;
    println!(
        "# {name}: {} events, {} partitions, lateness {} of slack {}, rate {} ev/s, seed {}",
        inputs.events.len(),
        inputs.partitions,
        inputs.lateness,
        spec.slack,
        spec.rate_eps,
        args.seed
    );
    let mut outcome = match (spec.served, args.traced) {
        (false, false) => embedded_run(&spec, &inputs, args),
        (false, true) => layers::traced_embedded(&spec, &inputs, args),
        (true, false) => served::run(&spec, &inputs, args)?,
        (true, true) => served::traced(&spec, &inputs, args)?,
    };
    outcome.metrics.push("bench.gen_s", "s", inputs.gen_s);
    if args.traced {
        layers::print_predictions(name, &outcome.metrics);
    }
    Ok(outcome)
}

/// How `--seconds` is split between the capacity and the latency
/// phase. Latency gets the larger share: a tail percentile needs more
/// windows to be steady than throughput needs passes.
pub fn phase_seconds(seconds: f64) -> (f64, f64) {
    (seconds * 0.35, seconds * 0.65)
}

/// Set-ups timed per burst; the untraced run spreads four bursts over
/// its phases, so `setup_s` is a median over the whole run and not over
/// the one instant a single burst happens to hit.
const SETUP_BURST: usize = 100;

/// The untraced embedded run: the five end-to-end metrics.
fn embedded_run(spec: &Spec, inputs: &Inputs, args: &Args) -> Outcome {
    let config = embedded::engine_config(spec, caesar_runtime::ObservabilityLevel::Off);
    println!("# measuring on CPU {:?}", measure::pin_to_last_cpu());
    let scratch = embedded::Scratch::new(inputs);
    let rss_before = measure::proc_status_mb(None, "VmRSS");

    let burst = if args.smoke { 2 } else { SETUP_BURST };
    let mut setups = Vec::with_capacity(4 * burst);
    embedded::time_setups(spec, config, burst, &mut setups);
    let built = embedded::build(spec);
    let (capacity_s, latency_s) = phase_seconds(args.seconds);
    // One pass off the books: the first pass through a fresh heap pays
    // for page faults (3x on `click_sparse`), a cost of process start,
    // not of the engine, and by far the noisiest part of a run.
    let warm_up = embedded::capacity_phase(&built, config, &inputs.events, 0.0, 1, None);
    embedded::time_setups(spec, config, burst, &mut setups);
    let passes = embedded::capacity_phase(&built, config, &inputs.events, capacity_s, 3, None);
    embedded::time_setups(spec, config, burst, &mut setups);
    let latency = embedded::latency_phase(spec, &built, config, inputs, latency_s, scratch);
    embedded::time_setups(spec, config, burst, &mut setups);
    let hwm = measure::proc_status_mb(None, "VmHWM");

    let all = || warm_up.iter().chain(&passes);
    let digests: Vec<_> = all().map(|p| &p.digest).chain(&latency.digests).collect();
    let (wrong, mut notes) = embedded::verify(spec, &built, inputs, &digests);
    if latency.samples_dropped > 0 {
        notes.push(format!(
            "{} latency samples did not fit the buffer",
            latency.samples_dropped
        ));
    }

    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", measure::median(&mut setups));
    metrics.push("throughput_eps", "1/s", embedded::throughput(&passes));
    metrics.push("out_latency_p50_us", "us", latency.p50_us);
    metrics.push("out_latency_mean_us", "us", latency.mean_us);
    metrics.push("peak_rss_mb", "MiB", hwm - rss_before);
    let eps = |p: &embedded::Pass| (p.events as f64 / p.timed_s).round();
    let pass_eps: Vec<f64> = passes.iter().map(eps).collect();
    println!(
        "# warm-up pass {} ev/s, then {pass_eps:?}",
        eps(&warm_up[0])
    );
    metrics.push(
        "bench.mean_pass_eps",
        "1/s",
        passes.iter().map(|p| p.events).sum::<u64>() as f64
            / passes.iter().map(|p| p.timed_s).sum::<f64>(),
    );
    metrics.push("bench.outputs_per_pass", "count", passes[0].outputs as f64);
    layers::push_latency_health(&mut metrics, &latency);
    Outcome {
        metrics,
        attempted: all().map(|p| p.events).sum::<u64>() + latency.events,
        failed: all().map(|p| p.failed).sum::<u64>() + latency.failed + wrong,
        notes,
    }
}

/// Prints an outcome; returns whether it was correct.
fn report(outcome: &Outcome, traced: bool) -> bool {
    for (name, unit, value) in &outcome.metrics.0 {
        println!("{name} {unit} {value}");
    }
    for note in &outcome.notes {
        println!("# WRONG: {note}");
    }
    let correct = outcome.failed == 0 && outcome.notes.is_empty();
    let names: &[(&str, &str)] = if traced {
        &layers::PER_LAYER
    } else {
        &END_TO_END
    };
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        outcome.attempted.max(1),
        outcome.failed,
        outcome.metrics.json(names)
    );
    correct
}

/// No `--workload`: every workload in turn, each in its own process.
fn run_all(raw_args: &[String]) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut all_correct = true;
    for name in WORKLOADS {
        let status = Command::new(&exe)
            .args(["--workload", name])
            .args(raw_args)
            .status()
            .map_err(|e| format!("spawn {name}: {e}"))?;
        all_correct &= status.success();
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let generator = raw.first().is_some_and(|a| a == "gen");
    let result = Args::parse(&raw[usize::from(generator)..]).and_then(|args| {
        if generator {
            return generator_main(&args).map(|()| true);
        }
        match &args.workload {
            None => run_all(&raw),
            Some(name) => run_workload(name, &args).map(|outcome| report(&outcome, args.traced)),
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(message) => {
            eprintln!("ledger: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` and the binary must name the same metrics.
    #[test]
    fn benchmark_json_lists_every_metric() {
        let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root");
        for (name, unit) in END_TO_END.iter().chain(&layers::PER_LAYER) {
            let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
            assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        // Each workload's line records its sizes and its fixed rate.
        for name in WORKLOADS {
            let line = json
                .lines()
                .find(|line| line.contains(&format!("\"name\": \"{name}\", \"why\"")))
                .unwrap_or_else(|| panic!("no workload {name}"));
            let rate = format!("rate_eps={}.", Spec::of(name).unwrap().rate_eps);
            assert!(line.contains(&rate), "{name}: BENCHMARK.json lacks {rate}");
        }
    }
}
