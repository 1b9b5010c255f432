//! The `served` workload: `caesar serve` spawned as a subprocess and
//! driven over loopback TCP. Connection 1 sends `INGEST` frames and
//! reads their acks; connection 2 is `SUBSCRIBE`d and read by the one
//! extra thread. The child is killed and reaped on every exit path
//! (`ServerProcess` does it in `Drop`, so a panic or a failed check
//! unwinds through it).
//!
//! Server and client share the highest-numbered CPU (`run` pins itself
//! before it starts either). Left to the scheduler, the server's five
//! busy threads and the client's two wandered over both CPUs: p50 sat at
//! 325 or 450 µs for seconds at a time, and closed-loop passes ran 20 %
//! slower for the cross-CPU wake-ups. With the client alone on CPU 0,
//! where the box's interrupts land, the generator ran late in bursts
//! (`bench.gen_lag_p99_us` 26–130 µs against 2–23 µs), and lateness is
//! charged to the outputs. At the fixed rate the client costs 2–3 % of
//! the CPU it shares.

use crate::embedded::{self, Inputs};
use crate::measure::{
    best_part, median, pin_to_last_cpu, proc_status_mb, quantile, Digest, Metrics,
};
use crate::workloads::Spec;
use crate::{layers, Args, Outcome};
use bytes::BytesMut;
use caesar_core::prelude::*;
use caesar_server::protocol::{read_frame, write_frame};
use caesar_server::{Request, Response, DEFAULT_MAX_FRAME};
use std::io::{BufRead, BufReader};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Events per `INGEST` frame of a closed-loop pass.
pub const FRAME: usize = 512;
/// Events per `INGEST` frame of the open loop. A strict engine holds
/// the last tick of a frame until the next frame brings a later
/// timestamp, so one output in `OPEN_FRAME` waits a whole frame period
/// on top of the pipeline. With frames of 128 that cluster holds 0.8 %
/// of the outputs and the p99 sits on its edge (1.3 ms or, with a few
/// slow frames more, 2.4 ms); with 64 it holds 1.6 % and the p99 sits
/// inside it, at one period (533 µs) plus the pipeline. Smaller frames
/// also keep the server's threads from going to sleep between frames:
/// with 512 every frame paid for waking the whole pipeline and p50
/// swung ±12 % between runs.
const OPEN_FRAME: usize = 64;
/// Unacknowledged frames the closed loop keeps in flight.
const WINDOW: usize = 8;
const TENANT: &str = "t";
/// A server that is not answering `PING` by then never will.
const READY_TIMEOUT: Duration = Duration::from_secs(20);
/// Events of a closed-loop pass: a prefix of the stream, so that a
/// capacity phase holds some twenty-five passes, each through a fresh
/// server: a slow moment of the box owns one short pass, not a third of
/// the phase.
const CAPACITY_EVENTS: usize = 60_000;
/// `server.sustained_rate_eps`: a rate holds when p99 stays under this
/// and no backlog is left when the clock runs out.
const SUSTAINED_P99_US: f64 = 50_000.0;

/// Builds `caesar` (a no-op when fresh) and returns the binary's path.
/// The program under test is the one users start, built from the
/// checkout this benchmark was built from.
fn server_binary() -> Result<PathBuf, String> {
    let root = crate::repo_root();
    let status = Command::new("cargo")
        .args([
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--bin",
            "caesar",
        ])
        .arg("--manifest-path")
        .arg(root.join("Cargo.toml"))
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cargo build --bin caesar: {e}"))?;
    if !status.success() {
        return Err(format!("cargo build --bin caesar: {status}"));
    }
    Ok(crate::target_dir().join("release").join("caesar"))
}

/// A running `caesar serve` child.
struct ServerProcess {
    child: Child,
    addr: SocketAddr,
    metrics_addr: SocketAddr,
    /// Process spawn → first `PING` answered.
    spawn_to_ready: Duration,
    /// Drains the child's stdout so it never blocks on a full pipe.
    stdout_reader: Option<JoinHandle<()>>,
}

impl ServerProcess {
    fn spawn(binary: &PathBuf, spec: &Spec) -> Result<Self, String> {
        let dir = crate::scratch_dir().join("served");
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        let (model, schema) = (dir.join("model.caesar"), dir.join("schema.txt"));
        std::fs::write(&model, &spec.model_text).map_err(|e| format!("tenant files: {e}"))?;
        std::fs::write(&schema, spec.schema_file()).map_err(|e| format!("tenant files: {e}"))?;

        let start = Instant::now();
        let mut child = Command::new(binary)
            .arg("serve")
            .arg("--tenant")
            .arg(format!("{TENANT}={},{}", model.display(), schema.display()))
            .args(["--listen", "127.0.0.1:0", "--metrics-listen", "127.0.0.1:0"])
            .args(["--shards", "1"])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", binary.display()))?;
        let stdout = BufReader::new(child.stdout.take().expect("piped"));
        let (lines_tx, lines) = mpsc::channel();
        let stdout_reader = std::thread::spawn(move || {
            for line in stdout.lines().map_while(Result::ok) {
                let _ = lines_tx.send(line);
            }
        });
        // From here on `server` owns the child: an early return kills it.
        let mut server = Self {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            metrics_addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            spawn_to_ready: Duration::ZERO,
            stdout_reader: Some(stdout_reader),
        };
        let parse = |text: &str| {
            text.trim()
                .parse::<SocketAddr>()
                .map_err(|e| format!("{text}: {e}"))
        };
        let (mut listening, mut metrics) = (false, false);
        while !(listening && metrics) {
            let left = READY_TIMEOUT.saturating_sub(start.elapsed());
            let line = lines
                .recv_timeout(left)
                .map_err(|_| "server printed no listen address in time".to_string())?;
            if let Some(addr) = line.strip_prefix("listening on ") {
                server.addr = parse(addr)?;
                listening = true;
            } else if let Some(url) = line.strip_prefix("metrics on http://") {
                server.metrics_addr = parse(url.trim_end_matches("/metrics"))?;
                metrics = true;
            }
        }
        let mut probe = Conn::connect(server.addr)?;
        probe
            .stream
            .set_read_timeout(Some(READY_TIMEOUT))
            .map_err(|e| e.to_string())?;
        probe.send(&Request::Ping)?;
        match probe.recv()? {
            Response::Pong => {}
            other => return Err(format!("PING answered with {other:?}")),
        }
        server.spawn_to_ready = start.elapsed();
        Ok(server)
    }

    /// Peak resident set of the server process so far, MiB.
    fn peak_rss_mb(&self) -> f64 {
        proc_status_mb(Some(self.child.id()), "VmHWM")
    }

    /// The `/metrics` document (HTTP/1.0 over a plain socket).
    fn scrape_metrics(&self) -> Result<String, String> {
        use std::io::{Read, Write};
        let mut stream = TcpStream::connect(self.metrics_addr).map_err(|e| e.to_string())?;
        stream
            .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
            .map_err(|e| e.to_string())?;
        let mut response = String::new();
        stream
            .read_to_string(&mut response)
            .map_err(|e| e.to_string())?;
        Ok(response)
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(reader) = self.stdout_reader.take() {
            let _ = reader.join();
        }
    }
}

/// The unsigned integer after `"key":` in a JSON text (0 when absent).
fn json_number(text: &str, key: &str) -> f64 {
    text.split_once(&format!("\"{key}\":"))
        .map(|(_, rest)| {
            rest.chars()
                .take_while(char::is_ascii_digit)
                .collect::<String>()
        })
        .and_then(|digits| digits.parse().ok())
        .unwrap_or(0.0)
}

/// One framed connection.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    fn connect(addr: SocketAddr) -> Result<Self, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        Ok(Self { stream })
    }

    fn send(&mut self, request: &Request) -> Result<(), String> {
        self.send_body(&request.encode())
    }

    fn send_body(&mut self, body: &[u8]) -> Result<(), String> {
        write_frame(&mut self.stream, body).map_err(|e| format!("send: {e}"))
    }

    fn recv(&mut self) -> Result<Response, String> {
        self.recv_raw()
            .and_then(|body| Response::decode(&body).map_err(|e| e.to_string()))
    }

    fn recv_raw(&mut self) -> Result<Vec<u8>, String> {
        read_frame(&mut self.stream, DEFAULT_MAX_FRAME)
            .map_err(|e| format!("recv: {e}"))?
            .ok_or_else(|| "server closed the connection".to_string())
    }

    /// Reads one reply to an `INGEST`: acked or refused.
    fn recv_ack(&mut self) -> Result<bool, String> {
        match self.recv()? {
            Response::Ack => Ok(true),
            Response::Error { .. } => Ok(false),
            other => Err(format!("expected an ack, got {other:?}")),
        }
    }
}

/// What the subscription delivered: every `OUTPUTS` frame with its
/// receive time.
#[derive(Default)]
struct Delivered {
    frames: Vec<(Instant, Vec<Event>)>,
    /// Wire bytes of the `OUTPUTS` frames, length prefixes included.
    bytes: u64,
    /// Seconds spent decoding them.
    decode_s: f64,
    /// When the subscription's closing `PONG` arrived: everything
    /// published before the barrier had been received by then.
    closed_at: Option<Instant>,
}

/// The subscribed connection: the main thread writes (`SUBSCRIBE`, then
/// the closing `PING`), the reader thread reads until the `PONG`.
struct Subscription {
    writer: Conn,
    reader: JoinHandle<Result<Delivered, String>>,
}

impl Subscription {
    fn open(addr: SocketAddr) -> Result<Self, String> {
        let mut writer = Conn::connect(addr)?;
        let mut reader = Conn {
            stream: writer.stream.try_clone().map_err(|e| e.to_string())?,
        };
        writer.send(&Request::Subscribe {
            tenant: TENANT.into(),
        })?;
        match reader.recv()? {
            Response::Ack => {}
            other => return Err(format!("SUBSCRIBE answered with {other:?}")),
        }
        let reader = std::thread::spawn(move || {
            let mut delivered = Delivered::default();
            loop {
                let body = reader.recv_raw()?;
                let received = Instant::now();
                match Response::decode(&body).map_err(|e| e.to_string())? {
                    Response::Outputs(events) => {
                        delivered.decode_s += received.elapsed().as_secs_f64();
                        delivered.bytes += body.len() as u64 + 4;
                        delivered.frames.push((received, events));
                    }
                    Response::Pong => {
                        delivered.closed_at = Some(received);
                        return Ok(delivered);
                    }
                    other => return Err(format!("subscription received {other:?}")),
                }
            }
        });
        Ok(Self { writer, reader })
    }

    /// Barrier on the subscription's own FIFO (the `PONG` queues behind
    /// every output frame published so far), then everything it read.
    fn close(mut self) -> Result<Delivered, String> {
        self.writer.send(&Request::Ping)?;
        self.reader
            .join()
            .map_err(|_| "subscription reader panicked".to_string())?
    }
}

/// One pass of the stream through one fresh server.
struct ServedPass {
    events: u64,
    /// First send → the subscription's closing `PONG` after `FINISH`:
    /// every event acked *and* accounted for in delivered outputs.
    wall_s: f64,
    /// First send → last ack (acks precede processing).
    acked_s: f64,
    outputs: u64,
    digest: Digest,
    /// Events in refused frames + events the `FINISH` report lost.
    failed: u64,
    peak_rss_mb: f64,
    spawn_to_ready: Duration,
    client: ClientCost,
    /// Output latencies of the scheduled part (open loop only), ns,
    /// ascending.
    samples: Vec<u32>,
    /// Lowest median and lowest mean among the parts of the scheduled
    /// stretch, µs (`measure::best_part`).
    p50_us: f64,
    mean_us: f64,
    ack_rtt: Vec<u32>,
    lag: Vec<u32>,
    backlog_end: u64,
    /// Events sent on schedule.
    scheduled: u64,
    metrics_doc: String,
}

/// Client-side costs the traced pass separates.
#[derive(Default)]
struct ClientCost {
    encode_s: f64,
    write_s: f64,
    bytes_in: u64,
    decode_s: f64,
    bytes_out: u64,
}

/// How a pass paces its frames.
enum Pacing {
    /// As fast as the ack window allows.
    Closed,
    /// One frame per period for `seconds`, one frame in flight: the ack
    /// is read before the next due time, so a late ack delays the next
    /// frame and is charged to it as lateness. The rest of the stream
    /// follows unscheduled, so the digest is of the whole stream.
    Open { rate_eps: f64, seconds: f64 },
}

fn run_pass(
    binary: &PathBuf,
    spec: &Spec,
    inputs: &Inputs,
    pacing: &Pacing,
    scrape: bool,
) -> Result<ServedPass, String> {
    let server = ServerProcess::spawn(binary, spec)?;
    let mut ingest = Conn::connect(server.addr)?;
    let subscription = Subscription::open(server.addr)?;
    let frame_len = match pacing {
        Pacing::Closed => FRAME,
        Pacing::Open { .. } => OPEN_FRAME,
    };
    let frames: Vec<&[Event]> = inputs.events.chunks(frame_len).collect();
    let (period, scheduled_frames) = match pacing {
        Pacing::Closed => (0.0, 0),
        Pacing::Open { rate_eps, seconds } => {
            let period = frame_len as f64 / rate_eps;
            (
                period,
                ((seconds / period).floor() as usize).min(frames.len()),
            )
        }
    };
    let mut pass = ServedPass {
        events: inputs.events.len() as u64,
        wall_s: 0.0,
        acked_s: 0.0,
        outputs: 0,
        digest: Digest::default(),
        failed: 0,
        peak_rss_mb: 0.0,
        spawn_to_ready: server.spawn_to_ready,
        client: ClientCost::default(),
        samples: Vec::new(),
        p50_us: 0.0,
        mean_us: 0.0,
        ack_rtt: Vec::with_capacity(scheduled_frames),
        lag: Vec::with_capacity(scheduled_frames),
        backlog_end: 0,
        scheduled: (scheduled_frames * frame_len).min(inputs.events.len()) as u64,
        metrics_doc: String::new(),
    };

    // A schedule starts a moment from now; a closed loop starts now.
    let lead = Duration::from_millis(if scheduled_frames > 0 { 2 } else { 0 });
    let start = Instant::now() + lead;
    let end = start + Duration::from_secs_f64(period * scheduled_frames as f64);
    let mut in_flight: Vec<usize> = Vec::with_capacity(WINDOW);
    let settle = |ingest: &mut Conn, in_flight: &mut Vec<usize>, pass: &mut ServedPass| {
        let frame = in_flight.remove(0);
        ingest.recv_ack().map(|acked| {
            if !acked {
                pass.failed += frames[frame].len() as u64;
            }
        })
    };
    for (k, frame) in frames.iter().enumerate() {
        let scheduled = k < scheduled_frames;
        if scheduled {
            let due = start + Duration::from_secs_f64(k as f64 * period);
            embedded::wait_until(due);
            let began = Instant::now();
            if began >= end && pass.backlog_end == 0 {
                pass.backlog_end = ((scheduled_frames - k) * frame_len) as u64;
            }
            pass.lag
                .push((began - due).as_nanos().min(u128::from(u32::MAX)) as u32);
        }
        let t0 = Instant::now();
        let body = Request::Ingest {
            tenant: TENANT.into(),
            events: frame.to_vec(),
        }
        .encode();
        let t1 = Instant::now();
        ingest.send_body(&body)?;
        pass.client.encode_s += (t1 - t0).as_secs_f64();
        pass.client.write_s += t1.elapsed().as_secs_f64();
        pass.client.bytes_in += body.len() as u64 + 4;
        in_flight.push(k);
        if scheduled {
            settle(&mut ingest, &mut in_flight, &mut pass)?;
            pass.ack_rtt
                .push(t1.elapsed().as_nanos().min(u128::from(u32::MAX)) as u32);
        } else if in_flight.len() >= WINDOW {
            settle(&mut ingest, &mut in_flight, &mut pass)?;
        }
    }
    while !in_flight.is_empty() {
        settle(&mut ingest, &mut in_flight, &mut pass)?;
    }
    pass.acked_s = start.elapsed().as_secs_f64();

    // FINISH flushes, finishes the engine (a strict engine holds its
    // last tick until then) and publishes what that derived before it
    // reports; the subscription's barrier then sees every output.
    ingest.send(&Request::Finish {
        tenant: TENANT.into(),
    })?;
    let report = match ingest.recv()? {
        Response::Report(report) => report,
        other => return Err(format!("FINISH answered with {other:?}")),
    };
    let delivered = subscription.close()?;
    pass.wall_s = (delivered.closed_at.expect("closed on PONG") - start).as_secs_f64();
    pass.client.decode_s = delivered.decode_s;
    pass.client.bytes_out = delivered.bytes;
    if scrape {
        pass.metrics_doc = server.scrape_metrics()?;
    }
    pass.peak_rss_mb = server.peak_rss_mb();
    drop(server);

    // Off the clock: digest what was delivered, time the scheduled part.
    let frame_of_time = inputs.last_index_per_time(frame_len);
    let mut scratch = BytesMut::with_capacity(256);
    let due = |frame: usize| start + Duration::from_secs_f64(frame as f64 * period);
    let scheduled_s = period * scheduled_frames as f64;
    let n_parts = ((scheduled_s / spec.part_seconds).round() as usize).max(1);
    let mut parts: Vec<Vec<u32>> = vec![Vec::new(); n_parts];
    for (received, events) in &delivered.frames {
        for event in events {
            pass.digest.add(event, &mut scratch);
            let frame = frame_of_time[inputs.time_index(event.time())] as usize;
            if frame < scheduled_frames {
                let ns = received.saturating_duration_since(due(frame)).as_nanos();
                parts[frame * n_parts / scheduled_frames].push(ns.min(u128::from(u32::MAX)) as u32);
            }
        }
    }
    (pass.p50_us, pass.mean_us) = best_part(parts.iter_mut().map(Vec::as_mut_slice));
    pass.samples = parts.concat();
    pass.outputs = pass.digest.count() as u64;
    // The FINISH report must account for every acked event and for
    // exactly the outputs the subscription delivered.
    let acked = pass.events - pass.failed;
    pass.failed += acked.abs_diff(report.events_in) + pass.outputs.abs_diff(report.events_out);
    pass.samples.sort_unstable();
    pass.ack_rtt.sort_unstable();
    pass.lag.sort_unstable();
    Ok(pass)
}

/// Closed-loop passes, each through a fresh server, until `budget`
/// seconds of pass wall time and `min_passes` passes are done.
fn capacity_phase(
    binary: &PathBuf,
    spec: &Spec,
    inputs: &Inputs,
    budget: f64,
    min_passes: usize,
) -> Result<Vec<ServedPass>, String> {
    let mut passes: Vec<ServedPass> = Vec::new();
    while passes.len() < min_passes || passes.iter().map(|p| p.wall_s).sum::<f64>() < budget {
        passes.push(run_pass(binary, spec, inputs, &Pacing::Closed, false)?);
    }
    Ok(passes)
}

/// Events acked and accounted for ÷ wall seconds of the fastest pass
/// (why the fastest: `embedded::throughput`).
fn throughput(passes: &[ServedPass]) -> f64 {
    passes
        .iter()
        .map(|p| p.events.saturating_sub(p.failed) as f64 / p.wall_s)
        .fold(0.0, f64::max)
}

/// Spawns servers until `spawn_to_ready` has `want` samples; the median.
fn setup_seconds(
    binary: &PathBuf,
    spec: &Spec,
    seen: &[ServedPass],
    want: usize,
) -> Result<f64, String> {
    let mut secs: Vec<f64> = seen
        .iter()
        .map(|p| p.spawn_to_ready.as_secs_f64())
        .collect();
    while secs.len() < want {
        secs.push(
            ServerProcess::spawn(binary, spec)?
                .spawn_to_ready
                .as_secs_f64(),
        );
    }
    Ok(median(&mut secs))
}

/// Compares the passes with each other and with the baseline executor.
fn verify(spec: &Spec, inputs: &Inputs, passes: &[&ServedPass]) -> (u64, Vec<String>) {
    let built = embedded::build(spec);
    let digests: Vec<&Digest> = passes.iter().map(|p| &p.digest).collect();
    embedded::verify(spec, &built, inputs, &digests)
}

/// The untraced served run: the five end-to-end metrics.
pub fn run(spec: &Spec, inputs: &Inputs, args: &Args) -> Result<Outcome, String> {
    let binary = server_binary()?;
    println!("# server and client on CPU {:?}", pin_to_last_cpu());
    let (capacity_s, latency_s) = crate::phase_seconds(args.seconds);
    let capacity_inputs = inputs.prefix(CAPACITY_EVENTS);
    let passes = capacity_phase(&binary, spec, &capacity_inputs, capacity_s, 3)?;
    let pacing = Pacing::Open {
        rate_eps: spec.rate_eps,
        seconds: latency_s,
    };
    let latency = run_pass(&binary, spec, inputs, &pacing, false)?;
    let all: Vec<&ServedPass> = passes.iter().chain([&latency]).collect();
    let setup_s = setup_seconds(&binary, spec, &passes, if args.smoke { 2 } else { 5 })?;
    let (mut wrong, mut notes) = verify(spec, &capacity_inputs, &passes.iter().collect::<Vec<_>>());
    let (wrong_open, notes_open) = verify(spec, inputs, &[&latency]);
    wrong += wrong_open;
    notes.extend(notes_open);

    let mut metrics = Metrics::default();
    metrics.push("setup_s", "s", setup_s);
    metrics.push("throughput_eps", "1/s", throughput(&passes));
    metrics.push("out_latency_p50_us", "us", latency.p50_us);
    metrics.push("out_latency_mean_us", "us", latency.mean_us);
    let peak = all.iter().map(|p| p.peak_rss_mb).fold(0.0, f64::max);
    metrics.push("peak_rss_mb", "MiB", peak);
    let eps: Vec<u64> = passes
        .iter()
        .map(|p| (p.events as f64 / p.wall_s) as u64)
        .collect();
    println!("# pass ev/s: {eps:?}");
    metrics.push(
        "bench.mean_pass_eps",
        "1/s",
        passes.iter().map(|p| p.events).sum::<u64>() as f64
            / passes.iter().map(|p| p.wall_s).sum::<f64>(),
    );
    metrics.push("bench.outputs_per_pass", "count", passes[0].outputs as f64);
    push_open_loop(&mut metrics, &latency);
    Ok(Outcome {
        metrics,
        attempted: passes.iter().map(|p| p.events).sum::<u64>() + latency.scheduled,
        failed: all.iter().map(|p| p.failed).sum::<u64>() + wrong,
        notes,
    })
}

/// What the open loop measured at the client.
fn push_open_loop(metrics: &mut Metrics, pass: &ServedPass) {
    let us = |sorted: &[u32], q: f64| quantile(sorted, q) / 1000.0;
    metrics.push(
        "bench.out_latency_samples",
        "count",
        pass.samples.len() as f64,
    );
    let p999 = if pass.samples.len() >= 10_000 {
        us(&pass.samples, 0.999)
    } else {
        0.0
    };
    metrics.push("bench.out_latency_p999_us", "us", p999);
    metrics.push("bench.out_latency_p99_us", "us", us(&pass.samples, 0.99));
    metrics.push("bench.gen_lag_p99_us", "us", us(&pass.lag, 0.99));
    metrics.push("bench.backlog_end_events", "count", pass.backlog_end as f64);
    metrics.push("server.ack_rtt_p50_us", "us", us(&pass.ack_rtt, 0.5));
    metrics.push("server.ack_rtt_p99_us", "us", us(&pass.ack_rtt, 0.99));
}

/// The traced served run: client-side costs, server counters, the
/// served-vs-embedded ratio and the sustained-rate probe.
pub fn traced(spec: &Spec, inputs: &Inputs, args: &Args) -> Result<Outcome, String> {
    let binary = server_binary()?;
    println!("# server and client on CPU {:?}", pin_to_last_cpu());
    let mut metrics = Metrics::default();
    layers::setup_split(spec, &mut metrics, if args.smoke { 3 } else { 20 });

    let capacity_inputs = inputs.prefix(CAPACITY_EVENTS);
    // Untraced and traced passes alternate, so the minutes-long fast and
    // slow spells of this path hit both alike. The client's stopwatch
    // reads are the same in every pass and the `/metrics` scrape of a
    // traced pass happens after its clock stops, so what
    // `bench.trace_overhead_share` shows here is the noise floor.
    let (mut untraced, mut traced): (Vec<ServedPass>, Vec<ServedPass>) = (Vec::new(), Vec::new());
    let wall = |passes: &[ServedPass]| passes.iter().map(|p| p.wall_s).sum::<f64>();
    while traced.len() < 3 || wall(&untraced) + wall(&traced) < args.seconds * 0.3 {
        untraced.push(run_pass(
            &binary,
            spec,
            &capacity_inputs,
            &Pacing::Closed,
            false,
        )?);
        traced.push(run_pass(
            &binary,
            spec,
            &capacity_inputs,
            &Pacing::Closed,
            true,
        )?);
    }
    let sum = |f: fn(&ServedPass) -> f64| traced.iter().map(f).sum::<f64>();
    let events = sum(|p| p.events as f64);
    let outputs = sum(|p| p.outputs as f64).max(1.0);
    metrics.push(
        "client.encode_ns_per_event",
        "ns",
        sum(|p| p.client.encode_s) * 1e9 / events,
    );
    metrics.push(
        "client.write_ns_per_event",
        "ns",
        sum(|p| p.client.write_s) * 1e9 / events,
    );
    metrics.push(
        "client.outputs_decode_ns_per_output",
        "ns",
        sum(|p| p.client.decode_s) * 1e9 / outputs,
    );
    metrics.push(
        "server.bytes_in_per_event",
        "B",
        sum(|p| p.client.bytes_in as f64) / events,
    );
    metrics.push(
        "server.bytes_out_per_output",
        "B",
        sum(|p| p.client.bytes_out as f64) / outputs,
    );
    metrics.push("server.ack_eps", "1/s", events / sum(|p| p.acked_s));
    let scraped = &traced[traced.len() - 1].metrics_doc;
    metrics.push(
        "server.queue_depth_peak",
        "count",
        json_number(scraped, &format!("queue_high_water\":{{\"{TENANT}")),
    );
    metrics.push(
        "server.rejected_frames",
        "count",
        json_number(scraped, "ingest_rejected"),
    );
    metrics.push(
        "bench.trace_overhead_share",
        "share",
        1.0 - throughput(&traced) / throughput(&untraced),
    );

    // The same stream and model through an embedded engine.
    let built = embedded::build(spec);
    let config = embedded::engine_config(spec, ObservabilityLevel::Off);
    let embedded_passes = embedded::capacity_phase(
        &built,
        config,
        &capacity_inputs.events,
        args.seconds * 0.15,
        3,
        None,
    );
    metrics.push(
        "server.vs_embedded_ratio",
        "ratio",
        throughput(&untraced) / embedded::throughput(&embedded_passes),
    );

    // Highest of 0.5x / 1x / 2x the fixed rate that holds.
    let mut probes = Vec::new();
    let mut sustained = 0.0;
    for factor in [0.5, 1.0, 2.0] {
        let rate_eps = spec.rate_eps * factor;
        let pacing = Pacing::Open {
            rate_eps,
            seconds: args.seconds * 0.15,
        };
        let probe = run_pass(&binary, spec, inputs, &pacing, false)?;
        let p99 = quantile(&probe.samples, 0.99) / 1000.0;
        println!(
            "# rate {rate_eps} ev/s: p99 {p99} us, backlog {} events",
            probe.backlog_end
        );
        if p99 <= SUSTAINED_P99_US && probe.backlog_end == 0 {
            sustained = rate_eps;
        }
        probes.push(probe);
    }
    metrics.push("server.sustained_rate_eps", "1/s", sustained);
    push_open_loop(&mut metrics, &probes[1]);

    let spawns: Vec<&ServedPass> = untraced.iter().chain(&traced).chain(&probes).collect();
    let mut ready_ms: Vec<f64> = spawns
        .iter()
        .map(|p| p.spawn_to_ready.as_secs_f64() * 1e3)
        .collect();
    metrics.push("server.spawn_to_ready_ms", "ms", median(&mut ready_ms));
    layers::replay_layers(spec, &built, inputs, &mut metrics);
    layers::replay_state(spec, &built, inputs, &mut metrics);

    let closed: Vec<&ServedPass> = untraced.iter().chain(&traced).collect();
    let (mut wrong, mut notes) = verify(spec, &capacity_inputs, &closed);
    let (wrong_open, notes_open) = verify(spec, inputs, &probes.iter().collect::<Vec<_>>());
    wrong += wrong_open;
    notes.extend(notes_open);
    if embedded_passes[0].digest != traced[0].digest {
        wrong += 1;
        notes.push("served outputs differ from the embedded engine's on the same stream".into());
    }
    Ok(Outcome {
        metrics,
        attempted: spawns.iter().map(|p| p.events).sum(),
        failed: spawns.iter().map(|p| p.failed).sum::<u64>() + wrong,
        notes,
    })
}
