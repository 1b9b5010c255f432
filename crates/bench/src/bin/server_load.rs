//! Multi-tenant server loopback load generator.
//!
//! Starts an in-process `caesar-server` hosting independent tenants
//! (one traffic model each, sharded), then drives one framed TCP
//! connection per tenant with windowed pipelined `INGEST` frames and
//! measures sustained acknowledged throughput. Every tenant is
//! `FINISH`ed at the end and its report must account for every event
//! sent — an ack that outruns processing would show up here. After the
//! soak `/metrics` is scraped once: a tenant that handed its shards more
//! runs than `frames × shards` has gone back to per-event hand-offs, and
//! the run fails.
//!
//! Defaults: 8 tenants × 2 shards, 128 partitions per tenant (1024
//! concurrent partitions), 150k events per tenant (1.2M total), frames
//! of 512 events, ack window of 8 frames.
//!
//! ```text
//! cargo run --release -p caesar-bench --bin server_load
//! ```
//!
//! Besides the printed table, results are written to
//! `BENCH_server.json` in the current directory; EXPERIMENTS.md
//! records a committed run. Knobs (environment variables):
//! `CAESAR_LOAD_TENANTS`, `CAESAR_LOAD_SHARDS`,
//! `CAESAR_LOAD_PARTITIONS` (per tenant), `CAESAR_LOAD_EVENTS` (per
//! tenant), `CAESAR_LOAD_FRAME` (events per frame),
//! `CAESAR_LOAD_WINDOW` (frames in flight).

use caesar_bench::print_table;
use caesar_core::prelude::*;
use caesar_server::{Client, Request, Response, Server, ServerConfig, TenantConfig};
use std::time::Instant;

const MODEL: &str = r#"
    MODEL traffic DEFAULT clear
    CONTEXT clear {
        SWITCH CONTEXT congestion PATTERN ManySlowCars
    }
    CONTEXT congestion {
        SWITCH CONTEXT clear PATTERN FewFastCars
        DERIVE TollNotification(p.vid, p.sec, 5)
            PATTERN PositionReport p WHERE p.lane != "exit"
    }
"#;

fn builder() -> CaesarBuilder {
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
        .model_text(MODEL)
}

/// Deterministic timestamp-ordered stream over `partitions` partitions
/// with periodic context switches (seeded per tenant so tenants do not
/// send identical bytes).
fn gen_events(n: usize, partitions: u32, salt: u64) -> Vec<Event> {
    let sys = builder().build().expect("load model builds");
    let mut out = Vec::with_capacity(n + n / 10);
    for t in 1..=n as u64 {
        let p = PartitionId(
            ((t.wrapping_mul(2654435761).wrapping_add(salt)) % u64::from(partitions)) as u32,
        );
        if t % 40 == 1 {
            let e = sys
                .event("ManySlowCars", t)
                .unwrap()
                .partition(p)
                .attr("seg", 1i64)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
        if t % 40 == 25 {
            let e = sys
                .event("FewFastCars", t)
                .unwrap()
                .partition(p)
                .attr("seg", 1i64)
                .unwrap()
                .build()
                .unwrap();
            out.push(e);
        }
        let lane = if t % 7 == 0 { "exit" } else { "travel" };
        let e = sys
            .event("PositionReport", t)
            .unwrap()
            .partition(p)
            .attr("vid", ((t ^ salt) % 997) as i64)
            .unwrap()
            .attr("sec", t as i64)
            .unwrap()
            .attr("lane", lane)
            .unwrap()
            .build()
            .unwrap();
        out.push(e);
    }
    out
}

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

struct ConnResult {
    tenant: String,
    events: u64,
    events_out: u64,
    elapsed_s: f64,
}

/// Drives one tenant over one connection: windowed pipelined ingest,
/// then `FINISH`, asserting the report covers every event sent.
fn drive(
    addr: std::net::SocketAddr,
    tenant: String,
    events: Vec<Event>,
    frame: usize,
    window: usize,
) -> ConnResult {
    let mut client = Client::connect(addr).expect("connect");
    let total = events.len() as u64;
    let chunks: Vec<&[Event]> = events.chunks(frame.max(1)).collect();
    let start = Instant::now();
    let mut in_flight = 0usize;
    for chunk in &chunks {
        client
            .send(&Request::Ingest {
                tenant: tenant.clone(),
                events: chunk.to_vec(),
            })
            .expect("send");
        in_flight += 1;
        if in_flight >= window.max(1) {
            expect_ack(&mut client, &tenant);
            in_flight -= 1;
        }
    }
    for _ in 0..in_flight {
        expect_ack(&mut client, &tenant);
    }
    let elapsed_s = start.elapsed().as_secs_f64();
    let report = match client.roundtrip(&Request::Finish {
        tenant: tenant.clone(),
    }) {
        Ok(Response::Report(report)) => report,
        other => panic!("tenant {tenant}: finish reply {other:?}"),
    };
    assert_eq!(
        report.events_in, total,
        "tenant {tenant}: report must account for every acked event"
    );
    ConnResult {
        tenant,
        events: total,
        events_out: report.events_out,
        elapsed_s,
    }
}

fn expect_ack(client: &mut Client, tenant: &str) {
    match client.recv_control() {
        Ok(Some(Response::Ack)) => {}
        other => panic!("tenant {tenant}: expected ack, got {other:?}"),
    }
}

/// Scrapes `/metrics` and fails if any tenant's `hand_offs` entry shows
/// more shard runs than `ingest_frames × shards`.
fn check_hand_offs(addr: std::net::SocketAddr, tenants: usize) {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect /metrics");
    stream
        .write_all(b"GET /metrics HTTP/1.0\r\n\r\n")
        .expect("request /metrics");
    let mut doc = String::new();
    stream.read_to_string(&mut doc).expect("read /metrics");
    let (_, hand_offs) = doc
        .split_once("\"hand_offs\":{")
        .expect("/metrics has a hand_offs section");
    for i in 0..tenants {
        let (_, rest) = hand_offs
            .split_once(&format!("\"t{i}\":{{"))
            .expect("every tenant has a hand_offs entry");
        let entry = rest.split_once('}').expect("entry closes").0;
        let field = |key: &str| -> u64 {
            entry
                .split(',')
                .find_map(|pair| pair.strip_prefix(&format!("\"{key}\":")))
                .and_then(|n| n.parse().ok())
                .unwrap_or_else(|| panic!("t{i}: no {key} in {entry}"))
        };
        let (runs, frames, shards) = (field("shard_runs"), field("ingest_frames"), field("shards"));
        assert!(
            runs <= frames * shards,
            "t{i}: {runs} shard runs for {frames} frames on {shards} shards"
        );
    }
    println!("hand-offs: shard_runs <= ingest_frames x shards on all {tenants} tenants");
}

fn main() {
    let tenants = env_usize("CAESAR_LOAD_TENANTS", 8).max(1);
    let shards = env_usize("CAESAR_LOAD_SHARDS", 2).max(1);
    let partitions = env_usize("CAESAR_LOAD_PARTITIONS", 128).max(1) as u32;
    let events_per_tenant = env_usize("CAESAR_LOAD_EVENTS", 150_000).max(1);
    let frame = env_usize("CAESAR_LOAD_FRAME", 512);
    let window = env_usize("CAESAR_LOAD_WINDOW", 8);

    let mut configs = Vec::with_capacity(tenants);
    for i in 0..tenants {
        let (program, registry, _explain) = builder().build_program().expect("load model builds");
        let mut tc = TenantConfig::new(format!("t{i}"), program, registry);
        tc.shards = shards;
        tc.queue_capacity = 4096;
        configs.push(tc);
    }
    let handle = Server::start(ServerConfig {
        tenants: configs,
        metrics_listen: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let addr = handle.addr();

    println!(
        "loopback load: {tenants} tenants x {shards} shards, {} partitions total, \
         {events_per_tenant} events/tenant, frames of {frame}, window {window}",
        tenants as u32 * partitions
    );

    // Streams first, clock second: the wall time is the server's, not
    // the generator's.
    let streams: Vec<Vec<Event>> = (0..tenants)
        .map(|i| gen_events(events_per_tenant, partitions, 0x9E37 * (i as u64 + 1)))
        .collect();
    let start = Instant::now();
    let threads: Vec<_> = streams
        .into_iter()
        .enumerate()
        .map(|(i, events)| {
            let tenant = format!("t{i}");
            std::thread::spawn(move || drive(addr, tenant, events, frame, window))
        })
        .collect();
    let results: Vec<ConnResult> = threads
        .into_iter()
        .map(|t| t.join().expect("connection thread"))
        .collect();
    let wall_s = start.elapsed().as_secs_f64();

    check_hand_offs(handle.metrics_addr().expect("metrics listener"), tenants);
    handle.shutdown();
    let summary = handle.join();
    assert!(summary.clean(), "{:?}", summary.tenants);

    let events_total: u64 = results.iter().map(|r| r.events).sum();
    let aggregate_evs = events_total as f64 / wall_s;
    let rows: Vec<Vec<String>> = results
        .iter()
        .map(|r| {
            vec![
                r.tenant.clone(),
                r.events.to_string(),
                r.events_out.to_string(),
                format!("{:.3}", r.elapsed_s),
                format!("{:.0}", r.events as f64 / r.elapsed_s),
            ]
        })
        .collect();
    print_table(
        "multi-tenant loopback ingest (acked, processed-on-finish)",
        &["tenant", "events", "outputs", "secs", "events/s"],
        &rows,
    );
    println!(
        "\naggregate: {events_total} events in {wall_s:.3}s = {aggregate_evs:.0} events/s sustained"
    );

    let json_rows: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                " {{\"tenant\": \"{}\", \"events\": {}, \"events_out\": {}, \"elapsed_s\": {:.3}, \"events_per_sec\": {:.1}}}",
                r.tenant,
                r.events,
                r.events_out,
                r.elapsed_s,
                r.events as f64 / r.elapsed_s
            )
        })
        .collect();
    let json = format!(
        "{{\n\"benchmark\": \"multi-tenant server loopback ingest\",\n\
         \"unit\": \"acknowledged events per second of wall time; every ack verified against the FINISH report\",\n\
         \"config\": {{\"tenants\": {tenants}, \"shards_per_tenant\": {shards}, \
         \"partitions_per_tenant\": {partitions}, \"partitions_total\": {}, \
         \"connections\": {tenants}, \"events_per_tenant\": {events_per_tenant}, \
         \"frame_events\": {frame}, \"window_frames\": {window}}},\n\
         \"rows\": [\n{}\n],\n\
         \"aggregate\": {{\"events\": {events_total}, \"elapsed_s\": {wall_s:.3}, \"events_per_sec\": {aggregate_evs:.1}}}\n}}\n",
        tenants as u32 * partitions,
        json_rows.join(",\n")
    );
    std::fs::write("BENCH_server.json", &json).expect("write BENCH_server.json");
    println!("wrote BENCH_server.json");
}
