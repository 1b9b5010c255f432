//! Shared fixture for the server integration tests: one small traffic
//! model, deterministic event generation, and an embedded reference run
//! for equivalence checks.

// Each integration-test binary compiles this module separately and uses
// its own subset of the helpers.
#![allow(dead_code)]

use caesar_core::prelude::*;
use caesar_server::TenantConfig;

pub const MODEL: &str = r#"
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

pub fn builder() -> CaesarBuilder {
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

/// A tenant hosting the fixture model.
pub fn tenant(name: &str, shards: usize) -> TenantConfig {
    let (program, registry, _explain) = builder().build_program().expect("fixture model builds");
    let mut tc = TenantConfig::new(name, program, registry);
    tc.shards = shards;
    tc
}

/// Deterministic timestamp-ordered stream over `partitions` partitions:
/// position reports with periodic context switches, so a prefix of any
/// length leaves some contexts mid-congestion (the interesting state
/// for drain/checkpoint tests).
pub fn gen_events(n: usize, partitions: u32) -> Vec<Event> {
    let sys = builder().build().expect("fixture model builds");
    let mut out = Vec::with_capacity(n);
    for t in 1..=n as u64 {
        let p = PartitionId((t % u64::from(partitions)) as u32);
        if t % 20 == 1 {
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
        if t % 20 == 15 {
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
            .attr("vid", (t % 50) as i64)
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

/// Runs the fixture model embedded (single engine, outputs collected)
/// over the events and returns `(outputs, report)` — the reference the
/// served runs must match byte-for-byte.
pub fn embedded_run(events: &[Event]) -> (Vec<Event>, RunReport) {
    let mut sys = builder()
        .engine_config(EngineConfig::builder().collect_outputs(true).build())
        .build()
        .expect("fixture model builds");
    for e in events {
        sys.ingest(e.clone()).expect("embedded ingest");
    }
    let report = sys.finish();
    let outputs = std::mem::take(&mut sys.engine.collected_outputs);
    (outputs, report)
}

/// Order-insensitive byte-exact form: each event's codec encoding,
/// sorted. Shards interleave outputs arbitrarily; the *set* must match
/// exactly.
pub fn canonical(events: &[Event]) -> Vec<Vec<u8>> {
    let mut enc: Vec<Vec<u8>> = events
        .iter()
        .map(|e| caesar_core::events::codec::encode_all(std::slice::from_ref(e)).to_vec())
        .collect();
    enc.sort();
    enc
}

/// A unique scratch directory under the system temp dir, pre-cleaned.
pub fn scratch_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("caesar-server-test-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `GET path` against the `/metrics` listener (HTTP/1.0, so the
/// response ends when the server closes): status line, headers, body.
pub fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\nHost: localhost\r\n\r\n").as_bytes())
        .unwrap();
    let mut body = String::new();
    stream.read_to_string(&mut body).unwrap();
    body
}
