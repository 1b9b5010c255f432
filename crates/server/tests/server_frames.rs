//! The frame is the unit of hand-off, never of meaning: however a
//! stream is cut into `INGEST` frames it derives the same outputs and
//! the same `FINISH` report; a frame that fails in the middle delivers
//! what came before the failure and nothing after; and `/metrics`
//! shows runs and output frames growing with the frames, not with the
//! events.

mod common;

use caesar_core::events::codec::encode_to_vec;
use caesar_core::events::OutputRecord;
use caesar_core::prelude::*;
use caesar_server::{Client, ErrorCode, Request, Response, Server, ServerConfig, TenantReport};
use std::collections::BTreeMap;
use std::net::SocketAddr;

const TENANT: &str = "traffic";
/// Disorder bound of [`disordered_stream`], and the tenants' slack.
const SLACK: u64 = 4;

/// A seeded stream over 4 partitions, three events per tick, each
/// arriving up to [`SLACK`] ticks late; context switches per partition
/// every few ticks, so outputs depend on which events share a
/// transaction with which.
fn disordered_stream(seed: u64, n: usize) -> Vec<Event> {
    let sys = common::builder().build().expect("fixture model builds");
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = |below: u64| {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 33) % below
    };
    (0..n as u64)
        .map(|i| {
            let t = SLACK + i / 3 - next(SLACK + 1);
            let partition = PartitionId(next(4) as u32);
            let event = match next(8) {
                0 => sys.event("ManySlowCars", t).unwrap().attr("seg", 1i64),
                1 => sys.event("FewFastCars", t).unwrap().attr("seg", 1i64),
                k => sys
                    .event("PositionReport", t)
                    .unwrap()
                    .attr("vid", (i % 50) as i64)
                    .unwrap()
                    .attr("sec", t as i64)
                    .unwrap()
                    .attr("lane", if k == 2 { "exit" } else { "travel" }),
            };
            event.unwrap().partition(partition).build().unwrap()
        })
        .collect()
}

fn engine_config(consistency: Consistency, slack: u64) -> EngineConfig {
    EngineConfig::builder()
        .reorder_slack(slack)
        .consistency(consistency)
        .collect_outputs(true)
        .build()
}

fn start(shards: usize, config: EngineConfig) -> caesar_server::ServerHandle {
    let mut tenant = common::tenant(TENANT, shards);
    tenant.engine_config = config;
    Server::start(ServerConfig {
        tenants: vec![tenant],
        metrics_listen: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("server starts")
}

fn subscribed(addr: SocketAddr) -> Client {
    let mut client = Client::connect(addr).unwrap();
    let reply = client.roundtrip(&Request::Subscribe {
        tenant: TENANT.into(),
    });
    assert_eq!(reply.unwrap(), Response::Ack);
    client
}

fn ingest(client: &mut Client, events: &[Event]) -> Response {
    client
        .roundtrip(&Request::Ingest {
            tenant: TENANT.into(),
            events: events.to_vec(),
        })
        .unwrap()
}

/// What one served pass of a stream produced.
struct Served {
    /// Emissions minus retractions, as sorted event encodings.
    settled: Vec<Vec<u8>>,
    retractions: usize,
    report: TenantReport,
    hand_offs: HandOffs,
}

/// The `hand_offs` entry of [`TENANT`] in a `/metrics` document.
#[derive(Debug)]
struct HandOffs {
    shards: u64,
    ingest_frames: u64,
    ingest_events: u64,
    shard_runs: u64,
    output_frames: u64,
    output_events: u64,
}

fn scrape_hand_offs(addr: SocketAddr) -> HandOffs {
    let doc = common::http_get(addr, "/metrics");
    let entry = doc
        .split_once("\"hand_offs\":{")
        .and_then(|(_, rest)| rest.split_once(&format!("\"{TENANT}\":{{")))
        .and_then(|(_, rest)| rest.split_once('}'))
        .unwrap_or_else(|| panic!("no hand_offs entry for {TENANT} in {doc}"))
        .0;
    let field = |key: &str| -> u64 {
        entry
            .split(',')
            .find_map(|pair| pair.strip_prefix(&format!("\"{key}\":")))
            .unwrap_or_else(|| panic!("no {key} in {entry}"))
            .parse()
            .unwrap()
    };
    HandOffs {
        shards: field("shards"),
        ingest_frames: field("ingest_frames"),
        ingest_events: field("ingest_events"),
        shard_runs: field("shard_runs"),
        output_frames: field("output_frames"),
        output_events: field("output_events"),
    }
}

/// Folds an emission/retraction ledger: every retraction must cancel
/// an emission delivered before it.
fn settle(records: &[OutputRecord]) -> Vec<Vec<u8>> {
    let mut live: BTreeMap<Vec<u8>, usize> = BTreeMap::new();
    for record in records {
        let key = encode_to_vec(record.event());
        if record.is_retraction() {
            let count = live.get_mut(&key).expect("retraction of nothing");
            *count -= 1;
            if *count == 0 {
                live.remove(&key);
            }
        } else {
            *live.entry(key).or_insert(0) += 1;
        }
    }
    live.into_iter()
        .flat_map(|(key, count)| std::iter::repeat_n(key, count))
        .collect()
}

fn serve(events: &[Event], frame: usize, shards: usize, consistency: Consistency) -> Served {
    let handle = start(shards, engine_config(consistency, SLACK));
    let mut client = subscribed(handle.addr());
    for chunk in events.chunks(frame) {
        assert_eq!(ingest(&mut client, chunk), Response::Ack);
    }
    // The shards publish their final flush before the report is sent,
    // on this connection's own queue: once it is here, so is every
    // output.
    let reply = client.roundtrip(&Request::Finish {
        tenant: TENANT.into(),
    });
    let Response::Report(report) = reply.unwrap() else {
        panic!("FINISH not answered with a report");
    };
    let records = client.take_records();
    let hand_offs = scrape_hand_offs(handle.metrics_addr().unwrap());
    handle.shutdown();
    assert!(handle.join().clean());
    Served {
        settled: settle(&records),
        retractions: records.iter().filter(|r| r.is_retraction()).count(),
        report,
        hand_offs,
    }
}

#[test]
fn outputs_and_report_do_not_depend_on_how_the_stream_is_framed() {
    let events = disordered_stream(7, 1500);
    let mut embedded = common::builder()
        .engine_config(engine_config(Consistency::Strict, SLACK))
        .build()
        .unwrap();
    for event in &events {
        embedded.ingest(event.clone()).unwrap();
    }
    let embedded_report = embedded.finish();
    let expected = common::canonical(&embedded.engine.collected_outputs);
    assert!(expected.len() > 100, "the stream must derive outputs");

    let mut speculative_retractions = 0;
    let mut reports = Vec::new();
    for consistency in [Consistency::Strict, Consistency::Speculative] {
        for shards in [1, 2] {
            for frame in [1, 7, 512] {
                let leg = format!("{consistency:?}, {shards} shard(s), frames of {frame}");
                let served = serve(&events, frame, shards, consistency);
                // One-event encodings sort the same way `canonical`'s do.
                assert_eq!(served.settled, expected, "{leg}");
                assert_eq!(served.report.events_in, embedded_report.events_in, "{leg}");
                assert_eq!(served.report.events_out, expected.len() as u64, "{leg}");
                if consistency == Consistency::Strict {
                    assert_eq!(served.retractions, 0, "{leg}");
                } else {
                    speculative_retractions += served.retractions;
                }
                reports.push((leg, served.report));
            }
        }
    }
    assert!(
        speculative_retractions > 0,
        "the speculative legs must exercise RETRACT frames"
    );
    let (_, first) = &reports[0];
    for (leg, report) in &reports {
        assert_eq!(report, first, "{leg}");
    }
}

#[test]
fn a_frame_failing_in_the_middle_delivers_what_came_before_it_and_nothing_after() {
    // In order except for one event, alone at its timestamp, in the
    // middle of the frame; no slack, so the engine refuses it.
    let mut events = common::gen_events(120, 4);
    let bad = 70;
    let stale = events[10].clone();
    events.insert(bad, stale);

    // What an engine derives from the events before the bad one (no
    // finish: the last tick stays buffered).
    let mut embedded = common::builder()
        .engine_config(engine_config(Consistency::Strict, 0))
        .build()
        .unwrap();
    for event in &events[..bad] {
        embedded.ingest(event.clone()).unwrap();
    }
    let expected = common::canonical(&embedded.engine.collected_outputs);
    assert!(!expected.is_empty());
    assert!(embedded.ingest(events[bad].clone()).is_err());

    let handle = start(1, engine_config(Consistency::Strict, 0));
    let mut client = subscribed(handle.addr());
    // Admission acks the frame; execution then fails inside it.
    assert_eq!(ingest(&mut client, &events), Response::Ack);
    // A barrier either passes (the failure is reported from the next
    // request on) or is already refused; both mean the frame ran.
    let _ = client.roundtrip(&Request::Flush {
        tenant: TENANT.into(),
    });
    for request in [
        Request::Ingest {
            tenant: TENANT.into(),
            events: common::gen_events(5, 1),
        },
        Request::Finish {
            tenant: TENANT.into(),
        },
    ] {
        let reply = client.roundtrip(&request).unwrap();
        assert!(
            matches!(
                reply,
                Response::Error {
                    code: ErrorCode::Internal,
                    ..
                }
            ),
            "{reply:?}"
        );
    }
    assert_eq!(common::canonical(&client.take_outputs()), expected);

    handle.shutdown();
    let summary = handle.join();
    let outcome = &summary.tenants[0].1;
    assert!(outcome.error.is_some(), "{outcome:?}");
    // The failing event was counted on its way in; none after it was.
    assert!(outcome.events_in <= bad as u64 + 1, "{outcome:?}");
}

#[test]
fn runs_and_output_frames_grow_with_frames_not_events() {
    let events = disordered_stream(11, 3000);
    let frames = events.chunks(512).count() as u64;
    for shards in [1, 2] {
        let served = serve(&events, 512, shards, Consistency::Strict);
        let h = &served.hand_offs;
        assert_eq!(h.shards, shards as u64, "{h:?}");
        assert_eq!(h.ingest_frames, frames, "{h:?}");
        assert_eq!(h.ingest_events, events.len() as u64, "{h:?}");
        assert_eq!(h.output_events, served.report.events_out, "{h:?}");
        // At most one run per frame and shard, at most one OUTPUTS
        // frame per run plus each shard's finish flush. A hand-off per
        // event or per timestamp reads in the thousands here.
        assert!(h.shard_runs <= h.ingest_frames * h.shards, "{h:?}");
        assert!(h.output_frames <= h.shard_runs + h.shards, "{h:?}");
        if shards == 1 {
            assert_eq!(h.shard_runs, h.ingest_frames, "{h:?}");
        }
    }
    // A speculative step may split into alternating OUTPUTS / RETRACT
    // frames, so only the run bound holds there.
    let served = serve(&events, 512, 2, Consistency::Speculative);
    let h = &served.hand_offs;
    assert!(h.shard_runs <= h.ingest_frames * h.shards, "{h:?}");
}
