//! Graceful drain and admission control.
//!
//! The zero-loss contract under test: every acknowledged `INGEST` is
//! fully processed before the server exits, and the outputs a
//! subscribed client collects across a drain are byte-identical to an
//! embedded (in-process, single-engine) run of the same stream —
//! including across a SIGINT drain and across a checkpoint/resume
//! split.

mod common;

use caesar_server::{
    signal, Client, ErrorCode, Request, Response, Server, ServerConfig, TenantConfig,
};
use std::time::Duration;

fn served_config(name: &str, shards: usize) -> ServerConfig {
    ServerConfig {
        tenants: vec![common::tenant(name, shards)],
        ..ServerConfig::default()
    }
}

/// Subscribes, ingests every event (acked one frame at a time — the
/// simplest ack window), and returns the client with outputs stashed.
fn subscribe_and_ingest(addr: std::net::SocketAddr, tenant: &str, events: &[Event]) -> Client {
    let mut client = Client::connect(addr).unwrap();
    assert_eq!(
        client
            .roundtrip(&Request::Subscribe {
                tenant: tenant.into()
            })
            .unwrap(),
        Response::Ack
    );
    for chunk in events.chunks(16) {
        let reply = client
            .roundtrip(&Request::Ingest {
                tenant: tenant.into(),
                events: chunk.to_vec(),
            })
            .unwrap();
        assert_eq!(reply, Response::Ack);
    }
    client
}

use caesar_core::prelude::Event;

#[test]
fn sigint_drain_loses_nothing_served_equals_embedded() {
    let events = common::gen_events(240, 5);
    let (embedded_outputs, embedded_report) = common::embedded_run(&events);
    assert!(
        !embedded_outputs.is_empty(),
        "fixture must derive outputs for the test to mean anything"
    );

    signal::reset();
    let handle = Server::start(ServerConfig {
        drain_on_signal: true,
        ..served_config("traffic", 3)
    })
    .unwrap();

    let mut client = subscribe_and_ingest(handle.addr(), "traffic", &events);

    // Everything is acked; now ctrl-c the process.
    signal::raise_sigint();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert!(
        client.drain_to_shutdown().unwrap(),
        "drain ends in SHUTDOWN_OK"
    );
    let summary = handle.join();
    assert!(summary.clean(), "{:?}", summary.tenants);
    signal::reset();

    // Zero loss, byte-for-byte: a drain without a checkpoint directory
    // finishes the engines, so the subscriber saw the final watermark
    // flush too.
    let served = client.take_outputs();
    assert_eq!(served.len(), embedded_outputs.len());
    assert_eq!(
        common::canonical(&served),
        common::canonical(&embedded_outputs)
    );
    assert_eq!(summary.tenants[0].1.events_out, embedded_report.events_out);
}

#[test]
fn checkpoint_drain_then_resume_completes_the_stream_exactly() {
    let events = common::gen_events(300, 4);
    let (embedded_outputs, embedded_report) = common::embedded_run(&events);
    let (first_half, second_half) = events.split_at(events.len() / 2);

    let dir = common::scratch_dir("resume");

    // Session 1: ingest the first half, drain with checkpointing.
    let handle = Server::start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..served_config("traffic", 3)
    })
    .unwrap();
    let mut client = subscribe_and_ingest(handle.addr(), "traffic", first_half);
    handle.shutdown();
    client
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    assert!(client.drain_to_shutdown().unwrap());
    let summary = handle.join();
    assert!(summary.clean(), "{:?}", summary.tenants);
    assert!(summary.tenants[0].1.checkpointed);
    let mut outputs = client.take_outputs();

    // The shard snapshots exist where the next session will look.
    for shard in 0..3 {
        assert!(dir
            .join("traffic")
            .join(format!("shard-{shard}.caesnap"))
            .exists());
    }

    // Session 2: resume from the checkpoints, ingest the rest, FINISH.
    let handle = Server::start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..served_config("traffic", 3)
    })
    .unwrap();
    let mut client = subscribe_and_ingest(handle.addr(), "traffic", second_half);
    let reply = client
        .roundtrip(&Request::Finish {
            tenant: "traffic".into(),
        })
        .unwrap();
    let Response::Report(report) = reply else {
        panic!("expected report, got {reply:?}");
    };
    outputs.extend(client.take_outputs());
    handle.shutdown();
    let _ = client.drain_to_shutdown();
    outputs.extend(client.take_outputs());
    handle.join();
    let _ = std::fs::remove_dir_all(&dir);

    // The split-and-resumed stream derived exactly the embedded run's
    // outputs, and the resumed session's report covers the whole stream
    // (engine counters are part of the restored state).
    assert_eq!(
        common::canonical(&outputs),
        common::canonical(&embedded_outputs)
    );
    assert_eq!(report.events_in, events.len() as u64);
    assert_eq!(report.events_out, embedded_report.events_out);
}

#[test]
fn partial_checkpoint_set_refuses_resume() {
    let dir = common::scratch_dir("partial");
    let tenant_dir = dir.join("traffic");
    std::fs::create_dir_all(&tenant_dir).unwrap();
    // One of three shard snapshots present (and not even a valid one —
    // presence alone must trigger the refusal before parsing).
    std::fs::write(tenant_dir.join("shard-0.caesnap"), b"stub").unwrap();

    let err = Server::start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..served_config("traffic", 3)
    })
    .err()
    .expect("partial snapshot set must refuse to start");
    assert!(err.to_string().contains("partial"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn incompatible_checkpoint_refuses_resume() {
    let dir = common::scratch_dir("incompatible");
    // Checkpoint a drain of the fixture model...
    let handle = Server::start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        ..served_config("traffic", 2)
    })
    .unwrap();
    let mut client = subscribe_and_ingest(handle.addr(), "traffic", &common::gen_events(60, 2));
    handle.shutdown();
    assert!(client.drain_to_shutdown().unwrap());
    assert!(handle.join().tenants[0].1.checkpointed);

    // ...and restart with the same-shape model, one WHERE constant
    // changed: another program, so the start itself fails.
    let edited = common::MODEL.replace(r#"!= "exit""#, r#"!= "travel""#);
    let (program, registry, _) = common::builder()
        .model_text(&edited)
        .build_program()
        .expect("edited model builds");
    let mut tenant = TenantConfig::new("traffic", program, registry);
    tenant.shards = 2;
    let err = Server::start(ServerConfig {
        checkpoint_dir: Some(dir.clone()),
        tenants: vec![tenant],
        ..ServerConfig::default()
    })
    .err()
    .expect("a snapshot of another program must refuse to start");
    assert!(err.to_string().contains("different program"), "{err}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn full_queue_rejects_with_typed_error_never_drops() {
    // A router stalled 300 ms per ingest against a 1-deep queue and a
    // ~0 admission timeout: the first frame is popped and held, the
    // second occupies the queue, the third must be rejected —
    // deterministically, with the value returned, never silently.
    let mut tenant = common::tenant("traffic", 1);
    tenant.queue_capacity = 1;
    tenant.ingest_hold = Duration::from_millis(300);
    let handle = Server::start(ServerConfig {
        tenants: vec![tenant],
        admission_timeout: Duration::from_millis(10),
        ..ServerConfig::default()
    })
    .unwrap();

    let events = common::gen_events(30, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    for chunk in events.chunks(10) {
        client
            .send(&Request::Ingest {
                tenant: "traffic".into(),
                events: chunk.to_vec(),
            })
            .unwrap();
    }
    let replies: Vec<Response> = (0..3)
        .map(|_| client.recv_control().unwrap().unwrap())
        .collect();
    assert_eq!(replies[0], Response::Ack, "popped and held by the router");
    assert_eq!(replies[1], Response::Ack, "sits in the 1-deep queue");
    assert!(
        matches!(
            replies[2],
            Response::Error {
                code: ErrorCode::QueueFull,
                ..
            }
        ),
        "{:?}",
        replies[2]
    );

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn slow_consumer_is_throttled_not_rejected_given_time() {
    // Same stall, but a generous admission timeout: every frame is
    // eventually admitted — backpressure throttles the producer instead
    // of erroring, and nothing is lost.
    let mut tenant = common::tenant("traffic", 1);
    tenant.queue_capacity = 1;
    tenant.ingest_hold = Duration::from_millis(50);
    let handle = Server::start(ServerConfig {
        tenants: vec![tenant],
        admission_timeout: Duration::from_secs(30),
        ..ServerConfig::default()
    })
    .unwrap();

    let events = common::gen_events(40, 2);
    let mut client = Client::connect(handle.addr()).unwrap();
    let start = std::time::Instant::now();
    for chunk in events.chunks(10) {
        let reply = client
            .roundtrip(&Request::Ingest {
                tenant: "traffic".into(),
                events: chunk.to_vec(),
            })
            .unwrap();
        assert_eq!(reply, Response::Ack);
    }
    // Four held ingests at 50 ms each: the throttle must have cost
    // visible wall-clock time (i.e. the pushes actually waited).
    assert!(
        start.elapsed() >= Duration::from_millis(150),
        "acks arrived too fast for the stall to have throttled: {:?}",
        start.elapsed()
    );

    let reply = client
        .roundtrip(&Request::Finish {
            tenant: "traffic".into(),
        })
        .unwrap();
    let Response::Report(report) = reply else {
        panic!("expected report, got {reply:?}");
    };
    assert_eq!(report.events_in, events.len() as u64, "nothing dropped");

    handle.shutdown();
    assert!(handle.join().clean());
}
