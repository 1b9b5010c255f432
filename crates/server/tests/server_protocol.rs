//! Protocol robustness: hostile or unlucky wire input must produce a
//! typed error or a clean close — never a panic, never a wedged accept
//! loop, never a half-dead server.

mod common;

use caesar_server::{Client, ErrorCode, Request, Response, Server, ServerConfig};
use std::io::Write;
use std::net::TcpStream;
use std::time::Duration;

fn start_server(config: ServerConfig) -> caesar_server::ServerHandle {
    Server::start(config).expect("server starts")
}

fn two_tenant_config() -> ServerConfig {
    ServerConfig {
        tenants: vec![common::tenant("alpha", 2), common::tenant("beta", 1)],
        ..ServerConfig::default()
    }
}

#[test]
fn ping_pong_and_unknown_tenant() {
    let handle = start_server(two_tenant_config());
    let mut client = Client::connect(handle.addr()).unwrap();

    assert_eq!(client.roundtrip(&Request::Ping).unwrap(), Response::Pong);

    let reply = client
        .roundtrip(&Request::Ingest {
            tenant: "nope".into(),
            events: common::gen_events(3, 2),
        })
        .unwrap();
    assert!(
        matches!(
            reply,
            Response::Error {
                code: ErrorCode::UnknownTenant,
                ..
            }
        ),
        "{reply:?}"
    );
    let reply = client
        .roundtrip(&Request::Subscribe {
            tenant: "nope".into(),
        })
        .unwrap();
    assert!(matches!(
        reply,
        Response::Error {
            code: ErrorCode::UnknownTenant,
            ..
        }
    ));

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn malformed_frame_leaves_connection_usable() {
    let handle = start_server(two_tenant_config());
    let mut client = Client::connect(handle.addr()).unwrap();

    // Unknown kind byte.
    client.send_raw(&[0xFF, 1, 2, 3]).unwrap();
    let reply = client.recv_control().unwrap().unwrap();
    assert!(matches!(
        reply,
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    // Truncated tenant name.
    client.send_raw(&[0x02, 0xFF, 0x00, b'x']).unwrap();
    let reply = client.recv_control().unwrap().unwrap();
    assert!(matches!(
        reply,
        Response::Error {
            code: ErrorCode::Malformed,
            ..
        }
    ));
    // The length prefix was honest both times, so the stream is still
    // frame-synced and the same connection keeps working.
    assert_eq!(client.roundtrip(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn oversized_frame_is_rejected_then_closed() {
    let config = ServerConfig {
        max_frame_len: 1024,
        ..two_tenant_config()
    };
    let handle = start_server(config);
    let mut client = Client::connect(handle.addr()).unwrap();

    client.send_raw(&vec![0u8; 4096]).unwrap();
    let reply = client.recv_control().unwrap().unwrap();
    assert!(
        matches!(
            reply,
            Response::Error {
                code: ErrorCode::FrameTooLarge,
                ..
            }
        ),
        "{reply:?}"
    );
    // The body was never read, so the server cannot resync — it hangs
    // up on this connection. The unread body in the server's receive
    // buffer makes the close an RST on most stacks, so either a clean
    // EOF or a reset counts as "closed".
    match client.recv() {
        Ok(None) | Err(caesar_server::FrameError::Io(_)) => {}
        other => panic!("expected closed connection, got {other:?}"),
    }

    // ...but the accept loop is untouched: a fresh connection works.
    let mut next = Client::connect(handle.addr()).unwrap();
    assert_eq!(next.roundtrip(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn mid_frame_disconnect_does_not_wedge_the_server() {
    let handle = start_server(two_tenant_config());

    // Promise 100 bytes, deliver 10, vanish.
    {
        let mut raw = TcpStream::connect(handle.addr()).unwrap();
        raw.write_all(&100u32.to_le_bytes()).unwrap();
        raw.write_all(&[7u8; 10]).unwrap();
    } // dropped: RST/FIN mid-frame

    // Server keeps serving.
    let mut client = Client::connect(handle.addr()).unwrap();
    assert_eq!(client.roundtrip(&Request::Ping).unwrap(), Response::Pong);

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn finish_is_terminal_and_double_finish_is_typed() {
    let handle = start_server(two_tenant_config());
    let mut client = Client::connect(handle.addr()).unwrap();
    let events = common::gen_events(40, 4);

    let reply = client
        .roundtrip(&Request::Ingest {
            tenant: "alpha".into(),
            events: events.clone(),
        })
        .unwrap();
    assert_eq!(reply, Response::Ack);

    let reply = client
        .roundtrip(&Request::Finish {
            tenant: "alpha".into(),
        })
        .unwrap();
    let Response::Report(report) = reply else {
        panic!("expected report, got {reply:?}");
    };
    assert_eq!(report.events_in, events.len() as u64);

    // A second FINISH and a late INGEST are both typed rejections.
    let reply = client
        .roundtrip(&Request::Finish {
            tenant: "alpha".into(),
        })
        .unwrap();
    assert!(matches!(
        reply,
        Response::Error {
            code: ErrorCode::TenantFinished,
            ..
        }
    ));
    let reply = client
        .roundtrip(&Request::Ingest {
            tenant: "alpha".into(),
            events,
        })
        .unwrap();
    assert!(matches!(
        reply,
        Response::Error {
            code: ErrorCode::TenantFinished,
            ..
        }
    ));

    // The *other* tenant is untouched by alpha's end-of-stream.
    let reply = client
        .roundtrip(&Request::Ingest {
            tenant: "beta".into(),
            events: common::gen_events(5, 1),
        })
        .unwrap();
    assert_eq!(reply, Response::Ack);

    handle.shutdown();
    assert!(handle.join().clean());
}

#[test]
fn double_shutdown_from_two_connections_drains_once_cleanly() {
    let handle = start_server(two_tenant_config());
    let mut a = Client::connect(handle.addr()).unwrap();
    let mut b = Client::connect(handle.addr()).unwrap();

    a.send(&Request::Shutdown).unwrap();
    b.send(&Request::Shutdown).unwrap();

    // The connection whose frame was read first triggers the drain and
    // ends in SHUTDOWN_OK. The other races the drain's read-side
    // half-close: its frame may sit unread in the server's receive
    // buffer, which turns the final close into an RST on most stacks —
    // so SHUTDOWN_OK, a clean close, or a reset all count. What must
    // never happen is a hang or a server panic.
    a.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    b.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let outcomes = [a.drain_to_shutdown(), b.drain_to_shutdown()];
    assert!(
        outcomes.iter().any(|o| matches!(o, Ok(true))),
        "at least one connection sees SHUTDOWN_OK: {outcomes:?}"
    );
    for outcome in &outcomes {
        assert!(
            matches!(outcome, Ok(_) | Err(caesar_server::FrameError::Io(_))),
            "{outcome:?}"
        );
    }

    assert!(handle.join().clean());
}

#[test]
fn metrics_endpoint_serves_json_and_healthz() {
    let config = ServerConfig {
        metrics_listen: Some("127.0.0.1:0".into()),
        ..two_tenant_config()
    };
    let handle = start_server(config);
    let metrics_addr = handle.metrics_addr().expect("metrics listener bound");

    let mut client = Client::connect(handle.addr()).unwrap();
    let reply = client
        .roundtrip(&Request::Ingest {
            tenant: "alpha".into(),
            events: common::gen_events(30, 4),
        })
        .unwrap();
    assert_eq!(reply, Response::Ack);
    assert_eq!(
        client
            .roundtrip(&Request::Flush {
                tenant: "alpha".into()
            })
            .unwrap(),
        Response::FlushOk
    );

    let body = common::http_get(metrics_addr, "/metrics");
    assert!(body.starts_with("HTTP/1.0 200"), "{body}");
    assert!(body.contains("\"connections_accepted\":1"), "{body}");
    assert!(body.contains("\"frames_in\""), "{body}");
    assert!(body.contains("\"alpha\""), "{body}");
    assert!(body.contains("\"beta\""), "{body}");
    assert!(body.contains("\"queue_high_water\""), "{body}");

    let health = common::http_get(metrics_addr, "/healthz");
    assert!(health.starts_with("HTTP/1.0 200"), "{health}");
    assert!(health.ends_with("ok"), "{health}");

    let missing = common::http_get(metrics_addr, "/nope");
    assert!(missing.starts_with("HTTP/1.0 404"), "{missing}");

    handle.shutdown();
    assert!(handle.join().clean());
}
