//! A served speculative tenant under a straggler burst: one frame of
//! late events over 64 partitions is repaired partition by partition —
//! the replay work `/metrics` reports is bounded by what a straggler's
//! own partition holds unsettled, never by the tenant's partition
//! count — while the subscriber still sees every `RETRACT` before the
//! `OUTPUTS` that correct it, and folds to what a strict tenant derives.

mod common;

use caesar_core::events::OutputRecord;
use caesar_core::prelude::*;
use caesar_server::{Client, Request, Response, Server, ServerConfig, TenantConfig};
use std::net::SocketAddr;

const PARTITIONS: u32 = 64;
const SLACK: u64 = 10;

/// `calm` derives an `Alarm` from a `Spike`, and the `Alarm` (or a
/// `Manual`) switches to `alert`, where spikes derive `Page`s: a late
/// `Manual` ahead of the first spike retracts the `Alarm` *and*
/// re-derives that spike as a `Page` (`tests/retraction_edges.rs`
/// computes the case by hand).
fn builder() -> CaesarBuilder {
    Caesar::builder()
        .schema("Spike", &[("sid", AttrType::Int)])
        .schema("Manual", &[("sid", AttrType::Int)])
        .schema("Reset", &[("sid", AttrType::Int)])
        .model_text(
            r#"
            MODEL cascade DEFAULT calm
            CONTEXT calm {
                SWITCH CONTEXT alert PATTERN Alarm
                SWITCH CONTEXT alert PATTERN Manual
                DERIVE Alarm(s.sid) PATTERN Spike s
            }
            CONTEXT alert {
                SWITCH CONTEXT calm PATTERN Reset
                DERIVE Page(s.sid, 1) PATTERN Spike s
            }
            "#,
        )
        .within(300)
}

fn tenant(name: &str, consistency: Consistency) -> TenantConfig {
    let (program, registry, _explain) = builder().build_program().expect("model builds");
    let mut tenant = TenantConfig::new(name, program, registry);
    tenant.engine_config = EngineConfig::builder()
        .reorder_slack(SLACK)
        .consistency(consistency)
        .collect_outputs(true)
        .observability(ObservabilityLevel::Counters)
        .build();
    tenant
}

fn subscribed(addr: SocketAddr, tenant: &str) -> Client {
    let mut client = Client::connect(addr).unwrap();
    let reply = client.roundtrip(&Request::Subscribe {
        tenant: tenant.into(),
    });
    assert_eq!(reply.unwrap(), Response::Ack);
    client
}

/// One engine counter of one tenant in a `/metrics` document.
fn tenant_counter(doc: &str, tenant: &str, counter: &str) -> u64 {
    let value = doc
        .split_once("\"tenants\":{")
        .and_then(|(_, tenants)| tenants.split_once(&format!("\"{tenant}\":")))
        .and_then(|(_, snapshot)| snapshot.split_once(&format!("\"{counter}\": ")))
        .unwrap_or_else(|| panic!("no {counter} of {tenant} in {doc}"))
        .1;
    let digits = value.split(|c: char| !c.is_ascii_digit()).next();
    digits.unwrap().parse().unwrap()
}

#[test]
fn a_straggler_burst_is_repaired_partition_by_partition() {
    let sys = builder().build().expect("model builds");
    let event = |ty: &str, t: u64, p: u32, sid: i64| {
        let event = sys.event(ty, t).unwrap().attr("sid", sid).unwrap();
        event.partition(PartitionId(p)).build().unwrap()
    };
    let over_partitions = |ty: &'static str, t: u64, sid: i64| {
        let event = &event;
        (0..PARTITIONS).map(move |p| event(ty, t, p, sid))
    };
    // In order: three spikes per partition, none settled (slack 10).
    let frames: Vec<Vec<Event>> = [(5, 1), (8, 2), (12, 3)]
        .map(|(t, sid)| over_partitions("Spike", t, sid).collect())
        .into();
    // The burst, one frame: per partition a `Manual` ahead of every
    // spike, then one more spike between the first two.
    let burst: Vec<Event> = over_partitions("Manual", 4, 0)
        .chain(over_partitions("Spike", 6, 9))
        .collect();
    // A partition never holds more than its five events unsettled.
    let largest_unsettled = 5;

    let handle = Server::start(ServerConfig {
        tenants: vec![
            tenant("strict", Consistency::Strict),
            tenant("speculative", Consistency::Speculative),
        ],
        metrics_listen: Some("127.0.0.1:0".into()),
        ..ServerConfig::default()
    })
    .expect("server starts");
    let mut served = Vec::new();
    for name in ["strict", "speculative"] {
        let mut client = subscribed(handle.addr(), name);
        for events in frames.iter().chain([&burst]) {
            let reply = client.roundtrip(&Request::Ingest {
                tenant: name.into(),
                events: events.clone(),
            });
            assert_eq!(reply.unwrap(), Response::Ack);
        }
        let reply = client.roundtrip(&Request::Flush {
            tenant: name.into(),
        });
        assert_eq!(reply.unwrap(), Response::FlushOk);
        if name == "speculative" {
            let doc = common::http_get(handle.metrics_addr().unwrap(), "/metrics");
            let counter = |counter: &str| tenant_counter(&doc, name, counter);
            // Every straggler rewinds its own partition and replays
            // what it holds below the newest timestamp: 64 times three
            // events, then 64 times four. Replaying the tenant's
            // unsettled events instead reads 128 × ~190.
            assert_eq!(counter("speculative_rebuilds"), burst.len() as u64);
            assert_eq!(counter("speculative_replayed_events"), 64 * 3 + 64 * 4);
            assert!(
                counter("speculative_replayed_events") <= burst.len() as u64 * largest_unsettled
            );
            assert_eq!(counter("speculative_retractions"), u64::from(PARTITIONS));
        }
        let reply = client.roundtrip(&Request::Finish {
            tenant: name.into(),
        });
        assert!(matches!(reply.unwrap(), Response::Report(_)));
        served.push((client.take_outputs(), client.take_records()));
    }
    handle.shutdown();
    assert!(handle.join().clean());

    let (strict_outputs, _) = &served[0];
    let (_, records) = &served[1];
    assert_eq!(
        strict_outputs.len(),
        4 * PARTITIONS as usize,
        "four pages each"
    );
    // Per partition the ledger reads: the Alarm and Page(2) on the way
    // in; in the burst the Alarm's retraction and then — never before —
    // the Page(1) that replaces it, then Page(9); Page(3) at the end.
    let alarm = sys.registry.lookup("Alarm").unwrap();
    for p in 0..PARTITIONS {
        let of_p = records.iter().filter(|r| r.event().partition.0 == p);
        let ledger: Vec<(bool, bool, Value)> = of_p
            .map(|r| {
                let event = r.event();
                (
                    r.is_retraction(),
                    event.type_id == alarm,
                    event.attrs[0].clone(),
                )
            })
            .collect();
        let expected = [
            (false, true, 1),
            (false, false, 2),
            (true, true, 1),
            (false, false, 1),
            (false, false, 9),
            (false, false, 3),
        ];
        let expected = expected.map(|(retract, alarm, sid)| (retract, alarm, Value::Int(sid)));
        assert_eq!(ledger, expected, "partition {p}");
    }
    let mut settled: Vec<Event> = Vec::new();
    for record in records {
        match record {
            OutputRecord::Emit(event) => settled.push(event.clone()),
            OutputRecord::Retract(event) => {
                let at = settled.iter().position(|e| e == event);
                settled.remove(at.expect("a retraction cancels an earlier emission"));
            }
        }
    }
    assert_eq!(
        common::canonical(&settled),
        common::canonical(strict_outputs)
    );
}
