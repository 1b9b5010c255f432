//! Crash/recovery integration tests on a small hand-built model: every
//! crash point, plus corruption and version-mismatch handling.

use caesar_core::{Caesar, CaesarBuilder};
use caesar_events::{AttrType, Event};
use caesar_recovery::{
    crash_and_recover, read_snapshot, snapshot_path, CheckpointManager, RecoveryError,
};
use caesar_runtime::Engine;
use caesar_runtime::EngineConfig;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "caesar-crash-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

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
        .model_text(
            r#"
            MODEL traffic DEFAULT clear
            CONTEXT clear {
                SWITCH CONTEXT congestion PATTERN ManySlowCars
            }
            CONTEXT congestion {
                SWITCH CONTEXT clear PATTERN FewFastCars
                DERIVE TollNotification(p.vid, p.sec, 5)
                    PATTERN PositionReport p WHERE p.lane != "exit"
            }
        "#,
        )
        .engine_config(EngineConfig::builder().collect_outputs(true).build())
}

fn build_engine() -> Engine {
    builder().build().expect("model builds").engine
}

/// An input stream that switches contexts a few times so the snapshot
/// has to carry non-trivial context histories and pattern state.
fn stream() -> Vec<Event> {
    let system = builder().build().expect("model builds");
    let mut events = Vec::new();
    let mut push = |type_name: &str, t: u64, attrs: &[(&str, i64)], lane: Option<&str>| {
        let mut b = system.event(type_name, t).expect("known type");
        for (name, v) in attrs {
            b = b.attr(name, *v).expect("known attr");
        }
        if let Some(lane) = lane {
            b = b.attr("lane", lane).expect("known attr");
        }
        events.push(b.build().expect("complete event"));
    };
    let mut t = 1;
    for round in 0..4i64 {
        push("ManySlowCars", t, &[("seg", round)], None);
        t += 1;
        for i in 0..6i64 {
            let lane = if i % 3 == 0 { "exit" } else { "travel" };
            push(
                "PositionReport",
                t,
                &[("vid", 100 + i), ("sec", t as i64)],
                Some(lane),
            );
            t += 1;
        }
        push("FewFastCars", t, &[("seg", round)], None);
        t += 2;
    }
    events
}

#[test]
fn every_crash_point_recovers_byte_identically() {
    let events = stream();
    for every in [3u64, 7] {
        for crash_after in 0..=events.len() {
            let dir = temp_dir("allpoints");
            let report = crash_and_recover(build_engine, &events, &dir, every, crash_after)
                .expect("crash/recover runs");
            assert!(
                report.is_equivalent(),
                "crash at {crash_after}/{} with cadence {every}: \
                 baseline {} outputs vs recovered {}",
                events.len(),
                report.baseline_outputs.len(),
                report.recovered_outputs.len(),
            );
            assert!(
                !report.baseline_outputs.is_empty(),
                "test stream is trivial"
            );
            let _ = fs::remove_dir_all(&dir);
        }
    }
}

#[test]
fn recovery_skips_wal_prefix_covered_by_snapshot() {
    // Simulate a crash *between* snapshot write and log rebase: take a
    // checkpoint manually, then overwrite the log with one whose base is
    // older than the snapshot position. Resume must skip the covered
    // prefix instead of double-applying it.
    let events = stream();
    let dir = temp_dir("prefix");
    let mut manager = CheckpointManager::create(&dir, 0).expect("create");
    let mut engine = build_engine();
    for event in &events[..10] {
        manager.log_event(event).expect("log");
        engine.ingest(event.clone()).expect("ingest");
    }
    manager.checkpoint(&engine).expect("checkpoint at 10");
    drop(manager);
    drop(engine);

    // Forge the pre-rebase log: base 0, all 10 events still present.
    let mut stale =
        caesar_recovery::WalWriter::create(&caesar_recovery::wal_path(&dir), 0).expect("stale wal");
    for event in &events[..10] {
        stale.append(event).expect("append");
    }
    stale.sync().expect("sync");
    drop(stale);

    let mut revived = build_engine();
    let manager = CheckpointManager::resume(&dir, 0, &mut revived).expect("resume");
    assert_eq!(manager.position(), 10, "snapshot position wins");
    assert_eq!(revived.events_in(), 10, "no event was double-applied");
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_snapshot_is_a_checksum_error() {
    let events = stream();
    let dir = temp_dir("corrupt");
    let mut manager = CheckpointManager::create(&dir, 0).expect("create");
    let mut engine = build_engine();
    for event in &events[..8] {
        manager.log_event(event).expect("log");
        engine.ingest(event.clone()).expect("ingest");
    }
    manager.checkpoint(&engine).expect("checkpoint");
    drop(manager);

    let snap = snapshot_path(&dir);
    let mut data = fs::read(&snap).expect("snapshot exists");
    let mid = 40 + (data.len() - 40) / 2;
    data[mid] ^= 0xFF;
    fs::write(&snap, &data).expect("rewrite");

    assert!(matches!(
        read_snapshot(&snap),
        Err(RecoveryError::ChecksumMismatch { .. })
    ));
    let mut revived = build_engine();
    assert!(matches!(
        CheckpointManager::resume(&dir, 0, &mut revived),
        Err(RecoveryError::ChecksumMismatch { .. })
    ));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn foreign_snapshot_version_is_a_version_error() {
    let events = stream();
    let dir = temp_dir("version");
    let mut manager = CheckpointManager::create(&dir, 0).expect("create");
    let mut engine = build_engine();
    for event in &events[..5] {
        manager.log_event(event).expect("log");
        engine.ingest(event.clone()).expect("ingest");
    }
    manager.checkpoint(&engine).expect("checkpoint");
    drop(manager);

    let snap = snapshot_path(&dir);
    let mut data = fs::read(&snap).expect("snapshot exists");
    // A future format, and the previous ones (v2: per-partition cloned
    // programs; v3: per-partition scheduler queues and a head index;
    // v4: the batching, kernel-switch and queueing-clock configuration
    // fields; v5: the periodic GC's clock and the context table's
    // expiry set; v6: the filter and projection kernel row counters —
    // none of which this build's payload decoder can read).
    assert_eq!(caesar_recovery::SNAPSHOT_VERSION, 7);
    for foreign in [caesar_recovery::SNAPSHOT_VERSION + 1, 6, 5, 4, 3, 2] {
        data[8..12].copy_from_slice(&foreign.to_le_bytes());
        fs::write(&snap, &data).expect("rewrite");

        match read_snapshot(&snap) {
            Err(RecoveryError::VersionMismatch {
                found, expected, ..
            }) => {
                assert_eq!(found, foreign);
                assert_eq!(expected, caesar_recovery::SNAPSHOT_VERSION);
            }
            other => panic!("expected VersionMismatch, got {other:?}"),
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn snapshot_from_different_model_is_incompatible() {
    let events = stream();
    let dir = temp_dir("incompat");
    let mut manager = CheckpointManager::create(&dir, 0).expect("create");
    let mut engine = build_engine();
    for event in &events[..5] {
        manager.log_event(event).expect("log");
        engine.ingest(event.clone()).expect("ingest");
    }
    manager.checkpoint(&engine).expect("checkpoint");
    drop(manager);

    // An engine with a different configuration must refuse the snapshot.
    let mut other = builder()
        .engine_config(
            EngineConfig::builder()
                .collect_outputs(true)
                .provenance(true)
                .build(),
        )
        .build()
        .expect("model builds")
        .engine;
    assert!(matches!(
        CheckpointManager::resume(&dir, 0, &mut other),
        Err(RecoveryError::Incompatible(_))
    ));
    let _ = fs::remove_dir_all(&dir);
}
