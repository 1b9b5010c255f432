//! The harness end to end on tiny streams, through the built binary:
//! generator child process, every phase, the result line. Guards
//! against bit-rot without running the benchmark. The repository's
//! tier-1 `cargo test` does not reach this package (it is its own
//! workspace); run it with
//! `cargo test --manifest-path crates/bench/src/bin/ledger/Cargo.toml`.

use std::process::Command;
use std::time::{Duration, Instant};

/// Runs `ledger --workload <workload> --smoke --trace <trace>` and
/// checks its result line; returns how long the run took.
fn smoke(workload: &str, trace: &str) -> Duration {
    let start = Instant::now();
    let run = Command::new(env!("CARGO_BIN_EXE_ledger"))
        .args(["--workload", workload, "--smoke", "--trace", trace])
        .output()
        .expect("ledger starts");
    let took = start.elapsed();
    let stdout = String::from_utf8_lossy(&run.stdout);
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(run.status.success(), "{workload}: {stdout}\n{stderr}");
    let result = stdout.lines().last().expect("a result line");
    assert!(
        result.starts_with("{\"correct\": true, \"attempted\": ")
            && result.contains("\"failed\": 0,"),
        "{workload}: {result}"
    );
    took
}

/// One test, so the runs do not compete for the two cores.
#[test]
fn smoke_runs() {
    for trace in ["0", "1"] {
        let took = smoke("lr_dense", trace);
        assert!(took < Duration::from_secs(5), "smoke run took {took:?}");
    }
    // Spawns `caesar serve`, built on first use: no time limit here.
    for trace in ["0", "1"] {
        smoke("served", trace);
    }
}
