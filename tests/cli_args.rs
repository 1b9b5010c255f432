//! The `caesar` binary's argument handling: an unknown flag or an
//! unknown `--mode` value stops the run with the usage text and a
//! non-zero exit instead of silently running something else, while the
//! flags a served deployment passes (`--tenant`, `--listen`,
//! `--metrics-listen`, `--shards`) are accepted.

use caesar::server::{Client, Request, Response};
use std::io::{BufRead, BufReader};
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

const SCHEMA: &str = "PositionReport vid:int sec:int lane:str\nManySlowCars seg:int\n";

const MODEL: &str = r#"
MODEL traffic DEFAULT clear
CONTEXT clear {
    SWITCH CONTEXT congestion PATTERN ManySlowCars
}
CONTEXT congestion {
    DERIVE TollNotification(p.vid, p.sec, 5)
        PATTERN PositionReport p WHERE p.lane != "exit"
}
"#;

const EVENTS: &str = "1 0 PositionReport vid=7 sec=1 lane=travel\n\
                      5 0 ManySlowCars seg=0\n\
                      6 0 PositionReport vid=7 sec=6 lane=travel\n";

/// Writes the model, schema and event files into a fresh directory.
fn inputs(tag: &str) -> (PathBuf, [String; 3]) {
    let dir = std::env::temp_dir().join(format!("caesar-cli-args-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let write = |name: &str, text: &str| {
        let path = dir.join(name);
        std::fs::write(&path, text).unwrap();
        path.display().to_string()
    };
    let files = [
        write("m.caesar", MODEL),
        write("s.schema", SCHEMA),
        write("e.events", EVENTS),
    ];
    (dir, files)
}

fn caesar(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_caesar"))
        .args(args)
        .output()
        .expect("caesar starts")
}

fn run_with(files: &[String; 3], extra: &[&str]) -> Output {
    let [model, schema, events] = files;
    let mut args = vec![
        "run", "--model", model, "--schema", schema, "--events", events,
    ];
    args.extend_from_slice(extra);
    caesar(&args)
}

/// Fails with `message` on stderr, followed by the usage text, and
/// prints nothing on stdout.
fn assert_rejected(output: &Output, message: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(!output.status.success(), "{stderr}");
    assert!(stderr.contains(message), "{stderr}");
    assert!(stderr.contains("usage:"), "{stderr}");
    assert!(output.stdout.is_empty());
}

#[test]
fn unknown_flags_and_modes_are_rejected_with_usage() {
    let (dir, files) = inputs("reject");
    let ok = run_with(&files, &["--mode", "ci"]);
    assert!(ok.status.success(), "{ok:?}");
    assert!(String::from_utf8_lossy(&ok.stdout).contains("events in:           3"));

    assert_rejected(
        &run_with(&files, &["--mode", "foo"]),
        "--mode: unknown mode 'foo'",
    );
    // Flags that no longer exist, a typo, a flag missing its value.
    for (extra, message) in [
        (&["--batch-size", "1"][..], "unknown flag '--batch-size'"),
        (&["--checkpoint-directory", "x"][..], "unknown flag"),
        (&["--within"][..], "--within needs a value"),
    ] {
        assert_rejected(&run_with(&files, extra), message);
    }
    let [model, schema, _] = &files;
    assert_rejected(
        &caesar(&[
            "serve",
            "--tenant",
            &format!("t={model},{schema}"),
            "--bogus",
            "1",
        ]),
        "unknown flag '--bogus'",
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn serve_accepts_the_deployment_flags() {
    let (dir, files) = inputs("serve");
    let [model, schema, _] = &files;
    let mut server = Command::new(env!("CARGO_BIN_EXE_caesar"))
        .args([
            "serve",
            "--tenant",
            &format!("t={model},{schema}"),
            "--listen",
            "127.0.0.1:0",
            "--metrics-listen",
            "127.0.0.1:0",
            "--shards",
            "2",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("caesar serve starts");
    let mut stdout = BufReader::new(server.stdout.take().unwrap());
    let mut line = String::new();
    stdout.read_line(&mut line).unwrap();
    let addr = line
        .strip_prefix("listening on ")
        .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
        .trim()
        .to_string();
    let mut client = Client::connect(addr.as_str()).unwrap();
    assert_eq!(client.roundtrip(&Request::Shutdown).unwrap(), Response::Ack);
    let status = server.wait().unwrap();
    let mut rest = String::new();
    std::io::Read::read_to_string(&mut stdout, &mut rest).unwrap();
    assert!(status.success(), "{rest}");
    assert!(rest.contains("2 shard(s) each"), "{rest}");
    assert!(rest.contains("drained:"), "{rest}");
    let _ = std::fs::remove_dir_all(&dir);
}
