//! `caesar` — command-line driver for the CAESAR engine.
//!
//! ```text
//! caesar check   --model traffic.caesar
//! caesar explain --model traffic.caesar --schema traffic.schema
//! caesar run     --model traffic.caesar --schema traffic.schema \
//!                --events day1.events [--mode ci] [--no-sharing] \
//!                [--within 60] [--explain] \
//!                [--metrics] [--metrics-json out.json] \
//!                [--observability off|counters|spans] \
//!                [--consistency strict|speculative]
//! ```

use caesar::cli::{build_system, run, serve, RunOptions, ServeOptions, TenantSpec};
use caesar::prelude::*;
use caesar::query::dot::model_to_dot;
use caesar::query::parse_model;
use caesar::query::pretty::model_to_string;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(output) => {
            print!("{output}");
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!();
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "usage:
  caesar check   --model FILE
  caesar dot     --model FILE            (Graphviz transition network)
  caesar explain --model FILE --schema FILE [--within N]
  caesar run     --model FILE --schema FILE --events FILE
                 [--mode ca|ci] [--no-sharing] [--within N]
                 [--checkpoint-dir DIR] [--checkpoint-every-events N]
                 [--observability off|counters|spans]
                 [--consistency strict|speculative]
                 [--metrics] [--metrics-json FILE] [--explain]
  caesar serve   --tenant NAME=MODEL_FILE,SCHEMA_FILE [--tenant ...]
                 [--listen ADDR] [--metrics-listen ADDR]
                 [--shards N] [--queue-capacity N]
                 [--mode ca|ci] [--no-sharing] [--within N]
                 [--checkpoint-dir DIR]
                 [--observability off|counters|spans]
                 [--consistency strict|speculative]

explain prints the optimized plans, the workload-sharing groups, every
shared pattern-prefix group the engine installs and, for each multi-step
SEQ kept private, the eligibility rule that excluded it. --no-sharing
runs every query privately; otherwise every eligible group is shared.

serve hosts every --tenant as an independent model behind one framed
TCP endpoint (default 127.0.0.1:7470; port 0 picks a free port) and
serves GET /metrics + /healthz on --metrics-listen if given. The run
flags apply to every tenant: --shards workers per tenant,
--queue-capacity bounding each tenant's ingest queue (full = typed
QUEUE_FULL rejection, never a drop). SIGINT/SIGTERM drains gracefully:
admission stops, everything acknowledged is processed, and with
--checkpoint-dir each tenant writes per-shard snapshots that a restart
with the same directory resumes from.

an unknown flag, a flag without its value, or an unknown --mode is an
error: nothing runs.

with --checkpoint-dir, the run writes durable snapshots + an event log
to DIR every N events (default 10000; 0 = snapshot only at the end) and
resumes from DIR if a previous run of the same model was interrupted

--consistency picks when results are released: strict (default) holds
derived events until disorder within the reorder slack can no longer
change them; speculative emits them on arrival and sends retractions
plus corrected outputs when a late event invalidates a match (RETRACT
frames on served subscriptions). Settled results are identical.

--explain turns on match provenance collection and appends one line per
derived event naming the contributing events its pattern bound at each
step (`Out@[2,5] <= A@2, B@3, D@5`). Provenance rides the wire encoding,
so served subscriptions see it too when their tenant runs with it.

--observability selects how much the engine records about itself:
counters adds cheap event/transaction tallies, spans additionally times
every pipeline stage. --metrics prints the collected metrics after the
report; --metrics-json writes them as JSON (both imply --observability
spans unless a level was given explicitly)";

/// Flags that take a value, and switches that do not. Anything else
/// after the command is rejected, so a mistyped flag cannot silently
/// change what runs.
const VALUE_FLAGS: &[&str] = &[
    "--model",
    "--schema",
    "--events",
    "--within",
    "--mode",
    "--checkpoint-dir",
    "--checkpoint-every-events",
    "--shards",
    "--metrics-json",
    "--consistency",
    "--observability",
    "--tenant",
    "--listen",
    "--metrics-listen",
    "--queue-capacity",
];
const SWITCHES: &[&str] = &["--no-sharing", "--explain", "--metrics"];

fn check_flags(flags: &[String]) -> Result<(), String> {
    let mut rest = flags.iter();
    while let Some(arg) = rest.next() {
        if SWITCHES.contains(&arg.as_str()) {
            continue;
        }
        if !VALUE_FLAGS.contains(&arg.as_str()) {
            return Err(format!("unknown flag '{arg}'"));
        }
        if rest.next().is_none() {
            return Err(format!("{arg} needs a value"));
        }
    }
    Ok(())
}

fn dispatch(args: &[String]) -> Result<String, String> {
    let command = args.first().ok_or("no command given")?;
    check_flags(&args[1..])?;
    let flag = |name: &str| -> Option<&str> {
        args.windows(2)
            .find(|w| w[0] == name)
            .map(|w| w[1].as_str())
    };
    let read = |name: &str| -> Result<String, String> {
        let path = flag(name).ok_or_else(|| format!("missing {name} FILE"))?;
        std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))
    };
    let mut options = RunOptions::default();
    if let Some(w) = flag("--within") {
        options.within = w.parse().map_err(|e| format!("--within: {e}"))?;
    }
    options.mode = match flag("--mode") {
        None | Some("ca") => ExecutionMode::ContextAware,
        Some("ci") => ExecutionMode::ContextIndependent,
        Some(other) => return Err(format!("--mode: unknown mode '{other}' (ca|ci)")),
    };
    if args.iter().any(|a| a == "--no-sharing") {
        options.sharing = false;
    }
    if let Some(dir) = flag("--checkpoint-dir") {
        options.checkpoint_dir = Some(dir.into());
    }
    if let Some(n) = flag("--checkpoint-every-events") {
        options.checkpoint_every = n
            .parse()
            .map_err(|e| format!("--checkpoint-every-events: {e}"))?;
    }
    if let Some(n) = flag("--shards") {
        options.shards = n.parse().map_err(|e| format!("--shards: {e}"))?;
    }
    options.explain = args.iter().any(|a| a == "--explain");
    options.metrics = args.iter().any(|a| a == "--metrics");
    if let Some(path) = flag("--metrics-json") {
        options.metrics_json = Some(path.into());
    }
    if let Some(level) = flag("--consistency") {
        options.consistency = level
            .parse()
            .map_err(|e: String| format!("--consistency: {e}"))?;
    }
    options.observability = match flag("--observability") {
        Some(level) => level
            .parse()
            .map_err(|e: String| format!("--observability: {e}"))?,
        // Asking for metrics output without picking a level means the
        // most detailed one.
        None if options.metrics || options.metrics_json.is_some() => ObservabilityLevel::Spans,
        None => ObservabilityLevel::Off,
    };

    match command.as_str() {
        "check" => {
            let model_text = read("--model")?;
            let model = parse_model(&model_text).map_err(|e| e.to_string())?;
            Ok(format!(
                "model '{}' is valid: {} contexts, {} queries\n\n{}",
                model.name,
                model.contexts.len(),
                model.query_count(),
                model_to_string(&model)
            ))
        }
        "dot" => {
            let model_text = read("--model")?;
            let model = parse_model(&model_text).map_err(|e| e.to_string())?;
            Ok(model_to_dot(&model))
        }
        "explain" => {
            options.model_text = read("--model")?;
            options.schema_text = read("--schema")?;
            let system = build_system(&options).map_err(|e| e.to_string())?;
            Ok(system.explain)
        }
        "run" => {
            options.model_text = read("--model")?;
            options.schema_text = read("--schema")?;
            options.events_text = read("--events")?;
            run(&options).map_err(|e| e.to_string())
        }
        "serve" => {
            let mut serve_options = ServeOptions {
                listen: "127.0.0.1:7470".into(),
                run: options,
                ..ServeOptions::default()
            };
            // --tenant repeats; collect every occurrence, not just the
            // first.
            for w in args.windows(2) {
                if w[0] != "--tenant" {
                    continue;
                }
                let (name, files) = w[1].split_once('=').ok_or_else(|| {
                    format!("--tenant '{}' needs NAME=MODEL_FILE,SCHEMA_FILE", w[1])
                })?;
                let (model_path, schema_path) = files.split_once(',').ok_or_else(|| {
                    format!("--tenant '{}' needs NAME=MODEL_FILE,SCHEMA_FILE", w[1])
                })?;
                let read_file = |path: &str| {
                    std::fs::read_to_string(path)
                        .map_err(|e| format!("tenant '{name}': cannot read {path}: {e}"))
                };
                serve_options.tenants.push(TenantSpec {
                    name: name.to_string(),
                    model_text: read_file(model_path)?,
                    schema_text: read_file(schema_path)?,
                });
            }
            if let Some(addr) = flag("--listen") {
                serve_options.listen = addr.to_string();
            }
            if let Some(addr) = flag("--metrics-listen") {
                serve_options.metrics_listen = Some(addr.to_string());
            }
            if let Some(n) = flag("--queue-capacity") {
                serve_options.queue_capacity =
                    n.parse().map_err(|e| format!("--queue-capacity: {e}"))?;
            }
            let handle = serve(&serve_options).map_err(|e| e.to_string())?;
            println!("listening on {}", handle.addr());
            if let Some(addr) = handle.metrics_addr() {
                println!("metrics on http://{addr}/metrics");
            }
            println!(
                "{} tenant(s), {} shard(s) each; ctrl-c drains",
                serve_options.tenants.len(),
                serve_options.run.shards.max(1)
            );
            let summary = handle.join();
            let rendered = caesar::cli::render_drain_summary(&summary);
            if summary.clean() {
                Ok(rendered)
            } else {
                Err(rendered)
            }
        }
        other => Err(format!("unknown command '{other}'")),
    }
}
