//! Building blocks of the `caesar` command-line tool: schema files,
//! textual event files, and the run/explain/check drivers.
//!
//! File formats (all line-oriented, `#` starts a comment):
//!
//! * **Schema file** — one event type per line:
//!   `PositionReport vid:int sec:int lane:str`
//! * **Event file** — one event per line:
//!   `<time> <partition> <TypeName> attr=value attr=value ...`
//!   (string values may be quoted; events must be time-ordered).
//!   Files ending in `.bin` instead use the binary codec of
//!   [`caesar_events::codec`].

use caesar_core::prelude::*;
use caesar_core::{CaesarBuilder, CaesarSystem};
use caesar_recovery::CheckpointManager;
use std::fmt;
use std::path::{Path, PathBuf};

/// CLI-level errors.
#[derive(Debug)]
pub enum CliError {
    /// Malformed schema or event line.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        detail: String,
    },
    /// Underlying system error.
    System(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Parse { line, detail } => write!(f, "line {line}: {detail}"),
            CliError::System(s) => write!(f, "{s}"),
        }
    }
}

impl std::error::Error for CliError {}

fn parse_err(line: usize, detail: impl Into<String>) -> CliError {
    CliError::Parse {
        line,
        detail: detail.into(),
    }
}

/// One schema declaration: type name plus its attributes.
pub type SchemaDecl = (String, Vec<(String, AttrType)>);

/// Parses a schema file into `(type name, attributes)` declarations.
pub fn parse_schema_file(text: &str) -> Result<Vec<SchemaDecl>, CliError> {
    let mut out = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let name = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "missing type name"))?
            .to_string();
        let mut attrs = Vec::new();
        for spec in parts {
            let (attr, ty) = spec
                .split_once(':')
                .ok_or_else(|| parse_err(i + 1, format!("attribute '{spec}' needs name:type")))?;
            let ty = match ty {
                "int" => AttrType::Int,
                "float" => AttrType::Float,
                "str" => AttrType::Str,
                "bool" => AttrType::Bool,
                other => {
                    return Err(parse_err(
                        i + 1,
                        format!("unknown type '{other}' (int|float|str|bool)"),
                    ))
                }
            };
            attrs.push((attr.to_string(), ty));
        }
        out.push((name, attrs));
    }
    Ok(out)
}

/// Applies schema declarations to a builder.
#[must_use]
pub fn apply_schemas(mut builder: CaesarBuilder, schemas: &[SchemaDecl]) -> CaesarBuilder {
    for (name, attrs) in schemas {
        let refs: Vec<(&str, AttrType)> = attrs.iter().map(|(n, t)| (n.as_str(), *t)).collect();
        builder = builder.schema(name, &refs);
    }
    builder
}

/// Parses a textual event file against a built system's registry.
pub fn parse_event_file(text: &str, system: &CaesarSystem) -> Result<Vec<Event>, CliError> {
    let mut events = Vec::new();
    for (i, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let time: Time = parts
            .next()
            .and_then(|t| t.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "expected integer timestamp"))?;
        let partition: u32 = parts
            .next()
            .and_then(|p| p.parse().ok())
            .ok_or_else(|| parse_err(i + 1, "expected integer partition"))?;
        let type_name = parts
            .next()
            .ok_or_else(|| parse_err(i + 1, "expected event type name"))?;
        let mut builder = system
            .event(type_name, time)
            .map_err(|e| parse_err(i + 1, e.to_string()))?
            .partition(PartitionId(partition));
        for assignment in parts {
            let (attr, value) = assignment
                .split_once('=')
                .ok_or_else(|| parse_err(i + 1, format!("'{assignment}' needs attr=value")))?;
            let value = parse_value(value);
            builder = builder
                .attr(attr, value)
                .map_err(|e| parse_err(i + 1, e.to_string()))?;
        }
        events.push(
            builder
                .build()
                .map_err(|e| parse_err(i + 1, e.to_string()))?,
        );
    }
    Ok(events)
}

/// Parses a literal: integers, floats, booleans, then strings
/// (optionally `"quoted"`).
#[must_use]
pub fn parse_value(raw: &str) -> Value {
    if let Ok(i) = raw.parse::<i64>() {
        return Value::Int(i);
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Value::Float(f);
    }
    match raw {
        "true" => Value::Bool(true),
        "false" => Value::Bool(false),
        _ => Value::str(raw.trim_matches('"')),
    }
}

/// Everything a `caesar run` needs: the input texts plus the
/// configuration assembled from CLI flags. [`run`] is the single entry
/// point for plain, sharded-rejecting and checkpointed runs alike.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Textual `MODEL` block.
    pub model_text: String,
    /// Schema file contents (see module docs for the format).
    pub schema_text: String,
    /// Event file contents (see module docs for the format).
    pub events_text: String,
    /// Context-aware or context-independent.
    pub mode: ExecutionMode,
    /// Workload sharing on/off.
    pub sharing: bool,
    /// Worker shards (1 = single-threaded).
    pub shards: usize,
    /// Pattern horizon in ticks.
    pub within: Time,
    /// Directory for durable checkpoints (snapshot + event log). `None`
    /// disables checkpointing. If the directory already holds a
    /// checkpoint from an interrupted run of the same model, the run
    /// resumes from it instead of starting over.
    pub checkpoint_dir: Option<PathBuf>,
    /// Checkpoint cadence in events. `0` keeps the write-ahead log but
    /// snapshots only at the end of the run.
    pub checkpoint_every: u64,
    /// Observability level of the engine (and, for checkpointed runs,
    /// the checkpoint manager): `Off` (default), `Counters` or `Spans`.
    pub observability: ObservabilityLevel,
    /// Consistency level: `Strict` (default) buffers disorder for the
    /// full reorder slack before emitting; `Speculative` emits on
    /// arrival and retracts/corrects when a late event invalidates a
    /// match. Settled results are identical either way.
    pub consistency: Consistency,
    /// Append the human-readable metrics rendering to the report.
    pub metrics: bool,
    /// Write the metrics snapshot as JSON to this path.
    pub metrics_json: Option<PathBuf>,
    /// Explain every match: forces provenance collection
    /// ([`EngineConfig::provenance`]) and appends one line per derived
    /// event listing the contributing events that produced it.
    pub explain: bool,
}

impl Default for RunOptions {
    fn default() -> Self {
        Self {
            model_text: String::new(),
            schema_text: String::new(),
            events_text: String::new(),
            mode: ExecutionMode::ContextAware,
            sharing: true,
            shards: 1,
            within: 300,
            checkpoint_dir: None,
            checkpoint_every: 10_000,
            observability: ObservabilityLevel::Off,
            consistency: Consistency::Strict,
            metrics: false,
            metrics_json: None,
            explain: false,
        }
    }
}

/// The [`EngineConfig`] the run flags map to — shared by `caesar run`
/// and every `caesar serve` tenant so the flags mean the same thing in
/// both drivers.
#[must_use]
pub fn engine_config(options: &RunOptions) -> EngineConfig {
    EngineConfig::builder()
        .mode(options.mode)
        .sharing(options.sharing)
        .observability(options.observability)
        .consistency(options.consistency)
        // `--explain` needs each match's contributing events (and the
        // matches themselves retained for the post-run rendering). The
        // server overrides `collect_outputs` and drains per frame, so
        // the flag stays safe for `caesar serve` tenants too.
        .provenance(options.explain)
        .collect_outputs(options.explain)
        .build()
}

/// Builds a system from the model + schema texts in `options`.
pub fn build_system(options: &RunOptions) -> Result<CaesarSystem, CliError> {
    let schemas = parse_schema_file(&options.schema_text)?;
    let builder = apply_schemas(Caesar::builder(), &schemas)
        .model_text(&options.model_text)
        .within(options.within)
        .engine_config(engine_config(options));
    builder.build().map_err(|e| CliError::System(e.to_string()))
}

/// Runs the events through a freshly built system and renders the
/// report — the single `caesar run` entry point. A checkpoint directory
/// in the options switches the run onto the durable log → ingest →
/// snapshot protocol (resuming from the directory if a previous run of
/// the same model was interrupted); otherwise the stream is executed
/// directly. `metrics` / `metrics_json` append the human rendering of
/// the metrics snapshot and write it as JSON respectively.
pub fn run(options: &RunOptions) -> Result<String, CliError> {
    let mut system = build_system(options)?;
    let events = parse_event_file(&options.events_text, &system)?;
    let mut out = String::new();
    let report = if let Some(dir) = &options.checkpoint_dir {
        let (report, resumed_at) = run_checkpointed(&mut system, events, dir, options)?;
        out.push_str(&format!("checkpoint dir:      {}\n", dir.display()));
        if resumed_at > 0 {
            out.push_str(&format!("resumed at event:    {resumed_at}\n"));
        }
        report
    } else if options.shards <= 1 {
        system
            .run_stream(&mut VecStream::new(events))
            .map_err(|e| CliError::System(e.to_string()))?
    } else {
        // Sharded execution needs the raw program; rebuild through the
        // low-level path.
        return Err(CliError::System(
            "sharded runs are available through the library API \
             (caesar::runtime::run_sharded)"
                .into(),
        ));
    };
    out.push_str(&render_report(&report));
    if options.explain {
        out.push('\n');
        out.push_str(&render_explain(
            &system.engine.collected_outputs,
            &system.registry,
        ));
    }
    if options.metrics {
        out.push('\n');
        out.push_str(&report.metrics.render());
    }
    if let Some(path) = &options.metrics_json {
        std::fs::write(path, report.metrics.to_json())
            .map_err(|e| CliError::System(format!("cannot write {}: {e}", path.display())))?;
        out.push_str(&format!("metrics json:        {}\n", path.display()));
    }
    Ok(out)
}

/// Runs a parsed event stream under the checkpoint protocol: resume
/// from `dir` if it holds a checkpoint of the same model, log every
/// event ahead of ingest, snapshot on the configured cadence and once
/// more at the end of the stream. Returns the report (durability
/// metrics merged in) plus the stream position the run resumed at (0
/// for a fresh start).
fn run_checkpointed(
    system: &mut CaesarSystem,
    events: Vec<Event>,
    dir: &Path,
    options: &RunOptions,
) -> Result<(RunReport, u64), CliError> {
    let sys_err = |e: caesar_recovery::RecoveryError| CliError::System(e.to_string());
    let mut manager = CheckpointManager::resume(dir, options.checkpoint_every, &mut system.engine)
        .map_err(sys_err)?
        .with_observability(options.observability);
    let resumed_at = manager.position();
    let skip = usize::try_from(resumed_at)
        .map_err(|_| CliError::System("checkpoint position overflow".into()))?;
    if skip > events.len() {
        return Err(CliError::System(format!(
            "checkpoint in {} covers {skip} events but the input has only {}; \
             wrong event file for this checkpoint?",
            dir.display(),
            events.len()
        )));
    }
    for event in events.into_iter().skip(skip) {
        manager.log_event(&event).map_err(sys_err)?;
        system
            .engine
            .ingest(event)
            .map_err(|e| CliError::System(e.to_string()))?;
        // Snapshots capture strict state only: when a checkpoint is due,
        // a speculative engine first confirms or retracts everything in
        // flight (a no-op on strict runs).
        if manager.checkpoint_due() {
            system.engine.settle();
        }
        manager.maybe_checkpoint(&system.engine).map_err(sys_err)?;
    }
    // Final snapshot before `finish()`: rerunning against the same (or a
    // longer) event file resumes here instead of replaying everything.
    system.engine.settle();
    manager.checkpoint(&system.engine).map_err(sys_err)?;
    let mut report = system.engine.finish();
    report.metrics.merge(&manager.metrics_snapshot());
    Ok((report, resumed_at))
}

/// Renders a run report as text.
#[must_use]
pub fn render_report(report: &RunReport) -> String {
    let mut s = String::new();
    s.push_str(&format!("events in:           {}\n", report.events_in));
    s.push_str(&format!("events out:          {}\n", report.events_out));
    s.push_str(&format!(
        "context transitions: {}\n",
        report.transitions_applied
    ));
    s.push_str(&format!(
        "plans suspended:     {} ({} fed)\n",
        report.plans_suspended, report.plans_fed
    ));
    s.push_str("outputs:\n");
    for (ty, n) in &report.outputs_by_type {
        if !ty.starts_with("$match") {
            s.push_str(&format!("  {ty:30} {n}\n"));
        }
    }
    s
}

/// Renders the `--explain` section: one line per derived event, naming
/// the contributing events (type + occurrence time) its match bound at
/// each pattern step. Outputs must come from a run with
/// [`EngineConfig::provenance`] on, as [`run`] forces for the flag.
#[must_use]
pub fn render_explain(outputs: &[Event], registry: &SchemaRegistry) -> String {
    let name = |tid| registry.schema(tid).name.clone();
    let at = |iv: &Interval| {
        if iv.start == iv.end {
            format!("@{}", iv.end)
        } else {
            format!("@[{},{}]", iv.start, iv.end)
        }
    };
    let mut s = String::from("matches:\n");
    let mut shown = 0usize;
    for e in outputs {
        let ty = name(e.type_id);
        if ty.starts_with("$match") {
            continue;
        }
        let derivation = match e.provenance.as_deref() {
            Some(p) => p
                .steps
                .iter()
                .map(|step| format!("{}{}", name(step.type_id), at(&step.occurrence)))
                .collect::<Vec<_>>()
                .join(", "),
            None => "(no provenance recorded)".into(),
        };
        s.push_str(&format!("  {ty}{} <= {derivation}\n", at(&e.occurrence)));
        shown += 1;
    }
    if shown == 0 {
        s.push_str("  (none)\n");
    }
    s
}

/// One tenant of a `caesar serve` process: a name plus the model and
/// schema texts that define its program.
#[derive(Debug, Clone)]
pub struct TenantSpec {
    /// Tenant name clients address frames to.
    pub name: String,
    /// Textual `MODEL` block.
    pub model_text: String,
    /// Schema file contents (same format as `caesar run`).
    pub schema_text: String,
}

/// Everything a `caesar serve` needs: the tenant specs, the listen
/// addresses, and the shared run flags. The engine-level flags (mode,
/// sharing, observability, consistency, checkpoint directory,
/// `--within`) are carried by the embedded [`RunOptions`] so
/// they mean exactly what they mean for `caesar run` — there is one
/// flag-to-config mapping, not two.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Tenants to host; names must be unique.
    pub tenants: Vec<TenantSpec>,
    /// TCP listen address for the framed ingest protocol.
    pub listen: String,
    /// Optional HTTP listen address for `/metrics` and `/healthz`.
    pub metrics_listen: Option<String>,
    /// Per-tenant ingest queue capacity (admission-control bound).
    pub queue_capacity: usize,
    /// Shared run flags. `model_text`/`schema_text`/`events_text` are
    /// unused (tenants carry their own texts); `shards` is the
    /// per-tenant shard count; `checkpoint_dir` is the drain-checkpoint
    /// root (one subdirectory per tenant).
    pub run: RunOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            tenants: Vec::new(),
            listen: "127.0.0.1:0".into(),
            metrics_listen: None,
            queue_capacity: 1024,
            run: RunOptions::default(),
        }
    }
}

/// Builds one server tenant from its spec and the shared run flags.
pub fn build_tenant(
    spec: &TenantSpec,
    options: &ServeOptions,
) -> Result<caesar_server::TenantConfig, CliError> {
    let schemas = parse_schema_file(&spec.schema_text)?;
    let (program, registry, _explain) = apply_schemas(Caesar::builder(), &schemas)
        .model_text(&spec.model_text)
        .within(options.run.within)
        .build_program()
        .map_err(|e| CliError::System(format!("tenant '{}': {e}", spec.name)))?;
    let mut tenant = caesar_server::TenantConfig::new(&spec.name, program, registry);
    tenant.engine_config = engine_config(&options.run);
    tenant.shards = options.run.shards.max(1);
    tenant.queue_capacity = options.queue_capacity;
    Ok(tenant)
}

/// Maps [`ServeOptions`] onto a [`caesar_server::ServerConfig`]. The
/// CLI server always drains on SIGINT/SIGTERM; a `--checkpoint-dir`
/// makes that drain write per-tenant shard snapshots (and a restart
/// with the same directory resume from them).
pub fn serve_config(options: &ServeOptions) -> Result<caesar_server::ServerConfig, CliError> {
    if options.tenants.is_empty() {
        return Err(CliError::System(
            "serve needs at least one --tenant NAME=MODEL_FILE,SCHEMA_FILE".into(),
        ));
    }
    let mut tenants = Vec::with_capacity(options.tenants.len());
    for spec in &options.tenants {
        tenants.push(build_tenant(spec, options)?);
    }
    Ok(caesar_server::ServerConfig {
        listen: options.listen.clone(),
        metrics_listen: options.metrics_listen.clone(),
        tenants,
        drain_on_signal: true,
        checkpoint_dir: options.run.checkpoint_dir.clone(),
        ..caesar_server::ServerConfig::default()
    })
}

/// Starts the multi-tenant ingest server described by `options` and
/// returns its handle. The caller decides how to wait: the `caesar`
/// binary prints the bound addresses and parks on
/// [`caesar_server::ServerHandle::join`] until a signal or a client
/// `SHUTDOWN` drains the process.
pub fn serve(options: &ServeOptions) -> Result<caesar_server::ServerHandle, CliError> {
    let config = serve_config(options)?;
    caesar_server::Server::start(config).map_err(|e| CliError::System(e.to_string()))
}

/// Renders a drain summary as text (the tail of `caesar serve` output).
#[must_use]
pub fn render_drain_summary(summary: &caesar_server::DrainSummary) -> String {
    let mut s = String::from("drained:\n");
    for (name, outcome) in &summary.tenants {
        s.push_str(&format!(
            "  {name:20} in={} out={}{}{}\n",
            outcome.events_in,
            outcome.events_out,
            if outcome.checkpointed {
                " checkpointed"
            } else {
                ""
            },
            match &outcome.error {
                Some(e) => format!(" error: {e}"),
                None => String::new(),
            },
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCHEMA: &str = "\
# traffic schema
PositionReport vid:int sec:int lane:str
ManySlowCars seg:int
FewFastCars seg:int
";

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

    const EVENTS: &str = "\
# time partition type attrs...
1  0 PositionReport vid=7 sec=1 lane=travel
5  0 ManySlowCars seg=0
6  0 PositionReport vid=7 sec=6 lane=travel
7  0 PositionReport vid=8 sec=7 lane=exit
";

    #[test]
    fn schema_file_parses() {
        let schemas = parse_schema_file(SCHEMA).unwrap();
        assert_eq!(schemas.len(), 3);
        assert_eq!(schemas[0].0, "PositionReport");
        assert_eq!(schemas[0].1.len(), 3);
        assert_eq!(schemas[0].1[2], ("lane".to_string(), AttrType::Str));
    }

    #[test]
    fn schema_errors_carry_line_numbers() {
        let err = parse_schema_file("Good a:int\nBad a-int\n").unwrap_err();
        match err {
            CliError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("{other:?}"),
        }
        let err = parse_schema_file("Bad a:quux\n").unwrap_err();
        assert!(err.to_string().contains("unknown type"));
    }

    #[test]
    fn value_literals() {
        assert_eq!(parse_value("42"), Value::Int(42));
        assert_eq!(parse_value("-1"), Value::Int(-1));
        assert_eq!(parse_value("2.5"), Value::Float(2.5));
        assert_eq!(parse_value("true"), Value::Bool(true));
        assert_eq!(parse_value("travel"), Value::str("travel"));
        assert_eq!(parse_value("\"exit\""), Value::str("exit"));
    }

    fn options() -> RunOptions {
        RunOptions {
            model_text: MODEL.into(),
            schema_text: SCHEMA.into(),
            events_text: EVENTS.into(),
            ..RunOptions::default()
        }
    }

    #[test]
    fn end_to_end_run() {
        let out = run(&options()).unwrap();
        assert!(out.contains("events in:           4"), "{out}");
        assert!(out.contains("TollNotification"), "{out}");
        // One toll: vid 7 at t=6 (vid 8 is on the exit lane).
        assert!(out.contains("TollNotification               1"), "{out}");
    }

    #[test]
    fn explain_lists_contributing_events() {
        let explained = RunOptions {
            explain: true,
            ..options()
        };
        let out = run(&explained).unwrap();
        // The single toll derives from the vid-7 report at t=6 (the
        // congestion context opened at t=5).
        assert!(out.contains("matches:"), "{out}");
        assert!(
            out.contains("TollNotification@6 <= PositionReport@6"),
            "{out}"
        );
        // Without the flag, no matches section and no provenance.
        let plain = run(&options()).unwrap();
        assert!(!plain.contains("matches:"), "{plain}");
    }

    #[test]
    fn event_parse_errors_are_located() {
        let system = build_system(&options()).unwrap();
        let err = parse_event_file("1 0 Ghost a=1\n", &system).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
        let err = parse_event_file("x 0 PositionReport\n", &system).unwrap_err();
        assert!(err.to_string().contains("timestamp"));
    }

    #[test]
    fn checkpointed_run_writes_and_resumes() {
        let dir = std::env::temp_dir().join(format!("caesar-cli-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..options()
        };
        let out = run(&options).unwrap();
        assert!(out.contains("checkpoint dir:"), "{out}");
        assert!(out.contains("events in:           4"), "{out}");
        assert!(caesar_recovery::snapshot_path(&dir).exists());
        assert!(caesar_recovery::wal_path(&dir).exists());
        // A second run over the same file resumes at the end: nothing is
        // replayed, and the report matches the first run.
        let out2 = run(&options).unwrap();
        assert!(out2.contains("resumed at event:    4"), "{out2}");
        assert!(out2.contains("TollNotification               1"), "{out2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_checkpoint_is_reported_cleanly() {
        let dir = std::env::temp_dir().join(format!("caesar-cli-bad-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let options = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..options()
        };
        run(&options).unwrap();
        // Flip a payload byte: the next run must fail with the checksum
        // diagnostic instead of panicking or silently restarting.
        let snap = caesar_recovery::snapshot_path(&dir);
        let mut data = std::fs::read(&snap).unwrap();
        let last = data.len() - 1;
        data[last] ^= 0xFF;
        std::fs::write(&snap, &data).unwrap();
        let err = run(&options).unwrap_err();
        assert!(
            err.to_string().contains("integrity check"),
            "unexpected error: {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn serve_hosts_tenants_through_the_run_flag_plumbing() {
        use caesar_server::{Client, Request, Response};

        caesar_server::signal::reset();
        let serve_options = ServeOptions {
            tenants: vec![
                TenantSpec {
                    name: "east".into(),
                    model_text: MODEL.into(),
                    schema_text: SCHEMA.into(),
                },
                TenantSpec {
                    name: "west".into(),
                    model_text: MODEL.into(),
                    schema_text: SCHEMA.into(),
                },
            ],
            run: RunOptions {
                shards: 2,
                observability: ObservabilityLevel::Counters,
                ..RunOptions::default()
            },
            ..ServeOptions::default()
        };
        let handle = serve(&serve_options).unwrap();

        // The same event file `caesar run` takes, round-tripped over TCP.
        let system = build_system(&options()).unwrap();
        let events = parse_event_file(EVENTS, &system).unwrap();
        let mut client = Client::connect(handle.addr()).unwrap();
        for tenant in ["east", "west"] {
            let reply = client
                .roundtrip(&Request::Ingest {
                    tenant: tenant.into(),
                    events: events.clone(),
                })
                .unwrap();
            assert_eq!(reply, Response::Ack);
        }
        let reply = client
            .roundtrip(&Request::Finish {
                tenant: "east".into(),
            })
            .unwrap();
        let Response::Report(report) = reply else {
            panic!("expected report, got {reply:?}");
        };
        // Same answer as the embedded `run` over the same file: 4 events
        // in, one toll (vid 8 is on the exit lane).
        assert_eq!(report.events_in, 4);
        assert_eq!(report.outputs_of("TollNotification"), 1);

        handle.shutdown();
        let summary = handle.join();
        assert!(summary.clean(), "{:?}", summary.tenants);
        let rendered = render_drain_summary(&summary);
        assert!(rendered.contains("west"), "{rendered}");
    }

    #[test]
    fn serve_config_rejects_empty_tenant_list_and_bad_models() {
        let Err(err) = serve_config(&ServeOptions::default()) else {
            panic!("empty tenant list must be rejected");
        };
        assert!(err.to_string().contains("--tenant"), "{err}");

        let bad = ServeOptions {
            tenants: vec![TenantSpec {
                name: "t".into(),
                model_text: "MODEL broken".into(),
                schema_text: SCHEMA.into(),
            }],
            ..ServeOptions::default()
        };
        let Err(err) = serve_config(&bad) else {
            panic!("broken model must be rejected");
        };
        assert!(err.to_string().contains("tenant 't'"), "{err}");
    }

    #[test]
    fn consistency_flag_maps_and_preserves_results() {
        assert_eq!(
            engine_config(&RunOptions::default()).consistency,
            Consistency::Strict
        );
        let speculative = RunOptions {
            consistency: Consistency::Speculative,
            ..options()
        };
        assert_eq!(
            engine_config(&speculative).consistency,
            Consistency::Speculative
        );
        // Settled results are identical across consistency levels.
        assert_eq!(run(&speculative).unwrap(), run(&options()).unwrap());
        // Checkpointed speculative runs settle before every snapshot;
        // the run still completes and resumes like a strict one.
        let dir = std::env::temp_dir().join(format!("caesar-cli-spec-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let checkpointed = RunOptions {
            checkpoint_dir: Some(dir.clone()),
            checkpoint_every: 2,
            ..speculative
        };
        let out = run(&checkpointed).unwrap();
        assert!(out.contains("TollNotification               1"), "{out}");
        let out2 = run(&checkpointed).unwrap();
        assert!(out2.contains("resumed at event:    4"), "{out2}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn ci_mode_flag_respected() {
        let options = RunOptions {
            mode: ExecutionMode::ContextIndependent,
            ..options()
        };
        let out = run(&options).unwrap();
        assert!(out.contains("plans suspended:     0"), "{out}");
    }

    #[test]
    fn metrics_flags_render_and_write_json() {
        let json_path =
            std::env::temp_dir().join(format!("caesar-cli-metrics-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&json_path);
        let out = run(&RunOptions {
            observability: ObservabilityLevel::Spans,
            metrics: true,
            metrics_json: Some(json_path.clone()),
            ..options()
        })
        .unwrap();
        assert!(out.contains("metrics (level: spans):"), "{out}");
        assert!(out.contains("events_ingested"), "{out}");
        assert!(out.contains("stage spans"), "{out}");
        let json = std::fs::read_to_string(&json_path).unwrap();
        assert!(json.contains("\"counters\""), "{json}");
        assert!(json.contains("\"operators\""), "{json}");
        assert!(json.contains("\"contexts\""), "{json}");
        // Same inputs at Off must still compute the same answer, with
        // the report carrying the always-on operator accounting.
        let off = run(&RunOptions {
            metrics: true,
            ..options()
        })
        .unwrap();
        assert!(off.contains("events in:           4"), "{off}");
        let _ = std::fs::remove_file(&json_path);
    }
}
