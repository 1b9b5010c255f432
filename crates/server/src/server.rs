//! The `caesar serve` server: a TCP accept loop hosting multiple
//! tenants, an optional embedded `/metrics` HTTP responder, and the
//! graceful-drain orchestration.
//!
//! # Connection model
//!
//! Each accepted connection gets two threads: a *reader* decoding
//! request frames and dispatching them to tenants, and a *writer*
//! draining that connection's bounded outbound queue
//! (`ConnectionOut`, private). Acks, errors and
//! reports from the reader and derived-output frames from subscribed
//! tenants' shard workers serialize through the same queue, so the
//! client sees one coherent frame stream.
//!
//! # Drain state machine
//!
//! ```text
//! Running ──(SIGINT | SHUTDOWN frame | handle.shutdown())──▶ Draining
//! Draining: 1. stop accepting; reject new INGEST with DRAINING
//!           2. shutdown(Read) every connection; join readers
//!              (nothing un-acked can be admitted past this point)
//!           3. drain every tenant — run everything admitted, then
//!              checkpoint (resumable) or finish (final outputs)
//!           4. enqueue SHUTDOWN_OK, close outbound queues, join writers
//! Drained ──▶ handle.join() returns the DrainSummary; process exit 0
//! ```
//!
//! Step 2 before step 3 is the zero-loss argument: an event is either
//! acked (admitted before the reader died, therefore executed by step
//! 3) or un-acked (its connection saw EOF/DRAINING and the client knows
//! to retry elsewhere). There is no third state.

use crate::hub::ConnectionOut;
use crate::protocol::{
    read_frame, write_frame, ErrorCode, FrameError, Request, Response, DEFAULT_MAX_FRAME,
};
use crate::signal;
use crate::tenant::{shard_snapshot_path, AdmissionError, DrainOutcome, Tenant, TenantConfig};
use caesar_runtime::{CounterId, EngineState, MetricsRegistry, ObservabilityLevel};
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Duration;

/// Everything a server instance needs to start.
pub struct ServerConfig {
    /// Ingest listener address (`127.0.0.1:0` = loopback, ephemeral).
    pub listen: String,
    /// `/metrics` HTTP listener address; `None` disables the endpoint.
    pub metrics_listen: Option<String>,
    /// The hosted tenants (names must be unique).
    pub tenants: Vec<TenantConfig>,
    /// Per-frame body ceiling (bytes).
    pub max_frame_len: usize,
    /// How long an `INGEST` may wait for queue space before the server
    /// answers `QUEUE_FULL` — the slow-consumer throttle window.
    pub admission_timeout: Duration,
    /// How long a shard worker may wait on one slow subscriber before
    /// dropping that subscription.
    pub subscriber_timeout: Duration,
    /// Outbound queue capacity per connection (frames).
    pub connection_queue_capacity: usize,
    /// Drain on SIGINT/SIGTERM (the `caesar serve` default; off in
    /// tests so suites don't cross-talk through the process-wide flag).
    pub drain_on_signal: bool,
    /// Checkpoint root. At startup, tenants resume from
    /// `<dir>/<tenant>/shard-<i>.caesnap` when present; at drain, the
    /// same files are (re)written instead of finishing the engines.
    pub checkpoint_dir: Option<PathBuf>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            listen: "127.0.0.1:0".into(),
            metrics_listen: None,
            tenants: Vec::new(),
            max_frame_len: DEFAULT_MAX_FRAME,
            admission_timeout: Duration::from_secs(2),
            subscriber_timeout: Duration::from_secs(5),
            connection_queue_capacity: 256,
            drain_on_signal: false,
            checkpoint_dir: None,
        }
    }
}

/// End state of one drained server: per-tenant outcomes, in config
/// order.
#[derive(Debug, Default)]
pub struct DrainSummary {
    /// `(tenant name, outcome)` per hosted tenant.
    pub tenants: Vec<(String, DrainOutcome)>,
}

impl DrainSummary {
    /// True when every tenant drained without error.
    #[must_use]
    pub fn clean(&self) -> bool {
        self.tenants.iter().all(|(_, o)| o.error.is_none())
    }
}

pub(crate) struct Shared {
    tenants: Vec<Arc<Tenant>>,
    metrics: Mutex<MetricsRegistry>,
    shutdown: AtomicBool,
    draining: AtomicBool,
    max_frame_len: usize,
    admission_timeout: Duration,
    connection_queue_capacity: usize,
}

impl Shared {
    fn tenant(&self, name: &str) -> Option<&Arc<Tenant>> {
        self.tenants.iter().find(|t| t.name == name)
    }

    pub(crate) fn inc(&self, id: CounterId) {
        self.metrics.lock().expect("metrics poisoned").inc(id);
    }

    pub(crate) fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::Relaxed) || self.draining.load(Ordering::Relaxed)
    }

    /// The `/metrics` document: server-level counters plus one merged
    /// engine snapshot per tenant.
    pub(crate) fn metrics_json(&self) -> String {
        let mut s = String::with_capacity(1024);
        s.push_str("{\"server\":{");
        {
            let reg = self.metrics.lock().expect("metrics poisoned");
            for (i, id) in CounterId::ALL.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(&format!("\"{}\":{}", id.name(), reg.counter(*id)));
            }
        }
        s.push_str(",\"queue_high_water\":{");
        for (i, tenant) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!(
                "\"{}\":{}",
                json_escape(&tenant.name),
                tenant.queue_high_water()
            ));
        }
        // The hand-off granularity, per tenant: work units that crossed
        // the router, the shard queues and the output hub.
        s.push_str("},\"hand_offs\":{");
        for (i, tenant) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            let h = tenant.hand_offs();
            s.push_str(&format!(
                "\"{}\":{{\"shards\":{},\"ingest_frames\":{},\"ingest_events\":{},\
                 \"shard_runs\":{},\"output_frames\":{},\"output_events\":{}}}",
                json_escape(&tenant.name),
                h.shards,
                h.ingest_frames,
                h.ingest_events,
                h.shard_runs,
                h.output_frames,
                h.output_events
            ));
        }
        s.push_str("}},\"tenants\":{");
        for (i, tenant) in self.tenants.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            s.push_str(&format!("\"{}\":", json_escape(&tenant.name)));
            match tenant.metrics() {
                Ok(snap) => s.push_str(snap.to_json().trim_end()),
                Err(_) => s.push_str("null"),
            }
        }
        s.push_str("}}");
        s
    }
}

fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

struct ConnSlot {
    stream: TcpStream,
    out: Arc<ConnectionOut>,
    reader: Option<JoinHandle<()>>,
    writer: Option<JoinHandle<()>>,
}

/// The running server. Constructed by [`Server::start`]; owned by a
/// [`ServerHandle`].
pub struct Server;

impl Server {
    /// Binds the listeners, resumes tenants from checkpoints (when a
    /// checkpoint directory is configured and holds a complete shard
    /// set), and spawns the accept loop.
    pub fn start(mut config: ServerConfig) -> io::Result<ServerHandle> {
        for i in 1..config.tenants.len() {
            if config.tenants[..i]
                .iter()
                .any(|t| t.name == config.tenants[i].name)
            {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("duplicate tenant `{}`", config.tenants[i].name),
                ));
            }
        }
        if config.drain_on_signal {
            signal::install_drain_handler();
        }

        // Every tenant's engines are built and restored before any
        // tenant starts: a refused snapshot fails the start.
        let mut built = Vec::with_capacity(config.tenants.len());
        for tc in config.tenants.drain(..) {
            let resume = match &config.checkpoint_dir {
                Some(dir) => load_resume(&dir.join(&tc.name), tc.shards.max(1))?,
                None => None,
            };
            let engines = Tenant::engines(&tc, resume).map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("tenant `{}`: {e}", tc.name),
                )
            })?;
            built.push((tc, engines));
        }
        let timeout = config.subscriber_timeout;
        let tenants = built
            .into_iter()
            .map(|(tc, engines)| Arc::new(Tenant::start(tc, engines, timeout)))
            .collect();

        let listener = TcpListener::bind(&config.listen)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            tenants,
            metrics: Mutex::new(MetricsRegistry::new(ObservabilityLevel::Counters)),
            shutdown: AtomicBool::new(false),
            draining: AtomicBool::new(false),
            max_frame_len: config.max_frame_len,
            admission_timeout: config.admission_timeout,
            connection_queue_capacity: config.connection_queue_capacity,
        });

        let mut metrics_addr = None;
        let mut metrics_thread = None;
        if let Some(http_listen) = &config.metrics_listen {
            let http_listener = TcpListener::bind(http_listen)?;
            metrics_addr = Some(http_listener.local_addr()?);
            metrics_thread = Some(crate::http::spawn(http_listener, Arc::clone(&shared)));
        }

        let accept_shared = Arc::clone(&shared);
        let drain_on_signal = config.drain_on_signal;
        let checkpoint_dir = config.checkpoint_dir.clone();
        let accept = std::thread::spawn(move || {
            let summary = accept_loop(&listener, &accept_shared, drain_on_signal, checkpoint_dir);
            if let Some(handle) = metrics_thread {
                let _ = handle.join();
            }
            summary
        });

        Ok(ServerHandle {
            addr,
            metrics_addr,
            shared,
            accept: Some(accept),
        })
    }
}

/// Loads a tenant's resume states: `None` when the directory holds no
/// snapshots, all `shards` states when it holds a complete set, an
/// error on a partial or unreadable set.
fn load_resume(dir: &std::path::Path, shards: usize) -> io::Result<Option<Vec<EngineState>>> {
    let present: Vec<PathBuf> = (0..shards)
        .map(|i| shard_snapshot_path(dir, i))
        .filter(|p| p.exists())
        .collect();
    if present.is_empty() {
        return Ok(None);
    }
    if present.len() != shards {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "{}: found {} of {} shard snapshots — refusing a partial resume",
                dir.display(),
                present.len(),
                shards
            ),
        ));
    }
    let mut states = Vec::with_capacity(shards);
    for i in 0..shards {
        let path = shard_snapshot_path(dir, i);
        let snapshot = caesar_recovery::read_snapshot(&path).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("{}: {e}", path.display()),
            )
        })?;
        states.push(snapshot.state);
    }
    Ok(Some(states))
}

/// Handle over a running server: address accessors, shutdown trigger,
/// and the join that yields the drain summary.
pub struct ServerHandle {
    addr: SocketAddr,
    metrics_addr: Option<SocketAddr>,
    shared: Arc<Shared>,
    accept: Option<JoinHandle<DrainSummary>>,
}

impl ServerHandle {
    /// The bound ingest address (resolves `:0` to the real port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The bound `/metrics` address, when enabled.
    #[must_use]
    pub fn metrics_addr(&self) -> Option<SocketAddr> {
        self.metrics_addr
    }

    /// Requests a drain (same path as SIGINT / a `SHUTDOWN` frame);
    /// returns immediately. Follow with [`join`](Self::join).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::Relaxed);
    }

    /// Waits for the server to drain and returns the summary.
    ///
    /// # Panics
    /// Panics if called twice (the accept thread is consumed).
    pub fn join(mut self) -> DrainSummary {
        let accept = self.accept.take().expect("join called once");
        accept.join().unwrap_or_default()
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if let Some(accept) = self.accept.take() {
            self.shared.shutdown.store(true, Ordering::Relaxed);
            let _ = accept.join();
        }
    }
}

fn accept_loop(
    listener: &TcpListener,
    shared: &Arc<Shared>,
    drain_on_signal: bool,
    checkpoint_dir: Option<PathBuf>,
) -> DrainSummary {
    let mut connections: Vec<ConnSlot> = Vec::new();
    loop {
        if shared.shutdown.load(Ordering::Relaxed) || (drain_on_signal && signal::drain_requested())
        {
            break;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.inc(CounterId::ConnectionsAccepted);
                match spawn_connection(stream, shared) {
                    Ok(slot) => connections.push(slot),
                    Err(_) => shared.inc(CounterId::ConnectionsRejected),
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                // Reap connections whose threads both finished, so a
                // long-lived server doesn't accumulate dead slots.
                for slot in &mut connections {
                    if slot
                        .reader
                        .as_ref()
                        .is_some_and(std::thread::JoinHandle::is_finished)
                        && slot
                            .writer
                            .as_ref()
                            .is_some_and(std::thread::JoinHandle::is_finished)
                    {
                        slot.reader.take().map(|h| h.join().ok());
                        slot.writer.take().map(|h| h.join().ok());
                    }
                }
                connections.retain(|s| s.reader.is_some() || s.writer.is_some());
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(5)),
        }
    }

    // Drain. Order matters; see the module docs' state machine.
    shared.draining.store(true, Ordering::Relaxed);
    for slot in &mut connections {
        // EOF the readers: admitted work is final now, un-read frames
        // are never acked.
        let _ = slot.stream.shutdown(Shutdown::Read);
        if let Some(reader) = slot.reader.take() {
            let _ = reader.join();
        }
    }
    let mut summary = DrainSummary::default();
    for tenant in &shared.tenants {
        let dir = checkpoint_dir.as_ref().map(|d| d.join(&tenant.name));
        let outcome = tenant.drain(dir);
        summary.tenants.push((tenant.name.clone(), outcome));
    }
    for slot in &mut connections {
        slot.out.send(Response::ShutdownOk.encode());
        slot.out.close();
        if let Some(writer) = slot.writer.take() {
            let _ = writer.join();
        }
        let _ = slot.stream.shutdown(Shutdown::Both);
    }
    summary
}

fn spawn_connection(stream: TcpStream, shared: &Arc<Shared>) -> io::Result<ConnSlot> {
    // The listener is non-blocking; connection I/O must not be.
    stream.set_nonblocking(false)?;
    let _ = stream.set_nodelay(true);
    let out = Arc::new(ConnectionOut::new(shared.connection_queue_capacity));

    let mut write_half = stream.try_clone()?;
    let writer_out = Arc::clone(&out);
    let writer_shared = Arc::clone(shared);
    let writer = std::thread::spawn(move || {
        while let Some(body) = writer_out.next() {
            if write_frame(&mut write_half, &body).is_err() {
                writer_out.mark_dead();
                break;
            }
            writer_shared.inc(CounterId::FramesOut);
        }
        let _ = write_half.flush();
    });

    let mut read_half = stream.try_clone()?;
    let reader_out = Arc::clone(&out);
    let reader_shared = Arc::clone(shared);
    let reader = std::thread::spawn(move || {
        connection_reader(&mut read_half, &reader_out, &reader_shared);
    });

    Ok(ConnSlot {
        stream,
        out,
        reader: Some(reader),
        writer: Some(writer),
    })
}

fn admission_error(err: &AdmissionError) -> Response {
    let code = match err {
        AdmissionError::QueueFull => ErrorCode::QueueFull,
        AdmissionError::Draining => ErrorCode::Draining,
        AdmissionError::Finished => ErrorCode::TenantFinished,
        AdmissionError::Internal(_) => ErrorCode::Internal,
    };
    Response::Error {
        code,
        message: err.to_string(),
    }
}

fn connection_reader(stream: &mut TcpStream, out: &Arc<ConnectionOut>, shared: &Arc<Shared>) {
    // (tenant, subscription id) pairs to detach on exit.
    let mut subscriptions: Vec<(Arc<Tenant>, u64)> = Vec::new();
    loop {
        let body = match read_frame(stream, shared.max_frame_len) {
            Ok(Some(body)) => body,
            Ok(None) => break, // clean close at a frame boundary
            Err(FrameError::TooLarge { declared, max }) => {
                // The body was never read, so the stream is out of
                // sync: report and hang up.
                shared.inc(CounterId::ConnectionsRejected);
                out.send(
                    Response::Error {
                        code: ErrorCode::FrameTooLarge,
                        message: format!("{declared} bytes exceeds the {max}-byte frame limit"),
                    }
                    .encode(),
                );
                break;
            }
            Err(_) => {
                // Transport failure (mid-frame disconnect included).
                shared.inc(CounterId::ConnectionsRejected);
                break;
            }
        };
        shared.inc(CounterId::FramesIn);
        let request = match Request::decode(&body) {
            Ok(request) => request,
            Err(e) => {
                // The length prefix was honest, so the stream is still
                // frame-synced: answer and keep serving.
                out.send(
                    Response::Error {
                        code: ErrorCode::Malformed,
                        message: e.to_string(),
                    }
                    .encode(),
                );
                continue;
            }
        };
        let response = match request {
            Request::Ingest { tenant, events } => {
                if shared.stopping() {
                    shared.inc(CounterId::IngestRejected);
                    Response::Error {
                        code: ErrorCode::Draining,
                        message: "server is draining".into(),
                    }
                } else {
                    match shared.tenant(&tenant) {
                        None => {
                            shared.inc(CounterId::IngestRejected);
                            Response::Error {
                                code: ErrorCode::UnknownTenant,
                                message: format!("no tenant `{tenant}`"),
                            }
                        }
                        Some(t) => match t.ingest(events, shared.admission_timeout) {
                            Ok(()) => Response::Ack,
                            Err(e) => {
                                shared.inc(CounterId::IngestRejected);
                                admission_error(&e)
                            }
                        },
                    }
                }
            }
            Request::Subscribe { tenant } => match shared.tenant(&tenant) {
                None => Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant `{tenant}`"),
                },
                Some(t) => {
                    let id = t.subscribe(Arc::clone(out));
                    subscriptions.push((Arc::clone(t), id));
                    Response::Ack
                }
            },
            Request::Flush { tenant } => match shared.tenant(&tenant) {
                None => Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant `{tenant}`"),
                },
                Some(t) => match t.flush() {
                    Ok(()) => Response::FlushOk,
                    Err(e) => admission_error(&e),
                },
            },
            Request::Finish { tenant } => match shared.tenant(&tenant) {
                None => Response::Error {
                    code: ErrorCode::UnknownTenant,
                    message: format!("no tenant `{tenant}`"),
                },
                Some(t) => match t.finish() {
                    Ok(report) => Response::Report(report),
                    Err(e) => admission_error(&e),
                },
            },
            Request::Ping => Response::Pong,
            Request::Shutdown => {
                // Idempotent: a second SHUTDOWN (same or another
                // connection) re-acks without disturbing the drain.
                shared.shutdown.store(true, Ordering::Relaxed);
                Response::Ack
            }
        };
        if !out.send(response.encode()) {
            break;
        }
    }
    // Readers exit first during a drain, BEFORE the tenants run their
    // final flush — the subscription must stay attached so those last
    // outputs still reach this connection, and the accept loop owns the
    // ShutdownOk + close sequence. Only a plain client disconnect
    // detaches and closes here.
    if !shared.draining.load(Ordering::Relaxed) {
        for (tenant, id) in subscriptions {
            tenant.unsubscribe(id);
        }
        out.close();
    }
}
