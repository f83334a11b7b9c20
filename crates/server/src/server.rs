//! The daemon: TCP listener, connection serving, and the `--stdio` mode.
//!
//! TCP connections are served under one of two I/O models ([`IoModel`]).
//! Under the default **event model** (Linux), one poll thread multiplexes
//! every socket through `epoll` (see the `event` module): connections cost a
//! registry entry instead of a thread, requests on one connection may be
//! pipelined (responses come back out of order, tagged by the
//! client-supplied `id`), and a `batch` request answers many sub-requests in
//! one line. Under the legacy **threads model** each connection gets a
//! blocking reader thread that serves strictly one request at a time.
//!
//! In both models analysis work never runs on the connection layer — it is
//! submitted to the shared [`WorkerPool`], whose bounded queue pushes back
//! on flooding clients. Results are cached under their
//! [canonical key](crate::canonical) so a repeated request is answered
//! without recomputation (`"cached": true` in the response).
//!
//! # Robustness
//!
//! Every per-connection resource is bounded:
//!
//! * request lines are length-limited **while being read** — a newline-free
//!   flood is discarded as it streams in (memory stays bounded by one
//!   limit-sized line; see the `conn` module) and answered with a
//!   structured error;
//! * idle connections are subject to a read deadline and stalled writers to
//!   a write deadline, so a dead peer can never pin a thread;
//! * concurrent connections are capped — connections beyond the cap get a
//!   structured "overloaded" response and an immediate close (shedding);
//! * finished connection threads are reaped and closed sockets dropped from
//!   the registry as the accept loop runs, so neither grows with connection
//!   churn.
//!
//! # Shutdown
//!
//! A `{"kind":"shutdown"}` request (or end-of-input in `--stdio` mode) stops
//! the daemon gracefully: the listener stops accepting, the worker pool
//! drains every job it has already accepted, in-flight responses are
//! written, and only then are the remaining connections closed.

use std::collections::HashMap;
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use sealpaa_cells::StandardCell;

use crate::cache::ResultCache;
use crate::canonical::cache_key;
use crate::conn::{LineEvent, LineFramer};
use crate::json::Json;
use crate::metrics::{kind_index, Metrics, KIND_NAMES};
use crate::pool::WorkerPool;
use crate::protocol::{
    body_from_doc, error_response, ok_response, render_batch_ok_response, render_ok_response,
    write_sub_ok_response, AdderSpec, BatchBody, BatchSpec, BlocksSpec, DatapathSpec,
    DatapathTopology, DseSpec, GearSpec, ProfileSource, ProfileSpec, RequestBody, SimMode,
    SimulateSpec, MAX_LINE_BYTES,
};
use crate::snapshot::{read_snapshot, write_snapshot, SnapshotError, SnapshotLimits};

/// How the daemon serves TCP connections.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IoModel {
    /// One poll thread multiplexes every socket through a readiness API
    /// (`epoll`; Linux only). Idle connections cost a registry entry, not a
    /// thread; requests may be pipelined per connection.
    Event,
    /// One blocking reader thread per connection — the legacy model, kept
    /// for comparison and for platforms without `epoll`.
    Threads,
}

impl IoModel {
    /// The wire/CLI name of the model.
    pub fn name(self) -> &'static str {
        match self {
            IoModel::Event => "event",
            IoModel::Threads => "threads",
        }
    }
}

impl Default for IoModel {
    /// The event model where the platform supports it, threads elsewhere.
    fn default() -> IoModel {
        if cfg!(target_os = "linux") {
            IoModel::Event
        } else {
            IoModel::Threads
        }
    }
}

impl std::str::FromStr for IoModel {
    type Err = String;

    fn from_str(s: &str) -> Result<IoModel, String> {
        match s {
            "event" => Ok(IoModel::Event),
            "threads" => Ok(IoModel::Threads),
            other => Err(format!(
                "unknown io model {other:?} (expected event or threads)"
            )),
        }
    }
}

/// Daemon configuration; [`Default`] gives sensible local settings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Listen address, e.g. `127.0.0.1:4517`. Port 0 picks an ephemeral
    /// port (query it via [`Server::local_addr`]).
    pub addr: String,
    /// Worker threads executing analyses.
    pub threads: usize,
    /// Total result-cache capacity in entries (0 disables caching).
    pub cache_entries: usize,
    /// Bounded job-queue capacity; submissions beyond it block.
    pub queue_capacity: usize,
    /// Maximum concurrently served TCP connections; connections beyond it
    /// are shed with a structured "overloaded" error (0 disables the cap).
    pub max_connections: usize,
    /// Maximum request-line length in bytes, enforced while reading: longer
    /// lines are discarded as they stream in and answered with a structured
    /// error instead of being buffered.
    pub max_line_bytes: usize,
    /// Idle deadline in milliseconds: a connection that sends no complete
    /// request line for this long is answered with a structured timeout
    /// error and closed (0 disables the deadline; TCP only).
    pub idle_timeout_ms: u64,
    /// Write deadline in milliseconds: a peer that stops reading its
    /// responses for this long is disconnected (0 disables; TCP only).
    pub write_timeout_ms: u64,
    /// Emit one NDJSON access-log line per request (timestamp-free fields
    /// only, so traces are byte-reproducible). [`Server::bind`] and
    /// [`run_stdio`] send the trace to stderr; see
    /// [`Server::bind_with_trace`] / [`run_stdio_with_trace`] to capture it.
    pub trace: bool,
    /// The TCP connection-serving model (ignored by `--stdio`, which always
    /// runs the blocking line loop).
    pub io_model: IoModel,
    /// Persist the result cache to this file (the warm-restart snapshot):
    /// loaded at startup if present and valid, rewritten periodically and on
    /// drain. `None` disables persistence.
    pub cache_snapshot: Option<String>,
    /// How often (in milliseconds) the running daemon rewrites the snapshot
    /// when the cache has changed; 0 keeps only the on-drain write.
    pub snapshot_interval_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:4517".to_owned(),
            threads: 4,
            cache_entries: 1024,
            queue_capacity: 64,
            max_connections: 256,
            max_line_bytes: MAX_LINE_BYTES,
            idle_timeout_ms: 60_000,
            write_timeout_ms: 60_000,
            trace: false,
            io_model: IoModel::default(),
            cache_snapshot: None,
            snapshot_interval_ms: 30_000,
        }
    }
}

/// A writer receiving the NDJSON access log.
pub type TraceSink = Box<dyn Write + Send>;

/// Everything shared between connection threads (or, under the event model,
/// between the poll thread and the workers).
pub(crate) struct ServerState {
    pub(crate) cache: ResultCache,
    pub(crate) metrics: Metrics,
    pub(crate) pool: WorkerPool,
    pub(crate) threads: usize,
    pub(crate) max_line_bytes: usize,
    pub(crate) shutdown: AtomicBool,
    /// The wire name of the serving model, reported by `stats`.
    pub(crate) io_model: &'static str,
    /// Live TCP connections by id — the shutdown sweep unblocks exactly
    /// these readers, and each serving thread prunes its own entry on exit
    /// (via [`ConnectionGuard`]) so the registry never outgrows the
    /// connection cap. Unused under the event model, whose connections live
    /// in the poll thread's own registry (reported via the
    /// `registered_fds` gauge).
    pub(crate) connections: Mutex<HashMap<u64, TcpStream>>,
    pub(crate) trace: Option<Mutex<TraceSink>>,
    /// Warm-restart persistence, when `--cache-snapshot` is set.
    pub(crate) snapshot: Option<SnapshotState>,
}

/// The daemon's snapshot persistence state: where to write, how often, and
/// what was last written (tracked by the cache's insert counter so an
/// unchanged cache is never rewritten).
pub(crate) struct SnapshotState {
    path: PathBuf,
    interval: Option<Duration>,
    clock: Mutex<SnapshotClock>,
}

struct SnapshotClock {
    last_attempt: Instant,
    last_inserts: u64,
}

impl ServerState {
    fn new(config: &ServerConfig, trace: Option<TraceSink>) -> ServerState {
        let cache = ResultCache::new(config.cache_entries);
        // A snapshot only makes sense with a cache to warm; capacity 0
        // disables persistence along with caching.
        let snapshot = config
            .cache_snapshot
            .as_ref()
            .filter(|_| config.cache_entries > 0)
            .map(|path| {
                let path = PathBuf::from(path);
                let limits = SnapshotLimits {
                    max_entries: config.cache_entries as u64,
                    ..SnapshotLimits::default()
                };
                match read_snapshot(&path, limits) {
                    Ok(entries) => {
                        for (key, value) in entries {
                            cache.insert(key, value);
                        }
                    }
                    // First run: no snapshot yet, nothing to report.
                    Err(SnapshotError::Io(e)) if e.kind() == ErrorKind::NotFound => {}
                    // Anything else (truncated, version-bumped, bit-flipped,
                    // unreadable) is reported and ignored: the daemon starts
                    // cold and will overwrite the bad file at the next
                    // persist.
                    Err(e) => eprintln!("sealpaa: ignoring cache snapshot {}: {e}", path.display()),
                }
                SnapshotState {
                    path,
                    interval: (config.snapshot_interval_ms > 0)
                        .then(|| Duration::from_millis(config.snapshot_interval_ms)),
                    clock: Mutex::new(SnapshotClock {
                        last_attempt: Instant::now(),
                        // A freshly loaded snapshot is not dirty: nothing
                        // needs rewriting until the first new insert.
                        last_inserts: cache.inserts(),
                    }),
                }
            });
        ServerState {
            cache,
            metrics: Metrics::new(),
            pool: WorkerPool::new(config.threads, config.queue_capacity),
            threads: config.threads.max(1),
            max_line_bytes: config.max_line_bytes.max(1),
            shutdown: AtomicBool::new(false),
            io_model: config.io_model.name(),
            connections: Mutex::new(HashMap::new()),
            trace: trace.map(Mutex::new),
            snapshot,
        }
    }
}

/// Writes the cache snapshot now if the cache has changed since the last
/// write. Failures are reported to stderr and retried at the next tick —
/// persistence is best-effort, serving never depends on it.
pub(crate) fn persist_snapshot(state: &ServerState) {
    let Some(snap) = &state.snapshot else {
        return;
    };
    let inserts = state.cache.inserts();
    {
        let mut clock = snap.clock.lock().expect("snapshot clock poisoned");
        clock.last_attempt = Instant::now();
        if clock.last_inserts == inserts {
            return;
        }
    }
    let entries = state.cache.export();
    match write_snapshot(&snap.path, &entries) {
        Ok(()) => {
            let mut clock = snap.clock.lock().expect("snapshot clock poisoned");
            clock.last_inserts = inserts;
        }
        Err(e) => eprintln!(
            "sealpaa: cache snapshot write to {} failed: {e}",
            snap.path.display()
        ),
    }
}

/// Time until the next periodic snapshot write is both due and needed (the
/// cache changed since the last write), or `None`. The event loop folds
/// this into its poll timeout so an idle-but-warm daemon still persists.
#[cfg(target_os = "linux")]
pub(crate) fn snapshot_due_in(state: &ServerState) -> Option<Duration> {
    let snap = state.snapshot.as_ref()?;
    let interval = snap.interval?;
    let clock = snap.clock.lock().expect("snapshot clock poisoned");
    if clock.last_inserts == state.cache.inserts() {
        return None;
    }
    Some(interval.saturating_sub(clock.last_attempt.elapsed()))
}

/// Calls [`persist_snapshot`] when the periodic interval has elapsed.
/// Serving loops call this once per pass; the interval (not the call rate)
/// bounds the write frequency.
pub(crate) fn maybe_persist_snapshot(state: &ServerState) {
    let Some(snap) = &state.snapshot else {
        return;
    };
    let Some(interval) = snap.interval else {
        return;
    };
    let due = {
        let clock = snap.clock.lock().expect("snapshot clock poisoned");
        clock.last_attempt.elapsed() >= interval
    };
    if due {
        persist_snapshot(state);
    }
}

/// Removes the connection's registry entry and decrements the live gauge
/// however the serving thread exits (clean EOF, timeout, error, panic).
struct ConnectionGuard {
    state: Arc<ServerState>,
    id: u64,
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.state
            .connections
            .lock()
            .expect("connection registry")
            .remove(&self.id);
        self.state.metrics.connection_closed();
    }
}

/// A bound-but-not-yet-running daemon.
pub struct Server {
    pub(crate) listener: TcpListener,
    pub(crate) local_addr: SocketAddr,
    pub(crate) state: Arc<ServerState>,
    pub(crate) max_connections: usize,
    pub(crate) idle_timeout: Option<Duration>,
    pub(crate) write_timeout: Option<Duration>,
    pub(crate) io_model: IoModel,
}

impl Server {
    /// Binds the listen socket and spawns the worker pool. With
    /// `config.trace` set, the access log goes to stderr.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind(config: ServerConfig) -> std::io::Result<Server> {
        let trace = config
            .trace
            .then(|| Box::new(std::io::stderr()) as TraceSink);
        Server::bind_inner(config, trace)
    }

    /// Like [`Server::bind`], but sends the NDJSON access log to `trace`
    /// regardless of `config.trace`.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the address cannot be bound.
    pub fn bind_with_trace(config: ServerConfig, trace: TraceSink) -> std::io::Result<Server> {
        Server::bind_inner(config, Some(trace))
    }

    fn bind_inner(config: ServerConfig, trace: Option<TraceSink>) -> std::io::Result<Server> {
        let addr = config.addr.to_socket_addrs()?.next().ok_or_else(|| {
            std::io::Error::other(format!("unresolvable address {}", config.addr))
        })?;
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let timeout = |ms: u64| (ms > 0).then(|| Duration::from_millis(ms));
        Ok(Server {
            listener,
            local_addr,
            state: Arc::new(ServerState::new(&config, trace)),
            max_connections: config.max_connections,
            idle_timeout: timeout(config.idle_timeout_ms),
            write_timeout: timeout(config.write_timeout_ms),
            io_model: config.io_model,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Serves until a `shutdown` request arrives, then drains and returns.
    ///
    /// # Errors
    ///
    /// Returns the underlying I/O error if the accept loop fails (per-client
    /// errors only terminate that client), or if the configured
    /// [`IoModel`] is unavailable on this platform.
    pub fn run(self) -> std::io::Result<()> {
        match self.io_model {
            IoModel::Threads => self.run_threads(),
            #[cfg(target_os = "linux")]
            IoModel::Event => crate::event::run(self),
            #[cfg(not(target_os = "linux"))]
            IoModel::Event => Err(std::io::Error::other(
                "io model \"event\" requires Linux (epoll); use \"threads\"",
            )),
        }
    }

    /// The legacy thread-per-connection accept loop.
    fn run_threads(self) -> std::io::Result<()> {
        self.listener.set_nonblocking(true)?;
        let mut handles: Vec<std::thread::JoinHandle<()>> = Vec::new();
        let mut next_id: u64 = 0;
        while !self.state.shutdown.load(Ordering::SeqCst) {
            // Reap finished connection threads on every pass, so the handle
            // list stays bounded by the number of live connections instead
            // of growing with the total ever accepted.
            reap_finished(&mut handles);
            maybe_persist_snapshot(&self.state);
            match self.listener.accept() {
                Ok((stream, _peer)) => self.admit(stream, &mut next_id, &mut handles),
                Err(e) if e.kind() == ErrorKind::WouldBlock => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                Err(e) => return Err(e),
            }
        }
        // Drain: stop taking new work, finish everything already accepted …
        self.state.pool.shutdown();
        // … then unblock readers stuck on idle connections. Only the read
        // half is shut — a connection thread may still be writing the
        // response for a job the drain just finished, and that write must
        // land before the socket closes (when the joined thread drops it).
        for stream in self
            .state
            .connections
            .lock()
            .expect("connection registry")
            .values()
        {
            stream.shutdown(Shutdown::Read).ok();
        }
        for handle in handles {
            handle.join().ok();
        }
        // Everything the drain computed is in the cache now; capture it so
        // the next start is warm.
        persist_snapshot(&self.state);
        Ok(())
    }

    /// Admits one accepted connection: applies deadlines, sheds past the
    /// connection cap, registers it, and spawns its serving thread. All
    /// failures refuse the connection — a connection that cannot be
    /// registered is never served, because the shutdown sweep could not
    /// unblock its reader.
    fn admit(
        &self,
        stream: TcpStream,
        next_id: &mut u64,
        handles: &mut Vec<std::thread::JoinHandle<()>>,
    ) {
        if stream.set_nonblocking(false).is_err() {
            return; // nothing useful can be written either
        }
        // The write deadline first: even the refusal writes below must not
        // be able to stall the accept loop.
        if let Some(t) = self.write_timeout {
            stream.set_write_timeout(Some(t)).ok();
        }
        let live = self
            .state
            .connections
            .lock()
            .expect("connection registry")
            .len();
        if self.max_connections > 0 && live >= self.max_connections {
            self.state.metrics.record_shed();
            refuse(
                stream,
                "server overloaded: connection limit reached, retry later",
            );
            return;
        }
        if let Some(t) = self.idle_timeout {
            stream.set_read_timeout(Some(t)).ok();
        }
        // Both clones up front, before anything is served: a clone failure
        // refuses the connection instead of serving it unregistered.
        let (reader_stream, registry_stream) = match (stream.try_clone(), stream.try_clone()) {
            (Ok(r), Ok(g)) => (r, g),
            _ => {
                refuse(stream, "connection setup failed: cannot clone the socket");
                return;
            }
        };
        let id = *next_id;
        *next_id += 1;
        self.state
            .connections
            .lock()
            .expect("connection registry")
            .insert(id, registry_stream);
        self.state.metrics.connection_opened();
        let state = Arc::clone(&self.state);
        handles.push(std::thread::spawn(move || {
            let _guard = ConnectionGuard {
                state: Arc::clone(&state),
                id,
            };
            let reader = BufReader::new(reader_stream);
            let mut writer = stream;
            serve_lines(&state, reader, &mut writer).ok();
        }));
    }
}

/// Joins every already-finished handle, keeping the rest.
fn reap_finished(handles: &mut Vec<std::thread::JoinHandle<()>>) {
    let mut i = 0;
    while i < handles.len() {
        if handles[i].is_finished() {
            handles.swap_remove(i).join().ok();
        } else {
            i += 1;
        }
    }
}

/// Writes one structured error line to a connection that is being turned
/// away, then closes it (by drop). Best effort — the peer may already be
/// gone, and the accept loop must not care.
fn refuse(mut stream: TcpStream, message: &str) {
    let response = error_response(None, message).render();
    let _ = writeln!(stream, "{response}");
}

/// Runs the protocol over an arbitrary line stream — the `--stdio` mode.
/// Returns at end-of-input or after a `shutdown` request, draining the
/// worker pool before returning. With `config.trace` set, the access log
/// goes to stderr.
///
/// # Errors
///
/// Returns the underlying I/O error if reading or writing fails.
pub fn run_stdio<R: BufRead, W: Write>(
    config: &ServerConfig,
    input: R,
    output: &mut W,
) -> std::io::Result<()> {
    let trace = config
        .trace
        .then(|| Box::new(std::io::stderr()) as TraceSink);
    run_stdio_inner(config, input, output, trace)
}

/// Like [`run_stdio`], but sends the NDJSON access log to `trace`
/// regardless of `config.trace`.
///
/// # Errors
///
/// Returns the underlying I/O error if reading or writing fails.
pub fn run_stdio_with_trace<R: BufRead, W: Write>(
    config: &ServerConfig,
    input: R,
    output: &mut W,
    trace: TraceSink,
) -> std::io::Result<()> {
    run_stdio_inner(config, input, output, Some(trace))
}

fn run_stdio_inner<R: BufRead, W: Write>(
    config: &ServerConfig,
    input: R,
    output: &mut W,
    trace: Option<TraceSink>,
) -> std::io::Result<()> {
    // Stdio is always the blocking line loop, whatever the TCP model says.
    let mut config = config.clone();
    config.io_model = IoModel::Threads;
    let state = Arc::new(ServerState::new(&config, trace));
    let served = serve_lines(&state, input, output);
    state.pool.shutdown();
    persist_snapshot(&state);
    served
}

/// The outcome of serving one request line — everything the transport loop
/// needs for the response, the access log, and flow control.
pub(crate) struct Served {
    pub(crate) response: String,
    pub(crate) shutdown: bool,
    /// The request's wire kind, when recognizable (even from an otherwise
    /// invalid request).
    pub(crate) kind: Option<&'static str>,
    pub(crate) ok: bool,
    pub(crate) cached: bool,
    pub(crate) error: Option<String>,
}

impl Served {
    fn failure(response: String, kind: Option<&'static str>, message: String) -> Served {
        Served {
            response,
            shutdown: false,
            kind,
            ok: false,
            cached: false,
            error: Some(message),
        }
    }
}

/// The answer to a connection that sent no complete request line within
/// the idle deadline, just before it is closed.
pub(crate) const IDLE_TIMEOUT: &str = "idle timeout: no complete request within the read deadline";

/// The per-connection loop shared by TCP and stdio transports.
fn serve_lines<R: BufRead, W: Write>(
    state: &Arc<ServerState>,
    mut input: R,
    output: &mut W,
) -> std::io::Result<()> {
    let mut framer = LineFramer::new(state.max_line_bytes);
    loop {
        let event = match framer.read_from(&mut input) {
            Ok(Some(event)) => event,
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                state.metrics.record_timeout();
                // Best effort — the stalled peer may never read it.
                let response = error_response(None, IDLE_TIMEOUT).render();
                let _ = writeln!(output, "{response}").and_then(|()| output.flush());
                trace_request(state, None, false, false, 0, Some(IDLE_TIMEOUT));
                break;
            }
            // End of input, or a read error (reset/closed socket), just ends
            // this connection.
            Ok(None) | Err(_) => break,
        };
        let Some(action) = classify_event(state, &event) else {
            continue;
        };
        let served = run_blocking(state, action);
        write_response(state, output, &served.response)?;
        trace_request(
            state,
            served.kind,
            served.ok,
            served.cached,
            event.bytes(),
            served.error.as_deref(),
        );
        if served.shutdown {
            state.shutdown.store(true, Ordering::SeqCst);
            break;
        }
        if event.ends_input() {
            break;
        }
    }
    Ok(())
}

/// Writes one response line, counting a write-deadline expiry (peer stopped
/// reading) as a timeout before propagating the error to close the
/// connection.
fn write_response<W: Write>(
    state: &ServerState,
    output: &mut W,
    response: &str,
) -> std::io::Result<()> {
    writeln!(output, "{response}")
        .and_then(|()| output.flush())
        .inspect_err(|e| {
            if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) {
                state.metrics.record_timeout();
            }
        })
}

/// Emits one NDJSON access-log line, if tracing is enabled. Fields are
/// deliberately timestamp- and duration-free so a replayed session produces
/// a byte-identical trace.
pub(crate) fn trace_request(
    state: &ServerState,
    kind: Option<&str>,
    ok: bool,
    cached: bool,
    bytes_in: usize,
    error: Option<&str>,
) {
    let Some(sink) = &state.trace else {
        return;
    };
    let mut obj = Json::object()
        .field("kind", kind.map_or(Json::Null, Json::from))
        .field("ok", ok)
        .field("cached", cached)
        .field("bytes_in", bytes_in as u64);
    if let Some(message) = error {
        obj = obj.field("error", message);
    }
    let line = obj.build().render();
    let mut out = sink.lock().expect("trace sink poisoned");
    let _ = writeln!(out, "{line}");
    let _ = out.flush();
}

/// Pool work that answers one request: it runs on a worker, settles the
/// cache and the metrics, and renders the response.
pub(crate) type Work = Box<dyn FnOnce(&ServerState) -> Served + Send>;

/// What a serving loop does with one framed event: answer immediately, or
/// hand work to the pool first. Produced by [`classify_event`], shared by
/// the blocking loop (which waits for the work) and the event loop (which
/// pipelines it).
pub(crate) enum LineAction {
    /// The response is ready now (a refused line, a parse error, a control
    /// request, a cache hit, a batch answered wholly from the cache).
    Respond(Served),
    /// An analysis, or a batch's cache misses, must run on a worker. `id`
    /// and `kind` answer for the request should the pool refuse the job.
    Work {
        id: Option<Json>,
        kind: &'static str,
        work: Work,
    },
}

/// Triages one framed event: a blank line is skipped (`None`), a line the
/// framer refused is answered with its structured error, and a request line
/// goes to [`classify_line`].
pub(crate) fn classify_event(state: &ServerState, event: &LineEvent) -> Option<LineAction> {
    if let LineEvent::Line(line) = event {
        return (!line.trim().is_empty()).then(|| classify_line(state, line));
    }
    let message = event.rejection(state.max_line_bytes)?;
    state.metrics.record_error(None);
    Some(LineAction::Respond(Served::failure(
        error_response(None, &message).render(),
        None,
        message,
    )))
}

/// Parses and triages one request line: everything except actual analysis
/// work happens here (parse salvage, control requests, the cache probe, and
/// batch planning), so both transports share one protocol brain.
fn classify_line(state: &ServerState, line: &str) -> LineAction {
    let started = Instant::now();
    let fail = |message: String, doc: Option<&Json>| {
        // The id — and the kind, for attribution — are worth salvaging
        // even from an invalid request.
        let id = doc.and_then(|d| d.get("id").cloned());
        let kind = doc
            .and_then(|d| d.get("kind"))
            .and_then(Json::as_str)
            .and_then(|k| kind_index(k).map(|i| KIND_NAMES[i]));
        state.metrics.record_error(kind);
        LineAction::Respond(Served::failure(
            error_response(id.as_ref(), &message).render(),
            kind,
            message,
        ))
    };
    if line.len() > state.max_line_bytes {
        let message = format!(
            "request exceeds {} bytes; split it or shrink the profile",
            state.max_line_bytes
        );
        return fail(message, Json::parse(line).ok().as_ref());
    }
    let doc = match Json::parse(line) {
        Ok(doc) => doc,
        Err(e) => return fail(e.to_string(), None),
    };
    if !matches!(doc, Json::Object(_)) {
        return fail("a request must be a JSON object".to_owned(), Some(&doc));
    }

    let body = match body_from_doc(&doc) {
        Ok(body) => body,
        Err(message) => return fail(message, Some(&doc)),
    };
    let id = doc.get("id").cloned();
    let kind = body.kind();
    let success = |response: String, cached: bool, shutdown: bool| Served {
        response,
        shutdown,
        kind: Some(kind),
        ok: true,
        cached,
        error: None,
    };

    // Control requests are served inline: they must work even when every
    // worker is busy (that is exactly when you want `stats`).
    match body {
        RequestBody::Stats => {
            let result = stats_result(state);
            let micros = started.elapsed().as_micros() as u64;
            state.metrics.record_ok(kind, micros);
            return LineAction::Respond(success(
                ok_response(id.as_ref(), kind, false, micros, result).render(),
                false,
                false,
            ));
        }
        RequestBody::Shutdown => {
            let micros = started.elapsed().as_micros() as u64;
            state.metrics.record_ok(kind, micros);
            let result = Json::object().field("stopping", true).build();
            return LineAction::Respond(success(
                ok_response(id.as_ref(), kind, false, micros, result).render(),
                false,
                true,
            ));
        }
        RequestBody::Batch(spec) => {
            let plan = plan_batch(&state.cache, spec);
            if plan.jobs.is_empty() {
                // Every item was a cache hit or a per-item error — no
                // worker needed.
                return LineAction::Respond(finish_batch(
                    state,
                    id.as_ref(),
                    plan,
                    Vec::new(),
                    started,
                ));
            }
            return LineAction::Work {
                id: id.clone(),
                kind,
                work: Box::new(move |state| {
                    let results = run_batch_jobs(&state.cache, &plan.jobs);
                    finish_batch(state, id.as_ref(), plan, results, started)
                }),
            };
        }
        _ => {}
    }

    let key = cache_key(&body);
    if let Some(rendered) = key.as_deref().and_then(|key| state.cache.get(key)) {
        // The cache holds the rendered result payload; splice it into the
        // envelope directly — no parse, no tree, no re-render.
        let micros = started.elapsed().as_micros() as u64;
        state.metrics.record_ok(kind, micros);
        let response = render_ok_response(id.as_ref(), kind, true, micros, &rendered);
        return LineAction::Respond(success(response, true, false));
    }
    LineAction::Work {
        id: id.clone(),
        kind,
        work: Box::new(move |state| {
            let outcome = compute_result(&body);
            finish_compute(state, id.as_ref(), kind, key, started, outcome)
        }),
    }
}

/// Settles one analysis once it has run (or failed to): caches a keyed
/// success, updates metrics, renders the response.
fn finish_compute(
    state: &ServerState,
    id: Option<&Json>,
    kind: &'static str,
    key: Option<String>,
    started: Instant,
    outcome: Result<Json, String>,
) -> Served {
    match outcome {
        Ok(result) => {
            if let Some(key) = key {
                state.cache.insert(key, result.render());
            }
            let micros = started.elapsed().as_micros() as u64;
            state.metrics.record_ok(kind, micros);
            Served {
                response: ok_response(id, kind, false, micros, result).render(),
                shutdown: false,
                kind: Some(kind),
                ok: true,
                cached: false,
                error: None,
            }
        }
        Err(message) => {
            state.metrics.record_error(Some(kind));
            Served::failure(error_response(id, &message).render(), Some(kind), message)
        }
    }
}

/// One planned batch: per-item response slots plus the deduplicated compute
/// jobs that must run to fill the pending ones.
struct BatchPlan {
    slots: Vec<BatchSlot>,
    jobs: Vec<BatchJob>,
    /// Rendered result payloads answered from the cache, indexed by
    /// [`BatchSlot::Hit`] — stored once no matter how many items share one.
    payloads: Vec<String>,
    /// Every parseable item was answered from the cache.
    all_cached: bool,
}

/// One batch item's response, either already known or waiting on a job.
enum BatchSlot {
    /// Rendered sub-response (a per-item parse error).
    Ready(String),
    /// A cache hit: the sub-response envelope is spliced around
    /// `payloads[payload]` during final assembly, so N items sharing one
    /// payload never copy it more than once each.
    Hit {
        payload: usize,
        id: Option<Json>,
        kind: &'static str,
    },
    /// Waiting on `jobs[job]` — duplicates of one config share a job index.
    Pending {
        job: usize,
        id: Option<Json>,
        kind: &'static str,
    },
}

/// One deduplicated unit of batch work.
struct BatchJob {
    body: RequestBody,
    key: Option<String>,
}

/// How one original batch item resolved, so later duplicates can replay the
/// outcome without re-parsing, re-canonicalizing, or re-probing anything.
enum ItemFate {
    /// The item failed to parse; duplicates fail with the same message.
    Invalid(String),
    /// Answered from the cache; `payloads[payload]` holds the rendered
    /// result.
    Hit { kind: &'static str, payload: usize },
    /// Waiting on a job; duplicates share it. Identical requests are
    /// deterministic, so even an *uncacheable* body computes at most once
    /// per batch.
    Job { kind: &'static str, job: usize },
}

/// Plans a batch against the cache: exactly one cache probe per *unique*
/// canonical key, so N identical sub-requests cost one lookup and (on miss)
/// one compute shared by all N.
fn plan_batch(cache: &ResultCache, spec: BatchSpec) -> BatchPlan {
    let mut slots = Vec::with_capacity(spec.items.len());
    let mut jobs: Vec<BatchJob> = Vec::new();
    let mut payloads: Vec<String> = Vec::new();
    // Per unique key: the payload index (hit) or the job index (miss).
    let mut by_key: HashMap<String, Result<usize, usize>> = HashMap::new();
    // Per item index: how the item resolved. Duplicates get `None` — the
    // parser only ever back-references originals, never other duplicates.
    let mut fates: Vec<Option<ItemFate>> = Vec::with_capacity(spec.items.len());
    let mut all_cached = true;
    for item in spec.items {
        let body = match item.body {
            BatchBody::DuplicateOf(j) => {
                let slot = match fates.get(j).and_then(Option::as_ref) {
                    Some(ItemFate::Invalid(message)) => {
                        all_cached = false;
                        BatchSlot::Ready(error_response(item.id.as_ref(), message).render())
                    }
                    Some(ItemFate::Hit { kind, payload }) => BatchSlot::Hit {
                        payload: *payload,
                        id: item.id,
                        kind,
                    },
                    Some(ItemFate::Job { kind, job }) => {
                        all_cached = false;
                        BatchSlot::Pending {
                            job: *job,
                            id: item.id,
                            kind,
                        }
                    }
                    // A hand-built spec with a dangling or dup-to-dup
                    // reference; the parser never emits one.
                    None => {
                        all_cached = false;
                        BatchSlot::Ready(
                            error_response(item.id.as_ref(), "invalid duplicate back-reference")
                                .render(),
                        )
                    }
                };
                fates.push(None);
                slots.push(slot);
                continue;
            }
            BatchBody::Parsed(Err(message)) => {
                all_cached = false;
                slots.push(BatchSlot::Ready(
                    error_response(item.id.as_ref(), &message).render(),
                ));
                fates.push(Some(ItemFate::Invalid(message)));
                continue;
            }
            BatchBody::Parsed(Ok(body)) => body,
        };
        let kind = body.kind();
        let (slot, fate) = match cache_key(&body) {
            Some(k) => match by_key.get(&k) {
                Some(Ok(payload)) => {
                    let payload = *payload;
                    (
                        BatchSlot::Hit {
                            payload,
                            id: item.id,
                            kind,
                        },
                        ItemFate::Hit { kind, payload },
                    )
                }
                Some(Err(job)) => {
                    let job = *job;
                    (
                        BatchSlot::Pending {
                            job,
                            id: item.id,
                            kind,
                        },
                        ItemFate::Job { kind, job },
                    )
                }
                None => match cache.get(&k) {
                    Some(rendered) => {
                        let payload = payloads.len();
                        payloads.push(rendered);
                        by_key.insert(k, Ok(payload));
                        (
                            BatchSlot::Hit {
                                payload,
                                id: item.id,
                                kind,
                            },
                            ItemFate::Hit { kind, payload },
                        )
                    }
                    None => {
                        let job = jobs.len();
                        jobs.push(BatchJob {
                            body,
                            key: Some(k.clone()),
                        });
                        by_key.insert(k, Err(job));
                        (
                            BatchSlot::Pending {
                                job,
                                id: item.id,
                                kind,
                            },
                            ItemFate::Job { kind, job },
                        )
                    }
                },
            },
            // Uncacheable bodies get one job each; their duplicates still
            // share it via the fate above.
            None => {
                let job = jobs.len();
                jobs.push(BatchJob { body, key: None });
                (
                    BatchSlot::Pending {
                        job,
                        id: item.id,
                        kind,
                    },
                    ItemFate::Job { kind, job },
                )
            }
        };
        if matches!(slot, BatchSlot::Pending { .. }) {
            all_cached = false;
        }
        fates.push(Some(fate));
        slots.push(slot);
    }
    BatchPlan {
        slots,
        jobs,
        payloads,
        all_cached,
    }
}

/// Runs a plan's deduplicated jobs (on a pool worker), caching keyed
/// successes. One entry per job, in job order: the rendered result payload
/// on success (rendered once, shared by every duplicate slot).
fn run_batch_jobs(cache: &ResultCache, jobs: &[BatchJob]) -> Vec<Result<String, String>> {
    jobs.iter()
        .map(|job| match compute_result(&job.body) {
            Ok(result) => {
                let rendered = result.render();
                if let Some(key) = &job.key {
                    cache.insert(key.clone(), rendered.clone());
                }
                Ok(rendered)
            }
            Err(message) => Err(message),
        })
        .collect()
}

/// Assembles the batch response once every job has run: pending slots are
/// filled from `results` (shared jobs fan out to every duplicate item).
fn finish_batch(
    state: &ServerState,
    id: Option<&Json>,
    plan: BatchPlan,
    results: Vec<Result<String, String>>,
    started: Instant,
) -> Served {
    let BatchPlan {
        slots,
        payloads,
        all_cached,
        ..
    } = plan;
    let computed = results.len() as u64;
    let count = slots.len() as u64;
    // Cache hits and computed results are already rendered payload strings;
    // the aggregate result is assembled by splicing them straight into one
    // buffer, never as a tree.
    let ready_bytes: usize = slots
        .iter()
        .map(|slot| match slot {
            BatchSlot::Ready(response) => response.len() + 1,
            BatchSlot::Hit { payload, .. } => payloads[*payload].len() + 96,
            BatchSlot::Pending { job, .. } => results[*job].as_ref().map_or(128, String::len) + 96,
        })
        .sum();
    let mut subs = String::with_capacity(ready_bytes);
    for (i, slot) in slots.into_iter().enumerate() {
        if i > 0 {
            subs.push(',');
        }
        match slot {
            BatchSlot::Ready(response) => subs.push_str(&response),
            BatchSlot::Hit { payload, id, kind } => {
                write_sub_ok_response(&mut subs, id.as_ref(), kind, true, &payloads[payload]);
            }
            BatchSlot::Pending { job, id, kind } => match &results[job] {
                Ok(rendered) => {
                    write_sub_ok_response(&mut subs, id.as_ref(), kind, false, rendered);
                }
                Err(message) => subs.push_str(&error_response(id.as_ref(), message).render()),
            },
        }
    }
    let micros = started.elapsed().as_micros() as u64;
    state.metrics.record_ok("batch", micros);
    Served {
        response: render_batch_ok_response(id, all_cached, micros, count, computed, &subs),
        shutdown: false,
        kind: Some("batch"),
        ok: true,
        cached: all_cached,
        error: None,
    }
}

/// Answers one action on the calling thread — the threads/stdio path. The
/// blocking `submit` (bounded queue) and the blocking `recv` are the
/// backpressure that keeps a flooding client on its own socket.
fn run_blocking(state: &Arc<ServerState>, action: LineAction) -> Served {
    let (id, kind, work) = match action {
        LineAction::Respond(served) => return served,
        LineAction::Work { id, kind, work } => (id, kind, work),
    };
    state.metrics.record_pipeline_depth(1);
    let (tx, rx) = mpsc::channel();
    let worker_state = Arc::clone(state);
    let answered = state
        .pool
        .submit(Box::new(move || {
            tx.send(work(&worker_state)).ok();
        }))
        .map_err(|_| "server is shutting down")
        .and_then(|()| rx.recv().map_err(|_| "worker dropped the job"));
    answered.unwrap_or_else(|message| {
        state.metrics.record_error(Some(kind));
        Served::failure(
            error_response(id.as_ref(), message).render(),
            Some(kind),
            message.to_owned(),
        )
    })
}

fn stats_result(state: &ServerState) -> Json {
    let cache = state.cache.stats();
    let metrics = state.metrics.snapshot();
    let registered = state.connections.lock().expect("connection registry").len();
    let mut kinds = Json::object();
    for (i, name) in KIND_NAMES.iter().enumerate() {
        let kind = &metrics.kinds[i];
        kinds = kinds.field(
            *name,
            Json::object()
                .field("requests", kind.requests)
                .field("errors", kind.errors)
                .field("p50_micros", kind.p50_micros)
                .field("p99_micros", kind.p99_micros)
                .field(
                    "histogram",
                    kind.histogram
                        .iter()
                        .map(|&c| Json::from(c))
                        .collect::<Vec<_>>(),
                )
                .build(),
        );
    }
    Json::object()
        .field("requests", metrics.requests)
        .field("errors", metrics.errors)
        .field("queue_depth", state.pool.depth() as u64)
        .field("workers", state.threads as u64)
        .field("simd_backend", sealpaa_sim::Backend::active().name())
        .field("io_model", state.io_model)
        .field("p50_micros", metrics.p50_micros)
        .field("p99_micros", metrics.p99_micros)
        .field(
            "connections",
            Json::object()
                .field("live", metrics.live_connections)
                .field("peak", metrics.peak_connections)
                // The threads model counts its registry; the event model
                // publishes its fd registry through the gauge.
                .field(
                    "registered",
                    (registered as u64).max(metrics.registered_fds),
                )
                .field("shed", metrics.shed_connections)
                .field("timeouts", metrics.timeouts)
                .field("registered_fds", metrics.registered_fds)
                .field("pending_write_bytes", metrics.pending_write_bytes)
                .field("max_pipeline_depth", metrics.max_pipeline_depth)
                .build(),
        )
        .field("kinds", kinds.build())
        .field(
            "cache",
            Json::object()
                .field("hits", cache.hits)
                .field("misses", cache.misses)
                .field("evictions", cache.evictions)
                .field("entries", cache.entries as u64)
                .build(),
        )
        .build()
}

/// Runs the engine for one queued request kind and renders its result.
fn compute_result(body: &RequestBody) -> Result<Json, String> {
    match body {
        RequestBody::Analyze(spec) => analyze_result(spec),
        RequestBody::Simulate(spec) => simulate_result(spec),
        RequestBody::Compare(spec) => compare_result(spec),
        RequestBody::Gear(spec) => gear_result(spec),
        RequestBody::Blocks(spec) => blocks_result(spec),
        RequestBody::Dse(spec) => dse_result(spec),
        RequestBody::Profile(spec) => profile_result(spec),
        RequestBody::Datapath(spec) => datapath_result(spec),
        RequestBody::Stats | RequestBody::Shutdown | RequestBody::Batch(_) => {
            unreachable!("control and batch requests are planned inline")
        }
    }
}

fn analyze_result(spec: &AdderSpec) -> Result<Json, String> {
    let analysis = sealpaa_core::analyze(&spec.chain, &spec.profile).map_err(|e| e.to_string())?;
    let stages: Vec<Json> = analysis
        .stages()
        .iter()
        .map(|s| {
            Json::object()
                .field("stage", s.stage)
                .field("cell", spec.chain.stage(s.stage).name())
                .field("p_carry_and_success", *s.carry_out.p_carry_and_success())
                .field(
                    "p_not_carry_and_success",
                    *s.carry_out.p_not_carry_and_success(),
                )
                .field("success_through", s.success_through)
                .build()
        })
        .collect();
    Ok(Json::object()
        .field("adder", spec.chain.to_string())
        .field("width", spec.chain.width())
        .field("error_probability", analysis.error_probability())
        .field("success_probability", analysis.success_probability())
        .field("stages", stages)
        .build())
}

fn simulate_result(spec: &SimulateSpec) -> Result<Json, String> {
    let adder = &spec.adder;
    match spec.mode {
        SimMode::Exhaustive => {
            // Bitsliced + threaded: all integer outputs (cases, error
            // counts) are identical for any thread count; only f64-weighted
            // fields can move in the last ulp.
            let report = sealpaa_sim::exhaustive_with(
                &adder.chain,
                &adder.profile,
                sealpaa_sim::default_threads(),
            )
            .map_err(|e| e.to_string())?;
            Ok(Json::object()
                .field("mode", "exhaustive")
                .field("adder", adder.chain.to_string())
                .field("cases", report.cases)
                .field("error_cases", report.error_cases)
                .field("error_probability", report.output_error_probability)
                .field("stage_error_probability", report.stage_error_probability)
                .field("mean_error_distance", report.metrics.mean_error_distance)
                .field(
                    "mean_absolute_error_distance",
                    report.metrics.mean_absolute_error_distance,
                )
                .field(
                    "max_absolute_error_distance",
                    report.metrics.max_absolute_error_distance,
                )
                .build())
        }
        SimMode::MonteCarlo {
            samples,
            seed,
            threads,
        } => {
            let config = sealpaa_sim::MonteCarloConfig {
                samples,
                seed,
                threads,
                backend: None,
            };
            let report = sealpaa_sim::monte_carlo(&adder.chain, &adder.profile, config)
                .map_err(|e| e.to_string())?;
            Ok(Json::object()
                .field("mode", "monte_carlo")
                .field("adder", adder.chain.to_string())
                .field("samples", report.samples)
                .field("seed", seed)
                .field("threads", threads as u64)
                .field("error_samples", report.error_samples)
                .field("error_probability", report.error_probability())
                .field("standard_error", report.standard_error)
                .field("mean_error_distance", report.metrics.mean_error_distance)
                .build())
        }
    }
}

fn compare_result(spec: &AdderSpec) -> Result<Json, String> {
    let analysis = sealpaa_core::analyze(&spec.chain, &spec.profile).map_err(|e| e.to_string())?;
    let (baseline, terms) = sealpaa_inclexcl::error_probability(&spec.chain, &spec.profile)
        .map_err(|e| e.to_string())?;
    let proposed = analysis.error_probability();
    Ok(Json::object()
        .field("adder", spec.chain.to_string())
        .field("width", spec.chain.width())
        .field("proposed", proposed)
        .field("inclusion_exclusion", baseline)
        .field("terms", terms)
        .field("abs_difference", (proposed - baseline).abs())
        .build())
}

fn gear_result(spec: &GearSpec) -> Result<Json, String> {
    let config =
        sealpaa_gear::GearConfig::new(spec.n, spec.r, spec.overlap).map_err(|e| e.to_string())?;
    let pa = vec![spec.p; spec.n];
    let p_error =
        sealpaa_gear::error_probability(&config, &pa, &pa, spec.cin).map_err(|e| e.to_string())?;
    let mut obj = Json::object()
        .field("n", spec.n)
        .field("r", spec.r)
        .field("overlap", spec.overlap)
        .field("blocks_total", config.block_count())
        .field("error_probability", p_error);
    if spec.blocks {
        let blocks = sealpaa_gear::block_error_probabilities(&config, &pa, &pa, spec.cin)
            .map_err(|e| e.to_string())?;
        obj = obj.field(
            "block_error_probabilities",
            blocks.into_iter().map(Json::from).collect::<Vec<_>>(),
        );
    }
    Ok(obj.build())
}

/// Most PMF/CDF support points a `blocks` response ships; larger supports
/// report summary statistics only (the line limit is the hard bound, this
/// keeps responses readable long before it).
const MAX_BLOCKS_PMF_ENTRIES: usize = 1024;

fn blocks_result(spec: &BlocksSpec) -> Result<Json, String> {
    let dist = sealpaa_blocks::error_distance_distribution(&spec.config, &spec.profile)
        .map_err(|e| e.to_string())?;
    let width = spec.config.width();
    // Error distances are bounded by 2^(width+1) ≤ 2^48, so every support
    // point is exactly representable as an f64 JSON number.
    let points = |pairs: &[(i64, f64)]| -> Vec<Json> {
        pairs
            .iter()
            .map(|&(d, p)| Json::Array(vec![Json::Number(d as f64), Json::Number(p)]))
            .collect()
    };
    let mut obj = Json::object()
        .field("config", spec.config.to_string())
        .field("width", width as u64)
        .field("blocks_total", spec.config.block_count() as u64)
        .field("error_rate", dist.error_rate())
        .field("mean", dist.mean())
        .field("mean_absolute", dist.mean_absolute())
        .field("mean_squared", dist.mean_squared())
        .field(
            "normalized_mean_absolute",
            dist.normalized_mean_absolute(width),
        )
        .field("max_absolute", dist.max_absolute_error())
        .field("support", dist.pmf.len() as u64);
    if dist.pmf.len() <= MAX_BLOCKS_PMF_ENTRIES {
        obj = obj.field("pmf", points(&dist.pmf));
        if spec.cdf {
            obj = obj.field("cdf", points(&dist.cdf()));
        }
    } else {
        obj = obj.field("pmf_omitted", true);
    }
    Ok(obj.build())
}

fn dse_result(spec: &DseSpec) -> Result<Json, String> {
    let budget = sealpaa_explore::Budget {
        max_power_nw: spec.budget_power,
        max_area_ge: spec.budget_area,
    };
    let design_json = |design: &sealpaa_explore::HybridDesign| {
        Json::object()
            .field("chain", design.chain.to_string())
            .field(
                "cells",
                design
                    .chain
                    .iter()
                    .map(|c| Json::from(c.name()))
                    .collect::<Vec<_>>(),
            )
            .field("error_probability", design.evaluation.error_probability)
            .field("power_nw", design.evaluation.power_nw)
            .field("area_ge", design.evaluation.area_ge)
            .build()
    };
    // The result is a pure function of (candidates, profile, budget, pareto):
    // the search merges worker results in lexicographic design order, so
    // `threads` affects wall-clock only — which is why it is reported here
    // but excluded from the cache key.
    let best = sealpaa_explore::exhaustive_best_with(
        &spec.candidates,
        &spec.profile,
        &budget,
        spec.threads,
    )
    .map_err(|e| e.to_string())?;
    let mut obj = Json::object()
        .field("width", spec.profile.width() as u64)
        .field(
            "candidates",
            spec.candidates
                .iter()
                .map(|c| Json::from(c.name()))
                .collect::<Vec<_>>(),
        )
        .field(
            "best",
            match &best {
                None => Json::Null,
                Some(design) => design_json(design),
            },
        );
    if spec.pareto {
        let designs =
            sealpaa_explore::exhaustive_designs(&spec.candidates, &spec.profile, spec.threads)
                .map_err(|e| e.to_string())?;
        let front = sealpaa_explore::pareto_front(designs);
        obj = obj.field("pareto", front.iter().map(design_json).collect::<Vec<_>>());
    }
    Ok(obj.build())
}

fn profile_result(spec: &ProfileSpec) -> Result<Json, String> {
    use sealpaa_trace::VarId;
    let (source, records) = match &spec.source {
        ProfileSource::Synth {
            kind,
            records,
            seed,
        } => {
            let generated = sealpaa_trace::generate(*kind, spec.width, *records as usize, *seed)
                .map_err(|e| e.to_string())?;
            (kind.name(), generated)
        }
        ProfileSource::Inline(records) => ("inline", records.clone()),
    };
    let stats =
        sealpaa_trace::TraceStats::from_records(spec.width, &records).map_err(|e| e.to_string())?;
    let probs = |pick: fn(usize) -> VarId| -> Vec<Json> {
        (0..spec.width)
            .map(|i| Json::from(stats.p(pick(i))))
            .collect()
    };
    let mut obj = Json::object()
        .field("source", source)
        .field("width", spec.width as u64)
        .field("records", stats.records())
        .field("pa", probs(VarId::A))
        .field("pb", probs(VarId::B))
        .field("cin", stats.p(VarId::Cin))
        .field("independence_violation", stats.independence_violation());
    if let Some((x, y, score)) = stats.max_violation_pair() {
        obj = obj.field(
            "max_violation_pair",
            Json::object()
                .field("x", x.to_string())
                .field("y", y.to_string())
                .field("score", score)
                .build(),
        );
    }
    Ok(obj.build())
}

fn datapath_result(spec: &DatapathSpec) -> Result<Json, String> {
    use sealpaa_propagate::topologies;
    let (name, topo) = match &spec.topology {
        DatapathTopology::Fir { coefficients } => {
            ("fir", topologies::fir(&spec.cell, coefficients, spec.width))
        }
        DatapathTopology::Conv2d { kernel } => {
            ("conv2d", topologies::conv2d(&spec.cell, kernel, spec.width))
        }
        DatapathTopology::Multiplier => {
            ("multiplier", topologies::multiplier(&spec.cell, spec.width))
        }
    };
    let topo = topo.map_err(|e| e.to_string())?;
    let inputs: Vec<(&str, Vec<f64>)> = topo
        .inputs
        .iter()
        .map(|input| {
            let bits = topo
                .datapath
                .signals()
                .find(|&s| {
                    matches!(topo.datapath.kind(s),
                             sealpaa_datapath::NodeKind::Input { name: n } if n == input)
                })
                .map_or(spec.width, |s| topo.datapath.width(s));
            (input.as_str(), vec![spec.p; bits])
        })
        .collect();
    let prediction = sealpaa_propagate::predict(&topo.datapath, topo.output, &inputs, spec.pmf)
        .map_err(|e| e.to_string())?;
    let m = &prediction.moments;
    let db = |v: Option<f64>| v.map_or(Json::Null, Json::Number);
    let mut obj = Json::object()
        .field("topology", name)
        .field("cell", spec.cell.name())
        .field("width", spec.width as u64)
        .field("adders", m.adders.len() as u64)
        .field("mse", m.error_second)
        .field("mean_error", m.error_mean)
        .field("signal_power", m.value_second)
        .field("snr_db", db(m.snr_db()))
        .field("any_adder_error", m.any_adder_error())
        .field(
            "adder_models",
            m.adders
                .iter()
                .map(|a| {
                    Json::object()
                        .field("signal", a.signal.index() as u64)
                        .field("error_probability", a.error_probability)
                        .field("mean", a.mean)
                        .field("second", a.second)
                        .build()
                })
                .collect::<Vec<_>>(),
        );
    if let Some(pmf) = &prediction.pmf {
        obj = obj
            .field("pmf_points", pmf.points().len() as u64)
            .field("pmf_truncated_mass", pmf.truncated_mass())
            .field("pmf_max_abs_error", pmf.max_absolute_error())
            .field("pmf_error_probability", pmf.error_probability());
    }
    Ok(obj.build())
}

/// Resolves a human-readable list of the standard cells — used by the CLI's
/// `serve --help` so the daemon and CLI agree on the vocabulary.
pub fn standard_cell_names() -> Vec<&'static str> {
    StandardCell::ALL.iter().map(|c| c.name()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::BUCKETS;
    use std::io::Cursor;

    fn run_lines(config: &ServerConfig, lines: &str) -> Vec<Json> {
        let mut out = Vec::new();
        run_stdio(config, Cursor::new(lines.to_owned()), &mut out).expect("stdio run");
        String::from_utf8(out)
            .expect("utf8")
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect()
    }

    #[test]
    fn stdio_serves_analyze_and_matches_the_library() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"id\":1,\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\",\"p\":0.1}\n",
        );
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("cached").and_then(Json::as_bool), Some(false));
        let served = r
            .get("result")
            .and_then(|x| x.get("error_probability"))
            .and_then(Json::as_f64)
            .expect("error probability");
        // Paper Table 7: 2-bit LPAA1 at p = 0.1.
        assert!((served - 0.3078).abs() < 1e-4, "served {served}");
    }

    #[test]
    fn repeated_request_is_served_from_cache() {
        let line = "{\"kind\":\"analyze\",\"width\":4,\"cell\":\"lpaa2\"}\n";
        let responses = run_lines(
            &ServerConfig::default(),
            &format!("{line}{line}{{\"kind\":\"stats\"}}\n"),
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(
            responses[0].get("cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            responses[1].get("cached").and_then(Json::as_bool),
            Some(true)
        );
        assert_eq!(
            responses[0].get("result"),
            responses[1].get("result"),
            "cache must return the identical result"
        );
        let stats = responses[2].get("result").expect("stats result");
        assert_eq!(
            stats
                .get("cache")
                .and_then(|c| c.get("hits"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn stdio_serves_datapath_and_caches_by_canonical_key() {
        // The second request spells the same cell as its raw truth table:
        // a different wire spelling of the same problem, so it must be a
        // cache hit with the byte-identical result.
        let table = StandardCell::Lpaa5.truth_table().to_spec_string();
        let lines = format!(
            "{{\"id\":1,\"kind\":\"datapath\",\"width\":6,\"cell\":\"lpaa5\",\"coefficients\":[1,2,1]}}\n\
             {{\"id\":2,\"kind\":\"datapath\",\"width\":6,\"cell\":\"{table}\",\"coefficients\":[1,2,1]}}\n"
        );
        let responses = run_lines(&ServerConfig::default(), &lines);
        assert_eq!(responses.len(), 2);
        let first = &responses[0];
        assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(first.get("cached").and_then(Json::as_bool), Some(false));
        let result = first.get("result").expect("datapath result");
        assert_eq!(result.get("adders").and_then(Json::as_u64), Some(2));
        let snr = result
            .get("snr_db")
            .and_then(Json::as_f64)
            .expect("approximate FIR has a finite SNR");
        assert!(snr.is_finite() && snr > 0.0, "snr {snr}");
        let second = &responses[1];
        assert_eq!(
            second.get("cached").and_then(Json::as_bool),
            Some(true),
            "equivalent spelling must hit the canonical cache"
        );
        assert_eq!(first.get("result"), second.get("result"));
    }

    #[test]
    fn datapath_pmf_round_trips_over_stdio() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"datapath\",\"topology\":\"multiplier\",\"width\":3,\"cell\":\"lpaa2\",\"pmf\":true}\n",
        );
        let result = responses[0].get("result").expect("datapath result");
        assert!(result.get("pmf_points").and_then(Json::as_u64).unwrap_or(0) > 0);
        let p_err = result
            .get("pmf_error_probability")
            .and_then(Json::as_f64)
            .expect("pmf error probability");
        assert!((0.0..=1.0).contains(&p_err), "{p_err}");
    }

    #[test]
    fn eviction_between_identical_requests_is_never_reported_as_cached() {
        // Cache transparency across an eviction: fill the cache far past
        // capacity between two identical requests; the second must honestly
        // recompute, and the counters must agree with the responses.
        let config = ServerConfig {
            // 16 shards at ceil(16/16)=1 entry each: a sweep of distinct
            // keys is guaranteed to evict every earlier entry.
            cache_entries: 16,
            ..Default::default()
        };
        let target = "{\"kind\":\"analyze\",\"width\":4,\"cell\":\"lpaa2\",\"p\":0.25}\n";
        let mut input = String::new();
        input.push_str(target);
        input.push_str(target); // a hit while still resident
                                // 200 distinct keys against 16 one-entry shards: the sweep displaces
                                // every shard's resident entry regardless of how keys hash.
        for i in 1..=200 {
            let p = f64::from(i) / 1000.0;
            input.push_str(&format!(
                "{{\"kind\":\"analyze\",\"width\":8,\"cell\":\"lpaa1\",\"p\":{p}}}\n"
            ));
        }
        input.push_str(target); // identical again, but evicted by the sweep
        input.push_str("{\"kind\":\"stats\"}\n");
        let responses = run_lines(&config, &input);
        assert_eq!(responses.len(), 204);
        let cached_of = |r: &Json| r.get("cached").and_then(Json::as_bool).expect("cached");
        assert!(!cached_of(&responses[0]), "first compute");
        assert!(cached_of(&responses[1]), "a hit while still resident");
        assert!(
            !cached_of(&responses[202]),
            "after eviction the request must recompute, not report cached"
        );
        assert_eq!(
            responses[202].get("result"),
            responses[0].get("result"),
            "the recompute still returns the identical result"
        );
        // Counter consistency: every "cached":true response counted exactly
        // one cache hit.
        let served_cached = responses
            .iter()
            .filter(|r| r.get("cached").and_then(Json::as_bool) == Some(true))
            .count() as u64;
        let stats = responses[203].get("result").expect("stats result");
        let cache = stats.get("cache").expect("cache stats");
        assert_eq!(
            cache.get("hits").and_then(Json::as_u64),
            Some(served_cached),
            "hit counter must match the cached responses"
        );
        assert!(
            cache.get("evictions").and_then(Json::as_u64).expect("ev") > 0,
            "the sweep must actually have evicted"
        );
    }

    #[test]
    fn shutdown_request_stops_the_stream_and_later_lines_are_ignored() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"shutdown\"}\n{\"kind\":\"stats\"}\n",
        );
        assert_eq!(responses.len(), 1, "no responses after shutdown");
        assert_eq!(
            responses[0]
                .get("result")
                .and_then(|r| r.get("stopping"))
                .and_then(Json::as_bool),
            Some(true)
        );
    }

    #[test]
    fn errors_are_reported_per_request_and_do_not_kill_the_stream() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"analyze\"}\nnot json at all\n{\"id\":9,\"kind\":\"stats\"}\n",
        );
        assert_eq!(responses.len(), 3);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[1].get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(responses[2].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(responses[2].get("id").and_then(Json::as_u64), Some(9));
        let stats = responses[2].get("result").expect("stats result");
        assert_eq!(stats.get("errors").and_then(Json::as_u64), Some(2));
        // The first error had a recognizable kind and is attributed to it;
        // the second was unparseable and counts only in the aggregate.
        assert_eq!(
            stats
                .get("kinds")
                .and_then(|k| k.get("analyze"))
                .and_then(|a| a.get("errors"))
                .and_then(Json::as_u64),
            Some(1)
        );
    }

    #[test]
    fn stdio_serves_profile_and_caches_synthetic_sources() {
        let synth = r#"{"kind":"profile","width":6,"synth":"uniform","records":2048,"seed":3}"#;
        let inline = r#"{"kind":"profile","width":2,"trace":[[1,2],[3,0,1]]}"#;
        let responses = run_lines(
            &ServerConfig::default(),
            &format!("{synth}\n{synth}\n{inline}\n{inline}\n"),
        );
        assert_eq!(responses.len(), 4);
        for r in &responses {
            assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
            assert_eq!(r.get("kind").and_then(Json::as_str), Some("profile"));
        }
        // Synthetic sources are pure functions of the request and cache.
        assert_eq!(
            responses[0].get("cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            responses[1].get("cached").and_then(Json::as_bool),
            Some(true)
        );
        let result = responses[0].get("result").expect("profile result");
        assert_eq!(result.get("source").and_then(Json::as_str), Some("uniform"));
        assert_eq!(result.get("records").and_then(Json::as_u64), Some(2048));
        assert_eq!(
            result.get("pa").and_then(Json::as_array).map(<[Json]>::len),
            Some(6)
        );
        assert!(result
            .get("independence_violation")
            .and_then(Json::as_f64)
            .is_some());
        // Inline traces are exact and never cached.
        assert_eq!(
            responses[3].get("cached").and_then(Json::as_bool),
            Some(false)
        );
        let result = responses[2].get("result").expect("profile result");
        assert_eq!(result.get("source").and_then(Json::as_str), Some("inline"));
        assert_eq!(result.get("records").and_then(Json::as_u64), Some(2));
        // a = {1, 3}: bit 0 is always set; cin = {0, 1}.
        let pa = result.get("pa").and_then(Json::as_array).expect("pa list");
        assert_eq!(pa[0].as_f64(), Some(1.0));
        assert_eq!(pa[1].as_f64(), Some(0.5));
        assert_eq!(result.get("cin").and_then(Json::as_f64), Some(0.5));
    }

    #[test]
    fn stats_schema_is_pinned() {
        // The observability contract: these fields (and no fewer) are what
        // dashboards may rely on.
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\"}\n\
             {\"kind\":\"profile\",\"width\":2,\"trace\":[[1,2]]}\n\
             {\"kind\":\"stats\"}\n",
        );
        let stats = responses[2].get("result").expect("stats result");
        for field in [
            "requests",
            "errors",
            "queue_depth",
            "workers",
            "p50_micros",
            "p99_micros",
        ] {
            assert!(
                stats.get(field).and_then(Json::as_u64).is_some(),
                "missing numeric field {field}"
            );
        }
        assert!(
            stats.get("simd_backend").and_then(Json::as_str).is_some(),
            "missing simd_backend"
        );
        // Stdio always serves through the blocking line loop, whatever the
        // TCP default is.
        assert_eq!(
            stats.get("io_model").and_then(Json::as_str),
            Some("threads"),
            "missing or wrong io_model"
        );
        let connections = stats.get("connections").expect("connection gauges");
        for field in [
            "live",
            "peak",
            "registered",
            "shed",
            "timeouts",
            "registered_fds",
            "pending_write_bytes",
            "max_pipeline_depth",
        ] {
            assert!(
                connections.get(field).and_then(Json::as_u64).is_some(),
                "missing connection gauge {field}"
            );
        }
        let kinds = stats.get("kinds").expect("per-kind metrics");
        for name in KIND_NAMES {
            let kind = kinds
                .get(name)
                .unwrap_or_else(|| panic!("missing kind {name}"));
            for field in ["requests", "errors", "p50_micros", "p99_micros"] {
                assert!(
                    kind.get(field).and_then(Json::as_u64).is_some(),
                    "missing {name}.{field}"
                );
            }
            let histogram = kind
                .get("histogram")
                .and_then(Json::as_array)
                .unwrap_or_else(|| panic!("missing {name}.histogram"));
            assert_eq!(histogram.len(), BUCKETS, "{name} histogram length");
        }
        // Each request is visible in its own kind's counters.
        for name in ["analyze", "profile"] {
            assert_eq!(
                kinds
                    .get(name)
                    .and_then(|a| a.get("requests"))
                    .and_then(Json::as_u64),
                Some(1),
                "{name} counter"
            );
        }
        let cache = stats.get("cache").expect("cache stats");
        for field in ["hits", "misses", "evictions", "entries"] {
            assert!(
                cache.get(field).and_then(Json::as_u64).is_some(),
                "missing cache.{field}"
            );
        }
    }

    #[test]
    fn stdio_honors_the_configured_line_limit() {
        // The cross-transport contract: stdio enforces the same configured
        // line limit as TCP, during the read.
        let config = ServerConfig {
            max_line_bytes: 1024,
            ..Default::default()
        };
        let long = "x".repeat(5000);
        let responses = run_lines(
            &config,
            &format!("{long}\n{{\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\"}}\n"),
        );
        assert_eq!(responses.len(), 2);
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        let message = responses[0]
            .get("error")
            .and_then(Json::as_str)
            .expect("message");
        assert!(message.contains("5000 bytes"), "{message}");
        assert!(message.contains("1024 byte"), "{message}");
        assert_eq!(
            responses[1].get("ok").and_then(Json::as_bool),
            Some(true),
            "the stream resyncs at the newline and keeps serving"
        );
    }

    #[test]
    fn invalid_utf8_gets_a_parse_error_response_before_the_close() {
        let mut input: Vec<u8> = Vec::new();
        input.extend_from_slice(b"\"\xff\xfe garbage\n");
        input.extend_from_slice(b"{\"kind\":\"stats\"}\n");
        let mut out = Vec::new();
        run_stdio(&ServerConfig::default(), Cursor::new(input), &mut out).expect("stdio run");
        let out = String::from_utf8(out).expect("responses are utf8");
        let responses: Vec<Json> = out
            .lines()
            .map(|l| Json::parse(l).expect("valid response JSON"))
            .collect();
        // One structured error, then the stream closes — the stats line
        // after the garbage is never served.
        assert_eq!(responses.len(), 1, "{out}");
        assert_eq!(responses[0].get("ok").and_then(Json::as_bool), Some(false));
        assert!(responses[0]
            .get("error")
            .and_then(Json::as_str)
            .expect("message")
            .contains("UTF-8"));
    }

    #[test]
    fn trace_log_is_deterministic_ndjson() {
        use std::sync::{Arc, Mutex};

        #[derive(Clone, Default)]
        struct SharedBuf(Arc<Mutex<Vec<u8>>>);
        impl Write for SharedBuf {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().expect("buf").extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                Ok(())
            }
        }

        let analyze = "{\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\",\"p\":0.1}";
        let bogus = "nonsense";
        let input = format!("{analyze}\n{analyze}\n{bogus}\n{{\"kind\":\"shutdown\"}}\n");
        let run_once = || {
            let sink = SharedBuf::default();
            let mut out = Vec::new();
            run_stdio_with_trace(
                &ServerConfig::default(),
                Cursor::new(input.clone()),
                &mut out,
                Box::new(sink.clone()),
            )
            .expect("stdio run");
            let bytes = sink.0.lock().expect("buf").clone();
            String::from_utf8(bytes).expect("trace is utf8")
        };

        let trace = run_once();
        let lines: Vec<&str> = trace.lines().collect();
        assert_eq!(lines.len(), 4, "{trace}");
        assert_eq!(
            lines[0],
            format!(
                "{{\"kind\":\"analyze\",\"ok\":true,\"cached\":false,\"bytes_in\":{}}}",
                analyze.len()
            )
        );
        assert_eq!(
            lines[1],
            format!(
                "{{\"kind\":\"analyze\",\"ok\":true,\"cached\":true,\"bytes_in\":{}}}",
                analyze.len()
            )
        );
        let parsed = Json::parse(lines[2]).expect("trace line parses");
        assert_eq!(parsed.get("kind"), Some(&Json::Null));
        assert_eq!(parsed.get("ok").and_then(Json::as_bool), Some(false));
        assert_eq!(
            parsed.get("bytes_in").and_then(Json::as_u64),
            Some(bogus.len() as u64)
        );
        assert!(parsed.get("error").and_then(Json::as_str).is_some());
        assert!(lines[3].contains("\"kind\":\"shutdown\""));

        // Byte-reproducible: a replayed session emits the identical trace
        // (no timestamps, no latencies).
        assert_eq!(trace, run_once());
    }

    #[test]
    fn compare_agrees_with_the_inclusion_exclusion_baseline() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"compare\",\"width\":5,\"cell\":\"lpaa3\",\"p\":0.3}\n",
        );
        let result = responses[0].get("result").expect("result");
        let diff = result
            .get("abs_difference")
            .and_then(Json::as_f64)
            .expect("difference");
        assert!(diff < 1e-12, "methods disagree by {diff}");
        assert_eq!(result.get("terms").and_then(Json::as_u64), Some(31));
    }

    #[test]
    fn monte_carlo_is_deterministic_per_seed_and_distinct_across_seeds() {
        let mk = |seed: u64| {
            format!("{{\"kind\":\"simulate\",\"width\":8,\"cell\":\"lpaa6\",\"samples\":20000,\"seed\":{seed}}}\n")
        };
        let p_of = |responses: &[Json]| {
            responses[0]
                .get("result")
                .and_then(|r| r.get("error_probability"))
                .and_then(Json::as_f64)
                .expect("estimate")
        };
        let config = ServerConfig {
            cache_entries: 0, // force recomputation: determinism, not caching
            ..Default::default()
        };
        let a1 = p_of(&run_lines(&config, &mk(7)));
        let a2 = p_of(&run_lines(&config, &mk(7)));
        let b = p_of(&run_lines(&config, &mk(8)));
        assert_eq!(a1, a2, "same seed must reproduce exactly");
        assert_ne!(a1, b, "different seeds should differ");
    }

    #[test]
    fn dse_finds_the_budgeted_best_design() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"dse\",\"width\":3,\"p\":0.3,\"budget_power\":0,\"threads\":2}\n",
        );
        let best = responses[0]
            .get("result")
            .and_then(|r| r.get("best"))
            .expect("best design");
        // Only LPAA 5 (0 nW) chains fit a zero power budget.
        let cells = best.get("cells").and_then(Json::as_array).expect("cells");
        assert_eq!(cells.len(), 3);
        assert!(cells.iter().all(|c| c.as_str() == Some("LPAA 5")));
        assert_eq!(best.get("power_nw").and_then(Json::as_f64), Some(0.0));
    }

    #[test]
    fn dse_requests_differing_only_in_threads_share_one_cache_entry() {
        // The satellite contract: `threads` cannot change the result, so it
        // is not in the canonical key — the t=3 request must be a cache hit
        // on the t=1 entry, returning the identical rendered result.
        let mk = |threads: usize| {
            format!("{{\"kind\":\"dse\",\"width\":4,\"p\":0.3,\"pareto\":true,\"threads\":{threads}}}\n")
        };
        let responses = run_lines(&ServerConfig::default(), &format!("{}{}", mk(1), mk(3)));
        assert_eq!(responses.len(), 2);
        assert_eq!(
            responses[0].get("cached").and_then(Json::as_bool),
            Some(false)
        );
        assert_eq!(
            responses[1].get("cached").and_then(Json::as_bool),
            Some(true),
            "a different thread count must hit the same cache entry"
        );
        assert_eq!(responses[0].get("result"), responses[1].get("result"));
    }

    #[test]
    fn dse_result_is_thread_count_invariant_even_uncached() {
        // With caching disabled, both thread counts really run — and the
        // lexicographic merge makes the answers identical anyway.
        let config = ServerConfig {
            cache_entries: 0,
            ..Default::default()
        };
        let mk = |threads: usize| {
            format!("{{\"kind\":\"dse\",\"width\":4,\"p\":0.3,\"pareto\":true,\"threads\":{threads}}}\n")
        };
        let a = run_lines(&config, &mk(1));
        let b = run_lines(&config, &mk(3));
        assert_eq!(a[0].get("result"), b[0].get("result"));
    }

    #[test]
    fn batch_serves_mixed_kinds_in_item_order_with_ids() {
        let batch = concat!(
            "{\"id\":\"b1\",\"kind\":\"batch\",\"requests\":[",
            "{\"id\":\"a\",\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\",\"p\":0.1},",
            "{\"id\":\"g\",\"kind\":\"gear\",\"n\":8,\"r\":2,\"overlap\":2},",
            "{\"id\":\"bad\",\"kind\":\"analyze\",\"width\":0},",
            "{\"id\":\"a2\",\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\",\"p\":0.1}",
            "]}\n"
        );
        let responses = run_lines(&ServerConfig::default(), batch);
        assert_eq!(responses.len(), 1);
        let r = &responses[0];
        assert_eq!(r.get("id").and_then(Json::as_str), Some("b1"));
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(r.get("kind").and_then(Json::as_str), Some("batch"));
        let result = r.get("result").expect("batch result");
        assert_eq!(result.get("count").and_then(Json::as_u64), Some(4));
        // The two identical analyzes share one job; gear is the second.
        assert_eq!(result.get("computed").and_then(Json::as_u64), Some(2));
        let subs = result
            .get("results")
            .and_then(Json::as_array)
            .expect("sub-responses");
        assert_eq!(subs.len(), 4);
        // Responses come back in item order, each carrying its item id.
        for (sub, id) in subs.iter().zip(["a", "g", "bad", "a2"]) {
            assert_eq!(sub.get("id").and_then(Json::as_str), Some(id));
        }
        assert_eq!(subs[0].get("ok").and_then(Json::as_bool), Some(true));
        assert_eq!(subs[1].get("ok").and_then(Json::as_bool), Some(true));
        // A bad item fails alone without failing the batch.
        assert_eq!(subs[2].get("ok").and_then(Json::as_bool), Some(false));
        assert!(subs[2].get("error").and_then(Json::as_str).is_some());
        // The duplicate shares the first analyze's computed result.
        assert_eq!(subs[3].get("result"), subs[0].get("result"));
        let served = subs[0]
            .get("result")
            .and_then(|x| x.get("error_probability"))
            .and_then(Json::as_f64)
            .expect("error probability");
        assert!((served - 0.3078).abs() < 1e-4, "served {served}");
    }

    #[test]
    fn batch_of_identical_configs_computes_once_and_groups_cache_traffic() {
        // The satellite contract: N identical canonical configs in one
        // batch perform exactly one compute and one cache probe, answered
        // N times consistently.
        let sub = "{\"kind\":\"analyze\",\"width\":4,\"cell\":\"lpaa2\",\"p\":0.2}";
        let batch =
            format!("{{\"kind\":\"batch\",\"requests\":[{sub},{sub},{sub},{sub},{sub}]}}\n");
        let responses = run_lines(
            &ServerConfig::default(),
            &format!("{batch}{batch}{{\"kind\":\"stats\"}}\n"),
        );
        assert_eq!(responses.len(), 3);

        let first = responses[0].get("result").expect("first batch");
        assert_eq!(first.get("count").and_then(Json::as_u64), Some(5));
        assert_eq!(first.get("computed").and_then(Json::as_u64), Some(1));
        let subs = first.get("results").and_then(Json::as_array).expect("subs");
        assert!(subs
            .iter()
            .all(|s| s.get("ok").and_then(Json::as_bool) == Some(true)));
        assert!(
            subs.iter()
                .all(|s| s.get("result") == subs[0].get("result")),
            "all five answers must be identical"
        );
        assert_eq!(
            responses[0].get("cached").and_then(Json::as_bool),
            Some(false)
        );

        // The repeat is answered wholly from the cache: zero computes, and
        // the batch itself reports cached.
        let second = responses[1].get("result").expect("second batch");
        assert_eq!(second.get("computed").and_then(Json::as_u64), Some(0));
        assert_eq!(
            responses[1].get("cached").and_then(Json::as_bool),
            Some(true)
        );

        // Counter-level proof of grouping: ten sub-requests produced one
        // miss (first batch) and one hit (second batch), not five of each.
        let cache = responses[2]
            .get("result")
            .and_then(|r| r.get("cache"))
            .expect("cache stats");
        assert_eq!(cache.get("misses").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("hits").and_then(Json::as_u64), Some(1));
        assert_eq!(cache.get("entries").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn batch_counts_as_one_request_of_its_own_kind() {
        let batch = concat!(
            "{\"kind\":\"batch\",\"requests\":[",
            "{\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\"},",
            "{\"kind\":\"blocks\",\"config\":\"4:0:accurate,2:2:lpaa1\",\"p\":0.3}",
            "]}\n"
        );
        let responses = run_lines(
            &ServerConfig::default(),
            &format!("{batch}{{\"kind\":\"stats\"}}\n"),
        );
        let kinds = responses[1]
            .get("result")
            .and_then(|r| r.get("kinds"))
            .expect("kinds");
        assert_eq!(
            kinds
                .get("batch")
                .and_then(|b| b.get("requests"))
                .and_then(Json::as_u64),
            Some(1),
            "the batch is metered as one batch request"
        );
        assert_eq!(
            kinds
                .get("analyze")
                .and_then(|b| b.get("requests"))
                .and_then(Json::as_u64),
            Some(0),
            "sub-requests are not double-counted under their own kinds"
        );
    }

    #[test]
    fn gear_result_includes_blocks_on_request() {
        let responses = run_lines(
            &ServerConfig::default(),
            "{\"kind\":\"gear\",\"n\":8,\"r\":2,\"overlap\":2,\"blocks\":true}\n",
        );
        let result = responses[0].get("result").expect("result");
        let blocks = result
            .get("block_error_probabilities")
            .and_then(Json::as_array)
            .expect("blocks");
        let config = sealpaa_gear::GearConfig::new(8, 2, 2).expect("valid");
        assert_eq!(blocks.len(), config.block_count() - 1);
        let direct =
            sealpaa_gear::error_probability(&config, &[0.5; 8], &[0.5; 8], 0.0).expect("direct");
        assert_eq!(
            result.get("error_probability").and_then(Json::as_f64),
            Some(direct)
        );
    }
}
