//! Fault-injection tests: misbehaving clients against a real TCP daemon.
//!
//! Each test wires up one hostile peer — a stalled reader, a writer that
//! never drains its responses, a newline-free flood, a connection flood past
//! the cap, or a shutdown racing in-flight work — and checks that the daemon
//! answers with a structured error (or a clean disconnect) within its
//! deadlines, keeps its registries bounded, and stays healthy for the next
//! well-behaved client.

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::{PoisonError, RwLock, RwLockReadGuard};
use std::time::{Duration, Instant};

use sealpaa_server::json::Json;
use sealpaa_server::server::{IoModel, Server, ServerConfig};

/// The I/O models each fault scenario must survive. `SEALPAA_IO_MODEL`
/// pins one (the CI matrix runs one leg per model); otherwise every model
/// available on this platform is exercised.
fn models() -> Vec<IoModel> {
    if let Ok(forced) = std::env::var("SEALPAA_IO_MODEL") {
        return vec![forced.parse().expect("valid SEALPAA_IO_MODEL")];
    }
    if cfg!(target_os = "linux") {
        vec![IoModel::Event, IoModel::Threads]
    } else {
        vec![IoModel::Threads]
    }
}

/// The churn tests count this process's threads, which every other test's
/// servers (and their connection threads) would inflate while running in
/// parallel. So the churn tests hold this lock for writing, and every other
/// test in the binary holds it for reading. It guards no data, so a test
/// that panicked while holding it leaves nothing half-updated and the
/// poisoned guard is safe to take.
static THREAD_COUNT: RwLock<()> = RwLock::new(());

/// Shared access for a test that does not count threads.
fn shared() -> RwLockReadGuard<'static, ()> {
    THREAD_COUNT.read().unwrap_or_else(PoisonError::into_inner)
}

/// Sole access for a test that counts threads.
#[cfg(target_os = "linux")]
fn exclusive() -> std::sync::RwLockWriteGuard<'static, ()> {
    THREAD_COUNT.write().unwrap_or_else(PoisonError::into_inner)
}

fn for_each_model(scenario: impl Fn(IoModel)) {
    let _counting = shared();
    for model in models() {
        scenario(model);
    }
}

fn spawn_server(config: ServerConfig) -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("server run"));
    (addr, handle)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: std::net::SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone")),
            writer: stream,
        }
    }

    fn request(&mut self, line: &str) -> Json {
        writeln!(self.writer, "{line}").expect("send");
        self.writer.flush().expect("flush");
        self.read_response().expect("response before disconnect")
    }

    /// Reads one response line; `None` on a clean EOF.
    fn read_response(&mut self) -> Option<Json> {
        let mut response = String::new();
        let n = self.reader.read_line(&mut response).expect("receive");
        (n > 0).then(|| Json::parse(response.trim_end()).expect("response is valid JSON"))
    }
}

fn stats(client: &mut Client) -> Json {
    let response = client.request(r#"{"kind":"stats"}"#);
    response.get("result").cloned().expect("stats result")
}

fn stat_u64(stats: &Json, path: &[&str]) -> u64 {
    let mut node = stats;
    for key in path {
        node = node
            .get(key)
            .unwrap_or_else(|| panic!("missing stats field {}", path.join(".")));
    }
    node.as_u64()
        .unwrap_or_else(|| panic!("non-numeric stats field {}", path.join(".")))
}

#[test]
fn stalled_client_is_timed_out_with_a_structured_error() {
    for_each_model(stalled_client_is_timed_out);
}

fn stalled_client_is_timed_out(io_model: IoModel) {
    let (addr, handle) = spawn_server(ServerConfig {
        idle_timeout_ms: 200,
        io_model,
        ..Default::default()
    });

    // A client that connects and never sends a complete line.
    let mut stalled = Client::connect(addr);
    stalled
        .writer
        .write_all(b"{\"kind\":")
        .expect("partial line");
    stalled.writer.flush().expect("flush");

    // Within the deadline (plus slack) the daemon must answer with a
    // structured timeout error and then close the connection — not pin a
    // thread on the dead peer.
    let started = Instant::now();
    let response = stalled
        .read_response()
        .expect("a structured error precedes the close");
    assert!(
        started.elapsed() < Duration::from_secs(10),
        "timeout must fire near the configured deadline"
    );
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .expect("message")
            .contains("idle timeout"),
        "{}",
        response.render()
    );
    assert!(stalled.read_response().is_none(), "then a clean close");

    // The daemon stays healthy and the timeout is visible in stats.
    let mut observer = Client::connect(addr);
    let snapshot = stats(&mut observer);
    assert!(stat_u64(&snapshot, &["connections", "timeouts"]) >= 1);

    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
fn slow_writer_is_disconnected_once_the_write_deadline_expires() {
    for_each_model(slow_writer_is_disconnected);
}

fn slow_writer_is_disconnected(io_model: IoModel) {
    let (addr, handle) = spawn_server(ServerConfig {
        write_timeout_ms: 300,
        io_model,
        ..Default::default()
    });

    // Pipeline many large responses without ever reading them: once the
    // kernel buffers fill, the daemon's writes block, the write deadline
    // expires, and the connection is dropped instead of pinning its thread.
    let flooder = TcpStream::connect(addr).expect("connect");
    flooder
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("client write timeout");
    let mut writer = flooder.try_clone().expect("clone");
    let request = r#"{"kind":"analyze","width":64,"cell":"lpaa1","p":0.1}"#;
    let mut sent = 0usize;
    for _ in 0..3000 {
        // The daemon may already have hung up mid-flood; that is the point.
        if writeln!(writer, "{request}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        sent += 1;
    }
    assert!(sent > 0, "at least one request must go out");

    // The daemon must register the write timeout and disconnect the flooder
    // well before the 30s observer read deadline.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut observer = Client::connect(addr);
    loop {
        let snapshot = stats(&mut observer);
        if stat_u64(&snapshot, &["connections", "timeouts"]) >= 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "write deadline never fired: {}",
            snapshot.render()
        );
        std::thread::sleep(Duration::from_millis(50));
    }

    // The flooder's socket is dead: draining it ends in EOF or a reset.
    drop(writer);
    flooder
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("timeout");
    let mut sink = [0u8; 1 << 16];
    let mut reader = flooder;
    loop {
        match reader.read(&mut sink) {
            Ok(0) => break,
            Ok(_) => continue,
            Err(e) if e.kind() == ErrorKind::ConnectionReset => break,
            Err(e) => panic!("unexpected read error draining the flooder: {e}"),
        }
    }

    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
fn newline_free_flood_is_discarded_and_answered_with_a_structured_error() {
    for_each_model(newline_free_flood_is_discarded);
}

fn newline_free_flood_is_discarded(io_model: IoModel) {
    let (addr, handle) = spawn_server(ServerConfig {
        max_line_bytes: 4096,
        io_model,
        ..Default::default()
    });
    let mut client = Client::connect(addr);

    // 1 MiB without a newline: 256× the limit. The daemon discards it as it
    // streams in (bounded memory — see the unit test on the bounded reader)
    // and answers once the line finally terminates.
    let flood = vec![b'x'; 1 << 20];
    client.writer.write_all(&flood).expect("flood");
    client.writer.write_all(b"\n").expect("terminate");
    client.writer.flush().expect("flush");

    let response = client.read_response().expect("structured error");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    let message = response
        .get("error")
        .and_then(Json::as_str)
        .expect("message");
    assert!(message.contains("1048576 bytes"), "{message}");
    assert!(message.contains("4096 byte"), "{message}");

    // The stream resynced at the newline: the same connection keeps serving.
    let good = client.request(r#"{"kind":"analyze","width":2,"cell":"lpaa1"}"#);
    assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));
    let snapshot = stats(&mut client);
    assert!(stat_u64(&snapshot, &["errors"]) >= 1);

    client.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
fn connections_past_the_cap_are_shed_with_an_overloaded_error() {
    for_each_model(connections_past_the_cap_are_shed);
}

fn connections_past_the_cap_are_shed(io_model: IoModel) {
    let (addr, handle) = spawn_server(ServerConfig {
        max_connections: 4,
        io_model,
        ..Default::default()
    });

    // Fill the cap. A completed round-trip guarantees the connection is
    // registered, because registration precedes serving.
    let mut holders: Vec<Client> = (0..4).map(|_| Client::connect(addr)).collect();
    for holder in &mut holders {
        let snapshot = stats(holder);
        assert!(stat_u64(&snapshot, &["connections", "registered"]) <= 4);
    }

    // The fifth connection is shed: one structured "overloaded" line, then
    // a close — it must never hang waiting for a slot.
    let mut shed = Client::connect(addr);
    let response = shed.read_response().expect("structured shed response");
    assert_eq!(response.get("ok").and_then(Json::as_bool), Some(false));
    assert!(
        response
            .get("error")
            .and_then(Json::as_str)
            .expect("message")
            .contains("overloaded"),
        "{}",
        response.render()
    );
    assert!(shed.read_response().is_none(), "then a clean close");

    // Freeing one slot re-admits new connections (the daemon has to notice
    // the disconnect first, so retry briefly).
    drop(holders.pop());
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut admitted = loop {
        let mut candidate = Client::connect(addr);
        candidate
            .writer
            .write_all(b"{\"kind\":\"stats\"}\n")
            .expect("send");
        match candidate.read_response() {
            Some(response) if response.get("ok").and_then(Json::as_bool) == Some(true) => {
                break candidate;
            }
            _ => {
                assert!(
                    Instant::now() < deadline,
                    "freed slot was never re-admitted"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    let snapshot = stats(&mut admitted);
    assert!(stat_u64(&snapshot, &["connections", "shed"]) >= 1);
    assert!(stat_u64(&snapshot, &["connections", "registered"]) <= 4);

    admitted.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
fn shutdown_while_a_connection_is_stalled_drains_work_and_unblocks_the_reader() {
    for_each_model(shutdown_while_a_connection_is_stalled);
}

fn shutdown_while_a_connection_is_stalled(io_model: IoModel) {
    // One worker, no idle deadline: an idle connection would block its
    // reader forever — the shutdown sweep must unblock it, while a job
    // already in flight still gets its answer.
    let (addr, handle) = spawn_server(ServerConfig {
        threads: 1,
        cache_entries: 0,
        idle_timeout_ms: 0,
        io_model,
        ..Default::default()
    });

    let busy = std::thread::spawn(move || {
        let mut client = Client::connect(addr);
        let response = client.request(
            r#"{"id":7,"kind":"simulate","width":16,"cell":"lpaa5","samples":3000000,"seed":3,"threads":1}"#,
        );
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "the in-flight job must be answered before the close: {}",
            response.render()
        );
        assert_eq!(response.get("id").and_then(Json::as_u64), Some(7));
    });
    // Let the job reach the worker, and park a second, idle connection.
    std::thread::sleep(Duration::from_millis(100));
    let mut idle = Client::connect(addr);

    let mut stopper = Client::connect(addr);
    let response = stopper.request(r#"{"kind":"shutdown"}"#);
    assert_eq!(
        response
            .get("result")
            .and_then(|r| r.get("stopping"))
            .and_then(Json::as_bool),
        Some(true)
    );

    // The daemon joins: the sweep unblocked the idle reader (which would
    // otherwise never return), and the busy client got its answer.
    handle
        .join()
        .expect("daemon exits despite the stalled reader");
    assert!(idle.read_response().is_none(), "idle connection sees EOF");
    busy.join().expect("busy client answered");
}

#[test]
fn registries_stay_bounded_under_connection_churn() {
    for_each_model(registries_stay_bounded);
}

fn registries_stay_bounded(io_model: IoModel) {
    let (addr, handle) = spawn_server(ServerConfig {
        max_connections: 8,
        io_model,
        ..Default::default()
    });

    // 200 sequential connect/request/disconnect cycles: the registry and
    // the thread list must track live connections, not the running total.
    for i in 0..200 {
        let mut client = Client::connect(addr);
        let response = client.request(r#"{"kind":"analyze","width":4,"cell":"lpaa2"}"#);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "churn iteration {i}: {}",
            response.render()
        );
    }

    let mut observer = Client::connect(addr);
    let snapshot = stats(&mut observer);
    assert!(
        stat_u64(&snapshot, &["connections", "registered"]) <= 8,
        "registry grew past the cap: {}",
        snapshot.render()
    );
    assert!(stat_u64(&snapshot, &["connections", "live"]) <= 8);
    assert!(
        stat_u64(&snapshot, &["connections", "peak"]) <= 8,
        "peak gauge proves the registry never exceeded the cap: {}",
        snapshot.render()
    );
    assert_eq!(
        stat_u64(&snapshot, &["connections", "shed"]),
        0,
        "one-at-a-time churn must never trip the cap: {}",
        snapshot.render()
    );

    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

/// Process thread count, for proving connections don't cost threads.
#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("task dir")
        .count()
}

/// Open/idle/close churn against the event loop: `held` connections stay
/// parked while `cycled` more connect, make one request, and disconnect.
/// Connections must cost registry entries, never threads.
#[cfg(target_os = "linux")]
fn event_churn(held: usize, cycled: usize) {
    let _counting = exclusive();
    let (addr, handle) = spawn_server(ServerConfig {
        max_connections: held + 64,
        io_model: IoModel::Event,
        ..Default::default()
    });
    // Baseline after the daemon is fully up (poll thread + worker pool).
    let mut observer = Client::connect(addr);
    stats(&mut observer);
    let baseline = thread_count();

    let mut parked: Vec<TcpStream> = Vec::with_capacity(held);
    for _ in 0..held {
        parked.push(TcpStream::connect(addr).expect("held connect"));
    }
    for i in 0..cycled {
        let mut client = Client::connect(addr);
        let response = client.request(r#"{"kind":"analyze","width":4,"cell":"lpaa2"}"#);
        assert_eq!(
            response.get("ok").and_then(Json::as_bool),
            Some(true),
            "churn iteration {i}: {}",
            response.render()
        );
    }

    // Thread count is flat: idle connections are registry entries, not
    // threads (small slack for transient test-harness threads).
    let now = thread_count();
    assert!(
        now <= baseline + 2,
        "thread count grew under churn: {baseline} -> {now}"
    );
    let snapshot = stats(&mut observer);
    let registered = stat_u64(&snapshot, &["connections", "registered_fds"]);
    assert!(
        registered >= held as u64,
        "held connections missing from the fd registry: {registered} < {held}"
    );
    assert!(
        registered <= (held + 8) as u64,
        "fd registry grew past the live set: {}",
        snapshot.render()
    );
    assert_eq!(stat_u64(&snapshot, &["connections", "shed"]), 0);

    drop(parked);
    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
#[cfg(target_os = "linux")]
fn killed_slow_reader_releases_pending_write_bytes() {
    // The pending-output gauge is owned by the event loop; the threads
    // model never publishes it, so a pinned threads leg skips this.
    if !models().iter().any(|m| matches!(m, IoModel::Event)) {
        return;
    }
    let _counting = shared();
    let (addr, handle) = spawn_server(ServerConfig {
        write_timeout_ms: 5_000,
        io_model: IoModel::Event,
        ..Default::default()
    });

    // A reader that requests megabytes of responses and never drains them:
    // eight pipelined batches of 1024 sub-requests each produce far more
    // output than the loopback socket buffers hold, so the connection's
    // output queue — and with it the pending_write_bytes gauge — fills.
    let flooder = TcpStream::connect(addr).expect("connect");
    flooder
        .set_write_timeout(Some(Duration::from_secs(5)))
        .expect("client write timeout");
    let mut writer = flooder.try_clone().expect("clone");
    let item = r#"{"kind":"analyze","width":64,"cell":"lpaa1","p":0.1}"#;
    let items = vec![item; 1024].join(",");
    for _ in 0..8 {
        if writeln!(writer, "{{\"kind\":\"batch\",\"requests\":[{items}]}}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
    }

    // Wait until the daemon is demonstrably mid-flush (bytes queued on the
    // stalled connection are visible in the gauge)...
    let mut observer = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snapshot = stats(&mut observer);
        if stat_u64(&snapshot, &["connections", "pending_write_bytes"]) > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "responses never queued on the stalled reader: {}",
            snapshot.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // ...then kill the reader abruptly. Unread data in its receive queue
    // makes the close a hard reset, so the daemon aborts the connection
    // with its output queue still full — the gauge must give every
    // unsent byte back instead of leaking the abandoned buffer.
    drop(writer);
    drop(flooder);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let snapshot = stats(&mut observer);
        if stat_u64(&snapshot, &["connections", "pending_write_bytes"]) == 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "gauge still charges the dead connection: {}",
            snapshot.render()
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The daemon stays healthy for well-behaved clients.
    let good = observer.request(r#"{"kind":"analyze","width":4,"cell":"lpaa2"}"#);
    assert_eq!(good.get("ok").and_then(Json::as_bool), Some(true));

    observer.request(r#"{"kind":"shutdown"}"#);
    handle.join().expect("clean shutdown");
}

#[test]
#[cfg(target_os = "linux")]
fn event_loop_holds_idle_connections_without_threads() {
    // Tier-1 scale; the `--ignored` variant below runs the full 10k churn.
    event_churn(256, 512);
}

#[test]
#[ignore = "10k-connection churn; run explicitly with --ignored"]
#[cfg(target_os = "linux")]
fn event_loop_survives_ten_thousand_connection_churn() {
    // 2k parked + 8k cycled = 10k opens, with at most ~2k simultaneous so
    // the suite stays inside common fd ulimits.
    event_churn(2000, 8000);
}
