//! Router fault-injection tests (Linux): misbehaving peers on both sides of
//! a real `sealpaa route` gateway.
//!
//! Each test wires up one hostile peer — a newline-free flood, a connection
//! flood past the cap, a client that never drains its responses, or a
//! scripted backend that dies halfway through a response — and checks that
//! the router answers with a structured error (or a clean disconnect),
//! keeps serving everyone else, and repairs its ring.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use sealpaa_server::json::Json;
use sealpaa_server::route::{RouteConfig, Router};
use sealpaa_server::server::{IoModel, Server, ServerConfig};

/// The backends' connection layer. `SEALPAA_IO_MODEL` pins one (the CI
/// gate runs both); the default is the event model.
fn backend_model() -> IoModel {
    match std::env::var("SEALPAA_IO_MODEL") {
        Ok(forced) => forced.parse().expect("valid SEALPAA_IO_MODEL"),
        Err(_) => IoModel::Event,
    }
}

fn spawn_backend() -> (SocketAddr, JoinHandle<()>) {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        io_model: backend_model(),
        ..Default::default()
    })
    .expect("bind backend");
    let addr = server.local_addr();
    let handle = std::thread::spawn(move || server.run().expect("backend run"));
    (addr, handle)
}

fn spawn_router(config: RouteConfig) -> (SocketAddr, JoinHandle<()>) {
    let router = Router::bind(RouteConfig {
        addr: "127.0.0.1:0".to_owned(),
        ..config
    })
    .expect("bind router");
    let addr = router.local_addr();
    let handle = std::thread::spawn(move || router.run().expect("router run"));
    (addr, handle)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
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

fn ok(response: &Json) -> bool {
    response.get("ok").and_then(Json::as_bool) == Some(true)
}

fn error_of(response: &Json) -> &str {
    response
        .get("error")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("no error message: {}", response.render()))
}

fn router_stats(client: &mut Client) -> Json {
    let response = client.request(r#"{"kind":"stats"}"#);
    assert!(ok(&response), "{}", response.render());
    response.get("result").cloned().expect("stats result")
}

fn stat_u64(stats: &Json, field: &str) -> u64 {
    stats
        .get(field)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("missing router stats field {field}"))
}

fn healthy_backends(stats: &Json) -> usize {
    stats
        .get("backends")
        .and_then(Json::as_array)
        .expect("backends array")
        .iter()
        .filter(|b| b.get("healthy").and_then(Json::as_bool) == Some(true))
        .count()
}

/// Stops the router, then each backend daemon directly.
fn shut_down(
    client: &mut Client,
    router: JoinHandle<()>,
    backends: Vec<(SocketAddr, JoinHandle<()>)>,
) {
    client.request(r#"{"kind":"shutdown"}"#);
    router.join().expect("router drains and exits");
    for (addr, handle) in backends {
        Client::connect(addr).request(r#"{"kind":"shutdown"}"#);
        handle.join().expect("backend exits");
    }
}

#[test]
fn newline_free_flood_gets_the_line_limit_error_and_the_connection_keeps_serving() {
    let backend = spawn_backend();
    let (addr, router) = spawn_router(RouteConfig {
        backends: vec![backend.0.to_string()],
        max_line_bytes: 4096,
        ..RouteConfig::default()
    });
    let mut client = Client::connect(addr);

    // 1 MiB without a newline: 256× the limit, discarded as it streams in.
    client
        .writer
        .write_all(&vec![b'x'; 1 << 20])
        .expect("flood");
    client.writer.write_all(b"\n").expect("terminate");
    client.writer.flush().expect("flush");
    let response = client.read_response().expect("structured error");
    assert!(!ok(&response), "{}", response.render());
    let message = error_of(&response);
    assert!(message.contains("1048576 bytes"), "{message}");
    assert!(message.contains("4096 byte"), "{message}");

    // The stream resynced at the newline: the same connection keeps serving.
    let good = client.request(r#"{"kind":"analyze","width":2,"cell":"lpaa1"}"#);
    assert!(ok(&good), "{}", good.render());
    assert!(stat_u64(&router_stats(&mut client), "errors") >= 1);

    shut_down(&mut client, router, vec![backend]);
}

#[test]
fn connections_past_the_cap_get_the_router_overloaded_refusal() {
    let backend = spawn_backend();
    let (addr, router) = spawn_router(RouteConfig {
        backends: vec![backend.0.to_string()],
        max_connections: 4,
        ..RouteConfig::default()
    });

    // Fill the cap; a completed round trip proves each one was admitted.
    let mut holders: Vec<Client> = (0..4).map(|_| Client::connect(addr)).collect();
    for holder in &mut holders {
        router_stats(holder);
    }

    // The fifth connection is refused: one structured line, then a close.
    let mut refused = Client::connect(addr);
    let response = refused.read_response().expect("structured refusal");
    assert!(!ok(&response), "{}", response.render());
    assert!(
        error_of(&response).contains("router overloaded"),
        "{}",
        response.render()
    );
    assert!(refused.read_response().is_none(), "then a clean close");

    // Freeing a slot re-admits (once the router has seen the close).
    drop(holders.pop());
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut admitted = loop {
        let mut candidate = Client::connect(addr);
        candidate
            .writer
            .write_all(b"{\"kind\":\"stats\"}\n")
            .expect("send");
        match candidate.read_response() {
            Some(response) if ok(&response) => break candidate,
            _ => {
                assert!(Instant::now() < deadline, "freed slot never re-admitted");
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    assert!(stat_u64(&router_stats(&mut admitted), "shed") >= 1);

    shut_down(&mut admitted, router, vec![backend]);
}

#[test]
fn a_client_that_stops_reading_is_dropped_at_the_write_deadline_while_others_are_answered() {
    let backend = spawn_backend();
    let (addr, router) = spawn_router(RouteConfig {
        backends: vec![backend.0.to_string()],
        write_timeout_ms: 300,
        ..RouteConfig::default()
    });

    // Pipeline thousands of ~10 KB responses without reading any: the
    // socket buffers fill, the router's writes stall, and the write
    // deadline must drop the client instead of buffering for it forever.
    let flooder = TcpStream::connect(addr).expect("connect");
    flooder
        .set_write_timeout(Some(Duration::from_secs(1)))
        .expect("client write timeout");
    let mut writer = flooder.try_clone().expect("clone");
    let request = r#"{"kind":"analyze","width":64,"cell":"lpaa1","p":0.1}"#;
    let mut sent = 0usize;
    for _ in 0..3000 {
        // The router may already have hung up mid-flood; that is the point.
        if writeln!(writer, "{request}")
            .and_then(|()| writer.flush())
            .is_err()
        {
            break;
        }
        sent += 1;
    }
    assert!(sent > 0, "at least one request must go out");

    // Another client is answered throughout, and sees the flooder leave.
    let mut observer = Client::connect(addr);
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let answer = observer.request(r#"{"kind":"analyze","width":4,"cell":"lpaa2"}"#);
        assert!(ok(&answer), "{}", answer.render());
        let stats = router_stats(&mut observer);
        if stat_u64(&stats, "clients") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "the stalled client was never dropped: {}",
            stats.render()
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

    shut_down(&mut observer, router, vec![backend]);
}

#[test]
fn a_backend_that_resets_mid_batch_fails_only_its_group_and_leaves_the_ring() {
    let backend = spawn_backend();
    // A scripted backend: it waits for its first request (a sub-batch),
    // writes half a response line, then resets. Reading only the first
    // byte leaves the rest of the request unread, which turns the close
    // into a hard reset.
    let fake = TcpListener::bind("127.0.0.1:0").expect("bind fake backend");
    let fake_addr = fake.local_addr().expect("fake addr");
    let script = std::thread::spawn(move || {
        let (mut link, _) = fake.accept().expect("router dials the fake");
        let mut first = [0u8; 1];
        link.read_exact(&mut first).expect("a sub-batch arrives");
        link.write_all(br#"{"id":0,"ok":true,"kind":"batch","cached":false,"re"#)
            .expect("half a response line");
        link.flush().expect("flush");
        // Let the router take in the partial line before the reset.
        std::thread::sleep(Duration::from_millis(100));
    });
    let (addr, router) = spawn_router(RouteConfig {
        backends: vec![backend.0.to_string(), fake_addr.to_string()],
        // No probes during the test: the fake only speaks its script.
        health_interval_ms: 60_000,
        ..RouteConfig::default()
    });
    let mut client = Client::connect(addr);

    // 32 distinct keys: the ring sends some to each backend.
    let items: Vec<String> = (1..=32)
        .map(|k| format!(r#"{{"id":{k},"kind":"analyze","width":8,"cell":"lpaa1","p":0.{k:03}}}"#))
        .collect();
    let envelope = format!(
        r#"{{"id":"mid","kind":"batch","requests":[{}]}}"#,
        items.join(",")
    );
    let response = client.request(&envelope);
    script.join().expect("fake backend script");
    assert!(ok(&response), "{}", response.render());
    assert_eq!(response.get("id").and_then(Json::as_str), Some("mid"));
    let subs = response
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_array)
        .expect("sub-responses");
    assert_eq!(subs.len(), 32, "every item gets an answer");
    let unavailable = format!("backend {fake_addr} unavailable");
    let mut lost = 0;
    for (i, sub) in subs.iter().enumerate() {
        assert_eq!(
            sub.get("id").and_then(Json::as_u64),
            Some(i as u64 + 1),
            "item order survives the loss: {}",
            response.render()
        );
        if !ok(sub) {
            assert_eq!(error_of(sub), unavailable, "{}", sub.render());
            lost += 1;
        }
    }
    assert!(
        lost > 0,
        "the fake's group must fail: {}",
        response.render()
    );
    assert!(
        lost < subs.len(),
        "the real backend's items must be answered: {}",
        response.render()
    );

    // The ring was rebuilt without the fake: the same batch now lands
    // wholly on the surviving backend.
    let stats = router_stats(&mut client);
    assert_eq!(healthy_backends(&stats), 1, "{}", stats.render());
    let replay = client.request(&envelope);
    let subs = replay
        .get("result")
        .and_then(|r| r.get("results"))
        .and_then(Json::as_array)
        .expect("sub-responses");
    assert!(
        subs.iter().all(ok),
        "every item re-routes to the survivor: {}",
        replay.render()
    );

    shut_down(&mut client, router, vec![backend]);
}
