//! Daemon request-throughput: what pipelining and the `batch` protocol buy
//! over one-request-at-a-time round-trips — the quantitative record behind
//! `BENCH_server.json`.
//!
//! One group, `throughput`, three ways of asking the daemon the same `n`
//! cache-warm `analyze` questions over a single TCP connection to an
//! in-process server running the event io model:
//!
//! * `serialized` — the classic request/response lockstep: write one line,
//!   block for its response, repeat `n` times. Every request pays a full
//!   loopback round-trip plus a poll-thread wakeup.
//! * `pipelined` — all `n` request lines in one write, then `n` responses
//!   read back (tagged by `id`, so order never matters). The poll thread
//!   drains the whole burst from one readiness event and the round-trip is
//!   paid once.
//! * `batch` — one `batch` request line carrying all `n` sub-requests, one
//!   response line carrying all `n` answers. On top of the single
//!   round-trip, duplicate sub-requests collapse through the result cache
//!   as a group.
//!
//! The requests are cache-warm (the config is analyzed once during setup),
//! so the numbers isolate the connection layer: protocol parsing, cache
//! probes and socket traffic, not adder analysis.
//!
//! Unless `MICROBENCH_QUICK` is set (smoke mode), the run rewrites
//! `BENCH_server.json` at the repository root with ns per n-request
//! workload and the two headline speedups. Smoke mode shrinks `n` so CI
//! stays fast; the committed JSON always records the full workload.

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};

use sealpaa_bench::microbench::{black_box, take_results, BenchResult, BenchmarkId, Criterion};
use sealpaa_server::json::Json;
#[cfg(target_os = "linux")]
use sealpaa_server::route::{RouteConfig, Router};
use sealpaa_server::server::{IoModel, Server, ServerConfig};

fn quick() -> bool {
    std::env::var_os("MICROBENCH_QUICK").is_some()
}

/// Requests per measured workload. Kept under the daemon's pipeline cap
/// (128 in-flight requests per connection) so the pipelined burst is never
/// throttled.
fn requests_per_iter() -> usize {
    if quick() {
        8
    } else {
        64
    }
}

/// The one question every workload asks `n` times: a 4-bit LPAA 5 chain at
/// p = 0.2. Only the `id` varies, and the cache key ignores it, so after
/// the warm-up every request is a cache hit.
fn analyze_body(id: usize) -> String {
    format!(r#"{{"id":{id},"kind":"analyze","width":4,"cell":"lpaa5","p":0.2}}"#)
}

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: Vec<u8>,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to in-process daemon");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        // A batch response for `n` sub-requests is one long line (tens of
        // KB); size the read buffer so draining it is one or two syscalls
        // rather than a default-8KB shuffle.
        Client {
            reader: BufReader::with_capacity(256 * 1024, stream.try_clone().expect("clone stream")),
            writer: stream,
            line: Vec::new(),
        }
    }

    fn send(&mut self, request: &[u8]) {
        self.writer.write_all(request).expect("write request");
    }

    /// Reads one response line and returns its byte length (fed to
    /// `black_box` by callers so the read cannot be elided). Raw bytes, not
    /// UTF-8 — a realistic consumer validates only what it inspects.
    fn read_response(&mut self) -> usize {
        self.line.clear();
        self.reader
            .read_until(b'\n', &mut self.line)
            .expect("read response");
        assert!(!self.line.is_empty(), "daemon closed the connection");
        self.line.len()
    }

    fn round_trip(&mut self, request: &str) -> Json {
        self.send(request.as_bytes());
        self.send(b"\n");
        self.read_response();
        let text = std::str::from_utf8(&self.line).expect("response is UTF-8");
        Json::parse(text.trim_end()).expect("response is JSON")
    }
}

/// `n` request lines, newline-terminated, ready for one `write_all`.
fn pipelined_burst(n: usize) -> Vec<u8> {
    let mut burst = Vec::new();
    for id in 0..n {
        burst.extend_from_slice(analyze_body(id).as_bytes());
        burst.push(b'\n');
    }
    burst
}

/// One `batch` request line carrying `n` analyze sub-requests.
fn batch_line(n: usize) -> Vec<u8> {
    let subs: Vec<String> = (0..n).map(analyze_body).collect();
    let mut line = format!(r#"{{"kind":"batch","requests":[{}]}}"#, subs.join(","));
    line.push('\n');
    line.into_bytes()
}

fn bench_throughput(c: &mut Criterion, addr: SocketAddr) {
    let n = requests_per_iter();
    let mut group = c.benchmark_group("throughput");
    group.sample_size(10);

    let singles: Vec<Vec<u8>> = (0..n)
        .map(|id| {
            let mut line = analyze_body(id).into_bytes();
            line.push(b'\n');
            line
        })
        .collect();
    let mut client = Client::connect(addr);
    group.bench_function(BenchmarkId::new(format!("n{n}"), "serialized"), |b| {
        b.iter(|| {
            let mut bytes = 0usize;
            for line in &singles {
                client.send(line);
                bytes += client.read_response();
            }
            black_box(bytes)
        })
    });

    let burst = pipelined_burst(n);
    let mut client = Client::connect(addr);
    group.bench_function(BenchmarkId::new(format!("n{n}"), "pipelined"), |b| {
        b.iter(|| {
            client.send(&burst);
            let mut bytes = 0usize;
            for _ in 0..n {
                bytes += client.read_response();
            }
            black_box(bytes)
        })
    });

    let batch = batch_line(n);
    let mut client = Client::connect(addr);
    group.bench_function(BenchmarkId::new(format!("n{n}"), "batch"), |b| {
        b.iter(|| {
            client.send(&batch);
            black_box(client.read_response())
        })
    });

    group.finish();
}

/// Distinct cache keys per router workload: twice one backend's cache
/// capacity, so a single backend thrashes while four hold the whole set.
fn router_working_set() -> usize {
    if quick() {
        128
    } else {
        512
    }
}

/// One backend's result-cache capacity in the router scaling workload.
/// Sixteen shards need a few entries each, so even smoke mode keeps this
/// well above the shard count.
fn router_cache_entries() -> usize {
    if quick() {
        96
    } else {
        256
    }
}

/// Monte-Carlo samples per router workload miss. Dialled so a miss costs
/// milliseconds of real simulation while a warm hit is a cache lookup —
/// the contrast the capacity-scaling benchmark measures.
fn router_samples() -> usize {
    if quick() {
        200_000
    } else {
        1_000_000
    }
}

/// The router workload key `i`: a Monte-Carlo simulate whose only
/// variation is the RNG seed, so every `i` is one distinct cache key and
/// a miss costs `router_samples()` bit-true samples.
#[cfg(target_os = "linux")]
fn router_body(i: usize) -> String {
    format!(
        r#"{{"id":{i},"kind":"simulate","width":32,"cell":"lpaa5","samples":{},"seed":{i},"threads":1}}"#,
        router_samples()
    )
}

/// Router cache-capacity scaling (the machine has too few cores for
/// compute parallelism to be the story): the same working set of
/// `router_working_set()` distinct keys is pushed through a router backed
/// by 1 vs 4 daemons. One backend's LRU holds half the working set, so a
/// cycling client thrashes it and every request recomputes; four backends
/// shard the key space by consistent hash and hold all of it, so every
/// request after priming is a cache hit.
#[cfg(target_os = "linux")]
fn bench_router(c: &mut Criterion) {
    let ws = router_working_set();
    let mut group = c.benchmark_group("router");
    group.sample_size(10);

    for backends in [1usize, 4] {
        let mut backend_addrs = Vec::new();
        let mut backend_handles = Vec::new();
        for _ in 0..backends {
            let server = Server::bind(ServerConfig {
                addr: "127.0.0.1:0".to_owned(),
                threads: 1,
                cache_entries: router_cache_entries(),
                io_model: IoModel::Event,
                ..Default::default()
            })
            .expect("bind backend");
            backend_addrs.push(server.local_addr());
            backend_handles.push(std::thread::spawn(move || server.run()));
        }
        let router = Router::bind(RouteConfig {
            addr: "127.0.0.1:0".to_owned(),
            backends: backend_addrs.iter().map(|a| a.to_string()).collect(),
            ..RouteConfig::default()
        })
        .expect("bind router");
        let addr = router.local_addr();
        let router_handle = std::thread::spawn(move || router.run());

        let mut burst = Vec::new();
        for i in 0..ws {
            burst.extend_from_slice(router_body(i).as_bytes());
            burst.push(b'\n');
        }
        let mut client = Client::connect(addr);
        let pass = |client: &mut Client| {
            client.send(&burst);
            let mut bytes = 0usize;
            for _ in 0..ws {
                bytes += client.read_response();
            }
            bytes
        };
        // Prime: with 4 backends this loads every key into its shard's
        // cache; with 1 it is simply the first of many thrashing passes.
        pass(&mut client);
        group.bench_function(
            BenchmarkId::new(format!("w{ws}"), format!("backends{backends}")),
            |b| b.iter(|| black_box(pass(&mut client))),
        );

        let mut stop = Client::connect(addr);
        stop.round_trip(r#"{"kind":"shutdown"}"#);
        router_handle
            .join()
            .expect("router thread")
            .expect("router exit");
        for backend in backend_addrs {
            Client::connect(backend).round_trip(r#"{"kind":"shutdown"}"#);
        }
        for handle in backend_handles {
            handle
                .join()
                .expect("backend thread")
                .expect("backend exit");
        }
    }
    group.finish();
}

fn ns_of(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} did not run"))
        .ns_per_iter
}

fn render_report(results: &[BenchResult], n: usize) -> String {
    let mut benches = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            benches,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}}}{sep}",
            r.name, r.ns_per_iter
        );
    }

    let ws = router_working_set();
    let mut speedup_pairs = vec![
        (
            format!(
                "{n} cache-warm analyze requests over one TCP connection to the \
                 event-loop daemon: one batch request line vs {n} serialized \
                 request/response round-trips"
            ),
            format!("throughput/n{n}/serialized"),
            format!("throughput/n{n}/batch"),
        ),
        (
            format!(
                "{n} cache-warm analyze requests over one TCP connection to the \
                 event-loop daemon: {n} pipelined request lines in one write vs \
                 {n} serialized request/response round-trips"
            ),
            format!("throughput/n{n}/serialized"),
            format!("throughput/n{n}/pipelined"),
        ),
    ];
    if results.iter().any(|r| r.name.starts_with("router/")) {
        speedup_pairs.push((
            format!(
                "{ws} distinct Monte-Carlo simulate keys pushed through the sealpaa \
                 route gateway each iteration: 4 consistent-hash-sharded backends \
                 (whose caches jointly hold the working set) vs 1 backend (whose LRU \
                 holds half of it and thrashes, re-simulating every key)"
            ),
            format!("router/w{ws}/backends1"),
            format!("router/w{ws}/backends4"),
        ));
    }
    let mut speedups = String::new();
    for (i, (workload, baseline, fast)) in speedup_pairs.iter().enumerate() {
        let base_ns = ns_of(results, baseline);
        let fast_ns = ns_of(results, fast);
        let sep = if i + 1 < speedup_pairs.len() { "," } else { "" };
        let _ = writeln!(
            speedups,
            "    {{\"workload\": \"{workload}\", \"baseline\": \"{baseline}\", \
             \"fast\": \"{fast}\", \"baseline_ns\": {base_ns:.1}, \"fast_ns\": {fast_ns:.1}, \
             \"speedup\": {:.2}}}{sep}",
            base_ns / fast_ns
        );
    }

    let host = sealpaa_bench::host::host_block();
    format!(
        "{{\n  \"generator\": \"cargo bench -p sealpaa-bench --bench server_throughput\",\n  \
         \"host\": {host},\n  \
         \"unit\": \"ns_per_iter is the median wall-clock time of one full workload \
         ({n} requests)\",\n  \
         \"note\": \"every workload asks an in-process event-loop daemon the same {n} \
         cache-warm analyze questions over a single TCP_NODELAY loopback connection: \
         serialized writes one request and blocks for its response {n} times; pipelined \
         writes all {n} request lines in one write and reads the {n} id-tagged responses \
         back; batch sends one batch request line carrying all {n} sub-requests and reads \
         one response line. The requests hit the result cache, so the numbers isolate the \
         connection layer (round-trips, poll-thread wakeups, protocol parsing), not adder \
         analysis. Acceptance: batch >= 5x serialized, pipelined >= 3x serialized. The \
         router group pushes {ws} distinct cache keys through the sealpaa route gateway \
         backed by 1 vs 4 event-loop daemons (256-entry caches, 1 worker each, on one \
         CPU): consistent hashing shards the key space, so aggregate cache capacity — \
         and with it cache-miss throughput on a thrashing working set — scales with the \
         backend count. Acceptance: backends4 >= 2x backends1\",\n  \
         \"benches\": [\n{benches}  ],\n  \"speedups\": [\n{speedups}  ]\n}}\n"
    )
}

fn main() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".to_owned(),
        threads: 2,
        io_model: IoModel::default(),
        ..Default::default()
    })
    .expect("bind in-process daemon");
    let addr = server.local_addr();
    let daemon = std::thread::spawn(move || server.run());

    // Warm the cache so every measured request is a hit: the first
    // round-trip computes, the second must already be served from cache.
    let mut warm = Client::connect(addr);
    let first = warm.round_trip(&analyze_body(0));
    assert_eq!(first.get("ok"), Some(&Json::Bool(true)), "warm-up failed");
    let second = warm.round_trip(&analyze_body(1));
    assert_eq!(
        second.get("cached"),
        Some(&Json::Bool(true)),
        "warm-up did not populate the cache"
    );
    drop(warm);

    let mut criterion = Criterion::default();
    bench_throughput(&mut criterion, addr);

    let mut stop = Client::connect(addr);
    stop.round_trip(r#"{"kind":"shutdown"}"#);
    daemon.join().expect("daemon thread").expect("daemon exit");

    #[cfg(target_os = "linux")]
    bench_router(&mut criterion);
    let results = take_results();

    if quick() {
        eprintln!("MICROBENCH_QUICK set: not rewriting BENCH_server.json");
        return;
    }
    let report = render_report(&results, requests_per_iter());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_server.json");
    std::fs::write(path, report).expect("write BENCH_server.json");
    println!("wrote {path}");
}
