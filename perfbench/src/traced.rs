//! The traced run: the per-layer budget behind the end-to-end metrics.
//!
//! Whatever `--workload` names, one traced run covers every layer, so each
//! traced run reports the whole per-layer table:
//!
//! * it replays the seeded lines of the three serving workloads in-process
//!   through each layer's public functions, recording one span per call
//!   (name, request id, parent, start, end) — self time is a span's length
//!   minus its children's;
//! * it times the two one-in-flight socket legs, via the router and direct
//!   to a daemon;
//! * it reads every process's `stats` before and after a short load phase
//!   of each serving workload;
//! * it replays the `cold_route` arrival schedule into one-worker
//!   `WorkerPool`s, one per daemon;
//! * it runs the offline jobs at full size, at one thread and at the run's
//!   thread count (`available_parallelism` unless `--threads` says less).
//!
//! Spans stay in memory and are written to `.perfbench_spans/` when the run
//! ends. Where the daemon's code is crate-private, a span wraps the nearest
//! public entry point: engine spans wrap the engine function each kind
//! dispatches to (see [`crate::engines`]) instead of `compute_result`; the
//! batch line's classification is timed as `Request::parse_with_limit` of
//! the whole batch line; and lines are assigned to daemons by a hash of
//! their cache key instead of by the router's ring.

use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use sealpaa_server::cache::ResultCache;
use sealpaa_server::canonical::cache_key;
use sealpaa_server::json::Json;
use sealpaa_server::pool::WorkerPool;
use sealpaa_server::protocol::{
    ok_response, render_batch_ok_response, render_ok_response, write_sub_ok_response, BatchBody,
    Request, RequestBody, MAX_LINE_BYTES,
};
use sealpaa_server::server::{run_stdio, ServerConfig};
use sealpaa_server::snapshot::{read_snapshot, SnapshotLimits};

use crate::engines::{self, ENGINE_KINDS};
use crate::fleet::Layout;
use crate::gen::{
    hot_eligible_frac, Batch, Body, Cold, Warm, BATCH_CACHE_ENTRIES, BATCH_ITEMS,
    COLD_CACHE_ENTRIES, DAEMONS, WARM_CACHE_ENTRIES,
};
use crate::load::{closed_loop, leading_id, LineSource};
use crate::offline::{self, JobResult, FULL, JOBS};
use crate::serving::{
    answer_ok, fill, payload, BatchSource, Counters, BATCH_IN_FLIGHT, COLD_IN_FLIGHT,
    COLD_LINES_PER_SECOND, COLD_RATE, WARM_IN_FLIGHT, WARM_RATE,
};
use crate::stats::{median, Summary};
use crate::{Ctx, Outcome};

/// `warm_route` lines replayed in-process.
const WARM_REPLAY: usize = 5000;
/// Answered `cold_route` lines replayed in-process.
const COLD_REPLAY: usize = 2000;
/// `batch_sweep` batch lines replayed in-process.
const BATCH_REPLAY: usize = 100;
/// One-in-flight round trips per socket leg.
const LEG_ROUNDS: usize = 1000;
/// Shares of `--seconds` spent in each load phase of the traced run.
const WARM_LOAD_SHARE: f64 = 0.1;
const COLD_LOAD_SHARE: f64 = 0.2;
const BATCH_LOAD_SHARE: f64 = 0.15;
const POOL_SHARE: f64 = 0.2;
/// Queue bound of the replayed pools (the daemon's default).
const POOL_QUEUE: usize = 64;

/// One timed call.
struct Span {
    name: &'static str,
    req: u64,
    parent: Option<u32>,
    start_ns: u64,
    end_ns: u64,
}

/// Records spans in memory. With `on == false` it records nothing, so the
/// same replay code measures the untraced cost too.
struct Tracer {
    origin: Instant,
    on: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            origin: Instant::now(),
            on,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; its parent is the innermost open span.
    fn begin(&mut self, name: &'static str, req: u64) {
        if !self.on {
            return;
        }
        let index = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            req,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(index);
    }

    fn end(&mut self) {
        if !self.on {
            return;
        }
        let index = self.open.pop().expect("end without begin") as usize;
        self.spans[index].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span.
    fn call<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
        self.begin(name, req);
        let out = f();
        self.end();
        out
    }

    /// Self time (span minus child spans) of every span, in µs, by name.
    fn self_us(&self) -> HashMap<&'static str, Vec<f64>> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: HashMap<&'static str, Vec<f64>> = HashMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let self_ns = (s.end_ns - s.start_ns).saturating_sub(child);
            out.entry(s.name).or_default().push(self_ns as f64 / 1e3);
        }
        out
    }

    /// Whole span length of every span named `name`, in µs.
    fn total_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Writes every span as one JSON line.
    fn write(&self, path: &std::path::Path) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or(Json::Null, |p| Json::from(u64::from(p)));
            let line = Json::object()
                .field("name", s.name)
                .field("req", s.req)
                .field("parent", parent)
                .field("start_ns", s.start_ns)
                .field("end_ns", s.end_ns)
                .build();
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// One per-layer metric: its name, unit, better direction, layer, how it is
/// measured and which end-to-end metric on which workload it should move.
pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
    pub layer: &'static str,
    pub measured_as: String,
    pub moves: &'static str,
}

fn def(
    name: &str,
    unit: &'static str,
    better: &'static str,
    layer: &'static str,
    measured_as: &str,
    moves: &'static str,
) -> MetricDef {
    MetricDef {
        name: name.to_owned(),
        unit,
        better,
        layer,
        measured_as: measured_as.to_owned(),
        moves,
    }
}

/// The per-layer table, in request order. `moves` names the gated
/// end-to-end metric (`cpu_us_per_req`, `setup_s`, `rss_mb`) a change in the
/// layer should move, and on which workload; the wall-clock figures every
/// report also carries (`p50_us`, `p99_us`, `capacity_rps`) follow it there
/// as "reported".
pub fn metric_defs() -> Vec<MetricDef> {
    let warm_cpu = "cpu_us_per_req on warm_route; reported p50_us, capacity_rps there";
    let batch_cpu = "cpu_us_per_req on batch_sweep; reported capacity_rps there";
    let cold_cpu = "cpu_us_per_req on cold_route; reported p50_us, p99_us, capacity_rps there";
    let offline_cpu = "cpu_us_per_req on offline_solve";
    let mut defs = vec![
        def("route.hop_us", "us", "lower", "route",
            "median one-in-flight round trip via the router minus direct to a daemon, warm hits",
            "no gated metric: reported p50_us on warm_route; only the router's own CPU in the hop also counts in cpu_us_per_req there"),
        def("route.share_max", "ratio", "lower", "route",
            "largest backend's share of the router's forwarded lines (stats delta) under cold_route load",
            "no gated metric: reported capacity_rps on cold_route"),
        def("route.fanout", "count", "lower", "route",
            "backend lines forwarded per client batch line (stats delta) under batch_sweep load",
            "cpu_us_per_req on batch_sweep; reported p50_us there"),
        def("server.conn_us", "us", "lower", "server",
            "median direct one-in-flight round trip minus the in-process parse+key+cache+render time of a warm request",
            "no gated metric: reported p50_us on warm_route; only the daemon's own CPU in it also counts in cpu_us_per_req there"),
        def("protocol.parse_us", "us", "lower", "protocol",
            "mean self time of Request::parse_with_limit per warm_route line (router and daemon each pay it)", warm_cpu),
        def("protocol.parse_batch_us", "us", "lower", "protocol",
            "mean self time of Request::parse_with_limit per 64-item batch line (nearest public entry point of the daemon's batch classification)",
            "cpu_us_per_req on batch_sweep; reported p50_us there"),
        def("protocol.render_us", "us", "lower", "protocol",
            "mean self time of render_ok_response per warm_route hit", warm_cpu),
        def("protocol.render_computed_us", "us", "lower", "protocol",
            "mean self time of ok_response(..).render() per computed cold_route result", cold_cpu),
        def("protocol.response_bytes", "bytes", "lower", "protocol",
            "mean rendered warm_route response line size", warm_cpu),
        def("protocol.batch_dup_frac", "ratio", "higher", "protocol",
            "batch_sweep items that duplicate an earlier item of their batch / items", batch_cpu),
        def("canonical.key_us", "us", "lower", "canonical",
            "mean self time of canonical::cache_key per warm_route line", warm_cpu),
        def("cache.get_us", "us", "lower", "cache",
            "mean self time of ResultCache::get per warm_route hit at the warm_route capacity", warm_cpu),
        def("cache.insert_us", "us", "lower", "cache",
            "mean self time of ResultCache::insert per batch_sweep miss at the batch_sweep capacity", batch_cpu),
        def("cache.hit_ratio", "ratio", "higher", "cache",
            "shared-LRU hits / probes summed over the daemons' stats under batch_sweep load", batch_cpu),
        def("cache.hot_hit_ratio", "ratio", "higher", "cache",
            "hot_hits / (hot_hits + hot_misses) summed over the daemons' stats under warm_route load", warm_cpu),
        def("cache.hot_eligible_frac.warm_route", "ratio", "higher", "cache",
            "warm_route lines whose key is among the connection's last 8 distinct keys (generated stream; 0 on cold_route by construction)",
            "caps what the memo and hot tier can save of cpu_us_per_req on warm_route"),
        def("cache.hot_eligible_frac.batch_sweep", "ratio", "higher", "cache",
            "batch_sweep items whose key is among the connection's last 8 distinct keys (generated stream)",
            "caps what the memo and hot tier can save of cpu_us_per_req on batch_sweep"),
        def("cache.evictions_per_req", "ratio", "lower", "cache",
            "daemon stats evictions delta / sub-requests under batch_sweep load",
            "cpu_us_per_req and rss_mb on batch_sweep; reported capacity_rps there"),
        def("pool.wait_us.p50", "us", "lower", "pool",
            "median WorkerPool::submit -> job start, cold_route schedule replayed into one one-worker pool per daemon",
            "no gated metric: reported p50_us, capacity_rps on cold_route"),
        def("pool.wait_us.p99", "us", "lower", "pool", "p99 of the same waits",
            "no gated metric: reported p99_us, capacity_rps on cold_route"),
        def("pool.busy_frac", "ratio", "lower", "pool",
            "summed job time / (replay span x workers) of the same replay", cold_cpu),
    ];
    for &(kind, stem, entry) in ENGINE_KINDS {
        let base = format!("self time of {entry} per cold_route {kind} line");
        defs.push(def(
            &format!("{stem}_us.mean"),
            "us",
            "lower",
            layer_of(stem),
            &format!("mean {base}"),
            cold_cpu,
        ));
        defs.push(def(
            &format!("{stem}_us.p99"),
            "us",
            "lower",
            layer_of(stem),
            &format!("p99 {base}"),
            cold_cpu,
        ));
        defs.push(def(
            &format!("{stem}_us.count"),
            "count",
            "higher",
            layer_of(stem),
            &format!("number of {kind} lines replayed"),
            "none: the weight of the kind in the replay",
        ));
    }
    defs.extend([
        def(
            "snapshot.load_s",
            "s",
            "lower",
            "snapshot",
            "snapshot::read_snapshot of both warm_route daemon snapshots",
            "setup_s on warm_route",
        ),
        def(
            "snapshot.entries",
            "count",
            "higher",
            "snapshot",
            "entries in those snapshots",
            "setup_s on warm_route",
        ),
        def(
            "trace.decode_s",
            "s",
            "lower",
            "trace",
            "read_binary of the full-size offline trace (all passes)",
            offline_cpu,
        ),
        def(
            "trace.replay_s",
            "s",
            "lower",
            "trace",
            "replay of the decoded records (all passes)",
            offline_cpu,
        ),
        def(
            "explore.t2_speedup.hybrid",
            "ratio",
            "higher",
            "explore",
            "exhaustive_best_with time at 1 thread / at the run's thread count",
            offline_cpu,
        ),
        def(
            "explore.t2_speedup.blocks",
            "ratio",
            "higher",
            "explore",
            "best_block_design time at 1 thread / at the run's thread count",
            offline_cpu,
        ),
        def(
            "explore.t2_speedup.datapath",
            "ratio",
            "higher",
            "explore",
            "best_datapath_assignment time at 1 thread / at the run's thread count",
            offline_cpu,
        ),
        def(
            "sim.samples_per_s",
            "1/s",
            "higher",
            "sim",
            "samples / monte_carlo wall time of the full-size job",
            offline_cpu,
        ),
    ]);
    for job in JOBS {
        defs.push(def(
            &format!("solve_s.{}", job.name()),
            "s",
            "lower",
            job.layer(),
            &format!(
                "wall time of the full-size {} job at the run's thread count",
                job.name()
            ),
            offline_cpu,
        ));
    }
    defs.push(def(
        "tracer.overhead_frac",
        "ratio",
        "lower",
        "perfbench",
        "(traced - untraced) / untraced in-process time per warm_route line",
        "none: the cost of tracing itself",
    ));
    defs
}

fn layer_of(stem: &'static str) -> &'static str {
    stem.split('.').next().unwrap_or(stem)
}

/// A daemon for a key: a stand-in for the router's crate-private ring.
fn daemon_of(key: &str) -> usize {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in key.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    (h % DAEMONS as u64) as usize
}

/// Answer checks of the traced run.
#[derive(Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    fn check(&mut self, ok: bool, what: &dyn std::fmt::Display) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: traced check failed: {what}");
        }
    }
}

/// Result payloads of `lines` from the daemon's own dispatch, in-process
/// (`run_stdio`, the public entry point around the crate-private
/// `compute_result`).
fn stdio_payloads(bodies: &[Body]) -> io::Result<Vec<String>> {
    let mut input = String::new();
    for (i, b) in bodies.iter().enumerate() {
        input.push_str(&b.line(i as u64));
        input.push('\n');
    }
    let config = ServerConfig {
        threads: 1,
        cache_entries: 0,
        ..ServerConfig::default()
    };
    let mut output = Vec::new();
    run_stdio(&config, input.as_bytes(), &mut output)?;
    let text = String::from_utf8(output).map_err(io::Error::other)?;
    let mut payloads = vec![String::new(); bodies.len()];
    for line in text.lines() {
        let id = leading_id(line).ok_or_else(|| io::Error::other(format!("no id: {line}")))?;
        let p = payload(line).ok_or_else(|| io::Error::other(format!("no result: {line}")))?;
        payloads[id as usize] = p.to_owned();
    }
    Ok(payloads)
}

/// Median one-in-flight round trip of `lines` on one connection, in µs,
/// with each answer judged by `check`.
fn one_in_flight(
    addr: SocketAddr,
    lines: &[String],
    check: &dyn Fn(usize, &str) -> bool,
    tally: &mut Tally,
) -> io::Result<f64> {
    let stream = TcpStream::connect(addr)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(20)))?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = &stream;
    let mut rtts = Vec::with_capacity(lines.len());
    let mut answer = String::new();
    for (i, line) in lines.iter().enumerate() {
        let t0 = Instant::now();
        writer.write_all(line.as_bytes())?;
        answer.clear();
        reader.read_line(&mut answer)?;
        rtts.push(t0.elapsed().as_secs_f64() * 1e6);
        tally.check(check(i, answer.trim_end()), &format_args!("leg answer {i}"));
    }
    Ok(median(&rtts))
}

/// In-process replay of warm lines against a filled cache: parse, key,
/// cache read, render. Returns the mean response line length.
fn replay_warm(
    tr: &mut Tracer,
    warm: &Warm,
    payloads: &[String],
    cache: &ResultCache,
    tally: &mut Tally,
) -> f64 {
    let mut bytes = 0usize;
    for (i, &k) in warm.open_keys.iter().take(WARM_REPLAY).enumerate() {
        let id = i as u64;
        let line = warm.keys[k].line(id);
        tr.begin("warm.request", id);
        let request = tr.call("protocol.parse", id, || {
            Request::parse_with_limit(&line, MAX_LINE_BYTES)
        });
        let Ok(request) = request else {
            tr.end();
            tally.check(false, &format_args!("warm line {id} did not parse"));
            continue;
        };
        let key = tr.call("canonical.key", id, || cache_key(&request.body));
        let hit = key.and_then(|key| tr.call("cache.get", id, || cache.get(&key)));
        let kind = request.body.kind();
        let out = hit.map(|p| {
            tr.call("protocol.render", id, || {
                render_ok_response(request.id.as_ref(), kind, true, 0, &p)
            })
        });
        tr.end();
        let ok = out
            .as_deref()
            .is_some_and(|o| answer_ok(o, kind, true, Some(&payloads[k])));
        bytes += out.map_or(0, |o| o.len());
        tally.check(ok, &format_args!("warm replay line {id}"));
    }
    bytes as f64 / WARM_REPLAY.min(warm.open_keys.len()).max(1) as f64
}

/// In-process replay of answered cold lines: parse, key, cache miss, engine,
/// render, insert. Each engine result must match the fleet's answer.
fn replay_cold(tr: &mut Tracer, answered: &[(String, String)], tally: &mut Tally) {
    let cache = ResultCache::new(COLD_CACHE_ENTRIES);
    for (i, (line, answer)) in answered.iter().enumerate() {
        let id = i as u64;
        // The answer tree the daemon rendered, rebuilt outside any span.
        let tree = payload(answer).and_then(|p| Json::parse(p).ok());
        tr.begin("cold.request", id);
        let request = tr.call("protocol.parse", id, || {
            Request::parse_with_limit(line, MAX_LINE_BYTES)
        });
        let Ok(request) = request else {
            tr.end();
            tally.check(false, &format_args!("cold line {id} did not parse"));
            continue;
        };
        let key = tr
            .call("canonical.key", id, || cache_key(&request.body))
            .unwrap_or_default();
        let miss = tr.call("cache.get", id, || cache.get(&key)).is_none();
        let kind = request.body.kind();
        let expected = tr.call(engines::span_name(kind), id, || {
            engines::compute(&request.body)
        });
        let rendered = tree.as_ref().map(|t| {
            tr.call("protocol.render_computed", id, || {
                ok_response(request.id.as_ref(), kind, false, 0, t.clone()).render()
            })
        });
        if let Some(t) = &tree {
            let value = t.render();
            tr.call("cache.insert", id, || cache.insert(key.clone(), value));
        }
        tr.end();
        let agrees = match (&expected, &tree) {
            (Ok(e), Some(t)) => engines::matches(t, e),
            _ => false,
        };
        tally.check(
            miss && agrees && rendered.is_some(),
            &format_args!("cold recompute of {line}"),
        );
    }
}

/// In-process replay of batch lines: parse the line, then per item key,
/// cache read on its daemon's cache, insert on a miss, render the
/// sub-response; then render the envelope.
fn replay_batch(tr: &mut Tracer, batch: &Batch, payloads: &[String], tally: &mut Tally) {
    let caches: Vec<ResultCache> = (0..DAEMONS)
        .map(|_| ResultCache::new(BATCH_CACHE_ENTRIES))
        .collect();
    let mut index_of: HashMap<&str, usize> = HashMap::new();
    for (w, body) in batch.working_set.iter().enumerate() {
        index_of.insert(body.key.as_str(), w);
    }
    for (seq, items) in batch.batches[0].iter().take(BATCH_REPLAY).enumerate() {
        let id = seq as u64;
        let line = batch.line(items, id);
        tr.begin("batch.request", id);
        let request = tr.call("protocol.parse_batch", id, || {
            Request::parse_with_limit(&line, MAX_LINE_BYTES)
        });
        let Ok(Request {
            id: bid,
            body: RequestBody::Batch(spec),
        }) = request
        else {
            tr.end();
            tally.check(false, &format_args!("batch line {id} did not parse"));
            continue;
        };
        let mut joined = String::new();
        let mut computed = 0u64;
        // Per item: its kind and value; a duplicate rides its original's.
        let mut resolved: Vec<Option<(&'static str, String)>> =
            Vec::with_capacity(spec.items.len());
        for (i, item) in spec.items.iter().enumerate() {
            let value = match &item.body {
                BatchBody::DuplicateOf(j) => resolved.get(*j).cloned().flatten(),
                BatchBody::Parsed(Ok(body)) => {
                    let key = tr
                        .call("canonical.key", id, || cache_key(body))
                        .unwrap_or_default();
                    index_of.get(key.as_str()).map(|&w| {
                        let cache = &caches[daemon_of(&key)];
                        let value =
                            tr.call("cache.get", id, || cache.get(&key))
                                .unwrap_or_else(|| {
                                    computed += 1;
                                    let v = payloads[w].clone();
                                    tr.call("cache.insert", id, || cache.insert(key.clone(), v));
                                    payloads[w].clone()
                                });
                        (body.kind(), value)
                    })
                }
                BatchBody::Parsed(Err(_)) => None,
            };
            let Some((kind, v)) = &value else {
                tally.check(
                    false,
                    &format_args!("batch item {i} of line {id} is not in the working set"),
                );
                resolved.push(None);
                continue;
            };
            if i > 0 {
                joined.push(',');
            }
            tr.call("protocol.render_sub", id, || {
                write_sub_ok_response(&mut joined, item.id.as_ref(), kind, false, v)
            });
            resolved.push(value);
        }
        let out = tr.call("protocol.render_batch", id, || {
            render_batch_ok_response(
                bid.as_ref(),
                false,
                0,
                spec.items.len() as u64,
                computed,
                &joined,
            )
        });
        tr.end();
        tally.check(
            crate::serving::batch_ok(&out, id, BATCH_ITEMS),
            &format_args!("batch replay line {id}"),
        );
    }
}

/// Replays `cold_route`'s open-loop schedule into one one-worker pool per
/// daemon: each line becomes a job running its engine. Returns each job's
/// `submit -> start` wait in µs and the pools' busy fraction.
fn replay_pool(cold: &Cold, span_s: f64) -> (Vec<f64>, f64) {
    let pools: Vec<WorkerPool> = (0..DAEMONS)
        .map(|_| WorkerPool::new(1, POOL_QUEUE))
        .collect();
    let done: Arc<Mutex<Vec<(f64, f64)>>> = Arc::new(Mutex::new(Vec::new()));
    let start = Instant::now();
    let due_ns = (span_s * 1e9) as u64;
    for (body, &due) in cold.open.iter().zip(&cold.open_schedule) {
        if due >= due_ns {
            break;
        }
        let due = start + Duration::from_nanos(due);
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        let request = Request::parse_with_limit(&body.line(0), MAX_LINE_BYTES).map(|r| r.body);
        let done = Arc::clone(&done);
        let submitted = Instant::now();
        let job = Box::new(move || {
            let started = Instant::now();
            if let Ok(body) = &request {
                let _ = engines::compute(body);
            }
            let wait = started.duration_since(submitted).as_secs_f64() * 1e6;
            let run = started.elapsed().as_secs_f64();
            done.lock().expect("pool replay lock").push((wait, run));
        });
        if pools[daemon_of(&body.key)].submit(job).is_err() {
            break;
        }
    }
    for pool in &pools {
        pool.shutdown();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let done = done.lock().expect("pool replay lock");
    let busy: f64 = done.iter().map(|(_, run)| run).sum();
    (
        done.iter().map(|(wait, _)| *wait).collect(),
        busy / (elapsed * DAEMONS as f64),
    )
}

/// A closed-loop source over `cold_route`'s capacity lines that keeps every
/// answer for the in-process replay.
struct ColdKeep<'a> {
    cold: &'a Cold,
    kept: Mutex<Vec<(usize, u64, String)>>,
}

impl LineSource for ColdKeep<'_> {
    fn line(&self, conn: usize, seq: u64) -> Option<String> {
        self.cold.closed[conn]
            .get(seq as usize)
            .map(|b| b.line(seq))
    }
    fn check(&self, conn: usize, seq: u64, answer: &str) -> bool {
        let ok = answer_ok(
            answer,
            self.cold.closed[conn][seq as usize].kind,
            false,
            None,
        );
        if ok {
            self.kept
                .lock()
                .expect("cold keep lock")
                .push((conn, seq, answer.to_owned()));
        }
        ok
    }
}

/// Mean of a named span's self times, or an error if no such span ran.
fn mean_self(selfs: &HashMap<&'static str, Vec<f64>>, name: &str) -> io::Result<f64> {
    selfs
        .get(name)
        .and_then(|v| Summary::of(v))
        .map(|s| s.mean)
        .ok_or_else(|| io::Error::other(format!("no {name} span was recorded")))
}

/// Runs `f` untraced and then traced, and returns the traced tracer with
/// the per-call wall time of each pass in µs. Only the traced pass's answer
/// checks count.
fn both_ways(
    calls: usize,
    tally: &mut Tally,
    mut f: impl FnMut(&mut Tracer, &mut Tally),
) -> (Tracer, f64, f64) {
    let mut off = Tracer::new(false);
    let t0 = Instant::now();
    f(&mut off, &mut Tally::default());
    let untraced = t0.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64;
    let mut on = Tracer::new(true);
    let t0 = Instant::now();
    f(&mut on, tally);
    let traced = t0.elapsed().as_secs_f64() * 1e6 / calls.max(1) as f64;
    (on, untraced, traced)
}

fn pair(untraced: f64, traced: f64) -> Json {
    Json::object()
        .field("untraced", untraced)
        .field("traced", traced)
        .build()
}

pub fn run(ctx: &Ctx, workload: &str) -> io::Result<Outcome> {
    let mut tally = Tally::default();
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut put = |name: &str, value: f64| {
        m.insert(name.to_owned(), value);
    };
    let mut tracers: Vec<(&str, Tracer)> = Vec::new();
    let mut overhead = Json::object();
    let conns = ctx.threads;
    let phase = |share: f64| Duration::from_secs_f64(ctx.seconds * share);

    // warm_route: fill, snapshots, socket legs, counters, in-process replay.
    let warm = Warm::new(ctx.seed, WARM_RATE, ctx.seconds, conns);
    let layout = Layout::new(&ctx.bin, ctx.work.path(), WARM_CACHE_ENTRIES, true)?;
    let (payloads, fill_failed) = fill(&layout, &warm.keys)?;
    tally.attempted += warm.keys.len() as u64;
    tally.failed += fill_failed;
    let t0 = Instant::now();
    let mut entries = 0usize;
    for path in layout.snapshot_paths() {
        entries += read_snapshot(path, SnapshotLimits::default())
            .map_err(|e| io::Error::other(format!("{}: {e:?}", path.display())))?
            .len();
    }
    put("snapshot.load_s", t0.elapsed().as_secs_f64());
    put("snapshot.entries", entries as f64);
    // Every warm key, plus the probe each fleet start sends.
    tally.check(
        entries == warm.keys.len() + 1,
        &format_args!("snapshots hold {entries} entries"),
    );

    let (fleet, _, _) = layout.start(crate::serving::PROBE)?;
    let leg_keys: Vec<usize> = warm.open_keys.iter().take(LEG_ROUNDS).copied().collect();
    let leg_lines: Vec<String> = leg_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| warm.keys[k].line(i as u64) + "\n")
        .collect();
    // The direct leg needs every key cached on that daemon: one untimed
    // pass fills in the keys the ring placed on the other one.
    one_in_flight(
        fleet.daemons[0],
        &leg_lines,
        &|_, a| a.contains("\"ok\":true"),
        &mut tally,
    )?;
    let hit = |i: usize, a: &str| {
        let k = leg_keys[i];
        answer_ok(a, warm.keys[k].kind, true, Some(&payloads[k]))
    };
    let via_router = one_in_flight(fleet.router, &leg_lines, &hit, &mut tally)?;
    let direct = one_in_flight(fleet.daemons[0], &leg_lines, &hit, &mut tally)?;
    let before = Counters::read(&fleet)?;
    let load = closed_loop(
        fleet.router,
        conns,
        WARM_IN_FLIGHT,
        phase(WARM_LOAD_SHARE),
        &crate::serving::WarmSource {
            warm: &warm,
            payloads: &payloads,
        },
    )?;
    let after = Counters::read(&fleet)?;
    fleet.stop()?;
    tally.attempted += load.attempted;
    tally.failed += load.failed;
    let hot_hits = before.daemon_delta(&after, &["cache", "hot_hits"]);
    let hot_misses = before.daemon_delta(&after, &["cache", "hot_misses"]);
    put(
        "cache.hot_hit_ratio",
        hot_hits / (hot_hits + hot_misses).max(1.0),
    );
    put(
        "cache.hot_eligible_frac.warm_route",
        hot_eligible_frac(&warm.open_keys),
    );

    let cache = ResultCache::new(WARM_CACHE_ENTRIES);
    for (body, p) in warm.keys.iter().zip(&payloads) {
        cache.insert(body.key.clone(), p.clone());
    }
    let lines = WARM_REPLAY.min(warm.open_keys.len());
    let mut bytes = 0.0;
    let (tr, untraced, traced) = both_ways(lines, &mut tally, |tr, t| {
        bytes = replay_warm(tr, &warm, &payloads, &cache, t);
    });
    let selfs = tr.self_us();
    put("protocol.parse_us", mean_self(&selfs, "protocol.parse")?);
    put("canonical.key_us", mean_self(&selfs, "canonical.key")?);
    put("cache.get_us", mean_self(&selfs, "cache.get")?);
    put("protocol.render_us", mean_self(&selfs, "protocol.render")?);
    put("protocol.response_bytes", bytes);
    put("route.hop_us", via_router - direct);
    put(
        "server.conn_us",
        direct - median(&tr.total_us("warm.request")),
    );
    put("tracer.overhead_frac", (traced - untraced) / untraced);
    overhead = overhead.field("warm_route_us_per_line", pair(untraced, traced));
    tracers.push(("warm_route", tr));

    // cold_route: counters under load, kept answers replayed in-process,
    // and the arrival schedule replayed into the pools.
    let cold_span = phase(COLD_LOAD_SHARE);
    let pool_span = ctx.seconds * POOL_SHARE;
    let per_conn = (COLD_LINES_PER_SECOND * cold_span.as_secs_f64() / conns as f64) as usize + 1;
    let cold = Cold::new(ctx.seed, COLD_RATE, pool_span, conns, per_conn);
    let layout = Layout::new(&ctx.bin, ctx.work.path(), COLD_CACHE_ENTRIES, false)?;
    let (fleet, _, _) = layout.start(crate::serving::PROBE)?;
    let before = Counters::read(&fleet)?;
    let source = ColdKeep {
        cold: &cold,
        kept: Mutex::new(Vec::new()),
    };
    let load = closed_loop(fleet.router, conns, COLD_IN_FLIGHT, cold_span, &source)?;
    let after = Counters::read(&fleet)?;
    fleet.stop()?;
    tally.attempted += load.attempted;
    tally.failed += load.failed;
    let forwarded = before.forwarded_delta(&after);
    let total: f64 = forwarded.iter().sum();
    put(
        "route.share_max",
        forwarded.iter().copied().fold(0.0, f64::max) / total.max(1.0),
    );
    let mut kept = source.kept.into_inner().expect("cold keep lock");
    kept.sort_by_key(|&(conn, seq, _)| (seq, conn));
    let answered: Vec<(String, String)> = kept
        .into_iter()
        .take(COLD_REPLAY)
        .map(|(conn, seq, answer)| (cold.closed[conn][seq as usize].line(seq), answer))
        .collect();
    let (tr, untraced, traced) = both_ways(answered.len(), &mut tally, |tr, t| {
        replay_cold(tr, &answered, t)
    });
    overhead = overhead.field("cold_route_us_per_line", pair(untraced, traced));
    let selfs = tr.self_us();
    put(
        "protocol.render_computed_us",
        mean_self(&selfs, "protocol.render_computed")?,
    );
    for &(kind, stem, _) in ENGINE_KINDS {
        let s = selfs
            .get(stem)
            .and_then(|v| Summary::of(v))
            .ok_or_else(|| io::Error::other(format!("no {kind} line was replayed")))?;
        put(&format!("{stem}_us.mean"), s.mean);
        put(&format!("{stem}_us.p99"), s.p99);
        put(&format!("{stem}_us.count"), s.count as f64);
    }
    tracers.push(("cold_route", tr));
    let (waits, busy) = replay_pool(&cold, pool_span);
    let w = Summary::of(&waits).ok_or_else(|| io::Error::other("no pool job ran"))?;
    put("pool.wait_us.p50", w.p50);
    put("pool.wait_us.p99", w.p99);
    put("pool.busy_frac", busy);

    // batch_sweep: counters under load, then the in-process replay.
    let batch = Batch::new(ctx.seed, conns);
    let batch_payloads = stdio_payloads(&batch.working_set)?;
    let layout = Layout::new(&ctx.bin, ctx.work.path(), BATCH_CACHE_ENTRIES, false)?;
    let (fleet, _, _) = layout.start(crate::serving::PROBE)?;
    let source = BatchSource(&batch);
    let warmup = closed_loop(
        fleet.router,
        conns,
        BATCH_IN_FLIGHT,
        phase(BATCH_LOAD_SHARE / 2.0),
        &source,
    )?;
    let before = Counters::read(&fleet)?;
    let load = closed_loop(
        fleet.router,
        conns,
        BATCH_IN_FLIGHT,
        phase(BATCH_LOAD_SHARE),
        &source,
    )?;
    let after = Counters::read(&fleet)?;
    fleet.stop()?;
    tally.attempted += warmup.attempted + load.attempted;
    tally.failed += warmup.failed + load.failed;
    let batch_lines = load.latencies_us.len().max(1) as f64;
    put(
        "route.fanout",
        before.forwarded_delta(&after).iter().sum::<f64>() / batch_lines,
    );
    let hits = before.daemon_delta(&after, &["cache", "hits"]);
    let misses = before.daemon_delta(&after, &["cache", "misses"]);
    put("cache.hit_ratio", hits / (hits + misses).max(1.0));
    put(
        "cache.evictions_per_req",
        before.daemon_delta(&after, &["cache", "evictions"]) / load.completed_items.max(1) as f64,
    );
    put("protocol.batch_dup_frac", batch.dup_frac());
    let streams: Vec<f64> = batch
        .batches
        .iter()
        .map(|seq| {
            let keys: Vec<&str> = seq
                .iter()
                .flatten()
                .map(|&w| batch.working_set[w].key.as_str())
                .collect();
            hot_eligible_frac(&keys)
        })
        .collect();
    put(
        "cache.hot_eligible_frac.batch_sweep",
        streams.iter().sum::<f64>() / streams.len() as f64,
    );
    let replayed = BATCH_REPLAY.min(batch.batches[0].len());
    let (tr, untraced, traced) = both_ways(replayed, &mut tally, |tr, t| {
        replay_batch(tr, &batch, &batch_payloads, t)
    });
    overhead = overhead.field("batch_sweep_us_per_line", pair(untraced, traced));
    let selfs = tr.self_us();
    put(
        "protocol.parse_batch_us",
        mean_self(&selfs, "protocol.parse_batch")?,
    );
    put("cache.insert_us", mean_self(&selfs, "cache.insert")?);
    tracers.push(("batch_sweep", tr));

    // offline_solve: the full-size jobs, each at the run's thread count,
    // and the three DSE drivers again at one thread.
    let threads = ctx.threads;
    let problems = offline::Problems::build(FULL, ctx.seed, ctx.work.path())?;
    let mut checker = offline::Checker::new(&problems, ctx.seed, threads)?;
    let mut tr = Tracer::new(true);
    for (req, job) in JOBS.into_iter().enumerate() {
        let t0 = Instant::now();
        let result = tr.call(job.span(), req as u64, || {
            offline::run_job(job, &problems, threads)
        })?;
        let wall = t0.elapsed().as_secs_f64();
        tally.check(
            checker.check(job, &FULL, &result),
            &format_args!("{} answer", job.name()),
        );
        put(&format!("solve_s.{}", job.name()), wall);
        match &result {
            JobResult::Replay { decode, replay, .. } => {
                put("trace.decode_s", decode.as_secs_f64());
                put("trace.replay_s", replay.as_secs_f64());
            }
            JobResult::MonteCarlo { samples, .. } => {
                put("sim.samples_per_s", *samples as f64 / wall)
            }
            JobResult::Winner(_) => {
                let t0 = Instant::now();
                let one = tr.call(job.span(), req as u64, || {
                    offline::run_job(job, &problems, 1)
                })?;
                let t1 = t0.elapsed().as_secs_f64();
                tally.check(
                    checker.check(job, &FULL, &one),
                    &format_args!("{} answer at 1 thread", job.name()),
                );
                put(
                    &format!("explore.t2_speedup.{}", job.speedup_label()),
                    t1 / wall,
                );
            }
        }
    }
    tracers.push(("offline_solve", tr));

    // Spans leave memory only now, after every measurement.
    for (stream, tr) in &tracers {
        tr.write(
            &std::path::Path::new(SPAN_DIR)
                .join(format!("{workload}-seed{}-{stream}.jsonl", ctx.seed)),
        )?;
    }

    let mut metrics = Vec::new();
    let mut table = Vec::new();
    for d in metric_defs() {
        let value = *m.get(&d.name).ok_or_else(|| {
            io::Error::other(format!("per-layer metric {} was not measured", d.name))
        })?;
        table.push(
            Json::object()
                .field("name", d.name.as_str())
                .field("unit", d.unit)
                .field("better", d.better)
                .field("layer", d.layer)
                .field("measured_as", d.measured_as.as_str())
                .field("moves", d.moves)
                .build(),
        );
        metrics.push((d.name, value, d.unit));
    }
    let report = Json::object()
        .field("end_to_end_in_process", overhead.build())
        .field("spans_dir", SPAN_DIR)
        .field("per_layer", Json::Array(table))
        .build();
    Ok(Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        metrics,
        report,
    })
}

/// Where the traced run writes its spans, relative to the checkout.
pub const SPAN_DIR: &str = ".perfbench_spans";

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new(true);
        tr.begin("outer", 1);
        tr.call("inner", 1, || std::thread::sleep(Duration::from_millis(5)));
        tr.end();
        let selfs = tr.self_us();
        let outer = selfs["outer"][0];
        let inner = selfs["inner"][0];
        assert!(inner >= 5000.0);
        assert!(
            outer < inner,
            "outer self {outer} should exclude inner {inner}"
        );
        assert_eq!(tr.spans[1].parent, Some(0));
        assert_eq!(tr.total_us("outer").len(), 1);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tr = Tracer::new(false);
        tr.begin("outer", 1);
        assert_eq!(tr.call("inner", 1, || 7), 7);
        tr.end();
        assert!(tr.spans.is_empty());
    }

    #[test]
    fn benchmark_json_lists_every_per_layer_metric() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("valid JSON");
        let listed: Vec<[String; 3]> = doc
            .get("per_layer")
            .and_then(Json::as_array)
            .expect("per_layer array")
            .iter()
            .map(|e| {
                let s = |k: &str| e.get(k).and_then(Json::as_str).expect("string").to_owned();
                [s("name"), s("unit"), s("better")]
            })
            .collect();
        let defined: Vec<[String; 3]> = metric_defs()
            .into_iter()
            .map(|d| [d.name, d.unit.to_owned(), d.better.to_owned()])
            .collect();
        assert_eq!(listed, defined);
        let names: std::collections::HashSet<&String> = defined.iter().map(|d| &d[0]).collect();
        assert_eq!(names.len(), defined.len(), "per-layer names repeat");
    }
}
