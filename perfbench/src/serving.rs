//! The three serving workloads, untraced: `sealpaa route` in front of two
//! `sealpaa serve --threads 1` daemons, load from this process.

use std::io;
use std::sync::Mutex;
use std::time::Duration;

use sealpaa_server::json::Json;
use sealpaa_server::protocol::Request;

use crate::engines;
use crate::fleet::{field, Fleet, Layout};
use crate::gen::{
    Batch, Body, Cold, Warm, BATCH_CACHE_ENTRIES, BATCH_ITEMS, BATCH_SEQUENCE, COLD_CACHE_ENTRIES,
    WARM_CACHE_ENTRIES,
};
use crate::load::{closed_loop, open_loop, LineSource, Phase};
use crate::stats::{median, quantile, Figures, Summary, LATENCY_ACROSS};
use crate::{Ctx, Outcome};

/// Open-loop rate of `warm_route`: about a quarter of the router's warm
/// capacity on a 2-vCPU host.
pub const WARM_RATE: f64 = 5000.0;
/// Open-loop rate of `cold_route`: about a third of its capacity there.
pub const COLD_RATE: f64 = 1200.0;
/// Requests in flight per connection in the capacity phases. With more warm
/// requests in flight, the five busy threads on two vCPUs settle into
/// placements whose throughput differs by up to 2x from run to run.
pub const WARM_IN_FLIGHT: usize = 1;
pub const COLD_IN_FLIGHT: usize = 2;
/// Batch lines in flight per `batch_sweep` connection.
pub const BATCH_IN_FLIGHT: usize = 1;
/// Share of the measured time spent in the open loop; the rest measures
/// capacity. The open loop offers the same load in every run, so it is
/// where `warm_route` and `cold_route` take the fleet's CPU per request:
/// at a higher load the fleet amortizes its wake-ups over more requests,
/// and a closed loop's load follows whatever CPU the host leaves it.
pub const OPEN_SHARE: f64 = 0.75;
/// Fleet starts per run; `setup_s` is their best decile.
pub const SETUP_REPEATS: usize = 25;
/// Untimed `batch_sweep` lead-in that lets the LRU reach steady state.
const BATCH_WARMUP: Duration = Duration::from_secs(1);
/// One in this many `cold_route` answers is recomputed in-process.
const COLD_SAMPLE_EVERY: u64 = 16;
/// Capacity-phase lines generated per `cold_route` connection and second:
/// comfortably above what the fleet can serve, so a run never runs dry.
pub const COLD_LINES_PER_SECOND: f64 = 8000.0;

/// A cheap request outside every workload's key set, used to time set-up.
pub const PROBE: &str = "{\"id\":0,\"kind\":\"analyze\",\"width\":2,\"cell\":\"lpaa1\",\"p\":0.1}";

/// The rendered `result` payload of an answer line.
pub fn payload(answer: &str) -> Option<&str> {
    let at = answer.find(",\"result\":")?;
    answer[at + 10..].strip_suffix('}')
}

/// `"ok":true` with the given `cached` flag, and, when given, exactly this
/// result payload.
pub fn answer_ok(answer: &str, kind: &str, cached: bool, expected: Option<&str>) -> bool {
    let head = format!("\"ok\":true,\"kind\":\"{kind}\",\"cached\":{cached},");
    let Some((_, rest)) = answer.split_once(',') else {
        return false;
    };
    rest.starts_with(&head) && expected.is_none_or(|want| payload(answer) == Some(want))
}

/// Sub-responses of a batch answer: exactly `items`, all ok, with the ids
/// `seq * BATCH_ITEMS + i` in item order.
pub fn batch_ok(answer: &str, seq: u64, items: usize) -> bool {
    let head = format!("{{\"id\":{seq},\"ok\":true,\"kind\":\"batch\",");
    if !answer.starts_with(&head) || !answer.contains(&format!("\"count\":{items},")) {
        return false;
    }
    let Some(at) = answer.find("\"results\":[") else {
        return false;
    };
    let mut rest = &answer[at..];
    for i in 0..items as u64 {
        let needle = format!("{{\"id\":{},\"ok\":true,", seq * BATCH_ITEMS as u64 + i);
        match rest.find(&needle) {
            Some(p) => rest = &rest[p + needle.len()..],
            None => return false,
        }
    }
    !rest.contains("{\"id\":")
}

/// Starts the fleet [`SETUP_REPEATS`] times, keeping the last start running;
/// returns it with each start's set-up time in seconds.
fn timed_starts(
    layout: &Layout,
    probe: &str,
    probe_ok: &dyn Fn(&str) -> bool,
) -> io::Result<(Fleet, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut fleet = None;
    for r in 0..SETUP_REPEATS {
        let (f, answer, t) = layout.start(probe)?;
        if !probe_ok(&answer) {
            return Err(io::Error::other(format!("wrong set-up answer: {answer}")));
        }
        times.push(t.as_secs_f64());
        if r + 1 < SETUP_REPEATS {
            f.stop()?;
        } else {
            fleet = Some(f);
        }
    }
    Ok((fleet.expect("at least one start"), times))
}

/// Sends every warm key once through the router and returns each rendered
/// payload; the daemons then stop and persist their snapshots.
pub fn fill(layout: &Layout, keys: &[Body]) -> io::Result<(Vec<String>, u64)> {
    struct Fill<'a> {
        keys: &'a [Body],
        payloads: Mutex<Vec<Option<String>>>,
    }
    impl LineSource for Fill<'_> {
        fn line(&self, _conn: usize, seq: u64) -> Option<String> {
            self.keys.get(seq as usize).map(|k| k.line(seq))
        }
        fn check(&self, _conn: usize, seq: u64, answer: &str) -> bool {
            let body = &self.keys[seq as usize];
            let ok = answer_ok(answer, body.kind, false, None);
            if ok {
                self.payloads.lock().expect("fill lock")[seq as usize] =
                    payload(answer).map(str::to_owned);
            }
            ok
        }
    }
    let source = Fill {
        keys,
        payloads: Mutex::new(vec![None; keys.len()]),
    };
    let (fleet, _, _) = layout.start(PROBE)?;
    let phase = closed_loop(fleet.router, 1, 32, Duration::from_secs(3600), &source)?;
    fleet.stop()?;
    let payloads = source.payloads.into_inner().expect("fill lock");
    let failed = phase.failed + payloads.iter().filter(|p| p.is_none()).count() as u64;
    Ok((
        payloads
            .into_iter()
            .map(Option::unwrap_or_default)
            .collect(),
        failed,
    ))
}

/// Counter deltas of one phase, read from every process's `stats`.
pub struct Counters {
    router: Json,
    daemons: Vec<Json>,
}

impl Counters {
    pub fn read(fleet: &Fleet) -> io::Result<Counters> {
        Ok(Counters {
            router: fleet.router_stats()?,
            daemons: fleet.daemon_stats()?,
        })
    }

    /// Sum over daemons of `after - before` at `path`.
    pub fn daemon_delta(&self, after: &Counters, path: &[&str]) -> f64 {
        self.daemons
            .iter()
            .zip(&after.daemons)
            .map(|(b, a)| field(a, path) - field(b, path))
            .sum()
    }

    /// Per-backend `forwarded` deltas from the router.
    pub fn forwarded_delta(&self, after: &Counters) -> Vec<f64> {
        let per = |doc: &Json| -> Vec<f64> {
            doc.get("backends")
                .and_then(Json::as_array)
                .map(|b| b.iter().map(|x| field(x, &["forwarded"])).collect())
                .unwrap_or_default()
        };
        per(&after.router)
            .iter()
            .zip(per(&self.router))
            .map(|(a, b)| a - b)
            .collect()
    }

    pub fn io_model(&self) -> String {
        self.daemons
            .first()
            .and_then(|d| d.get("io_model"))
            .and_then(Json::as_str)
            .unwrap_or("unknown")
            .to_owned()
    }
}

/// A measured load phase: its answers and how long it was planned to send.
pub struct Measured {
    pub phase: Phase,
    pub span: Duration,
    /// Sub-requests per answered line.
    pub items: u64,
}

/// The end-to-end metrics every serving workload reports (see
/// [`Figures`]).
fn serving_metrics(
    setups: &[f64],
    latency: &Phase,
    capacity: &Measured,
    cpu_us_per_req: f64,
    rss_mb: f64,
) -> io::Result<(Vec<crate::Metric>, Json)> {
    let span = capacity.span.as_secs_f64();
    let fig = Figures::of(
        &latency.latencies_us,
        &latency.at_s,
        &capacity.phase.at_s,
        span,
        capacity.items as f64,
    )
    .map_err(io::Error::other)?;
    let metrics = crate::metric_list(&[
        ("setup_s", quantile(setups, LATENCY_ACROSS), "s"),
        ("cpu_us_per_req", cpu_us_per_req, "us"),
        ("rss_mb", rss_mb, "MiB"),
    ]);
    let mut report = fig
        .report()
        .field("capacity_rps", fig.rate)
        .field("capacity_items", capacity.phase.completed_items)
        .field(
            "capacity_whole_phase_rps",
            capacity.phase.completed_items as f64 / span,
        )
        .field("setup_median_s", median(setups))
        .field("setup_starts", setups.len());
    if let Some(late) = Summary::of(&latency.late_us) {
        let max = latency.late_us.iter().copied().fold(0.0, f64::max);
        report = report
            .field("gen.late_p99_us", late.p99)
            .field("gen.late_max_us", max)
            .field("gen.samples", late.count);
    }
    Ok((metrics, report.build()))
}

/// Runs one load phase and returns it with the fleet's CPU time (user +
/// system, every process) per request it answered, in µs; sub-requests
/// count for batches.
fn with_cpu(fleet: &Fleet, run: impl FnOnce() -> io::Result<Phase>) -> io::Result<(Phase, f64)> {
    let before = fleet.cpu_s()?;
    let phase = run()?;
    let used = fleet.cpu_s()? - before;
    if phase.completed_items == 0 {
        return Err(io::Error::other("no request was answered"));
    }
    let per_request = used * 1e6 / phase.completed_items as f64;
    Ok((phase, per_request))
}

/// Stops the fleet and builds the outcome.
fn finish(
    fleet: Fleet,
    setups: &[f64],
    latency: Phase,
    capacity: Measured,
    cpu_us_per_req: f64,
    extra_failed: u64,
    before: &Counters,
) -> io::Result<Outcome> {
    let rss_mb = fleet.rss_mb()?;
    let io_model = before.io_model();
    fleet.stop()?;
    let (metrics, report) = serving_metrics(setups, &latency, &capacity, cpu_us_per_req, rss_mb)?;
    let capacity = capacity.phase;
    let attempted = latency.attempted + capacity.attempted;
    let failed = latency.failed + capacity.failed + extra_failed;
    let mut report = match report {
        Json::Object(fields) => fields,
        _ => unreachable!("serving_metrics builds an object"),
    };
    report.push(("io_model".to_owned(), Json::from(io_model)));
    report.push((
        "mean_response_bytes".to_owned(),
        Json::from(
            (latency.response_bytes + capacity.response_bytes) as f64
                / (latency.latencies_us.len() + capacity.latencies_us.len()).max(1) as f64,
        ),
    ));
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        report: Json::Object(report),
    })
}

/// `warm_route`'s closed-loop source: each connection cycles its own
/// Zipf-popular key sequence; every answer must be a hit with the filled
/// payload.
pub struct WarmSource<'a> {
    pub warm: &'a Warm,
    pub payloads: &'a [String],
}

impl LineSource for WarmSource<'_> {
    fn line(&self, conn: usize, seq: u64) -> Option<String> {
        let keys = &self.warm.closed_keys[conn];
        Some(self.warm.keys[keys[seq as usize % keys.len()]].line(seq))
    }
    fn check(&self, conn: usize, seq: u64, answer: &str) -> bool {
        let keys = &self.warm.closed_keys[conn];
        let k = keys[seq as usize % keys.len()];
        answer_ok(
            answer,
            self.warm.keys[k].kind,
            true,
            Some(&self.payloads[k]),
        )
    }
}

pub fn warm_route(ctx: &Ctx) -> io::Result<Outcome> {
    let open_s = ctx.seconds * OPEN_SHARE;
    let conns = ctx.threads;
    let warm = Warm::new(ctx.seed, WARM_RATE, open_s, conns);
    let layout = Layout::new(&ctx.bin, ctx.work.path(), WARM_CACHE_ENTRIES, true)?;
    let (payloads, fill_failed) = fill(&layout, &warm.keys)?;
    let probe = warm.keys[0].line(0);
    let probe_ok = |a: &str| answer_ok(a, warm.keys[0].kind, true, Some(&payloads[0]));
    let (fleet, setups) = timed_starts(&layout, &probe, &probe_ok)?;
    let before = Counters::read(&fleet)?;

    let lines: Vec<String> = warm
        .open_keys
        .iter()
        .enumerate()
        .map(|(i, &k)| warm.keys[k].line(i as u64) + "\n")
        .collect();
    let check = |id: u64, a: &str| {
        let k = warm.open_keys[id as usize];
        answer_ok(a, warm.keys[k].kind, true, Some(&payloads[k]))
    };
    let (latency, cpu_us_per_req) = with_cpu(&fleet, || {
        open_loop(fleet.router, &lines, &warm.open_schedule, &check, &|_| {
            false
        })
    })?;

    let span = Duration::from_secs_f64(ctx.seconds - open_s);
    let capacity = closed_loop(
        fleet.router,
        conns,
        WARM_IN_FLIGHT,
        span,
        &WarmSource {
            warm: &warm,
            payloads: &payloads,
        },
    )?;
    let capacity = Measured {
        phase: capacity,
        span,
        items: 1,
    };
    finish(
        fleet,
        &setups,
        latency,
        capacity,
        cpu_us_per_req,
        fill_failed,
        &before,
    )
}

pub fn cold_route(ctx: &Ctx) -> io::Result<Outcome> {
    let open_s = ctx.seconds * OPEN_SHARE;
    let conns = ctx.threads;
    let per_conn = (COLD_LINES_PER_SECOND * (ctx.seconds - open_s) / conns as f64) as usize;
    let cold = Cold::new(ctx.seed, COLD_RATE, open_s, conns, per_conn);
    let layout = Layout::new(&ctx.bin, ctx.work.path(), COLD_CACHE_ENTRIES, false)?;
    let probe_ok = |a: &str| answer_ok(a, "analyze", false, None);
    let (fleet, setups) = timed_starts(&layout, PROBE, &probe_ok)?;
    let before = Counters::read(&fleet)?;

    let lines: Vec<String> = cold
        .open
        .iter()
        .enumerate()
        .map(|(i, b)| b.line(i as u64) + "\n")
        .collect();
    let check = |id: u64, a: &str| answer_ok(a, cold.open[id as usize].kind, false, None);
    let sampled = |id: u64| id % COLD_SAMPLE_EVERY == ctx.seed % COLD_SAMPLE_EVERY;
    let (latency, cpu_us_per_req) = with_cpu(&fleet, || {
        open_loop(fleet.router, &lines, &cold.open_schedule, &check, &sampled)
    })?;

    struct Closed<'a>(&'a Cold);
    impl LineSource for Closed<'_> {
        fn line(&self, conn: usize, seq: u64) -> Option<String> {
            self.0.closed[conn].get(seq as usize).map(|b| b.line(seq))
        }
        fn check(&self, conn: usize, seq: u64, answer: &str) -> bool {
            answer_ok(answer, self.0.closed[conn][seq as usize].kind, false, None)
        }
    }
    let span = Duration::from_secs_f64(ctx.seconds - open_s);
    let capacity = closed_loop(fleet.router, conns, COLD_IN_FLIGHT, span, &Closed(&cold))?;
    let capacity = Measured {
        phase: capacity,
        span,
        items: 1,
    };
    // The seeded sample must match an in-process recompute.
    let mut wrong = 0u64;
    for (id, answer) in &latency.kept {
        let line = cold.open[*id as usize].line(*id);
        let body = Request::parse(&line).map_err(io::Error::other)?.body;
        let result = Json::parse(answer)
            .ok()
            .and_then(|d| d.get("result").cloned());
        let agrees = match (engines::compute(&body), result) {
            (Ok(expected), Some(result)) => engines::matches(&result, &expected),
            _ => false,
        };
        if !agrees {
            eprintln!("perfbench: cold answer disagrees with recompute: {line} -> {answer}");
            wrong += 1;
        }
    }
    let mut out = finish(
        fleet,
        &setups,
        latency,
        capacity,
        cpu_us_per_req,
        wrong,
        &before,
    )?;
    if let Json::Object(fields) = &mut out.report {
        fields.push((
            "recomputed".to_owned(),
            Json::from(cold.open.len() as u64 / COLD_SAMPLE_EVERY),
        ));
    }
    Ok(out)
}

/// `batch_sweep`'s closed-loop source: cycled batch compositions per
/// connection with fresh ids.
pub struct BatchSource<'a>(pub &'a Batch);

impl LineSource for BatchSource<'_> {
    fn line(&self, conn: usize, seq: u64) -> Option<String> {
        let batches = &self.0.batches[conn];
        Some(self.0.line(&batches[seq as usize % BATCH_SEQUENCE], seq))
    }
    fn check(&self, _conn: usize, seq: u64, answer: &str) -> bool {
        batch_ok(answer, seq, BATCH_ITEMS)
    }
    fn items(&self) -> u64 {
        BATCH_ITEMS as u64
    }
}

pub fn batch_sweep(ctx: &Ctx) -> io::Result<Outcome> {
    let conns = ctx.threads;
    let batch = Batch::new(ctx.seed, conns);
    let layout = Layout::new(&ctx.bin, ctx.work.path(), BATCH_CACHE_ENTRIES, false)?;
    let probe_ok = |a: &str| answer_ok(a, "analyze", false, None);
    let (fleet, setups) = timed_starts(&layout, PROBE, &probe_ok)?;
    let source = BatchSource(&batch);
    let warmup = closed_loop(fleet.router, conns, BATCH_IN_FLIGHT, BATCH_WARMUP, &source)?;
    let before = Counters::read(&fleet)?;
    let span = Duration::from_secs_f64(ctx.seconds);
    let (run, cpu_us_per_req) = with_cpu(&fleet, || {
        closed_loop(fleet.router, conns, BATCH_IN_FLIGHT, span, &source)
    })?;
    // One closed loop gives both latency (per batch line) and capacity
    // (sub-requests per second).
    let capacity = Measured {
        phase: Phase {
            completed_items: run.completed_items,
            elapsed: run.elapsed,
            at_s: run.at_s.clone(),
            ..Phase::default()
        },
        span,
        items: BATCH_ITEMS as u64,
    };
    let mut out = finish(
        fleet,
        &setups,
        run,
        capacity,
        cpu_us_per_req,
        warmup.failed,
        &before,
    )?;
    out.attempted += warmup.attempted;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn answer_checks_read_the_rendered_envelope() {
        let hit = "{\"id\":3,\"ok\":true,\"kind\":\"gear\",\"cached\":true,\"micros\":5,\"result\":{\"n\":8}}";
        assert!(answer_ok(hit, "gear", true, Some("{\"n\":8}")));
        assert!(!answer_ok(hit, "gear", true, Some("{\"n\":9}")));
        assert!(!answer_ok(hit, "gear", false, None));
        assert!(!answer_ok(hit, "analyze", true, None));
        assert_eq!(payload(hit), Some("{\"n\":8}"));
        let err = "{\"id\":3,\"ok\":false,\"error\":\"x\"}";
        assert!(!answer_ok(err, "gear", false, None));
    }

    #[test]
    fn batch_check_wants_every_item_in_order() {
        let sub = |id: u64| {
            format!(
                "{{\"id\":{id},\"ok\":true,\"kind\":\"gear\",\"cached\":false,\"result\":{{}}}}"
            )
        };
        let answer = |ids: &[u64]| {
            format!(
                "{{\"id\":1,\"ok\":true,\"kind\":\"batch\",\"cached\":false,\"micros\":9,\"result\":{{\"count\":{},\"computed\":1,\"results\":[{}]}}}}",
                ids.len(),
                ids.iter().map(|&i| sub(i)).collect::<Vec<_>>().join(",")
            )
        };
        let base = BATCH_ITEMS as u64;
        assert!(batch_ok(&answer(&[base, base + 1, base + 2]), 1, 3));
        assert!(!batch_ok(&answer(&[base, base + 2, base + 1]), 1, 3));
        assert!(!batch_ok(&answer(&[base, base + 1]), 1, 3));
        assert!(!batch_ok(&answer(&[base, base + 1, base + 2]), 2, 3));
    }
}
