//! `perfbench`: one benchmark for the whole sealpaa stack — requests through
//! `sealpaa route` to two daemons and their engines, offline solves, and a
//! traced per-layer budget.
//!
//! ```text
//! perfbench --sealpaa PATH --workload NAME --seed N --seconds S --trace 0|1
//!           [--threads T]
//! ```
//!
//! `bash perfbench/run.sh ...` builds both binaries and supplies `--sealpaa`.
//! `--threads` (default `available_parallelism`, refused above it) sets the
//! closed-loop connections and the threads of each offline solve.
//! With `--trace 0` the last stdout line carries the end-to-end metrics of
//! the workload; with `--trace 1` it carries the per-layer table (see
//! `perfbench/README.md`). The line before it is a report with the host
//! block and per-run details.

mod engines;
mod fleet;
mod gen;
mod load;
mod offline;
mod rng;
mod serving;
mod stats;
mod traced;

use std::path::PathBuf;

use sealpaa_server::json::Json;

pub const WORKLOADS: [&str; 4] = ["warm_route", "cold_route", "batch_sweep", "offline_solve"];

/// Generator threads of the open loop: one sender, one receiver.
const OPEN_LOOP_THREADS: usize = 2;

/// One run's settings.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// The `sealpaa` binary.
    pub bin: PathBuf,
    pub work: fleet::WorkDir,
    /// Closed-loop load connections (one thread each) and the threads of
    /// each offline solve.
    pub threads: usize,
}

/// One reported metric: name, value, unit.
pub type Metric = (String, f64, &'static str);

/// Metrics from static names.
pub fn metric_list(items: &[(&str, f64, &'static str)]) -> Vec<Metric> {
    items
        .iter()
        .map(|&(name, value, unit)| (name.to_owned(), value, unit))
        .collect()
}

/// What one run measured.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// In report order.
    pub metrics: Vec<Metric>,
    /// Per-run details printed before the result line.
    pub report: Json,
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    bin: PathBuf,
    threads: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let tokens: Vec<String> = std::env::args().skip(1).collect();
    let get = |name: &str| -> Result<&str, String> {
        let at = tokens
            .iter()
            .position(|t| t == name)
            .ok_or_else(|| format!("missing {name}"))?;
        tokens
            .get(at + 1)
            .map(String::as_str)
            .ok_or_else(|| format!("{name} needs a value"))
    };
    let number = |name: &str| -> Result<u64, String> {
        get(name)?
            .parse()
            .map_err(|_| format!("{name} must be a non-negative integer"))
    };
    let workload = get("--workload")?.to_owned();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected one of {WORKLOADS:?})"
        ));
    }
    let seconds = number("--seconds")?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_owned());
    }
    let trace = match get("--trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let threads = if tokens.iter().any(|t| t == "--threads") {
        Some(number("--threads")? as usize)
    } else {
        None
    };
    Ok(Args {
        workload,
        seed: number("--seed")?,
        seconds,
        trace,
        bin: PathBuf::from(get("--sealpaa")?),
        threads,
    })
}

/// Refuses to run `requested` threads of one kind on fewer CPUs.
pub fn check_threads(requested: usize, available: usize, what: &str) -> Result<(), String> {
    if requested == 0 {
        return Err(format!("{what} needs at least one thread"));
    }
    if requested > available {
        return Err(format!(
            "{what} needs {requested} threads but available_parallelism is {available}"
        ));
    }
    Ok(())
}

fn env_or_unknown(name: &str) -> Json {
    Json::from(std::env::var(name).unwrap_or_else(|_| "unknown".to_owned()))
}

/// Time stolen from this VM's CPUs by the host so far (`steal` of
/// `/proc/stat`, in clock ticks), when the kernel reports it.
fn steal_ticks() -> Option<u64> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    stat.lines().next()?.split_whitespace().nth(8)?.parse().ok()
}

fn host_block(seed: u64, parallelism: usize, threads: usize, steal_s: Option<f64>) -> Json {
    Json::object()
        .field("logical_cpus", env_or_unknown("PERFBENCH_CPUS"))
        .field("available_parallelism", parallelism)
        .field("threads", threads)
        .field("simd_backend", sealpaa_sim::Backend::active().name())
        .field(
            "simd_override",
            std::env::var("SEALPAA_SIMD").map_or(Json::Null, Json::from),
        )
        .field(
            "io_model",
            sealpaa_server::server::IoModel::default().name(),
        )
        .field("rustc", env_or_unknown("PERFBENCH_RUSTC"))
        .field("git_rev", env_or_unknown("PERFBENCH_GIT_REV"))
        .field("seed", seed)
        .field("steal_s_during_run", steal_s.map_or(Json::Null, Json::from))
        .build()
}

fn run() -> Result<(), String> {
    let args = parse_args()?;
    let parallelism = std::thread::available_parallelism().map_or(1, usize::from);
    check_threads(gen::DAEMONS, parallelism, "the daemons' workers")?;
    check_threads(OPEN_LOOP_THREADS, parallelism, "the open-loop generator")?;
    let threads = args.threads.unwrap_or(parallelism);
    check_threads(threads, parallelism, "--threads")?;
    if !args.bin.is_file() {
        return Err(format!("no sealpaa binary at {}", args.bin.display()));
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds as f64,
        bin: args.bin,
        work: fleet::WorkDir::create().map_err(|e| e.to_string())?,
        threads,
    };
    let steal_before = steal_ticks();
    let outcome = if args.trace {
        traced::run(&ctx, &args.workload)
    } else {
        match args.workload.as_str() {
            "warm_route" => serving::warm_route(&ctx),
            "cold_route" => serving::cold_route(&ctx),
            "batch_sweep" => serving::batch_sweep(&ctx),
            _ => offline::run(&ctx),
        }
    }
    .map_err(|e| e.to_string())?;

    let mut metrics = Vec::with_capacity(outcome.metrics.len());
    for (name, value, unit) in &outcome.metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        let entry = Json::object()
            .field("value", *value)
            .field("unit", *unit)
            .build();
        metrics.push((name.clone(), entry));
    }
    let report = Json::object()
        .field("workload", args.workload.as_str())
        .field("trace", args.trace)
        .field("seconds", args.seconds)
        .field(
            "host",
            host_block(
                args.seed,
                parallelism,
                threads,
                steal_before
                    .zip(steal_ticks())
                    .map(|(b, a)| a.saturating_sub(b) as f64 / fleet::USER_HZ),
            ),
        )
        .field(
            "failed_frac",
            outcome.failed as f64 / outcome.attempted.max(1) as f64,
        )
        .field("details", outcome.report)
        .build();
    println!(
        "{}",
        Json::object().field("report", report).build().render()
    );
    let result = Json::object()
        .field("correct", outcome.failed == 0 && outcome.attempted > 0)
        .field("attempted", outcome.attempted.max(1))
        .field("failed", outcome.failed)
        .field("metrics", Json::Object(metrics))
        .build();
    println!("{}", result.render());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn refuses_more_threads_than_cpus() {
        assert!(check_threads(2, 2, "x").is_ok());
        assert!(check_threads(1, 2, "x").is_ok());
        assert!(check_threads(3, 2, "x").is_err());
        assert!(check_threads(0, 2, "x").is_err());
    }
}
