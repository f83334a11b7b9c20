//! `offline_solve`: the solver entry points the server cannot reach, called
//! directly at the run's thread count (`available_parallelism` by
//! default). The problem shapes are those of the kernel benches
//! (`dse/best_w8_c8`, `dse/w40`, `optimize/gauss3x3_w8`,
//! `replay/hybrid4_w16`, Monte-Carlo): scaled down for the untraced run, a
//! closed loop of many solves, and up to about a second each for the traced
//! run.

use std::io::{self, BufReader};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sealpaa_cells::{AdderChain, Cell, CellCharacteristics, InputProfile, StandardCell};
use sealpaa_datapath::{Datapath, NodeKind, Signal};
use sealpaa_explore::{
    accurate_cell_with_proxy_costs, best_block_design, best_datapath_assignment,
    exhaustive_best_with, BlockBudget, BlockObjective, BlockSearchSpace, Budget,
};
use sealpaa_sim::MonteCarloConfig;
use sealpaa_trace::{read_binary, replay, replay_scalar, write_binary, ReplayReport, SynthKind};

use crate::rng::Rng;
use crate::stats::{median, quantile, Figures, Summary, LATENCY_ACROSS};
use crate::{Ctx, Outcome};

/// Set-ups per run; `setup_s` is their best decile.
const SETUP_REPEATS: usize = 101;
/// Quantile of each job's wall times that `cpu_us_per_req` charges. A solve
/// holds every thread's core, so the host taking either one stretches it;
/// with thousands of solves per job, its best percentile ran untouched.
/// The best decile still rose by a quarter in minutes of heavy steal.
const SOLVE_QUANTILE: f64 = 0.01;
/// Width of the replayed trace (`replay/hybrid4_w16`).
const REPLAY_WIDTH: usize = 16;
/// Low operand bits with entropy in the block DSE (`dse/w40`).
const BLOCKS_LIVE_BITS: usize = 12;
/// Records in the seeded replay cross-check against `replay_scalar`.
const REPLAY_SAMPLE: usize = 4096;
/// Power of the accurate cell (`accurate_cell_with_proxy_costs`), nW.
const ACCURATE_POWER_NW: f64 = 1080.0;
/// Hybrid and datapath budgets: this share of the all-accurate power, so
/// each search has to trade error for power.
const POWER_SHARE: f64 = 0.5;

/// The five offline jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Job {
    HybridDse,
    BlocksDse,
    DatapathDse,
    Replay,
    MonteCarlo,
}

pub const JOBS: [Job; 5] = [
    Job::HybridDse,
    Job::BlocksDse,
    Job::DatapathDse,
    Job::Replay,
    Job::MonteCarlo,
];

impl Job {
    pub fn name(self) -> &'static str {
        match self {
            Job::HybridDse => "hybrid_dse",
            Job::BlocksDse => "blocks_dse",
            Job::DatapathDse => "datapath_dse",
            Job::Replay => "replay",
            Job::MonteCarlo => "monte_carlo",
        }
    }

    /// The span of the job's public entry point in the traced run.
    pub fn span(self) -> &'static str {
        match self {
            Job::HybridDse => "explore.exhaustive_best_with",
            Job::BlocksDse => "explore.best_block_design",
            Job::DatapathDse => "explore.best_datapath_assignment",
            Job::Replay => "trace.read_binary_replay",
            Job::MonteCarlo => "sim.monte_carlo",
        }
    }

    /// Suffix of the job's `explore.t2_speedup.*` metric (DSE jobs).
    pub fn speedup_label(self) -> &'static str {
        match self {
            Job::HybridDse => "hybrid",
            Job::BlocksDse => "blocks",
            _ => "datapath",
        }
    }

    /// The layer whose public entry point the job calls.
    pub fn layer(self) -> &'static str {
        match self {
            Job::HybridDse | Job::BlocksDse | Job::DatapathDse => "explore",
            Job::Replay => "trace",
            Job::MonteCarlo => "sim",
        }
    }
}

/// Problem sizes of one flavour of the job set.
#[derive(Debug, Clone, Copy)]
pub struct Shapes {
    /// `exhaustive_best_with` over all eight cells at this width.
    pub hybrid_width: usize,
    /// `best_block_design` width.
    pub blocks_width: usize,
    /// Candidate cells of the datapath assignment over the 3x3 Gaussian
    /// kernel with 8-bit pixels.
    pub datapath_candidates: usize,
    /// Records in the replayed binary trace.
    pub replay_records: usize,
    /// Read-and-replay passes per replay job.
    pub replay_passes: usize,
    /// Monte-Carlo samples per job.
    pub mc_samples: u64,
    /// The winning designs of the three DSE jobs at these sizes: the drivers
    /// are deterministic and thread-count invariant, so any other answer is
    /// wrong.
    pub pinned: [&'static str; 3],
}

/// Many small solves: the untraced closed loop.
pub const SMALL: Shapes = Shapes {
    hybrid_width: 5,
    blocks_width: 16,
    datapath_candidates: 2,
    replay_records: 1 << 16,
    replay_passes: 1,
    mc_samples: 1 << 20,
    pinned: [
        "5-bit chain [AccuFA (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.)]",
        "blocks(N=16)[3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:1:AccuFA (est.), 4:1:AccuFA (est.), 3:0:AccuFA (est.)]",
        "LPAA 2,LPAA 2,LPAA 2,LPAA 2,LPAA 2,LPAA 2,AccuFA (est.),AccuFA (est.)",
    ],
};

/// About a second per job on the reference host: the traced run.
pub const FULL: Shapes = Shapes {
    hybrid_width: 8,
    blocks_width: 38,
    datapath_candidates: 5,
    replay_records: 1 << 20,
    replay_passes: 10,
    mc_samples: 1 << 30,
    pinned: [
        "8-bit chain [AccuFA (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.), LPAA 7 (est.)]",
        "blocks(N=38)[3:0:AccuFA (est.), 3:1:AccuFA (est.), 3:1:AccuFA (est.), 4:1:AccuFA (est.), 4:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.), 3:0:AccuFA (est.)]",
        "LPAA 5,LPAA 3,LPAA 3,LPAA 3,LPAA 5,AccuFA (est.),AccuFA (est.),AccuFA (est.)",
    ],
};

/// Everything a job needs, built before the first job starts.
pub struct Problems {
    shapes: Shapes,
    hybrid_candidates: Vec<Cell>,
    hybrid_profile: InputProfile<f64>,
    hybrid_budget: Budget,
    block_space: BlockSearchSpace,
    block_profile: InputProfile<f64>,
    block_budget: BlockBudget,
    datapath: Datapath,
    datapath_output: Signal,
    datapath_inputs: Vec<(String, Vec<f64>)>,
    datapath_candidates: Vec<Cell>,
    datapath_budget: Budget,
    trace_path: PathBuf,
    replay_chain: AdderChain,
    mc_chain: AdderChain,
    mc_profile: InputProfile<f64>,
    mc_seed: u64,
}

/// All eight cells with costs: Table 2 for LPAA 1-5, the proxy estimate
/// for the accurate cell, and the kernel benches' estimates for LPAA 6/7.
fn all_eight_cells() -> Vec<Cell> {
    let mut cells = vec![accurate_cell_with_proxy_costs()];
    cells.extend(
        [
            StandardCell::Lpaa1,
            StandardCell::Lpaa2,
            StandardCell::Lpaa3,
            StandardCell::Lpaa4,
            StandardCell::Lpaa5,
        ]
        .map(StandardCell::cell),
    );
    for (name, cell, power, area) in [
        ("LPAA 6 (est.)", StandardCell::Lpaa6, 500.0, 3.0),
        ("LPAA 7 (est.)", StandardCell::Lpaa7, 400.0, 2.5),
    ] {
        cells.push(Cell::custom_with_characteristics(
            name,
            cell.truth_table(),
            CellCharacteristics::new(power, area),
        ));
    }
    cells
}

impl Problems {
    /// Builds every problem and writes the seeded replay trace to `dir`.
    pub fn build(shapes: Shapes, seed: u64, dir: &Path) -> io::Result<Problems> {
        let invalid = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
        let hybrid_profile = InputProfile::constant(shapes.hybrid_width, 0.3);
        let block_space =
            BlockSearchSpace::new(&[3, 4], &[0, 1], &[accurate_cell_with_proxy_costs()])
                .map_err(|e| invalid(&e))?;
        let live: Vec<f64> = (0..shapes.blocks_width)
            .map(|i| if i < BLOCKS_LIVE_BITS { 0.5 } else { 0.0 })
            .collect();
        let block_profile = InputProfile::new(live.clone(), live, 0.0).map_err(|e| invalid(&e))?;
        let kernel = vec![vec![1, 2, 1], vec![2, 4, 2], vec![1, 2, 1]];
        let topo = sealpaa_propagate::topologies::conv2d(&StandardCell::Lpaa5.cell(), &kernel, 8)
            .map_err(|e| invalid(&e))?;
        let datapath_inputs = topo
            .inputs
            .iter()
            .map(|name| {
                let width = topo
                    .datapath
                    .signals()
                    .find(|&s| matches!(topo.datapath.kind(s), NodeKind::Input { name: n } if n == name))
                    .map_or(1, |s| topo.datapath.width(s));
                (name.clone(), vec![0.5; width])
            })
            .collect();
        let datapath_candidates = [
            accurate_cell_with_proxy_costs(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa3.cell(),
        ][..shapes.datapath_candidates]
            .to_vec();
        let adder_bits: usize = topo
            .datapath
            .signals()
            .filter_map(|s| match topo.datapath.kind(s) {
                NodeKind::Add { chain, .. } => Some(chain.width()),
                _ => None,
            })
            .sum();
        let power_cap = |bits: usize| Budget {
            max_power_nw: Some(POWER_SHARE * ACCURATE_POWER_NW * bits as f64),
            max_area_ge: None,
        };
        let records = sealpaa_trace::generate(
            SynthKind::Uniform,
            REPLAY_WIDTH,
            shapes.replay_records,
            Rng::derive(seed, 10).next_u64(),
        )
        .map_err(|e| invalid(&e))?;
        let trace_path = dir.join("replay.trace");
        let file = std::fs::File::create(&trace_path)?;
        let mut out = io::BufWriter::new(file);
        write_binary(&mut out, REPLAY_WIDTH, &records).map_err(|e| invalid(&e))?;
        io::Write::flush(&mut out)?;
        let lpaa2 = StandardCell::Lpaa2.cell();
        let accurate = StandardCell::Accurate.cell();
        Ok(Problems {
            shapes,
            hybrid_candidates: all_eight_cells(),
            hybrid_profile,
            hybrid_budget: power_cap(shapes.hybrid_width),
            block_space,
            block_profile,
            // Room for one prediction bit per eight sum bits.
            block_budget: BlockBudget {
                max_power_nw: Some(
                    ACCURATE_POWER_NW * (shapes.blocks_width + shapes.blocks_width / 8) as f64,
                ),
                ..BlockBudget::default()
            },
            datapath: topo.datapath,
            datapath_output: topo.output,
            datapath_inputs,
            datapath_candidates,
            datapath_budget: power_cap(adder_bits),
            trace_path,
            replay_chain: AdderChain::lsb_approximate(lpaa2.clone(), accurate, 4, REPLAY_WIDTH),
            mc_chain: AdderChain::uniform(lpaa2, REPLAY_WIDTH),
            mc_profile: InputProfile::constant(REPLAY_WIDTH, 0.5),
            mc_seed: Rng::derive(seed, 11).next_u64(),
        })
    }
}

/// What a job produced, for its answer check and the traced split.
pub enum JobResult {
    /// The winning design, rendered.
    Winner(String),
    /// The replay report of the last pass, and its decode and replay time.
    Replay {
        report: ReplayReport,
        decode: Duration,
        replay: Duration,
    },
    /// Error samples out of `samples`, with the run's standard error.
    MonteCarlo {
        error_probability: f64,
        standard_error: f64,
        samples: u64,
    },
}

fn decode(path: &Path) -> io::Result<Vec<sealpaa_trace::TraceRecord>> {
    let file = BufReader::with_capacity(1 << 16, std::fs::File::open(path)?);
    let (_, records) = read_binary(file).map_err(|e| io::Error::other(e.to_string()))?;
    Ok(records)
}

/// Runs one job on `threads` threads.
pub fn run_job(job: Job, p: &Problems, threads: usize) -> io::Result<JobResult> {
    let invalid = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
    let none = || io::Error::other("no design fits the budget");
    Ok(match job {
        Job::HybridDse => {
            let best = exhaustive_best_with(
                &p.hybrid_candidates,
                &p.hybrid_profile,
                &p.hybrid_budget,
                threads,
            )
            .map_err(|e| invalid(&e))?
            .ok_or_else(none)?;
            JobResult::Winner(best.chain.to_string())
        }
        Job::BlocksDse => {
            let best = best_block_design(
                &p.block_space,
                &p.block_profile,
                &p.block_budget,
                BlockObjective::MeanAbsolute,
                threads,
            )
            .map_err(|e| invalid(&e))?
            .ok_or_else(none)?;
            JobResult::Winner(best.config.to_string())
        }
        Job::DatapathDse => {
            let inputs: Vec<(&str, Vec<f64>)> = p
                .datapath_inputs
                .iter()
                .map(|(n, bits)| (n.as_str(), bits.clone()))
                .collect();
            let best = best_datapath_assignment(
                &p.datapath,
                p.datapath_output,
                &inputs,
                &p.datapath_candidates,
                &p.datapath_budget,
                threads,
            )
            .map_err(|e| invalid(&e))?
            .ok_or_else(none)?;
            let cells: Vec<&str> = best.cells.iter().map(Cell::name).collect();
            JobResult::Winner(cells.join(","))
        }
        Job::Replay => {
            let (mut decode_t, mut replay_t) = (Duration::ZERO, Duration::ZERO);
            let mut last = None;
            for _ in 0..p.shapes.replay_passes {
                let t0 = Instant::now();
                let records = decode(&p.trace_path)?;
                let t1 = Instant::now();
                let report = replay(&p.replay_chain, &records, threads).map_err(|e| invalid(&e))?;
                replay_t += t1.elapsed();
                decode_t += t1 - t0;
                last = Some(report);
            }
            JobResult::Replay {
                report: last.expect("at least one pass"),
                decode: decode_t,
                replay: replay_t,
            }
        }
        Job::MonteCarlo => {
            let config = MonteCarloConfig {
                samples: p.shapes.mc_samples,
                seed: p.mc_seed,
                threads,
                backend: None,
            };
            let r = sealpaa_sim::monte_carlo(&p.mc_chain, &p.mc_profile, config)
                .map_err(|e| invalid(&e))?;
            JobResult::MonteCarlo {
                error_probability: r.error_probability(),
                standard_error: r.standard_error,
                samples: r.samples,
            }
        }
    })
}

/// The pinned winner of a DSE job.
fn pinned_winner(job: Job, shapes: &Shapes) -> Option<&'static str> {
    match job {
        Job::HybridDse => Some(shapes.pinned[0]),
        Job::BlocksDse => Some(shapes.pinned[1]),
        Job::DatapathDse => Some(shapes.pinned[2]),
        Job::Replay | Job::MonteCarlo => None,
    }
}

/// Checks one job's answer. Replay reports must equal the first one seen
/// (`reference`); Monte-Carlo must lie within six standard errors of the
/// analytical error probability.
pub struct Checker {
    analytical_mc: f64,
    reference_replay: Option<ReplayReport>,
}

impl Checker {
    /// Also cross-checks `replay` against `replay_scalar` on a seeded
    /// window of the trace.
    pub fn new(p: &Problems, seed: u64, threads: usize) -> io::Result<Checker> {
        let invalid = |e: &dyn std::fmt::Display| io::Error::other(e.to_string());
        let records = decode(&p.trace_path)?;
        let len = REPLAY_SAMPLE.min(records.len());
        let start = Rng::derive(seed, 12).range(0, records.len() - len);
        let window = &records[start..start + len];
        let fast = replay(&p.replay_chain, window, threads).map_err(|e| invalid(&e))?;
        let scalar = replay_scalar(&p.replay_chain, window).map_err(|e| invalid(&e))?;
        if fast != scalar {
            return Err(io::Error::other("replay disagrees with replay_scalar"));
        }
        let analytical_mc = sealpaa_core::analyze(&p.mc_chain, &p.mc_profile)
            .map_err(|e| invalid(&e))?
            .error_probability();
        Ok(Checker {
            analytical_mc,
            reference_replay: None,
        })
    }

    pub fn check(&mut self, job: Job, shapes: &Shapes, result: &JobResult) -> bool {
        match result {
            JobResult::Winner(w) => {
                let ok = pinned_winner(job, shapes) == Some(w.as_str());
                if !ok {
                    eprintln!(
                        "perfbench: {} winner {w:?} differs from the pinned design",
                        job.name()
                    );
                }
                ok
            }
            JobResult::Replay { report, .. } => match &self.reference_replay {
                Some(r) => r == report,
                None => {
                    self.reference_replay = Some(*report);
                    report.records > 0
                }
            },
            JobResult::MonteCarlo {
                error_probability,
                standard_error,
                samples,
            } => {
                *samples == shapes.mc_samples
                    && (error_probability - self.analytical_mc).abs()
                        <= 6.0 * standard_error.max(1e-9)
            }
        }
    }
}

/// Set-up: builds the problems [`SETUP_REPEATS`] times; returns the last
/// build and each build's time until the first job could start.
pub fn timed_setup(shapes: Shapes, seed: u64, dir: &Path) -> io::Result<(Problems, Vec<f64>)> {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut problems = None;
    for _ in 0..SETUP_REPEATS {
        let t0 = Instant::now();
        problems = Some(Problems::build(shapes, seed, dir)?);
        times.push(t0.elapsed().as_secs_f64());
    }
    Ok((problems.expect("at least one build"), times))
}

/// CPU time this process has used so far, in seconds.
fn own_cpu_s() -> io::Result<f64> {
    crate::fleet::cpu_s("/proc/self/stat")
}

/// Peak resident set of this process, in MiB.
pub fn own_rss_mb() -> io::Result<f64> {
    Ok(crate::fleet::vm_hwm_kib("/proc/self/status")? as f64 / 1024.0)
}

/// The untraced `offline_solve` run: a closed loop of small solves in
/// seeded order (each round runs every job once), for `--seconds`.
pub fn run(ctx: &Ctx) -> io::Result<Outcome> {
    let threads = ctx.threads;
    let (problems, setups) = timed_setup(SMALL, ctx.seed, ctx.work.path())?;
    let mut checker = Checker::new(&problems, ctx.seed, threads)?;
    let mut rng = Rng::derive(ctx.seed, 13);
    let mut latencies = Vec::new();
    let mut at = Vec::new();
    let mut per_job: Vec<Vec<f64>> = vec![Vec::new(); JOBS.len()];
    let (mut attempted, mut failed) = (0u64, 0u64);
    let cpu_before = own_cpu_s()?;
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(ctx.seconds);
    while Instant::now() < deadline {
        let mut order = JOBS;
        rng.shuffle(&mut order);
        for job in order {
            attempted += 1;
            let t0 = Instant::now();
            let result = run_job(job, &problems, threads);
            let us = t0.elapsed().as_secs_f64() * 1e6;
            match result {
                Ok(r) if checker.check(job, &SMALL, &r) => {
                    latencies.push(us);
                    at.push(start.elapsed().as_secs_f64());
                    per_job[JOBS.iter().position(|&j| j == job).expect("listed")].push(us);
                }
                _ => failed += 1,
            }
        }
    }
    let process_cpu_us = (own_cpu_s()? - cpu_before) * 1e6 / attempted.max(1) as f64;
    // Each solve holds `threads` cores for its wall time, so a driver that
    // stops scaling reads worse (its CPU time alone would not show it). Per
    // job, the best percentile of the wall times is a solve the host left
    // alone; the five jobs then weigh equally.
    let job_walls: Vec<f64> = per_job
        .iter()
        .filter(|t| !t.is_empty())
        .map(|t| quantile(t, SOLVE_QUANTILE))
        .collect();
    let core_us_per_solve =
        threads as f64 * job_walls.iter().sum::<f64>() / job_walls.len().max(1) as f64;
    let fig = Figures::of(&latencies, &at, &at, ctx.seconds, 1.0).map_err(io::Error::other)?;
    let mut report = fig
        .report()
        .field("capacity_rps", fig.rate)
        .field("threads", threads)
        .field("process_cpu_us_per_solve", process_cpu_us)
        .field("setup_median_s", median(&setups))
        .field("setup_starts", setups.len());
    for (job, times) in JOBS.iter().zip(&per_job) {
        if let Some(s) = Summary::of(times) {
            report = report
                .field(format!("{}.mean_us", job.name()), s.mean)
                .field(format!("{}.p50_us", job.name()), s.p50);
        }
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics: crate::metric_list(&[
            ("setup_s", quantile(&setups, LATENCY_ACROSS), "s"),
            ("cpu_us_per_req", core_us_per_solve, "us"),
            ("rss_mb", own_rss_mb()?, "MiB"),
        ]),
        report: report.build(),
    })
}
