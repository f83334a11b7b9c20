//! Analysis-engine kernels: naive vs incremental design-space exploration,
//! incremental width sweeps, and the small-value rational fast paths — the
//! quantitative record behind `BENCH_analysis.json`.
//!
//! Three groups:
//!
//! * `dse` — the best hybrid design at `N = 8` over all 8 standard cells
//!   (16.8M designs), unconstrained and under a power cap of half the
//!   all-accurate chain's (`_cap50`), through the reference scan (a fresh
//!   O(N) analysis per design) and through the prefix-sharing
//!   branch-and-bound search, on one thread (`_t1`) and on every thread the
//!   host offers (`_tN`, `N` = `available_parallelism`). Both return the
//!   identical best design — the differential suites in
//!   `crates/core/tests/incremental.rs` and
//!   `crates/explore/tests/differential.rs` pin that. The unconstrained
//!   search is now the trivial case: once the all-accurate chain is found,
//!   it bounds away nearly every other prefix (288 visited nodes).
//! * `width_sweep` — the Fig. 5 exercise (error probability at every width
//!   `1..=16`): a fresh analysis per width (`Θ(N²)` stage steps) vs one
//!   analysis of the widest chain read back through `prefix_success`
//!   (`Θ(N)`).
//! * `rational` — exact-`Rational` analyses (the paper's Table 4 worked
//!   example and a width-8 chain) through the pre-PR arithmetic (the
//!   `*_slowpath` big-integer routines, re-exposed for exactly this
//!   comparison) and through the single-limb/u128 fast paths.
//!
//! Unless `MICROBENCH_QUICK` is set (smoke mode), the run rewrites
//! `BENCH_analysis.json` at the repository root with ns/op for every
//! benchmark, the speedups over each naive baseline, the host block, and
//! the acceptance bars, each with its value and whether it passed; if a bar
//! fails, the run exits non-zero after writing the file. Smoke mode also
//! shrinks the DSE workload to `N = 6` (both rows) so CI stays fast; the
//! committed JSON always records the full `N = 8` workload.

use std::fmt::Write as _;
use std::ops::{Add, Mul, Sub};

use sealpaa_bench::host::thread_counts;
use sealpaa_bench::microbench::{
    black_box, take_results, BenchResult, BenchmarkId, Criterion, Throughput,
};
use sealpaa_cells::{AdderChain, Cell, CellCharacteristics, InputProfile, StandardCell};
use sealpaa_core::analyze;
use sealpaa_explore::{exhaustive_best_reference, exhaustive_best_with, Budget};
use sealpaa_num::{Prob, Rational};

/// Power of the accurate cell (`accurate_cell_with_proxy_costs`), nW.
const ACCURATE_POWER_NW: f64 = 1080.0;

/// All eight standard cells, each carrying power/area characteristics so
/// the budgeted search accepts them. The paper's Table 2 characterises only
/// LPAA 1–5; the accurate cell reuses the DESIGN.md estimate and LPAA 6/7
/// (which Table 2 does not cover) get rough transistor-count
/// extrapolations. The figures decide only the `_cap50` rows' answers.
fn all_eight_candidates() -> Vec<Cell> {
    let mut cells: Vec<Cell> = [
        StandardCell::Lpaa1,
        StandardCell::Lpaa2,
        StandardCell::Lpaa3,
        StandardCell::Lpaa4,
        StandardCell::Lpaa5,
    ]
    .iter()
    .map(|c| c.cell())
    .collect();
    cells.push(sealpaa_explore::accurate_cell_with_proxy_costs());
    cells.push(Cell::custom_with_characteristics(
        "LPAA 6 (est.)",
        StandardCell::Lpaa6.truth_table(),
        CellCharacteristics::new(500.0, 3.0),
    ));
    cells.push(Cell::custom_with_characteristics(
        "LPAA 7 (est.)",
        StandardCell::Lpaa7.truth_table(),
        CellCharacteristics::new(400.0, 2.5),
    ));
    cells
}

fn dse_width() -> usize {
    if std::env::var_os("MICROBENCH_QUICK").is_some() {
        6
    } else {
        8
    }
}

/// The two DSE workloads: `(row label, description, budget)`.
fn dse_workloads() -> [(String, String, Budget); 2] {
    let width = dse_width();
    let designs = 8f64.powi(width as i32) / 1e6;
    let cap = 0.5 * ACCURATE_POWER_NW * width as f64;
    [
        (
            format!("best_w{width}_c8"),
            format!("best design, w{width} over all 8 cells ({designs:.1}M designs)"),
            Budget::default(),
        ),
        (
            format!("best_w{width}_c8_cap50"),
            format!(
                "best design, w{width} over all 8 cells ({designs:.1}M designs), \
                 power cap {cap:.0} nW (half the all-accurate chain)"
            ),
            Budget {
                max_power_nw: Some(cap),
                max_area_ge: None,
            },
        ),
    ]
}

fn bench_dse(c: &mut Criterion) {
    let width = dse_width();
    let candidates = all_eight_candidates();
    let profile = InputProfile::<f64>::constant(width, 0.3);
    let designs = (candidates.len() as u64).pow(width as u32);

    let mut group = c.benchmark_group("dse");
    // The naive scan is seconds per iteration at N = 8; a handful of
    // samples keeps the full run in minutes while the median still rejects
    // a one-off outlier.
    group.sample_size(3);
    group.throughput(Throughput::Elements(designs));
    for (label, _, budget) in dse_workloads() {
        group.bench_function(BenchmarkId::new(label.clone(), "naive"), |b| {
            b.iter(|| {
                exhaustive_best_reference(black_box(&candidates), black_box(&profile), &budget)
                    .expect("valid")
            })
        });
        for threads in thread_counts() {
            group.bench_function(
                BenchmarkId::new(label.clone(), format!("stepper_t{threads}")),
                |b| {
                    b.iter(|| {
                        exhaustive_best_with(
                            black_box(&candidates),
                            black_box(&profile),
                            &budget,
                            threads,
                        )
                        .expect("valid")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_width_sweep(c: &mut Criterion) {
    let mut group = c.benchmark_group("width_sweep");
    group.sample_size(10);
    let cell = StandardCell::Lpaa1.cell();
    let profile = InputProfile::<f64>::constant(16, 0.1);
    group.throughput(Throughput::Elements(16));
    group.bench_function(BenchmarkId::new("lpaa1_w16", "naive"), |b| {
        b.iter(|| {
            // A fresh analysis per width — what the Fig. 5 driver did
            // before the prefix readback.
            (1..=16)
                .map(|n| {
                    let chain = AdderChain::uniform(cell.clone(), n);
                    let profile = InputProfile::<f64>::constant(n, 0.1);
                    analyze(&chain, &profile)
                        .expect("valid")
                        .error_probability()
                })
                .collect::<Vec<f64>>()
        })
    });
    group.bench_function(BenchmarkId::new("lpaa1_w16", "incremental"), |b| {
        b.iter(|| {
            // One analysis of the widest chain; every narrower width is a
            // prefix readback (a constant profile makes them identical).
            let chain = AdderChain::uniform(cell.clone(), 16);
            let analysis = analyze(black_box(&chain), black_box(&profile)).expect("valid");
            (1..=16)
                .map(|n| analysis.prefix_error_probability(n - 1))
                .collect::<Vec<f64>>()
        })
    });
    group.finish();
}

/// `Rational` arithmetic as it was before the single-limb/u128 fast paths:
/// every ring operation routed through the retained `*_slowpath` methods.
/// Implementing [`Prob`] over this newtype lets the benchmark run the
/// *current* analysis code over the *pre-PR* arithmetic, so the speedup
/// isolates the number representation.
#[derive(Clone, PartialEq, PartialOrd, Debug)]
struct BaselineRational(Rational);

impl std::fmt::Display for BaselineRational {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.0.fmt(f)
    }
}

impl Add for BaselineRational {
    type Output = BaselineRational;
    fn add(self, rhs: BaselineRational) -> BaselineRational {
        BaselineRational(self.0.add_slowpath(&rhs.0))
    }
}

impl Sub for BaselineRational {
    type Output = BaselineRational;
    fn sub(self, rhs: BaselineRational) -> BaselineRational {
        BaselineRational(self.0.sub_slowpath(&rhs.0))
    }
}

impl Mul for BaselineRational {
    type Output = BaselineRational;
    fn mul(self, rhs: BaselineRational) -> BaselineRational {
        BaselineRational(self.0.mul_slowpath(&rhs.0))
    }
}

impl Prob for BaselineRational {
    fn zero() -> Self {
        BaselineRational(Rational::zero())
    }

    fn one() -> Self {
        BaselineRational(Rational::one())
    }

    fn from_ratio(num: u64, den: u64) -> Self {
        BaselineRational(<Rational as Prob>::from_ratio(num, den))
    }

    fn from_f64(value: f64) -> Self {
        BaselineRational(Rational::from_f64(value))
    }

    fn to_f64(&self) -> f64 {
        self.0.to_f64()
    }
}

/// The paper's Table 4 input profile (the worked 4-bit LPAA 1 example) over
/// any `Prob` implementation.
fn table4_profile<T: Prob>() -> InputProfile<T> {
    InputProfile::new(
        vec![
            T::from_ratio(9, 10),
            T::from_ratio(1, 2),
            T::from_ratio(2, 5),
            T::from_ratio(4, 5),
        ],
        vec![
            T::from_ratio(4, 5),
            T::from_ratio(7, 10),
            T::from_ratio(3, 5),
            T::from_ratio(9, 10),
        ],
        T::from_ratio(1, 2),
    )
    .expect("paper profile is valid")
}

fn bench_rational(c: &mut Criterion) {
    let mut group = c.benchmark_group("rational");
    group.sample_size(10);

    // Table 4: the 4-bit LPAA 1 worked example in exact arithmetic.
    let chain4 = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
    let baseline4 = table4_profile::<BaselineRational>();
    let fast4 = table4_profile::<Rational>();
    group.throughput(Throughput::Elements(4));
    group.bench_function(BenchmarkId::new("table4_lpaa1_w4", "slowpath"), |b| {
        b.iter(|| {
            analyze(black_box(&chain4), black_box(&baseline4))
                .expect("valid")
                .error_probability()
        })
    });
    group.bench_function(BenchmarkId::new("table4_lpaa1_w4", "fastpath"), |b| {
        b.iter(|| {
            analyze(black_box(&chain4), black_box(&fast4))
                .expect("valid")
                .error_probability()
        })
    });

    // A wider exact analysis: denominators grow with depth, exercising the
    // u128 overflow handoff as well as the single-limb paths.
    let chain8 = AdderChain::uniform(StandardCell::Lpaa3.cell(), 8);
    let baseline8 = InputProfile::<BaselineRational>::constant(8, Prob::from_ratio(3, 10));
    let fast8 = InputProfile::<Rational>::constant(8, Prob::from_ratio(3, 10));
    group.throughput(Throughput::Elements(8));
    group.bench_function(BenchmarkId::new("lpaa3_w8_p0.3", "slowpath"), |b| {
        b.iter(|| {
            analyze(black_box(&chain8), black_box(&baseline8))
                .expect("valid")
                .error_probability()
        })
    });
    group.bench_function(BenchmarkId::new("lpaa3_w8_p0.3", "fastpath"), |b| {
        b.iter(|| {
            analyze(black_box(&chain8), black_box(&fast8))
                .expect("valid")
                .error_probability()
        })
    });
    group.finish();
}

fn ns_of(results: &[BenchResult], name: &str) -> f64 {
    results
        .iter()
        .find(|r| r.name == name)
        .unwrap_or_else(|| panic!("benchmark {name} did not run"))
        .ns_per_iter
}

/// One acceptance bar: a measured speedup against its threshold.
struct Bar {
    name: String,
    value: f64,
    threshold: f64,
}

impl Bar {
    fn passed(&self) -> bool {
        self.value >= self.threshold
    }
}

/// `(workload, baseline row, fast row)` for every speedup the file records.
fn speedup_pairs() -> Vec<(String, String, String)> {
    let mut pairs = Vec::new();
    for (label, workload, _) in dse_workloads() {
        for threads in thread_counts() {
            let unit = if threads == 1 { "thread" } else { "threads" };
            pairs.push((
                format!("{workload}, {threads} {unit}"),
                format!("dse/{label}/naive"),
                format!("dse/{label}/stepper_t{threads}"),
            ));
        }
    }
    for (workload, baseline, fast) in [
        (
            "Fig. 5 width sweep, lpaa1 widths 1..=16",
            "width_sweep/lpaa1_w16/naive",
            "width_sweep/lpaa1_w16/incremental",
        ),
        (
            "Table 4 worked example, exact rational",
            "rational/table4_lpaa1_w4/slowpath",
            "rational/table4_lpaa1_w4/fastpath",
        ),
        (
            "lpaa3 w8 p=3/10, exact rational",
            "rational/lpaa3_w8_p0.3/slowpath",
            "rational/lpaa3_w8_p0.3/fastpath",
        ),
    ] {
        pairs.push((workload.to_owned(), baseline.to_owned(), fast.to_owned()));
    }
    pairs
}

/// The bars the committed file must pass: every DSE stepper row at least
/// 5x its naive scan, and both rational fast paths at least 3x the slow
/// path.
fn acceptance_bars(results: &[BenchResult]) -> Vec<Bar> {
    speedup_pairs()
        .into_iter()
        .filter_map(|(_, baseline, fast)| {
            let threshold = if fast.starts_with("dse/") {
                5.0
            } else if fast.starts_with("rational/") {
                3.0
            } else {
                return None;
            };
            Some(Bar {
                name: format!("{fast} >= {threshold:.0}x {baseline}"),
                value: ns_of(results, &baseline) / ns_of(results, &fast),
                threshold,
            })
        })
        .collect()
}

fn render_report(results: &[BenchResult], bars: &[Bar]) -> String {
    let mut benches = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            benches,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}}}{sep}",
            r.name, r.ns_per_iter
        );
    }

    let pairs = speedup_pairs();
    let mut speedups = String::new();
    for (i, (workload, baseline, fast)) in pairs.iter().enumerate() {
        let base_ns = ns_of(results, baseline);
        let fast_ns = ns_of(results, fast);
        let sep = if i + 1 < pairs.len() { "," } else { "" };
        let _ = writeln!(
            speedups,
            "    {{\"workload\": \"{workload}\", \"baseline\": \"{baseline}\", \
             \"fast\": \"{fast}\", \"baseline_ns\": {base_ns:.1}, \"fast_ns\": {fast_ns:.1}, \
             \"speedup\": {:.2}}}{sep}",
            base_ns / fast_ns
        );
    }

    let mut acceptance = String::new();
    for (i, bar) in bars.iter().enumerate() {
        let sep = if i + 1 < bars.len() { "," } else { "" };
        let _ = writeln!(
            acceptance,
            "    {{\"bar\": \"{}\", \"value\": {:.2}, \"threshold\": {:.1}, \"pass\": {}}}{sep}",
            bar.name,
            bar.value,
            bar.threshold,
            bar.passed()
        );
    }

    let host = sealpaa_bench::host::host_block();
    format!(
        "{{\n  \"generator\": \"cargo bench -p sealpaa-bench --bench analysis_kernels\",\n  \
         \"host\": {host},\n  \
         \"unit\": \"ns_per_iter is the median wall-clock time of one full workload\",\n  \
         \"note\": \"the dse baseline re-runs a fresh O(N) analysis per design and visits \
         every design; the stepper rows walk the prefix-sharing branch-and-bound search, \
         which pays one stage step per visited tree edge and skips every prefix whose error \
         probability, less a proven f64 rounding margin, is strictly above the best leaf any \
         worker has found. Its result is byte-identical to the baseline for every thread \
         count. The _tN rows run on all available_parallelism threads of the host block. \
         The unconstrained rows are now the trivial case: once the all-accurate chain is \
         found it bounds away nearly every prefix, so a one-thread search visits 288 nodes \
         in this cell order (64 with the accurate cell first). The _cap50 rows, capped at \
         half the all-accurate chain's power, are the search's real workload: 7,106 nodes \
         on one thread. The rational \
         baseline routes every ring operation through the retained big-integer slowpath, \
         isolating the single-limb/u128 fast-path gain. The acceptance section evaluates \
         the bars: every dse stepper row >= 5x its naive scan, rational fastpath >= 3x \
         slowpath\",\n  \"benches\": [\n{benches}  ],\n  \"speedups\": [\n{speedups}  ],\n  \
         \"acceptance\": [\n{acceptance}  ]\n}}\n"
    )
}

fn main() {
    let mut criterion = Criterion::default();
    bench_dse(&mut criterion);
    bench_width_sweep(&mut criterion);
    bench_rational(&mut criterion);
    let results = take_results();
    if std::env::var_os("MICROBENCH_QUICK").is_some() {
        eprintln!("MICROBENCH_QUICK set: not rewriting BENCH_analysis.json");
        return;
    }
    let bars = acceptance_bars(&results);
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_analysis.json");
    std::fs::write(path, render_report(&results, &bars)).expect("write BENCH_analysis.json");
    println!("wrote {path}");
    let failed: Vec<&Bar> = bars.iter().filter(|bar| !bar.passed()).collect();
    for bar in &failed {
        eprintln!(
            "acceptance bar failed: {} (got {:.2}, need {:.1})",
            bar.name, bar.value, bar.threshold
        );
    }
    if !failed.is_empty() {
        std::process::exit(1);
    }
}
