//! Datapath kernels: the analytical error-propagation engine against
//! Monte-Carlo simulation, and the prefix-sharing per-node adder assignment
//! against the naive per-configuration scan — the quantitative record
//! behind `BENCH_datapath.json`.
//!
//! Two groups:
//!
//! * `snr` — the predicted output-error moments (and hence SNR) of a 3x3
//!   Gaussian-blur convolution built from LPAA 5 adders, analytically (one
//!   pass over the graph, closed-form moment algebra per node) and by
//!   Monte-Carlo simulation (20k random pixel neighbourhoods, every one
//!   evaluated gate-accurately and bit-by-bit). The acceptance suite in
//!   `crates/propagate/tests/acceptance.rs` pins that the two agree within
//!   documented dB bounds.
//! * `optimize` — the provably-best (min-MSE) per-adder cell assignment of
//!   the same convolution over a 3-cell candidate library: the
//!   prefix-sharing DFS re-uses the propagated signal state of every common
//!   graph prefix, the reference scan re-propagates the whole graph per
//!   configuration. Both return bit-identical winners for every thread
//!   count (pinned in `crates/explore/src/datapath_dse.rs`).
//!
//! Unless `MICROBENCH_QUICK` is set (smoke mode), the run rewrites
//! `BENCH_datapath.json` at the repository root with ns/op for every
//! benchmark and the two headline speedups. Smoke mode also shrinks the
//! workload so CI stays fast; the committed JSON always records the full
//! workload.

use std::fmt::Write as _;

use sealpaa_bench::microbench::{black_box, take_results, BenchResult, BenchmarkId, Criterion};
use sealpaa_cells::StandardCell;
use sealpaa_datapath::{Datapath, NodeKind, Signal};
use sealpaa_explore::{
    accurate_cell_with_proxy_costs, best_datapath_assignment, best_datapath_assignment_reference,
    Budget,
};
use sealpaa_propagate::{monte_carlo, propagate_moments, topologies};

fn quick() -> bool {
    std::env::var_os("MICROBENCH_QUICK").is_some()
}

/// Pixel bit-width of the convolution both groups analyze.
fn pixel_bits() -> usize {
    if quick() {
        4
    } else {
        8
    }
}

/// Monte-Carlo sample count the `snr` baseline draws. The full run uses the
/// same 20k samples the CLI's `datapath simulate` defaults to.
fn mc_samples() -> u64 {
    if quick() {
        500
    } else {
        20_000
    }
}

/// The 3x3 Gaussian blur kernel (quick mode: a 3-tap binomial FIR with the
/// same coefficient structure, to keep the smoke run under a second).
fn workload() -> (String, Datapath, Signal, Vec<String>) {
    let cell = StandardCell::Lpaa5.cell();
    let bits = pixel_bits();
    if quick() {
        let topo = topologies::fir(&cell, &[1, 2, 1], bits).expect("fir fits");
        (
            format!("fir3_w{bits}"),
            topo.datapath,
            topo.output,
            topo.inputs,
        )
    } else {
        let kernel = vec![vec![1, 2, 1], vec![2, 4, 2], vec![1, 2, 1]];
        let topo = topologies::conv2d(&cell, &kernel, bits).expect("conv2d fits");
        (
            format!("gauss3x3_w{bits}"),
            topo.datapath,
            topo.output,
            topo.inputs,
        )
    }
}

/// Uniform bit probabilities for every input, at each input's actual width.
fn uniform_inputs(dp: &Datapath, names: &[String]) -> Vec<(String, Vec<f64>)> {
    names
        .iter()
        .map(|name| {
            let width = dp
                .signals()
                .find(|&s| matches!(dp.kind(s), NodeKind::Input { name: n } if n == name))
                .map_or(1, |s| dp.width(s));
            (name.clone(), vec![0.5; width])
        })
        .collect()
}

fn as_refs(inputs: &[(String, Vec<f64>)]) -> Vec<(&str, Vec<f64>)> {
    inputs
        .iter()
        .map(|(name, bits)| (name.as_str(), bits.clone()))
        .collect()
}

fn bench_snr(c: &mut Criterion) {
    let (label, dp, output, names) = workload();
    let inputs = uniform_inputs(&dp, &names);
    let inputs = as_refs(&inputs);
    let samples = mc_samples();
    let mut group = c.benchmark_group("snr");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new(&label, "analytical"), |b| {
        b.iter(|| propagate_moments(black_box(&dp), black_box(output), black_box(&inputs)))
    });
    group.bench_function(
        BenchmarkId::new(&label, format!("monte_carlo_{samples}")),
        |b| {
            b.iter(|| {
                monte_carlo(
                    black_box(&dp),
                    black_box(output),
                    black_box(&inputs),
                    samples,
                    1,
                )
            })
        },
    );
    group.finish();
}

fn bench_optimize(c: &mut Criterion) {
    let (label, dp, output, names) = workload();
    let inputs = uniform_inputs(&dp, &names);
    let inputs = as_refs(&inputs);
    let candidates = [
        accurate_cell_with_proxy_costs(),
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
    ];
    let budget = Budget::default();
    let mut group = c.benchmark_group("optimize");
    group.sample_size(10);
    group.bench_function(BenchmarkId::new(&label, "naive_scan"), |b| {
        b.iter(|| {
            best_datapath_assignment_reference(
                black_box(&dp),
                black_box(output),
                black_box(&inputs),
                black_box(&candidates),
                &budget,
            )
        })
    });
    for threads in [1usize, 4] {
        group.bench_function(
            BenchmarkId::new(&label, format!("prefix_sharing_t{threads}")),
            |b| {
                b.iter(|| {
                    best_datapath_assignment(
                        black_box(&dp),
                        black_box(output),
                        black_box(&inputs),
                        black_box(&candidates),
                        &budget,
                        threads,
                    )
                })
            },
        );
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

fn render_report(results: &[BenchResult], label: &str, samples: u64) -> String {
    let mut benches = String::new();
    for (i, r) in results.iter().enumerate() {
        let sep = if i + 1 < results.len() { "," } else { "" };
        let _ = writeln!(
            benches,
            "    {{\"name\": \"{}\", \"ns_per_iter\": {:.1}}}{sep}",
            r.name, r.ns_per_iter
        );
    }

    let speedup_pairs = [
        (
            format!(
                "output-error moments/SNR of a 3x3 Gaussian blur (LPAA 5 adders, 8-bit \
                 pixels): analytical one-pass propagation vs {samples}-sample gate-accurate \
                 Monte-Carlo simulation"
            ),
            format!("snr/{label}/monte_carlo_{samples}"),
            format!("snr/{label}/analytical"),
        ),
        (
            "min-MSE per-adder cell assignment of the same convolution over a 3-cell \
             library: prefix-sharing DFS (1 thread) vs naive per-config scan"
                .to_string(),
            format!("optimize/{label}/naive_scan"),
            format!("optimize/{label}/prefix_sharing_t1"),
        ),
        (
            "min-MSE per-adder cell assignment of the same convolution over a 3-cell \
             library: prefix-sharing DFS (4 threads) vs naive per-config scan"
                .to_string(),
            format!("optimize/{label}/naive_scan"),
            format!("optimize/{label}/prefix_sharing_t4"),
        ),
    ];
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
        "{{\n  \"generator\": \"cargo bench -p sealpaa-bench --bench datapath_kernels\",\n  \
         \"host\": {host},\n  \
         \"unit\": \"ns_per_iter is the median wall-clock time of one full workload\",\n  \
         \"note\": \"the analytical row predicts the output-error moments (and SNR) of a \
         3x3 Gaussian-blur convolution built from LPAA 5 adders in one pass over the graph \
         (closed-form moment algebra per node); the Monte-Carlo row estimates the same \
         moments by evaluating {samples} random pixel neighbourhoods gate-accurately. The \
         acceptance suite in crates/propagate/tests/acceptance.rs pins that the two agree \
         within documented dB bounds. The optimize rows search every per-adder cell \
         assignment of the same convolution over a 3-cell candidate library for the \
         provably-best (min-MSE, hence max-SNR) design: prefix-sharing re-uses the \
         propagated signal state of shared graph prefixes, the naive scan re-propagates the \
         whole graph per configuration, and both return bit-identical winners for every \
         thread count. Acceptance: analytical >= 100x Monte-Carlo at 20k samples, \
         prefix-sharing >= 2x the naive scan on one thread\",\n  \
         \"benches\": [\n{benches}  ],\n  \"speedups\": [\n{speedups}  ]\n}}\n"
    )
}

fn main() {
    let mut criterion = Criterion::default();
    bench_snr(&mut criterion);
    bench_optimize(&mut criterion);
    let results = take_results();
    if quick() {
        eprintln!("MICROBENCH_QUICK set: not rewriting BENCH_datapath.json");
        return;
    }
    let (label, ..) = workload();
    let report = render_report(&results, &label, mc_samples());
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_datapath.json");
    std::fs::write(path, report).expect("write BENCH_datapath.json");
    println!("wrote {path}");
}
