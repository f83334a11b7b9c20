//! Benchmarks for the beyond-the-paper extensions: error-magnitude moments,
//! full error distributions and HDL synthesis — so their costs relative to
//! the core O(N) analysis are on record. Datapath propagation is timed in
//! `datapath_kernels`.

use sealpaa_bench::microbench::{black_box, BenchmarkId, Criterion};
use sealpaa_bench::{criterion_group, criterion_main};
use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
use sealpaa_core::{error_distribution, error_magnitude};
use sealpaa_hdl::{chain_netlist, chain_verilog};

fn bench_magnitude(c: &mut Criterion) {
    let mut group = c.benchmark_group("error_magnitude_vs_width");
    for width in [8usize, 32, 128] {
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), width);
        let profile = InputProfile::constant(width, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| error_magnitude(black_box(&chain), black_box(&profile)).expect("widths"))
        });
    }
    group.finish();
}

fn bench_distribution(c: &mut Criterion) {
    let mut group = c.benchmark_group("error_distribution_vs_width");
    group.sample_size(20);
    for width in [4usize, 8, 12] {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), width);
        let profile = InputProfile::constant(width, 0.3);
        group.bench_with_input(BenchmarkId::from_parameter(width), &width, |b, _| {
            b.iter(|| error_distribution(black_box(&chain), black_box(&profile)).expect("widths"))
        });
    }
    group.finish();
}

fn bench_hdl_synthesis(c: &mut Criterion) {
    let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 32);
    let mut group = c.benchmark_group("hdl_32bit_chain");
    group.bench_function("netlist", |b| b.iter(|| chain_netlist(black_box(&chain))));
    group.bench_function("verilog_text", |b| {
        b.iter(|| chain_verilog(black_box(&chain)))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_magnitude,
    bench_distribution,
    bench_hdl_synthesis
);
criterion_main!(benches);
