//! Trace-subsystem kernels: streaming bit-statistics profiling throughput
//! and the bitsliced 64-lane replay against the scalar per-record oracle —
//! the quantitative record behind `BENCH_trace.json`.
//!
//! Four groups:
//!
//! * `codec` — `read_binary` over an in-memory `write_binary` image of the
//!   same trace: record decode timed as its own layer, apart from replay.
//! * `profiling` — one-pass [`TraceStats`] accumulation (per-bit ones plus
//!   all pairwise co-occurrence counts, `O((2w+1)²)` state) over a
//!   synthetic uniform trace.
//! * `replay` — ground-truth error metrics of the same trace through an
//!   LPAA 2 chain: the scalar oracle replays one record at a time through
//!   `AdderChain::add`, the bitsliced path packs `W::LANES` records per
//!   fused `eval_diff` pass on the detected SIMD backend. The differential
//!   suite in `crates/trace/tests/differential.rs` pins that both produce
//!   bit-for-bit identical reports for every thread count and backend.
//! * `replay_backends` — the same replay workloads once per *available*
//!   SIMD backend (u64, u64x2, avx2, avx512), single-threaded, so the
//!   recorded JSON shows the lane-width scaling in isolation.
//!
//! Unless `MICROBENCH_QUICK` is set (smoke mode), the run rewrites
//! `BENCH_trace.json` at the repository root with ns/op for every
//! benchmark and the bitsliced replay's speedup over the scalar oracle.
//! Smoke mode also shrinks the trace so CI stays fast; the committed JSON
//! always records the full workload.

use std::fmt::Write as _;

use sealpaa_bench::microbench::{
    black_box, take_results, BenchResult, BenchmarkId, Criterion, Throughput,
};
use sealpaa_cells::{AdderChain, Backend, StandardCell};
use sealpaa_trace::{
    generate, read_binary, replay, replay_scalar, replay_with_backend, write_binary, SynthKind,
    TraceStats,
};

const WIDTH: usize = 16;

fn record_count() -> usize {
    if std::env::var_os("MICROBENCH_QUICK").is_some() {
        1 << 12
    } else {
        1 << 16
    }
}

fn bench_codec(c: &mut Criterion) {
    let records = generate(SynthKind::Uniform, WIDTH, record_count(), 7).expect("valid");
    let mut image = Vec::new();
    write_binary(&mut image, WIDTH, &records).expect("in-memory write");
    let mut group = c.benchmark_group("codec");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function(
        BenchmarkId::new("decode", format!("binary_w{WIDTH}")),
        |b| b.iter(|| read_binary(black_box(image.as_slice())).expect("valid")),
    );
    group.finish();
}

fn bench_profiling(c: &mut Criterion) {
    let records = generate(SynthKind::Uniform, WIDTH, record_count(), 7).expect("valid");
    let mut group = c.benchmark_group("profiling");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    group.bench_function(BenchmarkId::new(format!("stats_w{WIDTH}"), "stream"), |b| {
        b.iter(|| TraceStats::from_records(WIDTH, black_box(&records)).expect("valid"))
    });
    group.finish();
}

fn bench_replay(c: &mut Criterion) {
    let records = generate(SynthKind::Uniform, WIDTH, record_count(), 7).expect("valid");
    // Two chains bracketing the error-rate regimes: the homogeneous LPAA 2
    // chain errs on nearly every record (worst case for the per-lane
    // error-distance extraction), while the 4-LSB hybrid — the shape a
    // design-space exploration actually validates — errs rarely, so the
    // bitsliced path skips the extraction for most batches.
    let worst = AdderChain::uniform(StandardCell::Lpaa2.cell(), WIDTH);
    let hybrid = AdderChain::lsb_approximate(
        StandardCell::Lpaa2.cell(),
        StandardCell::Accurate.cell(),
        4,
        WIDTH,
    );
    let mut group = c.benchmark_group("replay");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    for (label, chain) in [
        (format!("lpaa2_w{WIDTH}"), &worst),
        (format!("hybrid4_w{WIDTH}"), &hybrid),
    ] {
        group.bench_function(BenchmarkId::new(label.clone(), "scalar"), |b| {
            b.iter(|| replay_scalar(black_box(chain), black_box(&records)).expect("valid"))
        });
        for threads in [1usize, 4] {
            group.bench_function(
                BenchmarkId::new(label.clone(), format!("bitsliced_t{threads}")),
                |b| {
                    b.iter(|| {
                        replay(black_box(chain), black_box(&records), threads).expect("valid")
                    })
                },
            );
        }
    }
    group.finish();
}

fn bench_replay_backends(c: &mut Criterion) {
    let records = generate(SynthKind::Uniform, WIDTH, record_count(), 7).expect("valid");
    let worst = AdderChain::uniform(StandardCell::Lpaa2.cell(), WIDTH);
    let hybrid = AdderChain::lsb_approximate(
        StandardCell::Lpaa2.cell(),
        StandardCell::Accurate.cell(),
        4,
        WIDTH,
    );
    let mut group = c.benchmark_group("replay_backends");
    group.sample_size(10);
    group.throughput(Throughput::Elements(records.len() as u64));
    for (label, chain) in [
        (format!("lpaa2_w{WIDTH}"), &worst),
        (format!("hybrid4_w{WIDTH}"), &hybrid),
    ] {
        for backend in Backend::available() {
            group.bench_function(BenchmarkId::new(label.clone(), backend.name()), |b| {
                b.iter(|| {
                    replay_with_backend(black_box(chain), black_box(&records), 1, Some(backend))
                        .expect("valid")
                })
            });
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

fn render_report(results: &[BenchResult]) -> String {
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
            "trace replay, all-LPAA2 w16 (errs almost every record), 1 thread",
            "replay/lpaa2_w16/scalar",
            "replay/lpaa2_w16/bitsliced_t1",
        ),
        (
            "trace replay, all-LPAA2 w16 (errs almost every record), 4 threads",
            "replay/lpaa2_w16/scalar",
            "replay/lpaa2_w16/bitsliced_t4",
        ),
        (
            "trace replay, 4-LSB LPAA2 hybrid w16 (rare errors), 1 thread",
            "replay/hybrid4_w16/scalar",
            "replay/hybrid4_w16/bitsliced_t1",
        ),
        (
            "trace replay, 4-LSB LPAA2 hybrid w16 (rare errors), 4 threads",
            "replay/hybrid4_w16/scalar",
            "replay/hybrid4_w16/bitsliced_t4",
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

    let available = Backend::available();
    let mut backend_rows = String::new();
    let workloads = ["lpaa2_w16", "hybrid4_w16"];
    for (wi, workload) in workloads.iter().enumerate() {
        let scalar_ns = ns_of(results, &format!("replay/{workload}/scalar"));
        let u64_ns = ns_of(results, &format!("replay_backends/{workload}/u64"));
        for (bi, backend) in available.iter().enumerate() {
            let ns = ns_of(
                results,
                &format!("replay_backends/{workload}/{}", backend.name()),
            );
            let last = wi + 1 == workloads.len() && bi + 1 == available.len();
            let sep = if last { "" } else { "," };
            let _ = writeln!(
                backend_rows,
                "    {{\"workload\": \"replay_{workload}\", \"backend\": \"{}\", \
                 \"lanes\": {}, \"ns_per_iter\": {ns:.1}, \"speedup_vs_u64\": {:.2}, \
                 \"speedup_vs_scalar\": {:.2}}}{sep}",
                backend.name(),
                backend.lanes(),
                u64_ns / ns,
                scalar_ns / ns
            );
        }
    }
    let active = Backend::active().name();
    let decode_ms = ns_of(results, "codec/decode/binary_w16") / 1e6;

    format!(
        "{{\n  \"generator\": \"cargo bench -p sealpaa-bench --bench trace_kernels\",\n  \
         \"unit\": \"ns_per_iter is the median wall-clock time of one full workload\",\n  \
         \"simd_backend\": \"{active}\",\n  \
         \"note\": \"the replay baseline walks one record at a time through the scalar chain \
         evaluator; the bitsliced rows pack W::LANES records per fused eval_diff pass on the \
         simd_backend above and accumulate exact integer sums, so their report is bit-for-bit \
         identical to the baseline for every thread count and SIMD backend (pinned by \
         crates/trace/tests/differential.rs). Error-dense batches settle all lanes at once in \
         plane space (biased_distance_lanes), so even the all-LPAA2 chain (error rate near 1) \
         scales with lane width; the 4-LSB hybrid is the typical validation shape. The \
         backends section isolates lane-width scaling: one single-threaded row per available \
         backend. The codec row times read_binary alone over an in-memory write_binary image \
         of the same trace, so record decode shows as its own layer: {decode_ms:.3} ms here, \
         against 3.124 ms for the per-record read_exact reader that the chunked decoder \
         replaced (measured on a 2-vCPU AVX-512 host). Acceptance: bitsliced >= 1.2x \
         scalar on the worst case, >= 1.5x on the \
         hybrid, and the widest backend >= 2x the pre-SIMD u64 recording on both\",\n  \
         \"benches\": [\n{benches}  ],\n  \"speedups\": [\n{speedups}  ],\n  \
         \"backends\": [\n{backend_rows}  ]\n}}\n"
    )
}

fn main() {
    let mut criterion = Criterion::default();
    bench_codec(&mut criterion);
    bench_profiling(&mut criterion);
    bench_replay(&mut criterion);
    bench_replay_backends(&mut criterion);
    let results = take_results();
    if std::env::var_os("MICROBENCH_QUICK").is_some() {
        eprintln!("MICROBENCH_QUICK set: not rewriting BENCH_trace.json");
        return;
    }
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trace.json");
    std::fs::write(path, render_report(&results)).expect("write BENCH_trace.json");
    println!("wrote {path}");
}
