//! Exhaustive (all input combinations) simulation.
//!
//! Two engines share one report format:
//!
//! * [`exhaustive_scalar`] — the straightforward per-case reference: one
//!   [`AdderChain::add`] walk per input combination. Kept public as the
//!   ground truth for differential tests and the baseline for benchmarks.
//! * [`exhaustive`] / [`exhaustive_with`] / [`exhaustive_with_backend`] —
//!   the bitsliced kernel: one SIMD word of consecutive `b` values (64–512
//!   lanes, following the runtime-detected [`Backend`]) is packed into the
//!   lanes of the word's bit-planes (their low six bit-planes are the
//!   fixed periodic constants `0xAAAA…`, `0xCCCC…`, …), the approximate
//!   and accurate chains are evaluated through the chain's
//!   `CompiledKernel`, and a single XOR/OR reduction yields the per-lane
//!   mismatch mask. Correct lanes are then settled in bulk (popcount for
//!   the histogram, one factorized weight per batch); only mismatching or
//!   stage-deviating lanes fall back to per-lane weight/histogram work.
//!   [`exhaustive_with`] additionally splits the `a` range across
//!   `std::thread::scope` workers and merges the partial results in range
//!   order; lanes are assigned in ascending case order on every backend,
//!   so for exact probability types (`Rational`, whose addition is
//!   associative) all counts, histograms and `T`-typed probabilities are
//!   bit-for-bit identical for **any** thread count *and* backend. The
//!   `f64` *metrics* may differ in the last ulp across thread counts or
//!   backends because float addition is not associative.
//!
//! For widths below 6 (fewer than 64 `b` values) every entry point runs the
//! scalar engine, so tiny sweeps remain exactly the reference behaviour;
//! between 6 bits and the backend's lane count the backend is narrowed so
//! a `b` chunk never exceeds one operand sweep.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Range;

use sealpaa_cells::{
    biased_distance_lanes, dispatch, error_distances64, error_stats, splat_planes, AdderChain,
    Backend, CompiledChain, CompiledKernel, FaInput, InputProfile, SimdKernel, SimdWord,
    TruthTable,
};
use sealpaa_num::Prob;

use crate::metrics::{ErrorMetrics, MetricsAccumulator};

/// Errors produced by [`exhaustive`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The input profile covers a different number of bits than the chain.
    WidthMismatch {
        /// Stages in the chain.
        chain: usize,
        /// Bits in the profile.
        profile: usize,
    },
    /// The chain is wider than the engine accepts: exhaustive enumeration
    /// of `2^(2N+1)` cases is infeasible past [`MAX_EXHAUSTIVE_WIDTH`] —
    /// the very effect paper Fig. 1 plots — and Monte-Carlo stops at 62
    /// bits, where every error distance still fits `i64`.
    WidthTooLarge {
        /// Requested adder width.
        width: usize,
        /// Widest adder the engine accepts.
        max: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::WidthMismatch { chain, profile } => write!(
                f,
                "adder chain has {chain} stages but input profile covers {profile} bits"
            ),
            SimError::WidthTooLarge { width, max } => write!(
                f,
                "{width}-bit adders are refused: this simulation supports at most {max} bits"
            ),
        }
    }
}

impl std::error::Error for SimError {}

/// Widest adder [`exhaustive`] will enumerate (`2^(2·16+1)` ≈ 8.6 G cases —
/// the paper's Fig. 1 point). The bitsliced kernel makes this width *usable*
/// in practice (64 cases per pass, parallel over `a` ranges) where the
/// scalar engine needed hours.
pub const MAX_EXHAUSTIVE_WIDTH: usize = 16;

/// Narrowest width the bitsliced kernel accepts: below 6 bits there are
/// fewer than 64 `b` values to fill the lanes, so the scalar engine runs.
const BITSLICE_MIN_WIDTH: usize = 6;

/// The amount of raw work an exhaustive run performed — the paper's Fig. 1
/// "number of computations" axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SimWork {
    /// Input combinations evaluated (`2^(2N+1)`).
    pub cases: u64,
    /// Single-bit full-adder evaluations: `3·N` per case — `N` for the
    /// approximate chain, `N` for the accurate reference chain, and `N` for
    /// the first-deviation walk along the accurate carries.
    pub bit_additions: u64,
    /// Output comparisons (one per case).
    pub comparisons: u64,
}

/// The result of an exhaustive sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct ExhaustiveReport<T> {
    /// Input combinations evaluated.
    pub cases: u64,
    /// Combinations on which the output value was wrong (unweighted count —
    /// for equally probable inputs `error_cases / cases` *is* the error
    /// probability).
    pub error_cases: u64,
    /// Exactly weighted probability that the output value is wrong.
    pub output_error_probability: T,
    /// Exactly weighted probability that some stage deviated from the
    /// accurate full adder along the accurate carry chain — the paper's
    /// error semantics. `≥ output_error_probability`.
    pub stage_error_probability: T,
    /// `f64` quality metrics (error distances etc.).
    pub metrics: ErrorMetrics,
    /// Unweighted case count per signed error distance (the empirical error
    /// histogram; for equally probable inputs `count / cases` equals the
    /// exact PMF of `sealpaa_core::error_distribution`).
    pub histogram: BTreeMap<i64, u64>,
    /// Raw work performed (paper Fig. 1).
    pub work: SimWork,
}

fn validate<T: Prob>(chain: &AdderChain, profile: &InputProfile<T>) -> Result<usize, SimError> {
    let width = chain.width();
    if width != profile.width() {
        return Err(SimError::WidthMismatch {
            chain: width,
            profile: profile.width(),
        });
    }
    if width > MAX_EXHAUSTIVE_WIDTH {
        return Err(SimError::WidthTooLarge {
            width,
            max: MAX_EXHAUSTIVE_WIDTH,
        });
    }
    Ok(width)
}

/// Enumerates every input combination of the chain, weighting each by its
/// exact probability under `profile` (paper Table 6: for equally probable
/// inputs this checks all `2^(2N+1)` cases and the comparison against the
/// analytical method is exact).
///
/// Runs the bitsliced single-threaded kernel (the scalar engine below 6
/// bits); see [`exhaustive_with`] to spread the sweep across threads and
/// [`exhaustive_scalar`] for the reference implementation.
///
/// # Errors
///
/// * [`SimError::WidthMismatch`] if `profile` does not match the chain.
/// * [`SimError::WidthTooLarge`] if `chain.width() > MAX_EXHAUSTIVE_WIDTH`.
pub fn exhaustive<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<ExhaustiveReport<T>, SimError> {
    let width = validate(chain, profile)?;
    if width < BITSLICE_MIN_WIDTH {
        return Ok(scalar_sweep(chain, profile));
    }
    let backend = sweep_backend(None, width);
    let compiled = CompiledChain::compile(chain);
    let tables = WeightTables::build(profile);
    let partial = dispatch(
        backend,
        SweepWorker {
            compiled: &compiled,
            tables: &tables,
            a_range: 0..1u64 << width,
        },
    );
    Ok(finish(vec![partial], width))
}

/// Narrows the requested (or detected) backend so one lane chunk never
/// exceeds the `2^width` `b` values of a single operand sweep.
fn sweep_backend(backend: Option<Backend>, width: usize) -> Backend {
    backend
        .unwrap_or_else(Backend::active)
        .narrowed_to_lanes(1usize << width.min(63))
}

/// [`exhaustive`] parallelized over contiguous `a` ranges with
/// `std::thread::scope`; partial results are merged in range order, so the
/// outcome is deterministic and — for exact probability types such as
/// `Rational` — bit-for-bit identical to the serial run for any `threads`.
///
/// `threads` is clamped to `1..=64`; pass
/// [`default_threads()`](crate::default_threads) to use every available
/// core. Widths below 6 bits fall back to the (single-threaded) scalar
/// engine — the whole sweep is microseconds there.
///
/// # Errors
///
/// Same conditions as [`exhaustive`].
pub fn exhaustive_with<T: Prob + Send + Sync>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
    threads: usize,
) -> Result<ExhaustiveReport<T>, SimError> {
    exhaustive_with_backend(chain, profile, threads, None)
}

/// [`exhaustive_with`] with an explicit SIMD backend: `None` uses
/// [`Backend::active`] (runtime detection, overridable through the
/// `SEALPAA_SIMD` environment variable). The backend is narrowed when the
/// width offers fewer `b` values than the word has lanes. All counts,
/// histograms and exact (`Rational`) probabilities are bit-for-bit
/// identical across backends and thread counts; `f64` metrics agree to
/// rounding.
///
/// # Errors
///
/// Same conditions as [`exhaustive`].
pub fn exhaustive_with_backend<T: Prob + Send + Sync>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
    threads: usize,
    backend: Option<Backend>,
) -> Result<ExhaustiveReport<T>, SimError> {
    let width = validate(chain, profile)?;
    if width < BITSLICE_MIN_WIDTH {
        return Ok(scalar_sweep(chain, profile));
    }
    let backend = sweep_backend(backend, width);
    let operand_count = 1u64 << width;
    let threads = (threads.clamp(1, 64) as u64).min(operand_count);
    let compiled = CompiledChain::compile(chain);
    let tables = WeightTables::build(profile);
    let worker = |a_range: Range<u64>| {
        dispatch(
            backend,
            SweepWorker {
                compiled: &compiled,
                tables: &tables,
                a_range,
            },
        )
    };
    if threads == 1 {
        let partial = worker(0..operand_count);
        return Ok(finish(vec![partial], width));
    }
    let bounds: Vec<u64> = (0..=threads)
        .map(|t| operand_count / threads * t + (operand_count % threads).min(t))
        .collect();
    let partials = std::thread::scope(|scope| {
        let handles: Vec<_> = bounds
            .windows(2)
            .map(|w| {
                let (lo, hi) = (w[0], w[1]);
                let worker = &worker;
                scope.spawn(move || worker(lo..hi))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("sweep workers do not panic"))
            .collect::<Vec<_>>()
    });
    Ok(finish(partials, width))
}

/// The scalar reference implementation: one [`AdderChain::add`] walk per
/// input combination, exactly as a direct transcription of the paper's
/// simulation setup would do it.
///
/// [`exhaustive`] produces identical `T`-typed probabilities, histograms and
/// counts for exact probability types; this entry point remains public as
/// the differential-test oracle and the benchmark baseline.
///
/// # Errors
///
/// Same conditions as [`exhaustive`].
pub fn exhaustive_scalar<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<ExhaustiveReport<T>, SimError> {
    validate(chain, profile)?;
    Ok(scalar_sweep(chain, profile))
}

fn scalar_sweep<T: Prob>(chain: &AdderChain, profile: &InputProfile<T>) -> ExhaustiveReport<T> {
    let width = chain.width();
    let accurate = TruthTable::accurate();
    let mut error_cases = 0u64;
    let mut output_error = T::zero();
    let mut stage_error = T::zero();
    let mut acc = MetricsAccumulator::default();
    let mut work = SimWork::default();
    let mut histogram: BTreeMap<i64, u64> = BTreeMap::new();

    let operand_count = 1u64 << width;
    for a in 0..operand_count {
        for b in 0..operand_count {
            for cin in [false, true] {
                let weight = profile.assignment_probability(a, b, cin);
                let approx = chain.add(a, b, cin);
                let exact = chain.accurate_sum(a, b, cin);
                work.cases += 1;
                work.bit_additions += 3 * width as u64;
                work.comparisons += 1;

                let wrong = approx != exact;
                if wrong {
                    error_cases += 1;
                    output_error = output_error + weight.clone();
                }
                acc.record(weight.to_f64(), approx.error_distance(exact));
                *histogram.entry(approx.error_distance(exact)).or_insert(0) += 1;

                // First-deviation semantics: walk the accurate carry chain
                // and ask whether any stage sits on an error row.
                let mut carry = cin;
                let mut deviated = false;
                for (i, cell) in chain.iter().enumerate() {
                    let input = FaInput::new((a >> i) & 1 == 1, (b >> i) & 1 == 1, carry);
                    if cell.truth_table().eval(input) != accurate.eval(input) {
                        deviated = true;
                        break;
                    }
                    carry = accurate.eval(input).carry_out;
                }
                if deviated {
                    stage_error = stage_error + weight;
                }
            }
        }
    }

    ExhaustiveReport {
        cases: work.cases,
        error_cases,
        output_error_probability: output_error,
        stage_error_probability: stage_error,
        metrics: acc.finish(),
        histogram,
        work,
    }
}

/// The fixed periodic bit-planes of the six low bits of 64 consecutive `b`
/// values starting at a multiple of 64: bit `l` of plane `i` is bit `i` of
/// lane index `l`.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// Precomputed per-operand weights shared (immutably) by all sweep workers.
///
/// `pa_t[a] = P(A = a)` as the exact probability type, `pa_f` the same in
/// `f64` (for the metrics accumulator), and `chunk_pb_f[c]` the summed
/// probability of the 64-lane `b` chunk starting at `64·c` — the factorized
/// batch weight that settles all-correct batches without touching a single
/// lane.
struct WeightTables<T> {
    pa_t: Vec<T>,
    pb_t: Vec<T>,
    pcin_t: [T; 2],
    pa_f: Vec<f64>,
    pb_f: Vec<f64>,
    pcin_f: [f64; 2],
    chunk_pb_t: Vec<T>,
    chunk_pb_f: Vec<f64>,
    /// The shared per-value weight when every `b` value is equally likely
    /// (the uniform operand profile): per-lane weighting then factors into
    /// one count product per batch, and the weighted `f64` moments into
    /// aggregate plane-space sums.
    uniform_pb: Option<(f64, T)>,
}

impl<T: Prob> WeightTables<T> {
    fn build(profile: &InputProfile<T>) -> Self {
        let width = profile.width();
        let n = 1usize << width;
        let operand_table = |bit_p: &dyn Fn(usize) -> T| -> Vec<T> {
            (0..n as u64)
                .map(|v| {
                    let mut p = T::one();
                    for i in 0..width {
                        let f = if (v >> i) & 1 == 1 {
                            bit_p(i)
                        } else {
                            bit_p(i).complement()
                        };
                        p = p * f;
                    }
                    p
                })
                .collect()
        };
        let pa_t = operand_table(&|i| profile.pa(i).clone());
        let pb_t = operand_table(&|i| profile.pb(i).clone());
        let pa_f: Vec<f64> = pa_t.iter().map(Prob::to_f64).collect();
        let pb_f: Vec<f64> = pb_t.iter().map(Prob::to_f64).collect();
        let chunk_pb_t: Vec<T> = pb_t
            .chunks(64)
            .map(|c| c.iter().fold(T::zero(), |s, p| s + p.clone()))
            .collect();
        let chunk_pb_f: Vec<f64> = pb_f.chunks(64).map(|c| c.iter().sum()).collect();
        let uniform_pb = if pb_t.iter().all(|p| *p == pb_t[0]) {
            Some((pb_f[0], pb_t[0].clone()))
        } else {
            None
        };
        WeightTables {
            pa_t,
            pb_t,
            pcin_t: [profile.p_cin().complement(), profile.p_cin().clone()],
            pa_f,
            pb_f,
            pcin_f: [
                profile.p_cin().complement().to_f64(),
                profile.p_cin().to_f64(),
            ],
            chunk_pb_t,
            chunk_pb_f,
            uniform_pb,
        }
    }
}

/// One worker's share of a bitsliced sweep. The histogram is a dense array
/// indexed by `error_distance + offset` (`offset = 2^(width+1) − 1`) so the
/// per-lane hot path is an increment, not a tree lookup.
struct Partial<T> {
    error_cases: u64,
    output_error: T,
    stage_error: T,
    acc: MetricsAccumulator,
    work: SimWork,
    hist: Vec<u64>,
}

/// One worker's share of a bitsliced sweep, dispatched to the selected
/// backend's word type.
struct SweepWorker<'a, T> {
    compiled: &'a CompiledChain,
    tables: &'a WeightTables<T>,
    a_range: Range<u64>,
}

impl<T: Prob> SimdKernel for SweepWorker<'_, T> {
    type Out = Partial<T>;

    #[inline(always)]
    fn run<W: SimdWord>(self) -> Partial<T> {
        bitsliced_range(&self.compiled.kernel::<W>(), self.tables, self.a_range)
    }
}

#[inline(always)]
fn bitsliced_range<T: Prob, W: SimdWord>(
    kernel: &CompiledKernel<W>,
    tables: &WeightTables<T>,
    a_range: Range<u64>,
) -> Partial<T> {
    let width = kernel.width();
    debug_assert!((BITSLICE_MIN_WIDTH..=MAX_EXHAUSTIVE_WIDTH).contains(&width));
    // Lane index l within a chunk carries `b = b_base + l`; the dispatch
    // layer narrows the backend so the chunk never exceeds the operand
    // sweep (`W::LANES ≤ 2^width`).
    let lanes_log2 = 6 + W::WORDS.trailing_zeros() as usize;
    debug_assert!(lanes_log2 <= width);
    let chunks = 1usize << (width - lanes_log2);
    let offset = (1i64 << (width + 1)) - 1;
    let mut hist = vec![0u64; (1usize << (width + 2)) - 1];
    let mut error_cases = 0u64;
    let mut output_error = T::zero();
    let mut stage_error = T::zero();
    let mut acc = MetricsAccumulator::default();
    let mut work = SimWork::default();

    let mut a_planes = vec![W::zero(); width];
    let mut b_planes = vec![W::zero(); width];
    let mut approx_sum = vec![W::zero(); width];
    let mut exact_sum = vec![W::zero(); width];
    let mut sub_approx = vec![0u64; width];
    let mut sub_exact = vec![0u64; width];
    let mut ed = [0i64; 64];
    let mut lane_dist = [W::zero(); 64];
    // Bits 0..6 of the lane's `b` repeat with period 64, so their planes
    // are the fixed subword patterns; bits 6..lanes_log2 select the
    // subword and are constant per 64-lane subword of the wide word; bits
    // above that come from `b_base` and are set per chunk below.
    for (i, plane) in b_planes.iter_mut().enumerate().take(lanes_log2) {
        *plane = if i < 6 {
            W::splat(LANE_PATTERNS[i])
        } else {
            W::from_fn(|s| (((s as u64) >> (i - 6)) & 1).wrapping_neg())
        };
    }

    for a in a_range {
        splat_planes(a, &mut a_planes);
        let pa_f = tables.pa_f[a as usize];
        for chunk in 0..chunks {
            let b_base = (chunk as u64) << lanes_log2;
            for (i, plane) in b_planes.iter_mut().enumerate().skip(lanes_log2) {
                *plane = W::splat(((b_base >> i) & 1).wrapping_neg());
            }
            // `chunk_pb_*` tables stay at 64-value granularity (they are
            // shared across backends); a wide chunk covers `W::WORDS`
            // consecutive entries.
            let sub_chunk0 = chunk * W::WORDS;
            let chunk_pb_f: f64 = tables.chunk_pb_f[sub_chunk0..sub_chunk0 + W::WORDS]
                .iter()
                .sum();
            for cin in [false, true] {
                let cin_word = W::splat((cin as u64).wrapping_neg());
                let diff = kernel.eval_diff(
                    &a_planes,
                    &b_planes,
                    cin_word,
                    &mut approx_sum,
                    &mut exact_sum,
                );

                work.cases += W::LANES as u64;
                work.bit_additions += W::LANES as u64 * 3 * width as u64;
                work.comparisons += W::LANES as u64;
                let wrong = diff.mismatch.count_ones();
                error_cases += wrong;
                let dense = wrong as usize * 4 >= W::LANES;
                // The uniform dense path below settles the correct lanes'
                // histogram entries itself (a correct lane's biased
                // distance is exactly `offset`, so its unconditional walk
                // already counts them); every other path settles them here
                // in bulk.
                if !(dense && tables.uniform_pb.is_some()) {
                    hist[offset as usize] += W::LANES as u64 - wrong;
                }
                acc.add_bulk_weight(pa_f * tables.pcin_f[cin as usize] * chunk_pb_f);

                // Per-lane slow path only for mismatching or deviating
                // lanes; an all-correct batch is fully settled above.
                // Dense batches compute every lane's distance at once in
                // plane space (a lane-parallel subtraction plus one wide
                // transpose, both scaling with the backend's lanes); sparse
                // ones keep the per-subword bit walk on extracted
                // subplanes. The two produce identical integers, so the
                // choice is pure performance and never perturbs results.
                // The shared `pa · pcin` weight factor is applied once per
                // batch: for exact `T` the factored sum is identical by
                // distributivity, for `f64` it agrees to rounding.
                if diff.mismatch.any() {
                    let w_ac_f = pa_f * tables.pcin_f[cin as usize];
                    if dense {
                        biased_distance_lanes(
                            &approx_sum,
                            diff.approx_cout,
                            &exact_sum,
                            diff.exact_cout,
                            &mut lane_dist,
                        );
                    }
                    if let Some((u_f, u_t)) = &tables.uniform_pb {
                        // Constant per-lane weight: the weighted `f64`
                        // moments factor into aggregate plane-space sums
                        // (exact integers) and the `T` weight into one
                        // integer-count product (exact for `Rational`);
                        // only the histogram still visits lanes.
                        let stats = error_stats(
                            &approx_sum,
                            diff.approx_cout,
                            &exact_sum,
                            diff.exact_cout,
                            diff.mismatch,
                        );
                        if dense {
                            // Lane-major walk, one wide load per lane and
                            // no mask test at all: a *correct* lane's
                            // biased distance is exactly `offset`, so
                            // counting every lane unconditionally settles
                            // correct and erroneous lanes alike (the bulk
                            // settle above is skipped for this path);
                            // histogram increments commute, so order is
                            // free.
                            for row in lane_dist.iter() {
                                let row = *row;
                                for s in 0..W::WORDS {
                                    hist[row.word(s) as usize] += 1;
                                }
                            }
                        } else {
                            for s in 0..W::WORDS {
                                let mm = diff.mismatch.word(s);
                                if mm == 0 {
                                    continue;
                                }
                                for i in 0..width {
                                    sub_approx[i] = approx_sum[i].word(s);
                                    sub_exact[i] = exact_sum[i].word(s);
                                }
                                error_distances64(
                                    &sub_approx,
                                    diff.approx_cout.word(s),
                                    &sub_exact,
                                    diff.exact_cout.word(s),
                                    mm,
                                    &mut ed,
                                );
                                let mut lanes = mm;
                                while lanes != 0 {
                                    let lane = lanes.trailing_zeros() as usize;
                                    lanes &= lanes - 1;
                                    hist[(ed[lane] + offset) as usize] += 1;
                                }
                            }
                        }
                        output_error = output_error
                            + tables.pa_t[a as usize].clone()
                                * tables.pcin_t[cin as usize].clone()
                                * (u_t.clone() * T::from_ratio(wrong, 1));
                        acc.record_error_block(
                            w_ac_f * (u_f * wrong as f64),
                            w_ac_f * (u_f * stats.sum_ed),
                            w_ac_f * (u_f * stats.sum_abs_ed),
                            if w_ac_f > 0.0 { stats.max_abs_ed } else { 0 },
                        );
                    } else {
                        let mut pb_sum_t = T::zero();
                        let mut pb_sum_f = 0.0f64;
                        let mut weighted_ed = 0.0f64;
                        let mut weighted_abs_ed = 0.0f64;
                        let mut max_abs_ed = 0u64;
                        macro_rules! settle {
                            ($lane:expr, $s:expr, $d:expr) => {{
                                let b = (b_base + (($s as u64) << 6) + $lane as u64) as usize;
                                let d: i64 = $d;
                                let w = tables.pb_f[b];
                                pb_sum_f += w;
                                weighted_ed += w * d as f64;
                                weighted_abs_ed += w * d.unsigned_abs() as f64;
                                if w > 0.0 {
                                    max_abs_ed = max_abs_ed.max(d.unsigned_abs());
                                }
                                hist[(d + offset) as usize] += 1;
                                pb_sum_t = pb_sum_t + tables.pb_t[b].clone();
                            }};
                        }
                        if dense {
                            // Lane-major walk (one wide load per lane); all
                            // accumulators are sums/maxima, so visit order
                            // only perturbs `f64` rounding (within the
                            // documented metric tolerance) and leaves exact
                            // `T` sums, counts and the histogram unchanged.
                            let mut mm_words = [0u64; 8];
                            debug_assert!(W::WORDS <= 8);
                            for (s, word) in mm_words.iter_mut().enumerate().take(W::WORDS) {
                                *word = diff.mismatch.word(s);
                            }
                            for (lane, row) in lane_dist.iter().enumerate() {
                                let row = *row;
                                for (s, word) in mm_words.iter().enumerate().take(W::WORDS) {
                                    if (word >> lane) & 1 == 1 {
                                        settle!(lane, s, row.word(s) as i64 - offset);
                                    }
                                }
                            }
                        } else {
                            for s in 0..W::WORDS {
                                let mm = diff.mismatch.word(s);
                                if mm == 0 {
                                    continue;
                                }
                                for i in 0..width {
                                    sub_approx[i] = approx_sum[i].word(s);
                                    sub_exact[i] = exact_sum[i].word(s);
                                }
                                error_distances64(
                                    &sub_approx,
                                    diff.approx_cout.word(s),
                                    &sub_exact,
                                    diff.exact_cout.word(s),
                                    mm,
                                    &mut ed,
                                );
                                let mut lanes = mm;
                                while lanes != 0 {
                                    let lane = lanes.trailing_zeros() as usize;
                                    lanes &= lanes - 1;
                                    settle!(lane, s, ed[lane]);
                                }
                            }
                        }
                        output_error = output_error
                            + tables.pa_t[a as usize].clone()
                                * tables.pcin_t[cin as usize].clone()
                                * pb_sum_t;
                        acc.record_error_block(
                            w_ac_f * pb_sum_f,
                            w_ac_f * weighted_ed,
                            w_ac_f * weighted_abs_ed,
                            if w_ac_f > 0.0 { max_abs_ed } else { 0 },
                        );
                    }
                }
                if let (true, Some((_, u_t))) = (diff.deviated.any(), &tables.uniform_pb) {
                    // Constant per-lane weight: one integer-count product
                    // per batch (exact for `Rational`).
                    stage_error = stage_error
                        + tables.pa_t[a as usize].clone()
                            * tables.pcin_t[cin as usize].clone()
                            * (u_t.clone() * T::from_ratio(diff.deviated.count_ones(), 1));
                } else if diff.deviated.any() {
                    // Cells like LPAA 5 deviate on most lanes, so per
                    // 64-lane subword sum over whichever of `deviated` /
                    // `!deviated` is sparser and, in the dense case,
                    // subtract from the precomputed subchunk total (exact
                    // for `Rational` — `Prob` requires `Sub` — and within
                    // rounding for `f64`).
                    let mut pb_sum_t = T::zero();
                    for s in 0..W::WORDS {
                        let dv = diff.deviated.word(s);
                        if dv == 0 {
                            continue;
                        }
                        let sub_base = b_base + ((s as u64) << 6);
                        let dense = dv.count_ones() > 32;
                        let mut sub_sum = T::zero();
                        let mut lanes = if dense { !dv } else { dv };
                        while lanes != 0 {
                            let lane = lanes.trailing_zeros() as usize;
                            lanes &= lanes - 1;
                            sub_sum =
                                sub_sum + tables.pb_t[(sub_base + lane as u64) as usize].clone();
                        }
                        if dense {
                            sub_sum = tables.chunk_pb_t[sub_chunk0 + s].clone() - sub_sum;
                        }
                        pb_sum_t = pb_sum_t + sub_sum;
                    }
                    stage_error = stage_error
                        + tables.pa_t[a as usize].clone()
                            * tables.pcin_t[cin as usize].clone()
                            * pb_sum_t;
                }
            }
        }
    }

    Partial {
        error_cases,
        output_error,
        stage_error,
        acc,
        work,
        hist,
    }
}

/// Merges worker partials **in range order** into the final report, so the
/// result is independent of scheduling.
fn finish<T: Prob>(partials: Vec<Partial<T>>, width: usize) -> ExhaustiveReport<T> {
    let offset = (1i64 << (width + 1)) - 1;
    let mut error_cases = 0u64;
    let mut output_error = T::zero();
    let mut stage_error = T::zero();
    let mut acc = MetricsAccumulator::default();
    let mut work = SimWork::default();
    let mut hist = vec![0u64; (1usize << (width + 2)) - 1];
    for partial in partials {
        error_cases += partial.error_cases;
        output_error = output_error + partial.output_error;
        stage_error = stage_error + partial.stage_error;
        acc.merge(partial.acc);
        work.cases += partial.work.cases;
        work.bit_additions += partial.work.bit_additions;
        work.comparisons += partial.work.comparisons;
        for (slot, count) in hist.iter_mut().zip(partial.hist) {
            *slot += count;
        }
    }
    let histogram: BTreeMap<i64, u64> = hist
        .into_iter()
        .enumerate()
        .filter(|&(_, count)| count != 0)
        .map(|(idx, count)| (idx as i64 - offset, count))
        .collect();
    ExhaustiveReport {
        cases: work.cases,
        error_cases,
        output_error_probability: output_error,
        stage_error_probability: stage_error,
        metrics: acc.finish(),
        histogram,
        work,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    #[test]
    fn accurate_adder_never_errs() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 5);
        let profile = InputProfile::<f64>::uniform(5);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert_eq!(r.error_cases, 0);
        assert_eq!(r.output_error_probability, 0.0);
        assert_eq!(r.stage_error_probability, 0.0);
        assert_eq!(r.metrics.max_absolute_error_distance, 0);
    }

    #[test]
    fn case_count_is_2_pow_2n_plus_1() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 3);
        let profile = InputProfile::<f64>::uniform(3);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert_eq!(r.cases, 1 << 7);
        // 3·N single-bit additions per case: approximate chain + accurate
        // reference chain + first-deviation walk.
        assert_eq!(r.work.bit_additions, r.cases * 3 * 3);
        assert_eq!(r.work.comparisons, 1 << 7);
    }

    #[test]
    fn bitsliced_work_accounting_matches_scalar_model() {
        // Width ≥ 6 exercises the bitsliced kernel; the work model must not
        // depend on which engine ran.
        let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 6);
        let profile = InputProfile::<f64>::uniform(6);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert_eq!(r.cases, 1 << 13);
        assert_eq!(r.work.bit_additions, r.cases * 3 * 6);
        assert_eq!(r.work.comparisons, r.cases);
    }

    #[test]
    fn uniform_weighting_equals_case_fraction() {
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 4);
        let profile = InputProfile::<Rational>::uniform(4);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert_eq!(
            r.output_error_probability,
            Rational::from_ratio(r.error_cases as i64, r.cases as i64)
        );
    }

    #[test]
    fn uniform_weighting_equals_case_fraction_bitsliced() {
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 7);
        let profile = InputProfile::<Rational>::uniform(7);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert_eq!(
            r.output_error_probability,
            Rational::from_ratio(r.error_cases as i64, r.cases as i64)
        );
    }

    #[test]
    fn uniform_fast_path_matches_scalar_oracle_on_every_backend() {
        // The uniform profile takes the factored `uniform_pb` settle path
        // (all-lane histogram walk, plane-space moments); pin it exactly —
        // in Rational — against the scalar oracle for a hybrid chain, on
        // every backend the host offers.
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa3.cell(),
            StandardCell::Lpaa7.cell(),
        ]);
        let profile = InputProfile::<Rational>::uniform(7);
        let oracle = exhaustive_scalar(&chain, &profile).expect("feasible");
        for backend in Backend::available() {
            let r = exhaustive_with_backend(&chain, &profile, 1, Some(backend)).expect("feasible");
            assert_eq!(
                r.output_error_probability, oracle.output_error_probability,
                "{backend}"
            );
            assert_eq!(
                r.stage_error_probability, oracle.stage_error_probability,
                "{backend}"
            );
            assert_eq!(r.histogram, oracle.histogram, "{backend}");
            assert_eq!(r.error_cases, oracle.error_cases, "{backend}");
        }
    }

    #[test]
    fn stage_error_at_least_output_error() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 3);
            let profile = InputProfile::<Rational>::constant(3, Rational::from_ratio(1, 5));
            let r = exhaustive(&chain, &profile).expect("feasible width");
            assert!(
                r.stage_error_probability >= r.output_error_probability,
                "{cell}"
            );
        }
    }

    #[test]
    fn width_mismatch_rejected() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 3);
        let profile = InputProfile::<f64>::uniform(4);
        assert!(matches!(
            exhaustive(&chain, &profile),
            Err(SimError::WidthMismatch {
                chain: 3,
                profile: 4
            })
        ));
    }

    #[test]
    fn oversized_width_rejected() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), MAX_EXHAUSTIVE_WIDTH + 1);
        let profile = InputProfile::<f64>::uniform(MAX_EXHAUSTIVE_WIDTH + 1);
        let err = exhaustive(&chain, &profile).unwrap_err();
        assert!(matches!(err, SimError::WidthTooLarge { .. }));
        assert!(err.to_string().contains("refused"));
        assert!(exhaustive_scalar(&chain, &profile).is_err());
        assert!(exhaustive_with(&chain, &profile, 2).is_err());
    }

    #[test]
    fn histogram_counts_all_cases() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 3);
        let profile = InputProfile::<f64>::uniform(3);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        let total: u64 = r.histogram.values().sum();
        assert_eq!(total, r.cases);
        let wrong: u64 = r
            .histogram
            .iter()
            .filter(|(d, _)| **d != 0)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(wrong, r.error_cases);
    }

    #[test]
    fn histogram_counts_all_cases_bitsliced() {
        let chain = AdderChain::uniform(StandardCell::Lpaa7.cell(), 6);
        let profile = InputProfile::<f64>::uniform(6);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        let total: u64 = r.histogram.values().sum();
        assert_eq!(total, r.cases);
        let wrong: u64 = r
            .histogram
            .iter()
            .filter(|(d, _)| **d != 0)
            .map(|(_, c)| c)
            .sum();
        assert_eq!(wrong, r.error_cases);
    }

    #[test]
    fn error_distance_metrics_for_known_single_stage() {
        // 1-bit LPAA 1, uniform inputs. Error rows: (0,1,0) → value 2 vs 1
        // (ED +1); (1,0,0) → value 0 vs 1 (ED −1). Each has weight 1/8.
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
        let profile = InputProfile::<f64>::uniform(1);
        let r = exhaustive(&chain, &profile).expect("feasible width");
        assert!((r.metrics.error_probability - 0.25).abs() < 1e-12);
        assert!((r.metrics.mean_error_distance - 0.0).abs() < 1e-12);
        assert!((r.metrics.mean_absolute_error_distance - 0.25).abs() < 1e-12);
        assert_eq!(r.metrics.max_absolute_error_distance, 1);
    }

    #[test]
    fn bitsliced_matches_scalar_exactly_for_rational() {
        // The hybrid mixes error-free MSBs with two different approximate
        // cells, and the profile is asymmetric — a thorough exactness probe.
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa4.cell(),
            StandardCell::Lpaa4.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa6.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Accurate.cell(),
        ]);
        let profile = InputProfile::<Rational>::new(
            (1..=7).map(|i| Rational::from_ratio(i, 11)).collect(),
            (1..=7).map(|i| Rational::from_ratio(i, 9)).collect(),
            Rational::from_ratio(2, 7),
        )
        .expect("valid profile");
        let fast = exhaustive(&chain, &profile).expect("feasible");
        let reference = exhaustive_scalar(&chain, &profile).expect("feasible");
        assert_eq!(fast.error_cases, reference.error_cases);
        assert_eq!(
            fast.output_error_probability,
            reference.output_error_probability
        );
        assert_eq!(
            fast.stage_error_probability,
            reference.stage_error_probability
        );
        assert_eq!(fast.histogram, reference.histogram);
        assert_eq!(fast.work, reference.work);
        assert_eq!(
            fast.metrics.max_absolute_error_distance,
            reference.metrics.max_absolute_error_distance
        );
    }

    #[test]
    fn every_backend_matches_u64_exactly_for_rational() {
        // The tentpole byte-identity contract: counts, histogram, work and
        // exact probabilities must be bit-for-bit identical on every
        // available backend, serial and parallel, hybrid chains included.
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa4.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa7.cell(),
            StandardCell::Lpaa3.cell(),
        ]);
        let profile = InputProfile::<Rational>::new(
            (1..=9).map(|i| Rational::from_ratio(i, 13)).collect(),
            (1..=9).map(|i| Rational::from_ratio(i, 10)).collect(),
            Rational::from_ratio(3, 8),
        )
        .expect("valid profile");
        let baseline =
            exhaustive_with_backend(&chain, &profile, 1, Some(Backend::U64)).expect("feasible");
        for backend in Backend::available() {
            for threads in [1usize, 3] {
                let r = exhaustive_with_backend(&chain, &profile, threads, Some(backend))
                    .expect("feasible");
                assert_eq!(r.error_cases, baseline.error_cases, "{backend} t{threads}");
                assert_eq!(
                    r.output_error_probability, baseline.output_error_probability,
                    "{backend} t{threads}"
                );
                assert_eq!(
                    r.stage_error_probability, baseline.stage_error_probability,
                    "{backend} t{threads}"
                );
                assert_eq!(r.histogram, baseline.histogram, "{backend} t{threads}");
                assert_eq!(r.work, baseline.work, "{backend} t{threads}");
            }
        }
    }

    #[test]
    fn wide_backend_narrows_to_fit_small_widths() {
        // Width 6 offers only 64 b values; forcing a wide backend must
        // narrow, not crash, and still match the scalar oracle.
        let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 6);
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(2, 9));
        let oracle = exhaustive_scalar(&chain, &profile).expect("feasible");
        for backend in Backend::available() {
            let r = exhaustive_with_backend(&chain, &profile, 1, Some(backend)).expect("feasible");
            assert_eq!(r.output_error_probability, oracle.output_error_probability);
            assert_eq!(r.histogram, oracle.histogram, "{backend}");
        }
    }

    #[test]
    fn parallel_matches_serial_exactly_for_rational() {
        let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 7);
        let profile = InputProfile::<Rational>::constant(7, Rational::from_ratio(3, 10));
        let serial = exhaustive(&chain, &profile).expect("feasible");
        for threads in [2usize, 3, 5, 64] {
            let parallel = exhaustive_with(&chain, &profile, threads).expect("feasible");
            assert_eq!(
                parallel.output_error_probability, serial.output_error_probability,
                "threads={threads}"
            );
            assert_eq!(
                parallel.stage_error_probability, serial.stage_error_probability,
                "threads={threads}"
            );
            assert_eq!(parallel.histogram, serial.histogram, "threads={threads}");
            assert_eq!(parallel.error_cases, serial.error_cases);
            assert_eq!(parallel.work, serial.work);
        }
    }
}
