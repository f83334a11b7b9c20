//! Ground-truth trace replay through the bitsliced SIMD kernels.
//!
//! Replay answers "what error did this adder *actually* produce on this
//! workload": every trace record is evaluated through the approximate chain
//! and the accurate reference at once, one SIMD word of records (64–512
//! lanes, following the runtime-detected [`Backend`]) per pass, via the
//! chain's fused `CompiledKernel::eval_diff`. Each batch is settled in
//! plane space from end to end:
//!
//! 1. the crate's one records-to-planes transpose loads the batch's
//!    operand and carry-in planes (`W::WORDS` 64×64 block-swap transposes
//!    per operand word, at the op count of one);
//! 2. the fused pass yields the sum planes, mismatch and first-deviation
//!    words;
//! 3. [`error_magnitudes`] turns the mismatching lanes' error distances
//!    into sign and magnitude planes `m_i`;
//! 4. per-plane signed popcounts and the pairwise `popcnt(m_i & m_j)` add
//!    into `u64` counters.
//!
//! Each worker weights its counters once, at the end of its span, into the
//! exact sums: `Σd = Σ 2^i (pos_i − neg_i)`, `Σ|d| = Σ 2^i popcnt(m_i)` and
//! `Σd² = Σ_{i,j} 2^(i+j) popcnt(m_i & m_j)`. Every accumulator is an
//! **integer** (`i128`/`u128`), so the report is associative under merging:
//! the multithreaded replay is bit-for-bit identical for every thread count
//! *and every backend*, and to the scalar per-record oracle
//! [`replay_scalar`] — the differential suite pins this.

use sealpaa_cells::{
    dispatch, error_magnitudes, AdderChain, Backend, CompiledChain, CompiledKernel, FaInput,
    SimdKernel, SimdWord, TruthTable,
};
use sealpaa_sim::fan_out;

use crate::format::TraceRecord;
use crate::planes::RecordPlanes;

/// The widest chain replay supports. The binding constraint is the exact
/// squared-error accumulator: one record contributes up to `4^(width+1)` to
/// [`ReplayReport::sum_sq_ed`], and with the default reader bound of `2^32`
/// records the running `u128` sum stays overflow-free only for
/// `width ≤ 47` (`2·48 + 32 < 128`). Exactness is what makes replay
/// bit-for-bit identical across thread counts, so the bound is enforced
/// rather than saturated away.
pub const MAX_REPLAY_WIDTH: usize = 47;

/// Replay failures.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayError {
    /// The chain is wider than [`MAX_REPLAY_WIDTH`].
    WidthTooLarge {
        /// The chain width.
        width: usize,
    },
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::WidthTooLarge { width } => {
                write!(
                    f,
                    "replay supports widths up to {MAX_REPLAY_WIDTH}, got {width}"
                )
            }
        }
    }
}

impl std::error::Error for ReplayError {}

/// Aggregate ground truth of one replayed trace. All sums are exact
/// integers; the rate/moment accessors divide once, at read time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplayReport {
    /// Chain width the trace was replayed through.
    pub width: usize,
    /// Records replayed.
    pub records: u64,
    /// Records whose output value (sum bits + carry-out) was wrong.
    pub output_errors: u64,
    /// Records on which some stage deviated along the accurate carry chain
    /// (the paper's first-deviation semantics).
    pub stage_errors: u64,
    /// `Σ (approx − exact)` over all records (signed, exact).
    pub sum_ed: i128,
    /// `Σ |approx − exact|` over all records.
    pub sum_abs_ed: u128,
    /// `Σ (approx − exact)²` over all records.
    pub sum_sq_ed: u128,
    /// `max |approx − exact|` over all records.
    pub max_abs_ed: u64,
}

impl ReplayReport {
    fn empty(width: usize) -> ReplayReport {
        ReplayReport {
            width,
            records: 0,
            output_errors: 0,
            stage_errors: 0,
            sum_ed: 0,
            sum_abs_ed: 0,
            sum_sq_ed: 0,
            max_abs_ed: 0,
        }
    }

    /// Folds another (contiguous) report in; integer sums make this
    /// associative, hence thread-count invariant.
    fn absorb(&mut self, other: &ReplayReport) {
        self.records += other.records;
        self.output_errors += other.output_errors;
        self.stage_errors += other.stage_errors;
        self.sum_ed += other.sum_ed;
        self.sum_abs_ed += other.sum_abs_ed;
        self.sum_sq_ed += other.sum_sq_ed;
        self.max_abs_ed = self.max_abs_ed.max(other.max_abs_ed);
    }

    /// Fraction of records with a wrong output value (0 for an empty trace).
    pub fn output_error_rate(&self) -> f64 {
        self.rate(self.output_errors)
    }

    /// Fraction of records with a stage deviation — the paper's `P(Error)`
    /// semantics (0 for an empty trace).
    pub fn stage_error_rate(&self) -> f64 {
        self.rate(self.stage_errors)
    }

    /// Mean signed error distance (bias), `Σ ED / records`.
    pub fn mean_error_distance(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.sum_ed as f64 / self.records as f64
    }

    /// Mean absolute error distance (MED), `Σ |ED| / records`.
    pub fn mean_absolute_error_distance(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.sum_abs_ed as f64 / self.records as f64
    }

    /// Mean squared error distance (MSE), `Σ ED² / records`.
    pub fn mean_squared_error_distance(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.sum_sq_ed as f64 / self.records as f64
    }

    fn rate(&self, count: u64) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        count as f64 / self.records as f64
    }
}

fn check_width(chain: &AdderChain) -> Result<u64, ReplayError> {
    let width = chain.width();
    if width > MAX_REPLAY_WIDTH {
        return Err(ReplayError::WidthTooLarge { width });
    }
    Ok((1u64 << width) - 1)
}

/// One worker's share of a replay, dispatched to the selected backend's
/// word type.
struct ReplayWorker<'a> {
    compiled: &'a CompiledChain,
    records: &'a [TraceRecord],
}

impl SimdKernel for ReplayWorker<'_> {
    type Out = ReplayReport;

    #[inline(always)]
    fn run<W: SimdWord>(self) -> ReplayReport {
        replay_span(&self.compiled.kernel::<W>(), self.records)
    }
}

/// Popcounts of a span's error-magnitude planes, weighted into exact sums
/// once, at the end of the span.
struct MagnitudeCounts {
    /// `positive[i]` / `negative[i]`: lanes with plane `i` set and a
    /// positive / negative error distance.
    positive: Vec<u64>,
    negative: Vec<u64>,
    /// Upper triangle, row-major: `popcnt(m_i & m_j)` for `i < j`.
    pairs: Vec<u64>,
}

impl MagnitudeCounts {
    fn new(planes: usize) -> MagnitudeCounts {
        MagnitudeCounts {
            positive: vec![0; planes],
            negative: vec![0; planes],
            pairs: vec![0; planes * (planes - 1) / 2],
        }
    }

    #[inline(always)]
    fn add<W: SimdWord>(&mut self, mag: &[W], positive: W, negative: W) {
        let mut pairs = self.pairs.as_mut_slice();
        for (i, &m) in mag.iter().enumerate() {
            let (row, rest) = pairs.split_at_mut(mag.len() - 1 - i);
            pairs = rest;
            if !m.any() {
                continue;
            }
            self.positive[i] += (m & positive).count_ones();
            self.negative[i] += (m & negative).count_ones();
            for (count, &n) in row.iter_mut().zip(&mag[i + 1..]) {
                *count += (m & n).count_ones();
            }
        }
    }

    /// Adds the weighted sums into `report`: `d = Σ ±2^i` over a lane's
    /// magnitude bits, so `d² = Σ_i 4^i + Σ_{i<j} 2^(i+j+1)` over pairs of
    /// them.
    fn weigh_into(&self, report: &mut ReplayReport) {
        let mut pairs = self.pairs.iter();
        for (i, (&pos, &neg)) in self.positive.iter().zip(&self.negative).enumerate() {
            report.sum_ed += (i128::from(pos) - i128::from(neg)) << i;
            let ones = u128::from(pos) + u128::from(neg);
            report.sum_abs_ed += ones << i;
            report.sum_sq_ed += ones << (2 * i);
            for (j, &both) in (i + 1..self.positive.len()).zip(pairs.by_ref()) {
                report.sum_sq_ed += u128::from(both) << (i + j + 1);
            }
        }
    }
}

/// Replays one contiguous span of records through the compiled kernel,
/// `W::LANES` lanes at a time.
#[inline(always)]
fn replay_span<W: SimdWord>(kernel: &CompiledKernel<W>, records: &[TraceRecord]) -> ReplayReport {
    let width = kernel.width();
    let mut report = ReplayReport::empty(width);
    let mut planes = RecordPlanes::<W>::new(width);
    let mut approx = vec![W::zero(); width];
    let mut exact = vec![W::zero(); width];
    let mut mag = vec![W::zero(); width + 1];
    let mut counts = MagnitudeCounts::new(width + 1);
    for batch in records.chunks(W::LANES) {
        planes.load(batch);
        let diff = kernel.eval_diff(
            planes.a(),
            planes.b(),
            planes.cin(),
            &mut approx,
            &mut exact,
        );
        // Lanes past the batch hold zero operands, which an approximate
        // cell may still get wrong: mask them out of every count.
        let lanes = W::tail_mask(batch.len());
        let mismatch = diff.mismatch & lanes;
        report.records += batch.len() as u64;
        report.output_errors += mismatch.count_ones();
        report.stage_errors += (diff.deviated & lanes).count_ones();
        if !mismatch.any() {
            continue;
        }
        let signs = error_magnitudes(
            &approx,
            diff.approx_cout,
            &exact,
            diff.exact_cout,
            mismatch,
            &mut mag,
        );
        report.max_abs_ed = report.max_abs_ed.max(signs.max_abs_ed);
        counts.add(&mag, signs.positive, signs.negative);
    }
    counts.weigh_into(&mut report);
    report
}

/// Replays a trace through the bitsliced kernels, split into `threads`
/// contiguous spans (clamped to `1..=64`) that run through [`fan_out`] on
/// at most the host's parallelism. The result is bit-for-bit identical for
/// every thread count and SIMD backend (integer accumulation over an
/// order-independent merge) and to [`replay_scalar`]. Operand bits above
/// the chain width are ignored.
///
/// # Errors
///
/// Fails if the chain is wider than [`MAX_REPLAY_WIDTH`].
pub fn replay(
    chain: &AdderChain,
    records: &[TraceRecord],
    threads: usize,
) -> Result<ReplayReport, ReplayError> {
    replay_with_backend(chain, records, threads, None)
}

/// [`replay`] with an explicit SIMD backend: `None` uses
/// [`Backend::active`] (runtime detection, overridable through the
/// `SEALPAA_SIMD` environment variable). Because every accumulator is an
/// exact integer, the report does not depend on the backend — the
/// differential suite pins all backends byte-identical.
///
/// # Errors
///
/// Fails if the chain is wider than [`MAX_REPLAY_WIDTH`].
pub fn replay_with_backend(
    chain: &AdderChain,
    records: &[TraceRecord],
    threads: usize,
    backend: Option<Backend>,
) -> Result<ReplayReport, ReplayError> {
    check_width(chain)?;
    let backend = backend.unwrap_or_else(Backend::active);
    let compiled = CompiledChain::compile(chain);
    let batches = records.len().div_ceil(64);
    let spans = threads.clamp(1, 64).min(batches.max(1));
    // Contiguous 64-record-aligned spans, merged in span order.
    let reports = fan_out(spans, threads, |span| {
        let lo = (span * batches / spans) * 64;
        let hi = (((span + 1) * batches / spans) * 64).min(records.len());
        dispatch(
            backend,
            ReplayWorker {
                compiled: &compiled,
                records: &records[lo..hi],
            },
        )
    });
    let mut report = ReplayReport::empty(chain.width());
    for span in &reports {
        report.absorb(span);
    }
    Ok(report)
}

/// The scalar per-record replay oracle: [`AdderChain::add`] and a truth-table
/// walk per record. Slow, obviously correct — the differential baseline for
/// [`replay`] and the benchmark reference.
///
/// # Errors
///
/// Fails if the chain is wider than [`MAX_REPLAY_WIDTH`].
pub fn replay_scalar(
    chain: &AdderChain,
    records: &[TraceRecord],
) -> Result<ReplayReport, ReplayError> {
    let mask = check_width(chain)?;
    let accurate = TruthTable::accurate();
    let mut report = ReplayReport::empty(chain.width());
    for r in records {
        let (a, b) = (r.a & mask, r.b & mask);
        let approx = chain.add(a, b, r.cin);
        let exact = chain.accurate_sum(a, b, r.cin);
        report.records += 1;
        let d = approx.error_distance(exact);
        if d != 0 {
            report.output_errors += 1;
            let abs = u128::from(d.unsigned_abs());
            report.sum_ed += i128::from(d);
            report.sum_abs_ed += abs;
            report.sum_sq_ed += abs * abs;
            report.max_abs_ed = report.max_abs_ed.max(d.unsigned_abs());
        }
        // First-deviation walk along the accurate carry chain.
        let mut carry = r.cin;
        for (i, cell) in chain.iter().enumerate() {
            let input = FaInput::new((a >> i) & 1 == 1, (b >> i) & 1 == 1, carry);
            if cell.truth_table().eval(input) != accurate.eval(input) {
                report.stage_errors += 1;
                break;
            }
            carry = accurate.eval(input).carry_out;
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{generate, SynthKind};
    use sealpaa_cells::StandardCell;

    #[test]
    fn replay_rejects_overwide_chains() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 48);
        assert_eq!(
            replay(&chain, &[], 1),
            Err(ReplayError::WidthTooLarge { width: 48 })
        );
        assert!(replay_scalar(&chain, &[]).is_err());
    }

    #[test]
    fn empty_trace_reports_zeroes() {
        let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 8);
        let report = replay(&chain, &[], 4).expect("valid");
        assert_eq!(report.records, 0);
        assert_eq!(report.output_error_rate(), 0.0);
        assert_eq!(report.mean_squared_error_distance(), 0.0);
    }

    #[test]
    fn accurate_chain_never_errs() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 16);
        let records = generate(SynthKind::Uniform, 16, 1000, 3).expect("valid");
        let report = replay(&chain, &records, 2).expect("valid");
        assert_eq!(report.records, 1000);
        assert_eq!(report.output_errors, 0);
        assert_eq!(report.stage_errors, 0);
        assert_eq!(report.max_abs_ed, 0);
    }

    #[test]
    fn hand_checked_single_record() {
        // LPAA 1 width 1: a=1, b=1, cin=0 → approximate sum drops the carry
        // logic's row; verify against the scalar chain directly.
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
        let rec = TraceRecord::new(1, 1, false);
        let approx = chain.add(1, 1, false);
        let exact = chain.accurate_sum(1, 1, false);
        let expect = approx.error_distance(exact);
        let report = replay(&chain, &[rec], 1).expect("valid");
        assert_eq!(report.records, 1);
        assert_eq!(report.sum_ed, i128::from(expect));
        assert_eq!(report.output_errors, u64::from(expect != 0));
    }

    #[test]
    fn partial_batches_match_full_batches() {
        // 100 records = one full 64-lane batch + a 36-lane tail.
        let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 10);
        let records = generate(SynthKind::GaussianSum, 10, 100, 9).expect("valid");
        let fast = replay(&chain, &records, 1).expect("valid");
        let oracle = replay_scalar(&chain, &records).expect("valid");
        assert_eq!(fast, oracle);
    }

    #[test]
    fn every_backend_is_byte_identical_to_scalar() {
        // The tentpole byte-identity contract on the replay path: every
        // available backend, every thread count, awkward record counts
        // (tails shorter than a subword, shorter than the wide word).
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 12);
        for count in [1usize, 63, 64, 65, 200, 513] {
            let records = generate(SynthKind::Uniform, 12, count, 17).expect("valid");
            let oracle = replay_scalar(&chain, &records).expect("valid");
            for backend in Backend::available() {
                for threads in [1usize, 2, 7] {
                    let r = replay_with_backend(&chain, &records, threads, Some(backend))
                        .expect("valid");
                    assert_eq!(r, oracle, "{backend} t{threads} n{count}");
                }
            }
        }
    }
}
