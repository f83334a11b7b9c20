//! Bitsliced exhaustive error-distance histograms — the ground truth the
//! analytical engine is validated against.
//!
//! The sweep enumerates every `(a, b)` pair (and both carry-ins) and
//! histograms the signed error distance `approx − exact`. Like
//! `sealpaa-sim`'s exhaustive sweep it runs one SIMD word of additions per
//! step (64–512 lanes, following the runtime-detected [`Backend`]) on the
//! shared [`CompiledKernel`]: operand `b` advances through consecutive
//! values whose low six bit planes are compile-time lane patterns, each
//! block window is one uniform chain of its cell compiled once per sweep
//! and evaluated on the window's planes, and the accurate reference is
//! [`accurate_eval`]. Lanes whose outputs match the reference are counted
//! in bulk off the mismatch word; only deviating lanes are settled, one
//! 64-lane subword at a time by [`error_distances64`]. Lane order is
//! ascending case order on every backend, and all counts are integers, so
//! the histogram is byte-identical across backends.
//!
//! Work is metered per block: each case charges one bit-addition per
//! *window* bit (prediction bits are re-added, and the meter says so) plus
//! `N` for the accurate reference — so BENCH entries stay comparable
//! between homogeneous chains and heterogeneous block sweeps.

use std::collections::BTreeMap;
use std::ops::Range;

use sealpaa_cells::{
    accurate_eval, dispatch, error_distances64, splat_planes, AdderChain, Backend, CompiledChain,
    CompiledKernel, SimdKernel, SimdWord,
};
use sealpaa_core::ErrorDistribution;
use sealpaa_num::Prob;
use sealpaa_sim::SimWork;

use crate::config::{BlockConfig, BlockError};
use crate::functional::BlockAdder;

/// Widest configuration [`exhaustive_distance_histogram`] accepts:
/// `2^{2·14+1} ≈ 5·10^8` additions, seconds in release builds.
pub const MAX_EXHAUSTIVE_WIDTH: usize = 14;

/// Bit plane `t < 6` of 64 consecutive lane values `base + l`:
/// bit `l` of `LANE_PATTERNS[t]` is `(l >> t) & 1`.
const LANE_PATTERNS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// One batch's exhaustive result: the signed error-distance histogram over
/// all operand pairs at both carry-ins, plus the work metered to get it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExhaustiveDistanceReport {
    /// `d → number of input combinations with error distance d`, over all
    /// `2^{2N+1}` combinations (both carry-ins).
    pub histogram: BTreeMap<i64, u64>,
    /// Work performed, metered per block window bit.
    pub work: SimWork,
}

impl ExhaustiveDistanceReport {
    /// Input combinations counted (`2^{2N+1}`).
    pub fn cases(&self) -> u64 {
        self.histogram.values().sum()
    }

    /// Converts the counts into an exact PMF under *uniform* inputs — the
    /// distribution [`error_distance_distribution`] produces for
    /// `InputProfile::uniform`, which is what differential tests compare.
    ///
    /// [`error_distance_distribution`]: crate::error_distance_distribution
    pub fn to_distribution<T: Prob>(&self) -> ErrorDistribution<T> {
        let total = self.cases();
        ErrorDistribution {
            pmf: self
                .histogram
                .iter()
                .map(|(&d, &count)| (d, T::from_ratio(count, total)))
                .collect(),
        }
    }
}

/// Exhaustively histograms the signed error distance of a block
/// configuration over all `2^{2N+1}` input combinations (every operand
/// pair, both carry-ins), bitsliced 64 lanes at a time; widths below 6
/// bits fall back to the scalar [`BlockAdder`].
///
/// # Errors
///
/// Returns [`BlockError::ExhaustiveWidthTooLarge`] beyond
/// [`MAX_EXHAUSTIVE_WIDTH`].
///
/// # Examples
///
/// ```
/// use sealpaa_blocks::{exhaustive_distance_histogram, BlockConfig};
///
/// let config: BlockConfig = "4:0:accurate,4:2:accurate".parse()?;
/// let report = exhaustive_distance_histogram(&config)?;
/// assert_eq!(report.cases(), 1 << 17);
/// // An accurate-cell block adder only ever misses carries into bit 4.
/// assert_eq!(report.histogram.keys().copied().collect::<Vec<_>>(), vec![-16, 0]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn exhaustive_distance_histogram(
    config: &BlockConfig,
) -> Result<ExhaustiveDistanceReport, BlockError> {
    exhaustive_distance_histogram_with_backend(config, None)
}

/// [`exhaustive_distance_histogram`] with an explicit SIMD backend: `None`
/// uses [`Backend::active`] (runtime detection, overridable through the
/// `SEALPAA_SIMD` environment variable). The backend is narrowed when the
/// width offers fewer `b` values than the word has lanes; the histogram is
/// byte-identical on every backend.
///
/// # Errors
///
/// Same conditions as [`exhaustive_distance_histogram`].
pub fn exhaustive_distance_histogram_with_backend(
    config: &BlockConfig,
    backend: Option<Backend>,
) -> Result<ExhaustiveDistanceReport, BlockError> {
    let width = config.width();
    if width > MAX_EXHAUSTIVE_WIDTH {
        return Err(BlockError::ExhaustiveWidthTooLarge { width });
    }
    let mut histogram: BTreeMap<i64, u64> = BTreeMap::new();
    let cases = 1u64 << (2 * width + 1);
    let work = SimWork {
        cases,
        // Per case: every window bit of every block (prediction bits are
        // genuinely re-added, so they are genuinely charged), plus one
        // accurate reference bit per position.
        bit_additions: cases * (config.total_window_bits() + width) as u64,
        comparisons: cases,
    };
    if width < 6 {
        let adder = BlockAdder::new(config.clone());
        for cin in [false, true] {
            for a in 0..1u64 << width {
                for b in 0..1u64 << width {
                    let d = adder
                        .add(a, b, cin)
                        .error_distance(adder.accurate_sum(a, b, cin));
                    *histogram.entry(d).or_insert(0) += 1;
                }
            }
        }
        return Ok(ExhaustiveDistanceReport { histogram, work });
    }
    let backend = backend
        .unwrap_or_else(Backend::active)
        .narrowed_to_lanes(1usize << width);
    let histogram = dispatch(backend, HistogramWorker { config });
    Ok(ExhaustiveDistanceReport { histogram, work })
}

/// The bitsliced sweep dispatched to the selected backend's word type.
struct HistogramWorker<'a> {
    config: &'a BlockConfig,
}

impl SimdKernel for HistogramWorker<'_> {
    type Out = BTreeMap<i64, u64>;

    #[inline(always)]
    fn run<W: SimdWord>(self) -> Self::Out {
        let config = self.config;
        let width = config.width();
        // Per block: its window, where its result segment starts, and its
        // cell rippled across the window as one uniform chain.
        let windows: Vec<(Range<usize>, usize, CompiledKernel<W>)> = config
            .blocks()
            .iter()
            .enumerate()
            .map(|(j, block)| {
                let window = config.window(j);
                let result_start = window.end - block.width;
                let chain = AdderChain::uniform(block.cell.clone(), window.len());
                let kernel = CompiledChain::compile(&chain).kernel();
                (window, result_start, kernel)
            })
            .collect();
        let lanes_log2 = 6 + W::WORDS.trailing_zeros() as usize;
        debug_assert!(lanes_log2 <= width);
        let mut histogram: BTreeMap<i64, u64> = BTreeMap::new();
        let mut a_planes = vec![W::zero(); width];
        let mut b_planes = vec![W::zero(); width];
        let mut approx = vec![W::zero(); width];
        let mut exact = vec![W::zero(); width];
        let mut window_sum = vec![W::zero(); width];
        let mut sub_approx = vec![0u64; width];
        let mut sub_exact = vec![0u64; width];
        let mut ed = [0i64; 64];
        for cin in [W::zero(), W::ones()] {
            for a in 0..1u64 << width {
                splat_planes(a, &mut a_planes);
                for b_base in (0..1u64 << width).step_by(W::LANES) {
                    for (t, plane) in b_planes.iter_mut().enumerate() {
                        *plane = if t < 6 {
                            W::splat(LANE_PATTERNS[t])
                        } else if t < lanes_log2 {
                            W::from_fn(|s| (((s as u64) >> (t - 6)) & 1).wrapping_neg())
                        } else {
                            W::splat(((b_base >> t) & 1).wrapping_neg())
                        };
                    }
                    // Block 0's window takes the carry-in, every other
                    // window starts from 0; the top window's carry-out is
                    // the adder's.
                    let mut approx_cout = W::zero();
                    for (j, (window, result_start, kernel)) in windows.iter().enumerate() {
                        let sum = &mut window_sum[..window.len()];
                        approx_cout = kernel.eval_into(
                            &a_planes[window.clone()],
                            &b_planes[window.clone()],
                            if j == 0 { cin } else { W::zero() },
                            sum,
                        );
                        approx[*result_start..window.end]
                            .copy_from_slice(&sum[result_start - window.start..]);
                    }
                    let exact_cout = accurate_eval(&a_planes, &b_planes, cin, &mut exact);
                    let mut mismatch = approx_cout ^ exact_cout;
                    for t in 0..width {
                        mismatch = mismatch | (approx[t] ^ exact[t]);
                    }
                    *histogram.entry(0).or_insert(0) += W::LANES as u64 - mismatch.count_ones();
                    if !mismatch.any() {
                        continue;
                    }
                    // Mismatching lanes are settled one 64-lane subword at
                    // a time, in ascending case order.
                    for s in 0..W::WORDS {
                        let mm = mismatch.word(s);
                        if mm == 0 {
                            continue;
                        }
                        for t in 0..width {
                            sub_approx[t] = approx[t].word(s);
                            sub_exact[t] = exact[t].word(s);
                        }
                        error_distances64(
                            &sub_approx,
                            approx_cout.word(s),
                            &sub_exact,
                            exact_cout.word(s),
                            mm,
                            &mut ed,
                        );
                        let mut lanes = mm;
                        while lanes != 0 {
                            let lane = lanes.trailing_zeros() as usize;
                            lanes &= lanes - 1;
                            *histogram.entry(ed[lane]).or_insert(0) += 1;
                        }
                    }
                }
            }
        }
        histogram.retain(|_, count| *count > 0);
        histogram
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_num::Rational;

    /// Scalar oracle over all combinations, straight off [`BlockAdder`].
    fn scalar_histogram(config: &BlockConfig) -> BTreeMap<i64, u64> {
        let adder = BlockAdder::new(config.clone());
        let width = config.width();
        let mut histogram = BTreeMap::new();
        for cin in [false, true] {
            for a in 0..1u64 << width {
                for b in 0..1u64 << width {
                    let d = adder
                        .add(a, b, cin)
                        .error_distance(adder.accurate_sum(a, b, cin));
                    *histogram.entry(d).or_insert(0) += 1;
                }
            }
        }
        histogram
    }

    #[test]
    fn bitsliced_matches_scalar_oracle() {
        for spec in [
            "4:0:accurate,4:2:accurate",
            "3:0:lpaa1,3:1:accurate,2:2:lpaa4",
            "2:0:accurate,2:1:lpaa2,2:2:accurate,2:1:lpaa7",
        ] {
            let config: BlockConfig = spec.parse().expect("parses");
            let report = exhaustive_distance_histogram(&config).expect("in range");
            assert_eq!(report.histogram, scalar_histogram(&config), "{spec}");
        }
    }

    #[test]
    fn every_backend_matches_scalar_oracle() {
        // Byte-identity across backends, including a width (6) that forces
        // wide backends to narrow and a width (9) that exercises the
        // subword-index planes.
        for spec in ["3:0:lpaa5,3:1:lpaa1", "3:0:lpaa1,3:1:accurate,3:2:lpaa6"] {
            let config: BlockConfig = spec.parse().expect("parses");
            let oracle = scalar_histogram(&config);
            for backend in Backend::available() {
                let report = exhaustive_distance_histogram_with_backend(&config, Some(backend))
                    .expect("in range");
                assert_eq!(report.histogram, oracle, "{spec} on {backend}");
            }
        }
    }

    #[test]
    fn scalar_fallback_matches_oracle_below_six_bits() {
        let config: BlockConfig = "2:0:lpaa3,2:1:accurate,1:1:lpaa1".parse().expect("parses");
        let report = exhaustive_distance_histogram(&config).expect("in range");
        assert_eq!(report.histogram, scalar_histogram(&config));
        assert_eq!(report.cases(), 1 << 11);
    }

    #[test]
    fn work_meter_charges_every_window_bit() {
        let config: BlockConfig = "4:0:accurate,4:2:accurate".parse().expect("parses");
        let report = exhaustive_distance_histogram(&config).expect("in range");
        let cases = 1u64 << 17;
        assert_eq!(report.work.cases, cases);
        // Windows cover 4 + 6 bits; the accurate reference adds 8 more.
        assert_eq!(report.work.bit_additions, cases * 18);
        assert_eq!(report.work.comparisons, cases);
    }

    #[test]
    fn uniform_distribution_is_exact_counts_over_total() {
        let config: BlockConfig = "3:0:accurate,3:3:accurate".parse().expect("parses");
        let report = exhaustive_distance_histogram(&config).expect("in range");
        let dist = report.to_distribution::<Rational>();
        assert_eq!(dist.total_mass(), Rational::one());
        for (d, p) in &dist.pmf {
            assert_eq!(
                *p,
                <Rational as Prob>::from_ratio(report.histogram[d], 1 << 13)
            );
        }
    }

    #[test]
    fn width_bound_is_enforced() {
        let config =
            BlockConfig::homogeneous(15, 5, 2, sealpaa_cells::StandardCell::Accurate.cell())
                .expect("valid");
        let err = exhaustive_distance_histogram(&config).expect_err("too wide");
        assert_eq!(err, BlockError::ExhaustiveWidthTooLarge { width: 15 });
        assert_eq!(
            err.to_string(),
            "exhaustive enumeration supports at most 14 bits, got 15"
        );
    }
}
