//! A constant-coefficient FIR filter computed with approximate adders.
//!
//! The paper's motivating applications — image/video processing, DSP — are
//! dominated by multiply-accumulate chains with *constant* coefficients,
//! which hardware implements multiplier-lessly as shift-and-add. This
//! module builds exactly that: per tap, the coefficient is decomposed into
//! its set bits, every `sample << bit` is accumulated through an
//! approximate adder chain, and the output quality is measured against an
//! exact reference in PSNR-style terms.

use sealpaa_cells::{AdderChain, Cell};

use crate::serial;

/// A FIR filter `y[n] = Σ_t coeff[t] · x[n − t]` whose every addition runs
/// through an approximate accumulator chain.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::StandardCell;
/// use sealpaa_datapath::FirFilter;
///
/// // A 4-tap moving-average filter on 8-bit samples, exact cells.
/// let fir = FirFilter::new(StandardCell::Accurate.cell(), &[1, 1, 1, 1], 8)?;
/// let y = fir.apply(&[4, 4, 4, 4, 8, 8, 8, 8]);
/// assert_eq!(y[3], 16); // 4+4+4+4
/// assert_eq!(y[7], 32); // 8+8+8+8
/// # Ok::<(), sealpaa_datapath::DatapathError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FirFilter {
    accumulator: AdderChain,
    coefficients: Vec<u64>,
    sample_width: usize,
}

impl FirFilter {
    /// Builds a filter with the given unsigned coefficients for
    /// `sample_width`-bit samples. The accumulator is sized to hold the
    /// worst-case output exactly.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::TooWide`](crate::DatapathError::TooWide) if
    /// the worst-case accumulator would exceed 62 bits.
    ///
    /// # Panics
    ///
    /// Panics if `coefficients` is empty, all-zero, or `sample_width` is 0.
    pub fn new(
        cell: Cell,
        coefficients: &[u64],
        sample_width: usize,
    ) -> Result<Self, crate::DatapathError> {
        assert!(!coefficients.is_empty(), "a FIR filter needs taps");
        assert!(sample_width > 0, "samples need at least one bit");
        Ok(FirFilter {
            accumulator: serial::accumulator(cell, coefficients.iter().copied(), sample_width)?,
            coefficients: coefficients.to_vec(),
            sample_width,
        })
    }

    /// Number of taps.
    pub fn taps(&self) -> usize {
        self.coefficients.len()
    }

    /// Filters a sample stream (samples truncated to the configured width).
    /// `y[n]` uses only samples `x[n], …, x[n − taps + 1]`; leading outputs
    /// use the available prefix.
    pub fn apply(&self, samples: &[u64]) -> Vec<u64> {
        self.run(samples, false)
    }

    /// The exact reference output for the same stream.
    pub fn apply_exact(&self, samples: &[u64]) -> Vec<u64> {
        self.run(samples, true)
    }

    fn run(&self, samples: &[u64], exact: bool) -> Vec<u64> {
        // The accumulator check in `new` keeps `sample_width` below 62.
        let mask = (1u64 << self.sample_width) - 1;
        (0..samples.len())
            .map(|n| {
                let window = samples[..=n].iter().rev();
                self.coefficients
                    .iter()
                    .zip(window)
                    .fold(0, |acc, (&coeff, &x)| {
                        serial::shift_add(&self.accumulator, acc, x & mask, coeff, exact)
                    })
            })
            .collect()
    }

    /// Compares the approximate and exact outputs on a stream and
    /// summarises the damage.
    pub fn quality(&self, samples: &[u64]) -> FirQuality {
        let approx = self.apply(samples);
        let exact = self.apply_exact(samples);
        let n = approx.len().max(1);
        let mut wrong = 0u64;
        let mut sq_sum = 0.0f64;
        let mut max_abs = 0u64;
        let mut peak = 0u64;
        for (a, e) in approx.iter().zip(&exact) {
            if a != e {
                wrong += 1;
            }
            let abs = a.abs_diff(*e);
            max_abs = max_abs.max(abs);
            sq_sum += (abs as f64).powi(2);
            peak = peak.max(*e);
        }
        let mse = sq_sum / n as f64;
        FirQuality {
            outputs: approx.len() as u64,
            wrong_outputs: wrong,
            mse,
            psnr_db: serial::psnr_db(peak, mse),
            max_absolute_error: max_abs,
        }
    }
}

/// Quality summary of an approximate FIR run against the exact reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FirQuality {
    /// Outputs produced.
    pub outputs: u64,
    /// Outputs that differed from the exact filter.
    pub wrong_outputs: u64,
    /// Mean squared error of the output stream.
    pub mse: f64,
    /// Peak-signal-to-noise ratio in dB (peak = max exact output).
    /// `None` when the ratio is not a finite number: an error-free run
    /// (`mse == 0`) or an all-zero exact output (`peak == 0`) — the same
    /// convention as [`Image::psnr_against`](crate::Image::psnr_against).
    pub psnr_db: Option<f64>,
    /// Worst absolute output error.
    pub max_absolute_error: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    fn ramp(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| (i * 7 + 3) % 256).collect()
    }

    #[test]
    fn exact_filter_matches_direct_convolution() {
        let fir = FirFilter::new(StandardCell::Accurate.cell(), &[3, 1, 2], 8).expect("fits");
        let x = ramp(50);
        let y = fir.apply(&x);
        for n in 2..50 {
            let expect = 3 * x[n] + x[n - 1] + 2 * x[n - 2];
            assert_eq!(y[n], expect, "n={n}");
        }
    }

    #[test]
    fn exact_filter_quality_is_perfect() {
        let fir = FirFilter::new(StandardCell::Accurate.cell(), &[1, 2, 1], 8).expect("fits");
        let q = fir.quality(&ramp(100));
        assert_eq!(q.wrong_outputs, 0);
        assert_eq!(q.mse, 0.0);
        assert_eq!(q.psnr_db, None);
    }

    #[test]
    fn approximate_filter_degrades_gracefully() {
        let good = FirFilter::new(StandardCell::Lpaa6.cell(), &[1, 2, 1], 8).expect("fits");
        let bad = FirFilter::new(StandardCell::Lpaa2.cell(), &[1, 2, 1], 8).expect("fits");
        let x = ramp(400);
        let qg = good.quality(&x);
        let qb = bad.quality(&x);
        assert!(qg.wrong_outputs > 0, "LPAA 6 should err occasionally");
        let (pg, pb) = (
            qg.psnr_db.expect("LPAA 6 errs"),
            qb.psnr_db.expect("LPAA 2 errs"),
        );
        assert!(pg > pb, "LPAA 6 PSNR {pg} should beat LPAA 2 PSNR {pb}");
    }

    #[test]
    fn prefix_outputs_use_available_samples() {
        let fir = FirFilter::new(StandardCell::Accurate.cell(), &[1, 1], 8).expect("fits");
        let y = fir.apply(&[10, 20]);
        assert_eq!(y, vec![10, 30]);
    }

    #[test]
    fn accumulator_width_overflow_rejected() {
        // The last two gains overflow a u64 sum.
        for taps in [&[u64::MAX >> 8][..], &[u64::MAX, 2], &[1 << 63, 1 << 63]] {
            let err =
                FirFilter::new(StandardCell::Accurate.cell(), taps, 16).expect_err("too wide");
            assert!(
                matches!(err, crate::DatapathError::TooWide { .. }),
                "{taps:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "needs taps")]
    fn empty_taps_panics() {
        let _ = FirFilter::new(StandardCell::Accurate.cell(), &[], 8);
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn all_zero_taps_panics() {
        let _ = FirFilter::new(StandardCell::Accurate.cell(), &[0, 0], 8);
    }
}
