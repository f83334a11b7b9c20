//! What the serial models ([`FirFilter`](crate::FirFilter),
//! [`Conv2d`](crate::Conv2d) and
//! [`ShiftAddMultiplier`](crate::ShiftAddMultiplier)) share: one
//! accumulator chain that adds `x << bit` for every set bit of a constant
//! coefficient and drops its carry-out, and one PSNR rule.

use sealpaa_cells::{AdderChain, Cell};

use crate::graph::DatapathError;

/// A `cell` accumulator wide enough to hold the worst-case output
/// `(2^operand_bits − 1) · Σ coefficients` exactly.
///
/// # Errors
///
/// [`DatapathError::TooWide`] if that takes more than 62 bits.
///
/// # Panics
///
/// Panics if every coefficient is zero.
pub(crate) fn accumulator(
    cell: Cell,
    coefficients: impl IntoIterator<Item = u64>,
    operand_bits: usize,
) -> Result<AdderChain, DatapathError> {
    // A u128 sum of u64 values cannot wrap short of 2^64 terms.
    let gain: u128 = coefficients.into_iter().map(u128::from).sum();
    assert!(gain > 0, "at least one coefficient must be non-zero");
    let width = operand_bits.saturating_add(128 - gain.leading_zeros() as usize);
    if width > 62 {
        return Err(DatapathError::TooWide { width });
    }
    Ok(AdderChain::uniform(cell, width))
}

/// `acc + coeff · x` as shift-adds through `chain`: `x << bit` for every
/// set bit of `coeff`, LSB first, each sum keeping only the chain's sum
/// bits. `exact` replaces every approximate addition by exact addition at
/// the same width, the golden reference.
pub(crate) fn shift_add(chain: &AdderChain, acc: u64, x: u64, coeff: u64, exact: bool) -> u64 {
    (0..64)
        .filter(|bit| (coeff >> bit) & 1 == 1)
        .fold(acc, |acc, bit| {
            let term = x << bit;
            let sum = if exact {
                chain.accurate_sum(acc, term, false)
            } else {
                chain.add(acc, term, false)
            };
            sum.sum_bits()
        })
}

/// `10·log10(peak² / mse)` in dB; `None` when that is not a finite number:
/// an error-free output (`mse == 0`) or an all-zero reference
/// (`peak == 0`).
pub(crate) fn psnr_db(peak: u64, mse: f64) -> Option<f64> {
    (mse != 0.0 && peak != 0).then(|| 10.0 * ((peak as f64).powi(2) / mse).log10())
}
