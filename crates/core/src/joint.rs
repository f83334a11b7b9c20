//! The joint-carry transition: one stage of the approximate and the
//! accurate chain, stepped together from the joint carry state
//! `s = c_approx | c_exact << 1`.
//!
//! The exact analyses (`exact.rs`, `magnitude.rs`, `distribution.rs` and
//! `extremes.rs`) each keep their own per-state accumulator and loop order,
//! which fix their `f64` bits, and take every step from here.

use sealpaa_cells::{AdderChain, FaInput, FaOutput, InputProfile, TruthTable};
use sealpaa_num::Prob;

use crate::analyzer::AnalyzeError;

/// Number of joint carry states.
pub(crate) const STATES: usize = 4;

/// The joint state entering stage 0, indexed by the carry-in: both chains
/// see the external carry.
pub(crate) const START: [usize; 2] = [0b00, 0b11];

/// One `(a_i, b_i)` row of a stage, taken from a joint carry state.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    /// Operand bit `a_i`.
    pub(crate) a: bool,
    /// Operand bit `b_i`.
    pub(crate) b: bool,
    /// The joint state after the stage.
    pub(crate) next: usize,
    /// `sum_approx − sum_exact ∈ {−1, 0, +1}`.
    pub(crate) d: i8,
    /// Whether the cell deviates from the accurate adder at the exact carry:
    /// the paper's error case, judged along the accurate carry chain.
    pub(crate) deviates: bool,
}

/// The `(a_i, b_i)` rows of a stage, in the order [`rows`] and
/// [`pair_factors`] return them.
const PAIRS: [(bool, bool); 4] = [(false, false), (false, true), (true, false), (true, true)];

/// The four rows of `table` from joint state `s`, built on the fly for
/// live states only and inlined into the generic analyses. Tabulating all
/// sixteen rows per stage, an out-of-line call, or `PAIRS.map` each read
/// slower at the 4–10 bit widths the datapath analyses run.
#[inline]
pub(crate) fn rows(table: &TruthTable, s: usize) -> [Row; 4] {
    let (c_approx, c_exact) = (s & 1 == 1, s & 2 == 2);
    let row = |(a, b): (bool, bool)| {
        let approx = table.eval(FaInput::new(a, b, c_approx));
        let exact = FaOutput::new(a ^ b ^ c_exact, (a & b) | (c_exact & (a ^ b)));
        Row {
            a,
            b,
            next: approx.carry_out as usize | (exact.carry_out as usize) << 1,
            d: approx.sum as i8 - exact.sum as i8,
            deviates: table.eval(FaInput::new(a, b, c_exact)) != exact,
        }
    };
    [row(PAIRS[0]), row(PAIRS[1]), row(PAIRS[2]), row(PAIRS[3])]
}

/// `(P(a_i = a), P(b_i = b))` for the four rows of position `i`.
pub(crate) fn pair_factors<T: Prob>(profile: &InputProfile<T>, i: usize) -> [(T, T); 4] {
    let factor = |bit: bool, p: &T| if bit { p.clone() } else { p.complement() };
    PAIRS.map(|(a, b)| (factor(a, profile.pa(i)), factor(b, profile.pb(i))))
}

/// `c_approx − c_exact` of a final state: the sign of its `±2^N` carry-out
/// discrepancy.
pub(crate) fn carry_sign(s: usize) -> i8 {
    (s & 1) as i8 - (s >> 1 & 1) as i8
}

/// The one width check of the analyses that take a profile.
pub(crate) fn check_width<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<(), AnalyzeError> {
    if chain.width() == profile.width() {
        Ok(())
    } else {
        Err(AnalyzeError::WidthMismatch {
            chain: chain.width(),
            profile: profile.width(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    #[test]
    fn rows_follow_both_truth_tables() {
        let accurate = TruthTable::accurate();
        for cell in StandardCell::ALL {
            let table = cell.truth_table();
            for s in 0..STATES {
                for (k, row) in rows(&table, s).into_iter().enumerate() {
                    assert_eq!((row.a, row.b), (k >> 1 == 1, k & 1 == 1));
                    let approx = table.eval(FaInput::new(row.a, row.b, s & 1 == 1));
                    let exact = accurate.eval(FaInput::new(row.a, row.b, s & 2 == 2));
                    assert_eq!(
                        row.next,
                        approx.carry_out as usize | (exact.carry_out as usize) << 1
                    );
                    assert_eq!(row.d, approx.sum as i8 - exact.sum as i8);
                    let at_exact_carry = FaInput::new(row.a, row.b, s & 2 == 2);
                    assert_eq!(row.deviates, table.is_error_case(at_exact_carry));
                }
            }
        }
    }
}
