//! Exact worst-case error analysis — an extension beyond the paper.
//!
//! Statistical error probability (the paper's metric) and worst-case error
//! bound different things: an application with a hard tolerance needs the
//! largest error the adder can *ever* produce, over all inputs. Because the
//! signed error distance decomposes per stage over the joint carry state,
//! its exact minimum and maximum are computable by an O(N) DP over the
//! crate's one joint-carry transition (`joint.rs`) — no enumeration —
//! together with *witness* operands that achieve them (reconstructed by
//! backtracking the DP).

use sealpaa_cells::AdderChain;

use crate::analyzer::AnalyzeError;
use crate::joint::{carry_sign, rows, START, STATES};

/// Widest chain [`worst_case_error`] accepts: witnesses are `u64` operands.
const MAX_WITNESS_WIDTH: usize = 63;

/// Concrete operands achieving an extreme error.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Witness {
    /// Operand A.
    pub a: u64,
    /// Operand B.
    pub b: u64,
    /// Carry-in.
    pub carry_in: bool,
}

/// The exact error-distance extremes of a chain, with witnesses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorstCaseError {
    /// The largest (most positive) achievable `approx − exact`.
    pub max_error: i128,
    /// Operands achieving `max_error`.
    pub max_witness: Witness,
    /// The smallest (most negative) achievable `approx − exact`.
    pub min_error: i128,
    /// Operands achieving `min_error`.
    pub min_witness: Witness,
}

impl WorstCaseError {
    /// The worst absolute error the adder can ever produce.
    pub fn max_absolute_error(&self) -> u128 {
        self.max_error
            .unsigned_abs()
            .max(self.min_error.unsigned_abs())
    }
}

/// Computes the exact minimum and maximum signed error distance of the
/// chain over **all** inputs, with witnesses.
///
/// # Errors
///
/// Returns [`AnalyzeError::WidthTooLarge`] if `chain.width() > 63` (witness
/// operands are reconstructed into `u64`).
///
/// # Examples
///
/// ```
/// use sealpaa_cells::{AdderChain, StandardCell};
/// use sealpaa_core::worst_case_error;
///
/// let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 8);
/// let wc = worst_case_error(&chain)?;
/// // The witnesses really do produce the claimed extremes.
/// let d = chain
///     .add(wc.max_witness.a, wc.max_witness.b, wc.max_witness.carry_in)
///     .error_distance(chain.accurate_sum(
///         wc.max_witness.a,
///         wc.max_witness.b,
///         wc.max_witness.carry_in,
///     ));
/// assert_eq!(d as i128, wc.max_error);
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn worst_case_error(chain: &AdderChain) -> Result<WorstCaseError, AnalyzeError> {
    let width = chain.width();
    if width > MAX_WITNESS_WIDTH {
        return Err(AnalyzeError::WidthTooLarge {
            width,
            max: MAX_WITNESS_WIDTH,
        });
    }

    // Two runs over the joint carry states, one maximizing and one
    // minimizing.
    let run = |maximize: bool| -> (i128, Witness) {
        let bad = if maximize { i128::MIN } else { i128::MAX };
        let better = |a: i128, b: i128| if maximize { a > b } else { a < b };
        // Per-stage backtracking links: table[stage][state] holds the
        // previous state and the stage's operand bits.
        let mut tables: Vec<[Option<(usize, bool, bool)>; STATES]> = Vec::with_capacity(width);
        let mut current: [i128; STATES] = [bad; STATES];
        current[START[0]] = 0;
        current[START[1]] = 0;
        for (i, cell) in chain.iter().enumerate() {
            let mut next: [i128; STATES] = [bad; STATES];
            let mut links: [Option<(usize, bool, bool)>; STATES] = [None; STATES];
            for (s, &value) in current.iter().enumerate() {
                if value == bad {
                    continue;
                }
                for row in rows(cell.truth_table(), s) {
                    let candidate = value + (i128::from(row.d) << i);
                    if next[row.next] == bad || better(candidate, next[row.next]) {
                        next[row.next] = candidate;
                        links[row.next] = Some((s, row.a, row.b));
                    }
                }
            }
            tables.push(links);
            current = next;
        }
        // Fold in the final carry discrepancy and pick the best end state.
        let carry_weight = 1i128 << width;
        let mut best_state = usize::MAX;
        let mut best_value = bad;
        for (s, &value) in current.iter().enumerate() {
            if value == bad {
                continue;
            }
            let total = value + i128::from(carry_sign(s)) * carry_weight;
            if best_state == usize::MAX || better(total, best_value) {
                best_state = s;
                best_value = total;
            }
        }
        // Backtrack the witness.
        let mut a = 0u64;
        let mut b = 0u64;
        let mut state = best_state;
        for i in (0..width).rev() {
            let (parent, bit_a, bit_b) =
                tables[i][state].expect("reachable states have backtracking links");
            a |= u64::from(bit_a) << i;
            b |= u64::from(bit_b) << i;
            state = parent;
        }
        // The initial state encodes the carry-in.
        let carry_in = state == START[1];
        (best_value, Witness { a, b, carry_in })
    };

    let (max_error, max_witness) = run(true);
    let (min_error, min_witness) = run(false);
    Ok(WorstCaseError {
        max_error,
        max_witness,
        min_error,
        min_witness,
    })
}

/// Convenience: the worst absolute error *relative to the output range*
/// (`2^(N+1) − 1`), a width-normalized severity score in `[0, 1]`.
///
/// # Errors
///
/// Same conditions as [`worst_case_error`].
pub fn worst_case_relative_error(chain: &AdderChain) -> Result<f64, AnalyzeError> {
    let wc = worst_case_error(chain)?;
    let range = (1u128 << (chain.width() + 1)) - 1;
    Ok(wc.max_absolute_error() as f64 / range as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::error_distribution;
    use sealpaa_cells::{InputProfile, StandardCell};
    use sealpaa_num::Rational;

    fn verify_witness(chain: &AdderChain, w: Witness, expect: i128) {
        let d = chain
            .add(w.a, w.b, w.carry_in)
            .error_distance(chain.accurate_sum(w.a, w.b, w.carry_in));
        assert_eq!(
            d as i128, expect,
            "witness a={:#x} b={:#x} cin={}",
            w.a, w.b, w.carry_in
        );
    }

    #[test]
    fn extremes_match_distribution_support_for_all_cells() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 5);
            let wc = worst_case_error(&chain).expect("width ok");
            // Every input has positive probability at p = 1/2, so the PMF
            // support's extremes are the true extremes.
            let dist = error_distribution(&chain, &InputProfile::<Rational>::uniform(5))
                .expect("width ok");
            let d_min = dist.pmf.first().expect("non-empty").0 as i128;
            let d_max = dist.pmf.last().expect("non-empty").0 as i128;
            assert_eq!(wc.min_error, d_min, "{cell} min");
            assert_eq!(wc.max_error, d_max, "{cell} max");
        }
    }

    #[test]
    fn witnesses_reproduce_the_extremes() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 12);
            let wc = worst_case_error(&chain).expect("width ok");
            verify_witness(&chain, wc.max_witness, wc.max_error);
            verify_witness(&chain, wc.min_witness, wc.min_error);
        }
    }

    #[test]
    fn hybrid_chain_witnesses_hold() {
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa7.cell(),
        ]);
        let wc = worst_case_error(&chain).expect("width ok");
        verify_witness(&chain, wc.max_witness, wc.max_error);
        verify_witness(&chain, wc.min_witness, wc.min_error);
        assert!(wc.max_error >= 0 && wc.min_error <= 0);
    }

    #[test]
    fn accurate_chain_has_zero_extremes() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 16);
        let wc = worst_case_error(&chain).expect("width ok");
        assert_eq!(wc.max_error, 0);
        assert_eq!(wc.min_error, 0);
        assert_eq!(wc.max_absolute_error(), 0);
    }

    #[test]
    fn wide_chains_are_linear_time() {
        // 60 bits would need 2^121 enumeration; the DP does it instantly.
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 60);
        let wc = worst_case_error(&chain).expect("width ok");
        verify_witness(&chain, wc.max_witness, wc.max_error);
        assert!(wc.max_absolute_error() > 1 << 50);
    }

    #[test]
    fn relative_error_is_normalized() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 8);
        let rel = worst_case_relative_error(&chain).expect("width ok");
        assert!((0.0..=1.0).contains(&rel));
        assert!(rel > 0.0);
    }

    #[test]
    fn oversized_width_rejected() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 64);
        let refused = AnalyzeError::WidthTooLarge { width: 64, max: 63 };
        assert_eq!(worst_case_error(&chain), Err(refused.clone()));
        assert_eq!(worst_case_relative_error(&chain), Err(refused));
    }
}
