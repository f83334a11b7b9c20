//! Exact joint-chain analysis — an extension beyond the paper.
//!
//! The paper's `P(Error)` uses *first-deviation* semantics: the adder
//! "fails" as soon as any stage's `(sum, carry_out)` differs from the
//! accurate full adder's, given the accurate carry chain. For the seven
//! paper cells on homogeneous chains this coincides with the probability
//! that the final *output value* is wrong (their exhaustive validation
//! matched exactly, and our tests confirm it). In general, however, a
//! carry-only deviation can be *cancelled* downstream — e.g. an LPAA 6 stage
//! (whose two error rows corrupt only the carry) followed by an LPAA 5 stage
//! can re-converge with every sum bit intact — making the paper's figure a
//! safe over-estimate of the value-error probability.
//!
//! This module runs both chains (approximate and accurate) *jointly* as one
//! Markov chain over the state
//! `(approximate carry, accurate carry, output already corrupted, some stage
//! deviated)`, stepping the carries with the crate's one joint-carry
//! transition (`joint.rs`). It is exact, linear-time, and yields:
//!
//! * the true output-value error probability (cancellation included),
//! * the paper's first-deviation error probability (for cross-validation
//!   against [`analyze`](crate::analyze)), and
//! * per-bit error rates of every sum bit.

use sealpaa_cells::{AdderChain, InputProfile};
use sealpaa_num::Prob;

use crate::analyzer::AnalyzeError;
use crate::joint::{carry_sign, check_width, pair_factors, rows, START};

/// Results of the exact joint-chain DP.
#[derive(Debug, Clone, PartialEq)]
pub struct ExactErrorAnalysis<T> {
    /// Probability that the final output (all sum bits + final carry-out)
    /// differs from the exact binary sum. Accounts for downstream
    /// cancellation of carry-only deviations.
    pub output_error: T,
    /// Probability that at least one stage deviates from the accurate full
    /// adder along the accurate carry chain — the paper's `P(Error)`
    /// semantics. Always ≥ `output_error`.
    pub stage_error: T,
    /// `bit_error[i]` = probability that sum bit `i` of the approximate
    /// chain differs from the accurate sum bit `i`.
    pub bit_error: Vec<T>,
}

/// Output-dirty and deviated flags, above the two joint-carry bits of a DP
/// state index: 4 × 2 × 2 = 16 states.
const DIRTY: usize = 4;
const DEVIATED: usize = 8;

/// Runs the exact joint-chain analysis.
///
/// # Errors
///
/// Returns [`AnalyzeError::WidthMismatch`] if `profile` does not cover
/// exactly `chain.width()` bits.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
/// use sealpaa_core::{analyze, exact_error_analysis};
///
/// let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
/// let profile = InputProfile::<f64>::uniform(8);
/// let exact = exact_error_analysis(&chain, &profile)?;
/// let paper = analyze(&chain, &profile)?;
/// // For the paper's cells on homogeneous chains the two notions agree.
/// assert!((exact.output_error - paper.error_probability()).abs() < 1e-12);
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn exact_error_analysis<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<ExactErrorAnalysis<T>, AnalyzeError> {
    check_width(chain, profile)?;
    // state[s]: probability mass in DP state s.
    let mut state = vec![T::zero(); 16];
    let p_cin = profile.p_cin();
    state[START[1]] = p_cin.clone();
    state[START[0]] = p_cin.complement();

    let mut bit_error = Vec::with_capacity(chain.width());
    for (i, cell) in chain.iter().enumerate() {
        let pairs = pair_factors(profile, i);
        let mut next = vec![T::zero(); 16];
        let mut sum_differs = T::zero();
        for s in 0..16 {
            if state[s].is_zero() {
                continue;
            }
            for (row, (wa, wb)) in rows(cell.truth_table(), s & 3).iter().zip(&pairs) {
                // `(mass·w_a)·w_b`, not `mass·(w_a·w_b)`: the order fixes
                // the f64 bits.
                let mass = state[s].clone() * wa.clone() * wb.clone();
                if mass.is_zero() {
                    continue;
                }
                let mut idx = row.next | (s & (DIRTY | DEVIATED));
                if row.d != 0 {
                    sum_differs = sum_differs + mass.clone();
                    idx |= DIRTY;
                }
                if row.deviates {
                    idx |= DEVIATED;
                }
                next[idx] = next[idx].clone() + mass;
            }
        }
        bit_error.push(sum_differs);
        state = next;
    }

    let mut output_error = T::zero();
    let mut stage_error = T::zero();
    for s in 0..16 {
        if state[s].is_zero() {
            continue;
        }
        if s & DIRTY != 0 || carry_sign(s & 3) != 0 {
            output_error = output_error + state[s].clone();
        }
        if s & DEVIATED != 0 {
            stage_error = stage_error + state[s].clone();
        }
    }
    Ok(ExactErrorAnalysis {
        output_error,
        stage_error,
        bit_error,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyzer::analyze;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    #[test]
    fn stage_error_matches_proposed_method_exactly() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 5);
            let profile = InputProfile::<Rational>::constant(5, Rational::from_ratio(3, 10));
            let exact = exact_error_analysis(&chain, &profile).expect("widths match");
            let paper = analyze(&chain, &profile).expect("widths match");
            assert_eq!(
                exact.stage_error,
                paper.error_probability(),
                "stage-error semantics must coincide with the paper's method for {cell}"
            );
        }
    }

    #[test]
    fn homogeneous_paper_cells_have_no_cancellation() {
        // The paper's exhaustive validation matched its analysis exactly;
        // that implicitly claims output error == first-deviation error for
        // LPAA 1–7. Verify analytically.
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 6);
            let profile = InputProfile::<Rational>::uniform(6);
            let exact = exact_error_analysis(&chain, &profile).expect("widths match");
            assert_eq!(
                exact.output_error, exact.stage_error,
                "no cancellation expected for homogeneous {cell}"
            );
        }
    }

    #[test]
    fn lpaa6_then_lpaa5_hybrid_cancels_errors() {
        // LPAA 6's error rows corrupt only the carry; a following LPAA 5
        // stage (sum = B, carry = A) can swallow the wrong carry on (0,0)
        // inputs, re-aligning the chains with all sum bits intact. The
        // paper's first-deviation estimate is therefore strictly larger than
        // the true output error for this hybrid.
        let chain =
            AdderChain::from_stages(vec![StandardCell::Lpaa6.cell(), StandardCell::Lpaa5.cell()]);
        let profile = InputProfile::<Rational>::uniform(2);
        let exact = exact_error_analysis(&chain, &profile).expect("widths match");
        assert!(
            exact.output_error < exact.stage_error,
            "expected cancellation: output {} vs stage {}",
            exact.output_error,
            exact.stage_error
        );
    }

    #[test]
    fn accurate_chain_is_error_free() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 8);
        let profile = InputProfile::<Rational>::constant(8, Rational::from_ratio(2, 7));
        let exact = exact_error_analysis(&chain, &profile).expect("widths match");
        assert_eq!(exact.output_error, Rational::zero());
        assert_eq!(exact.stage_error, Rational::zero());
        assert!(exact.bit_error.iter().all(|p| p.is_zero()));
    }

    #[test]
    fn bit_errors_match_brute_force_2bit() {
        let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 2);
        let profile = InputProfile::<Rational>::new(
            vec![Rational::from_ratio(1, 3), Rational::from_ratio(4, 5)],
            vec![Rational::from_ratio(2, 9), Rational::from_ratio(1, 2)],
            Rational::from_ratio(1, 6),
        )
        .expect("valid profile");
        let exact = exact_error_analysis(&chain, &profile).expect("widths match");

        let mut bit0 = Rational::zero();
        let mut bit1 = Rational::zero();
        let mut out_err = Rational::zero();
        for a in 0..4u64 {
            for b in 0..4u64 {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    let approx = chain.add(a, b, cin);
                    let acc = chain.accurate_sum(a, b, cin);
                    if (approx.sum_bits() ^ acc.sum_bits()) & 1 != 0 {
                        bit0 = bit0 + w.clone();
                    }
                    if (approx.sum_bits() ^ acc.sum_bits()) & 2 != 0 {
                        bit1 = bit1 + w.clone();
                    }
                    if approx != acc {
                        out_err = out_err + w;
                    }
                }
            }
        }
        assert_eq!(exact.bit_error[0], bit0);
        assert_eq!(exact.bit_error[1], bit1);
        assert_eq!(exact.output_error, out_err);
    }

    #[test]
    fn width_mismatch_is_reported() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 3);
        let profile = InputProfile::<f64>::uniform(2);
        assert!(exact_error_analysis(&chain, &profile).is_err());
    }
}
