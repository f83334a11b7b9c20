//! Unconditioned signal probabilities through the approximate chain.
//!
//! The paper propagates *success-conditioned* carry probabilities because it
//! targets the error probability. A separate, equally cheap recursion gives
//! the plain signal probabilities `P(carry_i = 1)` and `P(sum_i = 1)` of the
//! *approximate* hardware itself (the paper notes "the probability of the
//! output sum bits can also be evaluated using a similar matrices based
//! approach"). These are useful on their own, e.g. for switching-activity /
//! power estimation of the approximate datapath.

use sealpaa_cells::{AdderChain, FaInput, InputProfile};
use sealpaa_num::Prob;

use crate::analyzer::AnalyzeError;
use crate::joint::{check_width, pair_factors};

/// Signal probabilities of every sum bit and carry of an approximate chain.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalAnalysis<T> {
    /// `carry[i]` = `P(carry into stage i = 1)` for `i` in `0..=width`;
    /// entry `0` is the external carry-in, entry `width` the final carry-out.
    pub carry: Vec<T>,
    /// `sum[i]` = `P(sum bit i = 1)` for `i` in `0..width`.
    pub sum: Vec<T>,
}

/// Propagates unconditioned signal probabilities through the approximate
/// chain: because all input bits are independent, the carry is a Markov
/// chain and one pass suffices.
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
/// use sealpaa_core::signal_probabilities;
///
/// let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 8);
/// let signals = signal_probabilities(&chain, &InputProfile::uniform(8))?;
/// // A fair accurate adder keeps every signal perfectly balanced.
/// for p in signals.sum.iter().chain(&signals.carry) {
///     assert!((p - 0.5f64).abs() < 1e-12);
/// }
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn signal_probabilities<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<SignalAnalysis<T>, AnalyzeError> {
    check_width(chain, profile)?;
    let mut carry = vec![profile.p_cin().clone()];
    let mut sum = Vec::with_capacity(chain.width());
    for (i, cell) in chain.iter().enumerate() {
        let weights = pair_factors(profile, i).map(|(wa, wb)| wa * wb);
        let p_carry = [carry[i].complement(), carry[i].clone()];
        let mut p_sum_one = T::zero();
        let mut p_carry_one = T::zero();
        for input in FaInput::all() {
            // Row index (a, b, c_in): the pair is its top two bits.
            let row =
                weights[input.index() >> 1].clone() * p_carry[input.carry_in as usize].clone();
            let out = cell.truth_table().eval(input);
            if out.sum {
                p_sum_one = p_sum_one + row.clone();
            }
            if out.carry_out {
                p_carry_one = p_carry_one + row;
            }
        }
        sum.push(p_sum_one);
        carry.push(p_carry_one);
    }
    Ok(SignalAnalysis { carry, sum })
}

/// The success-conditioned sum-bit probabilities the paper sketches at the
/// end of Sec. 4.2: `result[i] = P(sum_i = 1 ∩ Succ through stage i)`,
/// computed as `IPM_i · S1` with the derived S1 selector.
///
/// Dividing by the prefix success (`Analysis::prefix_success`) conditions on
/// correctness: `P(sum_i = 1 | no error so far)`.
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
/// use sealpaa_core::success_sum_probabilities;
///
/// let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 4);
/// let p = success_sum_probabilities(&chain, &InputProfile::<f64>::uniform(4))?;
/// // An exact adder at fair inputs: success is certain and sums balanced.
/// for v in p {
///     assert!((v - 0.5).abs() < 1e-12);
/// }
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn success_sum_probabilities<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<Vec<T>, AnalyzeError> {
    use crate::carry::CarryState;
    use crate::matrices::{Ipm, MklMatrices};
    use crate::ops::OpCounts;

    check_width(chain, profile)?;
    let mut ops = OpCounts::default();
    let mut carry = CarryState::initial(profile.p_cin());
    let mut out = Vec::with_capacity(chain.width());
    for (i, cell) in chain.iter().enumerate() {
        let mkl = MklMatrices::from_truth_table(cell.truth_table());
        let ipm = Ipm::build(profile.pa(i), profile.pb(i), &carry, &mut ops);
        out.push(ipm.dot(mkl.s1(), &mut ops));
        carry = CarryState::new(ipm.dot(mkl.k(), &mut ops), ipm.dot(mkl.m(), &mut ops));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    #[test]
    fn accurate_uniform_signals_stay_balanced() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 6);
        let profile = InputProfile::<Rational>::uniform(6);
        let s = signal_probabilities(&chain, &profile).expect("widths match");
        for p in s.sum.iter().chain(&s.carry) {
            assert_eq!(*p, Rational::from_ratio(1, 2));
        }
    }

    #[test]
    fn lpaa5_signals_are_operand_pass_through() {
        // LPAA 5: sum = B, carry_out = A, so the signal probabilities simply
        // copy the operand probabilities.
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 3);
        let profile = InputProfile::new(vec![0.2, 0.3, 0.4], vec![0.6, 0.7, 0.8], 0.9)
            .expect("valid profile");
        let s = signal_probabilities(&chain, &profile).expect("widths match");
        for i in 0..3 {
            assert!((s.sum[i] - profile.pb(i)).abs() < 1e-12, "sum {i}");
            assert!((s.carry[i + 1] - profile.pa(i)).abs() < 1e-12, "carry {i}");
        }
        assert_eq!(s.carry[0], 0.9);
    }

    #[test]
    fn all_zero_inputs_give_deterministic_signals() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let profile = InputProfile::<Rational>::constant(4, Rational::zero());
        let s = signal_probabilities(&chain, &profile).expect("widths match");
        // LPAA 1 on (0,0,0) outputs (0,0): everything stays 0 surely.
        for p in s.sum.iter().chain(&s.carry) {
            assert_eq!(*p, Rational::zero());
        }
    }

    #[test]
    fn signals_match_exhaustive_enumeration_2bit() {
        // Brute-force reference on a 2-bit LPAA 4 chain.
        let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 2);
        let profile = InputProfile::<Rational>::new(
            vec![Rational::from_ratio(1, 4), Rational::from_ratio(2, 3)],
            vec![Rational::from_ratio(3, 5), Rational::from_ratio(1, 7)],
            Rational::from_ratio(1, 2),
        )
        .expect("valid profile");
        let s = signal_probabilities(&chain, &profile).expect("widths match");

        let mut sum0 = Rational::zero();
        let mut sum1 = Rational::zero();
        let mut cout = Rational::zero();
        for a in 0..4u64 {
            for b in 0..4u64 {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    let r = chain.add(a, b, cin);
                    if r.sum_bits() & 1 == 1 {
                        sum0 = sum0 + w.clone();
                    }
                    if r.sum_bits() & 2 == 2 {
                        sum1 = sum1 + w.clone();
                    }
                    if r.carry_out() {
                        cout = cout + w;
                    }
                }
            }
        }
        assert_eq!(s.sum[0], sum0);
        assert_eq!(s.sum[1], sum1);
        assert_eq!(s.carry[2], cout);
    }

    #[test]
    fn width_mismatch_is_reported() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let profile = InputProfile::<f64>::uniform(3);
        assert!(signal_probabilities(&chain, &profile).is_err());
        assert!(success_sum_probabilities(&chain, &profile).is_err());
    }

    #[test]
    fn success_sum_matches_enumeration() {
        // P(sum_i = 1 ∩ no stage erred through stage i), brute-forced.
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 3);
        let profile = InputProfile::<Rational>::constant(3, Rational::from_ratio(2, 5));
        let got = success_sum_probabilities(&chain, &profile).expect("widths match");

        let accurate = sealpaa_cells::TruthTable::accurate();
        let mut expect = vec![Rational::zero(); 3];
        for a in 0..8u64 {
            for b in 0..8u64 {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    // Walk the accurate carry chain, noting per-stage success
                    // and the approximate sum bit.
                    let mut carry = cin;
                    let mut ok = true;
                    for i in 0..3 {
                        let input = FaInput::new((a >> i) & 1 == 1, (b >> i) & 1 == 1, carry);
                        let out = chain.stage(i).truth_table().eval(input);
                        ok = ok && out == accurate.eval(input);
                        if ok && out.sum {
                            expect[i] = expect[i].clone() + w.clone();
                        }
                        if !ok {
                            break;
                        }
                        carry = accurate.eval(input).carry_out;
                    }
                }
            }
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn success_sum_bounded_by_prefix_success() {
        let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 5);
        let profile = InputProfile::<Rational>::constant(5, Rational::from_ratio(1, 3));
        let sums = success_sum_probabilities(&chain, &profile).expect("widths match");
        let analysis = crate::analyzer::analyze(&chain, &profile).expect("widths match");
        for (i, s) in sums.iter().enumerate() {
            assert!(*s <= analysis.prefix_success(i), "stage {i}");
        }
    }
}
