//! Analytical error probabilities for GeAr adders.
//!
//! A sub-adder `j ≥ 1` of `GeAr(N, R, P)` errs exactly when the *true* carry
//! arriving at its window start is `1` **and** all `P` of its prediction
//! bits propagate (`a ⊕ b = 1`): a propagating run preserves the carry, so
//! the mis-predicted carry-in (0 instead of 1) survives into the block's
//! result bits and flips the sum bit there. Sub-adder 0 receives the real
//! carry-in and never errs.
//!
//! Because a propagating run *preserves* the carry value, the whole union
//! event can be tracked by a linear DP over the joint state
//! `(true carry, propagate-run-length capped at P)` — the GeAr analogue of
//! the paper's recursive method, in O(N·P) instead of the `2^k`-term
//! inclusion–exclusion expansion of Mazahir et al.

use sealpaa_num::Prob;

use crate::config::{GearConfig, GearError};

/// One bit position's `(probability, propagate, generate)` per (a, b) case.
type BitCases<T> = [(T, bool, bool); 4];

/// The [`BitCases`] of every bit position, once both probability slices are
/// checked to cover `N` bits.
fn bit_cases<T: Prob>(
    config: &GearConfig,
    pa: &[T],
    pb: &[T],
) -> Result<Vec<BitCases<T>>, GearError> {
    for len in [pa.len(), pb.len()] {
        if len != config.width() {
            return Err(GearError::WidthMismatch {
                expected: config.width(),
                actual: len,
            });
        }
    }
    Ok(pa
        .iter()
        .zip(pb)
        .map(|(pa, pb)| {
            let na = pa.complement();
            let nb = pb.complement();
            [
                (na.clone() * nb.clone(), false, false), // kill
                (na * pb.clone(), true, false),          // propagate
                (pa.clone() * nb, true, false),          // propagate
                (pa.clone() * pb.clone(), false, true),  // generate
            ]
        })
        .collect())
}

/// A DP state and its scratch twin, each 2 × (p+1) and all zero.
fn dp_state<T: Prob>(p: usize) -> [Vec<Vec<T>>; 2] {
    std::array::from_fn(|_| vec![vec![T::zero(); p + 1]; 2])
}

/// Zeroes every cell of a DP state in place.
fn clear<T: Prob>(dp: &mut [Vec<T>]) {
    for cell in dp.iter_mut().flatten() {
        *cell = T::zero();
    }
}

/// Total mass of a DP state, summed row by row.
fn total_mass<T: Prob>(dp: &[Vec<T>]) -> T {
    dp.iter()
        .flatten()
        .fold(T::zero(), |sum, cell| sum + cell.clone())
}

/// Runs the joint `(carry, propagate-run)` DP across every bit from the
/// external carry-in, in a [`dp_state`] a caller may reuse across runs.
/// Block `j ≥ 1`'s error is decided once bits `R·j .. R·j+P−1` have been
/// consumed; there, `at_check(j, state)` may first read or filter the
/// state. Every entry point runs this one loop, so they apply the exact
/// same operation order and agree bit for bit.
fn run_dp<'a, T: Prob>(
    config: &GearConfig,
    cases: &[BitCases<T>],
    p_cin: T,
    [dp, next]: &'a mut [Vec<Vec<T>>; 2],
    mut at_check: impl FnMut(usize, &mut [Vec<T>]),
) -> &'a [Vec<T>] {
    let (r, p) = (config.result_bits(), config.prediction_bits());
    clear(dp);
    dp[0][0] = p_cin.complement();
    dp[1][0] = p_cin;
    for (t, cases) in cases.iter().enumerate() {
        if t >= r + p && (t - p) % r == 0 {
            at_check((t - p) / r, dp);
        }
        // Advance one bit: accumulate every case transition into `next`.
        clear(next);
        for carry in 0..2usize {
            for run in 0..=p {
                if dp[carry][run].is_zero() {
                    continue;
                }
                for (weight, propagate, generate) in cases {
                    let new_carry = if *propagate {
                        carry
                    } else {
                        *generate as usize
                    };
                    let new_run = if *propagate { (run + 1).min(p) } else { 0 };
                    next[new_carry][new_run] =
                        next[new_carry][new_run].clone() + dp[carry][run].clone() * weight.clone();
                }
            }
        }
        std::mem::swap(dp, next);
    }
    dp
}

/// Exact error probability of a GeAr adder by the linear-time DP — the
/// recursive-analysis analogue the paper advertises for LLAAs (Sec. 1.1).
///
/// `pa[i]`/`pb[i]` are `P(A_i = 1)`/`P(B_i = 1)` (LSB first) and `p_cin` is
/// the external carry-in probability; all bits are independent.
///
/// # Errors
///
/// Returns [`GearError::WidthMismatch`] if the probability slices do not
/// cover exactly `N` bits.
///
/// # Examples
///
/// ```
/// use sealpaa_gear::{GearConfig, error_probability};
///
/// // A single full-width block is an exact adder.
/// let exact = GearConfig::new(8, 8, 0)?;
/// let p = error_probability::<f64>(&exact, &[0.5; 8], &[0.5; 8], 0.5)?;
/// assert_eq!(p, 0.0);
/// # Ok::<(), sealpaa_gear::GearError>(())
/// ```
pub fn error_probability<T: Prob>(
    config: &GearConfig,
    pa: &[T],
    pb: &[T],
    p_cin: T,
) -> Result<T, GearError> {
    let (cases, p) = (bit_cases(config, pa, pb)?, config.prediction_bits());
    let mut state = dp_state(p);
    // A block's overlap just completed: paths with carry 1 that propagated
    // through all P prediction bits are erroneous.
    let dp = run_dp(config, &cases, p_cin, &mut state, |_, dp| {
        dp[1][p] = T::zero()
    });
    Ok(total_mass(dp).complement())
}

/// Exact error probability via the traditional inclusion–exclusion
/// expansion over block subsets (the \[12\]-style analysis the paper compares
/// against): `2^{k−1} − 1` joint terms, each solved by a carry-chain DP.
/// Returns the probability and the number of subset terms evaluated.
///
/// Must agree exactly with [`error_probability`]; kept as the baseline for
/// cross-validation and cost comparison.
///
/// # Errors
///
/// Returns [`GearError::WidthMismatch`] if the probability slices do not
/// cover exactly `N` bits, and [`GearError::TooManyTerms`] past 24
/// fallible blocks (the subset expansion — the very cost this baseline
/// demonstrates — becomes impractical).
pub fn error_probability_inclexcl<T: Prob>(
    config: &GearConfig,
    pa: &[T],
    pb: &[T],
    p_cin: T,
) -> Result<(T, u64), GearError> {
    let cases = bit_cases(config, pa, pb)?;
    let fallible = config.block_count() - 1;
    if fallible > 24 {
        return Err(GearError::TooManyTerms { fallible });
    }
    let p = config.prediction_bits();
    let mut state = dp_state(p);
    let mut positive = T::zero();
    let mut negative = T::zero();
    for subset in 1u64..1 << fallible {
        // Joint probability that *every* block in the subset errs: keep only
        // mass satisfying the error condition at each selected check point.
        let dp = run_dp(config, &cases, p_cin.clone(), &mut state, |j, dp| {
            if (subset >> (j - 1)) & 1 == 1 {
                let keep = dp[1][p].clone();
                clear(dp);
                dp[1][p] = keep;
            }
        });
        let joint = total_mass(dp);
        if subset.count_ones() % 2 == 1 {
            positive = positive + joint;
        } else {
            negative = negative + joint;
        }
    }
    Ok((positive - negative, (1 << fallible) - 1))
}

/// The cheap approximation that treats block errors as independent:
/// `P ≈ 1 − ∏_j (1 − P(E_j))`. Useful to quantify how much the exact
/// treatment of the shared carry chain matters.
///
/// # Errors
///
/// Returns [`GearError::WidthMismatch`] if the probability slices do not
/// cover exactly `N` bits.
pub fn error_probability_block_independent<T: Prob>(
    config: &GearConfig,
    pa: &[T],
    pb: &[T],
    p_cin: T,
) -> Result<T, GearError> {
    let no_error = block_error_probabilities(config, pa, pb, p_cin)?
        .into_iter()
        .fold(T::one(), |no_error, single| no_error * single.complement());
    Ok(no_error.complement())
}

/// Per-block marginal error probabilities `P(E_j)` for the fallible blocks
/// (sub-adders `1..k`, in order) — useful for deciding *where* to spend
/// correction hardware.
///
/// # Errors
///
/// Returns [`GearError::WidthMismatch`] if the probability slices do not
/// cover exactly `N` bits.
///
/// # Examples
///
/// ```
/// use sealpaa_gear::{block_error_probabilities, GearConfig};
///
/// let config = GearConfig::new(8, 2, 2)?;
/// let blocks = block_error_probabilities::<f64>(&config, &[0.5; 8], &[0.5; 8], 0.0)?;
/// assert_eq!(blocks.len(), config.block_count() - 1);
/// # Ok::<(), sealpaa_gear::GearError>(())
/// ```
pub fn block_error_probabilities<T: Prob>(
    config: &GearConfig,
    pa: &[T],
    pb: &[T],
    p_cin: T,
) -> Result<Vec<T>, GearError> {
    let (cases, p) = (bit_cases(config, pa, pb)?, config.prediction_bits());
    // P(E_j): the unfiltered mass with carry 1 through all P prediction
    // bits when block j's error is decided, every block read in one pass.
    let mut marginals = Vec::with_capacity(config.block_count() - 1);
    run_dp(config, &cases, p_cin, &mut dp_state(p), |_, dp| {
        marginals.push(dp[1][p].clone())
    });
    Ok(marginals)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_num::Rational;

    #[test]
    fn single_block_config_is_error_free() {
        let config = GearConfig::new(8, 8, 0).expect("valid");
        let p = error_probability::<f64>(&config, &[0.3; 8], &[0.7; 8], 0.5).expect("widths");
        assert!(p.abs() < 1e-12, "got {p}");
    }

    #[test]
    fn linear_dp_equals_inclusion_exclusion() {
        let config = GearConfig::new(12, 2, 2).expect("valid");
        let pa: Vec<Rational> = (0..12)
            .map(|i| Rational::from_ratio(i as i64 + 1, 20))
            .collect();
        let pb: Vec<Rational> = (0..12)
            .map(|i| Rational::from_ratio(19 - i as i64, 20))
            .collect();
        let cin = Rational::from_ratio(1, 3);
        let linear = error_probability(&config, &pa, &pb, cin.clone()).expect("widths");
        let (ie, terms) = error_probability_inclexcl(&config, &pa, &pb, cin).expect("widths");
        assert_eq!(linear, ie);
        assert_eq!(terms, (1 << (config.block_count() - 1)) - 1);
    }

    #[test]
    fn inclusion_exclusion_refuses_past_24_fallible_blocks() {
        // GeAr(32, 1, 0): 31 fallible sub-adders, 2^31 − 1 subset terms.
        let config = GearConfig::new(32, 1, 0).expect("valid");
        let refused = error_probability_inclexcl::<f64>(&config, &[0.5; 32], &[0.5; 32], 0.0);
        assert_eq!(refused, Err(GearError::TooManyTerms { fallible: 31 }));
        let message = refused.unwrap_err().to_string();
        assert!(message.contains("31 fallible sub-adders"), "{message}");
        assert!(message.contains("at most 24"), "{message}");
    }

    #[test]
    fn independent_approximation_overestimates_here() {
        // Block errors are positively correlated through the shared carry
        // chain, so the independence approximation should not match exactly
        // (and typically overestimates the union for these configs).
        let config = GearConfig::new(12, 2, 2).expect("valid");
        let exact = error_probability::<f64>(&config, &[0.5; 12], &[0.5; 12], 0.5).expect("ok");
        let approx =
            error_probability_block_independent::<f64>(&config, &[0.5; 12], &[0.5; 12], 0.5)
                .expect("ok");
        assert!(
            (exact - approx).abs() > 1e-6,
            "exact {exact} vs approx {approx}"
        );
    }

    #[test]
    fn more_prediction_bits_reduce_error() {
        let pa = [0.5f64; 14];
        let pb = [0.5f64; 14];
        let mut last = 1.0f64;
        for p in [0usize, 2, 4, 6] {
            let config = GearConfig::new(14, 2, p).expect("valid");
            let err = error_probability(&config, &pa, &pb, 0.0).expect("widths");
            assert!(err < last, "P={p}: {err} should beat {last}");
            last = err;
        }
    }

    #[test]
    fn zero_carry_inputs_never_err() {
        // All A bits zero → no carry is ever generated → GeAr is exact.
        let config = GearConfig::new(8, 2, 2).expect("valid");
        let p = error_probability::<f64>(&config, &[0.0; 8], &[0.7; 8], 0.0).expect("widths");
        assert!(p.abs() < 1e-12, "got {p}");
    }

    #[test]
    fn width_mismatch_rejected() {
        let config = GearConfig::new(8, 2, 2).expect("valid");
        assert!(error_probability::<f64>(&config, &[0.5; 7], &[0.5; 8], 0.5).is_err());
    }
}
