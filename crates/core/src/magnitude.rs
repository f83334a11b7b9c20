//! Analytical error-magnitude moments — an extension beyond the paper.
//!
//! The paper quantifies *whether* an approximate adder errs; error-resilient
//! applications usually also care *by how much* (mean error distance and its
//! variance drive PSNR in the image/video workloads the paper motivates
//! with). Both moments of the signed error distance
//!
//! ```text
//! D = approx(a, b, cin) − exact(a, b, cin)
//!   = Σ_i (sumᵃ_i − sumᵉ_i)·2^i + (coutᵃ − coutᵉ)·2^N
//! ```
//!
//! are computable *exactly* in one linear pass with the same joint-carry
//! Markov chain used by [`exact_error_analysis`](crate::exact_error_analysis),
//! stepped by the crate's one joint-carry transition (`joint.rs`):
//! per joint carry state we carry the probability mass, the first moment
//! `E[D_partial]`, and the second moment `E[D_partial²]` of the error
//! accumulated so far; each stage's sum-bit discrepancy contributes
//! `d·2^i` with `d ∈ {−1, 0, +1}`.

use sealpaa_cells::{AdderChain, InputProfile};
use sealpaa_num::Prob;

use crate::analyzer::AnalyzeError;
use crate::joint::{carry_sign, check_width, pair_factors, rows, START, STATES};

/// Exact moments of the signed error distance of an approximate chain.
#[derive(Debug, Clone, PartialEq)]
pub struct MagnitudeAnalysis<T> {
    /// `E[D]` — the bias of the adder (signed; LPAA cells whose error rows
    /// overshoot and undershoot symmetrically have zero bias at symmetric
    /// inputs).
    pub mean_error_distance: T,
    /// `E[D²]` — the second raw moment; `√(E[D²])` is the RMS error
    /// distance.
    pub mean_squared_error_distance: T,
}

impl<T: Prob> MagnitudeAnalysis<T> {
    /// `Var[D] = E[D²] − E[D]²`.
    pub fn variance(&self) -> T {
        self.mean_squared_error_distance.clone()
            - self.mean_error_distance.clone() * self.mean_error_distance.clone()
    }

    /// Root-mean-square error distance, as `f64`.
    pub fn rms_error_distance(&self) -> f64 {
        self.mean_squared_error_distance.to_f64().max(0.0).sqrt()
    }
}

/// Per-state accumulator of the joint DP: probability mass and the first
/// two moments of the partial error distance.
#[derive(Clone)]
struct Moments<T> {
    mass: T,
    first: T,
    second: T,
}

impl<T: Prob> Moments<T> {
    fn zero() -> Self {
        Moments {
            mass: T::zero(),
            first: T::zero(),
            second: T::zero(),
        }
    }
}

/// `sign · scale` for a sign in {−1, 0, +1}, built from the non-negative
/// [`Prob`] constructors.
fn signed<T: Prob>(sign: i8, scale: &T) -> T {
    match sign {
        0 => T::zero(),
        1 => scale.clone(),
        _ => T::zero() - scale.clone(),
    }
}

/// Computes the exact first two moments of the signed error distance
/// `approx − exact` over the input distribution.
///
/// Works for any width and any [`Prob`] type: the per-stage weight `2^i` is
/// built by repeated doubling inside `T`, so `Rational` stays exact at any
/// width (with `f64`, widths beyond 53 bits round like any other `f64`
/// computation).
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
/// use sealpaa_core::error_magnitude;
///
/// // LPAA 1's two error rows push the result up and down by 1 with equal
/// // probability at uniform inputs: zero bias, E[D²] = 1/4 for one stage.
/// let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
/// let m = error_magnitude(&chain, &InputProfile::<f64>::uniform(1))?;
/// assert!(m.mean_error_distance.abs() < 1e-15);
/// assert!((m.mean_squared_error_distance - 0.25).abs() < 1e-15);
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn error_magnitude<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<MagnitudeAnalysis<T>, AnalyzeError> {
    check_width(chain, profile)?;
    let mut states = vec![Moments::<T>::zero(); STATES];
    let p_cin = profile.p_cin();
    states[START[1]].mass = p_cin.clone();
    states[START[0]].mass = p_cin.complement();

    let mut scale = T::one(); // 2^i, built by doubling
    for (i, cell) in chain.iter().enumerate() {
        let weights = pair_factors(profile, i).map(|(wa, wb)| wa * wb);
        let mut next = vec![Moments::<T>::zero(); STATES];
        for (s, src) in states.iter().enumerate() {
            if src.mass.is_zero() && src.first.is_zero() && src.second.is_zero() {
                continue;
            }
            for (row, w) in rows(cell.truth_table(), s).iter().zip(&weights) {
                if w.is_zero() {
                    continue;
                }
                let dv = signed(row.d, &scale);
                // D' = D + dv, so:
                //   E[1]      += w·m
                //   E[D']     += w·(F + dv·m)
                //   E[D'²]    += w·(S + 2·dv·F + dv²·m)
                let add_mass = w.clone() * src.mass.clone();
                let add_first = w.clone() * (src.first.clone() + dv.clone() * src.mass.clone());
                let two_dv = dv.clone() + dv.clone();
                let add_second = w.clone()
                    * (src.second.clone()
                        + two_dv * src.first.clone()
                        + dv.clone() * dv * src.mass.clone());
                let target = &mut next[row.next];
                target.mass = target.mass.clone() + add_mass;
                target.first = target.first.clone() + add_first;
                target.second = target.second.clone() + add_second;
            }
        }
        states = next;
        scale = scale.clone() + scale;
    }

    // The final carry-out discrepancy contributes ±2^N.
    let mut mean = T::zero();
    let mut second = T::zero();
    for (s, m) in states.iter().enumerate() {
        let dc = signed(carry_sign(s), &scale);
        mean = mean + m.first.clone() + dc.clone() * m.mass.clone();
        let two_dc = dc.clone() + dc.clone();
        second =
            second + m.second.clone() + two_dc * m.first.clone() + dc.clone() * dc * m.mass.clone();
    }
    Ok(MagnitudeAnalysis {
        mean_error_distance: mean,
        mean_squared_error_distance: second,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    /// Brute-force reference: weighted moments over all input combinations.
    fn brute_force(chain: &AdderChain, profile: &InputProfile<Rational>) -> (Rational, Rational) {
        let width = chain.width();
        let mut mean = Rational::zero();
        let mut second = Rational::zero();
        for a in 0..1u64 << width {
            for b in 0..1u64 << width {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    let d = chain
                        .add(a, b, cin)
                        .error_distance(chain.accurate_sum(a, b, cin));
                    let dv = Rational::from(d);
                    mean = mean + w.clone() * dv.clone();
                    second = second + w * dv.clone() * dv;
                }
            }
        }
        (mean, second)
    }

    #[test]
    fn moments_match_brute_force_for_all_cells() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 4);
            let profile = InputProfile::<Rational>::new(
                vec![
                    Rational::from_ratio(1, 3),
                    Rational::from_ratio(2, 5),
                    Rational::from_ratio(1, 2),
                    Rational::from_ratio(5, 7),
                ],
                vec![
                    Rational::from_ratio(4, 9),
                    Rational::from_ratio(1, 6),
                    Rational::from_ratio(3, 4),
                    Rational::from_ratio(2, 11),
                ],
                Rational::from_ratio(1, 5),
            )
            .expect("valid profile");
            let m = error_magnitude(&chain, &profile).expect("widths match");
            let (mean, second) = brute_force(&chain, &profile);
            assert_eq!(m.mean_error_distance, mean, "mean of {cell}");
            assert_eq!(
                m.mean_squared_error_distance, second,
                "second moment of {cell}"
            );
        }
    }

    #[test]
    fn hybrid_chain_moments_match_brute_force() {
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa7.cell(),
        ]);
        let profile = InputProfile::<Rational>::constant(4, Rational::from_ratio(3, 8));
        let m = error_magnitude(&chain, &profile).expect("widths match");
        let (mean, second) = brute_force(&chain, &profile);
        assert_eq!(m.mean_error_distance, mean);
        assert_eq!(m.mean_squared_error_distance, second);
    }

    #[test]
    fn accurate_chain_has_zero_moments() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 12);
        let profile = InputProfile::<Rational>::constant(12, Rational::from_ratio(2, 3));
        let m = error_magnitude(&chain, &profile).expect("widths match");
        assert!(m.mean_error_distance.is_zero());
        assert!(m.mean_squared_error_distance.is_zero());
        assert!(m.variance().is_zero());
        assert_eq!(m.rms_error_distance(), 0.0);
    }

    #[test]
    fn single_stage_lpaa1_moments() {
        // Errors: (0,1,0) → +1 (carry set) … actually D = +1: output 2 vs 1;
        // (1,0,0) → −1: output 0 vs 1. Both weight 1/8 at uniform inputs.
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
        let profile = InputProfile::<Rational>::uniform(1);
        let m = error_magnitude(&chain, &profile).expect("widths match");
        assert_eq!(m.mean_error_distance, Rational::zero());
        assert_eq!(m.mean_squared_error_distance, Rational::from_ratio(1, 4));
        assert_eq!(m.variance(), Rational::from_ratio(1, 4));
        assert!((m.rms_error_distance() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn variance_is_never_negative() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 6);
            let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(1, 10));
            let m = error_magnitude(&chain, &profile).expect("widths match");
            assert!(m.variance() >= Rational::zero(), "{cell}");
        }
    }

    #[test]
    fn wide_chain_runs_exactly_in_rationals() {
        // 2^i handling must not overflow at large widths.
        let chain = AdderChain::uniform(StandardCell::Lpaa7.cell(), 96);
        let profile = InputProfile::<Rational>::constant(96, Rational::from_ratio(1, 7));
        let m = error_magnitude(&chain, &profile).expect("widths match");
        assert!(m.variance() >= Rational::zero());
        assert!(!m.mean_squared_error_distance.is_zero());
    }

    #[test]
    fn width_mismatch_is_reported() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let profile = InputProfile::<f64>::uniform(3);
        assert!(error_magnitude(&chain, &profile).is_err());
    }
}
