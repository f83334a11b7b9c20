//! The exact distribution of the signed error distance — an extension
//! beyond the paper.
//!
//! Where [`error_magnitude`](crate::error_magnitude) gives the first two
//! moments in O(N), this module computes the *entire* probability mass
//! function `P(approx − exact = d)` by a sparse dynamic program over the
//! joint carry state, stepped by the crate's one joint-carry transition
//! (`joint.rs`). The support of the partial error grows with the
//! width (it is a subset of `(−2^N, 2^N)`), so this is reserved for the
//! moderate widths where a full histogram is actually interpretable.
//!
//! [`ErrorDistribution`] itself is shared: `sealpaa-blocks` fills the same
//! type for block-based adders, whose accurate-cell supports stay tiny up
//! to 47 bits.

use std::collections::BTreeMap;

use sealpaa_cells::{AdderChain, InputProfile};
use sealpaa_num::Prob;

use crate::analyzer::AnalyzeError;
use crate::joint::{carry_sign, check_width, pair_factors, rows, START, STATES};

/// Widest chain [`error_distribution`] accepts; beyond this the support can
/// reach millions of points and the histogram stops being useful.
pub const MAX_DISTRIBUTION_WIDTH: usize = 20;

/// The exact probability mass function of a signed error distance
/// `D = approx − exact` — the one PMF type of the workspace, filled by
/// [`error_distribution`] for ripple chains and by `sealpaa-blocks` for
/// block-based adders.
///
/// Support keys are `i64`: chains stop at [`MAX_DISTRIBUTION_WIDTH`] bits
/// and block adders at 47, so every `|d|` is below `2^48`.
#[derive(Debug, Clone, PartialEq)]
pub struct ErrorDistribution<T> {
    /// `(d, P(D = d))` pairs in ascending `d`, zero-probability entries
    /// omitted. Includes `d = 0` (the success mass) when non-zero.
    pub pmf: Vec<(i64, T)>,
}

impl<T: Prob> ErrorDistribution<T> {
    /// `P(D = d)`.
    pub fn probability_of(&self, d: i64) -> T {
        self.pmf
            .iter()
            .find(|(v, _)| *v == d)
            .map(|(_, p)| p.clone())
            .unwrap_or_else(T::zero)
    }

    /// `P(D ≠ 0)` — the probability the output value is wrong; for a chain
    /// it equals the output-value error probability of
    /// [`exact_error_analysis`](crate::exact_error_analysis).
    pub fn error_rate(&self) -> T {
        self.tail_beyond(0)
    }

    /// `E[D]` — the signed bias (cross-checkable against
    /// [`error_magnitude`](crate::error_magnitude)).
    pub fn mean(&self) -> T {
        self.pmf.iter().fold(T::zero(), |acc, (d, p)| {
            acc + signed_scale::<T>(*d) * p.clone()
        })
    }

    /// `E[|D|]` — the mean error distance (MED).
    pub fn mean_absolute(&self) -> T {
        self.pmf.iter().fold(T::zero(), |acc, (d, p)| {
            acc + unsigned_scale::<T>(u128::from(d.unsigned_abs())) * p.clone()
        })
    }

    /// `E[D²]` — the mean squared error distance (MSE); each `d²` is formed
    /// in `u128`, exact for every `|d| < 2^64`.
    pub fn mean_squared(&self) -> T {
        self.pmf.iter().fold(T::zero(), |acc, (d, p)| {
            let mag = u128::from(d.unsigned_abs());
            acc + unsigned_scale::<T>(mag * mag) * p.clone()
        })
    }

    /// `E[|D|] / (2^{width+1} − 1)` — the mean error distance normalized by
    /// the largest representable output (sum bits plus carry), the usual
    /// width-independent quality score (often written NMED or MRED against
    /// the full-scale output).
    ///
    /// # Panics
    ///
    /// Panics if `width > 62` (the normalizer must fit `u64`).
    pub fn normalized_mean_absolute(&self, width: usize) -> T {
        assert!(width <= 62, "normalizer 2^(width+1)-1 must fit u64");
        let full_scale = (1u64 << (width + 1)) - 1;
        let inv = T::from_ratio(1, full_scale);
        self.mean_absolute() * inv
    }

    /// `P(|D| > bound)` — the tail mass beyond an application's error
    /// tolerance, the quantity quality-configurable designs are sized by.
    pub fn tail_beyond(&self, bound: u64) -> T {
        self.pmf
            .iter()
            .filter(|(d, _)| d.unsigned_abs() > bound)
            .fold(T::zero(), |acc, (_, p)| acc + p.clone())
    }

    /// Largest `|d|` with non-zero probability (`0` for an exact adder).
    pub fn max_absolute_error(&self) -> u64 {
        self.pmf
            .iter()
            .map(|(d, _)| d.unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// The cumulative distribution `(d, P(D ≤ d))`, one entry per support
    /// point in ascending `d`; the last entry's probability is the total
    /// mass (exactly 1 for a complete distribution).
    pub fn cdf(&self) -> Vec<(i64, T)> {
        let mut acc = T::zero();
        self.pmf
            .iter()
            .map(|(d, p)| {
                acc = acc.clone() + p.clone();
                (*d, acc.clone())
            })
            .collect()
    }

    /// Total probability mass (must be 1 for a complete distribution;
    /// exposed so exact tests can assert it).
    pub fn total_mass(&self) -> T {
        self.pmf
            .iter()
            .fold(T::zero(), |acc, (_, p)| acc + p.clone())
    }
}

/// Builds `T`'s representation of a (possibly negative) integer.
fn signed_scale<T: Prob>(d: i64) -> T {
    let mag = unsigned_scale::<T>(u128::from(d.unsigned_abs()));
    if d < 0 {
        T::zero() - mag
    } else {
        mag
    }
}

/// Builds `T`'s representation of a `u128` exactly. Horner over 32-bit
/// limbs: every limb stays far below `i64::MAX`, which `from_ratio`'s
/// signed `Rational` implementation requires.
fn unsigned_scale<T: Prob>(mag: u128) -> T {
    if mag <= u128::from(u32::MAX) {
        return T::from_ratio(mag as u64, 1);
    }
    let two32 = T::from_ratio(1u64 << 32, 1);
    let mut acc = T::zero();
    for i in (0..4).rev() {
        let limb = ((mag >> (32 * i)) & u128::from(u32::MAX)) as u64;
        acc = acc * two32.clone() + T::from_ratio(limb, 1);
    }
    acc
}

/// Computes the exact PMF of the signed error distance.
///
/// # Errors
///
/// Returns [`AnalyzeError::WidthMismatch`] if `profile` does not match the
/// chain, and [`AnalyzeError::WidthTooLarge`] if `chain.width()` exceeds
/// [`MAX_DISTRIBUTION_WIDTH`].
///
/// # Examples
///
/// ```
/// use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
/// use sealpaa_core::error_distribution;
///
/// let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
/// let dist = error_distribution(&chain, &InputProfile::<f64>::uniform(1))?;
/// // One stage of LPAA 1: D ∈ {−1, 0, +1} with P(±1) = 1/8 each.
/// assert_eq!(dist.pmf.len(), 3);
/// assert!((dist.probability_of(1) - 0.125).abs() < 1e-12);
/// assert_eq!(dist.max_absolute_error(), 1);
/// # Ok::<(), sealpaa_core::AnalyzeError>(())
/// ```
pub fn error_distribution<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<ErrorDistribution<T>, AnalyzeError> {
    check_width(chain, profile)?;
    if chain.width() > MAX_DISTRIBUTION_WIDTH {
        return Err(AnalyzeError::WidthTooLarge {
            width: chain.width(),
            max: MAX_DISTRIBUTION_WIDTH,
        });
    }
    // state[(joint carries)] -> partial error distance -> probability mass.
    let mut states: Vec<BTreeMap<i64, T>> = vec![BTreeMap::new(); STATES];
    let p_cin = profile.p_cin();
    if !p_cin.is_zero() {
        states[START[1]].insert(0, p_cin.clone());
    }
    if !p_cin.complement().is_zero() {
        states[START[0]].insert(0, p_cin.complement());
    }

    for (i, cell) in chain.iter().enumerate() {
        let weights = pair_factors(profile, i).map(|(wa, wb)| wa * wb);
        let mut next: Vec<BTreeMap<i64, T>> = vec![BTreeMap::new(); STATES];
        for (s, dist) in states.iter().enumerate() {
            if dist.is_empty() {
                continue;
            }
            for (row, w) in rows(cell.truth_table(), s).iter().zip(&weights) {
                if w.is_zero() {
                    continue;
                }
                let dv = i64::from(row.d) << i;
                for (d, mass) in dist {
                    let entry = next[row.next].entry(d + dv).or_insert_with(T::zero);
                    *entry = entry.clone() + w.clone() * mass.clone();
                }
            }
        }
        states = next;
    }

    // Fold in the final carry-out discrepancy (±2^N) and merge states.
    let carry_value = 1i64 << chain.width();
    let mut pmf: BTreeMap<i64, T> = BTreeMap::new();
    for (s, dist) in states.iter().enumerate() {
        let dc = i64::from(carry_sign(s)) * carry_value;
        for (d, mass) in dist {
            if mass.is_zero() {
                continue;
            }
            let entry = pmf.entry(d + dc).or_insert_with(T::zero);
            *entry = entry.clone() + mass.clone();
        }
    }
    Ok(ErrorDistribution {
        pmf: pmf.into_iter().filter(|(_, p)| !p.is_zero()).collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_error_analysis;
    use crate::magnitude::error_magnitude;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    fn brute_force_pmf(
        chain: &AdderChain,
        profile: &InputProfile<Rational>,
    ) -> BTreeMap<i64, Rational> {
        let width = chain.width();
        let mut pmf = BTreeMap::new();
        for a in 0..1u64 << width {
            for b in 0..1u64 << width {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    let d = chain
                        .add(a, b, cin)
                        .error_distance(chain.accurate_sum(a, b, cin));
                    let entry = pmf.entry(d).or_insert_with(Rational::zero);
                    *entry = entry.clone() + w;
                }
            }
        }
        pmf.retain(|_, p| !p.is_zero());
        pmf
    }

    #[test]
    fn pmf_matches_brute_force_for_all_cells() {
        for cell in StandardCell::APPROXIMATE {
            let chain = AdderChain::uniform(cell.cell(), 3);
            let profile = InputProfile::<Rational>::constant(3, Rational::from_ratio(2, 7));
            let dist = error_distribution(&chain, &profile).expect("widths match");
            let expect = brute_force_pmf(&chain, &profile);
            let got: BTreeMap<i64, Rational> = dist.pmf.iter().cloned().collect();
            assert_eq!(got, expect, "{cell}");
        }
    }

    #[test]
    fn pmf_sums_to_one() {
        let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 5);
        let profile = InputProfile::<Rational>::constant(5, Rational::from_ratio(3, 11));
        let dist = error_distribution(&chain, &profile).expect("widths match");
        let total = dist
            .pmf
            .iter()
            .fold(Rational::zero(), |acc, (_, p)| acc + p.clone());
        assert_eq!(total, Rational::one());
    }

    #[test]
    fn error_probability_matches_joint_dp() {
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa5.cell(),
            StandardCell::Lpaa2.cell(),
        ]);
        let profile = InputProfile::<Rational>::constant(3, Rational::from_ratio(1, 3));
        let dist = error_distribution(&chain, &profile).expect("widths match");
        let joint = exact_error_analysis(&chain, &profile).expect("widths match");
        assert_eq!(dist.error_rate(), joint.output_error);
    }

    #[test]
    fn pmf_mean_matches_magnitude_analysis() {
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 6);
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(4, 9));
        let dist = error_distribution(&chain, &profile).expect("widths match");
        let moments = error_magnitude(&chain, &profile).expect("widths match");
        assert_eq!(dist.mean(), moments.mean_error_distance);
    }

    #[test]
    fn tail_mass_and_max_error() {
        let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 4);
        let profile = InputProfile::<Rational>::uniform(4);
        let dist = error_distribution(&chain, &profile).expect("widths match");
        // Tail beyond the maximum must be empty; tail beyond 0 is P(err).
        assert!(dist.tail_beyond(dist.max_absolute_error()).is_zero());
        assert_eq!(dist.tail_beyond(0), dist.error_rate());
        assert!(dist.max_absolute_error() > 0);
    }

    #[test]
    fn accurate_chain_is_a_point_mass_at_zero() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 6);
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(1, 4));
        let dist = error_distribution(&chain, &profile).expect("widths match");
        assert_eq!(dist.pmf, vec![(0, Rational::one())]);
        assert!(dist.error_rate().is_zero());
    }

    #[test]
    fn oversized_width_rejected() {
        let w = MAX_DISTRIBUTION_WIDTH + 1;
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), w);
        let profile = InputProfile::<f64>::uniform(w);
        assert_eq!(
            error_distribution(&chain, &profile),
            Err(AnalyzeError::WidthTooLarge { width: 21, max: 20 })
        );
    }

    fn dist() -> ErrorDistribution<Rational> {
        ErrorDistribution {
            pmf: vec![
                (-4, Rational::from_ratio(1, 8)),
                (0, Rational::from_ratio(3, 4)),
                (2, Rational::from_ratio(1, 8)),
            ],
        }
    }

    #[test]
    fn statistics_are_exact() {
        let d = dist();
        assert_eq!(d.error_rate(), Rational::from_ratio(1, 4));
        assert_eq!(d.mean(), Rational::from_ratio(-1, 4));
        assert_eq!(d.mean_absolute(), Rational::from_ratio(3, 4));
        // E[D²] = 16/8 + 4/8 = 5/2.
        assert_eq!(d.mean_squared(), Rational::from_ratio(5, 2));
        assert_eq!(d.max_absolute_error(), 4);
        assert_eq!(d.tail_beyond(2), Rational::from_ratio(1, 8));
        assert_eq!(d.tail_beyond(0), d.error_rate());
        assert_eq!(d.total_mass(), Rational::one());
        assert_eq!(d.probability_of(2), Rational::from_ratio(1, 8));
        assert!(d.probability_of(1).is_zero());
    }

    #[test]
    fn cdf_is_monotone_and_ends_at_total_mass() {
        let d = dist();
        let cdf = d.cdf();
        assert_eq!(cdf.len(), d.pmf.len());
        for pair in cdf.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(cdf.last().expect("non-empty").1, Rational::one());
    }

    #[test]
    fn normalized_mean_uses_full_scale_output() {
        let d = dist();
        // width 2 ⇒ full scale 2³−1 = 7.
        assert_eq!(d.normalized_mean_absolute(2), Rational::from_ratio(3, 28));
    }

    #[test]
    fn wide_support_keys_stay_exact() {
        // A support point near the 47-bit replay bound: the scale helpers
        // must not lose a single ulp in Rational.
        let big = (1i64 << 48) - 3;
        let d = ErrorDistribution {
            pmf: vec![(big, Rational::one())],
        };
        assert_eq!(d.mean(), Rational::from_ratio((1i64 << 48) - 3, 1));
        assert_eq!(d.max_absolute_error(), big as u64);
        let sq = d.mean_squared();
        let expect =
            Rational::from_ratio((1i64 << 48) - 3, 1) * Rational::from_ratio((1i64 << 48) - 3, 1);
        assert_eq!(sq, expect);
    }

    #[test]
    fn empty_distribution_is_all_zero() {
        let d = ErrorDistribution::<f64> { pmf: vec![] };
        assert_eq!(d.error_rate(), 0.0);
        assert_eq!(d.max_absolute_error(), 0);
        assert!(d.cdf().is_empty());
    }

    #[test]
    fn width_mismatch_is_reported() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let profile = InputProfile::<f64>::uniform(3);
        assert!(error_distribution(&chain, &profile).is_err());
    }
}
