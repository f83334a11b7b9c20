//! The proposed recursive analysis (paper Algorithm 1).

use std::fmt;

use sealpaa_cells::{AdderChain, InputProfile, TruthTable};
use sealpaa_num::Prob;

use crate::carry::CarryState;
use crate::joint::check_width;
use crate::matrices::{Ipm, MklMatrices};
use crate::ops::OpCounts;

/// Errors produced by [`analyze`] and the crate's other analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AnalyzeError {
    /// The input profile covers a different number of bits than the chain
    /// has stages.
    WidthMismatch {
        /// Number of stages in the adder chain.
        chain: usize,
        /// Number of bits in the input profile.
        profile: usize,
    },
    /// The chain is wider than the analysis accepts.
    WidthTooLarge {
        /// Requested adder width.
        width: usize,
        /// Widest adder the analysis accepts.
        max: usize,
    },
}

impl fmt::Display for AnalyzeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnalyzeError::WidthMismatch { chain, profile } => write!(
                f,
                "adder chain has {chain} stages but input profile covers {profile} bits"
            ),
            AnalyzeError::WidthTooLarge { width, max } => write!(
                f,
                "{width}-bit adders are refused: this analysis supports at most {max} bits"
            ),
        }
    }
}

impl std::error::Error for AnalyzeError {}

/// Clamps a probability to `[0, 1]`.
///
/// `P(Error) = 1 − P(Succ)` is exact in `Rational` mode, but in f64 the
/// subtraction can land at `-0.0` (or a hair outside the unit interval after
/// rounding). Folding that here means *every* consumer — CLI, server, gear,
/// datapath, explore — sees a well-formed probability, instead of each
/// call-site carrying its own clamp.
pub(crate) fn clamp_unit<T: Prob>(p: T) -> T {
    if p <= T::zero() {
        T::zero() // also folds f64 −0.0 to +0.0
    } else if p >= T::one() {
        T::one()
    } else {
        p
    }
}

/// The per-stage record of the recursion — one column of paper Table 4.
#[derive(Debug, Clone, PartialEq)]
pub struct StageTrace<T> {
    /// Stage index (0 = LSB).
    pub stage: usize,
    /// `P(A_i = 1)` used at this stage.
    pub pa: T,
    /// `P(B_i = 1)` used at this stage.
    pub pb: T,
    /// Success-conditioned carry state *entering* the stage
    /// (`P(C_curr ∩ Succ)` rows of Table 4).
    pub carry_in: CarryState<T>,
    /// Success-conditioned carry state *leaving* the stage
    /// (`P(C_next ∩ Succ)` rows of Table 4; the paper marks the last stage's
    /// as "NR" but it is well-defined and cheap, so it is always recorded).
    pub carry_out: CarryState<T>,
    /// `P(Succ)` through this stage inclusive — equals `IPM · L` and, by the
    /// `M + K = L` invariant, also `carry_out.success_mass()`.
    pub success_through: T,
}

/// The result of running the proposed method on a chain: the final
/// success/error probability plus the full per-stage trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Analysis<T> {
    stages: Vec<StageTrace<T>>,
    success: T,
}

impl<T: Prob> Analysis<T> {
    /// `P(Succ)` of the whole multi-bit adder (paper Eq. 8/12): the
    /// probability that every stage behaved exactly like an accurate full
    /// adder.
    pub fn success_probability(&self) -> T {
        self.success.clone()
    }

    /// `P(Error) = 1 − P(Succ)` (paper Eq. 9): the probability that at least
    /// one stage deviates from the accurate adder along the accurate carry
    /// chain. Clamped to `[0, 1]` (in f64 the subtraction can produce `-0.0`
    /// or stray just outside the unit interval).
    pub fn error_probability(&self) -> T {
        clamp_unit(self.success.complement())
    }

    /// The per-stage trace, LSB first (paper Table 4).
    pub fn stages(&self) -> &[StageTrace<T>] {
        &self.stages
    }

    /// Number of analysed stages.
    pub fn width(&self) -> usize {
        self.stages.len()
    }

    /// `P(Succ)` through stage `i` inclusive — the success probability of
    /// the `i+1`-bit prefix of the adder (exposed so callers can study how
    /// error accumulates along the chain without re-running the analysis).
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn prefix_success(&self, i: usize) -> T {
        self.stages[i].success_through.clone()
    }

    /// `P(Error)` of the `i+1`-bit prefix of the adder — the error
    /// probability a width-`i+1` truncation of the chain would report,
    /// clamped like [`error_probability`](Self::error_probability). One
    /// width-N analysis therefore answers a whole width sweep.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.width()`.
    pub fn prefix_error_probability(&self, i: usize) -> T {
        clamp_unit(self.stages[i].success_through.complement())
    }

    /// How much error probability each stage *introduces*:
    /// `contribution[i] = P(first deviation happens at stage i)`, i.e. the
    /// drop in success mass across stage `i`. The contributions sum to
    /// [`error_probability`](Self::error_probability), making this the
    /// natural tool for deciding which stages to harden (e.g. where to
    /// place accurate cells in a hybrid design).
    pub fn stage_error_contributions(&self) -> Vec<T> {
        let mut out = Vec::with_capacity(self.stages.len());
        let mut prev = T::one();
        for stage in &self.stages {
            out.push(prev.clone() - stage.success_through.clone());
            prev = stage.success_through.clone();
        }
        out
    }
}

/// Runs the proposed method (paper Algorithm 1) on `chain` under `profile`.
///
/// The cost is a single O(N) pass: per stage, one 8-entry IPM build and
/// three binary dot products. Works for homogeneous and hybrid chains alike
/// because the M/K/L matrices are taken from each stage's own truth table.
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
/// use sealpaa_core::analyze;
///
/// // The paper's Table 4 worked example: 4-bit LPAA 1.
/// let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
/// let profile = InputProfile::new(
///     vec![0.9, 0.5, 0.4, 0.8],
///     vec![0.8, 0.7, 0.6, 0.9],
///     0.5,
/// )?;
/// let analysis = analyze(&chain, &profile)?;
/// assert!((analysis.success_probability() - 0.738476).abs() < 1e-9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn analyze<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<Analysis<T>, AnalyzeError> {
    analyze_inner(chain, profile, &mut OpCounts::default())
}

/// Like [`analyze`], additionally returning the exact operation counts the
/// run incurred (for the paper's Table 8 resource discussion and the Fig. 1
/// computation-count comparison).
///
/// # Errors
///
/// Returns [`AnalyzeError::WidthMismatch`] if `profile` does not cover
/// exactly `chain.width()` bits.
pub fn analyze_instrumented<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
) -> Result<(Analysis<T>, OpCounts), AnalyzeError> {
    let mut ops = OpCounts::default();
    let analysis = analyze_inner(chain, profile, &mut ops)?;
    Ok((analysis, ops))
}

fn analyze_inner<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
    ops: &mut OpCounts,
) -> Result<Analysis<T>, AnalyzeError> {
    check_width(chain, profile)?;
    let mut carry = CarryState::initial(profile.p_cin());
    ops.complements += 1;
    let mut stages = Vec::with_capacity(chain.width());
    let mut success = T::one();
    // Derive M/K/L once per distinct truth table (a chain mixes at most the
    // 8 standard cells, so a linear scan beats hashing).
    let mut mkl_cache: Vec<(&TruthTable, MklMatrices)> = Vec::new();
    for (i, cell) in chain.iter().enumerate() {
        let table = cell.truth_table();
        let mkl = match mkl_cache.iter().find(|(t, _)| *t == table) {
            Some((_, mkl)) => *mkl,
            None => {
                let mkl = MklMatrices::from_truth_table(table);
                mkl_cache.push((table, mkl));
                mkl
            }
        };
        let ipm = Ipm::build(profile.pa(i), profile.pb(i), &carry, ops);
        let carry_out = CarryState::new(ipm.dot(mkl.k(), ops), ipm.dot(mkl.m(), ops));
        success = ipm.dot(mkl.l(), ops);
        stages.push(StageTrace {
            stage: i,
            pa: profile.pa(i).clone(),
            pb: profile.pb(i).clone(),
            carry_in: carry.clone(),
            carry_out: carry_out.clone(),
            success_through: success.clone(),
        });
        carry = carry_out;
    }
    ops.complements += 1; // P(Error) = 1 − P(Succ)
    Ok(Analysis { stages, success })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    fn table4_profile<T: Prob>() -> InputProfile<T> {
        InputProfile::new(
            vec![
                T::from_ratio(9, 10),
                T::from_ratio(5, 10),
                T::from_ratio(4, 10),
                T::from_ratio(8, 10),
            ],
            vec![
                T::from_ratio(8, 10),
                T::from_ratio(7, 10),
                T::from_ratio(6, 10),
                T::from_ratio(9, 10),
            ],
            T::from_ratio(1, 2),
        )
        .expect("valid profile")
    }

    /// Every number of paper Table 4, checked in exact arithmetic.
    #[test]
    fn table_4_worked_example_is_reproduced_exactly() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let analysis = analyze(&chain, &table4_profile::<Rational>()).expect("widths match");

        let expect_c0 = ["2/100", "1305/10000", "2064/10000"];
        let expect_c1 = ["85/100", "7295/10000", "58574/100000"];
        for (i, (c0, c1)) in expect_c0.iter().zip(&expect_c1).enumerate() {
            let out = &analysis.stages()[i].carry_out;
            let (n0, d0) = parse_ratio(c0);
            let (n1, d1) = parse_ratio(c1);
            assert_eq!(
                *out.p_not_carry_and_success(),
                Rational::from_ratio(n0, d0),
                "stage {i} C̄next"
            );
            assert_eq!(
                *out.p_carry_and_success(),
                Rational::from_ratio(n1, d1),
                "stage {i} Cnext"
            );
        }
        assert_eq!(
            analysis.success_probability(),
            Rational::from_ratio(738_476, 1_000_000)
        );
    }

    fn parse_ratio(s: &str) -> (i64, i64) {
        let (n, d) = s.split_once('/').expect("n/d");
        (n.parse().expect("num"), d.parse().expect("den"))
    }

    #[test]
    fn table_4_in_f64_matches_to_print_precision() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let analysis = analyze(&chain, &table4_profile::<f64>()).expect("widths match");
        assert!((analysis.success_probability() - 0.738476).abs() < 1e-9);
        assert!((analysis.error_probability() - 0.261524).abs() < 1e-9);
    }

    #[test]
    fn success_through_equals_carry_mass() {
        let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 6);
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(3, 10));
        let analysis = analyze(&chain, &profile).expect("widths match");
        for stage in analysis.stages() {
            assert_eq!(
                stage.success_through,
                stage.carry_out.success_mass(),
                "stage {}",
                stage.stage
            );
        }
    }

    #[test]
    fn success_mass_is_monotonically_non_increasing() {
        let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 10);
        let profile = InputProfile::constant(10, 0.35);
        let analysis = analyze(&chain, &profile).expect("widths match");
        let mut prev = 1.0f64;
        for stage in analysis.stages() {
            assert!(stage.success_through <= prev + 1e-15);
            prev = stage.success_through;
        }
    }

    #[test]
    fn accurate_chain_never_errs() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 16);
        let profile = InputProfile::<Rational>::constant(16, Rational::from_ratio(1, 3));
        let analysis = analyze(&chain, &profile).expect("widths match");
        assert_eq!(analysis.error_probability(), Rational::zero());
        assert_eq!(analysis.success_probability(), Rational::one());
    }

    #[test]
    fn width_mismatch_is_reported() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let profile = InputProfile::<f64>::uniform(5);
        let err = analyze(&chain, &profile).unwrap_err();
        assert_eq!(
            err,
            AnalyzeError::WidthMismatch {
                chain: 4,
                profile: 5
            }
        );
        assert!(err.to_string().contains("4 stages"));
    }

    #[test]
    fn hybrid_chain_uses_per_stage_matrices() {
        // LPAA 5 at stage 0, accurate above: only stage 0 can err.
        let chain = AdderChain::lsb_approximate(
            StandardCell::Lpaa5.cell(),
            StandardCell::Accurate.cell(),
            1,
            4,
        );
        let profile = InputProfile::<Rational>::uniform(4);
        let analysis = analyze(&chain, &profile).expect("widths match");
        // LPAA 5 has 4 error rows of 8 → P(err) = 1/2 at uniform inputs.
        assert_eq!(analysis.error_probability(), Rational::from_ratio(1, 2));
        // All the loss happens at stage 0.
        assert_eq!(analysis.prefix_success(0), analysis.prefix_success(3));
    }

    #[test]
    fn instrumented_counts_scale_linearly() {
        let profile8 = InputProfile::<f64>::uniform(8);
        let profile16 = InputProfile::<f64>::uniform(16);
        let chain8 = AdderChain::uniform(StandardCell::Lpaa2.cell(), 8);
        let chain16 = AdderChain::uniform(StandardCell::Lpaa2.cell(), 16);
        let (_, ops8) = analyze_instrumented(&chain8, &profile8).expect("widths match");
        let (_, ops16) = analyze_instrumented(&chain16, &profile16).expect("widths match");
        // Doubling the width doubles the per-stage work exactly (the two
        // end-of-run complements are shared).
        assert_eq!(ops16.multiplications, 2 * ops8.multiplications);
        assert_eq!(ops16.additions, 2 * ops8.additions);
        assert_eq!(ops8.multiplications, 8 * 16);
    }

    #[test]
    fn stage_contributions_sum_to_error_probability() {
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa6.cell(),
            StandardCell::Lpaa2.cell(),
        ]);
        let profile = InputProfile::<Rational>::constant(4, Rational::from_ratio(2, 7));
        let analysis = analyze(&chain, &profile).expect("widths match");
        let contributions = analysis.stage_error_contributions();
        assert_eq!(contributions.len(), 4);
        // The accurate stage introduces exactly nothing.
        assert!(contributions[1].is_zero());
        let total = contributions
            .iter()
            .fold(Rational::zero(), |acc, c| acc + c.clone());
        assert_eq!(total, analysis.error_probability());
        for c in &contributions {
            assert!(*c >= Rational::zero());
        }
    }

    #[test]
    fn single_stage_error_equals_error_row_mass() {
        // For a 1-bit adder P(Error) is just the probability mass on the
        // error rows.
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 1);
        let profile = InputProfile::<Rational>::uniform(1);
        let analysis = analyze(&chain, &profile).expect("widths match");
        // 2 error rows of 8 equally likely → 1/4.
        assert_eq!(analysis.error_probability(), Rational::from_ratio(1, 4));
    }
}
