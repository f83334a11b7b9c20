#![allow(clippy::needless_range_loop)]

//! Property-based invariants spanning the whole workspace, driven by
//! randomly generated chains and input profiles.
//!
//! Each property runs `CASES` randomized trials from a fixed per-test seed
//! (the in-repo xoshiro256++ generator), so failures are reproducible: the
//! assertion message carries the case number, and re-running the test
//! regenerates the identical inputs.

use sealpaa::analysis::{analyze, exact_error_analysis, signal_probabilities};
use sealpaa::blocks::exhaustive_distance_histogram;
use sealpaa::cells::{AdderChain, Cell, InputProfile, StandardCell};
use sealpaa::gear::{
    error_probability as gear_error, error_probability_inclexcl as gear_inclexcl, GearConfig,
};
use sealpaa::inclexcl::error_probability as inclexcl_error;
use sealpaa::num::Rational;
use sealpaa::sim::{exhaustive, Xoshiro256pp};

/// Randomized trials per property (the suite's original proptest case
/// count).
const CASES: u64 = 48;

/// Any of the 8 standard cells.
fn rand_cell(rng: &mut Xoshiro256pp) -> Cell {
    let i = rng.next_below(StandardCell::ALL.len() as u64) as usize;
    StandardCell::ALL[i].cell()
}

/// A hybrid chain of `min_width..=max_width` standard cells.
fn rand_chain(rng: &mut Xoshiro256pp, min_width: u64, max_width: u64) -> AdderChain {
    let width = min_width + rng.next_below(max_width - min_width + 1);
    AdderChain::from_stages((0..width).map(|_| rand_cell(rng)).collect())
}

/// A small exact rational probability in [0, 1] (numerators/denominators up
/// to 12, as in the original strategy).
fn rand_prob(rng: &mut Xoshiro256pp) -> Rational {
    let d = 1 + rng.next_below(12) as i64;
    let n = (rng.next_below(13) as i64).min(d);
    Rational::from_ratio(n, d)
}

/// A rational profile matching `width`.
fn rand_profile(rng: &mut Xoshiro256pp, width: usize) -> InputProfile<Rational> {
    let pa = (0..width).map(|_| rand_prob(rng)).collect();
    let pb = (0..width).map(|_| rand_prob(rng)).collect();
    InputProfile::new(pa, pb, rand_prob(rng)).expect("probs are in range")
}

fn rand_chain_and_profile(rng: &mut Xoshiro256pp) -> (AdderChain, InputProfile<Rational>) {
    let chain = rand_chain(rng, 1, 5);
    let profile = rand_profile(rng, chain.width());
    (chain, profile)
}

/// The headline theorem: the proposed O(N) recursion equals exhaustive
/// enumeration exactly, for arbitrary hybrid chains and arbitrary rational
/// profiles.
#[test]
fn analytical_equals_exhaustive() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0001);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let analytical = analyze(&chain, &profile)
            .expect("widths match")
            .error_probability();
        let report = exhaustive(&chain, &profile).expect("small width");
        assert_eq!(
            analytical, report.stage_error_probability,
            "case {case}: {chain}"
        );
    }
}

/// …and equals the 2^k-term inclusion-exclusion baseline exactly.
#[test]
fn analytical_equals_inclexcl() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0002);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let analytical = analyze(&chain, &profile)
            .expect("widths match")
            .error_probability();
        let (baseline, _) = inclexcl_error(&chain, &profile).expect("widths match");
        assert_eq!(analytical, baseline, "case {case}: {chain}");
    }
}

/// All reported probabilities stay inside [0, 1].
#[test]
fn probabilities_in_unit_interval() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0003);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let analysis = analyze(&chain, &profile).expect("widths match");
        let zero = Rational::zero();
        let one = Rational::one();
        assert!(analysis.error_probability() >= zero, "case {case}");
        assert!(analysis.error_probability() <= one, "case {case}");
        for stage in analysis.stages() {
            assert!(
                *stage.carry_out.p_carry_and_success() >= zero,
                "case {case}"
            );
            assert!(stage.success_through <= one, "case {case}");
        }
    }
}

/// The success-conditioned mass can only shrink stage over stage (the
/// paper: "the carry-out probabilities keep on decreasing").
#[test]
fn success_mass_monotone() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0004);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let analysis = analyze(&chain, &profile).expect("widths match");
        let mut prev = Rational::one();
        for stage in analysis.stages() {
            assert!(stage.success_through <= prev, "case {case}: {chain}");
            prev = stage.success_through.clone();
        }
    }
}

/// M + K = L pointwise implies: success mass after the stage equals IPM·L,
/// so the final success always equals the last stage's carry mass.
#[test]
fn success_equals_final_carry_mass() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0005);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let analysis = analyze(&chain, &profile).expect("widths match");
        let last = analysis.stages().last().expect("chains are non-empty");
        assert_eq!(
            analysis.success_probability(),
            last.carry_out.success_mass(),
            "case {case}: {chain}"
        );
    }
}

/// Output-value error never exceeds first-deviation error, and both agree
/// with simulation exactly.
#[test]
fn output_error_bounded_by_stage_error() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0006);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let joint = exact_error_analysis(&chain, &profile).expect("widths match");
        assert!(joint.output_error <= joint.stage_error, "case {case}");
        let report = exhaustive(&chain, &profile).expect("small width");
        assert_eq!(
            joint.output_error, report.output_error_probability,
            "case {case}: {chain}"
        );
    }
}

/// Signal probabilities agree with exhaustive enumeration of the
/// approximate chain.
#[test]
fn signal_probabilities_match_enumeration() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0007);
    for case in 0..CASES {
        // The enumeration below is 2^(2w+1); keep w ≤ 3 as the original
        // `prop_assume` did.
        let chain = rand_chain(&mut rng, 1, 3);
        let profile = rand_profile(&mut rng, chain.width());
        let signals = signal_probabilities(&chain, &profile).expect("widths match");
        let width = chain.width();
        let mut sum_mass = vec![Rational::zero(); width];
        let mut carry_mass = Rational::zero();
        for a in 0..1u64 << width {
            for b in 0..1u64 << width {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    let r = chain.add(a, b, cin);
                    for (i, mass) in sum_mass.iter_mut().enumerate() {
                        if (r.sum_bits() >> i) & 1 == 1 {
                            *mass = mass.clone() + w.clone();
                        }
                    }
                    if r.carry_out() {
                        carry_mass = carry_mass + w;
                    }
                }
            }
        }
        for i in 0..width {
            assert_eq!(&signals.sum[i], &sum_mass[i], "case {case}: sum bit {i}");
        }
        assert_eq!(&signals.carry[width], &carry_mass, "case {case}");
    }
}

/// Analysing a prefix of the profile equals the prefix of the analysis.
#[test]
fn prefix_consistency() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0008);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let width = chain.width();
        let cut = (1 + rng.next_below(5) as usize).min(width);
        let full = analyze(&chain, &profile).expect("widths match");
        let prefix_chain = AdderChain::from_stages(chain.iter().take(cut).cloned().collect());
        let prefix = analyze(&prefix_chain, &profile.truncate(cut)).expect("widths match");
        assert_eq!(
            full.prefix_success(cut - 1),
            prefix.success_probability(),
            "case {case}: {chain} cut at {cut}"
        );
    }
}

/// GeAr: the linear DP equals both the inclusion-exclusion expansion and
/// (at uniform probabilities) the exhaustive functional error count.
#[test]
fn gear_three_way_agreement() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_0009);
    let mut done = 0;
    while done < CASES {
        let r = 1 + rng.next_below(3) as usize;
        let p = rng.next_below(4) as usize;
        let extra = rng.next_below(4) as usize;
        let n = (r + p) + r * extra;
        if n > 9 {
            continue;
        }
        done += 1;
        let config = GearConfig::new(n, r, p).expect("constructed to tile");
        let pa = vec![Rational::from_ratio(1, 2); n];
        // A uniform carry-in: the exhaustive count covers both carry-ins.
        let cin = Rational::from_ratio(1, 2);
        let linear = gear_error(&config, &pa, &pa, cin.clone()).expect("widths match");
        let (ie, _) = gear_inclexcl(&config, &pa, &pa, cin).expect("widths match");
        assert_eq!(&linear, &ie, "GeAr({n},{r},{p})");
        let blocks = config
            .to_blocks(StandardCell::Accurate.cell())
            .expect("at most 9 bits");
        let report = exhaustive_distance_histogram(&blocks).expect("at most 9 bits");
        let total = report.cases();
        let errors = total - report.histogram.get(&0).copied().unwrap_or(0);
        assert_eq!(
            linear,
            Rational::from_ratio(errors as i64, total as i64),
            "GeAr({n},{r},{p})"
        );
    }
}

/// Worst-case extremes: the DP's claimed extremes are achieved by their
/// witnesses and bound the exact PMF support for random hybrid chains.
#[test]
fn worst_case_extremes_are_tight() {
    use sealpaa::analysis::{error_distribution, worst_case_error};
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_000A);
    for case in 0..CASES {
        let (chain, profile) = rand_chain_and_profile(&mut rng);
        let wc = worst_case_error(&chain).expect("small width");
        for (witness, expect) in [
            (wc.max_witness, wc.max_error),
            (wc.min_witness, wc.min_error),
        ] {
            let d = chain
                .add(witness.a, witness.b, witness.carry_in)
                .error_distance(chain.accurate_sum(witness.a, witness.b, witness.carry_in));
            assert_eq!(d as i128, expect, "case {case}: {chain}");
        }
        // Every achievable error under any profile lies within the extremes;
        // at uniform inputs (all inputs possible) the PMF support endpoints
        // coincide with them.
        let dist = error_distribution(&chain, &profile).expect("small width");
        for (d, _) in &dist.pmf {
            assert!((*d as i128) <= wc.max_error, "case {case}");
            assert!((*d as i128) >= wc.min_error, "case {case}");
        }
        let uniform = InputProfile::<Rational>::uniform(chain.width());
        let full = error_distribution(&chain, &uniform).expect("small width");
        assert_eq!(
            full.pmf.first().expect("non-empty").0 as i128,
            wc.min_error,
            "case {case}: {chain}"
        );
        assert_eq!(
            full.pmf.last().expect("non-empty").0 as i128,
            wc.max_error,
            "case {case}: {chain}"
        );
    }
}

/// Functional evaluation sanity: an all-accurate chain equals u64 addition
/// for random operands.
#[test]
fn accurate_chain_is_binary_addition() {
    let mut rng = Xoshiro256pp::seed_from_u64(0x5EA1_000B);
    let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 16);
    for case in 0..CASES {
        let a = rng.next_u64();
        let b = rng.next_u64();
        let cin = rng.next_bool(0.5);
        let r = chain.add(a, b, cin);
        assert!(r.matches_accurate(a, b, cin), "case {case}: {a} + {b}");
    }
}

/// Profile round-trip through f64 is exact for dyadic probabilities.
#[test]
fn profile_conversion_round_trip() {
    for num in 0u8..=16 {
        let p = num as f64 / 16.0;
        let f = InputProfile::<f64>::constant(3, p);
        let r: InputProfile<Rational> = f.convert();
        let back: InputProfile<f64> = r.convert();
        assert_eq!(*back.pa(0), p);
        assert_eq!(r.pa(0), &Rational::from_ratio(num as i64, 16));
    }
}
