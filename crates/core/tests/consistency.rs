//! Cross-module exact consistency: three independent engines — the paper's
//! recursive analysis ([`analyze`]), the error-distance moment recursion
//! ([`error_magnitude`]), and the full PMF dynamic program
//! ([`error_distribution`]) — must agree *exactly* in `Rational` arithmetic
//! on homogeneous paper-cell chains, where the first-deviation and
//! output-value error semantics provably coincide.

use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
use sealpaa_core::{analyze, error_distribution, error_magnitude};
use sealpaa_num::Rational;

fn r(num: i64, den: i64) -> Rational {
    Rational::from_ratio(num, den)
}

/// Several deliberately non-uniform exact profiles: a skewed constant, a
/// per-bit ramp with distinct `pa`/`pb`, and a near-saturated constant.
fn profiles(width: usize) -> Vec<InputProfile<Rational>> {
    let ramp_a: Vec<Rational> = (0..width)
        .map(|i| r(i as i64 + 1, width as i64 + 2))
        .collect();
    let ramp_b: Vec<Rational> = (0..width)
        .map(|i| r((width - i) as i64, width as i64 + 3))
        .collect();
    vec![
        InputProfile::constant(width, r(1, 3)),
        InputProfile::new(ramp_a, ramp_b, r(2, 7)).expect("valid profile"),
        InputProfile::constant(width, r(9, 10)),
    ]
}

/// The signed integer `d` as an exact rational.
fn scale(d: i64) -> Rational {
    r(d, 1)
}

#[test]
fn analysis_and_distribution_agree_exactly_on_error_probability() {
    for cell in StandardCell::ALL {
        let chain = AdderChain::uniform(cell.cell(), 5);
        for profile in profiles(5) {
            let analysis = analyze(&chain, &profile).expect("valid");
            let dist = error_distribution(&chain, &profile).expect("valid");
            assert_eq!(
                dist.error_rate(),
                analysis.error_probability(),
                "{cell} under {profile:?}"
            );
        }
    }
}

#[test]
fn distribution_moments_equal_the_magnitude_recursion_exactly() {
    for cell in StandardCell::ALL {
        let chain = AdderChain::uniform(cell.cell(), 4);
        for profile in profiles(4) {
            let moments = error_magnitude(&chain, &profile).expect("valid");
            let dist = error_distribution(&chain, &profile).expect("valid");
            assert_eq!(
                dist.mean(),
                moments.mean_error_distance,
                "{cell}: first moment"
            );
            let second = dist.pmf.iter().fold(Rational::zero(), |acc, (d, p)| {
                acc + scale(*d) * scale(*d) * p.clone()
            });
            assert_eq!(
                second, moments.mean_squared_error_distance,
                "{cell}: second moment"
            );
        }
    }
}

#[test]
fn pmf_is_a_probability_distribution_in_exact_arithmetic() {
    // The PMF masses of every chain/profile pair sum to exactly one — no
    // leaked or duplicated carry states in the dynamic program.
    for cell in StandardCell::ALL {
        let chain = AdderChain::uniform(cell.cell(), 5);
        for profile in profiles(5) {
            let dist = error_distribution(&chain, &profile).expect("valid");
            let total = dist
                .pmf
                .iter()
                .fold(Rational::zero(), |acc, (_, p)| acc + p.clone());
            assert_eq!(total, r(1, 1), "{cell}");
        }
    }
}
