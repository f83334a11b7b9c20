//! Differential validation of GeAr as a block adder.
//!
//! GeAr has three independent models here: the window-sum evaluation
//! [`GearConfig::add_with_correction`] at zero rounds, the ripple model
//! [`BlockAdder`] over [`GearConfig::to_blocks`], and the union-of-misses
//! DP [`error_probability`]. Every test pins two of them, or the block
//! engines they feed, against each other exactly: bit for bit, or as equal
//! `Rational`s, with no tolerance.

use sealpaa_blocks::{
    error_distance_distribution, exhaustive_distance_histogram, BlockAdder, BlockConfig, BlockError,
};
use sealpaa_cells::{InputProfile, StandardCell};
use sealpaa_gear::{error_probability, GearConfig};
use sealpaa_num::Rational;

/// Analytical PMF under uniform inputs vs the exhaustive histogram,
/// exactly, in `Rational`.
fn assert_matches_exhaustive(config: &BlockConfig, context: &str) {
    let width = config.width();
    let analytical =
        error_distance_distribution(&config.clone(), &InputProfile::<Rational>::uniform(width))
            .expect("analytical in range");
    let exhaustive = exhaustive_distance_histogram(config)
        .expect("exhaustive in range")
        .to_distribution::<Rational>();
    assert_eq!(analytical, exhaustive, "{context}");
}

/// A deliberately lopsided rational profile: no bit probability equals any
/// other, nothing is dyadic, and the carry-in is biased too.
fn skewed_profile(width: usize) -> (Vec<Rational>, Vec<Rational>, Rational) {
    let pa: Vec<Rational> = (0..width)
        .map(|i| Rational::from_ratio(i as i64 + 1, 2 * width as i64 + 3))
        .collect();
    let pb: Vec<Rational> = (0..width)
        .map(|i| Rational::from_ratio(2 * i as i64 + 1, 3 * width as i64 + 1))
        .collect();
    (pa, pb, Rational::from_ratio(2, 7))
}

#[test]
fn gear_as_blocks_error_probability_matches_gear_analysis_in_rational() {
    // The GeAr family is one point of the block family: re-express each
    // GeAr geometry via `to_blocks` and check that the ED distribution's
    // error-probability *marginal* reproduces `sealpaa-gear`'s dedicated
    // union-of-misses DP — exactly, in `Rational`, under a lopsided
    // non-uniform profile. (With accurate ripple cells every miss is a
    // strictly negative deficit, so P(D != 0) is exactly P(any miss).)
    let accurate = StandardCell::Accurate.cell();
    for (n, r, p) in [
        (8, 2, 2),
        (8, 1, 1),
        (12, 4, 4),
        (12, 2, 4),
        (16, 4, 4),
        (20, 5, 10),
    ] {
        let gear = GearConfig::new(n, r, p).expect("valid GeAr geometry");
        let config = gear
            .to_blocks(accurate.clone())
            .expect("within the blocks width");
        assert_eq!(config.width(), n, "to_blocks preserves width");

        let (pa, pb, p_cin) = skewed_profile(n);
        let profile =
            InputProfile::new(pa.clone(), pb.clone(), p_cin.clone()).expect("valid profile");
        let distribution =
            error_distance_distribution(&config, &profile).expect("analytical in range");
        let gear_p = sealpaa_gear::error_probability::<Rational>(&gear, &pa, &pb, p_cin)
            .expect("widths match");
        assert_eq!(
            distribution.error_rate(),
            gear_p,
            "GeAr(N={n}, R={r}, P={p})"
        );
    }
}

#[test]
fn gear_as_blocks_full_distribution_matches_exhaustive() {
    // Beyond the marginal: the whole ED-PMF of a GeAr geometry agrees with
    // brute force once routed through the block engine.
    for (n, r, p) in [(8, 2, 2), (10, 2, 4), (11, 3, 2)] {
        let gear = GearConfig::new(n, r, p).expect("valid GeAr geometry");
        let config = gear
            .to_blocks(StandardCell::Accurate.cell())
            .expect("within the blocks width");
        assert_matches_exhaustive(&config, &format!("GeAr(N={n}, R={r}, P={p})"));
    }
}

#[test]
fn window_sums_equal_the_block_adder_for_every_input() {
    // Two bit-true models that share no code: GeAr by window sums (the
    // correction model at zero rounds) and the block adder's cell-by-cell
    // ripple over `to_blocks`. Every operand pair, both carry-ins; the `a`
    // values are dealt across threads, since the 2^25 cases of GeAr(12,3,0)
    // take over a minute on one thread of a debug build.
    let threads = std::thread::available_parallelism().map_or(1, |t| t.get());
    for (n, r, p) in [(8, 2, 2), (10, 4, 2), (9, 1, 2), (12, 3, 0), (6, 1, 1)] {
        let gear = GearConfig::new(n, r, p).expect("valid GeAr geometry");
        let adder = BlockAdder::new(
            gear.to_blocks(StandardCell::Accurate.cell())
                .expect("within the blocks width"),
        );
        std::thread::scope(|scope| {
            for first in 0..threads as u64 {
                let adder = &adder;
                scope.spawn(move || {
                    for a in (first..1u64 << n).step_by(threads) {
                        for b in 0..1u64 << n {
                            for cin in [false, true] {
                                let (sum, carry) = gear.add_with_correction(a, b, cin, 0);
                                assert_eq!(
                                    adder.add(a, b, cin).value(),
                                    sum | (carry as u64) << n,
                                    "GeAr({n},{r},{p}) a={a} b={b} cin={cin}"
                                );
                            }
                        }
                    }
                });
            }
        });
    }
}

#[test]
fn dp_equals_the_exhaustive_error_fraction_in_rational() {
    // Uniform inputs, uniform carry-in: the DP's error probability is the
    // fraction of all 2^(2N+1) input combinations the block adder gets
    // wrong, counted by the bitsliced histogram.
    for (n, r, p) in [(8, 2, 2), (8, 4, 0), (6, 2, 2), (9, 1, 2), (8, 2, 4)] {
        let gear = GearConfig::new(n, r, p).expect("valid GeAr geometry");
        let report = exhaustive_distance_histogram(
            &gear
                .to_blocks(StandardCell::Accurate.cell())
                .expect("within the blocks width"),
        )
        .expect("exhaustive in range");
        let total = report.cases();
        let errors = total - report.histogram.get(&0).copied().unwrap_or(0);
        let half = vec![Rational::from_ratio(1, 2); n];
        let analytical = error_probability(&gear, &half, &half, Rational::from_ratio(1, 2))
            .expect("widths match");
        assert_eq!(
            analytical,
            Rational::from_ratio(errors as i64, total as i64),
            "GeAr(N={n}, R={r}, P={p})"
        );
    }
}

#[test]
fn to_blocks_refuses_widths_past_the_blocks_bound() {
    // GeAr has no width bound; the block engines stop at 47 bits.
    let accurate = StandardCell::Accurate.cell();
    let widest = GearConfig::new(47, 1, 0).expect("valid GeAr geometry");
    assert_eq!(
        widest
            .to_blocks(accurate.clone())
            .expect("47 bits fit")
            .width(),
        47
    );
    for (n, r, p) in [(48, 4, 4), (64, 8, 8), (1000, 1, 0)] {
        let gear = GearConfig::new(n, r, p).expect("valid GeAr geometry");
        assert_eq!(
            gear.to_blocks(accurate.clone()),
            Err(BlockError::WidthTooLarge { width: n }),
            "GeAr(N={n}, R={r}, P={p})"
        );
    }
}
