//! Differential validation of the analytical error-distance engine.
//!
//! Every test here compares [`error_distance_distribution`] in **exact
//! `Rational` arithmetic** against a ground truth computed a completely
//! different way — the bitsliced exhaustive sweep over all inputs, or
//! `sealpaa-gear`'s union-of-misses DP — and demands `assert_eq!`-level
//! agreement: identical support, identical probabilities, no tolerance.

use sealpaa_blocks::{error_distance_distribution, exhaustive_distance_histogram, BlockConfig};
use sealpaa_cells::{InputProfile, StandardCell};
use sealpaa_gear::GearConfig;
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

#[test]
fn every_cell_matches_exhaustive_exactly_in_rational() {
    // Each library cell as the *only* ripple cell of a predicted block
    // partition: any deviation between the carry-state DP and reality for
    // that cell's truth table shows up as a PMF mismatch.
    for cell in StandardCell::ALL {
        let config = BlockConfig::homogeneous(10, 4, 2, cell.cell()).expect("valid");
        assert_matches_exhaustive(&config, cell.name());
    }
}

#[test]
fn heterogeneous_configs_match_exhaustive_exactly_in_rational() {
    // Mixed cells, mixed widths, mixed depths — including depth 0 (pure
    // truncation of the carry), depth equal to everything below (full
    // re-computation), and windows that span several earlier blocks.
    for spec in [
        "4:0:accurate,3:2:lpaa1,3:3:lpaa2",
        "3:0:lpaa3,3:2:accurate,3:3:lpaa4,2:1:lpaa5",
        "4:0:accurate,2:0:lpaa6,2:2:lpaa7,2:4:accurate",
        "2:0:lpaa1,2:2:lpaa2,2:2:lpaa3,2:2:lpaa4,2:2:lpaa5",
        "5:0:accurate,5:5:lpaa1",
    ] {
        let config: BlockConfig = spec.parse().expect("parses");
        assert_matches_exhaustive(&config, spec);
    }
}

#[test]
fn width_one_blocks_match_exhaustive_exactly_in_rational() {
    // Degenerate geometry: every result segment is a single bit, so every
    // window is almost all prediction. The stepper's open/close bookkeeping
    // has one window per position here.
    for spec in [
        "1:0:accurate,1:1:accurate,1:1:accurate,1:1:accurate,1:1:accurate,1:1:accurate",
        "1:0:lpaa1,1:1:lpaa2,1:2:lpaa3,1:3:lpaa4,1:2:lpaa5,1:1:lpaa6,1:1:lpaa7",
        "4:0:accurate,1:0:lpaa2,1:2:accurate,4:1:lpaa1",
    ] {
        let config: BlockConfig = spec.parse().expect("parses");
        assert_matches_exhaustive(&config, spec);
    }
}

#[test]
fn widest_exhaustive_configs_match_exactly_in_rational() {
    // The acceptance bar: exact agreement at width 12 — the widest the
    // differential suite sweeps — with every cell family represented
    // somewhere across the two configurations.
    for spec in [
        "4:0:accurate,2:1:lpaa1,2:2:lpaa2,2:1:lpaa3,2:2:lpaa4",
        "4:0:lpaa5,3:2:lpaa6,3:1:lpaa7,2:3:accurate",
    ] {
        let config: BlockConfig = spec.parse().expect("parses");
        assert_matches_exhaustive(&config, spec);
    }
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
    // GeAr geometry via `from_gear` and check that the ED distribution's
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
        let config = BlockConfig::from_gear(&gear, accurate.clone());
        assert_eq!(config.width(), n, "from_gear preserves width");

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
        let config = BlockConfig::from_gear(&gear, StandardCell::Accurate.cell());
        assert_matches_exhaustive(&config, &format!("GeAr(N={n}, R={r}, P={p})"));
    }
}

#[test]
fn distribution_moments_agree_with_exhaustive_counts() {
    // Spot-check that the derived statistics (not just the raw PMF) line
    // up with counting: mean, mean |D|, mean D², and the error rate of a
    // width-10 heterogeneous configuration, all as exact rationals.
    let config: BlockConfig = "4:0:accurate,3:2:lpaa1,3:2:lpaa2".parse().expect("parses");
    let analytical = error_distance_distribution(&config, &InputProfile::<Rational>::uniform(10))
        .expect("analytical in range");
    let report = exhaustive_distance_histogram(&config).expect("exhaustive in range");
    let total = report.cases();

    let mut errors = 0u64;
    let mut sum = 0i64;
    let mut sum_abs = 0i64;
    let mut sum_sq = 0i64;
    for (&d, &count) in &report.histogram {
        if d != 0 {
            errors += count;
        }
        sum += d * count as i64;
        sum_abs += d.abs() * count as i64;
        sum_sq += d * d * count as i64;
    }
    let ratio = |num: i64| Rational::from_ratio(num, total as i64);
    assert_eq!(analytical.error_rate(), ratio(errors as i64));
    assert_eq!(analytical.mean(), ratio(sum));
    assert_eq!(analytical.mean_absolute(), ratio(sum_abs));
    assert_eq!(analytical.mean_squared(), ratio(sum_sq));
}
