//! Differential validation of the analytical error-distance engine.
//!
//! Every test here compares [`error_distance_distribution`] in **exact
//! `Rational` arithmetic** against a ground truth computed a completely
//! different way — the bitsliced exhaustive sweep over all inputs — and
//! demands `assert_eq!`-level agreement: identical support, identical
//! probabilities, no tolerance. The GeAr geometries are pinned, against
//! `sealpaa-gear`'s union-of-misses DP too, in that crate's differential
//! suite.

use sealpaa_blocks::{error_distance_distribution, exhaustive_distance_histogram, BlockConfig};
use sealpaa_cells::{InputProfile, StandardCell};
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
