//! Configuration-space exploration for GeAr — the "accuracy configurable"
//! promise, quantified.
//!
//! GeAr's entire reason to exist (paper Sec. 2.2) is the trade-off knob: a
//! larger sub-adder length `L = R + P` buys accuracy with latency (the
//! carry path is `L` bits) and area (`k · L` full adders instead of `N`).
//! With the exact linear-time error analysis, the *whole* configuration
//! space of a width can be scored in microseconds and reduced to its Pareto
//! frontier by the crate's one Pareto filter.

use std::fmt;

use sealpaa_gear::{enumerate_configs, error_probability, GearConfig};

use crate::search::pareto_filter;

/// One scored GeAr configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct GearDesign {
    /// The configuration.
    pub config: GearConfig,
    /// Exact error probability at the given input probability.
    pub error_probability: f64,
    /// Critical-path proxy: the sub-adder length `L` (the carry ripples at
    /// most `L` bits; an exact RCA would be `N`).
    pub latency_bits: usize,
    /// Area proxy: total full-adder count `k · L` (an exact RCA is `N`).
    pub full_adders: usize,
}

impl GearDesign {
    /// Pareto dominance over (error probability, latency, area): at least
    /// as good everywhere, strictly better somewhere.
    fn dominates(&self, other: &GearDesign) -> bool {
        let no_worse = self.error_probability <= other.error_probability
            && self.latency_bits <= other.latency_bits
            && self.full_adders <= other.full_adders;
        let better = self.error_probability < other.error_probability
            || self.latency_bits < other.latency_bits
            || self.full_adders < other.full_adders;
        no_worse && better
    }
}

impl fmt::Display for GearDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → P(err)={:.6}, latency {} bits, {} FAs",
            self.config, self.error_probability, self.latency_bits, self.full_adders
        )
    }
}

/// Scores every [`enumerate_configs`]`(n)` configuration by
/// [`error_probability`] with every operand bit 1 with probability `p`
/// and carry-in 0, in enumeration order (use [`gear_pareto_front`] to
/// filter).
pub fn score_gear_configs(n: usize, p: f64) -> Vec<GearDesign> {
    let bits = vec![p; n];
    enumerate_configs(n)
        .into_iter()
        .map(|config| {
            let error = error_probability(&config, &bits, &bits, 0.0)
                .expect("the probability vectors cover the configuration's width");
            GearDesign {
                config,
                error_probability: error.clamp(0.0, 1.0),
                latency_bits: config.sub_adder_length(),
                full_adders: config.block_count() * config.sub_adder_length(),
            }
        })
        .collect()
}

/// Filters designs down to the Pareto frontier over
/// (error probability ↓, latency ↓, area ↓), sorted by ascending latency,
/// then error.
pub fn gear_pareto_front(designs: Vec<GearDesign>) -> Vec<GearDesign> {
    pareto_filter(
        designs,
        |d| (d.latency_bits as f64, d.error_probability),
        GearDesign::dominates,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scores_are_probabilities_and_exact_config_is_error_free() {
        let designs = score_gear_configs(8, 0.5);
        assert!(!designs.is_empty());
        for d in &designs {
            assert!((0.0..=1.0).contains(&d.error_probability), "{d}");
        }
        let exact = designs
            .iter()
            .find(|d| d.config == GearConfig::new(8, 8, 0).expect("valid"))
            .expect("single-block config is enumerated");
        assert_eq!(exact.error_probability, 0.0);
        assert_eq!(exact.latency_bits, 8);
    }

    #[test]
    fn frontier_is_mutually_non_dominated_and_spans_the_tradeoff() {
        let designs = score_gear_configs(16, 0.5);
        let total = designs.len();
        let front = gear_pareto_front(designs);
        assert!(!front.is_empty());
        // With three objectives many configurations survive; the frontier
        // must never grow, and at 16 bits some configuration is dominated
        // (e.g. a long-latency, high-area, high-error straggler).
        assert!(front.len() <= total);
        for a in &front {
            for b in &front {
                if a != b {
                    let no_worse = a.error_probability <= b.error_probability
                        && a.latency_bits <= b.latency_bits
                        && a.full_adders <= b.full_adders;
                    let better = a.error_probability < b.error_probability
                        || a.latency_bits < b.latency_bits
                        || a.full_adders < b.full_adders;
                    assert!(!(no_worse && better), "{a} dominates {b}");
                }
            }
        }
        // The exact design (zero error) and a minimal-latency design must
        // both survive — the frontier spans the trade-off.
        assert!(front.iter().any(|d| d.error_probability == 0.0));
        let min_latency = front
            .iter()
            .map(|d| d.latency_bits)
            .min()
            .expect("non-empty");
        assert!(min_latency < 16);
    }

    #[test]
    fn longer_sub_adders_mean_less_error_along_fixed_r() {
        let designs = score_gear_configs(16, 0.5);
        let mut r2: Vec<&GearDesign> = designs
            .iter()
            .filter(|d| d.config.result_bits() == 2)
            .collect();
        r2.sort_by_key(|d| d.config.prediction_bits());
        for pair in r2.windows(2) {
            assert!(
                pair[1].error_probability <= pair[0].error_probability + 1e-12,
                "{} then {}",
                pair[0],
                pair[1]
            );
        }
    }
}
