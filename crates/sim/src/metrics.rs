//! Quality metrics for approximate arithmetic.

use std::fmt;

/// Standard approximate-computing quality metrics of an adder, gathered by
/// either simulator.
///
/// `error_probability` is the probability the full output value (sum bits +
/// final carry) differs from the exact binary sum — the quantity the paper's
/// simulations measure. The error-distance statistics quantify *how wrong*
/// erroneous outputs are, which matters for error-resilient applications
/// (image/video processing etc. from the paper's motivation) even though the
/// paper itself reports only the error probability.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ErrorMetrics {
    /// Probability that the output value is wrong.
    pub error_probability: f64,
    /// Mean signed error distance `E[approx − exact]` (bias).
    pub mean_error_distance: f64,
    /// Mean absolute error distance `E[|approx − exact|]` (MED).
    pub mean_absolute_error_distance: f64,
    /// Worst observed absolute error distance.
    pub max_absolute_error_distance: u64,
}

/// Weighted accumulator used by both simulators to build [`ErrorMetrics`].
#[derive(Debug, Clone, Default)]
pub(crate) struct MetricsAccumulator {
    weight_total: f64,
    weight_error: f64,
    weighted_ed: f64,
    weighted_abs_ed: f64,
    max_abs_ed: u64,
}

impl MetricsAccumulator {
    /// Records one (possibly weighted) case with signed error distance `ed`.
    pub(crate) fn record(&mut self, weight: f64, ed: i64) {
        self.weight_total += weight;
        if ed != 0 {
            self.weight_error += weight;
        }
        self.weighted_ed += weight * ed as f64;
        self.weighted_abs_ed += weight * ed.unsigned_abs() as f64;
        if weight > 0.0 {
            self.max_abs_ed = self.max_abs_ed.max(ed.unsigned_abs());
        }
    }

    /// Adds `weight` to the total mass without recording any error — the
    /// bitsliced kernels account a whole 64-lane batch (correct *and*
    /// erroneous lanes) in one call, then settle the erroneous lanes as an
    /// aggregate via [`record_error_block`](Self::record_error_block).
    pub(crate) fn add_bulk_weight(&mut self, weight: f64) {
        self.weight_total += weight;
    }

    /// Records a whole block of erroneous cases whose aggregate moments were
    /// pre-summed by the caller (in plane space by the Monte-Carlo kernel's
    /// per-batch [`error_stats`](sealpaa_cells::error_stats) call, or
    /// lane-by-lane with a factored batch weight by the exhaustive kernel),
    /// so the accumulator takes one update per 64-lane batch instead of one
    /// per erroneous lane. The block's weight must already be part of the
    /// total via [`add_bulk_weight`](Self::add_bulk_weight).
    pub(crate) fn record_error_block(
        &mut self,
        error_weight: f64,
        sum_ed: f64,
        sum_abs_ed: f64,
        max_abs_ed: u64,
    ) {
        self.weight_error += error_weight;
        self.weighted_ed += sum_ed;
        self.weighted_abs_ed += sum_abs_ed;
        self.max_abs_ed = self.max_abs_ed.max(max_abs_ed);
    }

    /// Folds another accumulator's tallies into this one (used to combine
    /// per-thread Monte-Carlo chunks).
    pub(crate) fn merge(&mut self, other: MetricsAccumulator) {
        self.weight_total += other.weight_total;
        self.weight_error += other.weight_error;
        self.weighted_ed += other.weighted_ed;
        self.weighted_abs_ed += other.weighted_abs_ed;
        self.max_abs_ed = self.max_abs_ed.max(other.max_abs_ed);
    }

    pub(crate) fn finish(self) -> ErrorMetrics {
        if self.weight_total == 0.0 {
            return ErrorMetrics::default();
        }
        ErrorMetrics {
            error_probability: self.weight_error / self.weight_total,
            mean_error_distance: self.weighted_ed / self.weight_total,
            mean_absolute_error_distance: self.weighted_abs_ed / self.weight_total,
            max_absolute_error_distance: self.max_abs_ed,
        }
    }
}

impl fmt::Display for ErrorMetrics {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "P(err)={:.6} MED={:.4} bias={:+.4} maxED={}",
            self.error_probability,
            self.mean_absolute_error_distance,
            self.mean_error_distance,
            self.max_absolute_error_distance
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulator_computes_weighted_means() {
        let mut acc = MetricsAccumulator::default();
        acc.record(0.5, 0);
        acc.record(0.25, 4);
        acc.record(0.25, -2);
        let m = acc.finish();
        assert!((m.error_probability - 0.5).abs() < 1e-12);
        assert!((m.mean_error_distance - (0.25 * 4.0 - 0.25 * 2.0)).abs() < 1e-12);
        assert!((m.mean_absolute_error_distance - (0.25 * 4.0 + 0.25 * 2.0)).abs() < 1e-12);
        assert_eq!(m.max_absolute_error_distance, 4);
    }

    #[test]
    fn merge_combines_chunks_like_one_pass() {
        let mut whole = MetricsAccumulator::default();
        let mut left = MetricsAccumulator::default();
        let mut right = MetricsAccumulator::default();
        for (i, ed) in [(0u64, 0i64), (1, 3), (2, -2), (3, 0), (4, 7)] {
            whole.record(1.0, ed);
            if i < 2 {
                left.record(1.0, ed);
            } else {
                right.record(1.0, ed);
            }
        }
        left.merge(right);
        assert_eq!(left.finish(), whole.finish());
    }

    #[test]
    fn bulk_plus_error_block_equals_per_case_records() {
        // The bitsliced decomposition (batch weight + aggregated erroneous
        // lanes) must produce the same metrics as recording every case
        // individually.
        let cases = [(1.0f64, 0i64), (1.0, 0), (1.0, 3), (1.0, -2), (1.0, 0)];
        let mut per_case = MetricsAccumulator::default();
        for &(w, ed) in &cases {
            per_case.record(w, ed);
        }
        let mut bulk = MetricsAccumulator::default();
        bulk.add_bulk_weight(cases.iter().map(|&(w, _)| w).sum());
        let errs: Vec<_> = cases.iter().filter(|&&(_, ed)| ed != 0).collect();
        bulk.record_error_block(
            errs.iter().map(|&&(w, _)| w).sum(),
            errs.iter().map(|&&(w, ed)| w * ed as f64).sum(),
            errs.iter()
                .map(|&&(w, ed)| w * ed.unsigned_abs() as f64)
                .sum(),
            errs.iter()
                .map(|&&(_, ed)| ed.unsigned_abs())
                .max()
                .unwrap(),
        );
        assert_eq!(per_case.finish(), bulk.finish());
    }

    #[test]
    fn zero_weight_cases_do_not_set_max() {
        let mut acc = MetricsAccumulator::default();
        acc.record(0.0, 1000);
        acc.record(1.0, 1);
        let m = acc.finish();
        assert_eq!(m.max_absolute_error_distance, 1);
    }

    #[test]
    fn empty_accumulator_yields_default() {
        let m = MetricsAccumulator::default().finish();
        assert_eq!(m, ErrorMetrics::default());
    }

    #[test]
    fn display_formats_all_fields() {
        let m = ErrorMetrics {
            error_probability: 0.25,
            mean_error_distance: -0.5,
            mean_absolute_error_distance: 1.5,
            max_absolute_error_distance: 8,
        };
        let s = m.to_string();
        assert!(s.contains("0.250000") && s.contains("maxED=8"));
    }
}
