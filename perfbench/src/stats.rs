//! Order statistics for latency samples: nearest-rank percentiles and the
//! "at least ten samples beyond" rule that decides which tail percentile a
//! run may report.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// The nearest-rank `q`-quantile (`0 < q <= 1`) of ascending `sorted`:
/// the smallest sample with at least `q * n` samples at or below it.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = rank(sorted.len(), q);
    sorted[rank - 1]
}

/// 1-based nearest rank of the `q`-quantile among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the `q`-quantile's rank.
#[cfg(test)]
fn beyond(n: usize, q: f64) -> usize {
    n - rank(n, q)
}

/// The highest percentile (in %) that leaves at least [`MIN_BEYOND`]
/// samples beyond it, or `None` when `n` is too small for any.
pub fn highest_supported_percentile(n: usize) -> Option<f64> {
    (n > MIN_BEYOND).then(|| 100.0 * (n - MIN_BEYOND) as f64 / n as f64)
}

/// The `q`-quantile of an unsorted sample (sorts a copy).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    percentile(&v, q)
}

/// Median of an unsorted sample.
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Samples per window of a windowed p99: enough for [`MIN_BEYOND`] samples
/// beyond the p99 of every window.
pub const P99_WINDOW: usize = 1000;
/// Samples per window of a windowed p50.
pub const P50_WINDOW: usize = 200;

/// The `across`-quantile over consecutive windows (in `at` order, each of
/// at least `window` samples) of each window's `q`-quantile, with the
/// number of windows; `None` below one window.
pub fn windowed_percentile(
    values: &[f64],
    at: &[f64],
    q: f64,
    window: usize,
    across: f64,
) -> Option<(f64, usize)> {
    assert_eq!(values.len(), at.len());
    let windows = values.len() / window;
    if windows == 0 {
        return None;
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| at[a].total_cmp(&at[b]));
    let size = values.len() / windows;
    let mut per_window: Vec<f64> = order
        .chunks(size)
        .take(windows)
        .map(|chunk| {
            let mut v: Vec<f64> = chunk.iter().map(|&i| values[i]).collect();
            v.sort_by(f64::total_cmp);
            percentile(&v, q)
        })
        .collect();
    per_window.sort_by(f64::total_cmp);
    Some((percentile(&per_window, across), windows))
}

/// The `across`-quantile over `slices` equal slices of `[0, span_s)` of the
/// rate at which events (at `at`, in seconds, each worth `weight`) fall
/// into each.
pub fn windowed_rate(at: &[f64], span_s: f64, slices: usize, weight: f64, across: f64) -> f64 {
    assert!(slices > 0 && span_s > 0.0);
    let width = span_s / slices as f64;
    let mut counts = vec![0usize; slices];
    for &t in at {
        let w = (t / width) as usize;
        if w < slices {
            counts[w] += 1;
        }
    }
    let mut rates: Vec<f64> = counts.iter().map(|&c| c as f64 * weight / width).collect();
    rates.sort_by(f64::total_cmp);
    percentile(&rates, across)
}

/// Latency windows, set-up times and offline solve times report their best
/// decile, rate slices theirs: the stack's figure outside the host's
/// stalls, which come in bursts that can cover most of a run.
pub const LATENCY_ACROSS: f64 = 0.1;
pub const RATE_ACROSS: f64 = 0.9;
/// Rates are taken over slices of about this length.
pub const RATE_SLICE_S: f64 = 0.5;

/// The latency and rate figures one run reports, and how they were formed.
#[derive(Debug, Clone)]
pub struct Figures {
    /// Over every latency sample of the run.
    pub whole: Summary,
    pub p50: f64,
    pub p50_windows: usize,
    pub p99: f64,
    pub p99_windows: usize,
    pub rate: f64,
    pub rate_slices: usize,
}

impl Figures {
    /// `latencies` (µs) at times `at`, and completion events at `events`
    /// (each worth `weight`) over a phase of `span_s` seconds. Fails when
    /// the run is too short for one p99 window.
    pub fn of(
        latencies: &[f64],
        at: &[f64],
        events: &[f64],
        span_s: f64,
        weight: f64,
    ) -> Result<Figures, String> {
        let whole = Summary::of(latencies).ok_or("no latency sample")?;
        let (p99, p99_windows) =
            windowed_percentile(latencies, at, 0.99, P99_WINDOW, LATENCY_ACROSS).ok_or_else(
                || {
                    format!(
                        "{} latency samples leave fewer than ten beyond p99",
                        whole.count
                    )
                },
            )?;
        let (p50, p50_windows) =
            windowed_percentile(latencies, at, 0.5, P50_WINDOW, LATENCY_ACROSS)
                .expect("a p99 window holds several p50 windows");
        let rate_slices = ((span_s / RATE_SLICE_S).round() as usize).max(1);
        Ok(Figures {
            whole,
            p50,
            p50_windows,
            p99,
            p99_windows,
            rate: windowed_rate(events, span_s, rate_slices, weight, RATE_ACROSS),
            rate_slices,
        })
    }

    /// Report fields: the whole-run figures beside the windowed ones.
    pub fn report(&self) -> sealpaa_server::json::JsonObject {
        sealpaa_server::json::Json::object()
            .field("latency_samples", self.whole.count)
            .field("p_max_supported", self.whole.p_max_supported.unwrap_or(0.0))
            .field("latency_mean_us", self.whole.mean)
            .field("p50_whole_run_us", self.whole.p50)
            .field("p99_whole_run_us", self.whole.p99)
            .field("p50_us", self.p50)
            .field("p99_us", self.p99)
            .field("p50_windows", self.p50_windows)
            .field("p99_windows", self.p99_windows)
            .field("rate_slices", self.rate_slices)
    }
}

/// Summary of one latency sample, in the sample's unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub count: usize,
    pub mean: f64,
    pub p50: f64,
    pub p99: f64,
    /// Highest percentile with [`MIN_BEYOND`] samples beyond it.
    pub p_max_supported: Option<f64>,
}

impl Summary {
    /// Summarizes `values` (any order). `None` for an empty sample.
    pub fn of(values: &[f64]) -> Option<Summary> {
        if values.is_empty() {
            return None;
        }
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        Some(Summary {
            count: v.len(),
            mean: v.iter().sum::<f64>() / v.len() as f64,
            p50: percentile(&v, 0.5),
            p99: percentile(&v, 0.99),
            p_max_supported: highest_supported_percentile(v.len()),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn p99_needs_a_thousand_samples_for_ten_beyond() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(2500, 0.99), 25);
    }

    #[test]
    fn highest_supported_percentile_leaves_ten_beyond() {
        assert_eq!(highest_supported_percentile(10), None);
        assert_eq!(highest_supported_percentile(1000), Some(99.0));
        assert_eq!(highest_supported_percentile(20_000), Some(99.95));
        for n in [11usize, 57, 1000, 4321, 100_000] {
            let p = highest_supported_percentile(n).expect("n > 10");
            assert!(beyond(n, p / 100.0) >= MIN_BEYOND, "n={n}");
            // Any noticeably higher percentile leaves fewer than ten.
            assert!(
                beyond(n, (p + 1e-3).min(100.0) / 100.0) < MIN_BEYOND + 1,
                "n={n}"
            );
        }
    }

    #[test]
    fn windowed_percentile_takes_a_quantile_of_windows() {
        // Four windows of 1000 whose p99s are 10, 20, 30 and 1000 (a stall).
        let mut values = Vec::new();
        for (w, high) in [10.0, 20.0, 30.0, 1000.0].into_iter().enumerate() {
            values.extend((0..1000).map(|i| if i >= 980 { high } else { w as f64 }));
        }
        let at: Vec<f64> = (0..values.len()).map(|i| i as f64).collect();
        assert_eq!(
            windowed_percentile(&values, &at, 0.99, 1000, 0.25),
            Some((10.0, 4))
        );
        assert_eq!(
            windowed_percentile(&values, &at, 0.99, 1000, 0.5),
            Some((20.0, 4))
        );
        // Order comes from `at`, not from the slice.
        let reversed: Vec<f64> = at.iter().rev().copied().collect();
        let flipped: Vec<f64> = values.iter().rev().copied().collect();
        assert_eq!(
            windowed_percentile(&flipped, &reversed, 0.99, 1000, 0.5),
            Some((20.0, 4))
        );
        assert_eq!(
            windowed_percentile(&values[..999], &at[..999], 0.99, 1000, 0.5),
            None
        );
        // Every window of 1000 leaves ten samples beyond its p99.
        assert_eq!(beyond(P99_WINDOW, 0.99), MIN_BEYOND);
    }

    #[test]
    fn windowed_rate_takes_a_quantile_of_slices() {
        // 1 s in four slices holding 10, 20, 30 and 100 events.
        let mut at = Vec::new();
        for (slice, n) in [10usize, 20, 30, 100].into_iter().enumerate() {
            at.extend((0..n).map(|i| 0.25 * slice as f64 + 0.2 * i as f64 / n as f64));
        }
        // Nearest-rank quantiles of 40, 80, 120 and 400 per second.
        assert_eq!(windowed_rate(&at, 1.0, 4, 1.0, 0.5), 80.0);
        assert_eq!(windowed_rate(&at, 1.0, 4, 1.0, 0.75), 120.0);
        assert_eq!(windowed_rate(&at, 1.0, 4, 2.0, 0.75), 240.0);
    }

    #[test]
    fn summary_reports_mean_and_count() {
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]).expect("non-empty");
        assert_eq!(s.count, 4);
        assert_eq!(s.mean, 2.5);
        assert_eq!(s.p50, 2.0);
        assert_eq!(s.p99, 4.0);
        assert!(Summary::of(&[]).is_none());
    }
}
