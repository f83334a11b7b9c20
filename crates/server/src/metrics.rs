//! Lock-free request counters, per-kind latency histograms, and connection
//! gauges for the daemon's observability layer.
//!
//! Latencies are recorded in microseconds into power-of-two buckets
//! (`<1 µs`, `<2 µs`, `<4 µs`, …). Quantiles are answered from the bucket
//! counts: the reported p50/p99 is the *upper bound* of the bucket holding
//! that quantile, i.e. exact to within a factor of two — plenty for "is the
//! cache working" dashboards, and recording stays a single relaxed atomic
//! increment on the hot path. Every request kind gets its own counter set
//! and histogram on top of the aggregate, so a slow `simulate` cannot hide
//! behind a million fast cached `analyze`s.
//!
//! Connection-lifecycle gauges (live/peak connections, shed connections,
//! timeouts) are fed by the TCP accept loop and the per-connection threads;
//! they stay zero in `--stdio` mode.

use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets. Bucket `i` counts latencies in
/// `[2^i, 2^(i+1)) µs` (bucket 0 is `[0, 2)`); the last bucket absorbs
/// everything from `2^30 µs` (~18 minutes) up. The boundaries are fixed, so
/// the `stats` histogram layout is deterministic.
pub const BUCKETS: usize = 31;

/// The request kinds tracked per-kind, in stable wire-name order (this is
/// also the key order of the `stats` response's `"kinds"` object).
pub const KIND_NAMES: [&str; 11] = [
    "analyze", "simulate", "compare", "gear", "blocks", "dse", "profile", "datapath", "batch",
    "stats", "shutdown",
];

/// The index of a wire kind in [`KIND_NAMES`], or `None` for unknown names
/// (e.g. a kind salvaged from an unparseable request).
pub fn kind_index(kind: &str) -> Option<usize> {
    KIND_NAMES.iter().position(|k| *k == kind)
}

/// Counters for one request kind.
struct KindCounters {
    requests: AtomicU64,
    errors: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

impl Default for KindCounters {
    fn default() -> KindCounters {
        KindCounters {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// Shared request counters for the daemon.
pub struct Metrics {
    requests: AtomicU64,
    errors: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
    kinds: [KindCounters; KIND_NAMES.len()],
    live_connections: AtomicU64,
    peak_connections: AtomicU64,
    shed_connections: AtomicU64,
    timeouts: AtomicU64,
    registered_fds: AtomicU64,
    pending_write_bytes: AtomicU64,
    max_pipeline_depth: AtomicU64,
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            requests: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            kinds: std::array::from_fn(|_| KindCounters::default()),
            live_connections: AtomicU64::new(0),
            peak_connections: AtomicU64::new(0),
            shed_connections: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            registered_fds: AtomicU64::new(0),
            pending_write_bytes: AtomicU64::new(0),
            max_pipeline_depth: AtomicU64::new(0),
        }
    }
}

/// Per-kind slice of a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KindSnapshot {
    /// Requests of this kind that produced a successful response.
    pub requests: u64,
    /// Requests of this kind rejected with an error response.
    pub errors: u64,
    /// Median service latency in microseconds (bucket upper bound).
    pub p50_micros: u64,
    /// 99th-percentile service latency in microseconds (bucket upper bound).
    pub p99_micros: u64,
    /// The raw per-bucket counts (bucket `i` covers `[2^i, 2^(i+1)) µs`).
    pub histogram: [u64; BUCKETS],
}

/// A point-in-time snapshot of the metrics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Requests that produced a successful response.
    pub requests: u64,
    /// Requests rejected with an error response.
    pub errors: u64,
    /// Median service latency in microseconds (bucket upper bound).
    pub p50_micros: u64,
    /// 99th-percentile service latency in microseconds (bucket upper bound).
    pub p99_micros: u64,
    /// Per-kind counters, indexed as [`KIND_NAMES`].
    pub kinds: [KindSnapshot; KIND_NAMES.len()],
    /// TCP connections currently being served.
    pub live_connections: u64,
    /// High-water mark of concurrently served connections.
    pub peak_connections: u64,
    /// Connections refused because the live-connection cap was reached.
    pub shed_connections: u64,
    /// Connections closed by a read (idle) or write deadline.
    pub timeouts: u64,
    /// Sockets currently registered with the readiness poller (0 under the
    /// thread-per-connection model, where there is no poller).
    pub registered_fds: u64,
    /// Response bytes accepted but not yet written to their sockets, summed
    /// over every connection (the event loop's write-backpressure gauge).
    pub pending_write_bytes: u64,
    /// High-water mark of concurrently in-flight computed requests on one
    /// connection — >1 means a client actually pipelined. The
    /// thread-per-connection model serves strictly one request at a time,
    /// so it records 1 per computed request.
    pub max_pipeline_depth: u64,
}

impl Metrics {
    /// Creates zeroed counters.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Records one successfully served request of `kind` and its latency.
    pub fn record_ok(&self, kind: &str, micros: u64) {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let bucket = bucket_of(micros);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        if let Some(i) = kind_index(kind) {
            self.kinds[i].requests.fetch_add(1, Ordering::Relaxed);
            self.kinds[i].buckets[bucket].fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Records one request answered with an error. `kind` is the request's
    /// wire kind when it could be salvaged (even from an otherwise invalid
    /// request); pass `None` when not even the kind was recoverable.
    pub fn record_error(&self, kind: Option<&str>) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if let Some(i) = kind.and_then(kind_index) {
            self.kinds[i].errors.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Notes a newly accepted connection (bumps the live and peak gauges).
    pub fn connection_opened(&self) {
        let live = self.live_connections.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_connections.fetch_max(live, Ordering::Relaxed);
    }

    /// Notes a connection whose serving thread has exited.
    pub fn connection_closed(&self) {
        self.live_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Notes a connection refused at the live-connection cap.
    pub fn record_shed(&self) {
        self.shed_connections.fetch_add(1, Ordering::Relaxed);
    }

    /// Notes a connection closed by a read (idle) or write deadline.
    pub fn record_timeout(&self) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the poller's current registration count (event loop only).
    pub fn set_registered_fds(&self, n: u64) {
        self.registered_fds.store(n, Ordering::Relaxed);
    }

    /// Publishes the total bytes buffered for write across all connections
    /// (event loop only).
    pub fn set_pending_write_bytes(&self, n: u64) {
        self.pending_write_bytes.store(n, Ordering::Relaxed);
    }

    /// Raises the pipeline-depth high-water mark to `depth` if higher.
    pub fn record_pipeline_depth(&self, depth: u64) {
        self.max_pipeline_depth.fetch_max(depth, Ordering::Relaxed);
    }

    /// Reads all counters. Concurrent recording may tear between counters
    /// (a snapshot is not an atomic cut), which is fine for monitoring.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counts: Vec<u64> = self
            .buckets
            .iter()
            .map(|b| b.load(Ordering::Relaxed))
            .collect();
        MetricsSnapshot {
            requests: self.requests.load(Ordering::Relaxed),
            errors: self.errors.load(Ordering::Relaxed),
            p50_micros: quantile(&counts, 0.50),
            p99_micros: quantile(&counts, 0.99),
            kinds: std::array::from_fn(|i| {
                let kind = &self.kinds[i];
                let histogram: [u64; BUCKETS] =
                    std::array::from_fn(|b| kind.buckets[b].load(Ordering::Relaxed));
                KindSnapshot {
                    requests: kind.requests.load(Ordering::Relaxed),
                    errors: kind.errors.load(Ordering::Relaxed),
                    p50_micros: quantile(&histogram, 0.50),
                    p99_micros: quantile(&histogram, 0.99),
                    histogram,
                }
            }),
            live_connections: self.live_connections.load(Ordering::Relaxed),
            peak_connections: self.peak_connections.load(Ordering::Relaxed),
            shed_connections: self.shed_connections.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            registered_fds: self.registered_fds.load(Ordering::Relaxed),
            pending_write_bytes: self.pending_write_bytes.load(Ordering::Relaxed),
            max_pipeline_depth: self.max_pipeline_depth.load(Ordering::Relaxed),
        }
    }
}

/// The histogram bucket for a latency of `micros`.
fn bucket_of(micros: u64) -> usize {
    if micros < 2 {
        0
    } else {
        (63 - micros.leading_zeros() as usize).min(BUCKETS - 1)
    }
}

/// The upper bound (in µs) of the bucket containing the `q`-quantile sample.
fn quantile(counts: &[u64], q: f64) -> u64 {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return 0;
    }
    // Rank of the quantile sample, 1-based: ceil(q * total), clamped to ≥1.
    let rank = ((q * total as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (i, &count) in counts.iter().enumerate() {
        seen += count;
        if seen >= rank {
            return 1u64 << (i + 1);
        }
    }
    1u64 << BUCKETS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_metrics_report_zero() {
        let snap = Metrics::new().snapshot();
        assert_eq!(snap.requests, 0);
        assert_eq!(snap.errors, 0);
        assert_eq!(snap.p50_micros, 0);
        assert_eq!(snap.p99_micros, 0);
        assert_eq!(snap.live_connections, 0);
        assert_eq!(snap.peak_connections, 0);
        for kind in &snap.kinds {
            assert_eq!(kind.requests, 0);
            assert_eq!(kind.histogram, [0u64; BUCKETS]);
        }
    }

    #[test]
    fn quantiles_land_in_the_right_bucket() {
        let metrics = Metrics::new();
        // 99 fast requests (~1 µs) and one slow outlier (~1 ms).
        for _ in 0..99 {
            metrics.record_ok("analyze", 1);
        }
        metrics.record_ok("analyze", 1000);
        let snap = metrics.snapshot();
        assert_eq!(snap.requests, 100);
        assert_eq!(snap.p50_micros, 2, "median is in the fastest bucket");
        // Rank ceil(0.99 * 100) = 99 still falls in the fast bucket; the
        // outlier only shows up beyond p99.
        assert_eq!(snap.p99_micros, 2);

        // Two more slow requests drag p99 into the outlier bucket
        // (rank ceil(.99*102) = 101 > 99 fast ones).
        metrics.record_ok("analyze", 1000);
        metrics.record_ok("analyze", 1000);
        let snap = metrics.snapshot();
        // 1000 µs lies in [512, 1024) → bucket 9 → upper bound 1024.
        assert_eq!(snap.p99_micros, 1024);
    }

    #[test]
    fn uniform_latencies_give_that_bucket_for_all_quantiles() {
        let metrics = Metrics::new();
        for _ in 0..10 {
            metrics.record_ok("gear", 300); // [256, 512) → upper bound 512
        }
        let snap = metrics.snapshot();
        assert_eq!(snap.p50_micros, 512);
        assert_eq!(snap.p99_micros, 512);
    }

    #[test]
    fn huge_latencies_clamp_to_the_last_bucket() {
        let metrics = Metrics::new();
        metrics.record_ok("stats", u64::MAX);
        let snap = metrics.snapshot();
        assert_eq!(snap.p99_micros, 1u64 << BUCKETS);
    }

    #[test]
    fn errors_are_counted_separately() {
        let metrics = Metrics::new();
        metrics.record_ok("analyze", 5);
        metrics.record_error(Some("analyze"));
        metrics.record_error(None);
        let snap = metrics.snapshot();
        assert_eq!(snap.requests, 1);
        assert_eq!(snap.errors, 2);
        let analyze = &snap.kinds[kind_index("analyze").expect("known")];
        assert_eq!(analyze.requests, 1);
        assert_eq!(analyze.errors, 1, "only the attributable error");
    }

    #[test]
    fn per_kind_histograms_are_independent() {
        let metrics = Metrics::new();
        metrics.record_ok("analyze", 1); // bucket 0
        metrics.record_ok("simulate", 1000); // bucket 9
        let snap = metrics.snapshot();
        let analyze = &snap.kinds[kind_index("analyze").expect("known")];
        let simulate = &snap.kinds[kind_index("simulate").expect("known")];
        assert_eq!(analyze.p99_micros, 2);
        assert_eq!(simulate.p99_micros, 1024);
        assert_eq!(analyze.histogram[0], 1);
        assert_eq!(analyze.histogram[9], 0);
        assert_eq!(simulate.histogram[9], 1);
        // The aggregate sees both.
        assert_eq!(snap.requests, 2);
        assert_eq!(snap.p99_micros, 1024);
    }

    #[test]
    fn unknown_kinds_count_only_in_the_aggregate() {
        let metrics = Metrics::new();
        metrics.record_ok("frobnicate", 5);
        let snap = metrics.snapshot();
        assert_eq!(snap.requests, 1);
        assert!(snap.kinds.iter().all(|k| k.requests == 0));
    }

    #[test]
    fn connection_gauges_track_live_peak_shed_and_timeouts() {
        let metrics = Metrics::new();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.connection_opened();
        metrics.connection_closed();
        metrics.record_shed();
        metrics.record_timeout();
        metrics.record_timeout();
        let snap = metrics.snapshot();
        assert_eq!(snap.live_connections, 2);
        assert_eq!(snap.peak_connections, 3);
        assert_eq!(snap.shed_connections, 1);
        assert_eq!(snap.timeouts, 2);
    }

    #[test]
    fn event_loop_gauges_publish_and_high_water() {
        let metrics = Metrics::new();
        metrics.set_registered_fds(12);
        metrics.set_pending_write_bytes(4096);
        metrics.record_pipeline_depth(3);
        metrics.record_pipeline_depth(9);
        metrics.record_pipeline_depth(2);
        let snap = metrics.snapshot();
        assert_eq!(snap.registered_fds, 12);
        assert_eq!(snap.pending_write_bytes, 4096);
        assert_eq!(snap.max_pipeline_depth, 9, "gauge keeps the high-water");
        metrics.set_registered_fds(0);
        assert_eq!(metrics.snapshot().registered_fds, 0);
    }

    #[test]
    fn batch_is_a_tracked_kind() {
        assert!(kind_index("batch").is_some());
        let metrics = Metrics::new();
        metrics.record_ok("batch", 7);
        let snap = metrics.snapshot();
        assert_eq!(snap.kinds[kind_index("batch").expect("known")].requests, 1);
    }

    #[test]
    fn kind_names_resolve_to_their_indices() {
        for (i, name) in KIND_NAMES.iter().enumerate() {
            assert_eq!(kind_index(name), Some(i));
        }
        assert_eq!(kind_index("nope"), None);
    }
}
