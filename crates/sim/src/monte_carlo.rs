//! Monte-Carlo simulation with inputs drawn from the profile.
//!
//! [`monte_carlo`] is bitsliced and width-generic: each pass draws one
//! [`SimdWord`] of independent input vectors per bit-plane through the
//! entropy-pooled [`PooledSampler`] and evaluates all lanes through
//! [`CompiledKernel`], so the per-sample cost is a fraction of a word
//! operation instead of a per-bit truth-table walk. The kernel word width
//! follows the runtime-detected [`Backend`] (64 lanes on the portable u64
//! path, up to 512 with AVX-512), overridable per run via
//! [`MonteCarloConfig::backend`] or the `SEALPAA_SIMD` environment
//! variable. [`monte_carlo_scalar`] keeps the one-sample-at-a-time
//! reference implementation for differential tests and benchmark
//! baselines.
//!
//! Both engines are deterministic for a fixed `(seed, threads, backend)`
//! triple, but they consume randomness differently — across engines or
//! backends the same seed sees *different* (equally valid) samples.

use sealpaa_cells::{
    accurate_eval, dispatch, error_stats, AdderChain, Backend, CompiledChain, InputProfile,
    SimdKernel, SimdWord,
};
use sealpaa_num::Prob;

use crate::exhaustive::SimError;
use crate::metrics::{ErrorMetrics, MetricsAccumulator};
use crate::rng::{quantize_p53, Xoshiro256pp};
use crate::sampler::PooledSampler;

#[cfg(doc)]
use sealpaa_cells::CompiledKernel;

/// Configuration of a Monte-Carlo run.
///
/// The defaults mirror the paper: one million samples (Table 6/7), and a
/// fixed seed so every reported number is reproducible.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonteCarloConfig {
    /// Number of random input vectors to draw.
    pub samples: u64,
    /// RNG seed (deterministic by default for reproducible tables).
    pub seed: u64,
    /// Worker threads. Results are deterministic for a given
    /// `(seed, threads, backend)` triple (each worker derives its own
    /// seed), so keep `threads` fixed when comparing runs.
    pub threads: usize,
    /// SIMD backend for the bitsliced engine, or `None` to use
    /// [`Backend::active`] (runtime detection, overridable through the
    /// `SEALPAA_SIMD` environment variable). The sample stream depends on
    /// the lane count, so pin this too when comparing runs bit-for-bit.
    pub backend: Option<Backend>,
}

impl Default for MonteCarloConfig {
    fn default() -> Self {
        MonteCarloConfig {
            samples: 1_000_000,
            seed: 0xDAC1_7ADD,
            threads: 1,
            backend: None,
        }
    }
}

/// The outcome of a Monte-Carlo run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonteCarloReport {
    /// Samples drawn.
    pub samples: u64,
    /// Samples whose output value was wrong.
    pub error_samples: u64,
    /// Quality metrics estimated from the samples.
    pub metrics: ErrorMetrics,
    /// One standard error of the `error_probability` estimate
    /// (`√(p(1−p)/n)`), so callers can judge how many decimal places are
    /// trustworthy — the paper's "up to 3rd decimal place for 1 M cases"
    /// claim (Table 6).
    pub standard_error: f64,
}

impl MonteCarloReport {
    /// Estimated probability that the output value is wrong.
    pub fn error_probability(&self) -> f64 {
        self.metrics.error_probability
    }
}

/// Widest chain both engines accept: a 62-bit adder's output (sum plus
/// carry) is below `2^63`, so every error distance fits `i64`.
const MAX_MONTE_CARLO_WIDTH: usize = 62;

fn validate<T: Prob>(chain: &AdderChain, profile: &InputProfile<T>) -> Result<usize, SimError> {
    let width = chain.width();
    if width != profile.width() {
        return Err(SimError::WidthMismatch {
            chain: width,
            profile: profile.width(),
        });
    }
    if width > MAX_MONTE_CARLO_WIDTH {
        return Err(SimError::WidthTooLarge {
            width,
            max: MAX_MONTE_CARLO_WIDTH,
        });
    }
    Ok(width)
}

fn report_from(acc: MetricsAccumulator, error_samples: u64, samples: u64) -> MonteCarloReport {
    let metrics = acc.finish();
    let p = metrics.error_probability;
    let standard_error = if samples > 0 {
        (p * (1.0 - p) / samples as f64).sqrt()
    } else {
        0.0
    };
    MonteCarloReport {
        samples,
        error_samples,
        metrics,
        standard_error,
    }
}

fn spawn_workers<F>(threads: u64, run_chunk: F) -> (MetricsAccumulator, u64)
where
    F: Fn(u64) -> (MetricsAccumulator, u64) + Sync,
{
    let mut acc = MetricsAccumulator::default();
    let mut error_samples = 0u64;
    if threads == 1 {
        let (a, e) = run_chunk(0);
        acc = a;
        error_samples = e;
    } else {
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|w| {
                    let run_chunk = &run_chunk;
                    scope.spawn(move || run_chunk(w))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker threads do not panic"))
                .collect::<Vec<_>>()
        });
        for (chunk_acc, chunk_errors) in results {
            acc.merge(chunk_acc);
            error_samples += chunk_errors;
        }
    }
    (acc, error_samples)
}

/// One worker's share of a bitsliced Monte-Carlo run, dispatched to the
/// selected backend's word type.
struct McWorker<'a> {
    compiled: &'a CompiledChain,
    qa: &'a [u64],
    qb: &'a [u64],
    q_cin: u64,
    samples: u64,
    seed: u64,
}

impl SimdKernel for McWorker<'_> {
    type Out = (MetricsAccumulator, u64);

    #[inline(always)]
    fn run<W: SimdWord>(self) -> Self::Out {
        let kernel = self.compiled.kernel::<W>();
        let width = kernel.width();
        let mut sampler = PooledSampler::<W>::new(self.seed, self.qa, self.qb, self.q_cin);
        let mut acc = MetricsAccumulator::default();
        let mut errors = 0u64;
        let mut a_planes = vec![W::zero(); width];
        let mut b_planes = vec![W::zero(); width];
        let mut approx_sum = vec![W::zero(); width];
        let mut exact_sum = vec![W::zero(); width];
        let lanes = W::LANES as u64;
        let full_batches = self.samples / lanes;
        let tail = self.samples % lanes;
        let batches = full_batches + u64::from(tail > 0);
        for batch in 0..batches {
            // The final partial batch draws a full word of lanes and masks
            // the surplus out — simpler and branch-free in the hot path.
            let active = if batch == full_batches {
                W::tail_mask(tail as usize)
            } else {
                W::ones()
            };
            let cin_word = sampler.fill(&mut a_planes, &mut b_planes);
            let approx_cout = kernel.eval_into(&a_planes, &b_planes, cin_word, &mut approx_sum);
            let exact_cout = accurate_eval(&a_planes, &b_planes, cin_word, &mut exact_sum);
            let mut mismatch = approx_cout ^ exact_cout;
            for i in 0..width {
                mismatch = mismatch | (approx_sum[i] ^ exact_sum[i]);
            }
            mismatch = mismatch & active;
            acc.add_bulk_weight(active.count_ones() as f64);
            let wrong = mismatch.count_ones();
            errors += wrong;
            if mismatch.any() {
                // Aggregate the batch's error moments in plane space — one
                // O(width) pass and one accumulator update, independent of
                // how many lanes erred.
                let stats = error_stats(&approx_sum, approx_cout, &exact_sum, exact_cout, mismatch);
                acc.record_error_block(
                    wrong as f64,
                    stats.sum_ed,
                    stats.sum_abs_ed,
                    stats.max_abs_ed,
                );
            }
        }
        (acc, errors)
    }
}

/// Draws `config.samples` random input vectors from `profile` (independent
/// per-bit Bernoulli draws, as in the paper's LabVIEW setup) and measures the
/// approximate chain against exact addition.
///
/// Bitsliced: one SIMD word of samples (64–512 lanes depending on the
/// backend) is drawn and evaluated per pass, with probabilities quantized
/// to `2^-53`, the resolution of a scalar `next_f64` draw. Deterministic
/// per `(seed, threads, backend)`; see [`monte_carlo_scalar`] for the
/// per-sample reference engine.
///
/// # Errors
///
/// Returns [`SimError::WidthMismatch`] if `profile` does not match the chain,
/// or [`SimError::WidthTooLarge`] if the chain exceeds 62 bits: the widest
/// adder whose full output value, and so every error distance, fits `i64`.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
/// use sealpaa_sim::{monte_carlo, MonteCarloConfig};
///
/// let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
/// let profile = InputProfile::constant(8, 0.1);
/// let config = MonteCarloConfig { samples: 50_000, ..Default::default() };
/// let report = monte_carlo(&chain, &profile, config)?;
/// // Paper Table 7: P(E) of 8-bit LPAA 6 at p=0.1 is ≈ 0.1695.
/// assert!((report.error_probability() - 0.1695).abs() < 0.01);
/// # Ok::<(), sealpaa_sim::SimError>(())
/// ```
pub fn monte_carlo<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
    config: MonteCarloConfig,
) -> Result<MonteCarloReport, SimError> {
    let width = validate(chain, profile)?;
    let backend = config.backend.unwrap_or_else(Backend::active);
    let compiled = CompiledChain::compile(chain);
    let qa: Vec<u64> = (0..width)
        .map(|i| quantize_p53(profile.pa(i).to_f64()))
        .collect();
    let qb: Vec<u64> = (0..width)
        .map(|i| quantize_p53(profile.pb(i).to_f64()))
        .collect();
    let q_cin = quantize_p53(profile.p_cin().to_f64());

    let threads = config.threads.clamp(1, 64) as u64;
    let base = config.samples / threads;
    let extra = config.samples % threads;
    let run_chunk = |worker: u64| -> (MetricsAccumulator, u64) {
        let samples = base + u64::from(worker < extra);
        // SplitMix-style per-worker seed derivation keeps streams disjoint.
        let seed = config
            .seed
            .wrapping_add(worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        dispatch(
            backend,
            McWorker {
                compiled: &compiled,
                qa: &qa,
                qb: &qb,
                q_cin,
                samples,
                seed,
            },
        )
    };

    let (acc, error_samples) = spawn_workers(threads, run_chunk);
    Ok(report_from(acc, error_samples, config.samples))
}

/// The scalar reference engine: one sample at a time, one truth-table walk
/// per bit. Statistically equivalent to [`monte_carlo`] (the estimates
/// agree within sampling error) but roughly an order of magnitude slower —
/// kept public as the differential-test oracle and benchmark baseline.
/// Ignores [`MonteCarloConfig::backend`] (there is no kernel to widen).
///
/// # Errors
///
/// Same conditions as [`monte_carlo`].
pub fn monte_carlo_scalar<T: Prob>(
    chain: &AdderChain,
    profile: &InputProfile<T>,
    config: MonteCarloConfig,
) -> Result<MonteCarloReport, SimError> {
    let width = validate(chain, profile)?;

    // Pre-convert the profile to f64 thresholds once.
    let pa: Vec<f64> = (0..width).map(|i| profile.pa(i).to_f64()).collect();
    let pb: Vec<f64> = (0..width).map(|i| profile.pb(i).to_f64()).collect();
    let p_cin = profile.p_cin().to_f64();

    let threads = config.threads.clamp(1, 64) as u64;
    let base = config.samples / threads;
    let extra = config.samples % threads;
    let run_chunk = |worker: u64| -> (MetricsAccumulator, u64) {
        let samples = base + u64::from(worker < extra);
        // SplitMix-style per-worker seed derivation keeps streams disjoint.
        let seed = config
            .seed
            .wrapping_add(worker.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let mut rng = Xoshiro256pp::seed_from_u64(seed);
        let mut acc = MetricsAccumulator::default();
        let mut errors = 0u64;
        for _ in 0..samples {
            let mut a = 0u64;
            let mut b = 0u64;
            for i in 0..width {
                if rng.next_f64() < pa[i] {
                    a |= 1 << i;
                }
                if rng.next_f64() < pb[i] {
                    b |= 1 << i;
                }
            }
            let cin = rng.next_f64() < p_cin;
            let approx = chain.add(a, b, cin);
            let exact = chain.accurate_sum(a, b, cin);
            if approx != exact {
                errors += 1;
            }
            acc.record(1.0, approx.error_distance(exact));
        }
        (acc, errors)
    };

    let (acc, error_samples) = spawn_workers(threads, run_chunk);
    Ok(report_from(acc, error_samples, config.samples))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exhaustive::exhaustive;
    use sealpaa_cells::StandardCell;

    #[test]
    fn deterministic_given_seed() {
        let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 6);
        let profile = InputProfile::constant(6, 0.3);
        let cfg = MonteCarloConfig {
            samples: 10_000,
            seed: 42,
            ..Default::default()
        };
        let r1 = monte_carlo(&chain, &profile, cfg).expect("valid");
        let r2 = monte_carlo(&chain, &profile, cfg).expect("valid");
        assert_eq!(r1, r2);
    }

    #[test]
    fn different_seeds_differ() {
        let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 6);
        let profile = InputProfile::constant(6, 0.3);
        let a = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 5_000,
                seed: 1,
                ..Default::default()
            },
        )
        .expect("valid");
        let b = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 5_000,
                seed: 2,
                ..Default::default()
            },
        )
        .expect("valid");
        assert_ne!(a.error_samples, b.error_samples);
    }

    #[test]
    fn estimate_converges_to_exhaustive_truth() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let profile = InputProfile::constant(4, 0.2);
        let truth = exhaustive(&chain, &profile)
            .expect("feasible")
            .output_error_probability;
        let mc = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 200_000,
                seed: 7,
                ..Default::default()
            },
        )
        .expect("valid");
        // 5 standard errors is a comfortable, non-flaky bound.
        assert!(
            (mc.error_probability() - truth).abs() < 5.0 * mc.standard_error + 1e-9,
            "MC {} vs exact {truth}",
            mc.error_probability()
        );
    }

    #[test]
    fn scalar_engine_estimate_agrees_with_bitsliced() {
        // Same task, both engines: estimates must agree within the combined
        // sampling error (the streams differ, so not bit-for-bit).
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
        let profile = InputProfile::constant(8, 0.1);
        let cfg = MonteCarloConfig {
            samples: 60_000,
            seed: 21,
            threads: 1,
            backend: None,
        };
        let fast = monte_carlo(&chain, &profile, cfg).expect("valid");
        let slow = monte_carlo_scalar(&chain, &profile, cfg).expect("valid");
        assert!(
            (fast.error_probability() - slow.error_probability()).abs()
                < 5.0 * (fast.standard_error + slow.standard_error) + 1e-9,
            "bitsliced {} vs scalar {}",
            fast.error_probability(),
            slow.error_probability()
        );
        // The scalar engine stays deterministic too.
        let again = monte_carlo_scalar(&chain, &profile, cfg).expect("valid");
        assert_eq!(slow, again);
    }

    #[test]
    fn partial_batch_masks_surplus_lanes() {
        // A sample count straddling batch boundaries must count exactly
        // `samples` cases, not a multiple of the lane count — on every
        // backend available here.
        let chain = AdderChain::uniform(StandardCell::Lpaa7.cell(), 5);
        let profile = InputProfile::<f64>::uniform(5);
        for backend in Backend::available() {
            for samples in [1u64, 63, 64, 65, 130, 513] {
                let r = monte_carlo(
                    &chain,
                    &profile,
                    MonteCarloConfig {
                        samples,
                        seed: 2,
                        threads: 1,
                        backend: Some(backend),
                    },
                )
                .expect("valid");
                assert_eq!(r.samples, samples);
                assert!(r.error_samples <= samples, "{backend}: {samples} samples");
                assert!(
                    (r.metrics.error_probability - r.error_samples as f64 / samples as f64).abs()
                        < 1e-12
                );
            }
        }
    }

    #[test]
    fn backends_agree_statistically() {
        // Different backends see different (equally valid) sample streams;
        // their estimates must agree within combined sampling error, and
        // each must be deterministic in isolation.
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
        let profile = InputProfile::constant(8, 0.1);
        let run = |backend: Backend| {
            monte_carlo(
                &chain,
                &profile,
                MonteCarloConfig {
                    samples: 60_000,
                    seed: 11,
                    threads: 2,
                    backend: Some(backend),
                },
            )
            .expect("valid")
        };
        let baseline = run(Backend::U64);
        for backend in Backend::available() {
            let r = run(backend);
            assert_eq!(r, run(backend), "{backend} must be deterministic");
            assert!(
                (r.error_probability() - baseline.error_probability()).abs()
                    < 5.0 * (r.standard_error + baseline.standard_error) + 1e-9,
                "{backend}: {} vs u64 {}",
                r.error_probability(),
                baseline.error_probability()
            );
        }
    }

    #[test]
    fn multithreaded_run_is_deterministic_and_consistent() {
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
        let profile = InputProfile::constant(8, 0.1);
        let cfg = MonteCarloConfig {
            samples: 40_000,
            seed: 13,
            threads: 4,
            backend: None,
        };
        let r1 = monte_carlo(&chain, &profile, cfg).expect("valid");
        let r2 = monte_carlo(&chain, &profile, cfg).expect("valid");
        assert_eq!(r1, r2, "same (seed, threads) must reproduce exactly");
        assert_eq!(r1.samples, 40_000);
        // A single-threaded run with the same seed is a different (but
        // equally valid) sample; both estimates agree statistically.
        let single = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 40_000,
                seed: 13,
                threads: 1,
                backend: None,
            },
        )
        .expect("valid");
        assert!(
            (single.error_probability() - r1.error_probability()).abs()
                < 5.0 * (single.standard_error + r1.standard_error) + 1e-9
        );
    }

    #[test]
    fn accurate_chain_has_zero_errors() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 12);
        let profile = InputProfile::constant(12, 0.7);
        let r = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 20_000,
                seed: 3,
                ..Default::default()
            },
        )
        .expect("valid");
        assert_eq!(r.error_samples, 0);
        assert_eq!(r.error_probability(), 0.0);
        assert_eq!(r.standard_error, 0.0);
    }

    #[test]
    fn zero_samples_is_well_defined() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let profile = InputProfile::<f64>::uniform(2);
        let r = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: 0,
                seed: 0,
                ..Default::default()
            },
        )
        .expect("valid");
        assert_eq!(r.error_probability(), 0.0);
    }

    #[test]
    fn width_mismatch_rejected() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let profile = InputProfile::<f64>::uniform(3);
        assert!(monte_carlo(&chain, &profile, MonteCarloConfig::default()).is_err());
        assert!(monte_carlo_scalar(&chain, &profile, MonteCarloConfig::default()).is_err());
        // Past 62 bits an error distance no longer fits i64: both engines
        // refuse the chain instead of overflowing.
        for width in [63usize, 64] {
            let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), width);
            let profile = InputProfile::<f64>::uniform(width);
            let config = MonteCarloConfig {
                samples: 4096,
                ..MonteCarloConfig::default()
            };
            let expect = SimError::WidthTooLarge { width, max: 62 };
            assert_eq!(monte_carlo(&chain, &profile, config), Err(expect.clone()));
            assert_eq!(monte_carlo_scalar(&chain, &profile, config), Err(expect));
        }
    }
}
