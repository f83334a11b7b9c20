//! Differential tests: the bitsliced / multithreaded engines against the
//! scalar reference engines, and the bitsliced Monte-Carlo estimator
//! against the paper's published numbers.
//!
//! Contract being enforced (see DESIGN.md, "Simulation engine"):
//!
//! * For exact probability types (`Rational`) the bitsliced exhaustive
//!   sweep, the scalar sweep, and every thread count of the parallel sweep
//!   produce **identical** reports — probabilities, histograms, counts and
//!   work accounting.
//! * For `f64` profiles the weighted probabilities agree to ~1e-12 (float
//!   addition is not associative, so grouping differences survive).
//! * The Monte-Carlo engines are statistically exchangeable: both
//!   reproduce exhaustive ground truth and the paper's Table 7 values
//!   within sampling error.

use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
use sealpaa_num::Rational;
use sealpaa_sim::{
    exhaustive, exhaustive_scalar, exhaustive_with, exhaustive_with_backend, monte_carlo,
    monte_carlo_scalar, Backend, MonteCarloConfig,
};

/// A hybrid chain mixing several approximate cells with accurate stages —
/// deliberately irregular so per-stage compilation bugs cannot cancel.
fn hybrid_chain() -> AdderChain {
    AdderChain::from_stages(vec![
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
        StandardCell::Accurate.cell(),
        StandardCell::Lpaa7.cell(),
        StandardCell::Lpaa1.cell(),
        StandardCell::Lpaa6.cell(),
        StandardCell::Accurate.cell(),
        StandardCell::Lpaa4.cell(),
    ])
}

#[test]
fn bitsliced_exhaustive_equals_scalar_for_every_standard_cell() {
    // Width 6 (the narrowest width that runs the bitsliced kernel) at a
    // biased Rational profile: the kernel must be *identical* to the
    // scalar walk, cell by cell. Wider widths are covered by the f64 and
    // parallel tests below; the scalar Rational oracle is too slow there.
    let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(3, 7));
    for cell in StandardCell::ALL {
        let chain = AdderChain::uniform(cell.cell(), 6);
        let fast = exhaustive(&chain, &profile).expect("feasible");
        let slow = exhaustive_scalar(&chain, &profile).expect("feasible");
        assert_eq!(fast.error_cases, slow.error_cases, "{cell}");
        assert_eq!(
            fast.output_error_probability, slow.output_error_probability,
            "{cell}"
        );
        assert_eq!(
            fast.stage_error_probability, slow.stage_error_probability,
            "{cell}"
        );
        assert_eq!(fast.histogram, slow.histogram, "{cell}");
        assert_eq!(fast.work, slow.work, "{cell}");
    }
}

#[test]
fn bitsliced_exhaustive_matches_scalar_metrics_for_f64() {
    let profile = InputProfile::<f64>::constant(8, 0.2);
    let chain = hybrid_chain();
    let fast = exhaustive(&chain, &profile).expect("feasible");
    let slow = exhaustive_scalar(&chain, &profile).expect("feasible");
    assert_eq!(fast.error_cases, slow.error_cases);
    assert_eq!(fast.histogram, slow.histogram);
    assert!((fast.output_error_probability - slow.output_error_probability).abs() < 1e-12);
    assert!((fast.stage_error_probability - slow.stage_error_probability).abs() < 1e-12);
    assert!(
        (fast.metrics.error_probability - slow.metrics.error_probability).abs() < 1e-12,
        "bitsliced {} vs scalar {}",
        fast.metrics.error_probability,
        slow.metrics.error_probability
    );
    assert!((fast.metrics.mean_error_distance - slow.metrics.mean_error_distance).abs() < 1e-9);
    assert!(
        (fast.metrics.mean_absolute_error_distance - slow.metrics.mean_absolute_error_distance)
            .abs()
            < 1e-9
    );
    assert_eq!(
        fast.metrics.max_absolute_error_distance,
        slow.metrics.max_absolute_error_distance
    );
}

#[test]
fn parallel_exhaustive_equals_serial_for_all_thread_counts() {
    let profile = InputProfile::<Rational>::new(
        (1..=7).map(|i| Rational::from_ratio(i, 13)).collect(),
        (1..=7).map(|i| Rational::from_ratio(9 - i, 10)).collect(),
        Rational::from_ratio(1, 3),
    )
    .expect("valid profile");
    let chain = AdderChain::from_stages(vec![
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
        StandardCell::Accurate.cell(),
        StandardCell::Lpaa7.cell(),
        StandardCell::Lpaa1.cell(),
        StandardCell::Lpaa6.cell(),
        StandardCell::Lpaa4.cell(),
    ]);
    let serial = exhaustive(&chain, &profile).expect("feasible");
    for threads in [1usize, 2, 5, 64] {
        let parallel = exhaustive_with(&chain, &profile, threads).expect("feasible");
        assert_eq!(
            parallel.output_error_probability, serial.output_error_probability,
            "threads={threads}"
        );
        assert_eq!(
            parallel.stage_error_probability, serial.stage_error_probability,
            "threads={threads}"
        );
        assert_eq!(parallel.histogram, serial.histogram, "threads={threads}");
        assert_eq!(
            parallel.error_cases, serial.error_cases,
            "threads={threads}"
        );
        assert_eq!(parallel.work, serial.work, "threads={threads}");
        assert_eq!(
            parallel.metrics.max_absolute_error_distance,
            serial.metrics.max_absolute_error_distance
        );
    }
}

#[test]
fn parallel_exhaustive_equals_scalar_reference_end_to_end() {
    // The full chain of trust in one assertion: threaded bitsliced vs the
    // plain one-case-at-a-time loop.
    let profile = InputProfile::<Rational>::constant(7, Rational::from_ratio(1, 4));
    let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 7);
    let reference = exhaustive_scalar(&chain, &profile).expect("feasible");
    let threaded = exhaustive_with(&chain, &profile, 5).expect("feasible");
    assert_eq!(
        threaded.output_error_probability,
        reference.output_error_probability
    );
    assert_eq!(
        threaded.stage_error_probability,
        reference.stage_error_probability
    );
    assert_eq!(threaded.histogram, reference.histogram);
    assert_eq!(threaded.work, reference.work);
}

#[test]
fn bitsliced_monte_carlo_reproduces_paper_table7_lpaa6() {
    // Paper Table 7, 8-bit LPAA 6 at p = 0.1: P(E) = 0.16953 (1M-sample
    // LabVIEW simulation; the analytical value agrees to the shown digits).
    let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 8);
    let profile = InputProfile::constant(8, 0.1);
    let report = monte_carlo(
        &chain,
        &profile,
        MonteCarloConfig {
            samples: 400_000,
            seed: 0xDAC1_7ADD,
            threads: 1,
            backend: None,
        },
    )
    .expect("valid");
    let expected = 0.16953;
    assert!(
        (report.error_probability() - expected).abs() < 5.0 * report.standard_error,
        "MC {} vs paper {expected} (5σ = {})",
        report.error_probability(),
        5.0 * report.standard_error
    );
}

#[test]
fn bitsliced_monte_carlo_reproduces_paper_table6_lpaa1_uniform() {
    // Paper Table 6 regime: uniform inputs (p = 0.5). 8-bit LPAA 1 ground
    // truth from the exhaustive sweep, Monte-Carlo within 5σ.
    let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 8);
    let profile = InputProfile::constant(8, 0.5);
    let truth = exhaustive(&chain, &profile)
        .expect("feasible")
        .output_error_probability;
    let report = monte_carlo(
        &chain,
        &profile,
        MonteCarloConfig {
            samples: 300_000,
            seed: 99,
            threads: 2,
            backend: None,
        },
    )
    .expect("valid");
    assert!(
        (report.error_probability() - truth).abs() < 5.0 * report.standard_error + 1e-9,
        "MC {} vs exact {truth}",
        report.error_probability()
    );
}

#[test]
fn both_monte_carlo_engines_agree_statistically() {
    let chain = AdderChain::uniform(StandardCell::Lpaa5.cell(), 10);
    let profile = InputProfile::constant(10, 0.3);
    let cfg = MonteCarloConfig {
        samples: 100_000,
        seed: 1234,
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
    // Error-distance statistics must agree too, not just the hit rate.
    assert!(
        (fast.metrics.mean_absolute_error_distance - slow.metrics.mean_absolute_error_distance)
            .abs()
            < 0.05 * (1.0 + slow.metrics.mean_absolute_error_distance),
        "MED: bitsliced {} vs scalar {}",
        fast.metrics.mean_absolute_error_distance,
        slow.metrics.mean_absolute_error_distance
    );
}

/// Per-bit operand probabilities that differ at every bit, so the sweep
/// takes its per-lane weighting path.
fn skewed_profile() -> InputProfile<f64> {
    InputProfile::new(
        (1..=8).map(|i| f64::from(i) / 10.0).collect(),
        (1..=8).map(|i| 0.85 - f64::from(i) / 12.0).collect(),
        0.3,
    )
    .expect("valid profile")
}

#[test]
fn monte_carlo_streams_keep_their_recorded_bits() {
    // Recorded before the engines moved onto `fan_out`: the sample streams
    // fix every bit, and the OS threads that run them must not. 64 streams
    // run on at most the host's parallelism.
    // (threads, error samples, P(error), MED bias, MED, max |ED|, std error)
    let pins: [(usize, u64, u64, u64, u64, u64, u64); 3] = [
        (
            1,
            86675,
            0x3febbc33f768ad86,
            0x404407e858a7bf24,
            0x404ca6d91e091bb3,
            211,
            0x3f519bda74fb3456,
        ),
        (
            3,
            86809,
            0x3febc72e10d9733b,
            0x4043f0cbef08677b,
            0x404c903b2f77f9d6,
            211,
            0x3f518899cb19fc6f,
        ),
        (
            64,
            86762,
            0x3febc3546f17263e,
            0x4043e8e29aba14b0,
            0x404c92aeac7e248d,
            211,
            0x3f518f5ef48954b5,
        ),
    ];
    for (threads, errors, p, bias, med, max, se) in pins {
        let config = MonteCarloConfig {
            samples: 100_003,
            seed: 0x05EA_1DAC,
            threads,
            backend: Some(Backend::U64),
        };
        let r = monte_carlo(&hybrid_chain(), &skewed_profile(), config).expect("valid");
        let m = r.metrics;
        assert_eq!(
            (
                r.error_samples,
                m.error_probability.to_bits(),
                m.mean_error_distance.to_bits(),
                m.mean_absolute_error_distance.to_bits(),
                m.max_absolute_error_distance,
                r.standard_error.to_bits(),
            ),
            (errors, p, bias, med, max, se),
            "threads {threads}"
        );
    }
}

#[test]
fn f64_sweep_ranges_keep_their_recorded_bits() {
    // Recorded before the sweep moved onto `fan_out`. The f64 sums differ
    // in the last ulp between one and three `a` ranges; each range count
    // must keep its own bits.
    // (threads, P(error), MED bias, MED, max |ED|, output P, stage P)
    let pins: [(usize, u64, u64, u64, u64, u64, u64); 2] = [
        (
            1,
            0x3febc153e2f61048,
            0x4043f0b4e34e0349,
            0x404c9f798f224f9a,
            211,
            0x3febc153e2f61042,
            0x3febc153e2f61041,
        ),
        (
            3,
            0x3febc153e2f61044,
            0x4043f0b4e34e034a,
            0x404c9f798f224f97,
            211,
            0x3febc153e2f6103f,
            0x3febc153e2f6103f,
        ),
    ];
    for (threads, p, bias, med, max, output, stage) in pins {
        let r = exhaustive_with_backend(
            &hybrid_chain(),
            &skewed_profile(),
            threads,
            Some(Backend::U64),
        )
        .expect("feasible");
        let m = r.metrics;
        assert_eq!(
            (
                m.error_probability.to_bits(),
                m.mean_error_distance.to_bits(),
                m.mean_absolute_error_distance.to_bits(),
                m.max_absolute_error_distance,
                r.output_error_probability.to_bits(),
                r.stage_error_probability.to_bits(),
            ),
            (p, bias, med, max, output, stage),
            "threads {threads}"
        );
    }
}
