//! The trace-replay differential suite: the bitsliced 64-lane replay must be
//! bit-for-bit identical to the scalar per-record oracle, for every workload
//! family, chain shape, and thread count. `ReplayReport` derives `Eq` over
//! pure integer accumulators, so `assert_eq!` really is bit-for-bit.

use sealpaa_cells::{AdderChain, Cell, StandardCell};
use sealpaa_sim::SplitMix64;
use sealpaa_trace::{generate, replay, replay_scalar, SynthKind, TraceRecord};

fn random_hybrid(rng: &mut SplitMix64, width: usize) -> AdderChain {
    let stages: Vec<Cell> = (0..width)
        .map(|_| {
            let pick = (rng.next_u64() % StandardCell::ALL.len() as u64) as usize;
            StandardCell::ALL[pick].cell()
        })
        .collect();
    AdderChain::from_stages(stages)
}

#[test]
fn bitsliced_replay_matches_scalar_oracle_on_every_workload() {
    for cell in StandardCell::ALL {
        for kind in SynthKind::ALL {
            let width = 11;
            let chain = AdderChain::uniform(cell.cell(), width);
            let records = generate(kind, width, 1000, 0xDAC17).expect("valid");
            let fast = replay(&chain, &records, 1).expect("valid");
            let oracle = replay_scalar(&chain, &records).expect("valid");
            assert_eq!(fast, oracle, "{cell} on {kind}");
        }
    }
}

#[test]
fn bitsliced_replay_matches_scalar_oracle_on_random_hybrids() {
    let mut rng = SplitMix64::new(0x7ACE);
    for trial in 0..20 {
        let width = 1 + (rng.next_u64() % 20) as usize;
        let chain = random_hybrid(&mut rng, width);
        let records = generate(SynthKind::RandomWalk, width, 777, rng.next_u64()).expect("valid");
        let fast = replay(&chain, &records, 1).expect("valid");
        let oracle = replay_scalar(&chain, &records).expect("valid");
        assert_eq!(fast, oracle, "trial {trial}: {chain}");
    }
}

#[test]
fn replay_is_deterministic_across_thread_counts() {
    let width = 13;
    let chain = AdderChain::lsb_approximate(
        StandardCell::Lpaa5.cell(),
        StandardCell::Accurate.cell(),
        7,
        width,
    );
    // A record count that is not a multiple of 64 nor of any thread count,
    // so span boundaries land everywhere.
    let records = generate(SynthKind::GaussianSum, width, 10_007, 99).expect("valid");
    let reference = replay(&chain, &records, 1).expect("valid");
    assert_eq!(reference, replay_scalar(&chain, &records).expect("valid"));
    for threads in [2usize, 3, 4, 7, 8, 16, 64] {
        let got = replay(&chain, &records, threads).expect("valid");
        assert_eq!(got, reference, "{threads} threads");
    }
}

#[test]
fn replay_handles_cin_and_width_edges() {
    // Width 1, the widths around 32 (where the two operands stop sharing
    // one transpose word) and the replay ceiling, with carry-ins exercised.
    let mut rng = SplitMix64::new(5);
    for width in [1usize, 2, 31, 32, 33, 47] {
        let mask = if width == 64 {
            u64::MAX
        } else {
            (1u64 << width) - 1
        };
        let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), width);
        let records: Vec<TraceRecord> = (0..300)
            .map(|_| {
                TraceRecord::new(
                    rng.next_u64() & mask,
                    rng.next_u64() & mask,
                    rng.next_u64() & 1 == 1,
                )
            })
            .collect();
        let fast = replay(&chain, &records, 4).expect("valid");
        let oracle = replay_scalar(&chain, &records).expect("valid");
        assert_eq!(fast, oracle, "width {width}");
    }
}

#[test]
fn replay_rates_agree_with_monte_carlo_on_matching_profiles() {
    // A uniform synthetic trace is exactly the Monte-Carlo p=0.5 regime; the
    // two independently-built engines must land on the same error rate to
    // within sampling noise.
    let width = 10;
    let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), width);
    let records = generate(SynthKind::Uniform, width, 1 << 16, 11).expect("valid");
    let report = replay(&chain, &records, 4).expect("valid");
    let profile = sealpaa_cells::InputProfile::<f64>::uniform(width);
    let config = sealpaa_sim::MonteCarloConfig {
        samples: 1 << 16,
        seed: 0xFEED,
        threads: 1,
        backend: None,
    };
    let mc = sealpaa_sim::monte_carlo(&chain, &profile, config).expect("valid");
    assert!(
        (report.output_error_rate() - mc.metrics.error_probability).abs() < 0.02,
        "replay {} vs monte-carlo {}",
        report.output_error_rate(),
        mc.metrics.error_probability
    );
}
