//! Bit pins for the joint-carry analyses.
//!
//! `exact_error_analysis`, `error_magnitude`, `error_distribution` and
//! `worst_case_error` walk the same joint (approximate, accurate) carry
//! chain; `analyze`, `signal_probabilities` and
//! `success_sum_probabilities` share their width check. A refactor of that
//! walk must keep every `f64` bit, which the `Rational` suites cannot see:
//! a reordered product (`(mass·w_a)·w_b` against `(w_a·w_b)·mass`) is the
//! same rational but not the same float. This suite runs a seeded battery
//! of hybrid chains over all eight standard cells, widths 1–63, with every
//! per-bit probability and the carry-in drawn from {0, ½, 1, uniform}, and
//! folds the `to_bits()` of every output into one FNV-1a digest. A few
//! explicit values make a failure readable.

use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
use sealpaa_core::{
    analyze, error_distribution, error_magnitude, exact_error_analysis, signal_probabilities,
    success_sum_probabilities, worst_case_error, Witness, WorstCaseError,
};

/// SplitMix64 — tiny deterministic RNG, no external dependencies.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// One of {0, ½, 1, uniform on [0, 1)}: the saturated values exercise
    /// the zero-weight rows every walk skips.
    fn prob(&mut self) -> f64 {
        match self.below(4) {
            0 => 0.0,
            1 => 0.5,
            2 => 1.0,
            _ => (self.next() >> 11) as f64 / (1u64 << 53) as f64,
        }
    }
}

/// 64-bit FNV-1a over little-endian words, with a word count.
struct Digest {
    hash: u64,
    words: usize,
}

impl Digest {
    fn new() -> Self {
        Digest {
            hash: 0xCBF2_9CE4_8422_2325,
            words: 0,
        }
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.hash ^= u64::from(byte);
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
        self.words += 1;
    }

    fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    fn floats<'a>(&mut self, xs: impl IntoIterator<Item = &'a f64>) {
        for &x in xs {
            self.float(x);
        }
    }
}

/// Widest chain whose PMF is pinned (the support stays small enough for a
/// debug build).
const PMF_WIDTH: usize = 12;

/// Widest chain in the battery: `worst_case_error` reconstructs witnesses
/// into `u64` and refuses wider chains.
const MAX_WIDTH: usize = 63;

fn random_case(rng: &mut Rng) -> (AdderChain, InputProfile<f64>) {
    let width = 1 + rng.below(MAX_WIDTH);
    let cells = (0..width)
        .map(|_| StandardCell::ALL[rng.below(StandardCell::ALL.len())].cell())
        .collect();
    let pa = (0..width).map(|_| rng.prob()).collect();
    let pb = (0..width).map(|_| rng.prob()).collect();
    let profile = InputProfile::new(pa, pb, rng.prob()).expect("probabilities in [0, 1]");
    (AdderChain::from_stages(cells), profile)
}

/// Folds every output of every joint-carry analysis of one case.
fn fold_case(digest: &mut Digest, chain: &AdderChain, profile: &InputProfile<f64>) {
    let analysis = analyze(chain, profile).expect("widths match");
    digest.float(analysis.success_probability());

    let exact = exact_error_analysis(chain, profile).expect("widths match");
    digest.float(exact.output_error);
    digest.float(exact.stage_error);
    digest.floats(&exact.bit_error);

    let moments = error_magnitude(chain, profile).expect("widths match");
    digest.float(moments.mean_error_distance);
    digest.float(moments.mean_squared_error_distance);

    let signals = signal_probabilities(chain, profile).expect("widths match");
    digest.floats(&signals.carry);
    digest.floats(&signals.sum);
    digest.floats(&success_sum_probabilities(chain, profile).expect("widths match"));

    if chain.width() <= PMF_WIDTH {
        let dist = error_distribution(chain, profile).expect("width within the PMF bound");
        for (d, p) in &dist.pmf {
            digest.word(*d as u64);
            digest.float(*p);
        }
    }

    let wc = worst_case_error(chain).expect("width at most 63");
    for (value, witness) in [
        (wc.max_error, wc.max_witness),
        (wc.min_error, wc.min_witness),
    ] {
        digest.word(value as u64);
        digest.word((value >> 64) as u64);
        digest.word(witness.a);
        digest.word(witness.b);
        digest.word(u64::from(witness.carry_in));
    }
}

#[test]
fn seeded_battery_keeps_every_bit() {
    let mut rng = Rng(0x5EA1_9AA2_2017);
    let mut digest = Digest::new();
    for _ in 0..3000 {
        let (chain, profile) = random_case(&mut rng);
        fold_case(&mut digest, &chain, &profile);
    }
    assert_eq!(
        (digest.words, digest.hash),
        (481_018, 0x4D72_DA60_C3A9_A43D),
        "digest of the seeded battery"
    );
}

/// A fixed hybrid chain over all eight cells at a skewed, non-dyadic
/// profile: explicit bits for each analysis, readable when the digest
/// moves. LPAA 6 feeding LPAA 5 cancels some carry-only deviations, so the
/// output and stage error differ.
#[test]
fn explicit_values_of_a_hybrid_chain() {
    use StandardCell::*;
    let cells = [Lpaa6, Lpaa5, Lpaa1, Lpaa2, Accurate, Lpaa3, Lpaa4, Lpaa7];
    let chain = AdderChain::from_stages(cells.iter().map(|c| c.cell()).collect());
    let pa = vec![0.1, 0.9, 0.3, 0.7, 0.2, 0.8, 0.45, 0.55];
    let pb = vec![0.6, 0.35, 0.85, 0.15, 0.5, 0.25, 0.95, 0.05];
    let profile = InputProfile::new(pa, pb, 0.3).expect("probabilities in [0, 1]");

    let exact = exact_error_analysis(&chain, &profile).expect("widths match");
    let moments = error_magnitude(&chain, &profile).expect("widths match");
    let signals = signal_probabilities(&chain, &profile).expect("widths match");
    let dist = error_distribution(&chain, &profile).expect("width within the PMF bound");
    let wc = worst_case_error(&chain).expect("width at most 63");

    let mut pmf = Digest::new();
    for (d, p) in &dist.pmf {
        pmf.word(*d as u64);
        pmf.float(*p);
    }
    let got = [
        exact.output_error.to_bits(),
        exact.stage_error.to_bits(),
        exact.bit_error[7].to_bits(),
        moments.mean_error_distance.to_bits(),
        moments.mean_squared_error_distance.to_bits(),
        signals.carry[8].to_bits(),
        signals.sum[3].to_bits(),
        pmf.hash,
    ];
    assert_eq!(
        got,
        [
            0x3fee_c991_5a6c_deb8,
            0x3fee_fff1_7fc7_df68,
            0x3fdd_71c6_9d24_cd3c,
            0x3fde_d78e_9cbb_62c0,
            0x40b9_7bdb_8d82_0da6,
            0x3fd1_74bc_6a7e_f9dc,
            0x3fd4_ce1c_5825_5b04,
            0x9208_d744_5b8a_e494,
        ],
        "explicit bits: {got:#018x?}"
    );
    let witness = |a, b, carry_in| Witness { a, b, carry_in };
    assert_eq!(
        wc,
        WorstCaseError {
            max_error: 234,
            max_witness: witness(66, 128, false),
            min_error: -106,
            min_witness: witness(45, 125, false),
        }
    );
}
