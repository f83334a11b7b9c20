//! Pooled Bernoulli bit-plane sampling for the Monte-Carlo engine.
//!
//! BENCH_simulation.json showed the biased-input regime (p = 0.1) to be
//! *entropy-bound*: at p = 0.5 one `next_u64` decides a whole 64-lane
//! plane, while the adaptive binary expansion of
//! [`Xoshiro256pp::next_bernoulli64`] needs ~`log2(64) + 2 ≈ 8` words per
//! plane for general p — the RNG, not the adder kernel, dominated. This
//! module attacks that bound from three directions:
//!
//! * **Wide words.** [`WideXoshiro`] runs `W::WORDS` independent
//!   xoshiro256++ streams element-wise, so one `next()` yields `W::LANES`
//!   fresh lane-bits. The adaptive expansion's cost in *words per 64
//!   lanes* drops by the lane multiple: undecided-lane halving is shared
//!   across the whole wide batch — the expansion words that used to serve
//!   one 64-lane plane now serve up to eight planes' worth of lanes of
//!   equal probability at once.
//! * **Mask composition for dyadic (short-expansion) probabilities.** A
//!   quantized probability with `k` significant fraction bits is generated
//!   *exactly* by a `k`-word Horner chain of AND/OR mask compositions
//!   (p = 0.5 → 1 word, 0.25 → 2, 3/16 → 4): fixed trip count, no
//!   branching on random data, and never more words than the adaptive
//!   path's worst case.
//! * **Plan pooling.** Planes are classified once, at construction, into a
//!   shared plan per distinct quantized probability (the common case —
//!   `InputProfile::constant` gives every plane the same p), so the hot
//!   loop is a table-driven dispatch with no per-draw classification work.
//!
//! What the pool deliberately does **not** share is raw random bits:
//! reusing one word's bits across two planes would correlate lane `l` of
//! both planes, and every error metric depends on the *joint* distribution
//! of the operand bits. Every lane-bit drawn here consumes fresh stream
//! output; the statistical tests in this module pin per-plane means, and
//! determinism holds per `(seed, threads, backend)`.

use sealpaa_cells::SimdWord;

use crate::rng::SplitMix64;

/// How many significant fraction bits a quantized probability may have and
/// still take the fixed-trip Horner mask-composition path (beyond this the
/// adaptive expansion's expected `log2(LANES) + 2` words is cheaper).
const HORNER_MAX_BITS: u32 = 12;

/// `W::WORDS` independent xoshiro256++ streams, stepped element-wise (the
/// lane-parallel counterpart of [`Xoshiro256pp`](crate::Xoshiro256pp)). Element 0 of a 1-word
/// word type reproduces `Xoshiro256pp::seed_from_u64(seed)` exactly.
#[derive(Debug, Clone)]
pub struct WideXoshiro<W> {
    s: [W; 4],
}

impl<W: SimdWord> WideXoshiro<W> {
    /// Seeds every element's 256-bit state from one SplitMix64 chain
    /// (element `e` takes outputs `4e .. 4e + 4`), the construction
    /// recommended by the xoshiro authors.
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        let states: Vec<[u64; 4]> = (0..W::WORDS)
            .map(|_| {
                [
                    mix.next_u64(),
                    mix.next_u64(),
                    mix.next_u64(),
                    mix.next_u64(),
                ]
            })
            .collect();
        WideXoshiro {
            s: [
                W::from_fn(|e| states[e][0]),
                W::from_fn(|e| states[e][1]),
                W::from_fn(|e| states[e][2]),
                W::from_fn(|e| states[e][3]),
            ],
        }
    }

    /// The next `W::LANES` uniform bits (one xoshiro256++ step per element).
    #[inline(always)]
    pub fn next_word(&mut self) -> W {
        let result = self.s[0]
            .wrapping_add64(self.s[3])
            .rotl64(23)
            .wrapping_add64(self.s[0]);
        let t = self.s[1].shl64(17);
        self.s[2] = self.s[2] ^ self.s[0];
        self.s[3] = self.s[3] ^ self.s[1];
        self.s[1] = self.s[1] ^ self.s[2];
        self.s[0] = self.s[0] ^ self.s[3];
        self.s[2] = self.s[2] ^ t;
        self.s[3] = self.s[3].rotl64(45);
        result
    }
}

/// How one quantized probability is generated (see [`plan_kind`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Plan {
    /// p = 0: all-zeros, no randomness consumed.
    Zero,
    /// p = 1: all-ones, no randomness consumed.
    One,
    /// `len ≤ HORNER_MAX_BITS` significant fraction bits: exact Horner
    /// mask composition, exactly `len` words.
    Horner {
        /// The significant bits of `q` (`q >> q.trailing_zeros()`); bit 0
        /// is the least significant fraction bit and is always 1.
        bits: u64,
        /// Number of significant bits.
        len: u32,
    },
    /// General p: adaptive MSB-first binary expansion, expected
    /// `log2(LANES) + 2` words.
    Adaptive {
        /// The 53-bit quantized probability.
        q: u64,
        /// Below this bit every remaining bit of `q` is zero, so undecided
        /// lanes resolve to `false`.
        stop: u32,
    },
}

impl Plan {
    fn classify(q: u64) -> Plan {
        if q == 0 {
            return Plan::Zero;
        }
        if q >= 1 << 53 {
            return Plan::One;
        }
        let stop = q.trailing_zeros();
        let len = 53 - stop;
        if len <= HORNER_MAX_BITS {
            Plan::Horner {
                bits: q >> stop,
                len,
            }
        } else {
            Plan::Adaptive { q, stop }
        }
    }

    #[inline(always)]
    fn draw<W: SimdWord>(self, rng: &mut WideXoshiro<W>) -> W {
        match self {
            Plan::Zero => W::zero(),
            Plan::One => W::ones(),
            Plan::Horner { bits, len } => {
                // Horner evaluation of P = 0.b₁…b_k (bit len−1 = b₁ is the
                // most significant fraction bit, bit 0 = b_k = 1): start
                // from P = 1/2, then each step halves the running
                // probability and, on a 1-bit, adds 1/2 back — OR with a
                // fresh uniform word realizes `1/2 + P/2`, AND realizes
                // `P/2`. Exactly `len` words, fixed trip count.
                let mut r = rng.next_word();
                for pos in 1..len {
                    let w = rng.next_word();
                    r = if (bits >> pos) & 1 == 1 { w | r } else { w & r };
                }
                r
            }
            Plan::Adaptive { q, stop } => {
                // Lane-parallel binary expansion, MSB first (the wide form
                // of `Xoshiro256pp::next_bernoulli64`): each fresh word
                // supplies one bit of every lane's uniform U; a lane is
                // decided `true` the first time its U bit is 0 where q's
                // bit is 1, `false` on the opposite disagreement, and
                // lanes still undecided at `stop` have U ≥ q.
                let mut result = W::zero();
                let mut undecided = W::ones();
                let mut bit = 52u32;
                loop {
                    let u = rng.next_word();
                    let qm = W::splat(((q >> bit) & 1).wrapping_neg());
                    result = result | (undecided & !u & qm);
                    undecided = undecided & !(u ^ qm);
                    if !undecided.any() || bit <= stop {
                        return result;
                    }
                    bit -= 1;
                }
            }
        }
    }
}

/// Public classification of a quantized probability, for diagnostics
/// (`sealpaa simd`) and bench attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// p ∈ {0, 1}: no randomness consumed.
    Degenerate,
    /// Short binary expansion: exact mask composition using this many
    /// words per plane.
    MaskComposition(u32),
    /// General probability: adaptive expansion, expected
    /// `log2(lanes) + 2` words per plane.
    Adaptive,
}

/// Classifies a probability quantized by
/// [`quantize_p53`](crate::quantize_p53) the way [`PooledSampler`] will
/// generate it.
pub fn plan_kind(q: u64) -> PlanKind {
    match Plan::classify(q) {
        Plan::Zero | Plan::One => PlanKind::Degenerate,
        Plan::Horner { len, .. } => PlanKind::MaskComposition(len),
        Plan::Adaptive { .. } => PlanKind::Adaptive,
    }
}

/// Aggregate plan classification of a sampler (for diagnostics).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SamplerSummary {
    /// Planes with p ∈ {0, 1}.
    pub degenerate: usize,
    /// Planes on the fixed-trip mask-composition path.
    pub mask_composition: usize,
    /// Planes on the adaptive-expansion path.
    pub adaptive: usize,
    /// Distinct quantized probabilities across all planes (the number of
    /// shared plans).
    pub distinct_probabilities: usize,
}

/// Draws the Monte-Carlo input planes — `a` planes, `b` planes, carry-in —
/// for one `W::LANES`-lane batch per [`fill`](Self::fill) call.
///
/// Plane order is fixed (`a₀ … a_{w−1}, b₀ … b_{w−1}, cin`), and each
/// plane's plan is resolved at construction, so the stream consumed is a
/// pure function of `(seed, plane probabilities)` — deterministic per
/// `(seed, threads, backend)` when embedded in the Monte-Carlo engine.
#[derive(Debug, Clone)]
pub struct PooledSampler<W> {
    /// Per-plane index into `plans`, in draw order (a planes, b planes).
    plane_plan: Vec<u32>,
    /// One shared plan per distinct quantized probability.
    plans: Vec<Plan>,
    cin_plan: Plan,
    rng: WideXoshiro<W>,
}

impl<W: SimdWord> PooledSampler<W> {
    /// Builds the sampler for quantized per-bit probabilities `qa`/`qb`
    /// (same length) and carry-in probability `q_cin`.
    pub fn new(seed: u64, qa: &[u64], qb: &[u64], q_cin: u64) -> Self {
        assert_eq!(qa.len(), qb.len(), "operand width mismatch");
        let mut plans: Vec<Plan> = Vec::new();
        let mut qs: Vec<u64> = Vec::new();
        let mut plane_plan = Vec::with_capacity(qa.len() * 2);
        for &q in qa.iter().chain(qb) {
            let idx = match qs.iter().position(|&seen| seen == q) {
                Some(idx) => idx,
                None => {
                    qs.push(q);
                    plans.push(Plan::classify(q));
                    plans.len() - 1
                }
            };
            plane_plan.push(idx as u32);
        }
        PooledSampler {
            plane_plan,
            plans,
            cin_plan: Plan::classify(q_cin),
            rng: WideXoshiro::seed_from_u64(seed),
        }
    }

    /// Draws one batch: fills the `a` and `b` bit-planes and returns the
    /// carry-in word. Slice lengths must match the construction width.
    #[inline(always)]
    pub fn fill(&mut self, a_planes: &mut [W], b_planes: &mut [W]) -> W {
        let width = a_planes.len();
        assert_eq!(b_planes.len(), width, "b_planes width mismatch");
        assert_eq!(self.plane_plan.len(), width * 2, "sampler width mismatch");
        for (plane, &idx) in a_planes.iter_mut().zip(&self.plane_plan[..width]) {
            *plane = self.plans[idx as usize].draw(&mut self.rng);
        }
        for (plane, &idx) in b_planes.iter_mut().zip(&self.plane_plan[width..]) {
            *plane = self.plans[idx as usize].draw(&mut self.rng);
        }
        self.cin_plan.draw(&mut self.rng)
    }

    /// Plan classification counts (for diagnostics).
    pub fn summary(&self) -> SamplerSummary {
        let mut summary = SamplerSummary {
            distinct_probabilities: self.plans.len()
                + usize::from(!self.plans.contains(&self.cin_plan)),
            ..Default::default()
        };
        let all_plans = self
            .plane_plan
            .iter()
            .map(|&idx| self.plans[idx as usize])
            .chain(std::iter::once(self.cin_plan));
        for plan in all_plans {
            match plan {
                Plan::Zero | Plan::One => summary.degenerate += 1,
                Plan::Horner { .. } => summary.mask_composition += 1,
                Plan::Adaptive { .. } => summary.adaptive += 1,
            }
        }
        summary
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::{quantize_p53, Xoshiro256pp};
    use sealpaa_cells::simd::{W128, W256, W512};

    #[test]
    fn wide_rng_element_zero_matches_scalar_xoshiro() {
        let mut scalar = Xoshiro256pp::seed_from_u64(0xFEED);
        let mut wide = WideXoshiro::<u64>::seed_from_u64(0xFEED);
        for _ in 0..32 {
            assert_eq!(wide.next_word(), scalar.next_u64());
        }
        // Element 0 of every width follows the same stream.
        let mut scalar = Xoshiro256pp::seed_from_u64(0xFEED);
        let mut wide = WideXoshiro::<W512>::seed_from_u64(0xFEED);
        for _ in 0..32 {
            assert_eq!(wide.next_word().word(0), scalar.next_u64());
        }
    }

    #[test]
    fn wide_rng_elements_are_distinct_streams() {
        let mut wide = WideXoshiro::<W256>::seed_from_u64(1);
        let w = wide.next_word();
        for i in 1..4 {
            assert_ne!(w.word(i), w.word(0), "element {i} duplicates element 0");
        }
    }

    #[test]
    fn classification_thresholds() {
        assert_eq!(plan_kind(0), PlanKind::Degenerate);
        assert_eq!(plan_kind(1 << 53), PlanKind::Degenerate);
        assert_eq!(plan_kind(quantize_p53(0.5)), PlanKind::MaskComposition(1));
        assert_eq!(plan_kind(quantize_p53(0.25)), PlanKind::MaskComposition(2));
        assert_eq!(plan_kind(quantize_p53(0.75)), PlanKind::MaskComposition(2));
        assert_eq!(
            plan_kind(quantize_p53(3.0 / 16.0)),
            PlanKind::MaskComposition(4)
        );
        // 0.1 has an infinite binary expansion: quantized to 53 bits it is
        // far past the mask-composition cutoff.
        assert_eq!(plan_kind(quantize_p53(0.1)), PlanKind::Adaptive);
        assert_eq!(plan_kind(quantize_p53(0.0137)), PlanKind::Adaptive);
    }

    fn empirical_mean<W: SimdWord>(p: f64, seed: u64, draws: u32) -> f64 {
        let q = quantize_p53(p);
        let width = 3usize;
        let qa = vec![q; width];
        let qb = vec![q; width];
        let mut sampler = PooledSampler::<W>::new(seed, &qa, &qb, q);
        let mut a = vec![W::zero(); width];
        let mut b = vec![W::zero(); width];
        let mut ones = 0u64;
        let mut total = 0u64;
        for _ in 0..draws {
            let cin = sampler.fill(&mut a, &mut b);
            for plane in a.iter().chain(b.iter()).chain(std::iter::once(&cin)) {
                ones += plane.count_ones();
                total += W::LANES as u64;
            }
        }
        ones as f64 / total as f64
    }

    /// The satellite statistical contract: empirical plane means track p
    /// within seeded-loop tolerance for dyadic and non-dyadic p, on every
    /// word width.
    #[test]
    fn empirical_means_track_p_for_every_width() {
        for &p in &[0.5, 0.25, 0.1, 3.0 / 16.0, 0.0137] {
            for (lanes, mean) in [
                (64.0, empirical_mean::<u64>(p, 0xA5A5, 2000)),
                (128.0, empirical_mean::<W128>(p, 0xA5A5, 1000)),
                (256.0, empirical_mean::<W256>(p, 0xA5A5, 500)),
                (512.0, empirical_mean::<W512>(p, 0xA5A5, 250)),
            ] {
                // 7 planes per draw; n = draws · lanes · 7 with
                // draws · lanes = 128_000 in every configuration.
                let n = 128_000.0 * 7.0;
                let sigma = (p * (1.0 - p) / n).sqrt();
                assert!(
                    (mean - p).abs() < 5.0 * sigma + 1e-9,
                    "p={p} lanes={lanes}: mean {mean}"
                );
            }
        }
    }

    #[test]
    fn per_lane_frequency_is_unbiased() {
        // No lane of the wide word may be systematically biased (a broken
        // element stream or mask composition would show up here).
        let p = 0.3;
        let q = quantize_p53(p);
        let mut sampler = PooledSampler::<W256>::new(7, &[q], &[q], 0);
        let mut a = [W256::zero(); 1];
        let mut b = [W256::zero(); 1];
        let draws = 4000u32;
        let mut per_lane = vec![0u32; 256];
        for _ in 0..draws {
            let _ = sampler.fill(&mut a, &mut b);
            for (i, count) in per_lane.iter_mut().enumerate() {
                *count += ((a[0].word(i / 64) >> (i % 64)) & 1) as u32;
                *count += ((b[0].word(i / 64) >> (i % 64)) & 1) as u32;
            }
        }
        let n = f64::from(draws) * 2.0;
        let sigma = (p * (1.0 - p) / n).sqrt();
        for (lane, &count) in per_lane.iter().enumerate() {
            let freq = f64::from(count) / n;
            assert!((freq - p).abs() < 6.0 * sigma, "lane {lane}: freq {freq}");
        }
    }

    #[test]
    fn mask_composition_matches_adaptive_distribution() {
        // 3/16 takes the Horner path; force the adaptive path for the same
        // probability through the scalar RNG and compare means.
        let q = quantize_p53(3.0 / 16.0);
        let mut scalar = Xoshiro256pp::seed_from_u64(3);
        let mut scalar_ones = 0u64;
        let draws = 8000;
        for _ in 0..draws {
            scalar_ones += u64::from(scalar.next_bernoulli64(q).count_ones());
        }
        let horner = empirical_mean::<u64>(3.0 / 16.0, 3, draws as u32);
        let scalar_mean = scalar_ones as f64 / (draws as f64 * 64.0);
        let n = draws as f64 * 64.0;
        let sigma = (0.1875f64 * (1.0 - 0.1875) / n).sqrt();
        assert!((horner - 0.1875).abs() < 5.0 * sigma, "horner {horner}");
        assert!(
            (scalar_mean - 0.1875).abs() < 5.0 * sigma,
            "adaptive {scalar_mean}"
        );
    }

    #[test]
    fn degenerate_planes_consume_no_randomness() {
        let mut sampler = PooledSampler::<W128>::new(11, &[0, 1 << 53], &[0, 1 << 53], 0);
        let rng_before = sampler.rng.clone().next_word();
        let mut a = [W128::zero(); 2];
        let mut b = [W128::zero(); 2];
        let cin = sampler.fill(&mut a, &mut b);
        assert_eq!(a[0], W128::zero());
        assert_eq!(a[1], W128::ones());
        assert_eq!(b[0], W128::zero());
        assert_eq!(b[1], W128::ones());
        assert_eq!(cin, W128::zero());
        assert_eq!(
            sampler.rng.next_word(),
            rng_before,
            "stream must not advance"
        );
    }

    #[test]
    fn sampler_is_deterministic_per_seed() {
        let q = quantize_p53(0.37);
        let draw = |seed: u64| {
            let mut s = PooledSampler::<W256>::new(seed, &[q; 4], &[q; 4], q);
            let mut a = [W256::zero(); 4];
            let mut b = [W256::zero(); 4];
            let cin = s.fill(&mut a, &mut b);
            (a, b, cin)
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn summary_counts_plans_and_groups() {
        let half = quantize_p53(0.5);
        let tenth = quantize_p53(0.1);
        let sampler = PooledSampler::<u64>::new(1, &[half, half, tenth], &[half, 0, tenth], half);
        let summary = sampler.summary();
        assert_eq!(summary.degenerate, 1);
        assert_eq!(summary.mask_composition, 4); // three 0.5 planes + cin
        assert_eq!(summary.adaptive, 2);
        // 0.5, 0.1, 0 — three distinct probabilities, cin shares 0.5's plan.
        assert_eq!(summary.distinct_probabilities, 3);
    }
}
