//! A small, seedable, dependency-free PRNG for Monte-Carlo simulation.
//!
//! The workspace must build with no network access, so it cannot pull in the
//! `rand` crate; every randomized component instead draws from the two
//! generators here:
//!
//! * [`SplitMix64`] — Steele, Lea & Flood's 64-bit mixer. One multiply-xor
//!   pipeline per output, equidistributed over the full 2⁶⁴ state space.
//!   Used directly for seed expansion and stream splitting.
//! * [`Xoshiro256pp`] — Blackman & Vigna's xoshiro256++ generator: 256 bits
//!   of state seeded through SplitMix64 (the authors' recommended
//!   procedure), passing BigCrush. This is the workhorse for simulation.
//!
//! Both are deterministic: a fixed seed reproduces the exact sample stream
//! on every platform, which the paper-table reproductions and the test
//! suite rely on.
//!
//! # Examples
//!
//! ```
//! use sealpaa_sim::Xoshiro256pp;
//!
//! let mut rng = Xoshiro256pp::seed_from_u64(42);
//! let p = rng.next_f64();
//! assert!((0.0..1.0).contains(&p));
//! // Same seed, same stream.
//! assert_eq!(Xoshiro256pp::seed_from_u64(42).next_u64(),
//!            Xoshiro256pp::seed_from_u64(42).next_u64());
//! ```

/// SplitMix64: a tiny, fast, full-period 64-bit generator. Primarily used
/// to expand a 64-bit seed into larger state and to derive disjoint
/// per-worker streams.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        SplitMix64 { state: seed }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// xoshiro256++: the general-purpose simulation generator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Xoshiro256pp {
    s: [u64; 4],
}

impl Xoshiro256pp {
    /// Seeds the 256-bit state by running SplitMix64 from `seed` (the
    /// construction recommended by the xoshiro authors; it guarantees the
    /// state is never all-zero).
    pub fn seed_from_u64(seed: u64) -> Self {
        let mut mix = SplitMix64::new(seed);
        Xoshiro256pp {
            s: [
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
                mix.next_u64(),
            ],
        }
    }

    /// The next 64-bit output.
    pub fn next_u64(&mut self) -> u64 {
        let result = self.s[0]
            .wrapping_add(self.s[3])
            .rotate_left(23)
            .wrapping_add(self.s[0]);
        let t = self.s[1] << 17;
        self.s[2] ^= self.s[0];
        self.s[3] ^= self.s[1];
        self.s[1] ^= self.s[2];
        self.s[0] ^= self.s[3];
        self.s[2] ^= t;
        self.s[3] = self.s[3].rotate_left(45);
        result
    }

    /// A uniform `f64` in `[0, 1)` with 53 bits of precision.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A Bernoulli draw: `true` with probability `p` (clamped to `[0, 1]`).
    pub fn next_bool(&mut self, p: f64) -> bool {
        self.next_f64() < p
    }

    /// A uniform `f64` in `[lo, hi)`.
    pub fn next_range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + self.next_f64() * (hi - lo)
    }

    /// A uniform integer in `[0, n)` via Lemire's multiply-shift rejection
    /// (unbiased). `n` must be non-zero.
    pub fn next_below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0, "next_below(0) is meaningless");
        loop {
            let x = self.next_u64();
            let m = (x as u128).wrapping_mul(n as u128);
            let low = m as u64;
            if low >= n.wrapping_neg() % n {
                return (m >> 64) as u64;
            }
            // Rejected: retry to stay exactly uniform.
        }
    }
}

/// Quantizes a probability to 53 fractional bits for the bit-plane
/// sampler ([`PooledSampler`](crate::PooledSampler)) and its
/// classification ([`plan_kind`](crate::plan_kind)): the nearest multiple
/// of `2^-53`, clamped to `[0, 1]`. `2^-53` matches the resolution of
/// [`Xoshiro256pp::next_f64`], so the quantization error is below anything a
/// Monte-Carlo run could resolve.
pub fn quantize_p53(p: f64) -> u64 {
    const SCALE: f64 = (1u64 << 53) as f64;
    (p.clamp(0.0, 1.0) * SCALE).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_reference_vector() {
        // Reference outputs for seed 1234567 from the public-domain
        // reference implementation (Vigna).
        let mut rng = SplitMix64::new(1234567);
        assert_eq!(rng.next_u64(), 6457827717110365317);
        assert_eq!(rng.next_u64(), 3203168211198807973);
        assert_eq!(rng.next_u64(), 9817491932198370423);
    }

    #[test]
    fn xoshiro_is_deterministic_and_seed_sensitive() {
        let a: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(7);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let c: Vec<u64> = {
            let mut r = Xoshiro256pp::seed_from_u64(8);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn f64_stays_in_unit_interval_and_looks_uniform() {
        let mut rng = Xoshiro256pp::seed_from_u64(99);
        let n = 100_000;
        let mut sum = 0.0;
        for _ in 0..n {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v));
            sum += v;
        }
        let mean = sum / n as f64;
        // Mean of U[0,1) is 0.5 with σ/√n ≈ 0.0009; 5σ bound.
        assert!((mean - 0.5).abs() < 0.005, "mean {mean}");
    }

    #[test]
    fn bernoulli_frequency_tracks_p() {
        let mut rng = Xoshiro256pp::seed_from_u64(4);
        let n = 100_000;
        let hits = (0..n).filter(|_| rng.next_bool(0.1)).count();
        let freq = hits as f64 / n as f64;
        assert!((freq - 0.1).abs() < 0.01, "freq {freq}");
    }

    #[test]
    fn quantize_p53_endpoints_and_midpoint() {
        assert_eq!(quantize_p53(0.0), 0);
        assert_eq!(quantize_p53(-3.0), 0);
        assert_eq!(quantize_p53(1.0), 1 << 53);
        assert_eq!(quantize_p53(2.0), 1 << 53);
        assert_eq!(quantize_p53(0.5), 1 << 52);
        assert_eq!(quantize_p53(0.25), 1 << 51);
    }

    #[test]
    fn next_below_is_in_range_and_covers_values() {
        let mut rng = Xoshiro256pp::seed_from_u64(11);
        let mut seen = [false; 7];
        for _ in 0..1_000 {
            let v = rng.next_below(7);
            assert!(v < 7);
            seen[v as usize] = true;
        }
        assert!(seen.iter().all(|&s| s), "all residues reachable");
    }
}
