//! The benchmark's own seeded generator (SplitMix64): every workload input
//! is a pure function of `--seed`, independent of the engines' PRNGs.

/// SplitMix64: tiny, fast, and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    #[cfg(test)]
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// An independent stream for sub-generator `label` of this seed.
    pub fn derive(seed: u64, label: u64) -> Rng {
        let mut r = Rng(seed ^ label.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 random bits.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next_u64() % (hi - lo + 1) as u64) as usize
    }

    /// One element of a non-empty slice.
    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.range(0, items.len() - 1)]
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.range(0, i);
            items.swap(i, j);
        }
    }
}

/// Zipf(s) over ranks `0..n` by inverse-CDF lookup.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let a: Vec<u64> = {
            let mut r = Rng::derive(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = Rng::derive(7, 3);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let mut other = Rng::derive(7, 4);
        assert_ne!(a[0], other.next_u64());
    }

    #[test]
    fn zipf_rank_zero_is_most_popular() {
        let z = Zipf::new(100, 1.0);
        let mut r = Rng::new(1);
        let mut counts = [0usize; 100];
        for _ in 0..20_000 {
            counts[z.sample(&mut r)] += 1;
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[10]);
        // H(100) ~= 5.19, so rank 0 draws ~19% of the mass.
        let share = counts[0] as f64 / 20_000.0;
        assert!((0.17..0.21).contains(&share), "share {share}");
    }
}
