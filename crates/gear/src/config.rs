//! GeAr configuration arithmetic, its mapping onto block adders, and the
//! detect-and-increment correction.

use std::fmt;
use std::ops::Range;

use sealpaa_blocks::{BlockConfig, BlockError, BlockSpec};
use sealpaa_cells::Cell;

/// Errors produced when constructing a [`GearConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GearError {
    /// `R` must be at least 1 (each sub-adder must contribute result bits).
    ZeroResultBits,
    /// The total width must be at least one sub-adder length (`N ≥ R + P`).
    WidthTooSmall {
        /// Requested total width `N`.
        n: usize,
        /// Sub-adder length `L = R + P`.
        l: usize,
    },
    /// `(N − L)` must be divisible by `R` for the blocks to tile the width
    /// (paper: `k = ((N − L)/R) + 1`).
    NotTileable {
        /// Requested total width `N`.
        n: usize,
        /// Result bits per block `R`.
        r: usize,
        /// Prediction bits per block `P`.
        p: usize,
    },
    /// Probability vectors must cover exactly `N` bits.
    WidthMismatch {
        /// Expected width `N`.
        expected: usize,
        /// Provided vector length.
        actual: usize,
    },
    /// The inclusion–exclusion baseline expands at most 24 fallible
    /// sub-adders (`2^24 − 1` subset terms).
    TooManyTerms {
        /// Fallible sub-adders `k − 1` of the configuration.
        fallible: usize,
    },
}

impl fmt::Display for GearError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GearError::ZeroResultBits => f.write_str("R must be at least 1"),
            GearError::WidthTooSmall { n, l } => {
                write!(
                    f,
                    "total width {n} is smaller than one sub-adder of length {l}"
                )
            }
            GearError::NotTileable { n, r, p } => write!(
                f,
                "GeAr(N={n}, R={r}, P={p}) does not tile: (N - R - P) must be divisible by R"
            ),
            GearError::WidthMismatch { expected, actual } => write!(
                f,
                "probability vector covers {actual} bits but the adder is {expected} bits wide"
            ),
            GearError::TooManyTerms { fallible } => write!(
                f,
                "inclusion-exclusion over {fallible} fallible sub-adders refused (at most 24)"
            ),
        }
    }
}

impl std::error::Error for GearError {}

/// A GeAr adder configuration `GeAr(N, R, P)` (paper Sec. 2.2):
///
/// * `N` — operand width,
/// * `R` — result bits contributed by each sub-adder,
/// * `P` — previous (prediction/overlap) bits each sub-adder uses to
///   estimate its carry-in,
/// * `L = R + P` — sub-adder length, `k = (N − L)/R + 1` sub-adders.
///
/// # Examples
///
/// ```
/// use sealpaa_gear::GearConfig;
///
/// let config = GearConfig::new(16, 4, 4)?;
/// assert_eq!(config.sub_adder_length(), 8);
/// assert_eq!(config.block_count(), 3);
/// assert_eq!(config.block_window(0), 0..8);
/// assert_eq!(config.block_window(2), 8..16);
/// # Ok::<(), sealpaa_gear::GearError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct GearConfig {
    n: usize,
    r: usize,
    p: usize,
}

impl GearConfig {
    /// Creates a configuration, validating the paper's tiling constraints.
    ///
    /// # Errors
    ///
    /// See [`GearError`].
    pub fn new(n: usize, r: usize, p: usize) -> Result<Self, GearError> {
        if r == 0 {
            return Err(GearError::ZeroResultBits);
        }
        let l = r + p;
        if n < l {
            return Err(GearError::WidthTooSmall { n, l });
        }
        if !(n - l).is_multiple_of(r) {
            return Err(GearError::NotTileable { n, r, p });
        }
        Ok(GearConfig { n, r, p })
    }

    /// The ACA-style configuration (Verma et al., DATE 2008, the paper's
    /// ref.\ 19): every result bit is predicted from the `l − 1` bits below
    /// it, i.e. `GeAr(N, 1, l − 1)`. GeAr captures it as a special case
    /// (paper Sec. 2.2: GeAr "captures all of the prominent previously
    /// proposed LLAAs").
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn aca(n: usize, l: usize) -> Result<Self, GearError> {
        if l == 0 {
            return Err(GearError::ZeroResultBits);
        }
        GearConfig::new(n, 1, l - 1)
    }

    /// The ETAII-style configuration: non-overlapping result blocks of `r`
    /// bits, each predicting its carry from the previous `r` bits, i.e.
    /// `GeAr(N, r, r)`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`new`](Self::new).
    pub fn etaii(n: usize, r: usize) -> Result<Self, GearError> {
        GearConfig::new(n, r, r)
    }

    /// Operand width `N`.
    pub fn width(&self) -> usize {
        self.n
    }

    /// Result bits per sub-adder `R`.
    pub fn result_bits(&self) -> usize {
        self.r
    }

    /// Prediction/overlap bits per sub-adder `P`.
    pub fn prediction_bits(&self) -> usize {
        self.p
    }

    /// Sub-adder length `L = R + P`.
    pub fn sub_adder_length(&self) -> usize {
        self.r + self.p
    }

    /// Number of sub-adders `k = (N − L)/R + 1`.
    pub fn block_count(&self) -> usize {
        (self.n - self.sub_adder_length()) / self.r + 1
    }

    /// The bit window sub-adder `i` (0-based, LSB block first) reads:
    /// `[R·i, R·i + L)`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.block_count()`.
    pub fn block_window(&self, i: usize) -> Range<usize> {
        assert!(i < self.block_count(), "block index out of range");
        let start = self.r * i;
        start..start + self.sub_adder_length()
    }

    /// The bit positions sub-adder `i` actually contributes to the output:
    /// block 0 contributes its full window, later blocks only their top `R`
    /// bits.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.block_count()`.
    pub fn block_result_bits(&self, i: usize) -> Range<usize> {
        let window = self.block_window(i);
        if i == 0 {
            window
        } else {
            window.start + self.p..window.end
        }
    }

    /// The configuration as a block adder (`sealpaa-blocks`), every
    /// sub-adder rippling `cell`: sub-adder 0 becomes a depth-0 block over
    /// its full window, every later sub-adder a width-`R` block predicting
    /// its carry from the `P` bits below its result segment. Block `i`'s
    /// window is [`block_window`](Self::block_window)`(i)`, so with an
    /// accurate `cell` the block adder is this GeAr bit for bit.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::WidthTooLarge`] past
    /// [`MAX_BLOCKS_WIDTH`](sealpaa_blocks::MAX_BLOCKS_WIDTH) bits (GeAr
    /// itself has no width bound).
    ///
    /// # Examples
    ///
    /// ```
    /// use sealpaa_blocks::BlockAdder;
    /// use sealpaa_cells::StandardCell;
    ///
    /// let gear = sealpaa_gear::GearConfig::new(8, 2, 2)?;
    /// let adder = BlockAdder::new(gear.to_blocks(StandardCell::Accurate.cell())?);
    /// assert_eq!(adder.add(77, 66, false).value(), 143); // no long carry chain
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    pub fn to_blocks(&self, cell: Cell) -> Result<BlockConfig, BlockError> {
        BlockConfig::new(
            (0..self.block_count())
                .map(|i| {
                    let depth = if i == 0 { 0 } else { self.p };
                    BlockSpec::new(self.block_result_bits(i).len(), depth, cell.clone())
                })
                .collect(),
        )
    }

    /// Evaluates the adder bit-true with `rounds` passes of the
    /// carry-mispredict error *correction* scheme the paper points to ("the
    /// error in this LLAA model can be detected as well as corrected", its
    /// ref.\ 11); returns `(sum_bits, carry_out)`, operands truncated to
    /// `N` bits.
    ///
    /// Each sub-adder adds its window as one word (the external carry-in
    /// feeds sub-adder 0 only). At `rounds = 0` this is plain GeAr (paper
    /// Fig. 2) by window sums, sharing no code with the ripple model
    /// [`sealpaa_blocks::BlockAdder`] over [`to_blocks`](Self::to_blocks):
    /// the differential suite pins the two against each other.
    ///
    /// Detection per sub-adder `j ≥ 1`: the carry-out of sub-adder `j − 1`'s
    /// window (true, once lower blocks are corrected) is compared against
    /// the carry `j` predicted from its `P` overlap bits with carry-in 0; a
    /// mispredict can only be low (carry is monotone in carry-in), so the
    /// correction is `+1` into the block's result segment. Each round
    /// settles one more block, so `rounds >= block_count() - 1` reproduces
    /// exact addition — the accuracy-configurability trade-off of
    /// quality-configurable LLAAs.
    ///
    /// # Panics
    ///
    /// Panics if the configured width exceeds 63 bits.
    pub fn add_with_correction(
        &self,
        a: u64,
        b: u64,
        carry_in: bool,
        rounds: usize,
    ) -> (u64, bool) {
        let n = self.width();
        assert!(n < 64, "functional evaluation supports up to 63 bits");
        let mask = (1u64 << n) - 1;
        let (a, b) = (a & mask, b & mask);
        let k = self.block_count();
        let p = self.prediction_bits();
        let l = self.sub_adder_length();

        // Initial window sums and (round-invariant) prediction carries.
        let mut sums = Vec::with_capacity(k);
        let mut pred_carry = Vec::with_capacity(k);
        for j in 0..k {
            let window = self.block_window(j);
            let w_mask = (1u64 << l) - 1;
            let wa = (a >> window.start) & w_mask;
            let wb = (b >> window.start) & w_mask;
            let cin = if j == 0 { carry_in as u64 } else { 0 };
            sums.push(wa + wb + cin);
            let p_mask = (1u64 << p) - 1;
            pred_carry.push(if j == 0 || p == 0 {
                0
            } else {
                ((wa & p_mask) + (wb & p_mask)) >> p
            });
        }

        let mut corrected = vec![false; k];
        for _ in 0..rounds {
            for j in 1..k {
                if corrected[j] {
                    continue;
                }
                // True carry into block j's result region = carry-out of
                // block j-1's (corrected) window.
                let carry_from_below = (sums[j - 1] >> l) & 1;
                if carry_from_below == 1 && pred_carry[j] == 0 {
                    sums[j] += 1 << p;
                    corrected[j] = true;
                }
            }
        }

        let mut sum = 0u64;
        for j in 0..k {
            let window = self.block_window(j);
            for bit in self.block_result_bits(j) {
                if (sums[j] >> (bit - window.start)) & 1 == 1 {
                    sum |= 1 << bit;
                }
            }
        }
        let carry_out = (sums[k - 1] >> l) & 1 == 1;
        (sum, carry_out)
    }
}

/// Enumerates every valid `GeAr(N, R, P)` for a width (all `R ≥ 1`,
/// `P ≥ 0` that tile), including the exact single-block `GeAr(N, N, 0)`,
/// in ascending `(R, P)` order.
pub fn enumerate_configs(n: usize) -> Vec<GearConfig> {
    let mut out = Vec::new();
    for r in 1..=n {
        for p in 0..n {
            if let Ok(config) = GearConfig::new(n, r, p) {
                out.push(config);
            }
        }
    }
    out
}

impl fmt::Display for GearConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "GeAr(N={}, R={}, P={})", self.n, self.r, self.p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_blocks::BlockAdder;

    #[test]
    fn paper_example_dimensions() {
        // GeAr(N=8, R=2, P=2): L = 4, k = (8-4)/2 + 1 = 3.
        let g = GearConfig::new(8, 2, 2).expect("valid");
        assert_eq!(g.sub_adder_length(), 4);
        assert_eq!(g.block_count(), 3);
        assert_eq!(g.block_window(0), 0..4);
        assert_eq!(g.block_window(1), 2..6);
        assert_eq!(g.block_window(2), 4..8);
    }

    #[test]
    fn result_bits_tile_the_width_exactly() {
        for (n, r, p) in [(8, 2, 2), (16, 4, 4), (12, 3, 0), (16, 2, 6), (9, 1, 2)] {
            let g = GearConfig::new(n, r, p).expect("valid config");
            let mut covered = vec![false; n];
            for i in 0..g.block_count() {
                for bit in g.block_result_bits(i) {
                    assert!(!covered[bit], "bit {bit} doubly assigned in {g}");
                    covered[bit] = true;
                }
            }
            assert!(covered.iter().all(|&c| c), "coverage gap in {g}");
        }
    }

    #[test]
    fn top_block_reaches_msb() {
        let g = GearConfig::new(16, 4, 4).expect("valid");
        assert_eq!(g.block_window(g.block_count() - 1).end, 16);
    }

    #[test]
    fn p_zero_is_plain_block_partition() {
        let g = GearConfig::new(12, 3, 0).expect("valid");
        assert_eq!(g.block_count(), 4);
        for i in 0..4 {
            assert_eq!(g.block_result_bits(i).len(), 3);
        }
    }

    #[test]
    fn invalid_configs_rejected() {
        assert_eq!(GearConfig::new(8, 0, 2), Err(GearError::ZeroResultBits));
        assert!(matches!(
            GearConfig::new(3, 2, 2),
            Err(GearError::WidthTooSmall { .. })
        ));
        assert!(matches!(
            GearConfig::new(9, 2, 2),
            Err(GearError::NotTileable { .. })
        ));
    }

    #[test]
    fn full_width_single_block_is_exact_adder() {
        let g = GearConfig::new(8, 8, 0).expect("valid");
        assert_eq!(g.block_count(), 1);
        assert_eq!(g.block_result_bits(0), 0..8);
    }

    #[test]
    fn to_blocks_tiles_and_reproduces_windows() {
        for (n, r, p) in [(8, 2, 2), (16, 4, 4), (12, 3, 0), (16, 2, 6), (9, 1, 2)] {
            let g = GearConfig::new(n, r, p).expect("valid config");
            let config = g.to_blocks(acc()).expect("within the blocks width");
            assert_eq!(config.block_count(), g.block_count());
            assert_eq!(config.width(), n, "blocks must cover the width in {g}");
            for i in 0..g.block_count() {
                assert_eq!(config.window(i), g.block_window(i), "{g} block {i}");
                let result = g.block_result_bits(i);
                assert_eq!(config.result_start(i), result.start, "{g} block {i}");
                assert_eq!(config.blocks()[i].width, result.len(), "{g} block {i}");
            }
        }
    }

    fn acc() -> Cell {
        sealpaa_cells::StandardCell::Accurate.cell()
    }

    /// `GeAr(n, r, p)` as an accurate-cell block adder.
    fn gear_adder(n: usize, r: usize, p: usize) -> BlockAdder {
        let config = GearConfig::new(n, r, p).expect("valid config");
        BlockAdder::new(config.to_blocks(acc()).expect("within the blocks width"))
    }

    fn matches_accurate(adder: &BlockAdder, a: u64, b: u64, cin: bool) -> bool {
        adder.add(a, b, cin).value() == adder.accurate_sum(a, b, cin)
    }

    #[test]
    fn single_block_is_exact() {
        let adder = gear_adder(8, 8, 0);
        for (a, b, cin) in [(0u64, 0u64, false), (255, 255, true), (123, 45, false)] {
            assert!(matches_accurate(&adder, a, b, cin), "{a}+{b}+{cin}");
        }
    }

    #[test]
    fn known_failure_long_carry_chain() {
        // 0b00001111 + 0b00000001: the carry generated at bit 0 must travel
        // to bit 4; block 1 of GeAr(8,2,2) (window 2..6) sees propagate bits
        // at 2,3 and a real carry → it errs.
        let adder = gear_adder(8, 2, 2);
        assert!(!matches_accurate(&adder, 0b0000_1111, 0b0000_0001, false));
        assert_ne!(adder.add(0b0000_1111, 0b0000_0001, false).sum_bits(), 16);
    }

    #[test]
    fn carry_absorbed_by_generate_bit_is_fine() {
        // a=0b0011, b=0b0001 in GeAr(8,2,2): carry from bit 0 dies at bit 1
        // (generate), never reaching block 1's result bits.
        let adder = gear_adder(8, 2, 2);
        assert!(matches_accurate(&adder, 0b0011, 0b0001, false));
    }

    #[test]
    fn external_carry_in_feeds_block_zero() {
        let adder = gear_adder(8, 2, 2);
        assert!(matches_accurate(&adder, 0, 0, true));
        let r = adder.add(0, 0, true);
        assert_eq!((r.sum_bits(), r.carry_out()), (1, false));
    }

    #[test]
    fn carry_out_comes_from_top_block() {
        let adder = gear_adder(8, 2, 2);
        let r = adder.add(0xFF, 0xFF, false);
        // 255 + 255 = 510: all blocks see generate-heavy inputs; exact.
        assert_eq!(r.sum_bits(), 510 & 0xFF);
        assert!(r.carry_out());
        assert!(matches_accurate(&adder, 0xFF, 0xFF, false));
    }

    #[test]
    fn p_zero_partition_errs_on_any_crossing_carry() {
        let adder = gear_adder(4, 2, 0);
        // 0b0010 + 0b0010 = 0b0100 carries across the block boundary at bit 2.
        assert!(!matches_accurate(&adder, 0b0010, 0b0010, false));
    }

    #[test]
    fn full_correction_is_exact_exhaustively() {
        for (n, r, p) in [(8, 2, 2), (8, 2, 0), (6, 1, 1), (9, 3, 3)] {
            let g = GearConfig::new(n, r, p).expect("valid config");
            let rounds = g.block_count() - 1;
            for a in 0..1u64 << n {
                for b in 0..1u64 << n {
                    for cin in [false, true] {
                        let (sum, carry) = g.add_with_correction(a, b, cin, rounds);
                        let total = a + b + cin as u64;
                        let mask = (1u64 << n) - 1;
                        assert_eq!(sum, total & mask, "GeAr({n},{r},{p}): {a}+{b}+{cin}");
                        assert_eq!(carry, total >> n != 0, "GeAr({n},{r},{p}): {a}+{b}+{cin}");
                    }
                }
            }
        }
    }

    #[test]
    fn correction_rounds_monotonically_reduce_errors() {
        let g = GearConfig::new(10, 1, 1).expect("valid config"); // 10 blocks: plenty of room to improve
        let mut last_errors = u64::MAX;
        for rounds in 0..g.block_count() {
            let mut errors = 0u64;
            for a in 0..1u64 << 10 {
                let b = a.wrapping_mul(2654435761) & 0x3FF; // deterministic spread
                let (sum, carry) = g.add_with_correction(a, b, false, rounds);
                let total = a + b;
                if sum != (total & 0x3FF) || carry != (total >> 10 != 0) {
                    errors += 1;
                }
            }
            assert!(
                errors <= last_errors,
                "rounds={rounds}: {errors} > {last_errors}"
            );
            last_errors = errors;
        }
        assert_eq!(last_errors, 0, "full correction must be exact");
    }

    #[test]
    fn single_correction_fixes_single_block_failures() {
        // 0b00001111 + 1 defeats GeAr(8,2,2) (carry must travel past P=2),
        // but exactly one block mispredicts, so one round fixes it.
        let g = GearConfig::new(8, 2, 2).expect("valid config");
        assert!(!matches_accurate(
            &gear_adder(8, 2, 2),
            0b0000_1111,
            1,
            false
        ));
        assert_eq!(g.add_with_correction(0b0000_1111, 1, false, 1), (16, false));
    }

    #[test]
    fn enumeration_includes_known_configs() {
        let configs = enumerate_configs(8);
        assert!(configs.contains(&GearConfig::new(8, 2, 2).expect("valid")));
        assert!(configs.contains(&GearConfig::new(8, 8, 0).expect("valid")));
        assert!(configs.contains(&GearConfig::new(8, 1, 0).expect("valid")));
        // Everything enumerated really tiles.
        for c in &configs {
            assert_eq!(
                (8 - c.sub_adder_length()) % c.result_bits(),
                0,
                "{c} does not tile"
            );
        }
    }

    #[test]
    fn named_configurations_are_gear_special_cases() {
        let aca = GearConfig::aca(16, 4).expect("valid");
        assert_eq!((aca.result_bits(), aca.prediction_bits()), (1, 3));
        assert_eq!(aca.sub_adder_length(), 4);
        let etaii = GearConfig::etaii(16, 4).expect("valid");
        assert_eq!((etaii.result_bits(), etaii.prediction_bits()), (4, 4));
        assert!(GearConfig::aca(16, 0).is_err());
        assert!(GearConfig::etaii(15, 4).is_err()); // does not tile
    }

    #[test]
    fn display_and_errors_format() {
        let g = GearConfig::new(8, 2, 2).expect("valid");
        assert_eq!(g.to_string(), "GeAr(N=8, R=2, P=2)");
        assert!(GearConfig::new(9, 2, 2)
            .unwrap_err()
            .to_string()
            .contains("does not tile"));
    }
}
