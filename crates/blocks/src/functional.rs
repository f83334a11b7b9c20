//! Bit-true functional model of a block-based adder.

use sealpaa_cells::FaInput;

use crate::config::BlockConfig;

/// The outcome of one block-based addition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BlockAdditionResult {
    sum: u64,
    carry_out: bool,
    width: usize,
}

impl BlockAdditionResult {
    /// The sum bits (without the carry).
    pub fn sum_bits(&self) -> u64 {
        self.sum
    }

    /// The final carry-out (the top block's window carry).
    pub fn carry_out(&self) -> bool {
        self.carry_out
    }

    /// The full output value: sum bits plus the carry at bit `width` —
    /// the same convention as `sealpaa_cells::AdditionResult::value`.
    pub fn value(&self) -> u64 {
        self.sum | (self.carry_out as u64) << self.width
    }

    /// Signed error distance against an accurate full value.
    pub fn error_distance(&self, accurate_value: u64) -> i64 {
        self.value() as i64 - accurate_value as i64
    }
}

/// A block-based adder: evaluates a [`BlockConfig`] bit-true, window by
/// window, for simulation-based validation of the analytical engine.
///
/// # Examples
///
/// ```
/// use sealpaa_blocks::{BlockAdder, BlockConfig};
///
/// let config: BlockConfig = "4:0:accurate,4:2:accurate".parse()?;
/// let adder = BlockAdder::new(config);
/// // 0b0000_1111 + 0b0000_0001: the carry out of bit 3 is predicted from
/// // bits 2..4, both 0 in each operand, so block 1 misses it.
/// let r = adder.add(0b0000_1111, 0b0000_0001, false);
/// assert_eq!(r.value(), 0b0000_0000);
/// assert_eq!(adder.accurate_sum(0b0000_1111, 0b0000_0001, false), 16);
/// assert_eq!(r.error_distance(16), -16);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockAdder {
    config: BlockConfig,
}

impl BlockAdder {
    /// Wraps a configuration.
    pub fn new(config: BlockConfig) -> Self {
        BlockAdder { config }
    }

    /// The configuration.
    pub fn config(&self) -> &BlockConfig {
        &self.config
    }

    /// Operand width.
    pub fn width(&self) -> usize {
        self.config.width()
    }

    /// Evaluates one addition. `cin` feeds block 0's window; every other
    /// window starts from carry 0.
    ///
    /// # Panics
    ///
    /// Panics if an operand does not fit the width.
    pub fn add(&self, a: u64, b: u64, cin: bool) -> BlockAdditionResult {
        let width = self.width();
        assert!(width == 64 || a < 1u64 << width, "operand a out of range");
        assert!(width == 64 || b < 1u64 << width, "operand b out of range");
        let bit = |v: u64, t: usize| (v >> t) & 1 == 1;
        let mut sum = 0u64;
        let mut carry_out = false;
        for (j, block) in self.config.blocks().iter().enumerate() {
            let window = self.config.window(j);
            let result_start = window.end - block.width;
            let table = block.cell.truth_table();
            let mut carry = j == 0 && cin;
            for t in window {
                let out = table.eval(FaInput::new(bit(a, t), bit(b, t), carry));
                if t >= result_start && out.sum {
                    sum |= 1 << t;
                }
                carry = out.carry_out;
            }
            carry_out = carry;
        }
        BlockAdditionResult {
            sum,
            carry_out,
            width,
        }
    }

    /// The accurate full value `a + b + cin` (sum bits plus carry at bit
    /// `width`).
    pub fn accurate_sum(&self, a: u64, b: u64, cin: bool) -> u64 {
        a + b + cin as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::BlockSpec;
    use sealpaa_cells::{AdderChain, StandardCell};
    use sealpaa_gear::{GearAdder, GearConfig};

    #[test]
    fn single_accurate_block_is_an_exact_adder() {
        let config = BlockConfig::homogeneous(6, 6, 0, StandardCell::Accurate.cell()).unwrap();
        let adder = BlockAdder::new(config);
        for a in 0..64 {
            for b in 0..64 {
                for cin in [false, true] {
                    assert_eq!(adder.add(a, b, cin).value(), adder.accurate_sum(a, b, cin));
                }
            }
        }
    }

    #[test]
    fn gear_expressed_as_blocks_is_bit_identical() {
        for (n, r, p) in [(8, 2, 2), (10, 4, 2), (9, 1, 2), (12, 3, 0)] {
            let gear_config = GearConfig::new(n, r, p).expect("valid");
            let gear = GearAdder::new(gear_config);
            let blocks = BlockAdder::new(BlockConfig::from_gear(
                &gear_config,
                StandardCell::Accurate.cell(),
            ));
            for a in (0..1u64 << n).step_by(7) {
                for b in (0..1u64 << n).step_by(5) {
                    for cin in [false, true] {
                        let (gear_sum, gear_carry) = gear.add(a, b, cin);
                        assert_eq!(
                            blocks.add(a, b, cin).value(),
                            gear_sum | (gear_carry as u64) << n,
                            "GeAr({n},{r},{p}) a={a} b={b} cin={cin}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn single_block_matches_the_cell_chain() {
        // One block over the full width with an approximate cell is exactly
        // the ripple chain of that cell.
        for cell in [StandardCell::Lpaa1, StandardCell::Lpaa4] {
            let chain = AdderChain::uniform(cell.cell(), 5);
            let adder = BlockAdder::new(
                BlockConfig::new(vec![BlockSpec::new(5, 0, cell.cell())]).expect("valid"),
            );
            for a in 0..32 {
                for b in 0..32 {
                    for cin in [false, true] {
                        assert_eq!(adder.add(a, b, cin).value(), chain.add(a, b, cin).value());
                    }
                }
            }
        }
    }

    /// Operand pairs on which `spec` errs at carry-in 0.
    fn error_count(spec: &str) -> usize {
        let adder = BlockAdder::new(spec.parse().expect("parses"));
        let width = adder.width();
        (0..1u64 << width)
            .flat_map(|a| (0..1u64 << width).map(move |b| (a, b)))
            .filter(|&(a, b)| adder.add(a, b, false).value() != adder.accurate_sum(a, b, false))
            .count()
    }

    #[test]
    fn prediction_windows_only_predict() {
        // 4:0 + 4:2 accurate blocks: result bits 4..8 must match the exact
        // sum whenever the carry into bit 4 is correctly predicted, and be
        // short by 16 exactly when a real carry is missed.
        let config: BlockConfig = "4:0:accurate,4:2:accurate".parse().expect("parses");
        let adder = BlockAdder::new(config);
        for a in 0..256 {
            for b in 0..256 {
                let exact = adder.accurate_sum(a, b, false);
                let d = adder.add(a, b, false).error_distance(exact);
                assert!(d == 0 || d == -16, "a={a} b={b} d={d}");
            }
        }
        // Depth 1 cannot see a carry generated at bit 0, so errors exist.
        assert!(error_count("2:0:accurate,2:1:accurate") > 0);
        // Depth 2 covers the whole lower block; with carry-in 0 the
        // prediction is perfect.
        assert_eq!(error_count("2:0:accurate,2:2:accurate"), 0);
    }
}
