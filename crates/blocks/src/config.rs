//! The generalized block-based adder configuration.
//!
//! A configuration is a sequence of *blocks*, LSB first. Block `j`
//! contributes `width_j` result bits starting at `start_j = Σ_{i<j}
//! width_i` and computes them with its own sub-adder: a ripple chain of
//! `cell_j` full-adder cells over the *window*
//! `[start_j − prediction_j, start_j + width_j)`. The low `prediction_j`
//! window bits re-add already-covered operand bits purely to *predict* the
//! carry into the result segment; the window's own carry-in is constant 0
//! (the external carry-in for block 0, whose window starts at bit 0).
//!
//! This subsumes the fixed-geometry GeAr scheme (`sealpaa-gear`): GeAr's
//! sub-adder 0 is a depth-0 block over its full window and every later
//! sub-adder a width-`R`, depth-`P` block — see [`BlockConfig::from_gear`].
//! It also expresses the heterogeneous configurations of Farahmand et al.
//! (arXiv:2106.08800): per-block widths, depths *and* cells may all differ.

use std::fmt;
use std::str::FromStr;

use sealpaa_cells::{Cell, StandardCell, TruthTable};
use sealpaa_gear::GearConfig;

use crate::exhaustive::MAX_EXHAUSTIVE_WIDTH;

/// Widest configuration the analytical engine accepts. Matches the trace
/// crate's `MAX_REPLAY_WIDTH`: every error distance then fits the `i64`
/// keys of [`ErrorDistribution`](sealpaa_core::ErrorDistribution)
/// (`|D| < 2^48`), and its square the `u128` of the MSE.
pub const MAX_BLOCKS_WIDTH: usize = 47;

/// Errors produced by configuration construction and the analyses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockError {
    /// A configuration needs at least one block.
    Empty,
    /// Every block must contribute at least one result bit.
    ZeroWidthBlock {
        /// Offending block index.
        index: usize,
    },
    /// A block's prediction window may not reach below bit 0 (block 0 must
    /// have depth 0).
    DepthOutOfRange {
        /// Offending block index.
        index: usize,
        /// Requested prediction depth.
        depth: usize,
        /// Bits available below the block's result segment.
        available: usize,
    },
    /// The total width exceeds [`MAX_BLOCKS_WIDTH`].
    WidthTooLarge {
        /// Requested total width.
        width: usize,
    },
    /// An input profile does not cover the configuration's width.
    WidthMismatch {
        /// Configuration width.
        expected: usize,
        /// Profile width.
        actual: usize,
    },
    /// A stepper was asked for a distribution before the blocks tile the
    /// target width.
    Incomplete {
        /// Result bits appended so far.
        covered: usize,
        /// Target width.
        width: usize,
    },
    /// A block's prediction depth exceeds the stepper's declared maximum
    /// (the stepper has already marginalized the bits the window needs).
    DepthExceedsStepper {
        /// Requested prediction depth.
        depth: usize,
        /// Maximum depth the stepper was built for.
        max_depth: usize,
    },
    /// The error-distance support outgrew the analytical engine's bound.
    SupportExceeded {
        /// Support size at the point the bound was hit.
        support: usize,
    },
    /// The configuration is too wide for exhaustive enumeration.
    ExhaustiveWidthTooLarge {
        /// Requested total width.
        width: usize,
    },
}

impl fmt::Display for BlockError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BlockError::Empty => f.write_str("a block configuration needs at least one block"),
            BlockError::ZeroWidthBlock { index } => {
                write!(f, "block {index} contributes zero result bits")
            }
            BlockError::DepthOutOfRange {
                index,
                depth,
                available,
            } => write!(
                f,
                "block {index} predicts from {depth} bits but only {available} exist below it"
            ),
            BlockError::WidthTooLarge { width } => write!(
                f,
                "total width {width} exceeds the supported maximum {MAX_BLOCKS_WIDTH}"
            ),
            BlockError::WidthMismatch { expected, actual } => write!(
                f,
                "input profile covers {actual} bits but the configuration is {expected} bits wide"
            ),
            BlockError::Incomplete { covered, width } => write!(
                f,
                "blocks cover {covered} of {width} bits; the configuration is incomplete"
            ),
            BlockError::DepthExceedsStepper { depth, max_depth } => write!(
                f,
                "prediction depth {depth} exceeds the stepper's maximum {max_depth}"
            ),
            BlockError::SupportExceeded { support } => write!(
                f,
                "error-distance support reached {support} points; distribution too large"
            ),
            BlockError::ExhaustiveWidthTooLarge { width } => write!(
                f,
                "exhaustive enumeration supports at most {MAX_EXHAUSTIVE_WIDTH} bits, got {width}"
            ),
        }
    }
}

impl std::error::Error for BlockError {}

/// One block of a [`BlockConfig`]: result width, carry-prediction depth and
/// the full-adder cell its sub-adder ripples.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockSpec {
    /// Result bits this block contributes.
    pub width: usize,
    /// Prediction bits below the result segment re-added to guess the
    /// carry-in (0 ⇒ the block assumes carry 0).
    pub prediction: usize,
    /// The full-adder cell of the block's sub-adder.
    pub cell: Cell,
}

impl BlockSpec {
    /// Creates a block spec.
    pub fn new(width: usize, prediction: usize, cell: Cell) -> Self {
        BlockSpec {
            width,
            prediction,
            cell,
        }
    }

    /// Window length: result bits plus prediction bits — the number of cell
    /// evaluations the sub-adder performs.
    pub fn window_len(&self) -> usize {
        self.width + self.prediction
    }
}

/// A validated block-based adder configuration.
///
/// # Examples
///
/// ```
/// use sealpaa_blocks::{BlockConfig, BlockSpec};
/// use sealpaa_cells::StandardCell;
///
/// // 8 bits: an accurate 4-bit low block, then two 2-bit blocks each
/// // predicting from the 2 bits below — ETAII-style, but per-block cells.
/// let acc = StandardCell::Accurate.cell();
/// let config = BlockConfig::new(vec![
///     BlockSpec::new(4, 0, acc.clone()),
///     BlockSpec::new(2, 2, acc.clone()),
///     BlockSpec::new(2, 2, acc),
/// ])?;
/// assert_eq!(config.width(), 8);
/// assert_eq!(config.window(1), 2..6);
/// # Ok::<(), sealpaa_blocks::BlockError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BlockConfig {
    blocks: Vec<BlockSpec>,
}

impl BlockConfig {
    /// Validates and creates a configuration.
    ///
    /// # Errors
    ///
    /// See [`BlockError`]: at least one block, positive widths, prediction
    /// windows within `[0, start)`, total width ≤ [`MAX_BLOCKS_WIDTH`].
    pub fn new(blocks: Vec<BlockSpec>) -> Result<Self, BlockError> {
        if blocks.is_empty() {
            return Err(BlockError::Empty);
        }
        let mut start = 0usize;
        for (index, block) in blocks.iter().enumerate() {
            if block.width == 0 {
                return Err(BlockError::ZeroWidthBlock { index });
            }
            if block.prediction > start {
                return Err(BlockError::DepthOutOfRange {
                    index,
                    depth: block.prediction,
                    available: start,
                });
            }
            start += block.width;
        }
        if start > MAX_BLOCKS_WIDTH {
            return Err(BlockError::WidthTooLarge { width: start });
        }
        Ok(BlockConfig { blocks })
    }

    /// A GeAr configuration re-expressed as blocks, every sub-adder rippling
    /// `cell`: sub-adder 0 becomes a depth-0 block over its full window,
    /// every later sub-adder a width-`R` block with depth `P`.
    ///
    /// With an accurate `cell` this is bit-for-bit the same adder as
    /// [`sealpaa_gear::GearAdder`] — the differential suite pins that.
    ///
    /// # Panics
    ///
    /// Panics if the GeAr width exceeds [`MAX_BLOCKS_WIDTH`] (GeAr itself
    /// has no width bound).
    pub fn from_gear(gear: &GearConfig, cell: Cell) -> Self {
        let blocks = gear
            .block_segments()
            .into_iter()
            .map(|(_, width, depth)| BlockSpec::new(width, depth, cell.clone()))
            .collect();
        BlockConfig::new(blocks).expect("a valid GeAr layout is a valid block layout")
    }

    /// A homogeneous configuration: an accurate-style partition of `width`
    /// bits into blocks of `block_width` (the last block absorbs the
    /// remainder), each predicting from `prediction` bits (clamped to the
    /// bits available), all rippling `cell`.
    ///
    /// # Errors
    ///
    /// See [`BlockError`].
    pub fn homogeneous(
        width: usize,
        block_width: usize,
        prediction: usize,
        cell: Cell,
    ) -> Result<Self, BlockError> {
        if block_width == 0 {
            return Err(BlockError::ZeroWidthBlock { index: 0 });
        }
        let mut blocks = Vec::new();
        let mut start = 0;
        while start < width {
            let w = block_width.min(width - start);
            blocks.push(BlockSpec::new(w, prediction.min(start), cell.clone()));
            start += w;
        }
        BlockConfig::new(blocks)
    }

    /// The blocks, LSB first.
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// Number of blocks.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Total operand width.
    pub fn width(&self) -> usize {
        self.blocks.iter().map(|b| b.width).sum()
    }

    /// First result-bit position of block `j`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.block_count()`.
    pub fn result_start(&self, j: usize) -> usize {
        assert!(j < self.blocks.len(), "block index out of range");
        self.blocks[..j].iter().map(|b| b.width).sum()
    }

    /// The operand-bit window block `j`'s sub-adder ripples:
    /// `[start − prediction, start + width)`.
    ///
    /// # Panics
    ///
    /// Panics if `j >= self.block_count()`.
    pub fn window(&self, j: usize) -> std::ops::Range<usize> {
        let start = self.result_start(j);
        start - self.blocks[j].prediction..start + self.blocks[j].width
    }

    /// Maximum prediction depth over all blocks.
    pub fn max_prediction(&self) -> usize {
        self.blocks.iter().map(|b| b.prediction).max().unwrap_or(0)
    }

    /// Longest window — the carry ripples at most this many bits, so this
    /// is the delay proxy (an exact RCA's is the full width).
    pub fn max_window_len(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.window_len())
            .max()
            .unwrap_or(0)
    }

    /// Total cell evaluations per addition: `Σ (width + prediction)` — the
    /// area proxy in full-adder counts, and the per-case bit-addition count
    /// the simulators charge.
    pub fn total_window_bits(&self) -> usize {
        self.blocks.iter().map(|b| b.window_len()).sum()
    }

    /// Summed cell power (nW), weighting each block's characteristics by
    /// its window length. Cells without characteristics contribute 0.
    pub fn total_power_nw(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                b.cell
                    .characteristics()
                    .map_or(0.0, |c| c.power_nw * b.window_len() as f64)
            })
            .sum()
    }

    /// Summed cell area (gate equivalents), weighting each block's
    /// characteristics by its window length.
    pub fn total_area_ge(&self) -> f64 {
        self.blocks
            .iter()
            .map(|b| {
                b.cell
                    .characteristics()
                    .map_or(0.0, |c| c.area_ge * b.window_len() as f64)
            })
            .sum()
    }

    /// `true` if every block ripples an accurate cell (the adder may still
    /// err through carry prediction).
    pub fn all_cells_accurate(&self) -> bool {
        self.blocks
            .iter()
            .all(|b| b.cell.truth_table().is_accurate())
    }

    /// The behavioral canonical form: adjacent blocks whose windows start
    /// at the same bit with the same truth table compute the same carries
    /// over their shared prefix, so the upper block is a seamless
    /// continuation of the lower one and the pair folds into a single
    /// block. Folding into block 0 additionally requires the external
    /// carry-in to be known 0 (`cin_is_zero`), because block 0's window
    /// starts from the real carry-in while every later window starts from
    /// constant 0.
    ///
    /// Two configurations with equal canonical forms (and equal truth
    /// tables) produce identical outputs for every input — the server's
    /// cache key builds on this.
    pub fn canonicalized(&self, cin_is_zero: bool) -> BlockConfig {
        let mut out: Vec<BlockSpec> = Vec::with_capacity(self.blocks.len());
        let mut out_start = 0usize; // result start of the last block in `out`
        let mut start = 0usize;
        for (j, block) in self.blocks.iter().enumerate() {
            let merging_into_block0 = out.len() == 1;
            if let Some(last) = out.last_mut() {
                let last_window_start = out_start - last.prediction;
                let window_start = start - block.prediction;
                if window_start == last_window_start
                    && block.cell.truth_table() == last.cell.truth_table()
                    && (!merging_into_block0 || cin_is_zero)
                {
                    last.width += block.width;
                    start += block.width;
                    continue;
                }
            }
            out_start = start;
            start += block.width;
            out.push(self.blocks[j].clone());
        }
        BlockConfig { blocks: out }
    }
}

impl fmt::Display for BlockConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "blocks(N={})[", self.width())?;
        for (j, b) in self.blocks.iter().enumerate() {
            if j > 0 {
                f.write_str(", ")?;
            }
            write!(f, "{}:{}:{}", b.width, b.prediction, b.cell.name())?;
        }
        f.write_str("]")
    }
}

/// Error from parsing a [`BlockConfig`] specification string.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseBlockConfigError {
    message: String,
}

impl fmt::Display for ParseBlockConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid block configuration: {}", self.message)
    }
}

impl std::error::Error for ParseBlockConfigError {}

impl ParseBlockConfigError {
    fn new(message: impl Into<String>) -> Self {
        ParseBlockConfigError {
            message: message.into(),
        }
    }
}

impl FromStr for BlockConfig {
    type Err = ParseBlockConfigError;

    /// Parses `width:prediction:cell` triples separated by commas, LSB
    /// block first. The cell is a standard-cell name (`accurate`, `lpaa1`,
    /// …) or an 8+8-bit truth-table spec `SSSSSSSS/CCCCCCCC`.
    ///
    /// ```
    /// use sealpaa_blocks::BlockConfig;
    ///
    /// let config: BlockConfig = "4:0:accurate,2:2:lpaa1,2:2:accurate".parse()?;
    /// assert_eq!(config.width(), 8);
    /// # Ok::<(), sealpaa_blocks::ParseBlockConfigError>(())
    /// ```
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut blocks = Vec::new();
        for (j, part) in s.split(',').enumerate() {
            let fields: Vec<&str> = part.trim().split(':').collect();
            if fields.len() != 3 {
                return Err(ParseBlockConfigError::new(format!(
                    "block {j} must be width:prediction:cell, got {part:?}"
                )));
            }
            let width: usize = fields[0]
                .parse()
                .map_err(|_| ParseBlockConfigError::new(format!("bad width {:?}", fields[0])))?;
            let prediction: usize = fields[1].parse().map_err(|_| {
                ParseBlockConfigError::new(format!("bad prediction {:?}", fields[1]))
            })?;
            let cell = parse_cell(fields[2])
                .map_err(|e| ParseBlockConfigError::new(format!("block {j}: {e}")))?;
            blocks.push(BlockSpec::new(width, prediction, cell));
        }
        BlockConfig::new(blocks).map_err(|e| ParseBlockConfigError::new(e.to_string()))
    }
}

/// Resolves a cell name (standard-cell alias) or an `SSSSSSSS/CCCCCCCC`
/// truth-table spec into a [`Cell`].
fn parse_cell(spec: &str) -> Result<Cell, String> {
    if let Ok(standard) = spec.parse::<StandardCell>() {
        return Ok(standard.cell());
    }
    if let Ok(table) = spec.parse::<TruthTable>() {
        return Ok(Cell::custom(format!("custom {spec}"), table));
    }
    Err(format!(
        "unknown cell {spec:?} (expected a standard-cell name or SSSSSSSS/CCCCCCCC)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn acc() -> Cell {
        StandardCell::Accurate.cell()
    }

    #[test]
    fn validation_rejects_malformed_layouts() {
        assert_eq!(BlockConfig::new(vec![]), Err(BlockError::Empty));
        assert_eq!(
            BlockConfig::new(vec![BlockSpec::new(0, 0, acc())]),
            Err(BlockError::ZeroWidthBlock { index: 0 })
        );
        assert_eq!(
            BlockConfig::new(vec![BlockSpec::new(2, 1, acc())]),
            Err(BlockError::DepthOutOfRange {
                index: 0,
                depth: 1,
                available: 0
            })
        );
        assert_eq!(
            BlockConfig::new(vec![
                BlockSpec::new(2, 0, acc()),
                BlockSpec::new(2, 3, acc()),
            ]),
            Err(BlockError::DepthOutOfRange {
                index: 1,
                depth: 3,
                available: 2
            })
        );
        let too_wide = vec![BlockSpec::new(MAX_BLOCKS_WIDTH + 1, 0, acc())];
        assert_eq!(
            BlockConfig::new(too_wide),
            Err(BlockError::WidthTooLarge {
                width: MAX_BLOCKS_WIDTH + 1
            })
        );
    }

    #[test]
    fn geometry_accessors() {
        let config = BlockConfig::new(vec![
            BlockSpec::new(4, 0, acc()),
            BlockSpec::new(2, 2, StandardCell::Lpaa1.cell()),
            BlockSpec::new(2, 3, acc()),
        ])
        .expect("valid");
        assert_eq!(config.width(), 8);
        assert_eq!(config.result_start(2), 6);
        assert_eq!(config.window(0), 0..4);
        assert_eq!(config.window(1), 2..6);
        assert_eq!(config.window(2), 3..8);
        assert_eq!(config.max_prediction(), 3);
        assert_eq!(config.max_window_len(), 5);
        assert_eq!(config.total_window_bits(), 4 + 4 + 5);
        assert!(!config.all_cells_accurate());
        // LPAA 1 carries Table 2 characteristics; the accurate cell has
        // none, so only the 4 LPAA window bits contribute.
        assert!(config.total_power_nw() > 0.0);
        assert!(config.total_area_ge() > 0.0);
    }

    #[test]
    fn gear_mapping_matches_block_segments() {
        let gear = GearConfig::new(8, 2, 2).expect("valid");
        let config = BlockConfig::from_gear(&gear, acc());
        assert_eq!(config.width(), 8);
        assert_eq!(config.block_count(), gear.block_count());
        for (j, &(start, width, depth)) in gear.block_segments().iter().enumerate() {
            assert_eq!(config.result_start(j), start);
            assert_eq!(config.blocks()[j].width, width);
            assert_eq!(config.blocks()[j].prediction, depth);
            assert_eq!(config.window(j), gear.block_window(j));
        }
    }

    #[test]
    fn homogeneous_partition_covers_and_clamps() {
        let config = BlockConfig::homogeneous(10, 4, 4, acc()).expect("valid");
        assert_eq!(config.width(), 10);
        assert_eq!(config.block_count(), 3);
        assert_eq!(config.blocks()[0].prediction, 0);
        assert_eq!(config.blocks()[1].prediction, 4);
        assert_eq!(config.blocks()[2].width, 2);
    }

    #[test]
    fn parse_round_trips_geometry() {
        let config: BlockConfig = "4:0:accurate, 2:2:lpaa1, 2:2:accurate"
            .parse()
            .expect("parses");
        assert_eq!(config.width(), 8);
        assert_eq!(config.blocks()[1].cell.name(), StandardCell::Lpaa1.name());
        assert!("4:0".parse::<BlockConfig>().is_err());
        assert!("4:0:nonsense".parse::<BlockConfig>().is_err());
        assert!("2:1:accurate".parse::<BlockConfig>().is_err());
    }

    #[test]
    fn canonical_form_merges_seamless_continuations() {
        // Block 2's window starts where block 1's does (depth 2 reaches to
        // bit 2) with the same cell ⇒ it is a continuation.
        let config: BlockConfig = "2:0:accurate,2:0:accurate,2:2:accurate,2:2:lpaa1"
            .parse()
            .expect("parses");
        let canon = config.canonicalized(false);
        assert_eq!(canon.block_count(), 3);
        assert_eq!(canon.blocks()[1].width, 4);
        assert_eq!(canon.blocks()[1].prediction, 0);
        // The LPAA 1 block has a different table and must survive.
        assert_eq!(canon.blocks()[2].width, 2);

        // Folding into block 0 needs a known-zero carry-in.
        let config: BlockConfig = "2:0:accurate,2:2:accurate".parse().expect("parses");
        assert_eq!(config.canonicalized(false).block_count(), 2);
        let folded = config.canonicalized(true);
        assert_eq!(folded.block_count(), 1);
        assert_eq!(folded.blocks()[0].width, 4);
    }

    #[test]
    fn display_is_compact() {
        let config: BlockConfig = "4:0:accurate,2:2:lpaa1".parse().expect("parses");
        let text = config.to_string();
        assert!(text.contains("N=6"), "{text}");
        assert!(text.contains("2:2:LPAA 1"), "{text}");
    }
}
