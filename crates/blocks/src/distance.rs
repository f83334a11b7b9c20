//! The analytical error-distance engine: the exact PMF of
//! `D = approx − exact` for a block-based adder, by a single linear pass
//! over bit positions.
//!
//! # The recursion
//!
//! Process bit positions `t = 0..N` in order. The joint state is
//!
//! * the *exact* ripple carry into position `t` (1 bit),
//! * the internal carry of every block window that is **open** at `t`
//!   (window `[start_j − depth_j, start_j + width_j)` contains `t`), and
//! * the partial signed error distance accumulated from result bits below
//!   `t`, kept as a sparse map `d → mass`.
//!
//! Windows *open* when `t` reaches their low edge (carry initialized to 0,
//! or to the external carry-in for block 0) and *close* when `t` passes
//! their high edge, at which point their carry bit is marginalized out —
//! only the top block's carry-out survives to the end, where its
//! discrepancy against the exact carry-out contributes `±2^N`. At each
//! position the four `(a_t, b_t)` cases are weighted by the input profile;
//! the block owning result bit `t` adds `(s_approx − s_exact)·2^t` to the
//! partial distance. Prediction windows re-add operand bits that some lower
//! block also consumed — the joint state handles the correlation exactly,
//! which is why the result matches exhaustive enumeration bit for bit.
//!
//! With accurate cells the support stays tiny (each block contributes a
//! deficit of `−2^{start_j}` or nothing), so the engine runs to the full
//! [`MAX_BLOCKS_WIDTH`](crate::MAX_BLOCKS_WIDTH); with approximate cells
//! the support can grow like the chain distribution's, so it is bounded by
//! [`MAX_DISTANCE_SUPPORT`] and overflow is an error, not an OOM.
//!
//! The engine is exposed two ways: [`error_distance_distribution`] for one
//! configuration, and [`BlockDistanceStepper`] — an incremental push/
//! truncate interface that lets design-space exploration share the DP
//! prefix across every configuration with the same leading blocks (the
//! PrefixStepper idea from `sealpaa-core`, lifted to block granularity).

use std::collections::BTreeMap;

use sealpaa_cells::{FaInput, InputProfile, TruthTable};
use sealpaa_core::ErrorDistribution;
use sealpaa_num::Prob;

use crate::config::{BlockConfig, BlockError};

/// Most support points (summed over joint-carry states) the engine tracks
/// before giving up with [`BlockError::SupportExceeded`].
pub const MAX_DISTANCE_SUPPORT: usize = 1 << 20;

/// One appended block as the stepper sees it.
#[derive(Debug, Clone)]
struct SteppedBlock {
    /// First result-bit position.
    start: usize,
    /// One past the last result-bit position.
    end: usize,
    /// Truth table of the block's cell.
    table: TruthTable,
}

/// A saved stepper position for [`BlockDistanceStepper::truncate`].
#[derive(Debug, Clone)]
struct Snapshot<T> {
    frontier: usize,
    covered: usize,
    open: Vec<usize>,
    pending: Vec<(usize, usize)>,
    states: BTreeMap<u32, BTreeMap<i64, T>>,
}

/// Incremental error-distance analysis over a growing block prefix.
///
/// `push` appends a block and advances the underlying DP as far as any
/// *future* block could possibly reach back (`covered − max_depth`);
/// `truncate` rewinds to a shorter prefix in O(1) state swaps. A
/// design-space search that explores configurations in DFS order therefore
/// pays for each shared prefix once. [`distribution`](Self::distribution)
/// finishes a complete configuration without disturbing the prefix state.
///
/// # Examples
///
/// ```
/// use sealpaa_blocks::{error_distance_distribution, BlockConfig, BlockDistanceStepper};
/// use sealpaa_cells::{InputProfile, StandardCell};
///
/// let profile = InputProfile::<f64>::uniform(6);
/// let acc = StandardCell::Accurate.cell();
/// let mut stepper = BlockDistanceStepper::new(profile.clone(), 2)?;
/// stepper.push(4, 0, &acc)?;
/// stepper.push(2, 2, &acc)?;
/// let dist = stepper.distribution()?;
/// let config: BlockConfig = "4:0:accurate,2:2:accurate".parse()?;
/// assert_eq!(dist, error_distance_distribution(&config, &profile)?);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct BlockDistanceStepper<T> {
    profile: InputProfile<T>,
    accurate: TruthTable,
    /// Deepest prediction any pushed block may use; bounds how far the
    /// frontier may run ahead of the covered width.
    max_depth: usize,
    /// Positions `[0, frontier)` are fully processed.
    frontier: usize,
    /// Result bits covered by pushed blocks.
    covered: usize,
    blocks: Vec<SteppedBlock>,
    /// Block indices whose windows are open at `frontier`, in opening
    /// order (slot `i` owns state bit `1 + i`).
    open: Vec<usize>,
    /// `(position, block index)` open events not yet reached, ascending.
    pending: Vec<(usize, usize)>,
    /// Joint-carry state (bit 0: exact carry; bit `1+i`: slot `i`'s
    /// carry) → partial error distance → probability mass.
    states: BTreeMap<u32, BTreeMap<i64, T>>,
    snapshots: Vec<Snapshot<T>>,
}

impl<T: Prob> BlockDistanceStepper<T> {
    /// Starts an empty stepper targeting `profile.width()` bits, admitting
    /// prediction depths up to `max_depth`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::WidthTooLarge`] if the profile is wider than
    /// [`MAX_BLOCKS_WIDTH`](crate::MAX_BLOCKS_WIDTH).
    pub fn new(profile: InputProfile<T>, max_depth: usize) -> Result<Self, BlockError> {
        if profile.width() > crate::MAX_BLOCKS_WIDTH {
            return Err(BlockError::WidthTooLarge {
                width: profile.width(),
            });
        }
        let mut states: BTreeMap<u32, BTreeMap<i64, T>> = BTreeMap::new();
        let p_cin = profile.p_cin().clone();
        if !p_cin.complement().is_zero() {
            states.insert(0, BTreeMap::from([(0, p_cin.complement())]));
        }
        if !p_cin.is_zero() {
            states.insert(1, BTreeMap::from([(0, p_cin)]));
        }
        Ok(BlockDistanceStepper {
            profile,
            accurate: TruthTable::accurate(),
            max_depth,
            frontier: 0,
            covered: 0,
            blocks: Vec::new(),
            open: Vec::new(),
            pending: Vec::new(),
            states,
            snapshots: Vec::new(),
        })
    }

    /// Blocks pushed so far.
    pub fn depth(&self) -> usize {
        self.blocks.len()
    }

    /// Result bits covered so far.
    pub fn covered(&self) -> usize {
        self.covered
    }

    /// Target width.
    pub fn width(&self) -> usize {
        self.profile.width()
    }

    /// Appends a block of `width` result bits predicting its carry from
    /// `prediction` bits, rippling `cell`, and advances the DP to
    /// `covered − max_depth` (everything no future block can reach).
    ///
    /// # Errors
    ///
    /// Rejects zero widths, widths past the target, depths past the
    /// covered prefix or the stepper's `max_depth`, and support overflow.
    pub fn push(
        &mut self,
        width: usize,
        prediction: usize,
        cell: &sealpaa_cells::Cell,
    ) -> Result<(), BlockError> {
        let index = self.blocks.len();
        if width == 0 {
            return Err(BlockError::ZeroWidthBlock { index });
        }
        if self.covered + width > self.width() {
            return Err(BlockError::WidthTooLarge {
                width: self.covered + width,
            });
        }
        if prediction > self.covered {
            return Err(BlockError::DepthOutOfRange {
                index,
                depth: prediction,
                available: self.covered,
            });
        }
        if prediction > self.max_depth {
            return Err(BlockError::DepthExceedsStepper {
                depth: prediction,
                max_depth: self.max_depth,
            });
        }
        self.snapshots.push(Snapshot {
            frontier: self.frontier,
            covered: self.covered,
            open: self.open.clone(),
            pending: self.pending.clone(),
            states: self.states.clone(),
        });
        let start = self.covered;
        self.blocks.push(SteppedBlock {
            start,
            end: start + width,
            table: *cell.truth_table(),
        });
        let open_at = start - prediction;
        debug_assert!(open_at >= self.frontier, "window opens behind the frontier");
        let slot = self.pending.partition_point(|&(pos, _)| pos <= open_at);
        self.pending.insert(slot, (open_at, index));
        self.covered += width;
        let target = self.covered.saturating_sub(self.max_depth);
        if target > self.frontier {
            self.advance_to(target)?;
        }
        Ok(())
    }

    /// Rewinds to the state after `len` pushes.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.depth()`.
    pub fn truncate(&mut self, len: usize) {
        assert!(len <= self.blocks.len(), "cannot truncate forward");
        while self.blocks.len() > len {
            let snapshot = self.snapshots.pop().expect("one snapshot per block");
            self.blocks.pop();
            self.frontier = snapshot.frontier;
            self.covered = snapshot.covered;
            self.open = snapshot.open;
            self.pending = snapshot.pending;
            self.states = snapshot.states;
        }
    }

    /// Finishes the analysis for the current (complete) prefix without
    /// consuming the stepper: processes the remaining positions on a copy
    /// of the state and folds the final carry-out discrepancy.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::Incomplete`] unless the pushed blocks tile the
    /// target width exactly, and [`BlockError::SupportExceeded`] on support
    /// overflow.
    pub fn distribution(&self) -> Result<ErrorDistribution<T>, BlockError> {
        let width = self.width();
        if self.covered != width {
            return Err(BlockError::Incomplete {
                covered: self.covered,
                width,
            });
        }
        // Clone only the live cursor — NOT `snapshots`, which holds one
        // full state copy per pushed block and is never consulted by the
        // tail advance (a DSE calls this once per visited leaf).
        let mut tail = BlockDistanceStepper {
            profile: self.profile.clone(),
            accurate: self.accurate,
            max_depth: self.max_depth,
            frontier: self.frontier,
            covered: self.covered,
            blocks: self.blocks.clone(),
            open: self.open.clone(),
            pending: self.pending.clone(),
            states: self.states.clone(),
            snapshots: Vec::new(),
        };
        tail.advance_to(width)?;
        // Every interior window closed during the advance; exactly the top
        // block's window (end == width) is still open in slot 0.
        debug_assert_eq!(tail.open.len(), 1);
        let carry_value = 1i64 << width;
        let mut pmf: BTreeMap<i64, T> = BTreeMap::new();
        for (key, masses) in &tail.states {
            let exact_carry = key & 1 == 1;
            let top_carry = key & 2 == 2;
            let dc = match (top_carry, exact_carry) {
                (true, false) => carry_value,
                (false, true) => -carry_value,
                _ => 0,
            };
            for (d, mass) in masses {
                if mass.is_zero() {
                    continue;
                }
                let entry = pmf.entry(d + dc).or_insert_with(T::zero);
                *entry = entry.clone() + mass.clone();
            }
        }
        Ok(ErrorDistribution {
            pmf: pmf.into_iter().filter(|(_, p)| !p.is_zero()).collect(),
        })
    }

    /// Processes positions `[frontier, target)`: opens/closes windows and
    /// runs the joint transition at each position.
    fn advance_to(&mut self, target: usize) -> Result<(), BlockError> {
        debug_assert!(target <= self.covered);
        for t in self.frontier..target {
            // Close interior windows whose high edge is behind us. The
            // final block's window (end == width) is never closed here
            // because `target ≤ covered` keeps `t < end`.
            while let Some(slot) = self.open.iter().position(|&j| self.blocks[j].end == t) {
                self.close_slot(slot);
            }
            // Open windows whose low edge is `t` (ascending block index so
            // slot order is deterministic).
            while let Some(&(pos, j)) = self.pending.first() {
                if pos > t {
                    break;
                }
                debug_assert_eq!(pos, t, "missed an open event");
                self.pending.remove(0);
                self.open_slot(j);
            }
            self.step_position(t)?;
        }
        self.frontier = target;
        Ok(())
    }

    /// Opens block `j`'s window in a fresh slot. Block 0's carry is the
    /// external carry-in — i.e. the exact carry at bit 0 — so its slot bit
    /// mirrors state bit 0; every other window starts from constant 0.
    fn open_slot(&mut self, j: usize) {
        let slot_bit = 1u32 << (1 + self.open.len());
        self.open.push(j);
        if j == 0 {
            let mut next: BTreeMap<u32, BTreeMap<i64, T>> = BTreeMap::new();
            for (key, masses) in std::mem::take(&mut self.states) {
                let new_key = if key & 1 == 1 { key | slot_bit } else { key };
                next.insert(new_key, masses);
            }
            self.states = next;
        }
        // j > 0: the new slot bit is already 0 in every key.
    }

    /// Marginalizes slot `slot` out of the state.
    fn close_slot(&mut self, slot: usize) {
        self.open.remove(slot);
        let bit = 1u32 << (1 + slot);
        let low_mask = bit - 1;
        let mut next: BTreeMap<u32, BTreeMap<i64, T>> = BTreeMap::new();
        for (key, masses) in std::mem::take(&mut self.states) {
            let new_key = (key & low_mask) | ((key >> 1) & !low_mask);
            let target = next.entry(new_key).or_default();
            for (d, mass) in masses {
                let entry = target.entry(d).or_insert_with(T::zero);
                *entry = entry.clone() + mass;
            }
        }
        self.states = next;
    }

    /// The joint transition at position `t`.
    fn step_position(&mut self, t: usize) -> Result<(), BlockError> {
        let owner = self
            .open
            .iter()
            .position(|&j| self.blocks[j].start <= t && t < self.blocks[j].end);
        debug_assert!(owner.is_some(), "result bit {t} has no open owner");
        let pa = self.profile.pa(t).clone();
        let pb = self.profile.pb(t).clone();
        // Dead-position fast path: when both operand bits are certainly 0,
        // every live carry is already 0, and every open table (like the
        // exact adder) outputs (sum 0, carry 0) on the all-zero row, the
        // transition is the identity — the one surviving (a, b) case has
        // weight exactly 1, no carry flips, and the owner's dv is 0. The
        // skip is bit-identical to the general path (masses would be
        // rebuilt in the same order, scaled by exactly 1) and is what makes
        // the analysis cost flat across the dead upper bits of
        // low-magnitude workloads.
        if pa.is_zero()
            && pb.is_zero()
            && self.states.len() == 1
            && self.states.keys().next() == Some(&0)
            && self.open.iter().all(|&j| {
                let out = self.blocks[j].table.eval(FaInput::new(false, false, false));
                !out.sum && !out.carry_out
            })
        {
            return Ok(());
        }
        let weight_of = |bit: bool, p: &T| if bit { p.clone() } else { p.complement() };
        let mut next: BTreeMap<u32, BTreeMap<i64, T>> = BTreeMap::new();
        let mut support = 0usize;
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            let w = weight_of(a, &pa) * weight_of(b, &pb);
            if w.is_zero() {
                continue;
            }
            for (key, masses) in &self.states {
                let exact_out = self.accurate.eval(FaInput::new(a, b, key & 1 == 1));
                let mut new_key = exact_out.carry_out as u32;
                let mut dv = 0i64;
                for (slot, &j) in self.open.iter().enumerate() {
                    let carry = key & (1 << (1 + slot)) != 0;
                    let out = self.blocks[j].table.eval(FaInput::new(a, b, carry));
                    new_key |= (out.carry_out as u32) << (1 + slot);
                    if owner == Some(slot) {
                        dv = (out.sum as i64 - exact_out.sum as i64) << t;
                    }
                }
                let target = next.entry(new_key).or_default();
                for (d, mass) in masses {
                    let entry = target.entry(d + dv).or_insert_with(T::zero);
                    if entry.is_zero() {
                        support += 1;
                        if support > MAX_DISTANCE_SUPPORT {
                            return Err(BlockError::SupportExceeded { support });
                        }
                    }
                    *entry = entry.clone() + w.clone() * mass.clone();
                }
            }
        }
        self.states = next;
        Ok(())
    }
}

/// Computes the exact error-distance PMF of a block configuration under an
/// input profile (per-bit operand probabilities plus the carry-in
/// probability feeding block 0).
///
/// # Errors
///
/// [`BlockError::WidthMismatch`] if the profile does not cover the
/// configuration, [`BlockError::SupportExceeded`] if the PMF support
/// outgrows [`MAX_DISTANCE_SUPPORT`].
///
/// # Examples
///
/// ```
/// use sealpaa_blocks::{error_distance_distribution, BlockConfig};
/// use sealpaa_cells::InputProfile;
/// use sealpaa_num::Rational;
///
/// let config: BlockConfig = "4:0:accurate,4:2:accurate".parse()?;
/// let dist = error_distance_distribution(&config, &InputProfile::<Rational>::uniform(8))?;
/// // An accurate-cell block adder only ever *misses* carries: the support
/// // is {−16, 0} and the exact error rate is the mispredict probability.
/// assert_eq!(dist.pmf.len(), 2);
/// assert_eq!(dist.pmf[0].0, -16);
/// // ... P(carry into bit 2) · P(bits 2 and 3 both propagate) = ½ · ¼.
/// assert_eq!(dist.error_rate(), Rational::from_ratio(1, 8));
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn error_distance_distribution<T: Prob>(
    config: &BlockConfig,
    profile: &InputProfile<T>,
) -> Result<ErrorDistribution<T>, BlockError> {
    if config.width() != profile.width() {
        return Err(BlockError::WidthMismatch {
            expected: config.width(),
            actual: profile.width(),
        });
    }
    let mut stepper = BlockDistanceStepper::new(profile.clone(), config.max_prediction())?;
    for block in config.blocks() {
        stepper.push(block.width, block.prediction, &block.cell)?;
    }
    stepper.distribution()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::functional::BlockAdder;
    use sealpaa_cells::StandardCell;
    use sealpaa_num::Rational;

    fn brute_force_pmf(
        config: &BlockConfig,
        profile: &InputProfile<Rational>,
    ) -> BTreeMap<i64, Rational> {
        let adder = BlockAdder::new(config.clone());
        let width = config.width();
        let mut pmf = BTreeMap::new();
        for a in 0..1u64 << width {
            for b in 0..1u64 << width {
                for cin in [false, true] {
                    let w = profile.assignment_probability(a, b, cin);
                    if w.is_zero() {
                        continue;
                    }
                    let d = adder
                        .add(a, b, cin)
                        .error_distance(adder.accurate_sum(a, b, cin));
                    let entry = pmf.entry(d).or_insert_with(Rational::zero);
                    *entry = entry.clone() + w;
                }
            }
        }
        pmf.retain(|_, p| !p.is_zero());
        pmf
    }

    fn assert_matches_brute_force(spec: &str, profile: &InputProfile<Rational>) {
        let config: BlockConfig = spec.parse().expect("parses");
        let dist = error_distance_distribution(&config, profile).expect("in range");
        let got: BTreeMap<i64, Rational> = dist.pmf.iter().cloned().collect();
        assert_eq!(got, brute_force_pmf(&config, profile), "{spec}");
    }

    #[test]
    fn pmf_matches_brute_force_for_accurate_blocks() {
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(2, 7));
        for spec in [
            "6:0:accurate",
            "2:0:accurate,2:2:accurate,2:2:accurate",
            "3:0:accurate,1:1:accurate,2:3:accurate",
            "1:0:accurate,1:1:accurate,1:1:accurate,1:1:accurate,1:1:accurate,1:1:accurate",
        ] {
            assert_matches_brute_force(spec, &profile);
        }
    }

    #[test]
    fn pmf_matches_brute_force_under_sparse_profiles() {
        // Dead upper bits (P(bit) = 0) take the identity fast path once the
        // carries die; the result must still be the exact distribution. The
        // LPAA 2 block exercises a table whose all-zero row is NOT (0, 0)
        // (it sums to 1), which must inhibit the skip while it is open.
        let half = Rational::from_ratio(1, 2);
        let zero = Rational::zero();
        let low_live = |width: usize, live: usize| {
            let p: Vec<Rational> = (0..width)
                .map(|i| if i < live { half.clone() } else { zero.clone() })
                .collect();
            InputProfile::new(p.clone(), p, zero.clone()).expect("valid profile")
        };
        for spec in [
            "3:0:accurate,3:1:accurate,3:0:accurate",
            "2:0:accurate,3:1:accurate,2:1:accurate,2:0:accurate",
            "3:0:accurate,3:1:lpaa2,3:1:accurate",
        ] {
            let config: BlockConfig = spec.parse().expect("parses");
            assert_matches_brute_force(spec, &low_live(config.width(), 3));
        }
        // Nonzero cin: the carry dies at the first dead position, not at 0.
        let p: Vec<Rational> = (0..8)
            .map(|i| if i < 2 { half.clone() } else { zero.clone() })
            .collect();
        let profile = InputProfile::new(p.clone(), p, half.clone()).expect("valid profile");
        assert_matches_brute_force("4:0:accurate,4:2:accurate", &profile);
    }

    #[test]
    fn pmf_matches_brute_force_for_heterogeneous_cells() {
        let profile = InputProfile::<Rational>::constant(5, Rational::from_ratio(1, 3));
        for spec in [
            "2:0:lpaa1,3:2:accurate",
            "2:0:accurate,3:1:lpaa2",
            "1:0:lpaa5,2:1:lpaa1,2:2:lpaa6",
        ] {
            assert_matches_brute_force(spec, &profile);
        }
    }

    #[test]
    fn pmf_matches_brute_force_with_nonzero_cin() {
        let profile = InputProfile::new(
            vec![Rational::from_ratio(1, 4); 4],
            vec![Rational::from_ratio(2, 5); 4],
            Rational::from_ratio(1, 2),
        )
        .expect("valid profile");
        for spec in ["2:0:accurate,2:2:accurate", "2:0:lpaa1,2:1:accurate"] {
            assert_matches_brute_force(spec, &profile);
        }
    }

    #[test]
    fn deep_overlapping_windows_are_exact() {
        // Block 2's window reaches below block 1's result segment — three
        // windows are open at once over bits 1..3.
        let profile = InputProfile::<Rational>::uniform(6);
        assert_matches_brute_force("3:0:accurate,1:1:accurate,2:4:accurate", &profile);
    }

    #[test]
    fn pmf_sums_to_one_exactly() {
        let config: BlockConfig = "2:0:lpaa3,2:2:accurate,2:1:lpaa7".parse().expect("parses");
        let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(3, 11));
        let dist = error_distance_distribution(&config, &profile).expect("in range");
        assert_eq!(dist.total_mass(), Rational::one());
    }

    #[test]
    fn stepper_truncate_restores_prefix() {
        let profile = InputProfile::<Rational>::uniform(6);
        let acc = StandardCell::Accurate.cell();
        let lpaa = StandardCell::Lpaa1.cell();
        let mut stepper = BlockDistanceStepper::new(profile.clone(), 2).expect("width ok");
        stepper.push(3, 0, &acc).expect("push");
        stepper.push(3, 2, &lpaa).expect("push");
        let first = stepper.distribution().expect("complete");
        stepper.truncate(1);
        stepper.push(3, 1, &acc).expect("push");
        let second = stepper.distribution().expect("complete");
        stepper.truncate(1);
        stepper.push(3, 2, &lpaa).expect("push");
        assert_eq!(stepper.distribution().expect("complete"), first);
        let config: BlockConfig = "3:0:accurate,3:1:accurate".parse().expect("parses");
        assert_eq!(
            second,
            error_distance_distribution(&config, &profile).expect("in range")
        );
    }

    #[test]
    fn stepper_rejects_invalid_pushes() {
        let profile = InputProfile::<f64>::uniform(4);
        let acc = StandardCell::Accurate.cell();
        let mut stepper = BlockDistanceStepper::new(profile, 1).expect("width ok");
        assert!(matches!(
            stepper.push(0, 0, &acc),
            Err(BlockError::ZeroWidthBlock { .. })
        ));
        assert!(matches!(
            stepper.push(2, 1, &acc),
            Err(BlockError::DepthOutOfRange { .. })
        ));
        stepper.push(2, 0, &acc).expect("push");
        assert!(matches!(
            stepper.push(2, 2, &acc),
            Err(BlockError::DepthExceedsStepper { .. })
        ));
        assert!(matches!(
            stepper.distribution(),
            Err(BlockError::Incomplete { .. })
        ));
        assert!(matches!(
            stepper.push(3, 0, &acc),
            Err(BlockError::WidthTooLarge { .. })
        ));
    }

    #[test]
    fn fully_accurate_config_is_a_point_mass_at_zero() {
        let config = BlockConfig::homogeneous(8, 8, 0, StandardCell::Accurate.cell()).unwrap();
        let profile = InputProfile::<Rational>::constant(8, Rational::from_ratio(1, 4));
        let dist = error_distance_distribution(&config, &profile).expect("in range");
        assert_eq!(dist.pmf, vec![(0, Rational::one())]);
        assert!(dist.error_rate().is_zero());
    }

    #[test]
    fn wide_accurate_config_runs_at_the_width_bound() {
        // Width 47 = MAX_BLOCKS_WIDTH: the accurate-cell support stays tiny
        // and every distance fits the i64 support keys.
        let config =
            BlockConfig::homogeneous(47, 8, 4, StandardCell::Accurate.cell()).expect("valid");
        let profile = InputProfile::<f64>::uniform(47);
        let dist = error_distance_distribution(&config, &profile).expect("in range");
        let total: f64 = dist.pmf.iter().map(|(_, p)| *p).sum();
        assert!((total - 1.0).abs() < 1e-9);
        assert!(dist.error_rate() > 0.0);
        // Deficits are sums of −2^{start_j} over mispredicted blocks.
        assert!(dist.pmf.iter().all(|&(d, _)| d <= 0));
        assert_eq!(
            dist.max_absolute_error(),
            (1u64 << 40) + (1 << 32) + (1 << 24) + (1 << 16) + (1 << 8)
        );
    }
}
