//! Design-space exploration over heterogeneous block-based adders.
//!
//! The search enumerates every way to tile the operand width with blocks
//! drawn from a [`BlockSearchSpace`] (allowed widths × prediction depths ×
//! cells), scores each configuration by an exact error-distance statistic
//! (mean |ED|, MSE, or error rate — the `sealpaa-blocks` analytical
//! engine), and keeps the best design under power/area/delay budgets or
//! the full Pareto frontier.
//!
//! # Prefix sharing
//!
//! The analytical ED recursion is a left-fold over bit positions, so two
//! configurations that agree on their leading blocks share the recursion's
//! state exactly. The search runs the crate's one prefix-sharing driver
//! over the tiling tree with a [`BlockDistanceStepper`]: each tree edge
//! pays one incremental `push` (positions no later block can reach), each
//! leaf one tail pass — instead of a full O(N) analysis per configuration.
//! The naive re-analyze-per-config route is kept as
//! [`best_block_design_reference`], the differential oracle and benchmark
//! baseline.
//!
//! # Determinism contract
//!
//! The leaf order is depth-first: block by block from the LSB, widths,
//! then prediction depths, then cells, each ascending.
//! [`enumerate_block_designs`] returns designs in it and
//! [`best_block_design`] breaks score ties by it, so results — every f64
//! bit — are identical for every thread count.

use std::fmt;

use sealpaa_blocks::{error_distance_distribution, BlockConfig, BlockDistanceStepper, BlockSpec};
use sealpaa_cells::{Cell, InputProfile};
use sealpaa_core::ErrorDistribution;

use crate::prefix::{self, PrefixSearch};
use crate::search::{pareto_filter, ExploreError, MAX_SEARCH};

/// The per-position choices the block search may combine.
#[derive(Debug, Clone)]
pub struct BlockSearchSpace {
    /// Allowed block result widths (deduplicated, ascending).
    widths: Vec<usize>,
    /// Allowed carry-prediction depths (deduplicated, ascending). A depth
    /// is only usable where it does not reach below bit 0, so block 0
    /// always takes depth 0 — the space must therefore include 0 for any
    /// design to exist.
    predictions: Vec<usize>,
    /// Allowed cells, all with power/area characteristics.
    cells: Vec<Cell>,
}

impl BlockSearchSpace {
    /// Builds a search space.
    ///
    /// # Errors
    ///
    /// * [`ExploreError::NoCandidates`] if any axis is empty or no width is
    ///   non-zero.
    /// * [`ExploreError::MissingCharacteristics`] if a cell cannot be
    ///   costed.
    pub fn new(
        widths: &[usize],
        predictions: &[usize],
        cells: &[Cell],
    ) -> Result<Self, ExploreError> {
        let mut widths: Vec<usize> = widths.iter().copied().filter(|&w| w > 0).collect();
        widths.sort_unstable();
        widths.dedup();
        let mut predictions = predictions.to_vec();
        predictions.sort_unstable();
        predictions.dedup();
        if widths.is_empty() || predictions.is_empty() || cells.is_empty() {
            return Err(ExploreError::NoCandidates);
        }
        for cell in cells {
            if cell.characteristics().is_none() {
                return Err(ExploreError::MissingCharacteristics {
                    cell: cell.name().to_owned(),
                });
            }
        }
        Ok(BlockSearchSpace {
            widths,
            predictions,
            cells: cells.to_vec(),
        })
    }

    /// Allowed widths (ascending).
    pub fn widths(&self) -> &[usize] {
        &self.widths
    }

    /// Allowed prediction depths (ascending).
    pub fn predictions(&self) -> &[usize] {
        &self.predictions
    }

    /// Allowed cells.
    pub fn cells(&self) -> &[Cell] {
        &self.cells
    }

    /// Number of prediction depths usable when `covered` bits are already
    /// tiled.
    fn predictions_at(&self, covered: usize) -> usize {
        self.predictions.partition_point(|&p| p <= covered)
    }

    /// Exact design count for `width` (no budget pruning), saturating.
    pub fn design_count(&self, width: usize) -> u128 {
        // ways[s] = completions of a prefix covering s bits.
        let mut ways = vec![0u128; width + 1];
        ways[width] = 1;
        for s in (0..width).rev() {
            let depths = self.predictions_at(s) as u128;
            let mut total = 0u128;
            for &w in &self.widths {
                if s + w <= width {
                    total = total.saturating_add(
                        ways[s + w]
                            .saturating_mul(depths)
                            .saturating_mul(self.cells.len() as u128),
                    );
                }
            }
            ways[s] = total;
        }
        ways[0]
    }
}

/// Budget a block design must respect. `None` means unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct BlockBudget {
    /// Maximum summed power (window bits × cell power, nW).
    pub max_power_nw: Option<f64>,
    /// Maximum summed area (window bits × cell area, GE).
    pub max_area_ge: Option<f64>,
    /// Maximum single-block window length — the ripple depth of the
    /// longest block, the standard delay proxy for block-based adders.
    pub max_window_len: Option<usize>,
}

impl BlockBudget {
    /// `true` if an evaluation fits.
    pub fn admits(&self, eval: &BlockEvaluation) -> bool {
        self.max_power_nw.is_none_or(|cap| eval.power_nw <= cap)
            && self.max_area_ge.is_none_or(|cap| eval.area_ge <= cap)
            && self
                .max_window_len
                .is_none_or(|cap| eval.max_window_len <= cap)
    }

    /// `true` if a block of `window_len` fits the delay cap and the costs
    /// folded through it keep the budget satisfiable. The pruning is sound:
    /// costs are non-negative and f64 addition of non-negative values is
    /// monotone.
    fn admits_block(&self, window_len: usize, power: f64, area: f64) -> bool {
        self.max_window_len.is_none_or(|cap| window_len <= cap)
            && self.max_power_nw.is_none_or(|cap| power <= cap)
            && self.max_area_ge.is_none_or(|cap| area <= cap)
    }
}

/// The statistic a best-design search minimizes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockObjective {
    /// `E[|D|]` — mean error distance.
    MeanAbsolute,
    /// `E[D²]` — mean squared error distance.
    MeanSquared,
    /// `P(D ≠ 0)` — error rate.
    ErrorRate,
}

impl BlockObjective {
    /// Reads the objective off an evaluation.
    pub fn of(self, eval: &BlockEvaluation) -> f64 {
        match self {
            BlockObjective::MeanAbsolute => eval.mean_absolute,
            BlockObjective::MeanSquared => eval.mean_squared,
            BlockObjective::ErrorRate => eval.error_rate,
        }
    }
}

/// The score of one block configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockEvaluation {
    /// `P(D ≠ 0)` under the profile.
    pub error_rate: f64,
    /// `E[|D|]`.
    pub mean_absolute: f64,
    /// `E[D²]`.
    pub mean_squared: f64,
    /// Summed power: window bits × cell power (nW).
    pub power_nw: f64,
    /// Summed area: window bits × cell area (GE).
    pub area_ge: f64,
    /// Longest block window (delay proxy).
    pub max_window_len: usize,
}

impl BlockEvaluation {
    fn from_distribution(
        dist: &ErrorDistribution<f64>,
        power_nw: f64,
        area_ge: f64,
        max_window_len: usize,
    ) -> Self {
        BlockEvaluation {
            error_rate: dist.error_rate(),
            mean_absolute: dist.mean_absolute(),
            mean_squared: dist.mean_squared(),
            power_nw,
            area_ge,
            max_window_len,
        }
    }

    /// Pareto dominance over (mean |ED|, power, area): at least as good
    /// everywhere, strictly better somewhere.
    pub fn dominates(&self, other: &BlockEvaluation) -> bool {
        let no_worse = self.mean_absolute <= other.mean_absolute
            && self.power_nw <= other.power_nw
            && self.area_ge <= other.area_ge;
        let better = self.mean_absolute < other.mean_absolute
            || self.power_nw < other.power_nw
            || self.area_ge < other.area_ge;
        no_worse && better
    }
}

/// A scored block design.
#[derive(Debug, Clone, PartialEq)]
pub struct BlockDesign {
    /// The configuration.
    pub config: BlockConfig,
    /// Its score under the profile it was searched for.
    pub evaluation: BlockEvaluation,
}

impl fmt::Display for BlockDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → P(err)={:.6}, E|D|={:.4}, {:.0} nW, {:.2} GE",
            self.config,
            self.evaluation.error_rate,
            self.evaluation.mean_absolute,
            self.evaluation.power_nw,
            self.evaluation.area_ge
        )
    }
}

/// Scores one block configuration with a fresh analytical pass — the same
/// statistics, fold orders, and therefore f64 bits as the prefix-sharing
/// search produce for that configuration.
///
/// # Errors
///
/// * [`ExploreError::MissingCharacteristics`] if a cell cannot be costed.
/// * [`ExploreError::Blocks`] if the analytical engine rejects the
///   configuration (width mismatch, support overflow).
pub fn evaluate_block_config(
    config: &BlockConfig,
    profile: &InputProfile<f64>,
) -> Result<BlockEvaluation, ExploreError> {
    let mut power = 0.0f64;
    let mut area = 0.0f64;
    let mut max_window = 0usize;
    for block in config.blocks() {
        let ch =
            block
                .cell
                .characteristics()
                .ok_or_else(|| ExploreError::MissingCharacteristics {
                    cell: block.cell.name().to_owned(),
                })?;
        let wl = block.window_len();
        power += ch.power_nw * wl as f64;
        area += ch.area_ge * wl as f64;
        max_window = max_window.max(wl);
    }
    let dist = error_distance_distribution(config, profile)
        .map_err(|source| ExploreError::Blocks { source })?;
    Ok(BlockEvaluation::from_distribution(
        &dist, power, area, max_window,
    ))
}

/// One block of a tiling path: its shape, its cell index, and the costs
/// folded up to and including it.
struct Step {
    width: usize,
    prediction: usize,
    cell: usize,
    power: f64,
    area: f64,
    max_window: usize,
}

/// A worker of the tiling search.
struct TilingWorker {
    stepper: BlockDistanceStepper<f64>,
    path: Vec<Step>,
    /// The root choice the path starts with.
    first: usize,
    /// Complete tilings this worker has reached, the current one included.
    leaves: u64,
}

/// The block-tiling search: one block per step, a [`BlockDistanceStepper`]
/// plus window costs and the delay cap. Leaves are in depth-first order:
/// `(first root choice, tilings reached so far)`.
struct Tilings<'s> {
    space: &'s BlockSearchSpace,
    profile: &'s InputProfile<f64>,
    budget: &'s BlockBudget,
    objective: BlockObjective,
    powers: Vec<f64>,
    areas: Vec<f64>,
}

impl<'s> Tilings<'s> {
    fn new(
        space: &'s BlockSearchSpace,
        profile: &'s InputProfile<f64>,
        budget: &'s BlockBudget,
        objective: BlockObjective,
    ) -> Self {
        let (powers, areas) = space
            .cells
            .iter()
            .map(|c| {
                let ch = c.characteristics().expect("validated by the space");
                (ch.power_nw, ch.area_ge)
            })
            .unzip();
        Tilings {
            space,
            profile,
            budget,
            objective,
            powers,
            areas,
        }
    }
}

impl PrefixSearch for Tilings<'_> {
    type Worker = TilingWorker;
    type Score = BlockEvaluation;
    type Key = (f64, f64, f64, f64);
    type Order = (usize, u64);
    type Design = BlockDesign;

    fn worker(&self) -> Result<TilingWorker, ExploreError> {
        let max_depth = *self.space.predictions.last().expect("non-empty");
        let stepper = BlockDistanceStepper::new(self.profile.clone(), max_depth)
            .map_err(|source| ExploreError::Blocks { source })?;
        Ok(TilingWorker {
            stepper,
            path: Vec::new(),
            first: 0,
            leaves: 0,
        })
    }

    /// Widths that still fit × depths that stay above bit 0 × cells, in
    /// that nesting (each axis ascending).
    fn choices(&self, worker: &TilingWorker) -> usize {
        let covered = worker.stepper.covered();
        let widths = self
            .space
            .widths
            .partition_point(|&w| covered + w <= self.profile.width());
        widths * self.space.predictions_at(covered) * self.space.cells.len()
    }

    fn push(&self, worker: &mut TilingWorker, choice: usize) -> Result<bool, ExploreError> {
        let covered = worker.stepper.covered();
        let cells = self.space.cells.len();
        let depths = self.space.predictions_at(covered);
        let (shape, cell) = (choice / cells, choice % cells);
        let width = self.space.widths[shape / depths];
        let prediction = self.space.predictions[shape % depths];
        let window = width + prediction;
        // -0.0 is the identity of f64 addition: the first block's costs
        // are kept bit for bit.
        let (power, area, max_window) = worker
            .path
            .last()
            .map_or((-0.0, -0.0, 0), |s| (s.power, s.area, s.max_window));
        let power = power + self.powers[cell] * window as f64;
        let area = area + self.areas[cell] * window as f64;
        if !self.budget.admits_block(window, power, area) {
            return Ok(false);
        }
        worker
            .stepper
            .push(width, prediction, &self.space.cells[cell])
            .map_err(|source| ExploreError::Blocks { source })?;
        if worker.path.is_empty() {
            worker.first = choice;
        }
        worker.path.push(Step {
            width,
            prediction,
            cell,
            power,
            area,
            max_window: max_window.max(window),
        });
        worker.leaves += u64::from(self.is_leaf(worker));
        Ok(true)
    }

    fn pop(&self, worker: &mut TilingWorker) {
        worker.path.pop();
        worker.stepper.truncate(worker.path.len());
    }

    fn is_leaf(&self, worker: &TilingWorker) -> bool {
        worker.stepper.covered() == self.profile.width()
    }

    fn score(&self, worker: &TilingWorker) -> Result<Option<BlockEvaluation>, ExploreError> {
        let dist = worker
            .stepper
            .distribution()
            .map_err(|source| ExploreError::Blocks { source })?;
        let last = worker.path.last().expect("a leaf has blocks");
        let evaluation =
            BlockEvaluation::from_distribution(&dist, last.power, last.area, last.max_window);
        Ok(self.budget.admits(&evaluation).then_some(evaluation))
    }

    fn key(&self, e: &BlockEvaluation) -> Self::Key {
        (self.objective.of(e), e.error_rate, e.power_nw, e.area_ge)
    }

    fn order(&self, worker: &TilingWorker) -> (usize, u64) {
        (worker.first, worker.leaves)
    }

    fn design(&self, worker: &TilingWorker, evaluation: BlockEvaluation) -> BlockDesign {
        let blocks = worker
            .path
            .iter()
            .map(|s| BlockSpec::new(s.width, s.prediction, self.space.cells[s.cell].clone()))
            .collect();
        BlockDesign {
            config: BlockConfig::new(blocks).expect("the search builds valid tilings"),
            evaluation,
        }
    }
}

/// Checks the space size against [`MAX_SEARCH`].
fn check_size(space: &BlockSearchSpace, width: usize) -> Result<(), ExploreError> {
    let designs = space.design_count(width);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    Ok(())
}

/// Enumerates and scores every in-budget tiling of `profile.width()` with
/// `threads` workers, prefix-sharing the analytical recursion across
/// configurations. Results are in deterministic leaf order (first-block
/// choice, then DFS order within its subtree) and are byte-identical for
/// every thread count.
///
/// # Errors
///
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_SEARCH`] designs.
/// * [`ExploreError::Blocks`] if the analytical engine fails (support
///   overflow).
pub fn enumerate_block_designs(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    threads: usize,
) -> Result<Vec<BlockDesign>, ExploreError> {
    check_size(space, profile.width())?;
    // Enumeration keeps every leaf, so the objective is never read.
    let tilings = Tilings::new(space, profile, budget, BlockObjective::MeanAbsolute);
    prefix::all(&tilings, threads)
}

/// The provably best in-budget design under `objective`, by exhaustive
/// prefix-sharing search over `threads` workers. Returns `None` if no
/// tiling fits the budget (or none exists).
///
/// Ties on the objective are broken by lower error rate, power, area, then
/// earliest deterministic leaf position — identical for every thread count.
///
/// # Errors
///
/// Same conditions as [`enumerate_block_designs`].
pub fn best_block_design(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    objective: BlockObjective,
    threads: usize,
) -> Result<Option<BlockDesign>, ExploreError> {
    check_size(space, profile.width())?;
    prefix::best(&Tilings::new(space, profile, budget, objective), threads)
}

/// The naive reference search: enumerates the same tilings in the same
/// deterministic order but re-runs the full analytical pass
/// ([`evaluate_block_config`]) from scratch for every configuration. Kept
/// as the differential-test oracle and the benchmark baseline for the
/// prefix-sharing engine; do not use it for real workloads.
///
/// # Errors
///
/// Same conditions as [`best_block_design`].
pub fn best_block_design_reference(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    objective: BlockObjective,
) -> Result<Option<BlockDesign>, ExploreError> {
    check_size(space, profile.width())?;
    let mut best = None;
    reference_walk(
        space,
        profile,
        budget,
        objective,
        &mut Vec::new(),
        &mut best,
    )?;
    Ok(best)
}

/// Recursive helper of [`best_block_design_reference`]: same tree, same
/// order, same admissibility checks, but the costs are re-summed and each
/// leaf is scored with a fresh full pass. Leaves come in order, so a later
/// leaf replaces the best only if strictly better.
fn reference_walk(
    space: &BlockSearchSpace,
    profile: &InputProfile<f64>,
    budget: &BlockBudget,
    objective: BlockObjective,
    stack: &mut Vec<BlockSpec>,
    best: &mut Option<BlockDesign>,
) -> Result<(), ExploreError> {
    let key = |e: &BlockEvaluation| (objective.of(e), e.error_rate, e.power_nw, e.area_ge);
    let covered: usize = stack.iter().map(|s| s.width).sum();
    for &w in &space.widths {
        if covered + w > profile.width() {
            break;
        }
        for &p in &space.predictions {
            if p > covered {
                break;
            }
            for cell in &space.cells {
                let next = BlockSpec::new(w, p, cell.clone());
                let (mut power, mut area, mut max_window) = (0.0f64, 0.0f64, 0usize);
                for spec in stack.iter().chain([&next]) {
                    let c = spec.cell.characteristics().expect("validated by the space");
                    power += c.power_nw * spec.window_len() as f64;
                    area += c.area_ge * spec.window_len() as f64;
                    max_window = max_window.max(spec.window_len());
                }
                if !budget.admits_block(next.window_len(), power, area) {
                    continue;
                }
                stack.push(next);
                if covered + w == profile.width() {
                    let config =
                        BlockConfig::new(stack.clone()).expect("walk builds valid configs");
                    let evaluation = evaluate_block_config(&config, profile)?;
                    debug_assert_eq!(evaluation.max_window_len, max_window);
                    if budget.admits(&evaluation)
                        && best
                            .as_ref()
                            .is_none_or(|b| key(&evaluation) < key(&b.evaluation))
                    {
                        *best = Some(BlockDesign { config, evaluation });
                    }
                } else {
                    reference_walk(space, profile, budget, objective, stack, best)?;
                }
                stack.pop();
            }
        }
    }
    Ok(())
}

/// Filters block designs down to their Pareto frontier over
/// (mean |ED|, power, area), sorted by ascending mean |ED|.
pub fn block_pareto_front(designs: Vec<BlockDesign>) -> Vec<BlockDesign> {
    pareto_filter(
        designs,
        |d| (d.evaluation.mean_absolute, d.evaluation.power_nw),
        |a, b| a.evaluation.dominates(&b.evaluation),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::search::accurate_cell_with_proxy_costs;
    use sealpaa_cells::StandardCell;

    fn small_space() -> BlockSearchSpace {
        BlockSearchSpace::new(
            &[2, 3],
            &[0, 1, 2],
            &[accurate_cell_with_proxy_costs(), StandardCell::Lpaa1.cell()],
        )
        .expect("valid space")
    }

    #[test]
    fn space_validates_inputs() {
        assert!(matches!(
            BlockSearchSpace::new(&[], &[0], &[StandardCell::Lpaa1.cell()]),
            Err(ExploreError::NoCandidates)
        ));
        assert!(matches!(
            BlockSearchSpace::new(&[2], &[0], &[StandardCell::Accurate.cell()]),
            Err(ExploreError::MissingCharacteristics { .. })
        ));
    }

    #[test]
    fn design_count_matches_enumeration() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let designs =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small");
        assert_eq!(space.design_count(6), designs.len() as u128);
    }

    #[test]
    fn enumeration_is_thread_count_invariant() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.3);
        let one =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small");
        for threads in [2, 3, 8] {
            let many = enumerate_block_designs(&space, &profile, &BlockBudget::default(), threads)
                .expect("small");
            assert_eq!(one, many, "threads={threads}");
        }
    }

    #[test]
    fn best_is_no_worse_than_every_enumerated_design() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let budget = BlockBudget {
            max_power_nw: None,
            max_area_ge: Some(60.0),
            max_window_len: None,
        };
        let best = best_block_design(&space, &profile, &budget, BlockObjective::MeanAbsolute, 2)
            .expect("small")
            .expect("feasible");
        for d in enumerate_block_designs(&space, &profile, &budget, 2).expect("small") {
            assert!(best.evaluation.mean_absolute <= d.evaluation.mean_absolute + 1e-15);
        }
    }

    #[test]
    fn delay_cap_bounds_every_window() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(6);
        let budget = BlockBudget {
            max_power_nw: None,
            max_area_ge: None,
            max_window_len: Some(3),
        };
        let designs = enumerate_block_designs(&space, &profile, &budget, 1).expect("small");
        assert!(!designs.is_empty());
        for d in &designs {
            assert!(d.evaluation.max_window_len <= 3);
            for (j, b) in d.config.blocks().iter().enumerate() {
                assert!(d.config.window(j).len() <= 3, "{} block {j}", d.config);
                assert_eq!(b.window_len(), d.config.window(j).len());
            }
        }
    }

    #[test]
    fn pareto_front_is_mutually_non_dominating() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.2);
        let designs =
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 2).expect("small");
        let front = block_pareto_front(designs.clone());
        assert!(!front.is_empty());
        assert!(front.len() < designs.len());
        for a in &front {
            for b in &front {
                assert!(!a.evaluation.dominates(&b.evaluation) || a == b);
            }
        }
        for d in &designs {
            if !front.iter().any(|f| f.config == d.config) {
                assert!(
                    front.iter().any(|f| f.evaluation.dominates(&d.evaluation)),
                    "{d} should be dominated"
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_yields_none() {
        let space = small_space();
        let profile = InputProfile::<f64>::uniform(4);
        let budget = BlockBudget {
            max_power_nw: Some(-1.0),
            max_area_ge: None,
            max_window_len: None,
        };
        assert_eq!(
            best_block_design(&space, &profile, &budget, BlockObjective::ErrorRate, 1)
                .expect("small"),
            None
        );
    }

    #[test]
    fn space_without_depth_zero_has_no_designs() {
        let space = BlockSearchSpace::new(&[2], &[1], &[accurate_cell_with_proxy_costs()])
            .expect("constructible");
        let profile = InputProfile::<f64>::uniform(4);
        assert_eq!(space.design_count(4), 0);
        assert!(
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1)
                .expect("small")
                .is_empty()
        );
    }

    #[test]
    fn evaluate_block_config_matches_search_scores() {
        let space = small_space();
        let profile = InputProfile::constant(6, 0.35);
        for d in
            enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small")
        {
            let fresh = evaluate_block_config(&d.config, &profile).expect("valid");
            assert_eq!(fresh, d.evaluation, "{}", d.config);
        }
    }
}
