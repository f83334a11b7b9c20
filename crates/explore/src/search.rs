//! Hybrid-adder search algorithms.
//!
//! # Prefix-sharing design-space exploration
//!
//! The M/K/L recursion is a left-fold over [`CarryState`], so two designs
//! that agree on their first *i* stages share the analysis state after
//! stage *i* exactly. The exhaustive searches below therefore run the
//! crate's one prefix-sharing driver over the per-stage cell tree with a
//! [`PrefixStepper`]: one O(1) stage step per tree edge
//! (`Σ C^i ≈ C^N·C/(C−1)` steps total) instead of a full O(N) analysis per
//! leaf. Power and area accumulate along the same tree path with the same
//! left-fold f64 operation order as [`AdderChain::total_power_nw`], so every
//! reported [`Evaluation`] is bit-identical to the naive
//! re-analyze-per-design route (pinned by `exhaustive_best_reference` in
//! the differential tests).
//!
//! The leaf order is the odometer order (`assignment[0]` cycles fastest):
//! [`exhaustive_designs`] returns designs in it, and [`exhaustive_best_with`]
//! breaks score ties by it, so results are identical for every thread
//! count.
//!
//! # Bounded best-design search
//!
//! `P(Succ)` is the probability that no stage has deviated yet, so it can
//! only fall as stages are appended, and a prefix's error probability is a
//! lower bound on the error probability of every completion. In f64 the
//! recursion rounds, so [`exhaustive_best_with`] bounds a prefix by its
//! error probability minus [`rounding_margin`] of the stages still to come
//! (proved in DESIGN.md §7), and skips every subtree whose bound is
//! strictly above the best error probability found so far. Winners and
//! every f64 bit stay those of the full enumeration.
//!
//! [`CarryState`]: sealpaa_core::CarryState

use std::fmt;

use sealpaa_cells::{AdderChain, Cell, CellCharacteristics, InputProfile, StandardCell};
use sealpaa_core::{analyze, MklMatrices, PrefixStepper};

use crate::prefix::{self, PrefixSearch};

/// Errors produced by the exploration functions.
#[derive(Debug, Clone, PartialEq)]
pub enum ExploreError {
    /// A candidate cell has no power/area characteristics, so budgeted
    /// search cannot score it.
    MissingCharacteristics {
        /// Name of the offending cell.
        cell: String,
    },
    /// A candidate cell's power or area is negative or not finite. Budget
    /// pruning relies on costs that only grow along a path, so such a cell
    /// is refused rather than searched.
    InvalidCharacteristics {
        /// Name of the offending cell.
        cell: String,
        /// Its power, in nW.
        power_nw: f64,
        /// Its area, in GE.
        area_ge: f64,
    },
    /// No candidate cells were supplied.
    NoCandidates,
    /// The exhaustive enumeration would exceed the configured cap.
    SpaceTooLarge {
        /// Number of designs the request implies.
        designs: u128,
        /// Maximum the enumerator accepts.
        max: u128,
    },
    /// Bit-true verification of a design failed (e.g. the width exceeds
    /// what exhaustive simulation will enumerate).
    Simulation {
        /// The underlying simulator error.
        source: sealpaa_sim::SimError,
    },
    /// The block-based analytical engine rejected a configuration (width
    /// mismatch, stepper misuse, or error-distance support overflow).
    Blocks {
        /// The underlying block-engine error.
        source: sealpaa_blocks::BlockError,
    },
    /// The datapath propagation engine rejected a graph or its inputs
    /// (name mismatch, errorful gate control, …).
    Propagate {
        /// The underlying propagation error.
        source: sealpaa_propagate::PropagateError,
    },
}

impl fmt::Display for ExploreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExploreError::MissingCharacteristics { cell } => {
                write!(f, "cell {cell:?} has no power/area characteristics")
            }
            ExploreError::InvalidCharacteristics {
                cell,
                power_nw,
                area_ge,
            } => write!(
                f,
                "cell {cell:?} costs {power_nw} nW and {area_ge} GE; \
                 power and area must be finite and non-negative"
            ),
            ExploreError::NoCandidates => f.write_str("candidate cell list is empty"),
            ExploreError::SpaceTooLarge { designs, max } => {
                write!(
                    f,
                    "design space of {designs} points exceeds the cap of {max}"
                )
            }
            ExploreError::Simulation { source } => {
                write!(f, "bit-true verification failed: {source}")
            }
            ExploreError::Blocks { source } => {
                write!(f, "block analysis failed: {source}")
            }
            ExploreError::Propagate { source } => {
                write!(f, "datapath propagation failed: {source}")
            }
        }
    }
}

impl std::error::Error for ExploreError {}

/// Resource budget a design must respect. `None` means unconstrained.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Budget {
    /// Maximum total power in nanowatts.
    pub max_power_nw: Option<f64>,
    /// Maximum total area in gate equivalents.
    pub max_area_ge: Option<f64>,
}

impl Budget {
    /// `true` if an evaluation fits within the budget.
    pub fn admits(&self, eval: &Evaluation) -> bool {
        self.max_power_nw.is_none_or(|cap| eval.power_nw <= cap)
            && self.max_area_ge.is_none_or(|cap| eval.area_ge <= cap)
    }
}

/// The score of one concrete chain.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Evaluation {
    /// Analytical error probability (the proposed method).
    pub error_probability: f64,
    /// Summed cell power (paper Table 2 units: nW).
    pub power_nw: f64,
    /// Summed cell area (gate equivalents).
    pub area_ge: f64,
}

impl Evaluation {
    /// `true` if `self` is at least as good as `other` on every axis and
    /// strictly better on at least one (Pareto dominance).
    pub fn dominates(&self, other: &Evaluation) -> bool {
        let no_worse = self.error_probability <= other.error_probability
            && self.power_nw <= other.power_nw
            && self.area_ge <= other.area_ge;
        let better = self.error_probability < other.error_probability
            || self.power_nw < other.power_nw
            || self.area_ge < other.area_ge;
        no_worse && better
    }
}

/// A scored hybrid design.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridDesign {
    /// The chain itself (stage cells, LSB first).
    pub chain: AdderChain,
    /// Its score under the profile it was searched for.
    pub evaluation: Evaluation,
}

impl fmt::Display for HybridDesign {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} → P(err)={:.6}, {:.0} nW, {:.2} GE",
            self.chain,
            self.evaluation.error_probability,
            self.evaluation.power_nw,
            self.evaluation.area_ge
        )
    }
}

/// An accurate full adder annotated with *estimated* power/area so it can
/// participate in budgeted search (the paper's Table 2 characterises only
/// LPAA 1–5).
///
/// The estimate extrapolates Table 2: LPAA 1 is the least-simplified
/// approximate mirror adder at 771 nW / 4.23 GE; a conventional (unsimplified)
/// mirror adder has roughly 1.4× its transistor count, giving ≈ 1080 nW and
/// ≈ 5.9 GE. The exact figures only shift where budget lines fall — every
/// qualitative conclusion in the examples is insensitive to them.
pub fn accurate_cell_with_proxy_costs() -> Cell {
    Cell::custom_with_characteristics(
        "AccuFA (est.)",
        StandardCell::Accurate.truth_table(),
        CellCharacteristics::new(1080.0, 5.9),
    )
}

/// A cell's power and area, if it has them and they are finite and
/// non-negative — what every search's budget pruning assumes.
pub(crate) fn costs(cell: &Cell) -> Result<CellCharacteristics, ExploreError> {
    let ch = cell
        .characteristics()
        .ok_or_else(|| ExploreError::MissingCharacteristics {
            cell: cell.name().to_owned(),
        })?;
    let valid = |x: f64| x.is_finite() && x >= 0.0;
    if !valid(ch.power_nw) || !valid(ch.area_ge) {
        return Err(ExploreError::InvalidCharacteristics {
            cell: cell.name().to_owned(),
            power_nw: ch.power_nw,
            area_ge: ch.area_ge,
        });
    }
    Ok(ch)
}

/// Scores one chain under a profile: analytical error probability plus
/// summed power/area.
///
/// # Errors
///
/// * [`ExploreError::MissingCharacteristics`] if any stage lacks power/area
///   data.
/// * [`ExploreError::InvalidCharacteristics`] if a stage's power or area is
///   negative or not finite.
///
/// # Panics
///
/// Panics if `profile.width() != chain.width()` (the chain is constructed by
/// this crate's own search entry points, which guarantee matching widths).
pub fn evaluate(
    chain: &AdderChain,
    profile: &InputProfile<f64>,
) -> Result<Evaluation, ExploreError> {
    for cell in chain {
        costs(cell)?;
    }
    let analysis = analyze(chain, profile).expect("widths are validated by callers");
    Ok(Evaluation {
        error_probability: analysis.error_probability(),
        power_nw: chain.total_power_nw().expect("checked above"),
        area_ge: chain.total_area_ge().expect("checked above"),
    })
}

/// Hard cap on the exhaustive enumeration size (designs are materialized).
pub const MAX_ENUMERATION: u128 = 2_000_000;

/// Hard cap on the non-materializing best-design search, which keeps only
/// the incumbent and therefore tolerates much larger spaces (N=8 over all
/// 8 cells is 16.7M designs).
pub const MAX_SEARCH: u128 = 100_000_000;

/// Checks a `candidates^width` space against `max`.
fn check_space(candidates: &[Cell], width: usize, max: u128) -> Result<(), ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let designs = (candidates.len() as u128).saturating_pow(width as u32);
    if designs > max {
        return Err(ExploreError::SpaceTooLarge { designs, max });
    }
    Ok(())
}

/// The width-0 design: an empty chain, scored by [`evaluate`].
fn empty_design(profile: &InputProfile<f64>) -> Result<HybridDesign, ExploreError> {
    let chain = AdderChain::from_stages(Vec::new());
    let evaluation = evaluate(&chain, profile)?;
    Ok(HybridDesign { chain, evaluation })
}

/// A path of candidate-cell indices, one per decision, with power and area
/// folded along it in decision order — the same left fold as
/// [`AdderChain::total_power_nw`]. The hybrid and datapath searches share it.
pub(crate) struct Assignment(Vec<(usize, f64, f64)>);

impl Assignment {
    pub(crate) fn with_capacity(decisions: usize) -> Self {
        Assignment(Vec::with_capacity(decisions))
    }

    pub(crate) fn len(&self) -> usize {
        self.0.len()
    }

    /// Folded `(power, area)`. At the root this is `-0.0`, the identity of
    /// f64 addition, so the first step's costs are kept bit for bit.
    pub(crate) fn costs(&self) -> (f64, f64) {
        self.0.last().map_or((-0.0, -0.0), |&(_, p, a)| (p, a))
    }

    /// Appends `cell`, costing `power` and `area` more, unless that puts
    /// the prefix over a cap. The pruning is sound: [`costs`] admits only
    /// finite non-negative costs, and f64 addition of non-negative values is
    /// monotone, so a prefix over a cap has no completion under it.
    pub(crate) fn push(&mut self, budget: &Budget, cell: usize, power: f64, area: f64) -> bool {
        let (p, a) = self.costs();
        let (p, a) = (p + power, a + area);
        if budget.max_power_nw.is_some_and(|cap| p > cap)
            || budget.max_area_ge.is_some_and(|cap| a > cap)
        {
            return false;
        }
        self.0.push((cell, p, a));
        true
    }

    pub(crate) fn pop(&mut self) {
        self.0.pop();
    }

    /// The odometer index over `radix` candidates: the first decision is
    /// the fastest-cycling digit.
    pub(crate) fn odometer(&self, radix: usize) -> u128 {
        self.0
            .iter()
            .rev()
            .fold(0, |index, &(cell, ..)| index * radix as u128 + cell as u128)
    }

    pub(crate) fn cells(&self, candidates: &[Cell]) -> Vec<Cell> {
        self.0
            .iter()
            .map(|&(cell, ..)| candidates[cell].clone())
            .collect()
    }
}

/// The hybrid-chain search: one candidate cell per stage, a
/// [`PrefixStepper`] plus per-cell power/area derived once. Leaves are
/// ordered by odometer index.
struct Hybrid<'a> {
    candidates: &'a [Cell],
    profile: &'a InputProfile<f64>,
    budget: Budget,
    mkls: Vec<MklMatrices>,
    powers: Vec<f64>,
    areas: Vec<f64>,
}

impl<'a> Hybrid<'a> {
    /// Validates every candidate up front (the search scores designs
    /// without materializing chains, so the per-chain [`costs`] check in
    /// [`evaluate`] never runs). The first candidate with missing or invalid
    /// characteristics is reported — the same cell the odometer enumeration
    /// would have tripped over first.
    fn new(
        candidates: &'a [Cell],
        profile: &'a InputProfile<f64>,
        budget: &Budget,
    ) -> Result<Self, ExploreError> {
        let mut mkls = Vec::with_capacity(candidates.len());
        let mut powers = Vec::with_capacity(candidates.len());
        let mut areas = Vec::with_capacity(candidates.len());
        for cell in candidates {
            let ch = costs(cell)?;
            mkls.push(MklMatrices::from_truth_table(cell.truth_table()));
            powers.push(ch.power_nw);
            areas.push(ch.area_ge);
        }
        Ok(Hybrid {
            candidates,
            profile,
            budget: *budget,
            mkls,
            powers,
            areas,
        })
    }

    fn chain_of(&self, assignment: &[usize]) -> AdderChain {
        AdderChain::from_stages(
            assignment
                .iter()
                .map(|&c| self.candidates[c].clone())
                .collect(),
        )
    }
}

impl<'a> PrefixSearch for Hybrid<'a> {
    type Worker = (PrefixStepper<'a, f64>, Assignment);
    type Score = Evaluation;
    type Key = (f64, f64, f64);
    type Order = u128;
    type Design = HybridDesign;

    fn worker(&self) -> Result<Self::Worker, ExploreError> {
        let path = Assignment::with_capacity(self.profile.width());
        Ok((PrefixStepper::new(self.profile), path))
    }

    fn choices(&self, _: &Self::Worker) -> usize {
        self.candidates.len()
    }

    fn push(&self, (stepper, path): &mut Self::Worker, cell: usize) -> Result<bool, ExploreError> {
        let pushed = path.push(&self.budget, cell, self.powers[cell], self.areas[cell]);
        if pushed {
            stepper.push(&self.mkls[cell]);
        }
        Ok(pushed)
    }

    fn pop(&self, (stepper, path): &mut Self::Worker) {
        path.pop();
        stepper.truncate(path.len());
    }

    fn is_leaf(&self, (_, path): &Self::Worker) -> bool {
        path.len() == self.profile.width()
    }

    fn score(&self, (stepper, path): &Self::Worker) -> Result<Option<Evaluation>, ExploreError> {
        let (power_nw, area_ge) = path.costs();
        let evaluation = Evaluation {
            error_probability: stepper.error_probability(),
            power_nw,
            area_ge,
        };
        Ok(self.budget.admits(&evaluation).then_some(evaluation))
    }

    fn key(&self, e: &Evaluation) -> Self::Key {
        (e.error_probability, e.power_nw, e.area_ge)
    }

    fn order(&self, (_, path): &Self::Worker) -> u128 {
        path.odometer(self.candidates.len())
    }

    fn design(&self, (_, path): &Self::Worker, evaluation: Evaluation) -> HybridDesign {
        HybridDesign {
            chain: AdderChain::from_stages(path.cells(self.candidates)),
            evaluation,
        }
    }

    fn bound(&self, (stepper, path): &Self::Worker) -> Option<f64> {
        let stages = self.profile.width() - path.len();
        Some(stepper.error_probability() - rounding_margin(stages))
    }

    fn lead(&self, &(error_probability, ..): &Self::Key) -> Option<f64> {
        Some(error_probability)
    }
}

/// How far the computed error probability of a chain can fall below that
/// of its prefix over `stages` more stages: `(22·stages + 1)·u`, with `u`
/// the f64 unit roundoff. The proof (DESIGN.md §7) shows each stage step
/// raises the computed `P(Succ)` by a factor of at most `(1 + u)^21`, plus
/// an underflow term, and that the two complements `1 − P(Succ)` add at
/// most `u`. It holds for chains of up to 2^40 stages. The product is
/// exact in f64.
pub(crate) fn rounding_margin(stages: usize) -> f64 {
    (22.0 * stages as f64 + 1.0) * (f64::EPSILON / 2.0)
}

/// Enumerates and scores every `candidates^width` design (small spaces
/// only) with `threads` workers, prefix-sharing the analysis across designs.
///
/// Results are in the same order as [`enumerate_designs`] (stage-0 cell
/// cycling fastest) and are byte-identical for every thread count.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::InvalidCharacteristics`] if a candidate's power or
///   area is negative or not finite.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_ENUMERATION`] designs.
pub fn exhaustive_designs(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    threads: usize,
) -> Result<Vec<HybridDesign>, ExploreError> {
    check_space(candidates, profile.width(), MAX_ENUMERATION)?;
    if profile.width() == 0 {
        return Ok(vec![empty_design(profile)?]);
    }
    prefix::all(
        &Hybrid::new(candidates, profile, &Budget::default())?,
        threads,
    )
}

/// Enumerates and scores every `candidates^width` design (small spaces
/// only), single-threaded. See [`exhaustive_designs`] for the parallel
/// variant; both return identical results.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::InvalidCharacteristics`] if a candidate's power or
///   area is negative or not finite.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_ENUMERATION`] designs.
pub fn enumerate_designs(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
) -> Result<Vec<HybridDesign>, ExploreError> {
    exhaustive_designs(candidates, profile, 1)
}

/// The provably best design under a budget, by prefix-sharing
/// branch-and-bound search over `threads` workers. Returns `None` if no
/// design fits the budget.
///
/// The search skips every prefix whose error probability, less a proven
/// f64 rounding margin, is strictly above the best error probability any
/// worker has found: no completion of it can win or tie. The result is
/// therefore the exhaustive minimum, bit for bit. Ties on error
/// probability are broken by lower power, then lower area, then earliest
/// odometer position — so the winner is identical for every thread count.
/// Designs are never materialized (only the incumbent is kept), which is
/// why the cap is [`MAX_SEARCH`] rather than [`MAX_ENUMERATION`]. The cap
/// counts designs, not visited nodes: how many nodes a search visits
/// depends on thread timing, and the answer must not.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::InvalidCharacteristics`] if a candidate's power or
///   area is negative or not finite.
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_SEARCH`] designs.
pub fn exhaustive_best_with(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
    threads: usize,
) -> Result<Option<HybridDesign>, ExploreError> {
    check_space(candidates, profile.width(), MAX_SEARCH)?;
    if profile.width() == 0 {
        let design = empty_design(profile)?;
        return Ok(budget.admits(&design.evaluation).then_some(design));
    }
    prefix::best(&Hybrid::new(candidates, profile, budget)?, threads)
}

/// The provably best design under a budget, single-threaded. See
/// [`exhaustive_best_with`]; both return identical results.
///
/// Ties on error probability are broken by lower power, then lower area.
///
/// # Errors
///
/// Same conditions as [`exhaustive_best_with`].
pub fn exhaustive_best(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    exhaustive_best_with(candidates, profile, budget, 1)
}

/// The pre-stepper reference search: a fresh odometer enumeration with one
/// full [`evaluate`] (complete O(N) analysis) per design. Kept as the
/// differential-test oracle and the benchmark baseline for the
/// prefix-sharing engine; do not use it for real workloads.
///
/// # Errors
///
/// Same conditions as [`exhaustive_best_with`].
pub fn exhaustive_best_reference(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    let designs = (candidates.len() as u128).saturating_pow(width as u32);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    let mut best: Option<HybridDesign> = None;
    let mut assignment = vec![0usize; width];
    loop {
        let chain =
            AdderChain::from_stages(assignment.iter().map(|&c| candidates[c].clone()).collect());
        let evaluation = evaluate(&chain, profile)?;
        if budget.admits(&evaluation) {
            let better = match &best {
                None => true,
                Some(b) => {
                    let (e, p, a) = (
                        evaluation.error_probability,
                        evaluation.power_nw,
                        evaluation.area_ge,
                    );
                    let (be, bp, ba) = (
                        b.evaluation.error_probability,
                        b.evaluation.power_nw,
                        b.evaluation.area_ge,
                    );
                    (e, p, a) < (be, bp, ba)
                }
            };
            if better {
                best = Some(HybridDesign { chain, evaluation });
            }
        }
        // Odometer increment over candidate indices.
        let mut i = 0;
        loop {
            if i == width {
                return Ok(best);
            }
            assignment[i] += 1;
            if assignment[i] < candidates.len() {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Deterministic hill-climbing: start from the lowest-power feasible
/// homogeneous chain, then repeatedly apply the single-stage substitution
/// that most reduces the error probability while staying inside the budget,
/// until no substitution improves. Scales to widths where enumeration
/// cannot go; the tests cross-check it against [`exhaustive_best`] on small
/// spaces.
///
/// Returns `None` if no homogeneous chain fits the budget.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
/// * [`ExploreError::InvalidCharacteristics`] if a candidate's power or
///   area is negative or not finite.
pub fn local_search_best(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
    budget: &Budget,
) -> Result<Option<HybridDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let width = profile.width();
    let hybrid = Hybrid::new(candidates, profile, budget)?;
    // Start from the cheapest (by cell power) homogeneous chain the budget
    // admits; the first such candidate wins power ties.
    let mut start: Option<(usize, Evaluation)> = None;
    for cell in 0..candidates.len() {
        let cheaper = start
            .as_ref()
            .is_none_or(|&(s, _)| hybrid.powers[cell] < hybrid.powers[s]);
        if !cheaper {
            continue;
        }
        let evaluation = evaluate(&hybrid.chain_of(&vec![cell; width]), profile)?;
        if budget.admits(&evaluation) {
            start = Some((cell, evaluation));
        }
    }
    let Some((cheapest, mut current)) = start else {
        return Ok(None);
    };
    let mut assignment = vec![cheapest; width];
    // Each neighbor differs from the current chain in exactly one stage, so
    // only the suffix from the mutated stage needs re-analysis: rewind the
    // stepper to the mutated depth, push the substitute, replay the
    // original tail. Power/area are re-folded in plain stage order so every
    // f64 matches a fresh `evaluate` of the neighbor bit for bit.
    let mut stepper = PrefixStepper::new(profile);
    loop {
        let mut best_move: Option<(usize, usize, Evaluation)> = None;
        stepper.truncate(0); // the prefix is stale after an applied move
        for stage in 0..width {
            let original = assignment[stage];
            for cand in 0..candidates.len() {
                if cand == original {
                    continue;
                }
                stepper.truncate(stage);
                stepper.push(&hybrid.mkls[cand]);
                for &cell in &assignment[stage + 1..width] {
                    stepper.push(&hybrid.mkls[cell]);
                }
                let cost_of = |per_cell: &[f64]| {
                    (0..width).fold(0.0, |acc, t| {
                        acc + per_cell[if t == stage { cand } else { assignment[t] }]
                    })
                };
                let eval = Evaluation {
                    error_probability: stepper.error_probability(),
                    power_nw: cost_of(&hybrid.powers),
                    area_ge: cost_of(&hybrid.areas),
                };
                if !budget.admits(&eval) {
                    continue;
                }
                let improves = eval.error_probability < current.error_probability - 1e-15
                    || (eval.error_probability <= current.error_probability + 1e-15
                        && eval.power_nw < current.power_nw - 1e-12);
                if improves {
                    let better_than_best = match &best_move {
                        None => true,
                        Some((_, _, b)) => {
                            eval.error_probability < b.error_probability
                                || (eval.error_probability == b.error_probability
                                    && eval.power_nw < b.power_nw)
                        }
                    };
                    if better_than_best {
                        best_move = Some((stage, cand, eval));
                    }
                }
            }
            // Re-seat the original cell so deeper stages rewind onto the
            // current assignment's prefix, not the last neighbor's.
            stepper.truncate(stage);
            stepper.push(&hybrid.mkls[original]);
        }
        match best_move {
            Some((stage, cand, eval)) => {
                assignment[stage] = cand;
                current = eval;
            }
            None => break,
        }
    }
    Ok(Some(HybridDesign {
        chain: hybrid.chain_of(&assignment),
        evaluation: current,
    }))
}

/// Filters a design set down to its Pareto frontier over
/// (error probability, power, area), sorted by ascending error.
pub fn pareto_front(designs: Vec<HybridDesign>) -> Vec<HybridDesign> {
    pareto_filter(
        designs,
        |d| (d.evaluation.error_probability, d.evaluation.power_nw),
        |a, b| a.evaluation.dominates(&b.evaluation),
    )
}

/// Sorts `designs` by `key` (ascending, `total_cmp` on each component),
/// then keeps every design no kept design dominates, dropping the kept
/// designs it dominates.
pub(crate) fn pareto_filter<T>(
    mut designs: Vec<T>,
    key: impl Fn(&T) -> (f64, f64),
    dominates: impl Fn(&T, &T) -> bool,
) -> Vec<T> {
    designs.sort_by(|a, b| {
        let ((a0, a1), (b0, b1)) = (key(a), key(b));
        a0.total_cmp(&b0).then(a1.total_cmp(&b1))
    });
    let mut front: Vec<T> = Vec::new();
    for design in designs {
        if !front.iter().any(|kept| dominates(kept, &design)) {
            front.retain(|kept| !dominates(&design, kept));
            front.push(design);
        }
    }
    front
}

#[cfg(test)]
mod tests {
    use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

    use super::*;

    fn lpaa_candidates() -> Vec<Cell> {
        vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa5.cell(),
        ]
    }

    #[test]
    fn evaluate_requires_characteristics() {
        let chain = AdderChain::uniform(StandardCell::Accurate.cell(), 2);
        let profile = InputProfile::<f64>::uniform(2);
        assert!(matches!(
            evaluate(&chain, &profile),
            Err(ExploreError::MissingCharacteristics { .. })
        ));
    }

    #[test]
    fn evaluate_sums_costs() {
        let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 3);
        let profile = InputProfile::constant(3, 0.1);
        let e = evaluate(&chain, &profile).expect("characteristics present");
        assert!((e.power_nw - 3.0 * 294.0).abs() < 1e-9);
        assert!((e.area_ge - 3.0 * 1.94).abs() < 1e-9);
        assert!(e.error_probability > 0.0);
    }

    #[test]
    fn enumeration_counts_candidates_pow_width() {
        let designs =
            enumerate_designs(&lpaa_candidates(), &InputProfile::constant(3, 0.2)).expect("small");
        assert_eq!(designs.len(), 27);
    }

    #[test]
    fn exhaustive_best_respects_budget() {
        let profile = InputProfile::constant(4, 0.1);
        let budget = Budget {
            max_power_nw: Some(900.0),
            max_area_ge: None,
        };
        let best = exhaustive_best(&lpaa_candidates(), &profile, &budget)
            .expect("small space")
            .expect("feasible");
        assert!(best.evaluation.power_nw <= 900.0);
        // And it must be at least as good as any feasible competitor.
        for d in enumerate_designs(&lpaa_candidates(), &profile).expect("small") {
            if budget.admits(&d.evaluation) {
                assert!(
                    best.evaluation.error_probability <= d.evaluation.error_probability + 1e-12
                );
            }
        }
    }

    #[test]
    fn infeasible_budget_yields_none() {
        let profile = InputProfile::constant(2, 0.1);
        let budget = Budget {
            max_power_nw: Some(-1.0),
            max_area_ge: None,
        };
        assert_eq!(
            exhaustive_best(&lpaa_candidates(), &profile, &budget).expect("small"),
            None
        );
    }

    #[test]
    fn local_search_matches_exhaustive_on_small_space() {
        let power_capped = (
            lpaa_candidates(),
            InputProfile::constant(4, 0.15),
            Budget {
                max_power_nw: Some(1500.0),
                max_area_ge: None,
            },
        );
        // The lowest-power homogeneous chain, LPAA 2 ×4 at 7.76 GE, is over
        // the area cap; LPAA 4 ×4 at 7.04 GE fits.
        let area_capped = (
            vec![StandardCell::Lpaa2.cell(), StandardCell::Lpaa4.cell()],
            InputProfile::constant(4, 0.2),
            Budget {
                max_power_nw: None,
                max_area_ge: Some(7.2),
            },
        );
        for (candidates, profile, budget) in [power_capped, area_capped] {
            let exhaustive = exhaustive_best(&candidates, &profile, &budget)
                .expect("small")
                .expect("feasible");
            let local = local_search_best(&candidates, &profile, &budget)
                .expect("valid")
                .expect("feasible");
            // Hill climbing may tie rather than find the same chain, but on
            // these small spaces it should reach the optimal error.
            assert!(
                (local.evaluation.error_probability - exhaustive.evaluation.error_probability)
                    .abs()
                    < 1e-9,
                "local {} vs exhaustive {}",
                local.evaluation.error_probability,
                exhaustive.evaluation.error_probability
            );
        }
    }

    #[test]
    fn unconstrained_search_prefers_most_accurate_candidate() {
        // With no budget, the best design minimizes error outright.
        let profile = InputProfile::constant(3, 0.5);
        let best = exhaustive_best(&lpaa_candidates(), &profile, &Budget::default())
            .expect("small")
            .expect("feasible");
        let homogeneous_best = lpaa_candidates()
            .iter()
            .map(|c| {
                evaluate(&AdderChain::uniform(c.clone(), 3), &profile)
                    .expect("chars")
                    .error_probability
            })
            .fold(f64::INFINITY, f64::min);
        assert!(best.evaluation.error_probability <= homogeneous_best + 1e-12);
    }

    #[test]
    fn pareto_front_is_mutually_non_dominating() {
        let designs =
            enumerate_designs(&lpaa_candidates(), &InputProfile::constant(3, 0.1)).expect("small");
        let front = pareto_front(designs.clone());
        assert!(!front.is_empty());
        assert!(front.len() < designs.len());
        for a in &front {
            for b in &front {
                assert!(!a.evaluation.dominates(&b.evaluation) || a == b);
            }
        }
        // Every dropped design is dominated by someone on the front.
        for d in &designs {
            if !front.iter().any(|f| f.chain == d.chain) {
                assert!(
                    front.iter().any(|f| f.evaluation.dominates(&d.evaluation)),
                    "{d} should be dominated"
                );
            }
        }
    }

    #[test]
    fn proxy_accurate_cell_is_exact_and_costed() {
        let cell = accurate_cell_with_proxy_costs();
        assert!(cell.truth_table().is_accurate());
        assert!(cell.characteristics().is_some());
    }

    #[test]
    fn empty_candidates_rejected() {
        let profile = InputProfile::constant(2, 0.1);
        assert_eq!(
            enumerate_designs(&[], &profile),
            Err(ExploreError::NoCandidates)
        );
        assert!(local_search_best(&[], &profile, &Budget::default()).is_err());
    }

    /// The hybrid search, counting stepper pushes: the nodes it visits.
    struct Counted<'a>(Hybrid<'a>, AtomicUsize);

    impl<'a> PrefixSearch for Counted<'a> {
        type Worker = <Hybrid<'a> as PrefixSearch>::Worker;
        type Score = Evaluation;
        type Key = (f64, f64, f64);
        type Order = u128;
        type Design = HybridDesign;

        fn worker(&self) -> Result<Self::Worker, ExploreError> {
            self.0.worker()
        }
        fn choices(&self, worker: &Self::Worker) -> usize {
            self.0.choices(worker)
        }
        fn push(&self, worker: &mut Self::Worker, cell: usize) -> Result<bool, ExploreError> {
            let pushed = self.0.push(worker, cell)?;
            self.1.fetch_add(usize::from(pushed), Relaxed);
            Ok(pushed)
        }
        fn pop(&self, worker: &mut Self::Worker) {
            self.0.pop(worker);
        }
        fn is_leaf(&self, worker: &Self::Worker) -> bool {
            self.0.is_leaf(worker)
        }
        fn score(&self, worker: &Self::Worker) -> Result<Option<Evaluation>, ExploreError> {
            self.0.score(worker)
        }
        fn key(&self, score: &Evaluation) -> Self::Key {
            self.0.key(score)
        }
        fn order(&self, worker: &Self::Worker) -> u128 {
            self.0.order(worker)
        }
        fn design(&self, worker: &Self::Worker, score: Evaluation) -> HybridDesign {
            self.0.design(worker, score)
        }
        fn bound(&self, worker: &Self::Worker) -> Option<f64> {
            self.0.bound(worker)
        }
        fn lead(&self, key: &Self::Key) -> Option<f64> {
            self.0.lead(key)
        }
    }

    /// perfbench's `hybrid_dse` shapes: all eight cells at p = 0.3 under a
    /// power cap of half the all-accurate chain, at widths 5 and 8.
    #[test]
    fn bounded_search_visits_a_sliver_of_the_tree() {
        let mut cells = vec![accurate_cell_with_proxy_costs()];
        cells.extend(StandardCell::APPROXIMATE.iter().map(|c| {
            let (power, area) = match c {
                StandardCell::Lpaa6 => (500.0, 3.0),
                StandardCell::Lpaa7 => (400.0, 2.5),
                _ => {
                    let ch = c.characteristics().expect("Table 2");
                    (ch.power_nw, ch.area_ge)
                }
            };
            Cell::custom_with_characteristics(
                c.cell().name(),
                c.truth_table(),
                CellCharacteristics::new(power, area),
            )
        }));
        assert_eq!(cells.len(), 8);
        for width in [5, 8] {
            let profile = InputProfile::constant(width, 0.3);
            let budget = Budget {
                max_power_nw: Some(0.5 * 1080.0 * width as f64),
                max_area_ge: None,
            };
            let counted = Counted(
                Hybrid::new(&cells, &profile, &budget).expect("costed"),
                AtomicUsize::new(0),
            );
            let best = prefix::best(&counted, 1).expect("valid");
            assert_eq!(
                best,
                exhaustive_best_with(&cells, &profile, &budget, 2).expect("valid")
            );
            // The unbounded walk pushes up to ~37k nodes at width 5 and
            // ~1.5e7 at width 8.
            let nodes = counted.1.load(Relaxed);
            assert!(nodes < 5_000, "width {width}: {nodes} nodes");
        }
    }

    #[test]
    fn each_stage_keeps_the_proven_rounding_bound() {
        // DESIGN.md §7: the computed P(Succ) obeys
        // S_{d+1} ≤ (1 + u)^21 · S_d + 2^-1069 at every stage, so every
        // completion's P(error) is at least the prefix's minus
        // `rounding_margin`. Both are checked exactly, in rationals.
        use sealpaa_num::Rational;
        use sealpaa_sim::Xoshiro256pp;

        let exact = Rational::from_f64;
        let unit = exact(f64::EPSILON / 2.0);
        let factor = (0..21).fold(Rational::one(), |acc, _| acc * (Rational::one() + &unit));
        // A cheaper factor below (1 + u)^21: passing with it passes the
        // lemma, without the 1100-bit products of the exact factor.
        let below = Rational::one() + Rational::from_ratio(21, 1) * &unit;
        assert!(below < factor);
        // 2^-1069: 32 steps of the smallest subnormal, 2^-1074.
        let underflow = exact(f64::from_bits(1 << 5));
        let mut rng = Xoshiro256pp::seed_from_u64(0xB0_0D);
        let probability = |rng: &mut Xoshiro256pp| match rng.next_below(5) {
            0 => 0.0,
            1 => 0.5,
            2 => 1.0,
            _ => rng.next_f64(),
        };
        for case in 0..300 {
            let width = 1 + rng.next_below(64) as usize;
            let pa = (0..width).map(|_| probability(&mut rng)).collect();
            let pb = (0..width).map(|_| probability(&mut rng)).collect();
            let profile = InputProfile::new(pa, pb, probability(&mut rng)).expect("in range");
            let mut stepper = PrefixStepper::new(&profile);
            let mut success = vec![stepper.success_probability()];
            let mut error = vec![stepper.error_probability()];
            for _ in 0..width {
                let cell = StandardCell::ALL[rng.next_below(8) as usize];
                stepper.push_cell(&cell.cell());
                success.push(stepper.success_probability());
                error.push(stepper.error_probability());
            }
            for d in 0..width {
                let (next, prev) = (exact(success[d + 1]), exact(success[d]));
                assert!(
                    next <= &below * &prev + &underflow || next <= &factor * &prev + &underflow,
                    "case {case}, stage {d}: {} after {}",
                    success[d + 1],
                    success[d]
                );
                assert!(
                    exact(error[width]) >= exact(error[d]) - exact(rounding_margin(width - d)),
                    "case {case}, depth {d}: {} at the end, {} at the prefix",
                    error[width],
                    error[d]
                );
            }
        }
    }

    #[test]
    fn oversized_space_rejected() {
        let candidates: Vec<Cell> = StandardCell::APPROXIMATE
            .iter()
            .filter_map(|c| c.characteristics().map(|_| c.cell()))
            .collect();
        let profile = InputProfile::constant(16, 0.1);
        assert!(matches!(
            enumerate_designs(&candidates, &profile),
            Err(ExploreError::SpaceTooLarge { .. })
        ));
    }
}
