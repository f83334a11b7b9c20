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

/// Scores one chain under a profile: analytical error probability plus
/// summed power/area.
///
/// # Errors
///
/// Returns [`ExploreError::MissingCharacteristics`] if any stage lacks
/// power/area data.
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
        if cell.characteristics().is_none() {
            return Err(ExploreError::MissingCharacteristics {
                cell: cell.name().to_owned(),
            });
        }
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
    /// the prefix over a cap. The pruning is sound: costs are non-negative
    /// and f64 addition of non-negative values is monotone, so a prefix over
    /// a cap has no completion under it.
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
    /// without materializing chains, so the per-chain characteristics check
    /// in [`evaluate`] never runs). The first candidate missing
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
            let ch =
                cell.characteristics()
                    .ok_or_else(|| ExploreError::MissingCharacteristics {
                        cell: cell.name().to_owned(),
                    })?;
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
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_ENUMERATION`] designs.
pub fn enumerate_designs(
    candidates: &[Cell],
    profile: &InputProfile<f64>,
) -> Result<Vec<HybridDesign>, ExploreError> {
    exhaustive_designs(candidates, profile, 1)
}

/// The provably best design under a budget, by exhaustive prefix-sharing
/// search over `threads` workers. Returns `None` if no design fits the
/// budget.
///
/// Ties on error probability are broken by lower power, then lower area,
/// then earliest odometer position — so the winner is identical for every
/// thread count. Designs are never materialized (only the incumbent is
/// kept), which is why the cap is [`MAX_SEARCH`] rather than
/// [`MAX_ENUMERATION`].
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list.
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data.
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
