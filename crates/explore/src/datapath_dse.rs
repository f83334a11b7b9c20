//! Per-node adder assignment for whole datapaths.
//!
//! The chain-level searches in this crate pick a cell per *stage* of one
//! adder; this module lifts the workflow to a whole [`Datapath`]: pick a
//! cell per *adder node* under a power/area budget, minimizing the
//! predicted output MSE (`E[D²]` from
//! [`sealpaa_propagate::GraphStepper`]). The exact output value's moments
//! do not depend on the assignment, so minimizing predicted MSE is
//! exactly maximizing predicted SNR.
//!
//! The search runs the crate's one prefix-sharing driver, as
//! [`exhaustive_best_with`](crate::exhaustive_best_with) does: designs that
//! agree on their first *k* adders share the stepper state up to the
//! *k*-th adder node, and ties break by lowest odometer index (the first
//! adder's cell cycling fastest) — so the winner is bit-identical for every
//! thread count, pinned against the naive re-propagate-per-design
//! reference.

use sealpaa_cells::{AdderChain, Cell};
use sealpaa_datapath::{Datapath, NodeKind, Signal};
use sealpaa_propagate::{GraphStepper, PropagateError};

use crate::prefix::{self, PrefixSearch};
use crate::search::{costs, Assignment, Budget, ExploreError, MAX_SEARCH};

/// The score of one per-adder assignment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatapathEvaluation {
    /// Predicted output `E[D²]` — the analytical MSE.
    pub mse: f64,
    /// Summed adder power (per-stage cell power, every adder).
    pub power_nw: f64,
    /// Summed adder area (gate equivalents).
    pub area_ge: f64,
}

impl DatapathEvaluation {
    fn admitted(&self, budget: &Budget) -> bool {
        budget.max_power_nw.is_none_or(|cap| self.power_nw <= cap)
            && budget.max_area_ge.is_none_or(|cap| self.area_ge <= cap)
    }
}

/// A scored per-adder-node cell assignment.
#[derive(Debug, Clone, PartialEq)]
pub struct DatapathDesign {
    /// One cell per adder node, in node order (the layout
    /// [`Datapath::with_adder_cells`] consumes).
    pub cells: Vec<Cell>,
    /// Its score under the searched input model.
    pub evaluation: DatapathEvaluation,
    /// Predicted exact-output power `E[V²]` — assignment-invariant, kept
    /// so [`snr_db`](DatapathDesign::snr_db) is self-contained.
    pub signal_power: f64,
}

impl DatapathDesign {
    /// Predicted `SNR = 10·log10(E[V²] / E[D²])` in dB; `None` for an
    /// error-free design or a zero-power output.
    pub fn snr_db(&self) -> Option<f64> {
        (self.evaluation.mse > 0.0 && self.signal_power > 0.0)
            .then(|| 10.0 * (self.signal_power / self.evaluation.mse).log10())
    }
}

/// `costs[a][c]`: the power/area of candidate `c` at the `a`-th adder
/// node, folded per chain width in stage order so they match
/// [`AdderChain::total_power_nw`] bit for bit.
fn adder_costs(
    candidates: &[Cell],
    adders: &[(Signal, usize)],
) -> Result<Vec<Vec<(f64, f64)>>, ExploreError> {
    let mut per_cell = Vec::with_capacity(candidates.len());
    for cell in candidates {
        let ch = costs(cell)?;
        per_cell.push((ch.power_nw, ch.area_ge));
    }
    Ok(adders
        .iter()
        .map(|&(_, w)| {
            per_cell
                .iter()
                .map(|&(p, a)| {
                    // The same left fold as a uniform chain's
                    // total_power_nw, for bit-identical budgets.
                    let mut power = 0.0;
                    let mut area = 0.0;
                    for _ in 0..w {
                        power += p;
                        area += a;
                    }
                    (power, area)
                })
                .collect()
        })
        .collect())
}

/// Advances the stepper through choice-free (non-adder) nodes.
fn advance_forced(stepper: &mut GraphStepper<'_, f64>) -> Result<(), PropagateError> {
    while !stepper.is_complete() && !stepper.next_is_adder() {
        stepper.push(None)?;
    }
    Ok(())
}

/// The datapath search: one candidate cell per adder node, a
/// [`GraphStepper`] that advances through the forced non-adder nodes inside
/// `push`, plus per-adder costs. Leaves are ordered by odometer index.
struct Assignments<'a> {
    dp: &'a Datapath,
    output: Signal,
    inputs: &'a [(&'a str, Vec<f64>)],
    candidates: &'a [Cell],
    budget: &'a Budget,
    /// Node index of each adder: the stepper depth just before it.
    nodes: Vec<usize>,
    costs: Vec<Vec<(f64, f64)>>,
    signal_power: f64,
}

impl<'a> PrefixSearch for Assignments<'a> {
    type Worker = (GraphStepper<'a, f64>, Assignment);
    type Score = DatapathEvaluation;
    type Key = (f64, f64, f64);
    type Order = u128;
    type Design = DatapathDesign;

    fn worker(&self) -> Result<Self::Worker, ExploreError> {
        let mut stepper = GraphStepper::new(self.dp, self.inputs)
            .map_err(|source| ExploreError::Propagate { source })?;
        advance_forced(&mut stepper).map_err(|source| ExploreError::Propagate { source })?;
        Ok((stepper, Assignment::with_capacity(self.nodes.len())))
    }

    fn choices(&self, _: &Self::Worker) -> usize {
        self.candidates.len()
    }

    fn push(&self, (stepper, path): &mut Self::Worker, cell: usize) -> Result<bool, ExploreError> {
        let (power, area) = self.costs[path.len()][cell];
        if !path.push(self.budget, cell, power, area) {
            return Ok(false);
        }
        stepper
            .push(Some(&self.candidates[cell]))
            .and_then(|()| advance_forced(stepper))
            .map_err(|source| ExploreError::Propagate { source })?;
        Ok(true)
    }

    fn pop(&self, (stepper, path): &mut Self::Worker) {
        path.pop();
        stepper.truncate(self.nodes[path.len()]);
    }

    fn is_leaf(&self, (stepper, _): &Self::Worker) -> bool {
        stepper.is_complete()
    }

    fn score(
        &self,
        (stepper, path): &Self::Worker,
    ) -> Result<Option<DatapathEvaluation>, ExploreError> {
        let (power_nw, area_ge) = path.costs();
        let evaluation = DatapathEvaluation {
            mse: stepper.state(self.output).error_second,
            power_nw,
            area_ge,
        };
        Ok(evaluation.admitted(self.budget).then_some(evaluation))
    }

    fn key(&self, e: &DatapathEvaluation) -> Self::Key {
        (e.mse, e.power_nw, e.area_ge)
    }

    fn order(&self, (_, path): &Self::Worker) -> u128 {
        path.odometer(self.candidates.len())
    }

    fn design(&self, (_, path): &Self::Worker, evaluation: DatapathEvaluation) -> DatapathDesign {
        DatapathDesign {
            cells: path.cells(self.candidates),
            evaluation,
            signal_power: self.signal_power,
        }
    }
}

/// Adder node indices and chain widths of a datapath, in node order.
fn adder_nodes(dp: &Datapath) -> Vec<(Signal, usize)> {
    dp.signals()
        .filter_map(|s| match dp.kind(s) {
            NodeKind::Add { chain, .. } => Some((s, chain.width())),
            _ => None,
        })
        .collect()
}

/// The provably best per-adder-node cell assignment under a budget, by
/// exhaustive prefix-sharing search over `threads` workers. Returns `None`
/// if no assignment fits the budget.
///
/// The winner minimizes predicted output MSE (ties: lower power, lower
/// area, earliest odometer position) and is bit-identical for every
/// thread count.
///
/// # Errors
///
/// * [`ExploreError::NoCandidates`] for an empty candidate list,
/// * [`ExploreError::MissingCharacteristics`] if a candidate lacks data,
/// * [`ExploreError::InvalidCharacteristics`] if a candidate's power or
///   area is negative or not finite,
/// * [`ExploreError::SpaceTooLarge`] beyond [`MAX_SEARCH`] assignments,
/// * [`ExploreError::Propagate`] if the engine rejects the graph or
///   inputs (bad names, errorful gate control, …).
pub fn best_datapath_assignment(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    candidates: &[Cell],
    budget: &Budget,
    threads: usize,
) -> Result<Option<DatapathDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let adders = adder_nodes(dp);
    let designs = (candidates.len() as u128).saturating_pow(adders.len() as u32);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    let costs = adder_costs(candidates, &adders)?;

    // One run of the graph as built: the assignment-invariant signal power,
    // and the whole answer when there is no adder to assign.
    let mut stepper =
        GraphStepper::new(dp, inputs).map_err(|source| ExploreError::Propagate { source })?;
    stepper
        .run_to_end()
        .map_err(|source| ExploreError::Propagate { source })?;
    if output.index() >= dp.len() {
        return Err(ExploreError::Propagate {
            source: PropagateError::Datapath(sealpaa_datapath::DatapathError::UnknownSignal {
                index: output.index(),
            }),
        });
    }
    let built = stepper.state(output);
    let signal_power = built.value_second;
    if adders.is_empty() {
        let evaluation = DatapathEvaluation {
            mse: built.error_second,
            power_nw: 0.0,
            area_ge: 0.0,
        };
        return Ok(evaluation.admitted(budget).then_some(DatapathDesign {
            cells: Vec::new(),
            evaluation,
            signal_power,
        }));
    }

    let search = Assignments {
        dp,
        output,
        inputs,
        candidates,
        budget,
        nodes: adders.iter().map(|&(s, _)| s.index()).collect(),
        costs,
        signal_power,
    };
    prefix::best(&search, threads)
}

/// The naive reference: a fresh odometer enumeration with one full
/// [`Datapath::with_adder_cells`] rebuild and complete re-propagation per
/// assignment. Kept as the differential-test oracle and the benchmark
/// baseline for [`best_datapath_assignment`]; do not use it for real
/// workloads.
///
/// # Errors
///
/// Same conditions as [`best_datapath_assignment`].
pub fn best_datapath_assignment_reference(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    candidates: &[Cell],
    budget: &Budget,
) -> Result<Option<DatapathDesign>, ExploreError> {
    if candidates.is_empty() {
        return Err(ExploreError::NoCandidates);
    }
    let adders = adder_nodes(dp);
    let designs = (candidates.len() as u128).saturating_pow(adders.len() as u32);
    if designs > MAX_SEARCH {
        return Err(ExploreError::SpaceTooLarge {
            designs,
            max: MAX_SEARCH,
        });
    }
    for cell in candidates {
        costs(cell)?;
    }
    let propagate = |graph: &Datapath| -> Result<(f64, f64), ExploreError> {
        let mut stepper = GraphStepper::new(graph, inputs)
            .map_err(|source| ExploreError::Propagate { source })?;
        stepper
            .run_to_end()
            .map_err(|source| ExploreError::Propagate { source })?;
        if output.index() >= graph.len() {
            return Err(ExploreError::Propagate {
                source: PropagateError::Datapath(sealpaa_datapath::DatapathError::UnknownSignal {
                    index: output.index(),
                }),
            });
        }
        let state = stepper.state(output);
        Ok((state.error_second, state.value_second))
    };
    let (_, signal_power) = propagate(dp)?;
    if adders.is_empty() {
        let (mse, _) = propagate(dp)?;
        let evaluation = DatapathEvaluation {
            mse,
            power_nw: 0.0,
            area_ge: 0.0,
        };
        return Ok(evaluation.admitted(budget).then_some(DatapathDesign {
            cells: Vec::new(),
            evaluation,
            signal_power,
        }));
    }
    let mut best: Option<DatapathDesign> = None;
    let mut assignment = vec![0usize; adders.len()];
    loop {
        let cells: Vec<Cell> = assignment.iter().map(|&c| candidates[c].clone()).collect();
        let rebuilt = dp
            .with_adder_cells(&cells)
            .expect("one cell per adder node by construction");
        let (mse, _) = propagate(&rebuilt)?;
        let mut power = 0.0;
        let mut area = 0.0;
        for (&(_, width), cell) in adders.iter().zip(&cells) {
            let chain = AdderChain::uniform(cell.clone(), width);
            power += chain.total_power_nw().expect("validated above");
            area += chain.total_area_ge().expect("validated above");
        }
        let evaluation = DatapathEvaluation {
            mse,
            power_nw: power,
            area_ge: area,
        };
        if evaluation.admitted(budget) {
            let better = match &best {
                None => true,
                Some(b) => {
                    (mse, power, area)
                        < (
                            b.evaluation.mse,
                            b.evaluation.power_nw,
                            b.evaluation.area_ge,
                        )
                }
            };
            if better {
                best = Some(DatapathDesign {
                    cells,
                    evaluation,
                    signal_power,
                });
            }
        }
        // Odometer increment over candidate indices.
        let mut i = 0;
        loop {
            if i == assignment.len() {
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

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;
    use sealpaa_propagate::topologies;

    fn candidates() -> Vec<Cell> {
        vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa2.cell(),
            StandardCell::Lpaa5.cell(),
        ]
    }

    fn fir_case() -> (Datapath, Signal, Vec<(String, Vec<f64>)>) {
        let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 2, 1], 6).expect("fits");
        let inputs: Vec<(String, Vec<f64>)> = topo
            .inputs
            .iter()
            .map(|n| (n.clone(), vec![0.5; 6]))
            .collect();
        (topo.datapath, topo.output, inputs)
    }

    fn as_refs(inputs: &[(String, Vec<f64>)]) -> Vec<(&str, Vec<f64>)> {
        inputs
            .iter()
            .map(|(n, b)| (n.as_str(), b.clone()))
            .collect()
    }

    #[test]
    fn winner_is_thread_count_invariant() {
        let (dp, output, inputs) = fir_case();
        let inputs = as_refs(&inputs);
        let budget = Budget {
            max_power_nw: Some(8_000.0),
            max_area_ge: None,
        };
        let t1 = best_datapath_assignment(&dp, output, &inputs, &candidates(), &budget, 1)
            .expect("valid");
        for threads in [2, 3, 4, 7] {
            let tn =
                best_datapath_assignment(&dp, output, &inputs, &candidates(), &budget, threads)
                    .expect("valid");
            assert_eq!(t1, tn, "threads={threads}");
        }
    }

    #[test]
    fn budget_prunes_to_none_when_infeasible() {
        let (dp, output, inputs) = fir_case();
        let inputs = as_refs(&inputs);
        let budget = Budget {
            max_power_nw: Some(1.0),
            max_area_ge: None,
        };
        // LPAA 5 has zero power, so an all-LPAA5 assignment always fits;
        // drop it to force infeasibility.
        let expensive = vec![StandardCell::Lpaa1.cell(), StandardCell::Lpaa2.cell()];
        let best =
            best_datapath_assignment(&dp, output, &inputs, &expensive, &budget, 2).expect("valid");
        assert_eq!(best, None);
    }

    #[test]
    fn unconstrained_winner_beats_every_homogeneous_assignment() {
        let (dp, output, inputs) = fir_case();
        let inputs = as_refs(&inputs);
        let best =
            best_datapath_assignment(&dp, output, &inputs, &candidates(), &Budget::default(), 2)
                .expect("valid")
                .expect("feasible");
        for cell in candidates() {
            let n = adder_nodes(&dp).len();
            let homogeneous: Vec<Cell> = vec![cell; n];
            let rebuilt = dp.with_adder_cells(&homogeneous).expect("count matches");
            let p = sealpaa_propagate::propagate_moments(&rebuilt, output, &inputs).expect("valid");
            assert!(best.evaluation.mse <= p.error_second + 1e-12);
        }
    }

    #[test]
    fn empty_candidates_rejected() {
        let (dp, output, inputs) = fir_case();
        let inputs = as_refs(&inputs);
        assert_eq!(
            best_datapath_assignment(&dp, output, &inputs, &[], &Budget::default(), 1),
            Err(ExploreError::NoCandidates)
        );
    }

    #[test]
    fn adderless_datapath_yields_the_empty_design() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let y = dp.shl(x, 2).expect("fits");
        let inputs = vec![("x", vec![0.5; 4])];
        let best = best_datapath_assignment(&dp, y, &inputs, &candidates(), &Budget::default(), 1)
            .expect("valid")
            .expect("always feasible");
        assert!(best.cells.is_empty());
        assert_eq!(best.evaluation.mse, 0.0);
        assert_eq!(best.snr_db(), None);
    }
}
