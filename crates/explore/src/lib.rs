//! Design-space exploration for hybrid multi-stage approximate adders
//! (paper Sec. 5).
//!
//! Because the analytical method is cheap and handles hybrid chains (a
//! different LPAA per stage), it can drive design-space exploration: the
//! paper suggests "optimally design\[ing\] a hybrid multistage low power adder
//! using more than one type of LPAA" for a known input-probability profile.
//! This crate provides that workflow:
//!
//! * [`evaluate`] — score one chain: analytical error probability + summed
//!   power/area (paper Table 2 characteristics),
//! * [`exhaustive_best`] — the true optimum, by a branch-and-bound search
//!   that skips every prefix whose error probability (less a proven f64
//!   rounding margin) is already worse than the best design found; it
//!   returns the full enumeration's winner bit for bit,
//! * [`local_search_best`] — deterministic hill-climbing for larger widths,
//! * [`pareto_front`] — the error/power/area trade-off frontier,
//! * [`accurate_cell_with_proxy_costs`] — an accurate full adder annotated
//!   with *estimated* power/area (the paper's Table 2 covers only LPAA 1–5;
//!   see `DESIGN.md` for the extrapolation rationale),
//! * [`best_block_design`] / [`enumerate_block_designs`] /
//!   [`block_pareto_front`] — the same workflow lifted to heterogeneous
//!   *block-based* adders (`sealpaa-blocks`): tile the width with blocks of
//!   varying width/prediction-depth/cell, score each tiling by an exact
//!   error-distance statistic, prefix-sharing the analytical recursion
//!   across every configuration with the same leading blocks,
//! * [`score_gear_configs`] / [`gear_pareto_front`] — every GeAr (R, P)
//!   configuration of a width (`sealpaa-gear`) scored by its exact
//!   linear-time DP, and the error/latency/area frontier.
//!
//! The three frontiers share one Pareto filter. Every search that prunes
//! on power or area refuses negative or non-finite cell costs
//! ([`ExploreError::InvalidCharacteristics`]).
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{InputProfile, StandardCell};
//! use sealpaa_explore::{exhaustive_best, Budget};
//!
//! let candidates = vec![StandardCell::Lpaa2.cell(), StandardCell::Lpaa5.cell()];
//! let profile = InputProfile::constant(4, 0.1);
//! let budget = Budget { max_power_nw: Some(1000.0), max_area_ge: None };
//! let best = exhaustive_best(&candidates, &profile, &budget)?
//!     .expect("at least one design fits the budget");
//! assert!(best.evaluation.power_nw <= 1000.0);
//! # Ok::<(), sealpaa_explore::ExploreError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod blocks_dse;
mod datapath_dse;
mod gear_dse;
mod prefix;
mod scorecard;
mod search;
mod sweep;

pub use blocks_dse::{
    best_block_design, best_block_design_reference, block_pareto_front, enumerate_block_designs,
    evaluate_block_config, BlockBudget, BlockDesign, BlockEvaluation, BlockObjective,
    BlockSearchSpace,
};
pub use datapath_dse::{
    best_datapath_assignment, best_datapath_assignment_reference, DatapathDesign,
    DatapathEvaluation,
};
pub use gear_dse::{gear_pareto_front, score_gear_configs, GearDesign};
pub use scorecard::{score_cells, CellScore};
pub use search::{
    accurate_cell_with_proxy_costs, enumerate_designs, evaluate, exhaustive_best,
    exhaustive_best_reference, exhaustive_best_with, exhaustive_designs, local_search_best,
    pareto_front, Budget, Evaluation, ExploreError, HybridDesign, MAX_ENUMERATION, MAX_SEARCH,
};
pub use sweep::{lsb_sweep, lsb_sweep_verified, LsbSweepPoint, VerifiedSweepPoint};
