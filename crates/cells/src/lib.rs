//! Single-bit approximate full-adder cells and multi-bit adder models.
//!
//! This crate is the structural foundation of the SEALPAA reproduction. It
//! provides:
//!
//! * [`TruthTable`] / [`FaInput`] / [`FaOutput`] — the 8-row behavioural model
//!   of a single-bit full adder (paper Table 1),
//! * [`StandardCell`] — the accurate full adder plus the seven low-power
//!   approximate adders (LPAA 1–7) the paper analyzes, with the power/area
//!   characteristics of paper Table 2,
//! * [`Cell`] — a named truth table, also constructible for user-defined
//!   approximate adders,
//! * [`AdderChain`] — a multi-bit ripple adder built from per-stage cells
//!   (homogeneous or hybrid, paper Fig. 3), with bit-true functional
//!   evaluation,
//! * [`CompiledChain`] — the same chain compiled for bitsliced (SWAR)
//!   evaluation; its [`CompiledKernel`] evaluates 64 to 512 additions per
//!   pass, following the [`simd`] backend, and is the one lane-parallel
//!   adder evaluator behind every simulator, sweep and replay, and
//! * [`InputProfile`] — per-bit input-operand probabilities, generic over the
//!   probability number type.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{AdderChain, StandardCell};
//!
//! // An 8-bit ripple adder built from LPAA 1 cells…
//! let adder = AdderChain::uniform(StandardCell::Lpaa1.cell(), 8);
//! let result = adder.add(15, 51, false);
//! // …which happens to be correct for these operands (no stage hits one of
//! // LPAA 1's two error rows):
//! assert_eq!(result.value(), 66);
//! assert!(result.matches_accurate(15, 51, false));
//! ```

// `deny`, not `forbid`: the `simd` module needs `unsafe` for exactly two
// runtime-feature-guarded `#[target_feature]` dispatch calls, and scopes an
// `allow` to itself. Everything else in the crate stays unsafe-free.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod chain;
mod compiled;
mod library;
mod profile;
#[allow(unsafe_code)]
pub mod simd;
mod truth_table;

pub use chain::{AdderChain, AdditionResult};
pub use compiled::{
    accurate_eval, biased_distance_lanes, error_distances64, error_magnitudes, error_stats,
    lane_value, splat_planes, transpose_lanes, CompiledChain, CompiledKernel, ErrorSigns,
    ErrorStats64, KernelDiff,
};
pub use library::{Cell, CellCharacteristics, ParseStandardCellError, StandardCell};
pub use profile::{InputProfile, ProfileError};
pub use simd::{dispatch, Backend, SimdKernel, SimdWord};
pub use truth_table::{FaInput, FaOutput, ParseTruthTableError, TruthTable};
