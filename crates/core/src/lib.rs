//! The SEALPAA analytical method: recursive, matrix-based error-probability
//! analysis of multi-bit low-power approximate adders (Ayub, Hasan &
//! Shafique, DAC 2017, Sec. 4).
//!
//! # The method in one paragraph
//!
//! For every stage of a ripple chain of (approximate) full adders, the engine
//! propagates only two numbers: `P(Cout = 1 ∩ Succ)` and `P(Cout = 0 ∩ Succ)`
//! — the probability that the carry has a given value *and* no stage so far
//! has deviated from the accurate full adder. Error cases are discarded at
//! every stage, so no inclusion–exclusion over stage subsets is ever needed
//! and the whole analysis is a single O(N) pass (paper Algorithm 1). The
//! per-stage update is three dot products between an 8-entry input
//! probability matrix ([`Ipm`]) and three constant 0/1 row vectors derived
//! from the cell's truth table ([`MklMatrices`], paper Table 5).
//!
//! # Entry points
//!
//! * [`analyze`] — the proposed method; returns an [`Analysis`] with the
//!   final success/error probability and a full per-stage trace (paper
//!   Table 4).
//! * [`analyze_instrumented`] — same, plus exact operation counts
//!   ([`OpCounts`], paper Table 8).
//! * [`MklMatrices`] — derivation of the M, K, L vectors from any truth
//!   table (paper Table 5 is a test vector here, not an input).
//! * [`signal_probabilities`] — unconditioned signal probabilities of every
//!   carry and sum bit through the *approximate* chain.
//! * [`exact_error_analysis`] — an exact joint-chain DP (an extension beyond
//!   the paper) that also captures the rare error-*cancellation* effects the
//!   first-deviation semantics cannot, and per-bit error rates.
//! * [`error_distribution`] — the exact error-distance PMF of a chain, as an
//!   [`ErrorDistribution`]: the workspace's one PMF type, which
//!   `sealpaa-blocks` also fills for block-based adders.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
//! use sealpaa_core::analyze;
//!
//! // Paper Table 7, first column: 2-bit LPAA 1, all inputs at p = 0.1.
//! let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
//! let profile = InputProfile::constant(2, 0.1);
//! let analysis = analyze(&chain, &profile)?;
//! assert!((analysis.error_probability() - 0.30780).abs() < 5e-6);
//! # Ok::<(), sealpaa_core::AnalyzeError>(())
//! ```

#![forbid(unsafe_code)]
// DP state indices (carry value, joint-state bits, run length) are semantic
// values, not mere positions; indexed loops read clearer than iterators here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod analyzer;
mod carry;
mod distribution;
mod exact;
mod extremes;
mod joint;
mod magnitude;
mod matrices;
mod ops;
mod signal;
mod stepper;

pub use analyzer::{analyze, analyze_instrumented, Analysis, AnalyzeError, StageTrace};
pub use carry::CarryState;
pub use distribution::{error_distribution, ErrorDistribution, MAX_DISTRIBUTION_WIDTH};
pub use exact::{exact_error_analysis, ExactErrorAnalysis};
pub use extremes::{worst_case_error, worst_case_relative_error, Witness, WorstCaseError};
pub use magnitude::{error_magnitude, MagnitudeAnalysis};
pub use matrices::{Ipm, MklMatrices};
pub use ops::{table8_resource_model, OpCounts, ResourceEstimate};
pub use signal::{signal_probabilities, success_sum_probabilities, SignalAnalysis};
pub use stepper::PrefixStepper;
