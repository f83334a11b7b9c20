//! The GeAr low-latency approximate adder (paper Sec. 2.2, Fig. 2) and its
//! error analyses.
//!
//! GeAr (Shafique et al., DAC 2015) splits an N-bit addition across `k`
//! overlapping L-bit sub-adders that run in parallel with no carry linkage:
//! each sub-adder contributes its top `R` result bits and uses `P = L − R`
//! lower *prediction* bits to guess its carry-in. A sub-adder errs exactly
//! when a real carry arrives at its window **and** all `P` prediction bits
//! propagate it — the event this crate analyses.
//!
//! Three ways to get the error probability, mirroring the paper's Sec. 1.1
//! claim that the proposed style of recursive analysis also covers LLAAs
//! with less overhead than the inclusion–exclusion approach of Mazahir et
//! al. (IEEE TC 2016):
//!
//! * [`error_probability`] — exact, linear-time DP over
//!   `(carry, propagate-run-length)`; the analogue of the paper's recursive
//!   method for GeAr.
//! * [`error_probability_inclexcl`] — exact, but via the traditional
//!   `2^k − 1`-term inclusion–exclusion expansion (one carry-chain DP per
//!   subset term) for cross-validation and cost comparison.
//! * [`error_probability_block_independent`] — the cheap approximation that
//!   ignores inter-block correlation, to quantify how much the exact
//!   treatment matters.
//!
//! A GeAr is one block adder: [`GearConfig::to_blocks`] maps it onto
//! `sealpaa-blocks`, whose `BlockAdder` is the bit-true model;
//! [`GearConfig::add_with_correction`] adds the paper's detect-and-increment
//! correction. The (R, P) sweep and its Pareto frontier are in `sealpaa-explore`.
//!
//! # Examples
//!
//! ```
//! use sealpaa_gear::{GearConfig, error_probability};
//!
//! // GeAr(N=8, R=2, P=2): 3 sub-adders of length 4.
//! let config = GearConfig::new(8, 2, 2)?;
//! assert_eq!(config.block_count(), 3);
//! let p_err = error_probability::<f64>(&config, &[0.5; 8], &[0.5; 8], 0.0)?;
//! assert!(p_err > 0.0 && p_err < 1.0);
//! # Ok::<(), sealpaa_gear::GearError>(())
//! ```

#![forbid(unsafe_code)]
// DP state indices (carry value, joint-state bits, run length) are semantic
// values, not mere positions; indexed loops read clearer than iterators here.
#![allow(clippy::needless_range_loop)]
#![warn(missing_docs)]

mod analysis;
mod config;

pub use analysis::{
    block_error_probabilities, error_probability, error_probability_block_independent,
    error_probability_inclexcl,
};
pub use config::{enumerate_configs, GearConfig, GearError};
