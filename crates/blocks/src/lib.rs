//! Generalized block-based approximate adders with exact analytical
//! error-distance distributions.
//!
//! The paper's GeAr family fixes one resultant-bit count `R` and one
//! prediction depth `P` for every sub-adder. This crate drops that
//! restriction: a [`BlockConfig`] is any sequence of blocks, each with its
//! own result width, its own carry-prediction depth, and its own full-adder
//! cell (accurate or any approximate [`sealpaa_cells::Cell`]). GeAr — and
//! therefore ACA/ETAII/truncation-style schemes — are single points of this
//! family: `sealpaa-gear` builds on this crate, and its
//! `GearConfig::to_blocks` maps every GeAr onto a [`BlockConfig`], so
//! [`BlockAdder`] is GeAr's scalar model too.
//!
//! Three views of the same configuration agree bit for bit:
//!
//! * [`BlockAdder`] — the scalar functional model (one addition at a time);
//! * [`exhaustive_distance_histogram`] — a bitsliced sweep over *all*
//!   inputs on the workspace's one lane-parallel adder evaluator,
//!   [`sealpaa_cells::CompiledKernel`] (64–512 additions per step, one
//!   kernel per block window), producing the exact error-distance
//!   histogram;
//! * [`error_distance_distribution`] — the analytical engine: a linear-time
//!   joint-carry recursion producing the exact PMF of `approx − exact`
//!   under an arbitrary per-bit input profile, in `f64` or exact
//!   [`Rational`](sealpaa_num::Rational) arithmetic, as the same
//!   [`sealpaa_core::ErrorDistribution`] the ripple-chain analysis fills.
//!
//! The analytical engine is also exposed incrementally as
//! [`BlockDistanceStepper`], whose push/truncate interface lets
//! design-space exploration (see `sealpaa-explore`) share the recursion's
//! prefix across every candidate configuration with the same leading
//! blocks.
//!
//! ```
//! use sealpaa_blocks::{error_distance_distribution, exhaustive_distance_histogram, BlockConfig};
//! use sealpaa_cells::InputProfile;
//! use sealpaa_num::Rational;
//!
//! // Heterogeneous: a wide accurate low block, then two predicted blocks.
//! let config: BlockConfig = "4:0:accurate,2:2:accurate,2:3:lpaa1".parse()?;
//! let analytical =
//!     error_distance_distribution(&config, &InputProfile::<Rational>::uniform(8))?;
//! let exhaustive = exhaustive_distance_histogram(&config)?.to_distribution::<Rational>();
//! assert_eq!(analytical, exhaustive); // exact, not approximate, agreement
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod config;
mod distance;
mod exhaustive;
mod functional;

pub use config::{BlockConfig, BlockError, BlockSpec, ParseBlockConfigError, MAX_BLOCKS_WIDTH};
pub use distance::{error_distance_distribution, BlockDistanceStepper, MAX_DISTANCE_SUPPORT};
pub use exhaustive::{
    exhaustive_distance_histogram, exhaustive_distance_histogram_with_backend,
    ExhaustiveDistanceReport, MAX_EXHAUSTIVE_WIDTH,
};
pub use functional::{BlockAdder, BlockAdditionResult};
