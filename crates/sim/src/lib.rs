//! Bit-true simulation of approximate adder chains.
//!
//! The paper validates its analytical method against two simulation regimes
//! (Table 6):
//!
//! * **Exhaustive** — every one of the `2^(2N+1)` input combinations of an
//!   N-bit adder, exactly weighted by the per-bit input probabilities
//!   ([`exhaustive`]); feasible only for small N, which is precisely the
//!   paper's Fig. 1 argument for an analytical method.
//! * **Monte-Carlo** — a configurable number of random samples drawn from
//!   the input profile ([`monte_carlo`]); the paper uses one million samples
//!   and reports agreement to the third decimal place (Table 7).
//!
//! Both regimes run on a bitsliced (SWAR) engine that evaluates 64 input
//! vectors per pass through `sealpaa_cells::CompiledChain`, and the
//! exhaustive sweep additionally parallelizes over operand ranges
//! ([`exhaustive_with`]) with an order-deterministic merge. Both split
//! their work into deterministic parts (sample streams, operand ranges)
//! and run them through [`fan_out`], the one thread policy that trace
//! replay and the design-space searches share. The original
//! one-case-at-a-time engines stay available as [`exhaustive_scalar`] and
//! [`monte_carlo_scalar`] — they are the differential-test oracles and the
//! benchmark baselines.
//!
//! Both simulators report the error probability under two semantics (final
//! output value differs vs. any stage deviates — see
//! `sealpaa-core::exact_error_analysis` for why they can differ on exotic
//! hybrids) plus standard approximate-computing quality metrics
//! ([`ErrorMetrics`]).
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
//! use sealpaa_sim::exhaustive;
//!
//! let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
//! let profile = InputProfile::<f64>::uniform(4);
//! let report = exhaustive(&chain, &profile)?;
//! assert_eq!(report.cases, 1 << 9); // 2^(2·4+1)
//! assert!(report.metrics.error_probability > 0.0);
//! # Ok::<(), sealpaa_sim::SimError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod exhaustive;
mod metrics;
mod monte_carlo;
mod parallel;
mod rng;
mod sampler;

pub use exhaustive::{
    exhaustive, exhaustive_scalar, exhaustive_with, exhaustive_with_backend, ExhaustiveReport,
    SimError, SimWork, MAX_EXHAUSTIVE_WIDTH,
};
pub use metrics::ErrorMetrics;
pub use monte_carlo::{monte_carlo, monte_carlo_scalar, MonteCarloConfig, MonteCarloReport};
pub use parallel::{default_threads, fan_out};
pub use rng::{quantize_p53, SplitMix64, Xoshiro256pp};
pub use sampler::{plan_kind, PlanKind, PooledSampler, SamplerSummary, WideXoshiro};
// Re-exported so simulation callers can pick a kernel backend without
// depending on `sealpaa-cells` directly.
pub use sealpaa_cells::Backend;
