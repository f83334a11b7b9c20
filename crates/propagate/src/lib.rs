//! Analytical error propagation through approximate-adder datapaths.
//!
//! The paper's closing observation — "the analysis complexity will further
//! aggravate when these adders form an accelerator data path" — is this
//! crate's subject, and this crate is the one estimator for a
//! [`Datapath`](sealpaa_datapath::Datapath). It composes full error
//! *random variables*, not just error probabilities: every signal carries
//! its marginal bit probabilities, `(E[D], E[D²])` for its error
//! `D = approx − exact` and `(E[V], E[V²])` for its exact value, and every
//! adder its own `P(error)` and error moments, so the output's predicted
//! MSE, SNR and PSNR come out of one linear-time graph walk — no
//! simulation in the loop.
//!
//! * [`propagate_moments`] / [`predict`] — the engine, generic over
//!   [`Prob`](sealpaa_num::Prob) (exact `Rational` runs included), with an
//!   optional full output-error PMF ([`ErrorPmf`]) whose truncation is
//!   accounted, never silent.
//! * [`GraphStepper`] — the incremental, prefix-sharing form a per-node
//!   cell search drives.
//! * [`brute_force_moments`] / [`exact_tree_moments`] — exact reference
//!   engines the consistency tests pin the fast path against.
//! * [`fit_inputs`] / [`fit_and_check`] / [`check_against_monte_carlo`] —
//!   model fitting from value streams and fidelity reports against
//!   bit-true replay or Monte-Carlo ground truth.
//! * [`topologies`] — FIR, conv2d and array-multiplier graph builders.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::StandardCell;
//! use sealpaa_propagate::{propagate_moments, topologies};
//!
//! // A 3-tap FIR on 8-bit samples, every adder LPAA 5.
//! let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 2, 1], 8)?;
//! let uniform = vec![0.5; 8];
//! let inputs: Vec<(&str, Vec<f64>)> = topo
//!     .inputs
//!     .iter()
//!     .map(|n| (n.as_str(), uniform.clone()))
//!     .collect();
//! let p = propagate_moments(&topo.datapath, topo.output, &inputs)?;
//! let snr = p.snr_db().expect("approximate adders err");
//! assert!(snr > 0.0 && snr < 100.0);
//! # Ok::<(), sealpaa_propagate::PropagateError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod engine;
mod error;
mod exact;
mod fit;
pub mod topologies;

mod model;

pub use engine::{
    predict, propagate_moments, AdderErrorModel, GraphStepper, MomentPrediction, Prediction,
    SignalState,
};
pub use error::PropagateError;
pub use exact::{
    brute_force_moments, exact_tree_moments, ExactMoments, MAX_EXACT_INPUT_BITS, MAX_EXACT_STATES,
};
pub use fit::{
    check_against_monte_carlo, fit_and_check, fit_input, fit_inputs, monte_carlo, replay,
    DatapathFidelity, FittedInput, ReplayQuality,
};
pub use model::{ErrorPmf, MAX_PMF_SUPPORT};
pub use topologies::Topology;
