//! Accelerator datapaths built from approximate adders.
//!
//! The paper's introduction motivates the analysis with DSP-style
//! accelerators and closes Sec. 1.1 noting that "the analysis complexity
//! will further aggravate when these adders form an accelerator data path".
//! This crate provides that layer's circuits:
//!
//! * [`Datapath`] — a DAG of signals whose add nodes are concrete
//!   [`sealpaa_cells::AdderChain`]s (homogeneous, hybrid, accurate — anything the cell
//!   library expresses), evaluated bit-true and against an exact reference.
//!   The `sealpaa-propagate` crate is its analytical estimator: it
//!   propagates per-bit marginals, per-adder error probabilities and error
//!   moments through the graph.
//! * Three serial models, each one approximate accumulator that adds
//!   `x << bit` for every set bit of a constant coefficient and drops its
//!   carry-out: [`ShiftAddMultiplier`] (the multiplier context of
//!   reference 16 of the paper), [`FirFilter`] and [`Conv2d`] (the paper's
//!   DSP and image motivation), each measured against its exact output.
//!
//! The serial models stay beside the graph builders in
//! `sealpaa_propagate::topologies` because they are a different circuit: a
//! topology is a tree of adders, each sized for its level, while a serial
//! model reuses one accumulator and drops its carry-out, which a
//! [`Datapath`] cannot express without a new node kind. Building them as
//! graphs would change every figure `sealpaa fir` and `sealpaa multiplier`
//! print.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::StandardCell;
//! use sealpaa_datapath::Datapath;
//!
//! // sum = (x + y) + z over 8-bit LPAA 6 adders.
//! let mut dp = Datapath::new();
//! let x = dp.input("x", 8);
//! let y = dp.input("y", 8);
//! let z = dp.input("z", 8);
//! let chain = |w| sealpaa_cells::AdderChain::uniform(StandardCell::Lpaa6.cell(), w);
//! let xy = dp.add(x, y, chain(8))?; // output is 9 bits (carry included)
//! let sum = dp.add(xy, z, chain(9))?;
//! let outputs = dp.evaluate(&[("x", 85), ("y", 34), ("z", 8)])?;
//! assert_eq!(outputs.value(sum), 127); // correct here: no error row was hit
//! # Ok::<(), sealpaa_datapath::DatapathError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod conv2d;
mod fir;
mod graph;
mod multiplier;
mod serial;

pub use conv2d::{Conv2d, Image};
pub use fir::{FirFilter, FirQuality};
pub use graph::{Datapath, DatapathError, Evaluation, NodeKind, Signal};
pub use multiplier::{MultiplierQuality, ShiftAddMultiplier};
