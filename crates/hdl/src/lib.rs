//! Structural Verilog emission for approximate adders.
//!
//! The paper's library targets design automation ("design automation of
//! complex approximate computing processors, and high-level synthesis");
//! this crate closes that loop for a Rust workflow: any cell in the library
//! (or any custom truth table) is synthesized to two-level logic, and
//! ripple chains and GeAr adders are emitted as structural Verilog.
//!
//! Trustworthiness without an external simulator: the emitted text is
//! generated from a [`Netlist`] that this crate can also *evaluate in Rust*
//! — the tests prove, exhaustively and by property, that the netlist
//! computes exactly what the truth tables / `AdderChain` / `BlockAdder`
//! models compute, so the Verilog (a direct rendering of the same netlist)
//! carries the same behaviour modulo syntax.
//!
//! * [`SumOfProducts`] — two-level synthesis of a truth-table output,
//! * [`Netlist`] / [`cell_netlist`] / [`chain_netlist`] /
//!   [`gear_netlist`] — evaluable gate-level models,
//! * [`cell_verilog`] / [`chain_verilog`] / [`gear_verilog`] — the
//!   emitted `.v` text.
//!
//! # Examples
//!
//! ```
//! use sealpaa_cells::StandardCell;
//! use sealpaa_hdl::cell_verilog;
//!
//! let v = cell_verilog(&StandardCell::Lpaa1.cell());
//! assert!(v.contains("module lpaa_1"));
//! assert!(v.contains("input  wire a, b, cin;"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod netlist;
mod sop;
mod verilog;

pub use netlist::{cell_netlist, chain_netlist, gear_netlist, Net, Netlist};
pub use sop::SumOfProducts;
pub use verilog::{cell_verilog, chain_verilog, gear_verilog, module_name};
