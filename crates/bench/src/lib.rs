//! Reproduction harness for every table and figure in the paper's
//! evaluation, plus the Criterion benchmark suite.
//!
//! Each `experiments::*` function regenerates one artefact of the paper as a
//! formatted [`report::Table`]; the binaries in `src/bin/` are thin wrappers
//! that print them (`cargo run -p sealpaa-bench --bin table7`), and
//! `--bin repro_all` prints everything `EXPERIMENTS.md` records.
//!
//! | Paper artefact | Function | Binary |
//! |---|---|---|
//! | Fig. 1 (exhaustive-simulation blow-up) | [`experiments::fig1`] | `fig1` |
//! | Table 2 (cell characteristics) | [`experiments::table2`] | `table2` |
//! | Table 3 (inclusion–exclusion cost) | [`experiments::table3`] | `table3` |
//! | Table 4 (worked 4-bit example) | [`experiments::table4`] | `table4` |
//! | Table 5 (M/K/L matrices) | [`experiments::table5`] | `table5` |
//! | Table 6 (accuracy-match validation) | [`experiments::table6`] | `table6` |
//! | Table 7 (analytical vs simulation, p = 0.1) | [`experiments::table7`] | `table7` |
//! | Table 8 (resource utilisation) | [`experiments::table8`] | `table8` |
//! | Fig. 5(a,b,c) (success/error vs width) | [`experiments::fig5`] | `fig5` |
//! | GeAr extension sweep | [`experiments::gear_sweep`] | `gear_sweep` |
//! | Hybrid-adder DSE (paper Sec. 5 discussion) | [`experiments::hybrid_dse`] | `hybrid_dse` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod host;
pub mod microbench;
pub mod report;
