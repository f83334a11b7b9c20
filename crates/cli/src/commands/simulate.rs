//! `sealpaa simulate` — exhaustive or Monte-Carlo simulation.

use std::io::Write;

use sealpaa_cells::AdderChain;
use sealpaa_sim::{exhaustive_with_backend, monte_carlo, Backend, MonteCarloConfig};

use crate::args::{parse_chain_cells, parse_profile, parse_threads, ParsedArgs};
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa simulate --width N (--cell NAME | --cells A,B,...) [options]

Bit-true simulation of the adder, either exhaustive over all 2^(2N+1) input
combinations (small N; this is the blow-up of paper Fig. 1) or Monte-Carlo.

options:
  --width N       number of stages (required)
  --cell/--cells  as in `sealpaa analyze`
  --p/--pa/--pb/--cin  input probabilities, as in `sealpaa analyze`
  --exhaustive    enumerate every input combination (default if N <= 10)
  --samples M     Monte-Carlo with M samples (default 1000000 when N > 10)
  --seed S        Monte-Carlo RNG seed (default 0xDAC17ADD)
  --threads T     Monte-Carlo sample streams or exhaustive operand ranges,
                  at most 64 (default: all available cores); they run on
                  at most the available cores. Monte-Carlo results are
                  deterministic per (seed, threads, backend) triple,
                  exhaustive results for any T and backend
  --backend B     SIMD backend for the bitsliced kernels: u64, u64x2,
                  avx2, avx512 (default: widest available; see
                  `sealpaa simd`)";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options or simulation failure.
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &[
            "width", "cell", "cells", "p", "pa", "pb", "cin", "samples", "seed", "threads",
            "backend",
        ],
        &["exhaustive"],
    )?;
    let width: usize = args.require("width")?;
    if width == 0 {
        return Err(CliError::usage("--width must be at least 1"));
    }
    let chain = AdderChain::from_stages(parse_chain_cells(&args, width)?);
    let profile = parse_profile(&args, width)?;
    let threads = parse_threads(&args)?;
    writeln!(out, "adder: {chain}")?;

    let backend = match args.option("backend") {
        Some(name) => Some(
            name.parse::<Backend>()
                .map_err(|e| CliError::usage(format!("--backend: {e}")))?,
        ),
        None => None,
    };
    let use_exhaustive =
        args.flag("exhaustive") || (args.option("samples").is_none() && width <= 10);
    if use_exhaustive {
        let report = exhaustive_with_backend(&chain, &profile, threads, backend)
            .map_err(CliError::analysis)?;
        writeln!(
            out,
            "mode              : exhaustive ({} cases)",
            report.cases
        )?;
        writeln!(out, "erroneous cases   : {}", report.error_cases)?;
        writeln!(
            out,
            "P(output error)   : {:.10}",
            report.output_error_probability
        )?;
        writeln!(
            out,
            "P(stage error)    : {:.10} (the paper's semantics)",
            report.stage_error_probability
        )?;
        writeln!(out, "quality           : {}", report.metrics)?;
    } else {
        let config = MonteCarloConfig {
            samples: args.get_or("samples", 1_000_000u64)?,
            seed: args.get_or("seed", MonteCarloConfig::default().seed)?,
            threads,
            backend,
        };
        let report = monte_carlo(&chain, &profile, config).map_err(CliError::analysis)?;
        writeln!(
            out,
            "mode              : Monte-Carlo ({} samples)",
            report.samples
        )?;
        writeln!(out, "erroneous samples : {}", report.error_samples)?;
        writeln!(
            out,
            "P(output error)   : {:.6} ± {:.6} (1σ)",
            report.error_probability(),
            report.standard_error
        )?;
        writeln!(out, "quality           : {}", report.metrics)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_to_string(tokens: &[&str]) -> Result<String, CliError> {
        let tokens: Vec<String> = tokens.iter().map(|s| s.to_string()).collect();
        let mut out = Vec::new();
        run(&tokens, &mut out)?;
        Ok(String::from_utf8(out).expect("utf8 output"))
    }

    #[test]
    fn exhaustive_by_default_for_small_widths() {
        let s = run_to_string(&["--width", "3", "--cell", "lpaa1"]).expect("valid");
        assert!(s.contains("exhaustive (128 cases)"), "{s}");
        assert!(s.contains("P(stage error)"));
    }

    #[test]
    fn monte_carlo_with_samples() {
        let s = run_to_string(&[
            "--width",
            "12",
            "--cell",
            "lpaa6",
            "--p",
            "0.1",
            "--samples",
            "5000",
        ])
        .expect("valid");
        assert!(s.contains("Monte-Carlo (5000 samples)"), "{s}");
    }

    #[test]
    fn threaded_monte_carlo_runs() {
        let s = run_to_string(&[
            "--width",
            "12",
            "--cell",
            "lpaa1",
            "--p",
            "0.1",
            "--samples",
            "8000",
            "--threads",
            "4",
        ])
        .expect("valid");
        assert!(s.contains("Monte-Carlo (8000 samples)"), "{s}");
    }

    #[test]
    fn accurate_cell_never_errs() {
        let s = run_to_string(&["--width", "4", "--cell", "accurate"]).expect("valid");
        assert!(s.contains("erroneous cases   : 0"));
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa simulate"));
    }
}
