//! `sealpaa gear` — GeAr low-latency adder analysis.

use std::io::Write;

use sealpaa_explore::{gear_pareto_front, score_gear_configs};
use sealpaa_gear::{
    block_error_probabilities, error_probability, error_probability_block_independent,
    error_probability_inclexcl, GearConfig,
};

use crate::args::ParsedArgs;
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa gear --n N (--r R --overlap P | --pareto) [options]

Exact error probability of a GeAr(N, R, P) low-latency adder (paper
Sec. 2.2) via the linear-time DP, with optional baselines.

options:
  --n N           operand width (required)
  --r R           result bits per sub-adder (required)
  --overlap P     prediction/overlap bits per sub-adder (required)
  --p P           constant P(bit = 1) for all inputs (default 0.5)
  --cin P         external carry-in probability (default 0)
  --baselines     also evaluate the 2^k-term inclusion-exclusion expansion
                  and the block-independence approximation
  --blocks        also print each fallible sub-adder's P(E_j)
  --pareto        score every valid (R, P) configuration of width N and
                  print the error/latency/area Pareto frontier";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options or invalid configurations.
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &["n", "r", "overlap", "p", "cin"],
        &["baselines", "blocks", "pareto"],
    )?;
    let n: usize = args.require("n")?;
    let p: f64 = args.get_or("p", 0.5)?;
    let cin: f64 = args.get_or("cin", 0.0)?;
    if args.flag("pareto") {
        let designs = score_gear_configs(n, p);
        let total = designs.len();
        let front = gear_pareto_front(designs);
        writeln!(
            out,
            "Pareto frontier over (error, latency, area) at p = {p}:"
        )?;
        for design in &front {
            writeln!(out, "  {design}")?;
        }
        writeln!(out, "({} of {total} configurations survive)", front.len())?;
        return Ok(());
    }
    let r: usize = args.require("r")?;
    let overlap: usize = args.require("overlap")?;
    let config = GearConfig::new(n, r, overlap).map_err(CliError::analysis)?;

    let pa = vec![p; n];
    let exact = error_probability(&config, &pa, &pa, cin).map_err(CliError::analysis)?;
    writeln!(out, "config      : {config}")?;
    writeln!(
        out,
        "sub-adders  : {} of length {}",
        config.block_count(),
        config.sub_adder_length()
    )?;
    writeln!(out, "P(error)    : {exact:.10} (exact, linear DP)")?;
    if args.flag("blocks") {
        let blocks =
            block_error_probabilities(&config, &pa, &pa, cin).map_err(CliError::analysis)?;
        for (j, e) in blocks.iter().enumerate() {
            writeln!(out, "  block {}: P(E) = {e:.10}", j + 1)?;
        }
    }
    if args.flag("baselines") {
        let (ie, terms) =
            error_probability_inclexcl(&config, &pa, &pa, cin).map_err(CliError::analysis)?;
        let indep = error_probability_block_independent(&config, &pa, &pa, cin)
            .map_err(CliError::analysis)?;
        writeln!(out, "incl-excl   : {ie:.10} ({terms} subset terms)")?;
        writeln!(out, "independent : {indep:.10} (approximation)")?;
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
    fn basic_gear_analysis() {
        let s = run_to_string(&["--n", "8", "--r", "2", "--overlap", "2"]).expect("valid");
        assert!(s.contains("GeAr(N=8, R=2, P=2)"), "{s}");
        assert!(s.contains("sub-adders  : 3 of length 4"), "{s}");
    }

    #[test]
    fn baselines_agree() {
        let s = run_to_string(&["--n", "8", "--r", "2", "--overlap", "2", "--baselines"])
            .expect("valid");
        let exact_line = s.lines().find(|l| l.starts_with("P(error)")).expect("line");
        let ie_line = s
            .lines()
            .find(|l| l.starts_with("incl-excl"))
            .expect("line");
        let grab = |l: &str| -> f64 {
            l.split(':')
                .nth(1)
                .expect("value")
                .trim()
                .split(' ')
                .next()
                .expect("num")
                .parse()
                .expect("f64")
        };
        assert!((grab(exact_line) - grab(ie_line)).abs() < 1e-9);
    }

    #[test]
    fn invalid_tiling_rejected() {
        assert!(run_to_string(&["--n", "9", "--r", "2", "--overlap", "2"]).is_err());
    }

    #[test]
    fn pareto_mode_lists_frontier() {
        let s = run_to_string(&["--n", "12", "--pareto"]).expect("valid");
        assert!(s.contains("Pareto frontier"), "{s}");
        assert!(s.contains("configurations survive"), "{s}");
    }

    #[test]
    fn blocks_flag_lists_per_block_errors() {
        let s =
            run_to_string(&["--n", "8", "--r", "2", "--overlap", "2", "--blocks"]).expect("valid");
        assert!(s.contains("block 1: P(E)"), "{s}");
        assert!(s.contains("block 2: P(E)"), "{s}");
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa gear"));
    }
}
