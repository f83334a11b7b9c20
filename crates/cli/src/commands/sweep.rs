//! `sealpaa sweep` — approximate-LSB sweep.

use std::io::Write;

use sealpaa_explore::{accurate_cell_with_proxy_costs, lsb_sweep, lsb_sweep_verified};

use crate::args::{parse_cell, parse_profile, parse_threads, ParsedArgs};
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa sweep --width N --cell NAME [options]

Sweeps k = 0..N approximate least-significant stages (NAME cells below,
accurate cells above) and reports the quality/power trade-off curve.

options:
  --width N       total adder width (required)
  --cell NAME     the approximate cell for the LSBs (required)
  --p/--pa/--pb/--cin  input probabilities, as in `sealpaa analyze`
  --verify        cross-check every point by exhaustive bit-true simulation
                  (paper Table 6; widths up to 16) and print the simulated
                  error probability and the residual |analytical - simulated|
  --threads T     worker threads for --verify (default: all available cores;
                  the result is identical for any T)

The accurate MSB cells use the estimated characteristics documented in
DESIGN.md (the paper's Table 2 covers LPAA 1-5 only).";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options or when the chosen cell has no
/// power/area characteristics.
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &["width", "cell", "p", "pa", "pb", "cin", "threads"],
        &["verify"],
    )?;
    let width: usize = args.require("width")?;
    if width == 0 {
        return Err(CliError::usage("--width must be at least 1"));
    }
    let cell = parse_cell(
        args.option("cell")
            .ok_or_else(|| CliError::usage("--cell is required"))?,
    )?;
    let profile = parse_profile(&args, width)?;
    let threads = parse_threads(&args)?;

    writeln!(
        out,
        "LSB sweep: {} below AccuFA (est.), width {width}",
        cell.name()
    )?;
    if args.flag("verify") {
        let points = lsb_sweep_verified(
            cell.clone(),
            accurate_cell_with_proxy_costs(),
            &profile,
            threads,
        )
        .map_err(CliError::analysis)?;
        writeln!(
            out,
            "{:>2}  {:>12}  {:>12}  {:>9}  {:>10}  {:>9}  {:>10}  {:>10}",
            "k", "P(error)", "P(sim)", "|resid|", "power(nW)", "area(GE)", "bias E[D]", "RMS(D)"
        )?;
        for vp in &points {
            let point = &vp.point;
            writeln!(
                out,
                "{:>2}  {:>12.8}  {:>12.8}  {:>9.1e}  {:>10.0}  {:>9.2}  {:>+10.4}  {:>10.4}",
                point.approximate_bits,
                point.evaluation.error_probability,
                vp.report.stage_error_probability,
                vp.deviation(),
                point.evaluation.power_nw,
                point.evaluation.area_ge,
                point.mean_error_distance,
                point.rms_error_distance,
            )?;
        }
        writeln!(
            out,
            "verified: {} points, exhaustive bit-true simulation, {} threads",
            points.len(),
            threads
        )?;
        return Ok(());
    }

    let points = lsb_sweep(cell.clone(), accurate_cell_with_proxy_costs(), &profile)
        .map_err(CliError::analysis)?;
    writeln!(
        out,
        "{:>2}  {:>12}  {:>10}  {:>9}  {:>10}  {:>10}",
        "k", "P(error)", "power(nW)", "area(GE)", "bias E[D]", "RMS(D)"
    )?;
    for point in &points {
        writeln!(
            out,
            "{:>2}  {:>12.8}  {:>10.0}  {:>9.2}  {:>+10.4}  {:>10.4}",
            point.approximate_bits,
            point.evaluation.error_probability,
            point.evaluation.power_nw,
            point.evaluation.area_ge,
            point.mean_error_distance,
            point.rms_error_distance,
        )?;
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
    fn sweep_has_width_plus_one_rows() {
        let s = run_to_string(&["--width", "6", "--cell", "lpaa5", "--p", "0.5"]).expect("valid");
        let data_rows = s
            .lines()
            .filter(|l| {
                l.trim_start()
                    .chars()
                    .next()
                    .is_some_and(|c| c.is_ascii_digit())
            })
            .count();
        assert_eq!(data_rows, 7);
    }

    #[test]
    fn k0_row_is_exact() {
        let s = run_to_string(&["--width", "4", "--cell", "lpaa1", "--p", "0.5"]).expect("valid");
        let first = s
            .lines()
            .find(|l| l.trim_start().starts_with('0'))
            .expect("k=0 row");
        assert!(first.contains("0.00000000"), "{first}");
    }

    #[test]
    fn verified_sweep_reports_small_residuals() {
        let s = run_to_string(&[
            "--width",
            "6",
            "--cell",
            "lpaa2",
            "--p",
            "0.3",
            "--verify",
            "--threads",
            "2",
        ])
        .expect("valid");
        assert!(s.contains("P(sim)"), "{s}");
        assert!(s.contains("verified: 7 points"), "{s}");
        assert!(s.contains("2 threads"), "{s}");
    }

    #[test]
    fn verified_sweep_rejects_infeasible_width() {
        assert!(run_to_string(&["--width", "17", "--cell", "lpaa1", "--verify"]).is_err());
    }

    #[test]
    fn missing_cell_rejected() {
        assert!(run_to_string(&["--width", "4"]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa sweep"));
    }
}
