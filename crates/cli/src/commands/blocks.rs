//! `sealpaa blocks` — block-based adder family: analytical error-distance
//! distributions and heterogeneous design-space exploration.

use std::io::Write;

use sealpaa_blocks::{error_distance_distribution, exhaustive_distance_histogram, BlockConfig};
use sealpaa_explore::{
    best_block_design, block_pareto_front, enumerate_block_designs, BlockBudget, BlockObjective,
    BlockSearchSpace,
};

use crate::args::{parse_candidates, parse_optional, parse_profile, parse_threads, ParsedArgs};
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa blocks <subcommand> [options]

Block-based approximate adders: arbitrary per-block widths, carry-prediction
depths, and cells (generalizing GeAr's fixed R/P scheme), with exact
analytical error-distance distributions.

subcommands:
  analyze   ED statistics of one configuration
  sweep     enumerate every in-budget heterogeneous configuration
  pareto    the (mean |ED|, power, area) Pareto frontier of a space

analyze options:
  --config SPEC       'width:depth:cell,...' LSB-first (required), e.g.
                      '4:0:accurate,4:2:lpaa1'
  --p/--pa/--pb/--cin input probabilities, as in `sealpaa analyze`
  --distribution      print the full ED probability mass function
  --cdf               print the ED cumulative distribution function
  --exhaustive        confirm against exhaustive simulation of all operand
                      pairs (requires the default uniform profile)

sweep/pareto options:
  --width N           adder width (required)
  --widths A,B,..     allowed block widths (default 2,4)
  --depths A,B,..     allowed prediction depths (default 0,1,2)
  --cells A,B,..      allowed cells (default lpaa1,lpaa2,lpaa5,accurate;
                      'accurate' uses the estimated costs from DESIGN.md)
  --p/--pa/--pb/--cin input probabilities
  --budget-power X    maximum summed power in nW
  --budget-area X     maximum summed area in GE
  --max-window L      maximum single-block window length (delay proxy)
  --objective OBJ     mean-ed | mse | error-rate (default mean-ed)
  --top K             sweep: print only the K best designs (default 10)
  --threads T         threads, at most the available cores (default: all
                      of them; results are identical for any T)";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options or analysis failure.
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    let Some(sub) = tokens.first() else {
        return Err(CliError::usage(HELP));
    };
    let rest = &tokens[1..];
    match sub.as_str() {
        "--help" | "help" => {
            writeln!(out, "{HELP}")?;
            Ok(())
        }
        "analyze" => analyze(rest, out),
        "sweep" => sweep(rest, out, false),
        "pareto" => sweep(rest, out, true),
        other => Err(CliError::usage(format!(
            "unknown blocks subcommand {other:?}\n\n{HELP}"
        ))),
    }
}

fn analyze<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &["config", "p", "pa", "pb", "cin"],
        &["distribution", "cdf", "exhaustive"],
    )?;
    let config: BlockConfig = args.require("config").map_err(|_| {
        let raw = args.option("config").unwrap_or("");
        match raw.parse::<BlockConfig>() {
            Err(e) if !raw.is_empty() => CliError::usage(format!("--config: {e}")),
            _ => CliError::usage("--config is required ('width:depth:cell,...')"),
        }
    })?;
    let width = config.width();
    let profile = parse_profile(&args, width)?;
    let dist = error_distance_distribution(&config, &profile).map_err(CliError::analysis)?;

    writeln!(out, "config        : {config}")?;
    writeln!(out, "width         : {width}")?;
    writeln!(out, "max window    : {} bits", config.max_window_len())?;
    writeln!(out, "P(error)      : {:.10}", dist.error_rate())?;
    writeln!(out, "E[D]          : {:.6}", dist.mean())?;
    writeln!(out, "E[|D|]        : {:.6}", dist.mean_absolute())?;
    writeln!(out, "E[D^2]        : {:.6}", dist.mean_squared())?;
    if width <= 62 {
        writeln!(
            out,
            "NMED          : {:.3e}",
            dist.normalized_mean_absolute(width)
        )?;
    }
    writeln!(out, "max |D|       : {}", dist.max_absolute_error())?;
    writeln!(out, "support       : {} distances", dist.pmf.len())?;
    if args.flag("distribution") {
        writeln!(out, "\nPMF:")?;
        for (d, p) in &dist.pmf {
            writeln!(out, "  P(D = {d:>8}) = {p:.10}")?;
        }
    }
    if args.flag("cdf") {
        writeln!(out, "\nCDF:")?;
        for (d, p) in dist.cdf() {
            writeln!(out, "  P(D <= {d:>7}) = {p:.10}")?;
        }
    }
    if args.flag("exhaustive") {
        let uniform = (0..width).all(|i| *profile.pa(i) == 0.5 && *profile.pb(i) == 0.5)
            && *profile.p_cin() == 0.5;
        if !uniform {
            return Err(CliError::usage(
                "--exhaustive counts all operand pairs uniformly; drop --p/--pa/--pb/--cin",
            ));
        }
        let report = exhaustive_distance_histogram(&config).map_err(CliError::analysis)?;
        let reference = report.to_distribution::<f64>();
        let matches = reference.pmf == dist.pmf;
        writeln!(
            out,
            "\nexhaustive    : {} cases, {} bit-adds — analytical PMF {}",
            report.work.cases,
            report.work.bit_additions,
            if matches { "CONFIRMED" } else { "MISMATCH" }
        )?;
        if !matches {
            return Err(CliError::analysis(
                "analytical distribution disagrees with exhaustive simulation",
            ));
        }
    }
    Ok(())
}

fn sweep<W: Write>(tokens: &[String], out: &mut W, pareto: bool) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &[
            "width",
            "widths",
            "depths",
            "cells",
            "p",
            "pa",
            "pb",
            "cin",
            "budget-power",
            "budget-area",
            "max-window",
            "objective",
            "top",
            "threads",
        ],
        &[],
    )?;
    let width: usize = args.require("width")?;
    if width == 0 {
        return Err(CliError::usage("--width must be at least 1"));
    }
    let profile = parse_profile(&args, width)?;
    let widths = parse_usize_list(&args, "widths", &[2, 4])?;
    let depths = parse_usize_list(&args, "depths", &[0, 1, 2])?;
    let cells = parse_candidates(&args, "cells")?;
    let space = BlockSearchSpace::new(&widths, &depths, &cells).map_err(CliError::analysis)?;
    let budget = BlockBudget {
        max_power_nw: parse_optional(&args, "budget-power")?,
        max_area_ge: parse_optional(&args, "budget-area")?,
        max_window_len: parse_optional(&args, "max-window")?,
    };
    let objective = match args.option("objective").unwrap_or("mean-ed") {
        "mean-ed" => BlockObjective::MeanAbsolute,
        "mse" => BlockObjective::MeanSquared,
        "error-rate" => BlockObjective::ErrorRate,
        other => {
            return Err(CliError::usage(format!(
                "--objective: unknown objective {other:?} (mean-ed, mse, error-rate)"
            )))
        }
    };
    let threads = parse_threads(&args)?;

    writeln!(
        out,
        "space: widths {:?}, depths {:?}, cells [{}] — {} tilings of width {width}",
        space.widths(),
        space.predictions(),
        space
            .cells()
            .iter()
            .map(|c| c.name().to_owned())
            .collect::<Vec<_>>()
            .join(", "),
        space.design_count(width)
    )?;

    if pareto {
        let designs = enumerate_block_designs(&space, &profile, &budget, threads)
            .map_err(CliError::analysis)?;
        let total = designs.len();
        let front = block_pareto_front(designs);
        writeln!(out, "Pareto frontier over (E|D|, power, area):")?;
        for design in &front {
            writeln!(out, "  {design}")?;
        }
        writeln!(
            out,
            "({} of {total} in-budget designs survive)",
            front.len()
        )?;
        return Ok(());
    }

    let best = best_block_design(&space, &profile, &budget, objective, threads)
        .map_err(CliError::analysis)?;
    match best {
        None => {
            writeln!(out, "no configuration fits the budget")?;
            return Ok(());
        }
        Some(design) => writeln!(out, "best : {design}")?,
    }
    let top: usize = args.get_or("top", 10)?;
    let mut designs =
        enumerate_block_designs(&space, &profile, &budget, threads).map_err(CliError::analysis)?;
    let total = designs.len();
    designs.sort_by(|a, b| {
        objective
            .of(&a.evaluation)
            .total_cmp(&objective.of(&b.evaluation))
    });
    writeln!(
        out,
        "\ntop {} of {total} in-budget designs:",
        top.min(total)
    )?;
    for design in designs.iter().take(top) {
        writeln!(out, "  {design}")?;
    }
    Ok(())
}

fn parse_usize_list(
    args: &ParsedArgs,
    key: &str,
    default: &[usize],
) -> Result<Vec<usize>, CliError> {
    match args.option(key) {
        None => Ok(default.to_vec()),
        Some(raw) => raw
            .split(',')
            .map(|v| {
                v.trim()
                    .parse()
                    .map_err(|_| CliError::usage(format!("--{key}: cannot parse {raw:?}")))
            })
            .collect(),
    }
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
    fn analyze_reports_statistics() {
        let s =
            run_to_string(&["analyze", "--config", "4:0:accurate,4:2:accurate"]).expect("valid");
        assert!(s.contains("blocks(N=8)"), "{s}");
        // Uniform inputs: the carry into bit 4 is 1 w.p. 1/2 and the depth-2
        // predictor misses it w.p. 1/4, so P(error) = 1/8 exactly.
        assert!(s.contains("P(error)      : 0.1250000000"), "{s}");
    }

    #[test]
    fn analyze_exhaustive_confirms() {
        let s = run_to_string(&[
            "analyze",
            "--config",
            "4:0:accurate,2:1:lpaa1,2:2:accurate",
            "--exhaustive",
        ])
        .expect("valid");
        assert!(s.contains("CONFIRMED"), "{s}");
    }

    #[test]
    fn analyze_exhaustive_rejects_biased_profile() {
        let err = run_to_string(&[
            "analyze",
            "--config",
            "4:0:accurate",
            "--p",
            "0.3",
            "--exhaustive",
        ]);
        assert!(err.is_err());
    }

    #[test]
    fn analyze_distribution_and_cdf() {
        let s = run_to_string(&[
            "analyze",
            "--config",
            "2:0:accurate,2:0:accurate",
            "--distribution",
            "--cdf",
        ])
        .expect("valid");
        assert!(s.contains("PMF:"), "{s}");
        assert!(s.contains("CDF:"), "{s}");
        assert!(s.contains("P(D ="), "{s}");
    }

    #[test]
    fn analyze_rejects_bad_config() {
        let err = run_to_string(&["analyze", "--config", "4:9:accurate"]);
        assert!(err.is_err());
        let err = run_to_string(&["analyze"]);
        assert!(err.is_err());
    }

    #[test]
    fn sweep_lists_best_and_top() {
        let s = run_to_string(&[
            "sweep",
            "--width",
            "4",
            "--widths",
            "2,4",
            "--depths",
            "0,1",
            "--cells",
            "lpaa5,accurate",
        ])
        .expect("valid");
        assert!(s.contains("best :"), "{s}");
        assert!(s.contains("in-budget designs:"), "{s}");
    }

    #[test]
    fn sweep_budget_can_be_infeasible() {
        let s = run_to_string(&[
            "sweep",
            "--width",
            "4",
            "--cells",
            "lpaa1",
            "--budget-power",
            "0",
        ])
        .expect("valid");
        assert!(s.contains("no configuration fits the budget"), "{s}");
    }

    #[test]
    fn pareto_lists_frontier() {
        let s = run_to_string(&[
            "pareto",
            "--width",
            "4",
            "--widths",
            "2,4",
            "--depths",
            "0,1",
            "--cells",
            "lpaa2,lpaa5",
        ])
        .expect("valid");
        assert!(s.contains("Pareto frontier"), "{s}");
        assert!(s.contains("designs survive"), "{s}");
    }

    #[test]
    fn sweep_thread_count_does_not_change_output() {
        let base = &["sweep", "--width", "6", "--depths", "0,1,2", "--top", "5"];
        let mut outputs = Vec::new();
        for threads in ["1", "3"] {
            let tokens: Vec<&str> = base
                .iter()
                .chain(&["--threads", threads])
                .copied()
                .collect();
            outputs.push(run_to_string(&tokens).expect("valid"));
        }
        assert_eq!(outputs[0], outputs[1]);
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa blocks"));
        let s = run_to_string(&["analyze", "--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa blocks"));
    }

    #[test]
    fn unknown_subcommand_rejected() {
        assert!(run_to_string(&["bogus"]).is_err());
        assert!(run_to_string(&[]).is_err());
    }
}
