//! `sealpaa dse` — budgeted hybrid-adder design-space exploration.

use std::io::Write;

use sealpaa_explore::{
    exhaustive_best_with, exhaustive_designs, local_search_best, pareto_front, Budget,
};
use sealpaa_sim::default_threads;

use crate::args::{parse_candidates, parse_optional, parse_profile, ParsedArgs};
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa dse --width N [options]

Searches per-stage cell assignments (paper Sec. 5's hybrid adders) for the
minimum error probability under an optional power/area budget.

options:
  --width N           adder width (required)
  --candidates A,B,.. candidate cells (default lpaa1,lpaa2,lpaa5,accurate;
                      'accurate' uses the estimated costs from DESIGN.md)
  --p/--pa/--pb/--cin input probabilities, as in `sealpaa analyze`
  --budget-power X    maximum total power in nW
  --budget-area X     maximum total area in GE
  --local             use hill-climbing instead of the exact search
                      (required for large widths/candidate sets)
  --pareto            print the error/power/area Pareto frontier
  --threads T         worker threads for the exhaustive search (default: all
                      available cores; results are identical for any T)";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options, uncosted candidate cells, or an
/// enumeration that exceeds the size cap (use `--local`).
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &[
            "width",
            "candidates",
            "p",
            "pa",
            "pb",
            "cin",
            "budget-power",
            "budget-area",
            "threads",
        ],
        &["local", "pareto"],
    )?;
    let width: usize = args.require("width")?;
    if width == 0 {
        return Err(CliError::usage("--width must be at least 1"));
    }
    let profile = parse_profile(&args, width)?;
    let candidates = parse_candidates(&args, "candidates")?;
    let budget = Budget {
        max_power_nw: parse_optional(&args, "budget-power")?,
        max_area_ge: parse_optional(&args, "budget-area")?,
    };

    writeln!(
        out,
        "candidates: {}",
        candidates
            .iter()
            .map(|c| c.name().to_owned())
            .collect::<Vec<_>>()
            .join(", ")
    )?;
    let threads = args.get_or("threads", default_threads())?;
    let best = if args.flag("local") {
        local_search_best(&candidates, &profile, &budget).map_err(CliError::analysis)?
    } else {
        exhaustive_best_with(&candidates, &profile, &budget, threads).map_err(CliError::analysis)?
    };
    match best {
        None => writeln!(out, "no design fits the budget")?,
        Some(design) => {
            writeln!(out, "best design: {design}")?;
        }
    }
    if args.flag("pareto") {
        let designs =
            exhaustive_designs(&candidates, &profile, threads).map_err(CliError::analysis)?;
        let front = pareto_front(designs);
        writeln!(out, "\nPareto frontier ({} designs):", front.len())?;
        for design in front {
            writeln!(out, "  {design}")?;
        }
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
    fn unconstrained_search_finds_accurate_chain() {
        let s = run_to_string(&["--width", "3", "--p", "0.3"]).expect("valid");
        assert!(s.contains("best design"), "{s}");
        assert!(s.contains("AccuFA (est.)"), "{s}");
    }

    #[test]
    fn tight_budget_forces_cheap_cells() {
        let s =
            run_to_string(&["--width", "3", "--p", "0.3", "--budget-power", "0"]).expect("valid");
        // Only LPAA 5 (0 nW) chains fit a zero budget.
        assert!(s.contains("LPAA 5, LPAA 5, LPAA 5"), "{s}");
    }

    #[test]
    fn local_matches_reasonably() {
        let s = run_to_string(&["--width", "4", "--p", "0.2", "--local"]).expect("valid");
        assert!(s.contains("best design"), "{s}");
    }

    #[test]
    fn pareto_flag_prints_frontier() {
        let s = run_to_string(&["--width", "2", "--pareto"]).expect("valid");
        assert!(s.contains("Pareto frontier"), "{s}");
    }

    #[test]
    fn custom_candidates() {
        let s = run_to_string(&["--width", "2", "--candidates", "lpaa3,lpaa5"]).expect("valid");
        assert!(s.contains("candidates: LPAA 3, LPAA 5"), "{s}");
    }

    #[test]
    fn thread_count_does_not_change_output() {
        let base = &["--width", "4", "--p", "0.3", "--pareto"];
        let mut outputs = Vec::new();
        for threads in ["1", "2", "3"] {
            let tokens: Vec<&str> = base
                .iter()
                .chain(&["--threads", threads])
                .copied()
                .collect();
            outputs.push(run_to_string(&tokens).expect("valid"));
        }
        assert_eq!(outputs[0], outputs[1]);
        assert_eq!(outputs[0], outputs[2]);
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa dse"));
    }
}
