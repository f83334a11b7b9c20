//! `sealpaa datapath` — analytical datapath SNR prediction, simulation,
//! model fitting, and per-adder-node optimization.

use std::io::Write;

use sealpaa_datapath::{Datapath, Signal};
use sealpaa_explore::{best_datapath_assignment, Budget};
use sealpaa_propagate::{check_against_monte_carlo, fit_and_check, predict, topologies};
use sealpaa_sim::default_threads;
use sealpaa_trace::{generate, SynthKind};

use crate::args::{parse_candidates, parse_cell, parse_optional, ParsedArgs};
use crate::error::CliError;
use crate::json::Json;

const HELP: &str = "\
usage: sealpaa datapath <estimate|simulate|fit|optimize> [options]

Composes per-adder error models through a whole datapath graph and
predicts the output error moments and SNR analytically — no simulation in
the loop (and `simulate` for Monte-Carlo ground truth when wanted).

topology options (all actions):
  --topology KIND  fir | conv2d | multiplier (default fir)
  --cell NAME      the adder cell every add node uses (default lpaa5)
  --coeffs LIST    fir taps, comma separated (default 1,2,1)
  --kernel SPEC    conv2d rows, ';' separated (default 1,2,1;2,4,2;1,2,1)
  --width N        input/sample/pixel bits (default 8)
  --p X            P(bit = 1) for every input bit (default 0.5)

estimate:
  --pmf            also compose the full output error PMF (narrow adders)
simulate:
  --samples N      Monte-Carlo samples (default 20000)
  --seed S         RNG seed (default 1)
fit:
  --synth KIND     stream generator: uniform | gaussian-sum | random-walk |
                   image-gradient (default gaussian-sum)
  --length N       stream length (default 20000)
  --seed S         generator seed (default 1)
optimize:
  --candidates A,B,.. candidate cells per adder node (default
                      lpaa1,lpaa2,lpaa5,accurate; 'accurate' uses the
                      estimated costs from DESIGN.md)
  --budget-power X    maximum summed adder power in nW
  --budget-area X     maximum summed adder area in GE
  --threads T         worker threads (default: all cores; results are
                      identical for any T)

common:
  --json           machine-readable output";

fn parse_kernel(spec: &str) -> Result<Vec<Vec<u64>>, CliError> {
    spec.split(';')
        .map(|row| {
            row.split(',')
                .map(|t| {
                    t.parse()
                        .map_err(|_| CliError::usage(format!("--kernel: cannot parse {t:?}")))
                })
                .collect()
        })
        .collect()
}

/// Builds the requested topology and the per-bit input model.
#[allow(clippy::type_complexity)] // one bundle, used by all four actions
fn build(
    args: &ParsedArgs,
) -> Result<(Datapath, Signal, Vec<(String, Vec<f64>)>, usize), CliError> {
    let cell = parse_cell(args.option("cell").unwrap_or("lpaa5"))?;
    let width: usize = args.get_or("width", 8)?;
    if !(1..=32).contains(&width) {
        return Err(CliError::usage("--width must be 1..=32"));
    }
    let p: f64 = args.get_or("p", 0.5)?;
    if !(0.0..=1.0).contains(&p) {
        return Err(CliError::usage("--p must be within [0, 1]"));
    }
    let topology = args.option("topology").unwrap_or("fir");
    let topo = match topology {
        "fir" => {
            let coeffs: Vec<u64> = args
                .option("coeffs")
                .unwrap_or("1,2,1")
                .split(',')
                .map(|t| {
                    t.parse()
                        .map_err(|_| CliError::usage(format!("--coeffs: cannot parse {t:?}")))
                })
                .collect::<Result<_, _>>()?;
            if coeffs.is_empty() || coeffs.iter().all(|&c| c == 0) {
                return Err(CliError::usage("--coeffs needs a non-zero tap"));
            }
            topologies::fir(&cell, &coeffs, width).map_err(CliError::analysis)?
        }
        "conv2d" => {
            let kernel = parse_kernel(args.option("kernel").unwrap_or("1,2,1;2,4,2;1,2,1"))?;
            let cols = kernel.first().map_or(0, Vec::len);
            if cols == 0 || kernel.iter().any(|r| r.len() != cols) {
                return Err(CliError::usage("--kernel rows must be non-empty and equal"));
            }
            if kernel.iter().flatten().all(|&c| c == 0) {
                return Err(CliError::usage("--kernel needs a non-zero coefficient"));
            }
            topologies::conv2d(&cell, &kernel, width).map_err(CliError::analysis)?
        }
        "multiplier" => topologies::multiplier(&cell, width).map_err(CliError::analysis)?,
        other => {
            return Err(CliError::usage(format!(
                "--topology must be fir, conv2d or multiplier, got {other:?}"
            )))
        }
    };
    let inputs: Vec<(String, Vec<f64>)> = topo
        .inputs
        .iter()
        .map(|name| {
            let bits = topo
                .datapath
                .signals()
                .find(|&s| matches!(topo.datapath.kind(s), sealpaa_datapath::NodeKind::Input { name: n } if n == name))
                .map(|s| topo.datapath.width(s))
                .unwrap_or(width);
            (name.clone(), vec![p; bits])
        })
        .collect();
    Ok((topo.datapath, topo.output, inputs, width))
}

fn as_refs(inputs: &[(String, Vec<f64>)]) -> Vec<(&str, Vec<f64>)> {
    inputs
        .iter()
        .map(|(n, b)| (n.as_str(), b.clone()))
        .collect()
}

fn db_or_none(value: Option<f64>) -> Json {
    match value {
        Some(db) => Json::Number(db),
        None => Json::Null,
    }
}

fn db_or_text(value: Option<f64>) -> String {
    match value {
        Some(db) => format!("{db:.2} dB"),
        None => "undefined (error-free)".to_owned(),
    }
}

const TOPOLOGY_OPTIONS: [&str; 6] = ["topology", "cell", "coeffs", "kernel", "width", "p"];

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on unknown actions, bad options, or graphs the
/// engines reject.
pub fn run<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") || tokens.is_empty() {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let action = tokens[0].as_str();
    let rest = &tokens[1..];
    match action {
        "estimate" => estimate(rest, out),
        "simulate" => simulate(rest, out),
        "fit" => fit(rest, out),
        "optimize" => optimize(rest, out),
        other => Err(CliError::usage(format!(
            "unknown datapath action {other:?}\n\n{HELP}"
        ))),
    }
}

fn estimate<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    let args = ParsedArgs::parse(tokens, &TOPOLOGY_OPTIONS, &["json", "pmf"])?;
    let (dp, output, inputs, _) = build(&args)?;
    let refs = as_refs(&inputs);
    let p = predict(&dp, output, &refs, args.flag("pmf")).map_err(CliError::analysis)?;
    let m = &p.moments;
    if args.flag("json") {
        let mut obj = Json::object()
            .field("mse", m.error_second)
            .field("mean_error", m.error_mean)
            .field("signal_power", m.value_second)
            .field("snr_db", db_or_none(m.snr_db()))
            .field("any_adder_error", m.any_adder_error())
            .field(
                "adders",
                Json::Array(
                    m.adders
                        .iter()
                        .map(|a| {
                            Json::object()
                                .field("signal", a.signal.index())
                                .field("error_probability", a.error_probability)
                                .field("mean", a.mean)
                                .field("second", a.second)
                                .build()
                        })
                        .collect(),
                ),
            );
        if let Some(pmf) = &p.pmf {
            obj = obj
                .field("pmf_points", pmf.points().len())
                .field("pmf_truncated_mass", pmf.truncated_mass())
                .field("pmf_max_abs_error", pmf.max_absolute_error());
        }
        writeln!(out, "{}", obj.build().render())?;
        return Ok(());
    }
    writeln!(out, "adders         : {}", m.adders.len())?;
    writeln!(out, "predicted MSE  : {:.4}", m.error_second)?;
    writeln!(out, "predicted bias : {:+.4}", m.error_mean)?;
    writeln!(out, "signal power   : {:.4}", m.value_second)?;
    writeln!(out, "predicted SNR  : {}", db_or_text(m.snr_db()))?;
    writeln!(out, "any adder errs : {:.4}", m.any_adder_error())?;
    for a in &m.adders {
        writeln!(
            out,
            "  adder @#{:<3} P(err)={:.4}  E[D]={:+.3}  E[D^2]={:.3}",
            a.signal.index(),
            a.error_probability,
            a.mean,
            a.second
        )?;
    }
    if let Some(pmf) = &p.pmf {
        writeln!(
            out,
            "error PMF      : {} points, max |D| {}, truncated mass {:.2e}",
            pmf.points().len(),
            pmf.max_absolute_error(),
            pmf.truncated_mass()
        )?;
    }
    Ok(())
}

fn simulate<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    let mut options = TOPOLOGY_OPTIONS.to_vec();
    options.extend(["samples", "seed"]);
    let args = ParsedArgs::parse(tokens, &options, &["json"])?;
    let (dp, output, inputs, _) = build(&args)?;
    let samples: u64 = args.get_or("samples", 20_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let refs = as_refs(&inputs);
    let f =
        check_against_monte_carlo(&dp, output, &refs, samples, seed).map_err(CliError::analysis)?;
    if args.flag("json") {
        writeln!(
            out,
            "{}",
            Json::object()
                .field("samples", f.measured.samples)
                .field("predicted_mse", f.predicted.error_second)
                .field("measured_mse", f.measured.mse)
                .field("predicted_snr_db", db_or_none(f.predicted.snr_db()))
                .field("measured_snr_db", db_or_none(f.measured.snr_db()))
                .field("snr_gap_db", db_or_none(f.snr_gap_db()))
                .field("measured_error_rate", f.measured.error_rate)
                .build()
                .render()
        )?;
        return Ok(());
    }
    writeln!(out, "samples        : {}", f.measured.samples)?;
    writeln!(out, "predicted MSE  : {:.4}", f.predicted.error_second)?;
    writeln!(out, "measured MSE   : {:.4}", f.measured.mse)?;
    writeln!(out, "predicted SNR  : {}", db_or_text(f.predicted.snr_db()))?;
    writeln!(out, "measured SNR   : {}", db_or_text(f.measured.snr_db()))?;
    match f.snr_gap_db() {
        Some(gap) => writeln!(out, "SNR gap        : {gap:+.2} dB")?,
        None => writeln!(out, "SNR gap        : undefined")?,
    }
    writeln!(out, "error rate     : {:.4}", f.measured.error_rate)?;
    Ok(())
}

fn fit<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    let mut options = TOPOLOGY_OPTIONS.to_vec();
    options.extend(["synth", "length", "seed"]);
    let args = ParsedArgs::parse(tokens, &options, &["json"])?;
    let (dp, output, _, width) = build(&args)?;
    let synth: SynthKind = args
        .option("synth")
        .unwrap_or("gaussian-sum")
        .parse()
        .map_err(CliError::analysis)?;
    let length: usize = args.get_or("length", 20_000)?;
    let seed: u64 = args.get_or("seed", 1)?;
    let values: Vec<u64> = generate(synth, width, length, seed)
        .map_err(CliError::analysis)?
        .into_iter()
        .map(|r| r.a)
        .collect();
    let (fits, f) = fit_and_check(&dp, output, &values).map_err(CliError::analysis)?;
    if args.flag("json") {
        writeln!(
            out,
            "{}",
            Json::object()
                .field(
                    "inputs",
                    Json::Array(
                        fits.iter()
                            .map(|fit| {
                                Json::object()
                                    .field("name", fit.name.as_str())
                                    .field(
                                        "bits",
                                        Json::Array(
                                            fit.bits.iter().map(|&b| Json::Number(b)).collect(),
                                        ),
                                    )
                                    .field("independence_violation", fit.independence_violation)
                                    .build()
                            })
                            .collect(),
                    ),
                )
                .field("predicted_snr_db", db_or_none(f.predicted.snr_db()))
                .field("measured_snr_db", db_or_none(f.measured.snr_db()))
                .field("snr_gap_db", db_or_none(f.snr_gap_db()))
                .build()
                .render()
        )?;
        return Ok(());
    }
    writeln!(out, "stream         : {synth} x {length}")?;
    for fit in &fits {
        writeln!(
            out,
            "  input {:<6} p(bit)={}  indep. violation {:.4}",
            fit.name,
            fit.bits
                .iter()
                .map(|b| format!("{b:.2}"))
                .collect::<Vec<_>>()
                .join(","),
            fit.independence_violation
        )?;
    }
    writeln!(out, "predicted SNR  : {}", db_or_text(f.predicted.snr_db()))?;
    writeln!(out, "replayed SNR   : {}", db_or_text(f.measured.snr_db()))?;
    match f.snr_gap_db() {
        Some(gap) => writeln!(out, "SNR gap        : {gap:+.2} dB")?,
        None => writeln!(out, "SNR gap        : undefined")?,
    }
    Ok(())
}

fn optimize<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    let mut options = TOPOLOGY_OPTIONS.to_vec();
    options.extend(["candidates", "budget-power", "budget-area", "threads"]);
    let args = ParsedArgs::parse(tokens, &options, &["json"])?;
    let (dp, output, inputs, _) = build(&args)?;
    let candidates = parse_candidates(&args, "candidates")?;
    let budget = Budget {
        max_power_nw: parse_optional(&args, "budget-power")?,
        max_area_ge: parse_optional(&args, "budget-area")?,
    };
    let threads = args.get_or("threads", default_threads())?;
    let refs = as_refs(&inputs);
    let best = best_datapath_assignment(&dp, output, &refs, &candidates, &budget, threads)
        .map_err(CliError::analysis)?;
    if args.flag("json") {
        let body = match &best {
            None => Json::object().field("feasible", false).build(),
            Some(design) => Json::object()
                .field("feasible", true)
                .field(
                    "cells",
                    Json::Array(
                        design
                            .cells
                            .iter()
                            .map(|c| Json::String(c.name().to_owned()))
                            .collect(),
                    ),
                )
                .field("mse", design.evaluation.mse)
                .field("power_nw", design.evaluation.power_nw)
                .field("area_ge", design.evaluation.area_ge)
                .field("snr_db", db_or_none(design.snr_db()))
                .build(),
        };
        writeln!(out, "{}", body.render())?;
        return Ok(());
    }
    match best {
        None => writeln!(out, "no assignment fits the budget")?,
        Some(design) => {
            writeln!(
                out,
                "best assignment ({} adders): {}",
                design.cells.len(),
                design
                    .cells
                    .iter()
                    .map(|c| c.name().to_owned())
                    .collect::<Vec<_>>()
                    .join(", ")
            )?;
            writeln!(out, "predicted MSE  : {:.4}", design.evaluation.mse)?;
            writeln!(out, "predicted SNR  : {}", db_or_text(design.snr_db()))?;
            writeln!(
                out,
                "cost           : {:.0} nW, {:.2} GE",
                design.evaluation.power_nw, design.evaluation.area_ge
            )?;
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
    fn estimate_reports_snr_and_adders() {
        let s =
            run_to_string(&["estimate", "--cell", "lpaa5", "--coeffs", "1,2,1"]).expect("valid");
        assert!(s.contains("predicted SNR"), "{s}");
        assert!(s.contains("adder @#"), "{s}");
    }

    #[test]
    fn estimate_json_is_parseable() {
        let s = run_to_string(&["estimate", "--json", "--pmf"]).expect("valid");
        let doc = Json::parse(&s).expect("valid JSON");
        assert!(doc.get("snr_db").is_some());
        assert!(doc.get("pmf_points").is_some());
    }

    #[test]
    fn estimate_of_accurate_datapath_is_error_free() {
        let s = run_to_string(&["estimate", "--cell", "accurate"]).expect("valid");
        assert!(s.contains("undefined (error-free)"), "{s}");
    }

    #[test]
    fn simulate_reports_gap() {
        let s =
            run_to_string(&["simulate", "--samples", "2000", "--cell", "lpaa2"]).expect("valid");
        assert!(s.contains("SNR gap"), "{s}");
    }

    #[test]
    fn fit_reports_fitted_bits() {
        let s = run_to_string(&["fit", "--length", "3000", "--cell", "lpaa6"]).expect("valid");
        assert!(s.contains("indep. violation"), "{s}");
        assert!(s.contains("replayed SNR"), "{s}");
    }

    #[test]
    fn optimize_with_tight_power_budget_picks_free_cells() {
        let s = run_to_string(&[
            "optimize",
            "--coeffs",
            "1,1",
            "--candidates",
            "lpaa1,lpaa5",
            "--budget-power",
            "0",
        ])
        .expect("valid");
        // Only LPAA 5 (0 nW) fits a zero budget.
        assert!(s.contains("LPAA 5"), "{s}");
        assert!(!s.contains("LPAA 1"), "{s}");
    }

    #[test]
    fn optimize_is_thread_count_invariant() {
        let base = ["optimize", "--coeffs", "1,2,1", "--width", "6"];
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
    fn multiplier_topology_estimates() {
        let s = run_to_string(&[
            "estimate",
            "--topology",
            "multiplier",
            "--width",
            "4",
            "--cell",
            "lpaa1",
        ])
        .expect("valid");
        assert!(s.contains("predicted SNR"), "{s}");
    }

    #[test]
    fn conv2d_topology_estimates() {
        let s = run_to_string(&[
            "estimate",
            "--topology",
            "conv2d",
            "--kernel",
            "1,2;2,4",
            "--cell",
            "lpaa6",
        ])
        .expect("valid");
        assert!(s.contains("predicted SNR"), "{s}");
    }

    #[test]
    fn unknown_action_rejected() {
        assert!(run_to_string(&["frobnicate"]).is_err());
        assert!(run_to_string(&["estimate", "--topology", "nope"]).is_err());
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa datapath"));
    }
}
