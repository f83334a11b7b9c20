//! `sealpaa trace` — workload traces: synthesis, profiling, replay, and
//! model-fidelity reports.

use std::io::Write;

use sealpaa_cells::AdderChain;
use sealpaa_trace::{
    fidelity, generate, replay_with_backend, write_binary, write_ndjson, BinaryReader,
    NdjsonReader, SynthKind, TraceError, TraceRecord, TraceStats, VarId,
};

use crate::args::{parse_chain_cells, parse_threads, ParsedArgs};
use crate::error::CliError;

const HELP: &str = "\
usage: sealpaa trace <subcommand> [options]

subcommands:
  synth     generate a synthetic workload trace
  profile   stream a trace into per-bit statistics and an empirical profile
  replay    ground-truth error metrics of a trace through an adder
  fidelity  analytical estimates (under the estimated profile) vs replay

trace sources (profile, replay, fidelity):
  --input FILE    read an operand trace (NDJSON; add --binary for binary)
  --synth KIND    generate one in memory instead: uniform, gaussian-sum,
                  random-walk, or image-gradient (needs --width; honours
                  --records and --seed)

common options:
  --width N       operand width (required with --synth)
  --records M     number of records to generate (default 65536)
  --seed S        generator seed (default 0)
  --binary        read/write the compact binary framing instead of NDJSON

synth options:
  --kind KIND     workload family (required; same names as --synth)
  --out FILE      write the trace to FILE instead of standard output

replay/fidelity options:
  --cell/--cells  adder under test, as in `sealpaa analyze` (required)
  --threads T     replay spans, at most 64 (default: cores); they run on
                  at most the available cores, and the report is
                  identical for any T
  --backend B     SIMD backend for replay (replay only): u64, u64x2, avx2,
                  avx512 (default: widest available; see `sealpaa simd`)";

/// Runs the command.
///
/// # Errors
///
/// Returns [`CliError`] on bad options, unreadable traces, or analysis
/// failure.
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
        "synth" => synth(rest, out),
        "profile" => profile(rest, out),
        "replay" => replay_cmd(rest, out),
        "fidelity" => fidelity_cmd(rest, out),
        other => Err(CliError::usage(format!(
            "unknown trace subcommand {other:?}\n\n{HELP}"
        ))),
    }
}

/// Opens `--input FILE` for buffered reading.
fn open_input(path: &str) -> Result<std::io::BufReader<std::fs::File>, CliError> {
    let file = std::fs::File::open(path)
        .map_err(|e| CliError::analysis(format!("cannot open {path}: {e}")))?;
    Ok(std::io::BufReader::new(file))
}

/// Loads the trace records from `--input FILE` or synthesizes them from
/// `--synth KIND`, returning `(width, records)`.
fn load_records(args: &ParsedArgs) -> Result<(usize, Vec<TraceRecord>), CliError> {
    match (args.option("input"), args.option("synth")) {
        (Some(path), None) => {
            let reader = open_input(path)?;
            if args.flag("binary") {
                sealpaa_trace::read_binary(reader).map_err(CliError::analysis)
            } else {
                sealpaa_trace::read_ndjson(reader).map_err(CliError::analysis)
            }
        }
        (None, Some(kind)) => {
            let kind: SynthKind = kind
                .parse()
                .map_err(|_| CliError::usage(format!("--synth: unknown workload {kind:?}")))?;
            let width: usize = args.require("width")?;
            let records: usize = args.get_or("records", 1 << 16)?;
            let seed: u64 = args.get_or("seed", 0)?;
            let records = generate(kind, width, records, seed).map_err(CliError::analysis)?;
            Ok((width, records))
        }
        (None, None) => Err(CliError::usage("one of --input or --synth is required")),
        (Some(_), Some(_)) => Err(CliError::usage(
            "--input and --synth are mutually exclusive",
        )),
    }
}

fn synth<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &["kind", "width", "records", "seed", "out"],
        &["binary"],
    )?;
    let kind: SynthKind = args.require("kind")?;
    let width: usize = args.require("width")?;
    let records: usize = args.get_or("records", 1 << 16)?;
    let seed: u64 = args.get_or("seed", 0)?;
    let trace = generate(kind, width, records, seed).map_err(CliError::analysis)?;
    let emit = |sink: &mut dyn Write| -> Result<(), CliError> {
        if args.flag("binary") {
            write_binary(sink, width, &trace).map_err(CliError::analysis)
        } else {
            write_ndjson(sink, width, trace.iter().copied()).map_err(CliError::analysis)
        }
    };
    match args.option("out") {
        Some(path) => {
            let mut file = std::io::BufWriter::new(
                std::fs::File::create(path)
                    .map_err(|e| CliError::analysis(format!("cannot create {path}: {e}")))?,
            );
            emit(&mut file)?;
            file.flush()?;
            writeln!(
                out,
                "wrote {records} {kind} records (width {width}) to {path}"
            )?;
        }
        None => emit(out)?,
    }
    Ok(())
}

fn profile<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(
        tokens,
        &["input", "synth", "width", "records", "seed"],
        &["binary"],
    )?;
    let stats = profile_stats(&args)?;
    let width = stats.width();
    writeln!(out, "trace: {} records, width {width}", stats.records())?;
    writeln!(out, "\n{:>4}  {:>10}  {:>10}", "bit", "P(a=1)", "P(b=1)")?;
    for bit in 0..width {
        writeln!(
            out,
            "{bit:>4}  {:>10.6}  {:>10.6}",
            stats.p(VarId::A(bit)),
            stats.p(VarId::B(bit))
        )?;
    }
    writeln!(out, "P(cin=1)               : {:.6}", stats.p(VarId::Cin))?;
    match stats.max_violation_pair() {
        Some((x, y, score)) => writeln!(
            out,
            "independence violation : {score:.6} (worst pair {x} ~ {y})"
        )?,
        None => writeln!(out, "independence violation : n/a (empty trace)")?,
    }
    Ok(())
}

/// The statistics of the profiled trace. A `--input` file streams through
/// its bounded reader straight into the counts, so memory stays bounded
/// however many records it holds; `--synth` records are counted in memory.
fn profile_stats(args: &ParsedArgs) -> Result<TraceStats, CliError> {
    match (args.option("input"), args.option("synth")) {
        (Some(path), None) => {
            let input = open_input(path)?;
            if args.flag("binary") {
                let reader = BinaryReader::new(input).map_err(CliError::analysis)?;
                stream_stats(reader.width(), reader)
            } else {
                let reader = NdjsonReader::new(input).map_err(CliError::analysis)?;
                stream_stats(reader.width(), reader)
            }
        }
        _ => {
            let (width, records) = load_records(args)?;
            TraceStats::from_records(width, &records).map_err(CliError::analysis)
        }
    }
}

/// Folds a reader's records into fresh statistics, stopping at its first
/// error.
fn stream_stats(
    width: usize,
    reader: impl Iterator<Item = Result<TraceRecord, TraceError>>,
) -> Result<TraceStats, CliError> {
    let mut stats = TraceStats::new(width).map_err(CliError::analysis)?;
    let mut failure = None;
    stats.extend(reader.map_while(|item| item.map_err(|e| failure = Some(e)).ok()));
    match failure {
        Some(e) => Err(CliError::analysis(e)),
        None => Ok(stats),
    }
}

/// Parses the adder chain and thread count shared by `replay` and
/// `fidelity`, using the trace's own width.
fn parse_chain_and_threads(
    args: &ParsedArgs,
    width: usize,
) -> Result<(AdderChain, usize), CliError> {
    let chain = AdderChain::from_stages(parse_chain_cells(args, width)?);
    let threads = parse_threads(args)?;
    Ok((chain, threads))
}

const SOURCE_AND_CHAIN_OPTIONS: [&str; 8] = [
    "input", "synth", "width", "records", "seed", "cell", "cells", "threads",
];

const REPLAY_OPTIONS: [&str; 9] = [
    "input", "synth", "width", "records", "seed", "cell", "cells", "threads", "backend",
];

fn replay_cmd<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(tokens, &REPLAY_OPTIONS, &["binary"])?;
    let backend = match args.option("backend") {
        Some(name) => Some(
            name.parse::<sealpaa_sim::Backend>()
                .map_err(|e| CliError::usage(format!("--backend: {e}")))?,
        ),
        None => None,
    };
    let (width, records) = load_records(&args)?;
    let (chain, threads) = parse_chain_and_threads(&args, width)?;
    let report =
        replay_with_backend(&chain, &records, threads, backend).map_err(CliError::analysis)?;
    writeln!(out, "adder: {chain}")?;
    writeln!(out, "records                : {}", report.records)?;
    writeln!(
        out,
        "output error rate      : {:.6} ({} records)",
        report.output_error_rate(),
        report.output_errors
    )?;
    writeln!(
        out,
        "stage error rate       : {:.6} ({} records)",
        report.stage_error_rate(),
        report.stage_errors
    )?;
    writeln!(
        out,
        "E[D]   (bias)          : {:+.6}",
        report.mean_error_distance()
    )?;
    writeln!(
        out,
        "E[|D|] (MED)           : {:.6}",
        report.mean_absolute_error_distance()
    )?;
    writeln!(
        out,
        "E[D^2] (MSE)           : {:.6}",
        report.mean_squared_error_distance()
    )?;
    writeln!(out, "max |D|                : {}", report.max_abs_ed)?;
    Ok(())
}

fn fidelity_cmd<W: Write>(tokens: &[String], out: &mut W) -> Result<(), CliError> {
    if tokens.iter().any(|t| t == "--help") {
        writeln!(out, "{HELP}")?;
        return Ok(());
    }
    let args = ParsedArgs::parse(tokens, &SOURCE_AND_CHAIN_OPTIONS, &["binary"])?;
    let (width, records) = load_records(&args)?;
    let (chain, threads) = parse_chain_and_threads(&args, width)?;
    let report = fidelity(&chain, &records, threads).map_err(CliError::analysis)?;
    writeln!(out, "adder: {chain}")?;
    writeln!(out, "records                : {}", report.records)?;
    writeln!(
        out,
        "independence violation : {:.6}",
        report.independence_violation
    )?;
    writeln!(
        out,
        "\n{:<22}  {:>12}  {:>12}  {:>10}",
        "metric", "analytical", "replayed", "gap"
    )?;
    let mut row = |name: &str, analytical: f64, replayed: f64| -> std::io::Result<()> {
        writeln!(
            out,
            "{name:<22}  {analytical:>12.6}  {replayed:>12.6}  {:>10.6}",
            (analytical - replayed).abs()
        )
    };
    row(
        "P(stage error)",
        report.analytical_stage_error,
        report.replay.stage_error_rate(),
    )?;
    row(
        "P(output error)",
        report.analytical_output_error,
        report.replay.output_error_rate(),
    )?;
    row(
        "E[D] (bias)",
        report.analytical_mean_ed,
        report.replay.mean_error_distance(),
    )?;
    if let Some(med) = report.analytical_med {
        row(
            "E[|D|] (MED)",
            med,
            report.replay.mean_absolute_error_distance(),
        )?;
    }
    row(
        "E[D^2] (MSE)",
        report.analytical_mse,
        report.replay.mean_squared_error_distance(),
    )?;
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

    fn temp_path(name: &str) -> std::path::PathBuf {
        let mut path = std::env::temp_dir();
        path.push(format!("sealpaa-cli-trace-{}-{name}", std::process::id()));
        path
    }

    #[test]
    fn help_prints_usage() {
        let s = run_to_string(&["--help"]).expect("valid");
        assert!(s.contains("usage: sealpaa trace"));
        assert!(run_to_string(&[]).is_err());
        assert!(run_to_string(&["bogus"]).is_err());
    }

    #[test]
    fn synth_emits_ndjson_to_stdout() {
        let s = run_to_string(&[
            "synth",
            "--kind",
            "uniform",
            "--width",
            "4",
            "--records",
            "3",
            "--seed",
            "1",
        ])
        .expect("valid");
        assert!(s.contains("\"sealpaa_trace\":1"), "{s}");
        assert_eq!(s.lines().count(), 4, "{s}");
    }

    #[test]
    fn synth_profile_round_trip_through_a_file() {
        let path = temp_path("roundtrip.ndjson");
        let path_str = path.to_str().expect("utf8 path");
        let s = run_to_string(&[
            "synth",
            "--kind",
            "image-gradient",
            "--width",
            "8",
            "--records",
            "256",
            "--out",
            path_str,
        ])
        .expect("valid");
        assert!(s.contains("wrote 256 image-gradient records"), "{s}");
        let s = run_to_string(&["profile", "--input", path_str]).expect("valid");
        std::fs::remove_file(&path).expect("cleanup");
        assert!(s.contains("trace: 256 records, width 8"), "{s}");
        assert!(s.contains("independence violation"), "{s}");
    }

    #[test]
    fn binary_round_trip_replays() {
        let path = temp_path("roundtrip.bin");
        let path_str = path.to_str().expect("utf8 path");
        run_to_string(&[
            "synth",
            "--kind",
            "uniform",
            "--width",
            "6",
            "--records",
            "128",
            "--binary",
            "--out",
            path_str,
        ])
        .expect("valid");
        let s = run_to_string(&[
            "replay",
            "--input",
            path_str,
            "--binary",
            "--cell",
            "lpaa2",
            "--threads",
            "2",
        ])
        .expect("valid");
        std::fs::remove_file(&path).expect("cleanup");
        assert!(s.contains("records                : 128"), "{s}");
        assert!(s.contains("output error rate"), "{s}");
    }

    #[test]
    fn replay_output_is_identical_on_every_backend() {
        let run_backend = |name: &str| {
            run_to_string(&[
                "replay",
                "--synth",
                "random-walk",
                "--width",
                "10",
                "--records",
                "1000",
                "--cell",
                "lpaa5",
                "--backend",
                name,
            ])
            .expect("valid")
        };
        let baseline = run_backend("u64");
        for backend in sealpaa_sim::Backend::available() {
            assert_eq!(run_backend(backend.name()), baseline, "{backend}");
        }
        assert!(run_to_string(&[
            "replay",
            "--synth",
            "uniform",
            "--width",
            "4",
            "--cell",
            "lpaa1",
            "--backend",
            "bogus"
        ])
        .is_err());
    }

    #[test]
    fn fidelity_on_synthetic_trace() {
        let s = run_to_string(&[
            "fidelity",
            "--synth",
            "random-walk",
            "--width",
            "8",
            "--records",
            "4096",
            "--cell",
            "lpaa2",
            "--threads",
            "1",
        ])
        .expect("valid");
        assert!(s.contains("independence violation"), "{s}");
        assert!(s.contains("P(output error)"), "{s}");
        assert!(s.contains("E[|D|] (MED)"), "{s}");
    }

    #[test]
    fn replay_of_accurate_chain_never_errs() {
        let s = run_to_string(&[
            "replay",
            "--synth",
            "gaussian-sum",
            "--width",
            "10",
            "--records",
            "512",
            "--cell",
            "accurate",
        ])
        .expect("valid");
        assert!(s.contains("output error rate      : 0.000000"), "{s}");
    }

    #[test]
    fn source_must_be_exactly_one() {
        assert!(run_to_string(&["replay", "--cell", "lpaa1"]).is_err());
        assert!(
            run_to_string(&["profile", "--input", "x", "--synth", "uniform", "--width", "4"])
                .is_err()
        );
        assert!(run_to_string(&["profile", "--synth", "nonsense", "--width", "4"]).is_err());
    }
}
