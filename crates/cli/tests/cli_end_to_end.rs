//! End-to-end tests that execute the compiled `sealpaa` binary.

use std::process::Command;

fn sealpaa(args: &[&str]) -> (String, String, Option<i32>) {
    let output = Command::new(env!("CARGO_BIN_EXE_sealpaa"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
        output.status.code(),
    )
}

#[test]
fn no_arguments_prints_usage_and_fails() {
    let (_, stderr, code) = sealpaa(&[]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("usage: sealpaa"));
}

#[test]
fn unknown_command_fails() {
    let (_, stderr, code) = sealpaa(&["frobnicate"]);
    assert_eq!(code, Some(2));
    assert!(stderr.contains("unknown command"));
}

#[test]
fn help_succeeds() {
    let (stdout, _, code) = sealpaa(&["help"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("commands:"));
}

#[test]
fn full_paper_workflow() {
    // Table 4's example through the real binary, exact mode.
    let (stdout, _, code) = sealpaa(&[
        "analyze",
        "--width",
        "4",
        "--cell",
        "lpaa1",
        "--pa",
        "0.9,0.5,0.4,0.8",
        "--pb",
        "0.8,0.7,0.6,0.9",
        "--cin",
        "0.5",
        "--exact",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("184619/250000"), "{stdout}");
    assert!(stdout.contains("0.7384760000"), "{stdout}");
}

#[test]
fn analyze_and_simulate_agree() {
    let analyze = sealpaa(&["analyze", "--width", "4", "--cell", "lpaa6", "--p", "0.25"]).0;
    let simulate = sealpaa(&[
        "simulate",
        "--width",
        "4",
        "--cell",
        "lpaa6",
        "--p",
        "0.25",
        "--exhaustive",
    ])
    .0;
    let grab = |s: &str, prefix: &str| -> f64 {
        s.lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_else(|| panic!("missing {prefix} in {s}"))
            .split(&[':', '='][..])
            .nth(1)
            .expect("value")
            .trim()
            .split(' ')
            .next()
            .expect("number")
            .parse()
            .expect("f64")
    };
    let analytical = grab(&analyze, "P(error)");
    let simulated = grab(&simulate, "P(stage error)");
    assert!((analytical - simulated).abs() < 1e-9);
}

#[test]
fn gear_command_runs() {
    let (stdout, _, code) = sealpaa(&[
        "gear",
        "--n",
        "16",
        "--r",
        "4",
        "--overlap",
        "4",
        "--baselines",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("GeAr(N=16, R=4, P=4)"));
    assert!(stdout.contains("incl-excl"));
}

#[test]
fn gear_outputs_are_pinned() {
    // Every byte of the (R, P) frontier, the per-block and baseline
    // figures, and the emitted netlist.
    for (args, expected) in [
        (
            &["gear", "--n", "16", "--pareto"][..],
            include_str!("golden/gear_pareto_n16.txt"),
        ),
        (
            &[
                "gear",
                "--n",
                "16",
                "--r",
                "2",
                "--overlap",
                "2",
                "--blocks",
                "--baselines",
            ][..],
            include_str!("golden/gear_n16_r2_p2_blocks_baselines.txt"),
        ),
        (
            &["verilog", "--gear", "8,2,2"][..],
            include_str!("golden/verilog_gear_8_2_2.txt"),
        ),
    ] {
        let (stdout, stderr, code) = sealpaa(args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert_eq!(stdout, expected, "{args:?}");
    }
}

#[test]
fn gear_baselines_refuse_31_fallible_blocks_without_a_panic() {
    // GeAr(32, 1, 0) has 31 fallible sub-adders: 2^31 − 1 subset terms.
    let (stdout, stderr, code) = sealpaa(&[
        "gear",
        "--n",
        "32",
        "--r",
        "1",
        "--overlap",
        "0",
        "--baselines",
    ]);
    assert_eq!(code, Some(2), "{stdout}{stderr}");
    assert!(
        stderr.contains("inclusion-exclusion over 31 fallible sub-adders refused (at most 24)"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
}

#[test]
fn sweep_command_runs() {
    let (stdout, _, code) = sealpaa(&["sweep", "--width", "4", "--cell", "lpaa5"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("LSB sweep"));
}

#[test]
fn dse_command_runs() {
    let (stdout, _, code) =
        sealpaa(&["dse", "--width", "3", "--p", "0.2", "--budget-power", "600"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("best design"), "{stdout}");
}

#[test]
fn dse_outputs_are_pinned() {
    // Budgeted searches over power and over area, and the Pareto frontier,
    // as the exhaustive enumeration printed them before the search pruned.
    let w8 = [
        "dse",
        "--width",
        "8",
        "--candidates",
        "lpaa1,lpaa2,lpaa3,lpaa4,lpaa5,accurate",
        "--p",
        "0.3",
    ];
    for (args, expected) in [
        (
            [&w8[..], &["--budget-power", "4320", "--threads", "2"]].concat(),
            include_str!("golden/dse_w8_power4320.txt"),
        ),
        (
            [&w8[..], &["--budget-area", "20", "--threads", "1"]].concat(),
            include_str!("golden/dse_w8_area20.txt"),
        ),
        (
            vec!["dse", "--width", "4", "--pareto"],
            include_str!("golden/dse_w4_pareto.txt"),
        ),
    ] {
        let (stdout, stderr, code) = sealpaa(&args);
        assert_eq!(code, Some(0), "{args:?}: {stderr}");
        assert_eq!(stdout, expected, "{args:?}");
    }
}

#[test]
fn magnitude_with_distribution() {
    let (stdout, _, code) = sealpaa(&[
        "magnitude",
        "--width",
        "2",
        "--cell",
        "lpaa1",
        "--distribution",
        "--tail",
        "2",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("RMS error distance"));
    assert!(stdout.contains("P(|D| > 2)"));
    // Every byte is pinned: the tail mass and the PMF rows are read off
    // the one error-distance distribution type.
    assert_eq!(
        stdout,
        concat!(
            "adder: 2-bit chain [LPAA 1, LPAA 1]\n",
            "E[D]   (bias)     : +0.000000\n",
            "E[D^2]            : 1.000000\n",
            "Var[D]            : 1.000000\n",
            "RMS error distance: 1.000000\n",
            "P(|D| > 2)        : 0.03125000\n",
            "\n",
            "           D  probability\n",
            "          -3  0.03125000\n",
            "          -2  0.06250000\n",
            "          -1  0.06250000\n",
            "           0  0.62500000\n",
            "           1  0.15625000\n",
            "           2  0.06250000\n",
        )
    );
}

#[test]
fn blocks_analyze_prints_the_pmf_cdf_and_exhaustive_check() {
    let (stdout, stderr, code) = sealpaa(&[
        "blocks",
        "analyze",
        "--config",
        "4:0:accurate,2:1:lpaa1,2:2:lpaa2",
        "--distribution",
        "--cdf",
        "--exhaustive",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        concat!(
            "config        : blocks(N=8)[4:0:AccuFA, 2:1:LPAA 1, 2:2:LPAA 2]\n",
            "width         : 8\n",
            "max window    : 4 bits\n",
            "P(error)      : 0.7568359375\n",
            "E[D]          : -10.000000\n",
            "E[|D|]        : 54.750000\n",
            "E[D^2]        : 6000.000000\n",
            "NMED          : 1.071e-1\n",
            "max |D|       : 224\n",
            "support       : 28 distances\n",
            "\n",
            "PMF:\n",
            "  P(D =     -224) = 0.0004882812\n",
            "  P(D =     -208) = 0.0034179688\n",
            "  P(D =     -192) = 0.0229492188\n",
            "  P(D =     -176) = 0.0131835938\n",
            "  P(D =     -160) = 0.0073242188\n",
            "  P(D =     -144) = 0.0102539062\n",
            "  P(D =     -128) = 0.0395507812\n",
            "  P(D =     -112) = 0.0122070312\n",
            "  P(D =      -96) = 0.0014648438\n",
            "  P(D =      -80) = 0.0102539062\n",
            "  P(D =      -64) = 0.1157226562\n",
            "  P(D =      -48) = 0.0922851562\n",
            "  P(D =      -32) = 0.0615234375\n",
            "  P(D =      -16) = 0.0615234375\n",
            "  P(D =        0) = 0.2431640625\n",
            "  P(D =       16) = 0.0966796875\n",
            "  P(D =       32) = 0.0190429688\n",
            "  P(D =       48) = 0.0102539062\n",
            "  P(D =       64) = 0.0434570312\n",
            "  P(D =       80) = 0.0278320312\n",
            "  P(D =       96) = 0.0131835938\n",
            "  P(D =      112) = 0.0102539062\n",
            "  P(D =      128) = 0.0415039062\n",
            "  P(D =      144) = 0.0200195312\n",
            "  P(D =      160) = 0.0063476562\n",
            "  P(D =      176) = 0.0034179688\n",
            "  P(D =      192) = 0.0092773438\n",
            "  P(D =      208) = 0.0034179688\n",
            "\n",
            "CDF:\n",
            "  P(D <=    -224) = 0.0004882812\n",
            "  P(D <=    -208) = 0.0039062500\n",
            "  P(D <=    -192) = 0.0268554688\n",
            "  P(D <=    -176) = 0.0400390625\n",
            "  P(D <=    -160) = 0.0473632812\n",
            "  P(D <=    -144) = 0.0576171875\n",
            "  P(D <=    -128) = 0.0971679688\n",
            "  P(D <=    -112) = 0.1093750000\n",
            "  P(D <=     -96) = 0.1108398438\n",
            "  P(D <=     -80) = 0.1210937500\n",
            "  P(D <=     -64) = 0.2368164062\n",
            "  P(D <=     -48) = 0.3291015625\n",
            "  P(D <=     -32) = 0.3906250000\n",
            "  P(D <=     -16) = 0.4521484375\n",
            "  P(D <=       0) = 0.6953125000\n",
            "  P(D <=      16) = 0.7919921875\n",
            "  P(D <=      32) = 0.8110351562\n",
            "  P(D <=      48) = 0.8212890625\n",
            "  P(D <=      64) = 0.8647460938\n",
            "  P(D <=      80) = 0.8925781250\n",
            "  P(D <=      96) = 0.9057617188\n",
            "  P(D <=     112) = 0.9160156250\n",
            "  P(D <=     128) = 0.9575195312\n",
            "  P(D <=     144) = 0.9775390625\n",
            "  P(D <=     160) = 0.9838867188\n",
            "  P(D <=     176) = 0.9873046875\n",
            "  P(D <=     192) = 0.9965820312\n",
            "  P(D <=     208) = 1.0000000000\n",
            "\n",
            "exhaustive    : 131072 cases, 2490368 bit-adds — analytical PMF CONFIRMED\n",
        )
    );
}

#[test]
fn blocks_exhaustive_names_its_width_limit() {
    let (stdout, stderr, code) = sealpaa(&[
        "blocks",
        "analyze",
        "--config",
        "8:0:accurate,7:2:accurate",
        "--exhaustive",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(
        stderr.contains("exhaustive enumeration supports at most 14 bits, got 15"),
        "{stderr}"
    );
}

#[test]
fn simulate_refuses_chains_past_the_monte_carlo_limit() {
    let (stdout, stderr, code) = sealpaa(&[
        "simulate",
        "--width",
        "64",
        "--cell",
        "lpaa1",
        "--samples",
        "1000",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert!(stderr.contains("at most 62 bits"), "{stderr}");
}

#[test]
fn worst_case_names_its_width_limit() {
    let (stdout, stderr, code) = sealpaa(&[
        "magnitude",
        "--width",
        "64",
        "--cell",
        "lpaa1",
        "--worst-case",
    ]);
    assert_eq!(code, Some(2), "{stdout}");
    assert_eq!(
        stderr,
        "analysis failed: 64-bit adders are refused: this analysis supports at most 63 bits\n"
    );
}

#[test]
fn every_parallel_command_refuses_zero_threads() {
    for command in [
        "simulate --width 4 --cell lpaa1 --samples 1000",
        "dse --width 3",
        "blocks sweep --width 4",
        "datapath optimize",
        "trace replay --synth uniform --width 4 --cell lpaa1",
        "sweep --width 4 --cell lpaa1",
    ] {
        let args: Vec<&str> = command.split(' ').chain(["--threads", "0"]).collect();
        let (_, stderr, code) = sealpaa(&args);
        assert_eq!(code, Some(2), "{command}");
        assert_eq!(stderr, "--threads must be at least 1\n", "{command}");
    }
}

#[test]
fn multiplier_command_runs() {
    let (stdout, _, code) = sealpaa(&[
        "multiplier",
        "--width",
        "6",
        "--cell",
        "lpaa6",
        "--samples",
        "2000",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("MRED"), "{stdout}");
    // Every byte is pinned: the accumulator's approximate sums feed each
    // figure.
    assert_eq!(
        stdout,
        concat!(
            "multiplier : 6x6 shift-add, LPAA 6 accumulator\n",
            "samples    : 2000\n",
            "error rate : 0.692000\n",
            "MRED       : 0.231547\n",
            "max |error|: 2604\n",
        )
    );
}

#[test]
fn fir_command_runs() {
    let (stdout, _, code) = sealpaa(&[
        "fir", "--cell", "lpaa6", "--taps", "1,2,1", "--length", "300",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("PSNR"), "{stdout}");
    assert_eq!(
        stdout,
        concat!(
            "filter       : 3 taps [1, 2, 1], LPAA 6 accumulator\n",
            "outputs      : 300\n",
            "wrong outputs: 299 (0.9967)\n",
            "MSE          : 94773.8533\n",
            "PSNR         : 8.97 dB\n",
            "max |error|  : 504\n",
        )
    );
}

#[test]
fn fir_rejects_a_coefficient_sum_past_64_bits() {
    for taps in [
        "18446744073709551615,2",
        "9223372036854775808,9223372036854775808",
    ] {
        let (_, stderr, code) = sealpaa(&["fir", "--cell", "accurate", "--taps", taps]);
        assert_eq!(code, Some(2), "{taps}: {stderr}");
        assert!(
            stderr.contains("exceeds the 63-bit evaluation limit"),
            "{taps}: {stderr}"
        );
    }
}

#[test]
fn verilog_command_emits_module() {
    let (stdout, _, code) =
        sealpaa(&["verilog", "--width", "3", "--cells", "lpaa1,lpaa5,accurate"]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("module approx_adder_3"), "{stdout}");
    assert!(stdout.trim_end().ends_with("endmodule"), "{stdout}");
}

#[test]
fn custom_truth_table_cell_via_binary() {
    // The accurate adder expressed as a custom table: zero error.
    let (stdout, _, code) = sealpaa(&[
        "analyze",
        "--width",
        "3",
        "--cell",
        "01101001/00010111",
        "--p",
        "0.5",
    ]);
    assert_eq!(code, Some(0));
    assert!(stdout.contains("P(error)   = 0.0000000000"), "{stdout}");
}

#[test]
fn binary_trace_files_read_back_as_the_synthesized_trace() {
    let dir = std::env::temp_dir().join(format!("sealpaa-cli-binary-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let trace = dir.join("walk.trace");
    let cut = dir.join("cut.trace");
    let (trace_path, cut_path) = (
        trace.to_str().expect("UTF-8 path"),
        cut.to_str().expect("UTF-8 path"),
    );
    let source = [
        "random-walk",
        "--width",
        "12",
        "--records",
        "5000",
        "--seed",
        "3",
    ];
    let synth = [
        &["trace", "synth", "--kind"],
        &source[..],
        &["--binary", "--out", trace_path],
    ];
    let (_, stderr, code) = sealpaa(&synth.concat());
    assert_eq!(code, Some(0), "{stderr}");

    for command in [
        &["trace", "replay", "--cell", "lpaa2"][..],
        &["trace", "profile"],
    ] {
        let (from_file, stderr, code) =
            sealpaa(&[command, &["--input", trace_path, "--binary"]].concat());
        assert_eq!(code, Some(0), "{stderr}");
        let (in_memory, _, _) = sealpaa(&[command, &["--synth"], &source[..]].concat());
        assert_eq!(from_file, in_memory, "{command:?}");
    }

    let mut bytes = std::fs::read(&trace).expect("read the trace");
    bytes.pop();
    std::fs::write(&cut, bytes).expect("write the cut trace");
    let (_, stderr, code) = sealpaa(&[
        "trace", "replay", "--input", cut_path, "--binary", "--cell", "lpaa2",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(stderr.contains("trace line 5001: short record"), "{stderr}");
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

/// Runs the binary with `input` on standard input.
fn sealpaa_with_stdin(args: &[&str], input: &str) -> (String, String, Option<i32>) {
    use std::io::Write as _;
    let mut child = Command::new(env!("CARGO_BIN_EXE_sealpaa"))
        .args(args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("binary runs");
    child
        .stdin
        .take()
        .expect("piped stdin")
        .write_all(input.as_bytes())
        .expect("write stdin");
    let output = child.wait_with_output().expect("binary exits");
    (
        String::from_utf8(output.stdout).expect("utf8 stdout"),
        String::from_utf8(output.stderr).expect("utf8 stderr"),
        output.status.code(),
    )
}

#[test]
fn trace_profile_streams_files_to_pinned_output() {
    // One NDJSON file at a width that packs both operands into one word and
    // one binary file at a width that does not; both record counts leave a
    // partial 64-record block.
    let dir = std::env::temp_dir().join(format!("sealpaa-cli-profile-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let ndjson = dir.join("gauss.ndjson");
    let binary = dir.join("image.trace");
    let (ndjson_path, binary_path) = (
        ndjson.to_str().expect("UTF-8 path"),
        binary.to_str().expect("UTF-8 path"),
    );
    for synth in [
        &[
            "--kind",
            "gaussian-sum",
            "--width",
            "13",
            "--records",
            "3000",
            "--seed",
            "5",
            "--out",
            ndjson_path,
        ][..],
        &[
            "--kind",
            "image-gradient",
            "--width",
            "40",
            "--records",
            "2500",
            "--seed",
            "9",
            "--binary",
            "--out",
            binary_path,
        ],
    ] {
        let (_, stderr, code) = sealpaa(&[&["trace", "synth"], synth].concat());
        assert_eq!(code, Some(0), "{stderr}");
    }

    let (stdout, stderr, code) = sealpaa(&["trace", "profile", "--input", ndjson_path]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        concat!(
            "trace: 3000 records, width 13\n",
            "\n",
            " bit      P(a=1)      P(b=1)\n",
            "   0    0.507000    0.495333\n",
            "   1    0.510333    0.502333\n",
            "   2    0.510333    0.496333\n",
            "   3    0.479333    0.501667\n",
            "   4    0.481000    0.511333\n",
            "   5    0.500333    0.496667\n",
            "   6    0.494000    0.503333\n",
            "   7    0.508000    0.501000\n",
            "   8    0.511000    0.512667\n",
            "   9    0.496667    0.488667\n",
            "  10    0.502000    0.503000\n",
            "  11    0.505667    0.497667\n",
            "  12    0.489667    0.508333\n",
            "P(cin=1)               : 0.000000\n",
            "independence violation : 0.210941 (worst pair a[11] ~ a[12])\n",
        )
    );

    let (stdout, stderr, code) = sealpaa(&["trace", "profile", "--input", binary_path, "--binary"]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        concat!(
            "trace: 2500 records, width 40\n",
            "\n",
            " bit      P(a=1)      P(b=1)\n",
            "   0    0.508000    0.498800\n",
            "   1    0.496800    0.504800\n",
            "   2    0.495200    0.504400\n",
            "   3    0.501600    0.490800\n",
            "   4    0.523200    0.489600\n",
            "   5    0.483600    0.518800\n",
            "   6    0.506800    0.508000\n",
            "   7    0.506800    0.504400\n",
            "   8    0.493600    0.500000\n",
            "   9    0.498000    0.483600\n",
            "  10    0.031200    0.032000\n",
            "  11    0.028800    0.032400\n",
            "  12    0.027200    0.035600\n",
            "  13    0.028400    0.032000\n",
            "  14    0.020400    0.028000\n",
            "  15    0.026400    0.031200\n",
            "  16    0.026800    0.032800\n",
            "  17    0.027200    0.034800\n",
            "  18    0.024000    0.032400\n",
            "  19    0.028400    0.034000\n",
            "  20    0.026400    0.031200\n",
            "  21    0.025600    0.029200\n",
            "  22    0.027200    0.028800\n",
            "  23    0.027200    0.033200\n",
            "  24    0.026000    0.031200\n",
            "  25    0.028000    0.031200\n",
            "  26    0.026400    0.032800\n",
            "  27    0.028800    0.035200\n",
            "  28    0.029600    0.029200\n",
            "  29    0.027200    0.030800\n",
            "  30    0.025200    0.030400\n",
            "  31    0.025600    0.038000\n",
            "  32    0.023600    0.033600\n",
            "  33    0.030400    0.036000\n",
            "  34    0.028000    0.037200\n",
            "  35    0.021600    0.032000\n",
            "  36    0.028000    0.030400\n",
            "  37    0.033600    0.033200\n",
            "  38    0.028400    0.028800\n",
            "  39    0.025200    0.034400\n",
            "P(cin=1)               : 0.000000\n",
            "independence violation : 0.021861 (worst pair b[33] ~ b[34])\n",
        )
    );
    std::fs::remove_dir_all(&dir).expect("remove temp dir");
}

#[test]
fn trace_replay_output_is_pinned_at_widths_8_and_33() {
    let (stdout, stderr, code) = sealpaa(&[
        "trace",
        "replay",
        "--synth",
        "uniform",
        "--width",
        "8",
        "--records",
        "5000",
        "--seed",
        "1",
        "--cell",
        "lpaa2",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        concat!(
            "adder: 8-bit chain [LPAA 2, LPAA 2, LPAA 2, LPAA 2, LPAA 2, LPAA 2, LPAA 2, LPAA 2]\n",
            "records                : 5000\n",
            "output error rate      : 0.904200 (4521 records)\n",
            "stage error rate       : 0.904200 (4521 records)\n",
            "E[D]   (bias)          : -1.460400\n",
            "E[|D|] (MED)           : 59.746400\n",
            "E[D^2] (MSE)           : 7154.222800\n",
            "max |D|                : 253\n",
        )
    );

    // Past 32 bits the operands no longer share a transpose word, and the
    // error magnitudes reach bit 33.
    let (stdout, stderr, code) = sealpaa(&[
        "trace",
        "replay",
        "--synth",
        "gaussian-sum",
        "--width",
        "33",
        "--records",
        "3000",
        "--seed",
        "2",
        "--cell",
        "lpaa6",
    ]);
    assert_eq!(code, Some(0), "{stderr}");
    assert_eq!(
        stdout,
        concat!(
            "adder: 33-bit chain [LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6, LPAA 6]\n",
            "records                : 3000\n",
            "output error rate      : 1.000000 (3000 records)\n",
            "stage error rate       : 1.000000 (3000 records)\n",
            "E[D]   (bias)          : -4322885585.376667\n",
            "E[|D|] (MED)           : 4322885585.376667\n",
            "E[D^2] (MSE)           : 31973173737955270656.000000\n",
            "max |D|                : 13029639424\n",
        )
    );
}

#[test]
fn budgeted_dse_daemon_response_is_pinned() {
    // The whole response line, every f64 digit; only `micros` varies.
    let request = concat!(
        r#"{"id":9,"kind":"dse","width":6,"#,
        r#""candidates":["lpaa1","lpaa2","lpaa3","lpaa5","accurate"],"#,
        r#""p":0.3,"budget_power":3240,"budget_area":20,"threads":2}"#,
    );
    let (stdout, stderr, code) = sealpaa_with_stdin(&["serve", "--stdio"], &format!("{request}\n"));
    assert_eq!(code, Some(0), "{stderr}");
    let line = stdout.lines().next().expect("one response line");
    let (head, rest) = line.split_once(r#""micros":"#).expect("a micros field");
    let tail = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    assert_eq!(
        format!("{head}\"micros\":0{tail}"),
        concat!(
            r#"{"id":9,"ok":true,"kind":"dse","cached":false,"micros":0,"#,
            r#""result":{"width":6,"#,
            r#""candidates":["LPAA 1","LPAA 2","LPAA 3","LPAA 5","AccuFA (est.)"],"#,
            r#""best":{"chain":"6-bit chain [AccuFA (est.), AccuFA (est.), AccuFA (est.), "#,
            r#"LPAA 5, LPAA 5, LPAA 5]","#,
            r#""cells":["AccuFA (est.)","AccuFA (est.)","AccuFA (est.)","#,
            r#""LPAA 5","LPAA 5","LPAA 5"],"#,
            r#""error_probability":0.7094251584000001,"power_nw":3240,"#,
            r#""area_ge":17.700000000000003}}}"#,
        )
    );
}

#[test]
fn profile_daemon_response_is_pinned() {
    // The whole response line; only the measured `micros` varies by run.
    let request =
        r#"{"id":7,"kind":"profile","width":12,"synth":"random-walk","records":4096,"seed":7}"#;
    let (stdout, stderr, code) = sealpaa_with_stdin(&["serve", "--stdio"], &format!("{request}\n"));
    assert_eq!(code, Some(0), "{stderr}");
    let line = stdout.lines().next().expect("one response line");
    let (head, rest) = line.split_once(r#""micros":"#).expect("a micros field");
    let tail = rest.trim_start_matches(|c: char| c.is_ascii_digit());
    assert_eq!(
        format!("{head}\"micros\":0{tail}"),
        concat!(
            r#"{"id":7,"ok":true,"kind":"profile","cached":false,"micros":0,"#,
            r#""result":{"source":"random-walk","width":12,"records":4096,"#,
            r#""pa":[0.508056640625,0.499755859375,0.496826171875,0.50244140625,0.50439453125,"#,
            r#"0.4990234375,0.506591796875,0.51220703125,0.518798828125,0.519775390625,"#,
            r#"0.47509765625,0.467041015625],"#,
            r#""pb":[0.508056640625,0.499755859375,0.49658203125,0.502197265625,0.50439453125,"#,
            r#"0.498779296875,0.506591796875,0.511962890625,0.5185546875,0.51953125,"#,
            r#"0.474853515625,0.467041015625],"#,
            r#""cin":0,"independence_violation":0.2396363615989685,"#,
            r#""max_violation_pair":{"x":"a[11]","y":"b[11]","score":0.2396363615989685}}}"#,
        )
    );
}
