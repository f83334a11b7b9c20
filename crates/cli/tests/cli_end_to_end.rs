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
