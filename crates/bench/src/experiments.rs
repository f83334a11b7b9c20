//! One function per paper table/figure; see the crate docs for the mapping.

use std::time::Instant;

use sealpaa_blocks::BlockAdder;
use sealpaa_cells::{AdderChain, InputProfile, StandardCell};
use sealpaa_core::{analyze, analyze_instrumented, table8_resource_model, MklMatrices};
use sealpaa_explore::{
    accurate_cell_with_proxy_costs, enumerate_designs, exhaustive_best, pareto_front, Budget,
};
use sealpaa_gear::{
    error_probability as gear_error, error_probability_block_independent as gear_independent,
    error_probability_inclexcl as gear_inclexcl, GearConfig,
};
use sealpaa_inclexcl::cost;
use sealpaa_num::Rational;
use sealpaa_sim::Xoshiro256pp;
use sealpaa_sim::{exhaustive, monte_carlo, MonteCarloConfig};

use crate::report::Table;

/// Paper Table 7's analytical `P(E)` values (inputs at `p = 0.1`), rows
/// `N = 2, 4, 6, 8, 10, 12`, columns LPAA 1–7 — used as the reference the
/// reproduction is checked against.
pub const PAPER_TABLE_7: [(usize, [f64; 7]); 6] = [
    (
        2,
        [0.30780, 0.9271, 0.95707, 0.31851, 0.27000, 0.1143, 0.01980],
    ),
    (
        4,
        [
            0.53090, 0.99468, 0.99763, 0.54033, 0.40950, 0.13533, 0.02333,
        ],
    ),
    (
        6,
        [
            0.68240, 0.99961, 0.99986, 0.68999, 0.52170, 0.15266, 0.02685,
        ],
    ),
    (
        8,
        [
            0.78498, 0.99997, 0.99999, 0.79092, 0.61258, 0.16953, 0.03035,
        ],
    ),
    (
        10,
        [
            0.85443, 0.99999, 0.99999, 0.85899, 0.68618, 0.18605, 0.03385,
        ],
    ),
    (
        12,
        [
            0.90145, 0.99999, 0.99999, 0.90490, 0.74581, 0.20225, 0.03733,
        ],
    ),
];

/// Paper Fig. 1: exhaustive-simulation time and computation counts explode
/// with the adder width while the analytical method stays flat.
///
/// # Panics
///
/// Panics if `max_width` exceeds the exhaustive simulator's limit.
pub fn fig1(max_width: usize) -> Table {
    let mut t = Table::new(
        "Fig. 1 — exhaustive simulation vs proposed analysis (LPAA 1, equal probabilities)",
        [
            "N",
            "sim cases",
            "sim bit-adds",
            "sim time",
            "analysis ops",
            "analysis time",
        ],
    );
    for n in 2..=max_width {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), n);
        let profile = InputProfile::<f64>::uniform(n);
        let start = Instant::now();
        let sim = exhaustive(&chain, &profile).expect("width within simulator limit");
        let sim_time = start.elapsed();
        let start = Instant::now();
        let (_, ops) = analyze_instrumented(&chain, &profile).expect("widths match");
        let ana_time = start.elapsed();
        t.row([
            n.to_string(),
            sim.cases.to_string(),
            sim.work.bit_additions.to_string(),
            format!("{sim_time:.2?}"),
            ops.total().to_string(),
            format!("{ana_time:.2?}"),
        ]);
    }
    t.note("simulation cost doubles 4x per added bit; analysis cost grows by one stage");
    t
}

/// Paper Table 2: per-cell error cases (computed from the truth tables) and
/// the published power/area characteristics.
pub fn table2() -> Table {
    let mut t = Table::new(
        "Table 2 — LPAA characteristics",
        ["cell", "error cases", "power (nW)", "area (GE)"],
    );
    for cell in StandardCell::APPROXIMATE {
        let errors = cell.truth_table().error_case_count().to_string();
        match cell.characteristics() {
            Some(c) => t.row([
                cell.name().to_owned(),
                errors,
                format!("{}", c.power_nw),
                format!("{}", c.area_ge),
            ]),
            None => t.row([cell.name().to_owned(), errors, "n/a".into(), "n/a".into()]),
        };
    }
    t.note("power/area published for LPAA 1-5 only (Gupta et al., TCAD'13, 65 nm)");
    t
}

/// Paper Table 3: the cost blow-up of traditional inclusion–exclusion
/// analysis versus the stage count.
pub fn table3() -> Table {
    let mut t = Table::new(
        "Table 3 — inclusion-exclusion cost model",
        [
            "stages",
            "terms",
            "multiplications",
            "additions",
            "memory units",
        ],
    );
    for k in (4..=32).step_by(4) {
        let c = cost(k);
        t.row([
            k.to_string(),
            c.terms.to_string(),
            c.multiplications.to_string(),
            c.additions.to_string(),
            c.memory_units.to_string(),
        ]);
    }
    t.note("k(2^(k-1)-1) mults / 2^k-2 adds / 2^(k+1)-1 memory; see EXPERIMENTS.md for the paper's typos");
    t
}

/// Paper Table 4: the worked 4-bit LPAA 1 example, stage by stage, in exact
/// arithmetic.
pub fn table4() -> Table {
    let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
    let profile = InputProfile::<Rational>::new(
        vec![
            Rational::from_ratio(9, 10),
            Rational::from_ratio(1, 2),
            Rational::from_ratio(2, 5),
            Rational::from_ratio(4, 5),
        ],
        vec![
            Rational::from_ratio(4, 5),
            Rational::from_ratio(7, 10),
            Rational::from_ratio(3, 5),
            Rational::from_ratio(9, 10),
        ],
        Rational::from_ratio(1, 2),
    )
    .expect("paper profile is valid");
    let analysis = analyze(&chain, &profile).expect("widths match");
    let mut t = Table::new(
        "Table 4 — 4-bit LPAA 1 worked example",
        [
            "stage",
            "P(A)",
            "P(B)",
            "P(C̄curr∩S)",
            "P(Ccurr∩S)",
            "P(C̄next∩S)",
            "P(Cnext∩S)",
            "P(Succ)",
        ],
    );
    let last = analysis.width() - 1;
    for stage in analysis.stages() {
        let succ = if stage.stage == last {
            analysis.success_probability().to_decimal(6)
        } else {
            "NR".to_owned()
        };
        let (c_out0, c_out1) = if stage.stage == last {
            ("NR".to_owned(), "NR".to_owned())
        } else {
            (
                stage.carry_out.p_not_carry_and_success().to_decimal(6),
                stage.carry_out.p_carry_and_success().to_decimal(6),
            )
        };
        t.row([
            stage.stage.to_string(),
            stage.pa.to_decimal(2),
            stage.pb.to_decimal(2),
            stage.carry_in.p_not_carry_and_success().to_decimal(6),
            stage.carry_in.p_carry_and_success().to_decimal(6),
            c_out0,
            c_out1,
            succ,
        ]);
    }
    t.note("paper prints: 0.02/0.85, 0.1305/0.7295, 0.2064/0.58574, P(Succ)=0.738476");
    t
}

/// Paper Table 5: the M, K, L matrices of LPAA 1–7, derived from the
/// Table 1 truth tables.
pub fn table5() -> Table {
    let mut t = Table::new(
        "Table 5 — derived M, K, L matrices",
        ["cell", "M", "K", "L"],
    );
    for cell in StandardCell::APPROXIMATE {
        let mkl = MklMatrices::from_truth_table(&cell.truth_table());
        t.row([
            cell.name().to_owned(),
            format!("{:?}", mkl.m_bits()),
            format!("{:?}", mkl.k_bits()),
            format!("{:?}", mkl.l_bits()),
        ]);
    }
    t.note("derived from truth tables; unit tests assert equality with the paper's Table 5");
    t
}

/// Paper Table 6: accuracy of the proposed method against simulation.
///
/// Row 1 (equally probable inputs): analytical vs *exact rational*
/// exhaustive enumeration over all `2^(2N+1)` cases — counts exact matches.
/// Row 2 (inputs at `p = 0.1`): analytical vs Monte-Carlo with `mc_samples`
/// draws — reports the worst absolute deviation.
pub fn table6(mc_samples: u64, max_exhaustive_width: usize) -> Table {
    let mut t = Table::new(
        "Table 6 — accuracy match of proposed method vs simulation",
        ["input probabilities", "test regime", "result"],
    );

    let mut exact_matches = 0usize;
    let mut comparisons = 0usize;
    for cell in StandardCell::APPROXIMATE {
        for n in 2..=max_exhaustive_width {
            let chain = AdderChain::uniform(cell.cell(), n);
            let profile = InputProfile::<Rational>::uniform(n);
            let analytical = analyze(&chain, &profile)
                .expect("widths match")
                .error_probability();
            let simulated = exhaustive(&chain, &profile)
                .expect("width within limit")
                .output_error_probability;
            comparisons += 1;
            if analytical == simulated {
                exact_matches += 1;
            }
        }
    }
    t.row([
        "equally probable (p = 1/2)".to_owned(),
        format!("exhaustive, 2^(2N+1) cases, N = 2..={max_exhaustive_width}, exact rationals"),
        format!("{exact_matches}/{comparisons} exact (to any decimal place)"),
    ]);

    let mut worst = 0.0f64;
    for cell in StandardCell::APPROXIMATE {
        let chain = AdderChain::uniform(cell.cell(), 8);
        let profile = InputProfile::constant(8, 0.1);
        let analytical = analyze(&chain, &profile)
            .expect("widths match")
            .error_probability();
        let mc = monte_carlo(
            &chain,
            &profile,
            MonteCarloConfig {
                samples: mc_samples,
                ..Default::default()
            },
        )
        .expect("widths match");
        worst = worst.max((mc.error_probability() - analytical).abs());
    }
    t.row([
        "not equally probable (p = 0.1)".to_owned(),
        format!("Monte-Carlo, {mc_samples} samples, N = 8, all 7 LPAAs"),
        format!("max |analytical - simulated| = {worst:.5}"),
    ]);
    t.note("paper: exact match for equal probabilities; 3-decimal match for 1M MC samples");
    t
}

/// Paper Table 7: analytical vs simulated `P(E)` for all seven LPAAs at
/// `p = 0.1`, `N = 2, 4, …, 12`, with the paper's own analytical values for
/// comparison.
pub fn table7(mc_samples: u64) -> Table {
    let mut t = Table::new(
        "Table 7 — P(E), analytical vs Monte-Carlo vs paper (p = 0.1)",
        [
            "N",
            "cell",
            "analytical",
            "simulated",
            "paper",
            "|ours-paper|",
        ],
    );
    for &(n, paper_row) in &PAPER_TABLE_7 {
        for (c, cell) in StandardCell::APPROXIMATE.into_iter().enumerate() {
            let chain = AdderChain::uniform(cell.cell(), n);
            let profile = InputProfile::constant(n, 0.1);
            let analytical = analyze(&chain, &profile)
                .expect("widths match")
                .error_probability();
            let mc = monte_carlo(
                &chain,
                &profile,
                MonteCarloConfig {
                    samples: mc_samples,
                    ..Default::default()
                },
            )
            .expect("widths match");
            t.row([
                n.to_string(),
                cell.name().to_owned(),
                format!("{analytical:.5}"),
                format!("{:.5}", mc.error_probability()),
                format!("{:.5}", paper_row[c]),
                format!("{:.5}", (analytical - paper_row[c]).abs()),
            ]);
        }
    }
    t.note("paper column = paper Table 7 'Analyt.'; paper rounds/truncates to 5 decimals");
    t
}

/// Paper Table 8: resource utilisation of the proposed method — the paper's
/// hardware-style model next to this implementation's measured counts.
pub fn table8() -> Table {
    let width = 32;
    let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), width);
    let equal = InputProfile::constant(width, 0.5);
    let varying = InputProfile::new(
        (0..width).map(|i| 0.01 * i as f64 + 0.1).collect(),
        (0..width).map(|i| 0.9 - 0.01 * i as f64).collect(),
        0.5,
    )
    .expect("valid profile");
    let (_, ops_equal) = analyze_instrumented(&chain, &equal).expect("widths match");
    let (_, ops_varying) = analyze_instrumented(&chain, &varying).expect("widths match");
    let model_equal = table8_resource_model(width, true);
    let model_varying = table8_resource_model(width, false);

    let mut t = Table::new(
        "Table 8 — resource utilisation of the proposed method (32-bit)",
        ["scenario", "paper model", "measured (this impl.)"],
    );
    t.row([
        "operand bits equally probable".to_owned(),
        model_equal.to_string(),
        ops_equal.to_string(),
    ]);
    t.row([
        "operand bits with different probabilities".to_owned(),
        model_varying.to_string(),
        ops_varying.to_string(),
    ]);
    t.note("paper counts reusable datapath resources; measured counts are totals over all 32 iterations — both scale linearly in width");
    t
}

/// Paper Fig. 5: `P(Succ)`/`P(Error)` versus adder width for every LPAA at
/// (a) equal, (b) low and (c) high input-bit probabilities.
///
/// The paper does not print the low/high probability values; 0.2 and 0.8
/// reproduce its qualitative ranking (see `EXPERIMENTS.md`).
pub fn fig5() -> Vec<Table> {
    let scenarios = [
        ("Fig. 5(a) — equally probable inputs (p = 0.5)", 0.5),
        ("Fig. 5(b) — low input probability (p = 0.2)", 0.2),
        ("Fig. 5(c) — high input probability (p = 0.8)", 0.8),
    ];
    scenarios
        .into_iter()
        .map(|(title, p)| {
            let mut t = Table::new(
                title,
                [
                    "N", "LPAA 1", "LPAA 2", "LPAA 3", "LPAA 4", "LPAA 5", "LPAA 6", "LPAA 7",
                ],
            );
            // The width-n chain is a prefix of the width-16 chain under a
            // constant profile, so one analysis per cell yields the entire
            // sweep via its per-stage prefix successes.
            let profile = InputProfile::constant(16, p);
            let sweeps: Vec<Vec<f64>> = StandardCell::APPROXIMATE
                .iter()
                .map(|cell| {
                    let chain = AdderChain::uniform(cell.cell(), 16);
                    let analysis = analyze(&chain, &profile).expect("widths match");
                    (0..16).map(|i| analysis.prefix_success(i)).collect()
                })
                .collect();
            for n in 1..=16usize {
                let mut cells_out = vec![n.to_string()];
                for sweep in &sweeps {
                    cells_out.push(format!("{:.4}", sweep[n - 1]));
                }
                t.row(cells_out);
            }
            t.note("values are P(Succ); P(Error) = 1 - P(Succ)");
            t
        })
        .collect()
}

/// Extension: GeAr error probabilities at `N = 16` across configurations,
/// cross-checked three ways (linear DP, inclusion–exclusion, Monte-Carlo)
/// plus the block-independence approximation.
pub fn gear_sweep(mc_samples: u64) -> Table {
    let mut t = Table::new(
        "GeAr sweep (N = 16, uniform inputs)",
        [
            "config",
            "blocks",
            "exact (linear DP)",
            "incl-excl (terms)",
            "indep. approx",
            "Monte-Carlo",
        ],
    );
    for (r, p) in [(1, 1), (2, 0), (2, 2), (2, 4), (4, 0), (4, 4)] {
        let config = GearConfig::new(16, r, p).expect("valid config");
        let pa = vec![0.5f64; 16];
        let exact = gear_error(&config, &pa, &pa, 0.0).expect("widths match");
        let (ie, terms) = gear_inclexcl(&config, &pa, &pa, 0.0).expect("widths match");
        let indep = gear_independent(&config, &pa, &pa, 0.0).expect("widths match");
        let adder = BlockAdder::new(
            config
                .to_blocks(StandardCell::Accurate.cell())
                .expect("16 bits fit the block model"),
        );
        let mut rng = Xoshiro256pp::seed_from_u64(0x6EA2 + r as u64 * 31 + p as u64);
        let mut errors = 0u64;
        for _ in 0..mc_samples {
            let a: u64 = rng.next_u64() & 0xFFFF;
            let b: u64 = rng.next_u64() & 0xFFFF;
            if adder.add(a, b, false).value() != adder.accurate_sum(a, b, false) {
                errors += 1;
            }
        }
        t.row([
            config.to_string(),
            config.block_count().to_string(),
            format!("{exact:.6}"),
            format!("{ie:.6} ({terms})"),
            format!("{indep:.6}"),
            format!("{:.6}", errors as f64 / mc_samples as f64),
        ]);
    }
    t.note("exact linear DP is the paper-style recursive analysis; incl-excl is the [12]-style baseline");
    t
}

/// Extension (paper Sec. 5): budgeted hybrid-adder design-space exploration
/// under an MSB-skewed input profile.
pub fn hybrid_dse(width: usize) -> Table {
    let candidates = vec![
        StandardCell::Lpaa1.cell(),
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
        accurate_cell_with_proxy_costs(),
    ];
    // MSBs mostly 0 (as in magnitude-limited signals), LSBs balanced.
    let pa: Vec<f64> = (0..width)
        .map(|i| 0.5 - 0.4 * i as f64 / (width.max(2) - 1) as f64)
        .collect();
    let profile = InputProfile::new(pa.clone(), pa, 0.0).expect("valid profile");
    let unconstrained_power: f64 = 1080.0 * width as f64; // all-accurate chain

    let mut t = Table::new(
        format!("Hybrid DSE ({width}-bit, MSB-skewed inputs)"),
        [
            "power budget",
            "best chain",
            "P(err)",
            "power (nW)",
            "area (GE)",
        ],
    );
    for fraction in [0.25, 0.5, 0.75, 1.0] {
        let budget = Budget {
            max_power_nw: Some(unconstrained_power * fraction),
            max_area_ge: None,
        };
        let best = exhaustive_best(&candidates, &profile, &budget)
            .expect("space within cap")
            .expect("all-LPAA5 chain always fits");
        t.row([
            format!("{:.0}% of accurate", fraction * 100.0),
            best.chain.to_string(),
            format!("{:.6}", best.evaluation.error_probability),
            format!("{:.0}", best.evaluation.power_nw),
            format!("{:.2}", best.evaluation.area_ge),
        ]);
    }
    let designs = enumerate_designs(&candidates, &profile).expect("space within cap");
    let front = pareto_front(designs);
    t.note(format!(
        "Pareto frontier over (error, power, area): {} designs of {}",
        front.len(),
        (candidates.len() as u128).pow(width as u32)
    ));
    t
}

/// Extension: shift-add multiplier quality per accumulator cell (the
/// approximate-multiplier context of the paper's ref.\ 16).
pub fn multiplier_quality(mc_samples: u64) -> Table {
    let mut t = Table::new(
        "Approximate 8x8 shift-add multipliers (uniform operands)",
        ["accumulator cell", "error rate", "MRED", "max |error|"],
    );
    for cell in StandardCell::ALL {
        let m = sealpaa_datapath::ShiftAddMultiplier::new(cell.cell(), 8);
        let q = m.quality(mc_samples, 42);
        t.row([
            cell.name().to_owned(),
            format!("{:.4}", q.error_rate),
            format!("{:.5}", q.mean_relative_error),
            q.max_absolute_error.to_string(),
        ]);
    }
    t.note(
        "MRED = mean relative error distance; per-adder error compounds over the 7 accumulations",
    );
    t
}

/// Extension: the approximate-LSB deployment sweep (quality vs power) for a
/// chosen cell under uniform inputs.
pub fn lsb_sweep_table(cell: StandardCell, width: usize) -> Table {
    let points = sealpaa_explore::lsb_sweep(
        cell.cell(),
        accurate_cell_with_proxy_costs(),
        &InputProfile::constant(width, 0.5),
    )
    .expect("standard cells are costed");
    let mut t = Table::new(
        format!(
            "LSB sweep: {} below AccuFA (est.), {width}-bit, p = 0.5",
            cell.name()
        ),
        ["k", "P(error)", "power (nW)", "bias E[D]", "RMS(D)"],
    );
    for p in &points {
        t.row([
            p.approximate_bits.to_string(),
            format!("{:.6}", p.evaluation.error_probability),
            format!("{:.0}", p.evaluation.power_nw),
            format!("{:+.4}", p.mean_error_distance),
            format!("{:.4}", p.rms_error_distance),
        ]);
    }
    t.note("k = number of approximate least-significant stages");
    t
}

/// Extension: exact worst-case (maximum-magnitude) errors per cell and
/// width, with witness operands — the hard-tolerance counterpart to the
/// paper's statistical metric.
pub fn worst_case_table(width: usize) -> Table {
    let mut t = Table::new(
        format!("Worst-case error of {width}-bit homogeneous chains"),
        [
            "cell",
            "max overshoot",
            "max undershoot",
            "witness (overshoot)",
        ],
    );
    for cell in StandardCell::APPROXIMATE {
        let chain = AdderChain::uniform(cell.cell(), width);
        let wc = sealpaa_core::worst_case_error(&chain).expect("width within limit");
        t.row([
            cell.name().to_owned(),
            format!("{:+}", wc.max_error),
            format!("{:+}", wc.min_error),
            format!(
                "a={:#x} b={:#x} cin={}",
                wc.max_witness.a, wc.max_witness.b, wc.max_witness.carry_in as u8
            ),
        ]);
    }
    t.note("computed by an O(N) DP over the joint carry state; witnesses verified by evaluation");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worst_case_table_rows_are_signed() {
        let t = worst_case_table(8);
        assert_eq!(t.row_count(), 7);
        for row in 0..7 {
            assert!(t.cell(row, 1).expect("cell").starts_with('+'));
            assert!(t.cell(row, 2).expect("cell").starts_with(['-', '+']));
        }
    }

    #[test]
    fn multiplier_quality_accurate_row_is_clean() {
        let t = multiplier_quality(500);
        assert_eq!(t.cell(0, 1), Some("0.0000"));
        assert_eq!(t.row_count(), 8);
    }

    #[test]
    fn lsb_sweep_table_spans_zero_to_width() {
        let t = lsb_sweep_table(StandardCell::Lpaa5, 6);
        assert_eq!(t.row_count(), 7);
        assert_eq!(t.cell(0, 1), Some("0.000000"));
    }

    #[test]
    fn fig1_simulation_work_quadruples_per_bit() {
        let t = fig1(4);
        assert_eq!(t.cell(0, 1), Some("32"));
        assert_eq!(t.cell(1, 1), Some("128"));
        assert_eq!(t.cell(2, 1), Some("512"));
    }

    #[test]
    fn table2_reports_all_seven_cells() {
        let t = table2();
        assert_eq!(t.row_count(), 7);
        assert_eq!(t.cell(0, 1), Some("2"));
        assert_eq!(t.cell(4, 2), Some("0")); // LPAA 5 power
    }

    #[test]
    fn table3_first_row_matches_paper() {
        let t = table3();
        assert_eq!(t.cell(0, 1), Some("15"));
        assert_eq!(t.cell(0, 2), Some("28"));
        assert_eq!(t.cell(0, 3), Some("14"));
        assert_eq!(t.cell(0, 4), Some("31"));
    }

    #[test]
    fn table4_prints_paper_values() {
        let t = table4();
        let rendered = t.to_string();
        for expect in [
            "0.020000", "0.850000", "0.130500", "0.729500", "0.206400", "0.585740", "0.738476",
        ] {
            assert!(
                rendered.contains(expect),
                "missing {expect} in:\n{rendered}"
            );
        }
        // Last stage's carry-out is not required (paper's "NR").
        assert_eq!(t.cell(3, 5), Some("NR"));
    }

    #[test]
    fn table5_rows_match_paper_examples() {
        let t = table5();
        assert_eq!(t.cell(0, 1), Some("[0, 0, 0, 1, 0, 1, 1, 1]"));
        assert_eq!(t.cell(6, 2), Some("[1, 1, 1, 0, 1, 0, 0, 0]"));
    }

    #[test]
    fn table6_small_run_is_all_exact() {
        let t = table6(2_000, 3);
        let result = t.cell(0, 2).expect("row present");
        assert!(result.starts_with("14/14"), "got {result}");
    }

    #[test]
    fn table7_analytical_column_tracks_paper_to_4_decimals() {
        let t = table7(1_000);
        for row in 0..t.row_count() {
            let delta: f64 = t.cell(row, 5).expect("delta").parse().expect("numeric");
            assert!(
                delta < 2e-4,
                "row {row}: analytical deviates from paper by {delta}"
            );
        }
    }

    #[test]
    fn table8_has_both_scenarios() {
        let t = table8();
        assert_eq!(t.row_count(), 2);
        assert!(t.cell(0, 1).expect("model").contains("32 multipliers"));
        assert!(t.cell(1, 1).expect("model").contains("33 memory units"));
    }

    #[test]
    fn fig5_produces_three_scenarios_of_16_widths() {
        let tables = fig5();
        assert_eq!(tables.len(), 3);
        for t in &tables {
            assert_eq!(t.row_count(), 16);
        }
        // Paper claim: at equal probabilities nothing is usable beyond ~10
        // bits — LPAA 1's success at N = 16 is tiny.
        let lpaa1_at_16: f64 = tables[0].cell(15, 1).expect("cell").parse().expect("num");
        assert!(lpaa1_at_16 < 0.1, "got {lpaa1_at_16}");
        // LPAA 7 at low probabilities stays strong.
        let lpaa7_low: f64 = tables[1].cell(15, 7).expect("cell").parse().expect("num");
        assert!(lpaa7_low > 0.5);
    }

    #[test]
    fn gear_sweep_consistency() {
        let t = gear_sweep(2_000);
        for row in 0..t.row_count() {
            let exact: f64 = t.cell(row, 2).expect("exact").parse().expect("num");
            let ie = t.cell(row, 3).expect("ie");
            let ie_val: f64 = ie.split(' ').next().expect("value").parse().expect("num");
            assert!((exact - ie_val).abs() < 1e-9, "row {row}");
        }
    }

    #[test]
    fn gear_sweep_output_is_pinned() {
        // Every byte: the Monte-Carlo column counts errors through the block
        // adder over `to_blocks`, so its figures pin that model too.
        assert_eq!(
            gear_sweep(20_000).to_string(),
            concat!(
                "== GeAr sweep (N = 16, uniform inputs) ==\n",
                "config                blocks  exact (linear DP)  incl-excl (terms)  indep. approx  Monte-Carlo\n",
                "----------------------------------------------------------------------------------------------\n",
                "GeAr(N=16, R=1, P=1)  15      0.887745           0.887745 (16383)   0.975551       0.886450\n",
                "GeAr(N=16, R=2, P=0)  8       0.962747           0.962747 (127)     0.989407       0.961300\n",
                "GeAr(N=16, R=2, P=2)  7       0.477905           0.477905 (63)      0.529635       0.475450\n",
                "GeAr(N=16, R=2, P=4)  6       0.115540           0.115540 (31)      0.137600       0.117150\n",
                "GeAr(N=16, R=4, P=0)  4       0.850067           0.850067 (7)       0.866636       0.852600\n",
                "GeAr(N=16, R=4, P=4)  3       0.058594           0.058594 (3)       0.059513       0.056500\n",
                "note: exact linear DP is the paper-style recursive analysis; incl-excl is the [12]-style baseline\n",
            )
        );
    }

    #[test]
    fn hybrid_dse_tightens_with_budget() {
        let t = hybrid_dse(4);
        let err_25: f64 = t.cell(0, 2).expect("err").parse().expect("num");
        let err_100: f64 = t.cell(3, 2).expect("err").parse().expect("num");
        assert!(err_100 <= err_25 + 1e-12);
    }
}
