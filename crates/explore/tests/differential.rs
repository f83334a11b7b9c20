//! The design-space explorations against their oracles.
//!
//! * Every prefix-sharing search against its naive `*_reference` scan, bit
//!   for bit, at several thread counts.
//! * Every enumeration against per-design scoring ([`evaluate`],
//!   [`evaluate_block_config`]) in the expected leaf order.
//! * Exact ties that only the leaf order decides: odometer order (the first
//!   decision is the fastest digit) for hybrid chains and datapath
//!   assignments, depth-first order for block tilings.
//! * The hybrid search's branch and bound: budgets that make it prune, and
//!   the unconstrained winner whose f64 error is a rounding residue.
//! * Negative and non-finite cell costs, refused alike by every search and
//!   its oracle.
//!
//! Random inputs come from fixed-seed [`Xoshiro256pp`] streams, so every
//! failure reproduces.

use sealpaa_blocks::{BlockConfig, BlockSpec};
use sealpaa_cells::{AdderChain, Cell, CellCharacteristics, InputProfile, StandardCell};
use sealpaa_datapath::{Datapath, Signal};
use sealpaa_explore::{
    accurate_cell_with_proxy_costs, best_block_design, best_block_design_reference,
    best_datapath_assignment, best_datapath_assignment_reference, enumerate_block_designs,
    evaluate, evaluate_block_config, exhaustive_best_reference, exhaustive_best_with,
    exhaustive_designs, local_search_best, BlockBudget, BlockDesign, BlockObjective,
    BlockSearchSpace, Budget, ExploreError, HybridDesign,
};
use sealpaa_propagate::topologies;
use sealpaa_sim::Xoshiro256pp;

/// Thread counts every search runs at; each must match the oracle.
const THREADS: [usize; 4] = [1, 2, 3, 7];

const OBJECTIVES: [BlockObjective; 3] = [
    BlockObjective::MeanAbsolute,
    BlockObjective::MeanSquared,
    BlockObjective::ErrorRate,
];

fn below(rng: &mut Xoshiro256pp, n: usize) -> usize {
    rng.next_below(n as u64) as usize
}

fn recosted(cell: StandardCell, power_nw: f64, area_ge: f64) -> Cell {
    Cell::custom_with_characteristics(
        format!("{} ({power_nw} nW)", cell.cell().name()),
        cell.truth_table(),
        CellCharacteristics::new(power_nw, area_ge),
    )
}

/// Every costed cell: LPAA 1–5, the proxy-costed accurate adder, and
/// LPAA 6/7 with estimated costs.
fn costed_cells() -> Vec<Cell> {
    let mut cells: Vec<Cell> = StandardCell::APPROXIMATE
        .iter()
        .filter(|c| c.characteristics().is_some())
        .map(|c| c.cell())
        .collect();
    cells.push(accurate_cell_with_proxy_costs());
    cells.push(recosted(StandardCell::Lpaa6, 500.0, 3.0));
    cells.push(recosted(StandardCell::Lpaa7, 400.0, 2.5));
    cells
}

/// One to `max` cells drawn with replacement, so duplicates (and exact
/// ties) occur.
fn pick(rng: &mut Xoshiro256pp, max: usize) -> Vec<Cell> {
    let pool = costed_cells();
    let n = 1 + below(rng, max);
    (0..n)
        .map(|_| pool[below(rng, pool.len())].clone())
        .collect()
}

/// A bit probability: often 0, 1/2 or 1 (where ties live), else uniform.
fn probability(rng: &mut Xoshiro256pp) -> f64 {
    match below(rng, 5) {
        0 => 0.0,
        1 => 0.5,
        2 => 1.0,
        _ => rng.next_f64(),
    }
}

fn profile(rng: &mut Xoshiro256pp, width: usize) -> InputProfile<f64> {
    let pa = (0..width).map(|_| probability(rng)).collect();
    let pb = (0..width).map(|_| probability(rng)).collect();
    InputProfile::new(pa, pb, probability(rng)).expect("probabilities in range")
}

/// No cap, a cap nothing meets, or a random cap up to `scale`.
fn cap(rng: &mut Xoshiro256pp, scale: f64) -> Option<f64> {
    match below(rng, 4) {
        0 => None,
        1 => Some(-1.0),
        _ => Some(rng.next_f64() * scale),
    }
}

fn chain(candidates: &[Cell], assignment: &[usize]) -> AdderChain {
    AdderChain::from_stages(assignment.iter().map(|&c| candidates[c].clone()).collect())
}

/// Every assignment of `radix` choices to `len` decisions, in odometer
/// order: `assignment[0]` cycles fastest.
fn odometer(radix: usize, len: usize) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    let mut assignment = vec![0; len];
    loop {
        out.push(assignment.clone());
        let mut i = 0;
        loop {
            if i == len {
                return out;
            }
            assignment[i] += 1;
            if assignment[i] < radix {
                break;
            }
            assignment[i] = 0;
            i += 1;
        }
    }
}

/// Every complete tiling of `width`, in depth-first order: block by block
/// from the LSB, widths, then depths, then cells, each ascending.
fn tilings(space: &BlockSearchSpace, width: usize) -> Vec<Vec<BlockSpec>> {
    fn extend(
        space: &BlockSearchSpace,
        width: usize,
        prefix: &mut Vec<BlockSpec>,
        out: &mut Vec<Vec<BlockSpec>>,
    ) {
        let covered: usize = prefix.iter().map(|b| b.width).sum();
        for &w in space.widths().iter().filter(|&&w| covered + w <= width) {
            for &p in space.predictions().iter().filter(|&&p| p <= covered) {
                for cell in space.cells() {
                    prefix.push(BlockSpec::new(w, p, cell.clone()));
                    if covered + w == width {
                        out.push(prefix.clone());
                    } else {
                        extend(space, width, prefix, out);
                    }
                    prefix.pop();
                }
            }
        }
    }
    let mut out = Vec::new();
    extend(space, width, &mut Vec::new(), &mut out);
    out
}

fn random_space(rng: &mut Xoshiro256pp) -> BlockSearchSpace {
    let widths: Vec<usize> = (0..1 + below(rng, 3)).map(|_| 1 + below(rng, 4)).collect();
    // Depth 0 is left out now and then: such spaces have no design.
    let predictions: Vec<usize> = (0..1 + below(rng, 3)).map(|_| below(rng, 3)).collect();
    let cells = pick(rng, 2);
    BlockSearchSpace::new(&widths, &predictions, &cells).expect("non-empty costed axes")
}

fn random_block_budget(rng: &mut Xoshiro256pp, width: usize) -> BlockBudget {
    BlockBudget {
        max_power_nw: cap(rng, 1100.0 * width as f64),
        max_area_ge: cap(rng, 7.0 * width as f64),
        max_window_len: (below(rng, 2) == 0).then(|| below(rng, 6)),
    }
}

#[test]
fn hybrid_best_matches_the_reference_scan() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0001);
    for case in 0..200 {
        let width = 1 + below(&mut rng, 4);
        let candidates = pick(&mut rng, 4);
        let profile = profile(&mut rng, width);
        let budget = Budget {
            max_power_nw: cap(&mut rng, 1200.0 * width as f64),
            max_area_ge: cap(&mut rng, 6.0 * width as f64),
        };
        let reference = exhaustive_best_reference(&candidates, &profile, &budget);
        for threads in THREADS {
            let best = exhaustive_best_with(&candidates, &profile, &budget, threads);
            assert_eq!(best, reference, "case {case}, threads {threads}");
        }
    }
    // Wider chains under caps that bind, drawn as a share of the
    // all-accurate chain's cost, so the bounded search prunes.
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0006);
    for case in 0..200 {
        let width = 1 + below(&mut rng, 6);
        let candidates = pick(&mut rng, 4);
        let profile = profile(&mut rng, width);
        let share = |rng: &mut Xoshiro256pp, all_accurate: f64| {
            (below(rng, 4) != 0).then(|| rng.next_f64() * all_accurate * width as f64)
        };
        let budget = Budget {
            max_power_nw: share(&mut rng, 1080.0),
            max_area_ge: share(&mut rng, 5.9),
        };
        let reference = exhaustive_best_reference(&candidates, &profile, &budget);
        for threads in THREADS {
            let best = exhaustive_best_with(&candidates, &profile, &budget, threads);
            assert_eq!(best, reference, "capped case {case}, threads {threads}");
        }
    }
}

#[test]
fn unconstrained_winner_is_the_enumeration_minimum_bit_for_bit() {
    // The all-accurate chain wins, with a P(error) that is a rounding
    // residue rather than 0.
    let candidates = costed_cells();
    assert_eq!(candidates.len(), 8);
    let profile = InputProfile::constant(6, 0.3);
    let designs = exhaustive_designs(&candidates, &profile, 1).expect("small");
    let key = |d: &HybridDesign| {
        let e = d.evaluation;
        (e.error_probability, e.power_nw, e.area_ge)
    };
    // The first design with the lowest key: the earliest in odometer order.
    let minimum = designs
        .iter()
        .reduce(|kept, d| if key(d) < key(kept) { d } else { kept })
        .expect("designs");
    assert!(minimum.chain.iter().all(|c| c.truth_table().is_accurate()));
    assert!(minimum.evaluation.error_probability > 0.0);
    for threads in THREADS {
        let best = exhaustive_best_with(&candidates, &profile, &Budget::default(), threads)
            .expect("small")
            .expect("unconstrained");
        assert_eq!(&best, minimum, "threads {threads}");
    }
}

#[test]
fn a_prefix_whose_rounding_residue_exceeds_the_winners_is_still_searched() {
    // The all-accurate 4-bit chain at p = 0.7 computes P(error) 2.2e-16
    // after three stages and 1.1e-16 after four. With the accurate cell
    // costed twice, the walk first meets the dearer chain at 1.1e-16; the
    // cheaper winner's prefixes then sit above that, and only the rounding
    // margin keeps them.
    let candidates = [
        recosted(StandardCell::Accurate, 100.0, 1.0),
        recosted(StandardCell::Accurate, 50.0, 1.0),
    ];
    let profile = InputProfile::constant(4, 0.7);
    let winner = chain(&candidates, &[1, 1, 1, 1]);
    let prefix = chain(&candidates, &[1, 1, 1]);
    let score = evaluate(&winner, &profile).expect("costed");
    let prefix_score = evaluate(&prefix, &InputProfile::constant(3, 0.7)).expect("costed");
    assert!(prefix_score.error_probability > score.error_probability);
    let reference = exhaustive_best_reference(&candidates, &profile, &Budget::default())
        .expect("small")
        .expect("unconstrained");
    assert_eq!(reference.chain, winner);
    for threads in THREADS {
        let best = exhaustive_best_with(&candidates, &profile, &Budget::default(), threads)
            .expect("small")
            .expect("unconstrained");
        assert_eq!(best, reference, "threads {threads}");
    }
}

#[test]
fn negative_and_non_finite_costs_are_refused_by_every_search_and_its_oracle() {
    // With LPAA 5 at −150 nW the budget prune was unsound: under a 100 nW
    // cap the reference scan found [AccuFA, LPAA 5] at P(err) 0.3864 and
    // the prefix search [LPAA 5, AccuFA] at 0.4200.
    let accurate = recosted(StandardCell::Accurate, 200.0, 5.9);
    let profile = InputProfile::constant(2, 0.3);
    let budget = Budget {
        max_power_nw: Some(100.0),
        max_area_ge: None,
    };
    let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 1], 2).expect("fits");
    let inputs: Vec<(String, Vec<f64>)> = topo
        .inputs
        .iter()
        .map(|n| (n.clone(), vec![0.5; 2]))
        .collect();
    let inputs = as_refs(&inputs);
    fn refused<T>(result: Result<T, ExploreError>, bad: &Cell) -> bool {
        matches!(
            result,
            Err(ExploreError::InvalidCharacteristics { cell, .. }) if cell == bad.name()
        )
    }
    for (power, area) in [
        (-150.0, 0.0),
        (0.0, -1e-300),
        (f64::NAN, 1.0),
        (1.0, f64::INFINITY),
    ] {
        let bad = recosted(StandardCell::Lpaa5, power, area);
        let candidates = [accurate.clone(), bad.clone()];
        let case = format!("({power}, {area})");
        let reference = exhaustive_best_reference(&candidates, &profile, &budget);
        assert!(refused(reference, &bad), "{case}");
        for threads in THREADS {
            let best = exhaustive_best_with(&candidates, &profile, &budget, threads);
            assert!(refused(best, &bad), "{case}, threads {threads}");
            let all = exhaustive_designs(&candidates, &profile, threads);
            assert!(refused(all, &bad), "{case}, threads {threads}");
            let best = best_datapath_assignment(
                &topo.datapath,
                topo.output,
                &inputs,
                &candidates,
                &budget,
                threads,
            );
            assert!(refused(best, &bad), "{case}, threads {threads}");
        }
        let local = local_search_best(&candidates, &profile, &budget);
        assert!(refused(local, &bad), "{case}");
        let reference = best_datapath_assignment_reference(
            &topo.datapath,
            topo.output,
            &inputs,
            &candidates,
            &budget,
        );
        assert!(refused(reference, &bad), "{case}");
        let space = BlockSearchSpace::new(&[1, 2], &[0], &candidates);
        assert!(refused(space, &bad), "{case}");
        let config = BlockConfig::new(vec![BlockSpec::new(2, 0, bad.clone())]).expect("valid");
        assert!(
            refused(evaluate_block_config(&config, &profile), &bad),
            "{case}"
        );
    }
}

#[test]
fn hybrid_enumeration_is_per_design_evaluation_in_odometer_order() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0002);
    for case in 0..60 {
        let width = 1 + below(&mut rng, 4);
        let candidates = pick(&mut rng, 4);
        let profile = profile(&mut rng, width);
        let expected: Vec<HybridDesign> = odometer(candidates.len(), width)
            .iter()
            .map(|assignment| {
                let chain = chain(&candidates, assignment);
                let evaluation = evaluate(&chain, &profile).expect("costed");
                HybridDesign { chain, evaluation }
            })
            .collect();
        for threads in THREADS {
            let designs = exhaustive_designs(&candidates, &profile, threads).expect("small");
            assert_eq!(designs, expected, "case {case}, threads {threads}");
        }
    }
}

#[test]
fn block_best_matches_the_reference_scan() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0003);
    for case in 0..120 {
        let space = random_space(&mut rng);
        let width = 1 + below(&mut rng, 8);
        let profile = profile(&mut rng, width);
        let budget = random_block_budget(&mut rng, width);
        let objective = OBJECTIVES[below(&mut rng, 3)];
        let reference = best_block_design_reference(&space, &profile, &budget, objective);
        for threads in THREADS {
            let best = best_block_design(&space, &profile, &budget, objective, threads);
            assert_eq!(best, reference, "case {case}, threads {threads}");
        }
    }
}

#[test]
fn block_enumeration_is_per_design_evaluation_in_depth_first_order() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0004);
    for case in 0..60 {
        let space = random_space(&mut rng);
        let width = 1 + below(&mut rng, 6);
        let profile = profile(&mut rng, width);
        let budget = random_block_budget(&mut rng, width);
        let expected: Vec<BlockDesign> = tilings(&space, width)
            .into_iter()
            .filter_map(|blocks| {
                let config = BlockConfig::new(blocks).expect("valid tiling");
                let evaluation = evaluate_block_config(&config, &profile).expect("valid");
                budget
                    .admits(&evaluation)
                    .then_some(BlockDesign { config, evaluation })
            })
            .collect();
        for threads in THREADS {
            let designs =
                enumerate_block_designs(&space, &profile, &budget, threads).expect("small");
            assert_eq!(designs, expected, "case {case}, threads {threads}");
        }
    }
}

fn as_refs(inputs: &[(String, Vec<f64>)]) -> Vec<(&str, Vec<f64>)> {
    inputs
        .iter()
        .map(|(n, b)| (n.as_str(), b.clone()))
        .collect()
}

fn assert_datapath_matches_reference(
    dp: &Datapath,
    output: Signal,
    inputs: &[(String, Vec<f64>)],
    candidates: &[Cell],
    budget: &Budget,
    case: &str,
) {
    let inputs = as_refs(inputs);
    let reference = best_datapath_assignment_reference(dp, output, &inputs, candidates, budget);
    for threads in THREADS {
        let best = best_datapath_assignment(dp, output, &inputs, candidates, budget, threads);
        assert_eq!(best, reference, "{case}, threads {threads}");
    }
}

#[test]
fn datapath_best_matches_the_reference_scan() {
    let mut rng = Xoshiro256pp::seed_from_u64(0xE7_0005);
    for case in 0..60 {
        let taps: Vec<u64> = (0..1 + below(&mut rng, 3))
            .map(|_| 1 + below(&mut rng, 3) as u64)
            .collect();
        let sample_width = 1 + below(&mut rng, 3);
        let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &taps, sample_width).expect("fits");
        let inputs: Vec<(String, Vec<f64>)> = topo
            .inputs
            .iter()
            .map(|n| {
                let bits = (0..sample_width).map(|_| probability(&mut rng)).collect();
                (n.clone(), bits)
            })
            .collect();
        let candidates = pick(&mut rng, 3);
        let budget = Budget {
            max_power_nw: cap(&mut rng, 4000.0),
            max_area_ge: cap(&mut rng, 30.0),
        };
        let case = format!("case {case}");
        assert_datapath_matches_reference(
            &topo.datapath,
            topo.output,
            &inputs,
            &candidates,
            &budget,
            &case,
        );
    }
}

#[test]
fn block_best_matches_naive_reference_bit_for_bit() {
    let space = BlockSearchSpace::new(
        &[2, 3],
        &[0, 1, 2],
        &[accurate_cell_with_proxy_costs(), StandardCell::Lpaa1.cell()],
    )
    .expect("valid space");
    let profile = InputProfile::constant(6, 0.25);
    let budget = BlockBudget {
        max_power_nw: Some(9000.0),
        max_area_ge: None,
        max_window_len: Some(5),
    };
    for objective in OBJECTIVES {
        let reference =
            best_block_design_reference(&space, &profile, &budget, objective).expect("small");
        for threads in THREADS {
            let best =
                best_block_design(&space, &profile, &budget, objective, threads).expect("small");
            assert_eq!(
                best, reference,
                "objective {objective:?}, threads {threads}"
            );
        }
    }
}

#[test]
fn datapath_prefix_search_matches_naive_reference() {
    let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 2, 1], 6).expect("fits");
    let inputs: Vec<(String, Vec<f64>)> = topo
        .inputs
        .iter()
        .map(|n| (n.clone(), vec![0.5; 6]))
        .collect();
    let candidates = [
        StandardCell::Lpaa1.cell(),
        StandardCell::Lpaa2.cell(),
        StandardCell::Lpaa5.cell(),
    ];
    for budget in [
        Budget::default(),
        Budget {
            max_power_nw: Some(6_000.0),
            max_area_ge: None,
        },
    ] {
        let case = format!("budget {budget:?}");
        assert_datapath_matches_reference(
            &topo.datapath,
            topo.output,
            &inputs,
            &candidates,
            &budget,
            &case,
        );
    }
}

#[test]
fn hybrid_tie_goes_to_the_earlier_odometer_position() {
    let candidates = [
        recosted(StandardCell::Lpaa1, 100.0, 1.0),
        recosted(StandardCell::Lpaa5, 200.0, 2.0),
        recosted(StandardCell::Lpaa2, 300.0, 3.0),
    ];
    let profile = InputProfile::new(vec![0.5, 0.0], vec![0.5, 0.5], 0.0).expect("valid");
    // [c2, c0] is odometer index 2 and [c1, c1] index 4, but a depth-first
    // walk reaches [c1, c1] first.
    let (winner, rival) = (chain(&candidates, &[2, 0]), chain(&candidates, &[1, 1]));
    let score = evaluate(&winner, &profile).expect("costed");
    assert_eq!(score, evaluate(&rival, &profile).expect("costed"));
    assert_eq!(
        (score.error_probability, score.power_nw, score.area_ge),
        (0.5, 400.0, 4.0)
    );
    let reference = exhaustive_best_reference(&candidates, &profile, &Budget::default())
        .expect("small")
        .expect("unconstrained");
    assert_eq!(reference.chain, winner);
    for threads in THREADS {
        let best = exhaustive_best_with(&candidates, &profile, &Budget::default(), threads)
            .expect("small")
            .expect("unconstrained");
        assert_eq!(best, reference, "threads {threads}");
    }
}

#[test]
fn datapath_tie_goes_to_the_earlier_odometer_position() {
    let topo = topologies::fir(&StandardCell::Lpaa5.cell(), &[1, 1, 1], 1).expect("fits");
    assert_eq!(topo.inputs, ["x0", "x1", "x2"]);
    let inputs = vec![
        ("x0".to_owned(), vec![0.5]),
        ("x1".to_owned(), vec![1.0]),
        ("x2".to_owned(), vec![1.0]),
    ];
    let candidates = [
        recosted(StandardCell::Lpaa1, 100.0, 1.0),
        recosted(StandardCell::Lpaa2, 100.0, 1.0),
        recosted(StandardCell::Lpaa3, 100.0, 1.0),
    ];
    let refs = as_refs(&inputs);
    let reference = best_datapath_assignment_reference(
        &topo.datapath,
        topo.output,
        &refs,
        &candidates,
        &Budget::default(),
    )
    .expect("valid")
    .expect("unconstrained");
    // [c1, c0] is odometer index 1 and [c0, c1] index 3, but a depth-first
    // walk reaches [c0, c1] first.
    assert_eq!(
        reference.cells,
        [candidates[1].clone(), candidates[0].clone()]
    );
    let rival = topo
        .datapath
        .with_adder_cells(&[candidates[0].clone(), candidates[1].clone()])
        .expect("two adders");
    let rival = sealpaa_propagate::propagate_moments(&rival, topo.output, &refs).expect("valid");
    assert_eq!(rival.error_second, reference.evaluation.mse);
    for threads in THREADS {
        let best = best_datapath_assignment(
            &topo.datapath,
            topo.output,
            &refs,
            &candidates,
            &Budget::default(),
            threads,
        )
        .expect("valid")
        .expect("unconstrained");
        assert_eq!(best, reference, "threads {threads}");
    }
}

#[test]
fn block_tie_goes_to_the_earlier_depth_first_position() {
    let accurate = accurate_cell_with_proxy_costs();
    let space =
        BlockSearchSpace::new(&[3, 4], &[0], std::slice::from_ref(&accurate)).expect("valid space");
    let profile = InputProfile::constant(7, 0.0);
    let config = |widths: [usize; 2]| {
        BlockConfig::new(
            widths
                .iter()
                .map(|&w| BlockSpec::new(w, 0, accurate.clone()))
                .collect(),
        )
        .expect("valid")
    };
    // A depth-first walk reaches [3, 4] first; in odometer order (the first
    // block's choice cycling fastest) [4, 3] comes first.
    let (winner, rival) = (config([3, 4]), config([4, 3]));
    let score = evaluate_block_config(&winner, &profile).expect("valid");
    assert_eq!(
        score,
        evaluate_block_config(&rival, &profile).expect("valid")
    );
    let all = enumerate_block_designs(&space, &profile, &BlockBudget::default(), 1).expect("small");
    let configs: Vec<&BlockConfig> = all.iter().map(|d| &d.config).collect();
    assert_eq!(configs, [&winner, &rival]);
    for objective in OBJECTIVES {
        let reference =
            best_block_design_reference(&space, &profile, &BlockBudget::default(), objective)
                .expect("small")
                .expect("a tiling exists");
        assert_eq!(reference.config, winner);
        for threads in THREADS {
            let best = best_block_design(
                &space,
                &profile,
                &BlockBudget::default(),
                objective,
                threads,
            )
            .expect("small")
            .expect("a tiling exists");
            assert_eq!(
                best, reference,
                "objective {objective:?}, threads {threads}"
            );
        }
    }
}
