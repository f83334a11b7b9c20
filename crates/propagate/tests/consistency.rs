//! Exact-`Rational` consistency pins for the propagation engines.
//!
//! * The compositional tree engine must equal brute-force enumeration
//!   *exactly* (rational equality, no tolerance) wherever both apply.
//! * The fast moment engine must equal both wherever its independence
//!   assumptions hold exactly (single adders over independent input
//!   bits, including shifted operands).

use sealpaa_cells::{AdderChain, StandardCell};
use sealpaa_datapath::Datapath;
use sealpaa_num::{Prob, Rational};
use sealpaa_propagate::{
    brute_force_moments, exact_tree_moments, propagate_moments, GraphStepper, PropagateError,
};

fn r(n: u64, d: u64) -> Rational {
    <Rational as Prob>::from_ratio(n, d)
}

/// A non-degenerate 3-bit profile with distinct per-bit probabilities.
fn bits_a() -> Vec<Rational> {
    vec![r(1, 3), r(1, 2), r(2, 5)]
}

fn bits_b() -> Vec<Rational> {
    vec![r(3, 4), r(1, 5), r(1, 2)]
}

fn bits_c() -> Vec<Rational> {
    vec![r(1, 2), r(2, 3), r(1, 7)]
}

/// `(x + y) + z` with 3-bit inputs, every adder the given cell.
fn two_adder_chain(cell: StandardCell) -> (Datapath, sealpaa_datapath::Signal) {
    let mut dp = Datapath::new();
    let x = dp.input("x", 3);
    let y = dp.input("y", 3);
    let z = dp.input("z", 3);
    let xy = dp
        .add(x, y, AdderChain::uniform(cell.cell(), 3))
        .expect("fits");
    let sum = dp
        .add(xy, z, AdderChain::uniform(cell.cell(), 4))
        .expect("fits");
    (dp, sum)
}

#[test]
fn tree_engine_equals_brute_force_on_two_adder_chain_for_every_cell() {
    for cell in StandardCell::ALL {
        let (dp, sum) = two_adder_chain(cell);
        let inputs = [("x", bits_a()), ("y", bits_b()), ("z", bits_c())];
        let inputs: Vec<(&str, Vec<Rational>)> =
            inputs.iter().map(|(n, b)| (*n, b.clone())).collect();
        let tree = exact_tree_moments(&dp, sum, &inputs).expect("tree-shaped");
        let brute = brute_force_moments(&dp, sum, &inputs).expect("9 input bits");
        assert_eq!(tree, brute, "cell {}", cell.name());
    }
}

#[test]
fn fast_engine_is_exact_on_a_single_adder_for_every_cell() {
    for cell in StandardCell::ALL {
        let mut dp = Datapath::new();
        let x = dp.input("x", 3);
        let y = dp.input("y", 3);
        let sum = dp
            .add(x, y, AdderChain::uniform(cell.cell(), 3))
            .expect("fits");
        let inputs: Vec<(&str, Vec<Rational>)> = vec![("x", bits_a()), ("y", bits_b())];
        let fast = propagate_moments(&dp, sum, &inputs).expect("valid");
        let brute = brute_force_moments(&dp, sum, &inputs).expect("6 input bits");
        let tree = exact_tree_moments(&dp, sum, &inputs).expect("tree-shaped");
        assert_eq!(fast.error_mean, brute.mean, "cell {}", cell.name());
        assert_eq!(fast.error_second, brute.second, "cell {}", cell.name());
        assert_eq!(
            fast.adders[0].error_probability,
            brute.error_probability,
            "cell {}",
            cell.name()
        );
        assert_eq!(tree, brute, "cell {}", cell.name());
    }
}

#[test]
fn fast_engine_is_exact_with_shifted_operands() {
    // (x << 2) + y: shifting preserves bit independence, so the fast
    // engine stays exact.
    for cell in [
        StandardCell::Lpaa2,
        StandardCell::Lpaa5,
        StandardCell::Lpaa6,
    ] {
        let mut dp = Datapath::new();
        let x = dp.input("x", 3);
        let y = dp.input("y", 3);
        let sx = dp.shl(x, 2).expect("fits");
        let sum = dp
            .add(sx, y, AdderChain::uniform(cell.cell(), 5))
            .expect("fits");
        let inputs: Vec<(&str, Vec<Rational>)> = vec![("x", bits_a()), ("y", bits_b())];
        let fast = propagate_moments(&dp, sum, &inputs).expect("valid");
        let brute = brute_force_moments(&dp, sum, &inputs).expect("6 input bits");
        assert_eq!(fast.error_mean, brute.mean, "cell {}", cell.name());
        assert_eq!(fast.error_second, brute.second, "cell {}", cell.name());
    }
}

#[test]
fn tree_engine_handles_gates_exactly() {
    // (x gated by b) + y: the gate correlates the adder's operand bits, so
    // only the exact engines agree — pin them against each other.
    let mut dp = Datapath::new();
    let x = dp.input("x", 3);
    let b = dp.input("b", 1);
    let y = dp.input("y", 3);
    let gated = dp.gate(x, b).expect("1-bit control");
    let sum = dp
        .add(gated, y, AdderChain::uniform(StandardCell::Lpaa3.cell(), 3))
        .expect("fits");
    let inputs: Vec<(&str, Vec<Rational>)> =
        vec![("x", bits_a()), ("b", vec![r(2, 7)]), ("y", bits_b())];
    let tree = exact_tree_moments(&dp, sum, &inputs).expect("tree-shaped");
    let brute = brute_force_moments(&dp, sum, &inputs).expect("7 input bits");
    assert_eq!(tree, brute);
}

#[test]
fn tree_engine_rejects_fanout() {
    // x + x reuses a signal: not a tree.
    let mut dp = Datapath::new();
    let x = dp.input("x", 3);
    let sum = dp
        .add(x, x, AdderChain::uniform(StandardCell::Lpaa1.cell(), 3))
        .expect("fits");
    let inputs: Vec<(&str, Vec<Rational>)> = vec![("x", bits_a())];
    let err = exact_tree_moments(&dp, sum, &inputs).expect_err("fan-out 2");
    assert_eq!(err, PropagateError::NotATree { signal: x.index() });
    // Brute force does not care about sharing.
    assert!(brute_force_moments(&dp, sum, &inputs).is_ok());
}

#[test]
fn accurate_cells_are_error_free_in_every_engine() {
    let (dp, sum) = two_adder_chain(StandardCell::Accurate);
    let inputs: Vec<(&str, Vec<Rational>)> =
        vec![("x", bits_a()), ("y", bits_b()), ("z", bits_c())];
    let fast = propagate_moments(&dp, sum, &inputs).expect("valid");
    let brute = brute_force_moments(&dp, sum, &inputs).expect("9 input bits");
    assert!(fast.error_mean.is_zero());
    assert!(fast.error_second.is_zero());
    assert!(brute.error_probability.is_zero());
    assert!(brute.second.is_zero());

    // A 4-input tree of 6-bit operands: too many input bits for brute
    // force, so only the fast engine's adders and marginals are checked.
    let mut dp = Datapath::new();
    let leaves: Vec<_> = ["a", "b", "c", "d"]
        .into_iter()
        .map(|name| dp.input(name, 6))
        .collect();
    let accurate = |width| AdderChain::uniform(StandardCell::Accurate.cell(), width);
    let ab = dp.add(leaves[0], leaves[1], accurate(6)).expect("fits");
    let cd = dp.add(leaves[2], leaves[3], accurate(6)).expect("fits");
    let sum = dp.add(ab, cd, accurate(7)).expect("fits");
    let inputs: Vec<(&str, Vec<Rational>)> = ["a", "b", "c", "d"]
        .into_iter()
        .map(|name| (name, vec![r(1, 2); 6]))
        .collect();
    let mut stepper = GraphStepper::new(&dp, &inputs).expect("valid");
    stepper.run_to_end().expect("no gates");
    let fast = stepper.prediction(sum).expect("pushed");
    assert_eq!(fast.adders.len(), 3);
    assert!(fast.adders.iter().all(|a| a.error_probability.is_zero()));
    assert_eq!(fast.any_adder_error(), 0.0);
    // A fair exact adder keeps bits balanced.
    let bits = &stepper.state(sum).bits;
    assert!(bits
        .iter()
        .all(|p| Rational::zero() <= *p && *p <= Rational::one()));
    assert_eq!(bits[0], r(1, 2));
}
