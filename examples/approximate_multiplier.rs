//! Approximate adders inside bigger arithmetic: a shift-add multiplier and
//! an adder-tree datapath, with the paper's analysis composed across the
//! datapath and validated against Monte-Carlo.
//!
//! Run with: `cargo run --release --example approximate_multiplier`

use sealpaa::cells::{AdderChain, StandardCell};
use sealpaa::datapath::{Datapath, ShiftAddMultiplier};
use sealpaa::propagate::{monte_carlo, propagate_moments};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ---- 8x8 shift-add multipliers, one per cell --------------------
    println!("8x8 shift-add multiplier quality (20k random operand pairs):");
    println!("cell     error rate  MRED      max |error|");
    println!("---------------------------------------------");
    for cell in [
        StandardCell::Accurate,
        StandardCell::Lpaa1,
        StandardCell::Lpaa6,
        StandardCell::Lpaa7,
        StandardCell::Lpaa2,
    ] {
        let m = ShiftAddMultiplier::new(cell.cell(), 8);
        let q = m.quality(20_000, 42);
        println!(
            "{:<8} {:>9.4}  {:>8.5}  {:>10}",
            cell.name(),
            q.error_rate,
            q.mean_relative_error,
            q.max_absolute_error
        );
    }

    // ---- A 4-input adder tree: analytical composition vs Monte-Carlo ---
    let cell = StandardCell::Lpaa6;
    let mut dp = Datapath::new();
    let inputs: Vec<_> = ["a", "b", "c", "d"]
        .into_iter()
        .map(|n| dp.input(n, 8))
        .collect();
    let chain = |w| AdderChain::uniform(cell.cell(), w);
    let ab = dp.add(inputs[0], inputs[1], chain(8))?;
    let cd = dp.add(inputs[2], inputs[3], chain(8))?;
    let sum = dp.add(ab, cd, chain(9))?;

    let input_probs: Vec<(&str, Vec<f64>)> = ["a", "b", "c", "d"]
        .into_iter()
        .map(|n| (n, vec![0.3; 8]))
        .collect();
    let est = propagate_moments(&dp, sum, &input_probs)?;
    println!(
        "\n4-input {} adder tree (8-bit operands, p = 0.3):",
        cell.name()
    );
    for adder in &est.adders {
        println!(
            "  adder #{:<2} analytical P(error) = {:.5}",
            adder.signal.index(),
            adder.error_probability
        );
    }
    println!(
        "  composed P(any adder errs)  = {:.5} (independence heuristic)",
        est.any_adder_error()
    );
    let mc = monte_carlo(&dp, sum, &input_probs, 100_000, 7)?;
    println!(
        "  Monte-Carlo output error    = {:.5} (MSE = {:.3})",
        mc.error_rate, mc.mse
    );
    Ok(())
}
