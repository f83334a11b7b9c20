//! Heterogeneous block-based adders: exact error-distance distributions and
//! budgeted design-space exploration.
//!
//! The GeAr family fixes one sub-adder width R and one prediction depth P
//! for the whole datapath. The block family drops that restriction: every
//! block chooses its own width, its own carry-prediction depth, and its own
//! full-adder cell. This example
//!
//! 1. analyzes one hand-written heterogeneous configuration — exact
//!    ED-PMF, CDF and moments under uniform inputs,
//! 2. confirms the analytical distribution against exhaustive enumeration
//!    of *all* inputs, exactly, in rational arithmetic, and
//! 3. lets the prefix-sharing DSE find the provably-best mean-ED
//!    configuration under a power budget.
//!
//! Run with: `cargo run --release --example heterogeneous_blocks`

use sealpaa::blocks::{error_distance_distribution, exhaustive_distance_histogram, BlockConfig};
use sealpaa::explore::{
    accurate_cell_with_proxy_costs, best_block_design, block_pareto_front, enumerate_block_designs,
    BlockBudget, BlockObjective, BlockSearchSpace,
};
use sealpaa::{InputProfile, Rational, StandardCell};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // ------------------------------------------------------------------
    // 1. One heterogeneous configuration, analyzed exactly.
    //
    // An accurate low block (LSBs carry the numerical weight of rounding),
    // two approximate predicted blocks, and a cheap truncating top block —
    // the kind of mix neither GeAr nor a homogeneous chain can express.
    // ------------------------------------------------------------------
    let config: BlockConfig = "4:0:accurate,3:2:lpaa1,3:2:lpaa2,2:3:accurate".parse()?;
    let width = config.width();
    println!("configuration : {config}");
    println!(
        "width         : {width} bits in {} blocks",
        config.block_count()
    );
    println!("power proxy   : {:.0} nW", config.total_power_nw());
    println!(
        "delay proxy   : {} (longest window)",
        config.max_window_len()
    );

    let uniform = InputProfile::<f64>::uniform(width);
    let dist = error_distance_distribution(&config, &uniform)?;
    println!("\nunder uniform random operands:");
    println!("  P(D != 0)   : {:.6}", dist.error_rate());
    println!("  E[D]        : {:+.4}", dist.mean());
    println!("  E[|D|]      : {:.4}", dist.mean_absolute());
    println!("  E[D^2]      : {:.4}", dist.mean_squared());
    println!("  max |D|     : {}", dist.max_absolute_error());

    let cdf = dist.cdf();
    println!(
        "\n  error-distance CDF ({} support points); quantiles:",
        cdf.len()
    );
    for q in [0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
        let (d, p) = cdf.iter().find(|(_, p)| *p >= q).expect("CDF reaches 1");
        println!("    P(D <= {d:>4}) = {p:.6}  (first d with CDF >= {q})");
    }

    // ------------------------------------------------------------------
    // 2. Exhaustive confirmation — exact, in Rational, over all inputs.
    // ------------------------------------------------------------------
    let analytical =
        error_distance_distribution(&config, &InputProfile::<Rational>::uniform(width))?;
    let exhaustive = exhaustive_distance_histogram(&config)?;
    let cases = exhaustive.cases();
    assert_eq!(analytical, exhaustive.to_distribution::<Rational>());
    println!("\nexhaustive sweep of all {cases} input combinations:");
    println!("  CONFIRMED — identical PMF, exactly, in rational arithmetic");

    // ------------------------------------------------------------------
    // 3. Budgeted DSE over the heterogeneous family.
    //
    // Every tiling of 12 bits from {2,3,4}-wide blocks, prediction depths
    // {0,1,2}, cells {accurate, LPAA 1, LPAA 2} — under a power budget no
    // fully-accurate deep-window design can meet.
    // ------------------------------------------------------------------
    let space = BlockSearchSpace::new(
        &[2, 3, 4],
        &[0, 1, 2],
        // The plain accurate cell carries no power/area characteristics, so
        // the DSE uses the proxy-costed variant (see `sealpaa-explore`).
        &[
            accurate_cell_with_proxy_costs(),
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa2.cell(),
        ],
    )?;
    let budget = BlockBudget {
        max_power_nw: Some(6000.0),
        max_area_ge: None,
        max_window_len: Some(5),
    };
    println!(
        "\nDSE: {} candidate designs at width {width}, budget {} nW / window <= {}",
        space.design_count(width),
        budget.max_power_nw.unwrap(),
        budget.max_window_len.unwrap()
    );

    let best = best_block_design(&space, &uniform, &budget, BlockObjective::MeanAbsolute, 4)?
        .expect("the budget admits at least one design");
    println!("best mean-|D| design:\n  {best}");

    let designs = enumerate_block_designs(&space, &uniform, &budget, 4)?;
    let front = block_pareto_front(designs);
    println!("\nPareto front (E[|D|] vs power), {} designs:", front.len());
    for design in front.iter().take(8) {
        println!("  {design}");
    }
    if front.len() > 8 {
        println!("  ... and {} more", front.len() - 8);
    }
    Ok(())
}
