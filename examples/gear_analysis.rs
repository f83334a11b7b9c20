//! GeAr low-latency adder analysis (paper Sec. 2.2): sweep the (R, P)
//! configuration space of a 16-bit GeAr and quantify the accuracy/latency
//! trade-off with the exact linear-time analysis.
//!
//! Run with: `cargo run --release --example gear_analysis`

use sealpaa::blocks::BlockAdder;
use sealpaa::gear::{error_probability, GearConfig};
use sealpaa::StandardCell;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let n = 16;
    println!("GeAr configurations for N = {n} (uniform random operands):\n");
    println!("config              blocks  L (latency ∝)  P(error)");
    println!("----------------------------------------------------");
    let pa = vec![0.5f64; n];
    for r in [1usize, 2, 4, 8] {
        for p in [0usize, 1, 2, 4, 8] {
            let Ok(config) = GearConfig::new(n, r, p) else {
                continue; // (N - R - P) % R != 0: does not tile
            };
            let err = error_probability(&config, &pa, &pa, 0.0)?;
            println!(
                "{:<19} {:>6}  {:>13}  {:.6}",
                config.to_string(),
                config.block_count(),
                config.sub_adder_length(),
                err
            );
        }
    }

    // The carry-chain intuition, concretely: GeAr(16,2,2) fails exactly when
    // a carry must cross more than P=2 propagate positions.
    let config = GearConfig::new(16, 2, 2)?;
    let adder = BlockAdder::new(config.to_blocks(StandardCell::Accurate.cell())?);
    println!("\nconcrete failure of {config}:");
    let (a, b) = (0x00FF, 0x0001); // long carry chain from bit 0
    let result = adder.add(a, b, false);
    println!(
        "  {a:#06x} + {b:#06x} = {:#06x} (exact {:#06x}, carry {})",
        result.sum_bits(),
        a + b,
        result.carry_out()
    );
    println!(
        "  matches accurate: {}",
        result.value() == adder.accurate_sum(a, b, false)
    );
    Ok(())
}
