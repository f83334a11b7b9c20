//! Canonical datapath topologies for the propagation engine.
//!
//! The paper motivates its analysis with DSP accelerators: FIR filters,
//! image convolution, array multipliers. These builders express those
//! structures as explicit [`Datapath`] graphs — constant multiplies as
//! shift-adds over set coefficient bits, multi-operand sums as balanced
//! adder trees (the CSA-tree shape), a bitwise multiplier as gated,
//! shifted partial products — so the engine can predict their output SNR
//! analytically and a search can assign a cell per adder node.

use sealpaa_cells::{AdderChain, Cell};
use sealpaa_datapath::{Datapath, DatapathError, Signal};

/// A built datapath with its designated output and input names in
/// declaration order.
#[derive(Debug, Clone)]
pub struct Topology {
    /// The graph.
    pub datapath: Datapath,
    /// The output signal predictions and replays should target.
    pub output: Signal,
    /// Input names, in declaration order.
    pub inputs: Vec<String>,
}

/// Sums `terms` through a balanced tree of `cell` adders and returns the
/// root. Each adder is sized to its wider operand (output grows one bit
/// per level, holding the carry).
///
/// # Errors
///
/// [`DatapathError`] if a sum would exceed the 63-bit evaluation limit.
///
/// # Panics
///
/// Panics if `terms` is empty.
pub fn accumulate(
    dp: &mut Datapath,
    cell: &Cell,
    terms: &[Signal],
) -> Result<Signal, DatapathError> {
    assert!(!terms.is_empty(), "cannot accumulate zero terms");
    let mut level: Vec<Signal> = terms.to_vec();
    while level.len() > 1 {
        let mut next = Vec::with_capacity(level.len().div_ceil(2));
        let mut pairs = level.chunks_exact(2);
        for pair in &mut pairs {
            let width = dp.width(pair[0]).max(dp.width(pair[1]));
            let chain = AdderChain::uniform(cell.clone(), width);
            next.push(dp.add(pair[0], pair[1], chain)?);
        }
        next.extend(pairs.remainder().iter().copied());
        level = next;
    }
    Ok(level[0])
}

/// Multiplies `x` by the constant `k` as shift-adds over `k`'s set bits
/// (the multiplier-less constant multiply hardware actually uses). `k = 0`
/// yields a 1-bit constant zero; a power of two is a pure shift with no
/// adders.
///
/// # Errors
///
/// [`DatapathError`] if an intermediate would exceed the 63-bit limit.
pub fn mul_const(
    dp: &mut Datapath,
    cell: &Cell,
    x: Signal,
    k: u64,
) -> Result<Signal, DatapathError> {
    if k == 0 {
        return Ok(dp.constant(0, 1));
    }
    let mut terms = Vec::new();
    for bit in 0..64 {
        if (k >> bit) & 1 == 1 {
            terms.push(if bit == 0 { x } else { dp.shl(x, bit)? });
        }
    }
    accumulate(dp, cell, &terms)
}

/// A constant-coefficient FIR filter `y = Σ_t coeff[t] · x_t` over
/// `sample_width`-bit samples, every addition through `cell` chains.
/// Inputs are named `x0`, `x1`, … (tap order: `x_t` is the sample the
/// `t`-th coefficient multiplies).
///
/// # Errors
///
/// [`DatapathError::TooWide`] if the worst-case sum exceeds the 63-bit
/// limit.
///
/// # Panics
///
/// Panics if `coefficients` is empty or all-zero, or `sample_width` is 0
/// (the [`FirFilter`](sealpaa_datapath::FirFilter) conventions).
pub fn fir(
    cell: &Cell,
    coefficients: &[u64],
    sample_width: usize,
) -> Result<Topology, DatapathError> {
    assert!(!coefficients.is_empty(), "a FIR filter needs taps");
    assert!(sample_width > 0, "samples need at least one bit");
    assert!(
        coefficients.iter().any(|&c| c > 0),
        "at least one coefficient must be non-zero"
    );
    let mut dp = Datapath::new();
    let mut inputs = Vec::new();
    let mut terms = Vec::new();
    for (t, &coeff) in coefficients.iter().enumerate() {
        if coeff == 0 {
            continue;
        }
        let name = format!("x{t}");
        let x = dp.input(&name, sample_width);
        inputs.push(name);
        terms.push(mul_const(&mut dp, cell, x, coeff)?);
    }
    let output = accumulate(&mut dp, cell, &terms)?;
    Ok(Topology {
        datapath: dp,
        output,
        inputs,
    })
}

/// A 2-D convolution tap `y = Σ kernel[ky][kx] · p_{ky,kx}` over
/// `pixel_bits`-bit pixels — one output pixel of
/// [`Conv2d`](sealpaa_datapath::Conv2d), as an explicit graph. Inputs are
/// named `p{ky}_{kx}` for each non-zero kernel coefficient.
///
/// # Errors
///
/// [`DatapathError::TooWide`] if the worst-case sum exceeds the 63-bit
/// limit.
///
/// # Panics
///
/// Panics if the kernel is empty, ragged, or all-zero, or `pixel_bits` is
/// 0.
pub fn conv2d(
    cell: &Cell,
    kernel: &[Vec<u64>],
    pixel_bits: usize,
) -> Result<Topology, DatapathError> {
    assert!(!kernel.is_empty(), "a kernel needs rows");
    assert!(pixel_bits > 0, "pixels need at least one bit");
    let cols = kernel[0].len();
    assert!(
        cols > 0 && kernel.iter().all(|row| row.len() == cols),
        "kernel rows must be non-empty and equally long"
    );
    assert!(
        kernel.iter().flatten().any(|&c| c > 0),
        "at least one kernel coefficient must be non-zero"
    );
    let mut dp = Datapath::new();
    let mut inputs = Vec::new();
    let mut terms = Vec::new();
    for (ky, row) in kernel.iter().enumerate() {
        for (kx, &coeff) in row.iter().enumerate() {
            if coeff == 0 {
                continue;
            }
            let name = format!("p{ky}_{kx}");
            let pixel = dp.input(&name, pixel_bits);
            inputs.push(name);
            terms.push(mul_const(&mut dp, cell, pixel, coeff)?);
        }
    }
    let output = accumulate(&mut dp, cell, &terms)?;
    Ok(Topology {
        datapath: dp,
        output,
        inputs,
    })
}

/// An array-style `width × width` multiplier: partial product `i` is `x`
/// gated by the 1-bit input `y{i}` and shifted left by `i`, all partial
/// products summed through a balanced `cell` tree. Inputs are `x`
/// (`width` bits) then `y0`, …, `y{width−1}` (1 bit each).
///
/// # Errors
///
/// [`DatapathError::TooWide`] if the product exceeds the 63-bit limit.
///
/// # Panics
///
/// Panics if `width` is 0.
pub fn multiplier(cell: &Cell, width: usize) -> Result<Topology, DatapathError> {
    assert!(width > 0, "a multiplier needs at least one bit");
    let mut dp = Datapath::new();
    let x = dp.input("x", width);
    let mut inputs = vec!["x".to_string()];
    let mut terms = Vec::new();
    for i in 0..width {
        let name = format!("y{i}");
        let y = dp.input(&name, 1);
        inputs.push(name);
        let gated = dp.gate(x, y)?;
        terms.push(if i == 0 { gated } else { dp.shl(gated, i)? });
    }
    let output = accumulate(&mut dp, cell, &terms)?;
    Ok(Topology {
        datapath: dp,
        output,
        inputs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    #[test]
    fn fir_matches_direct_convolution_when_exact() {
        let topo = fir(&StandardCell::Accurate.cell(), &[3, 1, 2], 8).expect("fits");
        let out = topo
            .datapath
            .evaluate(&[("x0", 10), ("x1", 20), ("x2", 30)])
            .expect("inputs cover")
            .value(topo.output);
        assert_eq!(out, 3 * 10 + 20 + 2 * 30);
    }

    #[test]
    fn fir_skips_zero_coefficients() {
        let topo = fir(&StandardCell::Accurate.cell(), &[1, 0, 2], 4).expect("fits");
        assert_eq!(topo.inputs, vec!["x0", "x2"]);
    }

    #[test]
    fn conv2d_matches_direct_sum_when_exact() {
        let kernel = vec![vec![1u64, 2], vec![2, 4]];
        let topo = conv2d(&StandardCell::Accurate.cell(), &kernel, 8).expect("fits");
        let out = topo
            .datapath
            .evaluate(&[("p0_0", 1), ("p0_1", 2), ("p1_0", 3), ("p1_1", 4)])
            .expect("inputs cover")
            .value(topo.output);
        assert_eq!(out, 1 + 2 * 2 + 2 * 3 + 4 * 4);
    }

    #[test]
    fn multiplier_matches_product_when_exact() {
        let topo = multiplier(&StandardCell::Accurate.cell(), 4).expect("fits");
        for (x, y) in [(5u64, 11u64), (15, 15), (0, 7), (9, 0)] {
            let mut pairs = vec![("x", x)];
            let names: Vec<String> = (0..4).map(|i| format!("y{i}")).collect();
            for (i, name) in names.iter().enumerate() {
                pairs.push((name.as_str(), (y >> i) & 1));
            }
            let out = topo
                .datapath
                .evaluate(&pairs)
                .expect("inputs cover")
                .value(topo.output);
            assert_eq!(out, x * y, "x={x} y={y}");
        }
    }

    #[test]
    fn mul_const_power_of_two_is_pure_shift() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let y = mul_const(&mut dp, &StandardCell::Lpaa1.cell(), x, 8).expect("fits");
        assert!(dp.adders().is_empty(), "no adders for 8·x");
        assert_eq!(dp.evaluate(&[("x", 5)]).expect("covered").value(y), 40);
    }

    #[test]
    fn mul_const_zero_is_constant_zero() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let y = mul_const(&mut dp, &StandardCell::Lpaa1.cell(), x, 0).expect("fits");
        assert_eq!(dp.evaluate(&[("x", 5)]).expect("covered").value(y), 0);
    }
}
