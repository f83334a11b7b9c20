#![allow(clippy::needless_range_loop)]

//! Cross-crate validation of the extensions beyond the paper: error
//! magnitude/distribution vs the simulator, sum-bit probabilities, and
//! datapath composition vs the plain per-adder analysis.

use std::collections::BTreeMap;

use sealpaa::analysis::{error_distribution, error_magnitude, success_sum_probabilities};
use sealpaa::cells::{AdderChain, InputProfile, StandardCell};
use sealpaa::datapath::Datapath;
use sealpaa::num::{Prob, Rational};
use sealpaa::propagate::{propagate_moments, GraphStepper};
use sealpaa::sim::exhaustive;
use sealpaa::{analyze, exact_error_analysis};

#[test]
fn distribution_matches_simulator_histogram_at_uniform_inputs() {
    for cell in [
        StandardCell::Lpaa1,
        StandardCell::Lpaa5,
        StandardCell::Lpaa6,
    ] {
        let chain = AdderChain::uniform(cell.cell(), 4);
        let profile = InputProfile::<Rational>::uniform(4);
        let dist = error_distribution(&chain, &profile).expect("widths match");
        let sim = exhaustive(&chain, &profile).expect("feasible width");
        // At uniform inputs each case has weight 1/cases, so the exact PMF
        // must equal histogram-count / cases.
        let expect: BTreeMap<i64, Rational> = sim
            .histogram
            .iter()
            .map(|(&d, &count)| (d, Rational::from_ratio(count as i64, sim.cases as i64)))
            .collect();
        let got: BTreeMap<i64, Rational> = dist.pmf.iter().cloned().collect();
        assert_eq!(got, expect, "{cell}");
    }
}

#[test]
fn magnitude_moments_match_simulator_metrics() {
    let chain = AdderChain::uniform(StandardCell::Lpaa4.cell(), 5);
    let profile = InputProfile::constant(5, 0.5);
    let moments = error_magnitude(&chain, &profile).expect("widths match");
    let sim = exhaustive(&chain, &profile).expect("feasible width");
    assert!(
        (moments.mean_error_distance - sim.metrics.mean_error_distance).abs() < 1e-9,
        "mean: {} vs {}",
        moments.mean_error_distance,
        sim.metrics.mean_error_distance
    );
    // The simulator tracks E[|D|]; the analytical module tracks E[D²]. The
    // RMS must dominate the mean absolute error (Jensen).
    assert!(moments.rms_error_distance() >= sim.metrics.mean_absolute_error_distance - 1e-9);
    // And the distribution's max equals the simulator's max.
    let dist = error_distribution(&chain, &profile).expect("widths match");
    assert_eq!(
        dist.max_absolute_error(),
        sim.metrics.max_absolute_error_distance
    );
}

#[test]
fn distribution_zero_mass_equals_success_probability() {
    let chain = AdderChain::uniform(StandardCell::Lpaa7.cell(), 6);
    let profile = InputProfile::<Rational>::constant(6, Rational::from_ratio(1, 10));
    let dist = error_distribution(&chain, &profile).expect("widths match");
    let joint = exact_error_analysis(&chain, &profile).expect("widths match");
    assert_eq!(dist.probability_of(0), joint.output_error.complement());
}

#[test]
fn sum_bit_probabilities_chain_rule() {
    // Σ over sum values: P(sum_i=1 ∩ S) + P(sum_i=0 ∩ S) = prefix success.
    // We only expose the sum=1 side; check it against the analysis trace via
    // enumeration of the complementary side.
    let chain = AdderChain::uniform(StandardCell::Lpaa6.cell(), 4);
    let profile = InputProfile::<Rational>::constant(4, Rational::from_ratio(3, 7));
    let s1 = success_sum_probabilities(&chain, &profile).expect("widths match");
    let analysis = analyze(&chain, &profile).expect("widths match");
    for i in 0..4 {
        assert!(s1[i] <= analysis.prefix_success(i), "stage {i}");
        if i > 0 {
            // Success mass only shrinks, so the sum-bit mass at stage i is
            // also bounded by the previous prefix.
            assert!(s1[i] <= analysis.prefix_success(i - 1), "stage {i}");
        }
    }
}

#[test]
fn single_adder_datapath_estimate_equals_plain_analysis() {
    let mut dp = Datapath::new();
    let x = dp.input("x", 6);
    let y = dp.input("y", 6);
    let chain = AdderChain::uniform(StandardCell::Lpaa3.cell(), 6);
    let sum = dp.add(x, y, chain.clone()).expect("fits");

    let pa: Vec<f64> = (0..6).map(|i| 0.1 + 0.1 * i as f64).collect();
    let pb: Vec<f64> = (0..6).map(|i| 0.9 - 0.1 * i as f64).collect();
    let est =
        propagate_moments(&dp, sum, &[("x", pa.clone()), ("y", pb.clone())]).expect("valid inputs");

    let profile = InputProfile::new(pa, pb, 0.0).expect("valid profile");
    let direct = analyze(&chain, &profile).expect("widths match");
    assert_eq!(est.adders.len(), 1);
    assert!(
        (est.adders[0].error_probability - direct.error_probability()).abs() < 1e-12,
        "datapath {} vs direct {}",
        est.adders[0].error_probability,
        direct.error_probability()
    );
}

#[test]
fn datapath_input_probabilities_flow_to_downstream_adder() {
    // x + 0 through an exact adder must leave x's bit probabilities intact;
    // a following approximate adder then sees exactly those probabilities.
    let mut dp = Datapath::new();
    let x = dp.input("x", 4);
    let zero = dp.constant(0, 4);
    let exact = AdderChain::uniform(StandardCell::Accurate.cell(), 4);
    let pass = dp.add(x, zero, exact).expect("fits");
    let approx = AdderChain::uniform(StandardCell::Lpaa1.cell(), 5);
    let _out = dp.add(pass, zero, approx.clone()).expect("fits");

    let px = vec![0.3, 0.6, 0.2, 0.8];
    let mut est = GraphStepper::new(&dp, &[("x", px.clone())]).expect("valid inputs");
    est.run_to_end().expect("no gates");
    for (i, &p) in px.iter().enumerate() {
        assert!((est.state(pass).bits[i] - p).abs() < 1e-12, "bit {i}");
    }
    // The second adder's estimate equals direct analysis over those probs.
    let mut pa = px.clone();
    pa.push(0.0); // the carry bit of x+0 is never set
    let profile = InputProfile::new(pa, vec![0.0; 5], 0.0).expect("valid profile");
    let direct = analyze(&approx, &profile).expect("widths match");
    assert!((est.adders()[1].error_probability - direct.error_probability()).abs() < 1e-12);
}

#[test]
fn magnitude_in_f64_and_rational_agree() {
    let chain = AdderChain::uniform(StandardCell::Lpaa2.cell(), 8);
    let f = error_magnitude(&chain, &InputProfile::constant(8, 0.25)).expect("widths match");
    let r = error_magnitude(
        &chain,
        &InputProfile::<Rational>::constant(8, Rational::from_ratio(1, 4)),
    )
    .expect("widths match");
    assert!((f.mean_error_distance - r.mean_error_distance.to_f64()).abs() < 1e-9);
    assert!(
        (f.mean_squared_error_distance - r.mean_squared_error_distance.to_f64()).abs()
            / r.mean_squared_error_distance.to_f64()
            < 1e-9
    );
}
