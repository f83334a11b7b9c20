//! The moment-propagation engine.
//!
//! Every signal carries an error random variable `D = approx − exact`. The
//! engine propagates `(E[D], E[D²])` — plus the exact value's `(E[V],
//! E[V²])` for SNR — node by node:
//!
//! * **Add** — `D_out = D_a + D_b + D_adder` exactly, where `D_adder` is the
//!   adder's own injected error on its actual operands. Means add by
//!   linearity; second moments use operand independence
//!   (`E[D_a·D_b] = E[D_a]·E[D_b]`), exact on tree-shaped cones. `D_adder`'s
//!   own moments come from the paper's per-adder machinery
//!   ([`error_magnitude`]) under the *propagated marginal* bit
//!   probabilities, treated as independent bits. That is exact when both
//!   operands are input or constant bits, shifted or not, and an
//!   approximation otherwise: an upstream adder's carries or a gate's
//!   control correlate the bits of a signal, and a shared ancestor
//!   correlates two operands.
//! * **Shl k** — `D` scales by `2^k`, `D²` by `4^k`. Exact.
//! * **Gate** — `D_out = B·D_a` for the control bit `B`; requires an
//!   error-free control (`E[D²] = 0` on the control signal), then
//!   `E[D_out] = p·E[D_a]`, `E[D_out²] = p·E[D_a²]`.
//! * **Input / Const** — error-free.
//!
//! Everything is generic over [`Prob`], so the whole pipeline runs in
//! exact [`Rational`](sealpaa_num::Rational) arithmetic when wanted; the
//! consistency tests pin the engine against brute-force enumeration that
//! way.

use sealpaa_cells::{AdderChain, Cell, InputProfile};
use sealpaa_core::{
    analyze, error_distribution, error_magnitude, signal_probabilities, MAX_DISTRIBUTION_WIDTH,
};
use sealpaa_datapath::{Datapath, DatapathError, NodeKind, Signal};
use sealpaa_num::Prob;

use crate::error::PropagateError;
use crate::model::ErrorPmf;

/// Clamps a probability-like value into `[0, 1]`.
fn clamp01<T: Prob>(v: T) -> T {
    if v < T::zero() {
        T::zero()
    } else if T::one() < v {
        T::one()
    } else {
        v
    }
}

/// `2^e` as a `T`, by repeated doubling (safe past `u64` range).
fn pow2<T: Prob>(e: usize) -> T {
    let two = T::from_ratio(2, 1);
    let mut acc = T::one();
    for _ in 0..e {
        acc = acc * two.clone();
    }
    acc
}

/// Pads a bit-probability vector with zeros up to `width`.
fn pad_bits<T: Prob>(bits: &[T], width: usize) -> Vec<T> {
    let mut padded = bits.to_vec();
    while padded.len() < width {
        padded.push(T::zero());
    }
    padded
}

/// Validates named per-bit probabilities against a datapath's inputs and
/// returns them indexed by node (Some only at input nodes).
pub(crate) fn validated_input_bits<T: Prob>(
    dp: &Datapath,
    inputs: &[(&str, Vec<T>)],
) -> Result<Vec<Option<Vec<T>>>, PropagateError> {
    for (name, _) in inputs {
        if !dp.input_names().any(|n| n == *name) {
            return Err(DatapathError::UnknownInput {
                name: (*name).to_string(),
            }
            .into());
        }
    }
    let mut by_node = vec![None; dp.len()];
    for signal in dp.signals() {
        if let NodeKind::Input { name } = dp.kind(signal) {
            let Some((_, bits)) = inputs.iter().find(|(n, _)| *n == name) else {
                return Err(DatapathError::MissingInput {
                    name: name.to_string(),
                }
                .into());
            };
            let in_range = |p: &T| T::zero() <= *p && *p <= T::one();
            if bits.len() != dp.width(signal) || !bits.iter().all(in_range) {
                return Err(DatapathError::BadProbabilities {
                    name: name.to_string(),
                }
                .into());
            }
            by_node[signal.index()] = Some(bits.clone());
        }
    }
    Ok(by_node)
}

/// Propagated state of one signal.
#[derive(Debug, Clone, PartialEq)]
pub struct SignalState<T> {
    /// Marginal `P(bit = 1)` of the approximate signal, LSB first.
    pub bits: Vec<T>,
    /// `E[D]` — mean signed error distance.
    pub error_mean: T,
    /// `E[D²]` — second moment of the error distance.
    pub error_second: T,
    /// `E[V]` — mean of the exact (error-free) value.
    pub value_mean: T,
    /// `E[V²]` — second moment of the exact value.
    pub value_second: T,
}

/// The error model of one adder node under its propagated operands.
#[derive(Debug, Clone, PartialEq)]
pub struct AdderErrorModel<T> {
    /// The adder's output signal.
    pub signal: Signal,
    /// `P(D_adder ≠ 0)` — the paper's per-adder error probability.
    pub error_probability: T,
    /// `E[D_adder]` — the adder's own injected bias.
    pub mean: T,
    /// `E[D_adder²]`.
    pub second: T,
}

/// Incremental, prefix-sharing propagation through a datapath.
///
/// Nodes are consumed in index order via [`push`](GraphStepper::push);
/// [`truncate`](GraphStepper::truncate) rewinds to a shorter prefix so a
/// search over per-adder cell assignments can share all work on common
/// prefixes (the same idiom as the cell-level
/// [`PrefixStepper`](sealpaa_core::PrefixStepper)).
#[derive(Debug, Clone)]
pub struct GraphStepper<'a, T: Prob> {
    dp: &'a Datapath,
    signals: Vec<Signal>,
    input_bits: Vec<Option<Vec<T>>>,
    states: Vec<SignalState<T>>,
    adders: Vec<AdderErrorModel<T>>,
}

impl<'a, T: Prob> GraphStepper<'a, T> {
    /// Builds a stepper over `dp` with named per-bit input probabilities.
    ///
    /// # Errors
    ///
    /// [`DatapathError::UnknownInput`] / [`DatapathError::MissingInput`] /
    /// [`DatapathError::BadProbabilities`] (wrapped) on name or range
    /// mismatches.
    pub fn new(dp: &'a Datapath, inputs: &[(&str, Vec<T>)]) -> Result<Self, PropagateError> {
        let input_bits = validated_input_bits(dp, inputs)?;
        Ok(GraphStepper {
            dp,
            signals: dp.signals().collect(),
            input_bits,
            states: Vec::with_capacity(dp.len()),
            adders: Vec::new(),
        })
    }

    /// Number of nodes propagated so far.
    pub fn depth(&self) -> usize {
        self.states.len()
    }

    /// Whether every node has been propagated.
    pub fn is_complete(&self) -> bool {
        self.depth() == self.dp.len()
    }

    /// The next node to be pushed, if any.
    pub fn next_signal(&self) -> Option<Signal> {
        self.signals.get(self.depth()).copied()
    }

    /// Whether the next node is an adder (and so accepts a substitution).
    pub fn next_is_adder(&self) -> bool {
        matches!(
            self.next_signal().map(|s| self.dp.kind(s)),
            Some(NodeKind::Add { .. })
        )
    }

    /// The propagated state of an already-pushed signal.
    ///
    /// # Panics
    ///
    /// Panics if the signal has not been pushed yet.
    pub fn state(&self, signal: Signal) -> &SignalState<T> {
        &self.states[signal.index()]
    }

    /// Per-adder models pushed so far, in node order.
    pub fn adders(&self) -> &[AdderErrorModel<T>] {
        &self.adders
    }

    /// Rewinds the stepper to `depth` pushed nodes.
    ///
    /// # Panics
    ///
    /// Panics if `depth` exceeds the current depth.
    pub fn truncate(&mut self, depth: usize) {
        assert!(depth <= self.depth(), "cannot truncate forwards");
        self.states.truncate(depth);
        while self
            .adders
            .last()
            .is_some_and(|m| m.signal.index() >= depth)
        {
            self.adders.pop();
        }
    }

    /// Propagates the next node. For adder nodes, `substitute` replaces the
    /// node's chain with a uniform chain of the given cell at the same
    /// width (the per-node assignment a datapath search explores);
    /// non-adder nodes ignore it.
    ///
    /// # Errors
    ///
    /// * [`PropagateError::ErrorfulGateControl`] if a gate's control signal
    ///   carries error,
    /// * wrapped analysis/profile errors (unreachable for well-formed
    ///   graphs).
    ///
    /// # Panics
    ///
    /// Panics if the stepper is already complete.
    pub fn push(&mut self, substitute: Option<&Cell>) -> Result<(), PropagateError> {
        let signal = self.next_signal().expect("stepper already complete");
        let state = match self.dp.kind(signal) {
            NodeKind::Input { .. } => {
                let bits = self.input_bits[signal.index()]
                    .clone()
                    .expect("input bits validated at construction");
                let mut mean = T::zero();
                let mut variance = T::zero();
                for (i, p) in bits.iter().enumerate() {
                    let weight: T = pow2(i);
                    mean = mean + p.clone() * weight.clone();
                    // Var(p·2^i) = p(1−p)·4^i for an independent bit.
                    variance = variance + p.clone() * p.complement() * weight.clone() * weight;
                }
                let second = mean.clone() * mean.clone() + variance;
                SignalState {
                    bits,
                    error_mean: T::zero(),
                    error_second: T::zero(),
                    value_mean: mean,
                    value_second: second,
                }
            }
            NodeKind::Const { value } => {
                let width = self.dp.width(signal);
                let bits = (0..width)
                    .map(|i| {
                        if (value >> i) & 1 == 1 {
                            T::one()
                        } else {
                            T::zero()
                        }
                    })
                    .collect();
                let mean = T::from_ratio(value, 1);
                SignalState {
                    bits,
                    error_mean: T::zero(),
                    error_second: T::zero(),
                    value_mean: mean.clone(),
                    value_second: mean.clone() * mean,
                }
            }
            NodeKind::Shl { a, amount } => {
                let a = &self.states[a.index()];
                let mut bits = vec![T::zero(); amount];
                bits.extend(a.bits.iter().cloned());
                let scale: T = pow2(amount);
                let scale_sq = scale.clone() * scale.clone();
                SignalState {
                    bits,
                    error_mean: a.error_mean.clone() * scale.clone(),
                    error_second: a.error_second.clone() * scale_sq.clone(),
                    value_mean: a.value_mean.clone() * scale,
                    value_second: a.value_second.clone() * scale_sq,
                }
            }
            NodeKind::Gate { a, bit } => {
                let control = &self.states[bit.index()];
                if !control.error_second.is_zero() {
                    return Err(PropagateError::ErrorfulGateControl {
                        signal: signal.index(),
                    });
                }
                let p = clamp01(control.bits[0].clone());
                let a = &self.states[a.index()];
                SignalState {
                    bits: a.bits.iter().map(|b| b.clone() * p.clone()).collect(),
                    error_mean: a.error_mean.clone() * p.clone(),
                    error_second: a.error_second.clone() * p.clone(),
                    value_mean: a.value_mean.clone() * p.clone(),
                    value_second: a.value_second.clone() * p,
                }
            }
            NodeKind::Add { a, b, chain } => {
                let width = chain.width();
                let substituted;
                let chain = match substitute {
                    Some(cell) => {
                        substituted = AdderChain::uniform(cell.clone(), width);
                        &substituted
                    }
                    None => chain,
                };
                let sa = &self.states[a.index()];
                let sb = &self.states[b.index()];
                let pa: Vec<T> = pad_bits(&sa.bits, width).into_iter().map(clamp01).collect();
                let pb: Vec<T> = pad_bits(&sb.bits, width).into_iter().map(clamp01).collect();
                let profile = InputProfile::new(pa, pb, T::zero())?;
                let analysis = analyze(chain, &profile)?;
                let magnitude = error_magnitude(chain, &profile)?;
                let marginals = signal_probabilities(chain, &profile)?;
                let mut bits: Vec<T> = marginals.sum.into_iter().map(clamp01).collect();
                bits.push(clamp01(marginals.carry[width].clone()));
                let (ma, mb) = (sa.error_mean.clone(), sb.error_mean.clone());
                let md = magnitude.mean_error_distance.clone();
                let sd = magnitude.mean_squared_error_distance.clone();
                let two = T::from_ratio(2, 1);
                let error_mean = ma.clone() + mb.clone() + md.clone();
                let cross = ma.clone() * mb.clone() + md.clone() * (ma + mb);
                let error_second = sa.error_second.clone()
                    + sb.error_second.clone()
                    + sd.clone()
                    + two.clone() * cross;
                let value_mean = sa.value_mean.clone() + sb.value_mean.clone();
                let value_second = sa.value_second.clone()
                    + sb.value_second.clone()
                    + two * sa.value_mean.clone() * sb.value_mean.clone();
                self.adders.push(AdderErrorModel {
                    signal,
                    error_probability: analysis.error_probability(),
                    mean: md,
                    second: sd,
                });
                SignalState {
                    bits,
                    error_mean,
                    error_second,
                    value_mean,
                    value_second,
                }
            }
        };
        self.states.push(state);
        Ok(())
    }

    /// Pushes every remaining node without substitutions.
    pub fn run_to_end(&mut self) -> Result<(), PropagateError> {
        while !self.is_complete() {
            self.push(None)?;
        }
        Ok(())
    }

    /// Assembles the prediction for an already-pushed output signal.
    ///
    /// # Errors
    ///
    /// [`DatapathError::UnknownSignal`] (wrapped) if the signal is out of
    /// range or not yet pushed.
    pub fn prediction(&self, output: Signal) -> Result<MomentPrediction<T>, PropagateError> {
        if output.index() >= self.depth() {
            return Err(DatapathError::UnknownSignal {
                index: output.index(),
            }
            .into());
        }
        let s = &self.states[output.index()];
        Ok(MomentPrediction {
            output,
            error_mean: s.error_mean.clone(),
            error_second: s.error_second.clone(),
            value_mean: s.value_mean.clone(),
            value_second: s.value_second.clone(),
            adders: self.adders.clone(),
        })
    }
}

impl<'a> GraphStepper<'a, f64> {
    /// Composes the full output error PMF by convolving per-adder
    /// distributions along the graph (f64 only; requires a completed run
    /// *without* substitutions — the graph's own chains are used).
    ///
    /// # Errors
    ///
    /// [`PropagateError::PmfUnavailable`] if an ancestor adder is wider
    /// than [`MAX_DISTRIBUTION_WIDTH`] or a shift overflows the support.
    pub(crate) fn error_pmf(&self, output: Signal) -> Result<ErrorPmf, PropagateError> {
        let mut pmfs: Vec<Option<ErrorPmf>> = Vec::with_capacity(self.depth());
        for &signal in &self.signals[..self.depth()] {
            let pmf = match self.dp.kind(signal) {
                NodeKind::Input { .. } | NodeKind::Const { .. } => Some(ErrorPmf::delta()),
                NodeKind::Shl { a, amount } => pmfs[a.index()]
                    .as_ref()
                    .and_then(|p| p.scale(1i64 << amount)),
                NodeKind::Gate { a, bit } => pmfs[a.index()]
                    .as_ref()
                    .map(|p| p.gate(self.states[bit.index()].bits[0])),
                NodeKind::Add { a, b, chain } => {
                    if chain.width() > MAX_DISTRIBUTION_WIDTH {
                        None
                    } else {
                        match (&pmfs[a.index()], &pmfs[b.index()]) {
                            (Some(pa), Some(pb)) => {
                                let width = chain.width();
                                let bits_a: Vec<f64> =
                                    pad_bits(&self.states[a.index()].bits, width)
                                        .into_iter()
                                        .map(clamp01)
                                        .collect();
                                let bits_b: Vec<f64> =
                                    pad_bits(&self.states[b.index()].bits, width)
                                        .into_iter()
                                        .map(clamp01)
                                        .collect();
                                let profile = InputProfile::new(bits_a, bits_b, 0.0)?;
                                let own = error_distribution(chain, &profile)?;
                                let own = ErrorPmf::from_points(own.pmf);
                                Some(pa.convolve(pb).convolve(&own))
                            }
                            _ => None,
                        }
                    }
                }
            };
            pmfs.push(pmf);
        }
        pmfs.get(output.index())
            .cloned()
            .flatten()
            .ok_or(PropagateError::PmfUnavailable {
                signal: output.index(),
            })
    }
}

/// Predicted output error and signal moments.
#[derive(Debug, Clone, PartialEq)]
pub struct MomentPrediction<T> {
    /// The predicted output signal.
    pub output: Signal,
    /// `E[D]` of the output error.
    pub error_mean: T,
    /// `E[D²]` of the output error — the predicted MSE.
    pub error_second: T,
    /// `E[V]` of the exact output value.
    pub value_mean: T,
    /// `E[V²]` of the exact output value — the predicted signal power.
    pub value_second: T,
    /// Per-adder error models, in node order.
    pub adders: Vec<AdderErrorModel<T>>,
}

impl<T: Prob> MomentPrediction<T> {
    /// `Var(D) = E[D²] − E[D]²`.
    pub fn error_variance(&self) -> T {
        self.error_second.clone() - self.error_mean.clone() * self.error_mean.clone()
    }

    /// `√E[D²]` — the predicted RMS error distance.
    pub fn rms_error(&self) -> f64 {
        self.error_second.to_f64().max(0.0).sqrt()
    }

    /// Predicted `SNR = 10·log10(E[V²] / E[D²])` in dB.
    ///
    /// `None` when the ratio is not a finite number: an error-free
    /// datapath (`E[D²] = 0`) or a zero-power signal — the same convention
    /// as [`Image::psnr_against`](sealpaa_datapath::Image::psnr_against).
    pub fn snr_db(&self) -> Option<f64> {
        let mse = self.error_second.to_f64();
        let power = self.value_second.to_f64();
        (mse > 0.0 && power > 0.0).then(|| 10.0 * (power / mse).log10())
    }

    /// Predicted `PSNR = 10·log10(peak² / E[D²])` in dB against a known
    /// peak signal value; `None` under the same conditions as
    /// [`snr_db`](MomentPrediction::snr_db).
    pub fn psnr_db(&self, peak: u64) -> Option<f64> {
        let mse = self.error_second.to_f64();
        (mse > 0.0 && peak > 0).then(|| 10.0 * ((peak as f64).powi(2) / mse).log10())
    }

    /// `1 − Π (1 − pᵢ)` over the per-adder error probabilities: the
    /// probability that some adder errs if adders erred independently, a
    /// union-style proxy for the output error rate.
    pub fn any_adder_error(&self) -> f64 {
        1.0 - self
            .adders
            .iter()
            .map(|m| 1.0 - m.error_probability.to_f64().clamp(0.0, 1.0))
            .product::<f64>()
    }
}

/// Propagates error and value moments to `output` under named per-bit
/// input probabilities, in any [`Prob`] arithmetic.
///
/// # Errors
///
/// Wrapped [`DatapathError`] on name/range/signal mismatches,
/// [`PropagateError::ErrorfulGateControl`] on gates fed by errorful
/// controls.
pub fn propagate_moments<T: Prob>(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<T>)],
) -> Result<MomentPrediction<T>, PropagateError> {
    let mut stepper = GraphStepper::new(dp, inputs)?;
    stepper.run_to_end()?;
    stepper.prediction(output)
}

/// A complete f64 prediction: moments plus (optionally) the full PMF.
#[derive(Debug, Clone, PartialEq)]
pub struct Prediction {
    /// Propagated moments and per-adder models.
    pub moments: MomentPrediction<f64>,
    /// The composed output error PMF, when requested and representable.
    pub pmf: Option<ErrorPmf>,
}

/// Propagates moments in f64 and, if `want_pmf`, composes the full output
/// error PMF (only representable when every adder in the cone is at most
/// [`MAX_DISTRIBUTION_WIDTH`] bits wide).
///
/// # Errors
///
/// As [`propagate_moments`]; additionally
/// [`PropagateError::PmfUnavailable`] if `want_pmf` and the PMF cannot be
/// composed.
pub fn predict(
    dp: &Datapath,
    output: Signal,
    inputs: &[(&str, Vec<f64>)],
    want_pmf: bool,
) -> Result<Prediction, PropagateError> {
    let mut stepper = GraphStepper::new(dp, inputs)?;
    stepper.run_to_end()?;
    let moments = stepper.prediction(output)?;
    let pmf = if want_pmf {
        Some(stepper.error_pmf(output)?)
    } else {
        None
    };
    Ok(Prediction { moments, pmf })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    fn chain(cell: StandardCell, width: usize) -> AdderChain {
        AdderChain::uniform(cell.cell(), width)
    }

    #[test]
    fn stepper_rejects_bad_input_bindings() {
        let mut dp = Datapath::new();
        let _ = dp.input("x", 4);
        let wrapped = |inputs: &[(&str, Vec<f64>)]| {
            let err = GraphStepper::new(&dp, inputs).expect_err("bad binding");
            match err {
                PropagateError::Datapath(err) => err,
                other => panic!("expected a wrapped DatapathError, got {other:?}"),
            }
        };
        let bad = |name: &str| DatapathError::BadProbabilities {
            name: name.to_string(),
        };
        assert_eq!(wrapped(&[("x", vec![0.5; 3])]), bad("x"));
        assert_eq!(wrapped(&[("x", vec![0.5, 0.5, 0.5, 1.5])]), bad("x"));
        assert_eq!(
            wrapped(&[("y", vec![0.5; 4])]),
            DatapathError::UnknownInput {
                name: "y".to_string()
            }
        );
        assert_eq!(
            wrapped(&[]),
            DatapathError::MissingInput {
                name: "x".to_string()
            }
        );
    }

    #[test]
    fn constants_and_shifts_propagate_deterministic_bits() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let k = dp.constant(0b1010, 4);
        let shifted = dp.shl(k, 1).expect("fits");
        let sum = dp
            .add(x, shifted, chain(StandardCell::Accurate, 5))
            .expect("fits");
        let mut stepper = GraphStepper::new(&dp, &[("x", vec![0.5; 4])]).expect("valid inputs");
        stepper.run_to_end().expect("no gates");
        assert_eq!(stepper.state(k).bits, vec![0.0, 1.0, 0.0, 1.0]);
        assert_eq!(stepper.state(k).value_mean, 10.0);
        assert_eq!(stepper.state(shifted).bits, vec![0.0, 0.0, 1.0, 0.0, 1.0]);
        assert_eq!(stepper.state(shifted).value_mean, 20.0);
        assert_eq!(stepper.state(sum).bits.len(), dp.width(sum));
    }

    #[test]
    fn any_adder_error_tracks_monte_carlo_on_a_tree() {
        let mut dp = Datapath::new();
        let leaves: Vec<Signal> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|name| dp.input(name, 6))
            .collect();
        let cell = StandardCell::Lpaa6;
        let ab = dp.add(leaves[0], leaves[1], chain(cell, 6)).expect("fits");
        let cd = dp.add(leaves[2], leaves[3], chain(cell, 6)).expect("fits");
        let sum = dp.add(ab, cd, chain(cell, 7)).expect("fits");
        let inputs: Vec<(&str, Vec<f64>)> = ["a", "b", "c", "d"]
            .into_iter()
            .map(|name| (name, vec![0.5; 6]))
            .collect();
        let est = propagate_moments(&dp, sum, &inputs)
            .expect("valid inputs")
            .any_adder_error();
        let mc = crate::monte_carlo(&dp, sum, &inputs, 40_000, 11)
            .expect("valid inputs")
            .error_rate;
        // Adder deviations under the independence proxy land in the same
        // regime as, and on the upper side of, the true output error rate.
        assert!(est >= mc - 0.02, "est {est} vs mc {mc}");
        assert!((est - mc).abs() < 0.15, "est {est} vs mc {mc}");
    }
}
