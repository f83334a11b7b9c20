//! The datapath DAG and its bit-true evaluation.

use std::fmt;

use sealpaa_cells::{AdderChain, Cell};

/// A handle to one signal (node output) in a [`Datapath`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Signal(usize);

impl Signal {
    /// The node index (stable for the life of the datapath).
    pub fn index(self) -> usize {
        self.0
    }
}

/// Errors produced while building or evaluating a [`Datapath`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatapathError {
    /// An adder chain is narrower than one of its operands, which would
    /// silently truncate bits.
    ChainTooNarrow {
        /// The chain width.
        chain: usize,
        /// The wider operand's width.
        operand: usize,
    },
    /// A signal would exceed the 63-bit evaluation limit.
    TooWide {
        /// The requested width.
        width: usize,
    },
    /// A referenced signal does not belong to this datapath.
    UnknownSignal {
        /// The offending index.
        index: usize,
    },
    /// `evaluate` was not given a value for this input.
    MissingInput {
        /// The input's name.
        name: String,
    },
    /// `evaluate` was given a value for a name that is not an input.
    UnknownInput {
        /// The offending name.
        name: String,
    },
    /// A per-bit probability vector does not match its input's width or
    /// contains a value outside `[0, 1]`.
    BadProbabilities {
        /// The input's name.
        name: String,
    },
    /// A gate node's control signal is wider than one bit.
    GateControlTooWide {
        /// The control signal's width.
        width: usize,
    },
    /// A per-adder cell assignment does not cover every adder node.
    AdderCountMismatch {
        /// Number of adder nodes in the datapath.
        expected: usize,
        /// Number of cells supplied.
        got: usize,
    },
}

impl fmt::Display for DatapathError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatapathError::ChainTooNarrow { chain, operand } => write!(
                f,
                "adder chain is {chain} bits wide but an operand has {operand} bits"
            ),
            DatapathError::TooWide { width } => {
                write!(f, "signal width {width} exceeds the 63-bit evaluation limit")
            }
            DatapathError::UnknownSignal { index } => {
                write!(f, "signal #{index} does not belong to this datapath")
            }
            DatapathError::MissingInput { name } => write!(f, "no value given for input {name:?}"),
            DatapathError::UnknownInput { name } => {
                write!(f, "value given for unknown input {name:?}")
            }
            DatapathError::BadProbabilities { name } => write!(
                f,
                "bit-probability vector for input {name:?} has the wrong length or values outside [0, 1]"
            ),
            DatapathError::GateControlTooWide { width } => write!(
                f,
                "gate control signal must be 1 bit wide, got {width} bits"
            ),
            DatapathError::AdderCountMismatch { expected, got } => write!(
                f,
                "datapath has {expected} adder nodes but {got} cells were assigned"
            ),
        }
    }
}

impl std::error::Error for DatapathError {}

#[derive(Debug, Clone)]
enum Node {
    Input {
        name: String,
    },
    Const {
        value: u64,
    },
    Add {
        a: Signal,
        b: Signal,
        chain: AdderChain,
    },
    Shl {
        a: Signal,
        amount: usize,
    },
    Gate {
        a: Signal,
        bit: Signal,
    },
}

/// A read-only view of one datapath node, for analyses built in other
/// crates (error-model propagation, optimizers) that need to walk the graph
/// without owning it.
#[derive(Debug, Clone, Copy)]
pub enum NodeKind<'a> {
    /// An external input.
    Input {
        /// The input's name.
        name: &'a str,
    },
    /// A constant.
    Const {
        /// The constant's value.
        value: u64,
    },
    /// An addition through a concrete (possibly approximate) chain.
    Add {
        /// First operand.
        a: Signal,
        /// Second operand.
        b: Signal,
        /// The chain performing the addition.
        chain: &'a AdderChain,
    },
    /// An exact left shift.
    Shl {
        /// The shifted signal.
        a: Signal,
        /// Shift amount in bits.
        amount: usize,
    },
    /// A gated pass-through: `a` if the 1-bit control is set, else 0 (the
    /// partial-product generator of a shift-add multiplier).
    Gate {
        /// The gated signal.
        a: Signal,
        /// The 1-bit control signal.
        bit: Signal,
    },
}

/// A feed-forward datapath whose additions are performed by concrete
/// (possibly approximate) [`AdderChain`]s. Nodes can only reference earlier
/// signals, so the graph is acyclic by construction.
#[derive(Debug, Clone, Default)]
pub struct Datapath {
    nodes: Vec<Node>,
    widths: Vec<usize>,
}

impl Datapath {
    /// Creates an empty datapath.
    pub fn new() -> Self {
        Datapath::default()
    }

    /// Declares an external input of `width` bits.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 63, or if `name` repeats an earlier
    /// input (inputs are identified by name in [`evaluate`](Self::evaluate)).
    pub fn input(&mut self, name: impl Into<String>, width: usize) -> Signal {
        let name = name.into();
        assert!((1..=63).contains(&width), "input width must be 1..=63");
        assert!(
            !self.input_names().any(|n| n == name),
            "duplicate input name {name:?}"
        );
        self.push(Node::Input { name }, width)
    }

    /// Declares a constant.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or above 63 or `value` does not fit in it.
    pub fn constant(&mut self, value: u64, width: usize) -> Signal {
        assert!((1..=63).contains(&width), "constant width must be 1..=63");
        assert!(
            value < (1u64 << width),
            "constant {value} does not fit in {width} bits"
        );
        self.push(Node::Const { value }, width)
    }

    /// Adds two signals through `chain`. The output is `chain.width() + 1`
    /// bits wide (the carry-out is part of the value).
    ///
    /// # Errors
    ///
    /// * [`DatapathError::UnknownSignal`] if an operand is foreign,
    /// * [`DatapathError::ChainTooNarrow`] if the chain cannot hold an
    ///   operand without truncation,
    /// * [`DatapathError::TooWide`] if the result would exceed 63 bits.
    pub fn add(
        &mut self,
        a: Signal,
        b: Signal,
        chain: AdderChain,
    ) -> Result<Signal, DatapathError> {
        self.check(a)?;
        self.check(b)?;
        let operand = self.width(a).max(self.width(b));
        if chain.width() < operand {
            return Err(DatapathError::ChainTooNarrow {
                chain: chain.width(),
                operand,
            });
        }
        let out_width = chain.width() + 1;
        if out_width > 63 {
            return Err(DatapathError::TooWide { width: out_width });
        }
        Ok(self.push(Node::Add { a, b, chain }, out_width))
    }

    /// Shifts a signal left by `amount` bits (exact; widens the signal).
    ///
    /// # Errors
    ///
    /// * [`DatapathError::UnknownSignal`] if the operand is foreign,
    /// * [`DatapathError::TooWide`] if the result would exceed 63 bits.
    pub fn shl(&mut self, a: Signal, amount: usize) -> Result<Signal, DatapathError> {
        self.check(a)?;
        let out_width = self.width(a) + amount;
        if out_width > 63 {
            return Err(DatapathError::TooWide { width: out_width });
        }
        Ok(self.push(Node::Shl { a, amount }, out_width))
    }

    /// Gates a signal by a 1-bit control: the output is `a` when the control
    /// bit is 1 and 0 otherwise (a partial-product row of a multiplier).
    /// The output has `a`'s width. The gate is exact hardware — it behaves
    /// identically under approximate and exact evaluation.
    ///
    /// # Errors
    ///
    /// * [`DatapathError::UnknownSignal`] if an operand is foreign,
    /// * [`DatapathError::GateControlTooWide`] if `bit` is not 1 bit wide.
    pub fn gate(&mut self, a: Signal, bit: Signal) -> Result<Signal, DatapathError> {
        self.check(a)?;
        self.check(bit)?;
        if self.width(bit) != 1 {
            return Err(DatapathError::GateControlTooWide {
                width: self.width(bit),
            });
        }
        let out_width = self.width(a);
        Ok(self.push(Node::Gate { a, bit }, out_width))
    }

    /// The bit width of a signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is foreign to this datapath.
    pub fn width(&self, signal: Signal) -> usize {
        self.widths[signal.0]
    }

    /// A read-only view of the node behind a signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is foreign to this datapath.
    pub fn kind(&self, signal: Signal) -> NodeKind<'_> {
        match &self.nodes[signal.0] {
            Node::Input { name } => NodeKind::Input { name },
            Node::Const { value } => NodeKind::Const { value: *value },
            Node::Add { a, b, chain } => NodeKind::Add {
                a: *a,
                b: *b,
                chain,
            },
            Node::Shl { a, amount } => NodeKind::Shl {
                a: *a,
                amount: *amount,
            },
            Node::Gate { a, bit } => NodeKind::Gate { a: *a, bit: *bit },
        }
    }

    /// Iterates every signal in creation (topological) order.
    pub fn signals(&self) -> impl Iterator<Item = Signal> {
        (0..self.nodes.len()).map(Signal)
    }

    /// A copy of this datapath with every adder chain replaced by a uniform
    /// chain of the assigned cell at the original chain's width — the
    /// substitution step of per-node adder-assignment search. `cells[k]` is
    /// assigned to the `k`-th adder in [`adders`](Self::adders) order.
    ///
    /// # Errors
    ///
    /// Returns [`DatapathError::AdderCountMismatch`] if `cells` does not
    /// have exactly one cell per adder node.
    pub fn with_adder_cells(&self, cells: &[Cell]) -> Result<Datapath, DatapathError> {
        let expected = self
            .nodes
            .iter()
            .filter(|n| matches!(n, Node::Add { .. }))
            .count();
        if cells.len() != expected {
            return Err(DatapathError::AdderCountMismatch {
                expected,
                got: cells.len(),
            });
        }
        let mut next = cells.iter();
        let nodes = self
            .nodes
            .iter()
            .map(|node| match node {
                Node::Add { a, b, chain } => Node::Add {
                    a: *a,
                    b: *b,
                    chain: AdderChain::uniform(
                        next.next().expect("count checked above").clone(),
                        chain.width(),
                    ),
                },
                other => other.clone(),
            })
            .collect();
        Ok(Datapath {
            nodes,
            widths: self.widths.clone(),
        })
    }

    /// Number of nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// `true` if the datapath has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The signals that are `Add` nodes (the fallible ones), in creation
    /// order.
    pub fn adders(&self) -> Vec<Signal> {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| matches!(n, Node::Add { .. }).then_some(Signal(i)))
            .collect()
    }

    /// Iterates over the declared input names, in creation order.
    pub fn input_names(&self) -> impl Iterator<Item = &str> {
        self.nodes.iter().filter_map(|n| match n {
            Node::Input { name } => Some(name.as_str()),
            _ => None,
        })
    }

    /// Evaluates the datapath bit-true (approximate adders behave per their
    /// truth tables). Input values are truncated to their declared widths.
    ///
    /// # Errors
    ///
    /// [`DatapathError::MissingInput`] / [`DatapathError::UnknownInput`] on
    /// an input assignment mismatch.
    pub fn evaluate(&self, inputs: &[(&str, u64)]) -> Result<Evaluation, DatapathError> {
        self.run(inputs, false)
    }

    /// Evaluates the datapath with every adder replaced by exact addition —
    /// the golden reference for quality measurements.
    ///
    /// # Errors
    ///
    /// Same conditions as [`evaluate`](Self::evaluate).
    pub fn evaluate_exact(&self, inputs: &[(&str, u64)]) -> Result<Evaluation, DatapathError> {
        self.run(inputs, true)
    }

    fn run(&self, inputs: &[(&str, u64)], exact: bool) -> Result<Evaluation, DatapathError> {
        for (name, _) in inputs {
            if !self.input_names().any(|n| n == *name) {
                return Err(DatapathError::UnknownInput {
                    name: (*name).to_owned(),
                });
            }
        }
        let mut values = Vec::with_capacity(self.nodes.len());
        for (i, node) in self.nodes.iter().enumerate() {
            let value = match node {
                Node::Input { name } => {
                    let (_, v) = inputs
                        .iter()
                        .find(|(n, _)| n == name)
                        .ok_or_else(|| DatapathError::MissingInput { name: name.clone() })?;
                    v & mask(self.widths[i])
                }
                Node::Const { value } => *value,
                Node::Add { a, b, chain } => {
                    let (va, vb) = (values[a.0], values[b.0]);
                    if exact {
                        chain.accurate_sum(va, vb, false).value()
                    } else {
                        chain.add(va, vb, false).value()
                    }
                }
                Node::Shl { a, amount } => values[a.0] << amount,
                Node::Gate { a, bit } => {
                    if values[bit.0] & 1 == 1 {
                        values[a.0]
                    } else {
                        0
                    }
                }
            };
            values.push(value);
        }
        Ok(Evaluation { values })
    }

    fn push(&mut self, node: Node, width: usize) -> Signal {
        self.nodes.push(node);
        self.widths.push(width);
        Signal(self.nodes.len() - 1)
    }

    fn check(&self, signal: Signal) -> Result<(), DatapathError> {
        if signal.0 < self.nodes.len() {
            Ok(())
        } else {
            Err(DatapathError::UnknownSignal { index: signal.0 })
        }
    }
}

fn mask(width: usize) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// The values of every signal after one evaluation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Evaluation {
    values: Vec<u64>,
}

impl Evaluation {
    /// The value of one signal.
    ///
    /// # Panics
    ///
    /// Panics if `signal` is foreign to the evaluated datapath.
    pub fn value(&self, signal: Signal) -> u64 {
        self.values[signal.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_cells::StandardCell;

    fn accurate(width: usize) -> AdderChain {
        AdderChain::uniform(StandardCell::Accurate.cell(), width)
    }

    #[test]
    fn adder_tree_with_exact_cells_sums_exactly() {
        let mut dp = Datapath::new();
        let a = dp.input("a", 8);
        let b = dp.input("b", 8);
        let c = dp.input("c", 8);
        let d = dp.input("d", 8);
        let ab = dp.add(a, b, accurate(8)).expect("fits");
        let cd = dp.add(c, d, accurate(8)).expect("fits");
        let sum = dp.add(ab, cd, accurate(9)).expect("fits");
        let out = dp
            .evaluate(&[("a", 200), ("b", 100), ("c", 255), ("d", 1)])
            .expect("all inputs bound");
        assert_eq!(out.value(sum), 556);
        assert_eq!(dp.adders().len(), 3);
    }

    #[test]
    fn approximate_and_exact_evaluations_diverge_on_error_rows() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let y = dp.input("y", 4);
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 4);
        let s = dp.add(x, y, chain).expect("fits");
        // (0,1,0) at stage 0 is an LPAA 1 error row.
        let approx = dp.evaluate(&[("x", 0), ("y", 1)]).expect("bound");
        let exact = dp.evaluate_exact(&[("x", 0), ("y", 1)]).expect("bound");
        assert_ne!(approx.value(s), exact.value(s));
        assert_eq!(exact.value(s), 1);
    }

    #[test]
    fn shift_and_constant_nodes() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let k = dp.constant(3, 4);
        let shifted = dp.shl(x, 2).expect("narrow enough");
        let sum = dp.add(shifted, k, accurate(6)).expect("fits");
        let out = dp.evaluate(&[("x", 5)]).expect("bound");
        assert_eq!(out.value(shifted), 20);
        assert_eq!(out.value(sum), 23);
        assert_eq!(dp.width(sum), 7);
    }

    #[test]
    fn input_values_truncate_to_width() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let out = dp.evaluate(&[("x", 0xFF)]).expect("bound");
        assert_eq!(out.value(x), 0xF);
    }

    #[test]
    fn narrow_chain_rejected() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 8);
        let y = dp.input("y", 8);
        assert_eq!(
            dp.add(x, y, accurate(4)),
            Err(DatapathError::ChainTooNarrow {
                chain: 4,
                operand: 8
            })
        );
    }

    #[test]
    fn width_limits_enforced() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 40);
        assert!(matches!(dp.shl(x, 30), Err(DatapathError::TooWide { .. })));
        let y = dp.input("y", 40);
        assert!(matches!(
            dp.add(x, y, accurate(63)),
            Err(DatapathError::TooWide { .. })
        ));
    }

    #[test]
    fn foreign_signal_rejected() {
        let mut other = Datapath::new();
        let a = other.input("a", 4);
        let b = other.input("b", 4);
        let mut dp = Datapath::new();
        assert!(matches!(
            dp.add(a, b, accurate(4)),
            Err(DatapathError::UnknownSignal { .. })
        ));
    }

    #[test]
    fn input_binding_errors() {
        let mut dp = Datapath::new();
        let _ = dp.input("x", 4);
        assert!(matches!(
            dp.evaluate(&[]),
            Err(DatapathError::MissingInput { .. })
        ));
        assert!(matches!(
            dp.evaluate(&[("x", 0), ("bogus", 1)]),
            Err(DatapathError::UnknownInput { .. })
        ));
    }

    #[test]
    fn gate_passes_or_zeroes() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let sel = dp.input("sel", 1);
        let g = dp.gate(x, sel).expect("1-bit control");
        assert_eq!(dp.width(g), 4);
        let on = dp.evaluate(&[("x", 9), ("sel", 1)]).expect("bound");
        let off = dp.evaluate(&[("x", 9), ("sel", 0)]).expect("bound");
        assert_eq!(on.value(g), 9);
        assert_eq!(off.value(g), 0);
        // Gates are exact hardware: both evaluation modes agree.
        let exact = dp.evaluate_exact(&[("x", 9), ("sel", 1)]).expect("bound");
        assert_eq!(exact.value(g), 9);
    }

    #[test]
    fn wide_gate_control_rejected() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let sel = dp.input("sel", 2);
        assert_eq!(
            dp.gate(x, sel),
            Err(DatapathError::GateControlTooWide { width: 2 })
        );
    }

    #[test]
    fn kind_views_match_builders() {
        let mut dp = Datapath::new();
        let x = dp.input("x", 4);
        let k = dp.constant(5, 4);
        let s = dp.shl(x, 1).expect("fits");
        let sum = dp.add(s, k, accurate(5)).expect("fits");
        assert!(matches!(dp.kind(x), NodeKind::Input { name: "x" }));
        assert!(matches!(dp.kind(k), NodeKind::Const { value: 5 }));
        assert!(matches!(dp.kind(s), NodeKind::Shl { amount: 1, .. }));
        match dp.kind(sum) {
            NodeKind::Add { a, b, chain } => {
                assert_eq!((a, b), (s, k));
                assert_eq!(chain.width(), 5);
            }
            other => panic!("expected Add, got {other:?}"),
        }
        assert_eq!(dp.signals().count(), dp.len());
    }

    #[test]
    fn with_adder_cells_substitutes_every_adder() {
        let mut dp = Datapath::new();
        let a = dp.input("a", 4);
        let b = dp.input("b", 4);
        let c = dp.input("c", 4);
        let ab = dp.add(a, b, accurate(4)).expect("fits");
        let sum = dp.add(ab, c, accurate(5)).expect("fits");
        let swapped = dp
            .with_adder_cells(&[StandardCell::Lpaa1.cell(), StandardCell::Accurate.cell()])
            .expect("one cell per adder");
        // Same shape and widths, different first-adder behaviour.
        assert_eq!(swapped.len(), dp.len());
        assert_eq!(swapped.width(sum), dp.width(sum));
        let inputs = [("a", 0u64), ("b", 1), ("c", 0)];
        let original = dp.evaluate(&inputs).expect("bound").value(sum);
        let modified = swapped.evaluate(&inputs).expect("bound").value(sum);
        // (0,1,0) at stage 0 is an LPAA 1 error row; the original is exact.
        assert_eq!(original, 1);
        assert_ne!(modified, original);
        assert_eq!(
            dp.with_adder_cells(&[StandardCell::Lpaa1.cell()])
                .expect_err("wrong count"),
            DatapathError::AdderCountMismatch {
                expected: 2,
                got: 1
            }
        );
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn constant_must_fit_63_bits() {
        let _ = Datapath::new().constant(1 << 63, 63);
    }

    #[test]
    #[should_panic(expected = "duplicate input name")]
    fn duplicate_input_panics() {
        let mut dp = Datapath::new();
        let _ = dp.input("x", 4);
        let _ = dp.input("x", 4);
    }
}
