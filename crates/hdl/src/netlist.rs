//! An evaluable gate-level netlist — the single source from which Verilog is
//! rendered, so behavioural tests on the netlist vouch for the emitted text.

use std::collections::BTreeMap;

use sealpaa_cells::{AdderChain, Cell, TruthTable};
use sealpaa_gear::GearConfig;

use crate::sop::SumOfProducts;

/// A handle to one net (gate output) in a [`Netlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Net(usize);

#[derive(Debug, Clone)]
pub(crate) enum Gate {
    Input(String),
    Const(bool),
    Not(Net),
    And(Vec<Net>),
    Or(Vec<Net>),
}

/// A combinational gate-level netlist with named inputs and outputs.
///
/// Gates only reference earlier nets, so the list is topologically ordered
/// by construction and evaluation is a single pass.
///
/// # Examples
///
/// ```
/// use sealpaa_cells::StandardCell;
/// use sealpaa_hdl::cell_netlist;
///
/// let netlist = cell_netlist(&StandardCell::Lpaa1.cell());
/// let out = netlist.eval(&[("a", true), ("b", true), ("cin", true)]);
/// assert_eq!(out["sum"], true);
/// assert_eq!(out["cout"], true);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Netlist {
    gates: Vec<Gate>,
    outputs: Vec<(String, Net)>,
}

impl Netlist {
    /// Creates an empty netlist.
    pub fn new() -> Self {
        Netlist::default()
    }

    /// Declares a primary input.
    pub fn input(&mut self, name: impl Into<String>) -> Net {
        self.push(Gate::Input(name.into()))
    }

    /// A constant driver.
    pub fn constant(&mut self, value: bool) -> Net {
        self.push(Gate::Const(value))
    }

    /// An inverter.
    pub fn not(&mut self, a: Net) -> Net {
        self.push(Gate::Not(a))
    }

    /// An N-input AND (1-input collapses to a buffer of the operand).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn and(&mut self, inputs: Vec<Net>) -> Net {
        assert!(!inputs.is_empty(), "AND needs at least one input");
        if inputs.len() == 1 {
            inputs[0]
        } else {
            self.push(Gate::And(inputs))
        }
    }

    /// An N-input OR (1-input collapses to a buffer of the operand).
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is empty.
    pub fn or(&mut self, inputs: Vec<Net>) -> Net {
        assert!(!inputs.is_empty(), "OR needs at least one input");
        if inputs.len() == 1 {
            inputs[0]
        } else {
            self.push(Gate::Or(inputs))
        }
    }

    /// Names a net as a primary output.
    pub fn mark_output(&mut self, name: impl Into<String>, net: Net) {
        self.outputs.push((name.into(), net));
    }

    /// Number of logic gates (NOT/AND/OR; inputs and constants excluded).
    pub fn gate_count(&self) -> usize {
        self.gates
            .iter()
            .filter(|g| matches!(g, Gate::Not(_) | Gate::And(_) | Gate::Or(_)))
            .count()
    }

    /// The primary input names, in declaration order.
    pub fn input_names(&self) -> Vec<&str> {
        self.gates
            .iter()
            .filter_map(|g| match g {
                Gate::Input(name) => Some(name.as_str()),
                _ => None,
            })
            .collect()
    }

    /// The primary outputs `(name, net)`, in declaration order.
    pub fn outputs(&self) -> &[(String, Net)] {
        &self.outputs
    }

    pub(crate) fn gates(&self) -> &[Gate] {
        &self.gates
    }

    pub(crate) fn net_index(net: Net) -> usize {
        net.0
    }

    /// Evaluates the netlist. Unbound inputs default to `false`.
    ///
    /// # Panics
    ///
    /// Panics if `assignments` names an input that does not exist.
    pub fn eval(&self, assignments: &[(&str, bool)]) -> BTreeMap<String, bool> {
        for (name, _) in assignments {
            assert!(self.input_names().contains(name), "no input named {name:?}");
        }
        let mut values: Vec<bool> = Vec::with_capacity(self.gates.len());
        for gate in &self.gates {
            let v = match gate {
                Gate::Input(name) => assignments
                    .iter()
                    .find(|(n, _)| n == name)
                    .map(|(_, v)| *v)
                    .unwrap_or(false),
                Gate::Const(v) => *v,
                Gate::Not(a) => !values[a.0],
                Gate::And(ins) => ins.iter().all(|n| values[n.0]),
                Gate::Or(ins) => ins.iter().any(|n| values[n.0]),
            };
            values.push(v);
        }
        self.outputs
            .iter()
            .map(|(name, net)| (name.clone(), values[net.0]))
            .collect()
    }

    fn push(&mut self, gate: Gate) -> Net {
        self.gates.push(gate);
        Net(self.gates.len() - 1)
    }
}

/// Appends the two-level logic of one cell to `netlist`, returning
/// `(sum, carry_out)` nets.
fn synthesize_cell(
    netlist: &mut Netlist,
    table: &TruthTable,
    a: Net,
    b: Net,
    cin: Net,
) -> (Net, Net) {
    let na = netlist.not(a);
    let nb = netlist.not(b);
    let ncin = netlist.not(cin);
    let mut build = |sop: &SumOfProducts| -> Net {
        match sop.constant() {
            Some(v) => netlist.constant(v),
            None => {
                let mut products = Vec::new();
                for term in sop.terms() {
                    let mut lits = Vec::new();
                    for (net, inv, polarity) in
                        [(a, na, term.a), (b, nb, term.b), (cin, ncin, term.cin)]
                    {
                        match polarity {
                            Some(true) => lits.push(net),
                            Some(false) => lits.push(inv),
                            None => {}
                        }
                    }
                    products.push(netlist.and(lits));
                }
                netlist.or(products)
            }
        }
    };
    let sum = build(&SumOfProducts::for_sum(table));
    let carry = build(&SumOfProducts::for_carry(table));
    (sum, carry)
}

/// Gate-level netlist of one single-bit cell: inputs `a`, `b`, `cin`;
/// outputs `sum`, `cout`.
pub fn cell_netlist(cell: &Cell) -> Netlist {
    let mut netlist = Netlist::new();
    let a = netlist.input("a");
    let b = netlist.input("b");
    let cin = netlist.input("cin");
    let (sum, cout) = synthesize_cell(&mut netlist, cell.truth_table(), a, b, cin);
    netlist.mark_output("sum", sum);
    netlist.mark_output("cout", cout);
    netlist
}

/// Gate-level netlist of an N-bit (possibly hybrid) ripple chain: inputs
/// `a0..`, `b0..`, `cin`; outputs `s0..`, `cout`.
pub fn chain_netlist(chain: &AdderChain) -> Netlist {
    let mut netlist = Netlist::new();
    let a: Vec<Net> = (0..chain.width())
        .map(|i| netlist.input(format!("a{i}")))
        .collect();
    let b: Vec<Net> = (0..chain.width())
        .map(|i| netlist.input(format!("b{i}")))
        .collect();
    let mut carry = netlist.input("cin");
    for (i, cell) in chain.iter().enumerate() {
        let (sum, cout) = synthesize_cell(&mut netlist, cell.truth_table(), a[i], b[i], carry);
        netlist.mark_output(format!("s{i}"), sum);
        carry = cout;
    }
    netlist.mark_output("cout", carry);
    netlist
}

/// Gate-level netlist of a GeAr adder built from accurate full adders in
/// each parallel sub-adder (paper Fig. 2): inputs `a0..`, `b0..`, `cin`;
/// outputs `s0..`, `cout`. The carry-in feeds sub-adder 0 only.
pub fn gear_netlist(config: &GearConfig) -> Netlist {
    let mut netlist = Netlist::new();
    let n = config.width();
    let a: Vec<Net> = (0..n).map(|i| netlist.input(format!("a{i}"))).collect();
    let b: Vec<Net> = (0..n).map(|i| netlist.input(format!("b{i}"))).collect();
    let cin = netlist.input("cin");
    let zero = netlist.constant(false);
    let accurate = TruthTable::accurate();
    let mut final_carry = zero;
    for block in 0..config.block_count() {
        let window = config.block_window(block);
        let mut carry = if block == 0 { cin } else { zero };
        let mut sums = Vec::new();
        for bit in window.clone() {
            let (sum, cout) = synthesize_cell(&mut netlist, &accurate, a[bit], b[bit], carry);
            sums.push((bit, sum));
            carry = cout;
        }
        for (bit, sum) in sums {
            if config.block_result_bits(block).contains(&bit) {
                netlist.mark_output(format!("s{bit}"), sum);
            }
        }
        if block == config.block_count() - 1 {
            final_carry = carry;
        }
    }
    netlist.mark_output("cout", final_carry);
    netlist
}

#[cfg(test)]
mod tests {
    use super::*;
    use sealpaa_blocks::BlockAdder;
    use sealpaa_cells::{FaInput, StandardCell};

    #[test]
    fn cell_netlists_match_truth_tables_exhaustively() {
        for cell in StandardCell::ALL {
            let netlist = cell_netlist(&cell.cell());
            for input in FaInput::all() {
                let out = netlist.eval(&[("a", input.a), ("b", input.b), ("cin", input.carry_in)]);
                let expect = cell.truth_table().eval(input);
                assert_eq!(out["sum"], expect.sum, "{cell} sum {input}");
                assert_eq!(out["cout"], expect.carry_out, "{cell} cout {input}");
            }
        }
    }

    fn bind<'a>(names: &'a [String], value: u64) -> impl Iterator<Item = (&'a str, bool)> + 'a {
        names
            .iter()
            .enumerate()
            .map(move |(i, n)| (n.as_str(), (value >> i) & 1 == 1))
    }

    #[test]
    fn chain_netlist_matches_functional_model_exhaustively() {
        let chain = AdderChain::from_stages(vec![
            StandardCell::Lpaa1.cell(),
            StandardCell::Lpaa6.cell(),
            StandardCell::Accurate.cell(),
            StandardCell::Lpaa5.cell(),
        ]);
        let netlist = chain_netlist(&chain);
        let a_names: Vec<String> = (0..4).map(|i| format!("a{i}")).collect();
        let b_names: Vec<String> = (0..4).map(|i| format!("b{i}")).collect();
        for a in 0..16u64 {
            for b in 0..16u64 {
                for cin in [false, true] {
                    let mut assignments: Vec<(&str, bool)> =
                        bind(&a_names, a).chain(bind(&b_names, b)).collect();
                    assignments.push(("cin", cin));
                    let out = netlist.eval(&assignments);
                    let expect = chain.add(a, b, cin);
                    for i in 0..4 {
                        assert_eq!(
                            out[&format!("s{i}")],
                            (expect.sum_bits() >> i) & 1 == 1,
                            "s{i} at {a}+{b}+{cin}"
                        );
                    }
                    assert_eq!(out["cout"], expect.carry_out(), "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn gear_netlist_matches_functional_model_exhaustively() {
        let config = GearConfig::new(6, 2, 2).expect("valid config");
        let netlist = gear_netlist(&config);
        let adder = BlockAdder::new(
            config
                .to_blocks(StandardCell::Accurate.cell())
                .expect("6 bits fit the block model"),
        );
        let a_names: Vec<String> = (0..6).map(|i| format!("a{i}")).collect();
        let b_names: Vec<String> = (0..6).map(|i| format!("b{i}")).collect();
        for a in 0..64u64 {
            for b in 0..64u64 {
                for cin in [false, true] {
                    let mut assignments: Vec<(&str, bool)> =
                        bind(&a_names, a).chain(bind(&b_names, b)).collect();
                    assignments.push(("cin", cin));
                    let out = netlist.eval(&assignments);
                    let expect = adder.add(a, b, cin);
                    for i in 0..6 {
                        assert_eq!(
                            out[&format!("s{i}")],
                            (expect.sum_bits() >> i) & 1 == 1,
                            "s{i} at {a}+{b}+{cin}"
                        );
                    }
                    assert_eq!(out["cout"], expect.carry_out(), "{a}+{b}+{cin}");
                }
            }
        }
    }

    #[test]
    fn gate_counts_reflect_cell_simplicity() {
        let exact = cell_netlist(&StandardCell::Accurate.cell()).gate_count();
        let lpaa5 = cell_netlist(&StandardCell::Lpaa5.cell()).gate_count();
        assert!(lpaa5 < exact, "LPAA 5 ({lpaa5}) vs AccuFA ({exact})");
        // LPAA 5 is pure wiring: only the shared input inverters remain.
        assert!(lpaa5 <= 3);
    }

    #[test]
    fn unbound_inputs_default_low() {
        let netlist = cell_netlist(&StandardCell::Accurate.cell());
        let out = netlist.eval(&[("a", true)]);
        assert!(out["sum"]);
        assert!(!out["cout"]);
    }

    #[test]
    #[should_panic(expected = "no input named")]
    fn unknown_input_panics() {
        let netlist = cell_netlist(&StandardCell::Accurate.cell());
        let _ = netlist.eval(&[("bogus", true)]);
    }

    #[test]
    fn input_names_and_outputs_are_ordered() {
        let chain = AdderChain::uniform(StandardCell::Lpaa1.cell(), 2);
        let netlist = chain_netlist(&chain);
        assert_eq!(netlist.input_names(), ["a0", "a1", "b0", "b1", "cin"]);
        let outs: Vec<&str> = netlist.outputs().iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(outs, ["s0", "s1", "cout"]);
    }
}
