//! Shared circuit-construction scaffolding for multiplier generators.

use netlist::{Netlist, NodeId};

use crate::gen::GateSink;
use crate::split::SplitAtom;
use crate::terms::ProductTerm;

/// A multiplier under construction in a [`GateSink`]: the standard
/// `a`/`b` input vectors plus helpers to materialize the paper's term
/// vocabulary (partial products, `x_k`/`z^j_i` terms, split atoms) as
/// gates.
///
/// In a [`Netlist`] (the default sink), hash-consing makes repeated
/// requests for the same product/term/atom return the same node —
/// sharing across coefficients comes for free, mirroring the paper's
/// remark that repeated terms "could be shared, therefore reducing the
/// space requirements".
#[derive(Debug)]
pub struct MulCircuit<S: GateSink = Netlist> {
    sink: S,
    a: Vec<S::Node>,
    b: Vec<S::Node>,
}

impl MulCircuit {
    /// Creates a netlist named `name` with inputs `a0..a{m−1}, b0..b{m−1}`.
    pub fn new(m: usize, name: impl Into<String>) -> Self {
        MulCircuit::with_sink(Netlist::new(name), m)
    }

    /// Registers output `c{k}`.
    pub fn output(&mut self, k: usize, node: NodeId) {
        self.sink.output(format!("c{k}"), node);
    }
}

impl<S: GateSink> MulCircuit<S> {
    /// Adds inputs `a0..a{m−1}, b0..b{m−1}` to `sink`.
    pub(crate) fn with_sink(mut sink: S, m: usize) -> Self {
        let a = (0..m).map(|i| sink.input(format!("a{i}"))).collect();
        let b = (0..m).map(|i| sink.input(format!("b{i}"))).collect();
        MulCircuit { sink, a, b }
    }

    /// The number of coordinates `m`.
    pub fn m(&self) -> usize {
        self.a.len()
    }

    /// The raw input node of coordinate `a_i`.
    ///
    /// # Panics
    ///
    /// Panics if `i ≥ m`.
    pub fn a_input(&self, i: usize) -> S::Node {
        self.a[i]
    }

    /// The raw input node of coordinate `b_j`.
    ///
    /// # Panics
    ///
    /// Panics if `j ≥ m`.
    pub fn b_input(&self, j: usize) -> S::Node {
        self.b[j]
    }

    /// The partial product `a_i · b_j`.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `j` is out of range.
    pub fn product(&mut self, i: usize, j: usize) -> S::Node {
        self.sink.and(self.a[i], self.b[j])
    }

    /// The node of a product term: `x_k = a_k b_k` or
    /// `z^j_i = a_i b_j + a_j b_i`.
    pub fn term(&mut self, t: &ProductTerm) -> S::Node {
        match *t {
            ProductTerm::X(k) => self.product(k, k),
            ProductTerm::Z { i, j } => {
                let p = self.product(i, j);
                let q = self.product(j, i);
                self.sink.xor(p, q)
            }
        }
    }

    /// The nodes of a list of terms, in order.
    pub fn term_nodes(&mut self, terms: &[ProductTerm]) -> Vec<S::Node> {
        terms.iter().map(|t| self.term(t)).collect()
    }

    /// The node of a split atom `S^j_i`/`T^j_i`: a complete balanced XOR
    /// tree over its `2^j` products (depth exactly `j`).
    pub fn atom(&mut self, atom: &SplitAtom) -> S::Node {
        let nodes = self.term_nodes(atom.terms());
        self.sink.xor_balanced(&nodes)
    }

    /// Direct access to the underlying sink.
    pub fn net_mut(&mut self) -> &mut S {
        &mut self.sink
    }

    /// Finishes construction, returning the sink.
    pub fn finish(self) -> S {
        self.sink
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::AtomKind;

    #[test]
    fn products_are_shared() {
        let mut c = MulCircuit::new(4, "t");
        let p1 = c.product(1, 2);
        let p2 = c.product(1, 2);
        assert_eq!(p1, p2);
        assert_eq!(c.net_mut().stats().ands, 1);
    }

    #[test]
    fn z_term_builds_two_products_one_xor() {
        let mut c = MulCircuit::new(4, "t");
        let t = ProductTerm::z(0, 3);
        let _n = c.term(&t);
        let s = c.net_mut().stats();
        assert_eq!(s.ands, 2);
        assert_eq!(s.xors, 1);
    }

    #[test]
    fn atom_depth_equals_level() {
        let mut c = MulCircuit::new(8, "t");
        let atoms = SplitAtom::split_all(8);
        for a in atoms.iter().filter(|a| a.kind() == AtomKind::S) {
            let node = c.atom(a);
            c.output(a.index() * 10 + a.level(), node);
        }
        // Check via per-node depth: each atom node must sit at XOR depth
        // exactly its level (products contribute the single AND level).
        let depths = netlist::analysis::node_depths(c.net_mut());
        let net = c.finish();
        for (_, out) in net.outputs() {
            let d = depths[out.index()];
            assert_eq!(d.ands, 1);
        }
        let _ = net;
    }

    #[test]
    fn atoms_are_shared_across_requests() {
        let mut c = MulCircuit::new(8, "t");
        let atoms = SplitAtom::split_all(8);
        let a = &atoms[12]; // S8^3
        let n1 = c.atom(a);
        let n2 = c.atom(a);
        assert_eq!(n1, n2);
    }

    #[test]
    fn interface_order_is_a_then_b() {
        let c = MulCircuit::new(3, "t");
        let net = c.finish();
        assert_eq!(net.input_names(), &["a0", "a1", "a2", "b0", "b1", "b2"]);
    }
}
