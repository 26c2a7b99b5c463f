//! Gate census, area certificates and structural hashing (strash).
//!
//! The paper's Table V compares the methods on *area* — #AND and #XOR
//! gate counts — alongside delay. This module is the area counterpart
//! of [`crate::depth`]:
//!
//! * [`GateCensus`] — per-kind totals plus per-output-cone counts and
//!   shared-vs-exclusive attribution (how much logic each coefficient
//!   owns outright versus borrows from other cones);
//! * [`AreaSpec`] / [`check_area`] — the *expected* per-kind gate
//!   counts of a design (built per method × field by
//!   `rgf2m_core::area_spec`) and the check that a netlist stays within
//!   them, reporting a typed [`AreaExcess`];
//! * [`strash_classes`] — structural hashing: a canonical 64-bit key
//!   per node (commutative-input ordering + FNV over `(op, fan-in
//!   keys)`), under which two nodes collide exactly when their cones
//!   are structurally identical — including *transitive* duplicates the
//!   pairwise duplicate-gate lint cannot see;
//! * [`strash_dedup`] — the conservative proof-carrying rewrite:
//!   rebuild the netlist through the hash-consing constructors so every
//!   structurally duplicate cone merges. The output computes the same
//!   function by construction (each rewrite step is a local identity),
//!   so it must pass formal verification unchanged.
//!
//! # Examples
//!
//! ```
//! use netlist::census::{check_area, strash_dedup, AreaSpec, GateCensus};
//! use netlist::Netlist;
//!
//! let mut net = Netlist::new("pair");
//! let a = net.input("a");
//! let b = net.input("b");
//! let p = net.and(a, b);
//! let y = net.xor(p, a);
//! net.output("y", y);
//!
//! let census = GateCensus::of(&net);
//! assert_eq!((census.ands, census.xors), (1, 1));
//! assert!(check_area(&net, &AreaSpec::new(1, 1)).is_ok());
//! let (rebuilt, saved) = strash_dedup(&net);
//! assert_eq!(saved, 0); // hash-consed construction has nothing to merge
//! assert_eq!(rebuilt.stats().gates(), 2);
//! ```

use std::fmt;

use crate::{Fnv1a, Gate, Netlist, NodeId};

/// The two countable gate kinds of the area metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// 2-input AND (a partial product).
    And,
    /// 2-input XOR.
    Xor,
}

impl GateKind {
    /// Uppercase name (`"AND"` / `"XOR"`), as the paper prints it.
    pub fn name(self) -> &'static str {
        match self {
            GateKind::And => "AND",
            GateKind::Xor => "XOR",
        }
    }
}

impl fmt::Display for GateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Gate counts of one primary-output cone.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConeCensus {
    /// The output's declared name.
    pub output: String,
    /// AND gates in the output's transitive fanin.
    pub ands: usize,
    /// XOR gates in the output's transitive fanin.
    pub xors: usize,
    /// AND gates reachable from *no other* output.
    pub exclusive_ands: usize,
    /// XOR gates reachable from *no other* output.
    pub exclusive_xors: usize,
}

impl ConeCensus {
    /// Total gates in the cone.
    pub fn gates(&self) -> usize {
        self.ands + self.xors
    }

    /// Gates this cone borrows from logic shared with other outputs.
    pub fn shared(&self) -> usize {
        self.gates() - self.exclusive_ands - self.exclusive_xors
    }
}

/// A full gate census of a netlist: per-kind totals, shared-vs-exclusive
/// attribution, and one [`ConeCensus`] per primary output.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateCensus {
    /// Primary inputs.
    pub inputs: usize,
    /// Constant nodes.
    pub consts: usize,
    /// Total AND gates.
    pub ands: usize,
    /// Total XOR gates.
    pub xors: usize,
    /// AND gates in two or more output cones.
    pub shared_ands: usize,
    /// XOR gates in two or more output cones.
    pub shared_xors: usize,
    /// Per-output cone counts, in output declaration order.
    pub cones: Vec<ConeCensus>,
}

impl GateCensus {
    /// Takes the census of `net` in one reverse-reachability pass per
    /// output.
    pub fn of(net: &Netlist) -> GateCensus {
        let mut census = GateCensus {
            inputs: 0,
            consts: 0,
            ands: 0,
            xors: 0,
            shared_ands: 0,
            shared_xors: 0,
            cones: Vec::with_capacity(net.outputs().len()),
        };
        for id in net.node_ids() {
            match net.gate(id) {
                Gate::Input(_) => census.inputs += 1,
                Gate::Const(_) => census.consts += 1,
                Gate::And(_, _) => census.ands += 1,
                Gate::Xor(_, _) => census.xors += 1,
            }
        }
        // How many output cones contain each node. `stamp` makes each
        // cone count a node at most once even though the DFS may push
        // it several times.
        let mut cone_count = vec![0u32; net.len()];
        let mut stamp = vec![usize::MAX; net.len()];
        for (oi, (name, root)) in net.outputs().iter().enumerate() {
            let mut cone = ConeCensus {
                output: name.clone(),
                ands: 0,
                xors: 0,
                exclusive_ands: 0,
                exclusive_xors: 0,
            };
            let mut stack = vec![*root];
            while let Some(n) = stack.pop() {
                if std::mem::replace(&mut stamp[n.index()], oi) == oi {
                    continue;
                }
                cone_count[n.index()] += 1;
                match net.gate(n) {
                    Gate::And(a, b) => {
                        cone.ands += 1;
                        stack.push(a);
                        stack.push(b);
                    }
                    Gate::Xor(a, b) => {
                        cone.xors += 1;
                        stack.push(a);
                        stack.push(b);
                    }
                    Gate::Input(_) | Gate::Const(_) => {}
                }
            }
            census.cones.push(cone);
        }
        // Attribution: a gate in exactly one cone is that cone's
        // exclusive logic (`stamp` still holds its only visitor); a gate
        // in two or more is shared.
        for id in net.node_ids() {
            let kind = match net.gate(id) {
                Gate::And(_, _) => GateKind::And,
                Gate::Xor(_, _) => GateKind::Xor,
                Gate::Input(_) | Gate::Const(_) => continue,
            };
            match cone_count[id.index()] {
                0 => {} // dead logic belongs to no cone
                1 => {
                    let cone = &mut census.cones[stamp[id.index()]];
                    match kind {
                        GateKind::And => cone.exclusive_ands += 1,
                        GateKind::Xor => cone.exclusive_xors += 1,
                    }
                }
                _ => match kind {
                    GateKind::And => census.shared_ands += 1,
                    GateKind::Xor => census.shared_xors += 1,
                },
            }
        }
        census
    }

    /// Total 2-input gate count (ANDs + XORs) — the paper's space
    /// metric, equal to [`crate::Stats::gates`].
    pub fn gates(&self) -> usize {
        self.ands + self.xors
    }

    /// Gates in two or more output cones.
    pub fn shared(&self) -> usize {
        self.shared_ands + self.shared_xors
    }
}

impl fmt::Display for GateCensus {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} AND + {} XOR ({} shared) over {} cone(s)",
            self.ands,
            self.xors,
            self.shared(),
            self.cones.len()
        )
    }
}

/// The expected per-kind gate counts of a design — the area counterpart
/// of [`crate::depth::DepthSpec`].
///
/// A netlist *meets* the spec when each kind's count is `≤` its bound.
/// For the multiplier generators the bounds are exact by construction,
/// so meeting the spec is equality in practice; the check is still `≤`
/// so rewrites that *improve* on the formula keep passing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaSpec {
    ands: usize,
    xors: usize,
}

impl AreaSpec {
    /// A spec from per-kind bounds.
    pub fn new(ands: usize, xors: usize) -> AreaSpec {
        AreaSpec { ands, xors }
    }

    /// The gate counts of `net`, as a spec.
    pub fn of(net: &Netlist) -> AreaSpec {
        let (mut ands, mut xors) = (0usize, 0usize);
        for gate in net.gates() {
            match gate {
                Gate::And(_, _) => ands += 1,
                Gate::Xor(_, _) => xors += 1,
                Gate::Input(_) | Gate::Const(_) => {}
            }
        }
        AreaSpec { ands, xors }
    }

    /// The AND-gate bound (`#AND` in Table V).
    pub fn ands(&self) -> usize {
        self.ands
    }

    /// The XOR-gate bound (`#XOR` in Table V).
    pub fn xors(&self) -> usize {
        self.xors
    }

    /// Total gate bound.
    pub fn total(&self) -> usize {
        self.ands + self.xors
    }

    /// The bound of one gate kind.
    pub fn bound(&self, kind: GateKind) -> usize {
        match kind {
            GateKind::And => self.ands,
            GateKind::Xor => self.xors,
        }
    }
}

impl fmt::Display for AreaSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} AND + {} XOR", self.ands, self.xors)
    }
}

/// One area-certificate violation: the netlist holds more gates of
/// `kind` than the spec allows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AreaExcess {
    /// The offending gate kind (AND is reported first).
    pub kind: GateKind,
    /// The measured gate count of that kind.
    pub got: usize,
    /// The spec's bound for that kind.
    pub bound: usize,
}

impl fmt::Display for AreaExcess {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "netlist has {} {} gate(s), exceeding its bound {}",
            self.got, self.kind, self.bound
        )
    }
}

/// Checks the per-kind gate counts of `net` against `spec`, reporting
/// the first violation (AND before XOR).
pub fn check_area(net: &Netlist, spec: &AreaSpec) -> Result<(), AreaExcess> {
    let counts = AreaSpec::of(net);
    for kind in [GateKind::And, GateKind::Xor] {
        let (got, bound) = (counts.bound(kind), spec.bound(kind));
        if got > bound {
            return Err(AreaExcess { kind, got, bound });
        }
    }
    Ok(())
}

/// The canonical structural-hash class of every node (indexed by
/// [`NodeId::index`]).
///
/// Each node's key is an FNV-1a hash over its operation tag and the
/// *canonical keys* of its fan-ins, with commutative operands ordered
/// by key — so the key depends only on the shape of the node's cone,
/// never on node identities. Two nodes with equal keys compute
/// structurally identical cones (up to the astronomically unlikely
/// 64-bit hash collision), which catches *transitive* duplicates: gates
/// whose raw `(op, lhs, rhs)` triples differ but whose operands are
/// themselves duplicate cones.
pub fn strash_classes(net: &Netlist) -> Vec<u64> {
    let mut keys = vec![0u64; net.len()];
    for id in net.node_ids() {
        let mut h = Fnv1a::new();
        match net.gate(id) {
            Gate::Input(i) => {
                h.write_u64(0);
                h.write_u64(u64::from(i));
            }
            Gate::Const(v) => {
                h.write_u64(1);
                h.write_u64(u64::from(v));
            }
            Gate::And(a, b) | Gate::Xor(a, b) => {
                // A forward reference (malformed netlist) reads key 0;
                // the lint pass reports the cycle itself.
                let ka = keys.get(a.index()).copied().unwrap_or(0);
                let kb = keys.get(b.index()).copied().unwrap_or(0);
                let (lo, hi) = if ka <= kb { (ka, kb) } else { (kb, ka) };
                h.write_u64(if matches!(net.gate(id), Gate::And(..)) {
                    2
                } else {
                    3
                });
                h.write_u64(lo);
                h.write_u64(hi);
            }
        }
        keys[id.index()] = h.finish();
    }
    keys
}

/// Rebuilds `net` through the hash-consing constructors, merging every
/// structurally duplicate cone (and re-folding constants). Returns the
/// rebuilt netlist and the number of 2-input gates the rewrite saved.
///
/// The rewrite is conservative and proof-carrying: every step is one of
/// the builder's local identities (commutative reordering, constant
/// folding, merging of structurally identical gates), so the result
/// computes the same function over the same interface by construction
/// and must pass formal verification unchanged. On netlists built
/// through the hash-consing API the rewrite is the identity
/// (`saved == 0`) — a positive certificate that no sharing was missed.
///
/// # Panics
///
/// Panics if the netlist's `Input` gates are not in declaration order
/// (never the case for builder-constructed netlists) — reordering them
/// would silently permute the evaluation interface.
pub fn strash_dedup(net: &Netlist) -> (Netlist, usize) {
    let mut out = Netlist::new(net.name().to_string());
    let mut remap: Vec<NodeId> = Vec::with_capacity(net.len());
    let mut next_input = 0usize;
    for id in net.node_ids() {
        let new_id = match net.gate(id) {
            Gate::Input(i) => {
                assert_eq!(
                    i as usize, next_input,
                    "strash_dedup requires primary inputs in declaration order"
                );
                next_input += 1;
                out.input(net.input_names()[i as usize].clone())
            }
            Gate::Const(v) => out.constant(v),
            Gate::And(a, b) => {
                let (na, nb) = (remap[a.index()], remap[b.index()]);
                out.and(na, nb)
            }
            Gate::Xor(a, b) => {
                let (na, nb) = (remap[a.index()], remap[b.index()]);
                out.xor(na, nb)
            }
        };
        remap.push(new_id);
    }
    for (name, n) in net.outputs() {
        out.output(name.clone(), remap[n.index()]);
    }
    let saved = net.stats().gates() - out.stats().gates();
    (out, saved)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_output_net() -> Netlist {
        // c0 = (a&b) ^ c        — and gate shared with c1's cone
        // c1 = (a&b) ^ (c&d)
        let mut net = Netlist::new("two");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let d = net.input("d");
        let ab = net.and(a, b);
        let cd = net.and(c, d);
        let y0 = net.xor(ab, c);
        let y1 = net.xor(ab, cd);
        net.output("c0", y0);
        net.output("c1", y1);
        net
    }

    #[test]
    fn census_totals_match_stats() {
        let net = two_output_net();
        let census = GateCensus::of(&net);
        let stats = net.stats();
        assert_eq!(census.ands, stats.ands);
        assert_eq!(census.xors, stats.xors);
        assert_eq!(census.inputs, stats.inputs);
        assert_eq!(census.consts, stats.consts);
        assert_eq!(census.gates(), stats.gates());
        assert_eq!(
            census.inputs + census.consts + census.gates(),
            net.len(),
            "census must account for every node"
        );
    }

    #[test]
    fn census_attributes_shared_and_exclusive_logic() {
        let net = two_output_net();
        let census = GateCensus::of(&net);
        assert_eq!(census.cones.len(), 2);
        let c0 = &census.cones[0];
        let c1 = &census.cones[1];
        assert_eq!(c0.output, "c0");
        assert_eq!((c0.ands, c0.xors), (1, 1));
        assert_eq!((c1.ands, c1.xors), (2, 1));
        // a&b sits in both cones; everything else is exclusive.
        assert_eq!(census.shared_ands, 1);
        assert_eq!(census.shared_xors, 0);
        assert_eq!(c0.exclusive_ands, 0);
        assert_eq!(c0.exclusive_xors, 1);
        assert_eq!(c1.exclusive_ands, 1);
        assert_eq!(c1.exclusive_xors, 1);
        assert_eq!(c0.shared(), 1);
        assert_eq!(c1.shared(), 1);
        assert_eq!(census.shared(), 1);
        let text = census.to_string();
        assert!(text.contains("2 AND + 2 XOR"), "{text}");
        assert!(text.contains("2 cone(s)"), "{text}");
    }

    #[test]
    fn dead_logic_is_neither_shared_nor_exclusive() {
        let mut net = Netlist::new("dead");
        let a = net.input("a");
        let b = net.input("b");
        let keep = net.xor(a, b);
        net.and(a, b); // dead
        net.output("y", keep);
        let census = GateCensus::of(&net);
        assert_eq!(census.ands, 1);
        assert_eq!(census.shared_ands, 0);
        assert_eq!(census.cones[0].exclusive_ands, 0);
        assert_eq!(census.cones[0].gates(), 1);
    }

    #[test]
    fn check_area_accepts_exact_and_looser_bounds() {
        let net = two_output_net();
        check_area(&net, &AreaSpec::new(2, 2)).unwrap();
        check_area(&net, &AreaSpec::new(5, 9)).unwrap();
        let spec = AreaSpec::new(2, 2);
        assert_eq!(spec.ands(), 2);
        assert_eq!(spec.xors(), 2);
        assert_eq!(spec.total(), 4);
        assert_eq!(spec.to_string(), "2 AND + 2 XOR");
    }

    #[test]
    fn check_area_reports_the_offending_kind() {
        let net = two_output_net();
        let excess = check_area(&net, &AreaSpec::new(1, 2)).unwrap_err();
        assert_eq!(excess.kind, GateKind::And);
        assert_eq!((excess.got, excess.bound), (2, 1));
        let text = excess.to_string();
        assert!(text.contains("2 AND gate(s)"), "{text}");
        assert!(text.contains("bound 1"), "{text}");
        // AND within bound, XOR over: the XOR violation is reported.
        let excess = check_area(&net, &AreaSpec::new(2, 0)).unwrap_err();
        assert_eq!(excess.kind, GateKind::Xor);
    }

    #[test]
    fn strash_keys_collide_exactly_on_identical_cones() {
        let net = two_output_net();
        let keys = strash_classes(&net);
        // Hash-consed construction: all keys distinct.
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), keys.len());
        // Identical construction in a fresh netlist yields identical
        // keys — the class is structural, not identity-based.
        assert_eq!(strash_classes(&two_output_net()), keys);
    }

    #[test]
    fn strash_dedup_is_identity_on_hash_consed_netlists() {
        let net = two_output_net();
        let (rebuilt, saved) = strash_dedup(&net);
        assert_eq!(saved, 0);
        assert_eq!(rebuilt.content_hash(), net.content_hash());
    }

    /// Two copies of `(a&b)^c` as distinct node chains — constructible
    /// only through [`Netlist::push_raw`], since the hash-consing
    /// builders fold such duplicates at construction time.
    fn transitive_duplicate_net() -> Netlist {
        let mut net = Netlist::new("imported");
        let a = net.input("a");
        let b = net.input("b");
        let c = net.input("c");
        let ab1 = net.push_raw(Gate::And(a, b));
        let ab2 = net.push_raw(Gate::And(a, b));
        let y1 = net.push_raw(Gate::Xor(ab1, c));
        let y2 = net.push_raw(Gate::Xor(ab2, c));
        net.output("y1", y1);
        net.output("y2", y2);
        net
    }

    #[test]
    fn strash_classes_catch_transitive_duplicates() {
        let net = transitive_duplicate_net();
        let keys = strash_classes(&net);
        // The two XOR roots read *different* operand ids, so their raw
        // (op, lhs, rhs) triples differ — but their canonical classes
        // collide, which is exactly what pairwise matching cannot see.
        let (_, y1) = net.outputs()[0];
        let (_, y2) = net.outputs()[1];
        assert_ne!(net.gate(y1), net.gate(y2));
        assert_eq!(keys[y1.index()], keys[y2.index()]);
    }

    #[test]
    fn strash_dedup_merges_transitive_duplicates() {
        let net = transitive_duplicate_net();
        assert_eq!(net.stats().gates(), 4);
        let (rebuilt, saved) = strash_dedup(&net);
        assert_eq!(saved, 2, "one AND and one XOR must merge");
        assert_eq!(rebuilt.stats().gates(), 2);
        // Function preserved on every assignment, both outputs.
        for bits in 0..8u32 {
            let ins: Vec<bool> = (0..3).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(net.eval_bool(&ins), rebuilt.eval_bool(&ins));
        }
    }

    #[test]
    fn strash_dedup_preserves_behaviour() {
        let net = two_output_net();
        let (rebuilt, _) = strash_dedup(&net);
        for bits in 0..16u32 {
            let ins: Vec<bool> = (0..4).map(|i| (bits >> i) & 1 == 1).collect();
            assert_eq!(net.eval_bool(&ins), rebuilt.eval_bool(&ins));
        }
        assert_eq!(net.input_names(), rebuilt.input_names());
        assert_eq!(net.outputs().len(), rebuilt.outputs().len());
    }

    #[test]
    fn gate_kind_names() {
        assert_eq!(GateKind::And.name(), "AND");
        assert_eq!(GateKind::Xor.to_string(), "XOR");
    }
}
