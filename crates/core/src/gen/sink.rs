//! The gate interface every Table V construction is written against,
//! and its two readings: the hash-consing [`Netlist`] builder and the
//! depth-only `DepthSink`.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use netlist::{Depth, Netlist, NodeId};

/// Where a multiplier construction puts its gates.
///
/// Each Table V method is written once, as a sequence of calls on a
/// sink. Building into a [`Netlist`] yields the circuit
/// ([`crate::generate`]); building into the crate's depth sink yields
/// each output's `T_A + k·T_X` depth without allocating a gate
/// ([`crate::delay_spec`]).
pub trait GateSink {
    /// A handle on one signal of the construction.
    type Node: Copy + std::fmt::Debug;

    /// A new primary input called `name`.
    fn input(&mut self, name: String) -> Self::Node;

    /// `a · b`.
    fn and(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;

    /// `a + b`.
    fn xor(&mut self, a: Self::Node, b: Self::Node) -> Self::Node;

    /// The sum of `nodes` as a balanced tree, in the shape of
    /// [`Netlist::xor_balanced`].
    fn xor_balanced(&mut self, nodes: &[Self::Node]) -> Self::Node;

    /// The sum of `nodes` pairing shallowest first, in the shape of
    /// [`Netlist::xor_depth_aware`].
    fn xor_depth_aware(&mut self, nodes: &[Self::Node]) -> Self::Node;
}

impl GateSink for Netlist {
    type Node = NodeId;

    fn input(&mut self, name: String) -> NodeId {
        Netlist::input(self, name)
    }

    fn and(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Netlist::and(self, a, b)
    }

    fn xor(&mut self, a: NodeId, b: NodeId) -> NodeId {
        Netlist::xor(self, a, b)
    }

    fn xor_balanced(&mut self, nodes: &[NodeId]) -> NodeId {
        Netlist::xor_balanced(self, nodes)
    }

    fn xor_depth_aware(&mut self, nodes: &[NodeId]) -> NodeId {
        Netlist::xor_depth_aware(self, nodes)
    }
}

/// Reads a construction as depths: every node is its own (AND, XOR)
/// depth, as `netlist::analysis::node_depths` would measure it.
///
/// The reading is exact. Hash-consing shares only structurally
/// identical gates, which have identical depths, and no construction
/// XORs a node with itself, so nothing folds away; every generated
/// netlist's output depths therefore equal what this sink computes.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct DepthSink;

impl GateSink for DepthSink {
    type Node = Depth;

    fn input(&mut self, _name: String) -> Depth {
        Depth::default()
    }

    fn and(&mut self, a: Depth, b: Depth) -> Depth {
        Depth {
            ands: a.ands.max(b.ands) + 1,
            xors: a.xors.max(b.xors),
        }
    }

    fn xor(&mut self, a: Depth, b: Depth) -> Depth {
        Depth {
            ands: a.ands.max(b.ands),
            xors: a.xors.max(b.xors) + 1,
        }
    }

    /// Pairs neighbours layer by layer (`chunks(2)`); an odd node
    /// passes up unchanged.
    fn xor_balanced(&mut self, nodes: &[Depth]) -> Depth {
        let mut layer = nodes.to_vec();
        while layer.len() > 1 {
            layer = layer
                .chunks(2)
                .map(|pair| match *pair {
                    [x, y] => self.xor(x, y),
                    [x] => x,
                    _ => unreachable!(),
                })
                .collect();
        }
        layer.first().copied().unwrap_or_default()
    }

    /// Huffman merging on XOR depth. Popping any two minimum keys
    /// leaves the same key multiset, so the netlist's node-id
    /// tie-breaks cannot change the result, and the root's AND depth is
    /// the maximum over the leaves whatever the order.
    fn xor_depth_aware(&mut self, nodes: &[Depth]) -> Depth {
        let mut heap: BinaryHeap<Reverse<(u32, u32)>> =
            nodes.iter().map(|d| Reverse((d.xors, d.ands))).collect();
        while heap.len() > 1 {
            let Reverse((x1, a1)) = heap.pop().expect("len > 1");
            let Reverse((x2, a2)) = heap.pop().expect("len > 1");
            let merged = self.xor(Depth { ands: a1, xors: x1 }, Depth { ands: a2, xors: x2 });
            heap.push(Reverse((merged.xors, merged.ands)));
        }
        heap.pop()
            .map_or_else(Depth::default, |Reverse((xors, ands))| Depth { ands, xors })
    }
}
