//! Slice packing: grouping LUTs into slices (4 LUT6 per 7-series slice).

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::lut::{LutNetlist, Signal};

/// A packing of LUTs into slices.
#[derive(Debug, Clone)]
pub struct Packing {
    /// `slices[s]` = LUT ids packed into slice `s`.
    slices: Vec<Vec<u32>>,
    /// `slice_of[l]` = slice index of LUT `l`.
    slice_of: Vec<u32>,
}

impl Packing {
    /// The slices, each a list of LUT ids.
    pub fn slices(&self) -> &[Vec<u32>] {
        &self.slices
    }

    /// Number of slices used — the paper's second area metric.
    pub fn num_slices(&self) -> usize {
        self.slices.len()
    }

    /// The slice containing LUT `l`.
    pub fn slice_of(&self, l: u32) -> u32 {
        self.slice_of[l as usize]
    }
}

/// Packs LUTs into slices with a connectivity-driven greedy heuristic.
///
/// LUTs are visited in topological order; each is placed into the open
/// slice sharing the most signals with it (driver/sink or common input),
/// or into a fresh slice when no open slice has affinity or capacity.
/// This mirrors how Xilinx `map` clusters related LUTs, and produces the
/// LUT/slice ratios (≈ 2.5–4) seen in the paper's Table V.
///
/// # Examples
///
/// ```
/// use netlist::Netlist;
/// use rgf2m_fpga::{map, pack};
///
/// let mut net = Netlist::new("t");
/// let ins: Vec<_> = (0..12).map(|i| net.input(format!("x{i}"))).collect();
/// let root = net.xor_balanced(&ins);
/// net.output("y", root);
/// let mapped = map::map_to_luts(&net, &map::MapOptions::new());
/// let packing = pack::pack_slices(&mapped, 4);
/// assert!(packing.num_slices() >= mapped.num_luts().div_ceil(4));
/// ```
pub fn pack_slices(lutnet: &LutNetlist, luts_per_slice: usize) -> Packing {
    let (mut slices, mut slice_of) = affinity_pack(lutnet, luts_per_slice);
    consolidate(&mut slices, &mut slice_of, luts_per_slice);
    compact(slices, slice_of)
}

/// The greedy affinity phase: LUTs in topological order, each into the
/// open slice sharing the most signals with it, else into a new slice.
/// Returns the slices and each LUT's slice index.
fn affinity_pack(lutnet: &LutNetlist, luts_per_slice: usize) -> (Vec<Vec<u32>>, Vec<u32>) {
    assert!(luts_per_slice >= 1);
    let n = lutnet.num_luts();
    let mut slices: Vec<Vec<u32>> = Vec::new();
    let mut slice_of = vec![u32::MAX; n];
    // Signals used by each open slice, for affinity scoring.
    const MAX_OPEN: usize = 24;
    let mut open: Vec<(usize, Vec<Signal>)> = Vec::new(); // (slice idx, signals)

    for (l, lut) in lutnet.luts().iter().enumerate() {
        let mut my_signals: Vec<Signal> = lut.inputs.clone();
        my_signals.push(Signal::Lut(l as u32));
        // Score open slices.
        let mut best: Option<(usize, usize)> = None; // (open idx, score)
        for (oi, (si, signals)) in open.iter().enumerate() {
            if slices[*si].len() >= luts_per_slice {
                continue;
            }
            let score = my_signals.iter().filter(|s| signals.contains(s)).count();
            if score > 0 && best.is_none_or(|(_, bs)| score > bs) {
                best = Some((oi, score));
            }
        }
        let si = match best {
            Some((oi, _)) => {
                let (si, signals) = &mut open[oi];
                signals.extend(my_signals);
                *si
            }
            None => {
                let si = slices.len();
                slices.push(Vec::new());
                open.push((si, my_signals));
                if open.len() > MAX_OPEN {
                    open.remove(0);
                }
                si
            }
        };
        slices[si].push(l as u32);
        slice_of[l] = si as u32;
        // Retire full slices from the open list.
        open.retain(|(s, _)| slices[*s].len() < luts_per_slice);
    }
    (slices, slice_of)
}

/// Consolidation pass: the affinity phase leaves many underfull slices
/// on designs wider than the open window. Real packers fill slices
/// under area pressure even without affinity, so underfull slices are
/// merged greedily, which produces the LUT/slice ratios (≈ 3) of the
/// paper's Table V.
///
/// Slices are visited largest first. Each one pours into the earliest
/// underfull slice visited before it that still has room (first fit),
/// or else becomes a fill target itself. Targets sit in buckets by
/// free capacity, each a min-heap on visit rank, so first fit is the
/// lowest rank among the heads of the buckets with room: O(S log S)
/// over S slices where a scan of all targets would be O(S²).
fn consolidate(slices: &mut [Vec<u32>], slice_of: &mut [u32], luts_per_slice: usize) {
    let mut order: Vec<usize> = (0..slices.len()).collect();
    order.sort_by_key(|&s| slices[s].len());
    // `by_free[f]` holds (visit rank, slice) of the targets with `f`
    // free LUT sites.
    let mut by_free: Vec<BinaryHeap<Reverse<(usize, usize)>>> =
        vec![BinaryHeap::new(); luts_per_slice + 1];
    for (rank, &s) in order.iter().rev().enumerate() {
        let need = slices[s].len();
        if need == 0 {
            continue;
        }
        let first_fit = (need..=luts_per_slice)
            .filter_map(|free| by_free[free].peek().map(|&Reverse(target)| (target, free)))
            .min();
        if let Some(((rank_t, t), free)) = first_fit {
            by_free[free].pop();
            let moved = std::mem::take(&mut slices[s]);
            for &l in &moved {
                slice_of[l as usize] = t as u32;
            }
            slices[t].extend(moved);
            if free > need {
                by_free[free - need].push(Reverse((rank_t, t)));
            }
        } else if need < luts_per_slice {
            by_free[luts_per_slice - need].push(Reverse((rank, s)));
        }
    }
}

/// Drops the slices consolidation emptied and renumbers the rest.
fn compact(slices: Vec<Vec<u32>>, mut slice_of: Vec<u32>) -> Packing {
    let mut remap = vec![u32::MAX; slices.len()];
    let mut compact: Vec<Vec<u32>> = Vec::new();
    for (s, luts) in slices.into_iter().enumerate() {
        if !luts.is_empty() {
            remap[s] = compact.len() as u32;
            compact.push(luts);
        }
    }
    for so in slice_of.iter_mut() {
        *so = remap[*so as usize];
        debug_assert_ne!(*so, u32::MAX);
    }
    Packing {
        slices: compact,
        slice_of,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lut::Lut;

    fn chain(n: usize) -> LutNetlist {
        let mut net = LutNetlist::new("c".into(), 6, vec!["a".into()]);
        let mut prev = Signal::Input(0);
        for _ in 0..n {
            let id = net.push_lut(Lut {
                inputs: vec![prev],
                truth: crate::lut::Truth::of(0b01),
            });
            prev = Signal::Lut(id);
        }
        net.push_output("y".into(), prev);
        net
    }

    #[test]
    fn chain_packs_densely() {
        // A connected chain should fill slices to capacity.
        let net = chain(16);
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 4);
        for s in p.slices() {
            assert_eq!(s.len(), 4);
        }
    }

    #[test]
    fn every_lut_is_assigned_exactly_once() {
        let net = chain(10);
        let p = pack_slices(&net, 4);
        let mut seen = [false; 10];
        for (si, luts) in p.slices().iter().enumerate() {
            for &l in luts {
                assert!(!seen[l as usize], "LUT {l} packed twice");
                seen[l as usize] = true;
                assert_eq!(p.slice_of(l), si as u32);
            }
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn capacity_is_respected() {
        let net = chain(23);
        let p = pack_slices(&net, 4);
        for s in p.slices() {
            assert!(s.len() <= 4);
        }
        assert!(p.num_slices() >= 6);
    }

    #[test]
    fn disconnected_luts_consolidate_under_area_pressure() {
        // LUTs with disjoint supports have no affinity — the greedy
        // phase opens a slice each, and the consolidation pass then
        // fills them into one full slice (like `map` under pressure).
        let mut net = LutNetlist::new("d".into(), 6, (0..8).map(|i| format!("x{i}")).collect());
        for i in 0..4 {
            let id = net.push_lut(Lut {
                inputs: vec![Signal::Input(2 * i), Signal::Input(2 * i + 1)],
                truth: crate::lut::Truth::of(0b0110),
            });
            net.push_output(format!("y{i}"), Signal::Lut(id));
        }
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 1);
        assert_eq!(p.slices()[0].len(), 4);
    }

    #[test]
    fn consolidation_respects_capacity_and_assignment_consistency() {
        // 7 disconnected LUTs with capacity 4 → exactly 2 slices.
        let mut net = LutNetlist::new("d7".into(), 6, (0..14).map(|i| format!("x{i}")).collect());
        for i in 0..7 {
            let id = net.push_lut(Lut {
                inputs: vec![Signal::Input(2 * i), Signal::Input(2 * i + 1)],
                truth: crate::lut::Truth::of(0b1000),
            });
            net.push_output(format!("y{i}"), Signal::Lut(id));
        }
        let p = pack_slices(&net, 4);
        assert_eq!(p.num_slices(), 2);
        for (si, luts) in p.slices().iter().enumerate() {
            assert!(luts.len() <= 4);
            for &l in luts {
                assert_eq!(p.slice_of(l), si as u32);
            }
        }
    }

    #[test]
    fn single_lut_single_slice() {
        let net = chain(1);
        assert_eq!(pack_slices(&net, 4).num_slices(), 1);
    }

    // ---- the bucketed consolidation equals the first-fit scan ----

    /// The original consolidation pass: a linear first-fit scan over
    /// every fill target ever opened. The oracle for [`consolidate`].
    fn consolidate_linear(slices: &mut [Vec<u32>], slice_of: &mut [u32], luts_per_slice: usize) {
        let mut order: Vec<usize> = (0..slices.len()).collect();
        order.sort_by_key(|&s| slices[s].len());
        let mut fill_targets: Vec<usize> = Vec::new();
        for &s in order.iter().rev() {
            if slices[s].is_empty() {
                continue;
            }
            let need = slices[s].len();
            if let Some(pos) = fill_targets
                .iter()
                .position(|&t| t != s && slices[t].len() + need <= luts_per_slice)
            {
                let t = fill_targets[pos];
                let moved = std::mem::take(&mut slices[s]);
                for &l in &moved {
                    slice_of[l as usize] = t as u32;
                }
                slices[t].extend(moved);
            } else if slices[s].len() < luts_per_slice {
                fill_targets.push(s);
            }
        }
    }

    fn pack_slices_linear(lutnet: &LutNetlist, luts_per_slice: usize) -> Packing {
        let (mut slices, mut slice_of) = affinity_pack(lutnet, luts_per_slice);
        consolidate_linear(&mut slices, &mut slice_of, luts_per_slice);
        compact(slices, slice_of)
    }

    fn assert_same_packing(lutnet: &LutNetlist, luts_per_slice: usize, what: &str) {
        let fast = pack_slices(lutnet, luts_per_slice);
        let oracle = pack_slices_linear(lutnet, luts_per_slice);
        assert_eq!(fast.slices(), oracle.slices(), "{what}: slices differ");
        for l in 0..lutnet.num_luts() as u32 {
            assert_eq!(fast.slice_of(l), oracle.slice_of(l), "{what}: LUT {l}");
        }
    }

    #[test]
    fn bucketed_consolidation_matches_the_linear_scan_on_table_v_designs() {
        use crate::map::map_to_luts;
        use crate::resynth::rebalance_xors;
        use crate::Target;
        use gf2m::Field;
        use gf2poly::TypeIiPentanomial;
        use rgf2m_core::{generate, Method};

        for (m, n) in [(8, 2), (163, 68)] {
            let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
            for method in Method::ALL {
                let net = generate(&field, method);
                for target in Target::ALL {
                    let resynth = rebalance_xors(&net, target.lut_inputs());
                    let mapped = map_to_luts(&resynth, &target.map_options());
                    let what = format!("({m}, {n}) {method:?} on {target:?}");
                    assert_same_packing(&mapped, target.luts_per_slice(), &what);
                }
            }
        }
    }

    /// Disconnected LUT groups of the given sizes (each at most one
    /// slice): each group is a chain the affinity phase keeps in one
    /// slice of its own, so consolidation starts from exactly these
    /// slice sizes.
    fn mixed_groups(group_sizes: &[usize]) -> LutNetlist {
        let mut net = LutNetlist::new(
            "mixed".into(),
            6,
            (0..group_sizes.len()).map(|g| format!("x{g}")).collect(),
        );
        for (g, &size) in group_sizes.iter().enumerate() {
            let mut prev = Signal::Input(g as u32);
            for _ in 0..size {
                let id = net.push_lut(Lut {
                    inputs: vec![prev],
                    truth: crate::lut::Truth::of(0b01),
                });
                prev = Signal::Lut(id);
            }
            net.push_output(format!("y{g}"), prev);
        }
        net
    }

    #[test]
    fn bucketed_consolidation_matches_the_linear_scan_on_mixed_slice_sizes() {
        let mut state = 0x9E37_79B9_u64;
        let mut next = |bound: usize| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 33) as usize % bound
        };
        for luts_per_slice in [2, 4, 7, 10] {
            for round in 0..4 {
                // Mostly slices of at most half capacity, so targets take
                // several of them; a fifth of any size.
                let sizes: Vec<usize> = (0..200)
                    .map(|_| match next(5) {
                        0 => 1 + next(luts_per_slice),
                        _ => 1 + next(luts_per_slice.div_ceil(2)),
                    })
                    .collect();
                let net = mixed_groups(&sizes);
                let what = format!("luts_per_slice {luts_per_slice}, round {round}");
                assert_same_packing(&net, luts_per_slice, &what);
                // Partly filled targets really are re-bucketed: some
                // slice ends up holding LUTs of three or more groups.
                let p = pack_slices(&net, luts_per_slice);
                if luts_per_slice >= 4 {
                    let group_of = |l: u32| {
                        let mut end = 0;
                        sizes.iter().position(|&n| {
                            end += n;
                            (l as usize) < end
                        })
                    };
                    assert!(
                        p.slices().iter().any(|s| {
                            let mut groups: Vec<_> = s.iter().map(|&l| group_of(l)).collect();
                            groups.dedup();
                            groups.len() >= 3
                        }),
                        "{what}: no slice took a third group"
                    );
                }
            }
        }
    }
}
