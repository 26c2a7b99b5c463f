//! The algebraic specification of a GF(2^m) bit-parallel multiplier:
//! one GF(2) polynomial per product coordinate, derived from the
//! field's reduction matrix — the reference object complete (formal)
//! verification compares netlists against.
//!
//! For `A, B ∈ GF(2^m)` in polynomial basis, the unreduced product has
//! coefficients `d_t = Σ_{i+j=t} a_i·b_j`, and reduction by the modulus
//! gives `c_k = d_k + Σ_i R[k][i]·d_{m+i}` with `R` the field's
//! [`ReductionMatrix`](gf2m::ReductionMatrix). Expanding every `d_t`
//! yields an explicit multilinear polynomial over the 2m input bits;
//! no two expanded products coincide (the `(i, j)` pairs of distinct
//! `t` groups are disjoint), so the expansion is already in algebraic
//! normal form and can be compared syntactically.

use gf2m::Field;
use netlist::algebra::{Monomial, MulSpec, Poly};
use netlist::depth::DepthSpec;

use crate::gen::{DepthSink, Method, MulCircuit};

/// Derives the complete per-output-bit specification of a multiplier
/// over `field`.
///
/// Variable numbering matches the `a0..a{m-1}, b0..b{m-1}` interface
/// every generator in [`crate::gen`] emits: `a_i` is variable `i`,
/// `b_j` is variable `m + j`.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use rgf2m_core::{generate, multiplier_spec, Method};
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let spec = multiplier_spec(&field);
/// let polys = netlist::algebra::output_polys(&generate(&field, Method::ProposedFlat));
/// assert_eq!(polys, spec.outputs());
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
pub fn multiplier_spec(field: &Field) -> MulSpec {
    let m = field.m();
    let red = field.reduction_matrix();
    let mut outputs = Vec::with_capacity(m);
    for k in 0..m {
        // c_k = d_k + Σ_{i ∈ I_k} d_{m+i}, with I_k from the reduction
        // matrix row; expand each d_t into its a_i·b_{t−i} products.
        let mut ts = vec![k];
        ts.extend(red.t_terms_for_coefficient(k).into_iter().map(|i| m + i));
        let mut monomials = Vec::new();
        for t in ts {
            let lo = t.saturating_sub(m - 1);
            let hi = t.min(m - 1);
            for i in lo..=hi {
                monomials.push(Monomial::product(&[i as u32, (m + t - i) as u32]));
            }
        }
        outputs.push(Poly::from_monomials(monomials));
    }
    MulSpec::new(m, outputs)
}

/// Derives the expected per-output (AND-depth, XOR-depth) bounds — the
/// paper's Table V delay formula — for `method` over `field`.
///
/// The bounds are the method's own construction (the one
/// [`generate`](crate::generate) builds) read in a depth sink, where
/// every node is its (AND, XOR) depth: balanced `chunks(2)` trees and
/// the depth-keyed Huffman merging of \[7\] evaluated on depths alone,
/// with no gate allocated. Because hash-consing shares only structurally
/// identical gates (identical depth included) and no tree ever pairs a
/// node with itself, the reading is *exact*: every generator's netlist
/// measures component-wise equal to these bounds, which is what
/// [`netlist::check_depths`] (and the FPGA pipeline's `verify_depth`)
/// certifies.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use netlist::{check_depths, Depth};
/// use rgf2m_core::{delay_spec, generate, Method};
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let spec = delay_spec(&field, Method::Imana2016);
/// assert_eq!(spec.worst(), Depth { ands: 1, xors: 5 }); // T_A + 5T_X
/// check_depths(&generate(&field, Method::Imana2016), &spec).unwrap();
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
pub fn delay_spec(field: &Field, method: Method) -> DepthSpec {
    DepthSpec::new(method.build(field, &mut MulCircuit::with_sink(DepthSink, field.m())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, Method};
    use gf2poly::Gf2Poly;
    use netlist::Depth;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    fn poly_from_bits(v: u64) -> Gf2Poly {
        let exps: Vec<usize> = (0..64).filter(|&i| v >> i & 1 == 1).collect();
        Gf2Poly::from_exponents(&exps)
    }

    #[test]
    fn spec_agrees_with_field_arithmetic() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        let m = field.m();
        // A fixed spread of operand pairs, checked coefficient-wise
        // against the field's own multiplication.
        let mut x = 0x9eu64;
        for _ in 0..32 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let (av, bv) = ((x >> 8) & 0xff, (x >> 32) & 0xff);
            let a = poly_from_bits(av);
            let b = poly_from_bits(bv);
            let c = field.mul(&a, &b);
            let mut assignment = vec![false; 2 * m];
            for i in 0..m {
                assignment[i] = av >> i & 1 == 1;
                assignment[m + i] = bv >> i & 1 == 1;
            }
            for k in 0..m {
                assert_eq!(
                    spec.output(k).eval(&assignment),
                    c.coeff(k),
                    "c_{k} for a={av:#x}, b={bv:#x}"
                );
            }
        }
    }

    #[test]
    fn spec_is_bilinear_with_disjoint_groups() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        let m = field.m();
        for (k, poly) in spec.outputs().iter().enumerate() {
            assert!(!poly.is_zero(), "c_{k} must not vanish");
            for mono in poly.monomials() {
                let vars = mono.vars();
                assert_eq!(vars.len(), 2, "c_{k} monomial {mono} is not bilinear");
                assert!((vars[0] as usize) < m, "c_{k}: {mono}");
                let v = vars[1] as usize;
                assert!((m..2 * m).contains(&v), "c_{k}: {mono}");
            }
        }
    }

    #[test]
    fn every_method_matches_the_spec_at_gf256() {
        let field = gf256();
        let spec = multiplier_spec(&field);
        for method in Method::ALL {
            let net = generate(&field, method);
            let polys = netlist::algebra::output_polys(&net);
            for (k, (got, want)) in polys.iter().zip(spec.outputs()).enumerate() {
                assert_eq!(got, want, "{method:?} output bit {k}");
            }
        }
    }

    #[test]
    fn delay_spec_is_exact_for_every_method_at_gf256() {
        // The depth reading is not just an upper bound: every
        // generator's netlist measures component-wise *equal* to it.
        let field = gf256();
        for method in Method::ALL {
            let spec = delay_spec(&field, method);
            let got = netlist::output_depths(&generate(&field, method));
            assert_eq!(
                got,
                spec.bounds(),
                "{method:?}: measured depths differ from delay_spec"
            );
        }
    }

    #[test]
    fn delay_spec_golden_values_at_gf256() {
        // Table V delay formulas at (m, n) = (8, 2).
        let field = gf256();
        let worst = |method| delay_spec(&field, method).worst();
        // [2]: XOR logic above and below the AND level.
        let mastrovito = worst(Method::MastrovitoPaar);
        assert_eq!(mastrovito.ands, 1);
        assert!(mastrovito.xors > 3, "{mastrovito}");
        // [8]: the 2-input-gate optimum, ⌈log2 22⌉ = 5.
        assert_eq!(worst(Method::Rashidi), Depth { ands: 1, xors: 5 });
        // [3]: T_A + 7T_X cited; balanced trees land in 6..=7.
        let reyhani = worst(Method::ReyhaniHasan);
        assert_eq!(reyhani.ands, 1);
        assert!((6..=7).contains(&reyhani.xors), "{reyhani}");
        // [6]: the monolithic-unit bottleneck, T_A + 6T_X.
        assert_eq!(worst(Method::Imana2012), Depth { ands: 1, xors: 6 });
        // [7]: the split + parenthesised bound, T_A + 5T_X.
        assert_eq!(worst(Method::Imana2016), Depth { ands: 1, xors: 5 });
        // This work: flat sums stay within the balanced envelope.
        let proposed = worst(Method::ProposedFlat);
        assert_eq!(proposed.ands, 1);
        assert!(proposed.xors <= 7, "{proposed}");
    }

    #[test]
    fn delay_spec_certifies_generators_on_more_fields() {
        use gf2poly::TypeIiPentanomial;
        for (m, n) in [(7usize, 2usize), (16, 3)] {
            let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
            for method in Method::ALL {
                let spec = delay_spec(&field, method);
                assert_eq!(spec.num_outputs(), m);
                netlist::check_depths(&generate(&field, method), &spec)
                    .unwrap_or_else(|e| panic!("{method:?} at (m,n)=({m},{n}): {e}"));
            }
        }
    }

    #[test]
    fn tree_depth_replays_match_the_builders() {
        use crate::gen::GateSink;
        use netlist::Netlist;
        // Cross-check the depth sink's trees against the real tree
        // builders over leaves of assorted depths.
        let leaf_specs: Vec<u32> = vec![0, 0, 3, 1, 0, 2, 1, 0, 0, 4, 1];
        for n in 1..=leaf_specs.len() {
            let spec: Vec<Depth> = leaf_specs[..n]
                .iter()
                .map(|&x| Depth { ands: 0, xors: x })
                .collect();
            let build = |aware: bool| {
                let mut net = Netlist::new("t");
                let leaves: Vec<_> = spec
                    .iter()
                    .enumerate()
                    .map(|(i, d)| {
                        let mut chain: Vec<_> = (0..=d.xors)
                            .map(|j| net.input(format!("x{i}_{j}")))
                            .collect();
                        // Distinct inputs per leaf: a chain of depth d.xors.
                        let first = chain.remove(0);
                        chain.into_iter().fold(first, |acc, nxt| net.xor(acc, nxt))
                    })
                    .collect();
                let root = if aware {
                    net.xor_depth_aware(&leaves)
                } else {
                    net.xor_balanced(&leaves)
                };
                net.output("y", root);
                net.depth()
            };
            assert_eq!(
                build(false),
                DepthSink.xor_balanced(&spec),
                "balanced over {n}"
            );
            assert_eq!(
                build(true),
                DepthSink.xor_depth_aware(&spec),
                "huffman over {n}"
            );
        }
    }
}
