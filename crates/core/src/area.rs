//! Exact per-method Table V gate counts (#AND, #XOR) — the static
//! *area* certificate, counterpart of [`crate::spec::delay_spec`].
//!
//! A closed-form count like `m²` ANDs or `Σ_k (|d_k| − 1)` XORs cannot
//! be exact, because the hash-consing [`netlist::Netlist`] builder
//! shares every structurally repeated gate across coefficients (the
//! paper itself notes repeated terms "could be shared, therefore
//! reducing the space requirements" — e.g. \[3\] at GF(2^8) measures
//! 76 XORs, not the naive 77). Exact sharing needs the builder's own
//! interning, so [`area_spec`] counts the gates of a fresh build of the
//! method's one construction. Certifying a netlist against it
//! ([`netlist::check_area`], the FPGA pipeline's `verify_area`) proves
//! the netlist holds no gate beyond that build: a duplicated,
//! rewritten-in or injected gate fails.

use gf2m::Field;
use netlist::census::AreaSpec;

use crate::gen::{generate, Method};

/// Derives the expected per-kind gate counts — the paper's Table V
/// `#AND`/`#XOR` area formula — for `method` over `field`.
///
/// The counts are those of a fresh [`generate`] build, so they *equal*
/// the generated netlist's [`netlist::Stats`] counts; golden values pin
/// them across the catalogued Table V fields. [`netlist::check_area`]
/// still treats the spec as an upper bound, so rewrites that shrink a
/// netlist keep passing.
///
/// # Examples
///
/// ```
/// use gf2m::Field;
/// use gf2poly::TypeIiPentanomial;
/// use netlist::check_area;
/// use rgf2m_core::{area_spec, generate, Method};
///
/// let field = Field::from_pentanomial(&TypeIiPentanomial::new(8, 2)?);
/// let spec = area_spec(&field, Method::ReyhaniHasan);
/// assert_eq!((spec.ands(), spec.xors()), (64, 76)); // paper: 64/77, one pair shared
/// check_area(&generate(&field, Method::ReyhaniHasan), &spec).unwrap();
/// # Ok::<(), gf2poly::PentanomialError>(())
/// ```
pub fn area_spec(field: &Field, method: Method) -> AreaSpec {
    AreaSpec::of(&generate(field, method))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::coefficient_support;
    use gf2poly::Gf2Poly;
    use netlist::check_area;

    fn gf256() -> Field {
        Field::new(Gf2Poly::from_exponents(&[8, 4, 3, 2, 0])).unwrap()
    }

    #[test]
    fn area_spec_golden_values_at_gf256() {
        let field = gf256();
        // Every antidiagonal-product method shares the full m² = 64 AND
        // plane; only the Mastrovito matrix form ANDs *sums* of a's, so
        // its AND count equals the number of nonzero matrix entries.
        for method in [
            Method::Rashidi,
            Method::ReyhaniHasan,
            Method::Imana2012,
            Method::Imana2016,
            Method::ProposedFlat,
        ] {
            assert_eq!(area_spec(&field, method).ands(), 64, "{method:?}");
        }
        // [3]: the paper credits 64 AND / 77 XOR; hash-consing shares
        // the (T4 + T5) pair appearing in both c0 and c7 → 76.
        let reyhani = area_spec(&field, Method::ReyhaniHasan);
        assert_eq!((reyhani.ands(), reyhani.xors()), (64, 76));
        // [8] flattens every coefficient: XORs = Σ_k (|support(c_k)|−1)
        // minus shared tree nodes — strictly more than [3].
        let rashidi = area_spec(&field, Method::Rashidi);
        assert!(rashidi.xors() > reyhani.xors(), "{rashidi}");
        let naive: usize = (0..8)
            .map(|k| coefficient_support(&field, k).len() - 1)
            .sum();
        assert!(rashidi.xors() <= naive, "{rashidi} vs naive {naive}");
        // The split methods sit between: atom reuse buys sharing back.
        let proposed = area_spec(&field, Method::ProposedFlat);
        assert!(proposed.xors() < rashidi.xors(), "{proposed}");
        // Mastrovito pays XOR logic below the AND level too.
        let mastrovito = area_spec(&field, Method::MastrovitoPaar);
        assert!((56..=72).contains(&mastrovito.ands()), "{mastrovito}");
    }

    #[test]
    fn check_area_certifies_generators_with_the_spec() {
        let field = gf256();
        for method in Method::ALL {
            let spec = area_spec(&field, method);
            check_area(&generate(&field, method), &spec)
                .unwrap_or_else(|e| panic!("{method:?}: {e}"));
        }
    }

    #[test]
    fn injected_redundant_gate_breaks_the_certificate() {
        use netlist::Gate;
        let field = gf256();
        let spec = area_spec(&field, Method::ProposedFlat);
        let mut net = generate(&field, Method::ProposedFlat);
        // One raw duplicate gate: the exact count certificate must fail.
        let root = net.outputs()[0].1;
        let Gate::Xor(x, y) = net.gate(root) else {
            panic!("multiplier output is an XOR");
        };
        net.push_raw(Gate::Xor(x, y));
        let excess = check_area(&net, &spec).unwrap_err();
        assert_eq!(excess.got, excess.bound + 1);
    }
}
