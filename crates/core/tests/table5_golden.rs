//! Golden Table V values for every method over six type II fields.
//!
//! The `#AND`/`#XOR` counts, the worst-case `T_A + k·T_X` depth and the
//! netlist content hash were captured from the generators before
//! `area_spec` and `delay_spec` were derived from the generators' own
//! construction. They are the independent check on both specs: a
//! change to a construction that moves any of these numbers, or any
//! byte of a generated netlist, fails here.

use gf2m::Field;
use gf2poly::TypeIiPentanomial;
use netlist::Depth;
use rgf2m_core::{area_spec, delay_spec, generate, Method};

/// `(m, n, method, ANDs, XORs, AND depth, XOR depth, content hash)`.
type Golden = (usize, usize, Method, usize, usize, u32, u32, u64);

#[rustfmt::skip]
const GOLDEN: [Golden; 36] = [
    (7, 2, Method::MastrovitoPaar, 49, 73, 1, 6, 0x0e1fadb3b185748d),
    (7, 2, Method::Rashidi, 49, 100, 1, 5, 0x9543dd5542ca00b9),
    (7, 2, Method::ReyhaniHasan, 49, 60, 1, 6, 0x8ec5ab95059e1efe),
    (7, 2, Method::Imana2012, 49, 60, 1, 6, 0x096dc4953c2b1ff5),
    (7, 2, Method::Imana2016, 49, 69, 1, 5, 0x494f96509217559c),
    (7, 2, Method::ProposedFlat, 49, 65, 1, 6, 0xdce699670e269d83),
    (8, 2, Method::MastrovitoPaar, 64, 91, 1, 5, 0xe694700eb3c3010a),
    (8, 2, Method::Rashidi, 64, 132, 1, 5, 0xf8cb36fbb6f9f81d),
    (8, 2, Method::ReyhaniHasan, 64, 76, 1, 6, 0xcb0c008df35552f8),
    (8, 2, Method::Imana2012, 64, 76, 1, 6, 0x18fd0d35744aaa4b),
    (8, 2, Method::Imana2016, 64, 88, 1, 5, 0xf5095661568b450c),
    (8, 2, Method::ProposedFlat, 64, 88, 1, 6, 0x10176d8c495d2226),
    (16, 3, Method::MastrovitoPaar, 256, 323, 1, 7, 0x0691107de83df924),
    (16, 3, Method::Rashidi, 256, 589, 1, 6, 0x8a94f4242f754eb9),
    (16, 3, Method::ReyhaniHasan, 256, 294, 1, 7, 0x8ffc4498784aa7e6),
    (16, 3, Method::Imana2012, 256, 294, 1, 7, 0xaee8459cfbf5e2f3),
    (16, 3, Method::Imana2016, 256, 341, 1, 6, 0xfb16ae2f8791c856),
    (16, 3, Method::ProposedFlat, 256, 325, 1, 7, 0x18238653de0c888e),
    (64, 23, Method::MastrovitoPaar, 4096, 4488, 1, 9, 0xaefd24ddb075ed04),
    (64, 23, Method::Rashidi, 4096, 10125, 1, 9, 0xfc2df20d78cdeeed),
    (64, 23, Method::ReyhaniHasan, 4096, 4290, 1, 9, 0xd7a4c272df04b601),
    (64, 23, Method::Imana2012, 4096, 4290, 1, 9, 0x8cfda5f5d074a268),
    (64, 23, Method::Imana2016, 4096, 4708, 1, 9, 0x62cce92f3eba89aa),
    (64, 23, Method::ProposedFlat, 4096, 4559, 1, 10, 0xb7ec1def3b8ba14c),
    (113, 34, Method::MastrovitoPaar, 12769, 13407, 1, 10, 0xdeb8d2ccbb772132),
    (113, 34, Method::Rashidi, 12769, 30708, 1, 10, 0xb3973e7195bf31c9),
    (113, 34, Method::ReyhaniHasan, 12769, 13094, 1, 10, 0x8e1544305fa5b8ae),
    (113, 34, Method::Imana2012, 12769, 13094, 1, 10, 0x438cb93007d12c95),
    (113, 34, Method::Imana2016, 12769, 13964, 1, 10, 0xa16a5a77f334b6fd),
    (113, 34, Method::ProposedFlat, 12769, 13582, 1, 11, 0xecbf6b118be8fb4e),
    (163, 68, Method::MastrovitoPaar, 26569, 27663, 1, 11, 0x1e475de839253947),
    (163, 68, Method::Rashidi, 26569, 67810, 1, 10, 0x68d58cb34ad8f5af),
    (163, 68, Method::ReyhaniHasan, 26569, 27096, 1, 11, 0xf63bbe108d76938b),
    (163, 68, Method::Imana2012, 26569, 27096, 1, 11, 0x44a6482c3e17c064),
    (163, 68, Method::Imana2016, 26569, 28587, 1, 10, 0xc623e6f4c09b45a1),
    (163, 68, Method::ProposedFlat, 26569, 27974, 1, 13, 0x093b3053028ef5b1),
];

#[test]
fn specs_and_netlists_match_the_golden_table() {
    for (m, n, method, ands, xors, and_depth, xor_depth, hash) in GOLDEN {
        let field = Field::from_pentanomial(&TypeIiPentanomial::new(m, n).unwrap());
        let at = format!("{method:?} at ({m},{n})");
        let want_depth = Depth {
            ands: and_depth,
            xors: xor_depth,
        };

        let area = area_spec(&field, method);
        assert_eq!((area.ands(), area.xors()), (ands, xors), "area_spec, {at}");
        assert_eq!(
            delay_spec(&field, method).worst(),
            want_depth,
            "delay_spec, {at}"
        );

        let net = generate(&field, method);
        let stats = net.stats();
        assert_eq!(
            (stats.ands, stats.xors),
            (ands, xors),
            "netlist counts, {at}"
        );
        assert_eq!(stats.depth, want_depth, "netlist depth, {at}");
        assert_eq!(net.content_hash(), hash, "netlist bytes, {at}");
    }
}
