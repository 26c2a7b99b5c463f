//! Golden placement pin: the committed `BENCH_place.json` artix7 runs at
//! threads 1 and 2 must be reproduced exactly, counters and every
//! trajectory step, at the precision the artifact prints. A placer
//! speedup that moves a single accept/reject decision fails here.
//! Release-only: each run anneals the m = 163 design for 1.2 M
//! proposals.

use rgf2m_bench::field_for;
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::map_to_luts;
use rgf2m_fpga::pack::pack_slices;
use rgf2m_fpga::place::{place_with_stats, PlaceOptions};
use rgf2m_fpga::resynth::rebalance_xors;
use rgf2m_fpga::Target;
use rgf2m_serve::json::{parse_json, JsonValue};

fn num(v: &JsonValue, key: &str) -> f64 {
    v.num_field(key)
        .unwrap_or_else(|e| panic!("BENCH_place.json: {e}"))
}

/// `x` as the artifact prints it, with `digits` decimals.
fn fixed(x: f64, digits: usize) -> String {
    format!("{x:.digits$}")
}

#[test]
#[cfg_attr(debug_assertions, ignore)]
fn artix7_runs_reproduce_the_committed_bench_place_artifact() {
    let doc = parse_json(include_str!("../../../BENCH_place.json")).unwrap();
    let field = doc.field("field").unwrap();
    let (m, n) = (num(field, "m") as usize, num(field, "n") as usize);
    let opts = doc.field("place_options").unwrap();
    let base = PlaceOptions {
        seed: num(opts, "seed") as u64,
        moves_factor: num(opts, "moves_factor") as usize,
        max_total_moves: num(opts, "max_total_moves") as usize,
        threads: 1,
    };
    let entry = doc
        .array_field("targets")
        .unwrap()
        .iter()
        .find(|t| t.str_field("target") == Ok("artix7"))
        .expect("BENCH_place.json has an artix7 entry");

    let target = Target::Artix7;
    let net = generate(&field_for(m, n), Method::ProposedFlat);
    let mapped = map_to_luts(
        &rebalance_xors(&net, target.lut_inputs()),
        &target.map_options(),
    );
    let packing = pack_slices(&mapped, target.luts_per_slice());
    let design = entry.field("design").unwrap();
    assert_eq!(num(design, "luts") as usize, mapped.num_luts());
    assert_eq!(num(design, "slices") as usize, packing.num_slices());

    for threads in [1, 2] {
        let run = entry
            .array_field("runs")
            .unwrap()
            .iter()
            .find(|r| num(r, "threads") as usize == threads)
            .unwrap_or_else(|| panic!("no artix7 run at threads = {threads}"));
        let opts = PlaceOptions {
            threads,
            ..base.clone()
        };
        let (_, stats) = place_with_stats(&mapped, &packing, &opts);
        let at = format!("artix7, threads = {threads}");
        assert_eq!(stats.proposals, num(run, "proposals") as usize, "{at}");
        assert_eq!(stats.accepted, num(run, "accepted") as usize, "{at}");
        assert_eq!(
            fixed(stats.initial_hpwl, 2),
            fixed(num(run, "initial_hpwl"), 2),
            "{at}: initial_hpwl"
        );
        assert_eq!(
            fixed(stats.final_hpwl, 2),
            fixed(num(run, "final_hpwl"), 2),
            "{at}: final_hpwl"
        );
        let committed = run.array_field("trajectory").unwrap();
        assert_eq!(stats.trajectory.len(), committed.len(), "{at}: steps");
        for (i, (step, want)) in stats.trajectory.iter().zip(committed).enumerate() {
            let got = (
                fixed(step.temperature, 4),
                fixed(step.hpwl, 2),
                step.proposed,
                step.accepted,
            );
            let want = (
                fixed(num(want, "t"), 4),
                fixed(num(want, "hpwl"), 2),
                num(want, "proposed") as usize,
                num(want, "accepted") as usize,
            );
            assert_eq!(got, want, "{at}: trajectory step {i}");
        }
    }
}
