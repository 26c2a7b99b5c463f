//! Measures technology-mapping wall-time and emits the `BENCH_map.json`
//! trajectory artifact, so mapper performance is comparable run-over-run
//! and machine-to-machine — per target fabric, because cut enumeration
//! cost scales steeply with the fabric's LUT width `k` (the k = 8
//! `stratix_alm` mapper is the on-record hot spot).
//!
//! Usage:
//!   bench_map                   # m = 163 (largest bundled Table V field)
//!   bench_map --quick           # m = 64 (~seconds)
//!   bench_map --out PATH        # artifact path (default BENCH_map.json)
//!   bench_map --reps N          # timed repetitions per configuration
//!   bench_map --targets a,b     # fabrics to sweep (default: all; --quick: artix7,stratix_alm)
//!
//! The artifact records, per target: the resynthesized design shape, the
//! mapping options actually used (k and the target-derived cut budget),
//! the mapped LUT count and depth, and best/mean wall-time over the
//! repetitions. Wall-clock numbers are only comparable on the same
//! machine; the file embeds the measured parallelism available.

use std::time::Instant;

use rgf2m_bench::report::bench_artifact;
use rgf2m_bench::{arg_value, field_for, BENCH_MAP_SCHEMA};
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::{map_to_luts, MapOptions};
use rgf2m_fpga::resynth::rebalance_xors;
use rgf2m_fpga::{LutNetlist, Target};
use rgf2m_serve::json::{Json, Obj};

/// Mapper wall-time at the pre-refactor commit (PR 5 mapper: per-cut
/// `Vec` clones, quadratic candidate dedup, flat `cuts_per_node = 8` at
/// every width), measured for the full m = 163 `stratix_alm` (k = 8)
/// configuration on the machine that produced the committed artifact.
/// `(best_wall_ms, mean_wall_ms)`.
const STRATIX_M163_PRE_REFACTOR_MS: (f64, f64) = (106.6, 137.9);

struct TargetResult {
    target: Target,
    opts: MapOptions,
    resynth_gates: usize,
    mapped: LutNetlist,
    rep_ms: Vec<f64>,
    best_ms: f64,
    mean_ms: f64,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_map.json".to_string());
    let reps: usize = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps wants an integer"))
        .unwrap_or(if quick { 1 } else { 3 });
    let targets: Vec<Target> = arg_value(&args, "--targets")
        .map(|v| {
            v.split(',')
                .map(|t| {
                    Target::from_name(t.trim())
                        .unwrap_or_else(|| panic!("unknown target {t:?} in --targets"))
                })
                .collect()
        })
        .unwrap_or_else(|| {
            if quick {
                vec![Target::Artix7, Target::StratixAlm]
            } else {
                Target::ALL.to_vec()
            }
        });

    let (m, n) = if quick { (64, 23) } else { (163, 68) };

    eprintln!("building GF(2^{m}) proposed multiplier ...");
    let field = field_for(m, n);
    let net = generate(&field, Method::ProposedFlat);

    let mut results: Vec<TargetResult> = Vec::new();
    for &target in &targets {
        let opts = target.map_options();
        let k = opts.k;
        eprintln!("[{}] resynthesizing (k = {k}) ...", target.name());
        let resynth = rebalance_xors(&net, k);
        let resynth_gates = resynth.stats().gates();

        let mut rep_ms = Vec::new();
        let mut best_ms = f64::INFINITY;
        let mut sum_ms = 0.0;
        let mut mapped = None;
        for rep in 0..reps.max(1) {
            let start = Instant::now();
            let lutnet = map_to_luts(&resynth, &opts);
            let ms = start.elapsed().as_secs_f64() * 1e3;
            eprintln!(
                "[{}] rep={rep}: {ms:.1} ms, {} LUTs, depth {}",
                target.name(),
                lutnet.num_luts(),
                lutnet.depth()
            );
            rep_ms.push(ms);
            sum_ms += ms;
            if ms < best_ms {
                best_ms = ms;
            }
            mapped = Some(lutnet);
        }
        results.push(TargetResult {
            target,
            opts,
            resynth_gates,
            mapped: mapped.expect("at least one rep ran"),
            rep_ms,
            best_ms,
            mean_ms: sum_ms / reps.max(1) as f64,
        });
    }

    let json = render_json(m, n, &results);
    std::fs::write(&out_path, json).expect("writing the artifact");
    eprintln!("wrote {out_path}");
    for tr in &results {
        if m == 163 && tr.target == Target::StratixAlm {
            let (base_best, _) = STRATIX_M163_PRE_REFACTOR_MS;
            eprintln!(
                "[{}] speedup vs pre-refactor mapper: {:.2}x (best-of-{reps})",
                tr.target.name(),
                base_best / tr.best_ms
            );
        }
    }
}

fn render_json(m: usize, n: usize, results: &[TargetResult]) -> String {
    let targets = results.iter().map(|tr| {
        let mode = match tr.opts.mode {
            rgf2m_fpga::map::MapMode::Free => "free",
            rgf2m_fpga::map::MapMode::FanoutPreserving => "fanout_preserving",
        };
        let entry = Obj::new()
            .str("target", tr.target.name())
            .set(
                "map_options",
                Obj::new()
                    .num("k", tr.opts.k)
                    .num("cuts_per_node", tr.opts.cuts_per_node)
                    .str("mode", mode),
            )
            .set(
                "design",
                Obj::new()
                    .str("method", "ProposedFlat")
                    .num("resynth_gates", tr.resynth_gates)
                    .num("luts", tr.mapped.num_luts())
                    .num("depth", tr.mapped.depth()),
            )
            .arr("rep_wall_ms", tr.rep_ms.iter().map(|&ms| Json::fixed(ms, 1)))
            .fixed("best_wall_ms", tr.best_ms, 1)
            .fixed("mean_wall_ms", tr.mean_ms, 1);
        // The pre-refactor reference point is only meaningful for the
        // exact configuration it was measured under (full m = 163 on
        // stratix_alm, the machine/session that produced the committed
        // artifact) — never attach it to --quick runs or other fabrics.
        if m == 163 && tr.target == Target::StratixAlm {
            let (best, mean) = STRATIX_M163_PRE_REFACTOR_MS;
            entry.set(
                "pre_refactor_baseline",
                Obj::new()
                    .str("description", "map_to_luts() wall-time before the arena/priority-cut mapper (PR 5 data plane); only comparable on the machine that produced the committed artifact")
                    .fixed("best_wall_ms", best, 1)
                    .fixed("mean_wall_ms", mean, 1),
            )
        } else {
            entry
        }
    });
    bench_artifact(BENCH_MAP_SCHEMA, m, n)
        .arr("targets", targets)
        .document()
}
