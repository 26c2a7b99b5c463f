//! Measures placement wall-time and emits the `BENCH_place.json`
//! trajectory artifact, so placement performance is comparable
//! run-over-run and machine-to-machine — per target fabric, so
//! target-specific placement drift (different slice counts per k and
//! slice capacity) is tracked separately.
//!
//! Usage:
//!   bench_place                   # m = 163 (largest bundled Table V field)
//!   bench_place --quick           # m = 64, reduced budget (~seconds)
//!   bench_place --out PATH        # artifact path (default BENCH_place.json)
//!   bench_place --threads 1,2,4   # thread counts to sweep
//!   bench_place --reps N          # timed repetitions per configuration
//!   bench_place --targets a,b     # fabrics to sweep (default: all; --quick: artix7)
//!
//! The artifact records, per target and thread count: the mapped/packed
//! design shape on that fabric, best/mean wall-time, the
//! proposal/acceptance counters and the per-temperature-step HPWL
//! trajectory of the best run. Wall-clock numbers are only comparable on
//! the same machine; the file embeds the measured parallelism available.

use std::time::Instant;

use rgf2m_bench::report::bench_artifact;
use rgf2m_bench::{arg_value, field_for, BENCH_PLACE_SCHEMA};
use rgf2m_core::{generate, Method};
use rgf2m_fpga::map::map_to_luts;
use rgf2m_fpga::pack::{pack_slices, Packing};
use rgf2m_fpga::place::{place_with_stats, PlaceOptions, PlaceStats};
use rgf2m_fpga::resynth::rebalance_xors;
use rgf2m_fpga::{LutNetlist, Target};
use rgf2m_serve::json::Obj;

struct RunResult {
    threads: usize,
    best_ms: f64,
    mean_ms: f64,
    stats: PlaceStats,
}

/// Per-proposal cost probe on a deliberately tiny design (GF(2^8) on
/// artix7, a 4×3 grid), where fixed per-proposal overhead dominates and
/// any fattening of the annealer inner loop shows up immediately.
struct SmallGridResult {
    luts: usize,
    slices: usize,
    reps: usize,
    proposals: usize,
    best_us: f64,
    mean_us: f64,
}

/// Timed repetitions of the small-grid probe (milliseconds each).
const SMALL_GRID_REPS: usize = 25;

/// Best-of-30 wall time (µs) and proposal count of the pre-PR-2 annealer
/// (commit 9ebd585) on the same GF(2^8)/artix7 design: the reference the
/// per-proposal regression is measured against. Same caveat as
/// `seed_baseline`: only comparable on the machine that produced the
/// committed artifact.
const PRE_PR2_SMALL_GRID_US_PROPOSALS: (f64, usize) = (3326.5, 3784);

fn measure_small_grid() -> SmallGridResult {
    let target = Target::Artix7;
    let field = field_for(8, 2);
    let net = generate(&field, Method::ProposedFlat);
    let resynth = rebalance_xors(&net, target.lut_inputs());
    let mapped = map_to_luts(&resynth, &target.map_options());
    let packing = pack_slices(&mapped, target.luts_per_slice());
    let opts = PlaceOptions {
        threads: 1,
        ..PlaceOptions::default()
    };
    let mut best_us = f64::INFINITY;
    let mut sum_us = 0.0;
    let mut proposals = 0;
    for _ in 0..SMALL_GRID_REPS {
        let start = Instant::now();
        let (_, stats) = place_with_stats(&mapped, &packing, &opts);
        let us = start.elapsed().as_secs_f64() * 1e6;
        sum_us += us;
        if us < best_us {
            best_us = us;
        }
        proposals = stats.proposals;
    }
    SmallGridResult {
        luts: mapped.num_luts(),
        slices: packing.num_slices(),
        reps: SMALL_GRID_REPS,
        proposals,
        best_us,
        mean_us: sum_us / SMALL_GRID_REPS as f64,
    }
}

struct TargetResult {
    target: Target,
    mapped: LutNetlist,
    packing: Packing,
    runs: Vec<RunResult>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "BENCH_place.json".to_string());
    let threads: Vec<usize> = arg_value(&args, "--threads")
        .map(|v| {
            v.split(',')
                .map(|t| t.trim().parse().expect("--threads wants integers"))
                .collect()
        })
        .unwrap_or_else(|| vec![1, 2, 4]);
    let reps: usize = arg_value(&args, "--reps")
        .map(|v| v.parse().expect("--reps wants an integer"))
        .unwrap_or(if quick { 1 } else { 2 });
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
                vec![Target::Artix7]
            } else {
                Target::ALL.to_vec()
            }
        });

    let (m, n) = if quick { (64, 23) } else { (163, 68) };
    let opts_base = PlaceOptions {
        max_total_moves: if quick { 100_000 } else { 1_200_000 },
        ..PlaceOptions::default()
    };

    eprintln!("building GF(2^{m}) proposed multiplier ...");
    let field = field_for(m, n);
    let net = generate(&field, Method::ProposedFlat);

    let mut results: Vec<TargetResult> = Vec::new();
    for &target in &targets {
        let k = target.lut_inputs();
        eprintln!(
            "[{}] resynthesizing and mapping (k = {k}) ...",
            target.name()
        );
        let resynth = rebalance_xors(&net, k);
        let mapped = map_to_luts(&resynth, &target.map_options());
        let packing = pack_slices(&mapped, target.luts_per_slice());
        eprintln!(
            "[{}] design: {} LUTs, {} slices",
            target.name(),
            mapped.num_luts(),
            packing.num_slices()
        );

        let mut runs: Vec<RunResult> = Vec::new();
        for &t in &threads {
            let opts = PlaceOptions {
                threads: t,
                ..opts_base.clone()
            };
            let mut best_ms = f64::INFINITY;
            let mut sum_ms = 0.0;
            let mut best_stats = None;
            for rep in 0..reps.max(1) {
                let start = Instant::now();
                let (_, stats) = place_with_stats(&mapped, &packing, &opts);
                let ms = start.elapsed().as_secs_f64() * 1e3;
                eprintln!(
                    "[{}] threads={t} rep={rep}: {ms:.1} ms, {} proposals, {} accepted, final HPWL {:.1}",
                    target.name(),
                    stats.proposals,
                    stats.accepted,
                    stats.final_hpwl
                );
                sum_ms += ms;
                if ms < best_ms {
                    best_ms = ms;
                    best_stats = Some(stats);
                }
            }
            runs.push(RunResult {
                threads: t,
                best_ms,
                mean_ms: sum_ms / reps.max(1) as f64,
                stats: best_stats.expect("at least one rep ran"),
            });
        }
        results.push(TargetResult {
            target,
            mapped,
            packing,
            runs,
        });
    }

    eprintln!("probing small-grid per-proposal cost (GF(2^8) on artix7) ...");
    let small = measure_small_grid();
    let ns_per_proposal = small.best_us * 1e3 / small.proposals as f64;
    let (pre_us, pre_proposals) = PRE_PR2_SMALL_GRID_US_PROPOSALS;
    let pre_ns = pre_us * 1e3 / pre_proposals as f64;
    eprintln!(
        "small grid: {} LUTs, {} slices; best-of-{}: {:.1} us / {} proposals = {:.1} ns/proposal ({:+.1}% vs pre-PR-2 {:.1})",
        small.luts,
        small.slices,
        small.reps,
        small.best_us,
        small.proposals,
        ns_per_proposal,
        (ns_per_proposal / pre_ns - 1.0) * 100.0,
        pre_ns
    );

    let json = render_json(m, n, &opts_base, &results, &small);
    std::fs::write(&out_path, json).expect("writing the artifact");
    eprintln!("wrote {out_path}");
    for tr in &results {
        if let Some(base) = tr.runs.iter().find(|r| r.threads == 1) {
            for r in tr.runs.iter().filter(|r| r.threads != 1) {
                eprintln!(
                    "[{}] speedup vs threads=1: threads={} -> {:.2}x (best-of-{reps})",
                    tr.target.name(),
                    r.threads,
                    base.best_ms / r.best_ms
                );
            }
        }
    }
}

fn render_json(
    m: usize,
    n: usize,
    opts: &PlaceOptions,
    results: &[TargetResult],
    small: &SmallGridResult,
) -> String {
    let (pre_us, pre_proposals) = PRE_PR2_SMALL_GRID_US_PROPOSALS;
    let small_grid = Obj::new()
        .str("description", "per-proposal annealer cost on a tiny grid: GF(2^8) ProposedFlat on artix7, threads = 1, default options; fixed per-proposal overhead dominates here")
        .set("field", Obj::new().num("m", 8).num("n", 2))
        .str("target", "artix7")
        .set("design", Obj::new().num("luts", small.luts).num("slices", small.slices))
        .num("reps", small.reps)
        .num("proposals", small.proposals)
        .fixed("best_wall_us", small.best_us, 1)
        .fixed("mean_wall_us", small.mean_us, 1)
        .fixed("ns_per_proposal", small.best_us * 1e3 / small.proposals as f64, 1)
        .set(
            "pre_pr2_baseline",
            Obj::new()
                .str("description", "pre-PR-2 annealer (commit 9ebd585) on the same design; only comparable on the machine that produced the committed artifact")
                .fixed("best_wall_us", pre_us, 1)
                .num("proposals", pre_proposals)
                .fixed("ns_per_proposal", pre_us * 1e3 / pre_proposals as f64, 1),
        );
    let targets = results.iter().map(|tr| {
        let runs = tr.runs.iter().map(|r| {
            let st = &r.stats;
            let trajectory = st.trajectory.iter().map(|step| {
                Obj::new()
                    .fixed("t", step.temperature, 4)
                    .fixed("hpwl", step.hpwl, 2)
                    .num("proposed", step.proposed)
                    .num("accepted", step.accepted)
            });
            Obj::new()
                .num("threads", r.threads)
                .fixed("best_wall_ms", r.best_ms, 1)
                .fixed("mean_wall_ms", r.mean_ms, 1)
                .num("proposals", st.proposals)
                .num("accepted", st.accepted)
                .fixed("initial_hpwl", st.initial_hpwl, 2)
                .fixed("final_hpwl", st.final_hpwl, 2)
                .arr("trajectory", trajectory)
        });
        let base = tr.runs.iter().find(|b| b.threads == 1);
        let speedups = tr
            .runs
            .iter()
            .filter(|r| r.threads != 1)
            .filter_map(|r| base.map(|b| (r.threads, b.best_ms / r.best_ms)))
            .fold(Obj::new(), |o, (threads, x)| o.fixed(&threads.to_string(), x, 2));
        let entry = Obj::new()
            .str("target", tr.target.name())
            .set(
                "design",
                Obj::new()
                    .str("method", "ProposedFlat")
                    .num("k", tr.target.lut_inputs())
                    .num("luts_per_slice", tr.target.luts_per_slice())
                    .num("luts", tr.mapped.num_luts())
                    .num("slices", tr.packing.num_slices()),
            )
            .arr("runs", runs)
            .set("speedup_vs_threads1", speedups);
        // The seed-commit reference point is only meaningful for the
        // exact configuration it was measured under (full m = 163 run
        // on artix7, the machine/session that produced the committed
        // artifact) — never attach it to --quick runs, other fields or
        // other fabrics.
        if m == 163 && opts.max_total_moves == 1_200_000 && tr.target == Target::Artix7 {
            entry.set(
                "seed_baseline",
                Obj::new()
                    .str("description", "place() wall-time at the seed commit (PR 1 annealer); only comparable on the machine that produced the committed artifact")
                    .fixed("best_wall_ms", 31226.8, 1)
                    .fixed("mean_wall_ms", 33041.0, 1),
            )
        } else {
            entry
        }
    });
    bench_artifact(BENCH_PLACE_SCHEMA, m, n)
        .set(
            "place_options",
            Obj::new()
                .num("seed", opts.seed)
                .num("moves_factor", opts.moves_factor)
                .num("max_total_moves", opts.max_total_moves),
        )
        .set("small_grid", small_grid)
        .arr("targets", targets)
        .document()
}
