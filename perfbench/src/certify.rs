//! `certify`: the static certificates — lint, formal, depth, area,
//! strash and mapped-formal — over (163, 68) × the six methods plus
//! (571, 103) ProposedFlat on artix7. No packing, placement or timing
//! runs, so placement changes do not reach this workload.
//!
//! The untraced run times `rgf2m_bench::run_audit` calls: one for
//! (571, 103), then passes over the m = 163 designs. The traced pass
//! calls each certificate function separately under spans and must
//! reach the same verdicts.

use std::time::Instant;

use netlist::Netlist;
use rgf2m_bench::{field_for, harness_pipeline, run_audit, AuditOptions, AuditReport};
use rgf2m_core::{area_spec, delay_spec, multiplier_spec, Method};
use rgf2m_fpga::Target;

use crate::common::{median, peak_rss_mb, percentile, Outcome, SetupTimer};
use crate::trace::Trace;

/// The audited designs: `(m, n, method)`, the (571, 103) one last.
pub fn designs() -> Vec<(usize, usize, Method)> {
    let mut v: Vec<_> = Method::ALL
        .iter()
        .map(|&method| (163, 68, method))
        .collect();
    v.push((571, 103, Method::ProposedFlat));
    v
}

fn unit((m, _, method): (usize, usize, Method)) -> String {
    format!("{m}:{}", method.name())
}

fn options((m, n, method): (usize, usize, Method)) -> AuditOptions {
    AuditOptions {
        m,
        n,
        methods: vec![method],
        targets: vec![Target::Artix7],
        fault: None,
    }
}

/// Set-up: the fields and the harness pipeline the audit certifies on.
fn setup() -> impl Sized {
    (field_for(163, 68), field_for(571, 103), harness_pipeline())
}

/// LUTs the audit's mapped check certified, read from its evidence line
/// (`"<n> LUTs match the spec on <target>"`).
fn mapped_luts(report: &AuditReport) -> Option<usize> {
    report
        .cells
        .iter()
        .flat_map(|c| &c.checks)
        .find(|c| c.check == "mapped" && c.ok)
        .and_then(|c| c.detail.split_whitespace().next())
        .and_then(|n| n.parse().ok())
}

/// Checks an audit verdict and returns its mapped LUT count, counting a
/// failure for any violation.
fn check_audit(design: (usize, usize, Method), report: &AuditReport, out: &mut Outcome) -> usize {
    if !report.is_clean() {
        out.fail(format!(
            "{}: {} audit violation(s)\n{report}",
            unit(design),
            report.violations()
        ));
    }
    mapped_luts(report).unwrap_or_else(|| {
        out.fail(format!(
            "{}: no mapped LUT count in the audit",
            unit(design)
        ));
        0
    })
}

/// Source gates of each design, generated outside the timed phase; the
/// five antidiagonal methods must spend exactly m² ANDs.
fn gates(out: &mut Outcome) -> usize {
    let mut total = 0;
    for design @ (m, n, method) in designs() {
        let stats = method.generator().generate(&field_for(m, n)).stats();
        if method != Method::MastrovitoPaar && stats.ands != m * m {
            out.fail(format!(
                "{}: {} ANDs, expected m² = {}",
                unit(design),
                stats.ands,
                m * m
            ));
        }
        total += stats.ands + stats.xors;
    }
    total
}

fn audit_pass() -> Vec<(AuditReport, f64)> {
    designs().into_iter().map(timed_audit).collect()
}

fn timed_audit(design: (usize, usize, Method)) -> (AuditReport, f64) {
    let t0 = Instant::now();
    let report = run_audit(&options(design));
    (report, t0.elapsed().as_secs_f64())
}

/// Fewest timed audits of each m = 163 design in the untraced run.
const MIN_REPEATS: usize = 3;

/// The untraced run. The (571, 103) design is audited once. Then the
/// m = 163 designs are audited in passes, for `seconds` and at least
/// [`MIN_REPEATS`] passes, and each one's latency is its median over
/// the passes. One audit of m = 163 takes about half a second, so a
/// single sample of it would carry the host's short swings in speed.
pub fn run(seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let mut timer = SetupTimer::default();
    let all = designs();
    let (&large, small) = all.split_last().expect("designs");
    let ((large_report, large_s), passes) = timer.during(setup, || {
        let large = timed_audit(large);
        let t0 = Instant::now();
        let mut passes: Vec<Vec<(AuditReport, f64)>> = Vec::new();
        while passes.len() < MIN_REPEATS || t0.elapsed().as_secs_f64() < seconds {
            passes.push(small.iter().map(|&d| timed_audit(d)).collect());
        }
        (large, passes)
    });
    let rss = peak_rss_mb();
    out.attempted = 1 + small.len() * passes.len();
    let pass_luts: Vec<usize> = passes
        .iter()
        .map(|pass| {
            small
                .iter()
                .zip(pass)
                .map(|(&d, (report, _))| check_audit(d, report, &mut out))
                .sum()
        })
        .collect();
    if pass_luts.windows(2).any(|w| w[0] != w[1]) {
        out.fail(format!(
            "m = 163 audits certified different LUT totals across passes: {pass_luts:?}"
        ));
    }
    let luts = check_audit(large, &large_report, &mut out) + pass_luts[0];
    // One latency per design: the m = 163 ones are medians over passes.
    let mut latencies = vec![large_s * 1e3];
    latencies.extend((0..small.len()).map(|i| {
        let samples: Vec<f64> = passes.iter().map(|p| p[i].1 * 1e3).collect();
        median(&samples)
    }));
    let gates = gates(&mut out);
    out.set("setup_s", timer.median_s());
    out.set("wall_s", latencies.iter().sum::<f64>() / 1e3);
    out.set("op_ms_p50", median(&latencies));
    out.set("op_ms_p95", percentile(&latencies, 0.95));
    out.set("peak_rss_mb", rss);
    out.set("gates_total", gates as f64);
    out.set("luts_total", luts as f64);
    out
}

/// One design's certificate verdicts from the separate calls:
/// `(check name, ok)` in the audit's order, plus counters.
struct Staged {
    checks: Vec<(&'static str, bool)>,
    luts: usize,
    gates: usize,
    lint_findings: usize,
    strash_saved: usize,
}

/// Runs each certificate of one design separately, one span each under
/// a `design` span, in the order `run_audit` runs them.
fn run_staged(design: (usize, usize, Method), trace: &Trace) -> Staged {
    let (m, n, method) = design;
    let unit = unit(design);
    let pipeline = harness_pipeline();
    let root = trace.open("design", None, &unit);
    let span = |name: &str| trace.open(name, Some(root), &unit);

    let s = span("field");
    let field = field_for(m, n);
    trace.close(s);
    let s = span("mul_spec");
    let spec = multiplier_spec(&field);
    trace.close(s);
    let s = span("gen");
    let net: Netlist = method.generator().generate(&field);
    trace.close(s);
    let s = span("delay_spec");
    let depth_spec = delay_spec(&field, method);
    trace.close(s);
    let s = span("area_spec");
    let area = area_spec(&field, method);
    trace.close(s);
    let s = span("lint");
    let lint = netlist::lint_netlist(&net);
    trace.close(s);
    let s = span("formal_src");
    let formal = pipeline.verify_formal(&spec, &net).is_ok();
    trace.close(s);
    let s = span("depth");
    let depth = pipeline.verify_depth(&depth_spec, &net).is_ok();
    trace.close(s);
    let s = span("area");
    let area_ok = pipeline.verify_area(&area, &net).is_ok();
    trace.close(s);
    let s = span("strash");
    let (deduped, saved) = netlist::strash_dedup(&net);
    trace.close(s);
    let s = span("formal_src");
    let rewrite_ok = pipeline.verify_formal(&spec, &deduped).is_ok();
    trace.close(s);
    let s = span("resynth");
    let synth = pipeline.resynth(&net);
    trace.close(s);
    let s = span("map");
    let mapped = synth.and_then(|synth| pipeline.map(&synth));
    trace.close(s);
    let s = span("formal_mapped");
    let mapped_ok = mapped
        .as_ref()
        .is_ok_and(|mapped| pipeline.verify_formal_mapped(&spec, mapped).is_ok());
    trace.close(s);
    trace.close(root);

    let stats = net.stats();
    Staged {
        checks: vec![
            ("lint", !lint.has_errors()),
            ("formal", formal),
            ("depth", depth),
            ("area", area_ok),
            ("strash", saved == 0 && rewrite_ok),
            ("mapped", mapped_ok),
        ],
        luts: mapped.as_ref().map_or(0, |m| m.num_luts()),
        gates: stats.ands + stats.xors,
        lint_findings: lint.findings().len(),
        strash_saved: saved,
    }
}

/// The traced run: one untraced reference pass, then the staged pass,
/// whose verdicts and LUT counts must equal the audit's.
pub fn run_traced() -> Outcome {
    let mut out = Outcome::default();
    let trace = Trace::new();
    let t0 = Instant::now();
    let reference = audit_pass();
    let reference_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let staged: Vec<Staged> = designs()
        .into_iter()
        .map(|d| run_staged(d, &trace))
        .collect();
    let staged_wall = t0.elapsed().as_secs_f64();

    out.attempted = designs().len();
    for ((d, (report, _)), s) in designs().into_iter().zip(&reference).zip(&staged) {
        let luts = check_audit(d, report, &mut out);
        let verdicts: Vec<(&str, bool)> = report
            .cells
            .iter()
            .flat_map(|c| &c.checks)
            .map(|c| (c.check, c.ok))
            .collect();
        if verdicts != s.checks || luts != s.luts {
            out.fail(format!(
                "{}: separate certificate calls disagree with run_audit",
                unit(d)
            ));
        }
    }
    out.account(&trace, "design");
    for (metric, span) in [
        ("field.ms", "field"),
        ("gen.ms", "gen"),
        ("lint.ms", "lint"),
        ("resynth.ms", "resynth"),
        ("map.ms", "map"),
        ("mul_spec.ms", "mul_spec"),
        ("delay_spec.ms", "delay_spec"),
        ("area_spec.ms", "area_spec"),
        ("formal_src.ms", "formal_src"),
        ("formal_mapped.ms", "formal_mapped"),
        ("strash.ms", "strash"),
    ] {
        out.set(metric, trace.total_ms(span));
    }
    let checks: usize = staged.iter().map(|s| s.checks.len()).sum();
    let violations: usize = staged
        .iter()
        .map(|s| s.checks.iter().filter(|(_, ok)| !ok).count())
        .sum();
    out.set(
        "gen.gates",
        staged.iter().map(|s| s.gates).sum::<usize>() as f64,
    );
    out.set(
        "map.luts",
        staged.iter().map(|s| s.luts).sum::<usize>() as f64,
    );
    out.set(
        "lint.findings",
        staged.iter().map(|s| s.lint_findings).sum::<usize>() as f64,
    );
    out.set(
        "strash.saved",
        staged.iter().map(|s| s.strash_saved).sum::<usize>() as f64,
    );
    out.set("audit.checks", checks as f64);
    out.set("audit.violations", violations as f64);
    out.set("trace.overhead_ratio", staged_wall / reference_wall);
    out.spans_jsonl = Some(trace.to_jsonl());
    out
}
