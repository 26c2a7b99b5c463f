//! `flow-163` and `flow-571`: Table V designs through the whole
//! implementation flow (resynth → map → lint → verify → pack → place →
//! STA) on artix7.
//!
//! The untraced pass runs each design the way `BatchRunner` runs a job
//! — a config-only clone of the harness pipeline, re-seeded with
//! `job_seed_from(seed, i)`, then `run_report` — and times each job.
//! The traced pass drives the same designs stage by stage through
//! `Pipeline`'s public methods and must produce equal reports.

use std::collections::BTreeMap;
use std::time::Instant;

use gf2m::Field;
use netlist::Netlist;
use rgf2m_bench::{field_for, harness_pipeline, job_seed_from};
use rgf2m_core::{multiplier_spec, Method};
use rgf2m_fpga::place::place_with_stats;
use rgf2m_fpga::{lint_mapped, FlowError, ImplReport, Pipeline};

use crate::common::{
    median, peak_rss_mb, percentile, report_metrics, timed_passes, Outcome, SetupTimer,
};
use crate::trace::Trace;

/// One flow workload: every listed method over every listed field.
#[derive(Debug, Clone)]
pub struct FlowWorkload {
    /// Table V `(m, n)` pairs.
    pub fields: Vec<(usize, usize)>,
    /// Methods, in the paper's row order.
    pub methods: Vec<Method>,
}

impl FlowWorkload {
    /// The paper's largest Table V field, all six methods, NIST B-163 sized.
    pub fn flow_163() -> FlowWorkload {
        FlowWorkload {
            fields: vec![(163, 68)],
            methods: Method::ALL.to_vec(),
        }
    }

    /// NIST's largest degree, the paper's method.
    pub fn flow_571() -> FlowWorkload {
        FlowWorkload {
            fields: vec![(571, 103)],
            methods: vec![Method::ProposedFlat],
        }
    }

    /// The designs in job order with their placement seeds.
    pub fn jobs(&self, seed: u64) -> Vec<Job> {
        self.fields
            .iter()
            .flat_map(|&(m, n)| self.methods.iter().map(move |&method| (m, n, method)))
            .enumerate()
            .map(|(index, (m, n, method))| Job {
                index,
                m,
                n,
                method,
                seed: job_seed_from(seed, index),
            })
            .collect()
    }
}

/// One design of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Job {
    /// Position in the workload (the `job_seed_from` index).
    pub index: usize,
    /// Extension degree.
    pub m: usize,
    /// Pentanomial offset.
    pub n: usize,
    /// Table V method.
    pub method: Method,
    /// Placement seed.
    pub seed: u64,
}

impl Job {
    fn unit(&self) -> String {
        format!("{}:{}:{}", self.index, self.m, self.method.name())
    }
}

/// What set-up builds: the fields and the pipeline template.
pub struct Setup {
    fields: BTreeMap<(usize, usize), Field>,
    template: Pipeline,
}

impl Setup {
    /// Builds every field of the workload and the harness pipeline.
    pub fn build(w: &FlowWorkload) -> Setup {
        Setup {
            fields: w
                .fields
                .iter()
                .map(|&(m, n)| ((m, n), field_for(m, n)))
                .collect(),
            template: harness_pipeline(),
        }
    }

    fn field(&self, job: &Job) -> &Field {
        &self.fields[&(job.m, job.n)]
    }

    fn pipeline(&self, job: &Job) -> Pipeline {
        self.template.clone_config().with_place_seed(job.seed)
    }
}

/// One finished job of the untraced pass.
pub struct Done {
    job: Job,
    net: Netlist,
    pipeline: Pipeline,
    /// The flow's outcome.
    pub result: Result<ImplReport, FlowError>,
    secs: f64,
}

/// Runs one job as `BatchRunner` does: generate, then `run_report`
/// through a re-seeded config clone of the template.
pub fn run_job(setup: &Setup, job: Job) -> Done {
    let t0 = Instant::now();
    let net = job.method.generator().generate(setup.field(&job));
    let pipeline = setup.pipeline(&job);
    let result = pipeline.run_report(&net);
    Done {
        job,
        net,
        pipeline,
        result,
        secs: t0.elapsed().as_secs_f64(),
    }
}

fn run_pass(setup: &Setup, jobs: &[Job]) -> Vec<Done> {
    jobs.iter().map(|&job| run_job(setup, job)).collect()
}

/// The correctness checks, outside the timed phase: each mapped
/// netlist is proved equal to the closed-form `multiplier_spec`, the
/// cached artifacts agree with the report, and the five antidiagonal
/// methods spend exactly m² ANDs.
fn check(done: &[Done], setup: &Setup, out: &mut Outcome) {
    let mut specs = BTreeMap::new();
    for d in done {
        let report = match &d.result {
            Ok(r) => r,
            Err(e) => {
                out.fail(format!("{}: flow failed: {e}", d.job.unit()));
                continue;
            }
        };
        let spec = specs
            .entry((d.job.m, d.job.n))
            .or_insert_with(|| multiplier_spec(setup.field(&d.job)));
        let verdict = d.pipeline.run(&d.net).and_then(|art| {
            if art.report != *report {
                return Err(FlowError::InvalidOptions(
                    "cached artifacts disagree with the report".into(),
                ));
            }
            d.pipeline.verify_formal_mapped(spec, &art.mapped)
        });
        if let Err(e) = verdict {
            out.fail(format!("{}: {e}", d.job.unit()));
        } else if d.job.method != Method::MastrovitoPaar && report.and_gates != d.job.m * d.job.m {
            out.fail(format!(
                "{}: {} ANDs, expected m² = {}",
                d.job.unit(),
                report.and_gates,
                d.job.m * d.job.m
            ));
        }
    }
}

fn reports(done: &[Done]) -> Vec<ImplReport> {
    done.iter()
        .filter_map(|d| d.result.as_ref().ok().cloned())
        .collect()
}

/// The untraced run: `seconds` of passes, then the checks.
pub fn run(w: &FlowWorkload, seed: u64, seconds: f64) -> Outcome {
    let mut out = Outcome::default();
    let setup = Setup::build(w);
    let mut timer = SetupTimer::default();
    let jobs = w.jobs(seed);
    let mut latencies = Vec::new();
    let mut pass_reports: Vec<Vec<Option<ImplReport>>> = Vec::new();
    let (walls, last) = timer.during(
        || Setup::build(w),
        || {
            timed_passes(seconds, || {
                let done = run_pass(&setup, &jobs);
                latencies.extend(done.iter().map(|d| d.secs * 1e3));
                pass_reports.push(
                    done.iter()
                        .map(|d| d.result.as_ref().ok().cloned())
                        .collect(),
                );
                done
            })
        },
    );
    let rss = peak_rss_mb();
    out.attempted = jobs.len() * walls.len();
    check(&last, &setup, &mut out);
    // Every pass must reproduce the last one bit for bit.
    let final_reports = pass_reports.last().cloned().unwrap_or_default();
    for (p, reps) in pass_reports.iter().enumerate() {
        if *reps != final_reports {
            out.fail(format!("pass {p} reports differ from the last pass"));
        }
    }
    out.set("setup_s", timer.median_s());
    out.set("wall_s", median(&walls));
    out.set("op_ms_p50", median(&latencies));
    out.set("op_ms_p95", percentile(&latencies, 0.95));
    out.set("peak_rss_mb", rss);
    report_metrics(&reports(&last), &mut out, false);
    out
}

/// Counters the staged pass reads off each stage's output.
#[derive(Debug, Default, Clone)]
struct StageCounts {
    gen_gates: usize,
    resynth_gates: usize,
    luts: usize,
    depth: u32,
    lint_findings: usize,
    slices: usize,
    proposals: usize,
    accepted: usize,
    hpwl_final: f64,
    endpoints: usize,
    strash_saved: usize,
}

/// Drives one design stage by stage through `Pipeline`'s public
/// methods, one span per stage under a `design` span, and rebuilds the
/// report `run_report` would give.
fn run_staged(
    setup: &Setup,
    job: Job,
    trace: &Trace,
) -> Result<(ImplReport, StageCounts), FlowError> {
    let unit = job.unit();
    let field = setup.field(&job);
    let pipeline = setup.pipeline(&job);
    let root = trace.open("design", None, &unit);
    let sp = |name: &str| trace.open(name, Some(root), &unit);
    let staged = (|| -> Result<_, FlowError> {
        let s = sp("gen");
        let net = job.method.generator().generate(field);
        trace.close(s);
        let s = sp("resynth");
        let synth = pipeline.resynth(&net)?;
        trace.close(s);
        let s = sp("map");
        let mapped = pipeline.map(&synth)?;
        trace.close(s);
        let s = sp("lint");
        let lint = lint_mapped(&mapped);
        trace.close(s);
        if let Some(first) = lint.first_error() {
            return Err(FlowError::LintErrors {
                design: net.name().to_string(),
                errors: lint.errors(),
                first: first.to_string(),
            });
        }
        let s = sp("verify");
        pipeline.verify(&net, &mapped)?;
        trace.close(s);
        let s = sp("pack");
        let packing = pipeline.pack(&mapped)?;
        trace.close(s);
        let s = sp("place");
        let (placement, place_stats) =
            place_with_stats(&mapped, &packing, pipeline.place_options());
        trace.close(s);
        let s = sp("sta");
        let timing = pipeline.time(&mapped, &packing, &placement);
        trace.close(s);
        let s = sp("report");
        let gate_depth =
            netlist::output_depths(&net)
                .into_iter()
                .fold(netlist::Depth::default(), |w, d| netlist::Depth {
                    ands: w.ands.max(d.ands),
                    xors: w.xors.max(d.xors),
                });
        let gate_stats = net.stats();
        trace.close(s);
        let s = sp("strash");
        let (_, dedup_saved) = netlist::strash_dedup(&net);
        trace.close(s);
        let report = ImplReport {
            name: net.name().to_string(),
            luts: mapped.num_luts(),
            slices: packing.num_slices(),
            depth: mapped.depth(),
            time_ns: timing.critical_ns,
            dup_gates: lint.duplicate_gates(),
            dead_nodes: lint.dead_nodes(),
            worst_slack_ns: timing.worst_slack_ns,
            and_depth: gate_depth.ands,
            xor_depth: gate_depth.xors,
            and_gates: gate_stats.ands,
            xor_gates: gate_stats.xors,
            dedup_saved,
        };
        Ok((
            report,
            net,
            synth,
            mapped,
            lint,
            packing,
            place_stats,
            timing,
        ))
    })();
    trace.close(root);
    let (report, net, synth, mapped, lint, packing, place_stats, timing) = staged?;
    let synth_stats = synth.stats();
    let counts = StageCounts {
        gen_gates: report.and_gates + report.xor_gates,
        resynth_gates: synth_stats.ands + synth_stats.xors,
        luts: mapped.num_luts(),
        depth: mapped.depth(),
        lint_findings: lint.findings().len(),
        slices: packing.num_slices(),
        proposals: place_stats.proposals,
        accepted: place_stats.accepted,
        hpwl_final: place_stats.final_hpwl,
        endpoints: timing.slack_ns.len() + timing.output_slack_ns.len(),
        strash_saved: report.dedup_saved,
    };
    drop(net);
    Ok((report, counts))
}

/// The traced run: one untraced reference pass, then one staged pass
/// under spans whose reports must equal the reference's; per-layer
/// metrics come from the spans and stage outputs.
pub fn run_traced(w: &FlowWorkload, seed: u64) -> Outcome {
    let mut out = Outcome::default();
    let setup = Setup::build(w);
    let jobs = w.jobs(seed);
    let trace = Trace::new();
    for &(m, n) in &w.fields {
        trace.span("field", None, &format!("{m}:{n}"), || drop(field_for(m, n)));
    }

    let t0 = Instant::now();
    let reference = run_pass(&setup, &jobs);
    let reference_wall = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let staged: Vec<_> = jobs
        .iter()
        .map(|&job| run_staged(&setup, job, &trace))
        .collect();
    let staged_wall = t0.elapsed().as_secs_f64();

    out.attempted = jobs.len();
    check(&reference, &setup, &mut out);
    let mut counts = Vec::new();
    for (d, s) in reference.iter().zip(&staged) {
        match (&d.result, s) {
            (Ok(r), Ok((staged_report, c))) if r == staged_report => counts.push(c.clone()),
            (Ok(_), Ok(_)) => out.fail(format!(
                "{}: staged report differs from run_report",
                d.job.unit()
            )),
            (_, Err(e)) => out.fail(format!("{}: staged flow failed: {e}", d.job.unit())),
            (Err(_), Ok(_)) => {} // already counted by `check`
        }
    }
    out.account(&trace, "design");

    let sum = |f: fn(&StageCounts) -> f64| counts.iter().map(f).sum::<f64>();
    for (metric, span) in [
        ("field.ms", "field"),
        ("gen.ms", "gen"),
        ("resynth.ms", "resynth"),
        ("map.ms", "map"),
        ("lint.ms", "lint"),
        ("verify.ms", "verify"),
        ("pack.ms", "pack"),
        ("place.ms", "place"),
        ("sta.ms", "sta"),
        ("strash.ms", "strash"),
    ] {
        out.set(metric, trace.total_ms(span));
    }
    let luts_per_slice = setup.template.device().luts_per_slice as f64;
    let (luts, slices) = (sum(|c| c.luts as f64), sum(|c| c.slices as f64));
    let (proposals, accepted) = (sum(|c| c.proposals as f64), sum(|c| c.accepted as f64));
    out.set("gen.gates", sum(|c| c.gen_gates as f64));
    out.set("resynth.gates_out", sum(|c| c.resynth_gates as f64));
    out.set("map.luts", luts);
    out.set(
        "map.depth",
        counts.iter().map(|c| c.depth).max().unwrap_or(0) as f64,
    );
    out.set("lint.findings", sum(|c| c.lint_findings as f64));
    out.set("pack.slices", slices);
    out.set("pack.fill", luts / (slices * luts_per_slice));
    out.set("place.proposals", proposals);
    out.set("place.accepted", accepted);
    out.set("place.accept_ratio", accepted / proposals);
    out.set("place.hpwl_final", sum(|c| c.hpwl_final));
    out.set("sta.endpoints", sum(|c| c.endpoints as f64));
    out.set("strash.saved", sum(|c| c.strash_saved as f64));
    out.set("trace.overhead_ratio", staged_wall / reference_wall);
    report_metrics(&reports(&reference), &mut out, true);
    out.spans_jsonl = Some(trace.to_jsonl());
    out
}
