//! The rgf2m benchmark: four workloads over the Table V generator, the
//! static certificates, the implementation flow and the serving daemon,
//! measured end to end with tracing off and layer by layer in a
//! separate traced run. See `perfbench/README.md`.

pub mod certify;
pub mod common;
pub mod flows;
pub mod serve_tcp;
pub mod trace;

use common::{Outcome, END_TO_END, PER_LAYER};

/// The workload names, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 4] = ["flow-163", "flow-571", "certify", "serve-tcp"];

/// Runs one workload; `None` for an unknown name.
pub fn run_workload(name: &str, seed: u64, seconds: f64, traced: bool) -> Option<Outcome> {
    use flows::FlowWorkload;
    Some(match (name, traced) {
        ("flow-163", false) => flows::run(&FlowWorkload::flow_163(), seed, seconds),
        ("flow-163", true) => flows::run_traced(&FlowWorkload::flow_163(), seed),
        ("flow-571", false) => flows::run(&FlowWorkload::flow_571(), seed, seconds),
        ("flow-571", true) => flows::run_traced(&FlowWorkload::flow_571(), seed),
        ("certify", false) => certify::run(seconds),
        ("certify", true) => certify::run_traced(),
        ("serve-tcp", false) => serve_tcp::run(seed, seconds),
        ("serve-tcp", true) => serve_tcp::run_traced(seed),
        _ => return None,
    })
}

/// The metrics a run reports, in table order: the end-to-end ones with
/// tracing off, the per-layer ones with it on (`0` for a layer the
/// workload does not run). `Err` names an end-to-end metric the run
/// could not measure.
pub fn reported(
    outcome: &Outcome,
    traced: bool,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let table: &[(&str, &str)] = if traced { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| match outcome.metrics.get(name) {
            Some(v) if v.is_finite() => Ok((name, *v, unit)),
            _ if traced => Ok((name, 0.0, unit)),
            _ => Err(format!("end-to-end metric {name} was not measured")),
        })
        .collect()
}

/// The result line: one JSON object with `correct`, `attempted`,
/// `failed` and `metrics`.
pub fn result_line(outcome: &Outcome, correct: bool, metrics: &[(&str, f64, &str)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted,
        outcome.failed,
        body.join(", ")
    )
}
