//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Prints every metric by name with its unit, then, as the last line,
//! one JSON object: `{"correct", "attempted", "failed", "metrics"}`.
//! Exits 1 on any correctness mismatch, 2 on bad arguments.

use std::process::ExitCode;

use rgf2m_perfbench::{reported, result_line, run_workload, WORKLOADS};

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |key: &str| -> Result<&str, String> {
        args.iter()
            .position(|a| a == key)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
            .ok_or(format!("missing {key}"))
    };
    let workload = value("--workload")?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?}"
        ));
    }
    let seed = value("--seed")?
        .parse()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = value("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds.is_finite() && seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    let trace = match value("--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not {other:?}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            return ExitCode::from(2);
        }
    };
    let outcome = run_workload(&args.workload, args.seed, args.seconds, args.trace)
        .expect("workload name checked");
    for why in &outcome.mismatches {
        eprintln!("perfbench: MISMATCH {why}");
    }
    if let Some(spans) = &outcome.spans_jsonl {
        let path = format!(".bench_out/spans-{}-seed{}.jsonl", args.workload, args.seed);
        match std::fs::create_dir_all(".bench_out").and_then(|()| std::fs::write(&path, spans)) {
            Ok(()) => println!("spans: {path}"),
            Err(e) => eprintln!("perfbench: could not write {path}: {e}"),
        }
    }
    let (metrics, missing) = match reported(&outcome, args.trace) {
        Ok(m) => (m, None),
        Err(e) => (Vec::new(), Some(e)),
    };
    let correct = outcome.failed == 0 && missing.is_none();
    println!(
        "workload {} seed {} trace {}: attempted {}, failed {}, fail_ratio {} ratio",
        args.workload,
        args.seed,
        u8::from(args.trace),
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    for (name, value, unit) in &metrics {
        println!("  {name:<28} {value:>16.6} {unit}");
    }
    if let Some(e) = missing {
        eprintln!("perfbench: {e}");
    }
    println!("{}", result_line(&outcome, correct, &metrics));
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
