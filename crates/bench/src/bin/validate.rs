//! Schema-validates one JSON document, dispatching on its `"schema"`
//! tag: `rgf2m-table5/5` (`table5 --json` / `crosstarget --json`),
//! `rgf2m-audit/1` (`audit --json`), `rgf2m-bench-map/1` (`bench_map`)
//! or `rgf2m-bench-place/3` (`bench_place`). The checks are listed in
//! `rgf2m_bench::validate`.
//!
//! Usage:
//!   validate PATH    # exit 0 and print a summary, or exit 1
//!
//! CI runs it on every freshly emitted document and on the committed
//! `AUDIT_sample.json`, `BENCH_map.json` and `BENCH_place.json`, so no
//! machine-readable artifact can silently rot.

use rgf2m_bench::validate_json;

fn main() {
    let Some(path) = std::env::args().nth(1) else {
        eprintln!("usage: validate PATH");
        std::process::exit(2);
    };
    let verdict = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read: {e}"))
        .and_then(|text| validate_json(&text));
    match verdict {
        Ok(summary) => println!("{path}: OK — {summary}"),
        Err(e) => {
            eprintln!("{path}: INVALID — {e}");
            std::process::exit(1);
        }
    }
}
