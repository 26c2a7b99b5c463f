//! Structured report output: the `rgf2m-table5/5` JSON export of a
//! batch run and its CSV twin, plus the root members the bench
//! artifacts share, all written through the workspace's one JSON layer
//! ([`rgf2m_serve::json`]). The exports are **byte-deterministic**: for
//! the same batch rows they produce the same bytes, run over run and
//! machine over machine (fixed field order, fixed float precision, no
//! timestamps). The `validate` bin schema-checks them (see
//! [`crate::validate`]).

use rgf2m_serve::json::{report_members, Json, Obj};

use crate::batch::BatchRow;

/// Schema tag stamped into every Table V JSON export. `/5` added the
/// per-row `and_gates` / `xor_gates` area pair (the source netlist's
/// Table V `#AND`/`#XOR` claim) and the `dedup_saved` strash dividend;
/// `/4` added the per-row `and_depth` / `xor_depth` gate-depth pair
/// (the source netlist's Table V delay claim) and the STA's
/// `worst_slack_ns`; `/3` added the per-row `dup_gates` / `dead_nodes`
/// hygiene counters (from the post-mapping lint pass); `/2` added the
/// per-row `target` field. Older documents, which lack those fields,
/// no longer validate.
pub const TABLE5_SCHEMA: &str = "rgf2m-table5/5";

/// The exports' float format: four decimals.
fn fixed4(v: f64) -> Json {
    Json::fixed(v, 4)
}

/// Serializes batch rows as the `rgf2m-table5/5` JSON document.
///
/// Successful rows carry the measured quadruple plus the paper's
/// `area_time` metric, the lint pass's hygiene counters, the source
/// netlist's gate-depth and gate-count pairs (with the strash
/// `dedup_saved` dividend) and the STA's worst slack; failed rows
/// carry `"ok": false` and the error message. Every row names its
/// target fabric. Byte-identical for identical inputs.
pub fn rows_to_json(rows: &[BatchRow], base_seed: u64) -> String {
    let rows = rows.iter().map(|row| {
        let obj = Obj::new()
            .num("m", row.job.m)
            .num("n", row.job.n)
            .str("method", row.job.method.name())
            .str("citation", row.job.method.citation())
            .str("target", row.job.target.name())
            .num("seed", row.seed);
        match &row.result {
            Ok(r) => obj.bool("ok", true).extend(report_members(r, fixed4)),
            Err(e) => obj.bool("ok", false).str("error", &e.to_string()),
        }
    });
    Obj::new()
        .str("schema", TABLE5_SCHEMA)
        .num("base_seed", base_seed)
        .arr("rows", rows)
        .document()
}

/// Serializes batch rows as CSV (header + one line per job, errors in
/// the trailing column). Byte-identical for identical inputs.
pub fn rows_to_csv(rows: &[BatchRow]) -> String {
    let mut s = String::from(
        "m,n,method,citation,target,seed,ok,luts,slices,depth,time_ns,area_time,dup_gates,dead_nodes,and_depth,xor_depth,and_gates,xor_gates,dedup_saved,worst_slack_ns,error\n",
    );
    for row in rows {
        let job = &row.job;
        let mut fields = vec![
            job.m.to_string(),
            job.n.to_string(),
            job.method.name().to_string(),
            csv_field(job.method.citation()),
            job.target.name().to_string(),
            row.seed.to_string(),
        ];
        match &row.result {
            Ok(r) => {
                fields.push("true".into());
                fields.extend(report_members(r, fixed4).map(|(_, value)| value.to_string()));
                fields.push(String::new());
            }
            Err(e) => {
                // The 13 measured columns stay empty.
                fields.push("false".into());
                fields.resize(fields.len() + 13, String::new());
                fields.push(csv_field(&e.to_string()));
            }
        }
        s.push_str(&fields.join(","));
        s.push('\n');
    }
    s
}

/// The root members every bench artifact (`bench_map`, `bench_place`)
/// opens with: its schema, the wall-clock caveat, the machine's
/// parallelism and the measured field.
pub fn bench_artifact(schema: &str, m: usize, n: usize) -> Obj {
    let parallelism = std::thread::available_parallelism().map_or(1, |p| p.get());
    Obj::new()
        .str("schema", schema)
        .str(
            "note",
            "wall-clock ms; comparable only within one machine/run",
        )
        .num("available_parallelism", parallelism)
        .set("field", Obj::new().num("m", m).num("n", n))
}

/// Quotes a CSV field when it needs quoting (commas, quotes, newlines).
fn csv_field(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Job;
    use rgf2m_core::Method;
    use rgf2m_fpga::{FlowError, ImplReport, Target};

    /// Two ok rows (a full-width seed, a non-default target, awkward
    /// floats and a negative-zero slack) and one failed row whose
    /// message needs JSON escaping and CSV quoting.
    fn fixed_rows() -> Vec<BatchRow> {
        let report = |name: &str, luts: usize, time_ns: f64, worst_slack_ns: f64| ImplReport {
            name: name.into(),
            luts,
            slices: 11,
            depth: 3,
            time_ns,
            dup_gates: 1,
            dead_nodes: 2,
            worst_slack_ns,
            and_depth: 1,
            xor_depth: 5,
            and_gates: 64,
            xor_gates: 91,
            dedup_saved: 0,
        };
        vec![
            BatchRow {
                job: Job::new(8, 2, Method::MastrovitoPaar),
                seed: 11_657_511_268_527_099_060,
                result: Ok(report("mul_mastrovito_m8", 40, 10.466_512_5, 0.0)),
            },
            BatchRow {
                job: Job::on(8, 2, Method::ProposedFlat, Target::Spartan3),
                seed: 2018,
                result: Ok(report("mul_proposed_m8", 59, 1.0 / 3.0, -0.0)),
            },
            BatchRow {
                job: Job::new(16, 2, Method::Rashidi),
                seed: 7,
                result: Err(FlowError::InvalidOptions(
                    "(16, 2) is not a valid \"type II\" pentanomial,\nreducible".into(),
                )),
            },
        ]
    }

    #[test]
    fn rows_to_json_bytes_are_pinned() {
        assert_eq!(
            rows_to_json(&fixed_rows(), 2018),
            r#"{
  "schema": "rgf2m-table5/5",
  "base_seed": 2018,
  "rows": [
    {"m": 8, "n": 2, "method": "mastrovito", "citation": "[2]", "target": "artix7", "seed": 11657511268527099060, "ok": true, "luts": 40, "slices": 11, "depth": 3, "time_ns": 10.4665, "area_time": 418.6605, "dup_gates": 1, "dead_nodes": 2, "and_depth": 1, "xor_depth": 5, "and_gates": 64, "xor_gates": 91, "dedup_saved": 0, "worst_slack_ns": 0.0000},
    {"m": 8, "n": 2, "method": "proposed", "citation": "This work", "target": "spartan3", "seed": 2018, "ok": true, "luts": 59, "slices": 11, "depth": 3, "time_ns": 0.3333, "area_time": 19.6667, "dup_gates": 1, "dead_nodes": 2, "and_depth": 1, "xor_depth": 5, "and_gates": 64, "xor_gates": 91, "dedup_saved": 0, "worst_slack_ns": -0.0000},
    {"m": 16, "n": 2, "method": "rashidi", "citation": "[8]", "target": "artix7", "seed": 7, "ok": false, "error": "invalid flow options: (16, 2) is not a valid \"type II\" pentanomial,\nreducible"}
  ]
}
"#
        );
        // An empty row set keeps the rows array's bracket on its own line.
        assert_eq!(
            rows_to_json(&[], 1),
            "{\n  \"schema\": \"rgf2m-table5/5\",\n  \"base_seed\": 1,\n  \"rows\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn rows_to_csv_bytes_are_pinned() {
        assert_eq!(
            rows_to_csv(&fixed_rows()),
            r#"m,n,method,citation,target,seed,ok,luts,slices,depth,time_ns,area_time,dup_gates,dead_nodes,and_depth,xor_depth,and_gates,xor_gates,dedup_saved,worst_slack_ns,error
8,2,mastrovito,[2],artix7,11657511268527099060,true,40,11,3,10.4665,418.6605,1,2,1,5,64,91,0,0.0000,
8,2,proposed,This work,spartan3,2018,true,59,11,3,0.3333,19.6667,1,2,1,5,64,91,0,-0.0000,
16,2,rashidi,[8],artix7,7,false,,,,,,,,,,,,,,"invalid flow options: (16, 2) is not a valid ""type II"" pentanomial,
reducible"
"#
        );
    }

    #[test]
    fn csv_field_quotes_only_when_needed() {
        assert_eq!(csv_field("plain"), "plain");
        assert_eq!(csv_field("a,b"), "\"a,b\"");
        assert_eq!(csv_field("say \"hi\""), "\"say \"\"hi\"\"\"");
    }
}
