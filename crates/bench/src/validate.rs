//! Schema validation for the JSON documents the workspace emits and
//! commits, dispatched on each document's `"schema"` tag: the Table V
//! export (`rgf2m-table5/5`), the audit certificate (`rgf2m-audit/1`)
//! and the mapper and placer bench artifacts (`rgf2m-bench-map/1`,
//! `rgf2m-bench-place/3`). The `validate` bin runs [`validate_json`]
//! on a file.
//!
//! Members are read through the typed accessors of [`JsonValue`]
//! (`str_field`, `num_field`, ...) and numeric members are checked by
//! one rule per group of keys, so a missing, mistyped or
//! out-of-range member is a one-line error naming it. Errors inside an
//! array element are prefixed with the element (`row 3: ...`).

use rgf2m_core::Method;
use rgf2m_fpga::Target;
use rgf2m_serve::json::{parse_json, JsonValue};

use crate::audit::{AUDIT_SCHEMA, CHECK_NAMES};
use crate::report::TABLE5_SCHEMA;

/// Schema tag of the `bench_map` mapper-performance artifact.
pub const BENCH_MAP_SCHEMA: &str = "rgf2m-bench-map/1";

/// Schema tag of the `bench_place` placer-performance artifact.
pub const BENCH_PLACE_SCHEMA: &str = "rgf2m-bench-place/3";

/// Validates a Table V export, an audit certificate or a bench
/// artifact, chosen by its `"schema"` tag. Returns a short
/// human-readable summary on success.
pub fn validate_json(text: &str) -> Result<String, String> {
    let doc = parse_json(text)?;
    match doc.str_field("schema")? {
        TABLE5_SCHEMA => table5(&doc),
        AUDIT_SCHEMA => audit(&doc),
        BENCH_MAP_SCHEMA => bench_map(&doc),
        BENCH_PLACE_SCHEMA => bench_place(&doc),
        other => Err(format!(
            "schema {other:?} is none of {TABLE5_SCHEMA:?}, {AUDIT_SCHEMA:?}, \
             {BENCH_MAP_SCHEMA:?}, {BENCH_PLACE_SCHEMA:?}"
        )),
    }
}

/// A constraint on numeric members.
#[derive(Debug, Clone, Copy)]
enum Rule {
    Positive,
    NonNegative,
    PositiveInteger,
}

/// Reads the numeric members `keys` of `obj`, each held to `rule`.
fn check<const N: usize>(obj: &JsonValue, rule: Rule, keys: [&str; N]) -> Result<[f64; N], String> {
    let mut values = [0.0; N];
    for (value, key) in values.iter_mut().zip(keys) {
        let v = obj.num_field(key)?;
        let broken = match rule {
            Rule::Positive => (v <= 0.0).then_some("is not positive"),
            Rule::NonNegative => (v < 0.0).then_some("is negative"),
            Rule::PositiveInteger => {
                (v <= 0.0 || v.fract() != 0.0).then_some("is not a positive integer")
            }
        };
        if let Some(broken) = broken {
            return Err(format!("{key} = {v} {broken}"));
        }
        *value = v;
    }
    Ok(values)
}

/// Required non-empty array member `key`.
fn nonempty<'a>(obj: &'a JsonValue, key: &str) -> Result<&'a [JsonValue], String> {
    let items = obj.array_field(key)?;
    if items.is_empty() {
        return Err(format!("empty \"{key}\""));
    }
    Ok(items)
}

/// Runs `f` on member `key` of `obj`, prefixing its errors with `key`.
fn within<T>(
    obj: &JsonValue,
    key: &str,
    f: impl FnOnce(&JsonValue) -> Result<T, String>,
) -> Result<T, String> {
    f(obj.field(key)?).map_err(|e| format!("{key}: {e}"))
}

/// Checks `obj`'s `citation` against `method` and its `target` against
/// the registry; returns the target name.
fn citation_and_target(obj: &JsonValue, method: Method) -> Result<&str, String> {
    let citation = obj.str_field("citation")?;
    if citation != method.citation() {
        return Err(format!(
            "citation {citation:?}, expected {:?}",
            method.citation()
        ));
    }
    let target = obj.str_field("target")?;
    if Target::from_name(target).is_none() {
        return Err(format!("unknown target {target:?}"));
    }
    Ok(target)
}

/// `rgf2m-table5/5`: non-empty whole six-method blocks in the paper's
/// row order, each on one registered fabric, every row `ok` with a
/// positive measured quadruple and Table V depth and area pairs,
/// non-negative hygiene counters and strash dividend, and a worst
/// slack that is not meaningfully negative.
fn table5(doc: &JsonValue) -> Result<String, String> {
    let rows = nonempty(doc, "rows")?;
    let block = Method::ALL.len();
    if rows.len() % block != 0 {
        return Err(format!(
            "{} rows is not a whole number of {block}-method blocks",
            rows.len()
        ));
    }
    let mut targets_seen: Vec<&str> = Vec::new();
    let mut block_target = "";
    for (i, row) in rows.iter().enumerate() {
        let target =
            table5_row(row, Method::ALL[i % block]).map_err(|e| format!("row {i}: {e}"))?;
        if i % block == 0 {
            block_target = target;
        } else if target != block_target {
            return Err(format!(
                "row {i}: target {target:?} differs from its block's {block_target:?}"
            ));
        }
        if !targets_seen.contains(&target) {
            targets_seen.push(target);
        }
    }
    Ok(format!(
        "{} rows in {} six-method block(s) over {} target(s), all ok, paper row order respected",
        rows.len(),
        rows.len() / block,
        targets_seen.len()
    ))
}

/// One Table V row, expected to be `method`'s; returns its target.
fn table5_row(row: &JsonValue, method: Method) -> Result<&str, String> {
    let name = row.str_field("method")?;
    if name != method.name() {
        return Err(format!(
            "method {name:?} breaks the paper row order (expected {:?})",
            method.name()
        ));
    }
    let target = citation_and_target(row, method)?;
    if row.get("ok").and_then(JsonValue::as_bool) != Some(true) {
        let err = row.get("error").and_then(JsonValue::as_str);
        return Err(format!("not ok: {}", err.unwrap_or("<no error recorded>")));
    }
    // A bit-parallel multiplier is one AND level of partial products
    // feeding XOR trees, so its gate depths and counts are positive.
    check(
        row,
        Rule::Positive,
        [
            "luts",
            "slices",
            "depth",
            "time_ns",
            "area_time",
            "and_depth",
            "xor_depth",
            "and_gates",
            "xor_gates",
        ],
    )?;
    // Hygiene counters and the strash dividend are usually zero.
    check(
        row,
        Rule::NonNegative,
        ["dup_gates", "dead_nodes", "dedup_saved"],
    )?;
    // The STA's default target is the critical delay itself: slack
    // below float noise means its arrival and required passes disagree.
    let slack = row.num_field("worst_slack_ns")?;
    if slack < -1e-6 {
        return Err(format!("worst_slack_ns = {slack} is negative"));
    }
    Ok(target)
}

/// `rgf2m-audit/1`: a positive field shape and a non-empty cell grid
/// where every cell names a registered method (with its citation) and
/// target, carries the canonical check set in order, and has `ok`
/// consistent with its checks; `violations` counts the failed checks.
fn audit(doc: &JsonValue) -> Result<String, String> {
    check(doc, Rule::PositiveInteger, ["m", "n"])?;
    let cells = nonempty(doc, "cells")?;
    let mut failed = 0;
    for (i, cell) in cells.iter().enumerate() {
        failed += audit_cell(cell).map_err(|e| format!("cell {i}: {e}"))?;
    }
    let violations = doc.num_field("violations")?;
    if violations != failed as f64 {
        return Err(format!(
            "violations = {violations} but the cells carry {failed} failed check(s)"
        ));
    }
    Ok(format!(
        "{} cell(s), {} check(s) each, {failed} violation(s)",
        cells.len(),
        CHECK_NAMES.len()
    ))
}

/// One audit cell; returns its number of failed checks.
fn audit_cell(cell: &JsonValue) -> Result<usize, String> {
    let name = cell.str_field("method")?;
    let method = Method::from_name(name).ok_or_else(|| format!("unknown method {name:?}"))?;
    citation_and_target(cell, method)?;
    let cell_ok = cell.bool_field("ok")?;
    let checks = cell.array_field("checks")?;
    if checks.len() != CHECK_NAMES.len() {
        return Err(format!(
            "{} check(s), expected the canonical {}",
            checks.len(),
            CHECK_NAMES.len()
        ));
    }
    let mut failed = 0;
    for (j, (c, expected)) in checks.iter().zip(CHECK_NAMES).enumerate() {
        let at = |e: String| format!("check {j}: {e}");
        let got = c.str_field("check").map_err(at)?;
        if got != expected {
            return Err(at(format!(
                "{got:?} out of canonical order (expected {expected:?})"
            )));
        }
        c.str_field("detail").map_err(at)?;
        if !c.bool_field("ok").map_err(at)? {
            failed += 1;
        }
    }
    if cell_ok != (failed == 0) {
        return Err(format!(
            "ok = {cell_ok} contradicts its {failed} failed check(s)"
        ));
    }
    Ok(failed)
}

/// Checks a bench artifact's positive `field` shape and its non-empty
/// `targets` sweep of distinct registered fabrics, running `entry` on
/// each; returns the fabric names.
fn sweep(
    doc: &JsonValue,
    entry: impl Fn(&JsonValue, Target) -> Result<(), String>,
) -> Result<Vec<&str>, String> {
    within(doc, "field", |f| check(f, Rule::Positive, ["m", "n"]))?;
    let targets = nonempty(doc, "targets")?;
    let mut seen: Vec<&str> = Vec::new();
    for (i, t) in targets.iter().enumerate() {
        let at = |e: String| format!("target {i}: {e}");
        let name = t.str_field("target").map_err(at)?;
        let fabric =
            Target::from_name(name).ok_or_else(|| at(format!("unknown target {name:?}")))?;
        if seen.contains(&name) {
            return Err(at(format!("duplicate target {name:?}")));
        }
        seen.push(name);
        entry(t, fabric).map_err(at)?;
    }
    Ok(seen)
}

/// Checks that `best_wall_<unit>` and `mean_wall_<unit>` are positive
/// and best ≤ mean. Both are printed at 0.1 precision, so one rounding
/// step of slack is allowed.
fn best_le_mean(obj: &JsonValue, unit: &str) -> Result<(), String> {
    let (b, m) = (format!("best_wall_{unit}"), format!("mean_wall_{unit}"));
    let [best, mean] = check(obj, Rule::Positive, [b.as_str(), m.as_str()])?;
    if best > mean + 0.051 {
        return Err(format!("{b} = {best} exceeds {m} = {mean}"));
    }
    Ok(())
}

/// `rgf2m-bench-map/1`: per target, the mapping options actually used
/// (`k` is the fabric's LUT width), a positive design shape, and
/// best/mean wall times consistent with the per-rep list.
fn bench_map(doc: &JsonValue) -> Result<String, String> {
    let names = sweep(doc, |entry, fabric| {
        let [k] = within(entry, "map_options", |opts| {
            check(opts, Rule::PositiveInteger, ["cuts_per_node"])?;
            check(opts, Rule::Positive, ["k"])
        })?;
        if k != fabric.lut_inputs() as f64 {
            return Err(format!(
                "k = {k} does not match {}'s LUT width {}",
                fabric.name(),
                fabric.lut_inputs()
            ));
        }
        within(entry, "design", |d| {
            check(d, Rule::Positive, ["resynth_gates", "luts", "depth"])
        })?;
        let reps = nonempty(entry, "rep_wall_ms")?;
        let mut min = f64::INFINITY;
        for (j, rep) in reps.iter().enumerate() {
            match rep.as_f64() {
                Some(v) if v > 0.0 => min = min.min(v),
                _ => {
                    return Err(format!(
                        "rep_wall_ms[{j}] = {rep:?} is not a positive number"
                    ))
                }
            }
        }
        let [best] = check(entry, Rule::Positive, ["best_wall_ms"])?;
        if (best - min).abs() > 0.051 {
            return Err(format!(
                "best_wall_ms = {best} is not the minimum rep ({min})"
            ));
        }
        best_le_mean(entry, "ms")?;
        if entry.get("pre_refactor_baseline").is_some() {
            within(entry, "pre_refactor_baseline", |b| best_le_mean(b, "ms"))?;
        }
        Ok(())
    })?;
    Ok(format!(
        "{} target(s) ({}), best/mean consistent with per-rep wall times",
        names.len(),
        names.join(", ")
    ))
}

/// Checks `ns_per_proposal` against `best_wall_us / proposals`. Both
/// printed values are rounded to 0.1, so the slack is half a step of
/// each; returns `ns_per_proposal`.
fn per_proposal(obj: &JsonValue) -> Result<f64, String> {
    let [proposals] = check(obj, Rule::PositiveInteger, ["proposals"])?;
    let [best_us, ns] = check(obj, Rule::Positive, ["best_wall_us", "ns_per_proposal"])?;
    let expected = best_us * 1e3 / proposals;
    if (ns - expected).abs() > 0.05 + 50.0 / proposals + 1e-9 {
        return Err(format!(
            "ns_per_proposal = {ns}, but best_wall_us / proposals = {expected:.3} ns"
        ));
    }
    Ok(ns)
}

/// `rgf2m-bench-place/3`: the small-grid probe (positive shapes,
/// best ≤ mean, a consistent `ns_per_proposal`) and, per target, the
/// fabric's design shape and one or more runs with positive counters
/// and best ≤ mean wall time.
fn bench_place(doc: &JsonValue) -> Result<String, String> {
    within(doc, "place_options", |p| {
        check(
            p,
            Rule::PositiveInteger,
            ["moves_factor", "max_total_moves"],
        )
    })?;
    let ns = within(doc, "small_grid", |g| {
        within(g, "field", |f| check(f, Rule::Positive, ["m", "n"]))?;
        within(g, "design", |d| {
            check(d, Rule::Positive, ["luts", "slices"])
        })?;
        let target = g.str_field("target")?;
        Target::from_name(target).ok_or_else(|| format!("unknown target {target:?}"))?;
        check(g, Rule::PositiveInteger, ["reps"])?;
        best_le_mean(g, "us")?;
        if g.get("pre_pr2_baseline").is_some() {
            within(g, "pre_pr2_baseline", per_proposal)?;
        }
        per_proposal(g)
    })?;
    let names = sweep(doc, |entry, fabric| {
        let [k, per_slice] = within(entry, "design", |d| {
            check(d, Rule::Positive, ["luts", "slices"])?;
            check(d, Rule::PositiveInteger, ["k", "luts_per_slice"])
        })?;
        if (k, per_slice) != (fabric.lut_inputs() as f64, fabric.luts_per_slice() as f64) {
            return Err(format!(
                "design k = {k}, luts_per_slice = {per_slice} do not match {}'s ({}, {})",
                fabric.name(),
                fabric.lut_inputs(),
                fabric.luts_per_slice()
            ));
        }
        let runs = nonempty(entry, "runs")?;
        for (j, run) in runs.iter().enumerate() {
            let at = |e: String| format!("run {j}: {e}");
            check(run, Rule::PositiveInteger, ["threads", "proposals"]).map_err(at)?;
            check(run, Rule::NonNegative, ["accepted"]).map_err(at)?;
            check(run, Rule::Positive, ["initial_hpwl", "final_hpwl"]).map_err(at)?;
            best_le_mean(run, "ms").map_err(at)?;
            run.array_field("trajectory").map_err(at)?;
        }
        Ok(())
    })?;
    Ok(format!(
        "small grid at {ns} ns/proposal; {} target(s) ({}), best <= mean wall time",
        names.len(),
        names.join(", ")
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rgf2m_serve::json::json_string;

    #[test]
    fn table5_validator_rejects_broken_documents() {
        assert!(validate_json("{}").is_err());
        assert!(validate_json(r#"{"schema": "other", "rows": []}"#).is_err());
        // Previous schema revisions are rejected by tag.
        assert!(validate_json(r#"{"schema": "rgf2m-table5/1", "rows": []}"#).is_err());
        assert!(validate_json(r#"{"schema": "rgf2m-table5/2", "rows": []}"#).is_err());
        assert!(validate_json(r#"{"schema": "rgf2m-table5/3", "rows": []}"#).is_err());
        assert!(validate_json(r#"{"schema": "rgf2m-table5/4", "rows": []}"#).is_err());
        let empty = format!(r#"{{"schema": "{TABLE5_SCHEMA}", "rows": []}}"#);
        assert!(validate_json(&empty).is_err());
        // `/3` requires the hygiene counters on every ok row.
        let no_hygiene =
            block_doc(|_| "artix7").replace(", \"dup_gates\": 0, \"dead_nodes\": 0", "");
        assert!(validate_json(&no_hygiene)
            .unwrap_err()
            .contains("dup_gates"));
        // `/4` requires the gate-depth pair and the worst slack.
        let no_depth = block_doc(|_| "artix7").replace(", \"and_depth\": 1", "");
        assert!(validate_json(&no_depth).unwrap_err().contains("and_depth"));
        let no_slack = block_doc(|_| "artix7").replace(", \"worst_slack_ns\": 0.0000", "");
        assert!(validate_json(&no_slack)
            .unwrap_err()
            .contains("worst_slack_ns"));
        // `/5` requires the gate-count pair and the strash dividend.
        let no_area = block_doc(|_| "artix7").replace(", \"and_gates\": 64", "");
        assert!(validate_json(&no_area).unwrap_err().contains("and_gates"));
        let no_saved = block_doc(|_| "artix7").replace(", \"dedup_saved\": 0", "");
        assert!(validate_json(&no_saved)
            .unwrap_err()
            .contains("dedup_saved"));
        let zero_area = block_doc(|_| "artix7").replace("\"xor_gates\": 84", "\"xor_gates\": 0");
        assert!(validate_json(&zero_area)
            .unwrap_err()
            .contains("not positive"));
        // A meaningfully negative slack means the STA is inconsistent.
        let bad_slack = block_doc(|_| "artix7")
            .replace("\"worst_slack_ns\": 0.0000", "\"worst_slack_ns\": -0.5");
        assert!(validate_json(&bad_slack).unwrap_err().contains("negative"));
        // Float-noise-level negatives are tolerated.
        let noise_slack = block_doc(|_| "artix7").replace(
            "\"worst_slack_ns\": 0.0000",
            "\"worst_slack_ns\": -0.0000001",
        );
        assert!(validate_json(&noise_slack).is_ok());
    }

    /// A minimal valid six-row block with a per-row target override.
    fn block_doc(target_of: impl Fn(usize) -> &'static str) -> String {
        let rows: Vec<String> = Method::ALL
            .iter()
            .enumerate()
            .map(|(i, m)| {
                format!(
                    "    {{\"m\": 8, \"n\": 2, \"method\": {}, \"citation\": {}, \
                     \"target\": {}, \"seed\": 1, \"ok\": true, \"luts\": 33, \
                     \"slices\": 11, \"depth\": 3, \"time_ns\": 9.7, \"area_time\": 320.1, \
                     \"dup_gates\": 0, \"dead_nodes\": 0, \"and_depth\": 1, \
                     \"xor_depth\": 5, \"and_gates\": 64, \"xor_gates\": 84, \
                     \"dedup_saved\": 0, \"worst_slack_ns\": 0.0000}}",
                    json_string(m.name()),
                    json_string(m.citation()),
                    json_string(target_of(i)),
                )
            })
            .collect();
        format!(
            "{{\n  \"schema\": \"{TABLE5_SCHEMA}\",\n  \"base_seed\": 2018,\n  \"rows\": [\n{}\n  ]\n}}\n",
            rows.join(",\n")
        )
    }

    #[test]
    fn table5_validator_enforces_known_uniform_block_targets() {
        let ok = block_doc(|_| "virtex5");
        let summary = validate_json(&ok).unwrap();
        assert!(summary.contains("1 target(s)"), "{summary}");
        // An unregistered fabric name is rejected...
        let unknown = block_doc(|_| "ise_14_7");
        assert!(validate_json(&unknown)
            .unwrap_err()
            .contains("unknown target"));
        // ...and so is a block whose rows disagree on the fabric.
        let mixed = block_doc(|i| if i == 3 { "spartan3" } else { "artix7" });
        assert!(validate_json(&mixed)
            .unwrap_err()
            .contains("differs from its block's"));
        // A row with no target at all fails too.
        let stripped = block_doc(|_| "artix7").replace("\"target\": \"artix7\", ", "");
        assert!(validate_json(&stripped)
            .unwrap_err()
            .contains("missing \"target\""));
    }

    /// A minimal valid `bench_map` artifact with one artix7 entry.
    fn bench_map_doc() -> String {
        format!(
            r#"{{
  "schema": "{BENCH_MAP_SCHEMA}",
  "field": {{"m": 163, "n": 68}},
  "targets": [
    {{
      "target": "artix7",
      "map_options": {{"k": 6, "cuts_per_node": 8, "mode": "free"}},
      "design": {{"method": "ProposedFlat", "resynth_gates": 100, "luts": 10, "depth": 3}},
      "rep_wall_ms": [2.0, 1.5],
      "best_wall_ms": 1.5,
      "mean_wall_ms": 1.8
    }}
  ]
}}"#
        )
    }

    #[test]
    fn bench_map_validator_accepts_a_well_formed_artifact() {
        let summary = validate_json(&bench_map_doc()).unwrap();
        assert!(summary.contains("1 target(s)"), "{summary}");
        assert!(summary.contains("artix7"), "{summary}");
    }

    #[test]
    fn bench_map_validator_rejects_broken_documents() {
        let good = bench_map_doc();
        assert!(validate_json("{}").is_err());
        assert!(validate_json(&good.replace("rgf2m-bench-map/1", "rgf2m-bench-map/0")).is_err());
        // Unknown fabric, and a k that contradicts the fabric's LUT width.
        assert!(validate_json(&good.replace("artix7", "ise_14_7"))
            .unwrap_err()
            .contains("unknown target"));
        assert!(validate_json(&good.replace("\"k\": 6", "\"k\": 4"))
            .unwrap_err()
            .contains("LUT width"));
        // Best must be the minimum rep, and the rep list must be non-empty.
        assert!(
            validate_json(&good.replace("\"best_wall_ms\": 1.5", "\"best_wall_ms\": 2.0"))
                .unwrap_err()
                .contains("minimum rep")
        );
        assert!(validate_json(&good.replace("[2.0, 1.5]", "[]"))
            .unwrap_err()
            .contains("empty"));
    }

    #[test]
    fn committed_artifacts_validate() {
        for (name, text) in [
            (
                "AUDIT_sample.json",
                include_str!("../../../AUDIT_sample.json"),
            ),
            ("BENCH_map.json", include_str!("../../../BENCH_map.json")),
            (
                "BENCH_place.json",
                include_str!("../../../BENCH_place.json"),
            ),
        ] {
            if let Err(e) = validate_json(text) {
                panic!("{name}: {e}");
            }
        }
    }

    #[test]
    fn unknown_schemas_are_rejected_by_name() {
        let err = validate_json(r#"{"schema": "rgf2m-lint/1"}"#).unwrap_err();
        assert!(err.contains("rgf2m-lint/1"), "{err}");
        assert!(validate_json("[]").is_err());
    }

    /// A minimal valid `bench_place` artifact: one artix7 target with
    /// one run, and a small-grid probe at 3110.6 us / 3848 proposals.
    fn bench_place_doc() -> String {
        format!(
            r#"{{
  "schema": "{BENCH_PLACE_SCHEMA}",
  "field": {{"m": 64, "n": 23}},
  "place_options": {{"seed": 2018, "moves_factor": 8, "max_total_moves": 100000}},
  "small_grid": {{"field": {{"m": 8, "n": 2}}, "target": "artix7", "design": {{"luts": 43, "slices": 11}}, "reps": 25, "proposals": 3848, "best_wall_us": 3110.6, "mean_wall_us": 3344.6, "ns_per_proposal": 808.4}},
  "targets": [
    {{"target": "artix7", "design": {{"method": "ProposedFlat", "k": 6, "luts_per_slice": 4, "luts": 2800, "slices": 700}}, "runs": [
      {{"threads": 1, "best_wall_ms": 120.5, "mean_wall_ms": 120.5, "proposals": 100000, "accepted": 3000, "initial_hpwl": 9000.5, "final_hpwl": 8000.25, "trajectory": []}}
    ], "speedup_vs_threads1": {{}}}}
  ]
}}
"#
        )
    }

    #[test]
    fn bench_place_validator_accepts_a_well_formed_artifact() {
        let summary = validate_json(&bench_place_doc()).unwrap();
        assert!(summary.contains("808.4 ns/proposal"), "{summary}");
        assert!(summary.contains("1 target(s) (artix7)"), "{summary}");
    }

    #[test]
    fn bench_place_validator_rejects_broken_documents() {
        let good = bench_place_doc();
        let rejects = |from: &str, to: &str, why: &str| {
            let bad = good.replacen(from, to, 1);
            assert_ne!(bad, good, "{from:?} not in the document");
            let err = validate_json(&bad).unwrap_err();
            assert!(err.contains(why), "{from:?} -> {to:?}: {err}");
        };
        rejects(
            "\"ns_per_proposal\": 808.4",
            "\"ns_per_proposal\": 812.0",
            "ns_per_proposal",
        );
        rejects(
            "\"mean_wall_us\": 3344.6",
            "\"mean_wall_us\": 3000.0",
            "exceeds",
        );
        rejects(
            "\"mean_wall_ms\": 120.5",
            "\"mean_wall_ms\": 100.0",
            "exceeds",
        );
        rejects("\"luts\": 2800", "\"luts\": 0", "not positive");
        rejects("\"m\": 64", "\"m\": 0", "not positive");
        rejects("\"k\": 6", "\"k\": 4", "do not match");
        rejects(
            "\"target\": \"artix7\", \"design\"",
            "\"target\": \"ise_14_7\", \"design\"",
            "unknown target",
        );
        rejects("\"runs\": [", "\"runs\": [], \"x\": [", "empty \"runs\"");
        rejects(
            "\"proposals\": 100000",
            "\"proposals\": 0",
            "not a positive integer",
        );
        // The same fabric twice is a duplicate, not a second sweep.
        let entry_start = good.find("    {\"target\"").unwrap();
        let entry_end = good.rfind("\n  ]").unwrap();
        let entry = &good[entry_start..entry_end];
        let twice = good.replacen(entry, &format!("{entry},\n{entry}"), 1);
        assert!(validate_json(&twice)
            .unwrap_err()
            .contains("duplicate target"));
    }
}
