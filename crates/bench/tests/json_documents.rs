//! Byte pins on the JSON documents the bins write: the committed
//! `AUDIT_sample.json` must be exactly what `audit` emits for the
//! GF(2^8) artix7 + spartan3 grid, and the `rgf2m-lint/1` layout keeps
//! its bytes for records with and without findings.

use std::path::PathBuf;
use std::process::{Command, Stdio};

/// Runs one of this package's bins with `--json PATH` appended and
/// returns the document it wrote.
fn run_json(bin: &str, exe: &str, args: &[&str]) -> String {
    let out: PathBuf = std::env::temp_dir().join(format!(
        "rgf2m-json-documents-{}-{bin}.json",
        std::process::id()
    ));
    let status = Command::new(exe)
        .args(args)
        .arg("--json")
        .arg(&out)
        .stdout(Stdio::null())
        .status()
        .unwrap_or_else(|e| panic!("cannot run {bin}: {e}"));
    assert!(status.success(), "{bin} exited with {status}");
    let doc = std::fs::read_to_string(&out).unwrap();
    let _ = std::fs::remove_file(&out);
    doc
}

#[test]
fn audit_of_gf256_on_two_targets_equals_the_committed_sample() {
    let doc = run_json(
        "audit",
        env!("CARGO_BIN_EXE_audit"),
        &["--only", "8,2", "--targets", "artix7,spartan3"],
    );
    assert!(
        doc == include_str!("../../../AUDIT_sample.json"),
        "audit output differs from AUDIT_sample.json:\n{doc}"
    );
}

#[test]
fn lint_document_bytes_are_pinned() {
    // Reyhani-Hasan's gate-level netlist carries one unbalanced-XOR
    // warning; its mapped netlist is clean. So one record has a
    // non-empty findings list and the other an empty one.
    let doc = run_json(
        "lint_netlist",
        env!("CARGO_BIN_EXE_lint_netlist"),
        &["--only", "8,2", "--method", "reyhani_hasan"],
    );
    assert_eq!(
        doc,
        r#"{
  "schema": "rgf2m-lint/1",
  "m": 8, "n": 2,
  "records": [
    {"design": "mul_reyhani_m8", "level": "gate", "errors": 0, "warnings": 1, "findings": [
      {"severity": "warning", "kind": "unbalanced-xor-tree", "node": 132, "message": "XOR tree rooted at node 132 adds 3 level(s) over 4 leaves; a balanced tree needs 2"}
    ]},
    {"design": "mul_reyhani_m8", "level": "mapped:artix7", "errors": 0, "warnings": 0, "findings": []}
  ]
}
"#
    );
}
