//! The unified static-analysis pass: every certificate the workspace
//! can state about a generated multiplier — structural lint, complete
//! formal verification, the Table V depth certificate, the Table V
//! area certificate, the structural-hashing (strash) sharing
//! certificate and the mapped-netlist formal check — run over a
//! Method × Target grid and folded into one machine-checkable
//! `rgf2m-audit/1` verdict.
//!
//! This is the single static-analysis gate CI runs: one `audit`
//! invocation replaces separate lint and STA-certificate smoke steps,
//! and any violated certificate anywhere in the grid turns into a
//! nonzero exit. The [`Fault`] hooks exist so the gate can prove its
//! own teeth: injecting one redundant gate or one flipped LUT truth
//! table must break at least one certificate.

use std::fmt;

use netlist::{Gate, Netlist};
use rgf2m_core::{area_spec, delay_spec, gen::generate, multiplier_spec, Method};
use rgf2m_fpga::{Pipeline, Target};
use rgf2m_serve::json::Obj;

use crate::{field_for, harness_pipeline};

/// Schema tag stamped into every audit JSON export.
pub const AUDIT_SCHEMA: &str = "rgf2m-audit/1";

/// A deliberately introduced defect, for proving the audit's teeth.
///
/// The audit is a gate: CI needs evidence it would actually fail if a
/// generator or the mapper regressed. Each fault models one realistic
/// regression and must break at least one certificate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// Appends a raw duplicate of the netlist's last gate (bypassing
    /// hash-consing via `Netlist::push_raw`) — a transcription-style
    /// area regression. Caught by the area certificate (one gate over
    /// the exact formula) and the strash certificate (`saved != 0`).
    RedundantGate,
    /// Inverts the truth table of the first mapped LUT — a silent
    /// functional regression after technology mapping. Caught by the
    /// mapped formal check.
    TruthFault,
}

impl Fault {
    /// CLI name of the fault.
    pub fn name(self) -> &'static str {
        match self {
            Fault::RedundantGate => "redundant-gate",
            Fault::TruthFault => "truth-fault",
        }
    }

    /// Parses a CLI fault name.
    pub fn from_name(name: &str) -> Option<Fault> {
        match name {
            "redundant-gate" => Some(Fault::RedundantGate),
            "truth-fault" => Some(Fault::TruthFault),
            _ => None,
        }
    }
}

/// What to audit: one Table V field, a method set, a target set, and
/// optionally a [`Fault`] to inject first.
#[derive(Debug, Clone)]
pub struct AuditOptions {
    /// Field degree `m`.
    pub m: usize,
    /// Pentanomial parameter `n`.
    pub n: usize,
    /// Methods to audit (paper row order by default).
    pub methods: Vec<Method>,
    /// Target fabrics to audit each method on.
    pub targets: Vec<Target>,
    /// A defect to inject before checking — `None` for the real gate.
    pub fault: Option<Fault>,
}

impl Default for AuditOptions {
    fn default() -> AuditOptions {
        AuditOptions {
            m: 8,
            n: 2,
            methods: Method::ALL.to_vec(),
            targets: vec![Target::Artix7],
            fault: None,
        }
    }
}

/// One certificate's verdict within a cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCheck {
    /// Stable check name (`lint`, `formal`, `depth`, `area`, `strash`,
    /// `mapped`).
    pub check: &'static str,
    /// Whether the certificate held.
    pub ok: bool,
    /// Deterministic one-line evidence (bound met, or the failure).
    pub detail: String,
}

/// All certificate verdicts for one Method × Target grid cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditCell {
    /// The audited method.
    pub method: Method,
    /// The audited fabric.
    pub target: Target,
    /// The certificate verdicts, in canonical check order.
    pub checks: Vec<AuditCheck>,
}

impl AuditCell {
    /// Number of violated certificates in this cell.
    pub fn violations(&self) -> usize {
        self.checks.iter().filter(|c| !c.ok).count()
    }
}

/// The whole audit verdict over the grid.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditReport {
    /// Field degree `m`.
    pub m: usize,
    /// Pentanomial parameter `n`.
    pub n: usize,
    /// One cell per Method × Target pair, methods outer, targets inner.
    pub cells: Vec<AuditCell>,
}

impl AuditReport {
    /// Total violated certificates across the grid.
    pub fn violations(&self) -> usize {
        self.cells.iter().map(AuditCell::violations).sum()
    }

    /// Whether every certificate in every cell held.
    pub fn is_clean(&self) -> bool {
        self.violations() == 0
    }
}

impl fmt::Display for AuditReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "audit of GF(2^{}) (n = {}): {} cell(s), {} violation(s)",
            self.m,
            self.n,
            self.cells.len(),
            self.violations()
        )?;
        for cell in &self.cells {
            let verdict = if cell.violations() == 0 {
                "ok"
            } else {
                "FAILED"
            };
            writeln!(
                f,
                "  {:<14} [{:<9}] {}",
                cell.method.name(),
                cell.target.name(),
                verdict
            )?;
            for check in &cell.checks {
                writeln!(
                    f,
                    "    {:<7} {} — {}",
                    check.check,
                    if check.ok { "ok    " } else { "FAILED" },
                    check.detail
                )?;
            }
        }
        Ok(())
    }
}

/// Appends a raw duplicate of the last 2-input gate — the
/// [`Fault::RedundantGate`] injection.
fn inject_redundant_gate(net: &mut Netlist) {
    let dup = net
        .node_ids()
        .filter(|&id| matches!(net.gate(id), Gate::And(_, _) | Gate::Xor(_, _)))
        .last()
        .expect("a multiplier netlist has gates");
    net.push_raw(net.gate(dup));
}

/// One certificate's verdict: `pass` describes a success, a failure
/// is its error message.
fn verdict<T, E: fmt::Display>(
    check: &'static str,
    result: Result<T, E>,
    pass: impl FnOnce(T) -> String,
) -> AuditCheck {
    let (ok, detail) = match result {
        Ok(v) => (true, pass(v)),
        Err(e) => (false, e.to_string()),
    };
    AuditCheck { check, ok, detail }
}

/// Runs every static certificate over the configured grid.
///
/// Gate-level checks (lint, formal, depth, area, strash) are
/// target-independent but repeated per cell so each cell is a
/// self-contained verdict; the mapped check re-maps per fabric. No
/// placement or timing runs — the audit is purely static, so its
/// output (and the JSON export) is deterministic byte for byte.
pub fn run_audit(opts: &AuditOptions) -> AuditReport {
    let field = field_for(opts.m, opts.n);
    let spec = multiplier_spec(&field);
    let mut report = AuditReport {
        m: opts.m,
        n: opts.n,
        cells: Vec::with_capacity(opts.methods.len() * opts.targets.len()),
    };
    for &method in &opts.methods {
        let mut net = generate(&field, method);
        if opts.fault == Some(Fault::RedundantGate) {
            inject_redundant_gate(&mut net);
        }
        let depth_spec = delay_spec(&field, method);
        let area = area_spec(&field, method);
        for &target in &opts.targets {
            let pipeline: Pipeline = harness_pipeline().with_target(target);
            let mut checks = Vec::with_capacity(6);

            // Structural hygiene. Errors break the certificate;
            // warnings ride along in the summary.
            let lint = netlist::lint_netlist(&net);
            checks.push(AuditCheck {
                check: "lint",
                ok: !lint.has_errors(),
                detail: lint.summary(),
            });

            // Complete algebraic verification of every output cone.
            checks.push(verdict(
                "formal",
                pipeline.verify_formal(&spec, &net),
                |()| format!("all {} output cones match the spec", opts.m),
            ));

            // The Table V delay formula, as a structural depth bound.
            checks.push(verdict(
                "depth",
                pipeline.verify_depth(&depth_spec, &net),
                |()| format!("within {}", depth_spec.worst()),
            ));

            // The Table V gate-count formula, exact per kind.
            checks.push(verdict("area", pipeline.verify_area(&area, &net), |()| {
                format!("exactly {area}")
            }));

            // Structural hashing: the proof-carrying dedup rewrite must
            // find nothing to merge (the hash-consing builder already
            // shares every repeated cone) and its output must still
            // verify formally.
            let (deduped, saved) = netlist::strash_dedup(&net);
            let rewrite_ok = pipeline.verify_formal(&spec, &deduped).is_ok();
            checks.push(AuditCheck {
                check: "strash",
                ok: saved == 0 && rewrite_ok,
                detail: if rewrite_ok {
                    format!("dedup rewrite saved {saved} gate(s), output verifies formally")
                } else {
                    format!("dedup rewrite saved {saved} gate(s) but broke verification")
                },
            });

            // Mapped level: re-map for this fabric (no placement) and
            // verify the LUT netlist formally; `verify_formal_mapped`
            // lints it first, so mapped structural errors surface here.
            let mapped = pipeline
                .resynth(&net)
                .and_then(|synth| pipeline.map(&synth))
                .and_then(|mut mapped| {
                    if opts.fault == Some(Fault::TruthFault) {
                        let truth = mapped.luts()[0].truth;
                        mapped.set_truth(0, !truth);
                    }
                    pipeline
                        .verify_formal_mapped(&spec, &mapped)
                        .map(|()| mapped.num_luts())
                });
            checks.push(verdict("mapped", mapped, |luts| {
                format!("{luts} LUTs match the spec on {}", target.name())
            }));

            report.cells.push(AuditCell {
                method,
                target,
                checks,
            });
        }
    }
    report
}

/// Serializes an audit verdict as the `rgf2m-audit/1` JSON document.
/// Byte-deterministic: fixed field order, no floats, no timestamps.
pub fn audit_to_json(report: &AuditReport) -> String {
    let cells = report.cells.iter().map(|cell| {
        let checks = cell.checks.iter().map(|c| {
            Obj::new()
                .str("check", c.check)
                .bool("ok", c.ok)
                .str("detail", &c.detail)
        });
        Obj::new()
            .str("method", cell.method.name())
            .str("citation", cell.method.citation())
            .str("target", cell.target.name())
            .bool("ok", cell.violations() == 0)
            .arr("checks", checks)
    });
    Obj::new()
        .str("schema", AUDIT_SCHEMA)
        .num("m", report.m)
        .num("n", report.n)
        .same_line()
        .num("violations", report.violations())
        .arr("cells", cells)
        .document()
}

/// The canonical check set every audit cell must carry.
pub(crate) const CHECK_NAMES: [&str; 6] = ["lint", "formal", "depth", "area", "strash", "mapped"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::validate::validate_json;

    fn quick_opts() -> AuditOptions {
        // One method keeps the unit tests fast; the full grid runs in
        // the audit bin (and CI).
        AuditOptions {
            methods: vec![Method::ProposedFlat],
            ..AuditOptions::default()
        }
    }

    #[test]
    fn clean_generator_passes_every_certificate() {
        let report = run_audit(&AuditOptions {
            methods: vec![Method::ProposedFlat, Method::ReyhaniHasan],
            targets: vec![Target::Artix7, Target::Spartan3],
            ..AuditOptions::default()
        });
        assert_eq!(report.cells.len(), 4);
        assert!(report.is_clean(), "{report}");
        for cell in &report.cells {
            assert_eq!(
                cell.checks.iter().map(|c| c.check).collect::<Vec<_>>(),
                CHECK_NAMES
            );
        }
    }

    #[test]
    fn injected_redundant_gate_breaks_certificates() {
        let report = run_audit(&AuditOptions {
            fault: Some(Fault::RedundantGate),
            ..quick_opts()
        });
        assert!(!report.is_clean());
        let cell = &report.cells[0];
        let failed: Vec<&str> = cell
            .checks
            .iter()
            .filter(|c| !c.ok)
            .map(|c| c.check)
            .collect();
        // The duplicate is one gate over the exact area formula and
        // exactly what strash reclaims; behaviour is unchanged, so the
        // functional certificates still hold.
        assert!(failed.contains(&"area"), "{report}");
        assert!(failed.contains(&"strash"), "{report}");
        assert!(!failed.contains(&"formal"), "{report}");
        let strash = cell.checks.iter().find(|c| c.check == "strash").unwrap();
        assert!(
            strash.detail.contains("saved 1 gate(s)"),
            "{}",
            strash.detail
        );
    }

    #[test]
    fn injected_truth_fault_breaks_the_mapped_certificate() {
        let report = run_audit(&AuditOptions {
            fault: Some(Fault::TruthFault),
            ..quick_opts()
        });
        assert!(!report.is_clean());
        let cell = &report.cells[0];
        let mapped = cell.checks.iter().find(|c| c.check == "mapped").unwrap();
        assert!(!mapped.ok);
        assert!(
            mapped.detail.contains("formal verification"),
            "{}",
            mapped.detail
        );
        // Gate-level certificates are untouched by a mapped-level fault.
        for name in ["lint", "formal", "depth", "area", "strash"] {
            assert!(cell.checks.iter().find(|c| c.check == name).unwrap().ok);
        }
    }

    #[test]
    fn json_export_roundtrips_through_the_validator() {
        let clean = run_audit(&quick_opts());
        let doc = audit_to_json(&clean);
        let summary = validate_json(&doc).unwrap();
        assert!(summary.contains("0 violation(s)"), "{summary}");
        // Deterministic writer: same grid, same bytes.
        assert_eq!(audit_to_json(&run_audit(&quick_opts())), doc);

        // A faulted report still validates (the document is honest
        // about its violations) — failing is the *bin*'s job.
        let faulted = run_audit(&AuditOptions {
            fault: Some(Fault::RedundantGate),
            ..quick_opts()
        });
        let fdoc = audit_to_json(&faulted);
        let fsummary = validate_json(&fdoc).unwrap();
        assert!(!fsummary.contains(" 0 violation(s)"), "{fsummary}");
    }

    #[test]
    fn validator_rejects_broken_documents() {
        let doc = audit_to_json(&run_audit(&quick_opts()));
        assert!(validate_json("{}").is_err());
        assert!(validate_json(&doc.replace(AUDIT_SCHEMA, "rgf2m-audit/0")).is_err());
        // A violation count contradicting the checks is caught...
        let lied = doc.replace("\"violations\": 0", "\"violations\": 3");
        assert!(validate_json(&lied).unwrap_err().contains("violations"));
        // ...and so are a tampered cell verdict, method and check set.
        let flipped = doc.replace("\"ok\": true, \"checks\"", "\"ok\": false, \"checks\"");
        assert!(validate_json(&flipped).unwrap_err().contains("contradicts"));
        let unknown = doc.replace("\"method\": \"proposed\"", "\"method\": \"magic\"");
        assert!(validate_json(&unknown)
            .unwrap_err()
            .contains("unknown method"));
        let misordered = doc.replace("\"check\": \"lint\"", "\"check\": \"area\"");
        assert!(validate_json(&misordered)
            .unwrap_err()
            .contains("canonical"));
    }

    #[test]
    fn fault_names_roundtrip() {
        for fault in [Fault::RedundantGate, Fault::TruthFault] {
            assert_eq!(Fault::from_name(fault.name()), Some(fault));
        }
        assert_eq!(Fault::from_name("meteor"), None);
    }
}
