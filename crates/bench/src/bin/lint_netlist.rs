//! Structural lint (and optional formal verification) for the
//! generated multiplier netlists, at both netlist levels: the
//! gate-level design straight out of the generator and the mapped
//! LUT netlist the pipeline produces for a target fabric.
//!
//! Usage:
//!   lint_netlist                    # (8,2), all six methods, artix7
//!   lint_netlist --only M,N         # another Table V field
//!   lint_netlist --method NAME      # a single method (e.g. proposed)
//!   lint_netlist --target NAME      # another fabric (e.g. spartan3)
//!   lint_netlist --all-targets      # every registered fabric
//!   lint_netlist --formal           # also run verify_formal{,_mapped}
//!   lint_netlist --json PATH        # machine-readable findings
//!                                   # (rgf2m-lint/1)
//!   lint_netlist --deny-warnings    # treat warnings as failures too
//!
//! Exits nonzero if any design has lint *errors* (warnings are
//! printed but tolerated unless `--deny-warnings` is given) or, with
//! `--formal`, if any algebraic verification fails. This is the CI
//! gate for netlist hygiene.

use netlist::LintReport;
use rgf2m_bench::{arg_value, field_for, harness_pipeline};
use rgf2m_core::{gen::generate, multiplier_spec, Method};
use rgf2m_fpga::{lint_mapped, Target};
use rgf2m_serve::json::Obj;

/// Renders one lint pass as a `rgf2m-lint/1` record: the design, the
/// level (`"gate"` or `"mapped:<target>"`) and every finding with its
/// severity, kebab-case kind, anchor index and message.
fn json_record(design: &str, level: &str, lint: &LintReport) -> Obj {
    let findings = lint.findings().iter().map(|f| {
        Obj::new()
            .str("severity", f.severity().name())
            .str("kind", f.kind.name())
            .num("node", f.node)
            .str("message", &f.message)
    });
    Obj::new()
        .str("design", design)
        .str("level", level)
        .num("errors", lint.errors())
        .num("warnings", lint.warnings())
        .arr("findings", findings)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (m, n) = arg_value(&args, "--only")
        .map(|v| {
            let parts: Vec<usize> = v
                .split(',')
                .map(|t| t.trim().parse().expect("--only wants M,N"))
                .collect();
            assert_eq!(parts.len(), 2, "--only wants M,N");
            (parts[0], parts[1])
        })
        .unwrap_or((8, 2));
    let methods: Vec<Method> = match arg_value(&args, "--method") {
        Some(name) => vec![Method::from_name(&name)
            .unwrap_or_else(|| panic!("unknown method {name:?} (see Method::name)"))],
        None => Method::ALL.to_vec(),
    };
    let targets: Vec<Target> = if args.iter().any(|a| a == "--all-targets") {
        Target::ALL.to_vec()
    } else {
        let name = arg_value(&args, "--target").unwrap_or_else(|| "artix7".into());
        vec![Target::from_name(&name)
            .unwrap_or_else(|| panic!("unknown target {name:?} (see Target::from_name)"))]
    };
    let formal = args.iter().any(|a| a == "--formal");
    let deny_warnings = args.iter().any(|a| a == "--deny-warnings");
    let json_path = arg_value(&args, "--json");

    let field = field_for(m, n);
    let spec = multiplier_spec(&field);
    let mut failures = 0usize;
    let mut records: Vec<Obj> = Vec::new();
    // With --deny-warnings, warnings count as failures too.
    let check = |lint: &LintReport, failures: &mut usize| {
        if lint.has_errors() || (deny_warnings && lint.warnings() > 0) {
            *failures += 1;
        }
    };

    println!(
        "linting GF(2^{m}) (n = {n}): {} method(s) x {} target(s){}",
        methods.len(),
        targets.len(),
        if formal {
            ", with formal verification"
        } else {
            ""
        }
    );
    println!();

    for method in &methods {
        let net = generate(&field, *method);

        // Gate level: lint once per method (target-independent).
        let gate_lint = netlist::lint_netlist(&net);
        println!(
            "  {:<14} gate level:   {}",
            method.name(),
            gate_lint.summary()
        );
        for finding in gate_lint.findings() {
            println!("    {finding}");
        }
        check(&gate_lint, &mut failures);
        records.push(json_record(net.name(), "gate", &gate_lint));
        if formal {
            let pipeline = harness_pipeline();
            match pipeline.verify_formal(&spec, &net) {
                Ok(()) => println!("    formal: all {m} output cones match the spec"),
                Err(e) => {
                    failures += 1;
                    println!("    formal: FAILED — {e}");
                }
            }
        }

        // Mapped level: one lint (and optional formal check) per fabric.
        for target in &targets {
            let pipeline = harness_pipeline().with_target(*target);
            let artifacts = match pipeline.run(&net) {
                Ok(a) => a,
                Err(e) => {
                    failures += 1;
                    println!("    [{:<9}] flow FAILED — {e}", target.name());
                    continue;
                }
            };
            let mapped_lint = lint_mapped(&artifacts.mapped);
            println!(
                "    [{:<9}] mapped ({} LUTs): {}",
                target.name(),
                artifacts.mapped.num_luts(),
                mapped_lint.summary()
            );
            for finding in mapped_lint.findings() {
                println!("      {finding}");
            }
            check(&mapped_lint, &mut failures);
            records.push(json_record(
                net.name(),
                &format!("mapped:{}", target.name()),
                &mapped_lint,
            ));
            if formal {
                match pipeline.verify_formal_mapped(&spec, &artifacts.mapped) {
                    Ok(()) => println!("      formal: mapped netlist matches the spec"),
                    Err(e) => {
                        failures += 1;
                        println!("      formal: FAILED — {e}");
                    }
                }
            }
        }
        println!();
    }

    if let Some(path) = json_path {
        let doc = Obj::new()
            .str("schema", "rgf2m-lint/1")
            .num("m", m)
            .num("n", n)
            .same_line()
            .arr("records", records)
            .document();
        std::fs::write(&path, &doc).unwrap_or_else(|e| panic!("cannot write {path}: {e}"));
        println!("wrote {path} ({} bytes)", doc.len());
    }

    if failures > 0 {
        eprintln!("{failures} design(s) failed lint/formal checks");
        std::process::exit(1);
    }
    println!("all designs clean");
}
