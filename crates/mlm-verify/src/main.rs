//! The `mlm-verify` CLI.
//!
//! ```text
//! mlm-verify check-all [--json]        # lints + graph proofs + model checks
//! mlm-verify lint      [--json]        # the lint battery only
//! mlm-verify graph     [--json]        # static schedule verification (G-series)
//! mlm-verify models    [--json]        # the model-checking battery only
//! mlm-verify fleet     [--json]        # fleet dispatcher invariant battery
//! mlm-verify list                      # registered lints and checked models
//! ```
//!
//! `check-all` is what CI runs: it executes the whole [`mlm_verify::suite`]
//! and fails if the paper spec stops linting clean, a known-bad spec stops
//! being rejected, a shipped protocol stops verifying, or a regression
//! model stops failing. Its `graph` battery statically proves every
//! corpus case and committed experiment spec race-free, deadlock-free,
//! and within MCDRAM bounds, and asserts the five buggy constructions of
//! the catalogue are each flagged with a counterexample trace.
//!
//! # Exit contract
//!
//! * `0` — the requested battery (or all of them) passed;
//! * `1` — at least one battery failed (a case regressed, a must-fail
//!   stopped failing, or a finding fired where none was expected);
//! * `2` — usage error (unknown subcommand or malformed flag); nothing
//!   was run.
//!
//! With `--json` the battery prints exactly one JSON document on stdout
//! (machine-readable, schema mirrored from the suite types; human text is
//! suppressed) — the exit code contract is unchanged, so CI can both
//! parse the findings and gate on the status.

use std::process::ExitCode;

use serde::Serialize;

use mlm_verify::fleetsuite::run_fleet_suite;
use mlm_verify::graph::run_graph_suite;
use mlm_verify::suite::{run_lint_suite, run_model_suite};
use mlm_verify::{Diagnostic, LintRegistry};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    match args.first().map(String::as_str) {
        Some("check-all") => {
            let lints = lint_battery(json);
            let graph = graph_battery(json);
            let models = model_battery(json);
            let fleet = fleet_battery(json);
            let ok = lints.ok && graph.ok && models.ok && fleet.ok;
            if json {
                emit(&CheckAllOut {
                    ok,
                    lint: lints,
                    graph,
                    models,
                    fleet,
                });
            } else {
                println!("\ncheck-all: {}", verdict(ok));
            }
            exit_for(ok)
        }
        Some("lint") => finish(json, lint_battery(json)),
        Some("graph") => finish(json, graph_battery(json)),
        Some("models") => finish(json, model_battery(json)),
        Some("fleet") => finish(json, fleet_battery(json)),
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: mlm-verify <check-all|lint|graph|models|fleet|list> [--json]");
            ExitCode::from(2)
        }
    }
}

fn exit_for(ok: bool) -> ExitCode {
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn verdict(ok: bool) -> &'static str {
    if ok {
        "PASS"
    } else {
        "FAIL"
    }
}

/// Emit a battery's JSON document (if asked) and map its status to the
/// exit contract.
fn finish<T: Serialize + Battery>(json: bool, out: T) -> ExitCode {
    let ok = out.passed();
    if json {
        emit(&out);
    }
    exit_for(ok)
}

fn emit<T: Serialize>(out: &T) {
    println!(
        "{}",
        serde_json::to_string(out).expect("battery reports always serialize")
    );
}

trait Battery {
    fn passed(&self) -> bool;
}

/// Combined `check-all --json` document.
#[derive(Serialize)]
struct CheckAllOut {
    ok: bool,
    lint: LintBatteryOut,
    graph: GraphBatteryOut,
    models: ModelBatteryOut,
    fleet: FleetBatteryOut,
}

#[derive(Serialize)]
struct LintBatteryOut {
    battery: &'static str,
    ok: bool,
    cases: Vec<LintCaseOut>,
}

#[derive(Serialize)]
struct LintCaseOut {
    name: String,
    ok: bool,
    expect_error: Option<String>,
    error_ids: Vec<String>,
    diagnostics: Vec<Diagnostic>,
}

impl Battery for LintBatteryOut {
    fn passed(&self) -> bool {
        self.ok
    }
}

fn lint_battery(json: bool) -> LintBatteryOut {
    if !json {
        println!("== spec lints ==");
    }
    let mut ok = true;
    let mut cases = Vec::new();
    for case in run_lint_suite() {
        if !json {
            let verdict = if case.ok() { "ok" } else { "FAIL" };
            let expect = match case.expect_error {
                None => "expect clean".to_string(),
                Some(id) => format!("expect {id}"),
            };
            println!("{verdict:>4}  {}  [{expect}]", case.name);
            if !case.ok() {
                println!("{}", case.report);
            } else if case.expect_error.is_some() {
                // Show the first diagnostic of rejected specs so the output
                // documents what a rejection looks like.
                if let Some(d) = case.report.errors().next() {
                    println!("      {}", d.to_string().replace('\n', "\n      "));
                }
            }
        }
        ok &= case.ok();
        cases.push(LintCaseOut {
            name: case.name.to_string(),
            ok: case.ok(),
            expect_error: case.expect_error.map(String::from),
            error_ids: case
                .report
                .error_ids()
                .iter()
                .map(|s| s.to_string())
                .collect(),
            diagnostics: case.report.diagnostics.clone(),
        });
    }
    LintBatteryOut {
        battery: "lint",
        ok,
        cases,
    }
}

#[derive(Serialize)]
struct GraphBatteryOut {
    battery: &'static str,
    ok: bool,
    cases: Vec<GraphCaseOut>,
}

#[derive(Serialize)]
struct GraphCaseOut {
    name: String,
    ok: bool,
    /// G-codes the case must fire; empty means it must prove safe.
    expect: Vec<String>,
    /// G-codes that actually fired.
    fired: Vec<String>,
    nodes: usize,
    edges: usize,
    peak_hbw_bytes: u64,
    diagnostics: Vec<Diagnostic>,
    /// Set when the spec could not be driven at all.
    error: Option<String>,
}

impl Battery for GraphBatteryOut {
    fn passed(&self) -> bool {
        self.ok
    }
}

fn graph_battery(json: bool) -> GraphBatteryOut {
    if !json {
        println!("\n== static schedule verification ==");
    }
    let mut ok = true;
    let mut cases = Vec::new();
    for case in run_graph_suite() {
        let case_ok = case.ok();
        ok &= case_ok;
        let (out, rendered) = match &case.report {
            Ok(report) => (
                GraphCaseOut {
                    name: case.name.clone(),
                    ok: case_ok,
                    expect: case.expect.iter().map(|s| s.to_string()).collect(),
                    fired: case.fired().iter().map(|s| s.to_string()).collect(),
                    nodes: report.nodes,
                    edges: report.edges,
                    peak_hbw_bytes: report.peak_hbw_bytes,
                    diagnostics: mlm_verify::graph::report_diagnostics(report),
                    error: None,
                },
                report.to_string(),
            ),
            Err(e) => (
                GraphCaseOut {
                    name: case.name.clone(),
                    ok: case_ok,
                    expect: case.expect.iter().map(|s| s.to_string()).collect(),
                    fired: Vec::new(),
                    nodes: 0,
                    edges: 0,
                    peak_hbw_bytes: 0,
                    diagnostics: Vec::new(),
                    error: Some(e.to_string()),
                },
                e.to_string(),
            ),
        };
        if !json {
            let verdict = if case_ok { "ok" } else { "FAIL" };
            let expect = if case.expect.is_empty() {
                "must prove safe".to_string()
            } else {
                format!("must fire {}", case.expect.join("+"))
            };
            println!(
                "{verdict:>4}  {}  [{expect}] — {} nodes, {} edges, {} HBW bytes",
                case.name, out.nodes, out.edges, out.peak_hbw_bytes
            );
            if !case.expect.is_empty() && case_ok {
                println!("      caught as designed: fired {}", out.fired.join(", "));
            }
            if !case_ok {
                println!("      {}", rendered.replace('\n', "\n      "));
            }
        }
        cases.push(out);
    }
    if !json {
        println!("graph: {}", verdict(ok));
    }
    GraphBatteryOut {
        battery: "graph",
        ok,
        cases,
    }
}

#[derive(Serialize)]
struct ModelBatteryOut {
    battery: &'static str,
    ok: bool,
    cases: Vec<ModelCaseOut>,
}

#[derive(Serialize)]
struct ModelCaseOut {
    name: String,
    ok: bool,
    expect_violation: bool,
    states: usize,
    transitions: usize,
    violation: Option<String>,
}

impl Battery for ModelBatteryOut {
    fn passed(&self) -> bool {
        self.ok
    }
}

fn model_battery(json: bool) -> ModelBatteryOut {
    if !json {
        println!("\n== protocol models ==");
    }
    let mut ok = true;
    let mut cases = Vec::new();
    for run in run_model_suite() {
        if !json {
            let verdict = if run.ok() { "ok" } else { "FAIL" };
            let expect = if run.expect_violation {
                "must fail"
            } else {
                "must verify"
            };
            println!(
                "{verdict:>4}  {}  [{expect}] — {} states, {} transitions",
                run.name, run.states, run.transitions
            );
            match (&run.violation, run.expect_violation) {
                (Some(v), true) => println!("      caught as designed: {v}"),
                (Some(v), false) => println!("      UNEXPECTED VIOLATION: {v}"),
                (None, true) => {
                    println!("      regression model no longer fails — the checker lost the bug")
                }
                (None, false) => {}
            }
        }
        ok &= run.ok();
        cases.push(ModelCaseOut {
            ok: run.ok(),
            name: run.name,
            expect_violation: run.expect_violation,
            states: run.states,
            transitions: run.transitions,
            violation: run.violation,
        });
    }
    ModelBatteryOut {
        battery: "models",
        ok,
        cases,
    }
}

#[derive(Serialize)]
struct FleetBatteryOut {
    battery: &'static str,
    ok: bool,
    cases: Vec<FleetCaseOut>,
}

#[derive(Serialize)]
struct FleetCaseOut {
    name: String,
    ok: bool,
    detail: String,
}

impl Battery for FleetBatteryOut {
    fn passed(&self) -> bool {
        self.ok
    }
}

fn fleet_battery(json: bool) -> FleetBatteryOut {
    if !json {
        println!("\n== fleet dispatcher invariants ==");
    }
    let mut ok = true;
    let mut cases = Vec::new();
    for case in run_fleet_suite() {
        if !json {
            let verdict = if case.ok { "ok" } else { "FAIL" };
            println!("{verdict:>4}  {}", case.name);
            println!("      {}", case.detail);
        }
        ok &= case.ok;
        cases.push(FleetCaseOut {
            name: case.name,
            ok: case.ok,
            detail: case.detail,
        });
    }
    if !json {
        println!("fleet: {}", verdict(ok));
    }
    FleetBatteryOut {
        battery: "fleet",
        ok,
        cases,
    }
}

fn list() {
    println!("lints:");
    for lint in LintRegistry::with_builtin_lints().lints() {
        println!(
            "  {}  {:<24} {}",
            lint.id(),
            lint.name(),
            lint.description()
        );
    }
    println!("\ngraph checks (run them with `mlm-verify graph`):");
    for check in mlm_exec::graph::GraphCheck::ALL {
        let kind = if check.is_fatal() {
            "error"
        } else {
            "advisory"
        };
        println!("  {}  {:<24} {kind}", check.code(), check.name());
    }
    println!("\nmodels (run them with `mlm-verify models`):");
    for (name, expect_violation) in mlm_verify::suite::model_catalog() {
        let kind = if expect_violation {
            "regression (must fail)"
        } else {
            "shipped (must verify)"
        };
        println!("  {name:<60} {kind}");
    }
}
