//! The `mlm-verify` CLI.
//!
//! ```text
//! mlm-verify check-all [--json]        # lints + graph proofs + model checks
//! mlm-verify lint      [--json]        # the lint battery only
//! mlm-verify graph     [--json]        # static schedule verification (G-series)
//! mlm-verify models    [--json]        # the model-checking battery only
//! mlm-verify fuzz      [--json]        # adversarial-schedule fuzzing + regressions
//!     [--seeds N]                      #   seeds per corpus case (default 1000)
//!     [--base B]                       #   first seed (default 0)
//!     [--case SUBSTR]                  #   only corpus cases whose name contains SUBSTR
//!     [--construction NAME]            #   run the corpus as a buggy construction:
//!                                      #   must-fail, first finding per case printed
//!     [--panic-chunk K]                #   inject a kernel panic on chunk K
//! mlm-verify fleet     [--json]        # fleet dispatcher invariant battery
//! mlm-verify list                      # registered lints and checked models
//! ```
//!
//! `check-all` is what CI runs: it executes the whole [`mlm_verify::suite`]
//! and fails if the paper spec stops linting clean, a known-bad spec stops
//! being rejected, a shipped protocol stops verifying, or a regression
//! model stops failing. Its `graph` battery statically proves every
//! fuzz-corpus case and committed experiment spec race-free,
//! deadlock-free, and within MCDRAM bounds, and asserts the five buggy
//! constructions of the catalogue are each flagged with a counterexample
//! trace. The `fuzz` battery (CI's `fuzz` job) replays the catalogue's
//! must-fail regression traces and sweeps the default corpus with N
//! adversarial schedules per case. With `--construction` the sweep's sense
//! inverts: it fails if no case produces a finding, because a silent
//! buggy construction means the fuzzer lost its teeth.
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

use mlm_exec::fuzz::{Construction, FuzzCase};
use mlm_verify::fleetsuite::run_fleet_suite;
use mlm_verify::fuzzsuite::{fuzz_corpus, run_fuzz_corpus, run_fuzz_regressions};
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
        Some("fuzz") => fuzz_command(&args[1..], json),
        Some("fleet") => finish(json, fleet_battery(json)),
        Some("list") => {
            list();
            ExitCode::SUCCESS
        }
        _ => {
            eprintln!("usage: mlm-verify <check-all|lint|graph|models|fuzz|fleet|list> [--json]");
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
    peak_live_chunks: usize,
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
                    peak_live_chunks: report.peak_live_chunks,
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
                    peak_live_chunks: 0,
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
                "{verdict:>4}  {}  [{expect}] — {} nodes, {} edges, peak {} chunks",
                case.name, out.nodes, out.edges, out.peak_live_chunks
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
struct FuzzBatteryOut {
    battery: &'static str,
    ok: bool,
    seeds: u64,
    regressions: Vec<FuzzRegressionOut>,
    corpus_cases: Vec<String>,
    findings: Vec<String>,
}

#[derive(Serialize)]
struct FuzzRegressionOut {
    name: String,
    ok: bool,
    caught: bool,
    clean_on_correct: bool,
    trace_len: usize,
    violation: Option<String>,
}

impl Battery for FuzzBatteryOut {
    fn passed(&self) -> bool {
        self.ok
    }
}

/// Parse `fuzz`'s flags (everything after the subcommand), narrow the
/// corpus, and run the battery.
fn fuzz_command(args: &[String], json: bool) -> ExitCode {
    let usage = |bad: &str| {
        let names: Vec<&str> = Construction::ALL.iter().map(|c| c.name()).collect();
        eprintln!(
            "bad argument: {bad}\nusage: mlm-verify fuzz [--seeds N] [--base B] [--case SUBSTR] \
             [--construction NAME] [--panic-chunk K] [--json]\nNAME is one of {}",
            names.join(", ")
        );
        ExitCode::from(2)
    };
    let mut seeds: u64 = 1000;
    let mut base: u64 = 0;
    let mut filter = None;
    let mut construction = Construction::Correct;
    let mut panic_chunk = None;
    let mut rest = args.iter().map(String::as_str);
    while let Some(flag) = rest.next() {
        if flag == "--json" {
            continue;
        }
        let Some(value) = rest.next() else {
            return usage(flag);
        };
        let parsed = match flag {
            "--seeds" => value.parse().map(|n| seeds = n).is_ok(),
            "--base" => value.parse().map(|b| base = b).is_ok(),
            "--case" => {
                filter = Some(value);
                true
            }
            "--construction" => Construction::from_name(value)
                .map(|c| construction = c)
                .is_some(),
            "--panic-chunk" => value.parse().map(|k| panic_chunk = Some(k)).is_ok(),
            _ => false,
        };
        if !parsed {
            return usage(&format!("{flag} {value}"));
        }
    }
    let corpus = fuzz_corpus(filter, construction, panic_chunk);
    if corpus.is_empty() {
        eprintln!("no corpus case matches --case / has more chunks than --panic-chunk");
        return ExitCode::from(2);
    }
    match fuzz_battery(&corpus, base, seeds, json) {
        Ok(out) => finish(json, out),
        Err(e) => {
            eprintln!("a corpus case is not driveable: {e}");
            ExitCode::from(2)
        }
    }
}

fn fuzz_battery(
    corpus: &[FuzzCase],
    base: u64,
    seeds: u64,
    json: bool,
) -> Result<FuzzBatteryOut, mlm_exec::DriveError> {
    let mut ok = true;

    if !json {
        println!("== fuzz regression seeds ==");
    }
    let mut regressions = Vec::new();
    for run in run_fuzz_regressions() {
        if !json {
            let verdict = if run.ok() { "ok" } else { "FAIL" };
            println!(
                "{verdict:>4}  {}  [must fail, trace of {} decisions]",
                run.name, run.trace_len
            );
            if let Some(e) = &run.error {
                println!("      case is not driveable: {e}");
            } else {
                if let Some(v) = &run.buggy_violation {
                    println!("      caught as designed: {v}");
                }
                if !run.caught {
                    println!("      regression seed no longer fails — the fuzzer lost the bug");
                }
                if !run.clean_on_correct {
                    println!(
                        "      trace violates even the CORRECT construction — orchestrator bug"
                    );
                }
            }
        }
        ok &= run.ok();
        regressions.push(FuzzRegressionOut {
            name: run.name.to_string(),
            ok: run.ok(),
            caught: run.caught,
            clean_on_correct: run.clean_on_correct,
            trace_len: run.trace_len,
            violation: run.buggy_violation,
        });
    }

    // A buggy construction must be caught somewhere; a correct one nowhere.
    let must_fail = corpus
        .iter()
        .any(|c| c.construction != Construction::Correct);
    if !json {
        println!(
            "\n== adversarial-schedule corpus ({seeds} seeds/case{}) ==",
            if must_fail { ", must fail" } else { "" }
        );
    }
    let corpus_cases: Vec<String> = corpus.iter().map(|c| c.name.clone()).collect();
    let findings: Vec<String> = run_fuzz_corpus(corpus, base, seeds)?
        .iter()
        .map(|f| f.to_string())
        .collect();
    let corpus_ok = findings.is_empty() != must_fail;
    if !json {
        for f in &findings {
            println!("{f}");
        }
        if must_fail {
            println!("  caught on {} of {} cases", findings.len(), corpus.len());
        } else if findings.is_empty() {
            println!("  ok  {} cases clean", corpus.len());
        }
        println!("\nfuzz: {}", verdict(ok && corpus_ok));
    }
    ok &= corpus_ok;

    Ok(FuzzBatteryOut {
        battery: "fuzz",
        ok,
        seeds,
        regressions,
        corpus_cases,
        findings,
    })
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
