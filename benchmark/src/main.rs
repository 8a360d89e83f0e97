//! The repo's benchmark: six workloads from host kernels to fleet, three
//! end-to-end metrics, per-layer probes and a traced run. See
//! `benchmark/README.md` and the root `BENCHMARK.json`.
//!
//! ```text
//! mlm-benchmark run [--all | --workload W] [--seed S] [--seconds N]
//!                   [--trace [0|1]] [--smoke] [--out F.json]
//! mlm-benchmark run --bless
//! mlm-benchmark compare BASE.json NEW.json
//! ```
//!
//! `run --workload W` measures in this process and ends with the one-line
//! JSON result the driver reads. `run --all` (the default) starts one
//! process per workload, so `peak_rss_mib` is per workload, and can write
//! the collected report with `--out`.

mod check;
mod compare;
mod harness;
mod json;
mod metrics;
mod run;
mod trace;
mod workloads;

use std::process::{Command, ExitCode, Stdio};

use metrics::{Report, WorkloadReport, SCHEMA};
use run::{Expected, Options, DEFAULT_SECONDS, DEFAULT_SEED};
use workloads::Size;

/// Prefix of the line a per-workload process hands its full report to
/// the `--all` parent on.
const REPORT_MARK: &str = "REPORT ";

const USAGE: &str = "usage:
  mlm-benchmark run [--all | --workload W] [--seed S] [--seconds N] [--trace [0|1]] [--smoke] [--out F.json]
  mlm-benchmark run --bless
  mlm-benchmark compare BASE.json NEW.json
workloads: host_sort host_pipe sim_repro sim_fanin fleet_overload fleet_underload";

struct RunArgs {
    workload: Option<String>,
    opts: Options,
    traced: bool,
    bless: bool,
    out: Option<String>,
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        opts: Options {
            seed: DEFAULT_SEED,
            seconds: DEFAULT_SECONDS,
            size: Size::Full,
        },
        traced: false,
        bless: false,
        out: None,
    };
    let mut seconds = None;
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--all" => parsed.workload = None,
            "--workload" => {
                let name = value("a workload name")?;
                if workloads::find(&name).is_none() {
                    return Err(format!("unknown workload `{name}`"));
                }
                parsed.workload = Some(name);
            }
            "--seed" => {
                parsed.opts.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let given: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=3600.0).contains(&given) {
                    return Err(format!("--seconds {given} is out of range"));
                }
                seconds = Some(given);
            }
            // `--trace` alone switches tracing on; the driver spells it
            // `--trace 0` or `--trace 1`.
            "--trace" => {
                parsed.traced = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--smoke" => parsed.opts.size = Size::Smoke,
            "--bless" => parsed.bless = true,
            "--out" => parsed.out = Some(value("a file name")?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    // Unless told otherwise, a smoke run takes its minimum cycle count and stops.
    parsed.opts.seconds = seconds.unwrap_or(match parsed.opts.size {
        Size::Full => DEFAULT_SECONDS,
        Size::Smoke => 0.0,
    });
    Ok(parsed)
}

/// Measure one workload in this process.
fn run_here(name: &str, args: &RunArgs) -> Result<WorkloadReport, String> {
    let entry = workloads::find(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let expected = Expected::load();
    if args.traced {
        run::run_traced(entry, &args.opts, &expected)
    } else {
        Ok(run::run_untraced(entry, &args.opts, &expected))
    }
}

/// Measure one workload in a process of its own and collect its report.
fn run_child(name: &str, args: &RunArgs) -> Result<WorkloadReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["run", "--workload", name])
        .args(["--seed", &args.opts.seed.to_string()])
        .args(["--seconds", &args.opts.seconds.to_string()])
        .args(["--trace", if args.traced { "1" } else { "0" }])
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if args.opts.size == Size::Smoke {
        cmd.arg("--smoke");
    }
    // `output` waits for the child, so none outlives this call.
    let output = cmd
        .output()
        .map_err(|e| format!("cannot start the {name} process: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    // The child's last line is the driver's result line and its first the
    // machine block this process has already printed; neither is repeated.
    lines.pop();
    let mut report = None;
    for line in lines.into_iter().skip(1) {
        match line.strip_prefix(REPORT_MARK) {
            Some(json) => report = serde_json::from_str(json).ok(),
            None => println!("{line}"),
        }
    }
    if !output.status.success() {
        return Err(format!("the {name} process ended with {}", output.status));
    }
    report.ok_or_else(|| format!("the {name} process printed no report"))
}

fn cmd_run(args: &[String]) -> Result<bool, String> {
    let args = parse_run(args)?;
    if args.bless {
        let expected = run::bless()?;
        println!(
            "blessed {} values into {}",
            expected.pins.len(),
            Expected::path()
        );
        return Ok(true);
    }

    let machine = harness::Machine::detect();
    run::print_machine(&machine);
    if let Some(name) = &args.workload {
        let report = run_here(name, &args)?;
        run::print_report(&report, &args.opts, args.traced);
        let json = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        println!("{REPORT_MARK}{json}");
        println!("{}", run::contract_line(&report));
        // The result line carries `correct` and `failed`; a run that
        // measured and reported has done its job either way.
        return Ok(true);
    }

    let mut workloads = Vec::new();
    for entry in &workloads::ALL {
        workloads.push(run_child(entry.name, &args)?);
    }
    let (attempted, failed) = workloads
        .iter()
        .fold((0, 0), |(a, f), w| (a + w.ops_attempted, f + w.ops_failed));
    println!(
        "all workloads: ops_attempted {attempted}  ops_failed {failed}  ({})",
        args.opts.size.label()
    );
    if let Some(path) = &args.out {
        let report = Report {
            schema: SCHEMA,
            label: args.opts.size.label().to_string(),
            seed: args.opts.seed,
            seconds: args.opts.seconds,
            traced: args.traced,
            machine,
            workloads,
        };
        let text = serde_json::to_string(&report).map_err(|e| e.to_string())?;
        std::fs::write(path, json::pretty(&text) + "\n")
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("wrote {path}");
    }
    Ok(failed == 0)
}

fn cmd_compare(args: &[String]) -> Result<bool, String> {
    let [base_path, new_path] = args else {
        return Err("compare takes exactly two report files".into());
    };
    let load = |path: &String| -> Result<Report, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let report: Report = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
        if report.schema != SCHEMA {
            return Err(format!("{path}: schema {} is not {SCHEMA}", report.schema));
        }
        Ok(report)
    };
    let (base, new) = (load(base_path)?, load(new_path)?);
    if let Some(why) = compare::refusal(&base, &new) {
        return Err(format!("refusing to compare: {why}"));
    }
    let findings = compare::compare(&base, &new);
    for f in &findings {
        println!(
            "{}  {:<16} {}",
            if f.pass { "ok  " } else { "FAIL" },
            f.workload,
            f.what
        );
    }
    let failed = findings.iter().filter(|f| !f.pass).count();
    println!("{} checks, {failed} failed", findings.len());
    Ok(failed == 0)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => cmd_run(rest),
        Some((cmd, rest)) if cmd == "compare" => cmd_compare(rest),
        _ => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        // `run --all` with failed ops, or a failed comparison: reported above.
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("mlm-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}
