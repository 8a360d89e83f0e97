//! `study` — the one front end of the study registry
//! ([`mlm_bench::studies`]). Run from the repo root, in release:
//!
//! ```text
//! study list               # every study and the CSVs it owns
//! study table1 fig7        # run the named studies: print, write results/<csv>.csv
//! study --all              # the whole evaluation, with seconds per study
//! study --check [name…]    # regenerate in memory, compare with results/, write nothing
//! ```
//!
//! Any failure — a driver error, a study's self-check, a CSV that cannot
//! be written or that differs from the committed one — prints
//! `study <name>: <reason>` and makes the exit status nonzero; the
//! remaining studies still run, so one report names every failure.

use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;

use mlm_bench::report::{render_table, write_csv};
use mlm_bench::studies::{find, Study, STUDIES};

/// Where the committed CSVs live, relative to the repo root.
const RESULTS: &str = "results";

/// Run one study: print its tables and write their CSVs.
fn regenerate(study: &Study) -> Result<(), String> {
    for table in study.tables()? {
        let text = render_table(&table.headers, &table.rows);
        println!("{}\n\n{text}", table.title);
        if let Some(csv) = table.csv {
            let path =
                write_csv(Path::new(RESULTS), csv, &table.headers, &table.rows).map_err(|e| {
                    format!("study {}: cannot write results/{csv}.csv: {e}", study.name)
                })?;
            println!("wrote {path}\n");
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args == ["list"] {
        for s in STUDIES {
            println!("{:<14} {}  [{}]", s.name, s.about, s.csvs.join(" "));
        }
        return ExitCode::SUCCESS;
    }

    let mut checking = false;
    let mut selected: Vec<&Study> = Vec::new();
    for arg in &args {
        match arg.as_str() {
            "--check" => checking = true,
            "--all" => selected.extend(STUDIES),
            name => match find(name) {
                Ok(study) => selected.push(study),
                Err(e) => {
                    eprintln!("study: {e}");
                    return ExitCode::from(2);
                }
            },
        }
    }
    if selected.is_empty() && checking {
        selected.extend(STUDIES);
    }
    if selected.is_empty() {
        eprintln!("usage: study list | <name>… | --all | --check [<name>…]");
        return ExitCode::from(2);
    }

    // Seconds per study, printed together after the tables: the
    // end-to-end cost of regenerating every committed result, by study.
    let mut timings = Vec::new();
    let mut failures = 0;
    for study in &selected {
        let t0 = Instant::now();
        let outcome = if checking {
            let note = match study.host_measured {
                true => " on header and key columns (host-measured: the rest is wall-clock)",
                false => "",
            };
            let compared = study.check(Path::new(RESULTS));
            compared.map(|n| format!("{n} CSV(s) match{note}"))
        } else {
            regenerate(study).map(|()| "ok".to_string())
        };
        let status = outcome.unwrap_or_else(|e| {
            failures += 1;
            eprintln!("{e}");
            "FAILED".to_string()
        });
        timings.push((study.name, t0.elapsed().as_secs_f64(), status));
    }
    println!();
    for (name, seconds, status) in &timings {
        println!("{name:<14} {seconds:>7.2} s  {status}");
    }
    let total: f64 = timings.iter().map(|t| t.1).sum();
    println!("{:<14} {total:>7.2} s  {failures} failed", "total");
    if failures == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
