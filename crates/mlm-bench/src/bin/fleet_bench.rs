//! Fleet dispatcher throughput benchmark driver (the placement study's
//! CSV is the registry's: `study fleet`).
//!
//! Two modes, run from the repo root in release:
//!
//! * `--bench` — run the million-job throughput benchmark (16 nodes ×
//!   [`BENCH_JOBS_PER_NODE`] jobs, one cell per `BENCH_PLACEMENTS`
//!   policy) and write `BENCH_fleet.json` with jobs/sec and the decision
//!   digests.
//! * `--check` — re-run the benchmark and compare against the committed
//!   `BENCH_fleet.json`: **hard failure** (`::error::`, nonzero exit)
//!   when any placement decision digest drifts, when best-fit-hbw no
//!   longer beats least-loaded on strict-HBW p99, or when one of the
//!   dispatcher's work counters (events, node re-tunes, profile searches,
//!   steal attempts and probes) exceeds the committed one — they are
//!   exact for a given trace, so that gate cannot flake; **warning**
//!   (`::warning::`, exit 0) when jobs/sec falls more than 20% below the
//!   baseline — wall-clock noise on shared runners is a signal, not a
//!   gate. Check mode never rewrites the baseline.

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

use mlm_bench::fleet::{run_fleet_bench, FleetBenchCell, FleetBenchReport, BENCH_JOBS_PER_NODE};
use mlm_bench::report::secs;

const OUT: &str = "BENCH_fleet.json";
/// Warn when a cell's jobs/sec falls below this fraction of the baseline.
const REGRESSION_FLOOR: f64 = 0.80;

fn print_bench(report: &FleetBenchReport) {
    println!(
        "\nFleet bench — {} nodes, {} jobs per cell",
        report.nodes, report.total_jobs
    );
    println!(
        "{:<14} {:>9} {:>9} {:>8} {:>11} {:>12} {:>19}",
        "placement", "jobs", "rejected", "steals", "jobs/sec", "strict_p99", "digest"
    );
    for c in &report.cells {
        println!(
            "{:<14} {:>9} {:>9} {:>8} {:>11.0} {:>12} {:>19}",
            c.placement,
            c.jobs,
            c.rejected,
            c.steals,
            c.jobs_per_sec,
            secs(c.strict_p99),
            c.digest
        );
    }
    println!("\ndispatcher work per cell (exact counts)");
    for c in &report.cells {
        let work: Vec<String> = c
            .work
            .iter()
            .flat_map(|w| w.named())
            .map(|(k, n)| format!("{k} {n}"))
            .collect();
        println!("{:<14} {}", c.placement, work.join("  "));
    }
}

/// The study's headline claim, at full scale: best-fit-hbw must beat
/// least-loaded on strict-HBW p99.
fn claim_holds(report: &FleetBenchReport) -> bool {
    let p99 = |label: &str| {
        report
            .cells
            .iter()
            .find(|c| c.placement == label)
            .map(|c| c.strict_p99)
    };
    match (p99("best-fit-hbw"), p99("least-loaded")) {
        (Some(best), Some(spread)) => best < spread,
        _ => false,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let check = args.iter().any(|a| a == "--check");
    let bench = args.iter().any(|a| a == "--bench");

    if !check && !bench {
        eprintln!("usage: fleet_bench --bench | --check");
        return ExitCode::from(2);
    }

    let baseline: Option<FleetBenchReport> = if check {
        match fs::read_to_string(OUT) {
            Ok(text) => match serde_json::from_str(&text) {
                Ok(report) => Some(report),
                Err(e) => {
                    println!("::warning::{OUT} is unreadable ({e}); skipping comparison");
                    None
                }
            },
            Err(_) => {
                println!("::warning::no committed {OUT}; skipping comparison");
                None
            }
        }
    } else {
        None
    };

    let report = run_fleet_bench(BENCH_JOBS_PER_NODE).expect("fleet bench failed");
    print_bench(&report);

    if !claim_holds(&report) {
        println!(
            "::error::fleet claim violated: best-fit-hbw strict p99 no longer \
             beats least-loaded at {} nodes",
            report.nodes
        );
        return ExitCode::FAILURE;
    }
    println!("claim holds: best-fit-hbw < least-loaded on strict-HBW p99");

    if let Some(base) = baseline {
        let old: HashMap<&str, &FleetBenchCell> = base
            .cells
            .iter()
            .map(|c| (c.placement.as_str(), c))
            .collect();
        let mut drifted = false;
        for c in &report.cells {
            let Some(&committed) = old.get(c.placement.as_str()) else {
                println!("::warning::no baseline cell for {}", c.placement);
                continue;
            };
            let prev = committed.jobs_per_sec;
            // Placement decisions are deterministic: any digest change is
            // a behaviour change, not noise.
            if c.digest != committed.digest {
                drifted = true;
                println!(
                    "::error::placement decision drift at {}: digest {} vs committed {}",
                    c.placement, c.digest, committed.digest
                );
            }
            // So is the work: a counter that rose is a dispatcher that
            // got more expensive per event, on any machine.
            if let (Some(now), Some(was)) = (&c.work, &committed.work) {
                for ((name, now), (_, was)) in now.named().into_iter().zip(was.named()) {
                    if now > was {
                        drifted = true;
                        println!(
                            "::error::dispatcher work regression at {}: {name} {now} vs committed {was}",
                            c.placement
                        );
                    }
                }
            }
            if prev > 0.0 && c.jobs_per_sec < REGRESSION_FLOOR * prev {
                println!(
                    "::warning::fleet throughput regression at {}: {:.0} jobs/sec \
                     vs baseline {:.0} ({:+.1}%)",
                    c.placement,
                    c.jobs_per_sec,
                    prev,
                    100.0 * (c.jobs_per_sec / prev - 1.0)
                );
            }
        }
        if drifted {
            return ExitCode::FAILURE;
        }
        // Check mode never rewrites the committed baseline.
        return ExitCode::SUCCESS;
    }

    if check {
        return ExitCode::SUCCESS;
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    fs::write(OUT, json + "\n").expect("write BENCH_fleet.json");
    println!("wrote {OUT}");
    ExitCode::SUCCESS
}
