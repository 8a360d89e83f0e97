//! Event-engine throughput benchmark driver.
//!
//! Default mode runs the full scale grid (both engines) and writes
//! `BENCH_sim_engine.json` to the current directory — run it from the
//! repo root in release mode:
//!
//! ```text
//! cargo run --release -p mlm-bench --bin sim_bench
//! ```
//!
//! `--check` compares the fresh numbers against the committed
//! `BENCH_sim_engine.json` at two severities:
//!
//! * **hard failure** (nonzero exit, `::error::`) when any *family*'s
//!   optimized-vs-reference speedup falls below 1.0× — the optimized
//!   engine must never be slower than the naive loop it replaced (this
//!   locks in the barrier-storm fix) — or when the static schedule
//!   verifier fails to prove the largest committed spec safe in under
//!   100 ms (the `drive_verified()` preflight budget), or when a scale's engine
//!   counters drift from the committed ones: `timeline_events` or
//!   `rate_recomputes` differs, or `stale_events` or `heap_peak` rises,
//!   or when the proof's `visited` edge count rises. The counters are
//!   exact, so this part of the gate has no noise;
//! * **warning** (`::warning::`, exit 0) when a scale's optimized
//!   events/sec drifts more than 20% below the committed baseline — perf
//!   drift on shared CI runners is a signal, not a gate.

use std::collections::HashMap;
use std::fs;
use std::process::ExitCode;

use mlm_bench::sim_bench::{run_all, BenchReport, Measurement};

const OUT: &str = "BENCH_sim_engine.json";
/// Warn when a scale's optimized events/sec falls below this fraction of
/// the committed baseline.
const REGRESSION_FLOOR: f64 = 0.80;

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");

    let baseline: Option<BenchReport> = if check {
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

    let report = run_all();

    println!(
        "{:<22} {:>9} {:>14} {:>14} {:>9}",
        "scale", "events", "opt ev/s", "ref ev/s", "speedup"
    );
    for m in &report.scales {
        println!(
            "{:<22} {:>9} {:>14.0} {:>14.0} {:>8.2}x",
            m.name, m.events, m.optimized_events_per_sec, m.reference_events_per_sec, m.speedup
        );
    }
    println!(
        "largest-scale speedup: {:.2}x (acceptance floor: 5x)",
        report.largest_scale_speedup
    );
    let gv = &report.graph_verify;
    println!(
        "graph-verify: {} ({} chunks, {} nodes, {} edges) proved {} in {:.2} ms (budget: 100 ms), {} edges visited",
        gv.spec,
        gv.chunks,
        gv.nodes,
        gv.edges,
        if gv.safe { "safe" } else { "UNSAFE" },
        gv.best_millis,
        gv.visited
    );

    if check {
        // The static verifier is a drive_verified() preflight: it must prove the
        // largest committed spec safe, and fast enough to sit in front of
        // every run.
        if !gv.safe {
            println!(
                "::error::static verifier refuted the committed spec {} — \
                 the schedule or the analyzer regressed",
                gv.spec
            );
            return ExitCode::FAILURE;
        }
        if gv.best_millis > 100.0 {
            println!(
                "::error::static verification of {} took {:.2} ms (> 100 ms \
                 preflight budget)",
                gv.spec, gv.best_millis
            );
            return ExitCode::FAILURE;
        }
        // Per-family floor: every scale of every family must hold >= 1.0x
        // over the reference engine, on the fresh measurement.
        let mut family_min: HashMap<String, f64> = HashMap::new();
        for m in &report.scales {
            let e = family_min.entry(m.family.clone()).or_insert(f64::INFINITY);
            *e = e.min(m.speedup);
        }
        let mut families: Vec<_> = family_min.into_iter().collect();
        families.sort_by(|a, b| a.0.cmp(&b.0));
        let mut failed = false;
        for (fam, min) in families {
            if min < 1.0 {
                failed = true;
                println!(
                    "::error::family {fam}: optimized engine is SLOWER than the \
                     reference ({min:.2}x < 1.0x)"
                );
            }
        }
        if failed {
            return ExitCode::FAILURE;
        }
    }

    if let Some(base) = baseline {
        let old: HashMap<&str, &Measurement> =
            base.scales.iter().map(|m| (m.name.as_str(), m)).collect();
        let mut drifted = false;
        if gv.visited > base.graph_verify.visited {
            drifted = true;
            println!(
                "::error::graph-verify visited {} edges, committed {}: the proof's work \
                 grew; re-bless {OUT} only if that is intended",
                gv.visited, base.graph_verify.visited
            );
        }
        for m in &report.scales {
            let Some(prev) = old.get(m.name.as_str()) else {
                continue;
            };
            // Exact counters: the first two must not move at all, the
            // last two may only fall.
            for (counter, now, was, may_fall) in [
                (
                    "timeline_events",
                    m.timeline_events,
                    prev.timeline_events,
                    false,
                ),
                (
                    "rate_recomputes",
                    m.rate_recomputes,
                    prev.rate_recomputes,
                    false,
                ),
                ("stale_events", m.stale_events, prev.stale_events, true),
                ("heap_peak", m.heap_peak as u64, prev.heap_peak as u64, true),
            ] {
                if now > was || (now < was && !may_fall) {
                    drifted = true;
                    println!(
                        "::error::{} {counter} is {now}, committed {was}: the engine's \
                         work changed; re-bless {OUT} only if that is intended",
                        m.name
                    );
                }
            }
            let prev = prev.optimized_events_per_sec;
            if prev > 0.0 && m.optimized_events_per_sec < REGRESSION_FLOOR * prev {
                println!(
                    "::warning::sim_engine throughput regression at {}: \
                     {:.0} events/sec vs baseline {:.0} ({:+.1}%)",
                    m.name,
                    m.optimized_events_per_sec,
                    prev,
                    100.0 * (m.optimized_events_per_sec / prev - 1.0)
                );
            }
        }
        return if drifted {
            ExitCode::FAILURE
        } else {
            ExitCode::SUCCESS
        };
    }
    // Check mode never rewrites the committed baseline, not even one it
    // could not read.
    if check {
        return ExitCode::SUCCESS;
    }

    let json = serde_json::to_string(&report).expect("report serializes");
    fs::write(OUT, json + "\n").expect("write BENCH_sim_engine.json");
    println!("wrote {OUT}");
    ExitCode::SUCCESS
}
