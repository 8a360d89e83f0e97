//! Cross-crate assertions for the static schedule verifier.
//!
//! The analyzer (`mlm_exec::graph`) proves properties over *every*
//! linearization of the plan `drive()` interprets; these tests tie
//! it to the rest of the workspace: the fuzz corpus must prove safe, the
//! five buggy constructions of the must-fail catalogue must be refuted
//! with counterexample traces (no fuzz seeds involved) and caught by every
//! other layer their row names, the simulator preflight must accept the
//! paper spec, and the whole thing must be fast enough to sit in front of
//! every run.

use std::time::Instant;

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::Simulator;
use mlm_exec::fuzz::{default_corpus, fuzz_case, replay, Construction};
use mlm_verify::catalogue::CATALOGUE;
use mlm_verify::check::{check, CheckOptions};
use mlm_verify::graph::{graph_report_for, largest_committed_spec, run_graph_suite};
use mlm_verify::suite::{paper_machine, paper_spec};

/// Every fuzz-corpus case proves race-free, deadlock-free, and within the
/// ring/MCDRAM bounds statically — the proof covers all linearizations,
/// where the 100-seed sweep samples a few thousand.
#[test]
fn fuzz_corpus_is_statically_safe() {
    let machine = paper_machine();
    for case in default_corpus() {
        let report = graph_report_for(&case.spec, &machine).expect("corpus specs are driveable");
        assert!(report.is_safe(), "{}:\n{report}", case.name);
        assert!(
            report.peak_live_chunks <= case.spec.ring_slots(),
            "{}: peak {} chunks on a {}-slot ring",
            case.name,
            report.peak_live_chunks,
            case.spec.ring_slots()
        );
    }
}

/// The full suite (corpus + committed specs + must-fail constructions)
/// holds, and each must-fail case is caught with a counterexample trace.
#[test]
fn graph_suite_expectations_hold() {
    let cases = run_graph_suite();
    assert!(cases.len() > 30);
    for case in &cases {
        assert!(
            case.ok(),
            "{}: expected {:?}, fired {:?}",
            case.name,
            case.expect,
            case.fired()
        );
    }
    let must_fail = cases.iter().filter(|c| !c.expect.is_empty()).count();
    assert_eq!(
        must_fail,
        CATALOGUE.len(),
        "one static refutation per catalogue row"
    );
}

/// Every layer agrees on every bug: for each row of the must-fail
/// catalogue the analyzer refutes the row's schedule statically, the
/// committed fuzz trace reproduces the row's violation (and fuzzing from
/// the committed seed re-derives that very trace), the trace runs clean
/// on the correct construction, and the condvar model the row mirrors,
/// if any, fails the model check.
#[test]
fn static_findings_subsume_the_fuzzed_violations() {
    for row in &CATALOGUE {
        let name = row.construction.name();
        // Static: every G-code fires, each finding with a trace.
        let report = row.graph_report().expect("catalogue specs are driveable");
        for code in row.g_codes {
            assert!(
                report.codes().contains(code),
                "{name}: static analyzer missed {code}:\n{report}"
            );
        }
        assert!(
            report.findings.iter().all(|f| !f.trace.is_empty()),
            "{report}"
        );
        // Dynamic: the trace reproduces the kind, and is clean on Correct.
        let buggy = row.fuzz_case(row.construction);
        let run = replay(&buggy, row.shrunk).expect("catalogue cases are driveable");
        let kind = run.outcome.violation().map(|v| v.kind());
        assert_eq!(kind, Some(row.fuzz_kind), "{name}: fuzzer lost the bug");
        let correct = replay(&row.fuzz_case(Construction::Correct), row.shrunk)
            .expect("catalogue cases are driveable");
        assert!(correct.outcome.violation().is_none(), "{name}: {correct:?}");
        let found = fuzz_case(&buggy, row.seed, 1).expect("catalogue cases are driveable");
        assert_eq!(
            found.first().map(|f| f.shrunk.as_slice()),
            Some(row.shrunk),
            "{name}: seed {} no longer shrinks to the committed trace",
            row.seed
        );
        // Model: the mirrored condvar discipline fails the check.
        if let Some(model) = &row.condvar {
            let r = check(model, CheckOptions::default());
            assert!(r.violation.is_some(), "{name}: condvar model verified: {r}");
        }
    }
}

/// The simulator's preflight accepts the paper spec and reports the
/// §3 ring bound: exactly 3 chunks (slots) live at peak, regardless of
/// how many chunks stream through.
#[test]
fn simulator_preflight_proves_the_paper_spec() {
    let sim = Simulator::try_new(paper_machine()).expect("paper machine is valid");
    let report = sim
        .preflight_spec(&paper_spec())
        .expect("paper spec must verify");
    assert_eq!(report.peak_live_chunks, 3);
    assert_eq!(
        report.peak_hbw_bytes,
        3 * paper_spec().chunk_bytes,
        "peak occupancy is ring slots x chunk size"
    );

    // And the same machine refuses a spec whose ring cannot fit: tiny
    // machine (64 MiB MCDRAM), 32 MiB chunks -> 96 MiB ring.
    let tiny = Simulator::try_new(MachineConfig::tiny(MemMode::Flat)).expect("tiny is valid");
    let mut fat = paper_spec();
    fat.total_bytes = 128 << 20;
    fat.chunk_bytes = 32 << 20;
    let err = tiny
        .preflight_spec(&fat)
        .expect_err("96 MiB ring in 64 MiB MCDRAM");
    assert!(err.to_string().contains("G003"), "{err}");
}

/// Lenient wall-clock smoke for the acceptance budget: the release-mode
/// gate (<100 ms, enforced by `sim_bench --check`) gets an order of
/// magnitude of debug-mode headroom here, so the test flags only
/// catastrophic blowups (e.g. an accidentally quadratic closure).
#[test]
fn verifier_latency_smoke() {
    let (name, spec) = largest_committed_spec();
    let machine = paper_machine();
    // Warm up, then best-of-3.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        let report = graph_report_for(&spec, &machine).expect("committed spec is driveable");
        assert!(report.is_safe());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    assert!(
        best < 1.0,
        "{name}: static verification took {best:.3}s even in debug mode"
    );
}
