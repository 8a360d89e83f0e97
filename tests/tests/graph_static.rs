//! Cross-crate assertions for the static schedule verifier.
//!
//! The analyzer (`mlm_exec::graph`) proves properties over *every*
//! linearization of the plan `drive()` interprets; these tests tie
//! it to the rest of the workspace: the corpus must prove safe, also
//! under a kernel panic on any chunk, the five buggy constructions of the
//! must-fail catalogue must be refuted with counterexample traces and
//! caught by every other layer their row names, the plan-time gate
//! (`lint_target`) must accept the paper spec, and the whole thing must be
//! fast enough to sit in front of every run.

use std::time::Instant;

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_exec::graph::{analyze, AnalysisConfig, Construction};
use mlm_exec::{plan_pipeline, Placement};
use mlm_verify::catalogue::CATALOGUE;
use mlm_verify::check::{check, CheckOptions};
use mlm_verify::graph::{
    default_corpus, graph_report_for, largest_committed_spec, run_graph_suite,
};
use mlm_verify::lint::{lint_target, VerifyTarget};
use mlm_verify::suite::{paper_machine, paper_spec};

/// Every corpus case proves race-free, deadlock-free, and within the
/// ring/MCDRAM bounds statically — the proof covers all linearizations.
#[test]
fn fuzz_corpus_is_statically_safe() {
    let machine = paper_machine();
    for (name, spec) in default_corpus() {
        let report = graph_report_for(&spec, &machine).expect("corpus specs are driveable");
        assert!(report.is_safe(), "{name}:\n{report}");
        assert!(
            report.peak_live_chunks <= spec.ring_slots(),
            "{name}: peak {} chunks on a {}-slot ring",
            report.peak_live_chunks,
            spec.ring_slots()
        );
    }
}

/// The poison proof over the whole corpus: for every explicit-placement
/// case and every chunk `k`, a kernel panic on `k` drains cleanly under
/// the correct construction (everything touching the poisoned slot is
/// either ordered before the panic or a cancelled dependent), and leaks
/// the poisoned slot (G001) when poison does not cancel dependents.
#[test]
fn kernel_panic_on_any_chunk_drains_the_whole_corpus() {
    let mut analyses = 0;
    for (name, spec) in default_corpus() {
        if spec.placement == Placement::Implicit {
            continue;
        }
        let plan = plan_pipeline(&spec);
        for k in 0..spec.n_chunks() {
            let on = |construction| {
                let cfg = AnalysisConfig {
                    construction,
                    kernel_panic: Some(k),
                    ..AnalysisConfig::default()
                };
                analyze(&plan, &spec, &cfg)
            };
            let clean = on(Construction::Correct);
            assert!(clean.is_safe(), "{name}, panic on chunk {k}:\n{clean}");
            let leaky = on(Construction::PoisonSkipLock);
            assert!(
                leaky.codes().contains(&"G001"),
                "{name}, panic on chunk {k}: poison-skip-lock not refuted:\n{leaky}"
            );
            analyses += 2;
        }
    }
    assert_eq!(
        analyses, 216,
        "6 explicit modes x 18 chunks x 2 constructions"
    );
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
/// catalogue the analyzer refutes the row's schedule statically, and the
/// condvar model the row mirrors, if any, fails the model check.
#[test]
fn static_findings_subsume_the_fuzzed_violations() {
    for row in &CATALOGUE {
        let name = row.construction.name();
        // Static: the row is refuted, every G-code fires, each finding
        // with a trace.
        let report = row.graph_report().expect("catalogue specs are driveable");
        assert!(
            !row.g_codes.is_empty() && !report.is_safe(),
            "{name}: the analyzer does not refute the row:\n{report}"
        );
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
        // Model: the mirrored condvar discipline fails the check.
        if let Some(model) = &row.condvar {
            let r = check(model, CheckOptions::default());
            assert!(r.violation.is_some(), "{name}: condvar model verified: {r}");
        }
    }
}

/// The plan-time gate accepts the paper spec and reports the §3 ring
/// bound: exactly 3 chunks (slots) live at peak, regardless of how many
/// chunks stream through.
#[test]
fn spec_gate_proves_the_paper_spec() {
    let machine = paper_machine();
    let lints = lint_target(&VerifyTarget::new(&paper_spec(), &machine));
    assert!(lints.is_clean(), "{lints}");
    let report = graph_report_for(&paper_spec(), &machine).expect("paper spec must verify");
    assert!(report.is_safe(), "{report}");
    assert_eq!(report.peak_live_chunks, 3);
    assert_eq!(
        report.peak_hbw_bytes,
        3 * paper_spec().chunk_bytes,
        "peak occupancy is ring slots x chunk size"
    );

    // And the proof refuses a spec whose ring cannot fit: tiny machine
    // (64 MiB MCDRAM), 32 MiB chunks -> 96 MiB ring.
    let tiny = MachineConfig::tiny(MemMode::Flat);
    let mut fat = paper_spec();
    fat.total_bytes = 128 << 20;
    fat.chunk_bytes = 32 << 20;
    let report = graph_report_for(&fat, &tiny).expect("fat spec is driveable");
    assert!(
        report.findings.iter().any(|f| f.check.code() == "G003"),
        "96 MiB ring in 64 MiB MCDRAM:\n{report}"
    );
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
