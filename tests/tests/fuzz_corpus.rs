//! The seeded schedule-fuzzing corpus.
//!
//! Sweeps `mlm_exec::fuzz`'s default corpus — every placement and
//! schedule mode `drive()` emits, at several chunk geometries — with
//! adversarial seed-controlled schedules, and replays the must-fail
//! catalogue's committed regression traces (`mlm_verify::catalogue`). The
//! default run covers well over 1000 distinct schedules; CI's `fuzz` job
//! runs the same corpus wider (1000 seeds per case) via `mlm-verify fuzz`.

use mlm_exec::fuzz::{
    default_corpus, fuzz_seed, replay, shrink, Construction, FaultPlan, FuzzCase, Outcome,
};
use mlm_exec::Placement;
use mlm_verify::catalogue::CATALOGUE;
use mlm_verify::fuzzsuite::run_fuzz_regressions;
use proptest::prelude::*;

/// 100 seeds x 25 map-family cases plus 250 seeds x 10 stencil cases =
/// 5000 adversarial schedules, at least 2500 of them over halo-edge
/// geometries (incl. the ragged tail). Any finding on the correct
/// construction is a real orchestrator bug.
#[test]
fn corpus_sweep_finds_nothing_on_the_correct_construction() {
    let corpus = default_corpus();
    let mut schedules = 0u64;
    let mut stencil_schedules = 0u64;
    for case in &corpus {
        let stencil = case.name.starts_with("stencil");
        let seeds = if stencil { 250 } else { 100 };
        for seed in 0..seeds {
            let run = fuzz_seed(case, seed).expect("corpus cases are driveable");
            assert_eq!(run.outcome, Outcome::Ok, "{} seed {seed}", case.name);
            schedules += 1;
            if stencil {
                stencil_schedules += 1;
            }
        }
    }
    assert!(
        schedules >= 1000,
        "default run must cover >= 1000 schedules"
    );
    assert!(
        stencil_schedules >= 2500,
        "stencil sweep must cover >= 2500 halo-edge schedules, got {stencil_schedules}"
    );
}

/// Every committed regression seed still reproduces its violation on the
/// buggy construction, with a shrunk trace of at most 20 decisions, and
/// the identical trace runs clean on the shipped construction.
#[test]
fn committed_regression_seeds_reproduce_and_pass_on_main() {
    let runs = run_fuzz_regressions();
    assert_eq!(
        runs.len(),
        CATALOGUE.len(),
        "one regression per catalogue row"
    );
    for run in runs {
        assert!(run.error.is_none(), "{}: {:?}", run.name, run.error);
        assert!(run.caught, "{}: violation no longer reproduces", run.name);
        assert!(
            run.clean_on_correct,
            "{}: trace violates the CORRECT construction",
            run.name
        );
        assert!(run.trace_len <= 20, "{}: trace too long", run.name);
    }
}

/// The regression traces are genuinely minimal-ish: replaying each
/// buggy construction with an *empty* tape (pure natural order) must NOT
/// reproduce the bug for the regressions that carry a nonempty trace —
/// i.e. the recorded decisions are load-bearing.
#[test]
fn nonempty_regression_traces_are_load_bearing() {
    for row in CATALOGUE.iter().filter(|r| !r.shrunk.is_empty()) {
        let case = row.fuzz_case(row.construction);
        let natural = replay(&case, &[]).expect("regression cases are driveable");
        let replayed = replay(&case, row.shrunk).expect("regression cases are driveable");
        assert!(
            replayed.outcome.violation().is_some(),
            "{}: committed trace lost the bug",
            row.what
        );
        // Natural order may or may not fail for some constructions; what
        // matters is that the committed trace is not vacuously equal to it.
        if natural.outcome.violation().is_none() {
            assert_ne!(natural.outcome, replayed.outcome, "{}", row.what);
        }
    }
}

/// Determinism across the crate boundary: seed in, identical trace out.
#[test]
fn seeds_are_reproducible_across_processes() {
    let corpus = default_corpus();
    let case = corpus
        .iter()
        .find(|c| c.name == "hbw-dataflow-7")
        .expect("corpus contains hbw-dataflow-7");
    let a = fuzz_seed(case, 12345).expect("corpus cases are driveable");
    let b = fuzz_seed(case, 12345).expect("corpus cases are driveable");
    assert_eq!(a.decisions, b.decisions);
    assert_eq!(a.outcome, Outcome::Ok);
    // And the recorded trace replays to the same outcome.
    let c = replay(case, &a.decisions).expect("corpus cases are driveable");
    assert_eq!(c.outcome, a.outcome);
}

/// The corpus construction helpers stay honest: all default cases are
/// correct-construction and fault-free (anything else belongs in the
/// regression battery, not the clean sweep).
#[test]
fn default_corpus_is_clean_by_construction() {
    for case in default_corpus() {
        assert_eq!(case.construction, Construction::Correct, "{}", case.name);
        assert_eq!(case.faults.kernel_panic, None, "{}", case.name);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The shrinker's truncation + lowering loop reaches a fixed point:
    /// shrinking an already-shrunk trace changes nothing, and the result
    /// still reproduces the violation class it was shrunk for. Random
    /// tapes on a known-buggy construction give a steady supply of real
    /// violations to shrink.
    #[test]
    fn shrinker_reaches_a_fixed_point_on_random_tapes(
        tape in proptest::collection::vec(0u32..8, 0..40)
    ) {
        let case = FuzzCase {
            name: "prop-drop-recycle".into(),
            spec: mlm_exec::fuzz::corpus_spec(256, Placement::Hbw, false),
            construction: Construction::DropRecycleDep,
            faults: FaultPlan::NONE,
        };
        let run = replay(&case, &tape).expect("corpus spec is driveable");
        if let Some(v) = run.outcome.violation() {
            let kind = v.kind();
            let once = shrink(&case, &run.decisions, kind);
            let twice = shrink(&case, &once, kind);
            prop_assert_eq!(&once, &twice, "second shrink must be a no-op");
            prop_assert!(once.len() <= run.decisions.len());
            let rerun = replay(&case, &once).expect("corpus spec is driveable");
            let still = rerun.outcome.violation().map(|v| v.kind());
            prop_assert_eq!(still, Some(kind), "shrunk trace must keep the violation class");
        }
    }
}
