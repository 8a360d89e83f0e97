//! The schedule-fuzzing battery: clean corpus sweeps plus the committed
//! must-fail regression traces.
//!
//! The model checker ([`crate::check`]) explores hand-built models of the
//! condvar/PSRS protocols; [`mlm_exec::fuzz`] adversarially executes the
//! *actual* schedule `drive()` issues. This module ties the two together
//! the same way [`crate::suite`] does for models:
//!
//! * [`run_fuzz_corpus`] sweeps the default corpus (every placement and
//!   schedule mode, [`Construction::Correct`], no faults) over N seeds per
//!   case — any finding is a real orchestrator bug and fails CI;
//! * [`run_fuzz_regressions`] replays the shrunk trace of every row of
//!   the must-fail [`CATALOGUE`] and asserts that the buggy construction
//!   still reproduces the row's violation *and* that the identical trace
//!   runs clean under [`Construction::Correct`] — if either stops being
//!   true, the fuzzer has lost the bug class.
//!
//! `mlm-verify fuzz --construction <name>` runs the corpus as a buggy
//! construction and prints each case's first finding, shrunk: that is how
//! the catalogue's traces were found (see EXPERIMENTS.md).

use mlm_exec::fuzz::{default_corpus, fuzz_case, replay, Construction, Finding, FuzzCase, Outcome};
use mlm_exec::DriveError;

use crate::catalogue::CATALOGUE;

/// Outcome of replaying one catalogue row's trace.
#[derive(Debug, Clone)]
pub struct FuzzRegressionRun {
    /// The row's one-line name.
    pub name: &'static str,
    /// What the buggy construction produced on the committed trace.
    pub buggy_violation: Option<String>,
    /// Whether the violation matched the row's kind.
    pub caught: bool,
    /// Whether the same trace runs clean under the correct construction.
    pub clean_on_correct: bool,
    /// Trace length (must stay ≤ 20 to remain a useful regression).
    pub trace_len: usize,
    /// Set when the row's case could not be driven at all.
    pub error: Option<DriveError>,
}

impl FuzzRegressionRun {
    /// True when the regression still does its job.
    pub fn ok(&self) -> bool {
        self.error.is_none() && self.caught && self.clean_on_correct && self.trace_len <= 20
    }
}

/// Replay every catalogue row's trace on its buggy construction (must
/// reproduce the row's violation kind) and on [`Construction::Correct`]
/// (must run clean). A row whose case cannot be driven comes back failed,
/// carrying the error, rather than aborting the battery.
pub fn run_fuzz_regressions() -> Vec<FuzzRegressionRun> {
    CATALOGUE
        .iter()
        .map(|row| {
            let mut run = FuzzRegressionRun {
                name: row.what,
                buggy_violation: None,
                caught: false,
                clean_on_correct: false,
                trace_len: row.shrunk.len(),
                error: None,
            };
            let on = |construction| replay(&row.fuzz_case(construction), row.shrunk);
            match (on(row.construction), on(Construction::Correct)) {
                (Ok(buggy), Ok(clean)) => {
                    let violation = buggy.outcome.violation();
                    run.caught = violation.is_some_and(|v| v.kind() == row.fuzz_kind);
                    run.buggy_violation = violation.map(ToString::to_string);
                    // With the poison fault still injected, "clean" means
                    // the correct construction drains the poison instead of
                    // touching the slot.
                    run.clean_on_correct = !matches!(clean.outcome, Outcome::Violation(_));
                }
                (Err(e), _) | (_, Err(e)) => run.error = Some(e),
            }
            run
        })
        .collect()
}

/// The default corpus as `mlm-verify fuzz` narrows it: the cases whose
/// name contains `filter`, executed by `construction`, with a kernel panic
/// on chunk `panic_chunk`. A fault must address an action the schedule
/// issues, so cases with too few chunks for the panic are dropped.
pub fn fuzz_corpus(
    filter: Option<&str>,
    construction: Construction,
    panic_chunk: Option<usize>,
) -> Vec<FuzzCase> {
    default_corpus()
        .into_iter()
        .filter(|c| filter.is_none_or(|f| c.name.contains(f)))
        .filter(|c| panic_chunk.is_none_or(|k| c.spec.n_chunks() > k))
        .map(|mut c| {
            c.construction = construction;
            c.faults.kernel_panic = panic_chunk;
            c
        })
        .collect()
}

/// Sweep `corpus` over the seeds `base..base + seeds`; findings come back
/// shrunk. A [`Construction::Correct`] case reports every finding (each
/// is an orchestrator bug); a buggy construction stops at its first
/// finding per case, which is all a must-fail run needs. `Err` means a
/// case cannot be driven.
pub fn run_fuzz_corpus(
    corpus: &[FuzzCase],
    base: u64,
    seeds: u64,
) -> Result<Vec<Finding>, DriveError> {
    let mut findings = Vec::new();
    for case in corpus {
        if case.construction == Construction::Correct {
            findings.extend(fuzz_case(case, base, seeds)?);
            continue;
        }
        for seed in base..base + seeds {
            if let Some(first) = fuzz_case(case, seed, 1)?.into_iter().next() {
                findings.push(first);
                break;
            }
        }
    }
    Ok(findings)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalogue::BugRow;

    #[test]
    fn committed_regressions_still_bite_and_pass_on_main() {
        for run in run_fuzz_regressions() {
            assert!(
                run.ok(),
                "{}: caught={} clean_on_correct={} trace_len={} ({:?}, {:?})",
                run.name,
                run.caught,
                run.clean_on_correct,
                run.trace_len,
                run.buggy_violation,
                run.error
            );
        }
    }

    /// Every non-`Correct` construction has exactly one catalogue row,
    /// and the rows together cover lockstep and dataflow, map and stencil,
    /// and a fault.
    #[test]
    fn regression_battery_covers_all_five_classes() {
        for construction in Construction::ALL {
            let rows = CATALOGUE
                .iter()
                .filter(|r| r.construction == construction)
                .count();
            let want = usize::from(construction != Construction::Correct);
            assert_eq!(rows, want, "{}", construction.name());
        }
        let any = |p: fn(&BugRow) -> bool| CATALOGUE.iter().any(p);
        assert!(any(|r| r.lockstep) && any(|r| !r.lockstep));
        assert!(any(|r| r.stencil) && any(|r| !r.stencil));
        assert!(any(|r| r.kernel_panic.is_some()));
    }

    #[test]
    fn small_corpus_sweep_is_clean() {
        // The full 1000-seed sweep is the CI `fuzz` job; keep the unit
        // test fast but real.
        let corpus = fuzz_corpus(None, Construction::Correct, None);
        let findings = run_fuzz_corpus(&corpus, 0, 25).unwrap();
        assert!(findings.is_empty(), "{findings:?}");
    }
}
