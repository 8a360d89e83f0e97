//! The lint gate: build and run simulator programs only for specs the
//! linter accepts.
//!
//! [`checked_program`] is the verified front door to
//! [`mlm_core::pipeline::sim::build_program`]: it runs the full lint
//! registry first and refuses to lower a spec with any error-level
//! finding. [`run_checked`] goes one step further and executes the
//! program. The bench harness (`mlm-bench`) routes its experiment specs
//! through this gate so a mis-configured sweep fails with a diagnostic
//! instead of a panic deep inside the engine — or, worse, a silently
//! wrong experiment.

use std::fmt;

use knl_sim::error::SimError;
use knl_sim::ops::Program;
use knl_sim::report::SimReport;
use knl_sim::Simulator;

use crate::diag::LintReport;
use crate::lint::{lint_target, VerifyTarget};

/// Why a checked build or run did not produce a result.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The linter found error-level problems; the spec was never lowered.
    Rejected(LintReport),
    /// The linter passed but lowering the spec failed (a linter gap —
    /// worth a new lint).
    Lowering(String),
    /// The simulator itself failed.
    Sim(SimError),
}

impl fmt::Display for VerifyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerifyError::Rejected(report) => {
                writeln!(f, "spec rejected by the linter:")?;
                write!(f, "{report}")
            }
            VerifyError::Lowering(msg) => write!(f, "spec passed lints but failed to lower: {msg}"),
            VerifyError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for VerifyError {}

impl From<SimError> for VerifyError {
    fn from(e: SimError) -> Self {
        VerifyError::Sim(e)
    }
}

/// Lint the target, statically verify the schedule it would emit, and —
/// when clean of errors — lower it to a simulator [`Program`]. Returns
/// the full report (V-series lints plus G-series graph diagnostics) so
/// callers can still surface warnings.
pub fn checked_program(target: &VerifyTarget<'_>) -> Result<(Program, LintReport), VerifyError> {
    let mut report = lint_target(target);
    if report.has_errors() {
        return Err(VerifyError::Rejected(report));
    }
    // Field-level lints passed; now prove the emitted schedule itself
    // (race/deadlock/occupancy, G001–G006) against this machine's
    // addressable MCDRAM. A spec the verifier cannot even plan is a
    // linter gap, same as a lowering failure.
    let graph_report = crate::graph::graph_report_for(target.spec, target.machine)
        .map_err(|e| VerifyError::Lowering(e.to_string()))?;
    report
        .diagnostics
        .extend(crate::graph::report_diagnostics(&graph_report));
    if report.has_errors() {
        return Err(VerifyError::Rejected(report));
    }
    let prog =
        mlm_core::pipeline::sim::build_program(target.spec).map_err(VerifyError::Lowering)?;
    Ok((prog, report))
}

/// Lint, lower, and execute the target on its machine.
pub fn run_checked(target: &VerifyTarget<'_>) -> Result<(SimReport, LintReport), VerifyError> {
    let (prog, report) = checked_program(target)?;
    let sim = Simulator::try_new(target.machine.clone())?;
    let r = sim.run_checked(&prog)?;
    Ok((r, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::{MachineConfig, MemMode};
    use mlm_core::pipeline::{PipelineSpec, Placement, Workload};

    fn spec() -> PipelineSpec {
        PipelineSpec {
            total_bytes: 6 << 20,
            chunk_bytes: 2 << 20,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 2e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    #[test]
    fn clean_spec_builds_and_runs() {
        let s = spec();
        let m = MachineConfig::tiny(MemMode::Flat);
        let target = VerifyTarget::new(&s, &m);
        let (report, lints) = run_checked(&target).expect("clean spec must run");
        assert!(report.makespan > 0.0);
        assert!(!lints.has_errors());
    }

    #[test]
    fn error_spec_is_rejected_before_lowering() {
        let mut s = spec();
        s.chunk_bytes = 0; // V000 territory
        let m = MachineConfig::tiny(MemMode::Flat);
        let target = VerifyTarget::new(&s, &m);
        match checked_program(&target) {
            Err(VerifyError::Rejected(report)) => assert!(report.has_errors()),
            other => panic!("zero chunk must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn hbw_spec_on_cache_machine_is_rejected() {
        // The class of mistake the gate exists for: a placement the
        // machine's memory mode cannot satisfy would panic inside the
        // engine; the gate catches it with a diagnostic instead.
        let s = spec();
        let m = MachineConfig::tiny(MemMode::Cache);
        let target = VerifyTarget::new(&s, &m);
        match run_checked(&target) {
            Err(VerifyError::Rejected(report)) => {
                assert!(report.error_ids().contains(&"V003"), "{report}");
            }
            other => panic!("Hbw-on-cache must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn capability_starved_backend_is_rejected() {
        // The machine is fine; the *backend* chosen to execute the spec
        // cannot place flat-MCDRAM buffers. checked_program must refuse
        // before lowering, exactly as mlm_exec::drive would at run time.
        let s = spec();
        let m = MachineConfig::tiny(MemMode::Flat);
        let target = VerifyTarget::new(&s, &m).with_backend(mlm_exec::Capabilities::cache_mode());
        match checked_program(&target) {
            Err(VerifyError::Rejected(report)) => {
                assert!(report.error_ids().contains(&"V010"), "{report}");
            }
            other => panic!("capability mismatch must be rejected, got {other:?}"),
        }
    }

    #[test]
    fn rejected_error_renders_diagnostics() {
        let mut s = spec();
        s.p_in = 0;
        s.p_out = 0;
        s.p_comp = 0;
        let m = MachineConfig::tiny(MemMode::Flat);
        let err = checked_program(&VerifyTarget::new(&s, &m)).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("rejected by the linter"), "{text}");
        assert!(text.contains("error["), "{text}");
    }
}
