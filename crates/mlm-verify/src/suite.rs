//! The `check-all` battery: the canonical paper configuration, a gallery
//! of known-bad specs, and every protocol model — each with its expected
//! verdict.
//!
//! The suite is data, not a binary, so the CLI (`mlm-verify check-all`),
//! CI, and the crate's own tests all execute exactly the same checks. A
//! *passing* suite means: the paper spec lints clean, every known-bad
//! spec is rejected by the lint that owns its bug class, every shipped
//! protocol verifies exhaustively, and every regression model (the
//! pre-dataflow-fix PSRS race, the three condvar disciplines the ring
//! must not use) still fails.

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_core::pipeline::{PipelineSpec, Placement, Workload};

use mlm_exec::Stage;

use crate::catalogue::CATALOGUE;
use crate::check::{check, CheckOptions, Model};
use crate::diag::LintReport;
use crate::lint::{lint_target, VerifyTarget};
use crate::models::condvar::CondvarModel;
use crate::models::psrs::{PsrsModel, PsrsVariant};

/// The pipeline configuration the paper's §4 out-of-core experiments use:
/// a KNL 7250 streaming 8 GiB of DDR data through 1 GiB MCDRAM buffers
/// with 8-thread copy pools and a 64-thread compute pool.
pub fn paper_spec() -> PipelineSpec {
    PipelineSpec {
        total_bytes: 8 << 30,
        chunk_bytes: 1 << 30,
        p_in: 8,
        p_out: 8,
        p_comp: 64,
        compute_passes: 4,
        compute_rate: 6.78e9,
        copy_rate: 4.8e9,
        placement: Placement::Hbw,
        lockstep: true,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// The machine the paper ran on, in flat mode.
pub fn paper_machine() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

/// One lint check of the suite.
pub struct LintCase {
    /// Human-readable name of the case.
    pub name: &'static str,
    /// The lint id that must fire at error level; `None` means the spec
    /// must lint clean.
    pub expect_error: Option<&'static str>,
    /// What the linter actually said.
    pub report: LintReport,
}

impl LintCase {
    /// Did the linter meet the expectation?
    pub fn ok(&self) -> bool {
        match self.expect_error {
            None => !self.report.has_errors(),
            Some(id) => self.report.error_ids().contains(&id),
        }
    }
}

/// Lint the canonical spec and the known-bad gallery.
///
/// Each bad spec represents a distinct mistake class: degenerate geometry,
/// misaligned chunks, buffers that overflow MCDRAM, a placement the memory
/// mode cannot satisfy, thread oversubscription, and non-finite rates.
pub fn run_lint_suite() -> Vec<LintCase> {
    let machine = paper_machine();
    let mut out = Vec::new();

    let spec = paper_spec();
    out.push(LintCase {
        name: "paper spec on KNL 7250 (flat)",
        expect_error: None,
        report: lint_target(&VerifyTarget::new(&spec, &machine)),
    });

    let mut s = paper_spec();
    s.p_comp = 0;
    out.push(LintCase {
        name: "no compute threads",
        expect_error: Some("V000"),
        report: lint_target(&VerifyTarget::new(&s, &machine)),
    });

    let mut s = paper_spec();
    s.chunk_bytes = (1 << 30) + 3;
    out.push(LintCase {
        name: "chunk not a multiple of the element size",
        expect_error: Some("V001"),
        report: lint_target(&VerifyTarget::new(&s, &machine)),
    });

    // Three live 8 GiB chunks want 24 GiB of a 16 GiB MCDRAM.
    let mut s = paper_spec();
    s.chunk_bytes = 8 << 30;
    s.total_bytes = 24 << 30;
    out.push(LintCase {
        name: "ring of chunks overflows MCDRAM",
        expect_error: Some("G003"),
        report: lint_target(&VerifyTarget::new(&s, &machine)),
    });

    let s = paper_spec();
    let cache_machine = MachineConfig::knl_7250(MemMode::Cache);
    out.push(LintCase {
        name: "Hbw placement on a cache-mode machine",
        expect_error: Some("V003"),
        report: lint_target(&VerifyTarget::new(&s, &cache_machine)),
    });

    let mut s = paper_spec();
    s.p_comp = 512;
    out.push(LintCase {
        name: "thread oversubscription",
        expect_error: Some("V005"),
        report: lint_target(&VerifyTarget::new(&s, &machine)),
    });

    let mut s = paper_spec();
    s.copy_rate = f64::NAN;
    out.push(LintCase {
        name: "NaN copy rate",
        expect_error: Some("V006"),
        report: lint_target(&VerifyTarget::new(&s, &machine)),
    });

    // Six paper specs at once want 6 × 3 GiB of buffer rings from a
    // 16 GiB MCDRAM — an over-admitted co-schedule the serving broker
    // must never produce.
    let s = paper_spec();
    let others: Vec<PipelineSpec> = (0..5).map(|_| paper_spec()).collect();
    out.push(LintCase {
        name: "concurrent job set oversubscribes MCDRAM",
        expect_error: Some("V009"),
        report: lint_target(&VerifyTarget::new(&s, &machine).with_co_scheduled(&others)),
    });

    // A 12 GiB strict ring clears every single-node lint on a 16 GiB
    // machine, yet fits no node of an all-8-GiB fleet: the dispatcher
    // would bounce it at submission, so the plan must fail statically.
    let mut s = paper_spec();
    s.chunk_bytes = 4 << 30;
    s.total_bytes = 32 << 30;
    let small_fleet = vec![
        mlm_fleet::NodeConfig::new(machine.clone(), 8 << 30, false),
        mlm_fleet::NodeConfig::new(machine.clone(), 8 << 30, false),
    ];
    out.push(LintCase {
        name: "strict ring fits no node of the fleet",
        expect_error: Some("V011"),
        report: lint_target(&VerifyTarget::new(&s, &machine).with_fleet(&small_fleet, true)),
    });

    // The paper spec's 3 GiB ring is feasible on the mixed 8/16 GiB
    // fleet the fleet study sweeps.
    let s = paper_spec();
    let mixed = mlm_fleet::FleetConfig::mixed_8_16(machine.clone(), 4, false).nodes;
    out.push(LintCase {
        name: "paper spec on the mixed 8/16 GiB fleet",
        expect_error: None,
        report: lint_target(&VerifyTarget::new(&s, &machine).with_fleet(&mixed, true)),
    });

    out
}

/// One model check of the suite.
pub struct ModelRun {
    /// The model's self-description.
    pub name: String,
    /// States explored.
    pub states: usize,
    /// Transitions explored.
    pub transitions: usize,
    /// Rendered violation, when one was found.
    pub violation: Option<String>,
    /// True for regression models that exist to fail.
    pub expect_violation: bool,
}

impl ModelRun {
    /// Did the checker meet the expectation?
    pub fn ok(&self) -> bool {
        self.violation.is_some() == self.expect_violation
    }
}

fn run_one<M: Model>(model: &M, expect_violation: bool) -> ModelRun {
    let r = check(model, CheckOptions::default());
    ModelRun {
        name: model.name(),
        states: r.states,
        transitions: r.transitions,
        violation: r.violation.as_ref().map(|v| format!("{v:?}")),
        expect_violation,
    }
}

/// Exhaustively check every protocol model.
///
/// Shipped protocols (must verify): the 3-slot ring at condvar
/// granularity, with and without an injected panic, and the deferring
/// PSRS exchange on 3 nodes. Regression models (must fail): the strict
/// PSRS variant — the seed's race, fixed by the deferred-message drain —
/// and the catalogue's three broken condvar disciplines.
pub fn run_model_suite() -> Vec<ModelRun> {
    model_suite(true)
}

/// Names and expectations of the suite's models, without running the
/// (comparatively expensive) exhaustive checks.
pub fn model_catalog() -> Vec<(String, bool)> {
    model_suite(false)
        .into_iter()
        .map(|r| (r.name, r.expect_violation))
        .collect()
}

fn model_suite(run: bool) -> Vec<ModelRun> {
    fn one<M: Model>(run: bool, model: &M, expect_violation: bool) -> ModelRun {
        if run {
            run_one(model, expect_violation)
        } else {
            ModelRun {
                name: model.name(),
                states: 0,
                transitions: 0,
                violation: None,
                expect_violation,
            }
        }
    }
    let mut suite = vec![
        // Shipped protocols.
        one(run, &CondvarModel::correct(3, 4), false),
        one(
            run,
            &CondvarModel {
                panic_at: Some((Stage::Compute, 0)),
                ..CondvarModel::correct(3, 3)
            },
            false,
        ),
        one(run, &PsrsModel::shipped(3), false),
        // Regression models: each must still fail. The PSRS race is not a
        // `drive_verified()` bug, so it is listed here; the condvar ones come from
        // the must-fail catalogue.
        one(
            run,
            &PsrsModel {
                nodes: 3,
                variant: PsrsVariant::Strict,
            },
            true,
        ),
    ];
    suite.extend(
        CATALOGUE
            .iter()
            .filter_map(|row| row.condvar)
            .map(|model| one(run, &model, true)),
    );
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lint_suite_meets_every_expectation() {
        for case in run_lint_suite() {
            assert!(
                case.ok(),
                "{}: expected {:?}, got:\n{}",
                case.name,
                case.expect_error,
                case.report
            );
        }
    }

    #[test]
    fn lint_suite_rejects_at_least_five_classes() {
        let distinct: std::collections::BTreeSet<_> = run_lint_suite()
            .iter()
            .filter_map(|c| c.expect_error)
            .collect();
        assert!(distinct.len() >= 5, "only {distinct:?}");
    }

    #[test]
    fn catalog_matches_the_suite() {
        let names: Vec<_> = run_model_suite().into_iter().map(|r| r.name).collect();
        let catalog: Vec<_> = model_catalog().into_iter().map(|(n, _)| n).collect();
        assert_eq!(names, catalog);
    }

    #[test]
    fn model_suite_meets_every_expectation() {
        for run in run_model_suite() {
            assert!(
                run.ok(),
                "{}: expect_violation={}, violation={:?}",
                run.name,
                run.expect_violation,
                run.violation
            );
        }
    }
}
