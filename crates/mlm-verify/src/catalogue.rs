//! The must-fail catalogue: one row per buggy executor construction.
//!
//! Each bug of the buffer-ring protocol is written down once, here, and
//! every layer that must catch it reads its row:
//!
//! * the `graph` battery ([`crate::graph`]) analyses the row's spec as
//!   the construction would execute it and must fire the row's G-codes,
//!   each with a counterexample trace;
//! * the `models` battery ([`crate::suite`]) checks the condvar model the
//!   row mirrors, if it has one, and that check must fail.

use mlm_exec::graph::{analyze, AnalysisConfig, Construction, GraphReport};
use mlm_exec::{plan_pipeline, DriveError, PipelineSpec, Placement, Stage};

use crate::graph::{corpus_spec, corpus_stencil_spec};
use crate::models::condvar::{CondvarModel, CvVariant};

/// One buggy construction and what each layer must report about it.
#[derive(Debug, Clone, Copy)]
pub struct BugRow {
    /// The buggy executor.
    pub construction: Construction,
    /// What goes wrong, in one line.
    pub what: &'static str,
    /// Lockstep schedule (`false`: dataflow).
    pub lockstep: bool,
    /// Stencil workload (`false`: map).
    pub stencil: bool,
    /// Chunk whose kernel panics, for bugs that live on the poison path.
    pub kernel_panic: Option<usize>,
    /// G-codes the static analyzer must fire.
    pub g_codes: &'static [&'static str],
    /// The condvar regression model this row mirrors at mutex/condvar
    /// granularity, if any; it must fail the model check.
    pub condvar: Option<CondvarModel>,
}

impl BugRow {
    /// The four-chunk corpus spec the row runs on.
    pub fn spec(&self) -> PipelineSpec {
        if self.stencil {
            corpus_stencil_spec(256, self.lockstep)
        } else {
            corpus_spec(256, Placement::Hbw, self.lockstep)
        }
    }

    /// The static analyzer's verdict on the row's plan as the buggy
    /// construction executes it.
    pub fn graph_report(&self) -> Result<GraphReport, DriveError> {
        let spec = self.spec();
        spec.validate().map_err(DriveError::Spec)?;
        let cfg = AnalysisConfig {
            construction: self.construction,
            kernel_panic: self.kernel_panic,
            ..AnalysisConfig::default()
        };
        Ok(analyze(&plan_pipeline(&spec), &cfg))
    }
}

/// Every buggy construction, once.
pub const CATALOGUE: [BugRow; 5] = [
    // Drop the copy-out → copy-in buffer-recycling edges and a later
    // chunk's copy-in lands on a slot still holding live data.
    BugRow {
        construction: Construction::DropRecycleDep,
        what: "dropped recycling edge clobbers a live slot",
        lockstep: false,
        stencil: false,
        kernel_panic: None,
        g_codes: &["G001", "G004"],
        condvar: None,
    },
    // After a kernel panic the executor keeps scheduling the panicked
    // chunk's dependents; the copy-out touches the poisoned slot instead
    // of being cancelled.
    BugRow {
        construction: Construction::PoisonSkipLock,
        what: "poison ignored, dependent touches poisoned slot",
        lockstep: false,
        stencil: false,
        kernel_panic: Some(1),
        g_codes: &["G001"],
        condvar: Some(CondvarModel {
            slots: 3,
            chunks: 3,
            variant: CvVariant::PoisonSkipLock,
            panic_at: Some((Stage::Compute, 0)),
            spurious_budget: 0,
        }),
    },
    // A barrier completion wakes only its first waiter; the rest of the
    // step starves.
    BugRow {
        construction: Construction::NotifyOne,
        what: "notify-one wakeup starves later waiters",
        lockstep: true,
        stencil: false,
        kernel_panic: None,
        g_codes: &["G002"],
        condvar: Some(CondvarModel {
            slots: 3,
            chunks: 4,
            variant: CvVariant::NotifyOne,
            panic_at: None,
            spurious_budget: 0,
        }),
    },
    // A barrier becomes runnable on its first dependency's completion
    // without rechecking the rest; the next step opens while the previous
    // one is still in flight.
    BugRow {
        construction: Construction::NoRecheck,
        what: "missing predicate recheck opens the step early",
        lockstep: true,
        stencil: false,
        kernel_panic: None,
        g_codes: &["G001"],
        condvar: Some(CondvarModel {
            slots: 3,
            chunks: 4,
            variant: CvVariant::NoRecheck,
            panic_at: None,
            spurious_budget: 0,
        }),
    },
    // The stencil compute no longer waits for its right neighbour's
    // stage-in; the kernel folds a missing halo into the output. Lockstep
    // stencils are immune (barriers order every step), so the row is
    // dataflow.
    BugRow {
        construction: Construction::DropHaloDep,
        what: "dropped halo edge folds stale neighbour data",
        lockstep: false,
        stencil: true,
        kernel_panic: None,
        g_codes: &["G001"],
        condvar: None,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    /// Every non-`Correct` construction has exactly one catalogue row,
    /// and the rows together cover lockstep and dataflow, map and stencil,
    /// and a fault.
    #[test]
    fn catalogue_covers_all_five_classes() {
        for (i, row) in CATALOGUE.iter().enumerate() {
            assert_ne!(row.construction, Construction::Correct, "{}", row.what);
            assert!(
                CATALOGUE[..i]
                    .iter()
                    .all(|r| r.construction != row.construction),
                "{} has two rows",
                row.construction.name()
            );
        }
        let any = |p: fn(&BugRow) -> bool| CATALOGUE.iter().any(p);
        assert!(any(|r| r.lockstep) && any(|r| !r.lockstep));
        assert!(any(|r| r.stencil) && any(|r| !r.stencil));
        assert!(any(|r| r.kernel_panic.is_some()));
    }
}
