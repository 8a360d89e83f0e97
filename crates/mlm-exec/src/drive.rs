//! The chunk-schedule orchestrator.
//!
//! This module does not hand-roll the paper's §3 schedule:
//! [`drive_verified`] builds the plan for the spec's workload family with
//! [`plan_pipeline`](crate::plan::plan_pipeline), proves it, and walks it
//! over the backend with [`interpret`]. Backends (host thread pools, the
//! op-level simulator, recorders) only interpret the plan's nodes; the
//! schedule itself — which chunk each stage touches at each step, which
//! buffer slot it occupies, and which dependencies order the work — lives
//! in one place, the plan builder.

use crate::backend::Backend;
use crate::error::DriveError;
use crate::graph::{prove, GraphReport};
use crate::plan::interpret;
use crate::spec::PipelineSpec;

/// Number of rotating chunk buffers for chunk-local (map) workloads.
/// Three lets step `s` overlap copy-in of chunk `s`, compute on `s-1`,
/// and copy-out of `s-2` (paper Fig. 2); chunk `c` always occupies slot
/// `c % RING_SLOTS`.
pub const RING_SLOTS: usize = 3;

/// Ring depth for the stencil family. A compute reads its *right*
/// neighbour's staged halo, so it trails the stage-in front by two steps
/// instead of one — a fourth slot keeps the pipeline full while chunk
/// `c + 1` lands. Stencil slots also carry separate in/out buffers
/// (see [`PipelineSpec::buffers_per_slot`]): computing in place would
/// corrupt the halo bytes the next compute still has to read.
pub const STENCIL_RING_SLOTS: usize = 4;

/// Prove the chunk schedule of `spec` and walk it over `backend`: the one
/// pipeline entry point, so every run interprets a plan it proved.
///
/// * **Explicit placements** ([`Placement::Hbw`](crate::placement::Placement::Hbw)/
///   [`Placement::Ddr`](crate::placement::Placement::Ddr)): the map family
///   runs steps `0..n+2` where step `s` issues copy-in of chunk `s`,
///   compute on `s-1`, and copy-out of `s-2`; the stencil family runs
///   steps `0..n+3` with compute on `s-2` and copy-out of `s-3`, since a
///   compute also waits for its right neighbour's halo. With
///   `spec.lockstep` every action in a step depends on the previous
///   step's barrier and a new barrier closes the step; without it, only
///   dataflow edges order the work — compute waits on the stage-ins it
///   reads (its own chunk, plus halo edges to both neighbours for
///   stencils), copy-out on its compute, and copy-in of chunk `c` waits
///   for every reader of the chunk previously occupying its slot
///   (buffer recycling).
/// * **[`Placement::Implicit`](crate::placement::Placement::Implicit)**:
///   no copies — every chunk is one compute action followed by a barrier
///   (all threads advance chunk by chunk through the cache).
///
/// Builds the plan once, proves it race- and deadlock-free over every
/// linearization (and within the MCDRAM budget when `hbw_budget` is
/// given), and only then interprets that same plan over `backend`, so a
/// clean verdict covers the actual execution, not a model of it. On
/// success the [`GraphReport`] (with the proven peak-occupancy bound) is
/// returned alongside the completed run.
///
/// Errors come in the order [`DriveError::Spec`] (the spec fails
/// validation; nothing is issued), [`DriveError::Verification`] (a fatal
/// finding, carrying the rendered report with its counterexample trace;
/// nothing is issued), then [`DriveError::Protocol`] for mid-walk
/// dependency bookkeeping failures and [`DriveError::Backend`] for a
/// failing backend `finish`. Whether the machine can hold the placement
/// is the budget's question here and mlm-verify's lints' at plan time,
/// not a backend property.
pub fn drive_verified<B: Backend<Ctx = PipelineSpec>>(
    backend: &mut B,
    spec: &PipelineSpec,
    hbw_budget: Option<u64>,
) -> Result<GraphReport, DriveError> {
    let (plan, report) = prove(spec, hbw_budget)?;
    if !report.is_safe() {
        return Err(DriveError::Verification(report.to_string()));
    }
    interpret(backend, spec, &plan)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{ChunkAction, Stage};
    use crate::placement::Placement;
    use crate::plan::{PlanNode, WorkloadPlan};
    use crate::spec::Workload;

    /// A backend that records issue order and checks dependency sanity.
    #[derive(Default)]
    struct Probe {
        issued: Vec<ChunkAction>,
        barriers: usize,
        finished: bool,
        fail_finish: bool,
    }

    impl Backend for Probe {
        type Ctx = PipelineSpec;
        type Token = usize;

        fn issue(
            &mut self,
            _spec: &PipelineSpec,
            _plan: &WorkloadPlan,
            node: &PlanNode,
            deps: &[usize],
        ) -> usize {
            for &d in deps {
                assert!(d < self.issued.len() + self.barriers, "dep from the future");
            }
            self.issued
                .push(node.action().expect("pipeline nodes are chunk-scoped"));
            self.issued.len() + self.barriers - 1
        }

        fn step_barrier(&mut self, _spec: &PipelineSpec, _after: &[usize]) -> usize {
            self.barriers += 1;
            self.issued.len() + self.barriers - 1
        }

        fn finish(&mut self, _spec: &PipelineSpec) -> Result<(), String> {
            self.finished = true;
            if self.fail_finish {
                return Err("probe refused to finish".into());
            }
            Ok(())
        }
    }

    fn spec(n_chunks: u64, lockstep: bool, placement: Placement) -> PipelineSpec {
        PipelineSpec {
            total_bytes: n_chunks * 64,
            chunk_bytes: 64,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement,
            lockstep,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn stencil_spec(n_chunks: u64, lockstep: bool) -> PipelineSpec {
        PipelineSpec {
            workload: Workload::Stencil { halo_bytes: 16 },
            ..spec(n_chunks, lockstep, Placement::Hbw)
        }
    }

    #[test]
    fn explicit_schedule_covers_every_chunk_once_per_stage() {
        for lockstep in [true, false] {
            let s = spec(5, lockstep, Placement::Hbw);
            let mut b = Probe::default();
            drive_verified(&mut b, &s, None).unwrap();
            assert!(b.finished);
            for stage in [Stage::CopyIn, Stage::Compute, Stage::CopyOut] {
                let chunks: Vec<usize> = b
                    .issued
                    .iter()
                    .filter(|a| a.stage == stage)
                    .map(|a| a.chunk)
                    .collect();
                assert_eq!(
                    chunks,
                    vec![0, 1, 2, 3, 4],
                    "{stage:?} under lockstep={lockstep}"
                );
            }
            // Lockstep closes all n + 2 steps with barriers.
            assert_eq!(b.barriers, if lockstep { 7 } else { 0 });
        }
    }

    #[test]
    fn slots_follow_the_three_slot_ring() {
        let s = spec(7, false, Placement::Hbw);
        let mut b = Probe::default();
        drive_verified(&mut b, &s, None).unwrap();
        assert!(b.issued.iter().all(|a| a.slot == a.chunk % RING_SLOTS));
    }

    #[test]
    fn stencil_schedule_covers_every_chunk_on_a_four_slot_ring() {
        for lockstep in [true, false] {
            let s = stencil_spec(6, lockstep);
            let mut b = Probe::default();
            drive_verified(&mut b, &s, None).unwrap();
            assert!(b.finished);
            for stage in [Stage::CopyIn, Stage::Compute, Stage::CopyOut] {
                let chunks: Vec<usize> = b
                    .issued
                    .iter()
                    .filter(|a| a.stage == stage)
                    .map(|a| a.chunk)
                    .collect();
                assert_eq!(chunks, vec![0, 1, 2, 3, 4, 5], "{stage:?}");
            }
            assert!(b
                .issued
                .iter()
                .all(|a| a.slot == a.chunk % STENCIL_RING_SLOTS));
            // Steps 0..n+3, all non-empty for n = 6.
            assert_eq!(b.barriers, if lockstep { 9 } else { 0 });
        }
    }

    #[test]
    fn stencil_compute_trails_the_stage_in_front_by_two() {
        let s = stencil_spec(5, false);
        let mut b = Probe::default();
        drive_verified(&mut b, &s, None).unwrap();
        // Compute on chunk c must come after copy-in of chunk c + 1 (its
        // right halo) in issue order.
        for c in 0..4usize {
            let comp = b
                .issued
                .iter()
                .position(|a| a.stage == Stage::Compute && a.chunk == c)
                .unwrap();
            let in_right = b
                .issued
                .iter()
                .position(|a| a.stage == Stage::CopyIn && a.chunk == c + 1)
                .unwrap();
            assert!(comp > in_right, "compute {c} before its right halo landed");
        }
    }

    #[test]
    fn implicit_schedule_is_compute_only() {
        let s = spec(4, true, Placement::Implicit);
        let mut b = Probe::default();
        drive_verified(&mut b, &s, None).unwrap();
        assert!(b.issued.iter().all(|a| a.stage == Stage::Compute));
        assert_eq!(b.issued.len(), 4);
        assert_eq!(b.barriers, 4);
    }

    #[test]
    fn drive_verified_gates_before_any_work() {
        let s = spec(5, false, Placement::Hbw);
        let mut b = Probe::default();
        let report = drive_verified(&mut b, &s, Some(1 << 20)).unwrap();
        assert!(b.finished);
        assert_eq!(report.peak_hbw_bytes, RING_SLOTS as u64 * 64);
        // A budget below the proven peak (3 x 64 bytes) refuses the run
        // before the backend sees anything.
        let mut b = Probe::default();
        let err = drive_verified(&mut b, &s, Some(100)).unwrap_err();
        assert!(
            matches!(&err, DriveError::Verification(msg) if msg.contains("G003")),
            "{err}"
        );
        assert!(b.issued.is_empty());
        assert!(!b.finished);
    }

    #[test]
    fn failing_finish_surfaces_as_a_backend_error() {
        let s = spec(4, false, Placement::Hbw);
        let mut b = Probe {
            fail_finish: true,
            ..Probe::default()
        };
        let err = drive_verified(&mut b, &s, None).unwrap_err();
        assert!(
            matches!(&err, DriveError::Backend(msg) if msg == "probe refused to finish"),
            "{err}"
        );
        // Every node was issued before finish refused.
        assert_eq!(b.issued.len(), 12);
    }

    #[test]
    fn drive_verified_reports_errors_in_spec_verification_order() {
        // An invalid spec is a Spec error even with a budget nothing fits.
        let mut bad = spec(4, true, Placement::Hbw);
        bad.p_comp = 0;
        let mut b = Probe::default();
        let err = drive_verified(&mut b, &bad, Some(0)).unwrap_err();
        assert!(matches!(err, DriveError::Spec(_)), "{err}");
        // A valid spec over budget fails verification.
        let s = spec(4, true, Placement::Hbw);
        let err = drive_verified(&mut b, &s, Some(0)).unwrap_err();
        assert!(matches!(err, DriveError::Verification(_)), "{err}");
        assert!(b.issued.is_empty());
    }

    #[test]
    fn invalid_spec_is_refused() {
        let mut s = spec(4, true, Placement::Hbw);
        s.p_comp = 0;
        let mut b = Probe::default();
        assert!(drive_verified(&mut b, &s, None).is_err());
        assert!(b.issued.is_empty());
    }
}
