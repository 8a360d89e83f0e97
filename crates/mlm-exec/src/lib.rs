//! # mlm-exec — the backend execution layer
//!
//! The paper's central discipline (§3) is *one* schedule — step `s` copies
//! in chunk `s`, computes on chunk `s-1`, copies out chunk `s-2` over a
//! three-slot buffer ring — executed against different memory systems.
//! Before this crate existed the repo encoded that schedule twice per
//! subsystem: once in each `host.rs` (real threads, real buffers) and once
//! in each `sim.rs` (a [`knl-sim`] op graph), and the two copies drifted
//! (the dataflow fix of PR 2 landed in the host path only).
//!
//! `mlm-exec` holds the orchestration *once*:
//!
//! * [`PipelineSpec`] + [`Placement`] — the shared vocabulary of a chunked
//!   execution (moved here from `mlm-core::pipeline`, which re-exports
//!   them);
//! * [`Backend`] — the primitive surface a memory system must offer:
//!   issue one plan node, close a lockstep step, tell the time;
//! * [`plan`] — the workload-generic plan IR ([`WorkloadPlan`]): a DAG of
//!   stage-in / compute-kernel / stage-out nodes with tagged dependency
//!   edges (sequencing, dataflow, buffer recycling, inter-chunk halo)
//!   and declared buffers and footprints, that every workload family
//!   lowers into and every executor interprets — the one statement of
//!   where each buffer lives ([`pipeline_buffers`] for a pipeline,
//!   [`SortTiers`] for a sort);
//! * [`drive_verified`] — the one pipeline entry point: it builds the
//!   plan for the spec's workload (map or halo-exchanging stencil;
//!   lockstep, dataflow, and implicit cache mode), proves it, and
//!   interprets it over the backend;
//! * [`graph`] — the static schedule verifier ([`graph::analyze`],
//!   diagnostics G001–G006), which reads the same [`WorkloadPlan`]
//!   [`drive_verified`] interprets;
//! * [`RunReport`]/[`StageReport`] — the unified stats every backend
//!   returns;
//! * [`RecordingBackend`] — a composable wrapper that turns any backend
//!   into an event-trace producer, making host ≡ sim equivalence a
//!   property test instead of folklore;
//! * [`SortPlan`] — the megachunk-level phase sequence of the §4 sort
//!   algorithms, which [`SortPlan::to_workload_plan`] lowers onto the
//!   generic IR so [`interpret`] drives sorts like every other plan.
//!
//! Concrete backends live next to the machinery they adapt: the host
//! adapters over `parsort::pool` in `mlm-core::pipeline::host` and
//! `mlm-core::sort::host`, the simulator adapters over `knl-sim` in
//! `mlm-core::pipeline::sim` and `mlm-core::sort::sim`. This
//! crate deliberately depends on nothing but `serde`, so every layer of
//! the workspace (including `knl-sim` and `mlm-memkind`) can share its
//! vocabulary without dependency cycles.
//!
//! [`knl-sim`]: https://example.org/mlm-knl

#![warn(missing_docs)]

pub mod backend;
pub mod drive;
pub mod error;
pub mod graph;
pub mod placement;
pub mod plan;
pub mod recording;
pub mod report;
pub mod ring;
pub mod sortplan;
pub mod spec;

pub use backend::{Backend, ChunkAction, KernelCtx, Stage};
pub use drive::{drive_verified, RING_SLOTS, STENCIL_RING_SLOTS};
pub use error::DriveError;
pub use placement::Placement;
pub use plan::{
    declared_bytes, interpret, pipeline_buffers, plan_pipeline, Access, BufferId, EdgeKind,
    KernelDesc, PlanBuffer, PlanEdge, PlanKind, PlanNode, WorkloadPlan,
};
pub use recording::{Event, NullBackend, RecordingBackend};
pub use report::{RunReport, StageReport};
pub use sortplan::{
    mega_size, plan_sort, ChunkSortStyle, SortPhase, SortPlan, SortStructure, SortTiers,
    BUFFERED_COPY_THREADS, SORT_KERNEL_CHUNK_SORT, SORT_KERNEL_FINAL_MERGE, SORT_KERNEL_MERGE_RUNS,
    SORT_KERNEL_THREAD_MERGE, SORT_KERNEL_THREAD_SORT,
};
pub use spec::{PipelineSpec, Workload};
