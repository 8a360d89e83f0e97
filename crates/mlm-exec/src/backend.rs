//! The [`Backend`] trait: what a memory system must offer so the shared
//! plan interpreter can run the paper's schedules on it.

use std::time::Duration;

use crate::plan::{PlanNode, WorkloadPlan};

/// One of the three pipeline stages of the §3 framework.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Stage {
    /// Stage a chunk from DDR into the chunk buffer.
    CopyIn,
    /// Run the kernel over the (staged or in-place) chunk.
    Compute,
    /// Drain the computed chunk back to DDR.
    CopyOut,
}

impl Stage {
    /// All stages in pipeline order.
    pub const ALL: [Stage; 3] = [Stage::CopyIn, Stage::Compute, Stage::CopyOut];
}

/// One unit of schedule work: apply `stage` to `chunk` in ring slot
/// `slot`.
///
/// The slot is `chunk % RING_SLOTS` — the orchestrator owns the
/// buffer-ring discipline; backends merely honour it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkAction {
    /// Which pipeline stage to run.
    pub stage: Stage,
    /// Chunk index within the run.
    pub chunk: usize,
    /// Buffer-ring slot the chunk occupies.
    pub slot: usize,
}

/// How a chunk kernel sees its slice of the current chunk.
///
/// Backends that run real kernels (the host adapters) hand one of these
/// to each compute task; `global_offset` makes a pure positional kernel
/// independent of how the backend slices chunks across threads — the
/// property the cross-backend equivalence tests rely on.
#[derive(Debug, Clone, Copy)]
pub struct KernelCtx {
    /// Chunk index within the run.
    pub chunk: usize,
    /// Compute-thread index within the pool.
    pub thread: usize,
    /// Global element offset of this slice within the whole data set.
    pub global_offset: usize,
}

/// A memory system [`interpret`](crate::plan::interpret) can drive a
/// [`WorkloadPlan`](crate::plan::WorkloadPlan) on.
///
/// Every plan — the §3 chunk schedule (lockstep, dataflow, implicit cache
/// mode) and the §4 sort phases alike — reaches a backend through three
/// primitives: *issue* one plan node with explicit dependencies, close a
/// lockstep *step barrier*, and *finish*. A backend may execute eagerly
/// (the simulators push ops as nodes are issued), in batches (the
/// lockstep host runs one task batch per step, the host sort one batch
/// per run of mutually independent nodes), or all at the end (the
/// dataflow host replays the recorded schedule on its stage pools) — the
/// dependency tokens carry enough structure for any of these.
pub trait Backend {
    /// The per-run context every call receives: the
    /// [`PipelineSpec`](crate::spec::PipelineSpec) for
    /// chunk-pipeline backends, the
    /// [`SortPlan`](crate::sortplan::SortPlan) for sort backends.
    type Ctx;

    /// Handle to issued work, used to express dependencies. The simulators
    /// use op-id lists, the host sort a node's issue index; the host
    /// pipeline, which realises dependencies through barriers or the
    /// buffer ring, uses `()`.
    type Token: Clone;

    /// Issue one node of `plan` that must run after every token in
    /// `deps`. Chunk-scoped nodes name their [`ChunkAction`] through
    /// [`PlanNode::action`]; global nodes and the node's kernel index
    /// reach the backend as they stand in the plan, and the buffers the
    /// node touches are [`WorkloadPlan::touches_of`] it.
    fn issue(
        &mut self,
        ctx: &Self::Ctx,
        plan: &WorkloadPlan,
        node: &PlanNode,
        deps: &[Self::Token],
    ) -> Self::Token;

    /// Close a lockstep step: everything issued later and depending on the
    /// returned token runs after every token in `after`.
    fn step_barrier(&mut self, ctx: &Self::Ctx, after: &[Self::Token]) -> Self::Token;

    /// Complete the run, executing any deferred work.
    fn finish(&mut self, ctx: &Self::Ctx) -> Result<(), String> {
        let _ = ctx;
        Ok(())
    }

    /// The backend's clock: wall time elapsed since the run began, or
    /// [`Duration::ZERO`] on virtual-time backends (the simulator prices
    /// its op graph in the engine, not here).
    fn now(&self) -> Duration {
        Duration::ZERO
    }
}
