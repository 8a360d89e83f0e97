//! The [`Backend`] trait: what a memory system must offer so the shared
//! orchestrator can run the paper's chunk schedule on it.

use std::time::Duration;

use crate::placement::Capabilities;
use crate::spec::PipelineSpec;

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

/// A memory system the chunk orchestrator can drive.
///
/// The orchestrator ([`crate::drive`]) expresses the whole schedule —
/// lockstep, dataflow, and implicit cache mode — through three
/// primitives: *issue* one chunk-stage action with explicit dependencies,
/// close a lockstep *step barrier*, and *finish*. A backend may execute
/// eagerly (the simulator pushes ops as they are issued), at each barrier
/// (the lockstep host runs one task batch per step), or all at the end
/// (the dataflow host replays the recorded schedule on its stage pools) —
/// the dependency tokens carry enough structure for any of these.
pub trait Backend {
    /// Handle to issued work, used to express dependencies. The simulator
    /// uses op-id lists; host adapters, which realise dependencies through
    /// barriers or the buffer ring, use `()`.
    type Token: Clone;

    /// The placements this backend can execute. [`crate::drive`] refuses
    /// specs outside this set before issuing any work.
    fn capabilities(&self) -> Capabilities;

    /// Issue one chunk-stage action that must run after every token in
    /// `deps`.
    fn issue(
        &mut self,
        spec: &PipelineSpec,
        action: ChunkAction,
        deps: &[Self::Token],
    ) -> Self::Token;

    /// Close a lockstep step: everything issued later and depending on the
    /// returned token runs after every token in `after`.
    fn step_barrier(&mut self, spec: &PipelineSpec, after: &[Self::Token]) -> Self::Token;

    /// Complete the run, executing any deferred work.
    fn finish(&mut self, spec: &PipelineSpec) -> Result<(), String> {
        let _ = spec;
        Ok(())
    }

    /// The backend's clock: wall time elapsed since the run began, or
    /// [`Duration::ZERO`] on virtual-time backends (the simulator prices
    /// its op graph in the engine, not here).
    fn now(&self) -> Duration {
        Duration::ZERO
    }
}
