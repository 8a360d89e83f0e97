//! The host backend: executing the chunk schedule with real threads and
//! real buffers.
//!
//! This side validates the *software* half of the paper: the triple
//! thread-pool, rotating-buffer schedule must produce bit-correct results
//! under full overlap. Host memory has a single level, so wall-clock here
//! is not the experiment (that is the simulator's job) — correctness and
//! native benchmarking are.
//!
//! The schedule itself — which chunk each stage touches when, and which
//! buffers it occupies — is owned by [`mlm_exec::drive_verified`]. This
//! module holds the one [`Backend`] that executes it on the host: one host
//! buffer per buffer the plan declares, each node borrowing the buffers
//! its footprint names ([`WorkloadPlan::touches_of`]; a write exclusively,
//! a read shared), and one kernel shape. Which drain runs the issued nodes
//! is read off the pools the entry point was handed, never off an option:
//!
//! * **Shared-pool batches** ([`WorkPool`]): the drain the host sort uses
//!   too (`crate::host`). Mutually independent nodes run as one task
//!   batch; a node that depends on a pending node first runs the batch,
//!   and so do step barriers and `finish`. A lockstep step's nodes depend
//!   only on the previous barrier, so its batch is the step: copy-in of
//!   chunk `s`, compute on `s-1` and copy-out of `s-2` genuinely overlap,
//!   and the pool's join is the barrier — the paper's schedule, whose
//!   makespan the model's `max(T_copy, T_comp)` term describes. Implicit
//!   mode is the same batch with no buffers: its one compute per step runs
//!   in place on `out`. The stencil's dataflow schedule batches by its
//!   halo, data and recycle edges, so computes that share halo inputs run
//!   together; the plan's proof makes every batch's loans disjoint, so
//!   outputs are bit-identical across schedules.
//! * **Ring replay** (map, `lockstep: false`, [`HostStagePools`]): three
//!   coordinator threads, one per stage, walk their actions decoupled,
//!   synchronizing only through the [`mlm_exec::ring`] phase machine
//!   (`Empty → Filled → Computed → Empty`). A stage advances as soon as
//!   *its* buffer dependency is satisfied, so a slow chunk in one stage
//!   no longer stalls unrelated work in the others — realising exactly
//!   the dependency edges [`mlm_exec::drive_verified`] issues (and
//!   [`super::sim::SimBackend`] lowers) for non-lockstep runs.
//!
//! A new workload family therefore costs a plan lowering in `mlm-exec`
//! and an adapter onto the kernel shape, not another backend.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

use mlm_exec::ring::{coordinate, is_poison_payload, BufSlot, Phase};
use mlm_exec::{
    drive_verified, Access, Backend, BufferId, ChunkAction, PlanNode, Stage, WorkloadPlan,
};
use parsort::pool::{copy_parts, parallel_copy, split_mut, StagePool, Task, WorkPool};

use super::{PipelineSpec, Placement, Workload};
use crate::host::{Drain, Leases};

pub use mlm_exec::KernelCtx;

/// Per-stage timing and copied bytes of one host pipeline run (the
/// execution layer's [`mlm_exec::StageReport`]).
pub type StageStats = mlm_exec::StageReport;

/// Result of a host pipeline run (the execution layer's
/// [`mlm_exec::RunReport`]).
pub type HostRunStats = mlm_exec::RunReport;

/// The three dedicated stage pools of a dataflow host pipeline.
///
/// Creating the pools spawns `p_in + p_comp + p_out` OS threads, so
/// benchmarks and long-lived callers should build one `HostStagePools` and
/// reuse it across [`run_host_pipeline_dataflow`] calls; each run resets
/// the busy counters itself.
pub struct HostStagePools {
    /// Pool executing copy-in tasks.
    pub copy_in: StagePool,
    /// Pool executing compute (kernel) tasks.
    pub compute: StagePool,
    /// Pool executing copy-out tasks.
    pub copy_out: StagePool,
}

impl HostStagePools {
    /// Spawn the three stage pools.
    pub fn new(p_in: usize, p_comp: usize, p_out: usize) -> Self {
        HostStagePools {
            copy_in: StagePool::new(p_in),
            compute: StagePool::new(p_comp),
            copy_out: StagePool::new(p_out),
        }
    }

    /// Spawn pools sized to `spec`'s `p_in`/`p_comp`/`p_out`.
    pub fn for_spec(spec: &PipelineSpec) -> Self {
        HostStagePools::new(spec.p_in.max(1), spec.p_comp.max(1), spec.p_out.max(1))
    }

    /// Zero all three busy counters.
    pub fn reset(&self) {
        self.copy_in.reset_busy();
        self.compute.reset_busy();
        self.copy_out.reset_busy();
    }
}

/// The staged neighbourhood a stencil kernel computes one chunk from.
///
/// `mid` is the full input chunk; `left` and `right` are the staged halo
/// regions of the adjacent chunks — the last `halo` elements of chunk
/// `c - 1` and the first up-to-`halo` elements of chunk `c + 1`. At the
/// grid boundary (and past the end of a ragged final chunk) the
/// corresponding slice is empty or short, and the kernel supplies its own
/// boundary condition for the missing elements.
///
/// All three slices view *staged input* buffers: stencil slots keep
/// separate output buffers precisely so these bytes stay intact while
/// neighbouring chunks compute.
pub struct StencilView<'a, T> {
    /// Last `halo` elements of chunk `c - 1` (empty when `c == 0`).
    pub left: &'a [T],
    /// The full input chunk `c`.
    pub mid: &'a [T],
    /// First up-to-`halo` elements of chunk `c + 1` (empty for the last
    /// chunk, shorter than `halo` when the grid ends inside the halo).
    pub right: &'a [T],
}

impl<T> StencilView<'_, T> {
    /// What a chunk-local kernel sees: no staged neighbourhood at all.
    const NONE: Self = StencilView {
        left: &[],
        mid: &[],
        right: &[],
    };
}

/// Stream `data` through the chunked pipeline, applying `kernel` to each
/// compute thread's slice of each chunk, writing results to `out`.
///
/// `kernel(slice, ctx)` must be a pure per-slice transformation — exactly
/// the shape of the paper's merge benchmark and of MLM-sort's serial sort
/// phase. Buffers are rotated so copy-in, compute, and copy-out of three
/// consecutive chunks overlap; with `spec.placement == Implicit` the kernel
/// runs in place on `out` (which is first filled from `data`).
///
/// `spec.lockstep` selects the schedule: `true` runs the paper's lockstep
/// steps on the shared `pool`; `false` runs the dataflow schedule on three
/// freshly spawned stage pools (`pool` is not used — callers that run
/// dataflow repeatedly should call [`run_host_pipeline_dataflow`] with
/// persistent [`HostStagePools`] instead). [`Placement::Implicit`] has no
/// copy stages, so both settings execute identically there.
///
/// `spec` fields `compute_rate`/`copy_rate`/`data_addr` are ignored on the
/// host; pool sizes and chunk geometry are honoured. Element counts are
/// derived from `data.len()`, not `spec.total_bytes`.
///
/// # Panics
/// Panics if `out.len() != data.len()`, the spec fails validation, the
/// workload is not [`Workload::Map`], or `spec.chunk_bytes` is not a
/// positive multiple of `size_of::<T>()` (see
/// [`PipelineSpec::validate_elem_size`]).
pub fn run_host_pipeline<T, F>(
    pool: &WorkPool,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    if spec.placement != Placement::Implicit && !spec.lockstep {
        let pools = HostStagePools::for_spec(spec);
        return run_host_pipeline_dataflow(&pools, spec, data, out, kernel);
    }
    run_host(Pools::Shared(pool), spec, data, out, in_place(spec, kernel))
}

/// Run the dataflow (non-lockstep) schedule on persistent stage pools.
///
/// The orchestrator's dataflow dependency edges — chunk `c` lives in slot
/// `c % 3`, and copy-out of chunk `c` recycles its slot for copy-in of
/// chunk `c + 3` — are realised by three coordinator threads walking the
/// recorded schedule (the ring replay of the module docs).
///
/// Busy counters in `pools` are reset at the start of the run; the
/// returned [`StageStats`] also report each coordinator's blocked time, so
/// callers can see which stage was the bottleneck (the bottleneck stage
/// waits least).
///
/// # Panics
/// Panics on the same conditions as [`run_host_pipeline`], if
/// `spec.placement == Implicit` (implicit mode has no copy stages — use
/// [`run_host_pipeline`]), or if the kernel panics (the kernel's panic
/// payload is rethrown once all stages have shut down).
pub fn run_host_pipeline_dataflow<T, F>(
    pools: &HostStagePools,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    assert_ne!(
        spec.placement,
        Placement::Implicit,
        "implicit placement has no copy stages; use run_host_pipeline"
    );
    run_host(
        Pools::Stages(pools),
        spec,
        data,
        out,
        in_place(spec, kernel),
    )
}

/// Stream `data` through the out-of-core stencil pipeline, applying
/// `kernel` to each chunk's staged neighbourhood and writing results to
/// `out`.
///
/// `kernel(view, out_slice, ctx)` receives the full staged input chunk
/// plus both neighbours' halo regions ([`StencilView`]) and must fill
/// `out_slice` — its thread's part of the chunk's output, starting at
/// grid element `ctx.global_offset` — as a pure function of the view and
/// the position. Outputs land in separate buffers, so the staged inputs a
/// neighbouring compute still reads are never overwritten.
///
/// `spec.lockstep` selects the schedule: the paper's lockstep steps, or
/// the dataflow schedule, whose mutually independent nodes (computes that
/// share halo inputs among them) run together. Both run on `pool` and
/// produce bit-identical output.
///
/// # Panics
/// Panics if `out.len() != data.len()`, the spec fails validation, the
/// workload is not [`Workload::Stencil`], or the chunk/halo geometry is
/// not a whole number of `T` elements.
pub fn run_host_stencil<T, F>(
    pool: &WorkPool,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: F,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    F: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    assert!(
        matches!(spec.workload, Workload::Stencil { .. }),
        "run_host_stencil needs a stencil workload; use run_host_pipeline for map kernels"
    );
    run_host(Pools::Shared(pool), spec, data, out, kernel)
}

/// The kernel adapter: a map kernel in the backend's one kernel shape.
/// It ignores the view (empty for single-buffer slots) and transforms the
/// target slice — which already holds the staged input — in place, which
/// is only sound for chunk-local workloads: anything else is refused here.
fn in_place<T, F>(
    spec: &PipelineSpec,
    kernel: F,
) -> impl Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync
where
    F: Fn(&mut [T], KernelCtx) + Send + Sync,
{
    assert_eq!(
        spec.workload,
        Workload::Map,
        "stencil workloads carry halo reads the map kernel shape cannot \
         express; use run_host_stencil"
    );
    move |_view, slice, ctx| kernel(slice, ctx)
}

/// The threads a run executes on: besides the spec, the only thing that
/// selects how [`HostBackend`] drains its nodes.
#[derive(Clone, Copy)]
enum Pools<'a> {
    /// One shared pool: nodes run as batches of tasks that time themselves.
    Shared(&'a WorkPool),
    /// Three dedicated stage pools (which account busy time themselves)
    /// under decoupled coordinators: the ring replay.
    Stages(&'a HostStagePools),
}

/// The one function behind the three entry points: set the run up, walk the
/// schedule, report.
fn run_host<T, K>(
    pools: Pools<'_>,
    spec: &PipelineSpec,
    data: &[T],
    out: &mut [T],
    kernel: K,
) -> HostRunStats
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    assert_eq!(out.len(), data.len(), "out must match data length");
    let start = Instant::now();
    if data.is_empty() {
        return HostRunStats {
            elapsed: start.elapsed(),
            ..HostRunStats::empty()
        };
    }
    let (mut backend, espec) = HostBackend::new(pools, spec, data, out, kernel);
    drive_verified(&mut backend, &espec, None).expect("host backend refused the schedule");
    backend.stats(spec, start)
}

/// The host [`Backend`]: each issued node goes to the shared [`Drain`] and
/// runs in a batch of mutually independent nodes on the shared pool, or is
/// recorded for the ring replay at `finish` (see the module docs).
struct HostBackend<'a, T, K> {
    pools: Pools<'a>,
    /// Elements per chunk. It is exact: [`PipelineSpec::validate_elem_size`]
    /// has rejected specs whose `chunk_bytes` is not a multiple of the
    /// element size, so host chunk boundaries coincide with the spec's
    /// (and the simulator's) byte boundaries.
    elems: usize,
    /// The input cut into chunks (the last may be ragged): the slice
    /// actually being processed, not the spec's modeled `total_bytes`.
    inputs: Vec<&'a [T]>,
    /// `out` cut the same way: chunk `c`'s window, until the one node that
    /// writes it (its copy-out, or its compute in implicit mode) takes it.
    out: Vec<Option<&'a mut [T]>>,
    /// `kernel(view, target, ctx)` fills its thread's part of a chunk.
    /// A stencil compute is handed the staged neighbourhood and its
    /// out-buffer; an in-place compute an empty view and the buffer (or,
    /// in implicit mode, the window of `out`) that holds its input.
    kernel: K,
    /// Halo width in elements (0 for chunk-local kernels).
    halo: usize,
    /// One host buffer per buffer the plan declares
    /// ([`WorkloadPlan::buffers`]), sized by the node that fills it.
    /// Unused by the ring replay, whose [`BufSlot`]s own their buffers.
    buffers: Vec<Vec<T>>,
    /// Nodes issued and not yet run: each one's chunk action and the
    /// declared buffers it touches ([`WorkloadPlan::touches_of`]).
    drain: Drain<(ChunkAction, Vec<(BufferId, Access)>)>,
    /// Self-timed task nanoseconds per stage, indexed by `Stage as usize`
    /// (shared pool only).
    busy: [AtomicU64; 3],
    /// Bytes copied per stage, added once per chunk where its copy is
    /// issued (both drains; compute copies nothing).
    bytes: [AtomicU64; 3],
    /// Per-coordinator blocked time, filled in by the ring replay.
    waits: [Duration; 3],
}

impl<'a, T, K> HostBackend<'a, T, K>
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    /// Validate the run, stage implicit mode's input, and build the
    /// backend with the spec the orchestrator is driven with:
    /// `total_bytes` pinned to the slice actually being processed, so
    /// `PipelineSpec::n_chunks` agrees with the host-side element geometry
    /// (`spec.total_bytes` is the *modeled* problem size and may
    /// legitimately differ), and no step barriers for stage pools, which
    /// only run the dataflow schedule.
    fn new(
        pools: Pools<'a>,
        spec: &PipelineSpec,
        data: &'a [T],
        out: &'a mut [T],
        kernel: K,
    ) -> (Self, PipelineSpec) {
        spec.validate().expect("invalid pipeline spec");
        let elem = std::mem::size_of::<T>().max(1);
        spec.validate_elem_size(elem)
            .expect("invalid chunk geometry");
        let halo = match spec.workload {
            Workload::Map => 0,
            Workload::Stencil { halo_bytes } => {
                assert!(
                    halo_bytes.is_multiple_of(elem as u64),
                    "halo_bytes = {halo_bytes} is not a whole number of {elem}-byte elements"
                );
                halo_bytes as usize / elem
            }
        };
        match pools {
            // The data already lives where it is computed on: one memcpy
            // of the whole input, split across the shared pool, then the
            // kernel runs in place on `out`.
            Pools::Shared(pool) if spec.placement == Placement::Implicit => {
                parallel_copy(pool, data, out)
            }
            Pools::Stages(stage_pools) => stage_pools.reset(),
            Pools::Shared(_) => {}
        }
        let espec = PipelineSpec {
            total_bytes: (data.len() * elem) as u64,
            lockstep: spec.lockstep && matches!(pools, Pools::Shared(_)),
            ..spec.clone()
        };
        let elems = spec.chunk_bytes as usize / elem;
        let backend = HostBackend {
            pools,
            elems,
            inputs: data.chunks(elems).collect(),
            out: out.chunks_mut(elems).map(Some).collect(),
            kernel,
            halo,
            buffers: Vec::new(),
            drain: Drain::new(),
            busy: Default::default(),
            bytes: Default::default(),
            waits: [Duration::ZERO; 3],
        };
        (backend, espec)
    }

    /// Run one batch of mutually independent nodes as one `scoped` call
    /// on the shared pool; the pool's join realises every edge out of it.
    /// Each node borrows the buffers its footprint names through
    /// [`Leases`].
    fn run_batch(
        &mut self,
        spec: &PipelineSpec,
        nodes: Vec<(ChunkAction, Vec<(BufferId, Access)>)>,
    ) {
        if nodes.is_empty() {
            return;
        }
        let Pools::Shared(pool) = self.pools else {
            unreachable!("stage pools replay the whole record at finish");
        };
        let (halo, fill) = (self.halo, self.inputs[0][0]);
        let mut leases = Leases::new(&mut self.buffers);
        let mut tasks: Vec<Task<'_>> = Vec::new();
        for (action, touches) in &nodes {
            let (stage, c) = (action.stage, action.chunk);
            let src = self.inputs[c];
            let reads: Vec<&[T]> = touches
                .iter()
                .filter(|t| t.1 == Access::Read)
                .map(|t| leases.read(t.0))
                .collect();
            let write = touches
                .iter()
                .find(|t| t.1 == Access::Write)
                .map(|t| leases.write(t.0));
            let stage_tasks = match stage {
                Stage::CopyIn => {
                    let dst = write.expect("a copy-in fills a declared buffer");
                    dst.resize(src.len(), fill);
                    count_bytes(&self.bytes[0], src);
                    copy_parts(src, dst, spec.p_in)
                }
                Stage::Compute => {
                    let mut view = StencilView::NONE;
                    let dst: &mut [T] = match (write, &reads[..]) {
                        // Implicit mode declares no buffers: the chunk
                        // computes in place on its window of `out`.
                        (None, _) => self.out[c].take().expect("one compute per chunk"),
                        // A node that only writes updates its buffer in
                        // place: the map kernel on its staged chunk.
                        (Some(buf), []) => buf,
                        // A stencil compute reads the staged chunks
                        // c - 1, c and c + 1 that exist, in chunk order,
                        // and fills its own out-buffer.
                        (Some(buf), staged) => {
                            let (left, rest) = staged.split_at(usize::from(c > 0));
                            let (&mid, right) = rest
                                .split_first()
                                .expect("a stencil compute reads its chunk");
                            assert_eq!(mid.len(), src.len(), "stale staged input for chunk {c}");
                            view = StencilView {
                                left: left
                                    .first()
                                    .map_or(&[], |l| &l[l.len() - halo.min(l.len())..]),
                                mid,
                                right: right.first().map_or(&[], |r| &r[..halo.min(r.len())]),
                            };
                            buf.resize(src.len(), fill);
                            buf
                        }
                    };
                    compute_tasks(&self.kernel, spec.p_comp, c, c * self.elems, view, dst)
                }
                Stage::CopyOut => {
                    let src: &[T] = match write {
                        Some(buf) => buf,
                        None => reads.first().expect("a copy-out drains a declared buffer"),
                    };
                    let dst = self.out[c].take().expect("one copy-out per chunk");
                    count_bytes(&self.bytes[2], src);
                    copy_parts(src, dst, spec.p_out)
                }
            };
            let busy = &self.busy[stage as usize];
            tasks.extend(stage_tasks.into_iter().map(|task| timed(busy, task)));
        }
        pool.scoped(tasks);
    }

    /// Replay the recorded dataflow schedule: three coordinator threads —
    /// one per stage — walk their actions independently, synchronizing
    /// only through the buffer ring (the phase machine and the panic
    /// harness live in [`mlm_exec::ring`]). Each coordinator fans its
    /// chunk's work out to its own [`StagePool`], so copy-in of chunk
    /// `c`, compute on `c - 1`, and copy-out of `c - 2` genuinely overlap
    /// without any step barrier between them — the execution-time
    /// realisation of the dataflow edges the orchestrator issues (compute
    /// after its chunk's copy-in, copy-out after its compute, copy-in of
    /// chunk `c` after copy-out of `c - ring` recycles the slot).
    fn replay(&mut self, spec: &PipelineSpec, pools: &HostStagePools, actions: &[ChunkAction]) {
        let (inputs, elems, kernel, bytes) = (&self.inputs, self.elems, &self.kernel, &self.bytes);
        let ring = spec.ring_slots();
        let fill = inputs[0][0];
        let of = move |stage: Stage| actions.iter().filter(move |a| a.stage == stage);
        let (in_actions, comp_actions, out_actions) =
            (of(Stage::CopyIn), of(Stage::Compute), of(Stage::CopyOut));

        let slots: Vec<BufSlot<T>> = (0..ring).map(BufSlot::new).collect();
        let poisoned = AtomicBool::new(false);
        let (slots, poisoned) = (&slots, &poisoned);
        let out = &mut self.out;

        let copy_in_body = move || {
            let mut waited = Duration::ZERO;
            for a in in_actions {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Empty, a.chunk, poisoned);
                let src = inputs[a.chunk];
                // SAFETY: `Empty(c)` grants this coordinator exclusive
                // ownership of the slot's buffer until it publishes `Filled`.
                let buf = unsafe { slot.data_mut() };
                buf.resize(src.len(), fill);
                count_bytes(&bytes[0], src);
                pools.copy_in.scoped(copy_parts(src, buf, spec.p_in));
                slot.publish(Phase::Filled, a.chunk);
            }
            waited
        };

        let compute_body = move || {
            let mut waited = Duration::ZERO;
            for a in comp_actions {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Filled, a.chunk, poisoned);
                // SAFETY: `Filled(c)` hands the buffer to the compute stage.
                let buf = unsafe { slot.data_mut() };
                pools.compute.scoped(compute_tasks(
                    kernel,
                    spec.p_comp,
                    a.chunk,
                    a.chunk * elems,
                    StencilView::NONE,
                    buf,
                ));
                slot.publish(Phase::Computed, a.chunk);
            }
            waited
        };

        let copy_out_body = move || {
            let mut waited = Duration::ZERO;
            for a in out_actions {
                let slot = &slots[a.slot];
                waited += slot.await_phase(Phase::Computed, a.chunk, poisoned);
                // SAFETY: `Computed(c)` hands the buffer to the copy-out
                // stage.
                let buf = unsafe { slot.data_ref() };
                let dst = out[a.chunk].take().expect("one copy-out per chunk");
                count_bytes(&bytes[2], buf);
                pools.copy_out.scoped(copy_parts(buf, dst, spec.p_out));
                // Recycle the slot for copy-in of chunk c + ring.
                slot.publish(Phase::Empty, a.chunk + ring);
            }
            waited
        };

        let results = std::thread::scope(|sc| {
            let h_in = sc.spawn(move || coordinate(slots, poisoned, copy_in_body));
            let h_comp = sc.spawn(move || coordinate(slots, poisoned, compute_body));
            let h_out = sc.spawn(move || coordinate(slots, poisoned, copy_out_body));
            [h_in, h_comp, h_out].map(|h| h.join().expect("coordinator wrapper does not panic"))
        });

        let mut payloads = Vec::new();
        for (i, r) in results.into_iter().enumerate() {
            match r {
                Ok(w) => self.waits[i] = w,
                Err(p) => payloads.push(p),
            }
        }
        // Prefer the original panic over secondary abort panics.
        payloads.sort_by_key(|p| is_poison_payload(&**p));
        if let Some(payload) = payloads.into_iter().next() {
            resume_unwind(payload);
        }
    }

    /// Assemble the run's report. Shared-pool tasks time themselves and
    /// block only inside the pool's step barrier, so their stages report
    /// no coordinator waits; stage pools account busy time in the pool
    /// and the ring replay measures each coordinator's blocked time.
    fn stats(&self, spec: &PipelineSpec, start: Instant) -> HostRunStats {
        let n = self.inputs.len();
        // Implicit mode has no ring to fill and drain and no copy stages,
        // whatever `p_in`/`p_out` say.
        let (ramp, p_in, p_out) = match spec.placement {
            Placement::Implicit => (0, 0, 0),
            _ => (spec.ring_slots() - 1, spec.p_in, spec.p_out),
        };
        let stage = |stage: Stage, threads: usize| {
            let i = stage as usize;
            let bytes = self.bytes[i].load(Ordering::Relaxed);
            match self.pools {
                Pools::Shared(_) => StageStats {
                    threads,
                    busy: Duration::from_nanos(self.busy[i].load(Ordering::Relaxed)),
                    wait: Duration::ZERO,
                    bytes,
                },
                Pools::Stages(p) => {
                    let pool = [&p.copy_in, &p.compute, &p.copy_out][i];
                    StageStats {
                        threads: pool.threads(),
                        busy: pool.busy(),
                        wait: self.waits[i],
                        bytes,
                    }
                }
            }
        };
        HostRunStats {
            chunks: n,
            // One step per chunk plus the ring's fill/drain ramp
            // (reported for dataflow runs too, for comparability).
            steps: n + ramp,
            elapsed: start.elapsed(),
            copy_in: stage(Stage::CopyIn, p_in),
            compute: stage(Stage::Compute, spec.p_comp),
            copy_out: stage(Stage::CopyOut, p_out),
        }
    }
}

impl<T, K> Backend for HostBackend<'_, T, K>
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    type Ctx = PipelineSpec;
    type Token = usize;

    fn issue(
        &mut self,
        spec: &PipelineSpec,
        plan: &WorkloadPlan,
        node: &PlanNode,
        deps: &[usize],
    ) -> usize {
        if self.buffers.len() < plan.buffers.len() {
            self.buffers.resize_with(plan.buffers.len(), Vec::new);
        }
        let action = node
            .action()
            .expect("pipeline plans issue chunk-scoped nodes");
        // The ring replay runs the whole record at `finish`: its buffer
        // ring, not a batch join, realises the edges.
        let deps = match self.pools {
            Pools::Shared(_) => deps,
            Pools::Stages(_) => &[],
        };
        let (token, ready) = self
            .drain
            .issue((action, plan.touches_of(node).to_vec()), deps);
        self.run_batch(spec, ready);
        token
    }

    fn step_barrier(&mut self, spec: &PipelineSpec, _after: &[usize]) -> usize {
        let (token, ready) = self.drain.barrier();
        self.run_batch(spec, ready);
        token
    }

    fn finish(&mut self, spec: &PipelineSpec) -> Result<(), String> {
        let nodes = self.drain.take();
        match self.pools {
            Pools::Shared(_) => self.run_batch(spec, nodes),
            Pools::Stages(pools) => {
                let actions: Vec<ChunkAction> = nodes.iter().map(|n| n.0).collect();
                self.replay(spec, pools, &actions)
            }
        }
        assert!(
            self.out.iter().all(Option::is_none),
            "every chunk of `out` needs exactly one writer"
        );
        Ok(())
    }
}

/// The compute tasks of one chunk: `dst` (whose first element is global
/// element `at`) split across up to `p_comp` workers, each running the
/// kernel on its part with the [`KernelCtx`] that locates it.
fn compute_tasks<'t, T, K>(
    kernel: &'t K,
    p_comp: usize,
    chunk: usize,
    at: usize,
    view: StencilView<'t, T>,
    dst: &'t mut [T],
) -> Vec<Task<'t>>
where
    T: Copy + Send + Sync,
    K: Fn(StencilView<'_, T>, &mut [T], KernelCtx) + Send + Sync,
{
    let StencilView { left, mid, right } = view;
    let parts = p_comp.min(dst.len()).max(1);
    let mut tasks: Vec<Task<'t>> = Vec::with_capacity(parts);
    let mut global_offset = at;
    for (thread, part) in split_mut(dst, parts).into_iter().enumerate() {
        let ctx = KernelCtx {
            chunk,
            thread,
            global_offset,
        };
        global_offset += part.len();
        tasks.push(Box::new(move || {
            super::fault::maybe_panic_compute(chunk);
            kernel(StencilView { left, mid, right }, part, ctx);
        }));
    }
    tasks
}

/// Credit one chunk's copy of `src` to a stage's byte counter.
fn count_bytes<T>(counter: &AtomicU64, src: &[T]) {
    counter.fetch_add(std::mem::size_of_val(src) as u64, Ordering::Relaxed);
}

/// `task`, crediting its wall time to a stage's `busy` counter: the shared
/// `WorkPool` is untimed, unlike the ring replay's `StagePool`s.
fn timed<'t>(busy: &'t AtomicU64, task: Task<'t>) -> Task<'t> {
    Box::new(move || {
        let t0 = Instant::now();
        task();
        busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
    })
}

#[cfg(test)]
mod tests {
    use std::ops::Range;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::pipeline::Workload;

    fn spec(chunk_bytes: u64, placement: Placement) -> PipelineSpec {
        PipelineSpec {
            total_bytes: 0, // host side derives sizes from the slice
            chunk_bytes,
            p_in: 2,
            p_out: 2,
            p_comp: 3,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn negate_kernel(slice: &mut [i64], _ctx: KernelCtx) {
        slice.iter_mut().for_each(|x| *x = -*x);
    }

    /// A kernel whose output depends on the global element position, so
    /// any chunk-geometry drift between modes corrupts the comparison.
    fn offset_kernel(slice: &mut [i64], ctx: KernelCtx) {
        for (i, v) in slice.iter_mut().enumerate() {
            *v = v
                .wrapping_mul(31)
                .wrapping_add((ctx.global_offset + i) as i64);
        }
    }

    #[test]
    fn explicit_pipeline_transforms_all_data() {
        let pool = WorkPool::new(7);
        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 1000;
        let data: Vec<i64> = (0..1000).collect();
        let mut out = vec![0i64; 1000];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 10);
        assert_eq!(stats.steps, 12);
        let expect: Vec<i64> = (0..1000).map(|x| -x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn ragged_tail_handled() {
        let pool = WorkPool::new(4);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 8 * 1003;
        let data: Vec<i64> = (0..1003).collect();
        let mut out = vec![0i64; 1003];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn single_chunk_works() {
        let pool = WorkPool::new(4);
        let mut s = spec(1 << 20, Placement::Hbw);
        s.total_bytes = 8 * 50;
        let data: Vec<i64> = (0..50).collect();
        let mut out = vec![0i64; 50];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn host_sizes_come_from_the_slice_not_the_spec() {
        // The modeled problem size (total_bytes) legitimately disagrees
        // with the slice being processed: geometry must follow the slice.
        let pool = WorkPool::new(4);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 1 << 40; // model a 1 TiB run...
        let data: Vec<i64> = (0..500).collect(); // ...validate on 4 KiB
        let mut out = vec![0i64; 500];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 500usize.div_ceil(64));
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    #[test]
    fn implicit_mode_matches_explicit() {
        let pool = WorkPool::new(4);
        let data: Vec<i64> = (0..777).map(|x| x * 3).collect();

        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 777;
        let mut out_explicit = vec![0i64; 777];
        run_host_pipeline(&pool, &s, &data, &mut out_explicit, negate_kernel);

        let mut si = spec(8 * 100, Placement::Implicit);
        si.total_bytes = 8 * 777;
        si.p_in = 0;
        si.p_out = 0;
        let mut out_implicit = vec![0i64; 777];
        run_host_pipeline(&pool, &si, &data, &mut out_implicit, negate_kernel);

        assert_eq!(out_explicit, out_implicit);
    }

    #[test]
    fn kernel_ctx_reports_global_offsets() {
        let pool = WorkPool::new(3);
        let n = 300usize;
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).collect();
        let mut out = vec![0i64; n];
        let seen = AtomicU64::new(0);
        run_host_pipeline(&pool, &s, &data, &mut out, |slice, ctx| {
            // Every element equals its global index, so offsets must line up.
            for (i, v) in slice.iter().enumerate() {
                assert_eq!(*v as usize, ctx.global_offset + i);
            }
            seen.fetch_add(slice.len() as u64, Ordering::Relaxed);
        });
        assert_eq!(seen.load(Ordering::Relaxed), n as u64);
        assert_eq!(out, data, "identity kernel copies through");
    }

    #[test]
    fn empty_input_is_noop() {
        let pool = WorkPool::new(2);
        let mut s = spec(1 << 10, Placement::Hbw);
        s.total_bytes = 8; // irrelevant: host sizes come from the slice
        let data: Vec<i64> = vec![];
        let mut out: Vec<i64> = vec![];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 0);
    }

    #[test]
    #[should_panic(expected = "not a multiple")]
    fn misaligned_chunk_bytes_rejected() {
        // 30 bytes per chunk over i64 data: boundaries fall mid-element.
        let pool = WorkPool::new(2);
        let mut s = spec(30, Placement::Hbw);
        s.total_bytes = 8 * 16;
        let data: Vec<i64> = (0..16).collect();
        let mut out = vec![0i64; 16];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
    }

    #[test]
    fn dataflow_transforms_all_data() {
        let pool = WorkPool::new(7);
        let mut s = spec(8 * 100, Placement::Hbw);
        s.total_bytes = 8 * 1000;
        s.lockstep = false;
        let data: Vec<i64> = (0..1000).collect();
        let mut out = vec![0i64; 1000];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.chunks, 10);
        assert_eq!(stats.steps, 12, "steps reported for comparability");
        let expect: Vec<i64> = (0..1000).map(|x| -x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn dataflow_handles_ragged_tail_and_single_chunk() {
        let pools = HostStagePools::new(2, 3, 2);
        for n in [1usize, 7, 64, 65, 1003] {
            let mut s = spec(8 * 64, Placement::Hbw);
            s.total_bytes = (8 * n) as u64;
            s.lockstep = false;
            let data: Vec<i64> = (0..n as i64).collect();
            let mut out = vec![0i64; n];
            let stats = run_host_pipeline_dataflow(&pools, &s, &data, &mut out, offset_kernel);
            assert_eq!(stats.chunks, n.div_ceil(64), "n={n}");
            let mut expect: Vec<i64> = data.clone();
            for (i, v) in expect.iter_mut().enumerate() {
                *v = v.wrapping_mul(31).wrapping_add(i as i64);
            }
            assert_eq!(out, expect, "n={n}");
        }
    }

    #[test]
    fn dataflow_matches_lockstep_bit_for_bit() {
        let pool = WorkPool::new(7);
        let n = 4003usize;
        let mut s = spec(8 * 256, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(0x9E37)).collect();

        let mut out_lock = vec![0i64; n];
        run_host_pipeline(&pool, &s, &data, &mut out_lock, offset_kernel);

        s.lockstep = false;
        let mut out_flow = vec![0i64; n];
        run_host_pipeline(&pool, &s, &data, &mut out_flow, offset_kernel);

        assert_eq!(out_lock, out_flow);
    }

    #[test]
    fn dataflow_pools_are_reusable() {
        let pools = HostStagePools::new(1, 2, 1);
        let n = 500usize;
        let mut s = spec(8 * 64, Placement::Ddr);
        s.total_bytes = (8 * n) as u64;
        s.lockstep = false;
        s.p_in = 1;
        s.p_out = 1;
        s.p_comp = 2;
        let data: Vec<i64> = (0..n as i64).collect();
        for _ in 0..3 {
            let mut out = vec![0i64; n];
            let stats = run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate_kernel);
            assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
            // Busy counters are reset per run, so they stay bounded by one
            // run's work rather than accumulating forever.
            assert!(stats.compute.busy <= stats.elapsed * 2 * 4);
        }
    }

    #[test]
    fn stage_stats_are_populated() {
        let pool = WorkPool::new(7);
        let n = 50_000usize;
        let mut s = spec(8 * 4096, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).collect();

        // Lockstep: busy time recorded per stage, waits are zero.
        let mut out = vec![0i64; n];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert_eq!(stats.copy_in.threads, 2);
        assert_eq!(stats.compute.threads, 3);
        assert_eq!(stats.copy_out.threads, 2);
        assert!(stats.copy_in.busy > Duration::ZERO);
        assert!(stats.compute.busy > Duration::ZERO);
        assert!(stats.copy_out.busy > Duration::ZERO);
        assert_eq!(stats.copy_in.wait, Duration::ZERO);
        assert!(stats.compute.occupancy(stats.elapsed) <= 1.0 + 1e-9);

        // Dataflow: same fields, waits measured by the coordinators.
        s.lockstep = false;
        let mut out = vec![0i64; n];
        let stats = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        assert!(stats.copy_in.busy > Duration::ZERO);
        assert!(stats.compute.busy > Duration::ZERO);
        assert!(stats.copy_out.busy > Duration::ZERO);
        // Copy-out of chunk 0 cannot start before chunk 0 is filled and
        // computed, so its coordinator must have measurably waited.
        assert!(stats.copy_out.wait > Duration::ZERO);
    }

    /// Each explicit schedule copies the whole input in once and out once,
    /// ragged tail included; implicit placement has no copy stages.
    #[test]
    fn copy_bytes_are_exact_per_schedule() {
        let pool = WorkPool::new(4);
        let n = 1003usize;
        let total = (8 * n) as u64;
        let data: Vec<i64> = (0..n as i64).collect();
        let mut out = vec![0i64; n];
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = total;

        let lockstep = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        s.lockstep = false;
        let dataflow = run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
        let stencil_lockstep = run_host_stencil(
            &pool,
            &stencil_spec(64, 8, n, true),
            &data,
            &mut out,
            stencil_kernel(64, 8),
        );
        let stencil_flow = run_host_stencil(
            &pool,
            &stencil_spec(64, 8, n, false),
            &data,
            &mut out,
            stencil_kernel(64, 8),
        );
        for (name, r) in [
            ("lockstep", lockstep),
            ("dataflow", dataflow),
            ("stencil lockstep", stencil_lockstep),
            ("stencil dataflow", stencil_flow),
        ] {
            assert_eq!(r.copy_in.bytes, total, "{name}");
            assert_eq!(r.copy_out.bytes, total, "{name}");
            assert_eq!(r.compute.bytes, 0, "{name}");
        }

        let mut si = spec(8 * 64, Placement::Implicit);
        si.total_bytes = total;
        let implicit = run_host_pipeline(&pool, &si, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
        assert_eq!(implicit.copy_in.bytes, 0);
        assert_eq!(implicit.copy_out.bytes, 0);
        assert_eq!(implicit.compute.bytes, 0);
    }

    #[test]
    fn implicit_ignores_lockstep_flag() {
        let pool = WorkPool::new(4);
        let data: Vec<i64> = (0..321).collect();
        let mut si = spec(8 * 100, Placement::Implicit);
        si.total_bytes = 8 * 321;
        si.p_in = 0;
        si.p_out = 0;
        si.lockstep = false;
        let mut out = vec![0i64; 321];
        let stats = run_host_pipeline(&pool, &si, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
        assert_eq!(stats.copy_in.threads, 0, "implicit mode has no copy stages");
        assert!(stats.compute.busy > Duration::ZERO);
    }

    // -- stencil family --------------------------------------------------

    /// Spec for an i64 stencil over `chunk_elems`-element chunks with an
    /// `h`-element halo, processing `n` elements.
    fn stencil_spec(chunk_elems: usize, h: usize, n: usize, lockstep: bool) -> PipelineSpec {
        let mut s = spec((8 * chunk_elems) as u64, Placement::Hbw);
        s.total_bytes = (8 * n) as u64;
        s.workload = Workload::Stencil {
            halo_bytes: (8 * h) as u64,
        };
        s.lockstep = lockstep;
        s
    }

    /// The 3-point stencil at distance `h` with zero boundary: what any
    /// correct out-of-core execution must compute for global element `g`.
    fn stencil_reference(data: &[i64], h: usize) -> Vec<i64> {
        (0..data.len())
            .map(|g| {
                let l = if g >= h { data[g - h] } else { 0 };
                let r = data.get(g + h).copied().unwrap_or(0);
                data[g]
                    .wrapping_mul(3)
                    .wrapping_sub(l)
                    .wrapping_add(r.wrapping_mul(7))
            })
            .collect()
    }

    /// The same stencil expressed against the staged [`StencilView`]:
    /// exercises mid reads, both halo regions, the left grid boundary, and
    /// the (possibly short) right halo of a ragged tail.
    fn stencil_kernel(
        chunk_elems: usize,
        h: usize,
    ) -> impl Fn(StencilView<'_, i64>, &mut [i64], KernelCtx) {
        move |view, out, ctx| {
            let l0 = ctx.global_offset - ctx.chunk * chunk_elems;
            for (i, o) in out.iter_mut().enumerate() {
                let l = l0 + i;
                let left = if l >= h {
                    view.mid[l - h]
                } else if view.left.is_empty() {
                    0 // grid boundary
                } else {
                    view.left[l] // left holds globals [base - h, base)
                };
                let j = l + h;
                let right = if j < view.mid.len() {
                    view.mid[j]
                } else {
                    view.right.get(j - view.mid.len()).copied().unwrap_or(0)
                };
                *o = view.mid[l]
                    .wrapping_mul(3)
                    .wrapping_sub(left)
                    .wrapping_add(right.wrapping_mul(7));
            }
        }
    }

    #[test]
    fn stencil_matches_reference_across_geometries() {
        let pool = WorkPool::new(7);
        for (chunk_elems, h, n) in [
            (64usize, 8usize, 1003usize), // ragged tail
            (64, 8, 640),                 // exact division
            (64, 60, 1003),               // halo nearly the whole chunk
            (64, 8, 50),                  // single chunk
            (64, 8, 70),                  // two chunks, short tail < halo reach
            (16, 4, 16 * 4 + 2),          // tail shorter than the halo
        ] {
            let s = stencil_spec(chunk_elems, h, n, true);
            let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(0x9E37)).collect();
            let mut out = vec![0i64; n];
            let stats =
                run_host_stencil(&pool, &s, &data, &mut out, stencil_kernel(chunk_elems, h));
            assert_eq!(
                out,
                stencil_reference(&data, h),
                "chunk={chunk_elems} h={h} n={n}"
            );
            assert_eq!(stats.chunks, n.div_ceil(chunk_elems));
            assert_eq!(stats.steps, stats.chunks + 3);
        }
    }

    #[test]
    fn stencil_dataflow_matches_lockstep_bit_for_bit() {
        let pool = WorkPool::new(7);
        for n in [1usize, 64, 65, 129, 1003] {
            let (chunk_elems, h) = (64, 8);
            let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(-77)).collect();

            let mut out_lock = vec![0i64; n];
            let s = stencil_spec(chunk_elems, h, n, true);
            run_host_stencil(
                &pool,
                &s,
                &data,
                &mut out_lock,
                stencil_kernel(chunk_elems, h),
            );

            let mut out_flow = vec![0i64; n];
            let s = stencil_spec(chunk_elems, h, n, false);
            run_host_stencil(
                &pool,
                &s,
                &data,
                &mut out_flow,
                stencil_kernel(chunk_elems, h),
            );

            assert_eq!(out_lock, out_flow, "n={n}");
            assert_eq!(out_lock, stencil_reference(&data, h), "n={n}");
        }
    }

    /// Drive `spec` over a shared-pool backend: the plan it ran, and the
    /// plan nodes of every batch (tokens are plan indices).
    fn batches_of<K>(
        pool: &WorkPool,
        spec: &PipelineSpec,
        data: &[i64],
        out: &mut [i64],
        kernel: K,
    ) -> (WorkloadPlan, Vec<Range<usize>>)
    where
        K: Fn(StencilView<'_, i64>, &mut [i64], KernelCtx) + Send + Sync,
    {
        let (mut backend, espec) = HostBackend::new(Pools::Shared(pool), spec, data, out, kernel);
        drive_verified(&mut backend, &espec, None).unwrap();
        (mlm_exec::plan_pipeline(&espec), backend.drain.ran)
    }

    /// The plan's steps: the nodes before each barrier.
    fn steps(plan: &WorkloadPlan) -> Vec<Range<usize>> {
        let barriers = plan
            .nodes
            .iter()
            .enumerate()
            .filter(|(_, nd)| nd.kind == mlm_exec::PlanKind::Barrier)
            .map(|(i, _)| i);
        std::iter::once(0)
            .chain(barriers.clone().map(|b| b + 1))
            .zip(barriers)
            .map(|(start, barrier)| start..barrier)
            .collect()
    }

    #[test]
    fn lockstep_map_batches_are_the_plan_steps() {
        let pool = WorkPool::new(4);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 8 * 1003;
        let data: Vec<i64> = (0..1003).collect();
        let mut out = vec![0i64; 1003];
        let kernel = in_place(&s, negate_kernel);
        let (plan, batches) = batches_of(&pool, &s, &data, &mut out, kernel);
        assert_eq!(steps(&plan).len(), 1003usize.div_ceil(64) + 2);
        assert_eq!(batches, steps(&plan));
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }

    /// Implicit mode (one compute per step, whatever `lockstep` says) and
    /// the lockstep stencil batch by step too.
    #[test]
    fn implicit_and_lockstep_stencil_batches_are_the_plan_steps() {
        let pool = WorkPool::new(4);
        let n = 1003;
        let data: Vec<i64> = (0..n as i64).collect();
        for lockstep in [true, false] {
            let mut si = spec(8 * 64, Placement::Implicit);
            si.total_bytes = (8 * n) as u64;
            si.lockstep = lockstep;
            // Implicit runs copy `data` into `out` first: start from zeros.
            let mut out = vec![0i64; n];
            let kernel = in_place(&si, negate_kernel);
            let (plan, batches) = batches_of(&pool, &si, &data, &mut out, kernel);
            assert_eq!(batches.len(), n.div_ceil(64));
            assert_eq!(batches, steps(&plan));
            assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
        }
        let s = stencil_spec(64, 8, n, true);
        let mut out = vec![0i64; n];
        let (plan, batches) = batches_of(&pool, &s, &data, &mut out, stencil_kernel(64, 8));
        assert_eq!(batches.len(), n.div_ceil(64) + 3);
        assert_eq!(batches, steps(&plan));
        assert_eq!(out, stencil_reference(&data, 8));
    }

    #[test]
    fn stencil_dataflow_batches_computes_that_share_halo_reads() {
        let pool = WorkPool::new(7);
        let (chunk_elems, h, n) = (64, 8, 1003);
        let data: Vec<i64> = (0..n as i64).map(|x| x.wrapping_mul(-77)).collect();
        let s = stencil_spec(chunk_elems, h, n, false);
        let mut out_flow = vec![0i64; n];
        let kernel = stencil_kernel(chunk_elems, h);
        let (plan, batches) = batches_of(&pool, &s, &data, &mut out_flow, kernel);
        let reads = |i: usize| {
            plan.footprint(i)
                .iter()
                .filter(|t| t.1 == Access::Read)
                .map(|t| t.0)
                .collect::<Vec<_>>()
        };
        let shares_halo = |batch: &Range<usize>| {
            let computes: Vec<usize> = batch
                .clone()
                .filter(|&i| plan.nodes[i].kind == mlm_exec::PlanKind::Kernel)
                .collect();
            computes.iter().enumerate().any(|(k, &a)| {
                computes[k + 1..]
                    .iter()
                    .any(|&b| reads(a).iter().any(|r| reads(b).contains(r)))
            })
        };
        assert!(batches.iter().any(shares_halo), "batches: {batches:?}");
        // Fewer batches than nodes: the dataflow no longer runs one node
        // at a time.
        assert!(batches.len() < plan.nodes.len() / 2, "batches: {batches:?}");

        let mut out_lock = vec![0i64; n];
        let s = stencil_spec(chunk_elems, h, n, true);
        run_host_stencil(
            &pool,
            &s,
            &data,
            &mut out_lock,
            stencil_kernel(chunk_elems, h),
        );
        assert_eq!(out_flow, out_lock);
        assert_eq!(out_flow, stencil_reference(&data, h));
    }

    #[test]
    #[should_panic(expected = "use run_host_stencil")]
    fn map_entry_point_rejects_stencil_specs() {
        let pool = WorkPool::new(2);
        let s = stencil_spec(64, 8, 100, true);
        let data: Vec<i64> = (0..100).collect();
        let mut out = vec![0i64; 100];
        run_host_pipeline(&pool, &s, &data, &mut out, negate_kernel);
    }

    #[test]
    #[should_panic(expected = "needs a stencil workload")]
    fn stencil_entry_point_rejects_map_specs() {
        let pool = WorkPool::new(2);
        let mut s = spec(8 * 64, Placement::Hbw);
        s.total_bytes = 8 * 100;
        let data: Vec<i64> = (0..100).collect();
        let mut out = vec![0i64; 100];
        run_host_stencil(&pool, &s, &data, &mut out, stencil_kernel(64, 8));
    }

    #[test]
    fn dataflow_kernel_panic_propagates_with_message() {
        let pools = HostStagePools::new(1, 2, 1);
        let mut s = spec(8 * 16, Placement::Hbw);
        s.total_bytes = 8 * 100;
        s.lockstep = false;
        let data: Vec<i64> = (0..100).collect();
        let result = catch_unwind(AssertUnwindSafe(|| {
            let mut out = vec![0i64; 100];
            run_host_pipeline_dataflow(&pools, &s, &data, &mut out, |slice, ctx| {
                if ctx.chunk == 3 {
                    panic!("kernel exploded on chunk {}", ctx.chunk);
                }
                negate_kernel(slice, ctx);
            });
        }));
        let payload = result.expect_err("kernel panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .expect("original payload survives");
        assert_eq!(msg, "kernel exploded on chunk 3");
        // The pools must remain usable after the failed run.
        let mut out = vec![0i64; 100];
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate_kernel);
        assert!(out.iter().zip(&data).all(|(o, d)| *o == -d));
    }
}
