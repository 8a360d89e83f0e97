//! Lowering the sort variants to simulated op graphs.
//!
//! The phase *sequence* of every variant — stage a megachunk, sort its
//! chunks, merge the runs out, final k-way merge — is planned once by
//! [`mlm_exec::plan_sort`] and shared with the host executor
//! ([`super::host::run_sort_plan`]). This module owns only the per-variant
//! *lowering* of each plan node: where the bytes live
//! ([`DataPlace`]), which calibrated rate applies, and (for the buffered
//! variant) which cross-megachunk dependencies overlap the phases.
//! Compute rates come from [`Calibration`]; bandwidth contention, DDR
//! saturation, and MCDRAM-cache behaviour then emerge from the
//! [`knl_sim`] engine.
//!
//! ## Cache-mode sort residency
//!
//! Serial introsort is recursive: at recursion level `l` the active working
//! set is `block/2^l`. On the real machine the MCDRAM cache is *physically*
//! indexed and the OS scatters pages, so two threads' blocks rarely alias
//! even when the total data exceeds the cache. An address-exact model over
//! virtually-contiguous arrays would grossly overestimate conflict misses,
//! so sort phases model residency analytically: the first pass is issued
//! through the real cache model (cold misses, fills, penalties), and each
//! deeper level is MCDRAM-served iff the machine-wide active working set
//! (one subproblem per thread) fits the cache. Bulk copies and merges are
//! sequential streams, where address-exact cache modeling is accurate —
//! they go through [`Place::CachedDdr`].

use knl_sim::machine::MachineConfig;
use knl_sim::ops::{Access, OpId, OpKind, Place, Program};
use mlm_exec::{
    plan_sort, PlanKind, PlanNode, WorkloadPlan, SORT_KERNEL_FINAL_MERGE, SORT_KERNEL_MERGE_RUNS,
    SORT_KERNEL_THREAD_MERGE, SORT_KERNEL_THREAD_SORT,
};

use super::SortAlgorithm;
use crate::calibration::Calibration;
use crate::workload::{InputOrder, SortWorkload};

/// Copy-pool size for [`SortAlgorithm::MlmSortBuffered`]: small, because
/// prefetching a megachunk is brief and every copy thread is a compute
/// thread forgone (the §5 tradeoff).
pub const BUFFERED_COPY_THREADS: usize = 4;

/// Where a sort/merge phase's data is served from.
#[derive(Debug, Clone, Copy, PartialEq)]
enum DataPlace {
    /// Uncached DDR (flat mode).
    Ddr,
    /// Flat-mode MCDRAM.
    Mcdram,
    /// DDR range at the given base address, through the MCDRAM cache.
    Cached(u64),
}

impl DataPlace {
    fn place_at(&self, offset: u64) -> Place {
        match *self {
            DataPlace::Ddr => Place::Ddr,
            DataPlace::Mcdram => Place::Mcdram,
            DataPlace::Cached(base) => Place::CachedDdr {
                addr: base + offset,
            },
        }
    }
}

/// Builder state shared by all phase emitters.
struct SortBuilder<'a> {
    prog: Program,
    threads: usize,
    cal: &'a Calibration,
    machine: &'a MachineConfig,
    barrier: Vec<OpId>,
}

impl<'a> SortBuilder<'a> {
    fn new(threads: usize, cal: &'a Calibration, machine: &'a MachineConfig) -> Self {
        SortBuilder {
            prog: Program::new(threads),
            threads,
            cal,
            machine,
            barrier: Vec::new(),
        }
    }

    /// Close a phase: every thread joins (paying the fork/join overhead),
    /// and subsequent phases depend on the join.
    fn join_phase(&mut self, phase_ops: &[OpId]) {
        let overhead = self.cal.phase_overhead;
        self.barrier = (0..self.threads)
            .map(|t| {
                self.prog
                    .push(t, OpKind::Delay { seconds: overhead }, phase_ops)
            })
            .collect();
    }

    /// Contiguous byte share `(offset, len)` of thread `t` out of `total`.
    fn share(&self, total: u64, t: usize) -> (u64, u64) {
        let p = self.threads as u64;
        let base = total / p;
        let extra = total % p;
        let t64 = t as u64;
        let offset = t64 * base + t64.min(extra);
        let len = base + u64::from(t64 < extra);
        (offset, len)
    }

    /// Emit one serial-sort phase: every thread introsorts a `block_elems`
    /// chunk residing at `place` (for [`DataPlace::Cached`], thread `t`'s
    /// block starts at `base + t * block_bytes`).
    ///
    /// `rate_mult` applies the GNU efficiency penalty when modeling the
    /// baseline.
    fn serial_sort_phase(
        &mut self,
        block_elems: u64,
        elem_bytes: u64,
        order: InputOrder,
        place: DataPlace,
        rate_mult: f64,
    ) {
        if block_elems == 0 {
            return;
        }
        let block_bytes = block_elems * elem_bytes;
        let passes = self.cal.sort_passes(block_elems as usize);
        let s_sort = self.cal.sort_rate(order) * rate_mult;
        // Cache-resident recursion levels: pure compute, no bus traffic,
        // identical whichever memory level holds the block.
        let incache_seconds = block_elems as f64 * self.cal.incache_time(order) / rate_mult;
        let boost = self.cal.mcdram_boost;
        let mut ops = Vec::with_capacity(self.threads * 2);

        for t in 0..self.threads {
            match place {
                DataPlace::Ddr => {
                    let traffic = block_bytes * u64::from(passes);
                    let id = self.prog.push(
                        t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::Ddr, traffic),
                                Access::write(Place::Ddr, traffic),
                            ],
                            rate_cap: s_sort,
                        },
                        &self.barrier,
                    );
                    ops.push(id);
                }
                DataPlace::Mcdram => {
                    let traffic = block_bytes * u64::from(passes);
                    let id = self.prog.push(
                        t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::Mcdram, traffic),
                                Access::write(Place::Mcdram, traffic),
                            ],
                            rate_cap: s_sort * boost,
                        },
                        &self.barrier,
                    );
                    ops.push(id);
                }
                DataPlace::Cached(base) => {
                    let addr = base + t as u64 * block_bytes;
                    // Pass 0: cold, through the real cache model.
                    let cold = self.prog.push(
                        t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::CachedDdr { addr }, block_bytes),
                                Access::write(Place::CachedDdr { addr }, block_bytes),
                            ],
                            rate_cap: s_sort,
                        },
                        &self.barrier,
                    );
                    ops.push(cold);

                    // Deeper levels: analytic residency split. A recursion
                    // level is MCDRAM-served when the machine-wide *active*
                    // working set (one subproblem per thread) fits the
                    // cache — total data size is irrelevant because each
                    // thread only touches its current subproblem, which is
                    // exactly the paper's explanation for MLM-implicit's
                    // megachunk-equals-problem-size win.
                    let eff_cache = self.machine.effective_cache_capacity() as f64;
                    let per_thread_cache = eff_cache / self.threads as f64;
                    let mut warm = 0u64;
                    let mut cold_levels = 0u64;
                    for l in 1..passes {
                        let sub = block_bytes as f64 / 2f64.powi(l as i32);
                        if sub <= per_thread_cache {
                            warm += 1;
                        } else {
                            cold_levels += 1;
                        }
                    }
                    if warm > 0 {
                        let half = block_bytes * warm;
                        let id = self.prog.push(
                            t,
                            OpKind::Stream {
                                accesses: vec![
                                    Access::read(Place::Mcdram, half),
                                    Access::write(Place::Mcdram, half),
                                ],
                                rate_cap: s_sort * boost,
                            },
                            &[cold],
                        );
                        ops.push(id);
                    }
                    if cold_levels > 0 {
                        // Capacity/conflict-missing levels: DDR read+write
                        // plus MCDRAM fill traffic; rate scaled so the data
                        // traffic (2 x half) still moves at `s_sort`.
                        let half = block_bytes * cold_levels;
                        let id = self.prog.push(
                            t,
                            OpKind::Stream {
                                accesses: vec![
                                    Access::read(Place::Ddr, half),
                                    Access::write(Place::Ddr, half),
                                    Access::write(Place::Mcdram, half),
                                ],
                                rate_cap: s_sort * 1.5,
                            },
                            &[cold],
                        );
                        ops.push(id);
                    }
                }
            }
            if incache_seconds > 0.0 {
                // Program order on the thread serializes this after the
                // thread's memory passes.
                let id = self.prog.push(
                    t,
                    OpKind::Delay {
                        seconds: incache_seconds,
                    },
                    &[],
                );
                ops.push(id);
            }
        }
        self.join_phase(&ops);
    }

    /// Emit one parallel multiway-merge phase over `total_bytes` of data in
    /// `k` runs: each thread streams its share from `src` to `dst`.
    /// `order_boost` controls whether the merge rate benefits from
    /// structured input: MLM's plain loser-tree merges do (disjoint runs
    /// from reverse-sorted input keep the tournament winner stable), but
    /// the paper's GNU-baseline timings show no such benefit in its merge
    /// phase, so the GNU variants pass `false` (see EXPERIMENTS.md).
    #[allow(clippy::too_many_arguments)]
    fn multiway_merge_phase(
        &mut self,
        total_bytes: u64,
        k: usize,
        order: InputOrder,
        src: DataPlace,
        dst: DataPlace,
        rate_mult: f64,
        order_boost: bool,
    ) {
        let rate = if order_boost {
            self.cal.multiway_rate_ordered(k, order)
        } else {
            self.cal.multiway_rate(k)
        } * rate_mult;
        let mut ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (offset, len) = self.share(total_bytes, t);
            if len == 0 {
                continue;
            }
            let id = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(src.place_at(offset), len),
                        Access::write(dst.place_at(offset), len),
                    ],
                    rate_cap: rate,
                },
                &self.barrier,
            );
            ops.push(id);
        }
        self.join_phase(&ops);
    }

    /// Emit one bulk-copy phase: all threads cooperatively move
    /// `total_bytes` from `src` to `dst` at the machine's `S_copy`.
    fn copy_phase(&mut self, total_bytes: u64, src: DataPlace, dst: DataPlace) {
        let rate = self.machine.per_thread_copy_bw;
        let mut ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (offset, len) = self.share(total_bytes, t);
            if len == 0 {
                continue;
            }
            let id = self.prog.push(
                t,
                OpKind::Copy {
                    src: src.place_at(offset),
                    dst: dst.place_at(offset),
                    bytes: len,
                    rate_cap: rate,
                },
                &self.barrier,
            );
            ops.push(id);
        }
        self.join_phase(&ops);
    }
}

/// Per-run constants the phase lowering needs alongside the builder:
/// which variant is being lowered and the byte-address layout.
struct Lowering {
    alg: SortAlgorithm,
    elem: u64,
    n_bytes: u64,
    data: u64,
    scratch: u64,
    order: InputOrder,
    mega_bytes: u64,
}

impl Lowering {
    /// DDR base address of megachunk `m` in the key array.
    fn mega_base(&self, m: usize) -> u64 {
        self.data + m as u64 * self.mega_bytes
    }

    /// DDR base address of megachunk `m`'s window of the scratch array.
    fn scratch_base(&self, m: usize) -> u64 {
        self.scratch + m as u64 * self.mega_bytes
    }
}

/// Lower one node of the sort's [`WorkloadPlan`] to ops. *What* the node
/// is comes from its `(kind, chunk, kernel)` triple as
/// [`mlm_exec::SortPlan::to_workload_plan`] emits it — the same DAG the
/// host executor and the graph verifier consume; where its bytes live and
/// which calibrated rate applies is decided here per variant.
fn lower_phase(b: &mut SortBuilder, lx: &Lowering, wplan: &WorkloadPlan, node: &PlanNode) {
    let p = b.threads as u64;
    let gnu = b.cal.gnu_efficiency;
    let elems = node.len;
    match (node.kind, node.chunk, node.kernel) {
        // Whole-array plans (the GNU baselines): per-thread block sorts...
        (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_SORT)) => {
            let block = elems.div_ceil(p);
            match lx.alg {
                SortAlgorithm::GnuFlat => {
                    b.serial_sort_phase(block, lx.elem, lx.order, DataPlace::Ddr, gnu)
                }
                SortAlgorithm::GnuCache => {
                    b.serial_sort_phase(block, lx.elem, lx.order, DataPlace::Cached(lx.data), gnu)
                }
                SortAlgorithm::GnuNumactl => numactl_sort_phase(b, lx, block),
                _ => unreachable!("ThreadSort only appears in Whole plans"),
            }
        }
        // ...then one thread-count-way merge into scratch.
        (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_MERGE)) => match lx.alg {
            SortAlgorithm::GnuFlat => b.multiway_merge_phase(
                lx.n_bytes,
                b.threads,
                lx.order,
                DataPlace::Ddr,
                DataPlace::Ddr,
                gnu,
                false,
            ),
            SortAlgorithm::GnuCache => b.multiway_merge_phase(
                lx.n_bytes,
                b.threads,
                lx.order,
                DataPlace::Cached(lx.data),
                DataPlace::Cached(lx.scratch),
                gnu,
                false,
            ),
            SortAlgorithm::GnuNumactl => numactl_merge_phase(b, lx),
            _ => unreachable!("ThreadMerge only appears in Whole plans"),
        },
        // Stage megachunk `m` into the working buffer (the MLM structure's
        // copy-in: MCDRAM in flat mode, or the DDR buffer for MLM-ddr).
        (PlanKind::StageIn, Some(mega), _) => {
            let bytes = elems * lx.elem;
            match lx.alg {
                SortAlgorithm::MlmDdr => b.copy_phase(bytes, DataPlace::Ddr, DataPlace::Ddr),
                SortAlgorithm::MlmSort | SortAlgorithm::BasicChunked => b.copy_phase(
                    bytes,
                    DataPlace::Cached(lx.mega_base(mega)),
                    DataPlace::Mcdram,
                ),
                _ => unreachable!("StageIn appears in Staged plans only"),
            }
        }
        // Sort megachunk `m`'s chunks in the working buffer.
        (PlanKind::Kernel, Some(mega), _) => {
            let chunk = elems.div_ceil(p);
            match lx.alg {
                SortAlgorithm::MlmDdr => {
                    b.serial_sort_phase(chunk, lx.elem, lx.order, DataPlace::Ddr, 1.0)
                }
                SortAlgorithm::MlmSort => {
                    b.serial_sort_phase(chunk, lx.elem, lx.order, DataPlace::Mcdram, 1.0)
                }
                SortAlgorithm::MlmImplicit => b.serial_sort_phase(
                    chunk,
                    lx.elem,
                    lx.order,
                    DataPlace::Cached(lx.mega_base(mega)),
                    1.0,
                ),
                // Bender et al.'s scheme sorts the megachunk with the
                // *parallel* mergesort: the same block sorts, but at GNU
                // efficiency (its merge is the MergeRuns phase below).
                SortAlgorithm::BasicChunked => {
                    b.serial_sort_phase(chunk, lx.elem, lx.order, DataPlace::Mcdram, gnu)
                }
                _ => unreachable!("ChunkSort lowered per-variant"),
            }
        }
        // Multiway-merge megachunk `m`'s sorted runs out of the buffer.
        (PlanKind::StageOut, Some(mega), Some(SORT_KERNEL_MERGE_RUNS)) => {
            let bytes = elems * lx.elem;
            match lx.alg {
                SortAlgorithm::MlmDdr => b.multiway_merge_phase(
                    bytes,
                    b.threads,
                    lx.order,
                    DataPlace::Ddr,
                    DataPlace::Ddr,
                    1.0,
                    true,
                ),
                SortAlgorithm::MlmSort => b.multiway_merge_phase(
                    bytes,
                    b.threads,
                    lx.order,
                    DataPlace::Mcdram,
                    DataPlace::Cached(lx.mega_base(mega)),
                    1.0,
                    true,
                ),
                SortAlgorithm::MlmImplicit => b.multiway_merge_phase(
                    bytes,
                    b.threads,
                    lx.order,
                    DataPlace::Cached(lx.mega_base(mega)),
                    DataPlace::Cached(lx.scratch_base(mega)),
                    1.0,
                    true,
                ),
                // The parallel sort's own multiway merge writes straight
                // back out to DDR (it needs a distinct output buffer anyway,
                // which is why the megachunk is capped at MCDRAM/2).
                SortAlgorithm::BasicChunked => b.multiway_merge_phase(
                    bytes,
                    b.threads,
                    lx.order,
                    DataPlace::Mcdram,
                    DataPlace::Cached(lx.mega_base(mega)),
                    gnu,
                    false,
                ),
                _ => unreachable!("MergeRuns lowered per-variant"),
            }
        }
        // Copy megachunk `m` back from scratch (in-place plans only).
        (PlanKind::StageOut, Some(mega), None) => {
            let bytes = elems * lx.elem;
            debug_assert_eq!(lx.alg, SortAlgorithm::MlmImplicit);
            b.copy_phase(
                bytes,
                DataPlace::Cached(lx.scratch_base(mega)),
                DataPlace::Cached(lx.mega_base(mega)),
            );
        }
        // Final k-way merge across sorted megachunks into scratch.
        (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE)) => match lx.alg {
            SortAlgorithm::MlmDdr => b.multiway_merge_phase(
                lx.n_bytes,
                wplan.chunks,
                lx.order,
                DataPlace::Ddr,
                DataPlace::Ddr,
                1.0,
                true,
            ),
            SortAlgorithm::BasicChunked => b.multiway_merge_phase(
                lx.n_bytes,
                wplan.chunks,
                lx.order,
                DataPlace::Cached(lx.data),
                DataPlace::Cached(lx.scratch),
                1.0,
                false,
            ),
            SortAlgorithm::MlmSort
            | SortAlgorithm::MlmImplicit
            | SortAlgorithm::MlmSortBuffered => b.multiway_merge_phase(
                lx.n_bytes,
                wplan.chunks,
                lx.order,
                DataPlace::Cached(lx.data),
                DataPlace::Cached(lx.scratch),
                1.0,
                true,
            ),
            _ => unreachable!("Whole plans have no FinalMerge"),
        },
        // Copy the whole array back from scratch into the caller's array,
        // as the out-of-place merges require.
        (PlanKind::StageOut, None, _) => {
            let (src, dst) = match lx.alg {
                SortAlgorithm::GnuFlat | SortAlgorithm::GnuNumactl | SortAlgorithm::MlmDdr => {
                    (DataPlace::Ddr, DataPlace::Ddr)
                }
                _ => (DataPlace::Cached(lx.scratch), DataPlace::Cached(lx.data)),
            };
            b.copy_phase(lx.n_bytes, src, dst);
        }
        (kind, chunk, kernel) => {
            unreachable!("sort plans never emit {kind:?}/{chunk:?}/{kernel:?}")
        }
    }
}

/// §2.4 (Li et al.): flat mode with `numactl --preferred` — the first
/// `addressable_mcdram` bytes of the array live in MCDRAM, the spill in
/// DDR; the unchunked GNU sort runs over the mix. Per-thread blocks are
/// contiguous, so a `fit` fraction of the threads work MCDRAM-resident
/// blocks and the rest DDR blocks.
fn numactl_sort_phase(b: &mut SortBuilder, lx: &Lowering, block: u64) {
    let gnu = b.cal.gnu_efficiency;
    let threads = b.threads;
    let mcdram_threads = numactl_mcdram_threads(b, lx);
    let passes = b.cal.sort_passes(block as usize);
    let incache = block as f64 * b.cal.incache_time(lx.order) / gnu;
    let mut phase_ops = Vec::with_capacity(2 * threads);
    for t in 0..threads {
        let place = if t < mcdram_threads {
            Place::Mcdram
        } else {
            Place::Ddr
        };
        let traffic = block * lx.elem * u64::from(passes);
        let rate = if t < mcdram_threads {
            b.cal.sort_rate(lx.order) * b.cal.mcdram_boost * gnu
        } else {
            b.cal.sort_rate(lx.order) * gnu
        };
        let id = b.prog.push(
            t,
            OpKind::Stream {
                accesses: vec![Access::read(place, traffic), Access::write(place, traffic)],
                rate_cap: rate,
            },
            &[],
        );
        phase_ops.push(id);
        phase_ops.push(b.prog.push(t, OpKind::Delay { seconds: incache }, &[]));
    }
    b.join_phase(&phase_ops);
}

/// GNU-numactl's unchunked multiway merge: reads the mixed-placement
/// array, writes the scratch (DDR — the spill means scratch cannot be
/// MCDRAM-resident). The read side is modeled by the same fit fraction.
fn numactl_merge_phase(b: &mut SortBuilder, lx: &Lowering) {
    let gnu = b.cal.gnu_efficiency;
    let threads = b.threads;
    let mcdram_threads = numactl_mcdram_threads(b, lx);
    let rate = b.cal.multiway_rate(threads) * gnu;
    let mut merge_ops = Vec::with_capacity(threads);
    for t in 0..threads {
        let (_, len) = b.share(lx.n_bytes, t);
        if len == 0 {
            continue;
        }
        let read_place = if t < mcdram_threads {
            Place::Mcdram
        } else {
            Place::Ddr
        };
        let id = b.prog.push(
            t,
            OpKind::Stream {
                accesses: vec![
                    Access::read(read_place, len),
                    Access::write(Place::Ddr, len),
                ],
                rate_cap: rate,
            },
            &b.barrier,
        );
        merge_ops.push(id);
    }
    b.join_phase(&merge_ops);
}

/// How many threads' contiguous blocks are MCDRAM-resident under
/// numactl-preferred placement.
fn numactl_mcdram_threads(b: &SortBuilder, lx: &Lowering) -> usize {
    let fit = (b.machine.addressable_mcdram() as f64 / lx.n_bytes as f64).min(1.0);
    (b.threads as f64 * fit).round() as usize
}

/// Lower an overlapped ([`SortStructure::Buffered`]) plan: the §6
/// future-work variant, where a small dedicated copy pool prefetches
/// megachunk `m+1` while the compute pool sorts and merges megachunk `m`.
/// The node set and every dependency come from the generic-IR lowering
/// ([`mlm_exec::SortPlan::to_workload_plan`]): StageIn of megachunk `m`
/// waits on MergeRuns of `m-2` (the Recycle edge of the 2-slot ring),
/// ChunkSort on StageIn of its own megachunk, MergeRuns on ChunkSort (Data
/// edges), and the final merge on every merge-out. Ops are emitted in
/// per-megachunk phase order so each thread's program order — and hence
/// the whole emitted program — is unchanged from the pre-IR lowering.
///
/// [`SortStructure::Buffered`]: mlm_exec::SortStructure::Buffered
fn lower_buffered(b: &mut SortBuilder, lx: &Lowering, wplan: &WorkloadPlan) {
    // A small dedicated pool prefetches megachunk m+1 while the rest
    // compute on m (the §5 lesson: copy threads are compute threads
    // forgone, so keep the pool small). The *prime* copy of megachunk 0
    // has nothing to overlap with, so, as the paper's §3.2 notes about
    // unoccupied pools, every thread helps with it.
    let threads = b.threads;
    let p_copy = BUFFERED_COPY_THREADS.min(threads.saturating_sub(1)).max(1);
    let p_comp = threads - p_copy;
    let comp0 = p_copy;
    let k_megas = wplan.chunks;
    let order = lx.order;

    // Ops realising each plan node, so edges resolve to op dependencies.
    let mut done: Vec<Vec<OpId>> = vec![Vec::new(); wplan.nodes.len()];
    let emit_order: Vec<usize> = (0..k_megas)
        .flat_map(|m| {
            [
                wplan.find(PlanKind::StageIn, m),
                wplan.find(PlanKind::Kernel, m),
                wplan.find(PlanKind::StageOut, m),
            ]
        })
        .flatten()
        .chain(
            wplan
                .nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.chunk.is_none())
                .map(|(i, _)| i),
        )
        .collect();

    for i in emit_order {
        let node = &wplan.nodes[i];
        let deps: Vec<OpId> = node
            .deps
            .iter()
            .flat_map(|e| done[e.from].iter().copied())
            .collect();
        let mut ops: Vec<OpId> = Vec::new();
        match (node.kind, node.chunk, node.kernel) {
            // Prefetch megachunk m; its Recycle edge says buffer (m % 2)
            // is free once megachunk m-2 has merged out.
            (PlanKind::StageIn, Some(m), _) => {
                let bytes = node.len * lx.elem;
                let base = lx.mega_base(m);
                let pool = if m == 0 { threads } else { p_copy };
                let mut offset = 0u64;
                for t in 0..pool {
                    let share = bytes / pool as u64 + u64::from((t as u64) < bytes % pool as u64);
                    if share == 0 {
                        continue;
                    }
                    let id = b.prog.push(
                        t,
                        OpKind::Copy {
                            src: Place::CachedDdr {
                                addr: base + offset,
                            },
                            dst: Place::Mcdram,
                            bytes: share,
                            rate_cap: b.machine.per_thread_copy_bw,
                        },
                        &deps,
                    );
                    offset += share;
                    ops.push(id);
                }
            }

            // Serial chunk sorts on the compute pool (in MCDRAM), behind
            // the Data edge from the megachunk's stage-in.
            (PlanKind::Kernel, Some(_), _) => {
                let chunk = node.len.div_ceil(p_comp as u64);
                let block_bytes = chunk * lx.elem;
                let passes = b.cal.sort_passes(chunk as usize);
                let incache = chunk as f64 * b.cal.incache_time(order);
                for t in 0..p_comp {
                    let traffic = block_bytes * u64::from(passes);
                    let mem = b.prog.push(
                        comp0 + t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::Mcdram, traffic),
                                Access::write(Place::Mcdram, traffic),
                            ],
                            rate_cap: b.cal.sort_rate(order) * b.cal.mcdram_boost,
                        },
                        &deps,
                    );
                    ops.push(mem);
                    if incache > 0.0 {
                        ops.push(
                            b.prog
                                .push(comp0 + t, OpKind::Delay { seconds: incache }, &[]),
                        );
                    }
                }
            }

            // Multiway merge out to DDR on the compute pool, behind the
            // Data edge from the megachunk's chunk-sort.
            (PlanKind::StageOut, Some(m), Some(SORT_KERNEL_MERGE_RUNS)) => {
                let bytes = node.len * lx.elem;
                let base = lx.mega_base(m);
                let rate = b.cal.multiway_rate_ordered(p_comp, order);
                for t in 0..p_comp {
                    let share =
                        bytes / p_comp as u64 + u64::from((t as u64) < bytes % p_comp as u64);
                    if share == 0 {
                        continue;
                    }
                    let id = b.prog.push(
                        comp0 + t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::Mcdram, share),
                                Access::write(
                                    Place::CachedDdr {
                                        addr: base + t as u64 * share,
                                    },
                                    share,
                                ),
                            ],
                            rate_cap: rate,
                        },
                        &deps,
                    );
                    ops.push(id);
                }
            }

            // Final multiway merge + copyback, joined on every megachunk's
            // merge-out (the plan's Data fan-in); from here the lockstep
            // lowering applies.
            (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE)) => {
                b.barrier = deps;
                lower_phase(b, lx, wplan, node);
            }
            (PlanKind::StageOut, None, _) => lower_phase(b, lx, wplan, node),

            _ => unreachable!("Buffered plans are staged"),
        }
        done[i] = ops;
    }
}

/// Build the simulated program for one Table-1 sort run.
///
/// The phase sequence comes from [`mlm_exec::plan_sort`] (shared with the
/// host executor); this function validates the (machine, variant,
/// megachunk) combination and lowers each phase per variant.
///
/// Address layout: the key array occupies DDR `[0, n_bytes)`; the merge
/// scratch occupies `[n_bytes, 2 n_bytes)`. `threads` is the paper's 256.
///
/// Returns an error if the variant is incompatible with the machine's
/// memory mode (e.g. `MLM-sort` on a cache-mode machine) or if the
/// megachunk cannot fit the addressable MCDRAM where it must.
pub fn build_sort_program(
    machine: &MachineConfig,
    cal: &Calibration,
    w: SortWorkload,
    alg: SortAlgorithm,
    megachunk_elems: u64,
    threads: usize,
) -> Result<Program, String> {
    cal.validate()?;
    machine.validate().map_err(|e| e.to_string())?;
    if w.n == 0 {
        return Err("empty workload".into());
    }
    if megachunk_elems == 0 {
        return Err("megachunk must be positive".into());
    }
    if threads == 0 {
        return Err("need at least one thread".into());
    }
    if alg.needs_cache_mode() && !machine.mode.has_cache() {
        return Err(format!("{} requires a cache-mode machine", alg.label()));
    }
    if alg.needs_flat_mcdram() && machine.addressable_mcdram() == 0 {
        return Err(format!("{} requires flat-addressable MCDRAM", alg.label()));
    }

    let elem = u64::from(w.elem_bytes);
    let n_bytes = w.bytes();

    let mega_elems = megachunk_elems.min(w.n);
    let mega_bytes = mega_elems * elem;

    // GNU-numactl is unchunked: its data spills past MCDRAM by design, so
    // the megachunk feasibility check does not apply to it.
    if alg.needs_flat_mcdram()
        && alg != SortAlgorithm::GnuNumactl
        && mega_bytes > machine.addressable_mcdram()
    {
        return Err(format!(
            "megachunk of {mega_bytes} bytes exceeds addressable MCDRAM ({})",
            machine.addressable_mcdram()
        ));
    }
    // Double-buffered variants keep two megachunks resident (the §6
    // prefetch buffer, or basic-chunked's in-MCDRAM merge temp), so each
    // may only use half the scratchpad.
    if alg == SortAlgorithm::MlmSortBuffered && 2 * mega_bytes > machine.addressable_mcdram() {
        return Err("buffered MLM-sort needs megachunk <= MCDRAM/2".into());
    }
    if alg == SortAlgorithm::BasicChunked && 2 * mega_bytes > machine.addressable_mcdram() {
        return Err("basic-chunked needs megachunk <= MCDRAM/2".into());
    }

    let plan = plan_sort(alg.structure(), alg.chunk_style(), w.n, megachunk_elems);
    let wplan = plan.to_workload_plan();
    let lx = Lowering {
        alg,
        elem,
        n_bytes,
        data: 0,
        scratch: n_bytes,
        order: w.order,
        mega_bytes,
    };

    let mut b = SortBuilder::new(threads, cal, machine);
    if plan.overlapped {
        lower_buffered(&mut b, &lx, &wplan);
    } else {
        // Sequential structures: one node per phase, Seq-chained — the
        // generic walk reproduces the barrier-per-phase emission exactly.
        for node in &wplan.nodes {
            lower_phase(&mut b, &lx, &wplan, node);
        }
    }
    Ok(b.prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;
    use knl_sim::Simulator;
    use mlm_exec::mega_size;

    const BILLION: u64 = 1_000_000_000;

    fn run(alg: SortAlgorithm, mode: MemMode, n: u64, order: InputOrder, mega: u64) -> f64 {
        let machine = MachineConfig::knl_7250(mode);
        let cal = Calibration::default();
        let w = SortWorkload::int64(n, order);
        let prog = build_sort_program(&machine, &cal, w, alg, mega, 256).unwrap();
        Simulator::new(machine).run(&prog).unwrap().makespan
    }

    #[test]
    fn mode_mismatches_are_rejected() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let w = SortWorkload::int64(BILLION, InputOrder::Random);
        assert!(
            build_sort_program(&machine, &cal, w, SortAlgorithm::GnuCache, BILLION, 256).is_err()
        );
        let cache = MachineConfig::knl_7250(MemMode::Cache);
        assert!(build_sort_program(&cache, &cal, w, SortAlgorithm::MlmSort, BILLION, 256).is_err());
    }

    #[test]
    fn oversized_megachunk_is_rejected_in_flat_mode() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let w = SortWorkload::int64(4 * BILLION, InputOrder::Random);
        // 3e9 elements = 24 GB > 16 GiB MCDRAM.
        assert!(
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmSort, 3 * BILLION, 256)
                .is_err()
        );
        // But fine for the DDR variant.
        assert!(
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmDdr, 3 * BILLION, 256).is_ok()
        );
    }

    #[test]
    fn degenerate_inputs_are_rejected() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let w0 = SortWorkload::int64(0, InputOrder::Random);
        assert!(build_sort_program(&machine, &cal, w0, SortAlgorithm::GnuFlat, 1, 256).is_err());
        let w = SortWorkload::int64(100, InputOrder::Random);
        assert!(build_sort_program(&machine, &cal, w, SortAlgorithm::GnuFlat, 0, 256).is_err());
        assert!(build_sort_program(&machine, &cal, w, SortAlgorithm::GnuFlat, 10, 0).is_err());
    }

    /// The paper's headline (Fig. 6a, 2B random): MLM-sort and MLM-implicit
    /// beat GNU-cache, which beats GNU-flat; MLM-ddr sits between GNU-cache
    /// and MLM-sort.
    #[test]
    fn table1_orderings_hold_for_2b_random() {
        let n = 2 * BILLION;
        let gnu_flat = run(
            SortAlgorithm::GnuFlat,
            MemMode::Flat,
            n,
            InputOrder::Random,
            n,
        );
        let gnu_cache = run(
            SortAlgorithm::GnuCache,
            MemMode::Cache,
            n,
            InputOrder::Random,
            n,
        );
        let mlm_ddr = run(
            SortAlgorithm::MlmDdr,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        let mlm_sort = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        let mlm_impl = run(
            SortAlgorithm::MlmImplicit,
            MemMode::Cache,
            n,
            InputOrder::Random,
            n,
        );

        assert!(
            gnu_cache < gnu_flat,
            "GNU-cache {gnu_cache} !< GNU-flat {gnu_flat}"
        );
        assert!(
            mlm_ddr < gnu_flat,
            "MLM-ddr {mlm_ddr} !< GNU-flat {gnu_flat}"
        );
        assert!(
            mlm_sort < mlm_ddr,
            "MLM-sort {mlm_sort} !< MLM-ddr {mlm_ddr}"
        );
        assert!(
            mlm_impl < gnu_cache,
            "MLM-implicit {mlm_impl} !< GNU-cache {gnu_cache}"
        );

        // Headline speedup band: 1.4x-2.1x over GNU-flat for the winners.
        for t in [mlm_sort, mlm_impl] {
            let speedup = gnu_flat / t;
            assert!((1.3..2.2).contains(&speedup), "speedup {speedup}");
        }
    }

    #[test]
    fn reverse_input_is_faster_than_random() {
        let n = 2 * BILLION;
        for (alg, mode, mega) in [
            (SortAlgorithm::GnuFlat, MemMode::Flat, n),
            (SortAlgorithm::MlmSort, MemMode::Flat, BILLION),
            (SortAlgorithm::MlmImplicit, MemMode::Cache, n),
        ] {
            let r = run(alg, mode, n, InputOrder::Random, mega);
            let v = run(alg, mode, n, InputOrder::Reverse, mega);
            assert!(v < r, "{alg:?}: reverse {v} !< random {r}");
        }
    }

    #[test]
    fn times_scale_roughly_linearly_with_n() {
        let t2 = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            2 * BILLION,
            InputOrder::Random,
            BILLION,
        );
        let t4 = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            4 * BILLION,
            InputOrder::Random,
            BILLION,
        );
        let ratio = t4 / t2;
        assert!((1.8..2.4).contains(&ratio), "4B/2B ratio {ratio}");
    }

    #[test]
    fn basic_chunked_beats_gnu_flat_but_not_mlm_sort() {
        // Bender et al. predicted ~30% for the basic chunked algorithm; the
        // paper found it gains over GNU-flat but not over hardware cache
        // mode. Check the first part and that MLM-sort still wins.
        let n = 2 * BILLION;
        let gnu_flat = run(
            SortAlgorithm::GnuFlat,
            MemMode::Flat,
            n,
            InputOrder::Random,
            n,
        );
        let basic = run(
            SortAlgorithm::BasicChunked,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        let mlm_sort = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        assert!(basic < gnu_flat, "basic {basic} !< GNU-flat {gnu_flat}");
        assert!(mlm_sort < basic, "MLM-sort {mlm_sort} !< basic {basic}");
    }

    #[test]
    fn deterministic_program_construction() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let w = SortWorkload::int64(BILLION, InputOrder::Random);
        let a =
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmSort, BILLION / 2, 64).unwrap();
        let b =
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmSort, BILLION / 2, 64).unwrap();
        assert_eq!(a.ops().len(), b.ops().len());
    }

    /// The §6 future-work variant: hiding megachunk copy-in latency with a
    /// small dedicated copy pool. The gain is the hidden copy time minus
    /// the compute threads forgone, so it shows where copies are a larger
    /// fraction of the runtime — many megachunks, compute-light (reverse)
    /// input. On compute-heavy random input at two megachunks the two
    /// variants tie, which is itself the paper's §5 lesson (dedicating
    /// threads to copying is not free).
    #[test]
    fn buffered_mlm_sort_hides_copy_latency() {
        let n = 2 * BILLION;
        let mega = BILLION / 2; // 4 megachunks: 3 of 4 copy-ins hidden
        let plain = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            n,
            InputOrder::Reverse,
            mega,
        );
        let buffered = run(
            SortAlgorithm::MlmSortBuffered,
            MemMode::Flat,
            n,
            InputOrder::Reverse,
            mega,
        );
        assert!(
            buffered < plain,
            "buffered {buffered:.3} should beat plain {plain:.3}"
        );
        // The gain is the hidden copy-in time: bounded by ~10%.
        assert!(
            buffered > plain * 0.85,
            "gain implausibly large: {buffered} vs {plain}"
        );

        // And on compute-heavy input the two variants stay within 1%.
        let plain_r = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        let buffered_r = run(
            SortAlgorithm::MlmSortBuffered,
            MemMode::Flat,
            n,
            InputOrder::Random,
            BILLION,
        );
        assert!(
            (buffered_r / plain_r - 1.0).abs() < 0.01,
            "{buffered_r} vs {plain_r}"
        );
    }

    #[test]
    fn buffered_mlm_sort_respects_half_mcdram_cap() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let w = SortWorkload::int64(4 * BILLION, InputOrder::Random);
        // 1B elements = 8 GB = exactly half of 16 GiB: fits.
        assert!(build_sort_program(
            &machine,
            &cal,
            w,
            SortAlgorithm::MlmSortBuffered,
            BILLION,
            256
        )
        .is_ok());
        // 1.5B elements = 12 GB > MCDRAM/2: rejected.
        assert!(build_sort_program(
            &machine,
            &cal,
            w,
            SortAlgorithm::MlmSortBuffered,
            3 * BILLION / 2,
            256
        )
        .is_err());
    }

    /// §2.4 (Li et al.): numactl-preferred placement is excellent while
    /// the data fits MCDRAM and falls off a cliff beyond — the crossover
    /// that motivates chunking in the first place.
    #[test]
    fn numactl_cliff_at_mcdram_capacity() {
        // 1B elements = 8 GB: fits; numactl beats even MLM-sort (no copies).
        let small_numactl = run(
            SortAlgorithm::GnuNumactl,
            MemMode::Flat,
            BILLION,
            InputOrder::Random,
            BILLION,
        );
        let small_gnu = run(
            SortAlgorithm::GnuFlat,
            MemMode::Flat,
            BILLION,
            InputOrder::Random,
            BILLION,
        );
        assert!(
            small_numactl < small_gnu,
            "in-capacity numactl {small_numactl} !< GNU-flat {small_gnu}"
        );

        // 6B elements = 48 GB: only a third fits; the advantage collapses
        // while MLM-sort's chunking keeps its full margin.
        let big_numactl = run(
            SortAlgorithm::GnuNumactl,
            MemMode::Flat,
            6 * BILLION,
            InputOrder::Random,
            6 * BILLION,
        );
        let big_gnu = run(
            SortAlgorithm::GnuFlat,
            MemMode::Flat,
            6 * BILLION,
            InputOrder::Random,
            6 * BILLION,
        );
        let big_mlm = run(
            SortAlgorithm::MlmSort,
            MemMode::Flat,
            6 * BILLION,
            InputOrder::Random,
            3 * BILLION / 2,
        );
        let numactl_gain = big_gnu / big_numactl;
        let mlm_gain = big_gnu / big_mlm;
        assert!(
            mlm_gain > numactl_gain * 1.1,
            "chunking must beat numactl out of capacity: {mlm_gain} vs {numactl_gain}"
        );
    }

    #[test]
    fn mega_size_covers_input() {
        assert_eq!(mega_size(10, 4, 0), 4);
        assert_eq!(mega_size(10, 4, 1), 4);
        assert_eq!(mega_size(10, 4, 2), 2);
        assert_eq!(mega_size(10, 4, 3), 0);
    }
}
