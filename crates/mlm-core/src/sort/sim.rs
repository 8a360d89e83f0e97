//! Lowering the sort variants to simulated op graphs.
//!
//! The phase *sequence* of every variant — stage a megachunk, sort its
//! chunks, merge the runs out, final k-way merge — is planned once by
//! [`mlm_exec::plan_sort`], lowered onto the generic IR and executed by
//! [`mlm_exec::interpret`], exactly as on the host
//! ([`super::host::HostSortBackend`]). This module owns only
//! [`SimSortBackend`], the per-variant lowering of each plan node: where
//! the bytes live ([`DataPlace`]), which calibrated rate applies, and
//! which threads run it. A node's token is the ops realising it — for a
//! phase of a sequential plan, the phase's join — so the plan's edges
//! become op dependencies, and the buffered variant's cross-megachunk
//! overlap is the plan's, not this module's. Compute rates come from
//! [`Calibration`]; bandwidth contention, DDR saturation, and
//! MCDRAM-cache behaviour then emerge from the [`knl_sim`] engine.
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
    interpret, plan_sort, Backend, ChunkSortStyle, PlanKind, PlanNode, SortPlan,
    SORT_KERNEL_CHUNK_SORT, SORT_KERNEL_FINAL_MERGE, SORT_KERNEL_MERGE_RUNS,
    SORT_KERNEL_THREAD_MERGE, SORT_KERNEL_THREAD_SORT,
};

use super::SortAlgorithm;
use crate::calibration::Calibration;
use crate::workload::SortWorkload;

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

/// The simulated sort [`Backend`], with the [`SortPlan`] as its context:
/// lowers each issued node of one Table-1 sort run to ops on a
/// [`Program`].
///
/// Address layout: the key array occupies DDR `[0, n_bytes)`; the merge
/// scratch occupies `[n_bytes, 2 n_bytes)`.
pub struct SimSortBackend<'a> {
    prog: Program,
    threads: usize,
    cal: &'a Calibration,
    machine: &'a MachineConfig,
    alg: SortAlgorithm,
    w: SortWorkload,
    megachunk_elems: u64,
    /// Bytes per key.
    elem: u64,
    /// Bytes of the key array (and the scratch's base address).
    n_bytes: u64,
    /// Bytes of a full megachunk.
    mega_bytes: u64,
}

impl<'a> SimSortBackend<'a> {
    /// A backend lowering `alg` over `w` with `megachunk_elems`-element
    /// megachunks on `threads` threads (the paper's 256).
    ///
    /// Returns an error if the variant is incompatible with the machine's
    /// memory mode (e.g. `MLM-sort` on a cache-mode machine), if the
    /// megachunk cannot fit the addressable MCDRAM where it must, or if
    /// the buffered variant has fewer than its one copy and one compute
    /// thread.
    pub fn new(
        machine: &'a MachineConfig,
        cal: &'a Calibration,
        w: SortWorkload,
        alg: SortAlgorithm,
        megachunk_elems: u64,
        threads: usize,
    ) -> Result<Self, String> {
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
        if alg == SortAlgorithm::MlmSortBuffered && threads < 2 {
            return Err("buffered MLM-sort needs one copy and one compute thread".into());
        }
        if alg.needs_cache_mode() && !machine.mode.has_cache() {
            return Err(format!("{} requires a cache-mode machine", alg.label()));
        }
        if alg.needs_flat_mcdram() && machine.addressable_mcdram() == 0 {
            return Err(format!("{} requires flat-addressable MCDRAM", alg.label()));
        }

        let elem = u64::from(w.elem_bytes);
        let mega_bytes = megachunk_elems.min(w.n) * elem;

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
        let double_buffered = matches!(
            alg,
            SortAlgorithm::MlmSortBuffered | SortAlgorithm::BasicChunked
        );
        if double_buffered && 2 * mega_bytes > machine.addressable_mcdram() {
            return Err(format!("{} needs megachunk <= MCDRAM/2", alg.label()));
        }

        Ok(SimSortBackend {
            prog: Program::new(threads),
            threads,
            cal,
            machine,
            alg,
            w,
            megachunk_elems,
            elem,
            n_bytes: w.bytes(),
            mega_bytes,
        })
    }

    /// The phase plan of this run, to [`interpret`] over this backend.
    pub fn plan(&self) -> SortPlan {
        plan_sort(
            self.alg.structure(),
            self.alg.chunk_style(),
            self.w.n,
            self.megachunk_elems,
        )
    }

    /// The lowered program.
    pub fn into_program(self) -> Program {
        self.prog
    }

    /// DDR base address of megachunk `m` in the key array.
    fn mega_base(&self, m: usize) -> u64 {
        m as u64 * self.mega_bytes
    }

    /// DDR base address of megachunk `m`'s window of the scratch array.
    fn scratch_base(&self, m: usize) -> u64 {
        self.n_bytes + m as u64 * self.mega_bytes
    }

    /// Close a phase: every thread joins (paying the fork/join overhead);
    /// the join is the phase's token.
    fn join_phase(&mut self, phase_ops: &[OpId]) -> Vec<OpId> {
        let overhead = self.cal.phase_overhead;
        (0..self.threads)
            .map(|t| {
                self.prog
                    .push(t, OpKind::Delay { seconds: overhead }, phase_ops)
            })
            .collect()
    }

    /// Emit one serial-sort phase after `deps`: every thread introsorts a
    /// `block_elems` chunk residing at `place` (for [`DataPlace::Cached`],
    /// thread `t`'s block starts at `base + t * block_bytes`).
    ///
    /// `rate_mult` applies the GNU efficiency penalty when modeling the
    /// baseline.
    fn serial_sort_phase(
        &mut self,
        deps: &[OpId],
        block_elems: u64,
        place: DataPlace,
        rate_mult: f64,
    ) -> Vec<OpId> {
        if block_elems == 0 {
            return deps.to_vec();
        }
        let order = self.w.order;
        let block_bytes = block_elems * self.elem;
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
                        deps,
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
                        deps,
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
                        deps,
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
        self.join_phase(&ops)
    }

    /// Emit one radix chunk-sort phase after `deps`: every thread runs one
    /// LSD digit pass per key byte over its `block_elems` block at `place`,
    /// each pass reading and writing the whole block at `s_radix`. The
    /// passes are pure streams — no cache-resident recursion levels, so no
    /// in-cache term and no MCDRAM boost — and each one touches exactly the
    /// block's bytes, so a cached block goes through the cache model once
    /// per pass.
    fn radix_sort_phase(&mut self, deps: &[OpId], block_elems: u64, place: DataPlace) -> Vec<OpId> {
        let block_bytes = block_elems * self.elem;
        let mut ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let at = place.place_at(t as u64 * block_bytes);
            let accesses = (0..self.elem)
                .flat_map(|_| {
                    [
                        Access::read(at, block_bytes),
                        Access::write(at, block_bytes),
                    ]
                })
                .collect();
            ops.push(self.prog.push(
                t,
                OpKind::Stream {
                    accesses,
                    rate_cap: self.cal.s_radix,
                },
                deps,
            ));
        }
        self.join_phase(&ops)
    }

    /// Emit one parallel multiway-merge phase after `deps` over
    /// `total_bytes` of data in `k` runs: each thread streams its share
    /// from `src` to `dst`.
    /// `order_boost` controls whether the merge rate benefits from
    /// structured input: MLM's plain loser-tree merges do (disjoint runs
    /// from reverse-sorted input keep the tournament winner stable), but
    /// the paper's GNU-baseline timings show no such benefit in its merge
    /// phase, so the GNU variants pass `false` (see EXPERIMENTS.md).
    #[allow(clippy::too_many_arguments)]
    fn multiway_merge_phase(
        &mut self,
        deps: &[OpId],
        total_bytes: u64,
        k: usize,
        src: DataPlace,
        dst: DataPlace,
        rate_mult: f64,
        order_boost: bool,
    ) -> Vec<OpId> {
        let rate = if order_boost {
            self.cal.multiway_rate_ordered(k, self.w.order)
        } else {
            self.cal.multiway_rate(k)
        } * rate_mult;
        let mut ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (offset, len) = share(total_bytes, self.threads, t);
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
                deps,
            );
            ops.push(id);
        }
        self.join_phase(&ops)
    }

    /// Emit one bulk-copy phase after `deps`: all threads cooperatively
    /// move `total_bytes` from `src` to `dst` at the machine's `S_copy`.
    fn copy_phase(
        &mut self,
        deps: &[OpId],
        total_bytes: u64,
        src: DataPlace,
        dst: DataPlace,
    ) -> Vec<OpId> {
        let rate = self.machine.per_thread_copy_bw;
        let mut ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (offset, len) = share(total_bytes, self.threads, t);
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
                deps,
            );
            ops.push(id);
        }
        self.join_phase(&ops)
    }

    /// Lower one phase of the plan after `deps`, returning its join. *What*
    /// the node is comes from its `(kind, chunk, kernel)` triple as
    /// [`SortPlan::to_workload_plan`] emits it — the same DAG the host
    /// backend and the graph verifier consume; where its bytes live and
    /// which calibrated rate applies is decided here per variant.
    fn lower_phase(&mut self, plan: &SortPlan, node: &PlanNode, deps: &[OpId]) -> Vec<OpId> {
        let p = self.threads as u64;
        let gnu = self.cal.gnu_efficiency;
        let (alg, n_bytes, scratch) = (self.alg, self.n_bytes, self.n_bytes);
        let elems = node.len;
        // GNU-style plans pay the GNU efficiency in their chunk sorts and
        // run merges, and their merges get no ordered-input boost.
        let gnu_style = plan.chunk_style == ChunkSortStyle::Gnu;
        match (node.kind, node.chunk, node.kernel) {
            // Whole-array plans (the GNU baselines): per-thread block sorts...
            (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_SORT)) => {
                let block = elems.div_ceil(p);
                let place = match alg {
                    SortAlgorithm::GnuFlat => DataPlace::Ddr,
                    SortAlgorithm::GnuCache => DataPlace::Cached(0),
                    SortAlgorithm::GnuNumactl => return self.numactl_sort_phase(deps, block),
                    _ => unreachable!("ThreadSort only appears in Whole plans"),
                };
                self.serial_sort_phase(deps, block, place, gnu)
            }
            // ...then one thread-count-way merge into scratch.
            (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_MERGE)) => {
                let (src, dst) = match alg {
                    SortAlgorithm::GnuFlat => (DataPlace::Ddr, DataPlace::Ddr),
                    SortAlgorithm::GnuCache => (DataPlace::Cached(0), DataPlace::Cached(scratch)),
                    SortAlgorithm::GnuNumactl => return self.numactl_merge_phase(deps),
                    _ => unreachable!("ThreadMerge only appears in Whole plans"),
                };
                let k = self.threads;
                self.multiway_merge_phase(deps, n_bytes, k, src, dst, gnu, false)
            }
            // Stage megachunk `m` into the working buffer (the MLM structure's
            // copy-in: MCDRAM in flat mode, or the DDR buffer for MLM-ddr).
            (PlanKind::StageIn, Some(mega), None) => {
                let (src, dst) = match alg {
                    SortAlgorithm::MlmDdr => (DataPlace::Ddr, DataPlace::Ddr),
                    SortAlgorithm::MlmSort | SortAlgorithm::BasicChunked => {
                        (DataPlace::Cached(self.mega_base(mega)), DataPlace::Mcdram)
                    }
                    _ => unreachable!("StageIn appears in Staged plans only"),
                };
                self.copy_phase(deps, elems * self.elem, src, dst)
            }
            // Sort megachunk `m`'s chunks in the working buffer.
            (PlanKind::Kernel, Some(mega), Some(SORT_KERNEL_CHUNK_SORT)) => {
                let chunk = elems.div_ceil(p);
                let place = match alg {
                    SortAlgorithm::MlmDdr => DataPlace::Ddr,
                    SortAlgorithm::MlmSort | SortAlgorithm::BasicChunked => DataPlace::Mcdram,
                    SortAlgorithm::MlmImplicit => DataPlace::Cached(self.mega_base(mega)),
                    _ => unreachable!("ChunkSort lowered per-variant"),
                };
                match plan.chunk_style {
                    ChunkSortStyle::Serial => self.serial_sort_phase(deps, chunk, place, 1.0),
                    // Bender et al.'s scheme sorts the megachunk with the
                    // *parallel* mergesort: the same block sorts, but at GNU
                    // efficiency (its merge is the MergeRuns phase below).
                    ChunkSortStyle::Gnu => self.serial_sort_phase(deps, chunk, place, gnu),
                    ChunkSortStyle::Radix => self.radix_sort_phase(deps, chunk, place),
                }
            }
            // Multiway-merge megachunk `m`'s sorted runs out of the buffer.
            // For the GNU style this is the parallel sort's own multiway
            // merge, writing straight back out to DDR (it needs a distinct
            // output buffer anyway, which is why basic-chunked's megachunk
            // is capped at MCDRAM/2).
            (PlanKind::StageOut, Some(mega), Some(SORT_KERNEL_MERGE_RUNS)) => {
                let bytes = elems * self.elem;
                let (src, dst) = match alg {
                    SortAlgorithm::MlmDdr => (DataPlace::Ddr, DataPlace::Ddr),
                    SortAlgorithm::MlmSort | SortAlgorithm::BasicChunked => {
                        (DataPlace::Mcdram, DataPlace::Cached(self.mega_base(mega)))
                    }
                    SortAlgorithm::MlmImplicit => (
                        DataPlace::Cached(self.mega_base(mega)),
                        DataPlace::Cached(self.scratch_base(mega)),
                    ),
                    _ => unreachable!("MergeRuns lowered per-variant"),
                };
                let rate_mult = if gnu_style { gnu } else { 1.0 };
                let k = self.threads;
                self.multiway_merge_phase(deps, bytes, k, src, dst, rate_mult, !gnu_style)
            }
            // Copy megachunk `m` back from scratch (in-place plans only).
            (PlanKind::StageOut, Some(mega), None) => {
                debug_assert_eq!(alg, SortAlgorithm::MlmImplicit);
                self.copy_phase(
                    deps,
                    elems * self.elem,
                    DataPlace::Cached(self.scratch_base(mega)),
                    DataPlace::Cached(self.mega_base(mega)),
                )
            }
            // Final k-way merge across sorted megachunks into scratch.
            (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE)) => {
                let (src, dst) = match alg {
                    SortAlgorithm::MlmDdr => (DataPlace::Ddr, DataPlace::Ddr),
                    SortAlgorithm::MlmSort
                    | SortAlgorithm::BasicChunked
                    | SortAlgorithm::MlmImplicit
                    | SortAlgorithm::MlmSortBuffered => {
                        (DataPlace::Cached(0), DataPlace::Cached(scratch))
                    }
                    _ => unreachable!("Whole plans have no FinalMerge"),
                };
                let k = plan.megachunks;
                self.multiway_merge_phase(deps, n_bytes, k, src, dst, 1.0, !gnu_style)
            }
            // Copy the whole array back from scratch into the caller's array,
            // as the out-of-place merges require.
            (PlanKind::StageOut, None, None) => {
                let (src, dst) = match alg {
                    SortAlgorithm::GnuFlat | SortAlgorithm::GnuNumactl | SortAlgorithm::MlmDdr => {
                        (DataPlace::Ddr, DataPlace::Ddr)
                    }
                    _ => (DataPlace::Cached(scratch), DataPlace::Cached(0)),
                };
                self.copy_phase(deps, n_bytes, src, dst)
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
    fn numactl_sort_phase(&mut self, deps: &[OpId], block: u64) -> Vec<OpId> {
        let gnu = self.cal.gnu_efficiency;
        let order = self.w.order;
        let mcdram_threads = self.numactl_mcdram_threads();
        let passes = self.cal.sort_passes(block as usize);
        let incache = block as f64 * self.cal.incache_time(order) / gnu;
        let mut phase_ops = Vec::with_capacity(2 * self.threads);
        for t in 0..self.threads {
            let place = if t < mcdram_threads {
                Place::Mcdram
            } else {
                Place::Ddr
            };
            let traffic = block * self.elem * u64::from(passes);
            let rate = if t < mcdram_threads {
                self.cal.sort_rate(order) * self.cal.mcdram_boost * gnu
            } else {
                self.cal.sort_rate(order) * gnu
            };
            let id = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![Access::read(place, traffic), Access::write(place, traffic)],
                    rate_cap: rate,
                },
                deps,
            );
            phase_ops.push(id);
            phase_ops.push(self.prog.push(t, OpKind::Delay { seconds: incache }, &[]));
        }
        self.join_phase(&phase_ops)
    }

    /// GNU-numactl's unchunked multiway merge: reads the mixed-placement
    /// array, writes the scratch (DDR — the spill means scratch cannot be
    /// MCDRAM-resident). The read side is modeled by the same fit fraction.
    fn numactl_merge_phase(&mut self, deps: &[OpId]) -> Vec<OpId> {
        let mcdram_threads = self.numactl_mcdram_threads();
        let rate = self.cal.multiway_rate(self.threads) * self.cal.gnu_efficiency;
        let mut merge_ops = Vec::with_capacity(self.threads);
        for t in 0..self.threads {
            let (_, len) = share(self.n_bytes, self.threads, t);
            if len == 0 {
                continue;
            }
            let read_place = if t < mcdram_threads {
                Place::Mcdram
            } else {
                Place::Ddr
            };
            let id = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(read_place, len),
                        Access::write(Place::Ddr, len),
                    ],
                    rate_cap: rate,
                },
                deps,
            );
            merge_ops.push(id);
        }
        self.join_phase(&merge_ops)
    }

    /// How many threads' contiguous blocks are MCDRAM-resident under
    /// numactl-preferred placement.
    fn numactl_mcdram_threads(&self) -> usize {
        let fit = (self.machine.addressable_mcdram() as f64 / self.n_bytes as f64).min(1.0);
        (self.threads as f64 * fit).round() as usize
    }

    /// Lower one megachunk node of the buffered plan (the §6 future-work
    /// variant) after `deps`, returning its ops. A small dedicated copy
    /// pool prefetches megachunk `m+1` while the compute pool sorts and
    /// merges megachunk `m` (the §5 lesson: copy threads are compute
    /// threads forgone, so keep the pool small); the plan's Recycle and
    /// Data edges, arriving as `deps`, order the two pools.
    fn lower_buffered(&mut self, node: &PlanNode, m: usize, deps: &[OpId]) -> Vec<OpId> {
        let threads = self.threads;
        let p_copy = BUFFERED_COPY_THREADS.min(threads - 1);
        let p_comp = threads - p_copy;
        let comp0 = p_copy;
        let order = self.w.order;
        let mut ops: Vec<OpId> = Vec::new();
        match (node.kind, node.kernel) {
            // Prefetch megachunk m. The *prime* copy of megachunk 0 has
            // nothing to overlap with, so, as the paper's §3.2 notes about
            // unoccupied pools, every thread helps with it.
            (PlanKind::StageIn, None) => {
                let bytes = node.len * self.elem;
                let base = self.mega_base(m);
                let pool = if m == 0 { threads } else { p_copy };
                for t in 0..pool {
                    let (offset, len) = share(bytes, pool, t);
                    if len == 0 {
                        continue;
                    }
                    let id = self.prog.push(
                        t,
                        OpKind::Copy {
                            src: Place::CachedDdr {
                                addr: base + offset,
                            },
                            dst: Place::Mcdram,
                            bytes: len,
                            rate_cap: self.machine.per_thread_copy_bw,
                        },
                        deps,
                    );
                    ops.push(id);
                }
            }

            // Serial chunk sorts on the compute pool (in MCDRAM).
            (PlanKind::Kernel, Some(SORT_KERNEL_CHUNK_SORT)) => {
                let chunk = node.len.div_ceil(p_comp as u64);
                let block_bytes = chunk * self.elem;
                let passes = self.cal.sort_passes(chunk as usize);
                let incache = chunk as f64 * self.cal.incache_time(order);
                for t in 0..p_comp {
                    let traffic = block_bytes * u64::from(passes);
                    let mem = self.prog.push(
                        comp0 + t,
                        OpKind::Stream {
                            accesses: vec![
                                Access::read(Place::Mcdram, traffic),
                                Access::write(Place::Mcdram, traffic),
                            ],
                            rate_cap: self.cal.sort_rate(order) * self.cal.mcdram_boost,
                        },
                        deps,
                    );
                    ops.push(mem);
                    if incache > 0.0 {
                        ops.push(self.prog.push(
                            comp0 + t,
                            OpKind::Delay { seconds: incache },
                            &[],
                        ));
                    }
                }
            }

            // Multiway merge out to DDR on the compute pool.
            (PlanKind::StageOut, Some(SORT_KERNEL_MERGE_RUNS)) => {
                let bytes = node.len * self.elem;
                let base = self.mega_base(m);
                let rate = self.cal.multiway_rate_ordered(p_comp, order);
                for t in 0..p_comp {
                    let (_, share) = share(bytes, p_comp, t);
                    if share == 0 {
                        continue;
                    }
                    let id = self.prog.push(
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
                        deps,
                    );
                    ops.push(id);
                }
            }

            (kind, kernel) => unreachable!("Buffered plans are staged, not {kind:?}/{kernel:?}"),
        }
        ops
    }
}

impl Backend for SimSortBackend<'_> {
    type Ctx = SortPlan;
    type Token = Vec<OpId>;

    fn issue(&mut self, plan: &SortPlan, node: &PlanNode, deps: &[Vec<OpId>]) -> Vec<OpId> {
        let deps = deps.concat();
        match node.chunk {
            Some(m) if plan.overlapped => self.lower_buffered(node, m, &deps),
            _ => self.lower_phase(plan, node, &deps),
        }
    }

    fn step_barrier(&mut self, _plan: &SortPlan, _after: &[Vec<OpId>]) -> Vec<OpId> {
        unreachable!("sort plans carry no barriers")
    }
}

/// Contiguous byte share `(offset, len)` of part `t` when `total` bytes
/// are split `parts` ways.
fn share(total: u64, parts: usize, t: usize) -> (u64, u64) {
    let (p, t) = (parts as u64, t as u64);
    let (base, extra) = (total / p, total % p);
    (t * base + t.min(extra), base + u64::from(t < extra))
}

/// Build the simulated program for one Table-1 sort run: validate the
/// (machine, variant, megachunk) combination ([`SimSortBackend::new`]),
/// plan the run with [`mlm_exec::plan_sort`] (shared with the host), and
/// [`interpret`] the plan over the backend. `threads` is the paper's 256.
pub fn build_sort_program(
    machine: &MachineConfig,
    cal: &Calibration,
    w: SortWorkload,
    alg: SortAlgorithm,
    megachunk_elems: u64,
    threads: usize,
) -> Result<Program, String> {
    let mut backend = SimSortBackend::new(machine, cal, w, alg, megachunk_elems, threads)?;
    let plan = backend.plan();
    interpret(&mut backend, &plan, &plan.to_workload_plan()).map_err(String::from)?;
    Ok(backend.into_program())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::InputOrder;
    use knl_sim::machine::MemMode;
    use knl_sim::Simulator;
    use mlm_exec::{mega_size, SortStructure};

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
        // The buffered variant needs one copy and one compute thread.
        assert!(
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmSortBuffered, 10, 1).is_err()
        );
        assert!(
            build_sort_program(&machine, &cal, w, SortAlgorithm::MlmSortBuffered, 10, 2).is_ok()
        );
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

    /// The buffered makespan, pinned bit for bit (2 B reverse keys, 4
    /// megachunks, flat mode): no committed CSV covers the variant, and
    /// the engine breaks ties by op id, so a change in the order nodes
    /// are lowered in would move it.
    #[test]
    fn buffered_makespan_is_pinned() {
        let t = run(
            SortAlgorithm::MlmSortBuffered,
            MemMode::Flat,
            2 * BILLION,
            InputOrder::Reverse,
            BILLION / 2,
        );
        assert_eq!(t.to_bits(), 0x400d_b80a_d4c3_0738, "{t}");
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

    /// A `Radix` chunk sort lowers to one stream per thread of
    /// `elem_bytes` read+write passes over the thread's block at `s_radix`,
    /// in the variant's working buffer — and a `Serial` plan has none.
    #[test]
    fn radix_chunk_sort_is_elem_bytes_passes_at_s_radix() {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let cal = Calibration::default();
        let (n, threads) = (1u64 << 20, 4);
        let w = SortWorkload::int64(n, InputOrder::Random);
        let radix_streams = |style| {
            let mut backend =
                SimSortBackend::new(&machine, &cal, w, SortAlgorithm::MlmSort, n, threads).unwrap();
            let plan = plan_sort(SortStructure::Staged, style, n, n);
            interpret(&mut backend, &plan, &plan.to_workload_plan()).unwrap();
            let prog = backend.into_program();
            let streams = prog.ops().iter().filter_map(|op| match &op.kind {
                OpKind::Stream { accesses, rate_cap } if *rate_cap == cal.s_radix => {
                    Some(accesses.clone())
                }
                _ => None,
            });
            streams.collect::<Vec<_>>()
        };
        let streams = radix_streams(ChunkSortStyle::Radix);
        assert_eq!(streams.len(), threads);
        let block = n / threads as u64 * 8;
        for accesses in streams {
            assert_eq!(accesses.len(), 2 * 8, "one read and one write per key byte");
            for (i, a) in accesses.iter().enumerate() {
                assert_eq!(
                    (a.place, a.bytes, a.write),
                    (Place::Mcdram, block, i % 2 == 1)
                );
            }
        }
        assert!(radix_streams(ChunkSortStyle::Serial).is_empty());
    }

    #[test]
    fn mega_size_covers_input() {
        assert_eq!(mega_size(10, 4, 0), 4);
        assert_eq!(mega_size(10, 4, 1), 4);
        assert_eq!(mega_size(10, 4, 2), 2);
        assert_eq!(mega_size(10, 4, 3), 0);
    }
}
