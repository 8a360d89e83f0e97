//! Lowering the sort variants to simulated op graphs.
//!
//! The phase *sequence* of every variant — stage a megachunk, sort its
//! chunks, merge the runs out, final k-way merge — is planned once by
//! [`mlm_exec::plan_sort`], lowered onto the generic IR and executed by
//! [`mlm_exec::interpret`], exactly as on the host
//! ([`super::host::HostSortBackend`]). Where the bytes live is declared
//! in the plan too ([`SortAlgorithm::tiers`]), and [`build_sort_program`]
//! proves the plan's buffers against the machine's addressable MCDRAM
//! before lowering it. This module owns only [`SimSortBackend`], which
//! lowers every node the same way, from the node alone: its source and
//! destination are the buffers it touches, read by the op emitters it
//! shares with the pipeline lowering (`crate::lower`), its size is
//! `node.len`, and what it does is its `(kind, kernel)` pair. Each node
//! runs on a thread range — every thread for a phase of a sequential
//! plan, the copy or the compute pool for the buffered plan's megachunk
//! nodes — and only the calibrated rate (GNU efficiency, ordered-input
//! boost, radix) is picked here, from the plan's chunk style and the
//! node's tier. A node's token is the ops realising it — for a phase of
//! a sequential plan, the phase's join — so the plan's edges become op
//! dependencies, and the buffered variant's cross-megachunk overlap is
//! the plan's. Bandwidth contention, DDR saturation, and MCDRAM-cache
//! behaviour then emerge from the [`knl_sim`] engine.
//!
//! ## Tiers and addresses
//!
//! An HBW buffer is [`Place::Mcdram`], a DDR one [`Place::Ddr`], a
//! cache-addressed ([`mlm_exec::Placement::Implicit`]) one
//! [`Place::CachedDdr`];
//! non-HBW buffers sit back to back in DDR in declaration order (keys at
//! `[0, n)`, scratch at `[n, 2n)`, megachunk `m`'s windows
//! `m × mega_bytes` into each). A flat machine serves a cached access
//! from DDR, so the variants that stage through MCDRAM address their
//! arrays through the cache model, and the MLM-ddr control does not.
//! numactl's preferred array is two buffers, HBW first; each thread's
//! contiguous block takes the tier it falls in, in every phase that
//! touches the array, copies included.
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

use std::ops::Range;

use knl_sim::machine::MachineConfig;
use knl_sim::ops::{Access, OpId, OpKind, Place, Program};
use mlm_exec::graph::{verify_sort, AnalysisConfig};
use mlm_exec::{
    interpret, Backend, ChunkSortStyle, PlanKind, PlanNode, SortPlan, WorkloadPlan,
    BUFFERED_COPY_THREADS, SORT_KERNEL_CHUNK_SORT, SORT_KERNEL_FINAL_MERGE, SORT_KERNEL_MERGE_RUNS,
    SORT_KERNEL_THREAD_MERGE, SORT_KERNEL_THREAD_SORT,
};

use super::SortAlgorithm;
use crate::calibration::Calibration;
use crate::lower::{copy, share, sides, Side};
use crate::workload::SortWorkload;

/// The simulated sort [`Backend`], with the [`SortPlan`] as its context:
/// lowers each issued node of one Table-1 sort run to ops on a
/// [`Program`], in the tiers the node's footprint names.
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
}

impl<'a> SimSortBackend<'a> {
    /// A backend lowering `alg` over `w` with `megachunk_elems`-element
    /// megachunks on `threads` threads (the paper's 256).
    ///
    /// Returns an error if the variant is incompatible with the machine's
    /// memory mode (e.g. `MLM-sort` on a cache-mode machine), or if the
    /// buffered variant has fewer than its one copy and one compute
    /// thread. Whether the variant's buffers fit the machine's MCDRAM is
    /// the plan's proof ([`Self::lower`]).
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
        if alg.needs_flat_mcdram() && !machine.mode.has_flat() {
            return Err(format!("{} requires flat-addressable MCDRAM", alg.label()));
        }
        Ok(SimSortBackend {
            prog: Program::new(threads),
            threads,
            cal,
            machine,
            alg,
            w,
            megachunk_elems,
            elem: u64::from(w.elem_bytes),
        })
    }

    /// The phase plan of this run, with the variant's arrays in the tiers
    /// it keeps them in on this machine, to [`interpret`] over this
    /// backend.
    pub fn plan(&self) -> SortPlan {
        self.alg.plan(self.machine, self.w, self.megachunk_elems)
    }

    /// Prove `plan` against the machine's addressable MCDRAM and lower it
    /// onto this backend's program. A plan whose declared HBW buffers do
    /// not fit (a megachunk larger than MCDRAM, or two of them for the
    /// double-buffered variants) comes back as the proof's report.
    pub fn lower(mut self, plan: &SortPlan) -> Result<Program, String> {
        let cfg = AnalysisConfig {
            hbw_budget: Some(self.machine.addressable_mcdram()),
            ..AnalysisConfig::default()
        };
        let (lowered, report) = verify_sort(plan, &cfg).map_err(String::from)?;
        if !report.is_safe() {
            return Err(report.to_string());
        }
        interpret(&mut self, plan, &lowered).map_err(String::from)?;
        Ok(self.prog)
    }

    /// Serial-sort ops after `deps`: thread `pool[i]` introsorts the
    /// `block_elems` block of `side` that starts `i * block_bytes` in.
    /// `rate_mult` applies the GNU efficiency penalty when modeling the
    /// baseline.
    fn sort_ops(
        &mut self,
        pool: Range<usize>,
        block_elems: u64,
        side: Side,
        rate_mult: f64,
        deps: &[OpId],
    ) -> Vec<OpId> {
        let order = self.w.order;
        let block_bytes = block_elems * self.elem;
        let passes = self.cal.sort_passes(block_elems as usize);
        let s_sort = self.cal.sort_rate(order) * rate_mult;
        // Cache-resident recursion levels: pure compute, no bus traffic,
        // identical whichever memory level holds the block.
        let incache_seconds = block_elems as f64 * self.cal.incache_time(order) / rate_mult;
        let boost = self.cal.mcdram_boost;
        let mut ops = Vec::with_capacity(pool.len() * 2);

        for (i, t) in pool.enumerate() {
            let traffic = block_bytes * u64::from(passes);
            let place = side.at(i, i as u64 * block_bytes);
            // numactl's MCDRAM blocks take the boost before the GNU
            // penalty; a staged block after it.
            let rate_cap = match place {
                Place::Mcdram if side.mcdram_threads > 0 => {
                    self.cal.sort_rate(order) * boost * rate_mult
                }
                Place::Mcdram => s_sort * boost,
                _ => s_sort,
            };
            match place {
                Place::Ddr | Place::Mcdram => {
                    let accesses =
                        vec![Access::read(place, traffic), Access::write(place, traffic)];
                    let stream = OpKind::Stream { accesses, rate_cap };
                    ops.push(self.prog.push(t, stream, deps));
                }
                Place::CachedDdr { addr } => {
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
        ops
    }

    /// Radix chunk-sort ops after `deps`: every thread of `pool` runs one
    /// LSD digit pass per key byte over its `block_elems` block of `side`,
    /// each pass reading and writing the whole block at `s_radix`. The
    /// passes are pure streams — no cache-resident recursion levels, so no
    /// in-cache term and no MCDRAM boost — and each one touches exactly the
    /// block's bytes, so a cached block goes through the cache model once
    /// per pass.
    fn radix_ops(
        &mut self,
        pool: Range<usize>,
        block_elems: u64,
        side: Side,
        deps: &[OpId],
    ) -> Vec<OpId> {
        let block_bytes = block_elems * self.elem;
        let mut ops = Vec::with_capacity(pool.len());
        for (i, t) in pool.enumerate() {
            let at = side.at(i, i as u64 * block_bytes);
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
        ops
    }

    /// The multiway-merge rate over `k` runs. `order_boost` controls
    /// whether it benefits from structured input: MLM's plain loser-tree
    /// merges do (disjoint runs from reverse-sorted input keep the
    /// tournament winner stable), but the paper's GNU-baseline timings
    /// show no such benefit in its merge phase, so the GNU variants pass
    /// `false` (see EXPERIMENTS.md).
    fn merge_rate(&self, k: usize, order_boost: bool) -> f64 {
        if order_boost {
            self.cal.multiway_rate_ordered(k, self.w.order)
        } else {
            self.cal.multiway_rate(k)
        }
    }

    /// Parallel multiway-merge ops after `deps` over `total_bytes` of
    /// data: each thread of `pool` streams its share from `src` to the
    /// same offset of `dst` at `rate`.
    fn merge_ops(
        &mut self,
        pool: Range<usize>,
        total_bytes: u64,
        (src, dst): (Side, Side),
        rate: f64,
        deps: &[OpId],
    ) -> Vec<OpId> {
        let parts = pool.len();
        let mut ops = Vec::with_capacity(parts);
        for (i, t) in pool.enumerate() {
            let (offset, len) = share(total_bytes, parts, i);
            if len == 0 {
                continue;
            }
            let id = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(src.at(i, offset), len),
                        Access::write(dst.at(i, offset), len),
                    ],
                    rate_cap: rate,
                },
                deps,
            );
            ops.push(id);
        }
        ops
    }

    /// The threads `node` runs on. A sequential plan's phases each use
    /// every thread. The buffered plan (the §6 future-work variant)
    /// overlaps its megachunk nodes on two pools: a small dedicated copy
    /// pool prefetches megachunk `m+1` while the compute pool sorts and
    /// merges megachunk `m` (the §5 lesson: copy threads are compute
    /// threads forgone, so keep the pool small). The *prime* copy of
    /// megachunk 0 has nothing to overlap with, so, as the paper's §3.2
    /// notes about unoccupied pools, every thread helps with it.
    fn pool(&self, plan: &SortPlan, node: &PlanNode) -> Range<usize> {
        let p_copy = BUFFERED_COPY_THREADS.min(self.threads - 1);
        match (plan.overlapped, node.chunk, node.kind) {
            (true, Some(m), PlanKind::StageIn) if m > 0 => 0..p_copy,
            (true, Some(_), PlanKind::Kernel | PlanKind::StageOut) => p_copy..self.threads,
            _ => 0..self.threads,
        }
    }

    /// Lower one plan node after `deps` on its [`Self::pool`]. *What* the
    /// node is comes from its `(kind, kernel)` pair as
    /// [`SortPlan::to_workload_plan`] emits it — the same DAG the host
    /// backend and the graph verifier consume — and where its bytes live
    /// from the buffers it touches ([`sides`]); only the calibrated rate
    /// is chosen here, from the plan's chunk style. A phase of a
    /// sequential plan then joins every thread (paying the fork/join
    /// overhead), and the join is its token; the buffered plan's megachunk
    /// nodes are their own ops, so the plan's Recycle and Data edges,
    /// arriving as `deps`, order the two pools.
    fn lower_node(
        &mut self,
        plan: &SortPlan,
        node: &PlanNode,
        sides: (Side, Side),
        deps: &[OpId],
    ) -> Vec<OpId> {
        let pool = self.pool(plan, node);
        let (k, dst) = (pool.len(), sides.1);
        let gnu = self.cal.gnu_efficiency;
        let bytes = node.len * self.elem;
        let block = node.len.div_ceil(k as u64);
        // GNU-style plans pay the GNU efficiency in their chunk sorts and
        // run merges, and their merges get no ordered-input boost.
        let gnu_style = plan.chunk_style == ChunkSortStyle::Gnu;
        let merge_mult = if gnu_style { gnu } else { 1.0 };
        let ops = match (node.kind, node.kernel) {
            // Whole-array plans (the GNU baselines): per-thread block
            // sorts, then one thread-count-way merge into scratch.
            (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_SORT)) => {
                self.sort_ops(pool, block, dst, gnu, deps)
            }
            (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_MERGE)) => {
                let rate = self.merge_rate(k, false) * gnu;
                self.merge_ops(pool, bytes, sides, rate, deps)
            }
            // Sort a megachunk's chunks where the plan holds them. Bender
            // et al.'s scheme sorts the megachunk with the *parallel*
            // mergesort: the same block sorts, at GNU efficiency (its merge
            // is the run merge below).
            (PlanKind::Kernel, Some(SORT_KERNEL_CHUNK_SORT)) => match plan.chunk_style {
                ChunkSortStyle::Serial => self.sort_ops(pool, block, dst, 1.0, deps),
                ChunkSortStyle::Gnu => self.sort_ops(pool, block, dst, gnu, deps),
                ChunkSortStyle::Radix => self.radix_ops(pool, block, dst, deps),
            },
            // Multiway-merge a megachunk's sorted runs out, and the final
            // k-way merge across sorted megachunks into scratch.
            (PlanKind::StageOut, Some(SORT_KERNEL_MERGE_RUNS)) => {
                let rate = self.merge_rate(k, !gnu_style) * merge_mult;
                self.merge_ops(pool, bytes, sides, rate, deps)
            }
            (PlanKind::Kernel, Some(SORT_KERNEL_FINAL_MERGE)) => {
                let rate = self.merge_rate(plan.megachunks, !gnu_style);
                self.merge_ops(pool, bytes, sides, rate, deps)
            }
            // Stage a megachunk in, copy one back from scratch, or copy
            // the whole array back as the out-of-place merges require.
            (PlanKind::StageIn | PlanKind::StageOut, None) => {
                let rate = self.machine.per_thread_copy_bw;
                copy(&mut self.prog, pool, bytes, sides, rate, deps)
            }
            (kind, kernel) => unreachable!("sort plans never emit {kind:?}/{kernel:?}"),
        };
        if plan.overlapped && node.chunk.is_some() {
            return ops;
        }
        let overhead = self.cal.phase_overhead;
        (0..self.threads)
            .map(|t| self.prog.push(t, OpKind::Delay { seconds: overhead }, &ops))
            .collect()
    }
}

impl Backend for SimSortBackend<'_> {
    type Ctx = SortPlan;
    type Token = Vec<OpId>;

    fn issue(
        &mut self,
        plan: &SortPlan,
        lowered: &WorkloadPlan,
        node: &PlanNode,
        deps: &[Vec<OpId>],
    ) -> Vec<OpId> {
        let deps = deps.concat();
        let sides = sides(lowered, node, self.threads).expect("every sort phase writes");
        self.lower_node(plan, node, sides, &deps)
    }

    fn step_barrier(&mut self, _plan: &SortPlan, _after: &[Vec<OpId>]) -> Vec<OpId> {
        unreachable!("sort plans carry no barriers")
    }
}

/// Build the simulated program for one Table-1 sort run: check the
/// (machine, variant) combination ([`SimSortBackend::new`]), plan the run
/// with [`mlm_exec::plan_sort`] (shared with the host) in the variant's
/// tiers, prove the plan against the machine's addressable MCDRAM, and
/// [`interpret`] it over the backend ([`SimSortBackend::lower`]).
/// `threads` is the paper's 256.
pub fn build_sort_program(
    machine: &MachineConfig,
    cal: &Calibration,
    w: SortWorkload,
    alg: SortAlgorithm,
    megachunk_elems: u64,
    threads: usize,
) -> Result<Program, String> {
    let backend = SimSortBackend::new(machine, cal, w, alg, megachunk_elems, threads)?;
    let plan = backend.plan();
    backend.lower(&plan)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::InputOrder;
    use knl_sim::machine::MemMode;
    use knl_sim::Simulator;

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
            let backend =
                SimSortBackend::new(&machine, &cal, w, SortAlgorithm::MlmSort, n, threads).unwrap();
            let plan = SortPlan {
                chunk_style: style,
                ..backend.plan()
            };
            let prog = backend.lower(&plan).unwrap();
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
        use mlm_exec::mega_size;
        assert_eq!(mega_size(10, 4, 0), 4);
        assert_eq!(mega_size(10, 4, 1), 4);
        assert_eq!(mega_size(10, 4, 2), 2);
        assert_eq!(mega_size(10, 4, 3), 0);
    }
}
