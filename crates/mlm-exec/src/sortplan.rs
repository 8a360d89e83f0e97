//! The megachunk-level phase plan of the §4 sort algorithms.
//!
//! Every Table-1 sort variant is a sequence of *phases* — stage a
//! megachunk in, sort its chunks, merge the sorted runs out, and finally
//! merge across megachunks — differing only in where the bytes live and
//! which phases a variant needs. That sequence is planned here once and
//! lowered onto the generic IR ([`SortPlan::to_workload_plan`]);
//! [`interpret`](crate::plan::interpret) then drives it over a sort
//! backend with the [`SortPlan`] as the run's context: the host backend
//! runs each node on real threads and buffers, the sim backend lowers
//! each node to `knl-sim` ops with per-tier rates.

use serde::{Deserialize, Serialize};

use crate::plan::{EdgeKind, KernelDesc, PlanEdge, PlanKind, PlanNode, WorkloadPlan};

/// The megachunk-level shape of a sort variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortStructure {
    /// One unchunked whole-array sort (the GNU baselines): per-thread
    /// block sorts, one thread-count-way merge, copy back.
    Whole,
    /// Staged megachunks (MLM-sort, MLM-ddr, basic-chunked): each
    /// megachunk is copied into the working buffer, chunk-sorted there,
    /// and merged back out; a final k-way merge stitches the megachunks.
    Staged,
    /// In-place megachunks (MLM-implicit): no staging copy — chunks are
    /// sorted where they are, merged to scratch, and copied back.
    InPlace,
    /// Double-buffered megachunks (buffered MLM-sort, §6 future work):
    /// the staged sequence with `overlapped` dependencies, so a small
    /// copy pool prefetches megachunk `m+1` while `m` computes.
    Buffered,
}

/// How a megachunk's chunk-sort phase is realised.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChunkSortStyle {
    /// MLM style: one serial introsort per worker thread; the run merge
    /// is a loser-tree multiway merge that benefits from ordered input.
    Serial,
    /// GNU style: the library's parallel mergesort over the whole block,
    /// modeled with the calibrated GNU efficiency penalty and no
    /// ordered-input merge boost.
    Gnu,
    /// LSD radix sort per worker thread (§6 "more benchmarks"): one
    /// read+write streaming pass per key byte, no comparisons — the
    /// bandwidth-bound counterpart of `Serial`, with the same run merge.
    Radix,
}

/// One phase of a sort plan. Element counts are concrete; per-thread
/// splits, byte addresses, and rates are the executors' concern.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SortPhase {
    /// Per-thread block sorts over the whole array ([`SortStructure::Whole`]).
    ThreadSort {
        /// Elements in the whole array.
        elems: u64,
    },
    /// Thread-count-way merge of the per-thread runs into scratch.
    ThreadMerge {
        /// Elements merged.
        elems: u64,
    },
    /// Stage megachunk `mega` into the working buffer.
    StageIn {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk (the last may be ragged).
        elems: u64,
    },
    /// Sort megachunk `mega`'s chunks in the working buffer (or in place
    /// for [`SortStructure::InPlace`]).
    ChunkSort {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Multiway-merge megachunk `mega`'s sorted runs out of the working
    /// buffer (to the data array, or to scratch for
    /// [`SortStructure::InPlace`]).
    MergeRuns {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Copy megachunk `mega` back from scratch
    /// ([`SortStructure::InPlace`] only).
    CopyBack {
        /// Megachunk index.
        mega: usize,
        /// Elements in this megachunk.
        elems: u64,
    },
    /// Final k-way merge across sorted megachunks into scratch.
    FinalMerge {
        /// Elements in the whole array.
        elems: u64,
        /// Number of sorted megachunk runs.
        k: usize,
    },
    /// Copy the whole array back from scratch.
    FinalCopyBack {
        /// Elements in the whole array.
        elems: u64,
    },
}

/// The full phase sequence of one sort run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SortPlan {
    /// The megachunk-level shape.
    pub structure: SortStructure,
    /// How chunk sorts are realised (and whether GNU penalties apply).
    pub chunk_style: ChunkSortStyle,
    /// Total elements.
    pub n_elems: u64,
    /// Elements per megachunk, clamped to `n_elems`.
    pub mega_elems: u64,
    /// Number of megachunks.
    pub megachunks: usize,
    /// `true` for [`SortStructure::Buffered`]: executors connect the
    /// phases of consecutive megachunks by dataflow dependencies (double
    /// buffering) instead of barriers.
    pub overlapped: bool,
    /// The phases, in execution (and issue) order.
    pub phases: Vec<SortPhase>,
}

/// Kernel-table index of the chunk-sort kernel in a lowered sort plan.
pub const SORT_KERNEL_CHUNK_SORT: usize = 0;
/// Kernel-table index of the run-merge (merge-out) kernel.
pub const SORT_KERNEL_MERGE_RUNS: usize = 1;
/// Kernel-table index of the per-thread block-sort kernel.
pub const SORT_KERNEL_THREAD_SORT: usize = 2;
/// Kernel-table index of the thread-count-way merge kernel.
pub const SORT_KERNEL_THREAD_MERGE: usize = 3;
/// Kernel-table index of the final k-way megachunk merge kernel.
pub const SORT_KERNEL_FINAL_MERGE: usize = 4;

impl SortPlan {
    /// Lower the megachunk phase sequence into the workload-generic
    /// [`WorkloadPlan`] IR.
    ///
    /// Every phase becomes one node — [`SortPhase::StageIn`] a
    /// [`PlanKind::StageIn`], [`SortPhase::ChunkSort`] a
    /// [`PlanKind::Kernel`], [`SortPhase::MergeRuns`] a
    /// [`PlanKind::StageOut`] *carrying* the merge kernel (the sort
    /// family's drain transforms as it copies), [`SortPhase::CopyBack`] a
    /// plain [`PlanKind::StageOut`], and the whole-array phases
    /// ([`SortPhase::ThreadSort`], [`SortPhase::ThreadMerge`],
    /// [`SortPhase::FinalMerge`], [`SortPhase::FinalCopyBack`]) global
    /// nodes with `chunk: None`. Node `len` is in *elements*.
    ///
    /// Sequential structures chain every node to its predecessor with
    /// [`EdgeKind::Seq`], so every phase runs alone behind the previous
    /// one's join. The [`SortStructure::Buffered`] structure instead emits
    /// the double-buffered dependency shape: megachunk `m`'s stage-in
    /// waits only for the merge-out of `m - 2` ([`EdgeKind::Recycle`] —
    /// its buffer's previous occupant), computes wait on their own
    /// stage-in ([`EdgeKind::Data`]), merges wait on their compute, so a
    /// backend may overlap megachunk `m + 1`'s prefetch with `m`'s sort.
    pub fn to_workload_plan(&self) -> WorkloadPlan {
        let kernels = [
            "chunk-sort",
            "merge-runs",
            "thread-sort",
            "thread-merge",
            "final-merge",
        ]
        .iter()
        .map(|name| KernelDesc {
            name: (*name).to_string(),
            passes: 1,
            extra_read_bytes: 0,
        })
        .collect();
        let mut plan = WorkloadPlan {
            family: "sort",
            ring_slots: if self.overlapped { 2 } else { 1 },
            chunks: self.megachunks,
            kernels,
            nodes: Vec::new(),
            buffers: Vec::new(),
            touches: Vec::new(),
        };

        if self.overlapped {
            self.lower_overlapped(&mut plan);
        } else {
            self.lower_sequential(&mut plan);
        }
        debug_assert_eq!(plan.validate(), Ok(()));
        plan
    }

    /// Sequential lowering: phases in order, each [`EdgeKind::Seq`]-chained
    /// to its predecessor.
    fn lower_sequential(&self, plan: &mut WorkloadPlan) {
        for phase in &self.phases {
            let (kind, chunk, kernel, len) = match *phase {
                SortPhase::ThreadSort { elems } => {
                    (PlanKind::Kernel, None, Some(SORT_KERNEL_THREAD_SORT), elems)
                }
                SortPhase::ThreadMerge { elems } => (
                    PlanKind::Kernel,
                    None,
                    Some(SORT_KERNEL_THREAD_MERGE),
                    elems,
                ),
                SortPhase::StageIn { mega, elems } => (PlanKind::StageIn, Some(mega), None, elems),
                SortPhase::ChunkSort { mega, elems } => (
                    PlanKind::Kernel,
                    Some(mega),
                    Some(SORT_KERNEL_CHUNK_SORT),
                    elems,
                ),
                SortPhase::MergeRuns { mega, elems } => (
                    PlanKind::StageOut,
                    Some(mega),
                    Some(SORT_KERNEL_MERGE_RUNS),
                    elems,
                ),
                SortPhase::CopyBack { mega, elems } => {
                    (PlanKind::StageOut, Some(mega), None, elems)
                }
                SortPhase::FinalMerge { elems, .. } => {
                    (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE), elems)
                }
                SortPhase::FinalCopyBack { elems } => (PlanKind::StageOut, None, None, elems),
            };
            let deps = match plan.nodes.len() {
                0 => Vec::new(),
                n => vec![PlanEdge::new(n - 1, EdgeKind::Seq)],
            };
            plan.nodes.push(PlanNode {
                kind,
                chunk,
                slot: chunk.map_or(0, |m| m % plan.ring_slots),
                kernel,
                len,
                deps,
                footprint: 0..0,
            });
        }
    }

    /// Double-buffered lowering ([`SortStructure::Buffered`]): nodes in
    /// pipeline-step order, so the nodes a backend may overlap — one
    /// step's merge-out, chunk-sort and prefetch — are issued next to
    /// each other.
    fn lower_overlapped(&self, plan: &mut WorkloadPlan) {
        let n = self.megachunks;
        let push = |plan: &mut WorkloadPlan,
                    kind: PlanKind,
                    mega: usize,
                    kernel: Option<usize>,
                    deps: Vec<PlanEdge>| {
            plan.nodes.push(PlanNode {
                kind,
                chunk: Some(mega),
                slot: mega % plan.ring_slots,
                kernel,
                len: mega_size(self.n_elems, self.mega_elems, mega),
                deps,
                footprint: 0..0,
            });
            plan.nodes.len() - 1
        };
        let mut stage_in: Vec<Option<usize>> = vec![None; n];
        let mut chunk_sort: Vec<Option<usize>> = vec![None; n];
        let mut merge_out: Vec<Option<usize>> = vec![None; n];

        // Step `s`: merge out megachunk `s - 2` (freeing its buffer),
        // chunk-sort `s - 1`, prefetch `s`. Within a step the merge-out is
        // emitted first so the stage-in's Recycle edge points backward.
        for s in 0..n + 2 {
            if s >= 2 && s - 2 < n {
                let m = s - 2;
                merge_out[m] = Some(push(
                    plan,
                    PlanKind::StageOut,
                    m,
                    Some(SORT_KERNEL_MERGE_RUNS),
                    vec![PlanEdge::new(
                        chunk_sort[m].expect("sorted in an earlier step"),
                        EdgeKind::Data,
                    )],
                ));
            }
            if s >= 1 && s - 1 < n {
                let m = s - 1;
                chunk_sort[m] = Some(push(
                    plan,
                    PlanKind::Kernel,
                    m,
                    Some(SORT_KERNEL_CHUNK_SORT),
                    vec![PlanEdge::new(
                        stage_in[m].expect("staged in an earlier step"),
                        EdgeKind::Data,
                    )],
                ));
            }
            if s < n {
                let deps = if s >= 2 {
                    vec![PlanEdge::new(
                        merge_out[s - 2].expect("merged out this step"),
                        EdgeKind::Recycle,
                    )]
                } else {
                    Vec::new()
                };
                stage_in[s] = Some(push(plan, PlanKind::StageIn, s, None, deps));
            }
        }

        if n > 1 {
            let deps = merge_out
                .iter()
                .map(|i| PlanEdge::new(i.expect("every megachunk merged out"), EdgeKind::Data))
                .collect();
            plan.nodes.push(PlanNode {
                kind: PlanKind::Kernel,
                chunk: None,
                slot: 0,
                kernel: Some(SORT_KERNEL_FINAL_MERGE),
                len: self.n_elems,
                deps,
                footprint: 0..0,
            });
            plan.nodes.push(PlanNode {
                kind: PlanKind::StageOut,
                chunk: None,
                slot: 0,
                kernel: None,
                len: self.n_elems,
                deps: vec![PlanEdge::new(plan.nodes.len() - 1, EdgeKind::Data)],
                footprint: 0..0,
            });
        }
    }
}

/// Elements in megachunk `m` of an `n`-element array cut into
/// `mega_elems`-element megachunks (the last may be ragged).
pub fn mega_size(n: u64, mega_elems: u64, m: usize) -> u64 {
    let lo = m as u64 * mega_elems;
    mega_elems.min(n - lo.min(n))
}

/// Plan the phase sequence for one sort run.
///
/// `n_elems` and `mega_elems` must be positive; `mega_elems` is clamped
/// to `n_elems` (a megachunk larger than the data is the
/// megachunk-equals-problem-size configuration of Table 1).
pub fn plan_sort(
    structure: SortStructure,
    chunk_style: ChunkSortStyle,
    n_elems: u64,
    mega_elems: u64,
) -> SortPlan {
    assert!(n_elems > 0, "empty workload");
    assert!(mega_elems > 0, "megachunk must be positive");
    let mega_elems = mega_elems.min(n_elems);
    let megachunks = n_elems.div_ceil(mega_elems) as usize;
    let mut phases = Vec::new();

    match structure {
        SortStructure::Whole => {
            phases.push(SortPhase::ThreadSort { elems: n_elems });
            phases.push(SortPhase::ThreadMerge { elems: n_elems });
            phases.push(SortPhase::FinalCopyBack { elems: n_elems });
        }
        SortStructure::Staged | SortStructure::Buffered => {
            for m in 0..megachunks {
                let elems = mega_size(n_elems, mega_elems, m);
                phases.push(SortPhase::StageIn { mega: m, elems });
                phases.push(SortPhase::ChunkSort { mega: m, elems });
                phases.push(SortPhase::MergeRuns { mega: m, elems });
            }
            if megachunks > 1 {
                phases.push(SortPhase::FinalMerge {
                    elems: n_elems,
                    k: megachunks,
                });
                phases.push(SortPhase::FinalCopyBack { elems: n_elems });
            }
        }
        SortStructure::InPlace => {
            for m in 0..megachunks {
                let elems = mega_size(n_elems, mega_elems, m);
                phases.push(SortPhase::ChunkSort { mega: m, elems });
                phases.push(SortPhase::MergeRuns { mega: m, elems });
                phases.push(SortPhase::CopyBack { mega: m, elems });
            }
            if megachunks > 1 {
                phases.push(SortPhase::FinalMerge {
                    elems: n_elems,
                    k: megachunks,
                });
                phases.push(SortPhase::FinalCopyBack { elems: n_elems });
            }
        }
    }

    SortPlan {
        structure,
        chunk_style,
        n_elems,
        mega_elems,
        megachunks,
        overlapped: structure == SortStructure::Buffered,
        phases,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mega_size_handles_ragged_tail() {
        assert_eq!(mega_size(10, 4, 0), 4);
        assert_eq!(mega_size(10, 4, 1), 4);
        assert_eq!(mega_size(10, 4, 2), 2);
        assert_eq!(mega_size(10, 4, 3), 0);
        assert_eq!(mega_size(4, 8, 0), 4);
    }

    #[test]
    fn staged_plan_covers_every_megachunk_then_merges() {
        let p = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 4);
        assert_eq!(p.megachunks, 3);
        assert!(!p.overlapped);
        let megas: Vec<usize> = p
            .phases
            .iter()
            .filter_map(|ph| match ph {
                SortPhase::ChunkSort { mega, .. } => Some(*mega),
                _ => None,
            })
            .collect();
        assert_eq!(megas, vec![0, 1, 2]);
        assert!(matches!(
            p.phases[p.phases.len() - 2],
            SortPhase::FinalMerge { k: 3, elems: 10 }
        ));
        assert!(matches!(
            p.phases.last(),
            Some(SortPhase::FinalCopyBack { elems: 10 })
        ));
    }

    #[test]
    fn single_megachunk_needs_no_final_merge() {
        let p = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 100);
        assert_eq!(p.megachunks, 1);
        assert_eq!(p.mega_elems, 10, "megachunk clamps to the data size");
        assert!(!p
            .phases
            .iter()
            .any(|ph| matches!(ph, SortPhase::FinalMerge { .. })));
    }

    #[test]
    fn in_place_plan_copies_back_per_megachunk() {
        let p = plan_sort(SortStructure::InPlace, ChunkSortStyle::Serial, 8, 4);
        let kinds: Vec<&'static str> = p
            .phases
            .iter()
            .map(|ph| match ph {
                SortPhase::ChunkSort { .. } => "sort",
                SortPhase::MergeRuns { .. } => "merge",
                SortPhase::CopyBack { .. } => "copy",
                SortPhase::FinalMerge { .. } => "final",
                SortPhase::FinalCopyBack { .. } => "back",
                _ => "other",
            })
            .collect();
        assert_eq!(
            kinds,
            vec!["sort", "merge", "copy", "sort", "merge", "copy", "final", "back"]
        );
    }

    #[test]
    fn whole_plan_is_three_phases() {
        let p = plan_sort(SortStructure::Whole, ChunkSortStyle::Gnu, 100, 7);
        assert_eq!(p.phases.len(), 3);
    }

    #[test]
    fn buffered_plan_is_staged_and_overlapped() {
        let p = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 10, 4);
        let q = plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, 10, 4);
        assert!(p.overlapped);
        assert_eq!(p.phases, q.phases);
    }

    #[test]
    fn sequential_lowering_is_one_node_per_phase_in_order() {
        for structure in [
            SortStructure::Whole,
            SortStructure::Staged,
            SortStructure::InPlace,
        ] {
            let p = plan_sort(structure, ChunkSortStyle::Serial, 10, 4);
            let w = p.to_workload_plan();
            w.validate().unwrap();
            assert_eq!(w.family, "sort");
            assert_eq!(w.nodes.len(), p.phases.len(), "{structure:?}");
            // Strictly sequential: every node Seq-chains its predecessor.
            for (i, node) in w.nodes.iter().enumerate().skip(1) {
                assert_eq!(
                    node.deps,
                    [PlanEdge::new(i - 1, EdgeKind::Seq)],
                    "{structure:?}"
                );
            }
            for (node, phase) in w.nodes.iter().zip(&p.phases) {
                let expect = match phase {
                    SortPhase::StageIn { .. } => (PlanKind::StageIn, None),
                    SortPhase::ChunkSort { .. } => (PlanKind::Kernel, Some(SORT_KERNEL_CHUNK_SORT)),
                    SortPhase::MergeRuns { .. } => {
                        (PlanKind::StageOut, Some(SORT_KERNEL_MERGE_RUNS))
                    }
                    SortPhase::CopyBack { .. } => (PlanKind::StageOut, None),
                    SortPhase::ThreadSort { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_SORT))
                    }
                    SortPhase::ThreadMerge { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_THREAD_MERGE))
                    }
                    SortPhase::FinalMerge { .. } => {
                        (PlanKind::Kernel, Some(SORT_KERNEL_FINAL_MERGE))
                    }
                    SortPhase::FinalCopyBack { .. } => (PlanKind::StageOut, None),
                };
                assert_eq!((node.kind, node.kernel), expect, "{structure:?} {phase:?}");
            }
        }
    }

    #[test]
    fn whole_lowering_is_all_global_nodes() {
        let w = plan_sort(SortStructure::Whole, ChunkSortStyle::Gnu, 100, 7).to_workload_plan();
        assert!(w.nodes.iter().all(|n| n.chunk.is_none()));
        assert_eq!(w.nodes.len(), 3);
    }

    #[test]
    fn buffered_lowering_overlaps_prefetch_with_compute() {
        let p = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 16, 4);
        let w = p.to_workload_plan();
        w.validate().unwrap();
        assert_eq!(w.ring_slots, 2);

        // Covers the same work as the sequential lowering: per megachunk
        // one stage-in, one chunk-sort, one merge-out, plus the final pair.
        let mut pairs: Vec<(PlanKind, Option<usize>)> =
            w.nodes.iter().map(|n| (n.kind, n.chunk)).collect();
        let mut expect: Vec<(PlanKind, Option<usize>)> = (0..4)
            .flat_map(|m| {
                [
                    (PlanKind::StageIn, Some(m)),
                    (PlanKind::Kernel, Some(m)),
                    (PlanKind::StageOut, Some(m)),
                ]
            })
            .chain([(PlanKind::Kernel, None), (PlanKind::StageOut, None)])
            .collect();
        pairs.sort_by_key(|(k, c)| (*c, *k as usize));
        expect.sort_by_key(|(k, c)| (*c, *k as usize));
        assert_eq!(pairs, expect);

        // Stage-in of megachunk m >= 2 recycles the buffer megachunk
        // m - 2's merge-out freed.
        for m in 2..4 {
            let si = w.find(PlanKind::StageIn, m).unwrap();
            assert_eq!(w.nodes[si].deps.len(), 1);
            assert_eq!(w.nodes[si].deps[0].kind, EdgeKind::Recycle);
            assert_eq!(w.nodes[w.nodes[si].deps[0].from].chunk, Some(m - 2));
        }

        // The final merge waits on every megachunk's merge-out.
        let fm = w
            .nodes
            .iter()
            .position(|n| n.kernel == Some(SORT_KERNEL_FINAL_MERGE))
            .unwrap();
        let dep_chunks: Vec<Option<usize>> = w.nodes[fm]
            .deps
            .iter()
            .map(|e| w.nodes[e.from].chunk)
            .collect();
        assert_eq!(dep_chunks, vec![Some(0), Some(1), Some(2), Some(3)]);

        // And the prefetch genuinely overlaps: megachunk 1's stage-in
        // waits on nothing and is issued right after megachunk 0's sort.
        let k0 = w.find(PlanKind::Kernel, 0).unwrap();
        let si1 = w.find(PlanKind::StageIn, 1).unwrap();
        assert_eq!(si1, k0 + 1);
        assert!(w.nodes[si1].deps.is_empty());
    }

    #[test]
    fn single_megachunk_buffered_lowering_has_no_final_pair() {
        let w = plan_sort(SortStructure::Buffered, ChunkSortStyle::Serial, 4, 8).to_workload_plan();
        w.validate().unwrap();
        assert_eq!(w.nodes.len(), 3);
        assert!(w.nodes.iter().all(|n| n.chunk == Some(0)));
    }
}
