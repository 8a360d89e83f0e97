//! Real, correctness-checked implementations of the sort variants.
//!
//! The phase sequence of every variant comes from the shared
//! [`mlm_exec::plan_sort`] (the same plan the sim lowering interprets);
//! [`run_sort_plan`] executes it on real threads and buffers. Host memory
//! has one level, so the explicit "copy to MCDRAM" steps degenerate to
//! buffer copies — but every algorithmic step (megachunk split, per-thread
//! serial sorts, multiway merges, final merge) runs for real, which is
//! what validates the sim lowering's schedules and feeds the native
//! Criterion benchmarks.

use mlm_exec::{
    plan_sort, waves, ChunkSortStyle, PlanKind, PlanNode, SortPlan, SortStructure, WorkloadPlan,
    SORT_KERNEL_FINAL_MERGE, SORT_KERNEL_MERGE_RUNS,
};
use parsort::multiway::{multiway_merge_into, parallel_multiway_merge_into};
use parsort::parallel::{parallel_mergesort, sort_chunks_serial, split_borrows};
use parsort::pool::{parallel_copy, split_mut, split_range, WorkPool};

use super::SortAlgorithm;

/// Execution statistics of a host sort run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostSortStats {
    /// Megachunks processed (1 when the megachunk covers the input).
    pub megachunks: usize,
    /// Serial chunk sorts performed.
    pub chunk_sorts: usize,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

/// Execute a [`SortPlan`] on the host.
///
/// The plan is first lowered into the workload-generic IR
/// ([`SortPlan::to_workload_plan`]) and the interpreter walks
/// [`mlm_exec::waves`] of that plan — the same node/edge DAG the sim
/// lowering and the graph verifier consume — realising each node on
/// one-level host memory: the working buffer and the merge scratch are
/// the same `data`-sized allocation, staged copies are real `memcpy`s over
/// the pool, and [`SortStructure::Whole`] plans collapse into the
/// library's parallel mergesort (one call realises `ThreadSort` +
/// `ThreadMerge` + `FinalCopyBack`, with its own internal scratch).
/// Sequential structures produce one node per wave (the barrier-per-phase
/// execution this module always had); the overlapped structure's
/// multi-node waves each run as one scoped task batch
/// ([`run_buffered_plan`]).
pub fn run_sort_plan<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    plan: &SortPlan,
    data: &mut [T],
) -> HostSortStats {
    let start = std::time::Instant::now();
    let n = data.len();
    assert_eq!(n as u64, plan.n_elems, "plan must be for this data length");
    if n < 2 {
        return HostSortStats {
            megachunks: n.min(1),
            chunk_sorts: 0,
            elapsed: start.elapsed(),
        };
    }
    let wplan = plan.to_workload_plan();
    if plan.overlapped {
        return run_buffered_plan(pool, plan, &wplan, data, start);
    }
    if plan.structure == SortStructure::Whole {
        parallel_mergesort(pool, data);
        return HostSortStats {
            megachunks: plan.megachunks,
            chunk_sorts: 0,
            elapsed: start.elapsed(),
        };
    }

    let p = pool.threads();
    let mega_elems = plan.mega_elems as usize;
    let bounds = |m: usize| -> (usize, usize) { (m * mega_elems, ((m + 1) * mega_elems).min(n)) };
    let mut chunk_sorts = 0usize;
    let mut scratch = data.to_vec();

    for wave in waves(&wplan) {
        for i in wave {
            let node = &wplan.nodes[i];
            match (node.kind, node.chunk) {
                // "Copy-in": stage the megachunk in the working buffer
                // (MCDRAM -> the scratch allocation on the host).
                (PlanKind::StageIn, Some(mega)) => {
                    let (lo, hi) = bounds(mega);
                    parallel_copy(pool, &data[lo..hi], &mut scratch[lo..hi]);
                }
                // Sort the megachunk's chunks where the plan staged them:
                // the working buffer for staged plans, in place otherwise.
                (PlanKind::Kernel, Some(mega)) => {
                    let (lo, hi) = bounds(mega);
                    let block = if plan.structure == SortStructure::InPlace {
                        &mut data[lo..hi]
                    } else {
                        &mut scratch[lo..hi]
                    };
                    match plan.chunk_style {
                        ChunkSortStyle::Serial => {
                            let parts = p.min(node.len as usize);
                            chunk_sorts += parts;
                            sort_chunks_serial(pool, split_mut(block, parts));
                        }
                        ChunkSortStyle::Gnu => parallel_mergesort(pool, block),
                    }
                }
                // A kernel-carrying stage-out is the run merge: multiway-
                // merge the sorted runs out of the working buffer (staged:
                // back to `data`; in-place: out to scratch). A plain one is
                // the in-place copy-back from scratch.
                (PlanKind::StageOut, Some(mega)) => {
                    let (lo, hi) = bounds(mega);
                    if node.kernel == Some(SORT_KERNEL_MERGE_RUNS) {
                        let parts = match plan.chunk_style {
                            ChunkSortStyle::Serial => p.min(node.len as usize),
                            // The GNU-style chunk sort left one fully sorted
                            // run, so the merge-out degenerates to moving it.
                            ChunkSortStyle::Gnu => 1,
                        };
                        if plan.structure == SortStructure::InPlace {
                            let runs = split_borrows(&data[lo..hi], parts);
                            parallel_multiway_merge_into(pool, &runs, &mut scratch[lo..hi]);
                        } else {
                            let runs = split_borrows(&scratch[lo..hi], parts);
                            parallel_multiway_merge_into(pool, &runs, &mut data[lo..hi]);
                        }
                    } else {
                        parallel_copy(pool, &scratch[lo..hi], &mut data[lo..hi]);
                    }
                }
                // Final multiway merge of the sorted megachunk runs.
                (PlanKind::Kernel, None) if node.kernel == Some(SORT_KERNEL_FINAL_MERGE) => {
                    let runs: Vec<&[T]> = (0..wplan.chunks)
                        .map(|m| {
                            let (lo, hi) = bounds(m);
                            &data[lo..hi]
                        })
                        .collect();
                    parallel_multiway_merge_into(pool, &runs, &mut scratch);
                }
                (PlanKind::StageOut, None) => parallel_copy(pool, &scratch, data),
                (kind, chunk) => {
                    unreachable!("no host realisation for {kind:?}/{chunk:?} in this structure")
                }
            }
        }
    }

    HostSortStats {
        megachunks: plan.megachunks,
        chunk_sorts,
        elapsed: start.elapsed(),
    }
}

/// Sort `data` with the MLM-sort structure (paper §4): split into
/// megachunks of at most `megachunk_elems`; within each, one serial sort
/// per pool thread followed by a parallel multiway merge; finally a
/// parallel multiway merge across megachunks.
///
/// `explicit_copy = true` mirrors MLM-sort (the megachunk is staged through
/// a separate buffer, as flat-mode MCDRAM requires); `false` mirrors
/// MLM-implicit (sort in place, merge through scratch).
pub fn mlm_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
    explicit_copy: bool,
) -> HostSortStats {
    let structure = if explicit_copy {
        SortStructure::Staged
    } else {
        SortStructure::InPlace
    };
    plan_and_run(
        pool,
        structure,
        ChunkSortStyle::Serial,
        data,
        megachunk_elems,
    )
}

/// The "basic algorithm" of §4: megachunks sorted with the *parallel*
/// mergesort (Bender et al.'s scheme), then a final multiway merge.
pub fn basic_chunked_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    plan_and_run(
        pool,
        SortStructure::Staged,
        ChunkSortStyle::Gnu,
        data,
        megachunk_elems,
    )
}

/// MLM-sort with double-buffered megachunks (the paper's §6 future work):
/// while the pool sorts the chunks of megachunk `m` (staged in buffer
/// `m % 2`), it concurrently copies megachunk `m + 1` into the other
/// buffer, hiding the copy-in latency behind the sort phase.
pub fn mlm_sort_buffered<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    plan_and_run(
        pool,
        SortStructure::Buffered,
        ChunkSortStyle::Serial,
        data,
        megachunk_elems,
    )
}

/// The overlapped ([`SortStructure::Buffered`]) interpretation: run each
/// wave of the lowered [`WorkloadPlan`] as one scoped task batch over the
/// two staging buffers ("the two halves of MCDRAM"). The plan's Recycle
/// edges guarantee a wave never touches one buffer twice, so megachunk
/// `m + 1`'s prefetch copy shares a batch with `m`'s chunk sorts (and a
/// merge-out shares with its wave-mates as a single dedicated task). A
/// wave that degenerates to one pool-wide node — the tail merge-out, the
/// final k-way merge, the final copy-back — runs with every thread
/// instead.
fn run_buffered_plan<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    plan: &SortPlan,
    wplan: &WorkloadPlan,
    data: &mut [T],
    start: std::time::Instant,
) -> HostSortStats {
    let n = data.len();
    let k = plan.megachunks;
    let p = pool.threads();
    let mega_elems = plan.mega_elems as usize;
    let mut chunk_sorts = 0usize;

    let bounds = |m: usize| -> (usize, usize) { (m * mega_elems, ((m + 1) * mega_elems).min(n)) };
    let parts_of = |len: u64| -> usize { p.min(len as usize) };

    // The two staging buffers the plan's 2-slot ring indexes.
    let mut bufs: [Vec<T>; 2] = [Vec::new(), Vec::new()];
    // Scratch for the final merge, allocated when its wave arrives.
    let mut scratch: Vec<T> = Vec::new();

    for wave in waves(wplan) {
        // A single-node wave has the pool to itself: realise it with the
        // pool-wide primitives instead of a one-task batch.
        if let [i] = wave[..] {
            let node = &wplan.nodes[i];
            match (node.kind, node.chunk) {
                (PlanKind::StageIn, Some(m)) => {
                    let (lo, hi) = bounds(m);
                    let buf = &mut bufs[node.slot];
                    buf.clear();
                    buf.resize(hi - lo, data[lo]);
                    parallel_copy(pool, &data[lo..hi], buf);
                }
                (PlanKind::Kernel, Some(_)) => {
                    let parts = parts_of(node.len);
                    chunk_sorts += parts;
                    sort_chunks_serial(pool, split_mut(&mut bufs[node.slot], parts));
                }
                (PlanKind::StageOut, Some(m)) => {
                    let (lo, hi) = bounds(m);
                    let runs = split_borrows(&bufs[node.slot], parts_of(node.len));
                    parallel_multiway_merge_into(pool, &runs, &mut data[lo..hi]);
                }
                (PlanKind::Kernel, None) => {
                    scratch.clear();
                    scratch.resize(n, data[0]);
                    let runs: Vec<&[T]> = (0..k)
                        .map(|m| {
                            let (lo, hi) = bounds(m);
                            &data[lo..hi]
                        })
                        .collect();
                    parallel_multiway_merge_into(pool, &runs, &mut scratch);
                }
                (PlanKind::StageOut, None) => parallel_copy(pool, &scratch, data),
                (kind, chunk) => {
                    unreachable!("no host realisation for {kind:?}/{chunk:?} in a buffered plan")
                }
            }
            continue;
        }

        // A multi-node wave: at most one stage-in, one chunk-sort, and one
        // merge-out (the 2-slot ring admits no more), all mutually
        // independent. Carve the buffers and `data` into the disjoint
        // regions each node owns, then run everything as one batch.
        let mut si: Option<&PlanNode> = None;
        let mut sort: Option<&PlanNode> = None;
        let mut merge: Option<&PlanNode> = None;
        for &i in &wave {
            let node = &wplan.nodes[i];
            let slot = match node.kind {
                PlanKind::StageIn => &mut si,
                PlanKind::Kernel => &mut sort,
                PlanKind::StageOut => &mut merge,
                PlanKind::Barrier => unreachable!("sort plans carry no barriers"),
            };
            assert!(slot.replace(node).is_none(), "wave reuses a node kind");
        }

        // Hand each role its staging buffer; a double `take` means the
        // plan broke the ring discipline.
        let (buf0, buf1) = {
            let (a, b) = bufs.split_at_mut(1);
            (&mut a[0], &mut b[0])
        };
        let mut by_slot = [Some(buf0), Some(buf1)];
        let si_buf = si.map(|nd| by_slot[nd.slot].take().expect("stage-in buffer free"));
        let sort_buf = sort.map(|nd| by_slot[nd.slot].take().expect("sort buffer free"));
        let merge_buf = merge.map(|nd| by_slot[nd.slot].take().expect("merge buffer free"));

        // Carve `data`: the merge-out writes its megachunk, the stage-in
        // reads a later one (its Recycle edge points two megachunks back,
        // so the ranges never overlap).
        let (merge_dst, si_src): (Option<&mut [T]>, Option<&[T]>) =
            match (merge.map(|nd| nd.chunk), si.map(|nd| nd.chunk)) {
                (Some(Some(mm)), Some(Some(sm))) => {
                    let ((mlo, mhi), (slo, shi)) = (bounds(mm), bounds(sm));
                    assert!(mhi <= slo, "merge-out must precede the prefetch in `data`");
                    let (left, right) = data.split_at_mut(slo);
                    (Some(&mut left[mlo..mhi]), Some(&right[..shi - slo]))
                }
                (Some(Some(mm)), None) => {
                    let (mlo, mhi) = bounds(mm);
                    (Some(&mut data[mlo..mhi]), None)
                }
                (None, Some(Some(sm))) => {
                    let (slo, shi) = bounds(sm);
                    (None, Some(&data[slo..shi]))
                }
                _ => (None, None),
            };

        let mut tasks: Vec<Box<dyn FnOnce() + Send + '_>> = Vec::new();
        // Prefetch: split the staging copy a few ways so it shares the
        // pool with the sorts without monopolising it.
        if let (Some(buf), Some(src)) = (si_buf, si_src) {
            buf.clear();
            buf.resize(src.len(), src[0]);
            let copy_parts = 4.min(src.len()).max(1);
            let mut rest: &mut [T] = buf;
            for t in 0..copy_parts {
                let (s, e) = split_range(src.len(), copy_parts, t);
                let (head, tail) = rest.split_at_mut(e - s);
                rest = tail;
                let sr = &src[s..e];
                tasks.push(Box::new(move || head.copy_from_slice(sr)));
            }
        }
        // One introsort task per chunk of the sorting megachunk.
        if let (Some(nd), Some(buf)) = (sort, sort_buf) {
            let parts = parts_of(nd.len);
            chunk_sorts += parts;
            for chunk in split_mut(buf, parts) {
                tasks.push(Box::new(move || parsort::serial::introsort(chunk)));
            }
        }
        // The merge-out runs as one dedicated task: serial against its
        // wave-mates, overlapped with them on the pool.
        if let (Some(nd), Some(buf), Some(dst)) = (merge, merge_buf, merge_dst) {
            let runs = split_borrows(buf, parts_of(nd.len));
            tasks.push(Box::new(move || multiway_merge_into(&runs, dst)));
        }
        pool.scoped(tasks);
    }

    HostSortStats {
        megachunks: k,
        chunk_sorts,
        elapsed: start.elapsed(),
    }
}

/// Dispatch a host-scale run of any Table-1 variant via its shared plan.
/// The MCDRAM *placement* differences vanish on the host (one memory
/// level); the *algorithmic* differences — GNU vs MLM structure, explicit
/// staging vs in-place, double buffering — are preserved.
pub fn run_host_sort<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    alg: SortAlgorithm,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    plan_and_run(
        pool,
        alg.structure(),
        alg.chunk_style(),
        data,
        megachunk_elems,
    )
}

/// The shared front of every public sort entry point: check the
/// megachunk, answer trivially sorted inputs without planning, else plan
/// the variant and execute it.
fn plan_and_run<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    structure: SortStructure,
    style: ChunkSortStyle,
    data: &mut [T],
    megachunk_elems: usize,
) -> HostSortStats {
    let start = std::time::Instant::now();
    let whole = structure == SortStructure::Whole;
    assert!(whole || megachunk_elems > 0, "megachunk must be positive");
    let n = data.len();
    if n < 2 {
        return HostSortStats {
            megachunks: if whole { 1 } else { n.min(1) },
            chunk_sorts: 0,
            elapsed: start.elapsed(),
        };
    }
    // Whole-array variants ignore the megachunk knob.
    let mega = if whole { n } else { megachunk_elems };
    let plan = plan_sort(structure, style, n as u64, mega as u64);
    run_sort_plan(pool, &plan, data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{generate_keys, InputOrder};
    use parsort::serial::is_sorted;

    fn check_full_sort(alg: SortAlgorithm, n: usize, mega: usize, order: InputOrder) {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(n, order, 42);
        let mut expect = v.clone();
        expect.sort_unstable();
        let stats = run_host_sort(&pool, alg, &mut v, mega);
        assert_eq!(v, expect, "{alg:?} n={n} mega={mega} {order:?}");
        assert!(stats.elapsed.as_nanos() > 0 || n < 2);
    }

    #[test]
    fn every_variant_sorts_random_input() {
        for alg in SortAlgorithm::TABLE1 {
            check_full_sort(alg, 10_000, 3_000, InputOrder::Random);
        }
        check_full_sort(
            SortAlgorithm::BasicChunked,
            10_000,
            3_000,
            InputOrder::Random,
        );
    }

    #[test]
    fn every_variant_sorts_reverse_input() {
        for alg in SortAlgorithm::TABLE1 {
            check_full_sort(alg, 8_192, 1_000, InputOrder::Reverse);
        }
    }

    #[test]
    fn mlm_sort_explicit_and_implicit_agree() {
        let pool = WorkPool::new(4);
        let base = generate_keys(50_000, InputOrder::Random, 7);
        let mut a = base.clone();
        let mut b = base.clone();
        mlm_sort(&pool, &mut a, 12_000, true);
        mlm_sort(&pool, &mut b, 12_000, false);
        assert_eq!(a, b);
        assert!(is_sorted(&a));
    }

    #[test]
    fn megachunk_equal_to_input_is_single_chunk() {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(5_000, InputOrder::Random, 3);
        let stats = mlm_sort(&pool, &mut v, 5_000, false);
        assert_eq!(stats.megachunks, 1);
        assert!(is_sorted(&v));
    }

    #[test]
    fn megachunk_larger_than_input_is_fine() {
        let pool = WorkPool::new(2);
        let mut v = generate_keys(1_000, InputOrder::Random, 3);
        let stats = mlm_sort(&pool, &mut v, 1 << 30, true);
        assert_eq!(stats.megachunks, 1);
        assert!(is_sorted(&v));
    }

    #[test]
    fn tiny_and_empty_inputs() {
        let pool = WorkPool::new(4);
        let mut v: Vec<i64> = vec![];
        mlm_sort(&pool, &mut v, 10, true);
        let mut v = vec![5i64];
        mlm_sort(&pool, &mut v, 10, false);
        assert_eq!(v, [5]);
        let mut v = vec![2i64, 1];
        mlm_sort(&pool, &mut v, 1, true);
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn ragged_megachunks_sort_correctly() {
        let pool = WorkPool::new(3);
        let mut v = generate_keys(10_007, InputOrder::Random, 9);
        let mut expect = v.clone();
        expect.sort_unstable();
        let stats = mlm_sort(&pool, &mut v, 3_000, true);
        assert_eq!(stats.megachunks, 4);
        assert_eq!(v, expect);
    }

    #[test]
    fn chunk_sort_count_matches_structure() {
        let pool = WorkPool::new(4);
        let mut v = generate_keys(8_000, InputOrder::Random, 1);
        let stats = mlm_sort(&pool, &mut v, 2_000, true);
        assert_eq!(stats.megachunks, 4);
        assert_eq!(stats.chunk_sorts, 16, "4 megachunks x 4 pool threads");
    }

    #[test]
    fn duplicates_survive_all_variants() {
        let pool = WorkPool::new(4);
        for alg in SortAlgorithm::TABLE1 {
            let input: Vec<i64> = (0..9_999).map(|i| i % 13).collect();
            let twelves = input.iter().filter(|&&x| x == 12).count();
            let mut v = input;
            run_host_sort(&pool, alg, &mut v, 2_500);
            assert!(is_sorted(&v));
            assert_eq!(v.iter().filter(|&&x| x == 12).count(), twelves, "{alg:?}");
        }
    }

    #[test]
    fn buffered_variant_sorts_correctly() {
        let pool = WorkPool::new(4);
        for (n, mega) in [
            (50_000usize, 12_000usize),
            (10_007, 2_000),
            (1_000, 1 << 20),
        ] {
            for order in [InputOrder::Random, InputOrder::Reverse] {
                let mut v = generate_keys(n, order, 17);
                let mut expect = v.clone();
                expect.sort_unstable();
                let stats = mlm_sort_buffered(&pool, &mut v, mega);
                assert_eq!(v, expect, "n={n} mega={mega} {order:?}");
                assert_eq!(stats.megachunks, n.div_ceil(mega));
            }
        }
    }

    #[test]
    fn buffered_variant_matches_plain_mlm_sort() {
        let pool = WorkPool::new(6);
        let base = generate_keys(60_000, InputOrder::Random, 23);
        let mut a = base.clone();
        let mut b = base;
        mlm_sort(&pool, &mut a, 14_000, true);
        mlm_sort_buffered(&pool, &mut b, 14_000);
        assert_eq!(a, b);
    }

    #[test]
    fn plan_interpreter_handles_every_structure_directly() {
        let pool = WorkPool::new(4);
        for (structure, style) in [
            (SortStructure::Whole, ChunkSortStyle::Gnu),
            (SortStructure::Staged, ChunkSortStyle::Serial),
            (SortStructure::Staged, ChunkSortStyle::Gnu),
            (SortStructure::InPlace, ChunkSortStyle::Serial),
            (SortStructure::Buffered, ChunkSortStyle::Serial),
        ] {
            let mut v = generate_keys(10_007, InputOrder::Random, 31);
            let mut expect = v.clone();
            expect.sort_unstable();
            let plan = plan_sort(structure, style, v.len() as u64, 3_000);
            let stats = run_sort_plan(&pool, &plan, &mut v);
            assert_eq!(v, expect, "{structure:?}/{style:?}");
            assert_eq!(stats.megachunks, plan.megachunks);
        }
    }
}
