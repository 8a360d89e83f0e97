//! Real, correctness-checked implementations of the sort variants.
//!
//! The phase sequence of every variant comes from the shared
//! [`mlm_exec::plan_sort`], lowered onto the generic IR
//! ([`SortPlan::to_workload_plan`]) and executed by
//! [`mlm_exec::interpret`] — the same executor and the same DAG the
//! simulated sort ([`super::sim`]) and every chunk pipeline run.
//! [`HostSortBackend`] realises each node on one-level host memory, so the
//! explicit "copy to MCDRAM" steps degenerate to buffer copies — but every
//! algorithmic step (megachunk split, per-thread serial sorts, multiway
//! merges, final merge) runs for real, which is what validates the sim
//! lowering's schedules and feeds the native benchmarks. Nodes run in
//! batches of mutually independent nodes on one pool, through the drain
//! the host pipeline uses too (`crate::host`), and each node kind has one
//! realisation: its tasks split over a part count that depends only on
//! whether the node runs alone or shares its batch.

use mlm_exec::{
    interpret, plan_sort, Backend, ChunkSortStyle, PlanKind, PlanNode, SortPlan, SortStructure,
    WorkloadPlan, BUFFERED_COPY_THREADS, SORT_KERNEL_CHUNK_SORT, SORT_KERNEL_FINAL_MERGE,
    SORT_KERNEL_MERGE_RUNS, SORT_KERNEL_THREAD_SORT,
};
use parsort::multiway::merge_parts;
use parsort::parallel::{parallel_mergesort, split_borrows};
use parsort::pool::{copy_parts, split_mut, Task, WorkPool};
use parsort::radix::{radix_sort, RadixKey};

use super::SortAlgorithm;
use crate::host::Drain;

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

/// Execute a [`SortPlan`] on the host: [`interpret`] its
/// [`WorkloadPlan`](mlm_exec::WorkloadPlan) over a [`HostSortBackend`].
pub fn run_sort_plan<T: Ord + RadixKey + Send + Sync>(
    pool: &WorkPool,
    plan: &SortPlan,
    data: &mut [T],
) -> HostSortStats {
    let start = std::time::Instant::now();
    assert_eq!(
        data.len() as u64,
        plan.n_elems,
        "plan must be for this data length"
    );
    let mut chunk_sorts = 0;
    if data.len() >= 2 {
        let mut backend = HostSortBackend::new(pool, data);
        interpret(&mut backend, plan, &plan.to_workload_plan())
            .expect("sort plans are well-formed");
        chunk_sorts = backend.chunk_sorts;
    }
    HostSortStats {
        megachunks: plan.megachunks,
        chunk_sorts,
        elapsed: start.elapsed(),
    }
}

/// The host sort [`Backend`], with the [`SortPlan`] as its context.
///
/// Every node goes to the shared [`Drain`], which batches mutually
/// independent nodes: a sequential plan (each node Seq-chained to its
/// predecessor) runs one node at a time, and the buffered plan's prefetch
/// of megachunk `m + 1` shares a batch with the sort of `m`. Tokens are
/// issue indices.
///
/// Host memory has one level, so the working buffer and the merge scratch
/// are the same `data`-sized allocation, made at first use: megachunk
/// `m` is staged into its own window of it, which honours any ring.
/// [`SortStructure::Whole`] plans collapse into the library's parallel
/// mergesort: its one call realises `ThreadSort`, `ThreadMerge` and
/// `FinalCopyBack`, with its own internal scratch.
pub struct HostSortBackend<'a, T> {
    pool: &'a WorkPool,
    data: &'a mut [T],
    /// Working buffer and merge scratch, `data`-sized once allocated.
    scratch: Vec<T>,
    /// Issued nodes not yet run.
    drain: Drain<PlanNode>,
    /// Serial chunk sorts performed.
    chunk_sorts: usize,
    /// Every batch run, in order: the part count of each of its nodes.
    batches: Vec<Vec<usize>>,
}

impl<'a, T: Ord + RadixKey + Send + Sync> HostSortBackend<'a, T> {
    /// A backend sorting `data` on `pool`; `data` must hold at least two
    /// elements and match the plan it is driven with.
    pub fn new(pool: &'a WorkPool, data: &'a mut [T]) -> Self {
        assert!(data.len() >= 2, "nothing to sort");
        HostSortBackend {
            pool,
            data,
            scratch: Vec::new(),
            drain: Drain::new(),
            chunk_sorts: 0,
            batches: Vec::new(),
        }
    }

    /// Run one batch of mutually independent nodes as one `scoped` call.
    /// A node alone gets every pool thread. In a buffered batch — at most
    /// one prefetch, one chunk sort and one merge-out, each on its own
    /// megachunk — the prefetch gets the copy pool, the chunk sort every
    /// thread, and the merge-out one: serial against its batch-mates,
    /// overlapped with them on the pool.
    fn run_batch(&mut self, plan: &SortPlan, mut nodes: Vec<PlanNode>) {
        if nodes.is_empty() {
            return;
        }
        let (pool, p) = (self.pool, self.pool.threads());
        let alone = nodes.len() == 1;
        let parts = |nd: &PlanNode| match nd.kind {
            PlanKind::StageIn if !alone => BUFFERED_COPY_THREADS,
            PlanKind::StageOut if !alone => 1,
            _ => p,
        };
        self.batches.push(nodes.iter().map(parts).collect());
        if plan.structure == SortStructure::Whole {
            if nodes[0].kernel == Some(SORT_KERNEL_THREAD_SORT) {
                parallel_mergesort(pool, self.data);
            }
            return;
        }

        // Carve each node's window out of `data` and `scratch` (a global
        // node's is the whole array); the windows of a batch never overlap.
        let data = &mut *self.data;
        let scratch = full(&mut self.scratch, data);
        let (mut data, mut scratch, mut at) = (data, &mut scratch[..], 0);
        let mut windows = Vec::with_capacity(nodes.len());
        nodes.sort_by_key(|nd| nd.chunk);
        for nd in &nodes {
            let (lo, hi) = nd
                .chunk
                .map_or((0, plan.n_elems as usize), |m| bounds(plan, m));
            assert!(lo >= at, "batched nodes share a megachunk");
            let (d, d_rest) = data.split_at_mut(hi - at);
            let (s, s_rest) = scratch.split_at_mut(hi - at);
            windows.push((nd, &mut d[lo - at..], &mut s[lo - at..]));
            (data, scratch, at) = (d_rest, s_rest, hi);
        }

        // The GNU chunk style sorts a megachunk with the library's
        // two-phase parallel mergesort, always as a lone node.
        let staged = plan.structure != SortStructure::InPlace;
        if let [(nd, d, s)] = &mut windows[..] {
            if nd.kernel == Some(SORT_KERNEL_CHUNK_SORT) && plan.chunk_style == ChunkSortStyle::Gnu
            {
                parallel_mergesort(pool, if staged { s } else { d });
                return;
            }
        }

        // Tasks in stage order: the short prefetch copies first, the one
        // long merge-out last.
        windows.sort_by_key(|(nd, ..)| nd.kind as usize);
        let mut tasks = Vec::new();
        for (nd, d, s) in windows {
            let node_tasks = node_tasks(plan, nd, parts(nd), p, staged, d, s);
            if nd.kernel == Some(SORT_KERNEL_CHUNK_SORT) {
                self.chunk_sorts += node_tasks.len();
            }
            tasks.extend(node_tasks);
        }
        pool.scoped(tasks);
    }
}

/// The tasks of one megachunk-plan node split over `parts` workers, on its
/// window `d` of the data and `s` of the scratch: the one host
/// realisation of each node kind. A chunk sort leaves `p` sorted runs
/// (one per pool thread) for its merge-out; `staged` plans sort in the
/// scratch window, in-place plans in the data window.
fn node_tasks<'t, T: Ord + RadixKey + Send + Sync>(
    plan: &SortPlan,
    node: &PlanNode,
    parts: usize,
    p: usize,
    staged: bool,
    d: &'t mut [T],
    s: &'t mut [T],
) -> Vec<Task<'t>> {
    match (node.kind, node.chunk, node.kernel) {
        // "Copy-in": stage the megachunk in its working window.
        (PlanKind::StageIn, Some(_), None) => copy_parts(d, s, parts),
        // Sort the megachunk's chunks where the plan staged them.
        (PlanKind::Kernel, Some(_), Some(SORT_KERNEL_CHUNK_SORT)) => {
            let block = if staged { s } else { d };
            let style = plan.chunk_style;
            split_mut(block, parts.clamp(1, block.len()))
                .into_iter()
                .map(|chunk| Box::new(move || sort_chunk(style, chunk)) as Task<'t>)
                .collect()
        }
        // The run merge: multiway-merge the sorted runs out of the
        // working window (staged: back to `data`; in-place: out to
        // scratch).
        (PlanKind::StageOut, Some(_), Some(SORT_KERNEL_MERGE_RUNS)) => {
            let runs = match plan.chunk_style {
                ChunkSortStyle::Serial | ChunkSortStyle::Radix => p.min(d.len()),
                // The GNU-style chunk sort left one fully sorted run,
                // so the merge-out degenerates to moving it.
                ChunkSortStyle::Gnu => 1,
            };
            let (src, dst): (&[T], &mut [T]) = if staged { (s, d) } else { (d, s) };
            merge_parts(&split_borrows(src, runs), dst, parts)
        }
        // Final multiway merge of the sorted megachunk runs.
        (PlanKind::Kernel, None, Some(SORT_KERNEL_FINAL_MERGE)) => {
            let d: &[T] = d;
            let runs: Vec<&[T]> = (0..plan.megachunks)
                .map(|m| {
                    let (lo, hi) = bounds(plan, m);
                    &d[lo..hi]
                })
                .collect();
            merge_parts(&runs, s, parts)
        }
        // Copy back from scratch: one megachunk (the in-place
        // structure's) or the whole array.
        (PlanKind::StageOut, _, None) => copy_parts(s, d, parts),
        (kind, chunk, kernel) => {
            unreachable!("no host realisation for {kind:?}/{chunk:?}/{kernel:?}")
        }
    }
}

impl<T: Ord + RadixKey + Send + Sync> Backend for HostSortBackend<'_, T> {
    type Ctx = SortPlan;
    type Token = usize;

    fn issue(
        &mut self,
        plan: &SortPlan,
        _lowered: &WorkloadPlan,
        node: &PlanNode,
        deps: &[usize],
    ) -> usize {
        let (token, ready) = self.drain.issue(node.clone(), deps);
        self.run_batch(plan, ready);
        token
    }

    fn step_barrier(&mut self, _plan: &SortPlan, _after: &[usize]) -> usize {
        unreachable!("sort plans carry no barriers")
    }

    fn finish(&mut self, plan: &SortPlan) -> Result<(), String> {
        let nodes = self.drain.take();
        self.run_batch(plan, nodes);
        Ok(())
    }
}

/// Element range `[lo, hi)` of megachunk `m` (the last may be ragged).
fn bounds(plan: &SortPlan, m: usize) -> (usize, usize) {
    let (n, mega) = (plan.n_elems as usize, plan.mega_elems as usize);
    (m * mega, ((m + 1) * mega).min(n))
}

/// One worker's chunk sort: LSD radix sort for [`ChunkSortStyle::Radix`],
/// a serial introsort otherwise.
fn sort_chunk<T: Ord + RadixKey>(style: ChunkSortStyle, chunk: &mut [T]) {
    match style {
        ChunkSortStyle::Radix => radix_sort(chunk),
        _ => parsort::serial::introsort(chunk),
    }
}

/// The `data`-sized scratch, allocated on first use.
fn full<'b, T: Copy>(scratch: &'b mut Vec<T>, data: &[T]) -> &'b mut [T] {
    if scratch.is_empty() {
        scratch.resize(data.len(), data[0]);
    }
    scratch
}

/// Sort `data` with the MLM-sort structure (paper §4): split into
/// megachunks of at most `megachunk_elems`; within each, one serial sort
/// per pool thread followed by a parallel multiway merge; finally a
/// parallel multiway merge across megachunks.
///
/// `explicit_copy = true` mirrors MLM-sort (the megachunk is staged through
/// a separate buffer, as flat-mode MCDRAM requires); `false` mirrors
/// MLM-implicit (sort in place, merge through scratch).
pub fn mlm_sort<T: Ord + RadixKey + Send + Sync>(
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
pub fn basic_chunked_sort<T: Ord + RadixKey + Send + Sync>(
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
pub fn mlm_sort_buffered<T: Ord + RadixKey + Send + Sync>(
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

/// Dispatch a host-scale run of any Table-1 variant via its shared plan.
/// The MCDRAM *placement* differences vanish on the host (one memory
/// level); the *algorithmic* differences — GNU vs MLM structure, explicit
/// staging vs in-place, double buffering — are preserved.
pub fn run_host_sort<T: Ord + RadixKey + Send + Sync>(
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
fn plan_and_run<T: Ord + RadixKey + Send + Sync>(
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
            (SortStructure::Staged, ChunkSortStyle::Radix),
            (SortStructure::InPlace, ChunkSortStyle::Serial),
            (SortStructure::Buffered, ChunkSortStyle::Serial),
            (SortStructure::Buffered, ChunkSortStyle::Radix),
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

    /// A sequential plan chains every node to its predecessor, so each
    /// batch is one node with every pool thread.
    #[test]
    fn sequential_plans_run_one_node_per_batch() {
        let pool = WorkPool::new(3);
        for structure in [SortStructure::Staged, SortStructure::InPlace] {
            let mut v = generate_keys(10_007, InputOrder::Random, 13);
            let plan = plan_sort(structure, ChunkSortStyle::Serial, v.len() as u64, 3_000);
            let nodes = plan.to_workload_plan().nodes.len();
            let mut backend = HostSortBackend::new(&pool, &mut v);
            interpret(&mut backend, &plan, &plan.to_workload_plan()).unwrap();
            assert_eq!(backend.batches, vec![vec![3]; nodes], "{structure:?}");
            assert_eq!(backend.chunk_sorts, 4 * 3);
            assert!(is_sorted(&v));
        }
    }

    /// The buffered plan's batches, pinned to the runs of mutually
    /// independent nodes its dependency edges allow: after the prime
    /// stage-in, every batch pairs two megachunks' phases — megachunk
    /// `m + 1`'s prefetch runs next to `m`'s chunk sort — until the tail
    /// merge-out and the final pair. A lone node is split over all six
    /// pool threads; in a pair the prefetch gets the copy pool (4), the
    /// chunk sort all six, the merge-out one.
    #[test]
    fn buffered_batches_overlap_prefetch_with_sort() {
        let pool = WorkPool::new(6);
        for n in [5_000, 4_993] {
            let mut v = generate_keys(n, InputOrder::Random, 5);
            let mut expect = v.clone();
            expect.sort_unstable();
            let plan = plan_sort(
                SortStructure::Buffered,
                ChunkSortStyle::Serial,
                n as u64,
                1_000,
            );
            assert_eq!(plan.megachunks, 5);
            let mut backend = HostSortBackend::new(&pool, &mut v);
            interpret(&mut backend, &plan, &plan.to_workload_plan()).unwrap();
            let sizes: Vec<usize> = backend.batches.iter().map(Vec::len).collect();
            assert_eq!(sizes, [1, 2, 2, 2, 2, 2, 2, 1, 1, 1, 1]);
            assert_eq!(
                backend.batches,
                [
                    vec![6],
                    vec![6, 4],
                    vec![1, 6],
                    vec![4, 1],
                    vec![6, 4],
                    vec![1, 6],
                    vec![4, 1],
                    vec![6],
                    vec![6],
                    vec![6],
                    vec![6],
                ]
            );
            assert_eq!(backend.chunk_sorts, 5 * 6);
            assert_eq!(v, expect);
        }
    }
}
