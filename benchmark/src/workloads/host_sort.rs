//! `host_sort`: the four host sort executors on seeded random keys.
//!
//! `parsort`'s introsort and multiway merge do nearly all the work here;
//! the chunk pipeline and every simulated layer do none. A kernel
//! optimisation shows on this workload, a pipeline or engine change must
//! not move it.

use mlm_core::sort::host::run_host_sort;
use mlm_core::workload::generate_keys;
use mlm_core::{InputOrder, SortAlgorithm};
use mlm_exec::{plan_sort, SortPhase, SortStructure};
use parsort::multiway::{multiway_merge_into, parallel_multiway_merge_into};
use parsort::parallel::{sort_chunks_serial, split_borrows};
use parsort::pool::{parallel_copy, split_mut, WorkPool};
use parsort::{introsort, parallel_mergesort, radix_sort};

use super::{Setup, Size, Workload};
use crate::check::{check_sorted, Multiset, Ops};
use crate::metrics::LayerMetrics;
use crate::trace::{Spans, Tracer};

/// The variants a cycle sorts with, and the metric each one reports.
const VARIANTS: [(SortAlgorithm, &str, &str); 4] = [
    (
        SortAlgorithm::GnuFlat,
        "mlm_core::run_host_sort/GNU-flat",
        "mlm-core.sort_gnu_flat_melem_per_s",
    ),
    (
        SortAlgorithm::MlmSort,
        "mlm_core::run_host_sort/MLM-sort",
        "mlm-core.sort_mlm_melem_per_s",
    ),
    (
        SortAlgorithm::MlmImplicit,
        "mlm_core::run_host_sort/MLM-implicit",
        "mlm-core.sort_mlm_implicit_melem_per_s",
    ),
    (
        SortAlgorithm::MlmSortBuffered,
        "mlm_core::run_host_sort/MLM-sort-buffered",
        "mlm-core.sort_mlm_buffered_melem_per_s",
    ),
];

/// Megachunks per array, which is also the run count of the plans' final
/// merge and of the multiway-merge probes.
const MEGACHUNKS: usize = 4;

const INTROSORT: &str = "parsort::introsort";
const INTROSORT_REVERSE: &str = "parsort::introsort/reverse";
const MERGE: &str = "parsort::parallel_multiway_merge_into";
const MERGE_1T: &str = "parsort::multiway_merge_into";
const MERGESORT: &str = "parsort::parallel_mergesort";
const COPY: &str = "parsort::parallel_copy";
const RADIX: &str = "parsort::radix_sort";
// The kernels the chunked plans call per megachunk, at a megachunk's size.
const CHUNK_SORT: &str = "parsort::sort_chunks_serial/megachunk";
const MERGE_MEGA: &str = "parsort::parallel_multiway_merge_into/megachunk";
const COPY_MEGA: &str = "parsort::parallel_copy/megachunk";

pub struct HostSort {
    pool: WorkPool,
    keys: Vec<i64>,
    fingerprint: Multiset,
    /// The array each sort runs on, refilled from `keys` (untimed) so no
    /// allocation or first touch lands inside a step.
    work: Vec<i64>,
    megachunk: usize,
}

impl HostSort {
    pub fn new(setup: &Setup) -> Self {
        let (n, megachunk) = match setup.size {
            Size::Full => (1usize << 21, (1 << 21) / MEGACHUNKS),
            Size::Smoke => (1 << 16, (1 << 16) / MEGACHUNKS),
        };
        let keys = generate_keys(n, InputOrder::Random, setup.seed);
        HostSort {
            pool: WorkPool::new(setup.threads),
            fingerprint: Multiset::of(&keys),
            work: keys.clone(),
            keys,
            megachunk,
        }
    }

    fn melem(&self) -> f64 {
        self.keys.len() as f64 / 1e6
    }

    /// Seconds one variant's sort plan spends inside `parsort`, going by
    /// the probes that ran each kernel at the shape the plan calls it with.
    /// What is left of the variant's wall time is `mlm-core`'s own: plan
    /// walking, scratch allocation, scheduling.
    fn kernel_seconds(&self, alg: SortAlgorithm, probe: &KernelSeconds) -> f64 {
        let n = self.keys.len() as u64;
        if alg.structure() == SortStructure::Whole {
            // The whole-array plan collapses into one parallel mergesort.
            return probe.mergesort;
        }
        let plan = plan_sort(alg.structure(), alg.chunk_style(), n, self.megachunk as u64);
        let of_megachunk = |elems: u64| elems as f64 / self.megachunk as f64;
        plan.phases
            .iter()
            .map(|phase| match *phase {
                SortPhase::ChunkSort { elems, .. } => probe.chunk_sort * of_megachunk(elems),
                SortPhase::MergeRuns { elems, .. } => probe.merge_mega * of_megachunk(elems),
                SortPhase::StageIn { elems, .. } | SortPhase::CopyBack { elems, .. } => {
                    probe.copy_mega * of_megachunk(elems)
                }
                SortPhase::FinalMerge { .. } => probe.merge,
                SortPhase::FinalCopyBack { .. } => probe.copy,
                // Whole-array phases, handled above.
                SortPhase::ThreadSort { .. } | SortPhase::ThreadMerge { .. } => 0.0,
            })
            .sum()
    }
}

/// Median seconds of the probes behind [`HostSort::kernel_seconds`]: the
/// per-megachunk kernels, then the whole-array ones.
struct KernelSeconds {
    chunk_sort: f64,
    merge_mega: f64,
    copy_mega: f64,
    merge: f64,
    mergesort: f64,
    copy: f64,
}

impl Workload for HostSort {
    fn sizes(&self) -> String {
        format!(
            "{} random i64 keys ({} MiB), megachunk {}, {} threads, {} variants per cycle",
            self.keys.len(),
            (self.keys.len() * 8) >> 20,
            self.megachunk,
            self.pool.threads(),
            VARIANTS.len()
        )
    }

    fn work_per_cycle(&self) -> (f64, &'static str) {
        (VARIANTS.len() as f64 * self.melem(), "Melem/s")
    }

    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        for (alg, step, _) in VARIANTS {
            self.work.copy_from_slice(&self.keys);
            tr.step(step, |_| {
                run_host_sort(&self.pool, alg, &mut self.work, self.megachunk)
            });
            check_sorted(ops, alg.label(), &self.work, self.fingerprint);
        }
    }

    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let n = self.keys.len();
        // Plain single-threaded introsort: the baseline every other sort
        // rate is read against.
        for _ in 0..3 {
            self.work.copy_from_slice(&self.keys);
            tr.step(INTROSORT, |_| introsort(&mut self.work));
            check_sorted(ops, INTROSORT, &self.work, self.fingerprint);
        }
        let mut reversed = self.work.clone();
        reversed.reverse();
        for _ in 0..3 {
            self.work.copy_from_slice(&reversed);
            tr.step(INTROSORT_REVERSE, |_| introsort(&mut self.work));
            check_sorted(ops, INTROSORT_REVERSE, &self.work, self.fingerprint);
        }

        // Independently sorted runs of random keys, so the merge really
        // interleaves them.
        let mut runs = self.keys.clone();
        for run in runs.chunks_mut(n / MEGACHUNKS) {
            introsort(run);
        }
        let runs = split_borrows(&runs, MEGACHUNKS);
        for _ in 0..5 {
            tr.step(MERGE, |_| {
                parallel_multiway_merge_into(&self.pool, &runs, &mut self.work)
            });
            check_sorted(ops, MERGE, &self.work, self.fingerprint);
            tr.step(MERGE_1T, |_| multiway_merge_into(&runs, &mut self.work));
            check_sorted(ops, MERGE_1T, &self.work, self.fingerprint);
        }

        for _ in 0..3 {
            self.work.copy_from_slice(&self.keys);
            tr.step(MERGESORT, |_| {
                parallel_mergesort(&self.pool, &mut self.work)
            });
            check_sorted(ops, MERGESORT, &self.work, self.fingerprint);
            self.work.copy_from_slice(&self.keys);
            tr.step(RADIX, |_| radix_sort(&mut self.work));
            check_sorted(ops, RADIX, &self.work, self.fingerprint);
        }
        for _ in 0..5 {
            tr.step(COPY, |_| {
                parallel_copy(&self.pool, &self.keys, &mut self.work)
            });
        }
        ops.check(self.work == self.keys, || format!("{COPY}: copy differs"));

        // One megachunk through the three kernels a chunked plan runs on
        // it: stage in, one serial sort per thread, merge the runs out.
        let threads = self.pool.threads();
        let (mega, rest) = self.work.split_at_mut(self.megachunk);
        let merged = &mut rest[..self.megachunk];
        let source = &self.keys[..self.megachunk];
        let fingerprint = Multiset::of(source);
        for _ in 0..5 {
            tr.step(COPY_MEGA, |_| parallel_copy(&self.pool, source, mega));
            tr.step(CHUNK_SORT, |_| {
                sort_chunks_serial(&self.pool, split_mut(mega, threads))
            });
            let runs = split_borrows(mega, threads);
            tr.step(MERGE_MEGA, |_| {
                parallel_multiway_merge_into(&self.pool, &runs, merged)
            });
            check_sorted(ops, MERGE_MEGA, merged, fingerprint);
        }
    }

    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics) {
        let melem = self.melem();
        for (_, step, metric) in VARIANTS {
            out.rate(metric, melem, &spans.seconds(step));
        }
        for (step, metric) in [
            (INTROSORT, "parsort.introsort_melem_per_s"),
            (INTROSORT_REVERSE, "parsort.introsort_reverse_melem_per_s"),
            (MERGE, "parsort.multiway_merge_melem_per_s"),
            (MERGE_1T, "parsort.multiway_merge_1t_melem_per_s"),
            (MERGESORT, "parsort.parallel_mergesort_melem_per_s"),
            (RADIX, "parsort.radix_melem_per_s"),
        ] {
            out.rate(metric, melem, &spans.seconds(step));
        }
        let gb = (self.keys.len() * 8) as f64 / 1e9;
        out.rate("parsort.parallel_copy_gbps", gb, &spans.seconds(COPY));

        let median = |step| spans.median(step);
        if let (
            Some(chunk_sort),
            Some(merge_mega),
            Some(copy_mega),
            Some(merge),
            Some(mergesort),
            Some(copy),
        ) = (
            median(CHUNK_SORT),
            median(MERGE_MEGA),
            median(COPY_MEGA),
            median(MERGE),
            median(MERGESORT),
            median(COPY),
        ) {
            let probe = KernelSeconds {
                chunk_sort,
                merge_mega,
                copy_mega,
                merge,
                mergesort,
                copy,
            };
            let (mut kernels, mut wall) = (0.0, 0.0);
            for (alg, step, _) in VARIANTS {
                kernels += self.kernel_seconds(alg, &probe);
                wall += median(step).unwrap_or(0.0);
            }
            if wall > 0.0 {
                out.value("mlm-core.sort_unexplained_frac", 1.0 - kernels / wall);
            }
        }
    }
}
