//! `host_pipe`: the paper's §5 streaming merge benchmark on the host,
//! copy-bound, through all four chunk schedules.
//!
//! Ring synchronisation, staging `memcpy` and the four `Backend` impls in
//! `mlm-core/src/pipeline/host.rs` do the work and the kernel is trivial —
//! the inverse of `host_sort`. The four schedules are the same layer used
//! four ways: a collapse into one host backend must leave each in place.

use mlm_core::merge_bench::merge_kernel;
use mlm_core::pipeline::host::{
    run_host_pipeline, run_host_pipeline_dataflow, run_host_stencil, HostRunStats, HostStagePools,
    KernelCtx, StencilView,
};
use mlm_core::pipeline::{PipelineSpec, Placement, Workload as Family};
use mlm_core::workload::generate_keys;
use mlm_core::InputOrder;
use mlm_stream::host::run_kernel;
use mlm_stream::StreamKernel;
use parsort::pool::{split_range, WorkPool};

use super::{Setup, Size, Workload};
use crate::check::{check_checksum, checksum, checksum_from, Ops};
use crate::harness::{llc_bytes, median};
use crate::metrics::LayerMetrics;
use crate::trace::{Spans, Tracer};

const LOCKSTEP: &str = "mlm_core::run_host_pipeline/lockstep";
const DATAFLOW: &str = "mlm_core::run_host_pipeline_dataflow";
const IMPLICIT: &str = "mlm_core::run_host_pipeline/implicit";
const STENCIL: &str = "mlm_core::run_host_stencil";
const COMPUTE_BOUND: &str = "mlm_core::run_host_pipeline_dataflow/repeats=16";
const STREAM_COPY: &str = "mlm_stream::run_kernel/Copy";
const STREAM_TRIAD: &str = "mlm_stream::run_kernel/Triad";

/// Merge repetitions of the copy-bound cycle and of the kernel-dominated
/// probe (the pipeline's own bypass: staging no longer matters there).
const COPY_BOUND_REPEATS: u32 = 1;
const COMPUTE_BOUND_REPEATS: u32 = 16;

/// `out` is poisoned at this stride (one element per 4 KiB page) before
/// every schedule, so a schedule that leaves a page unwritten cannot pass
/// on the previous schedule's identical output.
const POISON_STRIDE: usize = 512;

pub struct HostPipe {
    pool: WorkPool,
    stage_pools: HostStagePools,
    data: Vec<i64>,
    out: Vec<i64>,
    chunks: usize,
    halo_elems: usize,
    p_comp: usize,
    /// Checksum of the map kernel's output, built single-threaded with the
    /// schedules' slice geometry; and of the stencil's.
    map_reference: u64,
    stencil_reference: u64,
    /// Every dataflow run's stage accounting, for the busy/wait metrics.
    dataflow_reports: Vec<HostRunStats>,
    stream_copy: Option<f64>,
    stream_triad: Option<f64>,
}

impl HostPipe {
    pub fn new(setup: &Setup) -> Self {
        let (n, chunks, halo_elems) = match setup.size {
            Size::Full => (1usize << 25, 32, (64 << 10) / 8),
            Size::Smoke => (1 << 18, 8, (1 << 10) / 8),
        };
        let p_comp = setup.threads.saturating_sub(1).max(1);
        let data = generate_keys(n, InputOrder::Random, setup.seed);

        let chunk_elems = n / chunks;
        let mut map_reference = 0u64;
        for c in 0..chunks {
            let lo = c * chunk_elems;
            for t in 0..p_comp {
                let (s, e) = split_range(chunk_elems, p_comp, t);
                let mut slice = data[lo + s..lo + e].to_vec();
                merge_kernel(&mut slice, COPY_BOUND_REPEATS);
                map_reference = checksum_from(map_reference, &slice, lo + s);
            }
        }
        let mut stencil_reference = 0u64;
        for g in 0..n {
            let left = if g >= halo_elems {
                data[g - halo_elems]
            } else {
                0
            };
            let right = data.get(g + halo_elems).copied().unwrap_or(0);
            let v = stencil_point(data[g], left, right);
            stencil_reference = checksum_from(stencil_reference, &[v], g);
        }

        let mut pipe = HostPipe {
            pool: WorkPool::new(setup.threads),
            stage_pools: HostStagePools::new(1, p_comp, 1),
            out: vec![0; n],
            data,
            chunks,
            halo_elems,
            p_comp,
            map_reference,
            stencil_reference,
            dataflow_reports: Vec::new(),
            stream_copy: None,
            stream_triad: None,
        };
        pipe.poison();
        pipe
    }

    fn spec(&self, placement: Placement, lockstep: bool, workload: Family) -> PipelineSpec {
        let total_bytes = (self.data.len() * 8) as u64;
        PipelineSpec {
            total_bytes,
            chunk_bytes: total_bytes / self.chunks as u64,
            p_in: 1,
            p_out: 1,
            p_comp: self.p_comp,
            compute_passes: 1,
            // Rates and the address are sim-only fields; the host ignores them.
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement,
            lockstep,
            data_addr: 0,
            workload,
        }
    }

    fn poison(&mut self) {
        for x in self.out.iter_mut().step_by(POISON_STRIDE) {
            *x = !*x;
        }
    }

    fn over_dataflow_reports(&self, read: StageRead) -> Vec<f64> {
        self.dataflow_reports.iter().map(read).collect()
    }

    /// Bytes a schedule reads from `data` plus bytes it writes to `out`:
    /// the payload a single ideal `memcpy` would move, so a rate in these
    /// units reads directly against STREAM Copy.
    fn payload_gb(&self) -> f64 {
        (2 * self.data.len() * 8) as f64 / 1e9
    }
}

/// Reads one figure off a dataflow run's stage accounting.
type StageRead = fn(&HostRunStats) -> f64;

/// The dataflow `RunReport` figures reported per stage.
const STAGE_METRICS: [(&str, StageRead); 7] = [
    ("mlm-core.pipe_copy_in_busy_s", |r| {
        r.copy_in.busy.as_secs_f64()
    }),
    ("mlm-core.pipe_compute_busy_s", |r| {
        r.compute.busy.as_secs_f64()
    }),
    ("mlm-core.pipe_copy_out_busy_s", |r| {
        r.copy_out.busy.as_secs_f64()
    }),
    ("mlm-core.pipe_copy_in_wait_s", |r| {
        r.copy_in.wait.as_secs_f64()
    }),
    ("mlm-core.pipe_compute_wait_s", |r| {
        r.compute.wait.as_secs_f64()
    }),
    ("mlm-core.pipe_copy_out_wait_s", |r| {
        r.copy_out.wait.as_secs_f64()
    }),
    ("mlm-core.pipe_compute_occupancy", |r| {
        r.compute.occupancy(r.elapsed)
    }),
];

/// The 3-point stencil at halo distance: zero boundary, wrapping.
fn stencil_point(mid: i64, left: i64, right: i64) -> i64 {
    mid.wrapping_mul(31)
        .wrapping_sub(left)
        .wrapping_add(right.wrapping_mul(7))
}

/// The stencil kernel against the staged view: the left neighbour of the
/// first `h` elements comes from the previous chunk's halo, the right
/// neighbour of the last `h` from the next chunk's.
fn stencil_kernel(
    chunk_elems: usize,
    h: usize,
) -> impl Fn(StencilView<'_, i64>, &mut [i64], KernelCtx) + Send + Sync {
    move |view, out, ctx| {
        let l0 = ctx.global_offset - ctx.chunk * chunk_elems;
        let mid = view.mid;
        for (i, o) in out.iter_mut().enumerate() {
            let l = l0 + i;
            let left = if l >= h {
                mid[l - h]
            } else {
                view.left.get(l).copied().unwrap_or(0)
            };
            let right = match mid.get(l + h) {
                Some(&x) => x,
                None => view.right.get(l + h - mid.len()).copied().unwrap_or(0),
            };
            *o = stencil_point(mid[l], left, right);
        }
    }
}

impl Workload for HostPipe {
    fn sizes(&self) -> String {
        format!(
            "{} random i64 ({} MiB in + {} MiB out), {} chunks, halo {} KiB, \
             p_in=p_out=1 p_comp={}, merge repeats {}, 4 schedules per cycle",
            self.data.len(),
            (self.data.len() * 8) >> 20,
            (self.data.len() * 8) >> 20,
            self.chunks,
            (self.halo_elems * 8) >> 10,
            self.p_comp,
            COPY_BOUND_REPEATS
        )
    }

    fn work_per_cycle(&self) -> (f64, &'static str) {
        (4.0 * self.payload_gb(), "GB/s")
    }

    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let kernel = |slice: &mut [i64], _: KernelCtx| merge_kernel(slice, COPY_BOUND_REPEATS);

        let spec = self.spec(Placement::Hbw, true, Family::Map);
        tr.step(LOCKSTEP, |_| {
            run_host_pipeline(&self.pool, &spec, &self.data, &mut self.out, kernel)
        });
        let lockstep = checksum(&self.out);
        check_checksum(ops, LOCKSTEP, &self.out, self.map_reference);
        self.poison();

        let spec = self.spec(Placement::Hbw, false, Family::Map);
        let report = tr.step(DATAFLOW, |_| {
            run_host_pipeline_dataflow(&self.stage_pools, &spec, &self.data, &mut self.out, kernel)
        });
        self.dataflow_reports.push(report);
        let dataflow = checksum(&self.out);
        check_checksum(ops, DATAFLOW, &self.out, self.map_reference);
        ops.check(lockstep == dataflow, || {
            format!("lockstep checksum {lockstep:#x} != dataflow checksum {dataflow:#x}")
        });
        self.poison();

        let spec = self.spec(Placement::Implicit, true, Family::Map);
        tr.step(IMPLICIT, |_| {
            run_host_pipeline(&self.pool, &spec, &self.data, &mut self.out, kernel)
        });
        check_checksum(ops, IMPLICIT, &self.out, self.map_reference);
        self.poison();

        let halo_bytes = (self.halo_elems * 8) as u64;
        let spec = self.spec(Placement::Hbw, true, Family::Stencil { halo_bytes });
        let stencil = stencil_kernel(self.data.len() / self.chunks, self.halo_elems);
        tr.step(STENCIL, |_| {
            run_host_stencil(&self.pool, &spec, &self.data, &mut self.out, stencil)
        });
        check_checksum(ops, STENCIL, &self.out, self.stencil_reference);
        self.poison();
    }

    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        // The roofline denominator, on arrays of the pipeline's own size
        // and in the same run: STREAM's best of three iterations.
        let n = self.data.len();
        let copy = tr.step(STREAM_COPY, |_| {
            run_kernel(&self.pool, StreamKernel::Copy, n, 3)
        });
        let triad = tr.step(STREAM_TRIAD, |_| {
            run_kernel(&self.pool, StreamKernel::Triad, n, 3)
        });
        self.stream_copy = Some(copy.bandwidth / 1e9);
        self.stream_triad = Some(triad.bandwidth / 1e9);

        // Kernel-dominated: sixteen merge repetitions per slice over the
        // first quarter of the chunks, where staging cost disappears.
        let quarter = n / 4;
        let mut spec = self.spec(Placement::Hbw, false, Family::Map);
        spec.total_bytes /= 4;
        let kernel = |slice: &mut [i64], _: KernelCtx| merge_kernel(slice, COMPUTE_BOUND_REPEATS);
        for _ in 0..2 {
            tr.step(COMPUTE_BOUND, |_| {
                run_host_pipeline_dataflow(
                    &self.stage_pools,
                    &spec,
                    &self.data[..quarter],
                    &mut self.out[..quarter],
                    kernel,
                )
            });
        }
        // Repeating the merge of two halves is idempotent after the first
        // pass only if the halves were sorted; they are random, so check
        // the multiset the kernel promises to preserve instead.
        let sum = |s: &[i64]| s.iter().fold(0i64, |a, &x| a.wrapping_add(x));
        ops.check(
            sum(&self.out[..quarter]) == sum(&self.data[..quarter]),
            || format!("{COMPUTE_BOUND}: key sum changed"),
        );
        self.poison();
    }

    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics) {
        let gb = self.payload_gb();
        for (step, metric) in [
            (LOCKSTEP, "mlm-core.pipe_lockstep_gbps"),
            (DATAFLOW, "mlm-core.pipe_dataflow_gbps"),
            (IMPLICIT, "mlm-core.pipe_implicit_gbps"),
            (STENCIL, "mlm-core.pipe_stencil_gbps"),
        ] {
            out.rate(metric, gb, &spans.seconds(step));
        }
        out.rate(
            "mlm-core.pipe_compute_bound_gbps",
            gb / 4.0,
            &spans.seconds(COMPUTE_BOUND),
        );
        if let Some(copy) = self.stream_copy {
            out.value("mlm-stream.copy_gbps", copy);
            if let Some(dataflow) = spans.median(DATAFLOW) {
                out.value("mlm-core.pipe_roofline_frac", gb / dataflow / copy);
            }
        }
        if let Some(triad) = self.stream_triad {
            out.value("mlm-stream.triad_gbps", triad);
        }
        if !self.dataflow_reports.is_empty() {
            for (metric, read) in STAGE_METRICS {
                out.samples(metric, &self.over_dataflow_reports(read));
            }
        }
    }

    fn remarks(&self) -> Vec<String> {
        let array = (self.data.len() * 8) as u64;
        let llc = llc_bytes();
        let mut lines =
            vec![format!(
            "array {} bytes, LLC {} bytes as /sys reports it, ratio {:.2} (computed from sizes; \
             a VM's share of a host LLC is smaller than the figure it is shown)",
            array,
            llc,
            if llc == 0 { 0.0 } else { array as f64 / llc as f64 }
        )];
        if !self.dataflow_reports.is_empty() {
            // Dataflow stages overlap, so wall time follows the slowest
            // stage's busy + wait, not the sum; the bottleneck waits least.
            let wait = |read: StageRead| median(&self.over_dataflow_reports(read));
            let (stage, waited) = [
                ("copy-in", wait(|r| r.copy_in.wait.as_secs_f64())),
                ("compute", wait(|r| r.compute.wait.as_secs_f64())),
                ("copy-out", wait(|r| r.copy_out.wait.as_secs_f64())),
            ]
            .into_iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("three stages");
            lines.push(format!(
                "dataflow bottleneck stage: {stage} (waited {waited:.3} s per run, the least)"
            ));
        }
        lines
    }
}
