//! Drivers that regenerate every table and figure of the evaluation.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{MemLevel, Program, SimReport, Simulator};
use mlm_core::merge_bench::{
    empirical_optimal_copy_threads, merge_kernel, simulate_merge_bench, MergeBenchParams,
};
use mlm_core::model::ModelParams;
use mlm_core::pipeline::host::{run_host_pipeline, HostRunStats};
use mlm_core::pipeline::Workload;
use mlm_core::pipeline::{PipelineSpec, Placement};
use mlm_core::sort::sim::{build_sort_program, SimSortBackend};
use mlm_core::workload::generate_keys;
use mlm_core::{Calibration, InputOrder, SortAlgorithm, SortWorkload};
use mlm_exec::{interpret, plan_sort, ChunkSortStyle};
use parsort::pool::WorkPool;

use crate::paper::{self, paper_megachunk};
use crate::{BILLION, PAPER_THREADS};

/// One simulated Table 1 cell, paired with the paper's measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// Problem size in elements.
    pub elements: u64,
    /// Input ordering.
    pub order: InputOrder,
    /// Algorithm variant.
    pub algorithm: SortAlgorithm,
    /// Simulated virtual seconds.
    pub sim_seconds: f64,
    /// The paper's measured mean, seconds.
    pub paper_mean: f64,
    /// The paper's standard deviation, seconds.
    pub paper_std: f64,
}

/// The machine mode each Table-1 variant runs under.
pub fn machine_for(algorithm: SortAlgorithm) -> MachineConfig {
    let mode = if algorithm.needs_cache_mode() {
        MemMode::Cache
    } else {
        MemMode::Flat
    };
    MachineConfig::knl_7250(mode)
}

/// The megachunk each variant uses at problem size `n` (§4.1: MLM-implicit
/// uses megachunk = problem size; the others use the 1 B / 1.5 B rule; the
/// GNU baselines are unchunked, so the value is inert for them).
pub fn megachunk_for(algorithm: SortAlgorithm, n: u64) -> u64 {
    match algorithm {
        SortAlgorithm::MlmImplicit => n,
        SortAlgorithm::BasicChunked => paper_megachunk(n).min(BILLION), // must fit MCDRAM/2
        _ => paper_megachunk(n),
    }
}

/// Simulate `alg` over `w` on `machine` with `mega`-element megachunks,
/// at the paper's thread count.
fn run_sort(
    machine: &MachineConfig,
    cal: &Calibration,
    w: SortWorkload,
    alg: SortAlgorithm,
    mega: u64,
) -> Result<SimReport, String> {
    let prog = build_sort_program(machine, cal, w, alg, mega, PAPER_THREADS)?;
    run(machine, &prog)
}

/// Simulate a lowered program on `machine`.
fn run(machine: &MachineConfig, prog: &Program) -> Result<SimReport, String> {
    Simulator::new(machine.clone())
        .run(prog)
        .map_err(|e| e.to_string())
}

/// Simulate one Table-1 cell.
pub fn simulate_sort(
    cal: &Calibration,
    n: u64,
    order: InputOrder,
    algorithm: SortAlgorithm,
) -> Result<f64, String> {
    let w = SortWorkload::int64(n, order);
    let mega = megachunk_for(algorithm, n);
    Ok(run_sort(&machine_for(algorithm), cal, w, algorithm, mega)?.makespan)
}

/// Regenerate Table 1: all 30 (size, order, algorithm) cells.
pub fn table1(cal: &Calibration) -> Result<Vec<Table1Row>, String> {
    let mut rows = Vec::with_capacity(30);
    for &n in &[2 * BILLION, 4 * BILLION, 6 * BILLION] {
        for order in InputOrder::PAPER {
            for algorithm in SortAlgorithm::TABLE1 {
                let sim_seconds = simulate_sort(cal, n, order, algorithm)?;
                let p = paper::table1_row(n, order, algorithm)
                    .ok_or_else(|| format!("no paper row for {n} {order:?} {algorithm:?}"))?;
                rows.push(Table1Row {
                    elements: n,
                    order,
                    algorithm,
                    sim_seconds,
                    paper_mean: p.mean,
                    paper_std: p.std_dev,
                });
            }
        }
    }
    Ok(rows)
}

/// One Figure-6 bar: speedup of a variant over GNU-flat.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig6Bar {
    /// Problem size in elements.
    pub elements: u64,
    /// Input ordering (panel a = random, panel b = reverse).
    pub order: InputOrder,
    /// Algorithm variant (GNU-flat itself is the 1.0 baseline).
    pub algorithm: SortAlgorithm,
    /// Simulated speedup over GNU-flat.
    pub sim_speedup: f64,
    /// The paper's speedup (from its Table 1 means).
    pub paper_speedup: f64,
}

/// Regenerate Figure 6 from Table-1 rows (both panels).
pub fn fig6(rows: &[Table1Row]) -> Vec<Fig6Bar> {
    let mut bars = Vec::new();
    for &n in &[2 * BILLION, 4 * BILLION, 6 * BILLION] {
        for order in InputOrder::PAPER {
            let base = rows
                .iter()
                .find(|r| {
                    r.elements == n && r.order == order && r.algorithm == SortAlgorithm::GnuFlat
                })
                .expect("GNU-flat row present");
            for r in rows.iter().filter(|r| r.elements == n && r.order == order) {
                bars.push(Fig6Bar {
                    elements: n,
                    order,
                    algorithm: r.algorithm,
                    sim_speedup: base.sim_seconds / r.sim_seconds,
                    paper_speedup: base.paper_mean / r.paper_mean,
                });
            }
        }
    }
    bars
}

/// One Figure-7 point: chunked sort time at a given megachunk size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig7Point {
    /// Variant (MLM-sort in flat mode or MLM-implicit in cache mode).
    pub algorithm: SortAlgorithm,
    /// Megachunk size in elements.
    pub megachunk_elems: u64,
    /// Simulated seconds (None when infeasible, e.g. megachunk > MCDRAM in
    /// flat mode — the constraint Figure 7's caption highlights).
    pub seconds: Option<f64>,
}

/// Regenerate Figure 7: 6-billion-element sort, sweeping megachunk size.
/// MLM-implicit keeps improving past the MCDRAM capacity boundary where
/// MLM-sort becomes infeasible.
pub fn fig7(cal: &Calibration) -> Vec<Fig7Point> {
    let n = 6 * BILLION;
    let sweep: [u64; 8] = [
        BILLION / 8,
        BILLION / 4,
        BILLION / 2,
        BILLION,
        3 * BILLION / 2,
        2 * BILLION,
        3 * BILLION,
        6 * BILLION,
    ];
    let mut points = Vec::new();
    for alg in [SortAlgorithm::MlmSort, SortAlgorithm::MlmImplicit] {
        for &mega in &sweep {
            let machine = machine_for(alg);
            let w = SortWorkload::int64(n, InputOrder::Random);
            let seconds = run_sort(&machine, cal, w, alg, mega)
                .ok()
                .map(|r| r.makespan);
            points.push(Fig7Point {
                algorithm: alg,
                megachunk_elems: mega,
                seconds,
            });
        }
    }
    points
}

/// One Figure-8 series point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Fig8Point {
    /// Merge repetitions.
    pub repeats: u32,
    /// Copy-in threads (= copy-out threads).
    pub copy_threads: usize,
    /// Model-predicted seconds (panel a).
    pub model_seconds: Option<f64>,
    /// Simulated "empirical" seconds (panel b).
    pub sim_seconds: f64,
}

/// Regenerate Figure 8: model (a) and simulated-empirical (b) times for
/// repeats 1..64 and copy threads 1..32.
pub fn fig8(cal: &Calibration) -> Result<Vec<Fig8Point>, String> {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let model = ModelParams::paper_table2();
    let mut points = Vec::new();
    for &repeats in &[1u32, 2, 4, 8, 16, 32, 64] {
        for &ct in &[1usize, 2, 4, 8, 16, 32] {
            let params = MergeBenchParams::paper(ct, repeats);
            let sim_seconds = simulate_merge_bench(&machine, cal, &params)?;
            points.push(Fig8Point {
                repeats,
                copy_threads: ct,
                model_seconds: model.t_total(ct, repeats),
                sim_seconds,
            });
        }
    }
    Ok(points)
}

/// One Table-3 row: optimal copy threads by three methods.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table3Row {
    /// Merge repetitions.
    pub repeats: u32,
    /// Our model's optimum (free search over all splits).
    pub model: usize,
    /// Our simulated empirical optimum (powers of two, like the paper).
    pub empirical: usize,
    /// The paper's model column.
    pub paper_model: usize,
    /// The paper's empirical column.
    pub paper_empirical: usize,
}

/// Regenerate Table 3.
pub fn table3(cal: &Calibration) -> Result<Vec<Table3Row>, String> {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let model = ModelParams::paper_table2();
    let candidates = [1usize, 2, 4, 8, 16, 32];
    paper::TABLE3
        .iter()
        .map(|&(repeats, paper_model, paper_empirical)| {
            let (m, _) = model.optimal_copy_threads(repeats);
            let base = MergeBenchParams::paper(1, repeats);
            let (e, _) = empirical_optimal_copy_threads(&machine, cal, &base, &candidates)?;
            Ok(Table3Row {
                repeats,
                model: m,
                empirical: e,
                paper_model,
                paper_empirical,
            })
        })
        .collect()
}

/// Simulated Table 2: the machine constants as measured on the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table2 {
    /// Simulated STREAM DDR bandwidth, bytes/s.
    pub ddr_max: f64,
    /// Simulated STREAM MCDRAM bandwidth, bytes/s.
    pub mcdram_max: f64,
    /// Configured per-thread copy rate, bytes/s.
    pub s_copy: f64,
    /// Configured per-thread compute rate, bytes/s.
    pub s_comp: f64,
    /// Data size used by the merge benchmark, bytes.
    pub b_copy: f64,
}

/// Regenerate Table 2 on the simulated machine.
pub fn table2_sim() -> Result<Table2, String> {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let (ddr_max, mcdram_max) =
        mlm_stream::sim::sim_table2(&machine, 68).map_err(|e| e.to_string())?;
    Ok(Table2 {
        ddr_max,
        mcdram_max,
        s_copy: machine.per_thread_copy_bw,
        s_comp: machine.per_thread_compute_bw,
        b_copy: 14.9e9,
    })
}

/// Bender et al. corroboration (§2.3, §4): chunked sorting's speedup over
/// the unchunked baseline and its DDR-traffic reduction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenderCheck {
    /// Speedup of the basic chunked algorithm over GNU-flat (Bender et
    /// al. predicted ~30%, i.e. 1.3x).
    pub basic_speedup: f64,
    /// DDR traffic of GNU-flat divided by DDR traffic of MLM-sort (Bender
    /// et al. predicted ~2.5x).
    pub ddr_traffic_reduction: f64,
}

/// Run the corroboration experiment at 2 B random elements.
pub fn bender_check(cal: &Calibration) -> Result<BenderCheck, String> {
    let n = 2 * BILLION;
    let w = SortWorkload::int64(n, InputOrder::Random);

    let flat = MachineConfig::knl_7250(MemMode::Flat);
    let gnu_report = run_sort(&flat, cal, w, SortAlgorithm::GnuFlat, n)?;
    let basic_report = run_sort(&flat, cal, w, SortAlgorithm::BasicChunked, BILLION)?;
    let mlm_report = run_sort(&flat, cal, w, SortAlgorithm::MlmSort, BILLION)?;

    Ok(BenderCheck {
        basic_speedup: gnu_report.makespan / basic_report.makespan,
        ddr_traffic_reduction: gnu_report.traffic_on(MemLevel::Ddr).total() as f64
            / mlm_report.traffic_on(MemLevel::Ddr).total() as f64,
    })
}

/// Agreement between the closed-form model (Eqs. 1–5) and the
/// discrete-event simulator over the Figure-8 grid — the quantitative
/// version of the paper's "use experimental evidence to demonstrate the
/// correctness of the model".
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ModelValidation {
    /// Points compared.
    pub points: usize,
    /// Geometric mean of `max(model/sim, sim/model)` over all points.
    pub geo_mean_ratio: f64,
    /// Worst-case ratio.
    pub worst_ratio: f64,
    /// Fraction of (repeats) rows where model argmin and sim argmin agree
    /// within one power-of-two step.
    pub argmin_agreement: f64,
}

/// Quantify model-vs-simulator agreement on the merge benchmark.
pub fn model_validation(cal: &Calibration) -> Result<ModelValidation, String> {
    let points = fig8(cal)?;
    let mut n = 0usize;
    let mut log_sum = 0.0f64;
    let mut worst = 1.0f64;
    for p in &points {
        if let Some(m) = p.model_seconds {
            let ratio = (m / p.sim_seconds).max(p.sim_seconds / m);
            log_sum += ratio.ln();
            worst = worst.max(ratio);
            n += 1;
        }
    }
    // Per-repeats argmin agreement.
    let mut rows = 0usize;
    let mut agree = 0usize;
    for repeats in [1u32, 2, 4, 8, 16, 32, 64] {
        let row: Vec<&Fig8Point> = points.iter().filter(|p| p.repeats == repeats).collect();
        let sim_best = row
            .iter()
            .min_by(|a, b| a.sim_seconds.total_cmp(&b.sim_seconds))
            .map(|p| p.copy_threads)
            .unwrap_or(1);
        let model_best = row
            .iter()
            .filter(|p| p.model_seconds.is_some())
            .min_by(|a, b| {
                a.model_seconds
                    .unwrap()
                    .total_cmp(&b.model_seconds.unwrap())
            })
            .map(|p| p.copy_threads)
            .unwrap_or(1);
        rows += 1;
        let ratio = sim_best.max(model_best) as f64 / sim_best.min(model_best).max(1) as f64;
        if ratio <= 2.0 {
            agree += 1;
        }
    }
    Ok(ModelValidation {
        points: n,
        geo_mean_ratio: (log_sum / n.max(1) as f64).exp(),
        worst_ratio: worst,
        argmin_agreement: agree as f64 / rows as f64,
    })
}

/// One row of the §4.2 hybrid-mode study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridPoint {
    /// Fraction of MCDRAM configured as cache (0 = flat).
    pub cache_fraction: f64,
    /// Largest feasible megachunk in elements.
    pub max_megachunk: u64,
    /// MLM-sort time at that megachunk (2 B random int64).
    pub seconds: f64,
    /// Flat-mode MLM-sort at the *same* megachunk — the paper's "given a
    /// chunk size" comparison.
    pub flat_same_chunk: f64,
}

/// §4.2: "hybrid mode shows near identical performance to flat, given a
/// chunk size. Since we prefer large chunk sizes, and the chunk size in
/// hybrid cannot be as large as the chunk size in flat mode, we obtain our
/// best results in either flat or implicit mode."
pub fn hybrid_study(cal: &Calibration) -> Result<Vec<HybridPoint>, String> {
    let n = 2 * BILLION;
    let w = SortWorkload::int64(n, InputOrder::Random);
    let mut out = Vec::new();
    let flat_machine = MachineConfig::knl_7250(MemMode::Flat);
    for &frac in &[0.0f64, 0.25, 0.5, 0.75] {
        let mode = if frac == 0.0 {
            MemMode::Flat
        } else {
            MemMode::Hybrid {
                cache_fraction: frac,
            }
        };
        let machine = MachineConfig::knl_7250(mode);
        let max_megachunk = (machine.addressable_mcdram() / 8).min(n).max(1);
        let alg = SortAlgorithm::MlmSort;
        let seconds = run_sort(&machine, cal, w, alg, max_megachunk)?.makespan;
        let flat_same_chunk = run_sort(&flat_machine, cal, w, alg, max_megachunk)?.makespan;
        out.push(HybridPoint {
            cache_fraction: frac,
            max_megachunk,
            seconds,
            flat_same_chunk,
        });
    }
    Ok(out)
}

/// One row of the radix study: how much MCDRAM chunking is worth for the
/// purely bandwidth-bound radix sort vs the comparison-bound introsort.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RadixStudyRow {
    /// Kernel name.
    pub kernel: &'static str,
    /// DDR-only time, seconds.
    pub ddr_seconds: f64,
    /// MCDRAM-chunked time, seconds.
    pub mlm_seconds: f64,
    /// Speedup from chunking.
    pub speedup: f64,
}

/// §6 "more benchmarks": LSD radix sort through the chunking framework.
///
/// Radix sort's eight passes are pure streams (no cache-resident
/// recursion), so its per-pass cost follows the serving bus directly —
/// chunking through MCDRAM buys far more for it than for introsort, which
/// is the paper's own closing expectation: "we expect that this will hold
/// for many bandwidth-bound algorithms", strengthened: *the more
/// bandwidth-bound, the more it holds*.
pub fn radix_study(cal: &Calibration) -> Result<Vec<RadixStudyRow>, String> {
    let n = 2 * BILLION;
    // Radix under the MLM-ddr and MLM-sort structures: each variant's own
    // plan, with the megachunks' chunks radix-sorted instead of
    // introsorted (64-bit uniform keys exercise all eight digit passes).
    let radix_time = |alg: SortAlgorithm| -> Result<f64, String> {
        let machine = machine_for(alg);
        let mega = megachunk_for(alg, n);
        let w = SortWorkload::int64(n, InputOrder::Random);
        let mut backend = SimSortBackend::new(&machine, cal, w, alg, mega, PAPER_THREADS)?;
        let plan = plan_sort(alg.structure(), ChunkSortStyle::Radix, n, mega);
        interpret(&mut backend, &plan, &plan.to_workload_plan()).map_err(String::from)?;
        Ok(run(&machine, &backend.into_program())?.makespan)
    };

    let radix_ddr = radix_time(SortAlgorithm::MlmDdr)?;
    let radix_mlm = radix_time(SortAlgorithm::MlmSort)?;
    let intro_ddr = simulate_sort(cal, n, InputOrder::Random, SortAlgorithm::MlmDdr)?;
    let intro_mlm = simulate_sort(cal, n, InputOrder::Random, SortAlgorithm::MlmSort)?;

    Ok(vec![
        RadixStudyRow {
            kernel: "introsort (comparison-bound)",
            ddr_seconds: intro_ddr,
            mlm_seconds: intro_mlm,
            speedup: intro_ddr / intro_mlm,
        },
        RadixStudyRow {
            kernel: "radix (bandwidth-bound)",
            ddr_seconds: radix_ddr,
            mlm_seconds: radix_mlm,
            speedup: radix_ddr / radix_mlm,
        },
    ])
}

/// One design point of the §6 exploration: a hypothetical machine with a
/// scaled near-memory, and how much the paper's algorithm gains on it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DesignPoint {
    /// Near-memory bandwidth as a multiple of DDR bandwidth.
    pub bw_ratio: f64,
    /// Near-memory capacity in GiB.
    pub capacity_gib: u64,
    /// Largest feasible megachunk (elements) on this machine.
    pub megachunk: u64,
    /// Simulated MLM-sort time, seconds.
    pub mlm_seconds: f64,
    /// Simulated GNU-flat time on the same machine, seconds.
    pub gnu_seconds: f64,
    /// Speedup of MLM-sort over GNU-flat.
    pub speedup: f64,
}

/// §6 design-space exploration: sweep the near-memory's bandwidth ratio
/// and capacity and measure what the chunked algorithm is worth on each
/// hypothetical machine (2 B random int64 workload).
///
/// The interesting outputs are the two asymptotes the paper anticipates:
/// at bandwidth ratio 1 the scratchpad is pointless (speedup ≈ the
/// restructuring gain alone), and past the point where compute saturates,
/// extra near-memory bandwidth buys nothing.
pub fn design_space(cal: &Calibration) -> Result<Vec<DesignPoint>, String> {
    let n = 2 * BILLION;
    let w = SortWorkload::int64(n, InputOrder::Random);
    let mut points = Vec::new();
    for &bw_ratio in &[1.0f64, 2.0, 4.44, 8.0] {
        for &capacity_gib in &[4u64, 16, 64] {
            let mut machine = MachineConfig::knl_7250(MemMode::Flat);
            machine.mcdram_bandwidth = machine.ddr_bandwidth * bw_ratio;
            machine.mcdram_capacity = capacity_gib << 30;
            // Largest power-of-two-billion megachunk that fits.
            let elem = 8u64;
            let max_elems = machine.addressable_mcdram() / elem;
            let megachunk = max_elems.min(n).max(1);

            let gnu_seconds = run_sort(&machine, cal, w, SortAlgorithm::GnuFlat, n)?.makespan;
            let mlm_seconds =
                run_sort(&machine, cal, w, SortAlgorithm::MlmSort, megachunk)?.makespan;
            points.push(DesignPoint {
                bw_ratio,
                capacity_gib,
                megachunk,
                mlm_seconds,
                gnu_seconds,
                speedup: gnu_seconds / mlm_seconds,
            });
        }
    }
    Ok(points)
}

/// One row of the host-pipeline scheduling ablation: the same real
/// (host-executed) workload under the lockstep and dataflow schedules.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostAblationRow {
    /// Workload label ("copy-bound", "balanced", "compute-bound").
    pub workload: &'static str,
    /// Merge-kernel repetitions (the compute-intensity knob).
    pub merge_repeats: u32,
    /// Best-of-`reps` lockstep wall-clock, seconds.
    pub lockstep_seconds: f64,
    /// Best-of-`reps` dataflow wall-clock, seconds.
    pub dataflow_seconds: f64,
    /// `lockstep_seconds / dataflow_seconds`.
    pub dataflow_speedup: f64,
    /// Copy-in stage occupancy of the best dataflow run.
    pub copy_in_occupancy: f64,
    /// Compute stage occupancy of the best dataflow run.
    pub compute_occupancy: f64,
    /// Copy-out stage occupancy of the best dataflow run.
    pub copy_out_occupancy: f64,
}

/// Host-pipeline scheduling ablation: lockstep steps vs decoupled stage
/// pools, on real threads and real buffers.
///
/// The paper's lockstep schedule pays `max(T_copy, T_comp)` per step; the
/// dataflow schedule lets whichever stage is the bottleneck run
/// back-to-back while the others wait on the buffer ring. The per-stage
/// occupancies (busy / (threads x elapsed), from [`HostRunStats`])
/// identify the bottleneck: under dataflow the bottleneck stage's
/// occupancy approaches 1 while the others idle on the ring.
///
/// `n_elems` int64 keys are streamed through 8 chunks; `reps` runs per
/// cell, best wall-clock kept (host timing, so noise is real).
pub fn host_pipeline_ablation(n_elems: usize, reps: usize) -> Vec<HostAblationRow> {
    let (p_in, p_out, p_comp) = (2usize, 2usize, 4usize);
    let shared = WorkPool::new(p_in + p_out + p_comp);
    let data = generate_keys(n_elems, InputOrder::Random, 7);
    let chunk_elems = (n_elems / 8).max(1);
    let spec_for = |lockstep: bool| PipelineSpec {
        total_bytes: (n_elems * 8) as u64,
        chunk_bytes: (chunk_elems * 8) as u64,
        p_in,
        p_out,
        p_comp,
        compute_passes: 1,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement: Placement::Hbw,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    };

    // Both schedules run the same spec; gate it once before any work.
    crate::verify::lint_host_spec(&spec_for(true));

    let mut rows = Vec::new();
    for (workload, merge_repeats) in [("copy-bound", 1u32), ("balanced", 4), ("compute-bound", 16)]
    {
        let kernel = |slice: &mut [i64], _ctx: mlm_core::pipeline::host::KernelCtx| {
            merge_kernel(slice, merge_repeats)
        };
        let mut out = vec![0i64; n_elems];

        let mut lockstep_best: Option<HostRunStats> = None;
        let lock_spec = spec_for(true);
        for _ in 0..reps.max(1) {
            let stats = run_host_pipeline(&shared, &lock_spec, &data, &mut out, kernel);
            if lockstep_best.is_none_or(|b| stats.elapsed < b.elapsed) {
                lockstep_best = Some(stats);
            }
        }

        // Same entry point as lockstep: the spec's `lockstep: false` is
        // what selects the dataflow backend (dedicated stage pools are
        // sized from the spec inside the adapter).
        let mut dataflow_best: Option<HostRunStats> = None;
        let flow_spec = spec_for(false);
        for _ in 0..reps.max(1) {
            let stats = run_host_pipeline(&shared, &flow_spec, &data, &mut out, kernel);
            if dataflow_best.is_none_or(|b| stats.elapsed < b.elapsed) {
                dataflow_best = Some(stats);
            }
        }

        let lock = lockstep_best.expect("at least one lockstep run");
        let flow = dataflow_best.expect("at least one dataflow run");
        rows.push(HostAblationRow {
            workload,
            merge_repeats,
            lockstep_seconds: lock.elapsed.as_secs_f64(),
            dataflow_seconds: flow.elapsed.as_secs_f64(),
            dataflow_speedup: lock.elapsed.as_secs_f64() / flow.elapsed.as_secs_f64(),
            copy_in_occupancy: flow.copy_in.occupancy(flow.elapsed),
            compute_occupancy: flow.compute.occupancy(flow.elapsed),
            copy_out_occupancy: flow.copy_out.occupancy(flow.elapsed),
        });
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn megachunk_rules() {
        assert_eq!(megachunk_for(SortAlgorithm::MlmSort, 2 * BILLION), BILLION);
        assert_eq!(
            megachunk_for(SortAlgorithm::MlmSort, 6 * BILLION),
            3 * BILLION / 2
        );
        assert_eq!(
            megachunk_for(SortAlgorithm::MlmImplicit, 6 * BILLION),
            6 * BILLION
        );
        assert_eq!(
            megachunk_for(SortAlgorithm::BasicChunked, 6 * BILLION),
            BILLION
        );
    }

    #[test]
    fn machine_modes_match_variants() {
        assert_eq!(machine_for(SortAlgorithm::GnuCache).mode, MemMode::Cache);
        assert_eq!(machine_for(SortAlgorithm::MlmImplicit).mode, MemMode::Cache);
        assert_eq!(machine_for(SortAlgorithm::MlmSort).mode, MemMode::Flat);
        assert_eq!(machine_for(SortAlgorithm::GnuFlat).mode, MemMode::Flat);
    }

    #[test]
    fn table2_sim_reproduces_configured_constants() {
        let t2 = table2_sim().unwrap();
        assert!((t2.ddr_max - 90e9).abs() < 1e6);
        assert!((t2.mcdram_max - 400e9).abs() < 1e6);
        assert_eq!(t2.s_copy, 4.8e9);
        assert_eq!(t2.s_comp, 6.78e9);
    }

    /// The paper's closing expectation, sharpened: the more bandwidth-bound
    /// the kernel, the more MCDRAM chunking is worth.
    #[test]
    fn radix_gains_more_from_chunking_than_introsort() {
        let rows = radix_study(&Calibration::default()).unwrap();
        assert_eq!(rows.len(), 2);
        let intro = rows[0];
        let radix = rows[1];
        assert!(intro.speedup > 1.0, "{intro:?}");
        assert!(radix.speedup > 1.5, "{radix:?}");
        assert!(
            radix.speedup > intro.speedup * 1.3,
            "bandwidth-bound kernel must gain more: {:.2} vs {:.2}",
            radix.speedup,
            intro.speedup
        );
    }

    #[test]
    fn model_tracks_simulator_closely() {
        let v = model_validation(&Calibration::default()).unwrap();
        assert_eq!(v.points, 42);
        assert!(
            v.geo_mean_ratio < 1.25,
            "geo-mean ratio {}",
            v.geo_mean_ratio
        );
        assert!(v.worst_ratio < 2.5, "worst ratio {}", v.worst_ratio);
        assert!(
            v.argmin_agreement >= 5.0 / 7.0,
            "argmin agreement {}",
            v.argmin_agreement
        );
    }

    #[test]
    fn hybrid_fills_the_gap_between_flat_and_nothing() {
        let points = hybrid_study(&Calibration::default()).unwrap();
        assert_eq!(points.len(), 4);
        // Capacity claim: the feasible chunk shrinks with the cache share.
        for w in points.windows(2) {
            assert!(w[1].max_megachunk < w[0].max_megachunk);
        }
        // §4.2: "hybrid mode shows near identical performance to flat,
        // given a chunk size" — each hybrid point within 10% of flat at
        // the SAME megachunk.
        for p in &points {
            assert!(
                (p.seconds / p.flat_same_chunk - 1.0).abs() < 0.10,
                "hybrid {:?} strays from same-chunk flat",
                p
            );
        }
        // "We obtain our best results in either flat or implicit mode":
        // no hybrid point beats flat at its maximal chunk.
        let flat_best = points[0].seconds;
        for p in &points[1..] {
            assert!(
                p.seconds >= flat_best * 0.99,
                "{p:?} beats flat {flat_best}"
            );
        }
    }

    #[test]
    fn design_space_has_sane_asymptotes() {
        let cal = Calibration::default();
        let points = design_space(&cal).unwrap();
        assert_eq!(points.len(), 12);
        for p in &points {
            assert!(p.speedup > 0.8, "{p:?}");
        }
        // More near-memory bandwidth never hurts (same capacity).
        for &cap in &[4u64, 16, 64] {
            let series: Vec<&DesignPoint> =
                points.iter().filter(|p| p.capacity_gib == cap).collect();
            for w in series.windows(2) {
                assert!(
                    w[1].mlm_seconds <= w[0].mlm_seconds * 1.001,
                    "bandwidth must not hurt: {:?} -> {:?}",
                    w[0],
                    w[1]
                );
            }
        }
        // At the KNL point (4.44x, 16 GiB) the speedup matches Table 1's.
        let knl = points
            .iter()
            .find(|p| (p.bw_ratio - 4.44).abs() < 1e-9 && p.capacity_gib == 16)
            .unwrap();
        assert!(
            (1.2..1.7).contains(&knl.speedup),
            "KNL point speedup {}",
            knl.speedup
        );
    }

    #[test]
    fn host_ablation_runs_and_reports_occupancies() {
        // Small problem: this checks plumbing, not performance.
        let rows = host_pipeline_ablation(1 << 14, 1);
        assert_eq!(rows.len(), 3);
        for r in &rows {
            assert!(r.lockstep_seconds > 0.0, "{r:?}");
            assert!(r.dataflow_seconds > 0.0, "{r:?}");
            assert!(r.dataflow_speedup > 0.0, "{r:?}");
            for occ in [
                r.copy_in_occupancy,
                r.compute_occupancy,
                r.copy_out_occupancy,
            ] {
                assert!((0.0..=1.0 + 1e-9).contains(&occ), "{r:?}");
            }
        }
        // More merge repeats cannot make compute cheaper.
        assert!(rows[2].merge_repeats > rows[0].merge_repeats);
    }

    #[test]
    fn fig6_normalizes_to_gnu_flat() {
        let cal = Calibration::default();
        // Use a single size to keep the test quick: synthesize rows.
        let rows: Vec<Table1Row> = table1(&cal).unwrap();
        let bars = fig6(&rows);
        for b in bars
            .iter()
            .filter(|b| b.algorithm == SortAlgorithm::GnuFlat)
        {
            assert!((b.sim_speedup - 1.0).abs() < 1e-12);
            assert!((b.paper_speedup - 1.0).abs() < 1e-12);
        }
        assert_eq!(bars.len(), 30);
    }
}
