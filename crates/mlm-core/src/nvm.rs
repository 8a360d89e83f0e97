//! Double-level chunking for a third memory tier (paper §6 future work).
//!
//! "Another level of memory is also conceivable, e.g., high capacity
//! storage based on non-volatile memory such as 3D-XPoint. [...] now there
//! may be double levels of chunking to consider."
//!
//! The data set lives in a high-capacity, low-bandwidth NVM tier; *outer*
//! chunks are staged NVM→DDR by an outer buffered pipeline, and each
//! resident outer chunk is processed by the paper's *inner* DDR→MCDRAM
//! pipeline. The engine models two bus resources, so the three-tier system
//! is simulated hierarchically:
//!
//! 1. the inner pipeline runs on the real KNL machine model, giving the
//!    per-outer-chunk compute time and its DDR traffic;
//! 2. the outer pipeline runs on a *synthetic* two-level machine whose
//!    "DDR" is the NVM tier and whose "MCDRAM" is the real DDR; the inner
//!    run appears as the outer compute stage, with its DDR traffic charged
//!    to the shared bus so outer staging and inner processing contend.
//!
//! This composition is exact when the inner pipeline's bottleneck is not
//! itself perturbed by the outer copies' DDR usage beyond bandwidth
//! sharing — the same locality assumption the paper's own model makes one
//! level down.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{MemLevel, Simulator};
use mlm_exec::declared_bytes;
use serde::{Deserialize, Serialize};

use crate::pipeline::{sim, PipelineSpec, Placement, Workload};

/// The NVM tier's parameters (3D-XPoint-class defaults).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NvmConfig {
    /// Sustained NVM bandwidth in bytes/s (default 10 GB/s).
    pub bandwidth: f64,
    /// Capacity in bytes (default 1 TB).
    pub capacity: u64,
    /// Per-thread NVM↔DDR copy rate in bytes/s (default 1 GB/s).
    pub per_thread_copy_bw: f64,
}

impl Default for NvmConfig {
    fn default() -> Self {
        NvmConfig {
            bandwidth: 10e9,
            capacity: 1 << 40,
            per_thread_copy_bw: 1e9,
        }
    }
}

/// One double-chunking configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DoubleChunkSpec {
    /// Total bytes resident in NVM.
    pub total_bytes: u64,
    /// Outer (NVM→DDR) chunk size in bytes.
    pub outer_chunk: u64,
    /// Inner (DDR→MCDRAM) chunk size in bytes.
    pub inner_chunk: u64,
    /// Outer copy-in pool size (copy-out equal).
    pub outer_copy_threads: usize,
    /// Inner copy-in pool size (copy-out equal).
    pub inner_copy_threads: usize,
    /// Total hardware threads.
    pub total_threads: usize,
    /// Read+write passes the kernel makes per byte (in MCDRAM).
    pub compute_passes: u32,
    /// Per-thread kernel traffic rate, bytes/s.
    pub compute_rate: f64,
}

impl DoubleChunkSpec {
    /// A representative configuration: 100 GB data set, 8 GB outer chunks,
    /// 250 MB inner chunks, 256 threads.
    pub fn example(passes: u32) -> Self {
        DoubleChunkSpec {
            total_bytes: 100_000_000_000,
            outer_chunk: 8_000_000_000,
            inner_chunk: 250_000_000,
            outer_copy_threads: 8,
            inner_copy_threads: 8,
            total_threads: 256,
            compute_passes: passes,
            compute_rate: 1.4e9,
        }
    }
}

/// Result of a double-chunking simulation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DoubleChunkReport {
    /// Virtual seconds for the full double-chunked execution.
    pub double_chunked: f64,
    /// Per-outer-chunk inner-pipeline time (the outer compute stage).
    pub inner_seconds: f64,
    /// Baseline A: *idealized* single-level chunking NVM→MCDRAM with no
    /// DDR hop. Not realizable on hardware (NVM DMA lands in DRAM first);
    /// it lower-bounds any staging scheme, so `double_chunked /
    /// single_level` measures how completely double chunking hides the
    /// mandatory middle tier.
    pub single_level: f64,
    /// Baseline B: no chunking at all; the kernel streams from NVM.
    pub unchunked: f64,
}

fn inner_spec(spec: &DoubleChunkSpec, knl: &MachineConfig) -> PipelineSpec {
    PipelineSpec {
        total_bytes: spec.outer_chunk,
        chunk_bytes: spec.inner_chunk,
        p_in: spec.inner_copy_threads,
        p_out: spec.inner_copy_threads,
        p_comp: spec
            .total_threads
            .saturating_sub(2 * spec.inner_copy_threads + 2 * spec.outer_copy_threads)
            .max(1),
        compute_passes: spec.compute_passes,
        compute_rate: spec.compute_rate,
        copy_rate: knl.per_thread_copy_bw,
        placement: Placement::Hbw,
        lockstep: true,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// Synthetic outer machine: "DDR" bus = NVM, "MCDRAM" bus = real DDR.
fn outer_machine(knl: &MachineConfig, nvm: &NvmConfig) -> MachineConfig {
    let mut m = knl.clone();
    m.mode = MemMode::Flat;
    m.ddr_bandwidth = nvm.bandwidth;
    m.ddr_capacity = nvm.capacity;
    m.mcdram_bandwidth = knl.ddr_bandwidth;
    m.mcdram_capacity = knl.ddr_capacity;
    m.per_thread_copy_bw = nvm.per_thread_copy_bw;
    m
}

/// The outer pipeline: outer chunks staged NVM -> DDR and back by the
/// outer copy pools on the synthetic [`outer_machine`] (whose "DDR" is the
/// NVM tier and whose "MCDRAM" is the real DDR). The inner pipeline is its
/// one-thread, one-pass compute stage: at `compute_rate` a full outer
/// chunk's read+write stream (2 x `outer_chunk` on the shared bus, exactly
/// the inner run's DDR traffic) lasts one inner makespan, and a ragged last
/// chunk lasts in proportion.
fn outer_spec(spec: &DoubleChunkSpec, nvm: &NvmConfig, compute_rate: f64) -> PipelineSpec {
    PipelineSpec {
        total_bytes: spec.total_bytes,
        chunk_bytes: spec.outer_chunk,
        p_in: spec.outer_copy_threads,
        p_out: spec.outer_copy_threads,
        p_comp: 1,
        compute_passes: 1,
        compute_rate,
        copy_rate: nvm.per_thread_copy_bw,
        placement: Placement::Hbw,
        lockstep: false,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// Validate and simulate a double-chunking run, with both baselines.
pub fn simulate_double_chunking(
    knl: &MachineConfig,
    nvm: &NvmConfig,
    spec: &DoubleChunkSpec,
) -> Result<DoubleChunkReport, String> {
    if spec.total_bytes == 0 || spec.outer_chunk == 0 || spec.inner_chunk == 0 {
        return Err("sizes must be positive".into());
    }
    if spec.inner_chunk > spec.outer_chunk || spec.outer_chunk > spec.total_bytes {
        return Err("need inner_chunk <= outer_chunk <= total_bytes".into());
    }
    let inner = inner_spec(spec, knl);
    if declared_bytes(&inner, Placement::Hbw) > knl.addressable_mcdram() {
        return Err("the inner buffer ring must fit MCDRAM".into());
    }
    if spec.total_bytes > nvm.capacity {
        return Err("data set exceeds NVM capacity".into());
    }

    // Every level is a pipeline spec, lowered and simulated alike.
    let run = |machine: MachineConfig, spec: &PipelineSpec| {
        let prog = sim::build_program(spec)?;
        Simulator::new(machine)
            .run(&prog)
            .map_err(|e| e.to_string())
    };

    // Step 1: inner pipeline on the real KNL.
    let inner_report = run(knl.clone(), &inner)?;
    let inner_seconds = inner_report.makespan;
    let inner_ddr_traffic = inner_report.traffic_on(MemLevel::Ddr).total();

    // Step 2: the outer pipeline, with the inner run as its compute stage
    // and that stage's traffic on the shared (real DDR) bus, so outer
    // staging and inner processing contend.
    let outer = outer_spec(
        spec,
        nvm,
        inner_ddr_traffic as f64 / inner_seconds.max(1e-12),
    );
    if declared_bytes(&outer, Placement::Hbw) > knl.ddr_capacity {
        return Err("the outer buffer ring must fit DDR".into());
    }
    let double_chunked = run(outer_machine(knl, nvm), &outer)?.makespan;

    // Baseline A: single-level chunking NVM -> MCDRAM, inner-sized chunks.
    // Same pipeline shape, but the staging bus is NVM.
    let mut single_machine = knl.clone();
    single_machine.ddr_bandwidth = nvm.bandwidth;
    single_machine.ddr_capacity = nvm.capacity;
    single_machine.per_thread_copy_bw = nvm.per_thread_copy_bw;
    let mut single = inner_spec(spec, &single_machine);
    single.total_bytes = spec.total_bytes;
    single.copy_rate = nvm.per_thread_copy_bw;
    let single_level = run(single_machine, &single)?.makespan;

    // Baseline B: unchunked — the kernel streams straight from NVM.
    let traffic = 2 * spec.total_bytes * u64::from(spec.compute_passes);
    let unchunked =
        traffic as f64 / (spec.total_threads as f64 * spec.compute_rate).min(nvm.bandwidth);

    Ok(DoubleChunkReport {
        double_chunked,
        inner_seconds,
        single_level,
        unchunked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knl() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    #[test]
    fn example_spec_is_feasible() {
        let spec = DoubleChunkSpec::example(8);
        let r = simulate_double_chunking(&knl(), &NvmConfig::default(), &spec).unwrap();
        assert!(r.double_chunked > 0.0 && r.double_chunked.is_finite());
        assert!(r.inner_seconds > 0.0);
    }

    /// The point of the extension: with a slow NVM tier, double chunking
    /// beats the unchunked stream, and stays within a few percent of the
    /// (unrealizable) direct-staging lower bound — the mandatory DDR hop
    /// is almost fully hidden.
    #[test]
    fn double_chunking_beats_unchunked_nvm_stream() {
        let spec = DoubleChunkSpec::example(8);
        let r = simulate_double_chunking(&knl(), &NvmConfig::default(), &spec).unwrap();
        assert!(
            r.double_chunked < r.unchunked,
            "double {:.2} !< unchunked {:.2}",
            r.double_chunked,
            r.unchunked
        );
        assert!(
            r.double_chunked < r.single_level * 1.10,
            "DDR hop poorly hidden: double {:.2} vs ideal {:.2}",
            r.double_chunked,
            r.single_level
        );
    }

    #[test]
    fn compute_heavy_runs_hide_the_nvm_tier_entirely() {
        // With enough passes per byte, the outer copies hide behind the
        // inner pipeline: total time approaches n_outer x inner time.
        let spec = DoubleChunkSpec::example(64);
        let r = simulate_double_chunking(&knl(), &NvmConfig::default(), &spec).unwrap();
        let n_outer = spec.total_bytes.div_ceil(spec.outer_chunk) as f64;
        let floor = n_outer * r.inner_seconds;
        assert!(
            r.double_chunked < 1.25 * floor,
            "double {:.2} vs compute floor {:.2}",
            r.double_chunked,
            floor
        );
    }

    #[test]
    fn faster_nvm_shrinks_the_gap() {
        let spec = DoubleChunkSpec::example(2);
        let slow = simulate_double_chunking(
            &knl(),
            &NvmConfig {
                bandwidth: 5e9,
                ..NvmConfig::default()
            },
            &spec,
        )
        .unwrap();
        let fast = simulate_double_chunking(
            &knl(),
            &NvmConfig {
                bandwidth: 40e9,
                ..NvmConfig::default()
            },
            &spec,
        )
        .unwrap();
        assert!(fast.double_chunked < slow.double_chunked);
    }

    /// A ragged last outer chunk computes for its share of an inner run:
    /// 100 GB in 8 GB chunks ends with a 4 GB chunk, so against 104 GB
    /// (thirteen full chunks) the compute-bound run saves half an inner run
    /// of compute and half a chunk of copy-out.
    #[test]
    fn ragged_last_outer_chunk_is_charged_in_proportion() {
        let nvm = NvmConfig::default();
        let run = |total_bytes: u64| {
            let spec = DoubleChunkSpec {
                total_bytes,
                ..DoubleChunkSpec::example(64)
            };
            simulate_double_chunking(&knl(), &nvm, &spec).unwrap()
        };
        let (ragged, full) = (run(100_000_000_000), run(104_000_000_000));
        assert_eq!(ragged.inner_seconds, full.inner_seconds);
        let copy_out_rate = (8.0 * nvm.per_thread_copy_bw).min(nvm.bandwidth);
        let saved = 0.5 * full.inner_seconds + 4e9 / copy_out_rate;
        let got = full.double_chunked - ragged.double_chunked;
        assert!(
            (got - saved).abs() < 1e-9 * full.double_chunked,
            "saved {got} s, expected {saved} s"
        );
    }

    /// The outer pipeline is a plan like every other: its schedule proves
    /// clean with the real DDR as the buffer tier's budget, and a ring of
    /// 40 GB outer chunks (3 x 40 GB > 96 GiB) is refused both by the
    /// proof and by the simulation.
    #[test]
    fn outer_spec_proves_clean_against_ddr() {
        let (knl, nvm) = (knl(), NvmConfig::default());
        let prove = |spec: &DoubleChunkSpec| {
            let outer = outer_spec(spec, &nvm, 1e9);
            mlm_exec::graph::verify_spec(&outer, Some(knl.ddr_capacity)).unwrap()
        };
        let mut spec = DoubleChunkSpec::example(8);
        assert!(prove(&spec).findings.is_empty(), "{}", prove(&spec));
        spec.outer_chunk = 40_000_000_000;
        assert_eq!(prove(&spec).codes(), ["G003"], "{}", prove(&spec));
        assert!(simulate_double_chunking(&knl, &nvm, &spec).is_err());
        // 100 GB in two 50 GB chunks: two buffers, 100 GB of 96 GiB.
        spec.outer_chunk = 50_000_000_000;
        assert!(prove(&spec).findings.is_empty(), "{}", prove(&spec));
    }

    #[test]
    fn infeasible_specs_are_rejected() {
        let nvm = NvmConfig::default();
        let mut s = DoubleChunkSpec::example(1);
        s.inner_chunk = s.outer_chunk + 1;
        assert!(simulate_double_chunking(&knl(), &nvm, &s).is_err());

        let mut s = DoubleChunkSpec::example(1);
        s.inner_chunk = 8_000_000_000; // one 8 GB chunk: one buffer
        assert_eq!(
            declared_bytes(&inner_spec(&s, &knl()), Placement::Hbw),
            s.inner_chunk
        );
        s.outer_chunk = 24_000_000_000; // 3 x 8 GB > MCDRAM
        assert!(simulate_double_chunking(&knl(), &nvm, &s).is_err());

        let mut s = DoubleChunkSpec::example(1);
        s.outer_chunk = 40_000_000_000; // 3 x 40 GB > 96 GiB DDR
        s.inner_chunk = 250_000_000;
        assert!(simulate_double_chunking(&knl(), &nvm, &s).is_err());

        let mut s = DoubleChunkSpec::example(1);
        s.total_bytes = 2 << 40;
        assert!(simulate_double_chunking(&knl(), &nvm, &s).is_err());
    }
}
