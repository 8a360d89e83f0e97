//! The streaming merge benchmark (paper §5).
//!
//! Generic chunked pipeline + a compute stage that performs `repeats`
//! two-way merges over each thread's slice of the chunk: data moves through
//! MCDRAM exactly once while the compute work scales with `repeats`,
//! letting the copy-thread/compute-thread tradeoff be swept cleanly.
//!
//! The host kernel ([`merge_kernel`]) exercises the real data path; the sim
//! builder ([`merge_bench_program`]) reproduces Figure 8(b); the closed
//! form in [`crate::model`] reproduces Figure 8(a); together they
//! regenerate Table 3.
//!
//! This module owns no orchestration of its own: it supplies a
//! [`PipelineSpec`] and a compute kernel, and both executions ride the
//! unified `mlm_exec` chunk schedule — the host through
//! [`crate::pipeline::host::run_host_pipeline`], the sim through
//! [`sim::build_program`] — so the benchmark is automatically
//! output-identical across backends.

use knl_sim::machine::MachineConfig;
use knl_sim::ops::Program;
use serde::{Deserialize, Serialize};

use crate::calibration::Calibration;
use crate::pipeline::{sim, PipelineSpec, Placement, Workload};

/// Parameters of one merge-benchmark configuration.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MergeBenchParams {
    /// Total data size in bytes (the paper's `B_copy` = 14.9 GB).
    pub total_bytes: u64,
    /// Chunk/buffer size in bytes (the buffer ring must fit MCDRAM).
    pub chunk_bytes: u64,
    /// Copy-in pool size (copy-out is equal, per the paper's model).
    pub copy_threads: usize,
    /// Total hardware threads to split across the three pools (paper: 256).
    pub total_threads: usize,
    /// Number of merge repetitions per chunk (the compute knob).
    pub repeats: u32,
}

impl MergeBenchParams {
    /// The paper's configuration: 14.9 GB of data, 256 threads, 250 MB
    /// chunks (three buffers comfortably inside the 16 GiB MCDRAM, and
    /// enough steps — ~60 — that pipeline fill/drain does not dominate;
    /// the paper does not state its chunk size, see EXPERIMENTS.md).
    pub fn paper(copy_threads: usize, repeats: u32) -> Self {
        MergeBenchParams {
            total_bytes: 14_900_000_000,
            chunk_bytes: 250_000_000,
            copy_threads,
            total_threads: 256,
            repeats,
        }
    }

    /// Compute-pool size after the two copy pools take their share.
    pub fn compute_threads(&self) -> usize {
        self.total_threads.saturating_sub(2 * self.copy_threads)
    }

    /// Lower the configuration to a pipeline spec for `machine`, taking
    /// the SMT-degraded per-thread kernel rate from `cal` (see
    /// [`Calibration::s_merge_bench`]).
    pub fn to_spec(
        &self,
        machine: &MachineConfig,
        cal: &Calibration,
    ) -> Result<PipelineSpec, String> {
        if self.compute_threads() == 0 {
            return Err(format!(
                "{} copy threads x2 leave no compute threads of {}",
                self.copy_threads, self.total_threads
            ));
        }
        let spec = PipelineSpec {
            total_bytes: self.total_bytes,
            chunk_bytes: self.chunk_bytes,
            p_in: self.copy_threads,
            p_out: self.copy_threads,
            p_comp: self.compute_threads(),
            compute_passes: self.repeats,
            compute_rate: cal.s_merge_bench,
            copy_rate: machine.per_thread_copy_bw,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        };
        if spec.buffer_footprint() > machine.addressable_mcdram() {
            return Err("the buffer ring must fit the addressable MCDRAM".into());
        }
        Ok(spec)
    }
}

/// Build the simulated program for one merge-benchmark configuration.
pub fn merge_bench_program(
    machine: &MachineConfig,
    cal: &Calibration,
    params: &MergeBenchParams,
) -> Result<Program, String> {
    sim::build_program(&params.to_spec(machine, cal)?)
}

/// Simulate one configuration and return virtual seconds.
pub fn simulate_merge_bench(
    machine: &MachineConfig,
    cal: &Calibration,
    params: &MergeBenchParams,
) -> Result<f64, String> {
    let prog = merge_bench_program(machine, cal, params)?;
    let report = knl_sim::Simulator::new(machine.clone())
        .run(&prog)
        .map_err(|e| e.to_string())?;
    Ok(report.makespan)
}

/// Sweep `candidates` copy-thread counts and return `(best, seconds)` —
/// the empirical analogue of the model's
/// [`crate::model::ModelParams::optimal_copy_threads`].
pub fn empirical_optimal_copy_threads(
    machine: &MachineConfig,
    cal: &Calibration,
    base: &MergeBenchParams,
    candidates: &[usize],
) -> Result<(usize, f64), String> {
    let mut best: Option<(usize, f64)> = None;
    for &c in candidates {
        let params = MergeBenchParams {
            copy_threads: c,
            ..*base
        };
        if params.compute_threads() == 0 {
            continue;
        }
        let t = simulate_merge_bench(machine, cal, &params)?;
        // Epsilon tie-break toward fewer copy threads, as in the model.
        if best.is_none_or(|(_, bt)| t < bt * (1.0 - 1e-9)) {
            best = Some((c, t));
        }
    }
    best.ok_or_else(|| "no feasible candidate".into())
}

/// The host-side merge kernel: `repeats` times, split the slice in half and
/// two-way merge the halves (through a scratch buffer) back into the slice.
///
/// Matches the paper's description ("each thread chops its portion in half
/// and performs a merge on each of the two halves") and preserves the
/// slice's multiset of values, which the tests verify.
pub fn merge_kernel<T: Ord + Copy>(slice: &mut [T], repeats: u32) {
    if slice.len() < 2 {
        return;
    }
    let mid = slice.len() / 2;
    let mut scratch = slice.to_vec();
    for _ in 0..repeats {
        // Two-pointer merge of the halves by their existing order.
        let (a, b) = slice.split_at(mid);
        let (mut i, mut j) = (0, 0);
        for slot in scratch.iter_mut() {
            if i < a.len() && (j >= b.len() || a[i] <= b[j]) {
                *slot = a[i];
                i += 1;
            } else {
                *slot = b[j];
                j += 1;
            }
        }
        slice.copy_from_slice(&scratch);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;

    fn knl() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn cal() -> Calibration {
        Calibration::default()
    }

    #[test]
    fn paper_params_fit_mcdram() {
        let p = MergeBenchParams::paper(8, 1);
        assert_eq!(p.compute_threads(), 240);
        p.to_spec(&knl(), &cal()).unwrap();
    }

    #[test]
    fn infeasible_splits_are_rejected() {
        let p = MergeBenchParams::paper(128, 1);
        assert_eq!(p.compute_threads(), 0);
        assert!(p.to_spec(&knl(), &cal()).is_err());

        let mut p = MergeBenchParams::paper(8, 1);
        p.chunk_bytes = 8 * knl_sim::GIB;
        assert!(
            p.to_spec(&knl(), &cal()).is_err(),
            "3 x 8 GiB > 16 GiB MCDRAM"
        );
    }

    /// The Table 3 program's size, counted: each lockstep step hands one
    /// 256-id list to its 256 ops and one to its barrier, and each list is
    /// stored once. Copying it per op would store 7,862,272 ids.
    #[test]
    fn table3_program_stores_each_step_list_once() {
        let prog = merge_bench_program(&knl(), &cal(), &MergeBenchParams::paper(8, 8)).unwrap();
        assert_eq!(prog.ops().len(), 31_232);
        // 62 steps: a barrier list each, and a step list for all but the
        // first (whose ops wait on nothing; the empty list is not stored).
        assert_eq!(prog.dep_lists(), 62 + 61);
        assert_eq!(prog.dep_ids(), 30_976);
        let (_, stats) = knl_sim::Simulator::new(knl()).run_stats(&prog).unwrap();
        assert_eq!(stats.join_groups, 123);
    }

    #[test]
    fn more_repeats_take_longer() {
        let m = knl();
        let c = cal();
        let t1 = simulate_merge_bench(&m, &c, &MergeBenchParams::paper(8, 1)).unwrap();
        let t8 = simulate_merge_bench(&m, &c, &MergeBenchParams::paper(8, 8)).unwrap();
        let t64 = simulate_merge_bench(&m, &c, &MergeBenchParams::paper(8, 64)).unwrap();
        assert!(t1 < t8 && t8 < t64, "{t1} {t8} {t64}");
    }

    /// The paper's central claim (§5): as the compute workload grows, the
    /// optimal number of copy threads falls.
    #[test]
    fn optimal_copy_threads_decrease_with_repeats() {
        let m = knl();
        let c = cal();
        let candidates = [1usize, 2, 4, 8, 16, 32];
        let base = MergeBenchParams::paper(1, 1);
        let mut prev = usize::MAX;
        for repeats in [1u32, 4, 16, 64] {
            let b = MergeBenchParams { repeats, ..base };
            let (best, t) = empirical_optimal_copy_threads(&m, &c, &b, &candidates).unwrap();
            assert!(t > 0.0);
            assert!(best <= prev, "repeats={repeats}: {best} > {prev}");
            prev = best;
        }
        // Asymptotes match the paper's Table 3 empirical column.
        let b1 = MergeBenchParams { repeats: 1, ..base };
        let (best1, _) = empirical_optimal_copy_threads(&m, &c, &b1, &candidates).unwrap();
        assert!(
            best1 >= 8,
            "heavy-copy regime wants many copy threads, got {best1}"
        );
        let b64 = MergeBenchParams {
            repeats: 64,
            ..base
        };
        let (best64, _) = empirical_optimal_copy_threads(&m, &c, &b64, &candidates).unwrap();
        assert!(
            best64 <= 2,
            "compute-heavy regime wants few copy threads, got {best64}"
        );
    }

    #[test]
    fn merge_kernel_preserves_multiset() {
        let mut v: Vec<i64> = (0..1001).rev().collect();
        let mut expect = v.clone();
        expect.sort_unstable();
        merge_kernel(&mut v, 3);
        let mut got = v.clone();
        got.sort_unstable();
        assert_eq!(got, expect);
    }

    #[test]
    fn merge_kernel_merges_sorted_halves() {
        // If both halves are sorted, one repeat yields a fully sorted slice.
        let mut v = vec![1i64, 3, 5, 7, 0, 2, 4, 6];
        merge_kernel(&mut v, 1);
        assert_eq!(v, [0, 1, 2, 3, 4, 5, 6, 7]);
    }

    #[test]
    fn merge_kernel_handles_tiny_slices() {
        let mut v: Vec<i64> = vec![];
        merge_kernel(&mut v, 5);
        let mut v = vec![9i64];
        merge_kernel(&mut v, 5);
        assert_eq!(v, [9]);
        let mut v = vec![2i64, 1];
        merge_kernel(&mut v, 1);
        assert_eq!(v, [1, 2]);
    }

    #[test]
    fn zero_repeats_is_identity() {
        let mut v = vec![3i64, 1, 2];
        merge_kernel(&mut v, 0);
        assert_eq!(v, [3, 1, 2]);
    }
}
