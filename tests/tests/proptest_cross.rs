//! Cross-crate property tests: the full MLM-sort stack equals std sort on
//! arbitrary inputs; pipelines preserve data; the model and simulator obey
//! their invariants for arbitrary parameters.

use mlm_core::merge_bench::merge_kernel;
use mlm_core::model::ModelParams;
use mlm_core::pipeline::host::{
    run_host_pipeline, run_host_pipeline_dataflow, HostStagePools, KernelCtx,
};
use mlm_core::pipeline::{PipelineSpec, Placement, Workload};
use mlm_core::sort::host::mlm_sort;
use parsort::pool::WorkPool;
use proptest::prelude::*;

/// A kernel whose output depends on the global element position: any
/// disagreement between the two schedules' chunk geometry or offsets shows
/// up as a value mismatch, not just a permutation.
fn mix_kernel(slice: &mut [i64], ctx: KernelCtx) {
    for (i, v) in slice.iter_mut().enumerate() {
        *v = v
            .wrapping_mul(31)
            .wrapping_add((ctx.global_offset + i) as i64);
    }
}

/// The full-buffer merge `merge_kernel` must equal bit for bit: each
/// repeat merges the halves into a whole-slice clone and copies it back.
fn full_buffer_merge<T: Ord + Copy>(slice: &mut [T], repeats: u32) {
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

fn host_spec(n_elems: usize, chunk_elems: usize, p: (usize, usize, usize)) -> PipelineSpec {
    PipelineSpec {
        total_bytes: (n_elems * 8) as u64,
        chunk_bytes: (chunk_elems * 8) as u64,
        p_in: p.0,
        p_out: p.1,
        p_comp: p.2,
        compute_passes: 1,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement: Placement::Hbw,
        lockstep: true,
        data_addr: 0,
        workload: Workload::Map,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn mlm_sort_equals_std_sort(
        mut data in proptest::collection::vec(any::<i64>(), 0..5000),
        mega in 1usize..2000,
        explicit in any::<bool>(),
        threads in 1usize..6,
    ) {
        let pool = WorkPool::new(threads);
        let mut expect = data.clone();
        expect.sort_unstable();
        mlm_sort(&pool, &mut data, mega, explicit);
        prop_assert_eq!(data, expect);
    }

    #[test]
    fn merge_kernel_preserves_multiset(
        data in proptest::collection::vec(any::<i32>(), 0..2000),
        repeats in 0u32..6,
        distinct in prop_oneof![Just(i32::MAX), 1i32..5],
    ) {
        // A small `distinct` makes ties common, so their order is checked.
        let data: Vec<i32> = data.iter().map(|x| x % distinct).collect();
        let mut v: Vec<i32> = data.clone();
        merge_kernel(&mut v, repeats);
        let mut want = data.clone();
        full_buffer_merge(&mut want, repeats);
        prop_assert_eq!(&v, &want);
        let mut a = data;
        let mut b = v;
        a.sort_unstable();
        b.sort_unstable();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn pipeline_identity_kernel_is_a_copy(
        data in proptest::collection::vec(any::<i64>(), 1..4000),
        chunk_elems in 1usize..1500,
        p_in in 1usize..4,
        p_out in 1usize..4,
        p_comp in 1usize..4,
    ) {
        let pool = WorkPool::new(4);
        let spec = PipelineSpec {
            total_bytes: (data.len() * 8) as u64,
            chunk_bytes: (chunk_elems * 8) as u64,
            p_in,
            p_out,
            p_comp,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        };
        let mut out = vec![0i64; data.len()];
        run_host_pipeline(&pool, &spec, &data, &mut out, |_s, _c| {});
        prop_assert_eq!(out, data);
    }

    #[test]
    fn model_times_are_positive_and_monotone_in_passes(
        copy_threads in 1usize..100,
        passes in 1u32..100,
    ) {
        let m = ModelParams::paper_table2();
        if let Some(t1) = m.t_total(copy_threads, passes) {
            prop_assert!(t1 > 0.0 && t1.is_finite());
            if let Some(t2) = m.t_total(copy_threads, passes + 1) {
                prop_assert!(t2 >= t1, "more passes cannot be faster");
            }
        }
    }

    #[test]
    fn model_copy_time_monotone_in_threads(p in 1usize..126) {
        let m = ModelParams::paper_table2();
        let t1 = m.t_copy(p, p);
        let t2 = m.t_copy(p + 1, p + 1);
        prop_assert!(t2 <= t1 * (1.0 + 1e-12), "more copy threads cannot slow copying");
    }

    #[test]
    fn optimal_copy_threads_monotone_in_passes(passes in 1u32..64) {
        let m = ModelParams::paper_table2();
        let (a, _) = m.optimal_copy_threads(passes);
        let (b, _) = m.optimal_copy_threads(passes * 2);
        prop_assert!(b <= a, "doubling compute cannot raise the copy-thread optimum");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn dataflow_host_matches_lockstep_bit_for_bit(
        data in proptest::collection::vec(any::<i64>(), 1..4000),
        chunk_elems in 1usize..1500,
        p_in in 1usize..4,
        p_out in 1usize..4,
        p_comp in 1usize..4,
        threads in 1usize..6,
    ) {
        let pool = WorkPool::new(threads);
        let spec = host_spec(data.len(), chunk_elems, (p_in, p_out, p_comp));

        let mut out_lock = vec![0i64; data.len()];
        run_host_pipeline(&pool, &spec, &data, &mut out_lock, mix_kernel);

        let mut spec_flow = spec.clone();
        spec_flow.lockstep = false;
        let mut out_flow = vec![0i64; data.len()];
        run_host_pipeline(&pool, &spec_flow, &data, &mut out_flow, mix_kernel);

        prop_assert_eq!(out_lock, out_flow);
    }

    #[test]
    fn dataflow_survives_tiny_chunks_and_oversubscribed_pools(
        data in proptest::collection::vec(any::<i64>(), 1..500),
        chunk_elems in 1usize..4,
        p_in in 1usize..9,
        p_out in 1usize..9,
        p_comp in 1usize..9,
    ) {
        // Chunks of 1-3 elements cycle hundreds of times through the
        // 3-slot ring while every stage pool is oversubscribed relative
        // to the work — the regime where ring-protocol races would bite.
        let pools = HostStagePools::new(p_in, p_comp, p_out);
        let mut spec = host_spec(data.len(), chunk_elems, (p_in, p_out, p_comp));
        spec.lockstep = false;
        let mut out = vec![0i64; data.len()];
        let stats = run_host_pipeline_dataflow(&pools, &spec, &data, &mut out, mix_kernel);
        prop_assert_eq!(stats.chunks, data.len().div_ceil(chunk_elems));

        let mut expect = data;
        for (i, v) in expect.iter_mut().enumerate() {
            *v = v.wrapping_mul(31).wrapping_add(i as i64);
        }
        prop_assert_eq!(out, expect);
    }
}
