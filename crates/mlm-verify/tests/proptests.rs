//! Property tests tying the linter to the runtimes it guards.
//!
//! The contract the lint registry sells is a dichotomy: a spec that lints
//! clean of errors must survive every backend (host pipeline, simulator
//! lowering, simulator execution) without panicking, and a spec any
//! backend rejects must carry at least one error-level diagnostic. These
//! tests drive randomly generated specs — valid and invalid alike —
//! through both sides of that contract, plus randomized geometries
//! through the exhaustive condvar ring checker.

use std::panic::{catch_unwind, AssertUnwindSafe};

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::Simulator;
use mlm_core::pipeline::host::run_host_pipeline;
use mlm_core::pipeline::{sim::build_program, PipelineSpec, Placement, Workload};
use mlm_verify::check::{check, CheckOptions};
use mlm_verify::lint::{lint_target, VerifyTarget};
use mlm_verify::models::condvar::CondvarModel;
use mlm_verify::models::psrs::PsrsModel;
use parsort::WorkPool;
use proptest::prelude::*;

/// Specs both sensible and broken: chunk sizes include misaligned and
/// oversized values, pools range past the tiny machine's 4 threads, and
/// rates include zero. The dichotomy property must hold for all of them.
fn arb_spec() -> impl Strategy<Value = PipelineSpec> {
    (
        1u64..33, // total KiB
        prop_oneof![
            (1u64..17).prop_map(|k| k << 10).boxed(), // aligned KiB chunks
            (1u64..8193).boxed(),                     // raw byte sizes, often misaligned
        ],
        1usize..4, // p_in
        1usize..4, // p_out
        1usize..4, // p_comp
        1u32..4,   // passes
        prop_oneof![
            Just(1.0e9f64).boxed(),
            Just(0.0f64).boxed(), // V000/V006 territory
        ],
        any::<bool>(), // lockstep
    )
        .prop_map(
            |(total, chunk, p_in, p_out, p_comp, passes, copy_rate, lockstep)| PipelineSpec {
                total_bytes: total << 10,
                chunk_bytes: chunk,
                p_in,
                p_out,
                p_comp,
                compute_passes: passes,
                compute_rate: 1.5e9,
                copy_rate,
                placement: Placement::Hbw,
                lockstep,
                data_addr: 0,
                workload: Workload::Map,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lint-clean specs never panic: not in the host pipeline, not in
    /// simulator lowering, not in simulator execution.
    #[test]
    fn lint_clean_specs_run_everywhere(spec in arb_spec()) {
        let machine = MachineConfig::tiny(MemMode::Flat);
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        prop_assume!(!report.has_errors());

        // Simulator side.
        let prog = build_program(&spec);
        prop_assert!(prog.is_ok(), "lint-clean spec failed to lower: {:?}", prog.err());
        let run = Simulator::new(machine).run_checked(&prog.unwrap());
        prop_assert!(run.is_ok(), "lint-clean spec failed to simulate: {:?}", run.err());

        // Host side: same spec, element counts from the data length.
        let n = (spec.total_bytes / 8) as usize;
        let data: Vec<u64> = (0..n as u64).collect();
        let mut out = vec![0u64; n];
        let pool = WorkPool::new(spec.threads().min(4));
        let result = catch_unwind(AssertUnwindSafe(|| {
            run_host_pipeline(&pool, &spec, &data, &mut out, |slice, _ctx| {
                for x in slice {
                    *x = x.wrapping_add(1);
                }
            })
        }));
        prop_assert!(result.is_ok(), "lint-clean spec panicked in the host pipeline");
        prop_assert!(out.iter().zip(&data).all(|(o, d)| *o == d.wrapping_add(1)));
    }

    /// Any spec a backend rejects carries at least one error-level
    /// diagnostic — the linter has no blind spots the runtimes can see.
    #[test]
    fn runtime_rejections_are_always_linted(spec in arb_spec()) {
        let machine = MachineConfig::tiny(MemMode::Flat);

        let lowered = build_program(&spec);
        let host_panicked = {
            let n = (spec.total_bytes / 8) as usize;
            let data: Vec<u64> = vec![0; n];
            let mut out = vec![0u64; n];
            let pool = WorkPool::new(spec.threads().min(4));
            catch_unwind(AssertUnwindSafe(|| {
                run_host_pipeline(&pool, &spec, &data, &mut out, |_s, _c| {});
            }))
            .is_err()
        };

        if lowered.is_err() || host_panicked {
            let report = lint_target(&VerifyTarget::new(&spec, &machine));
            prop_assert!(
                report.has_errors(),
                "backends rejected (lowered: {:?}, host panic: {host_panicked}) \
                 but the linter saw nothing:\n{report}",
                lowered.err(),
            );
        }
    }

}

// Exhaustive model checks are expensive per case (each one explores a full
// state space), so they get a much smaller case budget than the spec
// dichotomy tests above.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The ring protocol (at condvar granularity) is deadlock-free and
    /// keeps exclusive slot ownership for every small geometry, not just
    /// the shipped 3-slot one; 1 and 2 slots serialize the pipeline but
    /// never deadlock.
    #[test]
    fn ring_protocol_verifies_for_all_small_geometries(
        slots in 1usize..5,
        chunks in 0u8..6,
    ) {
        let model = CondvarModel::correct(slots, chunks);
        let report = check(&model, CheckOptions::default());
        prop_assert!(report.ok(), "{report}\n{}", report.render_trace());
    }

    /// The deferring PSRS protocol verifies for every small cluster
    /// (4-node exhaustion lives in the crate's unit tests; it is too slow
    /// to repeat per proptest case).
    #[test]
    fn psrs_defer_verifies_for_small_clusters(nodes in 2u8..4) {
        let report = check(&PsrsModel::shipped(nodes), CheckOptions::default());
        prop_assert!(report.ok(), "nodes={nodes}: {report}");
    }
}
