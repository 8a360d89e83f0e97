//! Fault-injection hooks exercised against the *real* host pipeline.
//!
//! `mlm_exec::graph::analyze` proves statically that a kernel panic on
//! any chunk drains cleanly; `mlm_core::pipeline::fault` (behind the
//! `fuzz` feature, which this test crate enables) arms that fault in the
//! real host backends, so the drain runs on real threads.
//! This file lives in its own integration-test binary because the hook is
//! process-global: Rust runs each tests/*.rs file as a separate process,
//! and the tests here serialize around the armed state themselves.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Mutex;

use mlm_core::pipeline::fault::{arm_compute_panic, disarm};
use mlm_core::pipeline::host::{
    run_host_pipeline, run_host_pipeline_dataflow, run_host_stencil, HostStagePools, KernelCtx,
    StencilView,
};
use mlm_core::pipeline::{PipelineSpec, Placement, Workload};
use parsort::pool::WorkPool;

/// The hook is a process-global; tests touching it must not interleave.
static ARM_LOCK: Mutex<()> = Mutex::new(());

fn spec(placement: Placement, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        total_bytes: 8 * 600,
        chunk_bytes: 8 * 100,
        p_in: 2,
        p_out: 2,
        p_comp: 3,
        compute_passes: 1,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    }
}

fn negate(slice: &mut [i64], _ctx: KernelCtx) {
    slice.iter_mut().for_each(|x| *x = -*x);
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("<non-string payload>")
}

/// An armed chunk panics inside the dataflow compute stage, the ring's
/// poison machinery propagates it, and the run aborts with the injected
/// message rather than hanging or corrupting.
#[test]
fn armed_panic_poisons_the_dataflow_ring() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pools = HostStagePools::new(2, 3, 2);
    let s = spec(Placement::Hbw, false);
    let data: Vec<i64> = (0..600).collect();
    let mut out = vec![0i64; 600];

    arm_compute_panic(3);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate)
    }));
    disarm();

    let payload = result.expect_err("armed kernel panic must propagate");
    let msg = panic_message(&*payload);
    assert_eq!(msg, "fuzz fault injection: kernel panic on chunk 3");
}

/// The same fault through the lockstep path: the step batch propagates
/// the panic out of the shared pool's scoped join.
#[test]
fn armed_panic_propagates_through_lockstep() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pool = WorkPool::new(4);
    let s = spec(Placement::Hbw, true);
    let data: Vec<i64> = (0..600).collect();
    let mut out = vec![0i64; 600];

    arm_compute_panic(1);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline(&pool, &s, &data, &mut out, negate)
    }));
    disarm();

    let payload = result.expect_err("armed kernel panic must propagate");
    assert!(
        panic_message(&*payload).contains("fuzz fault injection"),
        "unexpected payload"
    );
}

/// Disarming restores full correctness: the very pools/pipeline that just
/// absorbed a poison produce bit-correct output on the next run.
#[test]
fn disarmed_pipeline_recovers_cleanly() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pools = HostStagePools::new(2, 3, 2);
    let s = spec(Placement::Hbw, false);
    let data: Vec<i64> = (0..600).collect();

    let mut out = vec![0i64; 600];
    arm_compute_panic(2);
    let poisoned = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline_dataflow(&pools, &s, &data, &mut out, negate)
    }));
    disarm();
    assert!(poisoned.is_err());

    let mut out2 = vec![0i64; 600];
    run_host_pipeline_dataflow(&pools, &s, &data, &mut out2, negate);
    let want: Vec<i64> = data.iter().map(|x| -x).collect();
    assert_eq!(out2, want, "pipeline must be fully usable after a poison");
}

/// The one host backend drains its actions five ways (implicit and
/// lockstep step batches, the dataflow ring replay, and the stencil's
/// lockstep and issue-order drains). Through every one of them the armed
/// chunk's panic message reaches the caller, and the next run on the same
/// pools is clean and bit-correct.
#[test]
fn armed_panic_reaches_the_caller_under_every_schedule_shape() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pool = WorkPool::new(4);
    let pools = HostStagePools::new(2, 3, 2);
    let data: Vec<i64> = (0..600).collect();
    let stencil = |lockstep| PipelineSpec {
        workload: Workload::Stencil { halo_bytes: 8 * 4 },
        ..spec(Placement::Hbw, lockstep)
    };
    // A stencil kernel that ignores its halos: out = -mid, like `negate`.
    let negate_view = |view: StencilView<'_, i64>, out: &mut [i64], ctx: KernelCtx| {
        let l0 = ctx.global_offset - ctx.chunk * 100;
        for (i, o) in out.iter_mut().enumerate() {
            *o = -view.mid[l0 + i];
        }
    };
    type Run<'a> = Box<dyn Fn(&mut [i64]) + 'a>;
    let shapes: [(&str, Run<'_>); 5] = [
        (
            "implicit",
            Box::new(|out| {
                let s = PipelineSpec {
                    p_in: 0,
                    p_out: 0,
                    ..spec(Placement::Implicit, true)
                };
                run_host_pipeline(&pool, &s, &data, out, negate);
            }),
        ),
        (
            "lockstep",
            Box::new(|out| {
                run_host_pipeline(&pool, &spec(Placement::Hbw, true), &data, out, negate);
            }),
        ),
        (
            "dataflow",
            Box::new(|out| {
                let s = spec(Placement::Hbw, false);
                run_host_pipeline_dataflow(&pools, &s, &data, out, negate);
            }),
        ),
        (
            "stencil-lockstep",
            Box::new(|out| {
                run_host_stencil(&pool, &stencil(true), &data, out, negate_view);
            }),
        ),
        (
            "stencil-dataflow",
            Box::new(|out| {
                run_host_stencil(&pool, &stencil(false), &data, out, negate_view);
            }),
        ),
    ];
    let want: Vec<i64> = data.iter().map(|x| -x).collect();
    for (name, run) in &shapes {
        for chunk in [0usize, 3, 5] {
            let mut out = vec![0i64; 600];
            arm_compute_panic(chunk);
            let result = catch_unwind(AssertUnwindSafe(|| run(&mut out)));
            disarm();
            let payload = result.expect_err("armed kernel panic must propagate");
            assert_eq!(
                panic_message(&*payload),
                format!("fuzz fault injection: kernel panic on chunk {chunk}"),
                "{name}, chunk {chunk}"
            );

            let mut out = vec![0i64; 600];
            run(&mut out);
            assert_eq!(out, want, "{name}: the run after chunk {chunk}'s panic");
        }
    }
}

/// A chunk index that never runs (beyond the schedule) leaves every mode
/// untouched — the probe is a true no-op unless its chunk executes.
#[test]
fn armed_out_of_range_chunk_is_inert() {
    let _guard = ARM_LOCK.lock().unwrap();
    let pool = WorkPool::new(4);
    let s = spec(Placement::Hbw, true);
    let data: Vec<i64> = (0..600).collect();
    let mut out = vec![0i64; 600];

    arm_compute_panic(999);
    let result = catch_unwind(AssertUnwindSafe(|| {
        run_host_pipeline(&pool, &s, &data, &mut out, negate)
    }));
    disarm();
    assert!(result.is_ok());
    let want: Vec<i64> = data.iter().map(|x| -x).collect();
    assert_eq!(out, want);
}
