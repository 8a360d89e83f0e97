//! Cross-backend execution equivalence for the unified `mlm-exec` layer.
//!
//! Property under test: the orchestrator in [`mlm_exec::drive_verified`] owns the
//! chunk schedule, and every backend — host thread pools, the op-level
//! simulator, the recorder — merely interprets it. Concretely:
//!
//! 1. Lockstep and dataflow host runs of the same spec produce
//!    bit-identical output (the schedule changes overlap, never results).
//! 2. A [`RecordingBackend`] trace of the drive walk is identical whether
//!    it wraps the null backend or the sim lowering of the same
//!    [`PipelineSpec`] — i.e. the sim executes exactly the schedule the
//!    host adapters interpret. The same holds for every sort variant:
//!    [`interpret`] drives its plan identically over the null, host-sort
//!    and sim-sort backends.
//! 3. Under lockstep, chunks complete (copy-out) in order 0, 1, 2, …

use proptest::prelude::*;

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_core::calibration::Calibration;
use mlm_core::pipeline::host::{run_host_pipeline, run_host_stencil, StencilView};
use mlm_core::pipeline::sim::SimBackend;
use mlm_core::sort::host::HostSortBackend;
use mlm_core::sort::sim::SimSortBackend;
use mlm_core::sort::SortAlgorithm;
use mlm_core::workload::{InputOrder, SortWorkload};
use mlm_exec::{
    drive_verified, interpret, plan_pipeline, plan_sort, Backend, Event, NullBackend, PipelineSpec,
    Placement, PlanKind, RecordingBackend, Stage, Workload, WorkloadPlan, RING_SLOTS,
};
use parsort::pool::WorkPool;

const ELEM: usize = std::mem::size_of::<i64>();

/// A host-executable spec over `total_elems` i64 elements. Rates and
/// `data_addr` are sim-only fields; the host ignores them.
fn spec_for(
    total_elems: usize,
    chunk_elems: usize,
    p_in: usize,
    p_out: usize,
    p_comp: usize,
    lockstep: bool,
) -> PipelineSpec {
    PipelineSpec {
        total_bytes: (total_elems * ELEM) as u64,
        chunk_bytes: (chunk_elems * ELEM) as u64,
        p_in,
        p_out,
        p_comp,
        compute_passes: 1,
        compute_rate: 2e9,
        copy_rate: 1e9,
        placement: Placement::Hbw,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// The kernel used everywhere below: a pure function of element value and
/// *global* position, so the correct output is independent of how the
/// pipeline slices chunks across threads.
fn kernel(slice: &mut [i64], ctx: mlm_core::pipeline::host::KernelCtx) {
    for (i, v) in slice.iter_mut().enumerate() {
        *v = v
            .wrapping_mul(31)
            .wrapping_add((ctx.global_offset + i) as i64);
    }
}

/// What the pipeline must compute, derived element-by-element.
fn reference(data: &[i64]) -> Vec<i64> {
    data.iter()
        .enumerate()
        .map(|(i, v)| v.wrapping_mul(31).wrapping_add(i as i64))
        .collect()
}

/// The stencil analogue of [`kernel`]: a 3-point stencil at halo
/// distance `h` with zero boundary, expressed against the staged
/// [`StencilView`] — so a stale or missing halo changes the output.
fn stencil_kernel(
    chunk_elems: usize,
    h: usize,
) -> impl Fn(StencilView<'_, i64>, &mut [i64], mlm_core::pipeline::host::KernelCtx) {
    move |view, out, ctx| {
        let l0 = ctx.global_offset - ctx.chunk * chunk_elems;
        for (i, o) in out.iter_mut().enumerate() {
            let l = l0 + i;
            let left = if l >= h {
                view.mid[l - h]
            } else if view.left.is_empty() {
                0
            } else {
                view.left[l]
            };
            let j = l + h;
            let right = if j < view.mid.len() {
                view.mid[j]
            } else {
                view.right.get(j - view.mid.len()).copied().unwrap_or(0)
            };
            *o = view.mid[l]
                .wrapping_mul(31)
                .wrapping_sub(left)
                .wrapping_add(right.wrapping_mul(7));
        }
    }
}

/// What the stencil pipeline must compute, derived element-by-element
/// from the flat grid (no chunking involved).
fn stencil_reference(data: &[i64], h: usize) -> Vec<i64> {
    (0..data.len())
        .map(|g| {
            let l = if g >= h { data[g - h] } else { 0 };
            let r = data.get(g + h).copied().unwrap_or(0);
            data[g]
                .wrapping_mul(31)
                .wrapping_sub(l)
                .wrapping_add(r.wrapping_mul(7))
        })
        .collect()
}

/// Chunk indices of the trace's actions for one stage, in issue order.
fn stage_order(events: &[Event], stage: Stage) -> Vec<usize> {
    events
        .iter()
        .filter_map(|e| match e {
            Event::Action { node, .. } => node.action().filter(|a| a.stage == stage),
            _ => None,
        })
        .map(|a| a.chunk)
        .collect()
}

/// The drive walk of `spec`, recorded over the null backend.
fn null_trace(spec: &PipelineSpec) -> Vec<Event> {
    let mut rec = RecordingBackend::new(NullBackend::new());
    drive_verified(&mut rec, spec, None).expect("null backend executes every placement");
    let (_, events) = rec.into_parts();
    events
}

/// `plan` as the trace a faithful walk of it records: event `i` is plan
/// node `i` (or a barrier), its deps are the node's edge `from`s in
/// order, and `Finish` closes the run. The verifier reads the plan
/// instead of a recording, so every walk must equal it.
fn plan_trace(plan: &WorkloadPlan) -> Vec<Event> {
    let mut events: Vec<Event> = plan
        .nodes
        .iter()
        .map(|node| {
            let deps = node.deps.iter().map(|e| e.from).collect();
            match node.kind {
                PlanKind::Barrier => Event::Barrier { after: deps },
                _ => Event::Action {
                    node: node.clone(),
                    deps,
                },
            }
        })
        .collect();
    events.push(Event::Finish);
    events
}

/// The [`interpret`] walk of `plan` with context `ctx`, recorded over
/// `backend`.
fn record<B: Backend>(backend: B, ctx: &B::Ctx, plan: &WorkloadPlan) -> Vec<Event> {
    let mut rec = RecordingBackend::new(backend);
    interpret(&mut rec, ctx, plan).expect("the backend executes the plan");
    rec.into_parts().1
}

/// The drive walk of `spec`, recorded while the sim lowering runs
/// underneath — the exact schedule `build_program` lowers to ops.
fn sim_trace(spec: &PipelineSpec) -> Vec<Event> {
    let mut rec = RecordingBackend::new(SimBackend::new(spec).expect("sim accepts the spec"));
    drive_verified(&mut rec, spec, None).expect("sim backend executes the spec");
    let (_, events) = rec.into_parts();
    events
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// (1) Lockstep and dataflow host runs are bit-identical, and both
    /// match the positional reference.
    #[test]
    fn lockstep_and_dataflow_host_runs_are_bit_identical(
        chunk_elems in 1usize..48,
        n_full in 1usize..6,
        tail in 0usize..48,
        p_in in 1usize..3,
        p_out in 1usize..3,
        p_comp in 1usize..4,
        seed in any::<u64>(),
    ) {
        let tail = tail % chunk_elems.max(1);
        let total = n_full * chunk_elems + tail;
        let data: Vec<i64> = (0..total)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as i64)
            .collect();
        let pool = WorkPool::new(p_in.max(p_out).max(p_comp));

        let lock = spec_for(total, chunk_elems, p_in, p_out, p_comp, true);
        let flow = PipelineSpec { lockstep: false, ..lock.clone() };

        let mut out_lock = vec![0i64; total];
        let mut out_flow = vec![0i64; total];
        let s_lock = run_host_pipeline(&pool, &lock, &data, &mut out_lock, kernel);
        let s_flow = run_host_pipeline(&pool, &flow, &data, &mut out_flow, kernel);

        prop_assert_eq!(&out_lock, &out_flow, "schedules must not change results");
        prop_assert_eq!(&out_lock, &reference(&data));
        prop_assert_eq!(s_lock.chunks, s_flow.chunks);
        prop_assert_eq!(s_lock.chunks, total.div_ceil(chunk_elems));
    }

    /// (2) The recorded schedule is backend-independent: the trace the sim
    /// lowering is driven with equals the null-backend trace, for both
    /// lockstep and dataflow variants of the same spec.
    #[test]
    fn trace_matches_sim_lowering_of_the_same_spec(
        chunk_elems in 1usize..48,
        n_full in 1usize..6,
        tail in 0usize..48,
        p_in in 1usize..3,
        p_out in 1usize..3,
        p_comp in 1usize..4,
        lockstep in any::<bool>(),
    ) {
        let tail = tail % chunk_elems.max(1);
        let total = n_full * chunk_elems + tail;
        let spec = spec_for(total, chunk_elems, p_in, p_out, p_comp, lockstep);

        let null = null_trace(&spec);
        let sim = sim_trace(&spec);
        prop_assert_eq!(&null, &sim, "sim must be lowered from the identical schedule");
        prop_assert_eq!(&null, &plan_trace(&plan_pipeline(&spec)), "the drive walk is the plan, node for node");

        // Per-chunk action accounting: each chunk is copied in, computed
        // on, and copied out exactly once, in that per-chunk order.
        let n = spec.n_chunks();
        for stage in [Stage::CopyIn, Stage::Compute, Stage::CopyOut] {
            let mut chunks = stage_order(&null, stage);
            chunks.sort_unstable();
            prop_assert_eq!(chunks, (0..n).collect::<Vec<_>>());
        }
    }

    /// (2, sorts) Every sort variant runs through the one executor: the
    /// trace of [`interpret`] over its plan is identical whether it wraps
    /// the null backend, the host sort (which also sorts correctly) or
    /// the sim lowering, and equals the plan node for node.
    #[test]
    fn sort_trace_matches_host_and_sim_backends(
        n in 2usize..4000,
        megachunks in 1usize..7,
        seed in any::<u64>(),
    ) {
        let mega = n.div_ceil(megachunks);
        let data: Vec<i64> = (0..n)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as i64)
            .collect();
        let mut expect = data.clone();
        expect.sort_unstable();
        let pool = WorkPool::new(3);
        let cal = Calibration::default();
        let w = SortWorkload::int64(n as u64, InputOrder::Random);

        for alg in SortAlgorithm::ALL {
            let mode = if alg.needs_cache_mode() { MemMode::Cache } else { MemMode::Flat };
            let machine = MachineConfig::knl_7250(mode);
            let sim = SimSortBackend::new(&machine, &cal, w, alg, mega as u64, 8).unwrap();
            // The sim plans the shared phase sequence, in its own tiers.
            let plan = sim.plan();
            let shared = plan_sort(alg.structure(), alg.chunk_style(), n as u64, mega as u64);
            prop_assert_eq!(&plan.phases, &shared.phases);
            let wplan = plan.to_workload_plan();
            let null = record(NullBackend::new(), &plan, &wplan);

            let mut sorted = data.clone();
            let host = record(HostSortBackend::new(&pool, &mut sorted), &plan, &wplan);
            prop_assert_eq!(&sorted, &expect, "{:?} sorts", alg);

            let sim = record(sim, &plan, &wplan);

            prop_assert_eq!(&null, &host, "{:?}: host sort", alg);
            prop_assert_eq!(&null, &sim, "{:?}: sim sort", alg);
            prop_assert_eq!(&null, &plan_trace(&wplan), "{:?}: the walk is the plan", alg);
        }
    }

    /// (3) Under lockstep, chunk completion order is 0, 1, 2, … — the
    /// copy-out sequence the paper's step schedule guarantees — and every
    /// step closes with a barrier the next step's actions depend on.
    #[test]
    fn lockstep_completes_chunks_in_order(
        chunk_elems in 1usize..48,
        n_full in 1usize..6,
        p_in in 1usize..3,
        p_out in 1usize..3,
        p_comp in 1usize..4,
    ) {
        let total = n_full * chunk_elems;
        let spec = spec_for(total, chunk_elems, p_in, p_out, p_comp, true);
        let events = null_trace(&spec);

        let outs = stage_order(&events, Stage::CopyOut);
        prop_assert_eq!(outs, (0..spec.n_chunks()).collect::<Vec<_>>());

        // Every action after the first barrier names that step's barrier
        // as a dependency: the lockstep trace is a strict step sequence.
        let mut last_barrier: Option<usize> = None;
        for (idx, event) in events.iter().enumerate() {
            match event {
                Event::Action { deps, .. } => match last_barrier {
                    Some(b) => prop_assert_eq!(deps.as_slice(), &[b]),
                    None => prop_assert!(deps.is_empty()),
                },
                Event::Barrier { .. } => last_barrier = Some(idx),
                Event::Finish => {}
            }
        }
    }

    /// Dataflow deps are pure chunk edges: compute waits on its copy-in,
    /// copy-out on its compute, and copy-in of chunk `c` recycles the ring
    /// slot freed by copy-out of chunk `c - RING_SLOTS`.
    #[test]
    fn dataflow_trace_orders_by_chunk_edges_only(
        chunk_elems in 1usize..48,
        n_full in 4usize..8,
        p_comp in 1usize..4,
    ) {
        let total = n_full * chunk_elems;
        let spec = spec_for(total, chunk_elems, 1, 1, p_comp, false);
        let events = null_trace(&spec);

        prop_assert!(
            !events.iter().any(|e| matches!(e, Event::Barrier { .. })),
            "dataflow schedules have no step barriers"
        );

        // Map (stage, chunk) -> event index to resolve dependency targets.
        let at = |stage: Stage, chunk: usize| -> usize {
            events
                .iter()
                .position(|e| matches!(
                    e,
                    Event::Action { node, .. }
                        if node.action().is_some_and(|a| a.stage == stage && a.chunk == chunk)
                ))
                .expect("every chunk action is recorded")
        };
        for (idx, event) in events.iter().enumerate() {
            if let Event::Action { node, deps } = event {
                let action = node.action().expect("pipeline nodes are chunk-scoped");
                let expect: Vec<usize> = match action.stage {
                    Stage::CopyIn if action.chunk >= RING_SLOTS => {
                        vec![at(Stage::CopyOut, action.chunk - RING_SLOTS)]
                    }
                    Stage::CopyIn => Vec::new(),
                    Stage::Compute => vec![at(Stage::CopyIn, action.chunk)],
                    Stage::CopyOut => vec![at(Stage::Compute, action.chunk)],
                };
                prop_assert_eq!(deps, &expect, "event {} has wrong deps", idx);
            }
        }
    }

    /// (1, stencil) Lockstep and dataflow stencil runs are bit-identical
    /// and both match the flat-grid reference — halo bytes staged through
    /// the split-buffer ring equal the neighbours' own input everywhere,
    /// including across ragged tails shorter than the halo.
    #[test]
    fn stencil_host_runs_are_bit_identical_across_schedules(
        chunk_elems in 2usize..48,
        n_full in 1usize..6,
        tail in 0usize..48,
        h_frac in 1usize..48,
        p_in in 1usize..3,
        p_out in 1usize..3,
        p_comp in 1usize..4,
        seed in any::<u64>(),
    ) {
        let tail = tail % chunk_elems;
        let h = 1 + h_frac % (chunk_elems - 1).max(1); // 1 <= h < chunk_elems
        let total = n_full * chunk_elems + tail;
        let data: Vec<i64> = (0..total)
            .map(|i| (seed ^ (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)) as i64)
            .collect();
        let pool = WorkPool::new(p_in.max(p_out).max(p_comp));

        let mut lock = spec_for(total, chunk_elems, p_in, p_out, p_comp, true);
        lock.workload = Workload::Stencil { halo_bytes: (h * ELEM) as u64 };
        let flow = PipelineSpec { lockstep: false, ..lock.clone() };

        let mut out_lock = vec![0i64; total];
        let mut out_flow = vec![0i64; total];
        let s_lock = run_host_stencil(&pool, &lock, &data, &mut out_lock, stencil_kernel(chunk_elems, h));
        let s_flow = run_host_stencil(&pool, &flow, &data, &mut out_flow, stencil_kernel(chunk_elems, h));

        prop_assert_eq!(&out_lock, &out_flow, "schedules must not change results");
        prop_assert_eq!(&out_lock, &stencil_reference(&data, h));
        prop_assert_eq!(s_lock.chunks, s_flow.chunks);
        prop_assert_eq!(s_lock.chunks, total.div_ceil(chunk_elems));
    }

    /// (2, stencil) The recorded stencil schedule is backend-independent:
    /// the trace the sim lowering is driven with equals the null-backend
    /// trace, and per-chunk action accounting holds on the deeper ring.
    #[test]
    fn stencil_trace_matches_sim_lowering_of_the_same_spec(
        chunk_elems in 2usize..48,
        n_full in 1usize..6,
        tail in 0usize..48,
        h_frac in 1usize..48,
        p_comp in 1usize..4,
        lockstep in any::<bool>(),
    ) {
        let tail = tail % chunk_elems;
        let h = 1 + h_frac % (chunk_elems - 1).max(1);
        let total = n_full * chunk_elems + tail;
        let mut spec = spec_for(total, chunk_elems, 1, 1, p_comp, lockstep);
        spec.workload = Workload::Stencil { halo_bytes: (h * ELEM) as u64 };

        let null = null_trace(&spec);
        let sim = sim_trace(&spec);
        prop_assert_eq!(&null, &sim, "sim must be lowered from the identical schedule");
        prop_assert_eq!(&null, &plan_trace(&plan_pipeline(&spec)), "the drive walk is the plan, node for node");

        let n = spec.n_chunks();
        for stage in [Stage::CopyIn, Stage::Compute, Stage::CopyOut] {
            let mut chunks = stage_order(&null, stage);
            chunks.sort_unstable();
            prop_assert_eq!(chunks, (0..n).collect::<Vec<_>>());
        }
    }
}
