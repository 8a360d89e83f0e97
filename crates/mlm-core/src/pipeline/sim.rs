//! Lowering a pipeline plan to a [`knl_sim`] op graph.
//!
//! This file is the *simulator adapter* of the execution layer: the
//! schedule itself — which chunk each stage touches at each step, the
//! buffer-ring discipline, lockstep barriers vs dataflow edges — is the
//! plan [`mlm_exec::plan_pipeline`] builds and [`mlm_exec::drive_verified`]
//! proves and interprets. [`SimBackend`] expands each issued node into
//! per-thread ops, reading everything the plan states from the plan: the
//! tier of the buffers it touches from its footprint, its bytes from
//! `node.len`, and its kernel's traffic from [`mlm_exec::KernelDesc`] —
//! `passes` read+write sweeps, plus half the kernel's `extra_read_bytes`
//! (one halo) per staged neighbour the compute reads. The spec supplies
//! only what the plan does not state: the thread pools, the copy and
//! compute rates, and the DDR address of the data (chunk `c` at
//! `data_addr + c × chunk_bytes`). Copies run at `S_copy`, computes at
//! `S_comp`; a compute that touches no declared buffer (implicit cache
//! mode) runs in place through the address-exact cache model, plus
//! analytic warm re-touches.
//!
//! Thread layout: copy-in threads first, then copy-out, then compute
//! (irrelevant to timing, but stable for traces). With `spec.lockstep`
//! the schedule matches the paper's Fig. 2 exactly: step `s` performs
//! copy-in of chunk `s`, compute on `s-1`, copy-out of `s-2`, and a
//! barrier closes the step. Without lockstep, only dataflow and
//! buffer-recycling dependencies order the ops: copy-in of chunk `c`
//! waits for copy-out of chunk `c - R`, where `R` is the spec's
//! [`PipelineSpec::ring_slots`] (three slots for maps, four for
//! stencils).

use std::ops::Range;

use knl_sim::ops::{Access, OpId, OpKind, Place, Program};
use mlm_exec::{drive_verified, Backend, PlanKind, PlanNode, WorkloadPlan};

use super::PipelineSpec;
use crate::lower::{copy, share, sides, Side};

/// The op-level simulator as an execution backend.
///
/// Tokens are the op-id lists of issued actions, so the orchestrator's
/// dependency tokens translate directly into op-graph edges.
pub struct SimBackend {
    prog: Program,
    threads: usize,
}

impl SimBackend {
    /// Create a backend sized for `spec`'s thread count.
    pub fn new(spec: &PipelineSpec) -> Result<Self, String> {
        spec.validate()?;
        let threads = spec.threads();
        Ok(SimBackend {
            prog: Program::new(threads),
            threads,
        })
    }

    /// Consume the backend, returning the lowered program.
    pub fn into_program(self) -> Program {
        self.prog
    }

    /// A kernel over its staged buffers: each thread of `pool` streams
    /// its share of the chunk `passes` times from `src` to `dst`, and
    /// reads its share of one halo per staged neighbour on top (the
    /// stencil retuning of the model's compute term; the halos live in
    /// the same tier as the chunk buffers, so they ride the same bus).
    fn issue_compute(
        &mut self,
        spec: &PipelineSpec,
        plan: &WorkloadPlan,
        node: &PlanNode,
        pool: Range<usize>,
        (src, dst): (Side, Side),
        deps: &[OpId],
    ) -> Vec<OpId> {
        let kernel = &plan.kernels[node.kernel.expect("a compute node names its kernel")];
        let touches = plan.touches_of(node).iter();
        let staged = touches.filter(|t| t.1 == mlm_exec::Access::Read).count();
        let halo_extra = staged.saturating_sub(1) as u64 * (kernel.extra_read_bytes / 2);
        let parts = pool.len();
        let mut ops = Vec::with_capacity(parts);
        for (i, t) in pool.enumerate() {
            let (offset, len) = share(node.len, parts, i);
            if len == 0 {
                continue;
            }
            let traffic = len * u64::from(kernel.passes);
            let halo_share = share(halo_extra, parts, i).1;
            let id = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(src.at(i, offset), traffic + halo_share),
                        Access::write(dst.at(i, offset), traffic),
                    ],
                    rate_cap: spec.compute_rate,
                },
                deps,
            );
            ops.push(id);
        }
        ops
    }

    /// Implicit cache mode (paper Fig. 5): no copies; the compute pool
    /// works on the chunk in place at `data`, pulling it through the
    /// MCDRAM cache. The first pass over a chunk goes through the
    /// address-exact cache model (cold misses); the remaining `passes - 1`
    /// passes re-touch the same range, which stays resident iff the chunk
    /// fits the cache — modeled as pure MCDRAM traffic when it fits, or a
    /// DDR re-stream (plus fill traffic) when it does not. Re-issuing the
    /// range through the cache model once per pass would be exact too,
    /// but at high repeat counts it inflates the op count by orders of
    /// magnitude for identical results.
    fn issue_cached_compute(
        &mut self,
        spec: &PipelineSpec,
        plan: &WorkloadPlan,
        node: &PlanNode,
        pool: Range<usize>,
        data: Side,
        deps: &[OpId],
    ) -> Vec<OpId> {
        let kernel = &plan.kernels[node.kernel.expect("a compute node names its kernel")];
        let parts = pool.len();
        let mut ops = Vec::new();
        for (i, t) in pool.enumerate() {
            let (offset, len) = share(node.len, parts, i);
            if len == 0 {
                continue;
            }
            let at = data.at(i, offset);
            // Pass 0: cold, through the real cache.
            let cold = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![Access::read(at, len), Access::write(at, len)],
                    rate_cap: spec.compute_rate,
                },
                deps,
            );
            ops.push(cold);
            if let Some(warm) = self.implicit_warm_op(t, spec, kernel.passes, len, cold) {
                ops.push(warm);
            }
        }
        ops
    }

    /// Emit the `passes - 1` re-touch passes of the implicit kernel.
    ///
    /// A re-touched chunk stays resident iff it fits the cache; the
    /// builder has no machine config, so pass 0 uses the engine's
    /// address-exact cache and later passes are approximated by chunk size
    /// against the KNL's 16 GiB cache. Experiments sweeping exotic cache
    /// sizes lower their implicit schedules through the sort builders,
    /// which model residency against the actual machine.
    fn implicit_warm_op(
        &mut self,
        thread: usize,
        spec: &PipelineSpec,
        passes: u32,
        share: u64,
        cold: OpId,
    ) -> Option<OpId> {
        let extra = u64::from(passes.saturating_sub(1));
        if extra == 0 {
            return None;
        }
        let traffic = share * extra;
        let fits = spec.chunk_bytes <= 15 * (1 << 30);
        let accesses = if fits {
            vec![
                Access::read(Place::Mcdram, traffic),
                Access::write(Place::Mcdram, traffic),
            ]
        } else {
            vec![
                Access::read(Place::Ddr, traffic),
                Access::write(Place::Ddr, traffic),
                Access::write(Place::Mcdram, traffic),
            ]
        };
        Some(self.prog.push(
            thread,
            OpKind::Stream {
                accesses,
                rate_cap: spec.compute_rate,
            },
            &[cold],
        ))
    }
}

impl Backend for SimBackend {
    type Ctx = PipelineSpec;
    type Token = Vec<OpId>;

    fn issue(
        &mut self,
        spec: &PipelineSpec,
        plan: &WorkloadPlan,
        node: &PlanNode,
        deps: &[Vec<OpId>],
    ) -> Vec<OpId> {
        let chunk = node.chunk.expect("pipeline plans issue chunk-scoped nodes");
        let deps: Vec<OpId> = deps.iter().flatten().copied().collect();
        let data = Side::new(Place::CachedDdr {
            addr: spec.data_addr + chunk as u64 * spec.chunk_bytes,
        });
        let (copy_in, copy_out) = (0..spec.p_in, spec.p_in..spec.p_in + spec.p_out);
        let compute = self.threads - spec.p_comp..self.threads;
        let (prog, rate) = (&mut self.prog, spec.copy_rate);
        match (node.kind, sides(plan, node, self.threads)) {
            (PlanKind::StageIn, Some((_, buf))) => {
                copy(prog, copy_in, node.len, (data, buf), rate, &deps)
            }
            (PlanKind::StageOut, Some((buf, _))) => {
                copy(prog, copy_out, node.len, (buf, data), rate, &deps)
            }
            (PlanKind::Kernel, Some(bufs)) => {
                self.issue_compute(spec, plan, node, compute, bufs, &deps)
            }
            (PlanKind::Kernel, None) => {
                self.issue_cached_compute(spec, plan, node, compute, data, &deps)
            }
            (kind, _) => {
                unreachable!("pipeline plans stage only through declared buffers: {kind:?}")
            }
        }
    }

    fn step_barrier(&mut self, _spec: &PipelineSpec, after: &[Vec<OpId>]) -> Vec<OpId> {
        let after: Vec<OpId> = after.iter().flatten().copied().collect();
        self.prog.barrier(0..self.threads, &after)
    }
}

/// Build the simulated program for `spec` by driving a [`SimBackend`]
/// through the shared orchestrator.
///
/// The orchestrator runs behind the static schedule verifier
/// ([`mlm_exec::graph`]): the plan it interprets is proven race- and
/// deadlock-free before any ops are pushed. The MCDRAM capacity
/// bound is machine-dependent and is checked at plan time by mlm-verify's
/// `lint_target`, which knows the machine; here only the
/// machine-independent properties gate.
pub fn build_program(spec: &PipelineSpec) -> Result<Program, String> {
    let mut backend = SimBackend::new(spec)?;
    drive_verified(&mut backend, spec, None).map_err(String::from)?;
    Ok(backend.into_program())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::{Placement, Workload};
    use knl_sim::machine::{MachineConfig, MemMode};
    use knl_sim::{MemLevel, Simulator};

    fn base_spec() -> PipelineSpec {
        PipelineSpec {
            total_bytes: 6 << 20,
            chunk_bytes: 2 << 20,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 2e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    #[test]
    fn program_moves_every_byte_twice_in_flat_mode() {
        let spec = base_spec();
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        let total = spec.total_bytes;
        // Copy-in reads DDR, copy-out writes DDR.
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, total);
        assert_eq!(r.traffic_on(MemLevel::Ddr).written, total);
        // MCDRAM: copy-in writes + compute read/write + copy-out reads.
        assert_eq!(r.traffic_on(MemLevel::Mcdram).total(), 4 * total);
    }

    #[test]
    fn lockstep_time_is_sum_of_step_maxima() {
        // One chunk: steps are copy-in, compute, copy-out with no overlap.
        let mut spec = base_spec();
        spec.total_bytes = 2 << 20;
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        let b = (2 << 20) as f64;
        let t_in = b / 1e9;
        let t_comp = 2.0 * (b / 2.0) / 2e9; // 2 threads, 2 passes of traffic
        let t_out = b / 1e9;
        let expect = t_in + t_comp + t_out;
        assert!(
            (r.makespan - expect).abs() / expect < 1e-6,
            "{} vs {expect}",
            r.makespan
        );
    }

    #[test]
    fn pipelining_overlaps_steps() {
        // Many chunks: total time must be well below the serial sum.
        let mut spec = base_spec();
        spec.total_bytes = 64 << 20;
        spec.chunk_bytes = 4 << 20;
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        let b = spec.total_bytes as f64;
        let serial = b / 1e9 + b / 2e9 + b / 1e9; // in + comp + out, never overlapped
        assert!(
            r.makespan < 0.7 * serial,
            "{} vs serial {serial}",
            r.makespan
        );
    }

    #[test]
    fn dataflow_is_no_slower_than_lockstep() {
        let mut lock = base_spec();
        lock.total_bytes = 64 << 20;
        lock.chunk_bytes = 4 << 20;
        let mut flow = lock.clone();
        flow.lockstep = false;
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let sim = Simulator::new(cfg);
        let t_lock = sim.run(&build_program(&lock).unwrap()).unwrap().makespan;
        let t_flow = sim.run(&build_program(&flow).unwrap()).unwrap().makespan;
        assert!(
            t_flow <= t_lock * (1.0 + 1e-9),
            "dataflow {t_flow} > lockstep {t_lock}"
        );
    }

    #[test]
    fn implicit_mode_runs_without_copies() {
        let mut spec = base_spec();
        spec.placement = Placement::Implicit;
        spec.p_in = 0;
        spec.p_out = 0;
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Cache);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        // Cold misses pull every byte from DDR exactly once (6 MiB fits the
        // 64 MiB cache).
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, spec.total_bytes);
        assert!(r.cache.miss_bytes > 0);
    }

    #[test]
    fn implicit_rereads_hit_in_cache() {
        let mut spec = base_spec();
        spec.placement = Placement::Implicit;
        spec.p_in = 0;
        spec.p_out = 0;
        spec.compute_passes = 4; // same chunk touched repeatedly
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Cache);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        // Only the first pass misses (DDR sees each byte once); the three
        // re-touch passes are MCDRAM-served.
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, spec.total_bytes);
        let mcd = r.traffic_on(MemLevel::Mcdram).total();
        assert!(
            mcd >= 7 * spec.total_bytes,
            "warm passes must ride the MCDRAM bus: {mcd}"
        );
    }

    #[test]
    fn ragged_tail_chunk_is_processed() {
        let mut spec = base_spec();
        spec.total_bytes = (2 << 20) + 12345;
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, spec.total_bytes);
        assert_eq!(r.traffic_on(MemLevel::Ddr).written, spec.total_bytes);
    }

    #[test]
    fn more_copy_threads_help_until_saturation() {
        // With heavy copy demand, going 1 -> 4 copy threads must speed the
        // pipeline up; 4 already saturates the tiny machine's DDR
        // (4 threads on each side x 1 GB/s vs 10 GB/s DDR is fine, so use
        // larger pools to cross saturation).
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let sim = Simulator::new(cfg);
        let time = |p: usize| {
            let mut s = base_spec();
            s.total_bytes = 128 << 20;
            s.chunk_bytes = 8 << 20;
            s.p_in = p;
            s.p_out = p;
            s.p_comp = 2;
            sim.run(&build_program(&s).unwrap()).unwrap().makespan
        };
        let t1 = time(1);
        let t4 = time(4);
        let t8 = time(8);
        let t16 = time(16);
        assert!(t4 < t1, "more copy threads help: {t4} !< {t1}");
        // Past DDR saturation (10 threads x 1 GB/s > 10 GB/s), no gain.
        assert!(t16 >= t8 * 0.95, "saturated: {t16} vs {t8}");
    }

    fn stencil_base_spec(halo_bytes: u64) -> PipelineSpec {
        PipelineSpec {
            workload: Workload::Stencil { halo_bytes },
            ..base_spec()
        }
    }

    #[test]
    fn stencil_program_adds_halo_read_traffic() {
        // 3 chunks: chunk 0 and 2 read one neighbour halo, chunk 1 reads
        // two — 4 halo reads on the buffer tier beyond the map family's
        // 4x total.
        let halo = 64 << 10;
        let map = build_program(&base_spec()).unwrap();
        let sten = build_program(&stencil_base_spec(halo)).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let sim = Simulator::new(cfg);
        let rm = sim.run(&map).unwrap();
        let rs = sim.run(&sten).unwrap();
        let total = base_spec().total_bytes;
        assert_eq!(rm.traffic_on(MemLevel::Mcdram).total(), 4 * total);
        assert_eq!(
            rs.traffic_on(MemLevel::Mcdram).total(),
            4 * total + 4 * halo,
            "stencil computes must read both staged neighbour halos"
        );
        // DDR traffic (grid in, grid out) is workload-independent.
        assert_eq!(rs.traffic_on(MemLevel::Ddr).read, total);
        assert_eq!(rs.traffic_on(MemLevel::Ddr).written, total);
    }

    #[test]
    fn stencil_dataflow_is_no_slower_than_lockstep() {
        let mut lock = stencil_base_spec(128 << 10);
        lock.total_bytes = 64 << 20;
        lock.chunk_bytes = 4 << 20;
        let mut flow = lock.clone();
        flow.lockstep = false;
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let sim = Simulator::new(cfg);
        let t_lock = sim.run(&build_program(&lock).unwrap()).unwrap().makespan;
        let t_flow = sim.run(&build_program(&flow).unwrap()).unwrap().makespan;
        assert!(
            t_flow <= t_lock * (1.0 + 1e-9),
            "dataflow {t_flow} > lockstep {t_lock}"
        );
    }

    #[test]
    fn stencil_ragged_tail_is_processed() {
        let mut spec = stencil_base_spec(4096);
        spec.total_bytes = (2 << 20) + 12345;
        let prog = build_program(&spec).unwrap();
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let r = Simulator::new(cfg).run(&prog).unwrap();
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, spec.total_bytes);
        assert_eq!(r.traffic_on(MemLevel::Ddr).written, spec.total_bytes);
    }

    #[test]
    fn recorded_trace_matches_op_graph_structure() {
        // RecordingBackend<SimBackend> lowers the identical program while
        // producing a schedule trace: the recorder is a pure observer.
        use mlm_exec::RecordingBackend;
        let spec = base_spec();
        let direct = build_program(&spec).unwrap();
        let mut rec = RecordingBackend::new(SimBackend::new(&spec).unwrap());
        drive_verified(&mut rec, &spec, None).unwrap();
        let (backend, events) = rec.into_parts();
        let traced = backend.into_program();
        assert_eq!(traced.ops().len(), direct.ops().len());
        assert!(!events.is_empty());
    }
}
