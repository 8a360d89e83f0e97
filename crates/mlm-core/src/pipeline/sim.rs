//! Lowering a [`PipelineSpec`] to a [`knl_sim`] op graph.
//!
//! This file is the *simulator adapter* of the execution layer: the
//! schedule itself — which chunk each stage touches at each step, the
//! buffer-ring discipline, lockstep barriers vs dataflow
//! edges — lives in [`mlm_exec::drive`]. [`SimBackend`] only expands
//! each issued node's [`mlm_exec::ChunkAction`] into per-thread ops:
//! copies at `S_copy`, compute streams at `S_comp`, and (for implicit
//! cache mode) cold passes through the address-exact cache model plus
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

use knl_sim::ops::{Access, OpId, OpKind, Place, Program};
use mlm_exec::{drive_verified, Backend, PlanNode, Stage, WorkloadPlan};

use super::{PipelineSpec, Placement, Workload};

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

    fn issue_copy_in(&mut self, spec: &PipelineSpec, chunk: usize, deps: &[OpId]) -> Vec<OpId> {
        let buf_place = buf_place(spec);
        let bytes = spec.chunk_size(chunk);
        let in0 = 0usize;
        let mut ops = Vec::new();
        let mut offset = 0u64;
        for t in 0..spec.p_in {
            let share = thread_share(bytes, spec.p_in, t);
            if share == 0 {
                continue;
            }
            let addr = spec.data_addr + chunk as u64 * spec.chunk_bytes + offset;
            offset += share;
            let id = self.prog.push(
                in0 + t,
                OpKind::Copy {
                    src: Place::CachedDdr { addr },
                    dst: buf_place,
                    bytes: share,
                    rate_cap: spec.copy_rate,
                },
                deps,
            );
            ops.push(id);
        }
        ops
    }

    fn issue_compute(&mut self, spec: &PipelineSpec, chunk: usize, deps: &[OpId]) -> Vec<OpId> {
        let buf_place = buf_place(spec);
        let bytes = spec.chunk_size(chunk);
        let comp0 = spec.p_in + spec.p_out;
        // The stencil retuning of the model's compute term: each chunk's
        // kernel additionally reads `halo_bytes` of boundary rows from
        // every staged neighbour (the plan's `KernelDesc::extra_read_bytes`,
        // halved per absent neighbour at the grid edges). The halo lives in
        // the same tier as the chunk buffers, so it rides the same bus.
        let halo_extra = match spec.workload {
            Workload::Map => 0,
            Workload::Stencil { halo_bytes } => {
                let neighbours = u64::from(chunk > 0) + u64::from(chunk + 1 < spec.n_chunks());
                neighbours * halo_bytes
            }
        };
        let mut ops = Vec::new();
        for t in 0..spec.p_comp {
            let share = thread_share(bytes, spec.p_comp, t);
            if share == 0 {
                continue;
            }
            let traffic = share * u64::from(spec.compute_passes);
            let halo_share = thread_share(halo_extra, spec.p_comp, t);
            let id = self.prog.push(
                comp0 + t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(buf_place, traffic + halo_share),
                        Access::write(buf_place, traffic),
                    ],
                    rate_cap: spec.compute_rate,
                },
                deps,
            );
            ops.push(id);
        }
        ops
    }

    fn issue_copy_out(&mut self, spec: &PipelineSpec, chunk: usize, deps: &[OpId]) -> Vec<OpId> {
        let buf_place = buf_place(spec);
        let bytes = spec.chunk_size(chunk);
        let out0 = spec.p_in;
        let mut ops = Vec::new();
        let mut offset = 0u64;
        for t in 0..spec.p_out {
            let share = thread_share(bytes, spec.p_out, t);
            if share == 0 {
                continue;
            }
            let addr = spec.data_addr + chunk as u64 * spec.chunk_bytes + offset;
            offset += share;
            let id = self.prog.push(
                out0 + t,
                OpKind::Copy {
                    src: buf_place,
                    dst: Place::CachedDdr { addr },
                    bytes: share,
                    rate_cap: spec.copy_rate,
                },
                deps,
            );
            ops.push(id);
        }
        ops
    }

    /// Implicit cache mode (paper Fig. 5): no copies; all threads compute
    /// on the chunk in place, pulling data through the MCDRAM cache. The
    /// first pass over a chunk goes through the address-exact cache model
    /// (cold misses); the remaining `compute_passes - 1` passes re-touch
    /// the same range, which stays resident iff the chunk fits the cache —
    /// modeled as pure MCDRAM traffic when it fits, or a DDR re-stream
    /// (plus fill traffic) when it does not. Re-issuing the range through
    /// the cache model once per pass would be exact too, but at high
    /// repeat counts it inflates the op count by orders of magnitude for
    /// identical results.
    fn issue_implicit_compute(
        &mut self,
        spec: &PipelineSpec,
        chunk: usize,
        deps: &[OpId],
    ) -> Vec<OpId> {
        let bytes = spec.chunk_size(chunk);
        let mut ops = Vec::new();
        let mut offset = 0u64;
        for t in 0..spec.p_comp {
            let share = thread_share(bytes, spec.p_comp, t);
            if share == 0 {
                continue;
            }
            let addr = spec.data_addr + chunk as u64 * spec.chunk_bytes + offset;
            offset += share;
            // Pass 0: cold, through the real cache.
            let cold = self.prog.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(Place::CachedDdr { addr }, share),
                        Access::write(Place::CachedDdr { addr }, share),
                    ],
                    rate_cap: spec.compute_rate,
                },
                deps,
            );
            ops.push(cold);
            if let Some(warm) = self.implicit_warm_op(t, spec, share, cold) {
                ops.push(warm);
            }
        }
        ops
    }

    /// Emit the `compute_passes - 1` re-touch passes of the implicit
    /// kernel.
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
        share: u64,
        cold: OpId,
    ) -> Option<OpId> {
        let extra = u64::from(spec.compute_passes.saturating_sub(1));
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
        _plan: &WorkloadPlan,
        node: &PlanNode,
        deps: &[Vec<OpId>],
    ) -> Vec<OpId> {
        let action = node
            .action()
            .expect("pipeline plans issue chunk-scoped nodes");
        let deps: Vec<OpId> = deps.iter().flatten().copied().collect();
        match (spec.placement, action.stage) {
            (Placement::Implicit, Stage::Compute) => {
                self.issue_implicit_compute(spec, action.chunk, &deps)
            }
            (Placement::Implicit, _) => unreachable!("implicit schedules have no copy stages"),
            (_, Stage::CopyIn) => self.issue_copy_in(spec, action.chunk, &deps),
            (_, Stage::Compute) => self.issue_compute(spec, action.chunk, &deps),
            (_, Stage::CopyOut) => self.issue_copy_out(spec, action.chunk, &deps),
        }
    }

    fn step_barrier(&mut self, _spec: &PipelineSpec, after: &[Vec<OpId>]) -> Vec<OpId> {
        let after: Vec<OpId> = after.iter().flatten().copied().collect();
        self.prog.barrier(0..self.threads, &after)
    }
}

/// Where explicit chunk buffers live in the simulated machine.
fn buf_place(spec: &PipelineSpec) -> Place {
    match spec.placement {
        Placement::Hbw => Place::Mcdram,
        Placement::Ddr => Place::Ddr,
        Placement::Implicit => unreachable!("implicit placement owns no buffers"),
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

/// Bytes of an `bytes`-byte chunk handled by thread `t` of `pool` threads.
fn thread_share(bytes: u64, pool: usize, t: usize) -> u64 {
    let base = bytes / pool as u64;
    let extra = bytes % pool as u64;
    base + u64::from((t as u64) < extra)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Workload;
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
    fn thread_share_sums_to_total() {
        for bytes in [0u64, 1, 99, 100, 1 << 20] {
            for pool in [1usize, 2, 3, 7] {
                let sum: u64 = (0..pool).map(|t| thread_share(bytes, pool, t)).sum();
                assert_eq!(sum, bytes);
            }
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
        mlm_exec::drive(&mut rec, &spec).unwrap();
        let (backend, events) = rec.into_parts();
        let traced = backend.into_program();
        assert_eq!(traced.ops().len(), direct.ops().len());
        assert!(!events.is_empty());
    }
}
