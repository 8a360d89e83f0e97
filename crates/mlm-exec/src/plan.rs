//! The workload-generic plan IR.
//!
//! Before this module, the repo's plan vocabulary was *sort-shaped*:
//! [`SortPlan`](crate::sortplan::SortPlan) enumerated megachunk phases and
//! every executor pattern-matched on them, while the chunk pipeline's
//! schedule lived as hand-rolled loops inside the drive module. A
//! [`WorkloadPlan`] factors the common structure out: a DAG of
//! stage-in / compute-kernel / stage-out nodes (plus lockstep barriers),
//! each dependency edge tagged with *why* it exists —
//!
//! * [`EdgeKind::Seq`] — phase sequencing (a barrier or a previous phase's
//!   join);
//! * [`EdgeKind::Data`] — the value being produced flows along the edge;
//! * [`EdgeKind::Recycle`] — a buffer slot is reused, so the writer waits
//!   for the last reader of the previous occupant;
//! * [`EdgeKind::Halo`] — an *inter-chunk* data edge: a compute reads
//!   boundary bytes from a neighbouring chunk's staged buffer (the
//!   stencil family's genuinely new token shape).
//!
//! A plan also declares the buffers it keeps resident
//! ([`WorkloadPlan::buffers`]: tier, bytes, ring slot) and, per node, which
//! of them the node reads or overwrites ([`WorkloadPlan::footprint`]). That
//! is the one statement of "which buffers exist, where they live, and who
//! touches them": the schedule prover ([`crate::graph`]) reads it and
//! nothing else, the simulated sort lowers each node's bytes to the tiers
//! its footprint names, and every capacity question about a pipeline sums
//! [`pipeline_buffers`], the declaration [`plan_pipeline`] makes.
//!
//! Two producers lower into the IR: [`plan_pipeline`] builds the §3 chunk
//! schedule for any [`Workload`] (the drive orchestrator is now "build the
//! plan, interpret it over a [`Backend`]"), and
//! [`SortPlan::to_workload_plan`](crate::sortplan::SortPlan::to_workload_plan)
//! lowers the megachunk-level sort phases. One executor consumes both:
//! [`interpret`] walks any plan over any backend (host pools, the
//! simulator, the host and simulated sorts, recorders).

use std::ops::Range;

use crate::backend::{Backend, ChunkAction, Stage};
use crate::error::DriveError;
use crate::placement::Placement;
use crate::spec::{PipelineSpec, Workload};

/// What one plan node does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanKind {
    /// Stage a chunk (or megachunk) into its working buffer.
    StageIn,
    /// Run a compute kernel (see [`WorkloadPlan::kernels`]).
    Kernel,
    /// Drain the result back out. A stage-out may carry a kernel index
    /// too: the sort family's merge-out transforms while it drains.
    StageOut,
    /// A lockstep step barrier over its dependency set.
    Barrier,
}

impl PlanKind {
    /// The backend stage a chunk-level node maps to (barriers map to
    /// [`Backend::step_barrier`] instead).
    pub fn stage(self) -> Option<Stage> {
        match self {
            PlanKind::StageIn => Some(Stage::CopyIn),
            PlanKind::Kernel => Some(Stage::Compute),
            PlanKind::StageOut => Some(Stage::CopyOut),
            PlanKind::Barrier => None,
        }
    }
}

/// Why a dependency edge exists. Interpreters that only need ordering may
/// ignore the kind; the graph analyzer (and its buggy-construction
/// weakenings) and the sim lowering dispatch on it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeKind {
    /// Phase sequencing: the node runs after the previous phase's join or
    /// the previous lockstep barrier.
    Seq,
    /// The producing node's output is this node's input.
    Data,
    /// Buffer-slot reuse: wait for the last consumer of the slot's
    /// previous occupant before overwriting it.
    Recycle,
    /// Inter-chunk halo read: this compute consumes boundary bytes from a
    /// *neighbouring* chunk's staged buffer.
    Halo,
}

/// One dependency edge: this node waits for `from`'s completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlanEdge {
    /// Index of the node waited on (always earlier in the node list).
    pub from: usize,
    /// Why the edge exists.
    pub kind: EdgeKind,
}

impl PlanEdge {
    /// Shorthand constructor.
    pub fn new(from: usize, kind: EdgeKind) -> Self {
        PlanEdge { from, kind }
    }
}

/// One node of a workload plan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNode {
    /// What the node does.
    pub kind: PlanKind,
    /// The chunk (pipeline plans) or megachunk (sort plans) the node
    /// works on; `None` for global phases spanning the whole data set.
    pub chunk: Option<usize>,
    /// Ring slot a chunk-scoped node occupies (`chunk % ring_slots`).
    pub slot: usize,
    /// Index into [`WorkloadPlan::kernels`] for compute-carrying nodes.
    pub kernel: Option<usize>,
    /// Payload size in workload units (bytes for pipeline plans,
    /// elements for sort plans).
    pub len: u64,
    /// Dependency edges, in issue order.
    pub deps: Vec<PlanEdge>,
    /// The node's entries of [`WorkloadPlan::touches`]: the buffers it
    /// reads or writes (empty for barriers and for plans that declare no
    /// buffers).
    pub footprint: Range<usize>,
}

impl PlanNode {
    /// The chunk-stage action this node issues; `None` for a barrier or
    /// a global node.
    pub fn action(&self) -> Option<ChunkAction> {
        Some(ChunkAction {
            stage: self.kind.stage()?,
            chunk: self.chunk?,
            slot: self.slot,
        })
    }
}

/// Index into [`WorkloadPlan::buffers`].
pub type BufferId = usize;

/// How a node touches a buffer. Two touches of one buffer conflict unless
/// both are reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Access {
    /// The node reads the buffer's contents.
    Read,
    /// The node overwrites the buffer (or updates it in place).
    Write,
}

/// One buffer a plan keeps resident for its whole run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanBuffer {
    /// What the buffer holds, for diagnostics (`"ring"`, `"in-buffer"`,
    /// `"out-buffer"`, or a sort's `"keys"`, `"scratch"`, `"megachunk"`).
    pub role: &'static str,
    /// The ring slot the buffer belongs to: the chunks `c` with
    /// `c % ring_slots == slot` take turns in it. A sort's key and scratch
    /// arrays are declared window by window, and a window's slot is the
    /// megachunk it holds.
    pub slot: usize,
    /// Where it is allocated: [`Placement::Hbw`] (flat MCDRAM),
    /// [`Placement::Ddr`], or [`Placement::Implicit`] — a DDR array
    /// addressed through the MCDRAM cache (a machine without one serves
    /// it from DDR). Only HBW buffers count against the MCDRAM budget.
    pub tier: Placement,
    /// Capacity in bytes.
    pub bytes: u64,
}

impl PlanBuffer {
    /// Buffer name as diagnostics print it, e.g. `in-buffer slot 2`.
    pub fn describe(&self) -> String {
        format!("{} slot {}", self.role, self.slot)
    }
}

/// A compute kernel a plan references, with the footprint parameters the
/// sim lowering retunes the paper's Eqs. 1–5 with: traffic per staged
/// byte is `passes` read+write sweeps plus `extra_read_bytes` of
/// neighbour reads (the halo), so each kernel family prices at its own
/// compute/byte ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct KernelDesc {
    /// Kernel family name (`"map"`, `"stencil"`, or a sort phase name).
    pub name: String,
    /// Read+write passes over the staged payload per invocation.
    pub passes: u32,
    /// Extra bytes read from *other* resident buffers per invocation
    /// (the stencil's two halos; zero for chunk-local kernels).
    pub extra_read_bytes: u64,
}

/// A workload-generic execution plan: nodes in issue order, each with
/// tagged dependency edges pointing at earlier nodes.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadPlan {
    /// Workload family name (`"map"`, `"stencil"`, `"sort"`).
    pub family: &'static str,
    /// Buffer-ring depth chunk-scoped slots rotate over.
    pub ring_slots: usize,
    /// Number of chunks (pipeline) or megachunks (sort) the plan covers.
    pub chunks: usize,
    /// The kernels [`PlanNode::kernel`] indexes into.
    pub kernels: Vec<KernelDesc>,
    /// The nodes, in issue order.
    pub nodes: Vec<PlanNode>,
    /// The staging buffers the plan keeps resident.
    pub buffers: Vec<PlanBuffer>,
    /// Every node's buffer touches, back to back; [`PlanNode::footprint`]
    /// indexes into it.
    pub touches: Vec<(BufferId, Access)>,
}

impl WorkloadPlan {
    /// Structural sanity: every edge points at an earlier node, kernel
    /// indices are in range, chunk-scoped slots honour the ring.
    pub fn validate(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            for e in &node.deps {
                if e.from >= i {
                    return Err(format!(
                        "node {i} depends on node {} which is not earlier in the plan",
                        e.from
                    ));
                }
            }
            if let Some(k) = node.kernel {
                if k >= self.kernels.len() {
                    return Err(format!("node {i} references undefined kernel {k}"));
                }
            }
            let footprint = self.touches.get(node.footprint.clone());
            if footprint.is_none_or(|f| f.iter().any(|&(b, _)| b >= self.buffers.len())) {
                return Err(format!("node {i} touches an undeclared buffer"));
            }
            if let Some(c) = node.chunk {
                if self.ring_slots > 0 && node.slot != c % self.ring_slots {
                    return Err(format!(
                        "node {i}: slot {} breaks the {}-slot ring discipline for chunk {c}",
                        node.slot, self.ring_slots
                    ));
                }
            }
        }
        Ok(())
    }

    /// The buffers node `i` touches, each with how (nothing when the
    /// node's range is out of bounds, which [`WorkloadPlan::validate`]
    /// reports).
    pub fn footprint(&self, i: usize) -> &[(BufferId, Access)] {
        self.touches_of(&self.nodes[i])
    }

    /// The buffers `node` touches, each with how: its
    /// [`PlanNode::footprint`] range of [`WorkloadPlan::touches`].
    pub fn touches_of(&self, node: &PlanNode) -> &[(BufferId, Access)] {
        self.touches.get(node.footprint.clone()).unwrap_or_default()
    }

    /// The node index of `(kind, chunk)`, if the plan contains it.
    pub fn find(&self, kind: PlanKind, chunk: usize) -> Option<usize> {
        self.nodes
            .iter()
            .position(|n| n.kind == kind && n.chunk == Some(chunk))
    }
}

/// The buffers the plan of `spec` keeps resident, in declaration order:
/// [`PipelineSpec::buffers_per_slot`] buffers for each ring slot a chunk
/// ever lands in (`min(ring, n_chunks)` of them), each one chunk
/// (`min(chunk_bytes, total_bytes)`) in `spec.placement`; none in cache
/// mode, which owns no buffers (nor for a spec without chunks). Buffer
/// `role * slots + slot` is role `role` of slot `slot`.
///
/// The one statement of a pipeline's buffers: [`plan_pipeline`] declares
/// them, G003 proves their HBW bytes, and admission, the lints and the
/// studies size a job by [`declared_bytes`], their sum.
pub fn pipeline_buffers(spec: &PipelineSpec) -> impl Iterator<Item = PlanBuffer> + '_ {
    let (slots, bytes) = ring_of(spec);
    (0..spec.buffers_per_slot() as usize).flat_map(move |role| {
        (0..slots).map(move |slot| PlanBuffer {
            role: match (spec.workload, role) {
                (Workload::Map, _) => "ring",
                (Workload::Stencil { .. }, 0) => "in-buffer",
                (Workload::Stencil { .. }, _) => "out-buffer",
            },
            slot,
            tier: spec.placement,
            bytes,
        })
    })
}

/// Bytes of the buffers `spec` declares in `tier` ([`pipeline_buffers`]):
/// for [`Placement::Hbw`], the MCDRAM its plan holds resident — what G003
/// proves and an admission controller reserves. Every buffer is one chunk
/// in `spec.placement`, so the sum is a product; placement and stealing
/// ask it for every candidate node.
pub fn declared_bytes(spec: &PipelineSpec, tier: Placement) -> u64 {
    let (slots, bytes) = ring_of(spec);
    let buffers = slots as u64 * spec.buffers_per_slot();
    if tier == spec.placement {
        buffers.saturating_mul(bytes)
    } else {
        0
    }
}

/// The ring slots `spec`'s plan declares buffers for, and each buffer's
/// bytes (see [`pipeline_buffers`]).
fn ring_of(spec: &PipelineSpec) -> (usize, u64) {
    let slots = match spec.placement {
        Placement::Hbw | Placement::Ddr if spec.chunk_bytes > 0 => {
            spec.ring_slots().min(spec.n_chunks())
        }
        _ => 0,
    };
    (slots, spec.chunk_bytes.min(spec.total_bytes))
}

/// Lower the §3 chunk schedule of `spec` into a [`WorkloadPlan`].
///
/// This is the single place that knows which chunk each stage touches at
/// each step, which slot and buffers it occupies, and which dependencies
/// order the work — for every workload family and all three schedule
/// modes (lockstep, dataflow, implicit). [`crate::drive_verified()`] is
/// "build this plan, prove it, [`interpret`] it": the graph verifier
/// analyses the exact DAG and footprints written here.
pub fn plan_pipeline(spec: &PipelineSpec) -> WorkloadPlan {
    let n = spec.n_chunks();
    let ring = spec.ring_slots();
    let kernels = vec![match spec.workload {
        Workload::Map => KernelDesc {
            name: "map".into(),
            passes: spec.compute_passes,
            extra_read_bytes: 0,
        },
        Workload::Stencil { halo_bytes } => KernelDesc {
            name: "stencil".into(),
            passes: spec.compute_passes,
            extra_read_bytes: 2 * halo_bytes,
        },
    }];
    let buffers: Vec<PlanBuffer> = pipeline_buffers(spec).collect();
    let slots = buffers.len() / spec.buffers_per_slot() as usize;
    let mut plan = WorkloadPlan {
        family: spec.workload.family(),
        ring_slots: ring,
        chunks: n,
        kernels,
        nodes: Vec::new(),
        buffers,
        touches: Vec::new(),
    };

    // What a stage of chunk `c` touches. A map stage updates its slot's one
    // buffer in place. A stencil copy-in fills the slot's in-buffer; the
    // compute reads its own and both neighbours' in-buffers (the halos) and
    // writes its out-buffer, which the copy-out reads.
    let footprint = |kind: PlanKind, c: usize, out: &mut Vec<(BufferId, Access)>| {
        if slots == 0 {
            return;
        }
        let (input, output) = (|c: usize| c % ring, |c: usize| slots + c % ring);
        match (spec.workload, kind) {
            (Workload::Map, _) => out.push((input(c), Access::Write)),
            (Workload::Stencil { .. }, PlanKind::StageIn) => out.push((input(c), Access::Write)),
            (Workload::Stencil { .. }, PlanKind::Kernel) => {
                out.extend(
                    (c.saturating_sub(1)..=(c + 1).min(n - 1)).map(|h| (input(h), Access::Read)),
                );
                out.push((output(c), Access::Write));
            }
            (Workload::Stencil { .. }, PlanKind::StageOut) => out.push((output(c), Access::Read)),
            (Workload::Stencil { .. }, PlanKind::Barrier) => {}
        }
    };
    let push = |plan: &mut WorkloadPlan, kind: PlanKind, chunk: usize, deps: Vec<PlanEdge>| {
        let kernel = (kind == PlanKind::Kernel).then_some(0);
        let start = plan.touches.len();
        footprint(kind, chunk, &mut plan.touches);
        plan.nodes.push(PlanNode {
            kind,
            chunk: Some(chunk),
            slot: chunk % ring,
            kernel,
            len: spec.chunk_size(chunk),
            deps,
            footprint: start..plan.touches.len(),
        });
        plan.nodes.len() - 1
    };

    if spec.placement == Placement::Implicit {
        // Cache mode: no copies — one compute per chunk, all threads
        // advancing chunk by chunk behind a barrier.
        let mut barrier: Option<usize> = None;
        for c in 0..n {
            let deps = barrier
                .map(|b| vec![PlanEdge::new(b, EdgeKind::Seq)])
                .into_iter()
                .flatten()
                .collect();
            let comp = push(&mut plan, PlanKind::Kernel, c, deps);
            plan.nodes.push(PlanNode {
                kind: PlanKind::Barrier,
                chunk: None,
                slot: 0,
                kernel: None,
                len: 0,
                deps: vec![PlanEdge::new(comp, EdgeKind::Seq)],
                footprint: 0..0,
            });
            barrier = Some(plan.nodes.len() - 1);
        }
        return plan;
    }

    // Explicit staging. The schedule pipelines `ring - 2` stage distances:
    // with the classic 3-slot ring, step `s` stages in chunk `s`, computes
    // `s - 1`, drains `s - 2`; the stencil's 4-slot ring opens one more
    // step of pipeline distance (compute must wait for its *right* halo's
    // stage-in), so step `s` computes `s - 2` and drains `s - 3`.
    let (comp_lag, out_lag) = match spec.workload {
        Workload::Map => (1usize, 2usize),
        Workload::Stencil { .. } => (2, 3),
    };
    let mut stage_in: Vec<Option<usize>> = vec![None; n];
    let mut compute: Vec<Option<usize>> = vec![None; n];
    let mut stage_out: Vec<Option<usize>> = vec![None; n];
    let mut barrier: Option<usize> = None;
    let seq = |b: &Option<usize>| -> Vec<PlanEdge> {
        b.iter().map(|&i| PlanEdge::new(i, EdgeKind::Seq)).collect()
    };

    for s in 0..n + out_lag {
        let mut step_nodes: Vec<usize> = Vec::new();

        // Stage-in of chunk `s`.
        if s < n {
            let deps = if spec.lockstep {
                seq(&barrier)
            } else {
                match spec.workload {
                    // Slot s % 3 is free once chunk s - 3 has drained.
                    Workload::Map if s >= ring => vec![PlanEdge::new(
                        stage_out[s - ring].expect("drained in an earlier step"),
                        EdgeKind::Recycle,
                    )],
                    // Slot s % 4 held chunk s - 4, which computes
                    // s - 5, s - 4, and s - 3 all read (left halo, own
                    // chunk, right halo): the overwrite waits for every
                    // reader, not just the owner.
                    Workload::Stencil { .. } if s >= ring => ((s - ring).saturating_sub(1)
                        ..=(s - ring + 1).min(n - 1))
                        .filter_map(|c| compute[c])
                        .map(|i| PlanEdge::new(i, EdgeKind::Recycle))
                        .collect(),
                    _ => Vec::new(),
                }
            };
            stage_in[s] = Some(push(&mut plan, PlanKind::StageIn, s, deps));
            step_nodes.push(stage_in[s].unwrap());
        }

        // Compute on chunk `s - comp_lag`.
        if s >= comp_lag && s - comp_lag < n {
            let c = s - comp_lag;
            let deps = if spec.lockstep {
                seq(&barrier)
            } else {
                let mut deps = Vec::new();
                if let Workload::Stencil { .. } = spec.workload {
                    if c > 0 {
                        deps.push(PlanEdge::new(
                            stage_in[c - 1].expect("staged earlier"),
                            EdgeKind::Halo,
                        ));
                    }
                }
                deps.push(PlanEdge::new(
                    stage_in[c].expect("staged earlier"),
                    EdgeKind::Data,
                ));
                if let Workload::Stencil { .. } = spec.workload {
                    if c + 1 < n {
                        deps.push(PlanEdge::new(
                            stage_in[c + 1].expect("staged this step or earlier"),
                            EdgeKind::Halo,
                        ));
                    }
                    // The output buffer of slot c % 4 is free once chunk
                    // c - 4 has drained.
                    if c >= ring {
                        deps.push(PlanEdge::new(
                            stage_out[c - ring].expect("drained earlier"),
                            EdgeKind::Recycle,
                        ));
                    }
                }
                deps
            };
            compute[c] = Some(push(&mut plan, PlanKind::Kernel, c, deps));
            step_nodes.push(compute[c].unwrap());
        }

        // Stage-out of chunk `s - out_lag`.
        if s >= out_lag && s - out_lag < n {
            let c = s - out_lag;
            let deps = if spec.lockstep {
                seq(&barrier)
            } else {
                vec![PlanEdge::new(
                    compute[c].expect("computed earlier"),
                    EdgeKind::Data,
                )]
            };
            stage_out[c] = Some(push(&mut plan, PlanKind::StageOut, c, deps));
            step_nodes.push(stage_out[c].unwrap());
        }

        if spec.lockstep && !step_nodes.is_empty() {
            plan.nodes.push(PlanNode {
                kind: PlanKind::Barrier,
                chunk: None,
                slot: 0,
                kernel: None,
                len: 0,
                deps: step_nodes
                    .iter()
                    .map(|&i| PlanEdge::new(i, EdgeKind::Seq))
                    .collect(),
                footprint: 0..0,
            });
            barrier = Some(plan.nodes.len() - 1);
        }
    }

    plan
}

/// Interpret a plan over a [`Backend`]: issue every node in plan order,
/// mapping edges to the tokens the backend handed back, and close
/// lockstep steps at barrier nodes. This is the *only* executor plans
/// have — every backend (host pools, the simulator, the host and
/// simulated sorts, recorders) sees the identical node/dependency
/// stream, whether the plan is a chunk pipeline or a sort.
pub fn interpret<B: Backend>(
    backend: &mut B,
    ctx: &B::Ctx,
    plan: &WorkloadPlan,
) -> Result<(), DriveError> {
    let mut tokens: Vec<B::Token> = Vec::with_capacity(plan.nodes.len());
    for (i, node) in plan.nodes.iter().enumerate() {
        let mut deps = Vec::with_capacity(node.deps.len());
        for e in &node.deps {
            if e.from >= i {
                return Err(DriveError::Protocol {
                    op: node.kind.stage().unwrap_or(Stage::Compute),
                    chunk: node.chunk.unwrap_or(0),
                    detail: format!("plan edge {} -> {i} points forward", e.from),
                });
            }
            deps.push(tokens[e.from].clone());
        }
        let token = match node.kind {
            PlanKind::Barrier => backend.step_barrier(ctx, &deps),
            _ => backend.issue(ctx, plan, node, &deps),
        };
        tokens.push(token);
    }
    backend.finish(ctx).map_err(DriveError::Backend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{RING_SLOTS, STENCIL_RING_SLOTS};

    fn spec(n_chunks: u64, lockstep: bool, workload: Workload) -> PipelineSpec {
        PipelineSpec {
            total_bytes: n_chunks * 64,
            chunk_bytes: 64,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep,
            data_addr: 0,
            workload,
        }
    }

    fn stencil() -> Workload {
        Workload::Stencil { halo_bytes: 16 }
    }

    #[test]
    fn plans_validate_for_all_modes_and_families() {
        for lockstep in [true, false] {
            for workload in [Workload::Map, stencil()] {
                for n in [1, 2, 5, 9] {
                    let p = plan_pipeline(&spec(n, lockstep, workload));
                    p.validate()
                        .unwrap_or_else(|e| panic!("{workload:?} lockstep={lockstep} n={n}: {e}"));
                    assert_eq!(p.chunks, n as usize);
                }
            }
        }
        let mut s = spec(4, true, Workload::Map);
        s.placement = Placement::Implicit;
        plan_pipeline(&s).validate().unwrap();
        // A footprint naming an undeclared buffer is refused.
        let mut p = plan_pipeline(&spec(4, false, Workload::Map));
        p.touches[0].0 = p.buffers.len();
        assert!(p.validate().unwrap_err().contains("undeclared buffer"));
    }

    #[test]
    fn map_plan_matches_the_paper_schedule() {
        let p = plan_pipeline(&spec(5, false, Workload::Map));
        assert_eq!(p.family, "map");
        assert_eq!(p.ring_slots, RING_SLOTS);
        // Compute waits on its own stage-in; stage-in of chunk 3 recycles
        // chunk 0's slot.
        let comp2 = p.find(PlanKind::Kernel, 2).unwrap();
        assert_eq!(p.nodes[comp2].deps.len(), 1);
        assert_eq!(p.nodes[comp2].deps[0].kind, EdgeKind::Data);
        let in3 = p.find(PlanKind::StageIn, 3).unwrap();
        assert_eq!(p.nodes[in3].deps.len(), 1);
        assert_eq!(p.nodes[in3].deps[0].kind, EdgeKind::Recycle);
        assert_eq!(
            p.nodes[p.nodes[in3].deps[0].from].chunk,
            Some(0),
            "slot 0 is freed by chunk 0's drain"
        );
    }

    #[test]
    fn stencil_plan_has_halo_edges_and_a_deeper_ring() {
        let p = plan_pipeline(&spec(6, false, stencil()));
        assert_eq!(p.family, "stencil");
        assert_eq!(p.ring_slots, STENCIL_RING_SLOTS);
        assert_eq!(p.kernels[0].extra_read_bytes, 32);

        // An interior compute reads left halo, own chunk, right halo, and
        // recycles the out-buffer of chunk c - 4.
        let comp4 = p.find(PlanKind::Kernel, 4).unwrap();
        let kinds: Vec<EdgeKind> = p.nodes[comp4].deps.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                EdgeKind::Halo,
                EdgeKind::Data,
                EdgeKind::Halo,
                EdgeKind::Recycle
            ]
        );
        let dep_chunks: Vec<Option<usize>> = p.nodes[comp4]
            .deps
            .iter()
            .map(|e| p.nodes[e.from].chunk)
            .collect();
        assert_eq!(dep_chunks, vec![Some(3), Some(4), Some(5), Some(0)]);

        // Boundary computes drop the missing halo.
        let comp0 = p.find(PlanKind::Kernel, 0).unwrap();
        let kinds: Vec<EdgeKind> = p.nodes[comp0].deps.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![EdgeKind::Data, EdgeKind::Halo]);

        // Stage-in of chunk 4 (slot 0) waits for every reader of chunk 0:
        // its own compute plus the left-halo read of compute 1 (compute
        // -1 does not exist).
        let in4 = p.find(PlanKind::StageIn, 4).unwrap();
        let readers: Vec<Option<usize>> = p.nodes[in4]
            .deps
            .iter()
            .map(|e| p.nodes[e.from].chunk)
            .collect();
        assert_eq!(readers, vec![Some(0), Some(1)]);
        assert!(p.nodes[in4]
            .deps
            .iter()
            .all(|e| e.kind == EdgeKind::Recycle));
    }

    #[test]
    fn stencil_lockstep_plan_barriers_every_nonempty_step() {
        let p = plan_pipeline(&spec(5, true, stencil()));
        let barriers = p
            .nodes
            .iter()
            .filter(|n| n.kind == PlanKind::Barrier)
            .count();
        // Steps 0..n+3 all carry at least one action for n = 5.
        assert_eq!(barriers, 8);
        // Every non-barrier node after the first barrier depends on one.
        for (i, node) in p.nodes.iter().enumerate() {
            if node.kind == PlanKind::Barrier || i == 0 {
                continue;
            }
            assert!(
                node.deps
                    .iter()
                    .all(|e| p.nodes[e.from].kind == PlanKind::Barrier),
                "node {i} must only depend on barriers under lockstep"
            );
        }
    }

    #[test]
    fn declared_bytes_by_placement() {
        let mut s = spec(4, false, Workload::Map);
        assert_eq!(declared_bytes(&s, Placement::Hbw), 3 * 64);
        assert_eq!(declared_bytes(&s, Placement::Ddr), 0);
        s.placement = Placement::Ddr;
        assert_eq!(declared_bytes(&s, Placement::Ddr), 3 * 64);
        s.placement = Placement::Implicit;
        assert_eq!(pipeline_buffers(&s).count(), 0);

        // Two chunks of a four-slot stencil ring hold two slots' in- and
        // out-buffers; a chunk larger than the data holds the data.
        let t = spec(2, false, stencil());
        assert_eq!(declared_bytes(&t, Placement::Hbw), 2 * 2 * 64);
        let mut u = spec(1, false, Workload::Map);
        u.chunk_bytes = 1000;
        assert_eq!(declared_bytes(&u, Placement::Hbw), 64);
        for s in [t, u] {
            let declared: Vec<PlanBuffer> = pipeline_buffers(&s).collect();
            let sum = declared.iter().map(|b| b.bytes).sum();
            assert_eq!(declared_bytes(&s, Placement::Hbw), sum);
            assert_eq!(plan_pipeline(&s).buffers, declared);
        }
    }

    #[test]
    fn ragged_tail_lands_in_the_last_chunk_len() {
        let mut s = spec(4, false, stencil());
        s.total_bytes = 4 * 64 - 24;
        let p = plan_pipeline(&s);
        let in3 = p.find(PlanKind::StageIn, 3).unwrap();
        assert_eq!(p.nodes[in3].len, 40);
    }
}
