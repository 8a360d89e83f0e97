//! Schedule fuzzing: execute the plan with seed-controlled adversarial
//! execution orders and check the outcome against ground truth.
//!
//! `mlm-verify`'s model checker proves hand-built *models* of the ring and
//! condvar protocols; this module closes the model-vs-code gap from the
//! other side by executing the *actual* schedule — the [`WorkloadPlan`]
//! [`plan_pipeline`] builds and [`crate::drive`] interprets, with every
//! dependency edge, barrier, and ring-slot assignment — under adversarial
//! interleavings (see DESIGN.md S21):
//!
//! * [`run_case`] builds the plan once and executes it with a
//!   deterministic PRNG choosing which ready node runs next — reordering
//!   ready dependencies, delaying and batching completions, and
//!   perturbing barrier interleavings. Seed in, trace out: the same seed
//!   always replays the same schedule.
//! * The chunk-granular ring model is [`SlotModel`] (one value per chunk,
//!   a phase machine over the plan's ring slots), shared with the analyzer:
//!   copy-in requires a free slot, compute a loaded one, copy-out a
//!   computed one, and final outputs must be bit-identical to the
//!   lockstep/NullBackend ground truth (the natural-order walk of the
//!   very same plan, which [`ground_truth`] computes in closed form).
//! * [`FaultPlan`] injects backend misbehaviour — a kernel panic
//!   poisoning its slot mid-ring, a completion reported twice, a
//!   completion never reported — and the checker must either drain
//!   cleanly (poison) or call the violation ([`Violation`]). Fault
//!   entries are validated against the plan: addressing a
//!   `(stage, chunk)` the schedule never issues is a
//!   [`DriveError::Spec`], not a silent no-op.
//! * [`Construction`] selects deliberately-broken executors — the five
//!   buggy constructions of mlm-verify's must-fail catalogue. The
//!   executor here and [`crate::graph::analyze`] both match on it (the
//!   edge-dropping ones drop the [`EdgeKind`](crate::plan::EdgeKind) they name through one edge
//!   filter), so the fuzzer finds each bug ([`Violation`]) within a
//!   committed seed and the analyzer flags it statically.
//! * On a failure, [`shrink`] minimizes the decision trace to a short
//!   replayable `seed + decision list` regression ([`Finding`]).
//!
//! Nothing here runs real threads: the adversarial executor explores the
//! *schedule space* the dependency edges permit, so a clean fuzz run
//! means the plan's declared dependencies are sufficient — any
//! backend that honours them is race-free at the schedule level.

use std::collections::BTreeSet;
use std::fmt;

use crate::backend::{ChunkAction, Stage};
use crate::error::DriveError;
use crate::graph::{effective_deps, SlotError, SlotModel};
use crate::placement::Placement;
use crate::plan::{plan_pipeline, PlanNode, WorkloadPlan};
use crate::spec::{PipelineSpec, Workload};

// ---------------------------------------------------------------------------
// Deterministic PRNG
// ---------------------------------------------------------------------------

/// SplitMix64: tiny, fast, deterministic. Good enough to pick schedule
/// orders; never used for anything cryptographic.
#[derive(Debug, Clone)]
pub struct SplitMix64(u64);

impl SplitMix64 {
    /// Seed the generator.
    pub fn new(seed: u64) -> Self {
        SplitMix64(seed)
    }

    /// Next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        scramble(self.0)
    }
}

/// The SplitMix64 output scrambler, reused as the fuzz kernel's mixing
/// function (one "compute pass" over a chunk value).
fn scramble(x: u64) -> u64 {
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The modeled input value of chunk `c` (deterministic, schedule-free).
fn chunk_input(c: usize) -> u64 {
    scramble(0xC0FF_EE00 ^ c as u64)
}

/// The modeled kernel: `compute_passes` scramble rounds over the value.
fn apply_kernel(v: u64, passes: u32) -> u64 {
    (0..passes).fold(v, |acc, _| scramble(acc))
}

/// The modeled stencil combine: fold the two neighbour halo values into
/// the chunk's own before the compute passes. Asymmetric rotations keep
/// it order-sensitive, so reading a stale or missing neighbour (the bug
/// class the halo edges exist to prevent) always changes the output.
fn stencil_mix(left: u64, mid: u64, right: u64) -> u64 {
    scramble(mid ^ left.rotate_left(8) ^ right.rotate_right(8))
}

/// Ground truth for chunk `c` of `spec`: what any correct execution of
/// the schedule must deliver. Identical to walking the plan in natural
/// (issue) order — the lockstep/NullBackend reference — because the
/// kernel model is positional and pure. Stencil chunks fold in both
/// neighbours' inputs (zero sentinels past the boundary) before the
/// compute passes, mirroring the halo reads of the real kernel.
pub fn ground_truth(spec: &PipelineSpec, c: usize) -> u64 {
    match spec.workload {
        Workload::Map => apply_kernel(chunk_input(c), spec.compute_passes),
        Workload::Stencil { .. } => {
            let left = if c > 0 { chunk_input(c - 1) } else { 0 };
            let right = if c + 1 < spec.n_chunks() {
                chunk_input(c + 1)
            } else {
                0
            };
            apply_kernel(
                stencil_mix(left, chunk_input(c), right),
                spec.compute_passes,
            )
        }
    }
}

// ---------------------------------------------------------------------------
// Decision tape
// ---------------------------------------------------------------------------

/// Where schedule decisions come from: a seed (recording mode) or a
/// previously recorded decision list (replay / shrinking mode).
#[derive(Debug, Clone)]
pub enum TapeSource {
    /// Decisions drawn from [`SplitMix64`] seeded with the value.
    Seed(u64),
    /// Decisions replayed from the list; past its end the executor picks
    /// index 0 (natural order), so a trace shrinks by truncation.
    Replay(Vec<u32>),
}

/// Seed-or-replay decision stream. Only *free* choices (ready sets larger
/// than one) consume and record a decision, which keeps traces short and
/// stable under shrinking.
#[derive(Debug, Clone)]
struct DecisionTape {
    source: TapeSource,
    rng: SplitMix64,
    pos: usize,
    recorded: Vec<u32>,
}

impl DecisionTape {
    fn new(source: TapeSource) -> Self {
        let rng = match &source {
            TapeSource::Seed(s) => SplitMix64::new(*s),
            TapeSource::Replay(_) => SplitMix64::new(0),
        };
        DecisionTape {
            source,
            rng,
            pos: 0,
            recorded: Vec::new(),
        }
    }

    /// Pick an index in `0..n`. `n == 1` is forced and recorded nowhere.
    fn next(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        if n == 1 {
            return 0;
        }
        let pick = match &self.source {
            TapeSource::Seed(_) => (self.rng.next_u64() % n as u64) as u32,
            TapeSource::Replay(tape) => {
                let v = tape.get(self.pos).copied().unwrap_or(0);
                self.pos += 1;
                v % n as u32
            }
        };
        self.recorded.push(pick);
        pick as usize
    }
}

// ---------------------------------------------------------------------------
// Fault taxonomy and buggy constructions
// ---------------------------------------------------------------------------

/// Backend misbehaviour to inject into one run. Faults address actions by
/// `(stage, chunk)` so they survive shrinking (node ids shift, schedule
/// positions do not); [`validate_faults`] rejects entries the schedule
/// never issues.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// The kernel panics while computing this chunk, poisoning its ring
    /// slot. A correct executor must cancel exactly the transitive
    /// dependents and drain everything else ([`Outcome::Poisoned`]).
    pub kernel_panic: Option<usize>,
    /// The backend reports this action's completion twice; the checker
    /// must flag [`Violation::DoubleCompletion`].
    pub double_complete: Option<(Stage, usize)>,
    /// The backend never reports this action's completion; the checker
    /// must flag the resulting [`Violation::Deadlock`].
    pub lost_complete: Option<(Stage, usize)>,
}

impl FaultPlan {
    /// No faults.
    pub const NONE: FaultPlan = FaultPlan {
        kernel_panic: None,
        double_complete: None,
        lost_complete: None,
    };
}

/// Check every fault entry against the plan: a fault addressing a
/// `(stage, chunk)` the schedule never issues would silently never fire,
/// so the run would "pass" without testing anything. The harness surfaces
/// this as [`DriveError::Spec`].
pub fn validate_faults(plan: &WorkloadPlan, faults: &FaultPlan) -> Result<(), String> {
    let check = |what: &str, stage: Stage, chunk: usize| -> Result<(), String> {
        let issued = plan
            .nodes
            .iter()
            .filter_map(PlanNode::action)
            .any(|a| a.stage == stage && a.chunk == chunk);
        if !issued {
            return Err(format!(
                "{what} fault addresses {stage:?} of chunk {chunk}, \
                 which the schedule never issues"
            ));
        }
        Ok(())
    };
    if let Some(k) = faults.kernel_panic {
        check("kernel_panic", Stage::Compute, k)?;
    }
    if let Some((stage, chunk)) = faults.double_complete {
        check("double_complete", stage, chunk)?;
    }
    if let Some((stage, chunk)) = faults.lost_complete {
        check("lost_complete", stage, chunk)?;
    }
    Ok(())
}

/// How the executor honours the plan's dependency edges. `Correct` is
/// the shipped semantics; the other five are the deliberately broken
/// executors of mlm-verify's must-fail catalogue, one per bug class. Both
/// the fuzzer's executor and the static analyzer ([`crate::graph`]) match
/// on this enum, so a bug is named once and caught at both layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// Honour every dependency edge; poison cancels dependents.
    Correct,
    /// Ignore the buffer-recycling edges (copy-out → copy-in for maps):
    /// a later chunk's copy-in lands on a slot that still holds live
    /// data. The fuzzer finds a slot overwritten while still occupied.
    DropRecycleDep,
    /// After a kernel panic, keep scheduling the panicked chunk's
    /// dependents as if the compute had completed — the `PoisonSkipLock`
    /// condvar regression. The fuzzer finds work touching a poisoned slot.
    PoisonSkipLock,
    /// A completion wakes only its *first* dependent; later waiters lose
    /// the wakeup — the `NotifyOne` condvar regression. The fuzzer finds
    /// the resulting deadlock.
    NotifyOne,
    /// A node becomes runnable on its *first* dependency's completion
    /// without rechecking the rest — the `NoRecheck` condvar regression.
    /// The fuzzer finds premature execution breaking the ring.
    NoRecheck,
    /// Ignore the inter-chunk halo edges (neighbour copy-in → compute) a
    /// stencil plan emits: the kernel runs before its neighbour's
    /// boundary bytes landed and folds in stale or missing halo data.
    /// The fuzzer finds the resulting wrong output. A no-op for the map
    /// family, whose plans carry no halo edges.
    DropHaloDep,
}

impl Construction {
    /// Every construction, `Correct` first.
    pub const ALL: [Construction; 6] = [
        Construction::Correct,
        Construction::DropRecycleDep,
        Construction::PoisonSkipLock,
        Construction::NotifyOne,
        Construction::NoRecheck,
        Construction::DropHaloDep,
    ];

    /// The construction whose [`name`](Self::name) is `name`.
    pub fn from_name(name: &str) -> Option<Construction> {
        Construction::ALL.into_iter().find(|c| c.name() == name)
    }

    /// Stable name for traces and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Construction::Correct => "correct",
            Construction::DropRecycleDep => "drop-recycle-dep",
            Construction::PoisonSkipLock => "poison-skip-lock",
            Construction::NotifyOne => "notify-one",
            Construction::NoRecheck => "no-recheck",
            Construction::DropHaloDep => "drop-halo-dep",
        }
    }
}

// ---------------------------------------------------------------------------
// Violations and outcomes
// ---------------------------------------------------------------------------

/// An invariant the adversarial execution broke.
#[derive(Debug, Clone, PartialEq)]
pub enum Violation {
    /// An action ran against a ring slot in the wrong phase (overwrite of
    /// a live slot, compute on an unloaded slot, copy-out of stale data).
    SlotClash {
        /// The offending action.
        action: ChunkAction,
        /// Human-readable slot state at the time.
        state: String,
    },
    /// An action ran against a slot poisoned by a kernel panic.
    PoisonTouched {
        /// The offending action.
        action: ChunkAction,
    },
    /// A completion was reported for an already-completed node.
    DoubleCompletion {
        /// Graph node id.
        node: usize,
    },
    /// No node is ready but uncancelled work remains.
    Deadlock {
        /// Number of stuck nodes.
        pending: usize,
        /// The first stuck action, if any (barriers are anonymous).
        first: Option<ChunkAction>,
    },
    /// A chunk's final output differs from ground truth.
    WrongOutput {
        /// Chunk index.
        chunk: usize,
        /// What the execution produced (`None`: never written).
        got: Option<u64>,
        /// The ground-truth value.
        want: u64,
    },
}

impl Violation {
    /// Coarse class used by the shrinker to decide "still the same bug".
    pub fn kind(&self) -> &'static str {
        match self {
            Violation::SlotClash { .. } => "slot-clash",
            Violation::PoisonTouched { .. } => "poison-touched",
            Violation::DoubleCompletion { .. } => "double-completion",
            Violation::Deadlock { .. } => "deadlock",
            Violation::WrongOutput { .. } => "wrong-output",
        }
    }

    fn from_slot_error(e: SlotError) -> Violation {
        match e {
            SlotError::Clash { action, state } => Violation::SlotClash { action, state },
            SlotError::Poisoned { action } => Violation::PoisonTouched { action },
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::SlotClash { action, state } => write!(
                f,
                "{:?} of chunk {} hit slot {} in state {state}",
                action.stage, action.chunk, action.slot
            ),
            Violation::PoisonTouched { action } => write!(
                f,
                "{:?} of chunk {} touched a poisoned slot {}",
                action.stage, action.chunk, action.slot
            ),
            Violation::DoubleCompletion { node } => {
                write!(f, "node {node} completed twice")
            }
            Violation::Deadlock { pending, first } => match first {
                Some(a) => write!(
                    f,
                    "deadlock: {pending} nodes stuck, first is {:?} of chunk {}",
                    a.stage, a.chunk
                ),
                None => write!(f, "deadlock: {pending} nodes stuck"),
            },
            Violation::WrongOutput { chunk, got, want } => write!(
                f,
                "chunk {chunk} output {got:?} != ground truth {want:#018x}"
            ),
        }
    }
}

/// How one fuzzed execution ended.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Every node completed and every chunk's output is bit-identical to
    /// ground truth.
    Ok,
    /// An injected kernel panic drained cleanly: its transitive
    /// dependents (and only those) were cancelled, everything else
    /// completed, and every completed copy-out wrote the right bits.
    Poisoned {
        /// The chunk whose kernel panicked.
        chunk: usize,
        /// Nodes cancelled by the poison.
        cancelled: usize,
    },
    /// An invariant broke.
    Violation(Violation),
}

impl Outcome {
    /// The violation, if this outcome is one.
    pub fn violation(&self) -> Option<&Violation> {
        match self {
            Outcome::Violation(v) => Some(v),
            _ => None,
        }
    }
}

// ---------------------------------------------------------------------------
// Fuzz cases and runs
// ---------------------------------------------------------------------------

/// One case the fuzzer exercises: a spec plus the executor construction
/// and fault plan to run it under.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Display name (goes into findings).
    pub name: String,
    /// The schedule to fuzz.
    pub spec: PipelineSpec,
    /// Executor construction ([`Construction::Correct`] for real fuzzing;
    /// a buggy variant for regression seeds).
    pub construction: Construction,
    /// Injected backend misbehaviour.
    pub faults: FaultPlan,
}

impl FuzzCase {
    /// A correct, fault-free case over `spec`.
    pub fn clean(name: impl Into<String>, spec: PipelineSpec) -> Self {
        FuzzCase {
            name: name.into(),
            spec,
            construction: Construction::Correct,
            faults: FaultPlan::NONE,
        }
    }
}

/// The result of one fuzzed execution: the outcome plus the decision
/// trace that reproduces it via [`TapeSource::Replay`].
#[derive(Debug, Clone)]
pub struct FuzzRun {
    /// How the execution ended.
    pub outcome: Outcome,
    /// Every free schedule decision taken, in order.
    pub decisions: Vec<u32>,
}

// ---------------------------------------------------------------------------
// The adversarial executor
// ---------------------------------------------------------------------------

/// The value model for the stencil family's split per-slot buffers.
///
/// Unlike the map family's [`SlotModel`] phase machine, this model is
/// deliberately *permissive*: loads overwrite whatever is resident and
/// computes read whatever the three in-slots currently hold. A schedule
/// that violates the halo or recycling edges therefore doesn't trip an
/// immediate clash — it silently folds stale (or missing) neighbour data
/// into the output, which the end-of-run ground-truth comparison flags as
/// [`Violation::WrongOutput`]. That is exactly the failure mode a real
/// stencil kernel has: no fault, just wrong boundary bytes.
struct StencilModel {
    /// `(resident chunk, staged input value)` per in-buffer slot.
    in_slots: Vec<Option<(usize, u64)>>,
    /// `(computed chunk, output value)` per out-buffer slot.
    out_slots: Vec<Option<(usize, u64)>>,
}

impl StencilModel {
    fn new(slots: usize) -> Self {
        StencilModel {
            in_slots: vec![None; slots],
            out_slots: vec![None; slots],
        }
    }

    /// The value a compute of `chunk` reads for neighbour offset
    /// `delta` ∈ {-1, 0, +1}: whatever its ring slot holds right now,
    /// the zero sentinel past the boundary, or zero when nothing landed.
    fn halo_read(&self, chunk: usize, delta: i64, n_chunks: usize) -> u64 {
        let Some(c) = chunk
            .checked_add_signed(delta as isize)
            .filter(|&c| c < n_chunks)
        else {
            return 0;
        };
        self.in_slots[c % self.in_slots.len()]
            .map(|(_, v)| v)
            .unwrap_or(0)
    }
}

struct Executor<'a> {
    plan: &'a WorkloadPlan,
    spec: &'a PipelineSpec,
    case: &'a FuzzCase,
    dependents: Vec<Vec<usize>>,
    remaining: Vec<usize>,
    completed: Vec<bool>,
    executed: Vec<bool>,
    cancelled: Vec<bool>,
    notified: Vec<bool>,
    ready: BTreeSet<usize>,
    ring: SlotModel,
    stencil: Option<StencilModel>,
    output: Vec<Option<u64>>,
    poisoned_chunk: Option<usize>,
}

impl<'a> Executor<'a> {
    fn new(plan: &'a WorkloadPlan, spec: &'a PipelineSpec, case: &'a FuzzCase) -> Self {
        let n = plan.nodes.len();
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n];
        let mut remaining = vec![0usize; n];
        for (i, deps) in effective_deps(plan, case.construction).iter().enumerate() {
            for &d in deps {
                dependents[d].push(i);
            }
            remaining[i] = deps.len();
        }
        let ready: BTreeSet<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
        let stencil = matches!(spec.workload, Workload::Stencil { .. })
            .then(|| StencilModel::new(plan.ring_slots));
        Executor {
            plan,
            spec,
            case,
            dependents,
            remaining,
            completed: vec![false; n],
            executed: vec![false; n],
            cancelled: vec![false; n],
            notified: vec![false; n],
            ready,
            ring: SlotModel::new(plan.ring_slots),
            stencil,
            output: vec![None; spec.n_chunks()],
            poisoned_chunk: None,
        }
    }

    fn run(mut self, tape: &mut DecisionTape) -> Outcome {
        loop {
            if self.ready.is_empty() {
                let pending: Vec<usize> = (0..self.plan.nodes.len())
                    .filter(|&i| !self.executed[i] && !self.cancelled[i])
                    .collect();
                if pending.is_empty() {
                    return self.finish();
                }
                return Outcome::Violation(Violation::Deadlock {
                    pending: pending.len(),
                    first: pending.iter().find_map(|&i| self.plan.nodes[i].action()),
                });
            }

            // The adversarial choice: which ready node runs next.
            let pick = tape.next(self.ready.len());
            let node = *self.ready.iter().nth(pick).expect("pick < len");
            self.ready.remove(&node);
            self.executed[node] = true;

            let action = self.plan.nodes[node].action();
            let mut panicked = false;
            if let Some(a) = action {
                match self.apply(a) {
                    Ok(p) => panicked = p,
                    Err(v) => return Outcome::Violation(v),
                }
            }

            if panicked {
                // PoisonSkipLock pretends the panicked compute completed
                // normally; everything else cancels the transitive
                // dependents (the poison-drain contract).
                if self.case.construction == Construction::PoisonSkipLock {
                    if let Err(v) = self.complete(node) {
                        return Outcome::Violation(v);
                    }
                } else {
                    self.cancel_dependents(node);
                }
                continue;
            }

            let fault_here = |f: Option<(Stage, usize)>| {
                matches!(
                    (f, action),
                    (Some((stage, chunk)), Some(a))
                        if a.stage == stage && a.chunk == chunk
                )
            };

            if fault_here(self.case.faults.lost_complete) {
                // The completion is never reported: dependents starve.
                continue;
            }
            if let Err(v) = self.complete(node) {
                return Outcome::Violation(v);
            }
            if fault_here(self.case.faults.double_complete) {
                if let Err(v) = self.complete(node) {
                    return Outcome::Violation(v);
                }
            }
        }
    }

    /// Apply one action to the ring/output model. `Ok(true)` means the
    /// kernel panicked (fault injection); `Err` is a violation.
    fn apply(&mut self, a: ChunkAction) -> Result<bool, Violation> {
        if self.spec.placement == Placement::Implicit {
            // No ring in implicit mode: compute touches the data in place.
            debug_assert_eq!(a.stage, Stage::Compute);
            if self.case.faults.kernel_panic == Some(a.chunk) {
                self.poisoned_chunk = Some(a.chunk);
                return Ok(true);
            }
            self.output[a.chunk] = Some(ground_truth(self.spec, a.chunk));
            return Ok(false);
        }
        let panic_here =
            a.stage == Stage::Compute && self.case.faults.kernel_panic == Some(a.chunk);
        if let Some(model) = &mut self.stencil {
            // Permissive split-buffer model: violations surface as wrong
            // outputs at finish, not as immediate clashes (see
            // [`StencilModel`]).
            match a.stage {
                Stage::CopyIn => {
                    model.in_slots[a.slot] = Some((a.chunk, chunk_input(a.chunk)));
                }
                Stage::Compute if panic_here => {
                    model.out_slots[a.slot] = None;
                    self.poisoned_chunk = Some(a.chunk);
                    return Ok(true);
                }
                Stage::Compute => {
                    let n = self.spec.n_chunks();
                    let mixed = stencil_mix(
                        model.halo_read(a.chunk, -1, n),
                        model.halo_read(a.chunk, 0, n),
                        model.halo_read(a.chunk, 1, n),
                    );
                    model.out_slots[a.slot] =
                        Some((a.chunk, apply_kernel(mixed, self.spec.compute_passes)));
                }
                Stage::CopyOut => {
                    if let Some((_, v)) = model.out_slots[a.slot].take() {
                        self.output[a.chunk] = Some(v);
                    }
                }
            }
            return Ok(false);
        }
        let result = match a.stage {
            Stage::CopyIn => self.ring.load(a, chunk_input(a.chunk)).map(|()| false),
            Stage::Compute if panic_here => self.ring.poison(a).map(|()| {
                self.poisoned_chunk = Some(a.chunk);
                true
            }),
            Stage::Compute => self
                .ring
                .compute(a, |v| apply_kernel(v, self.spec.compute_passes))
                .map(|()| false),
            Stage::CopyOut => self.ring.drain(a).map(|v| {
                self.output[a.chunk] = Some(v);
                false
            }),
        };
        result.map_err(Violation::from_slot_error)
    }

    /// Report `node` complete, waking dependents per the construction.
    fn complete(&mut self, node: usize) -> Result<(), Violation> {
        if self.completed[node] {
            return Err(Violation::DoubleCompletion { node });
        }
        self.completed[node] = true;
        let construction = self.case.construction;
        for (k, &d) in self.dependents[node].iter().enumerate() {
            if self.cancelled[d] || self.executed[d] {
                continue;
            }
            // NotifyOne: only the first dependent hears the completion.
            if construction == Construction::NotifyOne && k > 0 {
                continue;
            }
            self.remaining[d] -= 1;
            // NoRecheck: the first notification makes the node runnable,
            // remaining dependencies unchecked.
            let wake = if construction == Construction::NoRecheck {
                !self.notified[d]
            } else {
                self.remaining[d] == 0
            };
            self.notified[d] = true;
            if wake {
                self.ready.insert(d);
            }
        }
        Ok(())
    }

    /// Cancel everything transitively depending on `node` (the clean
    /// poison-drain semantics).
    fn cancel_dependents(&mut self, node: usize) {
        let mut stack = vec![node];
        while let Some(n) = stack.pop() {
            for &d in &self.dependents[n] {
                if !self.cancelled[d] && !self.executed[d] {
                    self.cancelled[d] = true;
                    self.ready.remove(&d);
                    stack.push(d);
                }
            }
        }
    }

    /// End-of-run verdict once no work is left.
    fn finish(self) -> Outcome {
        if let Some(chunk) = self.poisoned_chunk {
            // Clean poison-drain: completed copy-outs still wrote the
            // right bits, and nothing cancelled ever ran.
            for (c, got) in self.output.iter().enumerate() {
                if let Some(v) = got {
                    if *v != ground_truth(self.spec, c) {
                        return Outcome::Violation(Violation::WrongOutput {
                            chunk: c,
                            got: Some(*v),
                            want: ground_truth(self.spec, c),
                        });
                    }
                }
            }
            let cancelled = self.cancelled.iter().filter(|&&c| c).count();
            return Outcome::Poisoned { chunk, cancelled };
        }
        for (c, got) in self.output.iter().enumerate() {
            let want = ground_truth(self.spec, c);
            if *got != Some(want) {
                return Outcome::Violation(Violation::WrongOutput {
                    chunk: c,
                    got: *got,
                    want,
                });
            }
        }
        Outcome::Ok
    }
}

// ---------------------------------------------------------------------------
// Harness: seeded runs, corpus sweeps, shrinking
// ---------------------------------------------------------------------------

/// Run `case` once with decisions from `source`: validate the spec, build
/// its plan once, check the fault plan against it, then execute the plan
/// adversarially.
///
/// Errors are real harness misuse: an invalid spec or a [`FaultPlan`]
/// addressing an action the schedule never issues (both
/// [`DriveError::Spec`]). Violations the adversarial execution finds are
/// *not* errors here — they come back in [`FuzzRun::outcome`].
pub fn run_case(case: &FuzzCase, source: TapeSource) -> Result<FuzzRun, DriveError> {
    case.spec.validate().map_err(DriveError::Spec)?;
    let plan = plan_pipeline(&case.spec);
    validate_faults(&plan, &case.faults).map_err(DriveError::Spec)?;
    let mut tape = DecisionTape::new(source);
    let outcome = Executor::new(&plan, &case.spec, case).run(&mut tape);
    Ok(FuzzRun {
        outcome,
        decisions: tape.recorded,
    })
}

/// Run `case` once with the seeded adversarial schedule.
pub fn fuzz_seed(case: &FuzzCase, seed: u64) -> Result<FuzzRun, DriveError> {
    run_case(case, TapeSource::Seed(seed))
}

/// Replay a recorded (possibly shrunk) decision trace.
pub fn replay(case: &FuzzCase, trace: &[u32]) -> Result<FuzzRun, DriveError> {
    run_case(case, TapeSource::Replay(trace.to_vec()))
}

/// A reproducible fuzz failure: the seed that found it, the shrunk
/// decision trace that replays it, and the violation.
#[derive(Debug, Clone)]
pub struct Finding {
    /// The fuzz case the failure occurred in.
    pub case_name: String,
    /// Seed whose schedule first exposed the violation.
    pub seed: u64,
    /// Minimized decision list; replay with [`TapeSource::Replay`].
    pub shrunk: Vec<u32>,
    /// The (re-confirmed, post-shrink) violation.
    pub violation: Violation,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "fuzz finding in {}: seed={}", self.case_name, self.seed)?;
        writeln!(f, "  violation: {}", self.violation)?;
        write!(
            f,
            "  shrunk trace ({} decisions): {:?}",
            self.shrunk.len(),
            self.shrunk
        )
    }
}

/// Minimize a failing decision trace: find a shorter/lower trace whose
/// replay still produces a violation of the same kind. Deterministic and
/// greedy — truncation passes (replay past the trace end picks natural
/// order) followed by pointwise lowering toward 0, iterated to a fixed
/// point.
pub fn shrink(case: &FuzzCase, initial: &[u32], kind: &'static str) -> Vec<u32> {
    let fails = |t: &[u32]| {
        replay(case, t).is_ok_and(|run| run.outcome.violation().is_some_and(|v| v.kind() == kind))
    };
    let trim = |t: &mut Vec<u32>| {
        while t.last() == Some(&0) {
            t.pop();
        }
    };
    let mut best = initial.to_vec();
    trim(&mut best);
    loop {
        let before = best.clone();
        // Truncation: cut ever-smaller tails while the bug survives.
        let mut cut = best.len().max(1);
        while cut > 0 {
            while best.len() >= cut {
                let candidate = &best[..best.len() - cut];
                if fails(candidate) {
                    best.truncate(best.len() - cut);
                } else {
                    break;
                }
            }
            cut /= 2;
        }
        // Pointwise lowering: try 0, then halves, for each decision.
        for i in 0..best.len() {
            for v in [0, best[i] / 2] {
                if v < best[i] {
                    let mut t = best.clone();
                    t[i] = v;
                    if fails(&t) {
                        best = t;
                    }
                }
            }
        }
        trim(&mut best);
        if best == before {
            break;
        }
    }
    best
}

/// Fuzz one case over `seeds` consecutive seeds starting at `base`;
/// violations come back shrunk. `Err` means the case itself is broken
/// (undriveable spec or a fault plan addressing nonexistent work).
pub fn fuzz_case(case: &FuzzCase, base: u64, seeds: u64) -> Result<Vec<Finding>, DriveError> {
    let mut findings = Vec::new();
    for seed in base..base + seeds {
        let run = fuzz_seed(case, seed)?;
        if let Outcome::Violation(v) = run.outcome {
            let shrunk = shrink(case, &run.decisions, v.kind());
            let confirmed = replay(case, &shrunk)?
                .outcome
                .violation()
                .cloned()
                .unwrap_or(v);
            findings.push(Finding {
                case_name: case.name.clone(),
                seed,
                shrunk,
                violation: confirmed,
            });
        }
    }
    Ok(findings)
}

/// The default corpus: every placement/schedule mode the orchestrator
/// emits, at several chunk counts including single-chunk and ragged
/// tails — for both workload families (the stencil rows exercise the
/// halo-edge geometries on the four-slot ring, including the ragged
/// tail, whose last chunk still spans a full halo). All cases are
/// [`Construction::Correct`] and fault-free; any finding is a real
/// orchestrator bug.
pub fn default_corpus() -> Vec<FuzzCase> {
    let mut cases = Vec::new();
    let geometries: &[(u64, &str)] = &[
        (64, "1"),
        (128, "2"),
        (256, "4"),
        (240, "4-ragged"),
        (448, "7"),
    ];
    let modes: &[(Placement, bool, &str)] = &[
        (Placement::Hbw, true, "hbw-lockstep"),
        (Placement::Hbw, false, "hbw-dataflow"),
        (Placement::Ddr, true, "ddr-lockstep"),
        (Placement::Ddr, false, "ddr-dataflow"),
        (Placement::Implicit, true, "implicit"),
    ];
    for &(placement, lockstep, mode) in modes {
        for &(total, geom) in geometries {
            cases.push(FuzzCase::clean(
                format!("{mode}-{geom}"),
                corpus_spec(total, placement, lockstep),
            ));
        }
    }
    for &(lockstep, mode) in &[(true, "stencil-lockstep"), (false, "stencil-dataflow")] {
        for &(total, geom) in geometries {
            cases.push(FuzzCase::clean(
                format!("{mode}-{geom}"),
                corpus_stencil_spec(total, lockstep),
            ));
        }
    }
    cases
}

/// A small, fast spec for fuzzing: 64-byte chunks, minimal pools. The
/// fuzzer explores schedule structure, so byte-level scale adds nothing.
pub fn corpus_spec(total_bytes: u64, placement: Placement, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        total_bytes,
        chunk_bytes: 64,
        p_in: 1,
        p_out: 1,
        p_comp: 2,
        compute_passes: 2,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// The stencil-family counterpart of [`corpus_spec`]: HBW placement,
/// 64-byte chunks with a 16-byte halo on each side (so the ragged
/// 240-byte geometry's 48-byte tail still spans a full halo).
pub fn corpus_stencil_spec(total_bytes: u64, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        workload: Workload::Stencil { halo_bytes: 16 },
        ..corpus_spec(total_bytes, Placement::Hbw, lockstep)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dataflow_case() -> FuzzCase {
        FuzzCase::clean("hbw-dataflow-7", corpus_spec(448, Placement::Hbw, false))
    }

    fn lockstep_case() -> FuzzCase {
        FuzzCase::clean("hbw-lockstep-4", corpus_spec(256, Placement::Hbw, true))
    }

    #[test]
    fn natural_order_matches_ground_truth() {
        for case in default_corpus() {
            let run = replay(&case, &[]).unwrap();
            assert_eq!(run.outcome, Outcome::Ok, "{}", case.name);
        }
    }

    #[test]
    fn seeded_runs_are_deterministic() {
        let case = dataflow_case();
        let a = fuzz_seed(&case, 7).unwrap();
        let b = fuzz_seed(&case, 7).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.decisions, b.decisions);
    }

    #[test]
    fn recorded_decisions_replay_identically() {
        let case = dataflow_case();
        for seed in 0..20 {
            let run = fuzz_seed(&case, seed).unwrap();
            let again = replay(&case, &run.decisions).unwrap();
            assert_eq!(run.outcome, again.outcome, "seed {seed}");
        }
    }

    #[test]
    fn correct_construction_survives_many_seeds() {
        for case in [dataflow_case(), lockstep_case()] {
            for seed in 0..200 {
                let run = fuzz_seed(&case, seed).unwrap();
                assert_eq!(run.outcome, Outcome::Ok, "{} seed {seed}", case.name);
            }
        }
    }

    #[test]
    fn kernel_panic_drains_cleanly() {
        let mut case = dataflow_case();
        case.faults.kernel_panic = Some(2);
        for seed in 0..100 {
            let run = fuzz_seed(&case, seed).unwrap();
            match run.outcome {
                Outcome::Poisoned {
                    chunk: 2,
                    cancelled,
                } => {
                    assert!(cancelled > 0, "poison cancels downstream work");
                }
                other => panic!("seed {seed}: expected clean poison-drain, got {other:?}"),
            }
        }
    }

    #[test]
    fn double_completion_is_detected() {
        let mut case = lockstep_case();
        case.faults.double_complete = Some((Stage::Compute, 1));
        let run = fuzz_seed(&case, 0).unwrap();
        assert_eq!(
            run.outcome.violation().map(Violation::kind),
            Some("double-completion")
        );
    }

    #[test]
    fn lost_completion_deadlocks() {
        let mut case = dataflow_case();
        case.faults.lost_complete = Some((Stage::CopyIn, 0));
        let run = fuzz_seed(&case, 0).unwrap();
        assert_eq!(
            run.outcome.violation().map(Violation::kind),
            Some("deadlock")
        );
    }

    #[test]
    fn fault_plan_must_address_a_real_action() {
        // Chunk 99 does not exist in a 7-chunk schedule: previously a
        // silent no-op (the run "passed" without testing anything), now a
        // spec error.
        let mut case = dataflow_case();
        case.faults.kernel_panic = Some(99);
        let err = fuzz_seed(&case, 0).unwrap_err();
        assert!(
            matches!(&err, DriveError::Spec(msg) if msg.contains("chunk 99")),
            "{err}"
        );
        // Same for completion faults.
        let mut case = lockstep_case();
        case.faults.lost_complete = Some((Stage::CopyOut, 77));
        assert!(matches!(fuzz_seed(&case, 0), Err(DriveError::Spec(_))));
        // Implicit schedules issue no copies at all.
        let mut case = FuzzCase::clean("implicit-2", corpus_spec(128, Placement::Implicit, true));
        case.faults.double_complete = Some((Stage::CopyIn, 0));
        assert!(matches!(fuzz_seed(&case, 0), Err(DriveError::Spec(_))));
    }

    #[test]
    fn shrinker_minimizes_and_preserves_the_bug() {
        let mut case = dataflow_case();
        case.construction = Construction::DropRecycleDep;
        let finding = (0..500)
            .flat_map(|seed| fuzz_case(&case, seed, 1).unwrap())
            .next()
            .expect("bug must be found");
        assert!(
            finding.shrunk.len() <= 20,
            "shrunk trace too long: {:?}",
            finding.shrunk
        );
        let rerun = replay(&case, &finding.shrunk).unwrap();
        assert_eq!(
            rerun.outcome.violation().map(Violation::kind),
            Some(finding.violation.kind())
        );
    }

    #[test]
    fn ground_truth_is_schedule_free() {
        let spec = corpus_spec(256, Placement::Hbw, false);
        assert_eq!(ground_truth(&spec, 2), ground_truth(&spec, 2));
        assert_ne!(ground_truth(&spec, 0), ground_truth(&spec, 1));
    }

    #[test]
    fn stencil_ground_truth_folds_both_neighbours() {
        let map = corpus_spec(256, Placement::Hbw, false);
        let sten = corpus_stencil_spec(256, false);
        for c in 0..4 {
            assert_ne!(ground_truth(&map, c), ground_truth(&sten, c), "chunk {c}");
        }
        // Boundary sentinels: a 2-chunk run and a 4-chunk run disagree on
        // chunk 1 (right neighbour present vs absent).
        let short = corpus_stencil_spec(128, false);
        assert_ne!(ground_truth(&short, 1), ground_truth(&sten, 1));
        assert_eq!(ground_truth(&short, 0), ground_truth(&sten, 0));
    }

    #[test]
    fn stencil_correct_construction_survives_many_seeds() {
        for lockstep in [true, false] {
            for total in [64, 240, 448] {
                let case = FuzzCase::clean(
                    format!("stencil-{total}-{lockstep}"),
                    corpus_stencil_spec(total, lockstep),
                );
                for seed in 0..150 {
                    let run = fuzz_seed(&case, seed).unwrap();
                    assert_eq!(run.outcome, Outcome::Ok, "{} seed {seed}", case.name);
                }
            }
        }
    }

    #[test]
    fn dropped_halo_edges_produce_wrong_outputs() {
        let mut case = FuzzCase::clean("stencil-drop-halo", corpus_stencil_spec(448, false));
        case.construction = Construction::DropHaloDep;
        let finding = (0..300)
            .flat_map(|seed| fuzz_case(&case, seed, 1).unwrap())
            .next()
            .expect("dropped halo edge must be caught");
        assert_eq!(finding.violation.kind(), "wrong-output");
        assert!(finding.shrunk.len() <= 20, "{:?}", finding.shrunk);
        // The same trace is clean when every edge is honoured.
        let mut correct = case.clone();
        correct.construction = Construction::Correct;
        let rerun = replay(&correct, &finding.shrunk).unwrap();
        assert_eq!(rerun.outcome, Outcome::Ok);
        // And the weakening is a no-op for the map family.
        let mut map_case = dataflow_case();
        map_case.construction = Construction::DropHaloDep;
        for seed in 0..100 {
            let run = fuzz_seed(&map_case, seed).unwrap();
            assert_eq!(run.outcome, Outcome::Ok, "map seed {seed}");
        }
    }

    #[test]
    fn stencil_kernel_panic_drains_cleanly() {
        let mut case = FuzzCase::clean("stencil-panic", corpus_stencil_spec(448, false));
        case.faults.kernel_panic = Some(3);
        for seed in 0..100 {
            let run = fuzz_seed(&case, seed).unwrap();
            match run.outcome {
                Outcome::Poisoned {
                    chunk: 3,
                    cancelled,
                } => assert!(cancelled > 0, "poison cancels downstream work"),
                other => panic!("seed {seed}: expected clean poison-drain, got {other:?}"),
            }
        }
    }
}
