//! The static schedule verifier, over the plan the schedule is built as.
//!
//! [`plan_pipeline`] writes one dependency DAG per spec: a
//! [`WorkloadPlan`] of chunk-stage nodes and barriers whose edges say why
//! they exist ([`EdgeKind`]). Two consumers read that plan directly
//! (DESIGN.md S22):
//!
//! * the **executor** ([`interpret`](crate::plan::interpret)) walks one
//!   linearization of it over a backend;
//! * the **static analyzer** ([`analyze`]) proves properties over *every*
//!   linearization without enumerating them, via reachability on the
//!   transitive closure:
//!
//!   | check | code | property |
//!   |-------|------|----------|
//!   | [`GraphCheck::Race`]        | G001 | same-slot actions are dependency-ordered (incl. poison-drain) |
//!   | [`GraphCheck::Deadlock`]    | G002 | no cycles, no starved waiters |
//!   | [`GraphCheck::Capacity`]    | G003 | peak HBW-resident bytes fit the MCDRAM budget |
//!   | [`GraphCheck::RingWidth`]   | G004 | no antichain of live chunks exceeds the buffer ring |
//!   | [`GraphCheck::DeadToken`]   | G005 | every completion is consumed (advisory) |
//!   | [`GraphCheck::Unreachable`] | G006 | no dangling/self dependencies, no unrunnable ops, no panic on an absent chunk |
//!
//! The capacity and ring-width bounds come from a weighted-antichain
//! (Dilworth / minimum chain cover) analysis of the chunk liveness order:
//! chunk `c` precedes chunk `d` when `c`'s copy-out happens-before `d`'s
//! copy-in, so the maximum antichain is exactly the largest set of chunks
//! the dependency edges allow to be resident at once. The bound is tight
//! for the plans `plan_pipeline` builds and conservative in general (it
//! ignores slot identities, so it never under-reports occupancy).
//!
//! [`AnalysisConfig::construction`] analyses the plan as one of the
//! deliberately broken executors ([`Construction`]) would execute it
//! (dropped recycle or halo edges, notify-one wakeups, missing predicate
//! rechecks, poison without cancellation), which is how the analyzer
//! flags each of the five catalogued bugs statically.

use std::collections::BTreeMap;
use std::fmt;

use crate::backend::{ChunkAction, Stage};
use crate::error::DriveError;
use crate::placement::Placement;
use crate::plan::{plan_pipeline, EdgeKind, PlanKind, WorkloadPlan};
use crate::spec::{PipelineSpec, Workload};

// ---------------------------------------------------------------------------
// Reading the plan
// ---------------------------------------------------------------------------

/// The dependencies each node waits on when `construction` executes
/// `plan`: [`Construction::DropRecycleDep`] ignores the
/// [`EdgeKind::Recycle`] edges, [`Construction::DropHaloDep`] the
/// [`EdgeKind::Halo`] edges, and every other construction keeps them all
/// (its bug is in how completions are delivered, not in which edges
/// exist). Dangling and self dependencies are skipped; [`analyze`]
/// reports them as G006.
pub(crate) fn effective_deps(plan: &WorkloadPlan, construction: Construction) -> Vec<Vec<usize>> {
    let n = plan.nodes.len();
    let dropped = match construction {
        Construction::DropRecycleDep => Some(EdgeKind::Recycle),
        Construction::DropHaloDep => Some(EdgeKind::Halo),
        _ => None,
    };
    plan.nodes
        .iter()
        .enumerate()
        .map(|(i, node)| {
            node.deps
                .iter()
                .filter(|e| e.from < n && e.from != i && Some(e.kind) != dropped)
                .map(|e| e.from)
                .collect()
        })
        .collect()
}

/// Human-readable one-line description of node `i`, for traces.
fn describe(plan: &WorkloadPlan, i: usize) -> String {
    match plan.nodes[i].action() {
        Some(a) => format!(
            "{:?} of chunk {} (slot {}, node {i})",
            a.stage, a.chunk, a.slot
        ),
        None => format!("step barrier (node {i})"),
    }
}

// ---------------------------------------------------------------------------
// Analysis configuration
// ---------------------------------------------------------------------------

/// How an executor honours the plan's dependency edges. `Correct` is the
/// shipped semantics; the other five are the deliberately broken
/// executors of mlm-verify's must-fail catalogue, one per bug class, each
/// of which [`analyze`] must refute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Construction {
    /// Honour every dependency edge; poison cancels dependents.
    Correct,
    /// Ignore the buffer-recycling edges (copy-out → copy-in for maps):
    /// a later chunk's copy-in lands on a slot that still holds live
    /// data.
    DropRecycleDep,
    /// After a kernel panic, keep scheduling the panicked chunk's
    /// dependents as if the compute had completed — the `PoisonSkipLock`
    /// condvar regression: work touches the poisoned slot.
    PoisonSkipLock,
    /// A completion wakes only its *first* dependent; later waiters lose
    /// the wakeup — the `NotifyOne` condvar regression: the schedule
    /// deadlocks.
    NotifyOne,
    /// A node becomes runnable on its *first* dependency's completion
    /// without rechecking the rest — the `NoRecheck` condvar regression:
    /// premature execution breaks the ring.
    NoRecheck,
    /// Ignore the inter-chunk halo edges (neighbour copy-in → compute) a
    /// stencil plan emits: the kernel runs before its neighbour's
    /// boundary bytes landed. A no-op for the map family, whose plans
    /// carry no halo edges.
    DropHaloDep,
}

impl Construction {
    /// Stable name for diagnostics and suite case names.
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

/// What [`analyze`] checks a plan against. The ring depth is the plan's
/// own [`WorkloadPlan::ring_slots`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AnalysisConfig {
    /// Addressable MCDRAM bytes for HBW-placed buffers; `None` skips the
    /// G003 capacity check.
    pub hbw_budget: Option<u64>,
    /// The executor to analyse the plan under: [`Construction::Correct`]
    /// for the shipped one, a buggy construction to prove its bug.
    pub construction: Construction,
    /// Model a kernel panic while computing this chunk: prove that
    /// nothing outside the guaranteed-cancelled dependents touches the
    /// poisoned slot. A chunk the plan never computes is a G006 finding.
    pub kernel_panic: Option<usize>,
}

impl Default for AnalysisConfig {
    fn default() -> Self {
        AnalysisConfig {
            hbw_budget: None,
            construction: Construction::Correct,
            kernel_panic: None,
        }
    }
}

// ---------------------------------------------------------------------------
// Findings and report
// ---------------------------------------------------------------------------

/// The property a [`GraphFinding`] violates. Codes G001–G006 are stable
/// and live alongside `mlm-verify`'s V-series lint ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphCheck {
    /// G001 — two actions touch the same ring slot with no dependency
    /// path ordering them (happens-before race), or uncancelled work
    /// touches a poisoned slot.
    Race,
    /// G002 — a dependency cycle, or a waiter whose notification can
    /// never be delivered (starvation): some work can never run.
    Deadlock,
    /// G003 — the peak antichain of live HBW chunks exceeds the MCDRAM
    /// budget.
    Capacity,
    /// G004 — an antichain of in-flight chunks exceeds the buffer ring.
    RingWidth,
    /// G005 — a completion no later node consumes (advisory).
    DeadToken,
    /// G006 — a dangling or self dependency; the op (and everything
    /// downstream of it) can never become runnable. Also a modeled
    /// kernel panic on a chunk the plan never computes.
    Unreachable,
}

impl GraphCheck {
    /// Every check the analyzer runs, in code order (for catalogs).
    pub const ALL: [GraphCheck; 6] = [
        GraphCheck::Race,
        GraphCheck::Deadlock,
        GraphCheck::Capacity,
        GraphCheck::RingWidth,
        GraphCheck::DeadToken,
        GraphCheck::Unreachable,
    ];

    /// The stable diagnostic code.
    pub fn code(self) -> &'static str {
        match self {
            GraphCheck::Race => "G001",
            GraphCheck::Deadlock => "G002",
            GraphCheck::Capacity => "G003",
            GraphCheck::RingWidth => "G004",
            GraphCheck::DeadToken => "G005",
            GraphCheck::Unreachable => "G006",
        }
    }

    /// The check's kebab-case name.
    pub fn name(self) -> &'static str {
        match self {
            GraphCheck::Race => "graph-race",
            GraphCheck::Deadlock => "graph-deadlock",
            GraphCheck::Capacity => "graph-mcdram-occupancy",
            GraphCheck::RingWidth => "graph-ring-width",
            GraphCheck::DeadToken => "graph-dead-token",
            GraphCheck::Unreachable => "graph-unreachable",
        }
    }

    /// True when a finding of this check makes the schedule unsafe to
    /// run. [`GraphCheck::DeadToken`] is advisory (wasted work, not a
    /// safety violation); everything else is fatal.
    pub fn is_fatal(self) -> bool {
        !matches!(self, GraphCheck::DeadToken)
    }
}

impl fmt::Display for GraphCheck {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.code())
    }
}

/// One property violation, with a counterexample trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphFinding {
    /// Which property broke.
    pub check: GraphCheck,
    /// One-line description.
    pub message: String,
    /// Counterexample trace: the nodes/chunks that witness the violation,
    /// one human-readable line each.
    pub trace: Vec<String>,
}

/// Everything [`analyze`] proved (or refuted) about one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphReport {
    /// Nodes analysed.
    pub nodes: usize,
    /// Dependency edges analysed.
    pub edges: usize,
    /// Size of the maximum antichain of concurrently-live chunks — the
    /// worst-case number of resident buffers any legal linearization can
    /// reach.
    pub peak_live_chunks: usize,
    /// `peak_live_chunks × chunk_bytes` for HBW placement, `0` otherwise.
    pub peak_hbw_bytes: u64,
    /// Property violations found; empty means every check passed.
    pub findings: Vec<GraphFinding>,
}

impl GraphReport {
    /// True when no fatal finding was reported (advisory G005 findings
    /// do not make a schedule unsafe).
    pub fn is_safe(&self) -> bool {
        !self.findings.iter().any(|f| f.check.is_fatal())
    }

    /// The distinct check codes that fired, in code order.
    pub fn codes(&self) -> Vec<&'static str> {
        let mut codes: Vec<&'static str> = self.findings.iter().map(|f| f.check.code()).collect();
        codes.sort_unstable();
        codes.dedup();
        codes
    }
}

impl fmt::Display for GraphReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "schedule graph: {} nodes, {} edges, peak {} live chunks ({} HBW bytes)",
            self.nodes, self.edges, self.peak_live_chunks, self.peak_hbw_bytes
        )?;
        for finding in &self.findings {
            write!(f, "\n[{}] {}", finding.check.code(), finding.message)?;
            for line in &finding.trace {
                write!(f, "\n    {line}")?;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Bitset transitive closure
// ---------------------------------------------------------------------------

/// Fixed-width bitset over node indices.
#[derive(Clone)]
struct BitSet {
    words: Vec<u64>,
}

impl BitSet {
    fn new(bits: usize) -> Self {
        BitSet {
            words: vec![0; bits.div_ceil(64)],
        }
    }

    fn set(&mut self, i: usize) {
        self.words[i / 64] |= 1 << (i % 64);
    }

    fn get(&self, i: usize) -> bool {
        self.words[i / 64] & (1 << (i % 64)) != 0
    }

    fn union_with(&mut self, other: &BitSet) {
        for (w, o) in self.words.iter_mut().zip(&other.words) {
            *w |= o;
        }
    }
}

/// Ancestor sets (`anc[i]` = nodes that happen-before `i`) over the edge
/// lists `deps`, processed in `topo` order.
fn closure(n: usize, deps: &[Vec<usize>], topo: &[usize]) -> Vec<BitSet> {
    let mut anc = vec![BitSet::new(n); n];
    for &i in topo {
        // Move the set out to appease the borrow checker, then put it back.
        let mut mine = std::mem::replace(&mut anc[i], BitSet::new(0));
        for &d in &deps[i] {
            mine.set(d);
            mine.union_with(&anc[d]);
        }
        anc[i] = mine;
    }
    anc
}

/// Kahn topological order over `deps`; `None` when a cycle exists.
fn topo_order(n: usize, deps: &[Vec<usize>]) -> Option<Vec<usize>> {
    let mut dependents = vec![Vec::new(); n];
    let mut remaining = vec![0usize; n];
    for (i, dl) in deps.iter().enumerate() {
        for &d in dl {
            dependents[d].push(i);
            remaining[i] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(i) = queue.pop() {
        order.push(i);
        for &d in &dependents[i] {
            remaining[d] -= 1;
            if remaining[d] == 0 {
                queue.push(d);
            }
        }
    }
    (order.len() == n).then_some(order)
}

/// A directed cycle over `deps`, as a node sequence (first == last), for
/// the G002 counterexample trace. Only called when one exists.
fn find_cycle(n: usize, deps: &[Vec<usize>]) -> Vec<usize> {
    // Iterative DFS with white/gray/black coloring.
    let mut color = vec![0u8; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    for start in 0..n {
        if color[start] != 0 {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = 1;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if *next < deps[node].len() {
                let d = deps[node][*next];
                *next += 1;
                match color[d] {
                    0 => {
                        color[d] = 1;
                        parent[d] = Some(node);
                        stack.push((d, 0));
                    }
                    1 => {
                        // Back edge node -> d: walk parents from node to d.
                        let mut cycle = vec![d];
                        let mut cur = node;
                        while cur != d {
                            cycle.push(cur);
                            cur = parent[cur].expect("on the gray path");
                        }
                        cycle.push(d);
                        cycle.reverse();
                        return cycle;
                    }
                    _ => {}
                }
            } else {
                color[node] = 2;
                stack.pop();
            }
        }
    }
    unreachable!("find_cycle called on an acyclic graph")
}

// ---------------------------------------------------------------------------
// Antichain analysis (Dilworth via bipartite matching + König witness)
// ---------------------------------------------------------------------------

fn kuhn_augment(
    u: usize,
    adj: &[Vec<usize>],
    seen: &mut [bool],
    match_l: &mut [Option<usize>],
    match_r: &mut [Option<usize>],
) -> bool {
    for &v in &adj[u] {
        if seen[v] {
            continue;
        }
        seen[v] = true;
        let free = match match_r[v] {
            None => true,
            Some(u2) => kuhn_augment(u2, adj, seen, match_l, match_r),
        };
        if free {
            match_r[v] = Some(u);
            match_l[u] = Some(v);
            return true;
        }
    }
    false
}

/// Maximum antichain of the strict partial order `adj` (edges `c -> d`
/// meaning `c` precedes `d`) over `n` elements, by Dilworth's theorem:
/// max antichain = n − max bipartite matching of the precedence relation,
/// with the witness antichain extracted from the König vertex cover.
fn max_antichain(n: usize, adj: &[Vec<usize>]) -> Vec<usize> {
    let mut match_l: Vec<Option<usize>> = vec![None; n];
    let mut match_r: Vec<Option<usize>> = vec![None; n];
    let mut matched = 0usize;
    for u in 0..n {
        let mut seen = vec![false; n];
        if kuhn_augment(u, adj, &mut seen, &mut match_l, &mut match_r) {
            matched += 1;
        }
    }
    // König: Z = unmatched left vertices plus everything reachable by
    // alternating (non-matching left→right, matching right→left) paths.
    // The antichain is {c : c_L ∈ Z and c_R ∉ Z} — both copies of c
    // avoid the minimum vertex cover.
    let mut vis_l = vec![false; n];
    let mut vis_r = vec![false; n];
    let mut queue: Vec<usize> = (0..n).filter(|&u| match_l[u].is_none()).collect();
    for &u in &queue {
        vis_l[u] = true;
    }
    while let Some(u) = queue.pop() {
        for &v in &adj[u] {
            if match_l[u] == Some(v) || vis_r[v] {
                continue;
            }
            vis_r[v] = true;
            if let Some(u2) = match_r[v] {
                if !vis_l[u2] {
                    vis_l[u2] = true;
                    queue.push(u2);
                }
            }
        }
    }
    let antichain: Vec<usize> = (0..n).filter(|&c| vis_l[c] && !vis_r[c]).collect();
    debug_assert_eq!(antichain.len(), n - matched, "Dilworth/König mismatch");
    antichain
}

// ---------------------------------------------------------------------------
// Buffer footprints (the workload-generic race model)
// ---------------------------------------------------------------------------

/// One modeled staging buffer an action can touch. The race check (G001)
/// is defined over footprints on these: two actions conflict when they
/// touch the same buffer and at least one writes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum BufferKey {
    /// The single staging buffer of a map-family ring slot (every stage
    /// of a chunk reads and writes it in place).
    Main(usize),
    /// The input buffer of a stencil ring slot: written by copy-in, read
    /// by the owning compute *and* both neighbour computes (halo).
    In(usize),
    /// The output buffer of a stencil ring slot: written by the compute,
    /// read by copy-out.
    Out(usize),
}

impl BufferKey {
    /// Buffer name as used in G001 messages.
    pub fn describe(self) -> String {
        match self {
            BufferKey::Main(s) => format!("ring slot {s}"),
            BufferKey::In(s) => format!("in-buffer slot {s}"),
            BufferKey::Out(s) => format!("out-buffer slot {s}"),
        }
    }
}

/// The buffers `a` touches under `spec`'s workload, each with a
/// `write` flag.
///
/// The map family models every stage as a *write* of its slot's single
/// buffer — all same-slot action pairs conflict, which is exactly the
/// phase-machine discipline the host ring ([`crate::ring`]) enforces at
/// run time. The
/// stencil family splits each slot into an in- and an out-buffer and
/// lets computes read the neighbouring in-buffers, so e.g. two computes
/// reading the same in-buffer do *not* conflict but a copy-in
/// overwriting it while a neighbour compute still reads it does.
pub fn action_footprint(spec: &PipelineSpec, a: ChunkAction) -> Vec<(BufferKey, bool)> {
    match spec.workload {
        Workload::Map => vec![(BufferKey::Main(a.slot), true)],
        Workload::Stencil { .. } => {
            let ring = spec.ring_slots();
            let n = spec.n_chunks();
            match a.stage {
                Stage::CopyIn => vec![(BufferKey::In(a.slot), true)],
                Stage::Compute => {
                    let mut fp = Vec::new();
                    if a.chunk > 0 {
                        fp.push((BufferKey::In((a.chunk - 1) % ring), false));
                    }
                    fp.push((BufferKey::In(a.slot), false));
                    if a.chunk + 1 < n {
                        fp.push((BufferKey::In((a.chunk + 1) % ring), false));
                    }
                    fp.push((BufferKey::Out(a.slot), true));
                    fp
                }
                Stage::CopyOut => vec![(BufferKey::Out(a.slot), false)],
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The analyzer
// ---------------------------------------------------------------------------

/// Prove (or refute) race-, deadlock-, and capacity-safety of `plan` over
/// every linearization, under the configured executor construction.
///
/// The proofs are exhaustive for the schedule level the plan models: a
/// clean report means *no* interleaving a dependency-honouring executor
/// can produce violates the checked property.
pub fn analyze(plan: &WorkloadPlan, spec: &PipelineSpec, cfg: &AnalysisConfig) -> GraphReport {
    let n = plan.nodes.len();
    let edges = plan.nodes.iter().map(|node| node.deps.len()).sum();
    let mut findings = Vec::new();

    // G006 — structural validity: dangling and self dependencies, plus
    // everything downstream of one (it can never become runnable).
    let mut invalid = vec![false; n];
    for (i, inv) in invalid.iter_mut().enumerate() {
        for d in plan.nodes[i].deps.iter().map(|e| e.from) {
            if d >= n || d == i {
                *inv = true;
                findings.push(GraphFinding {
                    check: GraphCheck::Unreachable,
                    message: if d == i {
                        format!("{} depends on itself", describe(plan, i))
                    } else {
                        format!(
                            "{} depends on nonexistent node {d} (graph has {n} nodes)",
                            describe(plan, i)
                        )
                    },
                    trace: vec![format!("{} can never become runnable", describe(plan, i))],
                });
            }
        }
    }

    // Work on the valid edge set from here on.
    let valid_deps = effective_deps(plan, Construction::Correct);

    // G002 — cycle detection. A cyclic graph has no linearizations at
    // all; report the cycle and stop (closure analyses assume a DAG).
    let Some(topo) = topo_order(n, &valid_deps) else {
        let cycle = find_cycle(n, &valid_deps);
        let trace: Vec<String> = cycle.iter().map(|&i| describe(plan, i)).collect();
        findings.push(GraphFinding {
            check: GraphCheck::Deadlock,
            message: format!(
                "dependency cycle of {} nodes: no execution order exists",
                cycle.len() - 1
            ),
            trace,
        });
        return GraphReport {
            nodes: n,
            edges,
            peak_live_chunks: 0,
            peak_hbw_bytes: 0,
            findings,
        };
    };

    let construction = cfg.construction;
    let no_recheck = construction == Construction::NoRecheck;

    // Effective edges, step 1: the edges the construction waits on at all.
    let kept = effective_deps(plan, construction);
    let anc_kept = closure(n, &kept, &topo);

    // Effective edges, step 2: NoRecheck keeps an edge `d -> i` only when
    // the executor's run-on-first-notification shortcut cannot fire before
    // `d` completes — i.e. `d` happens-before every other dependency of
    // `i`, so whichever notification arrives first, `d` is already done.
    let eff: Vec<Vec<usize>> = if no_recheck {
        (0..n)
            .map(|i| {
                let dl = &kept[i];
                dl.iter()
                    .copied()
                    .filter(|&d| dl.iter().all(|&o| o == d || anc_kept[o].get(d)))
                    .collect()
            })
            .collect()
    } else {
        kept.clone()
    };
    let anc = if no_recheck {
        closure(n, &eff, &topo)
    } else {
        anc_kept
    };
    let ordered = |a: usize, b: usize| anc[b].get(a) || anc[a].get(b);

    // G002 — notify-one starvation: a waiter that is not the statically
    // first dependent of one of its dependencies never hears that
    // completion; anything downstream of a starved node starves too.
    if construction == Construction::NotifyOne {
        let dependents = {
            let mut out = vec![Vec::new(); n];
            for (i, dl) in kept.iter().enumerate() {
                for &d in dl {
                    out[d].push(i);
                }
            }
            out
        };
        let mut starved_by: Vec<Option<usize>> = vec![None; n];
        for (i, dl) in kept.iter().enumerate() {
            for &d in dl {
                if dependents[d].first() != Some(&i) {
                    starved_by[i] = Some(d);
                }
            }
        }
        let mut stuck = vec![false; n];
        for &i in &topo {
            stuck[i] = starved_by[i].is_some() || kept[i].iter().any(|&d| stuck[d]);
        }
        let stuck_count = stuck.iter().filter(|&&s| s).count();
        if stuck_count > 0 {
            let first = (0..n)
                .find(|&i| starved_by[i].is_some())
                .expect("stuck implies a directly starved node");
            let d = starved_by[first].expect("directly starved");
            let favoured = dependents[d][0];
            findings.push(GraphFinding {
                check: GraphCheck::Deadlock,
                message: format!(
                    "notify-one wakeups starve {stuck_count} nodes: lost notifications deadlock the schedule"
                ),
                trace: vec![
                    format!("{} waits on {}", describe(plan, first), describe(plan, d)),
                    format!(
                        "completion of {} wakes only {} (notify-one)",
                        describe(plan, d),
                        describe(plan, favoured)
                    ),
                    format!("{stuck_count} of {n} nodes can never run"),
                ],
            });
        }
    }

    let actions: Vec<(usize, ChunkAction)> = (0..n)
        .filter_map(|i| plan.nodes[i].action().map(|a| (i, a)))
        .collect();
    let explicit = spec.placement != Placement::Implicit;

    // G001 — happens-before races: any two actions whose buffer
    // footprints conflict (same buffer, at least one write) must be
    // connected by a dependency path, else some linearization runs them
    // concurrently. For the map family every action writes its slot's
    // single buffer, so this degenerates to "same-slot actions must be
    // ordered" — the slot phase machine's static counterpart; the stencil
    // family's split in/out buffers and halo reads refine the model.
    if explicit {
        let footprints: Vec<Vec<(BufferKey, bool)>> = actions
            .iter()
            .map(|&(_, a)| action_footprint(spec, a))
            .collect();
        let mut by_buffer: BTreeMap<BufferKey, Vec<(usize, usize)>> = BTreeMap::new();
        for (k, &(i, _)) in actions.iter().enumerate() {
            for (m, &(j, _)) in actions.iter().enumerate().skip(k + 1) {
                if ordered(i, j) {
                    continue;
                }
                for &(key_a, write_a) in &footprints[k] {
                    for &(key_b, write_b) in &footprints[m] {
                        if key_a == key_b && (write_a || write_b) {
                            let pairs = by_buffer.entry(key_a).or_default();
                            if pairs.last() != Some(&(i, j)) {
                                pairs.push((i, j));
                            }
                        }
                    }
                }
            }
        }
        for (key, pairs) in &by_buffer {
            let &(i, j) = pairs.first().expect("entry implies a pair");
            findings.push(GraphFinding {
                check: GraphCheck::Race,
                message: format!(
                    "{}: {} action pair(s) with no dependency path between them",
                    key.describe(),
                    pairs.len()
                ),
                trace: vec![
                    format!(
                        "{} and {} both touch {}",
                        describe(plan, i),
                        describe(plan, j),
                        key.describe()
                    ),
                    "no dependency path orders them under the analysed discipline".into(),
                ],
            });
        }
    }

    // G006 (poison) — a modeled kernel panic on a chunk the plan never
    // computes proves nothing; say so instead of passing vacuously.
    let panicked = cfg
        .kernel_panic
        .map(|k| (k, plan.find(PlanKind::Kernel, k)));
    if let Some((k, None)) = panicked {
        findings.push(GraphFinding {
            check: GraphCheck::Unreachable,
            message: format!(
                "kernel panic on chunk {k}: the plan computes no chunk {k} ({n_chunks} chunks)",
                n_chunks = plan.chunks
            ),
            trace: vec![format!(
                "no compute node of chunk {k} exists, so the poison proof has nothing to check"
            )],
        });
    }

    // G001 (poison) — with a modeled kernel panic, everything that is not
    // a guaranteed-cancelled dependent of the panicked compute and runs
    // concurrently with or after it must not touch the poisoned slot.
    if let Some((k, Some(p))) = panicked.filter(|_| explicit) {
        let slot = plan.nodes[p].slot;
        for &(i, a) in &actions {
            if i == p || a.slot != slot {
                continue;
            }
            let cancelled = construction != Construction::PoisonSkipLock && anc[i].get(p);
            let before_panic = anc[p].get(i);
            if !cancelled && !before_panic {
                findings.push(GraphFinding {
                    check: GraphCheck::Race,
                    message: format!(
                        "poison leak: {} can touch the slot poisoned by the kernel panic on chunk {k}",
                        describe(plan, i)
                    ),
                    trace: vec![
                        format!(
                            "kernel panic poisons slot {slot} at {}",
                            describe(plan, p)
                        ),
                        format!(
                            "{} is not a guaranteed-cancelled dependent and is not ordered before the panic",
                            describe(plan, i)
                        ),
                    ],
                });
            }
        }
    }

    // G003/G004 — buffer liveness antichains. A buffer is live from the
    // action that fills it until the last action that reads it; buffer
    // `c` strictly precedes buffer `d` when `c`'s end happens-before
    // `d`'s start, so by Dilworth the maximum antichain of the precedence
    // order is exactly the worst-case number of simultaneously-live
    // buffers any linearization can reach.
    //
    // The map family has one buffer per chunk, spanning copy-in to
    // copy-out (the compute itself in implicit mode). The stencil family
    // has two: the in-buffer of chunk `c` spans its copy-in to the last
    // halo reader (compute of `c + 1`), the out-buffer its compute to its
    // copy-out — each ring of `ring_slots` buffers is bounded separately,
    // and the HBW peak sums both.
    let n_chunks = spec.n_chunks();
    let antichain_of = |spans: &[(Option<usize>, Option<usize>)]| -> Vec<usize> {
        let mut precedes: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (c, &(_, end_c)) in spans.iter().enumerate() {
            for (d, &(start_d, _)) in spans.iter().enumerate() {
                if let (Some(out_c), Some(in_d)) = (end_c, start_d) {
                    if c != d && anc[in_d].get(out_c) {
                        precedes[c].push(d);
                    }
                }
            }
        }
        max_antichain(spans.len(), &precedes)
    };
    let witness = |antichain: &[usize], what: &str| -> Vec<String> {
        let mut lines: Vec<String> = antichain
            .iter()
            .take(8)
            .map(|&c| format!("chunk {c}{what} live (slot {})", c % plan.ring_slots))
            .collect();
        if antichain.len() > 8 {
            lines.push(format!("... and {} more", antichain.len() - 8));
        }
        lines
    };

    let stencil = explicit && matches!(spec.workload, Workload::Stencil { .. });
    let (peak_live_chunks, peak_hbw_buffers, ring_findings, budget_head, budget_witness) =
        if stencil {
            let in_spans: Vec<(Option<usize>, Option<usize>)> = (0..n_chunks)
                .map(|c| {
                    let last_reader = (c + 1).min(n_chunks - 1);
                    (
                        plan.find(PlanKind::StageIn, c),
                        plan.find(PlanKind::Kernel, last_reader),
                    )
                })
                .collect();
            let out_spans: Vec<(Option<usize>, Option<usize>)> = (0..n_chunks)
                .map(|c| {
                    (
                        plan.find(PlanKind::Kernel, c),
                        plan.find(PlanKind::StageOut, c),
                    )
                })
                .collect();
            let in_chain = antichain_of(&in_spans);
            let out_chain = antichain_of(&out_spans);
            let (peak_in, peak_out) = (in_chain.len(), out_chain.len());
            let mut ring_findings = Vec::new();
            for (peak, chain, what) in [
                (peak_in, &in_chain, " in-buffer"),
                (peak_out, &out_chain, " out-buffer"),
            ] {
                if peak > plan.ring_slots {
                    ring_findings.push(GraphFinding {
                        check: GraphCheck::RingWidth,
                        message: format!(
                            "{peak} stencil{what}s can be in flight concurrently but the ring has {} slots",
                            plan.ring_slots
                        ),
                        trace: witness(chain, what),
                    });
                }
            }
            let head = format!(
                "peak = ({peak_in} in-buffers + {peak_out} out-buffers) x {} bytes each",
                spec.chunk_bytes
            );
            let mut wit = witness(&in_chain, " in-buffer");
            wit.extend(witness(&out_chain, " out-buffer"));
            (
                peak_in.max(peak_out),
                (peak_in + peak_out) as u64,
                ring_findings,
                head,
                wit,
            )
        } else {
            let spans: Vec<(Option<usize>, Option<usize>)> = (0..n_chunks)
                .map(|c| {
                    if explicit {
                        (
                            plan.find(PlanKind::StageIn, c),
                            plan.find(PlanKind::StageOut, c),
                        )
                    } else {
                        let comp = plan.find(PlanKind::Kernel, c);
                        (comp, comp)
                    }
                })
                .collect();
            let antichain = antichain_of(&spans);
            let peak = antichain.len();
            let mut ring_findings = Vec::new();
            if explicit && peak > plan.ring_slots {
                ring_findings.push(GraphFinding {
                    check: GraphCheck::RingWidth,
                    message: format!(
                        "{peak} chunks can be in flight concurrently but the ring has {} slots",
                        plan.ring_slots
                    ),
                    trace: witness(&antichain, ""),
                });
            }
            let head = format!(
                "peak = {peak} live chunks x {} bytes/chunk = {} bytes",
                spec.chunk_bytes,
                peak as u64 * spec.chunk_bytes
            );
            let wit = witness(&antichain, "");
            (peak, peak as u64, ring_findings, head, wit)
        };
    findings.extend(ring_findings);
    let peak_hbw_bytes = if explicit && spec.placement == Placement::Hbw {
        peak_hbw_buffers * spec.chunk_bytes
    } else {
        0
    };
    if let Some(budget) = cfg.hbw_budget {
        if peak_hbw_bytes > budget {
            let mut trace = vec![budget_head];
            trace.extend(budget_witness);
            findings.push(GraphFinding {
                check: GraphCheck::Capacity,
                message: format!(
                    "peak HBW occupancy {peak_hbw_bytes} bytes exceeds the MCDRAM budget of {budget} bytes"
                ),
                trace,
            });
        }
    }

    // G005 — dead tokens: a completion nobody consumes. Copy-outs retire
    // their chunk (their completion *is* the pipeline's output) and the
    // final node ends the schedule; anything else without a dependent is
    // issued work whose finish the graph never observes.
    let mut consumed = vec![false; n];
    for &d in valid_deps.iter().flatten() {
        consumed[d] = true;
    }
    for i in 0..n {
        if invalid[i] || consumed[i] || i == n - 1 || plan.nodes[i].kind == PlanKind::StageOut {
            continue;
        }
        findings.push(GraphFinding {
            check: GraphCheck::DeadToken,
            message: format!("completion of {} is never consumed", describe(plan, i)),
            trace: vec!["no later node depends on it; its chunk can never be drained".into()],
        });
    }

    findings.sort_by_key(|f| f.check.code());
    GraphReport {
        nodes: n,
        edges,
        peak_live_chunks,
        peak_hbw_bytes,
        findings,
    }
}

/// Validate `spec`, build its plan once and [`analyze`] it under the
/// shipped (correct) construction. [`crate::drive_verified`] interprets
/// the plan returned here, so the proof covers the very plan it runs.
pub(crate) fn prove(
    spec: &PipelineSpec,
    hbw_budget: Option<u64>,
) -> Result<(WorkloadPlan, GraphReport), DriveError> {
    spec.validate().map_err(DriveError::Spec)?;
    let plan = plan_pipeline(spec);
    let cfg = AnalysisConfig {
        hbw_budget,
        ..AnalysisConfig::default()
    };
    let report = analyze(&plan, spec, &cfg);
    Ok((plan, report))
}

/// Build the plan of `spec` and [`analyze`] it under the shipped
/// (correct) construction. `hbw_budget` is the addressable MCDRAM for the
/// G003 capacity bound (`None` skips it).
///
/// Returns the report — check [`GraphReport::is_safe`] for the verdict;
/// `Err` only when the spec fails validation ([`DriveError::Spec`]).
pub fn verify_spec(
    spec: &PipelineSpec,
    hbw_budget: Option<u64>,
) -> Result<GraphReport, DriveError> {
    prove(spec, hbw_budget).map(|(_, report)| report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::{drive, RING_SLOTS};
    use crate::plan::{PlanEdge, PlanNode};
    use crate::recording::{Event, NullBackend, RecordingBackend};

    fn spec(n_chunks: u64, lockstep: bool, placement: Placement) -> PipelineSpec {
        PipelineSpec {
            total_bytes: n_chunks * 64,
            chunk_bytes: 64,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement,
            lockstep,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    /// One node of a hand-built map plan: `kind` on chunk 0 (barriers
    /// carry no chunk), waiting on `deps`.
    fn node(kind: PlanKind, deps: &[usize]) -> PlanNode {
        PlanNode {
            kind,
            chunk: (kind != PlanKind::Barrier).then_some(0),
            slot: 0,
            kernel: None,
            len: 64,
            deps: deps
                .iter()
                .map(|&d| PlanEdge::new(d, EdgeKind::Seq))
                .collect(),
        }
    }

    /// A one-chunk map plan over hand-built `nodes`, which may break the
    /// invariants `plan_pipeline` guarantees.
    fn hand_built(nodes: Vec<PlanNode>) -> WorkloadPlan {
        WorkloadPlan {
            family: "map",
            ring_slots: RING_SLOTS,
            chunks: 1,
            kernels: Vec::new(),
            nodes,
        }
    }

    #[test]
    fn emitted_graphs_verify_clean() {
        for lockstep in [true, false] {
            for placement in [Placement::Hbw, Placement::Ddr] {
                let s = spec(7, lockstep, placement);
                let r = verify_spec(&s, Some(1 << 30)).unwrap();
                assert!(r.is_safe(), "{lockstep}/{placement:?}: {r}");
                assert!(r.findings.is_empty(), "{r}");
                assert_eq!(r.peak_live_chunks, 3, "{r}");
            }
        }
        let s = spec(4, true, Placement::Implicit);
        let r = verify_spec(&s, None).unwrap();
        assert!(r.findings.is_empty(), "{r}");
        assert_eq!(r.peak_live_chunks, 1);
        assert_eq!(r.peak_hbw_bytes, 0);
    }

    #[test]
    fn single_chunk_peaks_at_one() {
        let r = verify_spec(&spec(1, false, Placement::Hbw), None).unwrap();
        assert!(r.findings.is_empty(), "{r}");
        assert_eq!(r.peak_live_chunks, 1);
        assert_eq!(r.peak_hbw_bytes, 64);
    }

    #[test]
    fn dropped_recycle_edges_race_and_overflow_the_ring() {
        let s = spec(4, false, Placement::Hbw);
        let cfg = AnalysisConfig {
            construction: Construction::DropRecycleDep,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        let codes = r.codes();
        assert!(codes.contains(&"G001"), "{r}");
        assert!(codes.contains(&"G004"), "{r}");
        assert!(r.findings.iter().all(|f| !f.trace.is_empty()), "{r}");
    }

    #[test]
    fn notify_one_starves_lockstep_waiters() {
        let s = spec(4, true, Placement::Hbw);
        let cfg = AnalysisConfig {
            construction: Construction::NotifyOne,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert_eq!(r.codes(), vec!["G002"], "{r}");
        // Dataflow chains have single dependents everywhere: immune.
        let s = spec(4, false, Placement::Hbw);
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn no_recheck_races_the_lockstep_ring() {
        let s = spec(4, true, Placement::Hbw);
        let cfg = AnalysisConfig {
            construction: Construction::NoRecheck,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
    }

    #[test]
    fn poison_skip_leaks_the_poisoned_slot() {
        let s = spec(4, false, Placement::Hbw);
        let p = plan_pipeline(&s);
        let cfg = AnalysisConfig {
            construction: Construction::PoisonSkipLock,
            kernel_panic: Some(1),
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &s, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        // The correct construction cancels the dependents: no leak.
        let cfg = AnalysisConfig {
            kernel_panic: Some(1),
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &s, &cfg);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn kernel_panic_on_an_absent_chunk_is_unreachable() {
        // A panic on a chunk the plan never computes leaves the poison
        // proof nothing to check; it must not read as safe.
        let s = spec(4, false, Placement::Hbw);
        let cfg = AnalysisConfig {
            kernel_panic: Some(99),
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert!(!r.is_safe(), "{r}");
        assert_eq!(r.codes(), vec!["G006"], "{r}");
        assert!(r.findings[0].message.contains("chunk 99"), "{r}");
        assert!(!r.findings[0].trace.is_empty(), "{r}");
    }

    #[test]
    fn hand_built_cycle_is_a_deadlock() {
        let p = hand_built(vec![
            node(PlanKind::Kernel, &[1]),
            node(PlanKind::Barrier, &[0]),
        ]);
        let r = analyze(
            &p,
            &spec(1, true, Placement::Hbw),
            &AnalysisConfig::default(),
        );
        assert_eq!(r.codes(), vec!["G002"], "{r}");
        assert!(r.findings[0].trace.len() >= 2, "{r}");
    }

    #[test]
    fn dangling_and_self_deps_are_unreachable() {
        let p = hand_built(vec![
            node(PlanKind::Kernel, &[7]),
            node(PlanKind::Barrier, &[1]),
        ]);
        let r = analyze(
            &p,
            &spec(1, true, Placement::Hbw),
            &AnalysisConfig::default(),
        );
        assert!(r.codes().contains(&"G006"), "{r}");
    }

    #[test]
    fn dead_token_is_advisory() {
        // Compute of chunk 0 is issued but nobody consumes its completion
        // and no copy-out drains it.
        let p = hand_built(vec![
            node(PlanKind::StageIn, &[]),
            node(PlanKind::Kernel, &[0]),
            node(PlanKind::Barrier, &[0]),
        ]);
        let r = analyze(
            &p,
            &spec(1, true, Placement::Hbw),
            &AnalysisConfig::default(),
        );
        assert!(r.codes().contains(&"G005"), "{r}");
        assert!(r.is_safe(), "advisory findings keep the schedule safe: {r}");
    }

    #[test]
    fn capacity_bound_fires_on_a_tiny_budget() {
        let s = spec(7, false, Placement::Hbw);
        let r = verify_spec(&s, Some(128)).unwrap();
        // Peak is 3 chunks x 64 bytes = 192 > 128.
        assert_eq!(r.codes(), vec!["G003"], "{r}");
        assert_eq!(r.peak_hbw_bytes, 192);
    }

    fn stencil_spec(n_chunks: u64, lockstep: bool) -> PipelineSpec {
        PipelineSpec {
            workload: Workload::Stencil { halo_bytes: 16 },
            ..spec(n_chunks, lockstep, Placement::Hbw)
        }
    }

    #[test]
    fn stencil_graphs_verify_clean_on_the_deeper_ring() {
        for lockstep in [true, false] {
            for n in [1, 2, 5, 9] {
                let s = stencil_spec(n, lockstep);
                let r = verify_spec(&s, Some(1 << 30)).unwrap();
                assert!(r.is_safe(), "lockstep={lockstep} n={n}: {r}");
                assert!(r.findings.is_empty(), "{r}");
            }
        }
        // A long dataflow run saturates both 4-deep buffer rings: peak
        // HBW = (4 in + 4 out) x 64 bytes.
        let r = verify_spec(&stencil_spec(9, false), Some(1 << 30)).unwrap();
        assert_eq!(r.peak_live_chunks, 4, "{r}");
        assert_eq!(r.peak_hbw_bytes, 8 * 64, "{r}");
    }

    #[test]
    fn default_config_takes_the_ring_depth_from_the_plan() {
        // With a ring depth of its own, the default config judged this
        // correct stencil against 3 slots: two false G004s, and chunk 6
        // labelled slot 0 when it sits in slot 2.
        let s = stencil_spec(9, false);
        let p = plan_pipeline(&s);
        let r = analyze(&p, &s, &AnalysisConfig::default());
        assert!(r.findings.is_empty(), "{r}");
        assert_eq!(r.peak_live_chunks, 4, "{r}");
        // A zero budget makes G003 print the live-chunk witness.
        let cfg = AnalysisConfig {
            hbw_budget: Some(0),
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &s, &cfg);
        assert_eq!(r.codes(), vec!["G003"], "{r}");
        let witness: Vec<&String> = r.findings[0]
            .trace
            .iter()
            .filter(|line| line.starts_with("chunk "))
            .collect();
        assert_eq!(witness.len(), 8, "{r}");
        for line in witness {
            let chunk: usize = line["chunk ".len()..]
                .split(' ')
                .next()
                .and_then(|c| c.parse().ok())
                .expect("chunk number");
            let slot: usize = line
                .rsplit("(slot ")
                .next()
                .and_then(|s| s.trim_end_matches(')').parse().ok())
                .expect("slot number");
            assert_eq!(slot, chunk % 4, "{line}");
        }
    }

    #[test]
    fn dropped_halo_edges_race_the_in_buffers() {
        let s = stencil_spec(6, false);
        let cfg = AnalysisConfig {
            construction: Construction::DropHaloDep,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        assert!(
            r.findings
                .iter()
                .any(|f| f.check == GraphCheck::Race && f.message.contains("in-buffer")),
            "{r}"
        );
        // Map plans carry no halo edges, so the weakening is a no-op.
        let s = spec(6, false, Placement::Hbw);
        let r = analyze(&plan_pipeline(&s), &s, &cfg);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn stencil_recycle_edges_are_classified_and_droppable() {
        let s = stencil_spec(7, false);
        let p = plan_pipeline(&s);
        // Stage-in of chunk 4 recycles slot 0: every dep is a Recycle
        // edge, so DropRecycleDep leaves it waiting on nothing.
        let in4 = p.find(PlanKind::StageIn, 4).unwrap();
        assert!(!p.nodes[in4].deps.is_empty());
        assert!(effective_deps(&p, Construction::DropRecycleDep)[in4].is_empty());
        // Compute of chunk 2 loses exactly its two halo edges under
        // DropHaloDep.
        let comp2 = p.find(PlanKind::Kernel, 2).unwrap();
        let kept = effective_deps(&p, Construction::DropHaloDep);
        assert_eq!(p.nodes[comp2].deps.len() - kept[comp2].len(), 2);
        // Dropping recycle edges must blow both race and ring-width.
        let cfg = AnalysisConfig {
            construction: Construction::DropRecycleDep,
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &s, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        assert!(r.codes().contains(&"G004"), "{r}");
    }

    #[test]
    fn stencil_footprints_model_split_buffers_and_halo_reads() {
        let s = stencil_spec(6, false);
        let fp = |stage, chunk: usize| {
            action_footprint(
                &s,
                ChunkAction {
                    stage,
                    chunk,
                    slot: chunk % s.ring_slots(),
                },
            )
        };
        assert_eq!(fp(Stage::CopyIn, 2), vec![(BufferKey::In(2), true)]);
        assert_eq!(fp(Stage::CopyOut, 2), vec![(BufferKey::Out(2), false)]);
        // Interior compute: reads in-slots 1, 2, 3; writes out-slot 2.
        assert_eq!(
            fp(Stage::Compute, 2),
            vec![
                (BufferKey::In(1), false),
                (BufferKey::In(2), false),
                (BufferKey::In(3), false),
                (BufferKey::Out(2), true),
            ]
        );
        // Boundary computes drop the missing halo read.
        assert_eq!(
            fp(Stage::Compute, 0),
            vec![
                (BufferKey::In(0), false),
                (BufferKey::In(1), false),
                (BufferKey::Out(0), true),
            ]
        );
        // Map keeps the single-buffer model.
        let m = spec(6, false, Placement::Hbw);
        assert_eq!(
            action_footprint(
                &m,
                ChunkAction {
                    stage: Stage::Compute,
                    chunk: 4,
                    slot: 1,
                }
            ),
            vec![(BufferKey::Main(1), true)]
        );
    }

    #[test]
    fn recorder_matches_drive_shape() {
        let s = spec(5, true, Placement::Hbw);
        let p = plan_pipeline(&s);
        // 3 stages x 5 chunks + 7 barriers, and the recorded drive walk is
        // the same nodes plus its Finish.
        assert_eq!(p.nodes.len(), 22);
        let mut rec = RecordingBackend::new(NullBackend::new());
        drive(&mut rec, &s).unwrap();
        assert_eq!(rec.events().len(), p.nodes.len() + 1);
        assert_eq!(rec.events().last(), Some(&Event::Finish));
        assert!(p.find(PlanKind::StageOut, 4).is_some());
        assert!(p.find(PlanKind::StageOut, 5).is_none());
        assert_eq!(describe(&p, p.nodes.len() - 1), "step barrier (node 21)");
        assert_eq!(describe(&p, 0), "CopyIn of chunk 0 (slot 0, node 0)");
    }
}
