//! The static schedule verifier, over the plan the schedule is built as.
//!
//! [`plan_pipeline`] writes one dependency DAG per spec, and
//! [`SortPlan::to_workload_plan`] one per sort run: a [`WorkloadPlan`] of
//! stage nodes and barriers whose edges say why they exist
//! ([`EdgeKind`]), plus the buffers the plan keeps resident and the
//! buffers each node reads or writes. Two consumers read that plan
//! directly (DESIGN.md S22):
//!
//! * the **executor** ([`interpret`](crate::plan::interpret)) walks one
//!   linearization of it over a backend;
//! * the **static analyzer** ([`analyze`]) proves properties over *every*
//!   linearization without enumerating them, from happens-before queries
//!   on the DAG:
//!
//!   | check | code | property |
//!   |-------|------|----------|
//!   | [`GraphCheck::Race`]        | G001 | conflicting touches of a buffer are dependency-ordered (incl. poison-drain) |
//!   | [`GraphCheck::Deadlock`]    | G002 | no cycles, no starved waiters |
//!   | [`GraphCheck::Capacity`]    | G003 | the declared HBW buffers fit the MCDRAM budget |
//!   | [`GraphCheck::RingWidth`]   | G004 | no chunk claims a slot's buffer while an earlier chunk of that slot still uses it |
//!   | [`GraphCheck::DeadToken`]   | G005 | every completion is consumed (advisory) |
//!   | [`GraphCheck::Unreachable`] | G006 | no dangling/self dependencies, no unrunnable ops, no panic on an absent chunk |
//!
//! The analyzer knows no workload family: which buffers exist and who
//! touches them is read from the plan ([`WorkloadPlan::buffers`],
//! [`WorkloadPlan::footprint`]). A happens-before query `a → b` is a
//! backward search from `b` that never steps below `a`'s position in one
//! topological order. G001 queries only the touches of a buffer that are
//! adjacent in that order, and G004 only each chunk against the nearest
//! writing chunk before it on the same slot; transitivity covers every
//! other pair, so both checks are exact. On the plans `plan_pipeline`
//! builds, each query walks a bounded number of edges, and
//! [`GraphReport::visited`] counts them.
//!
//! [`AnalysisConfig::construction`] analyses the plan as one of the
//! deliberately broken executors ([`Construction`]) would execute it
//! (dropped recycle or halo edges, notify-one wakeups, missing predicate
//! rechecks, poison without cancellation), which is how the analyzer
//! flags each of the five catalogued bugs statically.

use std::fmt;

use crate::error::DriveError;
use crate::placement::Placement;
use crate::plan::{plan_pipeline, Access, EdgeKind, PlanKind, WorkloadPlan};
use crate::sortplan::SortPlan;
use crate::spec::PipelineSpec;

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
    /// G001 — two touches of one buffer, at least one a write, with no
    /// dependency path ordering them (happens-before race), or uncancelled
    /// work touches a poisoned buffer.
    Race,
    /// G002 — a dependency cycle, or a waiter whose notification can
    /// never be delivered (starvation): some work can never run.
    Deadlock,
    /// G003 — the plan's declared HBW buffers exceed the MCDRAM budget.
    Capacity,
    /// G004 — a later chunk can claim a ring slot's buffer while an
    /// earlier chunk of that slot still uses it.
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
    /// Bytes of the plan's declared HBW buffers: what stays resident in
    /// MCDRAM for the whole run.
    pub peak_hbw_bytes: u64,
    /// Dependency edges walked by the happens-before searches: the proof's
    /// work, exact and independent of the machine.
    pub visited: u64,
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
            "schedule graph: {} nodes, {} edges, {} HBW bytes, {} edges visited",
            self.nodes, self.edges, self.peak_hbw_bytes, self.visited
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
// Happens-before queries
// ---------------------------------------------------------------------------

/// Kahn topological order over `deps`, first-in first-out so a plan built
/// in issue order keeps roughly that order; `None` when a cycle exists.
fn topo_order(n: usize, deps: &[Vec<usize>]) -> Option<Vec<usize>> {
    let mut dependents = vec![Vec::new(); n];
    let mut remaining = vec![0usize; n];
    for (i, dl) in deps.iter().enumerate() {
        for &d in dl {
            dependents[d].push(i);
            remaining[i] += 1;
        }
    }
    // `order` doubles as the queue: everything past `head` is ready.
    let mut order: Vec<usize> = (0..n).filter(|&i| remaining[i] == 0).collect();
    let mut head = 0;
    while let Some(&i) = order.get(head) {
        head += 1;
        for &d in &dependents[i] {
            remaining[d] -= 1;
            if remaining[d] == 0 {
                order.push(d);
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

/// Happens-before queries over one edge set. [`Reach::before`] is a
/// backward search from the later node that never steps below the earlier
/// node's topological position, since nothing there lies on a path
/// between them. Its visited set is stamped per query, so a query costs
/// the edges it walks, never O(nodes).
struct Reach<'a> {
    deps: &'a [Vec<usize>],
    pos: &'a [usize],
    stamp: Vec<usize>,
    query: usize,
    stack: Vec<usize>,
    /// Edges walked by all queries so far.
    visited: u64,
}

impl<'a> Reach<'a> {
    fn new(deps: &'a [Vec<usize>], pos: &'a [usize]) -> Self {
        Reach {
            deps,
            pos,
            stamp: vec![0; pos.len()],
            query: 0,
            stack: Vec::new(),
            visited: 0,
        }
    }

    /// Does a dependency path lead from `a` to `b`?
    fn before(&mut self, a: usize, b: usize) -> bool {
        let floor = self.pos[a];
        if floor >= self.pos[b] {
            return false;
        }
        self.query += 1;
        self.stack.clear();
        self.stack.push(b);
        while let Some(x) = self.stack.pop() {
            for &d in &self.deps[x] {
                self.visited += 1;
                if d == a {
                    return true;
                }
                if self.pos[d] > floor && self.stamp[d] != self.query {
                    self.stamp[d] = self.query;
                    self.stack.push(d);
                }
            }
        }
        false
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
pub fn analyze(plan: &WorkloadPlan, cfg: &AnalysisConfig) -> GraphReport {
    let n = plan.nodes.len();
    let edges = plan.nodes.iter().map(|node| node.deps.len()).sum();
    let hbw: Vec<_> = plan
        .buffers
        .iter()
        .filter(|b| b.tier == Placement::Hbw)
        .collect();
    let peak_hbw_bytes = hbw.iter().map(|b| b.bytes).fold(0, u64::saturating_add);
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
    // all; report the cycle and stop (the queries below assume a DAG).
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
            peak_hbw_bytes,
            visited: 0,
            findings,
        };
    };
    let mut pos = vec![0; n];
    for (k, &i) in topo.iter().enumerate() {
        pos[i] = k;
    }

    // The effective edges: those the construction waits on at all, and
    // under NoRecheck only an edge `d -> i` whose completion the executor's
    // run-on-first-notification shortcut cannot overtake — `d`
    // happens-before every other dependency of `i`, so whichever
    // notification arrives first, `d` is already done. Every subset of the
    // valid edges keeps `topo` a topological order.
    let construction = cfg.construction;
    let mut visited = 0;
    let mut eff = effective_deps(plan, construction);
    if construction == Construction::NoRecheck {
        let mut reach = Reach::new(&eff, &pos);
        let filtered = eff
            .iter()
            .map(|dl| {
                dl.iter()
                    .copied()
                    .filter(|&d| dl.iter().all(|&o| o == d || reach.before(d, o)))
                    .collect()
            })
            .collect();
        visited += reach.visited;
        eff = filtered;
    }

    // G002 — notify-one starvation: a waiter that is not the statically
    // first dependent of one of its dependencies never hears that
    // completion; anything downstream of a starved node starves too.
    if construction == Construction::NotifyOne {
        let dependents = {
            let mut out = vec![Vec::new(); n];
            for (i, dl) in eff.iter().enumerate() {
                for &d in dl {
                    out[d].push(i);
                }
            }
            out
        };
        let mut starved_by: Vec<Option<usize>> = vec![None; n];
        for (i, dl) in eff.iter().enumerate() {
            for &d in dl {
                if dependents[d].first() != Some(&i) {
                    starved_by[i] = Some(d);
                }
            }
        }
        let mut stuck = vec![false; n];
        for &i in &topo {
            stuck[i] = starved_by[i].is_some() || eff[i].iter().any(|&d| stuck[d]);
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

    let mut reach = Reach::new(&eff, &pos);
    // Each buffer's touches, in topological order.
    let mut touches: Vec<Vec<(usize, Access)>> = vec![Vec::new(); plan.buffers.len()];
    for &i in &topo {
        for &(b, access) in plan.footprint(i) {
            if let Some(list) = touches.get_mut(b) {
                list.push((i, access));
            }
        }
    }

    // G001 — happens-before races: two touches of one buffer conflict
    // unless both read, and every conflicting pair must be connected by a
    // dependency path, else some linearization runs them concurrently.
    // Along the topological order it is enough to ask each read about the
    // nearest write before and after it and each write about the previous
    // write: if those hold, the writes form a chain with every read
    // between its neighbours, which orders every other conflicting pair.
    let mut raced = vec![false; plan.buffers.len()];
    for (b, list) in touches.iter().enumerate() {
        let mut unordered = Vec::new();
        let mut last_write = None;
        let mut reads = Vec::new();
        for &(x, access) in list {
            let mut check = |p: usize| {
                if p != x && !reach.before(p, x) {
                    unordered.push((p, x));
                }
            };
            if let Some(w) = last_write {
                check(w);
            }
            match access {
                Access::Read => reads.push(x),
                Access::Write => {
                    reads.drain(..).for_each(&mut check);
                    last_write = Some(x);
                }
            }
        }
        let Some(&(i, j)) = unordered.first() else {
            continue;
        };
        raced[b] = true;
        let buffer = plan.buffers[b].describe();
        findings.push(GraphFinding {
            check: GraphCheck::Race,
            message: format!(
                "{buffer}: {} action pair(s) with no dependency path between them",
                unordered.len()
            ),
            trace: vec![
                format!(
                    "{} and {} both touch {buffer}",
                    describe(plan, i),
                    describe(plan, j)
                ),
                "no dependency path orders them under the analysed discipline".into(),
            ],
        });
    }

    // G004 — ring order: the chunks that own a buffer's slot take turns in
    // it, so every conflicting pair of touches from two of them must run
    // the earlier chunk first. Each chunk is compared with the nearest
    // writing chunk before it, and a writing chunk also with the read-only
    // chunks since that one; conflicts chain through the writing chunks,
    // which covers every other pair. On a buffer G001 found race-free,
    // conflicting touches are ordered exactly as the topological order
    // lists them, so no search is needed there.
    // A touch by a node that owns the buffer's slot: (chunk, node, access).
    type Owned = (usize, usize, Access);
    for (b, list) in touches.iter().enumerate() {
        let slot = plan.buffers[b].slot;
        let mut owners: Vec<Owned> = list
            .iter()
            .filter(|&&(i, _)| plan.nodes[i].slot == slot)
            .filter_map(|&(i, access)| Some((plan.nodes[i].chunk?, i, access)))
            .collect();
        owners.sort_by_key(|&(chunk, i, _)| (chunk, pos[i]));
        let chunks: Vec<&[Owned]> = owners.chunk_by(|x, y| x.0 == y.0).collect();
        let mut late = Vec::new();
        let mut runs_first = |x: usize, y: usize| {
            if raced[b] {
                reach.before(x, y)
            } else {
                pos[x] < pos[y]
            }
        };
        let mut check = |earlier: &[Owned], later: &[Owned]| {
            for &(_, x, ax) in earlier {
                for &(_, y, ay) in later {
                    if (ax == Access::Write || ay == Access::Write) && !runs_first(x, y) {
                        late.push((x, y));
                    }
                }
            }
        };
        let mut writer = None;
        let mut readers = Vec::new();
        for &later in &chunks {
            if let Some(w) = writer {
                check(w, later);
            }
            if later.iter().any(|&(_, _, a)| a == Access::Write) {
                readers.drain(..).for_each(|r| check(r, later));
                writer = Some(later);
            } else {
                readers.push(later);
            }
        }
        let Some(&(x, y)) = late.first() else {
            continue;
        };
        let buffer = plan.buffers[b].describe();
        let chunk = |i: usize| plan.nodes[i].chunk.expect("slot owners carry a chunk");
        findings.push(GraphFinding {
            check: GraphCheck::RingWidth,
            message: format!(
                "{buffer}: chunk {} can claim it while chunk {} still uses it ({} touch pair(s) out of ring order, {} slots)",
                chunk(y),
                chunk(x),
                late.len(),
                plan.ring_slots
            ),
            trace: vec![
                format!(
                    "{} does not wait for {}",
                    describe(plan, y),
                    describe(plan, x)
                ),
                format!("both touch {buffer}, which a ring slot holds for one chunk at a time"),
            ],
        });
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

    // G001 (poison) — with a modeled kernel panic, the buffers the
    // panicked compute writes hold garbage: everything else that touches
    // one must be a guaranteed-cancelled dependent of the panic or run
    // before it.
    if let Some((k, Some(p))) = panicked {
        let poisoned: Vec<usize> = plan
            .footprint(p)
            .iter()
            .filter(|&&(_, access)| access == Access::Write)
            .map(|&(b, _)| b)
            .collect();
        let slot = plan.nodes[p].slot;
        for i in (0..n).filter(|&i| i != p) {
            if !plan.footprint(i).iter().any(|(b, _)| poisoned.contains(b)) {
                continue;
            }
            let cancelled = construction != Construction::PoisonSkipLock && reach.before(p, i);
            if cancelled || reach.before(i, p) {
                continue;
            }
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
    visited += reach.visited;

    // G003 — capacity: every declared HBW buffer stays resident for the
    // whole run.
    if let Some(budget) = cfg.hbw_budget.filter(|&b| peak_hbw_bytes > b) {
        let mut trace = vec![format!(
            "peak = {} declared HBW buffers, {peak_hbw_bytes} bytes in all",
            hbw.len()
        )];
        trace.extend(
            hbw.iter()
                .take(8)
                .map(|b| format!("{}: {} bytes", b.describe(), b.bytes)),
        );
        if hbw.len() > 8 {
            trace.push(format!("... and {} more", hbw.len() - 8));
        }
        findings.push(GraphFinding {
            check: GraphCheck::Capacity,
            message: format!(
                "peak HBW occupancy {peak_hbw_bytes} bytes exceeds the MCDRAM budget of {budget} bytes"
            ),
            trace,
        });
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
        peak_hbw_bytes,
        visited,
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
    let report = analyze(&plan, &cfg);
    Ok((plan, report))
}

/// Lower a sort plan, check its structure ([`WorkloadPlan::validate`])
/// and [`analyze`] it under `cfg` (whose `hbw_budget` is the MCDRAM the
/// declared HBW buffers must fit). The sort counterpart of
/// [`verify_spec`]: the simulated sort interprets the plan returned here,
/// so the proof covers the plan it runs.
///
/// `Err` only when the lowered plan is malformed ([`DriveError::Spec`]).
pub fn verify_sort(
    plan: &SortPlan,
    cfg: &AnalysisConfig,
) -> Result<(WorkloadPlan, GraphReport), DriveError> {
    let lowered = plan.to_workload_plan();
    lowered.validate().map_err(DriveError::Spec)?;
    let report = analyze(&lowered, cfg);
    Ok((lowered, report))
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
    use crate::drive::{drive_verified, RING_SLOTS};
    use crate::plan::{PlanEdge, PlanNode};
    use crate::recording::{Event, NullBackend, RecordingBackend};
    use crate::spec::Workload;

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
            footprint: 0..0,
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
            buffers: Vec::new(),
            touches: Vec::new(),
        }
    }

    /// The pinned bound on happens-before work per plan edge.
    const VISITED_PER_EDGE: u64 = 4;

    #[test]
    fn emitted_graphs_verify_clean() {
        for lockstep in [true, false] {
            for placement in [Placement::Hbw, Placement::Ddr] {
                let s = spec(7, lockstep, placement);
                let r = verify_spec(&s, Some(1 << 30)).unwrap();
                assert!(r.is_safe(), "{lockstep}/{placement:?}: {r}");
                assert!(r.findings.is_empty(), "{r}");
                let ring = if placement == Placement::Hbw {
                    3 * 64
                } else {
                    0
                };
                assert_eq!(r.peak_hbw_bytes, ring, "{r}");
            }
        }
        let s = spec(4, true, Placement::Implicit);
        let r = verify_spec(&s, None).unwrap();
        assert!(r.findings.is_empty(), "{r}");
        assert_eq!(r.peak_hbw_bytes, 0);
    }

    #[test]
    fn single_chunk_peaks_at_one() {
        let r = verify_spec(&spec(1, false, Placement::Hbw), None).unwrap();
        assert!(r.findings.is_empty(), "{r}");
        // Only the one slot a chunk lands in is declared.
        assert_eq!(r.peak_hbw_bytes, 64);
    }

    #[test]
    fn dropped_recycle_edges_race_and_overflow_the_ring() {
        let s = spec(4, false, Placement::Hbw);
        let cfg = AnalysisConfig {
            construction: Construction::DropRecycleDep,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &cfg);
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
        let r = analyze(&plan_pipeline(&s), &cfg);
        assert_eq!(r.codes(), vec!["G002"], "{r}");
        // Dataflow chains have single dependents everywhere: immune.
        let s = spec(4, false, Placement::Hbw);
        let r = analyze(&plan_pipeline(&s), &cfg);
        assert!(r.is_safe(), "{r}");
    }

    #[test]
    fn no_recheck_races_the_lockstep_ring() {
        let s = spec(4, true, Placement::Hbw);
        let cfg = AnalysisConfig {
            construction: Construction::NoRecheck,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &cfg);
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
        let r = analyze(&p, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        // The correct construction cancels the dependents: no leak.
        let cfg = AnalysisConfig {
            kernel_panic: Some(1),
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &cfg);
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
        let r = analyze(&plan_pipeline(&s), &cfg);
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
        let r = analyze(&p, &AnalysisConfig::default());
        assert_eq!(r.codes(), vec!["G002"], "{r}");
        assert!(r.findings[0].trace.len() >= 2, "{r}");
    }

    #[test]
    fn dangling_and_self_deps_are_unreachable() {
        let p = hand_built(vec![
            node(PlanKind::Kernel, &[7]),
            node(PlanKind::Barrier, &[1]),
        ]);
        let r = analyze(&p, &AnalysisConfig::default());
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
        let r = analyze(&p, &AnalysisConfig::default());
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
        // Both schedules allocate both 4-deep buffer rings: peak HBW =
        // (4 in + 4 out) x 64 bytes.
        for lockstep in [true, false] {
            let r = verify_spec(&stencil_spec(9, lockstep), Some(1 << 30)).unwrap();
            assert_eq!(r.peak_hbw_bytes, 8 * 64, "{r}");
        }
    }

    #[test]
    fn default_config_takes_the_ring_depth_from_the_plan() {
        // With a ring depth of its own, the default config once judged
        // this correct stencil against 3 slots: two false G004s, and chunk
        // 6 labelled slot 0 when it sits in slot 2.
        let s = stencil_spec(9, false);
        let p = plan_pipeline(&s);
        let r = analyze(&p, &AnalysisConfig::default());
        assert!(r.findings.is_empty(), "{r}");
        // A zero budget makes G003 list the declared buffers: both roles
        // of each of the 4 slots.
        let cfg = AnalysisConfig {
            hbw_budget: Some(0),
            ..AnalysisConfig::default()
        };
        let r = analyze(&p, &cfg);
        assert_eq!(r.codes(), vec!["G003"], "{r}");
        let witness: Vec<&str> = r.findings[0].trace[1..]
            .iter()
            .map(String::as_str)
            .collect();
        let expected: Vec<String> = ["in-buffer", "out-buffer"]
            .iter()
            .flat_map(|role| (0..4).map(move |slot| format!("{role} slot {slot}: 64 bytes")))
            .collect();
        assert_eq!(witness, expected, "{r}");
    }

    #[test]
    fn dropped_halo_edges_race_the_in_buffers() {
        let s = stencil_spec(6, false);
        let cfg = AnalysisConfig {
            construction: Construction::DropHaloDep,
            ..AnalysisConfig::default()
        };
        let r = analyze(&plan_pipeline(&s), &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        assert!(
            r.findings
                .iter()
                .any(|f| f.check == GraphCheck::Race && f.message.contains("in-buffer")),
            "{r}"
        );
        // The race stays within one chunk's data: a compute reads its
        // neighbour's in-buffer before that chunk landed there, but no
        // chunk claims a slot another chunk still uses.
        assert!(!r.codes().contains(&"G004"), "{r}");
        // Map plans carry no halo edges, so the weakening is a no-op.
        let s = spec(6, false, Placement::Hbw);
        let r = analyze(&plan_pipeline(&s), &cfg);
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
        let r = analyze(&p, &cfg);
        assert!(r.codes().contains(&"G001"), "{r}");
        assert!(r.codes().contains(&"G004"), "{r}");
    }

    #[test]
    fn stencil_footprints_model_split_buffers_and_halo_reads() {
        use Access::{Read, Write};
        let p = plan_pipeline(&stencil_spec(6, false));
        // Buffers 0..4 are the in-buffers of slots 0..4, 4..8 the
        // out-buffers.
        assert_eq!(p.buffers.len(), 8);
        assert_eq!(p.buffers[5].describe(), "out-buffer slot 1");
        let fp = |kind, chunk| p.footprint(p.find(kind, chunk).unwrap()).to_vec();
        assert_eq!(fp(PlanKind::StageIn, 2), vec![(2, Write)]);
        assert_eq!(fp(PlanKind::StageOut, 2), vec![(6, Read)]);
        // Interior compute: reads in-slots 1, 2, 3; writes out-slot 2.
        assert_eq!(
            fp(PlanKind::Kernel, 2),
            vec![(1, Read), (2, Read), (3, Read), (6, Write)]
        );
        // Boundary computes drop the missing halo read; chunk 5 sits in
        // slot 1.
        assert_eq!(
            fp(PlanKind::Kernel, 0),
            vec![(0, Read), (1, Read), (4, Write)]
        );
        assert_eq!(
            fp(PlanKind::Kernel, 5),
            vec![(0, Read), (1, Read), (5, Write)]
        );
        // Map keeps the single-buffer model: every stage updates its
        // slot's one buffer in place.
        let m = plan_pipeline(&spec(6, false, Placement::Hbw));
        assert_eq!(m.buffers.len(), 3);
        assert_eq!(
            m.footprint(m.find(PlanKind::Kernel, 4).unwrap()),
            [(1, Write)]
        );
        // Cache mode owns and touches no buffers.
        let implicit = plan_pipeline(&spec(6, true, Placement::Implicit));
        assert!(implicit.buffers.is_empty() && implicit.touches.is_empty());
    }

    #[test]
    fn proof_work_is_linear_in_plan_edges() {
        // Exact counters, no stopwatch: on fine-chunked specs every
        // happens-before search walks a bounded number of edges, so the
        // proof's work grows with the plan, not with its square. The last
        // spec is 32 KiB in 1-byte chunks: 32,768 chunks.
        let fine = PipelineSpec {
            total_bytes: 32 << 10,
            chunk_bytes: 1,
            ..spec(1, true, Placement::Hbw)
        };
        for s in [
            spec(8192, true, Placement::Hbw),
            spec(8192, false, Placement::Hbw),
            stencil_spec(8192, false),
            fine,
        ] {
            let r = verify_spec(&s, None).unwrap();
            assert!(r.findings.is_empty(), "{r}");
            assert!(
                r.visited <= VISITED_PER_EDGE * r.edges as u64,
                "{} chunks: {r}",
                s.n_chunks()
            );
        }
    }

    #[test]
    fn recorder_matches_drive_shape() {
        let s = spec(5, true, Placement::Hbw);
        let p = plan_pipeline(&s);
        // 3 stages x 5 chunks + 7 barriers, and the recorded drive walk is
        // the same nodes plus its Finish.
        assert_eq!(p.nodes.len(), 22);
        let mut rec = RecordingBackend::new(NullBackend::new());
        drive_verified(&mut rec, &s, None).unwrap();
        assert_eq!(rec.events().len(), p.nodes.len() + 1);
        assert_eq!(rec.events().last(), Some(&Event::Finish));
        assert!(p.find(PlanKind::StageOut, 4).is_some());
        assert!(p.find(PlanKind::StageOut, 5).is_none());
        assert_eq!(describe(&p, p.nodes.len() - 1), "step barrier (node 21)");
        assert_eq!(describe(&p, 0), "CopyIn of chunk 0 (slot 0, node 0)");
    }
}
