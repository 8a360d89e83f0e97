//! The discrete-event execution engine.
//!
//! [`Simulator::run`] executes a [`Program`] against a [`MachineConfig`]:
//! ops become *flows* competing for DDR and MCDRAM bandwidth under
//! max–min-fair arbitration ([`crate::bandwidth`]); virtual time advances
//! from one flow completion (or delay expiry) to the next; cache-mode
//! accesses are resolved through the direct-mapped cache model at op start.
//!
//! ## Engine architecture
//!
//! The engine is an indexed-event-queue DES core (see DESIGN.md §20):
//!
//! * **Event heap** — a binary min-heap keyed by `(time, seq)` (total order
//!   on `f64` via `total_cmp`, monotone sequence number as a stable
//!   tie-break) holds delay expiries and one *predicted* drain time per
//!   flow class: its head's.
//! * **Lazy invalidation** — a class's prediction carries the class's
//!   prediction counter; when an epoch moves the class's rate, or a new
//!   flow or a drain changes its head, the counter is bumped and one new
//!   prediction pushed, while the stale heap entry is simply skipped when
//!   popped.
//! * **Ready worklist** — startable ops are discovered incrementally: op
//!   completion enqueues exactly the threads whose front op may have
//!   become startable, replacing the all-threads fixed-point rescan. The
//!   worklist is drained in ascending thread order with a wrap-around
//!   cursor, reproducing the reference loop's start order bit-for-bit
//!   (start order matters in cache mode: ops mutate the direct-mapped
//!   cache model when they start).
//! * **Rate epochs** — the max–min-fair water-filling runs only when the
//!   *set* of active flows changes; all same-timestamp completions and
//!   starts coalesce into one re-arbitration.
//! * **Flow classes** — active flows whose demand coefficients and cap are
//!   bit-identical form one class, and an epoch arbitrates classes, not
//!   flows. Grouping cannot change a rate — identical specs pass the same
//!   freeze test in the same filling round — so every member of a class
//!   runs at the class's rate.
//! * **Per-class virtual clock** — a class's `vclock` counts the bytes
//!   each member has moved, and a member drains when it reaches the
//!   member's `finish` (the clock at join plus the flow's length). The
//!   clock integrates only when the class's membership or rate changes,
//!   and members wait in a per-class min-heap on `finish`, so an epoch
//!   that moves a class's rate costs one sync and one push however many
//!   flows the class holds.
//!
//! The pre-rearchitecture loop is preserved verbatim behind the
//! `reference-engine` feature ([`Simulator::run_reference`]) and the two
//! are differential-tested on random programs.
//!
//! Determinism: given the same config and program the result is bit-for-bit
//! identical — there is no randomness and no dependence on host timing.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

use crate::bandwidth::{Arbiter, FlowSpec};
use crate::cache::DirectMappedCache;
use crate::error::{SimError, StuckOp};
use crate::machine::{MachineConfig, MemLevel};
use crate::ops::{Access, OpId, OpKind, Place, Program};
use crate::report::{LevelTraffic, SimReport};
use crate::trace::{BusSegment, OpRecord, Trace};

pub(crate) const DDR: usize = 0;
pub(crate) const MCD: usize = 1;
/// Completion tolerance in bytes; sub-nanosecond at GB/s rates.
pub(crate) const EPS_BYTES: f64 = 1e-3;

/// Executes programs on a simulated machine.
#[derive(Debug, Clone)]
pub struct Simulator {
    cfg: MachineConfig,
}

/// Internal engine counters, exposed for benchmarks and regression tests.
///
/// Returned by [`Simulator::run_stats`]. The counters describe *how* the
/// engine executed a program, not what the program did; they are not part
/// of the simulation result and two engines may legitimately disagree on
/// them while agreeing on the [`SimReport`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Timeline events processed: one per drained flow and one per delay
    /// expiry, plus one per drain prediction popped and re-pushed because
    /// its flow was not done yet. A class drain that ends several flows
    /// counts each, so the count does not depend on how flows are grouped.
    pub events: u64,
    /// Zero-delay ops completed inline during ready-queue draining.
    pub instant_ops: u64,
    /// Rate epochs: re-arbitrations triggered by a change of the active
    /// flow set. Same-timestamp cascades coalesce into one epoch.
    pub rate_recomputes: u64,
    /// Epochs that needed the full water-filling (demand exceeded some
    /// capacity); the rest took the everyone-at-cap fast path.
    pub full_recomputes: u64,
    /// Entries handed to the water-filling, summed over full recomputes:
    /// one per flow class, however many flows it holds.
    pub arbitrated: u64,
    /// Heap entries skipped on pop: drain predictions superseded because
    /// their class's rate or head changed after they were pushed.
    pub stale_events: u64,
    /// High-water mark of the event heap: one live prediction per flow
    /// class and one entry per pending delay, plus superseded predictions
    /// not yet popped.
    pub heap_peak: usize,
    /// Dependency countdowns built at set-up: one per single-dep op plus
    /// one per shared multi-dep list (see `Engine::new`).
    pub join_groups: usize,
}

/// An active flow: a started `Copy`/`Stream` op that drains when its
/// class's virtual clock reaches `finish`. Its start time and miss
/// penalty live with its thread (`Engine::running`), which keeps the
/// entry small for the per-class heap.
struct Member {
    /// The class clock at join plus the flow's logical bytes.
    finish: f64,
    /// The op, also the tie-break between equal finishes.
    op: u32,
}

impl PartialEq for Member {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Member {}
impl PartialOrd for Member {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Member {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.finish
            .total_cmp(&other.finish)
            .then_with(|| self.op.cmp(&other.op))
    }
}

/// A resolved flow: demand coefficients per logical byte on
/// `[DDR, MCDRAM]` (0 where unused) and the rate cap — a [`FlowSpec`]
/// without the allocation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Demand {
    pub coeff: [f64; 2],
    pub cap: f64,
}

impl Demand {
    /// Class key: flows are interchangeable iff these bits are equal.
    fn bits(&self) -> [u64; 3] {
        [
            self.coeff[DDR].to_bits(),
            self.coeff[MCD].to_bits(),
            self.cap.to_bits(),
        ]
    }

    /// The arbiter's form: one `(resource, coefficient)` pair per used bus.
    pub(crate) fn spec(&self) -> FlowSpec {
        FlowSpec {
            demand: [DDR, MCD]
                .into_iter()
                .filter(|&r| self.coeff[r] > 0.0)
                .map(|r| (r, self.coeff[r]))
                .collect(),
            cap: self.cap,
        }
    }
}

/// The active flows sharing one bit-identical [`FlowSpec`]: one entry of
/// the water-filling and one drain prediction, however many members it
/// holds.
struct FlowClass {
    spec: FlowSpec,
    /// The spec's [`Demand::bits`]: what a joining flow must match.
    bits: [u64; 3],
    /// Every member's rate since the last epoch that moved it (0 until
    /// the first).
    rate: f64,
    /// Bytes each member has moved since the class last emptied, as of
    /// `vsync`.
    vclock: f64,
    /// Virtual time at which `vclock` was last advanced.
    vsync: f64,
    /// Members by `(finish, op)`; empty when the slot is free for reuse.
    members: BinaryHeap<Reverse<Member>>,
    /// Prediction generation; drain events for older generations are
    /// stale. Kept across slot reuse.
    pred: u32,
    /// The head changed since the last prediction: the next epoch pushes
    /// a new one.
    rearm: bool,
}

#[derive(Debug, Clone, Copy)]
enum EventKind {
    /// Predicted drain of the head of class `class`; valid only while the
    /// class's prediction generation still equals `pred`.
    Drain { class: usize, pred: u32 },
    /// A delay (or post-drain miss-penalty tail) expires. Never stale.
    Expiry { op: usize, started_at: f64 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: f64,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == std::cmp::Ordering::Equal
    }
}
impl Eq for Event {}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time
            .total_cmp(&other.time)
            .then_with(|| self.seq.cmp(&other.seq))
    }
}

impl Simulator {
    /// Create a simulator for the given machine. Validates the config.
    pub fn new(cfg: MachineConfig) -> Self {
        cfg.validate().expect("invalid machine config");
        Simulator { cfg }
    }

    /// Fallible constructor variant.
    pub fn try_new(cfg: MachineConfig) -> Result<Self, SimError> {
        cfg.validate()?;
        Ok(Simulator { cfg })
    }

    /// The machine this simulator models.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Execute `prog` from a cold machine state (empty cache) and return the
    /// report.
    pub fn run(&self, prog: &Program) -> Result<SimReport, SimError> {
        Ok(self.run_inner(prog, None)?.0)
    }

    /// Like [`Self::run`], additionally recording a per-op execution
    /// [`Trace`] (start/end times, thread, label).
    pub fn run_traced(&self, prog: &Program) -> Result<(SimReport, Trace), SimError> {
        let (report, trace, _) = self.run_inner(prog, Some(Trace::default()))?;
        Ok((report, trace.expect("trace requested")))
    }

    /// Like [`Self::run`], additionally returning the engine's internal
    /// [`EngineStats`] counters (events processed, rate epochs, stale heap
    /// entries, ...).
    pub fn run_stats(&self, prog: &Program) -> Result<(SimReport, EngineStats), SimError> {
        let (report, _, stats) = self.run_inner(prog, None)?;
        Ok((report, stats))
    }

    /// Validate `prog` against this machine without executing anything.
    ///
    /// [`Self::run`] reports mode mismatches only when the offending op
    /// *starts*, possibly deep into a long simulation; `preflight` checks
    /// the whole program up front:
    ///
    /// * structural validity ([`Program::validate`]);
    /// * every `Copy` endpoint is addressable in the machine's memory mode
    ///   (the same rule `run` enforces per-op);
    /// * the program does not ask for more threads than the machine has.
    pub fn preflight(&self, prog: &Program) -> Result<(), SimError> {
        prog.validate()?;
        if prog.threads() > self.cfg.total_threads() {
            return Err(SimError::InvalidConfig(format!(
                "program uses {} threads but the machine has {}",
                prog.threads(),
                self.cfg.total_threads()
            )));
        }
        if self.cfg.addressable_mcdram() == 0 {
            for op in prog.ops() {
                if let OpKind::Copy { src, dst, .. } = &op.kind {
                    if *src == Place::Mcdram || *dst == Place::Mcdram {
                        return Err(SimError::LevelNotAddressable(MemLevel::Mcdram));
                    }
                }
            }
        }
        Ok(())
    }

    /// [`Self::preflight`] then [`Self::run`]: execution starts only if the
    /// whole program is valid for this machine.
    pub fn run_checked(&self, prog: &Program) -> Result<SimReport, SimError> {
        self.preflight(prog)?;
        self.run(prog)
    }

    fn run_inner(
        &self,
        prog: &Program,
        trace: Option<Trace>,
    ) -> Result<(SimReport, Option<Trace>, EngineStats), SimError> {
        prog.validate()?;
        let engine = Engine::new(self, prog, trace);
        engine.run()
    }

    /// Shared op-completion bookkeeping for the naive reference loop; the
    /// optimized engine uses [`Engine::complete`], which also feeds the
    /// ready worklist.
    #[cfg(feature = "reference-engine")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn complete_op(
        op: usize,
        started_at: f64,
        now: f64,
        done: &mut [bool],
        completed: &mut usize,
        remaining_deps: &mut [usize],
        dependents: &[Vec<usize>],
        dep_ready: &mut [bool],
        report: &mut SimReport,
    ) {
        debug_assert!(!done[op]);
        done[op] = true;
        *completed += 1;
        report.ops_executed += 1;
        report.thread_busy += now - started_at;
        for &d in &dependents[op] {
            remaining_deps[d] -= 1;
            if remaining_deps[d] == 0 {
                dep_ready[d] = true;
            }
        }
    }

    /// Resolve an op's accesses into a flow spec (demand coefficients per
    /// logical byte + rate cap), charging traffic counters and computing the
    /// serial miss-latency penalty.
    pub(crate) fn resolve(
        &self,
        kind: &OpKind,
        mut cache: Option<&mut DirectMappedCache>,
        report: &mut SimReport,
    ) -> Result<(Demand, f64), SimError> {
        let mut ddr_bytes = 0u64;
        let mut mcd_bytes = 0u64;
        let mut misses = 0u64;

        // `Copy` ops place data, so their MCDRAM endpoints must be
        // addressable in the current mode. `Stream` accesses are bus-traffic
        // descriptors (software layers use explicit `Mcdram` accesses to
        // model analytically-derived cache hits), so they are exempt.
        let placement_checked = matches!(kind, OpKind::Copy { .. });
        let mut charge = |access: &Access,
                          cache: &mut Option<&mut DirectMappedCache>,
                          report: &mut SimReport|
         -> Result<(), SimError> {
            match access.place {
                Place::Ddr => {
                    ddr_bytes += access.bytes;
                    bump(&mut report.traffic[DDR], access.bytes, access.write);
                }
                Place::Mcdram => {
                    if placement_checked && self.cfg.addressable_mcdram() == 0 {
                        return Err(SimError::LevelNotAddressable(MemLevel::Mcdram));
                    }
                    mcd_bytes += access.bytes;
                    bump(&mut report.traffic[MCD], access.bytes, access.write);
                }
                Place::CachedDdr { addr } => match cache.as_deref_mut() {
                    Some(c) => {
                        let t = c.access(addr, access.bytes, access.write);
                        misses += t.miss_count;
                        ddr_bytes += t.traffic_on(MemLevel::Ddr);
                        mcd_bytes += t.traffic_on(MemLevel::Mcdram);
                        // DDR: miss fills are reads; writebacks are writes.
                        report.traffic[DDR].read += t.miss_bytes;
                        report.traffic[DDR].written += t.writeback_bytes;
                        // MCDRAM: hits follow the access direction; fills are
                        // writes; writeback sources are reads.
                        bump(&mut report.traffic[MCD], t.hit_bytes, access.write);
                        report.traffic[MCD].written += t.fill_bytes;
                        report.traffic[MCD].read += t.writeback_bytes;
                    }
                    None => {
                        // Flat mode: a "cached DDR" access is a plain DDR
                        // access. This lets one program run in every mode
                        // (the paper's MLM-ddr variant is exactly this).
                        ddr_bytes += access.bytes;
                        bump(&mut report.traffic[DDR], access.bytes, access.write);
                    }
                },
            }
            Ok(())
        };

        let (logical, cap) = match kind {
            OpKind::Copy {
                src,
                dst,
                bytes,
                rate_cap,
            } => {
                charge(&Access::read(*src, *bytes), &mut cache, report)?;
                charge(&Access::write(*dst, *bytes), &mut cache, report)?;
                (*bytes as f64, *rate_cap)
            }
            OpKind::Stream { accesses, rate_cap } => {
                for a in accesses {
                    charge(a, &mut cache, report)?;
                }
                let logical: u64 = accesses.iter().map(|a| a.bytes).sum();
                (logical as f64, *rate_cap)
            }
            OpKind::Delay { .. } => unreachable!("delays never reach resolve()"),
        };

        let mut coeff = [0.0; 2];
        for (res, bytes) in [(DDR, ddr_bytes), (MCD, mcd_bytes)] {
            if bytes > 0 {
                coeff[res] = bytes as f64 / logical;
            }
        }
        let penalty = misses as f64 * self.cfg.cache_miss_penalty;
        Ok((Demand { coeff, cap }, penalty))
    }
}

/// A shared dependency countdown for all ops holding the same dep list
/// — one barrier wave, one counter (see `Engine::new`).
///
/// The first member is inline so the overwhelmingly common singleton
/// group (chains, pipelines: unique dep lists) costs no allocation —
/// `Vec::new()` never touches the heap.
struct JoinGroup {
    /// Uncompleted deps; members wake when this reaches zero.
    remaining: usize,
    /// The first op gated on this dep list.
    first: u32,
    /// Any further ops sharing the identical dep list (barrier waves).
    rest: Vec<u32>,
}

/// Word-bitset worklist of thread indices.
///
/// Barrier-storm programs are ~100% instant ops: every zero-delay
/// completion costs one worklist insert and one pop, and the `BTreeSet`
/// this replaces paid pointer-chasing node traversals for each — the
/// whole of the 0.87× regression at `barrier-storm-64x100`. Here insert
/// is one OR and pop is a `trailing_zeros` scan over a handful of words,
/// while reproducing the exact BTreeSet drain order: first set bit at or
/// after the cursor, wrapping to the global minimum.
struct ThreadSet {
    words: Vec<u64>,
}

impl ThreadSet {
    /// The full set `{0, .., n-1}`.
    fn full(n: usize) -> Self {
        let nw = n.div_ceil(64);
        let mut words = vec![!0u64; nw];
        let used = n - (nw.saturating_sub(1)) * 64;
        if used < 64 {
            if let Some(last) = words.last_mut() {
                *last = (1u64 << used) - 1;
            }
        }
        ThreadSet { words }
    }

    #[inline]
    fn insert(&mut self, t: usize) {
        self.words[t >> 6] |= 1u64 << (t & 63);
    }

    /// Remove and return the first element `>= cur`, wrapping to the
    /// smallest element if none — the ascending-with-wraparound order the
    /// reference loop's fixed-point rescan realizes.
    #[inline]
    fn pop_wrapping(&mut self, cur: usize) -> Option<usize> {
        let nw = self.words.len();
        let w0 = cur >> 6;
        if w0 < nw {
            let masked = self.words[w0] & (!0u64 << (cur & 63));
            if masked != 0 {
                return Some(self.take(w0, masked));
            }
            for w in w0 + 1..nw {
                if self.words[w] != 0 {
                    let m = self.words[w];
                    return Some(self.take(w, m));
                }
            }
        }
        for w in 0..nw.min(w0 + 1) {
            if self.words[w] != 0 {
                let m = self.words[w];
                return Some(self.take(w, m));
            }
        }
        None
    }

    /// Clear and return the lowest bit of `mask` within word `w`.
    #[inline]
    fn take(&mut self, w: usize, mask: u64) -> usize {
        let b = mask.trailing_zeros() as usize;
        self.words[w] &= !(1u64 << b);
        (w << 6) | b
    }
}

/// One in-flight simulation: all engine state for a single `run`.
struct Engine<'p> {
    sim: &'p Simulator,
    prog: &'p Program,
    capacities: [f64; 2],
    cache: Option<DirectMappedCache>,

    // Program scheduling state.
    queues: Vec<VecDeque<usize>>,
    /// Per op, the join groups it feeds (one entry per dep-list occurrence).
    dependents: Vec<Vec<u32>>,
    /// Shared countdowns, one per stored dep list (see `Engine::new`).
    groups: Vec<JoinGroup>,
    /// Dense op → thread map; `Op` structs carry their dep vectors, so
    /// waking dependents through them costs a cache miss per edge.
    thread_of: Vec<u32>,
    done: Vec<bool>,
    dep_ready: Vec<bool>,
    busy: Vec<bool>,
    /// Per thread, the start time and the miss-penalty tail of the flow
    /// it runs (a thread runs one op at a time).
    running: Vec<(f64, f64)>,
    completed: usize,
    /// Threads whose front op may have become startable.
    runnable: ThreadSet,

    // Event core.
    now: f64,
    /// Active flows, over all classes.
    flows: usize,
    /// Flow classes by slot; a slot whose `members` is empty is free.
    classes: Vec<FlowClass>,
    /// Expiry events in flight (delays are never cancelled, so a counter
    /// suffices to distinguish "idle" from "waiting on a delay").
    pending_delays: usize,
    heap: BinaryHeap<Reverse<Event>>,
    seq: u64,
    /// Set when the active flow set changed since the last re-arbitration.
    rates_dirty: bool,
    /// Consecutive drains rescheduled without any flow or the clock having
    /// advanced (see `process`); past `stall_limit` the run is a livelock.
    stalled: usize,
    arbiter: Arbiter,
    rates_scratch: Vec<f64>,

    report: SimReport,
    trace: Option<Trace>,
    stats: EngineStats,
}

impl<'p> Engine<'p> {
    fn new(sim: &'p Simulator, prog: &'p Program, mut trace: Option<Trace>) -> Self {
        let n_ops = prog.ops().len();
        if let Some(tr) = trace.as_mut() {
            tr.threads = prog.threads();
            tr.reserve_for(n_ops);
        }
        let cache = if sim.cfg.mode.has_cache() {
            Some(DirectMappedCache::new(
                sim.cfg.effective_cache_capacity(),
                sim.cfg.cache_segment,
            ))
        } else {
            None
        };
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); prog.threads()];
        // Join-group dependency tracking: ops holding the same dep list
        // (every member of a barrier wave) share ONE countdown, so a
        // B-wide barrier costs B decrements + B wakes instead of B×B edge
        // updates. The group counter reaches zero at exactly the event the
        // last per-op counter would have, so wake times — and therefore
        // drain order — are bit-identical to per-op accounting, however
        // finely or coarsely the ops are grouped. The program already
        // stores a list once per run of ops pushed with it, so the group
        // is found by pointer; no list is read more than once.
        let mut dependents: Vec<Vec<u32>> = vec![Vec::new(); n_ops];
        let mut groups: Vec<JoinGroup> = Vec::new();
        let mut dep_ready: Vec<bool> = vec![false; n_ops];
        let mut wave: Option<(&Arc<[OpId]>, usize)> = None;
        for (i, op) in prog.ops().iter().enumerate() {
            queues[op.thread.0].push_back(i);
            if op.deps.is_empty() {
                dep_ready[i] = true;
                continue;
            }
            // Single-dep ops (chains, pipelines) always get their own
            // group: sharing would only save a counter.
            if op.deps.len() > 1 {
                match wave {
                    Some((list, g)) if Arc::ptr_eq(list, &op.deps) => {
                        groups[g].rest.push(i as u32);
                        continue;
                    }
                    _ => wave = Some((&op.deps, groups.len())),
                }
            }
            let id = groups.len() as u32;
            groups.push(JoinGroup {
                remaining: op.deps.len(),
                first: i as u32,
                rest: Vec::new(),
            });
            for d in op.deps.iter() {
                dependents[d.0].push(id);
            }
        }
        let stats = EngineStats {
            join_groups: groups.len(),
            ..EngineStats::default()
        };
        Engine {
            sim,
            prog,
            capacities: [sim.cfg.ddr_bandwidth, sim.cfg.effective_mcdram_bandwidth()],
            cache,
            queues,
            dependents,
            groups,
            thread_of: prog.ops().iter().map(|op| op.thread.0 as u32).collect(),
            done: vec![false; n_ops],
            dep_ready,
            busy: vec![false; prog.threads()],
            running: vec![(0.0, 0.0); prog.threads()],
            completed: 0,
            runnable: ThreadSet::full(prog.threads()),
            now: 0.0,
            flows: 0,
            classes: Vec::new(),
            pending_delays: 0,
            heap: BinaryHeap::new(),
            seq: 0,
            rates_dirty: false,
            stalled: 0,
            arbiter: Arbiter::new(),
            rates_scratch: Vec::new(),
            report: SimReport::default(),
            trace,
            stats,
        }
    }

    fn run(mut self) -> Result<(SimReport, Option<Trace>, EngineStats), SimError> {
        let n_ops = self.prog.ops().len();
        loop {
            self.drain_ready()?;
            if self.completed == n_ops {
                break;
            }
            if self.flows == 0 && self.pending_delays == 0 {
                return Err(SimError::Deadlock(stuck_ops(self.prog, &self.done)));
            }
            self.recompute_if_dirty();

            // Pop the next valid event, skipping lazily-invalidated drains.
            let ev = loop {
                let Reverse(ev) = self
                    .heap
                    .pop()
                    .expect("active flows and pending delays always have events");
                if self.is_valid(&ev) {
                    break ev;
                }
                self.stats.stale_events += 1;
            };

            if ev.time > self.now {
                self.record_span(ev.time);
                self.now = ev.time;
            }
            self.process(ev)?;

            // Coalesce every event at (numerically) the same timestamp so
            // same-time completions trigger a single rate epoch.
            let horizon = horizon(self.now);
            while let Some(&Reverse(top)) = self.heap.peek() {
                if top.time > horizon {
                    break;
                }
                let Reverse(ev) = self.heap.pop().expect("peeked");
                if self.is_valid(&ev) {
                    self.process(ev)?;
                } else {
                    self.stats.stale_events += 1;
                }
            }
        }

        let mut report = self.report;
        report.makespan = self.now;
        if self.now > 0.0 {
            report.utilization[DDR] = report.served_bytes[DDR] / (self.capacities[DDR] * self.now);
            report.utilization[MCD] = report.served_bytes[MCD] / (self.capacities[MCD] * self.now);
        }
        if let Some(c) = &self.cache {
            report.cache = c.stats();
        }
        let mut trace = self.trace;
        if let Some(tr) = trace.as_mut() {
            tr.makespan = report.makespan;
        }
        Ok((report, trace, self.stats))
    }

    /// Start every startable op at the current time.
    ///
    /// Equivalent to the reference loop's fixed-point rescan, but driven by
    /// the `runnable` worklist: threads are visited in ascending order with
    /// a wrap-around cursor, so a thread unblocked by a *later* thread's
    /// instant op is processed on the next "pass" — exactly the reference
    /// ordering, which matters for cache-mode access order.
    fn drain_ready(&mut self) -> Result<(), SimError> {
        let prog = self.prog;
        let sim = self.sim;
        let mut cur = 0usize;
        while let Some(t) = self.runnable.pop_wrapping(cur) {
            cur = t + 1;
            while !self.busy[t] {
                let Some(&front) = self.queues[t].front() else {
                    break;
                };
                if !self.dep_ready[front] {
                    break;
                }
                self.queues[t].pop_front();
                let op = &prog.ops()[front];
                match &op.kind {
                    OpKind::Delay { seconds } if *seconds <= 0.0 => {
                        // Instant completion; keep popping this thread. Any
                        // dependents it unblocks join the worklist.
                        self.stats.instant_ops += 1;
                        self.complete(front, self.now);
                    }
                    OpKind::Delay { seconds } => {
                        let deadline = self.now + seconds;
                        self.push_event(
                            deadline,
                            EventKind::Expiry {
                                op: front,
                                started_at: self.now,
                            },
                        );
                        self.pending_delays += 1;
                        self.busy[t] = true;
                    }
                    kind => {
                        let (demand, penalty) =
                            sim.resolve(kind, self.cache.as_mut(), &mut self.report)?;
                        let c = self.class_for(demand);
                        self.sync(c);
                        let member = Member {
                            finish: self.classes[c].vclock + spec_len(kind),
                            op: front as u32,
                        };
                        self.running[t] = (self.now, penalty);
                        let class = &mut self.classes[c];
                        // The newest member is the head only if it
                        // finishes strictly first; then the prediction in
                        // the heap is for the wrong flow.
                        if class
                            .members
                            .peek()
                            .is_none_or(|Reverse(head)| member.finish < head.finish)
                        {
                            class.pred = class.pred.wrapping_add(1);
                            class.rearm = true;
                        }
                        class.members.push(Reverse(member));
                        self.flows += 1;
                        self.rates_dirty = true;
                        self.busy[t] = true;
                    }
                }
            }
        }
        Ok(())
    }

    /// The class a flow with `demand` joins: the slot holding the same
    /// bits, live or free (no two slots hold the same bits), else the
    /// first free slot, else a new one. The spec is built only then. A
    /// linear scan, and every epoch walks the classes anyway. In flat mode
    /// they are few; in cache mode each thread's flow has its own hit/miss
    /// mix: the 2 B GNU-cache cell hands 505 class entries to its 3 full
    /// water-fillings, the same program on a flat machine 3. A std
    /// `HashMap` index was measured and lost: `sim_fanin` `wall_s` rose
    /// 38 % (0.0355 → 0.051 s, median of 6 pairs).
    fn class_for(&mut self, demand: Demand) -> usize {
        let bits = demand.bits();
        let mut free = None;
        for (c, class) in self.classes.iter().enumerate() {
            if class.bits == bits {
                return c;
            }
            if free.is_none() && class.members.is_empty() {
                free = Some(c);
            }
        }
        let class = FlowClass {
            spec: demand.spec(),
            bits,
            rate: 0.0,
            vclock: 0.0,
            vsync: self.now,
            members: BinaryHeap::new(),
            pred: 0,
            rearm: false,
        };
        match free {
            Some(c) => {
                // The slot keeps its member heap's allocation and its
                // prediction generation, so no old prediction turns valid.
                let old = &mut self.classes[c];
                let members = std::mem::take(&mut old.members);
                let pred = old.pred;
                *old = FlowClass {
                    members,
                    pred,
                    ..class
                };
                c
            }
            None => {
                self.classes.push(class);
                self.classes.len() - 1
            }
        }
    }

    /// Re-run bandwidth arbitration if the active flow set changed.
    ///
    /// Fast path: when the summed cap-weighted demand fits every resource,
    /// water-filling provably assigns each flow exactly its cap. Slow
    /// path: full water-filling over the live classes via the reusable
    /// [`Arbiter`]. Either way a class costs heap work only if its rate
    /// moved or its head changed, and then one push.
    fn recompute_if_dirty(&mut self) {
        if !self.rates_dirty {
            return;
        }
        self.rates_dirty = false;
        if self.flows == 0 {
            return;
        }
        self.stats.rate_recomputes += 1;

        let mut cap_demand = [0.0f64; 2];
        for c in live(&self.classes) {
            let n = c.members.len() as f64;
            for &(res, coeff) in &c.spec.demand {
                cap_demand[res] += c.spec.cap * coeff * n;
            }
        }
        let fits =
            cap_demand[DDR] <= self.capacities[DDR] && cap_demand[MCD] <= self.capacities[MCD];
        if !fits {
            self.stats.full_recomputes += 1;
            self.arbiter.allocate(
                &self.capacities,
                live(&self.classes).map(|c| (&c.spec, c.members.len())),
                &mut self.rates_scratch,
            );
            self.stats.arbitrated += self.rates_scratch.len() as u64;
        }

        let mut entry = 0;
        for c in 0..self.classes.len() {
            let class = &self.classes[c];
            if class.members.is_empty() {
                continue;
            }
            let rate = if fits {
                class.spec.cap
            } else {
                self.rates_scratch[entry]
            };
            entry += 1;
            if class.rate != rate {
                // Progress so far ran at the old rate.
                self.sync(c);
                self.classes[c].rate = rate;
                self.arm(c);
            } else if class.rearm {
                self.arm(c);
            }
        }
    }

    /// Advance class `c`'s virtual clock to `now` under its current rate
    /// and charge the bytes its members moved. Rates are piecewise
    /// constant, so this is exact; it runs only when the class's
    /// membership or rate is about to change.
    fn sync(&mut self, c: usize) {
        let class = &mut self.classes[c];
        let dt = self.now - class.vsync;
        if dt > 0.0 && class.rate > 0.0 && !class.members.is_empty() {
            class.vclock += class.rate * dt;
            let n = class.members.len() as f64;
            for &(res, coeff) in &class.spec.demand {
                self.report.served_bytes[res] += class.rate * coeff * n * dt;
            }
        }
        class.vsync = self.now;
    }

    /// Invalidate class `c`'s outstanding drain prediction and push one
    /// for its head. The class must be synced to `now`.
    fn arm(&mut self, c: usize) {
        let class = &mut self.classes[c];
        debug_assert!(class.rate > 0.0, "validated ops always get positive rates");
        debug_assert_eq!(class.vsync, self.now, "predictions are made at a sync");
        let Reverse(head) = class.members.peek().expect("armed classes have members");
        let dt = ((head.finish - class.vclock) / class.rate).max(0.0);
        class.pred = class.pred.wrapping_add(1);
        class.rearm = false;
        let pred = class.pred;
        self.push_event(self.now + dt, EventKind::Drain { class: c, pred });
    }

    fn is_valid(&self, ev: &Event) -> bool {
        match ev.kind {
            EventKind::Expiry { .. } => true,
            EventKind::Drain { class, pred } => {
                let class = &self.classes[class];
                class.pred == pred && !class.members.is_empty()
            }
        }
    }

    /// No-progress reschedules tolerated in a row: at one timestamp an
    /// epoch can re-arm, and so reschedule, each live class once, and
    /// there are never more classes than flows, nor flows than threads.
    fn stall_limit(&self) -> usize {
        1024 + 4 * self.prog.threads()
    }

    fn process(&mut self, ev: Event) -> Result<(), SimError> {
        match ev.kind {
            EventKind::Expiry { op, started_at } => {
                self.stats.events += 1;
                self.pending_delays -= 1;
                let t = self.prog.ops()[op].thread.0;
                self.busy[t] = false;
                self.runnable.insert(t);
                self.complete(op, started_at);
            }
            EventKind::Drain { class: c, .. } => {
                let advanced = self.classes[c].vsync < self.now;
                self.sync(c);
                let horizon = horizon(self.now);
                let mut drained = 0;
                loop {
                    let class = &mut self.classes[c];
                    let Some(Reverse(head)) = class.members.peek() else {
                        break;
                    };
                    let remaining = head.finish - class.vclock;
                    if remaining > EPS_BYTES {
                        // The event was coalesced slightly ahead of the
                        // head's true drain (the reference loop only
                        // completes flows within EPS_BYTES of done).
                        let time = self.now + remaining / class.rate;
                        if time > horizon {
                            if drained > 0 {
                                // A new head: the epoch that follows
                                // every drain predicts it.
                                class.pred = class.pred.wrapping_add(1);
                                class.rearm = true;
                                break;
                            }
                            let op = head.op as usize;
                            self.stats.events += 1;
                            self.arm(c);
                            self.stalled = if advanced { 0 } else { self.stalled + 1 };
                            if self.stalled > self.stall_limit() {
                                return Err(SimError::Livelock { op, time: self.now });
                            }
                            return Ok(());
                        }
                        // The residual is due inside the coalescing
                        // window: the clock cannot reach it (a rescheduled
                        // drain would be popped again at this same `now`,
                        // forever), so the flow ends here and its last
                        // bytes are charged as served.
                        for &(res, coeff) in &class.spec.demand {
                            self.report.served_bytes[res] += remaining * coeff;
                        }
                    }
                    let Reverse(f) = class.members.pop().expect("peeked");
                    drained += 1;
                    self.finish_flow(f.op as usize);
                }
                let class = &mut self.classes[c];
                if class.members.is_empty() {
                    class.vclock = 0.0;
                }
                self.stats.events += drained;
                self.flows -= drained as usize;
                self.stalled = 0;
                self.rates_dirty = true;
            }
        }
        Ok(())
    }

    /// A drained flow's thread stays busy through its serial penalty tail,
    /// if any; otherwise its op completes now.
    fn finish_flow(&mut self, op: usize) {
        let t = self.thread_of[op] as usize;
        let (started_at, penalty_after) = self.running[t];
        if penalty_after > 0.0 {
            self.push_event(
                self.now + penalty_after,
                EventKind::Expiry { op, started_at },
            );
            self.pending_delays += 1;
        } else {
            self.busy[t] = false;
            self.runnable.insert(t);
            self.complete(op, started_at);
        }
    }

    /// Mark an op done: bump counters, record the trace, release dependents
    /// and enqueue their threads on the ready worklist.
    fn complete(&mut self, op: usize, started_at: f64) {
        debug_assert!(!self.done[op]);
        self.done[op] = true;
        self.completed += 1;
        self.report.ops_executed += 1;
        self.report.thread_busy += self.now - started_at;
        record(&mut self.trace, self.prog, op, started_at, self.now);
        // Barrier-heavy programs have far more edges than ops, so this loop
        // dominates. Take the list out to iterate borrow-free (an op
        // completes exactly once); one decrement per join group, and when
        // a group drains every member of the wave wakes at once.
        let dependents = std::mem::take(&mut self.dependents[op]);
        for &g in &dependents {
            let grp = &mut self.groups[g as usize];
            grp.remaining -= 1;
            if grp.remaining == 0 {
                let first = grp.first as usize;
                // A group drains exactly once; take the wave out to walk
                // it without re-borrowing.
                let rest = std::mem::take(&mut grp.rest);
                self.dep_ready[first] = true;
                self.runnable.insert(self.thread_of[first] as usize);
                for &m in &rest {
                    self.dep_ready[m as usize] = true;
                    self.runnable.insert(self.thread_of[m as usize] as usize);
                }
                self.groups[g as usize].rest = rest;
            }
        }
        self.dependents[op] = dependents;
    }

    /// Record the bus-utilization segment for the span `[now, end)` under
    /// the current (piecewise-constant) rates. Only runs when tracing.
    fn record_span(&mut self, end: f64) {
        if self.trace.is_none() {
            return;
        }
        let mut used = [0.0f64; 2];
        for c in live(&self.classes) {
            let n = c.members.len() as f64;
            for &(res, coeff) in &c.spec.demand {
                used[res] += c.rate * coeff * n;
            }
        }
        let seg = BusSegment {
            start: self.now,
            end,
            width: end - self.now,
            ddr: (used[DDR] / self.capacities[DDR]).min(1.0),
            mcdram: (used[MCD] / self.capacities[MCD]).min(1.0),
        };
        self.trace.as_mut().expect("checked above").record_bus(seg);
    }

    fn push_event(&mut self, time: f64, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse(Event { time, seq, kind }));
        if self.heap.len() > self.stats.heap_peak {
            self.stats.heap_peak = self.heap.len();
        }
    }
}

/// The classes with members, in slot order: the arbiter's entries.
fn live(classes: &[FlowClass]) -> impl Iterator<Item = &FlowClass> + Clone {
    classes.iter().filter(|c| !c.members.is_empty())
}

/// Latest event time that counts as `now`: events up to here are
/// processed without advancing the clock. The tolerance matches the
/// reference loop's delay-expiry rule.
fn horizon(now: f64) -> f64 {
    now * (1.0 + 1e-12) + 1e-15
}

/// Diagnostics for a deadlock: the first few unfinished ops with their
/// thread and unmet dependencies.
pub(crate) fn stuck_ops(prog: &Program, done: &[bool]) -> Vec<StuckOp> {
    prog.ops()
        .iter()
        .enumerate()
        .filter(|&(i, _)| !done[i])
        .take(8)
        .map(|(i, op)| StuckOp {
            op: i,
            thread: op.thread.0,
            label: op.label.clone(),
            unmet_deps: op.deps.iter().map(|d| d.0).filter(|&d| !done[d]).collect(),
        })
        .collect()
}

/// Append a trace record if tracing is enabled.
pub(crate) fn record(trace: &mut Option<Trace>, prog: &Program, op: usize, start: f64, end: f64) {
    if let Some(tr) = trace.as_mut() {
        tr.ops.push(OpRecord {
            op,
            thread: prog.ops()[op].thread.0,
            start,
            end,
            label: prog.ops()[op].label.clone(),
        });
    }
}

#[inline]
pub(crate) fn bump(t: &mut LevelTraffic, bytes: u64, write: bool) {
    if write {
        t.written += bytes;
    } else {
        t.read += bytes;
    }
}

/// Flow length in logical bytes for the rate cap to act on.
pub(crate) fn spec_len(kind: &OpKind) -> f64 {
    match kind {
        OpKind::Copy { bytes, .. } => *bytes as f64,
        OpKind::Stream { accesses, .. } => accesses.iter().map(|a| a.bytes).sum::<u64>() as f64,
        OpKind::Delay { .. } => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MemMode;
    use crate::GB;

    fn flat() -> MachineConfig {
        MachineConfig::tiny(MemMode::Flat) // DDR 10 GB/s, MCDRAM 40 GB/s, copy 1 GB/s, comp 2 GB/s
    }

    #[test]
    fn single_copy_capped_by_thread_rate() {
        let cfg = flat();
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::copy(
                Place::Ddr,
                Place::Mcdram,
                2_000_000_000,
                cfg.per_thread_copy_bw,
            ),
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-9, "2 GB at 1 GB/s");
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, 2_000_000_000);
        assert_eq!(r.traffic_on(MemLevel::Mcdram).written, 2_000_000_000);
    }

    #[test]
    fn many_copy_threads_saturate_ddr() {
        let cfg = flat();
        let n = 32; // 32 threads * 1 GB/s = 32 GB/s demand > 10 GB/s DDR
        let mut p = Program::new(n);
        for t in 0..n {
            p.push(
                t,
                OpKind::copy(
                    Place::Ddr,
                    Place::Mcdram,
                    1_000_000_000,
                    cfg.per_thread_copy_bw,
                ),
                &[],
            );
        }
        let r = Simulator::new(cfg).run(&p).unwrap();
        // 32 GB moved at DDR-bound 10 GB/s.
        assert!((r.makespan - 3.2).abs() < 1e-6, "makespan={}", r.makespan);
        assert!(r.utilization[DDR] > 0.999);
    }

    #[test]
    fn sequential_ops_on_one_thread_serialize() {
        let cfg = flat();
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1_000_000_000, 1.0 * GB),
            &[],
        );
        p.push(
            0,
            OpKind::copy(Place::Mcdram, Place::Ddr, 1_000_000_000, 1.0 * GB),
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-9);
    }

    #[test]
    fn independent_threads_overlap() {
        let cfg = flat();
        let mut p = Program::new(2);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1_000_000_000, 1.0 * GB),
            &[],
        );
        p.push(
            1,
            OpKind::inplace_pass(Place::Mcdram, 1_000_000_000, 2.0 * GB),
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        // Copy takes 1 s; compute takes 2 GB of traffic at 2 GB/s = 1 s;
        // neither saturates anything; fully overlapped.
        assert!((r.makespan - 1.0).abs() < 1e-9, "makespan={}", r.makespan);
        assert!((r.thread_busy - 2.0).abs() < 1e-9);
    }

    #[test]
    fn dependencies_serialize_across_threads() {
        let cfg = flat();
        let mut p = Program::new(2);
        let a = p.push(0, OpKind::Delay { seconds: 1.0 }, &[]);
        p.push(1, OpKind::Delay { seconds: 1.0 }, &[a]);
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-12);
    }

    #[test]
    fn barrier_joins_phases() {
        let cfg = flat();
        let mut p = Program::new(3);
        let mut phase1 = Vec::new();
        for t in 0..3 {
            phase1.push(p.push(
                t,
                OpKind::Delay {
                    seconds: (t + 1) as f64 * 0.5,
                },
                &[],
            ));
        }
        let bar = p.barrier(0..3, &phase1);
        for t in 0..3 {
            p.push(t, OpKind::Delay { seconds: 0.5 }, &bar);
        }
        let r = Simulator::new(cfg).run(&p).unwrap();
        // Slowest phase-1 op is 1.5 s; then 0.5 s.
        assert!((r.makespan - 2.0).abs() < 1e-12, "makespan={}", r.makespan);
    }

    #[test]
    fn zero_delay_barriers_cost_nothing() {
        let cfg = flat();
        let mut p = Program::new(4);
        let mut deps = Vec::new();
        for _ in 0..10 {
            deps = p.barrier(0..4, &deps);
        }
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.ops_executed, 40);
    }

    #[test]
    fn mcdram_not_addressable_in_cache_mode() {
        let cfg = MachineConfig::tiny(MemMode::Cache);
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1000, 1.0 * GB),
            &[],
        );
        let err = Simulator::new(cfg).run(&p).unwrap_err();
        assert_eq!(err, SimError::LevelNotAddressable(MemLevel::Mcdram));
    }

    #[test]
    fn cached_access_warms_up() {
        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_mode_efficiency = 1.0;
        let bytes = 32 << 20; // half the 64 MiB cache
        let mut p = Program::new(1);
        let a = p.push(
            0,
            OpKind::Stream {
                accesses: vec![Access::read(Place::CachedDdr { addr: 0 }, bytes)],
                rate_cap: 100.0 * GB,
            },
            &[],
        );
        p.push(
            0,
            OpKind::Stream {
                accesses: vec![Access::read(Place::CachedDdr { addr: 0 }, bytes)],
                rate_cap: 100.0 * GB,
            },
            &[a],
        );
        let r = Simulator::new(cfg.clone()).run(&p).unwrap();
        // First pass: DDR-bound at 10 GB/s (plus concurrent fill on MCDRAM).
        // Second pass: all hits, MCDRAM at 40 GB/s.
        let b = bytes as f64;
        let expect = b / (10.0 * GB) + b / (40.0 * GB);
        assert!(
            (r.makespan - expect).abs() / expect < 1e-6,
            "makespan={}",
            r.makespan
        );
        assert_eq!(r.cache.miss_bytes, bytes);
        assert_eq!(r.cache.hit_bytes, bytes);
        // DDR traffic: only the cold pass.
        assert_eq!(r.traffic_on(MemLevel::Ddr).read, bytes);
    }

    #[test]
    fn cached_place_degrades_to_ddr_in_flat_mode() {
        let cfg = flat();
        let bytes = 1_000_000_000u64;
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::Stream {
                accesses: vec![Access::read(Place::CachedDdr { addr: 0 }, bytes)],
                rate_cap: 100.0 * GB,
            },
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert!((r.makespan - 0.1).abs() < 1e-9, "1 GB read at 10 GB/s DDR");
        assert_eq!(r.cache.accessed_bytes, 0);
    }

    #[test]
    fn miss_penalty_adds_serial_latency() {
        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_mode_efficiency = 1.0;
        cfg.cache_miss_penalty = 1e-3; // 1 ms per 1 MiB segment miss
        let bytes: u64 = 8 << 20; // 8 segments
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::Stream {
                accesses: vec![Access::read(Place::CachedDdr { addr: 0 }, bytes)],
                rate_cap: 100.0 * GB,
            },
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        let transfer = bytes as f64 / (10.0 * GB);
        let expect = transfer + 8.0 * 1e-3;
        assert!(
            (r.makespan - expect).abs() < 1e-9,
            "makespan={}",
            r.makespan
        );
    }

    #[test]
    fn compute_threads_share_mcdram_with_copy_threads() {
        // The Eq. 5 scenario as an end-to-end engine test.
        let cfg = MachineConfig::knl_7250(MemMode::Flat);
        let p_copy = 16usize;
        let p_comp = 64usize;
        let copy_bytes = 1_000_000_000u64;
        let comp_traffic = 2_000_000_000u64;
        let mut p = Program::new(p_copy + p_comp);
        for t in 0..p_copy {
            p.push(
                t,
                OpKind::copy(
                    Place::Ddr,
                    Place::Mcdram,
                    copy_bytes,
                    cfg.per_thread_copy_bw,
                ),
                &[],
            );
        }
        for t in 0..p_comp {
            p.push(
                p_copy + t,
                OpKind::inplace_pass(Place::Mcdram, comp_traffic / 2, cfg.per_thread_compute_bw),
                &[],
            );
        }
        let r = Simulator::new(cfg).run(&p).unwrap();
        // Copies: 16 * 4.8 = 76.8 GB/s (< 90), each finishes 1 GB in 0.2083 s.
        // Compute: shares 400 - 76.8 = 323.2 GB/s among 64 threads = 5.05
        // GB/s each (< 6.78 cap) while copies run.
        let copy_t = copy_bytes as f64 / 4.8e9;
        assert!(r.makespan > copy_t, "compute outlasts copies");
        // After copies end, compute threads run at their 6.78 cap (64*6.78=434>400 → 6.25).
        let comp_during = (400e9 - 76.8e9) / 64.0;
        let progressed = comp_during * copy_t;
        let left = comp_traffic as f64 - progressed;
        let after_rate = 400e9 / 64.0; // capped by MCDRAM sharing
        let expect = copy_t + left / after_rate;
        assert!(
            (r.makespan - expect).abs() / expect < 1e-6,
            "makespan={} expect={expect}",
            r.makespan
        );
    }

    #[test]
    fn served_bytes_match_traffic_counters() {
        let cfg = flat();
        let mut p = Program::new(2);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 500_000_000, 1.0 * GB),
            &[],
        );
        p.push(
            1,
            OpKind::inplace_pass(Place::Ddr, 250_000_000, 2.0 * GB),
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        let ddr_total = r.traffic_on(MemLevel::Ddr).total() as f64;
        let mcd_total = r.traffic_on(MemLevel::Mcdram).total() as f64;
        assert!((r.served_bytes[DDR] - ddr_total).abs() < 1.0);
        assert!((r.served_bytes[MCD] - mcd_total).abs() < 1.0);
    }

    #[test]
    fn empty_program_runs_instantly() {
        let r = Simulator::new(flat()).run(&Program::new(4)).unwrap();
        assert_eq!(r.makespan, 0.0);
        assert_eq!(r.ops_executed, 0);
    }

    #[test]
    fn invalid_program_is_rejected() {
        let mut p = Program::new(1);
        p.push(5, OpKind::Delay { seconds: 0.0 }, &[]);
        assert!(Simulator::new(flat()).run(&p).is_err());
    }

    #[test]
    fn hybrid_mode_allows_both_flat_mcdram_and_cached_ddr() {
        let mut cfg = MachineConfig::tiny(MemMode::Hybrid {
            cache_fraction: 0.5,
        });
        cfg.cache_mode_efficiency = 1.0;
        let mut p = Program::new(2);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1 << 20, 1.0 * GB),
            &[],
        );
        p.push(
            1,
            OpKind::Stream {
                accesses: vec![Access::read(Place::CachedDdr { addr: 1 << 24 }, 1 << 20)],
                rate_cap: 1.0 * GB,
            },
            &[],
        );
        let r = Simulator::new(cfg).run(&p).unwrap();
        assert!(r.makespan > 0.0);
        assert!(r.cache.accessed_bytes > 0);
        assert!(r.traffic_on(MemLevel::Mcdram).total() > 0);
    }

    #[test]
    fn traced_run_matches_untraced_and_records_intervals() {
        let cfg = flat();
        let mut p = Program::new(2);
        let a = p.push_labeled(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1_000_000_000, 1.0 * GB),
            &[],
            Some("copy-in".into()),
        );
        p.push(1, OpKind::Delay { seconds: 0.25 }, &[a]);
        let sim = Simulator::new(cfg);
        let plain = sim.run(&p).unwrap();
        let (traced, trace) = sim.run_traced(&p).unwrap();
        assert_eq!(plain, traced, "tracing must not perturb results");
        assert_eq!(trace.ops.len(), 2);
        assert_eq!(trace.threads, 2);
        assert!((trace.makespan - 1.25).abs() < 1e-9);
        let copy = trace.ops.iter().find(|r| r.op == 0).unwrap();
        assert_eq!(copy.label.as_deref(), Some("copy-in"));
        assert!((copy.start - 0.0).abs() < 1e-12);
        assert!((copy.end - 1.0).abs() < 1e-9);
        let delay = trace.ops.iter().find(|r| r.op == 1).unwrap();
        assert!((delay.start - 1.0).abs() < 1e-9);
        assert!((delay.end - 1.25).abs() < 1e-9);
        // Derived views.
        assert!((trace.thread_busy_fraction(0) - 0.8).abs() < 1e-9);
        assert_eq!(trace.concurrency_at(0.5), 1);
        let g = trace.gantt(0..2, 10);
        assert_eq!(g.lines().count(), 2);
        // Exact bus timeline: the copy runs at 1 GB/s on a 10 GB/s DDR bus
        // for the first second, then the bus idles during the delay.
        assert!(!trace.bus.is_empty());
        assert!((trace.bus_utilization(0.0, 1.0, true) - 0.1).abs() < 1e-9);
        assert!(trace.bus_utilization(1.0, 1.25, true) < 1e-12);
        let spark = trace.bus_sparkline(true, 10);
        assert_eq!(spark.chars().count(), 10);
    }

    #[test]
    fn deterministic_repeat_runs() {
        let cfg = MachineConfig::knl_7250(MemMode::Cache);
        let mut p = Program::new(8);
        for t in 0..8 {
            p.push(
                t,
                OpKind::Stream {
                    accesses: vec![Access::read(
                        Place::CachedDdr {
                            addr: (t as u64) << 30,
                        },
                        1 << 28,
                    )],
                    rate_cap: 6.78 * GB,
                },
                &[],
            );
        }
        let sim = Simulator::new(cfg);
        let a = sim.run(&p).unwrap();
        let b = sim.run(&p).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn stuck_ops_name_thread_and_unmet_deps() {
        // Validated programs cannot actually deadlock (deps are backward
        // references, so the smallest unfinished op id is always startable);
        // the Deadlock path is defensive. Exercise the diagnostic builder
        // directly on a partially-done program.
        let mut p = Program::new(2);
        let gate = p.push(0, OpKind::Delay { seconds: 1.0 }, &[]);
        let first = p.push_labeled(
            1,
            OpKind::Delay { seconds: 1.0 },
            &[gate],
            Some("front".into()),
        );
        let _second = p.push(1, OpKind::Delay { seconds: 1.0 }, &[first]);
        let mut done = vec![false; p.ops().len()];
        done[0] = true; // the gate completed; the rest is "stuck"
        let stuck = stuck_ops(&p, &done);
        assert_eq!(stuck.len(), 2);
        assert_eq!(stuck[0].op, 1);
        assert_eq!(stuck[0].thread, 1);
        assert_eq!(stuck[0].label.as_deref(), Some("front"));
        assert!(
            stuck[0].unmet_deps.is_empty(),
            "its only dep (gate) is done"
        );
        assert_eq!(stuck[1].unmet_deps, vec![1]);
        let msg = SimError::Deadlock(stuck).to_string();
        assert!(msg.contains("op 1") && msg.contains("thread 1"), "{msg}");
        assert!(msg.contains("waiting on [1]"), "{msg}");
    }

    #[test]
    fn same_timestamp_cascade_triggers_one_rate_epoch() {
        // A delay expiry releases a zero-delay barrier cascade that starts
        // four copies at the same instant: the engine must coalesce all of
        // it into exactly one re-arbitration (the rate-epoch invariant).
        let cfg = flat();
        let mut p = Program::new(4);
        let gate = p.push(0, OpKind::Delay { seconds: 1.0 }, &[]);
        let bar = p.barrier(0..4, &[gate]);
        for t in 0..4 {
            p.push(
                t,
                OpKind::copy(Place::Ddr, Place::Mcdram, 1_000_000_000, 1.0 * GB),
                &bar,
            );
        }
        let (r, stats) = Simulator::new(cfg).run_stats(&p).unwrap();
        assert!((r.makespan - 2.0).abs() < 1e-9, "makespan={}", r.makespan);
        assert_eq!(
            stats.rate_recomputes, 1,
            "one epoch for the whole cascade: {stats:?}"
        );
        // 4 GB/s total demand < 10 GB/s DDR: the everyone-at-cap fast path.
        assert_eq!(stats.full_recomputes, 0);
        assert!(stats.instant_ops >= 4, "barrier ops complete inline");
    }

    #[test]
    fn run_stats_matches_run() {
        let cfg = flat();
        let mut p = Program::new(8);
        let mut prev = Vec::new();
        for round in 0..5 {
            let mut ids = Vec::new();
            for t in 0..8 {
                ids.push(p.push(
                    t,
                    OpKind::copy(
                        Place::Ddr,
                        Place::Mcdram,
                        100_000_000 * (1 + (t as u64 + round) % 3),
                        1.0 * GB,
                    ),
                    &prev,
                ));
            }
            prev = p.barrier(0..8, &ids);
        }
        let sim = Simulator::new(cfg);
        let plain = sim.run(&p).unwrap();
        let (stats_report, stats) = sim.run_stats(&p).unwrap();
        assert_eq!(plain, stats_report);
        assert!(stats.events > 0);
        assert!(stats.rate_recomputes >= 5, "at least one epoch per round");
        // Every copy has the same demand and cap: one class, so one drain
        // prediction however many copies run.
        assert_eq!(stats.heap_peak, 1, "{stats:?}");
    }

    /// 8 copies of different sizes on a saturated bus (8×4 = 32 GB/s of
    /// demand on 10 GB/s of DDR); every other one is capped at `slow_cap`.
    fn staggered_copies(slow_cap: f64) -> EngineStats {
        let mut p = Program::new(8);
        for t in 0..8 {
            let cap = if t % 2 == 0 { 4.0 * GB } else { slow_cap };
            p.push(
                t,
                OpKind::copy(Place::Ddr, Place::Mcdram, 500_000_000 * (t as u64 + 1), cap),
                &[],
            );
        }
        let (_, stats) = Simulator::new(flat()).run_stats(&p).unwrap();
        assert!(
            stats.full_recomputes >= 1,
            "saturated bus needs water-filling"
        );
        assert_eq!(stats.events, 8, "one event per drained copy: {stats:?}");
        stats
    }

    #[test]
    fn staggered_completions_keep_one_prediction_per_class() {
        // Every completion changes the survivors' rate, yet they form one
        // class, so the heap never holds more than its one prediction.
        let stats = staggered_copies(4.0 * GB);
        assert_eq!(stats.heap_peak, 1, "{stats:?}");
        assert_eq!(stats.stale_events, 0, "{stats:?}");
    }

    #[test]
    fn staggered_completions_invalidate_predictions_lazily() {
        // Two classes: a completion in one moves the other's rate, so its
        // prediction is superseded in the heap rather than removed, and
        // skipped when popped. At the peak, two of the four entries are
        // live predictions and two are superseded ones not yet due.
        let stats = staggered_copies(3.0 * GB);
        assert_eq!((stats.stale_events, stats.heap_peak), (5, 4), "{stats:?}");
    }

    #[test]
    fn identical_flows_are_arbitrated_as_one_class() {
        // 64 threads x 4 identical copies: 307 GB/s of cap demand on a
        // 90 GB/s DDR bus, so every epoch water-fills — over one class,
        // not 64 flows.
        let cfg = MachineConfig::knl_7250(MemMode::Flat);
        let mut p = Program::new(64);
        for t in 0..64 {
            for _ in 0..4 {
                p.push(
                    t,
                    OpKind::copy(Place::Ddr, Place::Mcdram, 100_000_000, 4.8 * GB),
                    &[],
                );
            }
        }
        let (r, stats) = Simulator::new(cfg).run_stats(&p).unwrap();
        assert!(
            (r.makespan - 256.0 * 0.1 / 90.0).abs() < 1e-9,
            "{}",
            r.makespan
        );
        assert!(stats.full_recomputes > 0, "{stats:?}");
        assert_eq!(stats.arbitrated, stats.full_recomputes, "{stats:?}");
    }

    #[test]
    fn barrier_rounds_cost_width_times_rounds_not_width_squared() {
        // (stored lists, stored ids, join groups)
        let cost = |width: usize, rounds: usize| {
            let mut p = Program::new(width);
            let mut deps = Vec::new();
            for _ in 0..rounds {
                deps = p.barrier(0..width, &deps);
            }
            assert_eq!(p.ops().len(), width * rounds);
            let (_, stats) = Simulator::new(flat()).run_stats(&p).unwrap();
            (p.dep_lists(), p.dep_ids(), stats.join_groups)
        };
        // Every round after the first waits on the whole previous round:
        // `width` ids stored once and one countdown, however many ops wait.
        assert_eq!(cost(8, 10), (9, 8 * 9, 9));
        assert_eq!(cost(64, 10), (9, 64 * 9, 9));
        assert_eq!(cost(64, 40), (39, 64 * 39, 39));
        // Single-dep ops keep a countdown each.
        let mut chain = Program::new(2);
        let mut prev = chain.push(0, OpKind::Delay { seconds: 0.0 }, &[]);
        for k in 1..10 {
            prev = chain.push(k % 2, OpKind::Delay { seconds: 0.0 }, &[prev]);
        }
        let (_, stats) = Simulator::new(flat()).run_stats(&chain).unwrap();
        assert_eq!(stats.join_groups, 9);
    }

    #[test]
    fn drains_rescheduled_without_progress_are_a_livelock_error() {
        // Hand the engine the same class's drain over and over at a frozen
        // clock, as a heap that keeps returning it would: the first pop
        // advances the class clock, every later one finds nothing to do.
        let sim = Simulator::new(flat());
        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::copy(Place::Ddr, Place::Mcdram, 1_000_000_000, 1.0 * GB),
            &[],
        );
        let mut e = Engine::new(&sim, &p, None);
        e.drain_ready().unwrap();
        e.recompute_if_dirty();
        e.now = 0.5;
        let drain = Event {
            time: e.now,
            seq: 0,
            kind: EventKind::Drain {
                class: 0,
                pred: e.classes[0].pred,
            },
        };
        let limit = e.stall_limit();
        for _ in 0..=limit {
            e.process(drain).unwrap();
        }
        assert_eq!(
            e.process(drain),
            Err(SimError::Livelock { op: 0, time: 0.5 })
        );
    }
}
