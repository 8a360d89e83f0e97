//! Per-node serving state: one broker, one ready queue, one running set.
//!
//! [`NodeSim`] is the single-node state machine the virtual-time scheduler
//! ([`crate::sched::serve`]) drives — and, because a fleet is N of these
//! behind a placement layer, the exact same state machine `mlm-fleet`'s
//! dispatcher drives per node. Extracting it means the fleet's "a 1-node
//! fleet is bit-identical to `serve`" guarantee holds by construction:
//! both paths execute the same floating-point operations in the same
//! order on the same state. `mlm-fleet`'s real-thread host dispatcher
//! holds one per node too, so it admits with the same code: it passes
//! wall-clock seconds as `now` (which no decision reads while fair aging
//! is off) and reports each finished job with [`NodeSim::complete`]
//! instead of advancing a clock.
//!
//! The driver contract, per event time `now` (in this order). Every call
//! is made on every node at every event; the ones marked *no-op* return
//! at once when nothing they read changed, so an event costs a node one
//! walk over its running jobs (step 7) plus work in what changed there:
//!
//! 1. [`NodeSim::submit`] every due arrival (the driver owns arrival
//!    ordering and rejection records),
//! 2. [`NodeSim::complete_due`] finished jobs — a no-op unless the last
//!    [`NodeSim::advance`] brought a job to [`DONE_EPS`],
//! 3. [`NodeSim::admit`] under the node's policy — for FIFO and SJF a
//!    no-op unless a submit, a finish or a steal touched the node since
//!    its last pass (fair-share always runs its pass: aging reads `now`),
//! 4. decide termination ([`NodeSim::is_drained`]),
//! 5. [`NodeSim::retune_and_allocate`] for the new co-residency degree —
//!    a no-op unless steps 2–3 changed the running set: profiles and bus
//!    rates are pure functions of that set in its current order,
//! 6. pick the next event time (≥ [`NodeSim::next_completion`], which
//!    reads the prediction step 7 left unless step 5 re-tuned),
//! 7. [`NodeSim::advance`] to it: the one eager pass, which also predicts
//!    the next completion and notes whether a job is done.
//!
//! Debug builds check every skip against a fresh computation.

#[cfg(debug_assertions)]
use knl_sim::bandwidth::allocate_rates;
use knl_sim::bandwidth::{Arbiter, FlowSpec};
use knl_sim::MemLevel;
use mlm_core::Placement;
use mlm_memkind::Reservation;

use crate::admission::{charge_credit, select_candidate};
use crate::broker::{buffer_bytes, ring_footprint, AdmitOutcome, CapacityBroker};
use crate::job::{DeadlineClass, JobId, JobRecord, JobRequest, N_CLASSES};
use crate::policy::{predicted_makespan, profile, JobProfile, Policy};
use crate::queue::{FitClass, ReadyQueue};
use crate::sched::ServeConfig;

/// Resource indices in the job-level bandwidth arbitration.
const DDR_BUS: usize = 0;
const MCD_BUS: usize = 1;

/// A job's remaining work is tracked as a fraction so the service time can
/// be re-derived whenever the thread budget changes mid-flight.
pub const DONE_EPS: f64 = 1e-9;

struct Running {
    idx: usize,
    start: f64,
    frac_left: f64,
    effective: Placement,
    reservation: Option<Reservation>,
    profile: JobProfile,
    /// Every profile this job has been given, by thread budget: a node
    /// oscillating between k and k±1 co-resident jobs re-poses the same
    /// few Eqs. 1–5 searches, and `profile()` is pure in the budget.
    memo: Vec<(usize, JobProfile)>,
}

/// One admission decision: the job and where its buffers landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Admitted job.
    pub id: JobId,
    /// The job's ticket on this node (see [`NodeSim::submit`]): what
    /// [`NodeSim::complete`] takes, since ids need not be unique.
    pub ticket: usize,
    /// Memory level of the buffer reservation (`Ddr` for footprint-free
    /// jobs, which reserve nothing).
    pub level: MemLevel,
    /// The placement the job runs with: its own, or `Ddr` when its ring
    /// spilled there.
    pub effective: Placement,
}

/// The serving state of one node.
pub struct NodeSim {
    cfg: ServeConfig,
    broker: CapacityBroker,
    caps: [f64; 2],
    total_threads: usize,
    // Jobs placed on this node, in placement order; parallel vectors.
    jobs: Vec<JobRequest>,
    est: Vec<f64>,
    ids: Vec<JobId>,
    classes: Vec<DeadlineClass>,
    spill_ok: Vec<bool>,
    footprint: Vec<u64>, // MCDRAM ring bytes, `ring_footprint` at submit
    ready: ReadyQueue,   // placement order
    running: Vec<Running>,
    rates: Vec<f64>, // parallel to `running`, valid after retune_and_allocate
    /// Re-tune scratch, kept so a re-tune allocates nothing once warm:
    /// the bus arbiter and the running set's flows (a prefix of `flows`;
    /// entries past it keep their `demand` buffers for later growth).
    arbiter: Arbiter,
    flows: Vec<FlowSpec>,
    /// `running` changed since profiles and `rates` were last computed.
    retune_due: bool,
    /// A submit, a finish or a steal since the last admission pass: the
    /// queue or the broker may now let a FIFO/SJF candidate in.
    admit_due: bool,
    /// The last [`Self::advance`]'s target time and the earliest
    /// completion it predicted from there; `None` once the running set
    /// (and so the rates) changed.
    next_done: Option<(f64, f64)>,
    /// The last [`Self::advance`] brought a running job to [`DONE_EPS`].
    any_done: bool,
    retunes: u64,
    admission_passes: u64,
    profile_searches: u64,
    credit: [f64; N_CLASSES],
    records: Vec<JobRecord>,
}

impl NodeSim {
    /// A node with an empty queue. `cfg` must pass
    /// [`ServeConfig::validate`].
    pub fn new(cfg: ServeConfig) -> Result<Self, String> {
        cfg.validate()?;
        let broker = CapacityBroker::new(&cfg.machine, cfg.mcdram_budget, cfg.spill);
        let caps = [
            cfg.machine.ddr_bandwidth,
            cfg.machine.effective_mcdram_bandwidth(),
        ];
        let total_threads = cfg.machine.total_threads();
        Ok(NodeSim {
            cfg,
            broker,
            caps,
            total_threads,
            jobs: Vec::new(),
            est: Vec::new(),
            ids: Vec::new(),
            classes: Vec::new(),
            spill_ok: Vec::new(),
            footprint: Vec::new(),
            ready: ReadyQueue::default(),
            running: Vec::new(),
            rates: Vec::new(),
            arbiter: Arbiter::new(),
            flows: Vec::new(),
            retune_due: false,
            admit_due: false,
            next_done: None,
            any_done: false,
            retunes: 0,
            admission_passes: 0,
            profile_searches: 0,
            credit: [0.0; N_CLASSES],
            records: Vec::new(),
        })
    }

    /// Queue `job` on this node. `strict` pins an HBW job to MCDRAM even
    /// on a spill-capable node (`HBW` vs `HBW_PREFERRED` semantics,
    /// decided per job by the fleet's placement layer; `serve` passes
    /// `false` so the node's own spill policy governs).
    ///
    /// Returns `false` — without queueing — when the job's ring can never
    /// fit this node, so the caller can reject or try another node. A
    /// queued job's ticket is the number of jobs queued here before it.
    pub fn submit(&mut self, job: JobRequest, strict: bool) -> bool {
        let spill_ok = !strict;
        if !self.broker.can_ever_fit_job(&job.spec, spill_ok) {
            return false;
        }
        let idx = self.jobs.len();
        self.est
            .push(predicted_makespan(&job.spec, &self.cfg.machine));
        self.ids.push(job.id);
        self.classes.push(job.class);
        self.spill_ok.push(spill_ok);
        let footprint = ring_footprint(&job.spec);
        self.footprint.push(footprint);
        if strict {
            self.broker.note_strict_queued(footprint);
        }
        self.ready.push(
            idx,
            FitClass {
                strict,
                placement: job.spec.placement,
                buffer_bytes: buffer_bytes(&job.spec),
            },
        );
        self.jobs.push(job);
        self.admit_due = true;
        true
    }

    /// Sweep completions: jobs whose remaining fraction reached zero
    /// return their reservation and produce a [`JobRecord`] at `now`.
    /// Returns at once when the last [`Self::advance`] found none done:
    /// only it lowers a fraction, and an admitted job starts at 1.
    #[inline]
    pub fn complete_due(&mut self, now: f64) -> Result<(), String> {
        if !self.any_done {
            debug_assert!(
                self.running.iter().all(|r| r.frac_left > DONE_EPS),
                "a job is done but the last advance noted none"
            );
            return Ok(());
        }
        self.sweep_done(now)
    }

    /// The sweep [`Self::complete_due`] skips; out of line so the check
    /// in front of it inlines into every driver's per-node loop.
    fn sweep_done(&mut self, now: f64) -> Result<(), String> {
        self.any_done = false;
        let mut i = 0;
        while i < self.running.len() {
            if self.running[i].frac_left <= DONE_EPS {
                self.finish(i, now)?;
            } else {
                i += 1;
            }
        }
        Ok(())
    }

    /// Complete the running job `ticket` names at `now`, whatever its
    /// remaining fraction: for a driver that learns of completions
    /// (a worker thread reporting back) instead of predicting them.
    pub fn complete(&mut self, ticket: usize, now: f64) -> Result<(), String> {
        let i = self
            .running
            .iter()
            .position(|r| r.idx == ticket)
            .ok_or_else(|| format!("ticket {ticket} is not running"))?;
        self.finish(i, now)
    }

    /// Retire `running[i]`: return its reservation and record it.
    fn finish(&mut self, i: usize, now: f64) -> Result<(), String> {
        let r = self.running.swap_remove(i);
        self.running_changed();
        self.admit_due = true;
        if let Some(res) = &r.reservation {
            self.broker.release(res).map_err(|e| e.to_string())?;
        }
        let job = &self.jobs[r.idx];
        self.records.push(JobRecord {
            id: job.id,
            class: job.class,
            arrival: job.arrival,
            start: r.start,
            finish: now,
            buffer_level: match &r.reservation {
                Some(res) => res.level(),
                None => MemLevel::Ddr,
            },
            split: r.profile.split,
        });
        Ok(())
    }

    /// The running set changed: profiles, rates and the completion
    /// prediction are stale.
    fn running_changed(&mut self) {
        self.retune_due = true;
        self.next_done = None;
    }

    /// One admission pass: admit ready jobs in policy order until the
    /// broker reports `Busy` (FIFO/SJF stop at their head; fair-share
    /// skips the blocked class and keeps trying the others). Appends the
    /// admissions made to `admitted`, in order.
    ///
    /// FIFO and SJF return at once unless a submit, a finish or a steal
    /// touched the node since their last pass. That pass ended on an
    /// empty queue or on a candidate the broker refused, and their choice
    /// reads only the queue and the broker, so a rerun would pick the same
    /// candidate and be refused again. Fair-share always runs: its aging
    /// reads `now`, and a job that ages since the last pass can set the
    /// backfill horizon from earlier in the pass, which moves it and lets
    /// in a candidate that pass never offered the broker (see the test
    /// `fair_share_admits_with_nothing_touched_once_an_earlier_job_ages`).
    #[inline]
    pub fn admit(&mut self, now: f64, admitted: &mut Vec<Admission>) -> Result<(), String> {
        if !self.admit_due && self.cfg.policy != Policy::FairShare {
            #[cfg(debug_assertions)]
            self.assert_pass_would_stall();
            return Ok(());
        }
        self.admission_pass(now, admitted)
    }

    /// The pass [`Self::admit`] skips, out of line like [`Self::sweep_done`].
    fn admission_pass(&mut self, now: f64, admitted: &mut Vec<Admission>) -> Result<(), String> {
        self.admit_due = false;
        self.admission_passes += 1;
        let mut blocked = [false; N_CLASSES];
        // EASY-backfill reservation for the first aged (long-bypassed) job
        // found this pass: the projected time its ring fits. Jobs admitted
        // after the reservation must be predicted to finish before it.
        let mut backfill_horizon: Option<f64> = None;
        loop {
            // FIFO reads only the head; SJF and fair-share scan the whole
            // queue, so any holes steals left in it are closed first.
            let ready = match self.cfg.policy {
                Policy::Fifo => self.ready.head_slice(),
                Policy::Sjf | Policy::FairShare => self.ready.as_slice(),
            };
            let pos = select_candidate(
                self.cfg.policy,
                ready,
                &self.est,
                &self.ids,
                &self.classes,
                &self.credit,
                &blocked,
            );
            let Some(pos) = pos else { break };
            let idx = ready[pos];
            let job = &self.jobs[idx];
            let footprint = self.footprint[idx];
            // A backfill candidate that needs MCDRAM must be predicted to
            // finish before the reserved job's projected start.
            if let Some(horizon) = backfill_horizon {
                if footprint > 0 && now + self.est[idx] > horizon {
                    blocked[job.class.index()] = true;
                    if blocked.iter().all(|&b| b) {
                        break;
                    }
                    continue;
                }
            }
            match self.broker.try_admit_job(&job.spec, self.spill_ok[idx])? {
                AdmitOutcome::Admitted(reservation) => {
                    self.ready.remove_at(pos);
                    if !self.spill_ok[idx] {
                        self.broker.note_strict_dequeued(footprint);
                    }
                    let effective = match &reservation {
                        Some(res) if res.level() == MemLevel::Ddr => Placement::Ddr,
                        _ => job.spec.placement,
                    };
                    // The whole-machine profile: what `fit_time` reads
                    // for jobs admitted earlier in this pass, and the
                    // first memo entry. The driver's retune step picks
                    // the profile for the new co-residency degree before
                    // any time passes.
                    let prof = profile(
                        &job.spec,
                        effective,
                        &self.cfg.machine,
                        self.total_threads,
                        true,
                    )?;
                    self.profile_searches += 1;
                    admitted.push(Admission {
                        id: job.id,
                        ticket: idx,
                        level: match &reservation {
                            Some(res) => res.level(),
                            None => MemLevel::Ddr,
                        },
                        effective,
                    });
                    self.running.push(Running {
                        idx,
                        start: now,
                        frac_left: 1.0,
                        effective,
                        reservation,
                        profile: prof,
                        memo: vec![(self.total_threads, prof)],
                    });
                    self.running_changed();
                    charge_credit(
                        self.cfg.policy,
                        &mut self.credit,
                        self.classes[idx],
                        self.est[idx],
                    );
                }
                AdmitOutcome::Busy => match self.cfg.policy {
                    Policy::Fifo | Policy::Sjf => break,
                    Policy::FairShare => {
                        // Starvation aging: the first job bypassed past
                        // the bound gets an EASY-backfill reservation at
                        // its projected fit time, so backfilling can no
                        // longer postpone it forever.
                        if backfill_horizon.is_none() && now - job.arrival > self.cfg.fair_aging {
                            backfill_horizon = Some(self.fit_time(footprint, now));
                        }
                        blocked[job.class.index()] = true;
                        if blocked.iter().all(|&b| b) {
                            break;
                        }
                    }
                },
            }
        }
        Ok(())
    }

    /// A skipped FIFO/SJF pass must have had nothing to admit: its
    /// candidate, if any, does not fit now. "Fit" is the broker's own
    /// test, not [`Self::fits_now`]: that one takes a preferred ring on a
    /// spill node to fit always, but the broker refuses it once the
    /// node's DDR is full of spilled rings too.
    #[cfg(debug_assertions)]
    fn assert_pass_would_stall(&self) {
        let ready: Vec<usize> = self.ready.iter().collect();
        let Some(pos) = select_candidate(
            self.cfg.policy,
            &ready,
            &self.est,
            &self.ids,
            &self.classes,
            &self.credit,
            &[false; N_CLASSES],
        ) else {
            return;
        };
        let idx = ready[pos];
        assert!(
            !self
                .broker
                .would_admit(&self.jobs[idx].spec, self.spill_ok[idx]),
            "job {} fits now, but nothing touched the node and its pass was skipped",
            self.ids[idx]
        );
    }

    /// Optimistically project when `need` bytes of MCDRAM will be free,
    /// by walking running jobs' dedicated-speed remaining times in
    /// completion order. Contention only pushes real completions later,
    /// so a backfill window computed from this estimate errs in the
    /// reserved job's favour.
    fn fit_time(&self, need: u64, now: f64) -> f64 {
        let mut free = self
            .broker
            .budget()
            .saturating_sub(self.broker.reserved_mcdram());
        if free >= need {
            return now;
        }
        let mut finishes: Vec<(f64, u64)> = self
            .running
            .iter()
            .filter_map(|r| {
                let res = r.reservation.as_ref()?;
                (res.level() == MemLevel::Mcdram)
                    .then(|| (now + r.frac_left * r.profile.t0, res.bytes()))
            })
            .collect();
        finishes.sort_by(|a, b| a.0.total_cmp(&b.0));
        for (t, bytes) in finishes {
            free = free.saturating_add(bytes);
            if free >= need {
                return t;
            }
        }
        f64::INFINITY
    }

    /// Nothing queued and nothing running.
    pub fn is_drained(&self) -> bool {
        self.running.is_empty() && self.ready.is_empty()
    }

    /// Re-tune every running job for the current co-residency degree and
    /// recompute the max–min-fair bus rates. Must run after any change to
    /// the running set and before [`Self::next_completion`] /
    /// [`Self::advance`]; returns at once when the set has not changed
    /// since the last call, because both results are pure functions of it.
    #[inline]
    pub fn retune_and_allocate(&mut self) -> Result<(), String> {
        if self.retune_due {
            self.retune()?;
        }
        #[cfg(debug_assertions)]
        self.assert_tuning_is_current()?;
        Ok(())
    }

    /// The re-tune [`Self::retune_and_allocate`] skips, out of line like
    /// [`Self::sweep_done`].
    fn retune(&mut self) -> Result<(), String> {
        self.retunes += 1;
        let budget = self.thread_budget();
        for r in &mut self.running {
            r.profile = match r.memo.iter().find(|(b, _)| *b == budget) {
                Some(&(_, known)) => known,
                None => {
                    let fresh = profile(
                        &self.jobs[r.idx].spec,
                        r.effective,
                        &self.cfg.machine,
                        budget,
                        true,
                    )?;
                    self.profile_searches += 1;
                    r.memo.push((budget, fresh));
                    fresh
                }
            };
        }
        let flows = bus_flows(&mut self.flows, &self.running);
        self.arbiter
            .allocate_flows(&self.caps, flows, &mut self.rates);
        self.retune_due = false;
        Ok(())
    }

    /// Redo the re-tune from scratch — every job re-profiled, the buses
    /// re-filled by a fresh [`allocate_rates`] — and demand the bits held
    /// match. Debug builds run it on every call above, so each serve/fleet
    /// test is a differential test of the skip, of the memo and of the
    /// reused arbiter.
    #[cfg(debug_assertions)]
    fn assert_tuning_is_current(&self) -> Result<(), String> {
        let budget = self.thread_budget();
        for r in &self.running {
            let fresh = profile(
                &self.jobs[r.idx].spec,
                r.effective,
                &self.cfg.machine,
                budget,
                true,
            )?;
            let held = &r.profile;
            assert!(
                fresh.t0.to_bits() == held.t0.to_bits()
                    && fresh.ddr_coeff.to_bits() == held.ddr_coeff.to_bits()
                    && fresh.mcd_coeff.to_bits() == held.mcd_coeff.to_bits()
                    && fresh.split == held.split,
                "job {} holds a stale profile at budget {budget}: {held:?} vs {fresh:?}",
                self.ids[r.idx]
            );
        }
        let fresh = allocate_rates(&self.caps, bus_flows(&mut Vec::new(), &self.running));
        assert!(
            fresh
                .iter()
                .map(|r| r.to_bits())
                .eq(self.rates.iter().map(|r| r.to_bits())),
            "bus rates are stale: {:?} vs {fresh:?}",
            self.rates
        );
        Ok(())
    }

    /// Threads each running job gets at the current co-residency degree.
    fn thread_budget(&self) -> usize {
        (self.total_threads / self.running.len().max(1)).max(3)
    }

    /// Absolute time of this node's earliest completion (`INFINITY` when
    /// nothing is running or nothing can progress). Reads the prediction
    /// the last [`Self::advance`] made when `now` is its target and the
    /// running set has not changed since; walks the running jobs
    /// otherwise.
    #[inline]
    pub fn next_completion(&self, now: f64) -> f64 {
        match self.next_done {
            Some((at, t_next)) if at.to_bits() == now.to_bits() => {
                debug_assert_eq!(
                    t_next.to_bits(),
                    self.scan_next_completion(now).to_bits(),
                    "the completion prediction is stale"
                );
                t_next
            }
            _ => self.scan_next_completion(now),
        }
    }

    fn scan_next_completion(&self, now: f64) -> f64 {
        let mut t_next = f64::INFINITY;
        for (r, &rate) in self.running.iter().zip(&self.rates) {
            if rate > 0.0 {
                t_next = t_next.min(now + r.frac_left * r.profile.t0 / rate);
            }
        }
        t_next
    }

    /// Progress every running job from `now` to `t_next` at its allocated
    /// rate. The same walk predicts the earliest completion from `t_next`
    /// (what [`Self::next_completion`] would compute there) and notes
    /// whether a job is done, so neither needs a walk of its own.
    pub fn advance(&mut self, now: f64, t_next: f64) {
        let dt = (t_next - now).max(0.0);
        let mut next_done = f64::INFINITY;
        let mut any_done = false;
        for (r, &rate) in self.running.iter_mut().zip(&self.rates) {
            r.frac_left = (r.frac_left - rate * dt / r.profile.t0).max(0.0);
            any_done |= r.frac_left <= DONE_EPS;
            if rate > 0.0 {
                next_done = next_done.min(t_next + r.frac_left * r.profile.t0 / rate);
            }
        }
        self.next_done = Some((t_next, next_done));
        self.any_done = any_done;
    }

    /// Number of jobs currently running.
    pub fn running_len(&self) -> usize {
        self.running.len()
    }

    /// Number of jobs waiting in the ready queue.
    pub fn queue_len(&self) -> usize {
        self.ready.len()
    }

    /// The queue in order, for steal scans: each job with its strictness
    /// and the ticket [`Self::steal`] takes.
    pub fn queue(&self) -> impl Iterator<Item = (usize, &JobRequest, bool)> {
        self.ready
            .iter()
            .map(|idx| (idx, &self.jobs[idx], !self.spill_ok[idx]))
    }

    /// Ticket of the first job after the head (the head is next in line
    /// here) that `accept`s, for steal lookups: the job a walk down
    /// [`Self::queue`] from its second entry would stop at, found with at
    /// most one `accept` call per distinct (strictness, placement, ring
    /// size) among the queued jobs. `accept` must depend on nothing else
    /// about the job — [`Self::can_ever_fit`] and [`Self::fits_now`] of
    /// any node qualify.
    pub fn first_stealable(
        &self,
        mut accept: impl FnMut(&JobRequest, bool) -> bool,
    ) -> Option<usize> {
        self.ready
            .first_after_head(|idx| accept(&self.jobs[idx], !self.spill_ok[idx]))
    }

    /// Remove the queued job `ticket` names — any but the head — for work
    /// stealing. Strict-queue accounting is unwound; the job itself is
    /// returned so the thief can [`Self::submit`] it.
    pub fn steal(&mut self, ticket: usize) -> (JobRequest, bool) {
        self.ready.take(ticket);
        self.admit_due = true;
        let strict = !self.spill_ok[ticket];
        if strict {
            self.broker.note_strict_dequeued(self.footprint[ticket]);
        }
        (self.jobs[ticket].clone(), strict)
    }

    /// The node's capacity broker (headroom / backlog signals for
    /// placement and stealing).
    pub fn broker(&self) -> &CapacityBroker {
        &self.broker
    }

    /// Whether `spec` could ever fit this node, given per-job strictness.
    pub fn can_ever_fit(&self, spec: &mlm_core::PipelineSpec, strict: bool) -> bool {
        self.broker.can_ever_fit_job(spec, !strict)
    }

    /// Whether `spec` can start *right now*: strict rings need current
    /// MCDRAM headroom; preferred jobs on a spill node can always fall
    /// back to DDR.
    pub fn fits_now(&self, spec: &mlm_core::PipelineSpec, strict: bool) -> bool {
        let footprint = ring_footprint(spec);
        footprint == 0 || footprint <= self.broker.hbw_headroom() || (!strict && self.cfg.spill)
    }

    /// The node's serving configuration.
    pub fn config(&self) -> &ServeConfig {
        &self.cfg
    }

    /// Times [`Self::retune_and_allocate`] found the running set changed
    /// and did the work (a deterministic count, not a timing).
    pub fn retunes(&self) -> u64 {
        self.retunes
    }

    /// Eqs. 1–5 profile evaluations made for this node's jobs: one per
    /// admission plus one per (job, thread budget) first seen at a retune.
    pub fn profile_searches(&self) -> u64 {
        self.profile_searches
    }

    /// Admission passes [`Self::admit`] ran rather than skipped (a
    /// deterministic count, not a timing).
    pub fn admission_passes(&self) -> u64 {
        self.admission_passes
    }

    /// Consume the node, yielding its completion records (unsorted).
    pub fn into_records(self) -> Vec<JobRecord> {
        self.records
    }
}

/// The running set as bus flows, written over the first `running.len()`
/// entries of `flows` (grown if needed, so their `demand` buffers are
/// reused) and returned as that prefix. Each job is a flow whose unit is
/// "dedicated-seconds per second" (cap 1.0) and whose bus coefficients
/// are bytes per dedicated-second.
fn bus_flows<'a>(flows: &'a mut Vec<FlowSpec>, running: &[Running]) -> &'a [FlowSpec] {
    if flows.len() < running.len() {
        flows.resize_with(running.len(), || FlowSpec {
            demand: Vec::with_capacity(2),
            cap: 1.0,
        });
    }
    for (flow, r) in flows.iter_mut().zip(running) {
        flow.demand.clear();
        if r.profile.ddr_coeff > 0.0 {
            flow.demand.push((DDR_BUS, r.profile.ddr_coeff));
        }
        if r.profile.mcd_coeff > 0.0 {
            flow.demand.push((MCD_BUS, r.profile.mcd_coeff));
        }
    }
    &flows[..running.len()]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DeadlineClass::{Batch, Interactive, Standard};
    use knl_sim::machine::{MachineConfig, MemMode};
    use knl_sim::GIB;
    use mlm_core::{PipelineSpec, Workload};

    /// A strict HBW job whose ring is three `chunk`s.
    fn job(id: JobId, arrival: f64, class: DeadlineClass, total: u64, chunk: u64) -> JobRequest {
        let spec = PipelineSpec {
            total_bytes: total,
            chunk_bytes: chunk,
            p_in: 8,
            p_out: 8,
            p_comp: 64,
            compute_passes: 2,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        };
        JobRequest::new(id, arrival, class, spec)
    }

    /// Why [`NodeSim::admit`] never skips a fair-share pass. Between the
    /// two passes below nothing is submitted, finished or stolen, yet the
    /// second admits a job the first never offered the broker: job A
    /// ages in between, so the backfill horizon comes from A (which needs
    /// both running rings back) instead of from C behind it (which needs
    /// only the short one's), and B now ends before the horizon.
    #[test]
    fn fair_share_admits_with_nothing_touched_once_an_earlier_job_ages() {
        let mut cfg = ServeConfig::new(MachineConfig::knl_7250(MemMode::Flat));
        cfg.policy = Policy::FairShare;
        cfg.mcdram_budget = 16 * GIB;
        cfg.fair_aging = 1.0;
        let mut node = NodeSim::new(cfg).unwrap();
        let mut admitted = Vec::new();
        // Two batch jobs with 3 GiB rings run, a short and a long one,
        // leaving 10 GiB free; batch now has credit, the others none.
        assert!(node.submit(job(0, 0.0, Batch, 64 * GIB, GIB), true));
        assert!(node.submit(job(1, 0.0, Batch, 4096 * GIB, GIB), true));
        node.admit(0.0, &mut admitted).unwrap();
        assert_eq!(admitted.len(), 2);
        // Offered in this order (credit ties go to queue order): A needs
        // 15 GiB and ages at t = 2.5, C needs 12 GiB and has aged, B
        // needs 3 GiB, which is free.
        assert!(node.submit(job(2, 1.5, Interactive, 20 * GIB, 5 * GIB), true));
        assert!(node.submit(job(3, 0.0, Standard, 16 * GIB, 4 * GIB), true));
        assert!(node.submit(job(4, 0.0, Batch, 512 * GIB, GIB), true));
        node.retune_and_allocate().unwrap();
        node.advance(0.0, 2.0);

        admitted.clear();
        node.admit(2.0, &mut admitted).unwrap();
        assert!(
            admitted.is_empty(),
            "C's horizon holds B back: {admitted:?}"
        );
        node.complete_due(2.0).unwrap();
        node.retune_and_allocate().unwrap();
        node.advance(2.0, 3.0);

        node.admit(3.0, &mut admitted).unwrap();
        let ids: Vec<JobId> = admitted.iter().map(|a| a.id).collect();
        assert_eq!(ids, [4], "A's later horizon lets B in");
        assert_eq!(node.admission_passes(), 3);
    }

    /// The FIFO skip: a pass nothing touched is not run, and the next
    /// submit brings passes back.
    #[test]
    fn fifo_skips_passes_until_something_touches_the_node() {
        let mut cfg = ServeConfig::new(MachineConfig::knl_7250(MemMode::Flat));
        cfg.mcdram_budget = 16 * GIB;
        let mut node = NodeSim::new(cfg).unwrap();
        let mut admitted = Vec::new();
        assert!(node.submit(job(0, 0.0, Standard, 64 * GIB, 4 * GIB), true));
        assert!(node.submit(job(1, 0.0, Standard, 64 * GIB, 4 * GIB), true));
        for now in [0.0, 1.0, 2.0] {
            node.admit(now, &mut admitted).unwrap();
        }
        assert_eq!(admitted.len(), 1, "the second 12 GiB ring waits");
        assert_eq!(node.admission_passes(), 1);
        assert!(node.submit(job(2, 2.0, Standard, 8 * GIB, GIB), true));
        node.admit(2.0, &mut admitted).unwrap();
        assert_eq!(node.admission_passes(), 2);
        assert_eq!(admitted.len(), 1, "FIFO: job 2 waits behind the head");
    }

    /// A steal touches the donor: under SJF the stolen job can be the
    /// candidate the last pass stopped at, and the next one may fit.
    #[test]
    fn sjf_pass_reruns_after_its_candidate_is_stolen() {
        let mut cfg = ServeConfig::new(MachineConfig::knl_7250(MemMode::Flat));
        cfg.policy = Policy::Sjf;
        cfg.mcdram_budget = 16 * GIB;
        let mut node = NodeSim::new(cfg).unwrap();
        let mut admitted = Vec::new();
        assert!(node.submit(job(0, 0.0, Standard, 64 * GIB, 2 * GIB), true));
        node.admit(0.0, &mut admitted).unwrap();
        // 10 GiB free. The head needs 12 GiB and runs longest; the
        // shortest job needs 12 GiB too, so the pass stops there, before
        // the 3 GiB job it never tries.
        assert!(node.submit(job(1, 0.0, Standard, 1024 * GIB, 4 * GIB), true));
        assert!(node.submit(job(2, 0.0, Standard, 16 * GIB, 4 * GIB), true));
        assert!(node.submit(job(3, 0.0, Standard, 64 * GIB, GIB), true));
        node.admit(0.0, &mut admitted).unwrap();
        node.admit(0.0, &mut admitted).unwrap();
        assert_eq!((admitted.len(), node.admission_passes()), (1, 2));
        let (stolen, _) = node.steal(2);
        assert_eq!(stolen.id, 2);
        node.admit(0.0, &mut admitted).unwrap();
        let ids: Vec<JobId> = admitted.iter().map(|a| a.id).collect();
        assert_eq!(ids, [0, 3]);
    }
}
