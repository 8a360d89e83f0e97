//! The serving loop: a deterministic virtual-time event scheduler for
//! concurrent pipeline jobs.
//!
//! Jobs are modelled at the granularity the fleet cares about: each running
//! job is a *flow* whose dedicated-machine service time comes from the
//! §3.2 model ([`crate::policy::profile`]) and whose progress under
//! co-residency is arbitrated by the same max–min-fair water-filling
//! ([`knl_sim::bandwidth::allocate_rates`]) the simulator applies to
//! individual ops — a job demands DDR and MCDRAM bus bytes in proportion
//! to its progress rate, and busy buses slow every job leaning on them.
//!
//! The loop advances from event to event (arrival or completion). At each
//! event it:
//!
//! 1. completes finished jobs and releases their broker reservations
//!    (only when the last advance brought one to zero),
//! 2. runs the admission policy over the ready queue (FIFO and SJF only
//!    when an arrival or a completion gave it something new to try),
//! 3. if steps 1–2 changed the running set, re-tunes every running job
//!    with the Eqs. 1–5 model (the per-job thread budget changes with the
//!    co-resident set), and
//! 4. recomputes the fair bus rates — likewise only then.
//!
//! [`NodeSim`]'s module docs state the contract in full.
//!
//! Everything is pure arithmetic over the trace — no wall clock, no RNG —
//! so a fixed trace always produces bit-identical results.

use knl_sim::machine::MachineConfig;

use crate::broker::buffer_bytes;
use crate::job::{JobRecord, JobRequest, Rejection};
use crate::node::{NodeSim, DONE_EPS};
use crate::policy::Policy;
use crate::stats::FleetStats;

/// Configuration for one serving run.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// The node being shared.
    pub machine: MachineConfig,
    /// Admission policy.
    pub policy: Policy,
    /// MCDRAM bytes the broker may hand out (clamped to addressable).
    pub mcdram_budget: u64,
    /// `HBW_PREFERRED` semantics: spill to DDR instead of queueing.
    pub spill: bool,
    /// Fair-share starvation bound (seconds). A capacity-blocked job
    /// bypassed for longer than this gets an EASY-backfill reservation:
    /// the scheduler projects when completions will have freed enough
    /// MCDRAM for it, and only admits other jobs whose model-predicted
    /// makespan ends before that point (or that need no MCDRAM). Small
    /// jobs keep flowing through genuinely spare capacity, but can no
    /// longer fragment MCDRAM forever and starve big rings. Default
    /// `INFINITY` (off): the reservation costs throughput wherever it
    /// binds, so it is a worst-case-latency guarantee to opt into, not a
    /// tail-latency optimisation.
    pub fair_aging: f64,
}

impl ServeConfig {
    /// Defaults: FIFO, full addressable MCDRAM, strict (no spill), no
    /// aging.
    pub fn new(machine: MachineConfig) -> Self {
        let budget = machine.addressable_mcdram();
        ServeConfig {
            machine,
            policy: Policy::Fifo,
            mcdram_budget: budget,
            spill: false,
            fair_aging: f64::INFINITY,
        }
    }

    /// Check the machine and the aging bound: `fair_aging` must be
    /// positive (`INFINITY` disables aging; `NaN` is refused, not read as
    /// "off").
    pub fn validate(&self) -> Result<(), String> {
        self.machine.validate().map_err(|e| e.to_string())?;
        if self.fair_aging <= 0.0 || self.fair_aging.is_nan() {
            return Err("fair_aging must be positive (INFINITY disables)".into());
        }
        Ok(())
    }
}

/// Everything a serving run produces.
#[derive(Debug)]
pub struct ServeOutcome {
    /// Per-job outcomes, sorted by job id.
    pub records: Vec<JobRecord>,
    /// Jobs refused at submission.
    pub rejections: Vec<Rejection>,
    /// Fleet-level summary.
    pub fleet: FleetStats,
}

/// Serve `jobs` (any order; sorted internally by arrival) under `cfg`.
///
/// This is a thin driver over one [`NodeSim`]: the same state machine a
/// fleet dispatcher runs per node, so a 1-node fleet and `serve` make
/// bit-identical decisions by construction.
pub fn serve(cfg: &ServeConfig, jobs: &[JobRequest]) -> Result<ServeOutcome, String> {
    for j in jobs {
        j.spec
            .validate()
            .map_err(|e| format!("job {}: {e}", j.id))?;
        if !(j.arrival.is_finite() && j.arrival >= 0.0) {
            return Err(format!("job {}: bad arrival time {}", j.id, j.arrival));
        }
    }

    let mut node = NodeSim::new(cfg.clone())?;

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .arrival
            .total_cmp(&jobs[b].arrival)
            .then(jobs[a].id.cmp(&jobs[b].id))
    });

    let mut next_arrival = 0usize;
    let mut rejections: Vec<Rejection> = Vec::new();
    let mut admitted = Vec::new();
    let mut now = 0.0f64;

    loop {
        // 1. Arrivals due at or before `now` join the ready queue (or are
        // rejected outright when they can never fit).
        while next_arrival < order.len() && jobs[order[next_arrival]].arrival <= now + DONE_EPS {
            let idx = order[next_arrival];
            next_arrival += 1;
            if !node.submit(jobs[idx].clone(), false) {
                rejections.push(Rejection {
                    id: jobs[idx].id,
                    reason: format!(
                        "buffer ring of {} B exceeds the {} B MCDRAM budget",
                        buffer_bytes(&jobs[idx].spec),
                        node.broker().budget()
                    ),
                });
            }
        }

        // 2. Completions: a finished job returns its reservation before
        // admission runs, so freed capacity is immediately re-usable.
        node.complete_due(now)?;

        // 3. Admission under the configured policy.
        admitted.clear();
        node.admit(now, &mut admitted)?;

        // 4. Termination.
        if node.is_drained() && next_arrival >= order.len() {
            break;
        }

        // 5. Re-tune every running job for the current co-residency degree
        // and recompute the fair bus rates (a no-op when steps 2–3 left
        // the running set alone).
        node.retune_and_allocate()?;

        // 6. Advance to the next event.
        let mut t_next = node.next_completion(now);
        if next_arrival < order.len() {
            t_next = t_next.min(jobs[order[next_arrival]].arrival);
        }
        if !t_next.is_finite() {
            return Err(format!(
                "scheduler stuck at t={now}: {} queued, {} running, nothing can progress",
                node.queue_len(),
                node.running_len()
            ));
        }
        node.advance(now, t_next);
        now = t_next;
    }

    let hwm = node.broker().high_water();
    let mut records: Vec<JobRecord> = node.into_records();
    if records.len() + rejections.len() != jobs.len() {
        return Err(format!(
            "scheduler lost jobs: {} submitted, {} completed, {} rejected",
            jobs.len(),
            records.len(),
            rejections.len()
        ));
    }
    records.sort_by_key(|r| r.id);
    let fleet = FleetStats::from_records(&records, rejections.len(), hwm);
    Ok(ServeOutcome {
        records,
        rejections,
        fleet,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::DeadlineClass;
    use crate::policy::profile;
    use knl_sim::machine::MemMode;
    use knl_sim::MemLevel;
    use knl_sim::GIB;
    use mlm_core::{PipelineSpec, Placement, Workload};

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn spec(total: u64, chunk: u64, passes: u32) -> PipelineSpec {
        PipelineSpec {
            total_bytes: total,
            chunk_bytes: chunk,
            p_in: 8,
            p_out: 8,
            p_comp: 64,
            compute_passes: passes,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn cfg(policy: Policy, budget: u64) -> ServeConfig {
        ServeConfig {
            policy,
            mcdram_budget: budget,
            ..ServeConfig::new(machine())
        }
    }

    #[test]
    fn single_job_runs_at_dedicated_speed() {
        let c = cfg(Policy::Fifo, 16 * GIB);
        let s = spec(8 * GIB, GIB, 2);
        let jobs = [JobRequest::new(1, 0.0, DeadlineClass::Standard, s.clone())];
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.records.len(), 1);
        let r = &out.records[0];
        assert_eq!(r.start, 0.0);
        // Alone on the machine, the job finishes in exactly its dedicated
        // service time for the full thread budget.
        let p = profile(
            &s,
            Placement::Hbw,
            &c.machine,
            c.machine.total_threads(),
            true,
        )
        .unwrap();
        assert!((r.finish - p.t0).abs() < 1e-6 * p.t0);
        assert_eq!(out.fleet.jobs, 1);
        assert_eq!(out.fleet.mcdram_high_water, 3 * GIB);
    }

    #[test]
    fn capacity_serialises_jobs_and_is_never_oversubscribed() {
        // 8 GiB budget, 6 GiB rings: only one job resident at a time.
        let c = cfg(Policy::Fifo, 8 * GIB);
        let s = spec(8 * GIB, 2 * GIB, 1);
        let jobs: Vec<JobRequest> = (0..3)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.records.len(), 3);
        assert!(out.fleet.mcdram_high_water <= 8 * GIB);
        // Strictly serialised: each start coincides with the previous
        // finish, and only one job's interval overlaps any time point.
        let mut recs = out.records.clone();
        recs.sort_by(|a, b| a.start.total_cmp(&b.start));
        for w in recs.windows(2) {
            assert!(w[1].start >= w[0].finish - 1e-9);
        }
    }

    #[test]
    fn co_resident_jobs_share_bus_bandwidth() {
        // Two jobs whose rings fit together: both admitted at t=0, and bus
        // contention makes each slower than it would be alone (but the pair
        // finishes sooner than running back-to-back).
        let c = cfg(Policy::Fifo, 8 * GIB);
        let s = spec(16 * GIB, GIB, 4);
        let solo = serve(
            &c,
            &[JobRequest::new(0, 0.0, DeadlineClass::Standard, s.clone())],
        )
        .unwrap()
        .records[0]
            .finish;
        let jobs: Vec<JobRequest> = (0..2)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let out = serve(&c, &jobs).unwrap();
        let finish = out.fleet.makespan;
        assert!(
            finish > solo * 1.05,
            "contention must cost: {finish} vs solo {solo}"
        );
        assert!(
            finish < 2.0 * solo,
            "sharing must beat serialisation: {finish} vs {}",
            2.0 * solo
        );
        assert_eq!(out.records[0].start, 0.0);
        assert_eq!(out.records[1].start, 0.0);
    }

    #[test]
    fn fifo_head_of_line_blocks_small_jobs_but_fair_share_skips() {
        // Budget 8 GiB. A long-running 3 GiB-ring job holds capacity; a
        // batch elephant with a 6 GiB ring is next in FIFO order and
        // cannot fit; a tiny interactive job (1.5 GiB ring) arrives last.
        let c_fifo = cfg(Policy::Fifo, 8 * GIB);
        let holder = spec(256 * GIB, GIB, 8);
        let elephant = spec(128 * GIB, 2 * GIB, 4);
        let small = spec(2 * GIB, GIB / 2, 1);
        let jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Batch, holder),
            JobRequest::new(1, 1.0, DeadlineClass::Batch, elephant),
            JobRequest::new(2, 2.0, DeadlineClass::Interactive, small),
        ];
        let fifo = serve(&c_fifo, &jobs).unwrap();
        let fair = serve(&cfg(Policy::FairShare, 8 * GIB), &jobs).unwrap();
        let lat =
            |o: &ServeOutcome, id: u64| o.records.iter().find(|r| r.id == id).unwrap().latency();
        // Under FIFO the small job waits behind the elephant that cannot
        // even start; fair-share admits it immediately (1.5 GiB fits in
        // the 5 GiB left by the holder).
        assert!(
            lat(&fair, 2) < lat(&fifo, 2) / 2.0,
            "fair {} vs fifo {}",
            lat(&fair, 2),
            lat(&fifo, 2)
        );
    }

    #[test]
    fn fair_aging_bounds_starvation_of_big_rings() {
        // Budget 8 GiB. A 3 GiB-ring holder runs; a 6 GiB-ring elephant
        // arrives and can never fit while a dense stream of 1.5 GiB-ring
        // interactive jobs keeps fragmenting the spare capacity. Pure
        // fair-share starves the elephant until the stream dries up; with
        // an aging bound the elephant gets an EASY-backfill reservation
        // and runs much earlier.
        let mut jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Standard, spec(64 * GIB, GIB, 4)),
            JobRequest::new(1, 0.5, DeadlineClass::Batch, spec(64 * GIB, 2 * GIB, 4)),
        ];
        for i in 0..120 {
            jobs.push(JobRequest::new(
                2 + i,
                0.1 * i as f64,
                DeadlineClass::Interactive,
                spec(4 * GIB, GIB / 2, 1),
            ));
        }
        let starved = serve(&cfg(Policy::FairShare, 8 * GIB), &jobs).unwrap();
        let mut aged_cfg = cfg(Policy::FairShare, 8 * GIB);
        aged_cfg.fair_aging = 1.0;
        let aged = serve(&aged_cfg, &jobs).unwrap();
        let start = |o: &ServeOutcome| o.records.iter().find(|r| r.id == 1).unwrap().start;
        assert!(
            start(&aged) < start(&starved),
            "aging must admit the elephant earlier: {} vs {}",
            start(&aged),
            start(&starved)
        );
    }

    #[test]
    fn impossible_jobs_are_rejected_not_queued() {
        let c = cfg(Policy::Fifo, 4 * GIB);
        let jobs = vec![
            JobRequest::new(0, 0.0, DeadlineClass::Batch, spec(32 * GIB, 2 * GIB, 1)),
            JobRequest::new(1, 0.0, DeadlineClass::Standard, spec(4 * GIB, GIB, 1)),
        ];
        let out = serve(&c, &jobs).unwrap();
        assert_eq!(out.rejections.len(), 1);
        assert_eq!(out.rejections[0].id, 0);
        assert_eq!(out.records.len(), 1);
        assert_eq!(out.fleet.rejected, 1);
    }

    #[test]
    fn spill_runs_immediately_but_slower() {
        let s = spec(16 * GIB, 2 * GIB, 4);
        let jobs: Vec<JobRequest> = (0..2)
            .map(|i| JobRequest::new(i, 0.0, DeadlineClass::Standard, s.clone()))
            .collect();
        let strict = serve(&cfg(Policy::Fifo, 8 * GIB), &jobs).unwrap();
        let mut c = cfg(Policy::Fifo, 8 * GIB);
        c.spill = true;
        let spilled = serve(&c, &jobs).unwrap();
        // With spill, both start at t=0 (one in DDR).
        assert!(spilled.records.iter().all(|r| r.start == 0.0));
        assert!(spilled
            .records
            .iter()
            .any(|r| r.buffer_level == MemLevel::Ddr));
        // Strict serialises: second job waits.
        assert!(strict.records.iter().any(|r| r.queue_wait() > 0.0));
    }

    #[test]
    fn non_positive_or_nan_fair_aging_is_refused() {
        let jobs = [JobRequest::new(
            0,
            0.0,
            DeadlineClass::Standard,
            spec(4 * GIB, GIB, 1),
        )];
        for bad in [-1.0, 0.0, f64::NAN] {
            let mut c = cfg(Policy::FairShare, 8 * GIB);
            c.fair_aging = bad;
            let err = serve(&c, &jobs).unwrap_err();
            assert!(err.contains("fair_aging"), "{bad}: {err}");
        }
    }

    #[test]
    fn serve_is_deterministic() {
        let c = cfg(Policy::FairShare, 8 * GIB);
        let jobs: Vec<JobRequest> = (0..6)
            .map(|i| {
                JobRequest::new(
                    i,
                    i as f64 * 0.5,
                    DeadlineClass::ALL[(i % 3) as usize],
                    spec(4 * GIB * (1 + i % 3), GIB, 1 + (i % 2) as u32),
                )
            })
            .collect();
        let a = serve(&c, &jobs).unwrap();
        let b = serve(&c, &jobs).unwrap();
        assert_eq!(a.fleet, b.fleet);
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
            assert_eq!(x.start.to_bits(), y.start.to_bits());
        }
    }
}
