//! The virtual-time fleet dispatcher: N [`NodeSim`]s behind a placement
//! layer, with cross-node work stealing.
//!
//! Each event time, in this order (a strict superset of the single-node
//! `serve` loop, so a 1-node fleet with stealing off executes exactly the
//! same operations as [`mlm_serve::serve`]):
//!
//! 1. **arrivals** — place each due job on a node ([`place`]) or reject
//!    it when no node could ever fit its ring,
//! 2. **migration deliveries** — stolen jobs whose transfer finished join
//!    their thief's queue,
//! 3. **completions** — per node, release reservations and record jobs;
//!    a node whose last advance finished nothing returns at once,
//! 4. **stealing** — idle nodes lift a queued job from the most
//!    backlogged queue (never its head) if it fits right now; the move
//!    pays the interconnect price when a [`ClusterConfig`] is set,
//! 5. **admission** — per node, the shared policy pass; under FIFO and
//!    SJF a node that steps 1–4 did not submit to, finish on or steal
//!    from returns at once,
//! 6. **termination** — nothing left to arrive, migrate, queue or run,
//! 7. **advance** — one sweep over the nodes re-tunes and re-arbitrates
//!    the buses of those whose running set steps 3 and 5 changed and
//!    reads each node's next completion (predicted by its last advance
//!    unless it re-tuned); then every node advances to the earliest one.
//!
//! So an event walks each node's running jobs once (the advance) and
//! does the rest of its work only where something changed.
//! [`NodeSim`]'s module docs state which calls are no-ops, and when.
//!
//! Everything is pure arithmetic over the trace: same fleet, same trace,
//! bit-identical outcome — which is what lets CI hard-fail on placement
//! decision drift. The work an event costs is counted, not timed
//! ([`FleetOutcome::node_retunes`] and its neighbours), so that too is
//! exact and gated.
//!
//! [`ClusterConfig`]: mlm_cluster::ClusterConfig

use mlm_cluster::ClusterConfig;
use mlm_core::PipelineSpec;
use mlm_serve::stats::percentile;
use mlm_serve::{FleetStats, JobRecord, JobRequest, NodeSim, Rejection, DONE_EPS};

use crate::config::FleetConfig;
use crate::decision::Decision;
use crate::placement::{place, ring_footprint, PlacementView};
use crate::trace::FleetJob;

/// Everything a fleet serving run produces.
#[derive(Debug)]
pub struct FleetOutcome {
    /// Per-job outcomes across all nodes, sorted by job id.
    pub records: Vec<JobRecord>,
    /// Jobs no node could ever fit.
    pub rejections: Vec<Rejection>,
    /// The dispatcher's decision log, in decision order.
    pub decisions: Vec<Decision>,
    /// Fleet-wide summary (high-water = max over nodes).
    pub fleet: FleetStats,
    /// Per-node summaries, indexed by node id.
    pub per_node: Vec<FleetStats>,
    /// p99 end-to-end latency over strict-HBW jobs only — the metric
    /// placement policies compete on.
    pub strict_p99: f64,
    /// Work-steal moves performed.
    pub steals: usize,
    /// Event times the loop visited. This and the five counters below
    /// count the dispatcher's *work*, not its behaviour: deterministic
    /// for a given fleet and trace, free to fall when the dispatcher gets
    /// cheaper while every decision stays put.
    pub events: u64,
    /// Node re-tunes that had a changed running set to re-tune for, summed
    /// over nodes — at most one per node per event that admitted or
    /// completed something there.
    pub node_retunes: u64,
    /// Eqs. 1–5 profile evaluations, summed over nodes: one per admission
    /// plus one per (job, thread budget) pair first met at a re-tune.
    pub profile_searches: u64,
    /// Admission passes that ran, summed over nodes. Under FIFO and SJF
    /// at most one per node per event that submitted to, finished on or
    /// stole from it; fair-share runs one per node per event.
    pub admission_passes: u64,
    /// Idle nodes that had at least one donor queue to look into.
    pub steal_attempts: u64,
    /// Fit checks the steal lookups made: at most one per attempt, donor
    /// and distinct (strictness, placement, ring size) queued there —
    /// whatever the queue lengths.
    pub steal_probes: u64,
}

/// A [`NodeSim`] is a placement view through its broker.
impl PlacementView for NodeSim {
    fn can_take(&self, spec: &PipelineSpec, strict: bool) -> bool {
        self.can_ever_fit(spec, strict)
    }
    fn fits_now(&self, spec: &PipelineSpec, strict: bool) -> bool {
        NodeSim::fits_now(self, spec, strict)
    }
    fn hbw_headroom(&self) -> u64 {
        self.broker().hbw_headroom()
    }
    fn queued_strict_bytes(&self) -> u64 {
        self.broker().queued_strict_bytes()
    }
    fn reserved_mcdram(&self) -> u64 {
        self.broker().reserved_mcdram()
    }
    fn budget(&self) -> u64 {
        self.broker().budget()
    }
}

/// A stolen job in flight over the interconnect.
struct Migration {
    ready_at: f64,
    to: usize,
    job: JobRequest,
    strict: bool,
}

/// Seconds to move a stolen job's ring between nodes.
fn migration_cost(cluster: Option<&ClusterConfig>, spec: &PipelineSpec) -> f64 {
    match cluster {
        Some(c) => ring_footprint(spec) as f64 / c.link_bandwidth + c.link_latency,
        None => 0.0,
    }
}

/// Queue `job` on node `n`, which `by` (placement or a steal) already
/// found feasible. A refusal means that check and the node's broker
/// disagree; dropping the job quietly would hide exactly that.
pub(crate) fn submit_to(
    nodes: &mut [NodeSim],
    n: usize,
    job: JobRequest,
    strict: bool,
    by: &str,
) -> Result<(), String> {
    let id = job.id;
    if nodes[n].submit(job, strict) {
        Ok(())
    } else {
        Err(format!(
            "{by} sent job {id} to node {n}, whose broker can never fit it"
        ))
    }
}

/// Refill `donors` with the nodes a thief may steal from — a queue of two
/// or more, since the head stays — most backlogged first, ties to the
/// lower id.
fn donor_order(nodes: &[NodeSim], donors: &mut Vec<usize>) {
    donors.clear();
    donors.extend((0..nodes.len()).filter(|&d| nodes[d].queue_len() >= 2));
    donors.sort_by_key(|&d| (std::cmp::Reverse(nodes[d].queue_len()), d));
}

/// The steal idle node `t` makes: from the first donor in `donors` order
/// holding a job past its head that is feasible on `t` and fits its
/// capacity *right now*, the first such job, as `(donor, steal ticket)`.
/// `probes` counts the fit checks spent finding it.
fn pick_steal(
    nodes: &[NodeSim],
    donors: &[usize],
    t: usize,
    probes: &mut u64,
) -> Option<(usize, usize)> {
    let thief = &nodes[t];
    donors.iter().find_map(|&d| {
        let ticket = nodes[d].first_stealable(|job, strict| {
            *probes += 1;
            thief.can_ever_fit(&job.spec, strict) && thief.fits_now(&job.spec, strict)
        })?;
        Some((d, ticket))
    })
}

/// Serve a fleet trace (any order; sorted internally by arrival).
pub fn fleet_serve(cfg: &FleetConfig, jobs: &[FleetJob]) -> Result<FleetOutcome, String> {
    cfg.validate()?;
    for j in jobs {
        j.req
            .spec
            .validate()
            .map_err(|e| format!("job {}: {e}", j.req.id))?;
        if !(j.req.arrival.is_finite() && j.req.arrival >= 0.0) {
            return Err(format!(
                "job {}: bad arrival time {}",
                j.req.id, j.req.arrival
            ));
        }
    }

    let mut nodes: Vec<NodeSim> = cfg
        .nodes
        .iter()
        .map(|n| NodeSim::new(n.serve_config(cfg.policy, cfg.fair_aging)))
        .collect::<Result<_, _>>()?;

    let mut order: Vec<usize> = (0..jobs.len()).collect();
    order.sort_by(|&a, &b| {
        jobs[a]
            .req
            .arrival
            .total_cmp(&jobs[b].req.arrival)
            .then(jobs[a].req.id.cmp(&jobs[b].req.id))
    });

    let mut next_arrival = 0usize;
    let mut migrating: Vec<Migration> = Vec::new();
    let mut decisions: Vec<Decision> = Vec::new();
    let mut rejections: Vec<Rejection> = Vec::new();
    let mut steals = 0usize;
    let mut donors: Vec<usize> = Vec::with_capacity(nodes.len());
    let mut admitted = Vec::new();
    let (mut events, mut steal_attempts, mut steal_probes) = (0u64, 0u64, 0u64);
    let mut now = 0.0f64;

    loop {
        events += 1;
        // 1. Arrivals due at or before `now`: place or reject.
        while next_arrival < order.len() && jobs[order[next_arrival]].req.arrival <= now + DONE_EPS
        {
            let j = &jobs[order[next_arrival]];
            next_arrival += 1;
            match place(&nodes, cfg.placement, &j.req.spec, j.strict) {
                Some(n) => {
                    decisions.push(Decision::Placed {
                        job: j.req.id,
                        node: n,
                    });
                    submit_to(&mut nodes, n, j.req.clone(), j.strict, "placement")?;
                }
                None => {
                    decisions.push(Decision::Rejected { job: j.req.id });
                    rejections.push(Rejection {
                        id: j.req.id,
                        reason: format!(
                            "buffer ring of {} B fits no node's budget",
                            ring_footprint(&j.req.spec)
                        ),
                    });
                }
            }
        }

        // 2. Migration deliveries (stable order: initiation order).
        let mut m = 0;
        while m < migrating.len() {
            if migrating[m].ready_at <= now + DONE_EPS {
                let mig = migrating.remove(m);
                submit_to(&mut nodes, mig.to, mig.job, mig.strict, "a steal")?;
            } else {
                m += 1;
            }
        }

        // 3. Completions, freeing capacity before stealing and admission.
        for node in &mut nodes {
            node.complete_due(now)?;
        }

        // 4. Work stealing: each idle node may lift one queued job this
        // event, from the most backlogged donor queue, skipping the
        // donor's head (it is next in line there). The stolen job must
        // both be feasible on the thief and fit its capacity *right now*
        // — stealing into a wait would only reorder queues. The donors are
        // ranked at the first idle node, so a fleet with none ranks
        // nothing; one with no queue of two or more has no donor and
        // skips the rest of the step.
        if cfg.steal {
            let mut ranked = false;
            for t in 0..nodes.len() {
                if nodes[t].queue_len() != 0 {
                    continue;
                }
                if !ranked {
                    donor_order(&nodes, &mut donors);
                    ranked = true;
                }
                if donors.is_empty() {
                    break;
                }
                steal_attempts += 1;
                let Some((d, ticket)) = pick_steal(&nodes, &donors, t, &mut steal_probes) else {
                    continue;
                };
                let (job, strict) = nodes[d].steal(ticket);
                decisions.push(Decision::Stolen {
                    job: job.id,
                    from: d,
                    to: t,
                });
                steals += 1;
                let transfer = migration_cost(cfg.cluster.as_ref(), &job.spec);
                if transfer <= 0.0 {
                    submit_to(&mut nodes, t, job, strict, "a steal")?;
                } else {
                    migrating.push(Migration {
                        ready_at: now + transfer,
                        to: t,
                        job,
                        strict,
                    });
                }
                // The donor's queue shrank: later thieves rank afresh.
                donor_order(&nodes, &mut donors);
            }
        }

        // 5. Admission per node, in node order (a FIFO/SJF node nothing
        // touched since its last pass returns at once).
        for (ni, node) in nodes.iter_mut().enumerate() {
            node.admit(now, &mut admitted)?;
            decisions.extend(admitted.drain(..).map(|adm| Decision::Admitted {
                job: adm.id,
                node: ni,
                level: adm.level,
            }));
        }

        // 6. Termination.
        if next_arrival >= order.len()
            && migrating.is_empty()
            && nodes.iter().all(|n| n.is_drained())
        {
            break;
        }

        // 7. Re-tune and re-arbitrate the nodes whose running set changed
        // (the rest return at once and read the completion their last
        // advance predicted), then advance to the earliest event anywhere
        // in the fleet.
        let mut t_next = f64::INFINITY;
        for node in &mut nodes {
            node.retune_and_allocate()?;
            t_next = t_next.min(node.next_completion(now));
        }
        if next_arrival < order.len() {
            t_next = t_next.min(jobs[order[next_arrival]].req.arrival);
        }
        for mig in &migrating {
            t_next = t_next.min(mig.ready_at);
        }
        if !t_next.is_finite() {
            let queued: usize = nodes.iter().map(|n| n.queue_len()).sum();
            let running: usize = nodes.iter().map(|n| n.running_len()).sum();
            return Err(format!(
                "fleet stuck at t={now}: {queued} queued, {running} running, nothing can progress"
            ));
        }
        for node in &mut nodes {
            node.advance(now, t_next);
        }
        now = t_next;
    }

    // Collect per-node and fleet-wide statistics.
    let mut per_node = Vec::with_capacity(nodes.len());
    let mut records: Vec<JobRecord> = Vec::new();
    let mut hwm_max = 0u64;
    let node_retunes = nodes.iter().map(NodeSim::retunes).sum();
    let profile_searches = nodes.iter().map(NodeSim::profile_searches).sum();
    let admission_passes = nodes.iter().map(NodeSim::admission_passes).sum();
    for node in nodes {
        let hwm = node.broker().high_water();
        hwm_max = hwm_max.max(hwm);
        let mut recs = node.into_records();
        recs.sort_by_key(|r| r.id);
        per_node.push(FleetStats::from_records(&recs, 0, hwm));
        records.extend(recs);
    }
    if records.len() + rejections.len() != jobs.len() {
        return Err(format!(
            "fleet lost jobs: {} submitted, {} completed, {} rejected",
            jobs.len(),
            records.len(),
            rejections.len()
        ));
    }
    records.sort_by_key(|r| r.id);
    let fleet = FleetStats::from_records(&records, rejections.len(), hwm_max);

    // Strict-HBW tail latency: the placement-policy scoreboard.
    let strict_ids: std::collections::HashSet<u64> =
        jobs.iter().filter(|j| j.strict).map(|j| j.req.id).collect();
    let mut strict_lat: Vec<f64> = records
        .iter()
        .filter(|r| strict_ids.contains(&r.id))
        .map(|r| r.latency())
        .collect();
    strict_lat.sort_by(f64::total_cmp);
    let strict_p99 = percentile(&strict_lat, 0.99);

    Ok(FleetOutcome {
        records,
        rejections,
        decisions,
        fleet,
        per_node,
        strict_p99,
        steals,
        events,
        node_retunes,
        profile_searches,
        admission_passes,
        steal_attempts,
        steal_probes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::{MachineConfig, MemMode};
    use knl_sim::GIB;
    use mlm_core::{Placement, Workload};
    use mlm_serve::{DeadlineClass, Policy, ServeConfig};
    use proptest::prelude::*;

    /// The steal choice as a walk: rank the donors for this thief, probe
    /// each queue from its second job with `fits_now`. What `fleet_serve` did
    /// per idle thief per event before the queues were indexed, kept as
    /// the reference [`pick_steal`] must agree with.
    fn pick_steal_by_scan(nodes: &[NodeSim], t: usize) -> Option<(usize, usize)> {
        let mut donors: Vec<usize> = (0..nodes.len())
            .filter(|&d| d != t && nodes[d].queue_len() >= 2)
            .collect();
        donors.sort_by_key(|&d| (std::cmp::Reverse(nodes[d].queue_len()), d));
        donors.into_iter().find_map(|d| {
            let (ticket, ..) = nodes[d].queue().skip(1).find(|(_, job, strict)| {
                nodes[t].can_ever_fit(&job.spec, *strict) && nodes[t].fits_now(&job.spec, *strict)
            })?;
            Some((d, ticket))
        })
    }

    /// Ring kinds: no buffers at all, DDR buffers (no MCDRAM ring), and
    /// 6 / 12 GiB MCDRAM rings.
    fn job(id: u64, kind: usize) -> JobRequest {
        let (placement, chunk) = [
            (Placement::Implicit, GIB),
            (Placement::Ddr, 2 * GIB),
            (Placement::Hbw, 2 * GIB),
            (Placement::Hbw, 4 * GIB),
        ][kind];
        let spec = PipelineSpec {
            total_bytes: 32 * GIB,
            chunk_bytes: chunk,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 2,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        };
        JobRequest::new(id, 0.0, DeadlineClass::Standard, spec)
    }

    type NodeShape = (bool, bool, Vec<usize>, Vec<(bool, usize)>);

    /// A node with a 16 or 8 GiB budget, some rings already resident
    /// (random headroom) and `queue` waiting behind them.
    fn node((big, spill, resident, queue): &NodeShape, policy: Policy, ids: &mut u64) -> NodeSim {
        let mut cfg = ServeConfig::new(MachineConfig::knl_7250(MemMode::Flat));
        cfg.mcdram_budget = if *big { 16 * GIB } else { 8 * GIB };
        cfg.spill = *spill;
        cfg.policy = policy;
        let mut node = NodeSim::new(cfg).unwrap();
        let mut next = || {
            *ids += 1;
            *ids
        };
        for &kind in resident {
            let j = job(next(), kind);
            if node.can_ever_fit(&j.spec, false) && node.fits_now(&j.spec, false) {
                assert!(node.submit(j, false));
                node.admit(0.0, &mut Vec::new()).unwrap();
            }
        }
        assert_eq!(node.queue_len(), 0);
        for &(strict, kind) in queue {
            // A refusal (a strict 12 GiB ring on an 8 GiB node) queues nothing.
            node.submit(job(next(), kind), strict);
        }
        node
    }

    fn node_shape() -> impl Strategy<Value = NodeShape> {
        (
            any::<bool>(),
            any::<bool>(),
            proptest::collection::vec(0usize..4, 0..4),
            proptest::collection::vec((any::<bool>(), 0usize..4), 0..24),
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        /// Over random fleets, the indexed lookup picks the `(donor, job)`
        /// the linear scan picks, or both pick none — and keeps doing so
        /// as steals and admissions reshape the queues underneath it.
        #[test]
        fn indexed_steal_lookup_matches_the_linear_scan(
            shapes in proptest::collection::vec(node_shape(), 2..6),
            idle in node_shape(),
            policy in prop_oneof![Just(Policy::Fifo), Just(Policy::Sjf), Just(Policy::FairShare)],
        ) {
            let mut ids = 0u64;
            let mut nodes: Vec<NodeSim> =
                shapes.iter().map(|s| node(s, policy, &mut ids)).collect();
            // At least one node is a thief: same shape, nothing queued.
            nodes.push(node(&(idle.0, idle.1, idle.2, Vec::new()), policy, &mut ids));
            let mut donors = Vec::new();
            for _round in 0..64 {
                donor_order(&nodes, &mut donors);
                let mut first_pick = None;
                for t in 0..nodes.len() {
                    if nodes[t].queue_len() != 0 {
                        continue;
                    }
                    let mut probes = 0;
                    let picked = pick_steal(&nodes, &donors, t, &mut probes);
                    prop_assert_eq!(picked, pick_steal_by_scan(&nodes, t), "thief {}", t);
                    // Four ring kinds, strict or not, per donor.
                    prop_assert!(probes <= 4 * 2 * donors.len() as u64);
                    first_pick = first_pick.or(picked.map(|(d, ticket)| (t, d, ticket)));
                }
                let Some((t, d, ticket)) = first_pick else { break };
                let (job, strict) = nodes[d].steal(ticket);
                submit_to(&mut nodes, t, job, strict, "a steal").unwrap();
                // Admission everywhere: the thief's headroom moves, and a
                // donor's pass reads its queue through the hole just made.
                for node in &mut nodes {
                    node.admit(0.0, &mut Vec::new()).unwrap();
                }
            }
        }
    }

    #[test]
    fn a_refused_submit_is_an_error_naming_job_and_node() {
        // A strict 12 GiB ring can never fit an 8 GiB node.
        let mut nodes = vec![node(&(false, false, vec![], vec![]), Policy::Fifo, &mut 0)];
        let err = submit_to(&mut nodes, 0, job(41, 3), true, "placement").unwrap_err();
        assert!(err.contains("job 41") && err.contains("node 0"), "{err}");
    }
}
