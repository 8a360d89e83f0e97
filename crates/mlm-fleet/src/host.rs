//! The real-thread fleet host: a long-running dispatcher thread driving
//! per-node worker pools over the dataflow stage pools.
//!
//! Same placement code, same admission code, real execution: the
//! dispatcher thread holds one [`NodeSim`] per node — the state machine
//! the virtual-time dispatcher drives — places the submission stream with
//! [`place`], admits with [`NodeSim::admit`], and hands admitted jobs to
//! that node's worker pool, which runs them on
//! [`run_host_pipeline_dataflow`] with tuner-sized stage pools. Workers
//! report completions over a channel; the dispatcher retires the job with
//! [`NodeSim::complete`], which returns its reservation, and admits the
//! next.
//!
//! **Decision equivalence with the virtual-time mode.** Wall clocks are
//! not virtual clocks, so the two modes can only be compared on
//! timing-independent decisions: the whole submission batch is placed (in
//! job order) *before* serving starts, mirroring the virtual-time
//! dispatcher placing all due arrivals before completions. Admission is
//! the same [`NodeSim::admit`] in both modes, so wherever a node's
//! admission order does not hang on completion timing — a batch whose
//! rings fit a node one at a time, say — the canonical projection
//! ([`crate::decision::decision_digest`]) is identical under every
//! queueing policy, by construction; the test suite asserts it. The nodes
//! run with fair aging off and nothing is stolen: both are virtual-time
//! refinements whose trigger points a wall clock would make
//! nondeterministic, and with aging off no admission reads the wall-clock
//! `now` the dispatcher passes.
//!
//! The pool split is the host's own decision: each admitted job gets the
//! Eqs. 1–5 split for `host_threads` divided among the node's running
//! jobs, itself included, counted in admission order.
//!
//! [`run_host_pipeline_dataflow`]: mlm_core::pipeline::host::run_host_pipeline_dataflow

use std::thread;
use std::time::{Duration, Instant};

use crossbeam::channel;
use knl_sim::MemLevel;
use mlm_core::pipeline::host::{run_host_pipeline_dataflow, HostStagePools, KernelCtx};
use mlm_core::{PipelineSpec, ThreadSplit};
use mlm_serve::{profile, DeadlineClass, JobId, JobRequest, NodeSim};

use crate::config::FleetConfig;
use crate::decision::Decision;
use crate::dispatch::submit_to;
use crate::placement::place;

/// One host fleet job: spec plus the data to stream through it.
#[derive(Debug)]
pub struct FleetHostJob {
    /// Job identifier.
    pub id: JobId,
    /// Latency class (drives fair-share admission).
    pub class: DeadlineClass,
    /// Strict-HBW: never spill this job's ring to DDR.
    pub strict: bool,
    /// Pipeline geometry; pool sizes are re-derived per admission.
    pub spec: PipelineSpec,
    /// Input elements.
    pub data: Vec<i64>,
}

/// Host fleet configuration.
#[derive(Debug, Clone)]
pub struct FleetHostConfig {
    /// Fleet shape and policies. Stealing and fair aging are not used:
    /// every node runs with `fair_aging = INFINITY` (see the module docs).
    pub fleet: FleetConfig,
    /// Host threads each node divides among its co-resident jobs.
    pub host_threads: usize,
    /// Worker threads per node pool (concurrent jobs per node).
    pub workers: usize,
}

/// Outcome of one served host fleet job.
#[derive(Debug)]
pub struct FleetHostResult {
    /// Job identifier.
    pub id: JobId,
    /// Node that ran it.
    pub node: usize,
    /// Pool split the tuner assigned.
    pub split: ThreadSplit,
    /// Where the broker placed the ring reservation.
    pub buffer_level: MemLevel,
    /// Wall-clock duration of the pipeline run.
    pub wall: Duration,
    /// Output elements.
    pub data: Vec<i64>,
}

/// Everything a host fleet run produces.
#[derive(Debug)]
pub struct FleetHostOutcome {
    /// Per-job results, sorted by job id.
    pub results: Vec<FleetHostResult>,
    /// Jobs no node could ever fit.
    pub rejected: Vec<JobId>,
    /// The dispatcher's decision log.
    pub decisions: Vec<Decision>,
}

/// An admitted job as the dispatcher hands it out and gets it back.
#[derive(Clone, Copy)]
struct Admitted {
    node: usize,
    ticket: usize,
    id: JobId,
    split: ThreadSplit,
    level: MemLevel,
}

/// A job handed to a node's worker pool.
struct Work {
    job: Admitted,
    spec: PipelineSpec,
    data: Vec<i64>,
    kernel: fn(&mut [i64], KernelCtx),
}

/// A completion reported back to the dispatcher.
struct Done {
    job: Admitted,
    wall: Duration,
    data: Vec<i64>,
}

/// Serve `jobs` across the fleet, applying `kernel` to every compute
/// slice. Blocks until the fleet drains; the dispatcher itself runs on
/// its own thread for the whole call.
pub fn fleet_serve_host(
    cfg: &FleetHostConfig,
    jobs: Vec<FleetHostJob>,
    kernel: fn(&mut [i64], KernelCtx),
) -> Result<FleetHostOutcome, String> {
    cfg.fleet.validate()?;
    if cfg.workers == 0 {
        return Err("need at least one worker per node".into());
    }
    for j in &jobs {
        j.spec
            .validate()
            .map_err(|e| format!("job {}: {e}", j.id))?;
        j.spec
            .validate_elem_size(std::mem::size_of::<i64>())
            .map_err(|e| format!("job {}: {e}", j.id))?;
        let need = (j.data.len() * std::mem::size_of::<i64>()) as u64;
        if need != j.spec.total_bytes {
            return Err(format!(
                "job {}: data is {need} B but spec says {} B",
                j.id, j.spec.total_bytes
            ));
        }
    }
    let mut nodes: Vec<NodeSim> = cfg
        .fleet
        .nodes
        .iter()
        .map(|n| NodeSim::new(n.serve_config(cfg.fleet.policy, f64::INFINITY)))
        .collect::<Result<_, _>>()?;

    // Per-node worker pools, all reporting into one completion channel.
    let (done_tx, done_rx) = channel::unbounded::<Done>();
    let mut worker_handles = Vec::new();
    let mut work_txs = Vec::with_capacity(nodes.len());
    for _ in &nodes {
        let (work_tx, work_rx) = channel::unbounded::<Work>();
        for _ in 0..cfg.workers {
            let rx = work_rx.clone();
            let tx = done_tx.clone();
            worker_handles.push(thread::spawn(move || {
                while let Ok(w) = rx.recv() {
                    let split = w.job.split;
                    let pools = HostStagePools::new(split.p_in, split.p_comp, split.p_out);
                    let mut out = vec![0i64; w.data.len()];
                    let t = Instant::now();
                    run_host_pipeline_dataflow(&pools, &w.spec, &w.data, &mut out, w.kernel);
                    // A hung-up dispatcher just means the run already
                    // failed; don't double-panic the worker.
                    let _ = tx.send(Done {
                        job: w.job,
                        wall: t.elapsed(),
                        data: out,
                    });
                }
            }));
        }
        work_txs.push(work_tx);
    }
    drop(done_tx);

    // The dispatcher thread: place the whole submission stream, then
    // admit/complete until drained.
    let placement = cfg.fleet.placement;
    let host_threads = cfg.host_threads;
    let dispatcher = thread::spawn(move || -> Result<FleetHostOutcome, String> {
        let clock = Instant::now();
        let mut decisions: Vec<Decision> = Vec::new();
        let mut rejected: Vec<JobId> = Vec::new();
        // Each node's jobs by ticket, taken at admission.
        let mut queued: Vec<Vec<Option<FleetHostJob>>> = nodes.iter().map(|_| Vec::new()).collect();

        // Phase 1: placement, in submission order.
        for j in jobs {
            match place(&nodes, placement, &j.spec, j.strict) {
                Some(n) => {
                    decisions.push(Decision::Placed { job: j.id, node: n });
                    let req = JobRequest::new(j.id, 0.0, j.class, j.spec.clone());
                    submit_to(&mut nodes, n, req, j.strict, "placement")?;
                    queued[n].push(Some(j));
                }
                None => {
                    decisions.push(Decision::Rejected { job: j.id });
                    rejected.push(j.id);
                }
            }
        }

        // Phase 2: serve. One admission pass per node, then block on a
        // completion, retire it, repeat.
        let mut results: Vec<FleetHostResult> = Vec::new();
        let mut admitted = Vec::new();
        loop {
            let now = clock.elapsed().as_secs_f64();
            for (ni, node) in nodes.iter_mut().enumerate() {
                node.admit(now, &mut admitted)?;
                let already_running = node.running_len() - admitted.len();
                for (k, adm) in admitted.drain(..).enumerate() {
                    decisions.push(Decision::Admitted {
                        job: adm.id,
                        node: ni,
                        level: adm.level,
                    });
                    let FleetHostJob { mut spec, data, .. } =
                        queued[ni][adm.ticket].take().expect("job admitted twice");
                    let budget = (host_threads / (already_running + k + 1)).max(3);
                    let split =
                        profile(&spec, adm.effective, &node.config().machine, budget, true)?.split;
                    spec.p_in = split.p_in;
                    spec.p_out = split.p_out;
                    spec.p_comp = split.p_comp;
                    let job = Admitted {
                        node: ni,
                        ticket: adm.ticket,
                        id: adm.id,
                        split,
                        level: adm.level,
                    };
                    work_txs[ni]
                        .send(Work {
                            job,
                            spec,
                            data,
                            kernel,
                        })
                        .map_err(|_| "node worker pool hung up".to_string())?;
                }
            }
            let running: usize = nodes.iter().map(NodeSim::running_len).sum();
            if running == 0 {
                let waiting: usize = nodes.iter().map(NodeSim::queue_len).sum();
                if waiting == 0 {
                    break;
                }
                return Err(format!(
                    "host fleet stuck with {waiting} jobs queued and none running"
                ));
            }
            let done = done_rx
                .recv()
                .map_err(|_| "worker channels closed unexpectedly".to_string())?;
            let job = done.job;
            nodes[job.node].complete(job.ticket, clock.elapsed().as_secs_f64())?;
            results.push(FleetHostResult {
                id: job.id,
                node: job.node,
                split: job.split,
                buffer_level: job.level,
                wall: done.wall,
                data: done.data,
            });
        }

        // Drop the work channels so the pools drain and exit.
        drop(work_txs);
        results.sort_by_key(|r| r.id);
        Ok(FleetHostOutcome {
            results,
            rejected,
            decisions,
        })
    });

    let outcome = dispatcher
        .join()
        .map_err(|_| "dispatcher thread panicked".to_string())?;
    for h in worker_handles {
        h.join().map_err(|_| "worker thread panicked".to_string())?;
    }
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{FleetConfig, PlacementPolicy};
    use knl_sim::machine::{MachineConfig, MemMode};
    use mlm_core::{Placement, Workload};

    const MIB: u64 = 1 << 20;

    fn kernel(slice: &mut [i64], ctx: KernelCtx) {
        for (i, x) in slice.iter_mut().enumerate() {
            *x = x.wrapping_mul(3) ^ (ctx.global_offset + i) as i64;
        }
    }

    fn spec(total: u64, chunk: u64) -> PipelineSpec {
        PipelineSpec {
            total_bytes: total,
            chunk_bytes: chunk,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn input(n: usize, salt: i64) -> Vec<i64> {
        (0..n as i64).map(|i| i * 7 + salt).collect()
    }

    fn reference(mut data: Vec<i64>) -> Vec<i64> {
        for (i, x) in data.iter_mut().enumerate() {
            *x = x.wrapping_mul(3) ^ i as i64;
        }
        data
    }

    #[test]
    fn fleet_host_serves_every_job_and_spreads_strict_load() {
        let n = (MIB / 8) as usize; // 1 MiB per job
        let jobs: Vec<FleetHostJob> = (0..6)
            .map(|i| FleetHostJob {
                id: i,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(MIB, MIB / 4),
                data: input(n, i as i64),
            })
            .collect();
        let mut fleet =
            FleetConfig::homogeneous(MachineConfig::knl_7250(MemMode::Flat), 2, 2 * MIB, false);
        fleet.placement = PlacementPolicy::LeastLoaded;
        let cfg = FleetHostConfig {
            fleet,
            host_threads: 8,
            workers: 2,
        };
        let out = fleet_serve_host(&cfg, jobs, kernel).unwrap();
        assert!(out.rejected.is_empty());
        assert_eq!(out.results.len(), 6);
        for (i, r) in out.results.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert_eq!(r.buffer_level, MemLevel::Mcdram);
            assert_eq!(r.data, reference(input(n, i as i64)), "job {i} corrupted");
        }
        // Least-loaded sees queued strict bytes, so the batch spreads.
        let used: std::collections::HashSet<usize> = out.results.iter().map(|r| r.node).collect();
        assert_eq!(used.len(), 2, "strict batch should use both nodes");
    }

    #[test]
    fn fleet_host_rejects_rings_no_node_fits() {
        let big_n = (8 * MIB / 8) as usize;
        let jobs = vec![
            FleetHostJob {
                id: 0,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(8 * MIB, 4 * MIB), // 12 MiB ring > 2 MiB budgets
                data: input(big_n, 0),
            },
            FleetHostJob {
                id: 1,
                class: DeadlineClass::Standard,
                strict: true,
                spec: spec(MIB, MIB / 4),
                data: input((MIB / 8) as usize, 1),
            },
        ];
        let fleet =
            FleetConfig::homogeneous(MachineConfig::knl_7250(MemMode::Flat), 2, 2 * MIB, false);
        let cfg = FleetHostConfig {
            fleet,
            host_threads: 8,
            workers: 1,
        };
        let out = fleet_serve_host(&cfg, jobs, kernel).unwrap();
        assert_eq!(out.rejected, vec![0]);
        assert_eq!(out.results.len(), 1);
        assert_eq!(out.results[0].id, 1);
    }
}
