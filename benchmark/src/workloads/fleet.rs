//! `fleet_overload` and `fleet_underload`: the fleet dispatcher on the
//! fleet study's 16 mixed 8/16 GiB nodes, under all three placements.
//!
//! Overload (per-node rate 3.0, well above strict-HBW saturation): queues
//! grow without bound, so `dispatch.rs`'s per-event donor sort, `fits_now`
//! probing and migration drain dominate. Underload (rate 0.3): the same
//! `mlm-fleet` and `mlm-serve` code used differently — placement scoring
//! and `NodeSim` admission per job dominate and steal scans find nothing,
//! so an index built to speed overload that taxes every placement shows
//! here as a loss.
//!
//! The seed is unused. The trace is the fleet study's own (`FLEET_SEED`):
//! its job sizes are heavy-tailed and queue build-up amplifies them, so
//! another seed is another amount of work — ten seeds spread `wall_s` by
//! half its median — and no bound could hold across seeds.

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_bench::fleet::{fleet_config, fleet_trace_config};
use mlm_bench::serving::SERVE_SEED;
use mlm_cluster::sim::strong_scaling;
use mlm_core::{Calibration, InputOrder};
use mlm_fleet::{decision_digest, fleet_serve, fleet_trace, FleetJob, PlacementPolicy};
use mlm_memkind::{Kind, MemKind};
use mlm_serve::simx::{replay, ScheduledJob};
use mlm_serve::{heavy_tailed_trace, serve, JobRequest, Policy, ServeConfig, TraceConfig};

use super::{batched, Setup, Size, Workload};
use crate::check::{check_digest, Ops};
use crate::metrics::{Exact, LayerMetrics};
use crate::trace::{Spans, Tracer};

/// Which side of strict-HBW saturation the trace sits on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Load {
    Over,
    Under,
}

impl Load {
    /// Per-node arrival rate, jobs per second of virtual time.
    fn rate(self) -> f64 {
        match self {
            Load::Over => 3.0,
            Load::Under => 0.3,
        }
    }

    fn jobs_per_node(self, size: Size) -> usize {
        match (self, size) {
            (Load::Over, Size::Full) => 250,
            (Load::Under, Size::Full) => 800,
            (_, Size::Smoke) => 20,
        }
    }

    /// Metric-name prefix within the `mlm-fleet` layer.
    fn prefix(self) -> &'static str {
        match self {
            Load::Over => "over",
            Load::Under => "under",
        }
    }
}

const NODES: usize = 16;

/// The placements a cycle serves under, and each one's metric suffix.
const PLACEMENTS: [(PlacementPolicy, &str); 3] = [
    (PlacementPolicy::BestFitHbw, "bestfit"),
    (PlacementPolicy::LeastLoaded, "leastloaded"),
    (PlacementPolicy::FirstFit, "firstfit"),
];

const MEMKIND: &str = "mlm_memkind::MemKind::malloc+free";
const CLUSTER: &str = "mlm_cluster::strong_scaling";
const REPLAY: &str = "mlm_serve::simx::replay";
const TRACE_GEN: &str = "mlm_serve::heavy_tailed_trace";
const MEMKIND_BATCH: usize = 1000;
/// Jobs in the replayed batch, all submitted at time zero.
const REPLAY_JOBS: usize = 16;

fn serve_step(placement: PlacementPolicy) -> String {
    format!("mlm_fleet::fleet_serve/{}", placement.label())
}

fn node_serve_step(policy: Policy) -> String {
    format!("mlm_serve::serve/{}", policy.label())
}

/// One (placement) cell's latest outcome.
#[derive(Debug, Clone, Copy, Default)]
struct Cell {
    digest: u64,
    steals: usize,
    decisions: usize,
    /// The first cycle's digest: every later cycle must repeat it.
    first_digest: Option<u64>,
    pinned: Option<u64>,
}

pub struct Fleet {
    load: Load,
    size: Size,
    trace: Vec<FleetJob>,
    cells: [Cell; 3],
    pins_checked: bool,
    /// Jobs in the single-node serve and trace-generation probes.
    node_jobs: usize,
}

impl Fleet {
    pub fn new(setup: &Setup, load: Load) -> Self {
        let mut cfg = fleet_trace_config(NODES, load.jobs_per_node(setup.size));
        cfg.base.arrival_rate = load.rate();
        let mut cells = [Cell::default(); 3];
        for (cell, (placement, _)) in cells.iter_mut().zip(PLACEMENTS) {
            cell.pinned = setup
                .pins
                .iter()
                .find(|p| p.key == placement.label())
                .and_then(|p| u64::from_str_radix(p.value.trim_start_matches("0x"), 16).ok());
        }
        Fleet {
            load,
            size: setup.size,
            trace: fleet_trace(&cfg),
            cells,
            pins_checked: false,
            node_jobs: match setup.size {
                Size::Full => 4000,
                Size::Smoke => 200,
            },
        }
    }

    /// A sub-saturation single-node trace for the `mlm-serve` probes, at
    /// the serving study's seed.
    fn node_trace(&self, jobs: usize) -> Vec<JobRequest> {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        heavy_tailed_trace(&TraceConfig::new(machine, jobs, 0.5, SERVE_SEED))
    }

    fn probe_serve(&self, tr: &mut Tracer, ops: &mut Ops) {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let trace = self.node_trace(self.node_jobs);
        for policy in Policy::ALL {
            let mut cfg = ServeConfig::new(machine.clone());
            cfg.policy = policy;
            for _ in 0..3 {
                let served = tr.step(&node_serve_step(policy), |_| serve(&cfg, &trace));
                ops.check(
                    served
                        .as_ref()
                        .is_ok_and(|o| o.records.len() + o.rejections.len() == trace.len()),
                    || format!("serve/{}: jobs lost or run failed", policy.label()),
                );
            }
        }

        // Replay a realised schedule op by op: the first jobs of the trace,
        // submitted together at time zero. `Simulator::run` livelocks on
        // most longer schedules (see the README's findings); this one is
        // known to return.
        let batch: Vec<JobRequest> = trace[..REPLAY_JOBS.min(trace.len())]
            .iter()
            .map(|j| JobRequest::new(j.id, 0.0, j.class, j.spec.clone()))
            .collect();
        let schedule: Vec<ScheduledJob> = serve(&ServeConfig::new(machine.clone()), &batch)
            .map(|o| {
                o.records
                    .iter()
                    .filter_map(|r| {
                        let job = batch.iter().find(|j| j.id == r.id)?;
                        Some(ScheduledJob {
                            id: r.id,
                            start: r.start,
                            spec: job.spec.clone(),
                        })
                    })
                    .collect()
            })
            .unwrap_or_default();
        for _ in 0..3 {
            let replayed = tr.step(REPLAY, |_| replay(&machine, &schedule));
            ops.check(
                replayed.is_ok_and(|(stats, _)| stats.len() == batch.len()),
                || format!("{REPLAY}: not all {} jobs replayed", batch.len()),
            );
        }

        for _ in 0..3 {
            let generated = tr.step(TRACE_GEN, |_| self.node_trace(25 * self.node_jobs));
            ops.check(generated.len() == 25 * self.node_jobs, || {
                format!("{TRACE_GEN}: wrong job count")
            });
        }
    }

    fn probe_broker_and_cluster(&self, tr: &mut Tracer, ops: &mut Ops) {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let memkind = MemKind::new(&machine);
        batched(tr, MEMKIND, 5, MEMKIND_BATCH, || {
            memkind.malloc(Kind::Hbw, 1 << 20).map(|a| memkind.free(a))
        });
        ops.check(memkind.live_allocations() == 0, || {
            format!("{MEMKIND}: allocations leaked")
        });

        let (elements, nodes): (u64, &[usize]) = match self.size {
            Size::Full => (8_000_000_000, &[1, 2, 4, 8, 16, 32, 64]),
            Size::Smoke => (8_000_000_000, &[16, 64]),
        };
        for _ in 0..3 {
            let reports = tr.step(CLUSTER, |_| {
                strong_scaling(
                    &Calibration::default(),
                    elements,
                    InputOrder::Random,
                    nodes,
                    256,
                )
            });
            ops.check(reports.is_ok_and(|r| r.len() == nodes.len()), || {
                format!("{CLUSTER}: sweep failed")
            });
        }
    }
}

impl Workload for Fleet {
    fn sizes(&self) -> String {
        format!(
            "{NODES} mixed 8/16 GiB nodes x {} jobs = {} jobs at per-node rate {} jobs/s, steal on, \
             Omni-Path, FIFO, {} placements per cycle",
            self.trace.len() / NODES,
            self.trace.len(),
            self.load.rate(),
            PLACEMENTS.len()
        )
    }

    fn work_per_cycle(&self) -> (f64, &'static str) {
        ((PLACEMENTS.len() * self.trace.len()) as f64, "jobs/s")
    }

    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        for (cell, (placement, _)) in self.cells.iter_mut().zip(PLACEMENTS) {
            let cfg = fleet_config(NODES, placement, Policy::Fifo);
            let label = placement.label();
            match tr.step(&serve_step(placement), |_| fleet_serve(&cfg, &self.trace)) {
                Ok(out) => {
                    cell.digest = decision_digest(&out.decisions, NODES);
                    cell.steals = out.steals;
                    cell.decisions = out.decisions.len();
                    let first = *cell.first_digest.get_or_insert(cell.digest);
                    let conserved = out.fleet.jobs + out.fleet.rejected == self.trace.len();
                    ops.check(conserved && cell.digest == first, || {
                        format!(
                            "{label}: completed {} + rejected {} of {} submitted; digest {:#018x}, \
                             first cycle's {first:#018x}",
                            out.fleet.jobs,
                            out.fleet.rejected,
                            self.trace.len(),
                            cell.digest
                        )
                    });
                }
                Err(e) => ops.check(false, || format!("{label}: fleet_serve failed: {e}")),
            }
        }
        if !self.pins_checked {
            self.pins_checked = true;
            for (cell, (placement, _)) in self.cells.iter().zip(PLACEMENTS) {
                match cell.pinned {
                    Some(pinned) => check_digest(
                        ops,
                        &format!("{} vs expected.json", placement.label()),
                        cell.digest,
                        pinned,
                    ),
                    None => ops.note(format!(
                        "no pinned digests for {} size: digests checked identical across \
                         cycles only",
                        self.size.label()
                    )),
                }
            }
        }
    }

    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        // The layers under the dispatcher, split between the two loads so
        // neither traced workload carries them all.
        match self.load {
            Load::Over => self.probe_broker_and_cluster(tr, ops),
            Load::Under => self.probe_serve(tr, ops),
        }
    }

    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics) {
        let prefix = self.load.prefix();
        let jobs = self.trace.len() as f64;
        let mut cycle_seconds: Vec<f64> = Vec::new();
        for (placement, suffix) in PLACEMENTS {
            let seconds = spans.seconds(&serve_step(placement));
            out.rate(
                &format!("mlm-fleet.{prefix}_{suffix}_jobs_per_s"),
                jobs,
                &seconds,
            );
            cycle_seconds.resize(seconds.len().max(cycle_seconds.len()), 0.0);
            for (total, s) in cycle_seconds.iter_mut().zip(seconds) {
                *total += s;
            }
        }
        let steals: usize = self.cells.iter().map(|c| c.steals).sum();
        let decisions: usize = self.cells.iter().map(|c| c.decisions).sum();
        out.value(&format!("mlm-fleet.{prefix}_steals"), steals as f64);
        out.value(&format!("mlm-fleet.{prefix}_decisions"), decisions as f64);
        out.cost(
            &format!("mlm-fleet.{prefix}_us_per_decision"),
            1e6 / decisions.max(1) as f64,
            &cycle_seconds,
        );

        match self.load {
            Load::Over => {
                out.cost(
                    "mlm-memkind.alloc_free_ns",
                    1e9 / MEMKIND_BATCH as f64,
                    &spans.seconds(MEMKIND),
                );
                out.cost("mlm-cluster.strong_scaling_s", 1.0, &spans.seconds(CLUSTER));
            }
            Load::Under => {
                for (policy, metric) in [
                    (Policy::Fifo, "mlm-serve.serve_fifo_jobs_per_s"),
                    (Policy::Sjf, "mlm-serve.serve_sjf_jobs_per_s"),
                    (Policy::FairShare, "mlm-serve.serve_fair_jobs_per_s"),
                ] {
                    out.rate(
                        metric,
                        self.node_jobs as f64,
                        &spans.seconds(&node_serve_step(policy)),
                    );
                }
                out.cost("mlm-serve.replay_s", 1.0, &spans.seconds(REPLAY));
                out.rate(
                    "mlm-serve.trace_gen_jobs_per_s",
                    (25 * self.node_jobs) as f64,
                    &spans.seconds(TRACE_GEN),
                );
            }
        }
    }

    fn exact(&self) -> Vec<Exact> {
        self.cells
            .iter()
            .zip(PLACEMENTS)
            .map(|(cell, (placement, _))| Exact {
                key: placement.label().to_string(),
                value: format!("{:#018x}", cell.digest),
            })
            .collect()
    }
}
