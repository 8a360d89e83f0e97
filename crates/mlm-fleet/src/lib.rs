//! # mlm-fleet — MCDRAM-aware multi-node serving
//!
//! The paper tunes one KNL node's 16 GiB of MCDRAM; this crate shards
//! [`mlm_serve`] across a fleet of them. A dispatcher owns N per-node
//! capacity brokers and answers the fleet-level question the single-node
//! scheduler cannot: *which node* should a job's buffer ring live on?
//!
//! * **Placement** ([`placement`]) — strict-HBW jobs are packed onto
//!   nodes whose MCDRAM budget fits their ring (first-fit,
//!   best-fit-by-HBW-headroom, or least-loaded); `HBW_PREFERRED` jobs may
//!   ride spill-capable, DDR-rich nodes instead. A job no node could ever
//!   fit is rejected at submission — the fleet mirror of the broker's
//!   `can_ever_fit_job`.
//! * **Per-node serving** — every node runs the exact single-node state
//!   machine ([`mlm_serve::NodeSim`]) in both execution modes, so a
//!   1-node fleet is bit-identical to [`mlm_serve::serve`] by
//!   construction.
//! * **Work stealing** ([`dispatch`]) — idle nodes lift queued jobs from
//!   straggler queues, paying the interconnect price
//!   ([`mlm_cluster::ClusterConfig`]) to migrate the ring.
//! * **Two execution modes** — the virtual-time dispatcher
//!   ([`fleet_serve`]) prices million-job traces deterministically; the
//!   real-thread host mode ([`fleet_serve_host`]) runs the same
//!   placement code and the same `NodeSim`s as a long-running dispatcher
//!   thread over per-node worker pools. Wherever admission order does not
//!   hang on completion timing, their decision sequences agree on the
//!   canonical projection ([`decision::decision_digest`]) by
//!   construction.
//! * **Fleet traces** ([`trace`]) — per-node SplitMix64 streams (stable
//!   under node-count changes) with arrival skew and a strict-HBW
//!   fraction, merged into million-job fleet workloads.

pub mod config;
pub mod decision;
pub mod dispatch;
pub mod host;
pub mod placement;
pub mod trace;

pub use config::{FleetConfig, NodeConfig, PlacementPolicy};
pub use decision::{admission_sequence, decision_digest, placement_sequence, Decision};
pub use dispatch::{fleet_serve, FleetOutcome};
pub use host::{
    fleet_serve_host, FleetHostConfig, FleetHostJob, FleetHostOutcome, FleetHostResult,
};
pub use placement::{place, ring_footprint, PlacementView};
pub use trace::{fleet_trace, FleetJob, FleetTraceConfig};

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::{MachineConfig, MemMode};
    use knl_sim::GIB;
    use mlm_serve::trace::TraceConfig;
    use mlm_serve::Policy;

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn small_trace(nodes: usize, per_node: usize, seed: u64) -> Vec<FleetJob> {
        fleet_trace(&FleetTraceConfig::new(
            TraceConfig::new(machine(), 0, 2.0, seed),
            nodes,
            per_node,
        ))
    }

    #[test]
    fn fleet_serve_is_deterministic() {
        let cfg = {
            let mut c = FleetConfig::mixed_8_16(machine(), 4, true);
            c.placement = PlacementPolicy::BestFitHbw;
            c.steal = true;
            c.cluster = Some(mlm_cluster::ClusterConfig::omnipath(4));
            c
        };
        let jobs = small_trace(4, 60, 11);
        let a = fleet_serve(&cfg, &jobs).unwrap();
        let b = fleet_serve(&cfg, &jobs).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.fleet, b.fleet);
        assert_eq!(
            decision_digest(&a.decisions, 4),
            decision_digest(&b.decisions, 4)
        );
        for (x, y) in a.records.iter().zip(&b.records) {
            assert_eq!(x.finish.to_bits(), y.finish.to_bits());
        }
    }

    #[test]
    fn non_positive_or_nan_fair_aging_is_refused_per_node() {
        let jobs = small_trace(2, 4, 3);
        for bad in [-1.0, 0.0, f64::NAN] {
            let mut cfg = FleetConfig::homogeneous(machine(), 2, 8 * GIB, false);
            cfg.fair_aging = bad;
            let err = fleet_serve(&cfg, &jobs).unwrap_err();
            assert!(err.starts_with("node 0: fair_aging"), "{bad}: {err}");
        }
    }

    #[test]
    fn every_job_is_placed_admitted_or_rejected_exactly_once() {
        for placement in PlacementPolicy::ALL {
            let mut cfg = FleetConfig::homogeneous(machine(), 3, 8 * GIB, false);
            cfg.placement = placement;
            cfg.policy = Policy::Sjf;
            let jobs = small_trace(3, 50, 5);
            let out = fleet_serve(&cfg, &jobs).unwrap();
            assert_eq!(
                out.records.len() + out.rejections.len(),
                jobs.len(),
                "{placement:?}"
            );
            // Each completed job was placed once and admitted once.
            for r in &out.records {
                let placed = out
                    .decisions
                    .iter()
                    .filter(|d| matches!(d, Decision::Placed { job, .. } if *job == r.id))
                    .count();
                let admitted = out
                    .decisions
                    .iter()
                    .filter(|d| matches!(d, Decision::Admitted { job, .. } if *job == r.id))
                    .count();
                assert_eq!((placed, admitted), (1, 1), "job {}", r.id);
            }
        }
    }

    #[test]
    fn strict_elephants_are_rejected_only_when_no_node_fits() {
        // 6 GiB strict ring: fits a 16 GiB node, not an 8 GiB one.
        let mut jobs = small_trace(2, 20, 3);
        for j in &mut jobs {
            j.strict = true;
        }
        let hetero = FleetConfig {
            nodes: vec![
                NodeConfig::new(machine(), 4 * GIB, false),
                NodeConfig::new(machine(), 16 * GIB, false),
            ],
            ..FleetConfig::homogeneous(machine(), 2, 16 * GIB, false)
        };
        let out = fleet_serve(&hetero, &jobs).unwrap();
        // The 16 GiB node keeps everything feasible.
        assert!(out.rejections.is_empty());
        // Shrink both nodes to 4 GiB: big rings now bounce.
        let tiny = FleetConfig::homogeneous(machine(), 2, 4 * GIB, false);
        let out = fleet_serve(&tiny, &jobs).unwrap();
        for r in &out.rejections {
            let job = jobs.iter().find(|j| j.req.id == r.id).unwrap();
            assert!(ring_footprint(&job.req.spec) > 4 * GIB);
        }
        // And every non-rejected job still completes.
        assert_eq!(out.records.len() + out.rejections.len(), jobs.len());
    }

    #[test]
    fn work_stealing_rescues_stragglers() {
        // A batch of strict 6 GiB rings all arriving at t=0: first-fit
        // places the whole batch on node 0 (reservations only move at
        // admission, so its headroom still looks open), node 0 admits one
        // at a time, and nodes 1..3 sit idle. Stealing lets them lift the
        // queued jobs over the interconnect; queue wait collapses.
        use mlm_core::{PipelineSpec, Placement, Workload};
        use mlm_serve::{DeadlineClass, JobRequest};
        let spec = PipelineSpec {
            total_bytes: 32 * GIB,
            chunk_bytes: 2 * GIB,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 2,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        };
        let jobs: Vec<FleetJob> = (0..8)
            .map(|i| FleetJob {
                req: JobRequest::new(i, 0.0, DeadlineClass::Standard, spec.clone()),
                strict: true,
                origin: 0,
            })
            .collect();
        let mut cfg = FleetConfig::homogeneous(machine(), 4, 8 * GIB, false);
        cfg.placement = PlacementPolicy::FirstFit;
        let no_steal = fleet_serve(&cfg, &jobs).unwrap();
        cfg.steal = true;
        cfg.cluster = Some(mlm_cluster::ClusterConfig::omnipath(4));
        let steal = fleet_serve(&cfg, &jobs).unwrap();
        assert!(steal.steals > 0, "expected steals on a first-fit pileup");
        assert!(
            steal.fleet.mean_queue_wait < no_steal.fleet.mean_queue_wait,
            "stealing must cut mean queue wait: {} vs {}",
            steal.fleet.mean_queue_wait,
            no_steal.fleet.mean_queue_wait
        );
        // Stealing never over-commits a node: every node's high-water mark
        // respects its budget.
        for (ni, stats) in steal.per_node.iter().enumerate() {
            assert!(
                stats.mcdram_high_water <= 8 * GIB,
                "node {ni} over budget: {}",
                stats.mcdram_high_water
            );
        }
    }
}
