//! Property tests for the fleet dispatcher: a fleet of one is the
//! single-node scheduler bit-for-bit, work stealing never lets any node
//! exceed its MCDRAM budget, and the virtual-time and real-thread host
//! dispatchers make identical canonical decisions on the demo batch under
//! every queueing policy.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{MemLevel, GIB};
use mlm_core::pipeline::host::KernelCtx;
use mlm_core::{PipelineSpec, Placement, Workload};
use mlm_fleet::{
    admission_sequence, decision_digest, fleet_serve, fleet_serve_host, fleet_trace,
    placement_sequence, Decision, FleetConfig, FleetHostConfig, FleetHostJob, FleetJob,
    FleetTraceConfig, PlacementPolicy,
};
use mlm_serve::{
    heavy_tailed_trace, serve, DeadlineClass, JobRequest, Policy, ServeConfig, TraceConfig,
};
use proptest::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Sjf),
        Just(Policy::FairShare),
    ]
}

fn any_placement_policy() -> impl Strategy<Value = PlacementPolicy> {
    prop_oneof![
        Just(PlacementPolicy::FirstFit),
        Just(PlacementPolicy::BestFitHbw),
        Just(PlacementPolicy::LeastLoaded),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// A 1-node fleet is `serve`: whatever the trace, queueing policy,
    /// budget, spill flag, and placement policy, the dispatcher drives
    /// the same `NodeSim` state machine through the same operations, so
    /// records and rejections are bit-identical. (`serve` submits every
    /// job non-strict, so the fleet jobs are non-strict here too.)
    #[test]
    fn one_node_fleet_is_bit_identical_to_serve(
        seed in any::<u64>(),
        n_jobs in 1usize..30,
        rate in 0.5f64..6.0,
        policy in any_policy(),
        placement in any_placement_policy(),
        budget_gib in 4u64..=16,
        spill in any::<bool>(),
        steal in any::<bool>(),
    ) {
        let tc = TraceConfig::new(machine(), n_jobs, rate, seed);
        let jobs = heavy_tailed_trace(&tc);

        let mut serve_cfg = ServeConfig::new(machine());
        serve_cfg.policy = policy;
        serve_cfg.mcdram_budget = budget_gib * GIB;
        serve_cfg.spill = spill;
        let single = serve(&serve_cfg, &jobs).unwrap();

        let mut fleet_cfg = FleetConfig::homogeneous(machine(), 1, budget_gib * GIB, spill);
        fleet_cfg.policy = policy;
        fleet_cfg.placement = placement;
        fleet_cfg.steal = steal;
        let fleet_jobs: Vec<FleetJob> = jobs
            .iter()
            .map(|req| FleetJob { req: req.clone(), strict: false, origin: 0 })
            .collect();
        let fleet = fleet_serve(&fleet_cfg, &fleet_jobs).unwrap();

        prop_assert_eq!(fleet.records.len(), single.records.len());
        for (f, s) in fleet.records.iter().zip(&single.records) {
            prop_assert_eq!(f.id, s.id);
            prop_assert_eq!(f.buffer_level, s.buffer_level);
            prop_assert_eq!(f.arrival.to_bits(), s.arrival.to_bits());
            prop_assert_eq!(f.start.to_bits(), s.start.to_bits(), "job {} start", f.id);
            prop_assert_eq!(f.finish.to_bits(), s.finish.to_bits(), "job {} finish", f.id);
        }
        let fleet_rej: Vec<u64> = fleet.rejections.iter().map(|r| r.id).collect();
        let single_rej: Vec<u64> = single.rejections.iter().map(|r| r.id).collect();
        prop_assert_eq!(fleet_rej, single_rej);
        prop_assert_eq!(fleet.steals, 0, "a lone node has nobody to steal from");
        prop_assert_eq!(fleet.fleet.mcdram_high_water, single.fleet.mcdram_high_water);
    }

    /// Work stealing is capacity-safe: across random heterogeneous
    /// fleets, traces, and strictness mixes, no node's MCDRAM high-water
    /// mark ever exceeds its budget, every job is accounted for exactly
    /// once, and the decision log agrees with the steal counter.
    #[test]
    fn stealing_never_violates_any_node_budget(
        seed in any::<u64>(),
        n_nodes in 2usize..=4,
        per_node in 5usize..=30,
        rate in 1.0f64..6.0,
        budgets in proptest::collection::vec(2u64..=16, 4),
        strict_frac in 0.0f64..1.0,
        skew in 0.0f64..0.9,
        spill in any::<bool>(),
        policy in any_policy(),
        placement in any_placement_policy(),
        with_cluster in any::<bool>(),
    ) {
        let mut cfg = FleetConfig::homogeneous(machine(), n_nodes, 16 * GIB, spill);
        for (i, node) in cfg.nodes.iter_mut().enumerate() {
            node.mcdram_budget = budgets[i] * GIB;
        }
        cfg.policy = policy;
        cfg.placement = placement;
        cfg.steal = true;
        if with_cluster {
            cfg.cluster = Some(mlm_cluster::ClusterConfig::omnipath(n_nodes));
        }

        let mut tc = FleetTraceConfig::new(
            TraceConfig::new(machine(), 0, rate, seed),
            n_nodes,
            per_node,
        );
        tc.strict_frac = strict_frac;
        tc.skew = skew;
        let jobs = fleet_trace(&tc);

        let out = fleet_serve(&cfg, &jobs).unwrap();
        prop_assert_eq!(out.records.len() + out.rejections.len(), jobs.len());
        for (ni, (stats, node)) in out.per_node.iter().zip(&cfg.nodes).enumerate() {
            let cap = node.mcdram_budget.min(node.machine.addressable_mcdram());
            prop_assert!(
                stats.mcdram_high_water <= cap,
                "node {} high-water {} exceeds budget {}",
                ni, stats.mcdram_high_water, cap
            );
        }
        let stolen = out
            .decisions
            .iter()
            .filter(|d| matches!(d, Decision::Stolen { .. }))
            .count();
        prop_assert_eq!(stolen, out.steals);
        // Strict jobs never run out of a DDR-spilled ring.
        let strict_ids: std::collections::HashSet<u64> =
            jobs.iter().filter(|j| j.strict).map(|j| j.req.id).collect();
        for r in out.records.iter().filter(|r| strict_ids.contains(&r.id)) {
            prop_assert_eq!(r.buffer_level, MemLevel::Mcdram, "strict job {} spilled", r.id);
        }
    }
}

fn demo_spec(total: u64, chunk: u64) -> PipelineSpec {
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

fn demo_kernel(slice: &mut [i64], _ctx: KernelCtx) {
    for x in slice.iter_mut() {
        *x = x.wrapping_mul(3);
    }
}

/// The acceptance demo: under every queueing policy the virtual-time and
/// real-thread host modes produce the identical canonical decision
/// sequence — not just equal digests, the actual placement sequence and
/// per-node admission sequences match element for element. Jobs differ in
/// size and class so the three policies admit in three different orders,
/// and each node's budget holds one ring at a time, so a node admits only
/// when its running job finishes and the order cannot hang on which
/// completion the wall clock delivers first.
#[test]
fn host_and_vt_modes_make_identical_decisions_on_the_demo_trace() {
    const KIB: u64 = 1 << 10;
    const MIB: u64 = 1 << 20;
    const BUDGET: u64 = MIB;
    // (total, chunk): at least three chunks each, so 0.75 MiB and
    // 0.94 MiB rings, two never fit BUDGET.
    let shapes = [
        (2 * MIB, 320 * KIB),
        (MIB, 256 * KIB),
        (640 * KIB, 256 * KIB),
        (1536 * KIB, 320 * KIB),
        (896 * KIB, 256 * KIB),
        (MIB, 320 * KIB),
        (768 * KIB, 256 * KIB),
        (2 * MIB, 256 * KIB),
    ];
    let classes = [
        DeadlineClass::Batch,
        DeadlineClass::Batch,
        DeadlineClass::Batch,
        DeadlineClass::Interactive,
        DeadlineClass::Standard,
        DeadlineClass::Interactive,
        DeadlineClass::Batch,
        DeadlineClass::Standard,
    ];
    let spec_of = |i: usize| demo_spec(shapes[i].0, shapes[i].1);
    let rings: Vec<u64> = (0..shapes.len())
        .map(|i| mlm_fleet::ring_footprint(&spec_of(i)))
        .collect();
    assert!(rings.iter().all(|&r| r <= BUDGET && 2 * r > BUDGET));
    let input = |i: usize| -> Vec<i64> {
        (0..(shapes[i].0 / 8) as i64)
            .map(|x| x * 7 + i as i64)
            .collect()
    };

    let mut orders = Vec::new();
    for policy in Policy::ALL {
        let mut fleet = FleetConfig::homogeneous(machine(), 2, BUDGET, false);
        fleet.placement = PlacementPolicy::LeastLoaded;
        fleet.policy = policy;

        let vt_jobs: Vec<FleetJob> = (0..shapes.len())
            .map(|i| FleetJob {
                req: JobRequest::new(i as u64, 0.0, classes[i], spec_of(i)),
                strict: true,
                origin: 0,
            })
            .collect();
        let host_jobs: Vec<FleetHostJob> = (0..shapes.len())
            .map(|i| FleetHostJob {
                id: i as u64,
                class: classes[i],
                strict: true,
                spec: spec_of(i),
                data: input(i),
            })
            .collect();

        let vt = fleet_serve(&fleet, &vt_jobs).unwrap();
        let host_cfg = FleetHostConfig {
            fleet: fleet.clone(),
            host_threads: 8,
            workers: 2,
        };
        let host = fleet_serve_host(&host_cfg, host_jobs, demo_kernel).unwrap();

        let label = policy.label();
        assert_eq!(host.results.len(), shapes.len(), "{label}");
        assert!(host.rejected.is_empty(), "{label}");
        for r in &host.results {
            let expect: Vec<i64> = input(r.id as usize).iter().map(|x| x * 3).collect();
            assert_eq!(r.data, expect, "{label}: job {} output wrong", r.id);
        }

        assert_eq!(
            placement_sequence(&vt.decisions),
            placement_sequence(&host.decisions),
            "{label}"
        );
        let per_node: Vec<_> = (0..2)
            .map(|node| admission_sequence(&vt.decisions, node))
            .collect();
        for (node, vt_seq) in per_node.iter().enumerate() {
            assert_eq!(
                *vt_seq,
                admission_sequence(&host.decisions, node),
                "{label}: node {node} admission sequence diverges"
            );
        }
        assert_eq!(
            decision_digest(&vt.decisions, 2),
            decision_digest(&host.decisions, 2),
            "{label}"
        );
        orders.push(per_node);
    }
    // The batch tells the policies apart: SJF and fair-share each admit
    // in an order FIFO does not.
    assert_ne!(orders[0], orders[1], "SJF admitted in FIFO order");
    assert_ne!(orders[0], orders[2], "fair-share admitted in FIFO order");
    assert_ne!(orders[1], orders[2], "fair-share admitted in SJF order");
}
