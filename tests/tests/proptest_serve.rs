//! Property tests for the serving subsystem: admitted jobs always finish,
//! the broker's ledger drains back to zero, and a single-job serve is the
//! same pipeline the paper's single-tenant machinery runs.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{Simulator, GIB};
use mlm_core::pipeline::sim::build_program;
use mlm_core::{PipelineSpec, Placement, Workload};
use mlm_serve::{
    heavy_tailed_trace, profile, replay, serve, AdmitOutcome, CapacityBroker, DeadlineClass,
    JobRequest, Policy, ScheduledJob, ServeConfig, TraceConfig,
};
use proptest::prelude::*;

fn machine() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

fn spec(total: u64, chunk: u64, passes: u32, placement: Placement) -> PipelineSpec {
    let m = machine();
    PipelineSpec {
        total_bytes: total,
        chunk_bytes: chunk,
        p_in: 2,
        p_out: 2,
        p_comp: 8,
        compute_passes: passes,
        compute_rate: m.per_thread_compute_bw,
        copy_rate: m.per_thread_copy_bw,
        placement,
        lockstep: false,
        data_addr: 0,
        workload: Workload::Map,
    }
}

fn any_policy() -> impl Strategy<Value = Policy> {
    prop_oneof![
        Just(Policy::Fifo),
        Just(Policy::Sjf),
        Just(Policy::FairShare),
    ]
}

fn any_placement() -> impl Strategy<Value = Placement> {
    prop_oneof![Just(Placement::Hbw), Just(Placement::Ddr)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Whatever the trace, policy, budget, and spill flag, every job that
    /// is not rejected at submission runs to completion with sane times —
    /// admission keeps no job queued forever.
    #[test]
    fn admitted_jobs_never_starve(
        seed in any::<u64>(),
        n_jobs in 1usize..30,
        rate in 0.5f64..6.0,
        policy in any_policy(),
        budget_gib in 4u64..=16,
        spill in any::<bool>(),
    ) {
        let tc = TraceConfig::new(machine(), n_jobs, rate, seed);
        let jobs = heavy_tailed_trace(&tc);
        let mut cfg = ServeConfig::new(machine());
        cfg.policy = policy;
        cfg.mcdram_budget = budget_gib * GIB;
        cfg.spill = spill;
        let out = serve(&cfg, &jobs).unwrap();
        prop_assert_eq!(out.records.len() + out.rejections.len(), jobs.len());
        for r in &out.records {
            let j = jobs.iter().find(|j| j.id == r.id).unwrap();
            prop_assert!(r.start >= j.arrival - 1e-9);
            prop_assert!(r.finish > r.start);
            prop_assert!(r.finish.is_finite());
        }
        prop_assert!(out.fleet.mcdram_high_water <= budget_gib * GIB);
    }

    /// The broker is a ledger: admit any mix of jobs, release everything,
    /// and both the reservation count and the reserved byte total return
    /// to exactly zero — no leaked or double-freed capacity.
    #[test]
    fn broker_balance_returns_to_zero_after_drain(
        budget_gib in 2u64..=16,
        spill in any::<bool>(),
        requests in proptest::collection::vec(
            (1u64..=8, 1u32..=4, any_placement()),
            1..12,
        ),
    ) {
        let mut broker = CapacityBroker::new(&machine(), budget_gib * GIB, spill);
        let mut held = Vec::new();
        for (chunk_gib, passes, placement) in requests {
            let s = spec(32 * GIB, chunk_gib * GIB, passes, placement);
            if !broker.can_ever_fit_job(&s, true) {
                continue;
            }
            match broker.try_admit_job(&s, true).unwrap() {
                AdmitOutcome::Admitted(Some(r)) => held.push(r),
                AdmitOutcome::Admitted(None) | AdmitOutcome::Busy => {}
            }
            prop_assert!(broker.reserved_mcdram() <= broker.budget());
        }
        for r in &held {
            broker.release(r).unwrap();
        }
        prop_assert_eq!(broker.balance(), 0);
        prop_assert_eq!(broker.reserved_mcdram(), 0);
        prop_assert!(broker.high_water() <= broker.budget());
    }

    /// A fleet of one is the paper's single-tenant case: the op-level
    /// replay of a lone job is bit-for-bit the program `build_program`
    /// produces, and the job-level scheduler finishes it in its dedicated
    /// §3.2 service time.
    #[test]
    fn single_job_serve_reproduces_the_single_job_pipeline(
        total_mib in 256u64..=2048,
        chunk_mib in 128u64..=512,
        passes in 1u32..=3,
    ) {
        let s = spec(total_mib << 20, chunk_mib << 20, passes, Placement::Hbw);
        // Op-level: identical program, identical virtual clock.
        let direct = Simulator::new(machine())
            .run(&build_program(&s).unwrap())
            .unwrap();
        let (stats, report) = replay(
            &machine(),
            &[ScheduledJob { id: 7, start: 0.0, spec: s.clone() }],
        )
        .unwrap();
        prop_assert_eq!(report.makespan.to_bits(), direct.makespan.to_bits());
        prop_assert_eq!(stats[0].makespan.to_bits(), direct.makespan.to_bits());
        // Job-level: alone on the node, the scheduler's finish time is the
        // model's dedicated-machine makespan.
        let cfg = ServeConfig::new(machine());
        let out = serve(&cfg, &[JobRequest::new(7, 0.0, DeadlineClass::Standard, s.clone())])
            .unwrap();
        let t0 = profile(&s, Placement::Hbw, &cfg.machine, cfg.machine.total_threads(), true)
            .unwrap()
            .t0;
        prop_assert_eq!(out.records.len(), 1);
        prop_assert!((out.records[0].finish - t0).abs() <= 1e-9 * t0);
    }
}
