//! Co-scheduled replay in the op-level simulator.
//!
//! The virtual-time scheduler ([`crate::sched::serve`]) decides *when* each
//! job starts; this module lowers a realized schedule to one composed
//! [`knl_sim`] program so the op-level engine can price the co-residency:
//! each job's pipeline is built with [`mlm_core::pipeline::sim::build_program`]
//! and spliced onto its own block of simulated threads, gated behind a
//! [`OpKind::Delay`] equal to the job's start time. Co-resident jobs then
//! contend flow-by-flow in the engine's max–min-fair bus arbiter — the
//! fine-grained ground truth the job-level model approximates.
//!
//! A job starting at `t = 0` gets no delay op at all, so a single-job
//! replay is the *identical* program `build_program` produces — bit-for-bit
//! equal makespans, which the property tests pin down.
//!
//! `build_program` is itself the generic plan-to-program lowering: it
//! drives the spec's [`WorkloadPlan`](mlm_exec::plan::WorkloadPlan)
//! through the simulator backend, so nothing here is coupled to any one
//! workload family. A realized schedule may freely mix map, sort-shaped,
//! and stencil pipelines; each job's halo traffic and ring depth come
//! from its own plan.

use knl_sim::machine::MachineConfig;
use knl_sim::ops::{OpKind, Program};
use knl_sim::{SimReport, Simulator};
use mlm_core::pipeline::sim::build_program;
use mlm_core::PipelineSpec;

use crate::job::JobId;

/// One entry of a realized schedule: job `id` starts `spec` at `start`
/// seconds of virtual time.
#[derive(Debug, Clone)]
pub struct ScheduledJob {
    /// Job identifier carried through to the stats.
    pub id: JobId,
    /// Virtual start time in seconds (a queue-admission decision).
    pub start: f64,
    /// The pipeline to run.
    pub spec: PipelineSpec,
}

/// Per-job timing observed in the op-level replay.
#[derive(Debug, Clone)]
pub struct SimJobStats {
    /// Job identifier.
    pub id: JobId,
    /// Scheduled start (the delay gate).
    pub start: f64,
    /// Virtual time the job's last op completed.
    pub finish: f64,
    /// `finish - start`: the job's makespan under contention.
    pub makespan: f64,
}

/// Compose the jobs into one program on disjoint thread blocks.
///
/// Returns the program and, per job, the half-open op-id range of its
/// pipeline ops (delay gates excluded — they end exactly at `start` and
/// carry no work).
pub fn co_schedule_program(
    jobs: &[ScheduledJob],
) -> Result<(Program, Vec<(usize, usize)>), String> {
    let total: usize = jobs.iter().map(|j| j.spec.threads()).sum();
    let mut prog = Program::new(total.max(1));
    let mut spans = Vec::with_capacity(jobs.len());
    let mut offset = 0usize;
    for j in jobs {
        if !(j.start.is_finite() && j.start >= 0.0) {
            return Err(format!("job {}: bad start time {}", j.id, j.start));
        }
        let threads = j.spec.threads();
        if j.start > 0.0 {
            // Gate every thread of the job's block so no op — the head of
            // each per-thread queue included — runs before the start time.
            for t in offset..offset + threads {
                prog.push(t, OpKind::Delay { seconds: j.start }, &[]);
            }
        }
        let sub = build_program(&j.spec)?;
        let lo = prog.ops().len();
        prog.splice(&sub, offset).map_err(|e| e.to_string())?;
        spans.push((lo, prog.ops().len()));
        offset += threads;
    }
    Ok((prog, spans))
}

/// Replay a realized schedule op-by-op on `machine`.
///
/// Thread blocks are dedicated per job (the replay may oversubscribe the
/// machine's hardware threads; bus contention, not thread contention, is
/// what this backend prices).
pub fn replay(
    machine: &MachineConfig,
    jobs: &[ScheduledJob],
) -> Result<(Vec<SimJobStats>, SimReport), String> {
    if jobs.is_empty() {
        return Ok((Vec::new(), SimReport::default()));
    }
    let (prog, spans) = co_schedule_program(jobs)?;
    let sim = Simulator::try_new(machine.clone()).map_err(|e| e.to_string())?;
    let (report, trace) = sim.run_traced(&prog).map_err(|e| e.to_string())?;
    let mut finish = vec![0.0f64; jobs.len()];
    for rec in &trace.ops {
        // Spans are sorted; the gaps between them hold start-gate delays.
        let k = spans.partition_point(|&(_, hi)| hi <= rec.op);
        if spans.get(k).is_some_and(|&(lo, _)| lo <= rec.op) {
            finish[k] = finish[k].max(rec.end);
        }
    }
    let stats = jobs
        .iter()
        .zip(&finish)
        .map(|(j, &f)| SimJobStats {
            id: j.id,
            start: j.start,
            finish: f,
            makespan: f - j.start,
        })
        .collect();
    Ok((stats, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;
    use knl_sim::GIB;
    use mlm_core::{Placement, Workload};

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn spec(total: u64, passes: u32) -> PipelineSpec {
        PipelineSpec {
            total_bytes: total,
            chunk_bytes: GIB / 4,
            p_in: 2,
            p_out: 2,
            p_comp: 8,
            compute_passes: passes,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn stencil_spec(total: u64, passes: u32) -> PipelineSpec {
        let mut s = spec(total, passes);
        s.workload = Workload::Stencil {
            halo_bytes: GIB / 64,
        };
        s
    }

    #[test]
    fn single_job_replay_is_bit_identical_to_direct_run() {
        let s = spec(2 * GIB, 2);
        let sim = Simulator::new(machine());
        let direct = sim.run(&build_program(&s).unwrap()).unwrap();
        let (stats, report) = replay(
            &machine(),
            &[ScheduledJob {
                id: 1,
                start: 0.0,
                spec: s,
            }],
        )
        .unwrap();
        assert_eq!(report.makespan.to_bits(), direct.makespan.to_bits());
        assert_eq!(stats[0].makespan.to_bits(), direct.makespan.to_bits());
    }

    #[test]
    fn single_stencil_job_replay_is_bit_identical_to_direct_run() {
        // Same bit-identity guarantee for the stencil family: the replay
        // splices whatever program the generic lowering emits, halo
        // traffic and 4-slot ring included.
        let s = stencil_spec(2 * GIB, 2);
        let sim = Simulator::new(machine());
        let direct = sim.run(&build_program(&s).unwrap()).unwrap();
        let (stats, report) = replay(
            &machine(),
            &[ScheduledJob {
                id: 1,
                start: 0.0,
                spec: s,
            }],
        )
        .unwrap();
        assert_eq!(report.makespan.to_bits(), direct.makespan.to_bits());
        assert_eq!(stats[0].makespan.to_bits(), direct.makespan.to_bits());
    }

    #[test]
    fn mixed_map_and_stencil_batch_replays() {
        let jobs = [
            ScheduledJob {
                id: 0,
                start: 0.0,
                spec: spec(GIB, 2),
            },
            ScheduledJob {
                id: 1,
                start: 0.25,
                spec: stencil_spec(GIB, 2),
            },
        ];
        let (stats, report) = replay(&machine(), &jobs).unwrap();
        assert_eq!(stats.len(), 2);
        for j in &stats {
            assert!(j.makespan > 0.0, "job {} did no work", j.id);
        }
        let last = stats.iter().map(|j| j.finish).fold(0.0f64, f64::max);
        assert_eq!(report.makespan.to_bits(), last.to_bits());
        // The stencil twin reads two halos per interior chunk on top of
        // the map job's traffic, so alone on the machine it can never be
        // faster than the map job of identical size, passes, and split.
        let map_solo = replay(
            &machine(),
            &[ScheduledJob {
                id: 0,
                start: 0.0,
                spec: spec(GIB, 2),
            }],
        )
        .unwrap()
        .0[0]
            .makespan;
        let stencil_solo = replay(
            &machine(),
            &[ScheduledJob {
                id: 0,
                start: 0.0,
                spec: stencil_spec(GIB, 2),
            }],
        )
        .unwrap()
        .0[0]
            .makespan;
        assert!(
            stencil_solo >= map_solo,
            "stencil {stencil_solo} vs map {map_solo}"
        );
    }

    #[test]
    fn delay_gate_shifts_a_job_wholesale() {
        let s = spec(GIB, 1);
        let solo = replay(
            &machine(),
            &[ScheduledJob {
                id: 1,
                start: 0.0,
                spec: s.clone(),
            }],
        )
        .unwrap()
        .0[0]
            .makespan;
        let (stats, _) = replay(
            &machine(),
            &[ScheduledJob {
                id: 1,
                start: 5.0,
                spec: s,
            }],
        )
        .unwrap();
        assert_eq!(stats[0].start, 5.0);
        // Alone on the machine, delay does not change the job's makespan.
        assert!((stats[0].makespan - solo).abs() < 1e-9 * solo.max(1.0));
        assert!((stats[0].finish - (5.0 + solo)).abs() < 1e-9 * solo.max(1.0));
    }

    #[test]
    fn overlapping_jobs_contend_disjoint_jobs_do_not() {
        // Heavy enough that one copy alone nearly saturates MCDRAM
        // (48 x 6.78 GB/s of compute + copies), so a second co-resident
        // copy must slow both down.
        let mut s = spec(GIB, 4);
        s.p_in = 8;
        s.p_out = 8;
        s.p_comp = 48;
        let solo = replay(
            &machine(),
            &[ScheduledJob {
                id: 0,
                start: 0.0,
                spec: s.clone(),
            }],
        )
        .unwrap()
        .0[0]
            .makespan;
        // Two copies starting together: bus contention stretches both.
        let together = replay(
            &machine(),
            &[
                ScheduledJob {
                    id: 0,
                    start: 0.0,
                    spec: s.clone(),
                },
                ScheduledJob {
                    id: 1,
                    start: 0.0,
                    spec: s.clone(),
                },
            ],
        )
        .unwrap()
        .0;
        assert!(together.iter().all(|j| j.makespan > solo * 1.01));
        // Far-apart starts: no overlap, each runs at solo speed.
        let apart = replay(
            &machine(),
            &[
                ScheduledJob {
                    id: 0,
                    start: 0.0,
                    spec: s.clone(),
                },
                ScheduledJob {
                    id: 1,
                    start: 1000.0,
                    spec: s,
                },
            ],
        )
        .unwrap()
        .0;
        for j in &apart {
            assert!(
                (j.makespan - solo).abs() < 1e-9 * solo,
                "job {} makespan {} vs solo {solo}",
                j.id,
                j.makespan
            );
        }
    }

    #[test]
    fn empty_schedule_is_empty() {
        let (stats, report) = replay(&machine(), &[]).unwrap();
        assert!(stats.is_empty());
        assert_eq!(report.makespan, 0.0);
    }
}
