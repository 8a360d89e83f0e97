//! The pre-rearchitecture naive engine loop, preserved verbatim as a
//! correctness oracle.
//!
//! Compiled only with the `reference-engine` feature. The loop is the
//! classic O(threads + flows + delays)-per-event form: a fixed-point rescan
//! of every thread queue to start ops, a fresh water-filling re-arbitration
//! on every iteration, and linear min-scans for the next completion. It is
//! quadratic overall and exists so the optimized event-queue engine
//! ([`Simulator::run`]) can be differential-tested against it on random
//! programs and benchmarked against it for the tracked ≥5× throughput
//! criterion.

use std::collections::VecDeque;

use crate::bandwidth::{allocate_rates, FlowSpec};
use crate::cache::DirectMappedCache;
use crate::engine::{record, spec_len, stuck_ops, DDR, EPS_BYTES, MCD};
use crate::error::SimError;
use crate::ops::{OpKind, Program};
use crate::report::SimReport;
use crate::trace::Trace;
use crate::Simulator;

struct ActiveFlow {
    op: usize,
    remaining: f64,
    spec: FlowSpec,
    /// Extra serial latency charged after the flow drains (miss penalty).
    penalty_after: f64,
    started_at: f64,
}

struct ActiveDelay {
    op: usize,
    deadline: f64,
    started_at: f64,
}

impl Simulator {
    /// Execute `prog` with the naive reference loop. Agrees with
    /// [`Self::run`] up to floating-point event-ordering noise (≪ 1e-9
    /// relative); see the differential tests.
    pub fn run_reference(&self, prog: &Program) -> Result<SimReport, SimError> {
        Ok(self.run_inner_reference(prog, None)?.0)
    }

    /// Traced variant of [`Self::run_reference`].
    pub fn run_traced_reference(&self, prog: &Program) -> Result<(SimReport, Trace), SimError> {
        let (report, trace) = self.run_inner_reference(prog, Some(Trace::default()))?;
        Ok((report, trace.expect("trace requested")))
    }

    fn run_inner_reference(
        &self,
        prog: &Program,
        mut trace: Option<Trace>,
    ) -> Result<(SimReport, Option<Trace>), SimError> {
        prog.validate()?;
        if let Some(tr) = trace.as_mut() {
            tr.threads = prog.threads();
        }

        let cfg = self.config();
        let mut cache = if cfg.mode.has_cache() {
            Some(DirectMappedCache::new(
                cfg.effective_cache_capacity(),
                cfg.cache_segment,
            ))
        } else {
            None
        };

        let capacities = [cfg.ddr_bandwidth, cfg.effective_mcdram_bandwidth()];

        let n_ops = prog.ops().len();
        let mut queues: Vec<VecDeque<usize>> = vec![VecDeque::new(); prog.threads()];
        let mut remaining_deps = vec![0usize; n_ops];
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_ops];
        let mut done = vec![false; n_ops];
        for (i, op) in prog.ops().iter().enumerate() {
            queues[op.thread.0].push_back(i);
            remaining_deps[i] = op.deps.len();
            for d in op.deps.iter() {
                dependents[d.0].push(i);
            }
        }

        let mut report = SimReport::default();
        let mut flows: Vec<ActiveFlow> = Vec::new();
        let mut delays: Vec<ActiveDelay> = Vec::new();
        let mut now = 0.0f64;
        let mut completed = 0usize;
        // Ops whose dependencies are all satisfied; a thread's front op
        // starts when it is in this state.
        let mut dep_ready = vec![false; n_ops];
        for i in 0..n_ops {
            dep_ready[i] = remaining_deps[i] == 0;
        }

        let mut busy = vec![false; prog.threads()];

        // Main event loop: (1) start every startable op — zero-delay ops
        // complete instantly and may cascade, so iterate to a fixed point;
        // (2) arbitrate bandwidth; (3) advance to the next completion.
        loop {
            loop {
                let mut progressed = false;
                for t in 0..queues.len() {
                    while !busy[t] {
                        let Some(&front) = queues[t].front() else {
                            break;
                        };
                        if !dep_ready[front] {
                            break;
                        }
                        queues[t].pop_front();
                        progressed = true;
                        let op = &prog.ops()[front];
                        match &op.kind {
                            OpKind::Delay { seconds } if *seconds <= 0.0 => {
                                // Instant completion; keep popping this thread.
                                Self::complete_op(
                                    front,
                                    now,
                                    now,
                                    &mut done,
                                    &mut completed,
                                    &mut remaining_deps,
                                    &dependents,
                                    &mut dep_ready,
                                    &mut report,
                                );
                                record(&mut trace, prog, front, now, now);
                            }
                            OpKind::Delay { seconds } => {
                                delays.push(ActiveDelay {
                                    op: front,
                                    deadline: now + seconds,
                                    started_at: now,
                                });
                                busy[t] = true;
                            }
                            kind => {
                                let (demand, penalty) =
                                    self.resolve(kind, cache.as_mut(), &mut report)?;
                                let remaining = spec_len(kind);
                                flows.push(ActiveFlow {
                                    op: front,
                                    remaining,
                                    spec: demand.spec(),
                                    penalty_after: penalty,
                                    started_at: now,
                                });
                                busy[t] = true;
                            }
                        }
                    }
                }
                if !progressed {
                    break;
                }
            }

            if completed == n_ops {
                break;
            }

            if flows.is_empty() && delays.is_empty() {
                return Err(SimError::Deadlock(stuck_ops(prog, &done)));
            }

            // Rate allocation for the current flow set.
            let specs: Vec<FlowSpec> = flows.iter().map(|f| f.spec.clone()).collect();
            let rates = allocate_rates(&capacities, &specs);

            // Time to the next event: the earliest flow drain (miss
            // penalties are charged afterwards as serial delays) or the
            // earliest delay expiry.
            let mut dt = f64::INFINITY;
            for (f, &r) in flows.iter().zip(&rates) {
                debug_assert!(r > 0.0, "validated ops always get positive rates");
                dt = dt.min(f.remaining / r);
            }
            for d in &delays {
                dt = dt.min(d.deadline - now);
            }
            debug_assert!(dt.is_finite() && dt >= 0.0, "dt must be finite, got {dt}");
            let dt = dt.max(0.0);

            // Record the exact (piecewise-constant) bus utilization of this
            // inter-event span, `dt` wide: `now + dt - now` would round it.
            if dt > 0.0 {
                if let Some(tr) = trace.as_mut() {
                    let mut used = [0.0f64; 2];
                    for (f, &r) in flows.iter().zip(&rates) {
                        for &(res, coeff) in &f.spec.demand {
                            used[res] += r * coeff;
                        }
                    }
                    tr.bus.push(crate::trace::BusSegment {
                        start: now,
                        end: now + dt,
                        width: dt,
                        ddr: (used[DDR] / capacities[DDR]).min(1.0),
                        mcdram: (used[MCD] / capacities[MCD]).min(1.0),
                    });
                }
            }

            // Integrate progress and resource usage.
            for (f, &r) in flows.iter_mut().zip(&rates) {
                f.remaining -= r * dt;
                for &(res, coeff) in &f.spec.demand {
                    report.served_bytes[res] += r * coeff * dt;
                }
            }
            now += dt;

            // Complete drained flows. A flow with a pending miss penalty
            // converts into a delay.
            let mut i = 0;
            while i < flows.len() {
                if flows[i].remaining <= EPS_BYTES {
                    let f = flows.swap_remove(i);
                    if f.penalty_after > 0.0 {
                        // Thread stays busy through the serial penalty tail.
                        delays.push(ActiveDelay {
                            op: f.op,
                            deadline: now + f.penalty_after,
                            started_at: f.started_at,
                        });
                    } else {
                        busy[prog.ops()[f.op].thread.0] = false;
                        Self::complete_op(
                            f.op,
                            f.started_at,
                            now,
                            &mut done,
                            &mut completed,
                            &mut remaining_deps,
                            &dependents,
                            &mut dep_ready,
                            &mut report,
                        );
                        record(&mut trace, prog, f.op, f.started_at, now);
                    }
                } else {
                    i += 1;
                }
            }
            // Complete expired delays.
            let mut i = 0;
            while i < delays.len() {
                if delays[i].deadline <= now * (1.0 + 1e-12) + 1e-15 {
                    let d = delays.swap_remove(i);
                    busy[prog.ops()[d.op].thread.0] = false;
                    Self::complete_op(
                        d.op,
                        d.started_at,
                        now,
                        &mut done,
                        &mut completed,
                        &mut remaining_deps,
                        &dependents,
                        &mut dep_ready,
                        &mut report,
                    );
                    record(&mut trace, prog, d.op, d.started_at, now);
                } else {
                    i += 1;
                }
            }
        }

        report.makespan = now;
        if now > 0.0 {
            report.utilization[DDR] = report.served_bytes[DDR] / (capacities[DDR] * now);
            report.utilization[MCD] = report.served_bytes[MCD] / (capacities[MCD] * now);
        }
        if let Some(c) = &cache {
            report.cache = c.stats();
        }
        if let Some(tr) = trace.as_mut() {
            tr.makespan = report.makespan;
        }
        Ok((report, trace))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{MachineConfig, MemMode};
    use crate::ops::Place;
    use crate::GB;

    /// Cross-check the two engines on a program exercising saturation,
    /// dependencies, barriers, delays and cache effects all at once.
    #[test]
    fn reference_and_optimized_agree_on_mixed_program() {
        for mode in [MemMode::Flat, MemMode::Cache] {
            let cfg = MachineConfig::tiny(mode);
            let mut p = Program::new(6);
            let mut prev = Vec::new();
            for round in 0u64..4 {
                let mut ids = Vec::new();
                for t in 0..6usize {
                    let kind = match (t + round as usize) % 3 {
                        0 => OpKind::Stream {
                            accesses: vec![crate::ops::Access::read(
                                Place::CachedDdr {
                                    addr: (t as u64) << 28,
                                },
                                (64 << 20) * (1 + round),
                            )],
                            rate_cap: 3.0 * GB,
                        },
                        1 => OpKind::Delay {
                            seconds: 0.01 * (t as f64 + 1.0),
                        },
                        _ => OpKind::copy(
                            Place::Ddr,
                            Place::CachedDdr {
                                addr: (t as u64) << 28,
                            },
                            (32 << 20) * (1 + round),
                            2.0 * GB,
                        ),
                    };
                    ids.push(p.push(t, kind, &prev));
                }
                prev = p.barrier(0..6, &ids);
            }
            let sim = Simulator::new(cfg);
            let fast = sim.run(&p).unwrap();
            let slow = sim.run_reference(&p).unwrap();
            let tol = 1e-9 * slow.makespan.max(1.0);
            assert!(
                (fast.makespan - slow.makespan).abs() < tol,
                "{mode:?}: fast={} slow={}",
                fast.makespan,
                slow.makespan
            );
            assert_eq!(fast.ops_executed, slow.ops_executed);
            assert_eq!(fast.traffic, slow.traffic, "{mode:?}");
            assert_eq!(fast.cache, slow.cache, "{mode:?}: start order must match");
            for r in [DDR, MCD] {
                assert!(
                    (fast.served_bytes[r] - slow.served_bytes[r]).abs() < 1.0,
                    "{mode:?} res {r}: fast={} slow={}",
                    fast.served_bytes[r],
                    slow.served_bytes[r]
                );
            }
        }
    }

    /// How ops share their dependency lists is storage, not semantics:
    /// the same program with every list shared, passed afresh per op, or
    /// deliberately unshared (each op lists the same ids in its own
    /// rotation, so no two lists compare equal) runs bit-identically on
    /// both engines.
    #[test]
    fn list_sharing_is_invisible_to_both_engines() {
        #[derive(Clone, Copy, PartialEq)]
        enum Lists {
            Reused,
            FreshPerOp,
            RotatedPerOp,
        }
        let threads = 6usize;
        let build = |lists: Lists| {
            let mut p = Program::new(threads);
            let mut prev: Vec<crate::ops::OpId> = Vec::new();
            for round in 0u64..5 {
                let mut ids = Vec::new();
                for t in 0..threads {
                    let deps = match lists {
                        Lists::Reused => None,
                        Lists::FreshPerOp => Some(prev.clone()),
                        Lists::RotatedPerOp => {
                            let mut own = prev.clone();
                            own.rotate_left(t % prev.len().max(1));
                            Some(own)
                        }
                    };
                    let bytes = (48 << 20) * (1 + (t as u64 + round) % 3);
                    let first = p.push(
                        t,
                        OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.0 * GB),
                        deps.as_deref().unwrap_or(&prev),
                    );
                    // One-id and empty lists between the shared ones.
                    ids.push(p.push(
                        t,
                        OpKind::inplace_pass(Place::Mcdram, bytes, 2.0 * GB),
                        &[first],
                    ));
                    ids.push(p.push(t, OpKind::Delay { seconds: 1e-3 }, &[]));
                }
                prev = ids;
            }
            p
        };
        let sim = Simulator::new(MachineConfig::tiny(MemMode::Flat));
        let shared = build(Lists::Reused);
        assert_eq!(shared.dep_lists(), build(Lists::FreshPerOp).dep_lists());
        assert!(build(Lists::RotatedPerOp).dep_ids() > 3 * shared.dep_ids());
        let fast = sim.run(&shared).unwrap();
        let slow = sim.run_reference(&shared).unwrap();
        for lists in [Lists::FreshPerOp, Lists::RotatedPerOp] {
            let p = build(lists);
            assert_eq!(sim.run(&p).unwrap(), fast);
            assert_eq!(sim.run_reference(&p).unwrap(), slow);
        }
    }
}
