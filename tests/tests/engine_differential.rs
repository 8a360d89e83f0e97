//! Differential property tests: the optimized event-queue engine must be
//! observationally identical to the preserved naive reference loop
//! (`reference-engine` feature) on arbitrary mixed programs — completion
//! times, served bytes, and bus-utilization integrals within 1e-9
//! relative, and cache statistics bit-for-bit (cache-mode results depend
//! on op *start order*, so exact equality here proves the ready worklist
//! replays the naive scan order).
//!
//! Some generated programs start behind a 1–100 s delay: past ≈ 1 s the
//! optimized engine's relative same-timestamp window (`now × 1e-12`) is
//! wider than its absolute completion tolerance (`EPS_BYTES`), the band in
//! which `Simulator::run` used to livelock. The two deterministic tests at
//! the bottom replay the schedules that found it.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::{Access, OpKind, Place, Program};
use knl_sim::{Simulator, Trace, GB};
use mlm_serve::{
    co_schedule_program, heavy_tailed_trace, replay, serve, JobRequest, ScheduledJob, ServeConfig,
    TraceConfig,
};
use proptest::prelude::*;

/// One op's worth of generator decisions. Everything is quantized so
/// failures reproduce exactly and caps stay ≥ 5e8 B/s (far above the
/// naive loop's EPS_BYTES completion window).
#[derive(Debug, Clone, Copy)]
struct OpSeed {
    thread: usize,
    kind: u8,
    size: u8,
    cap: u8,
    link: u8,
    barrier: u8,
}

fn op_seed() -> impl Strategy<Value = OpSeed> {
    (0..8usize, 0..5u8, 0..32u8, 0..4u8, 0..8u8, 0..16u8).prop_map(
        |(thread, kind, size, cap, link, barrier)| OpSeed {
            thread,
            kind,
            size,
            cap,
            link,
            barrier,
        },
    )
}

/// Seconds every thread waits before its first op: none for half the
/// programs, 1–100 s for the rest.
fn late_start() -> impl Strategy<Value = u32> {
    (0..200u32).prop_map(|s| s.saturating_sub(99))
}

/// Deterministically expand seeds into a validated program: mixed
/// copies, cached-DDR streams, delays (including zero-delay instants),
/// sparse backward dependencies, and occasional all-thread barriers.
///
/// `mode` picks the scratch target: flat/hybrid machines address MCDRAM
/// directly, while in cache mode all of MCDRAM is cache, so scratch
/// traffic goes through `CachedDdr` ranges instead. With `start > 0` every
/// thread first waits `start` seconds, so all the work happens late.
fn build(threads: usize, seeds: &[OpSeed], mode: MemMode, start: u32) -> Program {
    let mut p = Program::new(threads);
    let mut all = Vec::new();
    if start > 0 {
        let seconds = f64::from(start);
        all.extend((0..threads).map(|t| p.push(t, OpKind::Delay { seconds }, &[])));
    }
    for s in seeds {
        let t = s.thread % threads;
        let bytes = 16_000_000 * (1 + s.size as u64);
        let cap = [0.5, 1.0, 2.4, 4.8][s.cap as usize % 4] * GB;
        let scratch = if mode.has_flat() {
            Place::Mcdram
        } else {
            Place::CachedDdr {
                addr: 32_000_000_000 + s.cap as u64 * 1_000_000_000,
            }
        };
        let kind = match s.kind % 5 {
            0 => OpKind::copy(Place::Ddr, scratch, bytes, cap),
            1 => OpKind::copy(scratch, Place::Ddr, bytes, cap),
            2 => OpKind::Stream {
                accesses: vec![
                    Access::read(
                        Place::CachedDdr {
                            addr: s.size as u64 * 64_000_000,
                        },
                        bytes,
                    ),
                    Access::write(scratch, bytes),
                ],
                rate_cap: cap,
            },
            3 => OpKind::Delay {
                seconds: 1e-4 * (s.size % 8) as f64,
            },
            _ => OpKind::inplace_pass(scratch, bytes, cap),
        };
        let deps = if s.link > 4 && !all.is_empty() {
            vec![all[(s.link as usize * 7919) % all.len()]]
        } else {
            Vec::new()
        };
        let id = p.push(t, kind, &deps);
        all.push(id);
        if s.barrier == 0 {
            all.extend(p.barrier(0..threads, &[id]));
        }
    }
    p
}

/// Piecewise-constant integrals of the two bus-utilization timelines.
/// The optimized engine merges adjacent identical segments and the naive
/// loop does not, so raw segment lists differ by construction — the
/// integral is the representation-independent comparison.
fn bus_integrals(t: &Trace) -> (f64, f64) {
    t.bus.iter().fold((0.0, 0.0), |(d, m), s| {
        (d + s.ddr * s.width, m + s.mcdram * s.width)
    })
}

fn assert_engines_agree(prog: &Program, mode: MemMode) {
    let sim = Simulator::new(MachineConfig::knl_7250(mode));
    let (fast, fast_tr) = sim.run_traced(prog).expect("optimized engine");
    let (slow, slow_tr) = sim.run_traced_reference(prog).expect("reference engine");

    let tol = 1e-9 * slow.makespan.abs().max(1.0);
    prop_assert!(
        (fast.makespan - slow.makespan).abs() <= tol,
        "makespan: fast={} slow={}",
        fast.makespan,
        slow.makespan
    );
    prop_assert_eq!(fast.ops_executed, slow.ops_executed);
    prop_assert_eq!(fast.cache, slow.cache, "cache stats must match exactly");

    for lvl in 0..2 {
        let s = slow.served_bytes[lvl];
        prop_assert!(
            (fast.served_bytes[lvl] - s).abs() <= 1e-9 * s.abs().max(1.0),
            "served_bytes[{}]: fast={} slow={}",
            lvl,
            fast.served_bytes[lvl],
            s
        );
    }

    // Per-op completion records, matched by op id.
    let mut fast_ops = fast_tr.ops.clone();
    let mut slow_ops = slow_tr.ops.clone();
    fast_ops.sort_by_key(|r| r.op);
    slow_ops.sort_by_key(|r| r.op);
    prop_assert_eq!(fast_ops.len(), slow_ops.len());
    for (f, s) in fast_ops.iter().zip(&slow_ops) {
        prop_assert_eq!(f.op, s.op);
        prop_assert_eq!(f.thread, s.thread);
        prop_assert!(
            (f.start - s.start).abs() <= tol && (f.end - s.end).abs() <= tol,
            "op {}: fast=[{}, {}] slow=[{}, {}]",
            f.op,
            f.start,
            f.end,
            s.start,
            s.end
        );
    }

    let (fd, fm) = bus_integrals(&fast_tr);
    let (sd, sm) = bus_integrals(&slow_tr);
    prop_assert!(
        (fd - sd).abs() <= 1e-9 * sd.abs().max(1.0),
        "ddr bus integral: fast={fd} slow={sd}"
    );
    prop_assert!(
        (fm - sm).abs() <= 1e-9 * sm.abs().max(1.0),
        "mcdram bus integral: fast={fm} slow={sm}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn optimized_engine_equals_reference_flat(
        threads in 1usize..7,
        seeds in proptest::collection::vec(op_seed(), 1..40),
        start in late_start(),
    ) {
        let prog = build(threads, &seeds, MemMode::Flat, start);
        prog.validate().expect("generated programs are valid");
        assert_engines_agree(&prog, MemMode::Flat);
    }

    #[test]
    fn optimized_engine_equals_reference_cache(
        threads in 1usize..7,
        seeds in proptest::collection::vec(op_seed(), 1..40),
        start in late_start(),
    ) {
        let prog = build(threads, &seeds, MemMode::Cache, start);
        prog.validate().expect("generated programs are valid");
        assert_engines_agree(&prog, MemMode::Cache);
    }

    #[test]
    fn optimized_engine_equals_reference_hybrid(
        threads in 1usize..7,
        seeds in proptest::collection::vec(op_seed(), 1..24),
        start in late_start(),
    ) {
        let mode = MemMode::Hybrid { cache_fraction: 0.5 };
        let prog = build(threads, &seeds, mode, start);
        prog.validate().expect("generated programs are valid");
        assert_engines_agree(&prog, mode);
    }
}

fn knl_flat() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

/// Streams reading 2·b from DDR and writing b to MCDRAM demand 2/3 and
/// 1/3 per logical byte, so the optimized engine sums `n × coeff` where
/// the reference loop adds `coeff` n times — different roundings. Sizes
/// vary per op, so completions stagger, yet the 48 threads form only two
/// classes (two caps) on a saturated DDR bus.
#[test]
fn merged_classes_with_non_dyadic_coefficients_match_reference() {
    let threads = 48;
    let mut p = Program::new(threads);
    for t in 0..threads {
        let cap = if t % 3 == 0 { 2.4 * GB } else { 4.8 * GB };
        for k in 0..6u64 {
            let b = 8_000_000 * (1 + (t as u64 * 7 + k * 13) % 11);
            p.push(
                t,
                OpKind::Stream {
                    accesses: vec![
                        Access::read(Place::Ddr, 2 * b),
                        Access::write(Place::Mcdram, b),
                    ],
                    rate_cap: cap,
                },
                &[],
            );
        }
    }
    assert_engines_agree(&p, MemMode::Flat);
    let (_, stats) = Simulator::new(knl_flat()).run_stats(&p).unwrap();
    assert!(stats.full_recomputes > 0, "{stats:?}");
    assert!(
        stats.arbitrated <= 2 * stats.full_recomputes,
        "one entry per cap, not per thread: {stats:?}"
    );
}

/// 64 threads of back-to-back copies behind a 1e5 s delay: the copies
/// saturate DDR and keep one flow class busy for the whole run, so its
/// virtual clock grows to about 40 copies' worth of bytes while each
/// flow's own length stays one copy, and at `now` ≈ 1e5 s the
/// same-timestamp window (1e-7 s) is far wider than `EPS_BYTES`. Both
/// engines land about 2e-11 apart on served bytes, and their bus
/// integrals agree at 1e-9 because each segment carries its own width:
/// summing thousands of `end - start` taken at 1e5 s cost the reference
/// ~3e-9 of its integral.
#[test]
fn late_saturated_fanout_with_a_large_class_clock_matches_reference() {
    let threads = 64;
    let mut p = Program::new(threads);
    for t in 0..threads {
        p.push(t, OpKind::Delay { seconds: 1e5 }, &[]);
        for k in 0..40 {
            let bytes = 50_000_000 + 1_000_000 * ((t * 7 + k * 13) % 97) as u64;
            p.push(
                t,
                OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.8 * GB),
                &[],
            );
        }
    }
    assert_engines_agree(&p, MemMode::Flat);
    let (fast, stats) = Simulator::new(knl_flat())
        .run_stats(&p)
        .expect("optimized engine");
    assert!(fast.makespan > 1e5, "{}", fast.makespan);
    assert!(stats.full_recomputes > 0, "DDR is saturated: {stats:?}");
    assert_eq!(stats.events, 64 * 41, "{stats:?}");
}

/// The smallest schedule found to hang `Simulator::run` (benchmark/README
/// "Findings"): one 272-thread job alone, gated behind its FIFO start
/// time. A reintroduced hang surfaces as `SimError::Livelock`, so the
/// test needs no stopwatch.
#[test]
fn delay_gated_job_returns_and_matches_reference() {
    let trace = heavy_tailed_trace(&TraceConfig::new(knl_flat(), 100, 0.5, 3));
    let job = ScheduledJob {
        id: trace[4].id,
        start: 6.3790156013008845,
        spec: trace[4].spec.clone(),
    };
    assert_eq!(job.spec.threads(), 272);
    let (prog, _) = co_schedule_program(&[job]).expect("schedule lowers");
    let sim = Simulator::new(knl_flat());
    let fast = sim.run(&prog).expect("optimized engine returns");
    let slow = sim.run_reference(&prog).expect("reference engine");
    assert!(
        (fast.makespan - slow.makespan).abs() <= 1e-9 * slow.makespan,
        "makespan: fast={} slow={}",
        fast.makespan,
        slow.makespan
    );
    for lvl in 0..2 {
        let s = slow.served_bytes[lvl];
        assert!(
            (fast.served_bytes[lvl] - s).abs() <= 1e-9 * s.max(1.0),
            "served_bytes[{lvl}]: fast={} slow={s}",
            fast.served_bytes[lvl]
        );
    }
}

/// A realised 64-job FIFO schedule, replayed op by op: every job finishes
/// when the reference loop says it does.
#[test]
fn replayed_fifo_schedule_matches_reference_per_job() {
    let machine = knl_flat();
    let batch: Vec<JobRequest> = heavy_tailed_trace(&TraceConfig::new(machine.clone(), 64, 0.5, 3))
        .iter()
        .map(|j| JobRequest::new(j.id, 0.0, j.class, j.spec.clone()))
        .collect();
    let outcome = serve(&ServeConfig::new(machine.clone()), &batch).expect("serve");
    let schedule: Vec<ScheduledJob> = outcome
        .records
        .iter()
        .map(|r| ScheduledJob {
            id: r.id,
            start: r.start,
            spec: batch[r.id as usize].spec.clone(),
        })
        .collect();
    assert_eq!(schedule.len(), 64);
    assert!(schedule.iter().any(|j| j.start > 1.0), "no job starts late");

    let (stats, _) = replay(&machine, &schedule).expect("replay returns");

    let (prog, spans) = co_schedule_program(&schedule).expect("schedule lowers");
    let (_, trace) = Simulator::new(machine)
        .run_traced_reference(&prog)
        .expect("reference engine");
    for (job, &(lo, hi)) in stats.iter().zip(&spans) {
        let finish = trace
            .ops
            .iter()
            .filter(|r| (lo..hi).contains(&r.op))
            .fold(0.0f64, |f, r| f.max(r.end));
        assert!(
            (job.finish - finish).abs() <= 1e-9 * finish,
            "job {}: replay finishes at {}, reference at {finish}",
            job.id,
            job.finish
        );
    }
}
