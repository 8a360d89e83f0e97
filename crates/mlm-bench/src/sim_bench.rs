//! Throughput benchmark for the knl-sim event engine.
//!
//! Builds synthetic many-thread/many-op programs at several scales, runs
//! them through both the optimized event-queue engine ([`Simulator::run`])
//! and the preserved naive reference loop
//! ([`Simulator::run_reference`]), and reports events/sec. The `sim_bench`
//! binary serializes the results to `BENCH_sim_engine.json`, the repo's
//! tracked perf trajectory for the DES core; the CI `sim-bench` job fails
//! when a scale's exact engine counters drift from that file and warns
//! (without failing) when throughput regresses by more than 20%.
//!
//! The *event* unit is engine-independent so the two engines' events/sec
//! are directly comparable: every op contributes one start and one
//! completion, i.e. `events = 2 × ops`. Speedup in events/sec therefore
//! equals wall-clock speedup on the same program.

use std::time::Instant;

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::{OpKind, Place, Program};
use knl_sim::{EngineStats, Simulator, GB};
use serde::{Deserialize, Serialize};

/// A synthetic workload family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Family {
    /// Independent copies of varied sizes on every thread: completions
    /// stagger, so every event changes the active set and re-arbitrates —
    /// the quadratic worst case for the naive loop.
    Fanout,
    /// Three-stage copy-in → compute → copy-out chains over thread
    /// triples, barriered every round: the paper's pipeline shape.
    Pipeline,
    /// Zero-delay barrier cascades between tiny delays: stresses the
    /// ready worklist and instant-op path with almost no flows.
    BarrierStorm,
    /// A single dependency chain round-robining across every thread: at
    /// most one op runs at a time, so per-event cost is pure dispatch.
    /// The naive loop pays a full all-thread rescan per event here; the
    /// ready worklist makes each wake-up O(log threads).
    Chain,
    /// The out-of-core stencil dataflow shape from the generic plan
    /// layer: per 3-thread lane, a 4-slot ring with no barriers at all —
    /// each compute fans in from three staged neighbours (the halo
    /// edges) and each stage-in recycles against three downstream
    /// computes, so readiness propagates through dependency counts
    /// alone, never through barrier sweeps.
    Stencil,
}

impl Family {
    /// Stable lowercase name used in JSON and scale labels.
    pub fn name(self) -> &'static str {
        match self {
            Family::Fanout => "fanout",
            Family::Pipeline => "pipeline",
            Family::BarrierStorm => "barrier-storm",
            Family::Chain => "chain",
            Family::Stencil => "stencil",
        }
    }
}

/// Build a synthetic program of `threads` threads and roughly
/// `ops_per_thread` ops each. Deterministic: same inputs, same program.
pub fn build_program(family: Family, threads: usize, ops_per_thread: usize) -> Program {
    match family {
        Family::Fanout => {
            let mut p = Program::new(threads);
            for t in 0..threads {
                for k in 0..ops_per_thread {
                    // Vary sizes so completions stagger (no coalescing).
                    let bytes = 50_000_000 + 1_000_000 * ((t * 7 + k * 13) % 97) as u64;
                    p.push(
                        t,
                        OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.8 * GB),
                        &[],
                    );
                }
            }
            p
        }
        Family::Pipeline => {
            let triples = (threads / 3).max(1);
            let rounds = ops_per_thread;
            let mut p = Program::new(3 * triples);
            let mut prev = Vec::new();
            for r in 0..rounds {
                let mut ids = Vec::new();
                for g in 0..triples {
                    let bytes = 20_000_000 + 1_000_000 * ((g * 11 + r * 5) % 53) as u64;
                    let a = p.push(
                        3 * g,
                        OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.8 * GB),
                        &prev,
                    );
                    let b = p.push(
                        3 * g + 1,
                        OpKind::inplace_pass(Place::Mcdram, bytes, 6.78 * GB),
                        &[a],
                    );
                    let c = p.push(
                        3 * g + 2,
                        OpKind::copy(Place::Mcdram, Place::Ddr, bytes, 4.8 * GB),
                        &[b],
                    );
                    ids.push(c);
                }
                prev = p.barrier(0..3 * triples, &ids);
            }
            p
        }
        Family::BarrierStorm => {
            let mut p = Program::new(threads);
            let rounds = ops_per_thread / 2;
            let mut deps = Vec::new();
            for r in 0..rounds.max(1) {
                deps = p.barrier(0..threads, &deps);
                if r % 8 == 0 {
                    // An occasional real delay so time advances.
                    let d = p.push(0, OpKind::Delay { seconds: 1e-3 }, &deps);
                    deps = vec![d];
                }
            }
            p
        }
        Family::Chain => {
            let mut p = Program::new(threads);
            let mut prev = Vec::new();
            for k in 0..threads * ops_per_thread {
                let bytes = 1_000_000 + 100_000 * ((k * 17) % 41) as u64;
                let id = p.push(
                    k % threads,
                    OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.8 * GB),
                    &prev,
                );
                prev = vec![id];
            }
            p
        }
        Family::Stencil => {
            // One 4-slot ring per 3-thread lane, mirroring the shape
            // `mlm_exec::plan::plan_pipeline` emits for Workload::Stencil:
            // compute c reads the staged chunks c-1..=c+1 (halo fan-in),
            // copy-out c waits only on compute c, and stage-in c recycles
            // its slot against the three computes that read chunk c-4.
            let lanes = (threads / 3).max(1);
            let chunks = ops_per_thread.max(1);
            let ring = 4usize;
            let mut p = Program::new(3 * lanes);
            for g in 0..lanes {
                let mut stage_in: Vec<knl_sim::OpId> = Vec::with_capacity(chunks);
                let mut compute: Vec<knl_sim::OpId> = Vec::with_capacity(chunks);
                // Issue compute c (its left and right neighbours are
                // staged by now) plus its trailing copy-out.
                let emit_compute = |p: &mut Program, stage_in: &[knl_sim::OpId], c: usize| {
                    let deps: Vec<knl_sim::OpId> =
                        stage_in[c.saturating_sub(1)..=(c + 1).min(chunks - 1)].to_vec();
                    let bytes = 20_000_000 + 1_000_000 * ((g * 11 + c * 7) % 53) as u64;
                    // Interior chunks re-read two halos on top of the body.
                    let neighbours = usize::from(c > 0) + usize::from(c + 1 < chunks);
                    let traffic = bytes + (neighbours as u64) * (bytes / 16);
                    let k = p.push(
                        3 * g + 1,
                        OpKind::inplace_pass(Place::Mcdram, traffic, 6.78 * GB),
                        &deps,
                    );
                    p.push(
                        3 * g + 2,
                        OpKind::copy(Place::Mcdram, Place::Ddr, bytes, 4.8 * GB),
                        &[k],
                    );
                    k
                };
                for c in 0..chunks {
                    let recycled: Vec<knl_sim::OpId> = if c >= ring {
                        // Slot c % 4 frees once every compute reading
                        // chunk c-4's buffer (as body or halo) is done.
                        compute[(c - ring).saturating_sub(1)..=(c - ring + 1).min(chunks - 1)]
                            .to_vec()
                    } else {
                        Vec::new()
                    };
                    let bytes = 20_000_000 + 1_000_000 * ((g * 11 + c * 7) % 53) as u64;
                    stage_in.push(p.push(
                        3 * g,
                        OpKind::copy(Place::Ddr, Place::Mcdram, bytes, 4.8 * GB),
                        &recycled,
                    ));
                    if c >= 1 {
                        compute.push(emit_compute(&mut p, &stage_in, c - 1));
                    }
                }
                compute.push(emit_compute(&mut p, &stage_in, chunks - 1));
            }
            p
        }
    }
}

/// One measured (family, scale) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Measurement {
    /// Scale label, e.g. `fanout-256x100`.
    pub name: String,
    pub family: String,
    pub threads: usize,
    /// Total ops in the program.
    pub ops: usize,
    /// Engine-independent event count (2 × ops: one start + one
    /// completion per op).
    pub events: u64,
    /// Best-of-N wall seconds for the optimized engine.
    pub optimized_secs: f64,
    pub optimized_events_per_sec: f64,
    /// Best-of-N wall seconds for the naive reference loop.
    pub reference_secs: f64,
    pub reference_events_per_sec: f64,
    /// `reference_secs / optimized_secs` (== events/sec ratio).
    pub speedup: f64,
    /// Optimized-engine internals at this scale (timeline events, rate
    /// epochs, stale heap entries, heap high-water mark).
    pub timeline_events: u64,
    pub rate_recomputes: u64,
    pub stale_events: u64,
    pub heap_peak: usize,
}

/// Latency of the static schedule verifier (`mlm_exec::graph`) on the
/// largest committed experiment spec — the preflight gate in front of
/// `drive_verified()` must stay well under its 100 ms budget.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GraphVerifyMeasurement {
    /// Name of the spec measured (from the committed catalog).
    pub spec: String,
    /// Chunks in the pipeline.
    pub chunks: usize,
    /// Nodes in the emitted dependency graph.
    pub nodes: usize,
    /// Edges in the emitted dependency graph.
    pub edges: usize,
    /// Best-of-N wall milliseconds for record + full analysis.
    pub best_millis: f64,
    /// Dependency edges the proof's happens-before searches walked: its
    /// work, exact, so `sim_bench --check` gates on it.
    pub visited: u64,
    /// The verifier must also *prove* the spec safe, not just terminate.
    pub safe: bool,
}

/// The whole benchmark report, serialized to `BENCH_sim_engine.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BenchReport {
    pub bench: String,
    pub unit: String,
    pub scales: Vec<Measurement>,
    /// Speedup at the largest (last) scale — the tracked acceptance
    /// number (must stay ≥ 5×).
    pub largest_scale_speedup: f64,
    /// Static-verifier latency on the largest committed spec (tracked
    /// acceptance: < 100 ms and `safe`).
    pub graph_verify: GraphVerifyMeasurement,
}

/// The benchmark grid: (family, threads, ops_per_thread), smallest to
/// largest. The last entry is "the largest scale" for the tracked
/// speedup number.
pub fn default_scales() -> Vec<(Family, usize, usize)> {
    vec![
        (Family::BarrierStorm, 64, 100),
        (Family::Pipeline, 48, 60),
        (Family::Fanout, 16, 50),
        (Family::Fanout, 64, 100),
        (Family::Fanout, 256, 100),
        (Family::Stencil, 48, 60),
        (Family::Chain, 256, 200),
    ]
}

fn knl() -> MachineConfig {
    MachineConfig::knl_7250(MemMode::Flat)
}

fn time_best<F: FnMut() -> f64>(iters: usize, mut f: F) -> (f64, f64) {
    let mut best = f64::INFINITY;
    let mut makespan = 0.0;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        makespan = f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (best, makespan)
}

/// Measure one (family, scale) cell: build the program, run both engines
/// (best-of-N wall time), cross-check that they agree on the makespan,
/// and return the filled [`Measurement`].
///
/// # Panics
/// Panics if the two engines disagree on the makespan beyond 1e-9
/// relative — a correctness failure, not a perf regression.
pub fn measure(family: Family, threads: usize, ops_per_thread: usize) -> Measurement {
    let prog = build_program(family, threads, ops_per_thread);
    let sim = Simulator::new(knl());
    let ops = prog.ops().len();
    let events = 2 * ops as u64;

    // Warm-up + stats in one go.
    let (_, stats): (_, EngineStats) = sim.run_stats(&prog).expect("valid program");

    let opt_iters = 5;
    let ref_iters = 2;
    let (optimized_secs, opt_makespan) = time_best(opt_iters, || {
        sim.run(&prog).expect("valid program").makespan
    });
    let (reference_secs, ref_makespan) = time_best(ref_iters, || {
        sim.run_reference(&prog).expect("valid program").makespan
    });

    let tol = 1e-9 * ref_makespan.abs().max(1.0);
    assert!(
        (opt_makespan - ref_makespan).abs() <= tol,
        "{} engines disagree: optimized={opt_makespan} reference={ref_makespan}",
        family.name()
    );

    Measurement {
        name: format!("{}-{}x{}", family.name(), threads, ops_per_thread),
        family: family.name().to_string(),
        threads,
        ops,
        events,
        optimized_secs,
        optimized_events_per_sec: events as f64 / optimized_secs,
        reference_secs,
        reference_events_per_sec: events as f64 / reference_secs,
        speedup: reference_secs / optimized_secs,
        timeline_events: stats.events,
        rate_recomputes: stats.rate_recomputes,
        stale_events: stats.stale_events,
        heap_peak: stats.heap_peak,
    }
}

/// Time the static schedule verifier end-to-end (build the plan +
/// full G001–G006 analysis) on the largest committed experiment spec,
/// best of 5, against the paper machine's MCDRAM budget.
pub fn measure_graph_verify() -> GraphVerifyMeasurement {
    let (name, spec) = mlm_verify::graph::largest_committed_spec();
    let machine = knl();
    let mut best = f64::INFINITY;
    let mut report = None;
    for _ in 0..5 {
        let t0 = Instant::now();
        let r = mlm_verify::graph::graph_report_for(&spec, &machine)
            .expect("committed spec must be driveable");
        best = best.min(t0.elapsed().as_secs_f64());
        report = Some(r);
    }
    let report = report.expect("five iterations ran");
    GraphVerifyMeasurement {
        spec: name.to_string(),
        chunks: spec.n_chunks(),
        nodes: report.nodes,
        edges: report.edges,
        best_millis: best * 1e3,
        visited: report.visited,
        safe: report.is_safe(),
    }
}

/// Run the full default grid and assemble the report.
pub fn run_all() -> BenchReport {
    let mut scales = Vec::new();
    for (family, threads, ops) in default_scales() {
        scales.push(measure(family, threads, ops));
    }
    let largest_scale_speedup = scales.last().map(|m| m.speedup).unwrap_or(0.0);
    BenchReport {
        bench: "sim_engine".to_string(),
        unit: "events/sec".to_string(),
        scales,
        largest_scale_speedup,
        graph_verify: measure_graph_verify(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builders_produce_valid_programs() {
        for family in [
            Family::Fanout,
            Family::Pipeline,
            Family::BarrierStorm,
            Family::Chain,
            Family::Stencil,
        ] {
            let p = build_program(family, 12, 10);
            p.validate().expect("builder output must validate");
            assert!(!p.ops().is_empty());
            let r = Simulator::new(knl()).run(&p).expect("must execute");
            assert!(r.ops_executed == p.ops().len());
        }
    }

    #[test]
    fn stencil_family_is_barrier_free_dataflow() {
        // 4 lanes x (10 stage-ins + 10 computes + 10 copy-outs); a
        // barrier would add ops beyond the 3-per-chunk dataflow shape.
        let p = build_program(Family::Stencil, 12, 10);
        assert_eq!(p.ops().len(), 4 * 30);
        p.validate().expect("stencil ring must validate");
        // measure() cross-checks the optimized engine against the
        // reference loop, so the halo fan-in prices identically on both.
        let m = measure(Family::Stencil, 12, 10);
        assert!(m.speedup > 0.0);
    }

    #[test]
    fn stencil_engine_counters_are_pinned() {
        // Exact counters, no stopwatch. Copy-ins and copy-outs share one
        // flow class and computes form the other; with no delays, the
        // heap holds two live drain predictions at most, and the other
        // four entries at its peak are predictions a rate rise superseded
        // before they came due.
        let p = build_program(Family::Stencil, 48, 60);
        let (_, s) = Simulator::new(knl()).run_stats(&p).expect("must execute");
        assert_eq!(
            (
                s.events,
                s.rate_recomputes,
                s.full_recomputes,
                s.arbitrated,
                s.join_groups
            ),
            (2880, 2875, 2530, 5060, 2816),
            "{s:?}"
        );
        assert_eq!((s.stale_events, s.heap_peak), (625, 6), "{s:?}");
    }

    #[test]
    fn engines_agree_at_small_scale() {
        // The measure() cross-check at a size cheap enough for `cargo
        // test`; the full grid runs in the sim_bench binary.
        let m = measure(Family::Fanout, 8, 6);
        assert!(m.speedup > 0.0);
        assert_eq!(m.ops, 48);
    }

    #[test]
    fn report_round_trips_through_json() {
        let report = BenchReport {
            bench: "sim_engine".into(),
            unit: "events/sec".into(),
            scales: vec![],
            largest_scale_speedup: 7.25,
            graph_verify: GraphVerifyMeasurement {
                spec: "serve-batch-elephant".into(),
                chunks: 128,
                nodes: 514,
                edges: 767,
                best_millis: 1.5,
                visited: 1024,
                safe: true,
            },
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: BenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.bench, "sim_engine");
        assert_eq!(back.largest_scale_speedup, 7.25);
        assert_eq!(back.graph_verify.chunks, 128);
        assert_eq!(back.graph_verify.visited, 1024);
        assert!(back.graph_verify.safe);
    }

    #[test]
    fn graph_verify_is_fast_and_proves_the_largest_spec() {
        let m = measure_graph_verify();
        assert!(m.safe, "{}: largest committed spec must prove safe", m.spec);
        assert!(m.nodes > 0 && m.edges > 0);
        // The hard acceptance gate is < 100 ms in the release-mode
        // sim_bench binary; leave debug-mode `cargo test` headroom.
        assert!(
            m.best_millis < 2_000.0,
            "{}: static verification took {:.1} ms",
            m.spec,
            m.best_millis
        );
    }
}
