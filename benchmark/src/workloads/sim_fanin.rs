//! `sim_fanin`: the event engine on saturated halo and recycle fan-in.
//!
//! This is where lazy invalidation pays: the stencil ring pops an order
//! of magnitude more stale heap entries than live events. An engine fix
//! must show here, while `sim_repro` (chain and barrier shapes) is the
//! workload it must not slow. The seed is unused: the programs are
//! synthetic and fixed.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::Program;
use knl_sim::{EngineStats, Simulator};
use mlm_bench::sim_bench::{build_program, Family};

use super::{Setup, Size, Workload};
use crate::check::{check_close, Ops};
use crate::metrics::{Exact, LayerMetrics};
use crate::trace::{Spans, Tracer};

/// Program shapes: (family, threads, ops per thread).
type Shape = (Family, usize, usize);

const FULL: [Shape; 4] = [
    (Family::Stencil, 48, 480),
    (Family::Stencil, 192, 120),
    (Family::Fanout, 256, 200),
    (Family::Fanout, 64, 400),
];
const SMOKE: [Shape; 4] = [
    (Family::Stencil, 48, 24),
    (Family::Stencil, 96, 12),
    (Family::Fanout, 64, 20),
    (Family::Fanout, 16, 40),
];

/// The families where the engine is already fast, probed once per traced
/// run for contrast: (shape, metric, repeats).
const FULL_PROBES: [(Shape, &str, usize); 3] = [
    ((Family::Chain, 256, 2000), "knl-sim.chain_mev_per_s", 3),
    ((Family::Pipeline, 48, 600), "knl-sim.pipeline_mev_per_s", 5),
    (
        (Family::BarrierStorm, 64, 1000),
        "knl-sim.barrier_mev_per_s",
        5,
    ),
];
const SMOKE_PROBES: [(Shape, &str, usize); 3] = [
    ((Family::Chain, 64, 100), "knl-sim.chain_mev_per_s", 2),
    ((Family::Pipeline, 24, 40), "knl-sim.pipeline_mev_per_s", 2),
    (
        (Family::BarrierStorm, 32, 100),
        "knl-sim.barrier_mev_per_s",
        2,
    ),
];

fn label((family, threads, ops): Shape) -> String {
    format!("{}-{threads}x{ops}", family.name())
}

fn step_name(label: &str) -> String {
    format!("knl_sim::Simulator::run_stats/{label}")
}

/// Engine-independent events of a program, in millions: one start and one
/// completion per op, as `BENCH_sim_engine.json` counts them.
fn mevents(prog: &Program) -> f64 {
    2.0 * prog.ops().len() as f64 / 1e6
}

struct Case {
    label: String,
    family: Family,
    prog: Program,
    /// `run_reference`'s makespan, computed in set-up.
    reference: f64,
    /// Makespan pinned in `expected.json`, when there is one.
    pinned: Option<f64>,
    /// Latest optimized-engine result; the stats must repeat exactly.
    makespan: f64,
    first_stats: Option<EngineStats>,
}

pub struct SimFanin {
    sim: Simulator,
    cases: Vec<Case>,
    probes: Vec<(String, Program, &'static str, usize)>,
    pins_checked: bool,
    degraded: Option<String>,
}

impl SimFanin {
    pub fn new(setup: &Setup) -> Self {
        let sim = Simulator::new(MachineConfig::knl_7250(MemMode::Flat));
        let (shapes, probes) = match setup.size {
            Size::Full => (FULL, FULL_PROBES),
            Size::Smoke => (SMOKE, SMOKE_PROBES),
        };
        let cases: Vec<Case> = shapes
            .into_iter()
            .map(|shape| {
                let label = label(shape);
                let prog = build_program(shape.0, shape.1, shape.2);
                // A program the reference loop rejects fails every check
                // by value (NaN compares unequal); nothing panics.
                let reference = sim.run_reference(&prog).map_or(f64::NAN, |r| r.makespan);
                let pinned = setup
                    .pins
                    .iter()
                    .find(|p| p.key == label)
                    .and_then(|p| p.value.parse().ok());
                Case {
                    label,
                    family: shape.0,
                    prog,
                    reference,
                    pinned,
                    makespan: f64::NAN,
                    first_stats: None,
                }
            })
            .collect();
        let degraded = cases.iter().any(|c| c.pinned.is_none()).then(|| {
            format!(
                "no pinned makespans for {} size: checked against run_reference only",
                setup.size.label()
            )
        });
        SimFanin {
            sim,
            cases,
            probes: probes
                .into_iter()
                .map(|(shape, metric, reps)| {
                    (
                        label(shape),
                        build_program(shape.0, shape.1, shape.2),
                        metric,
                        reps,
                    )
                })
                .collect(),
            pins_checked: false,
            degraded,
        }
    }

    fn family_mevents(&self, family: Option<Family>) -> f64 {
        self.cases
            .iter()
            .filter(|c| family.is_none_or(|f| c.family == f))
            .map(|c| mevents(&c.prog))
            .sum()
    }

    /// Per recorded cycle: seconds the engine spent on the programs of
    /// `family` (all of them for `None`).
    fn family_seconds(&self, spans: &Spans, family: Option<Family>) -> Vec<f64> {
        let mut total: Vec<f64> = Vec::new();
        for c in self
            .cases
            .iter()
            .filter(|c| family.is_none_or(|f| c.family == f))
        {
            let seconds = spans.seconds(&step_name(&c.label));
            total.resize(seconds.len().max(total.len()), 0.0);
            for (t, s) in total.iter_mut().zip(seconds) {
                *t += s;
            }
        }
        total
    }
}

impl Workload for SimFanin {
    fn sizes(&self) -> String {
        let programs: Vec<String> = self
            .cases
            .iter()
            .map(|c| format!("{} ({} ops)", c.label, c.prog.ops().len()))
            .collect();
        format!(
            "{}; KNL 7250 flat; seed unused (no randomness)",
            programs.join(", ")
        )
    }

    fn work_per_cycle(&self) -> (f64, &'static str) {
        (self.family_mevents(None), "Mevents/s")
    }

    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        for case in &mut self.cases {
            let result = tr.step(&step_name(&case.label), |_| self.sim.run_stats(&case.prog));
            let (makespan, stats) = match result {
                Ok((report, stats)) => (report.makespan, Some(stats)),
                Err(_) => (f64::NAN, None),
            };
            case.makespan = makespan;
            check_close(ops, &case.label, makespan, case.reference);
            let first = *case.first_stats.get_or_insert(stats.unwrap_or_default());
            ops.check(stats == Some(first), || {
                format!(
                    "{}: engine stats changed between cycles: {stats:?} != {first:?}",
                    case.label
                )
            });
        }
        if !self.pins_checked {
            self.pins_checked = true;
            for case in &self.cases {
                if let Some(pinned) = case.pinned {
                    check_close(
                        ops,
                        &format!("{} vs expected.json", case.label),
                        case.makespan,
                        pinned,
                    );
                }
            }
            if let Some(remark) = &self.degraded {
                ops.note(remark.clone());
            }
        }
    }

    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        for (label, prog, _, reps) in &self.probes {
            let mut makespans = Vec::new();
            for _ in 0..*reps {
                let result = tr.step(&step_name(label), |_| self.sim.run_stats(prog));
                makespans.push(result.map_or(f64::NAN, |(r, _)| r.makespan));
            }
            ops.check(
                makespans
                    .iter()
                    .all(|m| m.to_bits() == makespans[0].to_bits()),
                || format!("{label}: makespan changed between repeats: {makespans:?}"),
            );
        }
    }

    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics) {
        for (metric, family) in [
            ("knl-sim.fanin_mev_per_s", None),
            ("knl-sim.stencil_mev_per_s", Some(Family::Stencil)),
            ("knl-sim.fanout_mev_per_s", Some(Family::Fanout)),
        ] {
            out.rate(
                metric,
                self.family_mevents(family),
                &self.family_seconds(spans, family),
            );
        }
        for (label, prog, metric, _) in &self.probes {
            out.rate(metric, mevents(prog), &spans.seconds(&step_name(label)));
        }

        let stats: Vec<EngineStats> = self.cases.iter().filter_map(|c| c.first_stats).collect();
        let live: u64 = stats.iter().map(|s| s.events).sum();
        let stale: u64 = stats.iter().map(|s| s.stale_events).sum();
        out.value("knl-sim.fanin_stale_events", stale as f64);
        // Heap pops that were live events, of all heap pops.
        out.value(
            "knl-sim.fanin_useful_frac",
            live as f64 / (live + stale).max(1) as f64,
        );
        out.value(
            "knl-sim.fanin_rate_recomputes",
            stats.iter().map(|s| s.rate_recomputes).sum::<u64>() as f64,
        );
        out.value(
            "knl-sim.fanin_heap_peak",
            stats.iter().map(|s| s.heap_peak).max().unwrap_or(0) as f64,
        );
    }

    fn exact(&self) -> Vec<Exact> {
        self.cases
            .iter()
            .map(|c| Exact {
                key: c.label.clone(),
                value: c.makespan.to_string(),
            })
            .collect()
    }
}
