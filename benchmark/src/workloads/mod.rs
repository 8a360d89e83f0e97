//! The six workloads. Each file sets one up from a seed, runs one
//! *cycle* of it as a sequence of traced steps into the layers' public
//! functions, checks every result, and — in the traced run — probes the
//! layers underneath on the same inputs.

mod fleet;
mod host_pipe;
mod host_sort;
mod sim_fanin;
mod sim_repro;

use crate::check::Ops;
use crate::metrics::{Exact, LayerMetrics};
use crate::trace::{Spans, Tracer};

/// Input scale. `Smoke` finishes each workload in under two seconds and
/// is only good for testing the benchmark itself; `compare` refuses it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Size {
    pub fn label(self) -> &'static str {
        match self {
            Size::Full => "full",
            Size::Smoke => "smoke",
        }
    }
}

/// What a workload is set up from. The program under test receives only
/// the inputs generated from `seed`, never the seed or the workload name.
pub struct Setup<'a> {
    pub seed: u64,
    pub size: Size,
    /// Thread budget `T`.
    pub threads: usize,
    /// Pinned `key → value` pairs from `expected.json` for this workload,
    /// empty when the size has none.
    pub pins: &'a [Exact],
}

pub trait Workload {
    /// The sizes actually run, for the report.
    fn sizes(&self) -> String;

    /// Work done per cycle and its unit per second (`Melem/s`, `GB/s`, ...).
    fn work_per_cycle(&self) -> (f64, &'static str);

    /// One cycle: every call into a layer goes through `tr.step`, every
    /// result through `ops`. Anything outside a step is untimed.
    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops);

    /// Traced run only: time the layers underneath on this workload's
    /// inputs, as further steps.
    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops);

    /// Traced run only: this workload's per-layer metrics, from its
    /// recorded spans and the reports the layers returned.
    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics);

    /// Values that must repeat exactly across cycles, runs and (for the
    /// pinned ones) commits.
    fn exact(&self) -> Vec<Exact> {
        Vec::new()
    }

    /// Lines to print beside the metrics that are not metrics: a size
    /// against a cache, which stage was the bottleneck.
    fn remarks(&self) -> Vec<String> {
        Vec::new()
    }
}

/// One registry row: the name (its one-line reason is in
/// `BENCHMARK.json`) and the set-up.
pub struct Entry {
    pub name: &'static str,
    /// `expected.json` pins this workload's exact values across commits.
    /// Only workloads whose inputs ignore the seed can be pinned.
    pub pinned: bool,
    pub build: fn(&Setup) -> Box<dyn Workload>,
}

/// The workloads in report order.
pub const ALL: [Entry; 6] = [
    Entry {
        name: "host_sort",
        pinned: false,
        build: |s| Box::new(host_sort::HostSort::new(s)),
    },
    Entry {
        name: "host_pipe",
        pinned: false,
        build: |s| Box::new(host_pipe::HostPipe::new(s)),
    },
    Entry {
        name: "sim_repro",
        pinned: false,
        build: |s| Box::new(sim_repro::SimRepro::new(s)),
    },
    Entry {
        name: "sim_fanin",
        pinned: true,
        build: |s| Box::new(sim_fanin::SimFanin::new(s)),
    },
    Entry {
        name: "fleet_overload",
        pinned: true,
        build: |s| Box::new(fleet::Fleet::new(s, fleet::Load::Over)),
    },
    Entry {
        name: "fleet_underload",
        pinned: true,
        build: |s| Box::new(fleet::Fleet::new(s, fleet::Load::Under)),
    },
];

pub fn find(name: &str) -> Option<&'static Entry> {
    ALL.iter().find(|e| e.name == name)
}

/// Time a call too short for one clock read: `reps` steps named `step`,
/// each `batch` calls of `f`. Report with [`LayerMetrics::cost`] scaled
/// by `1 / batch`.
fn batched<R>(tr: &mut Tracer, step: &str, reps: usize, batch: usize, mut f: impl FnMut() -> R) {
    for _ in 0..reps {
        tr.step(step, |_| {
            for _ in 0..batch {
                std::hint::black_box(f());
            }
        });
    }
}
