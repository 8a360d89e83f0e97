//! Running one workload in this process: set-up, warm-up, timed cycles,
//! and — for the traced run — spans, probes and the per-layer metrics.

use std::time::Instant;

use serde::value::Value;
use serde::{Deserialize, Serialize};

use crate::check::Ops;
use crate::harness::{self, cpu_seconds, peak_rss_mib, summarize, thread_budget};
use crate::metrics::{Exact, LayerMetrics, Metric, WorkloadReport};
use crate::trace::Tracer;
use crate::workloads::{self, Entry, Setup, Size, Workload};

/// Seed of a run that names none.
pub const DEFAULT_SEED: u64 = 1;
/// `run_seconds` of `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 12.0;

/// Set-ups per untraced run, at least; `setup_s` is their median. A
/// set-up of microseconds repeats until [`SETUP_SECONDS`] have passed, so
/// its median is steady from run to run as well.
const SETUP_REPEATS: usize = 3;
const SETUP_SECONDS: f64 = 0.3;
const SETUP_REPEATS_MAX: usize = 2000;
/// Timed cycles a run takes at least, however short `--seconds` is.
const MIN_CYCLES: usize = 3;
/// Share of `--seconds` the traced run spends cycling the named workload
/// (alternating recording off and on); the rest of its time goes to one
/// cycle of each other workload and to the probes.
const TRACED_SHARE: f64 = 1.0 / 3.0;

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Options {
    pub seed: u64,
    pub seconds: f64,
    pub size: Size,
}

/// The pinned values `--bless` writes to `expected.json`.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Expected {
    pub pins: Vec<Pin>,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Pin {
    pub workload: String,
    pub key: String,
    pub value: String,
}

impl Expected {
    pub fn path() -> String {
        format!("{}/expected.json", env!("CARGO_MANIFEST_DIR"))
    }

    /// Load `expected.json`; a missing or unreadable file pins nothing, and
    /// the workloads that wanted pins say so in their notes.
    pub fn load() -> Expected {
        std::fs::read_to_string(Self::path())
            .ok()
            .and_then(|text| serde_json::from_str(&text).ok())
            .unwrap_or_default()
    }

    /// The pins that apply to `entry` under `opts`: full size only.
    fn pins_for(&self, entry: &Entry, opts: &Options) -> Vec<Exact> {
        let applies = opts.size == Size::Full && entry.pinned;
        self.pins
            .iter()
            .filter(|p| applies && p.workload == entry.name)
            .map(|p| Exact {
                key: p.key.clone(),
                value: p.value.clone(),
            })
            .collect()
    }
}

fn build(entry: &Entry, opts: &Options, expected: &Expected) -> Box<dyn Workload> {
    let pins = expected.pins_for(entry, opts);
    (entry.build)(&Setup {
        seed: opts.seed,
        size: opts.size,
        threads: thread_budget(),
        pins: &pins,
    })
}

/// Run one cycle as a `cycle` group; returns its timed seconds and the
/// CPU seconds the whole group burned (checks included — a diagnostic).
fn one_cycle(
    name: &'static str,
    index: u32,
    workload: &mut dyn Workload,
    tr: &mut Tracer,
    ops: &mut Ops,
) -> (f64, f64) {
    tr.set_context(name, index);
    tr.take_timed();
    let cpu = cpu_seconds();
    tr.group("cycle", |tr| workload.cycle(tr, ops));
    (tr.take_timed(), cpu_seconds() - cpu)
}

fn min_cycles(opts: &Options) -> usize {
    match opts.size {
        Size::Full => MIN_CYCLES,
        Size::Smoke => 2,
    }
}

/// `wall_s` of a set of cycle times: the fastest (see [`Metric::best_of`]).
fn best(walls: &[f64]) -> f64 {
    summarize(walls).min
}

fn report(
    entry: &Entry,
    workload: &dyn Workload,
    ops: Ops,
    wall: f64,
    metrics: Vec<Metric>,
) -> WorkloadReport {
    let (work, rate_unit) = workload.work_per_cycle();
    let mut notes = workload.remarks();
    notes.extend(ops.notes);
    WorkloadReport {
        name: entry.name.to_string(),
        sizes: workload.sizes(),
        ops_attempted: ops.attempted,
        ops_failed: ops.failed,
        notes,
        rate: work / wall.max(1e-12),
        rate_unit: rate_unit.to_string(),
        metrics,
        exact: workload.exact(),
    }
}

/// The untraced run: the three end-to-end metrics of `entry`.
pub fn run_untraced(entry: &Entry, opts: &Options, expected: &Expected) -> WorkloadReport {
    // Everything before the first warm-up cycle, several times over; the
    // previous instance is dropped first so peak RSS sees one at a time.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut workload = None;
    let setting_up = Instant::now();
    while setups.len() < SETUP_REPEATS
        || (setups.len() < SETUP_REPEATS_MAX && setting_up.elapsed().as_secs_f64() < SETUP_SECONDS)
    {
        drop(workload.take());
        let start = Instant::now();
        workload = Some(build(entry, opts, expected));
        setups.push(start.elapsed().as_secs_f64());
    }
    let mut workload = workload.expect("SETUP_REPEATS > 0");

    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    one_cycle(entry.name, 0, workload.as_mut(), &mut tr, &mut ops);

    let mut walls = Vec::new();
    let start = Instant::now();
    while walls.len() < min_cycles(opts) || start.elapsed().as_secs_f64() < opts.seconds {
        let index = walls.len() as u32 + 1;
        let (wall, _) = one_cycle(entry.name, index, workload.as_mut(), &mut tr, &mut ops);
        walls.push(wall);
    }

    let metrics = vec![
        Metric::best_of("wall_s", "s", &walls),
        Metric::single("peak_rss_mib", "MiB", peak_rss_mib()),
        Metric::from_samples("setup_s", "s", &setups),
    ];
    report(entry, workload.as_ref(), ops, best(&walls), metrics)
}

/// The traced run: every per-layer metric. The workload named `entry`
/// gets the cycles (alternating recording off and on, which is what
/// `harness.trace_overhead_frac` compares); each other workload gets one
/// warmed, recorded cycle; every workload then probes the layers under it.
/// The spans go to `benchmark/out/trace-<entry>.json`.
pub fn run_traced(
    entry: &Entry,
    opts: &Options,
    expected: &Expected,
) -> Result<WorkloadReport, String> {
    let mut tr = Tracer::new();
    let mut ops = Ops::default();
    let mut layers = LayerMetrics::default();
    let mut named = None;
    let mut wall = f64::NAN;

    let named_first =
        std::iter::once(entry).chain(workloads::ALL.iter().filter(|e| e.name != entry.name));
    for e in named_first {
        let is_named = e.name == entry.name;
        let mut workload = build(e, opts, expected);
        let mut e_ops = Ops::default();
        tr.set_recording(false);
        one_cycle(e.name, 0, workload.as_mut(), &mut tr, &mut e_ops);

        if is_named {
            let (mut plain, mut recorded, mut cpu) = (Vec::new(), Vec::new(), Vec::new());
            let budget = opts.seconds * TRACED_SHARE;
            let start = Instant::now();
            while plain.len() < min_cycles(opts).div_ceil(2)
                || start.elapsed().as_secs_f64() < budget
            {
                for record in [false, true] {
                    tr.set_recording(record);
                    let index = (plain.len() + recorded.len()) as u32 + 1;
                    let (wall, burned) =
                        one_cycle(e.name, index, workload.as_mut(), &mut tr, &mut e_ops);
                    if record { &mut recorded } else { &mut plain }.push(wall);
                    cpu.push(burned);
                }
            }
            layers.samples("harness.cpu_s", &cpu);
            layers.value("harness.wall_iqr_frac", summarize(&plain).iqr_frac());
            layers.value(
                "harness.trace_overhead_frac",
                best(&recorded) / best(&plain) - 1.0,
            );
            wall = best(&plain);
        } else {
            tr.set_recording(true);
            one_cycle(e.name, 1, workload.as_mut(), &mut tr, &mut e_ops);
        }

        tr.set_recording(true);
        tr.set_context(e.name, 0);
        tr.group("probes", |tr| workload.probes(tr, &mut e_ops));
        tr.take_timed();
        workload.layer_metrics(&tr.of(e.name), &mut layers);
        ops.absorb(e.name, e_ops);
        if is_named {
            named = Some(workload);
        }
    }

    let workload = named.expect("the named workload ran first");
    let metrics = layers
        .into_registry_order()
        .map_err(|wrong| format!("per-layer metrics incomplete: {}", wrong.join(", ")))?;

    let dir = format!("{}/out", env!("CARGO_MANIFEST_DIR"));
    let path = format!("{dir}/trace-{}.json", entry.name);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(&path, crate::json::to_text(&tr.chrome_trace())))
        .map_err(|e| format!("cannot write {path}: {e}"))?;
    let mut report = report(entry, workload.as_ref(), ops, wall, metrics);
    report.notes.push(format!(
        "{} spans written to benchmark/out/trace-{}.json",
        tr.spans().len(),
        entry.name
    ));
    Ok(report)
}

/// Run every pinned workload once at full size and write `expected.json`.
pub fn bless() -> Result<Expected, String> {
    let opts = Options {
        seed: DEFAULT_SEED,
        seconds: 0.0,
        size: Size::Full,
    };
    let mut expected = Expected::default();
    for entry in workloads::ALL.iter().filter(|e| e.pinned) {
        let mut workload = build(entry, &opts, &Expected::default());
        let mut ops = Ops::default();
        one_cycle(
            entry.name,
            0,
            workload.as_mut(),
            &mut Tracer::new(),
            &mut ops,
        );
        if ops.failed > 0 {
            return Err(format!(
                "{}: refusing to bless a run with failed checks: {:?}",
                entry.name, ops.notes
            ));
        }
        expected
            .pins
            .extend(workload.exact().into_iter().map(|x| Pin {
                workload: entry.name.to_string(),
                key: x.key,
                value: x.value,
            }));
    }
    let text = serde_json::to_string(&expected).map_err(|e| e.to_string())?;
    std::fs::write(Expected::path(), crate::json::pretty(&text) + "\n")
        .map_err(|e| format!("cannot write {}: {e}", Expected::path()))?;
    Ok(expected)
}

/// Print one workload's report for a person: every metric by name with
/// its unit, spread and sample count, then the op tally.
pub fn print_report(report: &WorkloadReport, opts: &Options, traced: bool) {
    println!(
        "workload {}  seed {}  size {}  {}",
        report.name,
        opts.seed,
        opts.size.label(),
        if traced { "traced" } else { "untraced" }
    );
    println!("  sizes: {}", report.sizes);
    for m in &report.metrics {
        if m.n > 1 {
            println!(
                "  {:<42} {:>14.6} {:<10} median {:.6}  q1 {:.6}  q3 {:.6}  mad {:.6}  min {:.6}  n {}",
                m.name, m.value, m.unit, m.median, m.q1, m.q3, m.mad, m.min, m.n
            );
        } else {
            println!("  {:<42} {:>14.6} {}", m.name, m.value, m.unit);
        }
    }
    println!(
        "  {:<42} {:>14.6} {}  (derived from wall_s; printed, not gated)",
        "rate", report.rate, report.rate_unit
    );
    for x in &report.exact {
        println!("  exact {:<36} {}", x.key, x.value);
    }
    for note in &report.notes {
        println!("  note: {note}");
    }
    println!(
        "  ops_attempted {}  ops_failed {}",
        report.ops_attempted, report.ops_failed
    );
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics`, the latter `name → {value, unit}`.
pub fn contract_line(report: &WorkloadReport) -> String {
    let metrics = report
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.clone(),
                Value::Map(vec![
                    ("value".into(), Value::F64(m.value)),
                    ("unit".into(), Value::Str(m.unit.clone())),
                ]),
            )
        })
        .collect();
    crate::json::to_text(&Value::Map(vec![
        ("correct".into(), Value::Bool(report.ops_failed == 0)),
        ("attempted".into(), Value::U64(report.ops_attempted.max(1))),
        ("failed".into(), Value::U64(report.ops_failed)),
        ("metrics".into(), Value::Map(metrics)),
    ]))
}

/// The machine block, printed once per run.
pub fn print_machine(machine: &harness::Machine) {
    println!(
        "machine: T={} nproc={} cpu=\"{}\" llc={} B ram={} B rustc=\"{}\" commit={}",
        machine.threads,
        machine.nproc,
        machine.cpu_model,
        machine.llc_bytes,
        machine.ram_bytes,
        machine.rustc,
        machine.git_commit
    );
}
