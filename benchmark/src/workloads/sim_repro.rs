//! `sim_repro`: regenerate committed results in virtual time.
//!
//! This is the repo's user-facing product — wall-clock to regenerate what
//! `results/` holds — dominated by `mlm-exec` plan lowering,
//! `mlm-core`'s sim lowerings and the `knl-sim` engine on barrier- and
//! chain-shaped programs, where the engine is already fast. A cycle
//! regenerates all of Table 1, the Figure 7 cells from 0.5 B-element
//! megachunks up, and one Table 3 row, by the same calls
//! `mlm_bench::experiments::{table1, fig7, table3}` make — taken apart so
//! lowering and engine time can be told from study glue. The seed is
//! unused: nothing here is random.

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::Program;
use knl_sim::{SimReport, Simulator};
use mlm_bench::experiments::{machine_for, megachunk_for};
use mlm_bench::report::secs;
use mlm_bench::{paper, BILLION, PAPER_THREADS};
use mlm_core::merge_bench::{merge_bench_program, MergeBenchParams};
use mlm_core::sort::sim::build_sort_program;
use mlm_core::{Calibration, InputOrder, ModelParams, SortAlgorithm, SortWorkload};
use mlm_exec::{
    interpret, plan_pipeline, plan_sort, ChunkSortStyle, NullBackend, PipelineSpec, SortStructure,
};

use super::{batched, Setup, Size, Workload};
use crate::check::{check_cell, parse_csv, Ops};
use crate::metrics::LayerMetrics;
use crate::trace::{Spans, Tracer};

const TABLE1: &str = "mlm_bench::table1";
const FIG7: &str = "mlm_bench::fig7";
const TABLE3: &str = "mlm_bench::table3";
const LOWER_SORT: &str = "mlm_core::build_sort_program";
const LOWER_PIPE: &str = "mlm_core::merge_bench_program";
const ENGINE: &str = "knl_sim::Simulator::run_stats";
const PLAN_PIPELINE: &str = "mlm_exec::plan_pipeline";
const VERIFY_SPEC: &str = "mlm_exec::verify_spec";
const PLAN_SORT: &str = "mlm_exec::plan_sort+to_workload_plan";
const INTERPRET: &str = "mlm_exec::interpret/NullBackend";
const MODEL: &str = "mlm_core::ModelParams::optimal_copy_threads";

/// Calls per timed step of the microsecond-scale probes.
const PLAN_BATCH: usize = 100;
const VERIFY_BATCH: usize = 10;
const MODEL_BATCH: usize = 1000;

/// Figure 7's megachunk sweep, as `experiments::fig7` has it.
const FIG7_SWEEP: [u64; 8] = [
    BILLION / 8,
    BILLION / 4,
    BILLION / 2,
    BILLION,
    3 * BILLION / 2,
    2 * BILLION,
    3 * BILLION,
    6 * BILLION,
];

/// Copy-thread candidates of Table 3's empirical column.
const TABLE3_CANDIDATES: [usize; 6] = [1, 2, 4, 8, 16, 32];

struct Table1Cell {
    n: u64,
    order: InputOrder,
    algorithm: SortAlgorithm,
    paper_mean: f64,
    /// The committed row: elements, order, algorithm, sim, ..., sim/paper.
    committed: Vec<String>,
}

struct Fig7Cell {
    algorithm: SortAlgorithm,
    megachunk: u64,
    committed: Vec<String>,
}

struct Table3Row {
    repeats: u32,
    candidates: Vec<usize>,
    /// `None` at smoke size, where the narrowed sweep is not the study's.
    committed: Option<Vec<String>>,
}

pub struct SimRepro {
    cal: Calibration,
    table1: Vec<Table1Cell>,
    fig7: Vec<Fig7Cell>,
    table3: Vec<Table3Row>,
    /// Totals of the last cycle; each must repeat exactly.
    events: u64,
    sort_ops: u64,
    geo_err: f64,
    first_totals: Option<(u64, u64, u64)>,
    /// The largest committed pipeline spec (128 chunks), for the probes.
    probe_spec: PipelineSpec,
}

/// The committed CSV for `study`. Read at run time, from the checkout the
/// binary was built in: reading is part of set-up.
fn committed_csv(study: &str) -> Vec<Vec<String>> {
    let path = format!("{}/../results/{study}.csv", env!("CARGO_MANIFEST_DIR"));
    match std::fs::read_to_string(&path) {
        Ok(text) => parse_csv(&text),
        // Every cell then fails its check by name; nothing panics.
        Err(_) => Vec::new(),
    }
}

/// Row `i` of a parsed CSV (header excluded), or an empty row.
fn row(csv: &[Vec<String>], i: usize) -> Vec<String> {
    csv.get(i + 1).cloned().unwrap_or_default()
}

fn cell(committed: &[String], column: usize) -> &str {
    committed.get(column).map_or("<missing>", String::as_str)
}

impl SimRepro {
    pub fn new(setup: &Setup) -> Self {
        let smoke = setup.size == Size::Smoke;
        let csv = committed_csv("table1");
        let mut table1 = Vec::new();
        let mut i = 0;
        for n in [2 * BILLION, 4 * BILLION, 6 * BILLION] {
            for order in InputOrder::PAPER {
                for algorithm in SortAlgorithm::TABLE1 {
                    let paper_mean =
                        paper::table1_row(n, order, algorithm).map_or(f64::NAN, |p| p.mean);
                    if !smoke || n == 2 * BILLION {
                        table1.push(Table1Cell {
                            n,
                            order,
                            algorithm,
                            paper_mean,
                            committed: row(&csv, i),
                        });
                    }
                    i += 1;
                }
            }
        }

        let csv = committed_csv("fig7");
        let smallest = if smoke { 2 * BILLION } else { BILLION / 2 };
        let mut fig7 = Vec::new();
        let mut i = 0;
        for algorithm in [SortAlgorithm::MlmSort, SortAlgorithm::MlmImplicit] {
            for megachunk in FIG7_SWEEP {
                if megachunk >= smallest {
                    fig7.push(Fig7Cell {
                        algorithm,
                        megachunk,
                        committed: row(&csv, i),
                    });
                }
                i += 1;
            }
        }

        let csv = committed_csv("table3");
        let table3 = paper::TABLE3
            .iter()
            .enumerate()
            .filter(|(_, &(repeats, _, _))| repeats == 8)
            .map(|(i, &(repeats, _, _))| Table3Row {
                repeats,
                candidates: if smoke {
                    vec![8]
                } else {
                    TABLE3_CANDIDATES.to_vec()
                },
                committed: (!smoke).then(|| row(&csv, i)),
            })
            .collect();

        SimRepro {
            cal: Calibration::default(),
            table1,
            fig7,
            table3,
            events: 0,
            sort_ops: 0,
            geo_err: 0.0,
            first_totals: None,
            probe_spec: mlm_verify::graph::largest_committed_spec().1,
        }
    }

    /// Run one lowered program, counting its engine-independent events
    /// (one start and one completion per op, as `BENCH_sim_engine.json`
    /// counts them).
    fn run(
        &mut self,
        tr: &mut Tracer,
        machine: MachineConfig,
        prog: &Program,
    ) -> Option<SimReport> {
        self.events += 2 * prog.ops().len() as u64;
        tr.step(ENGINE, |_| Simulator::new(machine).run_stats(prog))
            .ok()
            .map(|(report, _)| report)
    }

    fn sort_cell(
        &mut self,
        tr: &mut Tracer,
        n: u64,
        order: InputOrder,
        algorithm: SortAlgorithm,
        megachunk: u64,
    ) -> Option<f64> {
        let machine = machine_for(algorithm);
        let prog = tr
            .step(LOWER_SORT, |_| {
                build_sort_program(
                    &machine,
                    &self.cal,
                    SortWorkload::int64(n, order),
                    algorithm,
                    megachunk,
                    PAPER_THREADS,
                )
            })
            .ok()?;
        self.sort_ops += prog.ops().len() as u64;
        self.run(tr, machine, &prog).map(|r| r.makespan)
    }

    fn regenerate_table1(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let mut log_err = 0.0;
        for i in 0..self.table1.len() {
            let (n, order, algorithm) = {
                let c = &self.table1[i];
                (c.n, c.order, c.algorithm)
            };
            let sim = self.sort_cell(tr, n, order, algorithm, megachunk_for(algorithm, n));
            let c = &self.table1[i];
            let regenerated = match sim {
                Some(s) => {
                    log_err += (s / c.paper_mean - 1.0).abs().max(1e-12).ln();
                    [
                        n.to_string(),
                        order.label().to_string(),
                        algorithm.label().to_string(),
                        secs(s),
                        format!("{:.2}", s / c.paper_mean),
                    ]
                    .join(",")
                }
                None => "simulation failed".to_string(),
            };
            let committed = [0, 1, 2, 3, 6].map(|col| cell(&c.committed, col)).join(",");
            check_cell(
                ops,
                &format!("table1 row {}", i + 1),
                &regenerated,
                &committed,
            );
        }
        self.geo_err = (log_err / self.table1.len().max(1) as f64).exp();
    }

    fn regenerate_fig7(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        for i in 0..self.fig7.len() {
            let (algorithm, megachunk) = (self.fig7[i].algorithm, self.fig7[i].megachunk);
            let sim = self.sort_cell(tr, 6 * BILLION, InputOrder::Random, algorithm, megachunk);
            let regenerated = [
                algorithm.label().to_string(),
                megachunk.to_string(),
                sim.map_or_else(
                    || "infeasible (exceeds MCDRAM)".to_string(),
                    |s| format!("{s:.2}"),
                ),
            ]
            .join(",");
            let committed = self.fig7[i].committed.join(",");
            check_cell(
                ops,
                &format!("fig7 {} @ {megachunk}", algorithm.label()),
                &regenerated,
                &committed,
            );
        }
    }

    fn regenerate_table3(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let machine = MachineConfig::knl_7250(MemMode::Flat);
        let model = ModelParams::paper_table2();
        for i in 0..self.table3.len() {
            let repeats = self.table3[i].repeats;
            let (model_best, _) = model.optimal_copy_threads(repeats);
            // `empirical_optimal_copy_threads`, taken apart: lower, run,
            // keep the fastest with its epsilon tie-break towards fewer
            // copy threads.
            let mut best: Option<(usize, f64)> = None;
            for c in self.table3[i].candidates.clone() {
                let params = MergeBenchParams::paper(c, repeats);
                if params.compute_threads() == 0 {
                    continue;
                }
                let Ok(prog) = tr.step(LOWER_PIPE, |_| {
                    merge_bench_program(&machine, &self.cal, &params)
                }) else {
                    continue;
                };
                let Some(report) = self.run(tr, machine.clone(), &prog) else {
                    continue;
                };
                if best.is_none_or(|(_, t)| report.makespan < t * (1.0 - 1e-9)) {
                    best = Some((c, report.makespan));
                }
            }
            match &self.table3[i].committed {
                Some(committed) => {
                    let regenerated = format!(
                        "{repeats},{model_best},{}",
                        best.map_or("none".to_string(), |(c, _)| c.to_string())
                    );
                    let committed = [0, 1, 2].map(|col| cell(committed, col)).join(",");
                    check_cell(
                        ops,
                        &format!("table3 repeats {repeats}"),
                        &regenerated,
                        &committed,
                    );
                }
                None => {
                    ops.note(
                        "smoke: Table 3 swept one candidate; its optimum is not compared".into(),
                    );
                    ops.check(best.is_some(), || {
                        format!("table3 repeats {repeats}: nothing ran")
                    });
                }
            }
        }
    }
}

impl Workload for SimRepro {
    fn sizes(&self) -> String {
        format!(
            "Table 1: {} cells; Figure 7: {} cells (megachunk >= {}); Table 3: repeats {:?} x {} \
             copy-thread candidates; {} simulated threads; seed unused (no randomness)",
            self.table1.len(),
            self.fig7.len(),
            self.fig7.iter().map(|c| c.megachunk).min().unwrap_or(0),
            self.table3.iter().map(|r| r.repeats).collect::<Vec<_>>(),
            self.table3.first().map_or(0, |r| r.candidates.len()),
            PAPER_THREADS
        )
    }

    fn work_per_cycle(&self) -> (f64, &'static str) {
        let programs = self.table1.len()
            + self.fig7.len()
            + self
                .table3
                .iter()
                .map(|r| r.candidates.len())
                .sum::<usize>();
        (programs as f64, "programs/s")
    }

    fn cycle(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        self.events = 0;
        self.sort_ops = 0;
        tr.step(TABLE1, |tr| self.regenerate_table1(tr, ops));
        tr.step(FIG7, |tr| self.regenerate_fig7(tr, ops));
        tr.step(TABLE3, |tr| self.regenerate_table3(tr, ops));
        let totals = (self.events, self.sort_ops, self.geo_err.to_bits());
        let first = *self.first_totals.get_or_insert(totals);
        ops.check(totals == first, || {
            format!("event, op or error totals changed between cycles: {totals:?} != {first:?}")
        });
    }

    fn probes(&mut self, tr: &mut Tracer, ops: &mut Ops) {
        let spec = self.probe_spec.clone();
        batched(tr, PLAN_PIPELINE, 5, PLAN_BATCH, || plan_pipeline(&spec));

        let budget = MachineConfig::knl_7250(MemMode::Flat).addressable_mcdram();
        batched(tr, VERIFY_SPEC, 5, VERIFY_BATCH, || {
            mlm_exec::graph::verify_spec(&spec, Some(budget))
        });
        let safe = mlm_exec::graph::verify_spec(&spec, Some(budget)).is_ok_and(|r| r.is_safe());
        ops.check(safe, || {
            format!("{VERIFY_SPEC}: largest committed spec not proven safe")
        });

        // The 6 B-element MLM-sort cell of Table 1.
        let n = 6 * BILLION;
        let megachunk = megachunk_for(SortAlgorithm::MlmSort, n);
        batched(tr, PLAN_SORT, 5, PLAN_BATCH, || {
            plan_sort(SortStructure::Staged, ChunkSortStyle::Serial, n, megachunk)
                .to_workload_plan()
        });

        let plan = plan_pipeline(&spec);
        batched(tr, INTERPRET, 5, PLAN_BATCH, || {
            let mut backend = NullBackend::new();
            interpret(&mut backend, &spec, &plan).map(|()| backend.issued())
        });

        let model = ModelParams::paper_table2();
        batched(tr, MODEL, 5, MODEL_BATCH, || {
            model.optimal_copy_threads(std::hint::black_box(8))
        });
    }

    fn layer_metrics(&self, spans: &Spans, out: &mut LayerMetrics) {
        let lower_sort = spans.cycle_sums(LOWER_SORT);
        let lower_pipe = spans.cycle_sums(LOWER_PIPE);
        let engine = spans.cycle_sums(ENGINE);
        out.samples("mlm-core.sort_lower_s", &lower_sort);
        out.value("mlm-core.sort_lower_ops", self.sort_ops as f64);
        out.samples("mlm-core.pipe_lower_s", &lower_pipe);
        out.samples("knl-sim.repro_run_s", &engine);
        out.value("knl-sim.repro_events", self.events as f64);
        out.rate("knl-sim.repro_mev_per_s", self.events as f64 / 1e6, &engine);
        out.value("knl-sim.table1_geo_err", self.geo_err);

        let studies = [
            spans.seconds(TABLE1),
            spans.seconds(FIG7),
            spans.seconds(TABLE3),
        ];
        for (metric, seconds) in [
            "mlm-bench.table1_s",
            "mlm-bench.fig7_s",
            "mlm-bench.table3_s",
        ]
        .into_iter()
        .zip(&studies)
        {
            out.samples(metric, seconds);
        }
        // What lowering and the engine leave of the cycle: paper look-ups,
        // formatting, the optimum search — the study glue.
        let [table1, fig7, table3] = &studies;
        let unexplained: Vec<f64> = table1
            .iter()
            .zip(fig7)
            .zip(table3)
            .zip(lower_sort.iter().zip(&lower_pipe).zip(&engine))
            .map(|(((t1, f7), t3), ((sort, pipe), run))| 1.0 - (sort + pipe + run) / (t1 + f7 + t3))
            .collect();
        out.samples("mlm-bench.repro_unexplained_frac", &unexplained);

        let nodes = plan_pipeline(&self.probe_spec).nodes.len() as f64;
        out.cost(
            "mlm-exec.plan_pipeline_us",
            1e6 / PLAN_BATCH as f64,
            &spans.seconds(PLAN_PIPELINE),
        );
        out.cost(
            "mlm-exec.verify_spec_us",
            1e6 / VERIFY_BATCH as f64,
            &spans.seconds(VERIFY_SPEC),
        );
        out.cost(
            "mlm-exec.plan_sort_us",
            1e6 / PLAN_BATCH as f64,
            &spans.seconds(PLAN_SORT),
        );
        out.cost(
            "mlm-exec.interpret_null_ns_per_node",
            1e9 / PLAN_BATCH as f64 / nodes,
            &spans.seconds(INTERPRET),
        );
        out.cost(
            "mlm-core.model_optimum_ns",
            1e9 / MODEL_BATCH as f64,
            &spans.seconds(MODEL),
        );
    }
}
