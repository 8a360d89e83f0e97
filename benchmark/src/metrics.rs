//! Metric names, units and directions — the registry `BENCHMARK.json`
//! repeats — and the value types a run reports them in.

use serde::{Deserialize, Serialize};

use crate::harness::{summarize, Better};

/// One per-layer metric of the registry. The part of the name before the
/// first `.` is the layer (a crate name, or `harness`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMetric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Must repeat bit-for-bit between two runs of one commit.
    pub exact: bool,
}

const fn rate(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Higher,
        exact: false,
    }
}

const fn cost(name: &'static str, unit: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit,
        better: Better::Lower,
        exact: false,
    }
}

/// A count made by the program. "Lower" reads as "less work for the same
/// result"; what matters is that it repeats exactly.
const fn count(name: &'static str) -> LayerMetric {
    LayerMetric {
        name,
        unit: "count",
        better: Better::Lower,
        exact: true,
    }
}

/// Every per-layer metric the traced run emits, in report order.
pub const PER_LAYER: &[LayerMetric] = &[
    // parsort — the kernels under host_sort.
    rate("parsort.introsort_melem_per_s", "Melem/s"),
    rate("parsort.introsort_reverse_melem_per_s", "Melem/s"),
    rate("parsort.multiway_merge_melem_per_s", "Melem/s"),
    rate("parsort.multiway_merge_1t_melem_per_s", "Melem/s"),
    rate("parsort.parallel_mergesort_melem_per_s", "Melem/s"),
    rate("parsort.parallel_copy_gbps", "GB/s"),
    rate("parsort.radix_melem_per_s", "Melem/s"),
    // mlm-stream — the roofline denominator.
    rate("mlm-stream.copy_gbps", "GB/s"),
    rate("mlm-stream.triad_gbps", "GB/s"),
    // mlm-exec — plan build, verify, interpret.
    cost("mlm-exec.plan_pipeline_us", "us"),
    cost("mlm-exec.verify_spec_us", "us"),
    cost("mlm-exec.plan_sort_us", "us"),
    cost("mlm-exec.interpret_null_ns_per_node", "ns"),
    // mlm-core, host side.
    rate("mlm-core.pipe_lockstep_gbps", "GB/s"),
    rate("mlm-core.pipe_dataflow_gbps", "GB/s"),
    rate("mlm-core.pipe_implicit_gbps", "GB/s"),
    rate("mlm-core.pipe_stencil_gbps", "GB/s"),
    rate("mlm-core.pipe_roofline_frac", "ratio"),
    cost("mlm-core.pipe_copy_in_busy_s", "s"),
    cost("mlm-core.pipe_compute_busy_s", "s"),
    cost("mlm-core.pipe_copy_out_busy_s", "s"),
    cost("mlm-core.pipe_copy_in_wait_s", "s"),
    cost("mlm-core.pipe_compute_wait_s", "s"),
    cost("mlm-core.pipe_copy_out_wait_s", "s"),
    rate("mlm-core.pipe_compute_occupancy", "ratio"),
    rate("mlm-core.pipe_compute_bound_gbps", "GB/s"),
    rate("mlm-core.sort_gnu_flat_melem_per_s", "Melem/s"),
    rate("mlm-core.sort_mlm_melem_per_s", "Melem/s"),
    rate("mlm-core.sort_mlm_implicit_melem_per_s", "Melem/s"),
    rate("mlm-core.sort_mlm_buffered_melem_per_s", "Melem/s"),
    cost("mlm-core.sort_unexplained_frac", "ratio"),
    // mlm-core, sim lowering and the Eqs. 1-5 model.
    cost("mlm-core.sort_lower_s", "s"),
    count("mlm-core.sort_lower_ops"),
    cost("mlm-core.pipe_lower_s", "s"),
    cost("mlm-core.model_optimum_ns", "ns"),
    // knl-sim — the event engine.
    cost("knl-sim.repro_run_s", "s"),
    count("knl-sim.repro_events"),
    rate("knl-sim.repro_mev_per_s", "Mevents/s"),
    rate("knl-sim.fanin_mev_per_s", "Mevents/s"),
    count("knl-sim.fanin_stale_events"),
    rate("knl-sim.fanin_useful_frac", "ratio"),
    count("knl-sim.fanin_rate_recomputes"),
    count("knl-sim.fanin_heap_peak"),
    rate("knl-sim.stencil_mev_per_s", "Mevents/s"),
    rate("knl-sim.fanout_mev_per_s", "Mevents/s"),
    rate("knl-sim.chain_mev_per_s", "Mevents/s"),
    rate("knl-sim.pipeline_mev_per_s", "Mevents/s"),
    rate("knl-sim.barrier_mev_per_s", "Mevents/s"),
    LayerMetric {
        name: "knl-sim.table1_geo_err",
        unit: "ratio",
        better: Better::Lower,
        exact: true,
    },
    // mlm-serve — one node.
    rate("mlm-serve.serve_fifo_jobs_per_s", "jobs/s"),
    rate("mlm-serve.serve_sjf_jobs_per_s", "jobs/s"),
    rate("mlm-serve.serve_fair_jobs_per_s", "jobs/s"),
    cost("mlm-serve.replay_s", "s"),
    rate("mlm-serve.trace_gen_jobs_per_s", "jobs/s"),
    // mlm-fleet — the dispatcher.
    rate("mlm-fleet.over_bestfit_jobs_per_s", "jobs/s"),
    rate("mlm-fleet.over_leastloaded_jobs_per_s", "jobs/s"),
    rate("mlm-fleet.over_firstfit_jobs_per_s", "jobs/s"),
    rate("mlm-fleet.under_bestfit_jobs_per_s", "jobs/s"),
    rate("mlm-fleet.under_leastloaded_jobs_per_s", "jobs/s"),
    rate("mlm-fleet.under_firstfit_jobs_per_s", "jobs/s"),
    count("mlm-fleet.over_steals"),
    count("mlm-fleet.under_steals"),
    count("mlm-fleet.over_decisions"),
    count("mlm-fleet.under_decisions"),
    cost("mlm-fleet.over_us_per_decision", "us"),
    cost("mlm-fleet.under_us_per_decision", "us"),
    // mlm-memkind, mlm-cluster.
    cost("mlm-memkind.alloc_free_ns", "ns"),
    cost("mlm-cluster.strong_scaling_s", "s"),
    // mlm-bench — the study drivers behind sim_repro.
    cost("mlm-bench.table1_s", "s"),
    cost("mlm-bench.fig7_s", "s"),
    cost("mlm-bench.table3_s", "s"),
    cost("mlm-bench.repro_unexplained_frac", "ratio"),
    // The harness itself, for the workload named by --workload.
    cost("harness.cpu_s", "s"),
    cost("harness.wall_iqr_frac", "ratio"),
    cost("harness.trace_overhead_frac", "ratio"),
];

/// Registry entry for `name`.
///
/// # Panics
/// Panics on a name the registry lacks: a typo in the benchmark itself.
pub fn layer_metric(name: &str) -> &'static LayerMetric {
    PER_LAYER
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("`{name}` is not in the per-layer registry"))
}

/// One reported number with the spread of the samples behind it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// The reported statistic: the samples' median, or for a
    /// [`Metric::best_of`] their minimum.
    pub value: f64,
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub mad: f64,
    pub min: f64,
    /// Sample count.
    pub n: usize,
}

impl Metric {
    pub fn single(name: &str, unit: &str, value: f64) -> Self {
        Metric::from_samples(name, unit, &[value])
    }

    /// A time reported as the fastest of its samples. Interference on a
    /// shared machine only ever adds time, so the minimum is the sample
    /// least contaminated by it — STREAM reports its best iteration for the
    /// same reason, as does `BENCH_sim_engine.json`.
    pub fn best_of(name: &str, unit: &str, samples: &[f64]) -> Self {
        let mut m = Metric::from_samples(name, unit, samples);
        m.value = m.min;
        m
    }

    pub fn from_samples(name: &str, unit: &str, samples: &[f64]) -> Self {
        let s = summarize(samples);
        Metric {
            name: name.to_string(),
            unit: unit.to_string(),
            value: s.median,
            median: s.median,
            q1: s.q1,
            q3: s.q3,
            mad: s.mad,
            min: s.min,
            n: s.n,
        }
    }
}

/// Per-layer metrics gathered during a traced run.
#[derive(Debug, Default)]
pub struct LayerMetrics(Vec<Metric>);

impl LayerMetrics {
    /// Report the median of `samples` under a registry name.
    /// No samples, no metric: the registry check names what is missing.
    pub fn samples(&mut self, name: &str, samples: &[f64]) {
        let unit = layer_metric(name).unit;
        if !samples.is_empty() {
            self.0.push(Metric::from_samples(name, unit, samples));
        }
    }

    /// Report `amount / seconds` per sample: a rate.
    pub fn rate(&mut self, name: &str, amount: f64, seconds: &[f64]) {
        let rates: Vec<f64> = seconds.iter().map(|s| amount / s.max(1e-12)).collect();
        self.samples(name, &rates);
    }

    /// Report `seconds * scale` per sample: a cost in the metric's unit.
    pub fn cost(&mut self, name: &str, scale: f64, seconds: &[f64]) {
        let costs: Vec<f64> = seconds.iter().map(|s| s * scale).collect();
        self.samples(name, &costs);
    }

    /// Report one reading under a registry name.
    pub fn value(&mut self, name: &str, value: f64) {
        self.samples(name, &[value]);
    }

    /// The metrics in registry order, or the registry names that are
    /// missing or reported twice.
    pub fn into_registry_order(self) -> Result<Vec<Metric>, Vec<String>> {
        let mut wrong = Vec::new();
        let mut ordered = Vec::with_capacity(PER_LAYER.len());
        for m in PER_LAYER {
            let mut found = self.0.iter().filter(|r| r.name == m.name);
            match (found.next(), found.next()) {
                (Some(r), None) => ordered.push(r.clone()),
                (None, _) => wrong.push(format!("{} missing", m.name)),
                (Some(_), Some(_)) => wrong.push(format!("{} reported twice", m.name)),
            }
        }
        if wrong.is_empty() {
            Ok(ordered)
        } else {
            Err(wrong)
        }
    }
}

/// A value that must repeat exactly but is not a number to plot: a
/// decision digest or a simulated makespan.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Exact {
    pub key: String,
    pub value: String,
}

/// What one workload's process reports.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkloadReport {
    pub name: String,
    /// The input sizes actually run.
    pub sizes: String,
    pub ops_attempted: u64,
    pub ops_failed: u64,
    pub notes: Vec<String>,
    /// Work per second in the workload's natural unit; printed, not gated.
    pub rate: f64,
    pub rate_unit: String,
    pub metrics: Vec<Metric>,
    pub exact: Vec<Exact>,
}

/// A whole `run`: what `--out` writes and `compare` reads.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    pub schema: u32,
    /// `full`, or `smoke` for the sizes `compare` refuses.
    pub label: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub machine: crate::harness::Machine,
    pub workloads: Vec<WorkloadReport>,
}

pub const SCHEMA: u32 = 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_names_are_unique_and_within_the_contract() {
        for (i, m) in PER_LAYER.iter().enumerate() {
            assert!(m.name.len() <= 64, "{}", m.name);
            assert!(m.unit.len() <= 16, "{}", m.unit);
            assert!(
                m.name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{}",
                m.name
            );
            assert!(
                PER_LAYER[..i].iter().all(|o| o.name != m.name),
                "{} twice",
                m.name
            );
        }
        assert!(PER_LAYER.len() <= 128);
    }

    #[test]
    fn a_missing_or_doubled_metric_is_named() {
        let mut all = LayerMetrics::default();
        for m in PER_LAYER.iter().skip(1) {
            all.value(m.name, 1.0);
        }
        all.value(PER_LAYER[1].name, 2.0);
        let wrong = all.into_registry_order().unwrap_err();
        assert_eq!(wrong.len(), 2, "{wrong:?}");
        assert!(wrong[0].contains("missing") && wrong[1].contains("twice"));
    }

    #[test]
    fn a_complete_set_comes_back_in_registry_order() {
        let mut all = LayerMetrics::default();
        for m in PER_LAYER.iter().rev() {
            all.samples(m.name, &[1.0, 3.0, 2.0]);
        }
        let ordered = all.into_registry_order().unwrap();
        assert_eq!(ordered.len(), PER_LAYER.len());
        assert_eq!(ordered[0].name, PER_LAYER[0].name);
        assert_eq!(ordered[0].value, 2.0);
        assert_eq!(ordered[0].n, 3);
    }

    /// `BENCHMARK.json` is the contract the driver reads; the registries
    /// here are what the program emits. They must say the same thing.
    #[test]
    fn benchmark_json_matches_the_registries() {
        use crate::harness::END_TO_END;
        use serde::value::Value;

        let text = include_str!("../../BENCHMARK.json");
        let doc = serde_json::from_str::<crate::json::Parsed>(text).unwrap().0;
        let list = |key: &str| match doc.get(key) {
            Some(Value::Seq(items)) => items.clone(),
            other => panic!("{key}: {other:?}"),
        };
        let text_of = |v: &Value, key: &str| match v.get(key) {
            Some(Value::Str(s)) => s.clone(),
            other => panic!("{key}: {other:?}"),
        };

        let per_layer = list("per_layer");
        assert_eq!(per_layer.len(), PER_LAYER.len());
        for (json, m) in per_layer.iter().zip(PER_LAYER) {
            assert_eq!(text_of(json, "name"), m.name);
            assert_eq!(text_of(json, "unit"), m.unit, "{}", m.name);
            let better = match m.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(text_of(json, "better"), better, "{}", m.name);
        }

        let end_to_end = list("end_to_end");
        assert_eq!(end_to_end.len(), END_TO_END.len());
        for (json, (name, unit, bound)) in end_to_end.iter().zip(END_TO_END) {
            assert_eq!(text_of(json, "name"), name);
            assert_eq!(text_of(json, "unit"), unit);
            assert_eq!(text_of(json, "better"), "lower");
            assert_eq!(json.get("bound"), Some(&Value::F64(bound.rel)), "{name}");
        }

        let workloads: Vec<String> = list("workloads")
            .iter()
            .map(|w| {
                assert!(text_of(w, "why").len() <= 200);
                text_of(w, "name")
            })
            .collect();
        let registered: Vec<&str> = crate::workloads::ALL.iter().map(|e| e.name).collect();
        assert_eq!(workloads, registered);

        assert_eq!(
            doc.get("run_seconds"),
            Some(&Value::U64(crate::run::DEFAULT_SECONDS as u64))
        );
        assert_eq!(list_of_text(&doc, "paths"), ["benchmark"]);
        let command = list_of_text(&doc, "command");
        assert!(command.contains(&"benchmark/Cargo.toml".to_string()));
        assert_eq!(command.last().map(String::as_str), Some("run"));
    }

    fn list_of_text(doc: &serde::value::Value, key: &str) -> Vec<String> {
        match doc.get(key) {
            Some(serde::value::Value::Seq(items)) => items
                .iter()
                .map(|v| match v {
                    serde::value::Value::Str(s) => s.clone(),
                    other => panic!("{key}: {other:?}"),
                })
                .collect(),
            other => panic!("{key}: {other:?}"),
        }
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = Report {
            schema: SCHEMA,
            label: "full".into(),
            seed: 7,
            seconds: 12.0,
            traced: false,
            machine: crate::harness::Machine::detect(),
            workloads: vec![WorkloadReport {
                name: "host_sort".into(),
                sizes: "n=2^21".into(),
                ops_attempted: 44,
                ops_failed: 0,
                notes: vec!["a note".into()],
                rate: 8.5,
                rate_unit: "Melem/s".into(),
                metrics: vec![Metric::best_of("wall_s", "s", &[1.0, 1.1, 0.9])],
                exact: vec![Exact {
                    key: "over/best-fit-hbw".into(),
                    value: "0x090f799612b3ba7b".into(),
                }],
            }],
        };
        let wall = &report.workloads[0].metrics[0];
        assert_eq!((wall.value, wall.median, wall.n), (0.9, 1.0, 3));
        let json = serde_json::to_string(&report).unwrap();
        let back: Report = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
