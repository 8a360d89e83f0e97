//! The study registry: every committed result, stated once.
//!
//! [`STUDIES`] is the one table of what this repository regenerates —
//! each entry a name, a one-line description, the `results/<csv>.csv`
//! files it owns and a generator that builds them as [`Table`]s. The
//! `study` binary is the only front end: it prints and writes the tables,
//! or (`--check`) regenerates them in memory and compares them with the
//! committed files through [`Study::check`].

use std::path::Path;

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::{Simulator, GIB};
use mlm_core::nvm::{simulate_double_chunking, DoubleChunkSpec, NvmConfig};
use mlm_core::pipeline::sim::build_program;
use mlm_core::{Calibration, InputOrder, PipelineSpec, Placement, SortAlgorithm, Workload};

use crate::experiments as exp;
use crate::fleet::{fleet_study, CSV_JOBS_PER_NODE, FLEET_SEED};
use crate::report::{csv_text, gbps, ratio, secs};
use crate::serving::{serve_study, SERVE_JOBS, SERVE_SEED};
use crate::{BILLION, PAPER_THREADS};

/// One rendered result: what is printed, and what is committed.
#[derive(Debug)]
pub struct Table {
    /// File stem under `results/` (`None`: printed only, nothing committed).
    pub csv: Option<&'static str>,
    /// Heading printed above the table.
    pub title: String,
    /// Column headers — the CSV's first line.
    pub headers: Vec<&'static str>,
    /// Formatted cells, one `Vec` per row.
    pub rows: Vec<Vec<String>>,
}

/// A column: its header, and how it formats its cell of one driver row.
type Column<T> = (&'static str, fn(&T) -> String);

impl Table {
    fn of<T>(
        csv: Option<&'static str>,
        title: impl Into<String>,
        items: &[T],
        columns: &[Column<T>],
    ) -> Table {
        let cells = |item| columns.iter().map(|(_, cell)| cell(item)).collect();
        Table {
            csv,
            title: title.into(),
            headers: columns.iter().map(|(header, _)| *header).collect(),
            rows: items.iter().map(cells).collect(),
        }
    }
}

/// One entry of the registry.
pub struct Study {
    /// The name `study <name>` selects.
    pub name: &'static str,
    /// One-line description (`study list`).
    pub about: &'static str,
    /// The `results/<csv>.csv` stems this study owns, in the order `run`
    /// returns them; [`Study::tables`] holds `run` to it.
    pub csvs: &'static [&'static str],
    /// Cells past the leading [`KEY_COLUMNS`] are host wall-clock and
    /// differ run to run, so the check compares the header and those
    /// columns only.
    pub host_measured: bool,
    run: fn() -> Result<Vec<Table>, String>,
}

/// The deterministic leading columns of a host-measured table.
pub const KEY_COLUMNS: usize = 2;

impl Study {
    /// Run the study. Every failure — the driver's, the study's own
    /// self-check, or a CSV set that is not the declared one — comes back
    /// as `study <name>: <reason>`.
    pub fn tables(&self) -> Result<Vec<Table>, String> {
        let fail = |reason: String| format!("study {}: {reason}", self.name);
        let tables = (self.run)().map_err(fail)?;
        let made: Vec<&str> = tables.iter().filter_map(|t| t.csv).collect();
        if made != self.csvs {
            let declared = self.csvs;
            return Err(fail(format!("made CSVs {made:?}, declares {declared:?}")));
        }
        Ok(tables)
    }

    /// Regenerate in memory and compare with the files under
    /// `results_dir`, writing nothing. Returns the number of CSVs compared.
    pub fn check(&self, results_dir: &Path) -> Result<usize, String> {
        if self.csvs.is_empty() {
            // Print-only: nothing is committed, so nothing can drift.
            return Ok(0);
        }
        for table in self.tables()? {
            let Some(csv) = table.csv else { continue };
            let path = results_dir.join(format!("{csv}.csv"));
            let committed = std::fs::read_to_string(&path)
                .map_err(|e| format!("study {}: cannot read {}: {e}", self.name, path.display()))?;
            self.check_table(&table, &committed)?;
        }
        Ok(self.csvs.len())
    }

    /// Compare one regenerated table with its committed text, byte for
    /// byte (host-measured: header plus key columns). The error names the
    /// study, the CSV, the first differing line and both versions.
    pub fn check_table(&self, table: &Table, committed: &str) -> Result<(), String> {
        let generated = csv_text(&table.headers, &table.rows);
        // `split`, not `lines`: a missing final newline is a difference.
        let (mut old, mut new) = (committed.split('\n'), generated.split('\n'));
        for line in 1.. {
            let (was, now) = (old.next(), new.next());
            if was.is_none() && now.is_none() {
                break;
            }
            let fields = match self.host_measured && line > 1 {
                true => KEY_COLUMNS,
                false => usize::MAX,
            };
            let same =
                |(a, b): (&str, &str)| a.split(',').take(fields).eq(b.split(',').take(fields));
            if !was.zip(now).is_some_and(same) {
                return Err(format!(
                    "study {}: results/{}.csv differs at line {line}\n  committed: {}\n  generated: {}",
                    self.name,
                    table.csv.unwrap_or(self.name),
                    was.unwrap_or("<end of file>"),
                    now.unwrap_or("<end of file>")
                ));
            }
        }
        Ok(())
    }
}

/// Look a study up by name; an unknown name lists the valid ones.
pub fn find(name: &str) -> Result<&'static Study, String> {
    STUDIES.iter().find(|s| s.name == name).ok_or_else(|| {
        let names: Vec<&str> = STUDIES.iter().map(|s| s.name).collect();
        format!("unknown study '{name}'; valid: {}", names.join(" "))
    })
}

const fn study(
    name: &'static str,
    about: &'static str,
    csvs: &'static [&'static str],
    host_measured: bool,
    run: fn() -> Result<Vec<Table>, String>,
) -> Study {
    Study {
        name,
        about,
        csvs,
        host_measured,
        run,
    }
}

/// Every study, in the order `study --all` runs them. Columns: name,
/// description, CSVs owned, host-measured?, generator.
#[rustfmt::skip]
pub const STUDIES: &[Study] = &[
    study("table1",        "Table 1: raw sort times, 5 variants x 2/4/6 B x 2 orders",  &["table1"],         false, table1),
    study("fig6",          "Figure 6a/6b: speedup over GNU-flat, random and reverse",   &["fig6a", "fig6b"], false, fig6),
    study("fig7",          "Figure 7: 6 B sort time vs megachunk, flat vs cache mode",  &["fig7"],           false, fig7),
    study("table2",        "Table 2: model parameters of the simulated machine",        &["table2"],         false, table2),
    study("fig8",          "Figure 8a/8b: merge benchmark vs copy threads",             &["fig8"],           false, fig8),
    study("table3",        "Table 3: optimal copy threads, model vs empirical",         &["table3"],         false, table3),
    study("bender_check",  "Bender et al.: ~1.3x chunked gain, ~2.5x less DDR traffic", &[],                 false, bender_check),
    study("model_check",   "Eqs. 1-5 vs the simulator over the Figure-8 grid",          &[],                 false, model_check),
    study("hybrid",        "Hybrid mode (4.2) vs flat at equal chunk size",             &["hybrid_study"],   false, hybrid),
    study("design_space",  "Near-memory design points (6): bandwidth x capacity",       &["design_space"],   false, design_space),
    study("nvm",           "Third memory level (6): double chunking through NVM",       &["nvm_study"],      false, nvm),
    study("numactl",       "numactl --preferred vs chunking (2.4): the capacity cliff", &["numactl_study"],  false, numactl),
    study("radix",         "Radix vs introsort through the chunking framework (6)",     &["radix_study"],    false, radix),
    study("cluster",       "Multi-node strong scaling of distributed MLM-sort (6)",     &["cluster_study"],  false, cluster),
    study("serve",         "Multi-tenant serving: arrival rate x policy x budget",      &["serve_study"],    false, serve),
    study("fleet",         "Fleet placement: nodes x placement x policy, with digests", &["fleet_study"],    false, fleet),
    study("stencil",       "Out-of-core stencil: MCDRAM-staged vs DDR-only, 4-64 GiB",  &["stencil_study"],  false, stencil),
    study("host_ablation", "Host pipeline, real threads: lockstep vs dataflow (timed)", &["host_ablation"],  true,  host_ablation),
];

fn table1() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("table1"),
        "Table 1 — raw sorting performance (simulated KNL vs paper)",
        &exp::table1(&Calibration::default())?,
        &[
            ("Elements", |r| r.elements.to_string()),
            ("Input Order", |r| r.order.label().to_string()),
            ("Algorithm", |r| r.algorithm.label().to_string()),
            ("Sim (s)", |r| secs(r.sim_seconds)),
            ("Paper Mean (s)", |r| secs(r.paper_mean)),
            ("Paper SD (s)", |r| format!("{:.4}", r.paper_std)),
            ("Sim/Paper", |r| {
                format!("{:.2}", r.sim_seconds / r.paper_mean)
            }),
        ],
    )])
}

fn fig6() -> Result<Vec<Table>, String> {
    let bars = exp::fig6(&exp::table1(&Calibration::default())?);
    let panel = |csv, letter: &str, order: InputOrder| {
        let bars: Vec<_> = bars.iter().filter(|b| b.order == order).collect();
        Table::of(
            Some(csv),
            format!(
                "Figure 6{letter} — speedup over GNU-flat ({} input)",
                order.label()
            ),
            &bars,
            &[
                ("Elements", |b| b.elements.to_string()),
                ("Algorithm", |b| b.algorithm.label().to_string()),
                ("Sim speedup", |b| format!("{:.2}", b.sim_speedup)),
                ("Paper speedup", |b| format!("{:.2}", b.paper_speedup)),
            ],
        )
    };
    Ok(vec![
        panel("fig6a", "a", InputOrder::Random),
        panel("fig6b", "b", InputOrder::Reverse),
    ])
}

fn fig7() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("fig7"),
        "Figure 7 — chunked sort of 6B int64 vs megachunk size",
        &exp::fig7(&Calibration::default()),
        &[
            ("Algorithm", |p| p.algorithm.label().to_string()),
            ("Megachunk (elements)", |p| p.megachunk_elems.to_string()),
            ("Sim (s)", |p| match p.seconds {
                Some(s) => format!("{s:.2}"),
                None => "infeasible (exceeds MCDRAM)".into(),
            }),
        ],
    )])
}

fn table2() -> Result<Vec<Table>, String> {
    let t2 = exp::table2_sim()?;
    #[rustfmt::skip]
    let rows = [
        ("B_copy",     format!("{:.1} GB", t2.b_copy / 1e9), "14.9 GB",   "Data size"),
        ("DDR_max",    gbps(t2.ddr_max),                     "90 GB/s",   "STREAM DDR bandwidth"),
        ("MCDRAM_max", gbps(t2.mcdram_max),                  "400 GB/s",  "STREAM MCDRAM bandwidth"),
        ("S_copy",     gbps(t2.s_copy),                      "4.8 GB/s",  "Per-thread DDR<->MCDRAM copy rate"),
        ("S_comp",     gbps(t2.s_comp),                      "6.78 GB/s", "Per-thread compute rate (unsaturated)"),
    ];
    Ok(vec![Table::of(
        Some("table2"),
        "Table 2 — model parameters (simulated machine vs paper)",
        &rows,
        &[
            ("Parameter", |(parameter, ..)| parameter.to_string()),
            ("Simulated", |(_, simulated, ..)| simulated.clone()),
            ("Paper", |(_, _, paper, _)| paper.to_string()),
            ("Description", |(.., description)| description.to_string()),
        ],
    )])
}

fn fig8() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("fig8"),
        "Figure 8 — merge benchmark: model (a) and empirical (b)",
        &exp::fig8(&Calibration::default())?,
        &[
            ("Repeats", |p| p.repeats.to_string()),
            ("Copy threads", |p| p.copy_threads.to_string()),
            ("Model (s)", |p| match p.model_seconds {
                Some(t) => format!("{t:.3}"),
                None => "-".into(),
            }),
            ("Empirical sim (s)", |p| format!("{:.3}", p.sim_seconds)),
        ],
    )])
}

fn table3() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("table3"),
        "Table 3 — optimal copy threads for the merge benchmark",
        &exp::table3(&Calibration::default())?,
        &[
            ("Repeats", |r| r.repeats.to_string()),
            ("Model", |r| r.model.to_string()),
            ("Empirical (pow2 sim)", |r| r.empirical.to_string()),
            ("Paper model", |r| r.paper_model.to_string()),
            ("Paper empirical", |r| r.paper_empirical.to_string()),
        ],
    )])
}

fn bender_check() -> Result<Vec<Table>, String> {
    let b = exp::bender_check(&Calibration::default())?;
    #[rustfmt::skip]
    let rows = [
        ("Basic chunked sort speedup over GNU-flat",    "~1.30x", b.basic_speedup),
        ("DDR traffic reduction (GNU-flat / MLM-sort)", "~2.5x",  b.ddr_traffic_reduction),
    ];
    Ok(vec![Table::of(
        None,
        "Bender et al. corroboration (2B random int64)",
        &rows,
        &[
            ("Claim", |(claim, ..)| claim.to_string()),
            ("Bender et al. predicted", |(_, predicted, _)| {
                predicted.to_string()
            }),
            ("Simulated", |(.., simulated)| ratio(*simulated)),
        ],
    )])
}

fn model_check() -> Result<Vec<Table>, String> {
    let v = exp::model_validation(&Calibration::default())?;
    let agreement = format!("{:.0}%", v.argmin_agreement * 100.0);
    let rows = [
        ("points compared", v.points.to_string()),
        ("geometric-mean |ratio|", format!("{:.3}", v.geo_mean_ratio)),
        ("worst-case ratio", format!("{:.3}", v.worst_ratio)),
        (
            "per-repeats argmin agreement within one pow2 step",
            agreement,
        ),
    ];
    Ok(vec![Table::of(
        None,
        "Model (Eqs. 1-5) vs discrete-event simulator, Figure-8 grid",
        &rows,
        &[
            ("Quantity", |(quantity, _)| quantity.to_string()),
            ("Value", |(_, value)| value.clone()),
        ],
    )])
}

fn hybrid() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("hybrid_study"),
        "Hybrid-mode study — MLM-sort, 2B random int64, 256 threads",
        &exp::hybrid_study(&Calibration::default())?,
        &[
            ("Cache fraction", |p| format!("{:.2}", p.cache_fraction)),
            ("Max megachunk (elems)", |p| p.max_megachunk.to_string()),
            ("MLM-sort (s)", |p| secs(p.seconds)),
            ("Flat @ same chunk (s)", |p| secs(p.flat_same_chunk)),
            ("Ratio", |p| format!("{:.3}", p.seconds / p.flat_same_chunk)),
        ],
    )])
}

fn design_space() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("design_space"),
        "Design-space exploration — 2B random int64, 256 threads\n\
         (the KNL itself is the 4.44x / 16 GiB row)",
        &exp::design_space(&Calibration::default())?,
        &[
            ("BW ratio (near/DDR)", |p| format!("{:.2}", p.bw_ratio)),
            ("Capacity (GiB)", |p| p.capacity_gib.to_string()),
            ("Megachunk (elems)", |p| p.megachunk.to_string()),
            ("MLM-sort (s)", |p| secs(p.mlm_seconds)),
            ("GNU-flat (s)", |p| secs(p.gnu_seconds)),
            ("Speedup", |p| ratio(p.speedup)),
        ],
    )])
}

/// §6 future work: a third memory level (NVM / 3D-XPoint) with double
/// levels of chunking, swept over compute intensity and NVM bandwidth.
fn nvm() -> Result<Vec<Table>, String> {
    let knl = MachineConfig::knl_7250(MemMode::Flat);
    let mut cells = Vec::new();
    for &passes in &[1u32, 4, 16, 64] {
        for &bw in &[5e9, 10e9, 40e9] {
            let nvm = NvmConfig {
                bandwidth: bw,
                ..NvmConfig::default()
            };
            let report = simulate_double_chunking(&knl, &nvm, &DoubleChunkSpec::example(passes))
                .map_err(|e| format!("cell passes={passes} bw={bw}: {e}"))?;
            cells.push((passes, bw, report));
        }
    }
    Ok(vec![Table::of(
        Some("nvm_study"),
        "Triple-level memory study — 100 GB data set in NVM, 256 threads\n\
         (double chunking respects the mandatory NVM->DDR->MCDRAM path; the\n \
         ideal-direct column is an unrealizable lower bound)",
        &cells,
        &[
            ("Passes/byte", |(passes, ..)| passes.to_string()),
            ("NVM BW (GB/s)", |(_, bw, _)| format!("{:.0}", bw / 1e9)),
            ("Double-chunked (s)", |(.., r)| secs(r.double_chunked)),
            // Stages NVM -> MCDRAM with no DDR hop, which hardware cannot
            // do; the last column shows how much of that mandatory hop
            // double-chunking exposes.
            ("Ideal direct (s)", |(.., r)| secs(r.single_level)),
            ("Unchunked (s)", |(.., r)| secs(r.unchunked)),
            ("DDR-hop overhead", |(.., r)| {
                format!("{:+.1}%", (r.double_chunked / r.single_level - 1.0) * 100.0)
            }),
        ],
    )])
}

/// §2.4 comparison (Li et al.): `numactl --preferred` placement is
/// excellent while the data fits MCDRAM and collapses beyond 2 B elements
/// (16 GB); MLM-sort's chunking keeps its margin at every size.
fn numactl() -> Result<Vec<Table>, String> {
    let cal = Calibration::default();
    let sim = |n: u64, alg: SortAlgorithm| {
        exp::simulate_sort(&cal, n, InputOrder::Random, alg)
            .map_err(|e| format!("cell n={n} {}: {e}", alg.label()))
    };
    let mut cells = Vec::new();
    for n in [
        BILLION,
        3 * BILLION / 2,
        2 * BILLION,
        3 * BILLION,
        4 * BILLION,
        6 * BILLION,
    ] {
        let gnu = sim(n, SortAlgorithm::GnuFlat)?;
        let numactl = sim(n, SortAlgorithm::GnuNumactl)?;
        cells.push((n, gnu, numactl, sim(n, SortAlgorithm::MlmSort)?));
    }
    Ok(vec![Table::of(
        Some("numactl_study"),
        "numactl-preferred vs chunking — random int64, 256 threads",
        &cells,
        &[
            ("Elements", |(n, ..)| n.to_string()),
            ("Fits MCDRAM?", |(n, ..)| {
                if 8 * n <= 16 * GIB { "yes" } else { "no" }.into()
            }),
            ("GNU-flat (s)", |(_, gnu, ..)| secs(*gnu)),
            ("GNU-numactl (s)", |(_, _, numactl, _)| secs(*numactl)),
            ("MLM-sort (s)", |(.., mlm)| secs(*mlm)),
            ("numactl gain", |(_, gnu, numactl, _)| {
                format!("{:.2}x", gnu / numactl)
            }),
            ("MLM gain", |(_, gnu, _, mlm)| format!("{:.2}x", gnu / mlm)),
        ],
    )])
}

fn radix() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("radix_study"),
        "Radix study — 2B int64, 1B megachunks, 256 threads",
        &exp::radix_study(&Calibration::default())?,
        &[
            ("Kernel", |r| r.kernel.to_string()),
            ("DDR only (s)", |r| secs(r.ddr_seconds)),
            ("MCDRAM chunked (s)", |r| secs(r.mlm_seconds)),
            ("Chunking speedup", |r| ratio(r.speedup)),
        ],
    )])
}

fn cluster() -> Result<Vec<Table>, String> {
    let counts = [1, 2, 4, 8, 16, 32, 64];
    let reports = mlm_cluster::sim::strong_scaling(
        &Calibration::default(),
        8 * BILLION,
        InputOrder::Random,
        &counts,
        PAPER_THREADS,
    )?;
    let scaled: Vec<_> = reports
        .iter()
        .map(|r| (r, r.speedup_over(&reports[0])))
        .collect();
    Ok(vec![Table::of(
        Some("cluster_study"),
        "Distributed MLM-sort strong scaling — 8B random int64, Omni-Path links",
        &scaled,
        &[
            ("Nodes", |(r, _)| r.nodes.to_string()),
            ("Shard (elems)", |(r, _)| r.shard_elems.to_string()),
            ("Local sort (s)", |(r, _)| secs(r.local_sort)),
            ("Exchange (s)", |(r, _)| secs(r.exchange)),
            ("Final merge (s)", |(r, _)| secs(r.final_merge)),
            ("Total (s)", |(r, _)| secs(r.total)),
            ("Speedup", |(_, speedup)| format!("{speedup:.2}x")),
            ("Efficiency", |(r, speedup)| {
                format!("{:.0}%", speedup / r.nodes as f64 * 100.0)
            }),
        ],
    )])
}

fn serve() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("serve_study"),
        format!(
            "Serving study — {SERVE_JOBS} jobs per cell, seed {SERVE_SEED:#x}, KNL 7250 (flat)"
        ),
        &serve_study()?,
        &[
            ("arrival_rate", |r| format!("{:.2}", r.arrival_rate)),
            ("policy", |r| r.policy.label().to_string()),
            ("budget_gib", |r| r.budget_gib.to_string()),
            ("jobs", |r| r.stats.jobs.to_string()),
            ("rejected", |r| r.stats.rejected.to_string()),
            ("makespan_s", |r| secs(r.stats.makespan)),
            ("mean_wait_s", |r| secs(r.stats.mean_queue_wait)),
            ("mean_latency_s", |r| secs(r.stats.mean_latency)),
            ("p50_s", |r| secs(r.stats.p50_latency)),
            ("p95_s", |r| secs(r.stats.p95_latency)),
            ("p99_s", |r| secs(r.stats.p99_latency)),
            ("max_s", |r| secs(r.stats.max_latency)),
            ("mcdram_hwm_gib", |r| {
                format!("{:.2}", r.stats.mcdram_high_water as f64 / GIB as f64)
            }),
        ],
    )])
}

fn fleet() -> Result<Vec<Table>, String> {
    Ok(vec![Table::of(
        Some("fleet_study"),
        format!(
            "Fleet study — {CSV_JOBS_PER_NODE} jobs per node-stream, seed {FLEET_SEED:#x}, \
             mixed 8/16 GiB KNL 7250 fleet, steal on"
        ),
        &fleet_study(CSV_JOBS_PER_NODE)?,
        &[
            ("nodes", |r| r.nodes.to_string()),
            ("placement", |r| r.placement.label().to_string()),
            ("policy", |r| r.policy.label().to_string()),
            ("jobs", |r| r.stats.jobs.to_string()),
            ("rejected", |r| r.stats.rejected.to_string()),
            ("steals", |r| r.steals.to_string()),
            ("makespan_s", |r| secs(r.stats.makespan)),
            ("mean_wait_s", |r| secs(r.stats.mean_queue_wait)),
            ("mean_latency_s", |r| secs(r.stats.mean_latency)),
            ("p99_s", |r| secs(r.stats.p99_latency)),
            ("strict_p99_s", |r| secs(r.strict_p99)),
            ("mcdram_hwm_gib", |r| {
                format!("{:.2}", r.stats.mcdram_high_water as f64 / GIB as f64)
            }),
            ("digest", |r| format!("{:#018x}", r.digest)),
        ],
    )])
}

/// The paper-geometry stencil pipeline over `total` bytes: 1 GiB chunks,
/// 16 MiB halos per side, four sweeps, 8/8/64 thread split.
fn stencil_spec(total: u64, placement: Placement) -> PipelineSpec {
    PipelineSpec {
        total_bytes: total,
        chunk_bytes: GIB,
        p_in: 8,
        p_out: 8,
        p_comp: 64,
        compute_passes: 4,
        compute_rate: 6.78e9,
        copy_rate: 4.8e9,
        placement,
        lockstep: false,
        data_addr: 0,
        workload: Workload::Stencil {
            halo_bytes: GIB / 64,
        },
    }
}

/// Out-of-core stencil, MCDRAM-staged vs DDR-only, on both sides of the
/// 16 GiB MCDRAM boundary. Both columns run the *same*
/// [`WorkloadPlan`](mlm_exec::plan::WorkloadPlan) through the op-level
/// simulator; only the ring's [`Placement`] differs, so the speedup
/// column isolates what explicit staging buys the halo-exchange pipeline
/// once the data no longer fits.
///
/// Self-checking: past the MCDRAM capacity the staged pipeline must still
/// win, or the study fails.
fn stencil() -> Result<Vec<Table>, String> {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let mcdram_gib = machine.addressable_mcdram() / GIB;
    let run = |spec: &PipelineSpec, what: &str| -> Result<f64, String> {
        let cell = |e: String| format!("{what} stencil at {} GiB: {e}", spec.total_bytes / GIB);
        let prog = build_program(spec).map_err(cell)?;
        let report = Simulator::new(machine.clone()).run(&prog);
        Ok(report.map_err(|e| cell(e.to_string()))?.makespan)
    };
    let mut cells = Vec::new();
    for gib in [4u64, 8, 16, 32, 64] {
        let staged = stencil_spec(gib * GIB, Placement::Hbw);
        let ring_gib = mlm_exec::declared_bytes(&staged, Placement::Hbw) / GIB;
        let staged_s = run(&staged, "staged")?;
        let ddr_s = run(&stencil_spec(gib * GIB, Placement::Ddr), "DDR-only")?;
        let fits = gib * GIB <= machine.addressable_mcdram();
        if !fits && ddr_s <= staged_s {
            return Err(format!(
                "staged stencil must beat DDR-only past the {mcdram_gib} GiB MCDRAM capacity; \
                 at {gib} GiB the speedup is {}",
                ratio(ddr_s / staged_s)
            ));
        }
        cells.push((gib, ring_gib, fits, staged_s, ddr_s));
    }
    Ok(vec![Table::of(
        Some("stencil_study"),
        format!(
            "Out-of-core stencil: MCDRAM-staged vs DDR-only (KNL 7250, flat mode)\n\
             (same generic WorkloadPlan, 4-slot double-buffered ring, 16 MiB halos;\n \
             only the ring placement differs — {mcdram_gib} GiB of MCDRAM on the machine)"
        ),
        &cells,
        &[
            ("Total (GiB)", |(gib, ..)| gib.to_string()),
            ("Ring (GiB)", |(_, ring_gib, ..)| ring_gib.to_string()),
            ("Fits MCDRAM", |(_, _, fits, ..)| {
                if *fits { "yes" } else { "no" }.into()
            }),
            ("MCDRAM-staged (s)", |(.., staged_s, _)| secs(*staged_s)),
            ("DDR-only (s)", |(.., ddr_s)| secs(*ddr_s)),
            ("Speedup", |(.., staged_s, ddr_s)| ratio(ddr_s / staged_s)),
        ],
    )])
}

fn host_ablation() -> Result<Vec<Table>, String> {
    let n_elems = 1 << 22; // 32 MiB of int64 keys, 8 chunks
    let reps = 5;
    Ok(vec![Table::of(
        Some("host_ablation"),
        format!(
            "Host pipeline ablation — {n_elems} int64 keys, 8 chunks, best of {reps} \
             (p_in=2, p_comp=4, p_out=2)"
        ),
        &exp::host_pipeline_ablation(n_elems, reps),
        &[
            ("Workload", |r| r.workload.to_string()),
            ("Merge repeats", |r| r.merge_repeats.to_string()),
            ("Lockstep (ms)", |r| {
                format!("{:.2}", r.lockstep_seconds * 1e3)
            }),
            ("Dataflow (ms)", |r| {
                format!("{:.2}", r.dataflow_seconds * 1e3)
            }),
            ("Dataflow speedup", |r| ratio(r.dataflow_speedup)),
            ("In occ", |r| format!("{:.2}", r.copy_in_occupancy)),
            ("Comp occ", |r| format!("{:.2}", r.compute_occupancy)),
            ("Out occ", |r| format!("{:.2}", r.copy_out_occupancy)),
        ],
    )])
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn results_dir() -> &'static Path {
        Path::new(concat!(env!("CARGO_MANIFEST_DIR"), "/../../results"))
    }

    #[test]
    fn study_names_are_unique_and_an_unknown_one_lists_them() {
        let names: BTreeSet<&str> = STUDIES.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), STUDIES.len());
        assert_eq!(find("fig7").map(|s| s.name), Ok("fig7"));
        let err = find("fig9").map(|s| s.name).unwrap_err();
        assert!(names.iter().all(|name| err.contains(name)), "{err}");
    }

    /// A result file nobody regenerates, or a study whose file was never
    /// committed, fails here — before it can drift unguarded.
    #[test]
    fn committed_csvs_are_exactly_the_declared_ones() {
        let declared = STUDIES.iter().flat_map(|s| s.csvs.iter());
        let unique: BTreeSet<String> = declared.clone().map(|c| format!("{c}.csv")).collect();
        assert_eq!(unique.len(), declared.count(), "a CSV is declared twice");
        let on_disk: BTreeSet<String> = std::fs::read_dir(results_dir())
            .expect("results/ is committed")
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .filter(|f| f.ends_with(".csv"))
            .collect();
        assert_eq!(on_disk, unique);
    }

    /// The studies that take well under a second even unoptimised; the
    /// rest are checked by CI's `study --check` in release.
    #[test]
    fn quick_studies_match_their_committed_csvs() {
        let quick = "table1 table2 fig6 hybrid design_space numactl radix cluster serve stencil";
        for name in quick.split(' ') {
            let study = find(name).unwrap();
            assert_eq!(study.check(results_dir()), Ok(study.csvs.len()), "{name}");
        }
    }

    #[test]
    fn checker_reports_an_altered_cell_and_a_removed_row() {
        let study = find("table2").unwrap();
        let table = &study.tables().unwrap()[0];
        let good = csv_text(&table.headers, &table.rows);
        assert_eq!(study.check_table(table, &good), Ok(()));

        let altered = good.replacen("90.0 GB/s", "91.0 GB/s", 1);
        let err = study.check_table(table, &altered).unwrap_err();
        assert!(
            err.contains("study table2: results/table2.csv differs at line 3"),
            "{err}"
        );
        assert!(
            err.contains("91.0 GB/s") && err.contains("90.0 GB/s"),
            "{err}"
        );

        let lines: Vec<&str> = good.split('\n').collect();
        let removed = [&lines[..3], &lines[4..]].concat().join("\n");
        let err = study.check_table(table, &removed).unwrap_err();
        assert!(
            err.contains("results/table2.csv differs at line 4"),
            "{err}"
        );

        let err = study.check_table(table, good.trim_end()).unwrap_err();
        assert!(err.contains("<end of file>"), "{err}");
    }

    /// Host wall-clock cells are not compared; the header and the
    /// workload / merge-repeats keys are.
    #[test]
    fn host_measured_check_compares_header_and_key_columns_only() {
        let study = find("host_ablation").unwrap();
        let columns: [Column<[&str; 3]>; 3] = [
            ("Workload", |r| r[0].into()),
            ("Merge repeats", |r| r[1].into()),
            ("Lockstep (ms)", |r| r[2].into()),
        ];
        let table = Table::of(None, "", &[["copy-bound", "1", "15.76"]], &columns);
        let committed = |unit, row| format!("Workload,Merge repeats,Lockstep ({unit})\n{row}\n");
        let check = |unit, row| study.check_table(&table, &committed(unit, row));
        assert_eq!(check("ms", "copy-bound,1,99.99"), Ok(()));
        assert!(check("ms", "copy-bound,2,15.76")
            .unwrap_err()
            .contains("line 2"));
        assert!(check("s", "copy-bound,1,15.76").is_err());
    }
}
