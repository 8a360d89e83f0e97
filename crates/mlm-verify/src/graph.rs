//! The static schedule-verification battery: G-series diagnostics over
//! the plans `drive()` interprets.
//!
//! The analysis itself lives in [`mlm_exec::graph`] (it reads the same
//! `WorkloadPlan` `drive()` interprets); this module wraps its findings
//! as [`Diagnostic`]s alongside the V-series lints, defines the corpus
//! and the committed experiment-spec catalog every CI run re-proves, and
//! packages the whole thing as a suite (`mlm-verify graph`):
//!
//! * every case of the [`default_corpus`] (all placements and schedule
//!   modes of both workload families, five geometries) must prove
//!   race-free, deadlock-free, in ring order and within MCDRAM
//!   **statically** — over every linearization;
//! * every committed experiment spec (the paper pipelines, the host
//!   ablation shape, the largest serve-trace batch, the out-of-core
//!   stencil) must prove the same against the paper machine's
//!   addressable MCDRAM;
//! * the five buggy constructions of the must-fail [`CATALOGUE`] must
//!   each be flagged by a G-diagnostic with a counterexample trace.

use knl_sim::machine::MachineConfig;
use mlm_core::pipeline::{PipelineSpec, Placement, Workload};
use mlm_exec::graph::{GraphCheck, GraphFinding, GraphReport};
use mlm_exec::DriveError;

use crate::catalogue::CATALOGUE;
use crate::diag::{Diagnostic, Severity};
use crate::suite::{paper_machine, paper_spec};

/// Severity of a finding of `check`: everything is a hard error except
/// the advisory dead-token check.
pub fn check_severity(check: GraphCheck) -> Severity {
    if check.is_fatal() {
        Severity::Error
    } else {
        Severity::Warning
    }
}

/// Wrap one analyzer finding as a V-series-shaped [`Diagnostic`]: the
/// G-code as the id, the counterexample trace as span-like context lines.
pub fn finding_diagnostic(finding: &GraphFinding) -> Diagnostic {
    let check = finding.check;
    let mut d = Diagnostic::new(
        check.code(),
        check.name(),
        check_severity(check),
        finding.message.clone(),
    );
    for (i, line) in finding.trace.iter().enumerate() {
        d = d.with_context(&format!("trace[{i}]"), line);
    }
    let suggestion = match check {
        GraphCheck::Race => {
            "add a dependency edge between the two touches named in trace[0], \
             so one always completes before the other starts"
        }
        GraphCheck::Deadlock => {
            "break the dependency cycle, or deliver completions to every waiter \
             (notify_all, not notify_one)"
        }
        GraphCheck::Capacity => {
            "shrink chunk_bytes, reduce concurrently-live chunks, or place buffers in Ddr"
        }
        GraphCheck::RingWidth => {
            "make the node named first in trace[0] wait for the slot's previous occupant, \
             the node named second, so chunks take the slot in turn"
        }
        GraphCheck::DeadToken => "make a later node depend on this completion, or stop issuing it",
        GraphCheck::Unreachable => {
            "fix the dependency indices the schedule emits for this node, \
             or model the panic on a chunk the plan computes"
        }
    };
    d.with_suggestion(suggestion)
}

/// All findings of a report as diagnostics, in report order.
pub fn report_diagnostics(report: &GraphReport) -> Vec<Diagnostic> {
    report.findings.iter().map(finding_diagnostic).collect()
}

/// Statically verify the plan `spec` builds, bounding HBW
/// occupancy against `machine`'s addressable MCDRAM. A machine with no
/// addressable MCDRAM gets no budget: HBW buffers there are V003's
/// finding, not a capacity overflow. `Err` only when the spec fails
/// validation.
pub fn graph_report_for(
    spec: &PipelineSpec,
    machine: &MachineConfig,
) -> Result<GraphReport, DriveError> {
    let addressable = machine.addressable_mcdram();
    let budget = (spec.placement == Placement::Hbw && addressable > 0).then_some(addressable);
    mlm_exec::graph::verify_spec(spec, budget)
}

/// The committed experiment specs CI re-proves on every run: the paper's
/// §3 pipeline in all three usage modes, the host-ablation shape, and
/// the largest serve-trace batch class (256 GiB through 2 GiB chunks —
/// the "data doesn't fit in MCDRAM" regime the paper is about).
pub fn committed_specs() -> Vec<(&'static str, PipelineSpec)> {
    let ablation = |lockstep: bool| PipelineSpec {
        total_bytes: 64 << 20,
        chunk_bytes: 8 << 20,
        p_in: 2,
        p_out: 2,
        p_comp: 4,
        compute_passes: 1,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement: Placement::Hbw,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    };
    let mut dataflow = paper_spec();
    dataflow.lockstep = false;
    let mut implicit = paper_spec();
    implicit.placement = Placement::Implicit;
    let mut serve_elephant = paper_spec();
    serve_elephant.total_bytes = 256 << 30;
    serve_elephant.chunk_bytes = 2 << 30;
    // The out-of-core stencil study shape: 64 GiB through 1 GiB chunks on
    // the four-slot split-buffer ring (8 GiB peak HBW — half the paper
    // machine's MCDRAM goes to staged halos).
    let mut stencil = paper_spec();
    stencil.total_bytes = 64 << 30;
    stencil.chunk_bytes = 1 << 30;
    stencil.lockstep = false;
    stencil.workload = Workload::Stencil {
        halo_bytes: 16 << 20,
    };
    vec![
        ("paper-lockstep", paper_spec()),
        ("paper-dataflow", dataflow),
        ("paper-implicit", implicit),
        ("host-ablation-lockstep", ablation(true)),
        ("host-ablation-dataflow", ablation(false)),
        ("serve-batch-elephant", serve_elephant),
        ("stencil-out-of-core", stencil),
    ]
}

/// The largest committed spec by emitted graph size — the analyzer's
/// <100 ms budget (sim_bench's `graph_verify` measurement) is taken on
/// this one.
pub fn largest_committed_spec() -> (&'static str, PipelineSpec) {
    committed_specs()
        .into_iter()
        .max_by_key(|(_, s)| s.n_chunks())
        .expect("catalog is non-empty")
}

/// The corpus: every placement/schedule mode the orchestrator emits, at
/// several chunk counts including single-chunk and ragged tails — for
/// both workload families (the stencil rows exercise the halo-edge
/// geometries on the four-slot ring, including the ragged tail, whose
/// last chunk still spans a full halo). Each case must prove safe.
pub fn default_corpus() -> Vec<(String, PipelineSpec)> {
    let geometries: &[(u64, &str)] = &[
        (64, "1"),
        (128, "2"),
        (256, "4"),
        (240, "4-ragged"),
        (448, "7"),
    ];
    let modes: &[(Placement, bool, &str)] = &[
        (Placement::Hbw, true, "hbw-lockstep"),
        (Placement::Hbw, false, "hbw-dataflow"),
        (Placement::Ddr, true, "ddr-lockstep"),
        (Placement::Ddr, false, "ddr-dataflow"),
        (Placement::Implicit, true, "implicit"),
    ];
    let mut cases = Vec::new();
    for &(placement, lockstep, mode) in modes {
        for &(total, geom) in geometries {
            cases.push((
                format!("{mode}-{geom}"),
                corpus_spec(total, placement, lockstep),
            ));
        }
    }
    for &(lockstep, mode) in &[(true, "stencil-lockstep"), (false, "stencil-dataflow")] {
        for &(total, geom) in geometries {
            cases.push((
                format!("{mode}-{geom}"),
                corpus_stencil_spec(total, lockstep),
            ));
        }
    }
    cases
}

/// A small corpus spec: 64-byte chunks, minimal pools. The proofs are
/// about schedule structure, so byte-level scale adds nothing.
pub fn corpus_spec(total_bytes: u64, placement: Placement, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        total_bytes,
        chunk_bytes: 64,
        p_in: 1,
        p_out: 1,
        p_comp: 2,
        compute_passes: 2,
        compute_rate: 1e9,
        copy_rate: 1e9,
        placement,
        lockstep,
        data_addr: 0,
        workload: Workload::Map,
    }
}

/// The stencil-family counterpart of [`corpus_spec`]: HBW placement,
/// 64-byte chunks with a 16-byte halo on each side (so the ragged
/// 240-byte geometry's 48-byte tail still spans a full halo).
pub fn corpus_stencil_spec(total_bytes: u64, lockstep: bool) -> PipelineSpec {
    PipelineSpec {
        workload: Workload::Stencil { halo_bytes: 16 },
        ..corpus_spec(total_bytes, Placement::Hbw, lockstep)
    }
}

/// One case of the graph-verification suite.
#[derive(Debug, Clone)]
pub struct GraphCase {
    /// Display name.
    pub name: String,
    /// G-codes that must fire (each with a non-empty counterexample
    /// trace); empty means the schedule must prove safe.
    pub expect: Vec<&'static str>,
    /// What the analyzer said (`Err`: the spec could not be driven).
    pub report: Result<GraphReport, DriveError>,
}

impl GraphCase {
    /// The distinct G-codes that fired.
    pub fn fired(&self) -> Vec<&'static str> {
        self.report.as_ref().map(|r| r.codes()).unwrap_or_default()
    }

    /// Did the analyzer meet the expectation? Clean cases must prove
    /// safe; must-fail cases must fire every expected code, each finding
    /// carrying a counterexample trace.
    pub fn ok(&self) -> bool {
        let Ok(report) = &self.report else {
            return false;
        };
        if self.expect.is_empty() {
            return report.is_safe();
        }
        let fired = self.fired();
        self.expect.iter().all(|code| fired.contains(code))
            && report.findings.iter().all(|f| !f.trace.is_empty())
    }
}

/// Build and run the full graph-verification suite:
///
/// 1. all 35 corpus cases (both workload families), proven safe
///    against the paper machine;
/// 2. every committed experiment spec, proven safe;
/// 3. the five buggy constructions of the catalogue, each analysed as it
///    would execute — each must be flagged statically with a trace.
pub fn run_graph_suite() -> Vec<GraphCase> {
    let machine = paper_machine();
    let mut cases = Vec::new();

    for (name, spec) in default_corpus() {
        cases.push(GraphCase {
            name: format!("corpus/{name}"),
            expect: Vec::new(),
            report: graph_report_for(&spec, &machine),
        });
    }

    for (name, spec) in committed_specs() {
        cases.push(GraphCase {
            name: format!("spec/{name}"),
            expect: Vec::new(),
            report: graph_report_for(&spec, &machine),
        });
    }

    // The five must-fail constructions of the catalogue, proven
    // statically: the plan is analysed as the buggy construction
    // executes it, and the analyzer must produce the finding.
    for row in &CATALOGUE {
        cases.push(GraphCase {
            name: format!("construction/{}", row.construction.name()),
            expect: row.g_codes.to_vec(),
            report: row.graph_report(),
        });
    }

    cases
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_passes() {
        for case in run_graph_suite() {
            assert!(
                case.ok(),
                "{}: expected {:?}, fired {:?} ({})",
                case.name,
                case.expect,
                case.fired(),
                case.report
                    .as_ref()
                    .map(|r| r.to_string())
                    .unwrap_or_else(|e| e.to_string())
            );
        }
    }

    #[test]
    fn suite_covers_corpus_catalog_and_constructions() {
        let cases = run_graph_suite();
        let corpus = cases
            .iter()
            .filter(|c| c.name.starts_with("corpus/"))
            .count();
        let specs = cases.iter().filter(|c| c.name.starts_with("spec/")).count();
        let constructions = cases
            .iter()
            .filter(|c| c.name.starts_with("construction/"))
            .count();
        assert_eq!(
            corpus, 35,
            "hbw/ddr x lockstep/dataflow + implicit + stencil modes, 5 geometries"
        );
        assert_eq!(specs, committed_specs().len());
        assert_eq!(constructions, 5);
    }

    #[test]
    fn must_fail_findings_carry_counterexample_traces() {
        for case in run_graph_suite() {
            if case.expect.is_empty() {
                continue;
            }
            let report = case.report.as_ref().expect("must-fail cases drive fine");
            assert!(!report.is_safe(), "{}", case.name);
            for f in &report.findings {
                assert!(!f.trace.is_empty(), "{}: {}", case.name, f.message);
            }
        }
    }

    #[test]
    fn diagnostics_mirror_the_v_series_shape() {
        let report = CATALOGUE[0].graph_report().unwrap();
        let diags = report_diagnostics(&report);
        assert!(!diags.is_empty());
        for d in &diags {
            assert!(d.id.starts_with('G'), "{}", d.id);
            assert!(!d.context.is_empty(), "trace must become context");
            assert!(d.suggestion.is_some());
            let rendered = d.to_string();
            assert!(rendered.contains("error["), "{rendered}");
            assert!(rendered.contains("trace[0]"), "{rendered}");
        }
    }

    #[test]
    fn elephant_spec_fits_the_paper_machine_exactly_because_of_the_ring() {
        // 256 GiB of data through 16 GiB of MCDRAM: only the 3-slot ring
        // (6 GiB resident) makes this provable — the point of the paper.
        let (name, spec) = largest_committed_spec();
        assert_eq!(name, "serve-batch-elephant");
        assert_eq!(spec.n_chunks(), 128);
        let report = graph_report_for(&spec, &paper_machine()).unwrap();
        assert!(report.is_safe(), "{report}");
        assert_eq!(report.peak_hbw_bytes, 6 << 30);
    }
}
