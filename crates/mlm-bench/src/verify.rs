//! Lint gating for the harness: every `PipelineSpec` an experiment or
//! bench runs goes through the `mlm-verify` registry first, so a
//! mis-configured sweep fails with a structured diagnostic instead of a
//! panic deep inside the engine — or, worse, a silently wrong experiment.

use knl_sim::machine::{MachineConfig, MemMode};
use mlm_core::pipeline::PipelineSpec;
use mlm_verify::{lint_target, LintReport, VerifyTarget};

/// The machine host-side experiments are linted against: the paper's KNL
/// 7250, widened when the host has more parallelism than a KNL (host
/// benches size their pools from `available_parallelism`, and the
/// thread-fit lint must check the budget those pools actually draw from).
pub fn reference_machine(host_threads: usize) -> MachineConfig {
    let mut m = MachineConfig::knl_7250(MemMode::Flat);
    m.cores = m.cores.max(host_threads.div_ceil(m.threads_per_core));
    m
}

/// Lint `spec` against `machine`, which also proves the schedule it emits
/// (G-series: race/deadlock/occupancy); panic with the full diagnostic
/// listing on any error-level finding and return the report (warnings
/// included) otherwise.
pub fn lint_spec(spec: &PipelineSpec, machine: &MachineConfig) -> LintReport {
    let report = lint_target(&VerifyTarget::new(spec, machine));
    assert!(
        !report.has_errors(),
        "experiment spec rejected by mlm-verify:\n{report}"
    );
    report
}

/// [`lint_spec`] against the host [`reference_machine`] — the gate for
/// experiments that run on real host threads rather than the simulator.
pub fn lint_host_spec(spec: &PipelineSpec) -> LintReport {
    let host = std::thread::available_parallelism().map_or(4, |p| p.get());
    lint_spec(spec, &reference_machine(host))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlm_core::pipeline::{Placement, Workload};

    fn spec() -> PipelineSpec {
        PipelineSpec {
            total_bytes: 8 << 20,
            chunk_bytes: 1 << 20,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 1,
            compute_rate: 1.4e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    #[test]
    fn clean_spec_passes_the_gate() {
        lint_host_spec(&spec());
    }

    #[test]
    #[should_panic(expected = "rejected by mlm-verify")]
    fn bad_spec_panics_with_diagnostics() {
        let mut s = spec();
        s.chunk_bytes = 1031; // not a multiple of the element size
        lint_host_spec(&s);
    }

    #[test]
    fn reference_machine_covers_wide_hosts() {
        let m = reference_machine(1024);
        assert!(m.total_threads() >= 1024);
    }
}
