//! The static spec linter: a [`Lint`] trait, a [`LintRegistry`], and the
//! built-in lints.
//!
//! Lints validate a [`VerifyTarget`] — a [`PipelineSpec`] paired with the
//! [`MachineConfig`] it is meant to run on, plus the facts the spec alone
//! does not carry (host element size, an optional [`ClusterConfig`],
//! co-scheduled jobs and the fleet) — *before* anything executes. The
//! buffer-ring depth is the spec's own
//! [`ring_slots`](PipelineSpec::ring_slots): every executor builds exactly
//! that ring. This is the static
//! counterpart of the paper's analytic model (§3.2, Eqs. 1–5): the model
//! predicts pipeline behaviour from the spec, and the lints reject or flag
//! the configurations for which that prediction is a panic, a deadlock, or
//! silently destroyed throughput.
//!
//! Every lint has a stable id (`V0xx`). [`lint_target`] is the one
//! plan-time gate: after the registry it proves the schedule the spec
//! emits (G-series, [`crate::graph`]) against the machine, so whether the
//! buffers that actually exist fit MCDRAM is answered once, by G003.
//! Error-level findings are what every runner that honours the linter
//! rejects. To add a lint, implement [`Lint`], list it in
//! [`LintRegistry::with_builtin_lints`] and add a case to the CLI's
//! known-bad battery so CI proves it fires.

use knl_sim::machine::MachineConfig;
use mlm_cluster::ClusterConfig;
use mlm_core::{ModelParams, PipelineSpec, Placement, Workload};
use mlm_exec::declared_bytes;
use mlm_fleet::NodeConfig;
use mlm_serve::CapacityBroker;

use crate::diag::{Diagnostic, LintReport, Severity};

/// Number of buffer slots the chunk schedule rotates over — re-exported
/// from the execution layer ([`mlm_exec::drive_verified`] owns the constant every
/// backend executes).
pub use mlm_exec::RING_SLOTS;

/// Everything the linter sees about one planned run.
#[derive(Debug, Clone)]
pub struct VerifyTarget<'a> {
    /// The pipeline spec to vet.
    pub spec: &'a PipelineSpec,
    /// The machine the spec will run (or be simulated) on.
    pub machine: &'a MachineConfig,
    /// Host element size in bytes (`size_of::<T>()` of the data the host
    /// backend will stream). The simulator does not care, but the host
    /// backend panics on mis-aligned chunk geometry.
    pub elem_bytes: usize,
    /// Cluster configuration when the run is distributed.
    pub cluster: Option<&'a ClusterConfig>,
    /// Specs of jobs planned to run *concurrently* with `spec` on the same
    /// node (a serving-mode co-resident set). Empty for single-job runs.
    pub co_scheduled: &'a [PipelineSpec],
    /// The fleet the spec is planned to be dispatched onto, when the run
    /// is fleet-serving mode (`mlm-fleet`). `None` for single-node runs.
    pub fleet: Option<FleetTarget<'a>>,
}

/// The fleet a spec is planned for: per-node capacities plus the job's
/// spill semantics, enough for V011 to mirror the dispatcher's
/// submission-time feasibility check.
#[derive(Debug, Clone, Copy)]
pub struct FleetTarget<'a> {
    /// Per-node capacities, in placement id order.
    pub nodes: &'a [NodeConfig],
    /// Strict-HBW: the job's ring must live in MCDRAM even on a
    /// spill-capable node (`HBW` rather than `HBW_PREFERRED` semantics).
    pub strict: bool,
}

impl<'a> VerifyTarget<'a> {
    /// A target with the in-tree executors' defaults: 8-byte elements
    /// (`i64`/`u64` keys, as every workload in this repo uses).
    pub fn new(spec: &'a PipelineSpec, machine: &'a MachineConfig) -> Self {
        VerifyTarget {
            spec,
            machine,
            elem_bytes: 8,
            cluster: None,
            co_scheduled: &[],
            fleet: None,
        }
    }

    /// Declare the fleet this spec will be dispatched onto (V011 checks
    /// its placement feasibility at plan time).
    pub fn with_fleet(mut self, nodes: &'a [NodeConfig], strict: bool) -> Self {
        self.fleet = Some(FleetTarget { nodes, strict });
        self
    }

    /// Attach a cluster config.
    pub fn with_cluster(mut self, cluster: &'a ClusterConfig) -> Self {
        self.cluster = Some(cluster);
        self
    }

    /// Declare jobs co-scheduled with this spec (serving mode).
    pub fn with_co_scheduled(mut self, others: &'a [PipelineSpec]) -> Self {
        self.co_scheduled = others;
        self
    }

    /// The §3.2 model parameters implied by this machine + spec.
    pub fn model_params(&self) -> ModelParams {
        ModelParams {
            b_copy: self.spec.total_bytes as f64,
            ddr_max: self.machine.ddr_bandwidth,
            mcdram_max: self.machine.effective_mcdram_bandwidth(),
            s_copy: self.spec.copy_rate,
            s_comp: self.spec.compute_rate,
            total_threads: self.machine.total_threads(),
        }
    }
}

/// One spec check. Implementations are stateless and cheap: a lint must
/// never execute the spec, only reason about it.
pub trait Lint {
    /// Stable id, e.g. `V002`. Never reuse ids.
    fn id(&self) -> &'static str;
    /// Kebab-case name, e.g. `mcdram-fit`.
    fn name(&self) -> &'static str;
    /// One-line description for `mlm-verify list`.
    fn description(&self) -> &'static str;
    /// Examine `target`, pushing findings into `out`.
    fn check(&self, target: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>);
}

/// An ordered collection of lints.
pub struct LintRegistry {
    lints: Vec<Box<dyn Lint>>,
}

impl LintRegistry {
    /// The full built-in set, in id order.
    pub fn with_builtin_lints() -> Self {
        LintRegistry {
            lints: vec![
                Box::new(SpecValidity),
                Box::new(ChunkGeometry),
                Box::new(McdramFit),
                Box::new(ModePlacement),
                Box::new(ThreadOversubscription),
                Box::new(BandwidthSanity),
                Box::new(ChunkCount),
                Box::new(ClusterSanity),
                Box::new(ConcurrentMcdramFit),
                Box::new(FleetPlacementFeasibility),
                Box::new(StencilHaloFeasibility),
            ],
        }
    }

    /// The registered lints.
    pub fn lints(&self) -> &[Box<dyn Lint>] {
        &self.lints
    }

    /// Run every lint over `target`.
    pub fn run(&self, target: &VerifyTarget<'_>) -> LintReport {
        let mut report = LintReport::default();
        for lint in &self.lints {
            lint.check(target, &mut report.diagnostics);
        }
        report
    }
}

/// Lint a target with the built-in registry, then prove the schedule its
/// spec emits (G001–G006) against the machine's addressable MCDRAM and
/// append those findings.
///
/// The proof runs only when the registry found no error: a rejected spec
/// needs no proof to stay rejected, and although the proof's work is
/// linear in the plan (at most four edge visits per plan edge), the plan
/// grows with the chunk count — a misaligned 1-byte chunk over 32 KiB is
/// 32,768 chunks. Fix the lint errors and the next run proves the rest.
pub fn lint_target(target: &VerifyTarget<'_>) -> LintReport {
    let mut report = LintRegistry::with_builtin_lints().run(target);
    if report.has_errors() {
        return report;
    }
    // `graph_report_for` fails only on `PipelineSpec::validate`, which V000
    // has already reported as an error.
    if let Ok(graph) = crate::graph::graph_report_for(target.spec, target.machine) {
        report
            .diagnostics
            .extend(crate::graph::report_diagnostics(&graph));
    }
    report
}

// ---------------------------------------------------------------------------
// Built-in lints
// ---------------------------------------------------------------------------

/// V000: the runtime's own validity checks, surfaced statically.
///
/// Everything `PipelineSpec::validate` / `MachineConfig::validate` would
/// reject at run time (inside an `expect`, i.e. as a panic) is reported
/// here as a structured error instead. This is what makes the linter a
/// superset of the runtime's rejections.
struct SpecValidity;

impl Lint for SpecValidity {
    fn id(&self) -> &'static str {
        "V000"
    }
    fn name(&self) -> &'static str {
        "spec-validity"
    }
    fn description(&self) -> &'static str {
        "spec/machine fail their own runtime validation (would panic at run start)"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        if let Err(msg) = t.spec.validate() {
            out.push(
                Diagnostic::new(self.id(), self.name(), Severity::Error, msg)
                    .with_context("spec.total_bytes", t.spec.total_bytes)
                    .with_context("spec.chunk_bytes", t.spec.chunk_bytes)
                    .with_context(
                        "spec.pools",
                        format!(
                            "p_in={} p_out={} p_comp={}",
                            t.spec.p_in, t.spec.p_out, t.spec.p_comp
                        ),
                    ),
            );
        }
        if let Err(e) = t.machine.validate() {
            out.push(Diagnostic::new(
                self.id(),
                self.name(),
                Severity::Error,
                format!("machine config invalid: {e}"),
            ));
        }
    }
}

/// V001: chunk geometry vs host element size.
struct ChunkGeometry;

impl Lint for ChunkGeometry {
    fn id(&self) -> &'static str {
        "V001"
    }
    fn name(&self) -> &'static str {
        "chunk-geometry"
    }
    fn description(&self) -> &'static str {
        "chunk_bytes must be a positive multiple of the host element size"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        if t.spec.chunk_bytes == 0 {
            return; // V000 already rejects; avoid a duplicate cascade.
        }
        if let Err(msg) = t.spec.validate_elem_size(t.elem_bytes) {
            let elem = t.elem_bytes.max(1) as u64;
            let rounded = (t.spec.chunk_bytes / elem).max(1) * elem;
            out.push(
                Diagnostic::new(self.id(), self.name(), Severity::Error, msg)
                    .with_context("spec.chunk_bytes", t.spec.chunk_bytes)
                    .with_context("target.elem_bytes", t.elem_bytes)
                    .with_suggestion(format!(
                        "round chunk_bytes to a multiple of the element size, e.g. {rounded}"
                    )),
            );
        }
    }
}

/// V002: an implicit-mode chunk must fit the MCDRAM cache.
///
/// Peng et al.'s hybrid-memory study (PAPERS.md) shows misconfigured
/// placement/geometry silently destroys throughput: in cache mode a chunk
/// larger than the cache thrashes every pass (the paper's Fig. 5 cliff).
/// Whether flat-mode buffers fit addressable MCDRAM — where real memkind
/// fails outright — is the schedule proof's G003, which prices the chunk
/// buffers the plan actually holds live rather than the full ring.
struct McdramFit;

impl Lint for McdramFit {
    fn id(&self) -> &'static str {
        "V002"
    }
    fn name(&self) -> &'static str {
        "mcdram-fit"
    }
    fn description(&self) -> &'static str {
        "implicit cache-mode chunks must fit the MCDRAM cache"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        if t.spec.placement != Placement::Implicit {
            return;
        }
        let cache = t.machine.effective_cache_capacity();
        if cache > 0 && t.spec.chunk_bytes > cache {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "implicit-mode chunk of {} bytes exceeds the {cache}-byte \
                         MCDRAM cache; every compute pass re-streams from DDR \
                         (paper Fig. 5 cliff)",
                        t.spec.chunk_bytes
                    ),
                )
                .with_context("spec.chunk_bytes", t.spec.chunk_bytes)
                .with_context("machine.effective_cache_capacity", cache)
                .with_suggestion(format!("shrink chunk_bytes to at most {cache}")),
            );
        }
    }
}

/// V003: placement vs the machine's MCDRAM mode.
struct ModePlacement;

impl Lint for ModePlacement {
    fn id(&self) -> &'static str {
        "V003"
    }
    fn name(&self) -> &'static str {
        "mode-placement"
    }
    fn description(&self) -> &'static str {
        "buffer placement must be addressable/cacheable in the machine's MCDRAM mode"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        match t.spec.placement {
            Placement::Hbw if t.machine.addressable_mcdram() == 0 => {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        self.name(),
                        Severity::Error,
                        "spec places buffers in flat MCDRAM but the machine mode exposes \
                         no addressable MCDRAM (the engine would fail with \
                         LevelNotAddressable)"
                            .into(),
                    )
                    .with_context("spec.placement", "Hbw")
                    .with_context("machine.mode", format!("{:?}", t.machine.mode))
                    .with_suggestion(
                        "boot the machine in Flat/Hybrid mode, or use Placement::Implicit",
                    ),
                );
            }
            Placement::Implicit if !t.machine.mode.has_cache() => {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        self.name(),
                        Severity::Warning,
                        "implicit cache-mode spec on a machine with no MCDRAM cache: \
                         every access is plain DDR, so the experiment measures nothing \
                         the spec intends"
                            .into(),
                    )
                    .with_context("spec.placement", "Implicit")
                    .with_context("machine.mode", format!("{:?}", t.machine.mode)),
                );
            }
            _ => {}
        }
    }
}

/// V005: thread budget vs the machine's hardware threads.
struct ThreadOversubscription;

impl Lint for ThreadOversubscription {
    fn id(&self) -> &'static str {
        "V005"
    }
    fn name(&self) -> &'static str {
        "thread-oversubscription"
    }
    fn description(&self) -> &'static str {
        "p_in + p_out + p_comp must not exceed the machine's hardware threads"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        let want = t.spec.threads();
        let have = t.machine.total_threads();
        if want > have {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Error,
                    format!(
                        "spec occupies {want} threads but the machine has {have}: \
                         pools would time-share cores and the per-thread rate model \
                         (S_copy/S_comp) no longer holds"
                    ),
                )
                .with_context(
                    "spec.pools",
                    format!(
                        "p_in={} p_out={} p_comp={}",
                        t.spec.p_in, t.spec.p_out, t.spec.p_comp
                    ),
                )
                .with_context("machine.total_threads", have)
                .with_suggestion(format!("shrink the pools to at most {have} threads total")),
            );
        } else if want == have && have > 1 {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "spec occupies all {have} hardware threads; the paper left \
                         16 of 272 for the OS (ran with 256)"
                    ),
                )
                .with_context("spec.threads", want),
            );
        }
    }
}

/// V006: bandwidth sanity against the §3.2 model (Eqs. 1–5).
struct BandwidthSanity;

impl Lint for BandwidthSanity {
    fn id(&self) -> &'static str {
        "V006"
    }
    fn name(&self) -> &'static str {
        "bandwidth-sanity"
    }
    fn description(&self) -> &'static str {
        "per-thread rates must be finite and consistent with the machine; flags DDR-saturated copy pools and MCDRAM-starved compute"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        let spec = t.spec;
        // Non-finite rates slip through PipelineSpec::validate's `<= 0.0`
        // comparisons on some historic versions; reject them loudly here
        // regardless.
        for (field, v) in [
            ("spec.compute_rate", spec.compute_rate),
            ("spec.copy_rate", spec.copy_rate),
        ] {
            if !v.is_finite() {
                out.push(
                    Diagnostic::new(
                        self.id(),
                        self.name(),
                        Severity::Error,
                        format!("{field} is not finite ({v}); the bandwidth arbiter would stall"),
                    )
                    .with_context(field, v),
                );
            }
        }
        if spec.validate().is_err() || !spec.copy_rate.is_finite() || !spec.compute_rate.is_finite()
        {
            return; // the model below needs a well-formed spec
        }
        if spec.placement == Placement::Implicit {
            return; // no copy pools to reason about
        }

        let m = t.model_params();
        // Eq. 3: copy pool past DDR saturation — extra copy threads move
        // no more bytes, they only steal compute threads.
        let copy_demand = (spec.p_in + spec.p_out) as f64 * spec.copy_rate;
        if copy_demand > m.ddr_max {
            let sat = (m.ddr_max / spec.copy_rate).floor() as usize;
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "copy pools demand {copy_demand:.3e} B/s of DDR but the machine \
                         peaks at {:.3e} B/s (Eq. 3 saturated): threads beyond ~{sat} \
                         copy threads are wasted",
                        m.ddr_max
                    ),
                )
                .with_context("spec.p_in + spec.p_out", spec.p_in + spec.p_out)
                .with_context("machine.ddr_bandwidth", format!("{:.3e}", m.ddr_max))
                .with_suggestion(format!(
                    "total copy threads near {sat} saturate DDR; give the rest to p_comp"
                )),
            );
        }
        // Eq. 5: compute starvation — copy traffic alone saturates MCDRAM
        // and the leftover share for compute is zero.
        let c_comp = m.c_comp(spec.p_comp, spec.p_in, spec.p_out);
        if c_comp <= 0.0 {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Error,
                    format!(
                        "copy traffic alone saturates MCDRAM ({:.3e} B/s): Eq. 5 leaves \
                         the compute pool a rate of 0 — the pipeline would never finish \
                         a compute pass",
                        m.mcdram_max
                    ),
                )
                .with_context("spec.p_in + spec.p_out", spec.p_in + spec.p_out)
                .with_context(
                    "machine.effective_mcdram_bandwidth",
                    format!("{:.3e}", m.mcdram_max),
                )
                .with_suggestion("reduce copy threads or copy_rate"),
            );
        }
        // Per-thread rates faster than the machine's measured single-thread
        // capability: the simulation answers a question about a machine
        // that does not exist.
        if spec.copy_rate > t.machine.per_thread_copy_bw * (1.0 + 1e-9) {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "spec.copy_rate {:.3e} exceeds the machine's measured per-thread \
                         copy bandwidth {:.3e} (Table 2 S_copy)",
                        spec.copy_rate, t.machine.per_thread_copy_bw
                    ),
                )
                .with_context("spec.copy_rate", format!("{:.3e}", spec.copy_rate))
                .with_context(
                    "machine.per_thread_copy_bw",
                    format!("{:.3e}", t.machine.per_thread_copy_bw),
                ),
            );
        }
        if spec.compute_rate > t.machine.per_thread_compute_bw * (1.0 + 1e-9) {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "spec.compute_rate {:.3e} exceeds the machine's measured per-thread \
                         compute bandwidth {:.3e} (Table 2 S_comp)",
                        spec.compute_rate, t.machine.per_thread_compute_bw
                    ),
                )
                .with_context("spec.compute_rate", format!("{:.3e}", spec.compute_rate))
                .with_context(
                    "machine.per_thread_compute_bw",
                    format!("{:.3e}", t.machine.per_thread_compute_bw),
                ),
            );
        }
    }
}

/// V007: chunk count vs pipeline fill.
struct ChunkCount;

impl Lint for ChunkCount {
    fn id(&self) -> &'static str {
        "V007"
    }
    fn name(&self) -> &'static str {
        "chunk-count"
    }
    fn description(&self) -> &'static str {
        "fewer than 3 chunks never fills the pipeline; overlap (and Eq. 1) does not apply"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        if t.spec.placement == Placement::Implicit
            || t.spec.total_bytes == 0
            || t.spec.chunk_bytes == 0
        {
            return;
        }
        let n = t.spec.n_chunks();
        if n < RING_SLOTS {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Info,
                    format!(
                        "only {n} chunk(s): the three stages never all overlap, so the \
                         model's max(T_copy, T_comp) (Eq. 1) over-predicts throughput"
                    ),
                )
                .with_context("spec.n_chunks", n)
                .with_suggestion("shrink chunk_bytes if steady-state overlap matters"),
            );
        }
    }
}

/// V008: cluster configuration sanity.
struct ClusterSanity;

impl Lint for ClusterSanity {
    fn id(&self) -> &'static str {
        "V008"
    }
    fn name(&self) -> &'static str {
        "cluster-sanity"
    }
    fn description(&self) -> &'static str {
        "cluster config must validate; flags links faster than node memory"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(c) = t.cluster else { return };
        if let Err(msg) = c.validate() {
            out.push(
                Diagnostic::new(self.id(), self.name(), Severity::Error, msg)
                    .with_context("cluster.nodes", c.nodes)
                    .with_context("cluster.link_bandwidth", c.link_bandwidth)
                    .with_context("cluster.link_latency", c.link_latency),
            );
            return;
        }
        if c.link_bandwidth > t.machine.ddr_bandwidth {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "link bandwidth {:.3e} B/s exceeds the node's DDR bandwidth \
                         {:.3e} B/s: the exchange would be memory-bound, which no \
                         KNL-era interconnect achieves",
                        c.link_bandwidth, t.machine.ddr_bandwidth
                    ),
                )
                .with_context(
                    "cluster.link_bandwidth",
                    format!("{:.3e}", c.link_bandwidth),
                )
                .with_context(
                    "machine.ddr_bandwidth",
                    format!("{:.3e}", t.machine.ddr_bandwidth),
                ),
            );
        }
        if c.nodes > 1 && c.link_latency > 1e-3 {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "link latency {}s is three orders of magnitude above \
                         Omni-Path-class fabrics (~2us)",
                        c.link_latency
                    ),
                )
                .with_context("cluster.link_latency", c.link_latency),
            );
        }
    }
}

/// V009: aggregate MCDRAM footprint of a co-scheduled job set.
///
/// Each job individually may pass G003, yet a serving-mode co-resident set
/// can still oversubscribe MCDRAM: every flat-placement job pins its own
/// ring of `ring_slots` chunk buffers, and real memkind fails the
/// `hbw_malloc` of whichever tenant loses the race. A capacity broker
/// (`mlm-serve`) enforces this dynamically; this lint catches it at plan
/// time.
struct ConcurrentMcdramFit;

impl Lint for ConcurrentMcdramFit {
    fn id(&self) -> &'static str {
        "V009"
    }
    fn name(&self) -> &'static str {
        "concurrent-mcdram-fit"
    }
    fn description(&self) -> &'static str {
        "aggregate buffer rings of co-scheduled jobs must fit addressable MCDRAM"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        if t.co_scheduled.is_empty() {
            return; // single-job runs are G003's territory
        }
        let addressable = t.machine.addressable_mcdram();
        if addressable == 0 {
            return; // V003's finding
        }
        // Only declared HBW buffers pin MCDRAM; DDR and cache-mode jobs
        // contribute nothing to the budget.
        let footprint = |s: &PipelineSpec| declared_bytes(s, Placement::Hbw);
        let mine = footprint(t.spec);
        let total: u64 = t
            .co_scheduled
            .iter()
            .map(footprint)
            .fold(mine, u64::saturating_add);
        if total > addressable {
            let jobs = 1 + t.co_scheduled.len();
            let fair = addressable / jobs as u64;
            let slots = t.spec.ring_slots();
            let max_chunk = fair / (slots as u64 * t.spec.buffers_per_slot());
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Error,
                    format!(
                        "{jobs} co-scheduled jobs pin {total} bytes of MCDRAM buffer rings \
                         ({} slots each) but only {addressable} are addressable: some \
                         tenant's hbw_malloc must fail",
                        slots
                    ),
                )
                .with_context("co_scheduled.jobs", jobs)
                .with_context("aggregate.footprint", total)
                .with_context("machine.addressable_mcdram", addressable)
                .with_suggestion(format!(
                    "admit fewer jobs at once (e.g. via the mlm-serve capacity broker), \
                     or shrink each job's chunk_bytes to at most {max_chunk}"
                )),
            );
        }
    }
}

/// V011: fleet placement feasibility.
///
/// A fleet dispatcher (`mlm-fleet`) rejects at submission any job whose
/// buffer ring no node could *ever* fit — the fleet-level mirror of the
/// single-node broker's `can_ever_fit_job`. This lint raises the same verdict
/// at plan time: a strict-HBW ring larger than every node's MCDRAM budget
/// (with no spill escape hatch) will never run, so the plan should fail
/// before the trace is generated. The check delegates to the same
/// [`CapacityBroker`] predicate the dispatcher consults, so the two can
/// never drift.
struct FleetPlacementFeasibility;

impl Lint for FleetPlacementFeasibility {
    fn id(&self) -> &'static str {
        "V011"
    }
    fn name(&self) -> &'static str {
        "fleet-placement-feasibility"
    }
    fn description(&self) -> &'static str {
        "a fleet-dispatched job's buffer ring must be feasible on at least one node"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Some(fleet) = &t.fleet else { return };
        if fleet.nodes.is_empty() {
            return; // FleetConfig::validate rejects empty fleets outright
        }
        if t.spec.placement != Placement::Hbw {
            return; // only MCDRAM rings compete for node budgets
        }
        let slots = t.spec.ring_slots();
        let footprint = declared_bytes(t.spec, Placement::Hbw);
        if footprint == 0 {
            return;
        }
        let feasible = fleet.nodes.iter().any(|n| {
            CapacityBroker::new(&n.machine, n.mcdram_budget, n.spill)
                .can_ever_fit_job(t.spec, !fleet.strict)
        });
        if feasible {
            return;
        }
        let max_budget = fleet
            .nodes
            .iter()
            .map(|n| n.mcdram_budget.min(n.machine.addressable_mcdram()))
            .max()
            .unwrap_or(0);
        let max_chunk = max_budget / (slots as u64 * t.spec.buffers_per_slot());
        let semantics = if fleet.strict { "strict-HBW" } else { "HBW" };
        out.push(
            Diagnostic::new(
                self.id(),
                self.name(),
                Severity::Error,
                format!(
                    "{semantics} buffer ring of {footprint} bytes ({} slots) fits no node \
                     of the {}-node fleet (largest usable MCDRAM budget: {max_budget} \
                     bytes): the dispatcher rejects this job at submission",
                    slots,
                    fleet.nodes.len()
                ),
            )
            .with_context("spec.ring_footprint", footprint)
            .with_context("fleet.nodes", fleet.nodes.len())
            .with_context("fleet.max_mcdram_budget", max_budget)
            .with_suggestion(format!(
                "shrink chunk_bytes to at most {max_chunk}, relax the job to \
                 HBW_PREFERRED (spill-ok) on a spill-capable node, or add a node \
                 with a larger MCDRAM budget"
            )),
        );
    }
}

/// V012: stencil halo feasibility.
///
/// The stencil family adds a spec-level hazard no chunk-local lint sees:
/// halo geometry. `PipelineSpec::validate` rejects a halo as wide as the
/// chunk outright, but a halo that is merely *large* is legal and quietly
/// inverts the traffic balance — every interior chunk re-reads both
/// neighbours' boundary bytes, so past `2 x halo >= chunk` the pipeline
/// moves more halo bytes than payload bytes and Eqs. 1–5 stop favouring
/// staging at all; a halo that is not a whole number of host elements
/// panics the host backend's slice carving. Whether the inter-chunk edges
/// fit the buffer ring is the graph verifier's question (G001/G004).
struct StencilHaloFeasibility;

impl Lint for StencilHaloFeasibility {
    fn id(&self) -> &'static str {
        "V012"
    }
    fn name(&self) -> &'static str {
        "stencil-halo-feasibility"
    }
    fn description(&self) -> &'static str {
        "stencil halos must be whole elements and narrow relative to the chunk"
    }
    fn check(&self, t: &VerifyTarget<'_>, out: &mut Vec<Diagnostic>) {
        let Workload::Stencil { halo_bytes } = t.spec.workload else {
            return;
        };
        if t.spec.validate().is_err() {
            return; // V000 already rejects (halo >= chunk, implicit staging)
        }
        let elem = t.elem_bytes as u64;
        if elem > 0 && halo_bytes % elem != 0 {
            let rounded = (halo_bytes / elem).max(1) * elem;
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Error,
                    format!(
                        "halo of {halo_bytes} bytes is not a whole number of {elem}-byte \
                         elements: the host backend cannot carve the neighbour views and \
                         panics at run start"
                    ),
                )
                .with_context("spec.workload.halo_bytes", halo_bytes)
                .with_context("target.elem_bytes", t.elem_bytes)
                .with_suggestion(format!(
                    "round halo_bytes to a multiple of the element size, e.g. {rounded}"
                )),
            );
        }
        if 2 * halo_bytes >= t.spec.chunk_bytes {
            out.push(
                Diagnostic::new(
                    self.id(),
                    self.name(),
                    Severity::Warning,
                    format!(
                        "interior chunks re-read {} halo bytes against a {}-byte payload: \
                         neighbour traffic matches or exceeds the chunk's own, so the \
                         staged pipeline's copy/compute balance (Eqs. 1-5) no longer \
                         favours staging",
                        2 * halo_bytes,
                        t.spec.chunk_bytes
                    ),
                )
                .with_context("spec.workload.halo_bytes", halo_bytes)
                .with_context("spec.chunk_bytes", t.spec.chunk_bytes)
                .with_suggestion("grow chunk_bytes or shrink the halo until 2 x halo < chunk"),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;

    fn knl() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn good_spec() -> PipelineSpec {
        PipelineSpec {
            total_bytes: 8 << 30,
            chunk_bytes: 1 << 30,
            p_in: 8,
            p_out: 8,
            p_comp: 64,
            compute_passes: 4,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn ids(report: &LintReport) -> Vec<&'static str> {
        report.diagnostics.iter().map(|d| d.id).collect()
    }

    #[test]
    fn paper_like_spec_is_clean() {
        let machine = knl();
        let spec = good_spec();
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.is_clean(), "unexpected findings:\n{report}");
    }

    #[test]
    fn v000_degenerate_spec() {
        let machine = knl();
        let mut spec = good_spec();
        spec.p_comp = 0;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(ids(&report).contains(&"V000"));
        assert!(report.has_errors());
    }

    #[test]
    fn v001_misaligned_chunk() {
        let machine = knl();
        let mut spec = good_spec();
        spec.chunk_bytes = (1 << 30) + 3;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert_eq!(report.error_ids(), vec!["V001"]);
        let d = report.errors().next().unwrap();
        assert!(d.suggestion.is_some());
        assert!(!d.context.is_empty());
    }

    #[test]
    fn v002_buffers_exceed_mcdram() {
        let machine = knl();
        let mut spec = good_spec();
        spec.chunk_bytes = 8 << 30; // 3 live chunks x 8 GiB > 16 GiB
        spec.total_bytes = 64 << 30;
        // The fit is proven on the schedule (G003); V002 prices only the
        // implicit-mode cache.
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert_eq!(report.error_ids(), vec!["G003"], "{report}");
    }

    /// MCDRAM fit is priced on the chunk buffers the plan holds live
    /// (G003), not on a full ring the spec may never fill.
    #[test]
    fn mcdram_fit_is_priced_on_the_chunks_that_exist() {
        let flat = knl();
        let cache = MachineConfig::knl_7250(MemMode::Cache);
        let with_chunks = |chunk_bytes: u64, total_bytes: u64| PipelineSpec {
            chunk_bytes,
            total_bytes,
            ..good_spec()
        };
        // (spec, machine, error ids, ids that must stay silent)
        let cases: Vec<(PipelineSpec, &MachineConfig, Vec<&str>, [&str; 2])> = vec![
            // One 8 GiB chunk: a single live buffer fits 16 GiB.
            (
                with_chunks(8 << 30, 8 << 30),
                &flat,
                vec![],
                ["V002", "G003"],
            ),
            // Three of them cannot.
            (
                with_chunks(8 << 30, 24 << 30),
                &flat,
                vec!["G003"],
                ["V002", "V003"],
            ),
            // No addressable MCDRAM is a placement error, not an overflow.
            (good_spec(), &cache, vec!["V003"], ["V002", "G003"]),
        ];
        for (spec, machine, errors, silent) in cases {
            let report = lint_target(&VerifyTarget::new(&spec, machine));
            assert_eq!(report.error_ids(), errors, "{report}");
            for id in silent {
                assert!(!ids(&report).contains(&id), "{id} fired:\n{report}");
            }
        }
    }

    #[test]
    fn v002_implicit_chunk_thrashes_cache_is_warning() {
        let machine = MachineConfig::knl_7250(MemMode::Cache);
        let mut spec = good_spec();
        spec.placement = Placement::Implicit;
        spec.p_in = 0;
        spec.p_out = 0;
        spec.chunk_bytes = 32 << 30;
        spec.total_bytes = 64 << 30;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(!report.has_errors());
        assert!(ids(&report).contains(&"V002"));
    }

    #[test]
    fn v003_hbw_in_cache_mode() {
        let machine = MachineConfig::knl_7250(MemMode::Cache);
        let spec = good_spec();
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"V003"));
        // G003 must stay quiet: no addressable MCDRAM is V003's finding,
        // so the proof gets no budget to overflow.
        assert!(!ids(&report).contains(&"G003"));
        let graph = crate::graph::graph_report_for(&spec, &machine).unwrap();
        assert!(graph.is_safe(), "{graph}");
    }

    #[test]
    fn v005_oversubscription() {
        let machine = knl();
        let mut spec = good_spec();
        spec.p_comp = 300; // 8 + 8 + 300 > 272
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"V005"));
    }

    #[test]
    fn v005_full_occupancy_is_warning() {
        let machine = knl();
        let mut spec = good_spec();
        spec.p_comp = 272 - 16;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(!report.has_errors(), "{report}");
        assert!(ids(&report).contains(&"V005"));
    }

    #[test]
    fn v006_nan_rate_is_error() {
        let machine = knl();
        let mut spec = good_spec();
        spec.copy_rate = f64::NAN;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"V006"));
    }

    #[test]
    fn v006_ddr_saturated_copy_pool_warns() {
        let machine = knl();
        let mut spec = good_spec();
        spec.p_in = 32;
        spec.p_out = 32; // 64 x 4.8 GB/s = 307 GB/s >> 90 GB/s
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(!report.has_errors(), "{report}");
        assert!(ids(&report).contains(&"V006"));
    }

    #[test]
    fn v007_single_chunk_info() {
        let machine = knl();
        let mut spec = good_spec();
        spec.total_bytes = spec.chunk_bytes;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(!report.has_errors());
        assert!(ids(&report).contains(&"V007"));
    }

    #[test]
    fn v008_cluster_checks() {
        let machine = knl();
        let spec = good_spec();
        let bad = ClusterConfig {
            nodes: 0,
            link_bandwidth: 12.5e9,
            link_latency: 2e-6,
        };
        let report = lint_target(&VerifyTarget::new(&spec, &machine).with_cluster(&bad));
        assert!(report.error_ids().contains(&"V008"));

        let fast = ClusterConfig {
            nodes: 4,
            link_bandwidth: 500e9,
            link_latency: 2e-6,
        };
        let report = lint_target(&VerifyTarget::new(&spec, &machine).with_cluster(&fast));
        assert!(!report.has_errors());
        assert!(ids(&report).contains(&"V008"));
    }

    #[test]
    fn v009_concurrent_set_oversubscribes_mcdram() {
        let machine = knl();
        let spec = good_spec(); // 3 GiB ring: individually fine (16 GiB)
                                // Five more identical tenants: 6 x 3 GiB = 18 GiB > 16 GiB.
        let others = vec![good_spec(); 5];
        let report = lint_target(&VerifyTarget::new(&spec, &machine).with_co_scheduled(&others));
        assert!(report.error_ids().contains(&"V009"));
        let d = report
            .errors()
            .find(|d| d.id == "V009")
            .expect("V009 diagnostic");
        assert!(d.suggestion.is_some());
        // Each job alone fits.
        let alone = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(alone.is_clean(), "{alone}");
    }

    #[test]
    fn v009_fitting_set_is_clean() {
        let machine = knl();
        let spec = good_spec();
        let others = vec![good_spec(); 4]; // 5 x 3 GiB = 15 GiB <= 16 GiB
        let report = lint_target(&VerifyTarget::new(&spec, &machine).with_co_scheduled(&others));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn v009_only_counts_flat_placements() {
        let machine = knl();
        let spec = good_spec();
        // Lots of co-scheduled jobs, but none pin MCDRAM.
        let mut ddr = good_spec();
        ddr.placement = Placement::Ddr;
        let mut implicit = good_spec();
        implicit.placement = Placement::Implicit;
        implicit.p_in = 0;
        implicit.p_out = 0;
        let others = vec![ddr, implicit.clone(), implicit];
        let report = lint_target(&VerifyTarget::new(&spec, &machine).with_co_scheduled(&others));
        assert!(!ids(&report).contains(&"V009"), "{report}");
    }

    fn stencil_spec(halo_bytes: u64) -> PipelineSpec {
        let mut s = good_spec();
        s.workload = Workload::Stencil { halo_bytes };
        s
    }

    #[test]
    fn v012_well_formed_stencil_is_clean() {
        let machine = knl();
        let spec = stencil_spec(1 << 20);
        // The default target picks up the spec's own 4-slot ring, and the
        // doubled in/out buffers still fit MCDRAM: no findings at all.
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.is_clean(), "{report}");
    }

    #[test]
    fn v012_misaligned_halo_is_an_error() {
        let machine = knl();
        let spec = stencil_spec((1 << 20) + 4); // not a whole 8-byte element
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"V012"), "{report}");
    }

    #[test]
    fn v012_dominant_halo_is_a_warning() {
        let machine = knl();
        let spec = stencil_spec(good_spec().chunk_bytes / 2); // 2 x halo == chunk
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(!report.has_errors(), "{report}");
        assert!(ids(&report).contains(&"V012"));
    }

    #[test]
    fn v012_defers_invalid_specs_to_v000() {
        let machine = knl();
        let spec = stencil_spec(good_spec().chunk_bytes); // halo >= chunk
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"V000"));
        assert!(!report.error_ids().contains(&"V012"), "{report}");
    }

    #[test]
    fn v002_counts_the_stencil_double_buffers() {
        let machine = knl();
        // 3 GiB chunks x 4 slots x 2 buffers = 24 GiB > 16 GiB MCDRAM,
        // where the same geometry as a map workload (3 slots x 1) fits.
        let mut spec = stencil_spec(1 << 20);
        spec.chunk_bytes = 3 << 30;
        spec.total_bytes = 24 << 30;
        let report = lint_target(&VerifyTarget::new(&spec, &machine));
        assert!(report.error_ids().contains(&"G003"), "{report}");
        let mut map = good_spec();
        map.chunk_bytes = 3 << 30;
        map.total_bytes = 24 << 30;
        let report = lint_target(&VerifyTarget::new(&map, &machine));
        assert!(!ids(&report).contains(&"G003"), "{report}");
    }

    #[test]
    fn registry_lists_builtin_lints() {
        let r = LintRegistry::with_builtin_lints();
        let ids: Vec<&str> = r.lints().iter().map(|l| l.id()).collect();
        assert_eq!(
            ids,
            vec![
                "V000", "V001", "V002", "V003", "V005", "V006", "V007", "V008", "V009", "V011",
                "V012"
            ]
        );
        // Ids are unique and every lint has a description.
        for l in r.lints() {
            assert!(!l.description().is_empty());
            assert!(!l.name().is_empty());
        }
    }

    #[test]
    fn at_least_five_distinct_error_classes() {
        // The acceptance criterion: five distinct invalid-spec classes,
        // each rejected with its own lint id.
        let machine = knl();
        let cache_machine = MachineConfig::knl_7250(MemMode::Cache);

        let mut degenerate = good_spec();
        degenerate.total_bytes = 0;
        let mut misaligned = good_spec();
        misaligned.chunk_bytes += 1;
        let mut oversized = good_spec();
        oversized.chunk_bytes = 8 << 30;
        oversized.total_bytes = 64 << 30;
        let mut oversubscribed = good_spec();
        oversubscribed.p_comp = 1000;
        let mut nan_rate = good_spec();
        nan_rate.compute_rate = f64::INFINITY;

        let cases: Vec<(&PipelineSpec, &MachineConfig, &str)> = vec![
            (&degenerate, &machine, "V000"),
            (&misaligned, &machine, "V001"),
            (&oversized, &machine, "G003"),
            (good_spec_static(), &cache_machine, "V003"),
            (&oversubscribed, &machine, "V005"),
            (&nan_rate, &machine, "V006"),
        ];
        let mut seen = std::collections::BTreeSet::new();
        for (spec, m, want) in cases {
            let report = lint_target(&VerifyTarget::new(spec, m));
            assert!(
                report.error_ids().contains(&want),
                "expected {want} for spec, got {:?}",
                report.error_ids()
            );
            seen.insert(want);
        }
        assert!(seen.len() >= 5);
    }

    fn good_spec_static() -> &'static PipelineSpec {
        use std::sync::OnceLock;
        static SPEC: OnceLock<PipelineSpec> = OnceLock::new();
        SPEC.get_or_init(good_spec)
    }

    #[test]
    fn v011_fires_only_when_no_fleet_node_fits() {
        const GIB: u64 = 1 << 30;
        // 12 GiB ring (4 GiB chunks × 3 slots): fine on one machine's
        // 16 GiB MCDRAM (no G003), infeasible on 8 GiB fleet budgets.
        let mut s = good_spec();
        s.chunk_bytes = 4 * GIB;
        s.total_bytes = 32 * GIB;
        let small = vec![
            NodeConfig::new(knl(), 8 * GIB, false),
            NodeConfig::new(knl(), 8 * GIB, false),
        ];
        let report = lint_target(&VerifyTarget::new(&s, &knl()).with_fleet(&small, true));
        assert_eq!(report.error_ids(), vec!["V011"]);

        // One 16 GiB node makes the fleet feasible again.
        let mixed = vec![
            NodeConfig::new(knl(), 8 * GIB, false),
            NodeConfig::new(knl(), 16 * GIB, false),
        ];
        let report = lint_target(&VerifyTarget::new(&s, &knl()).with_fleet(&mixed, true));
        assert!(!ids(&report).contains(&"V011"));

        // So does relaxing the job to spill-ok on a spill-capable node.
        let spilly = vec![NodeConfig::new(knl(), 8 * GIB, true)];
        let report = lint_target(&VerifyTarget::new(&s, &knl()).with_fleet(&spilly, false));
        assert!(!ids(&report).contains(&"V011"));
        // ... but a strict job cannot use the spill escape hatch.
        let report = lint_target(&VerifyTarget::new(&s, &knl()).with_fleet(&spilly, true));
        assert!(report.error_ids().contains(&"V011"));

        // Single-node (non-fleet) targets never see V011.
        let report = lint_target(&VerifyTarget::new(&s, &knl()));
        assert!(!ids(&report).contains(&"V011"));
    }
}
