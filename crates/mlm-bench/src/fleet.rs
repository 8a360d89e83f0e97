//! The fleet study: sweep node count × placement policy × queueing
//! policy over λ-scaled fleet traces, and the fleet throughput benchmark
//! behind `BENCH_fleet.json`.
//!
//! This is the multi-node follow-on to [`crate::serving`]: once the
//! serving broker is sharded across a fleet of KNLs with mixed 8/16 GiB
//! MCDRAM budgets, the *placement* policy — which node a job's buffer
//! ring lands on — joins the admission policy as a first-order lever on
//! strict-HBW tail latency. The study runs the fleet *above* its
//! strict-HBW capacity — sustained overload, where queues grow and
//! placement decides how gracefully the strict tail degrades — and shows
//! the effect the dispatcher was built for: best-fit-by-HBW-headroom
//! packs small strict rings into the smallest adequate hole, keeping the
//! 16 GiB nodes' headroom whole for the strict batch elephants whose
//! 12 GiB rings only those nodes can host, while least-loaded's
//! budget-normalised spreading fragments exactly that headroom — so
//! best-fit roughly halves the strict-HBW p99. (Below saturation the
//! ranking flips: with headroom everywhere, spreading is free and
//! packing just manufactures hotspots. The single-node serving study
//! covers that regime.)
//!
//! Everything is seeded and virtual-time: the same sweep produces a
//! byte-identical `results/fleet_study.csv` (including the per-cell
//! decision digests), which is what lets CI hard-fail on placement
//! decision drift — and on a rise in the dispatcher's exact work
//! counters — while merely warning on wall-clock jobs/sec noise.

use std::time::Instant;

use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::GIB;
use mlm_cluster::ClusterConfig;
use mlm_fleet::{
    decision_digest, fleet_serve, fleet_trace, FleetConfig, FleetJob, FleetTraceConfig,
    PlacementPolicy,
};
use mlm_serve::{FleetStats, Policy, TraceConfig};
use serde::{Deserialize, Serialize};

/// Fleet trace seed; every run of the study is bit-for-bit deterministic.
pub const FLEET_SEED: u64 = 0xf1ee_cafe;

/// Node-count sweep: a single node (the degenerate fleet, comparable to
/// the single-node serving study), a rack slice, and a full rack row.
pub const NODE_COUNTS: [usize; 3] = [1, 4, 16];

/// Jobs per node-stream in the CSV sweep (λ scales with the node count,
/// so the 16-node cells serve 16× the jobs of the 1-node cells).
pub const CSV_JOBS_PER_NODE: usize = 250;

/// Jobs per node-stream in the throughput benchmark: 16 × 62 500 = one
/// million jobs per cell, the fleet-scale trace the dispatcher must price
/// at interactive speed.
pub const BENCH_JOBS_PER_NODE: usize = 62_500;

/// Per-node base arrival rate (jobs/s) — above the fleet's strict-HBW
/// capacity for the mix below, so queues build and placement quality sets
/// the degradation slope.
pub const NODE_ARRIVAL_RATE: f64 = 3.0;

/// The placement policies the timed benchmark prices, one cell each.
/// First-fit's pileups make it the dispatcher's worst case — 947k steals
/// and 3.2M steal attempts on the million-job trace, against ~100k and
/// ~110k — so its cell is the one that shows a steal path growing a term
/// in queue length (when the steal step still walked the queues, this
/// cell alone took hours and was left out).
pub const BENCH_PLACEMENTS: [PlacementPolicy; 3] = [
    PlacementPolicy::BestFitHbw,
    PlacementPolicy::LeastLoaded,
    PlacementPolicy::FirstFit,
];

/// The per-node trace template every fleet cell derives from: a
/// strict-heavy mix (70% strict, 20% batch elephants) whose elephants pin
/// 12 GiB rings (4 GiB chunks × 3 slots) only the 16 GiB nodes can host,
/// and whose strict standard jobs pin 6 GiB rings that fragment a big
/// node the moment spreading parks one there — the heterogeneity the
/// placement policies fight over.
pub fn fleet_trace_config(nodes: usize, jobs_per_node: usize) -> FleetTraceConfig {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let mut base = TraceConfig::new(machine, 0, NODE_ARRIVAL_RATE, FLEET_SEED);
    base.batch_frac = 0.20;
    base.standard_chunk = 2 * GIB;
    base.batch_chunk = 4 * GIB;
    let mut cfg = FleetTraceConfig::new(base, nodes, jobs_per_node);
    cfg.strict_frac = 0.7;
    cfg
}

/// The fleet every cell runs: mixed 8/16 GiB budgets, spill-capable (so
/// non-strict jobs ride DDR instead of queueing), stealing over an
/// Omni-Path interconnect.
pub fn fleet_config(nodes: usize, placement: PlacementPolicy, policy: Policy) -> FleetConfig {
    let machine = MachineConfig::knl_7250(MemMode::Flat);
    let mut cfg = FleetConfig::mixed_8_16(machine, nodes, true);
    cfg.placement = placement;
    cfg.policy = policy;
    cfg.steal = true;
    cfg.cluster = Some(ClusterConfig::omnipath(nodes));
    cfg
}

/// One cell of the sweep.
#[derive(Debug, Clone)]
pub struct FleetStudyRow {
    /// Fleet size.
    pub nodes: usize,
    /// Dispatcher placement policy.
    pub placement: PlacementPolicy,
    /// Per-node queueing policy.
    pub policy: Policy,
    /// Fleet-wide statistics.
    pub stats: FleetStats,
    /// p99 end-to-end latency over strict-HBW jobs — the number placement
    /// policies compete on.
    pub strict_p99: f64,
    /// Work-steal migrations performed.
    pub steals: usize,
    /// Canonical decision digest ([`mlm_fleet::decision_digest`]); any
    /// change here is a placement/admission behaviour change.
    pub digest: u64,
}

/// Run the full sweep: node count × placement policy × queueing policy.
pub fn fleet_study(jobs_per_node: usize) -> Result<Vec<FleetStudyRow>, String> {
    let mut rows = Vec::new();
    for &nodes in &NODE_COUNTS {
        let trace = fleet_trace(&fleet_trace_config(nodes, jobs_per_node));
        for placement in PlacementPolicy::ALL {
            for &policy in &Policy::ALL {
                let cfg = fleet_config(nodes, placement, policy);
                let out = fleet_serve(&cfg, &trace)?;
                rows.push(FleetStudyRow {
                    nodes,
                    placement,
                    policy,
                    strict_p99: out.strict_p99,
                    steals: out.steals,
                    digest: decision_digest(&out.decisions, nodes),
                    stats: out.fleet,
                });
            }
        }
    }
    Ok(rows)
}

/// Find the cell for (nodes, placement, policy); panics if missing.
pub fn cell(
    rows: &[FleetStudyRow],
    nodes: usize,
    placement: PlacementPolicy,
    policy: Policy,
) -> &FleetStudyRow {
    rows.iter()
        .find(|r| r.nodes == nodes && r.placement == placement && r.policy == policy)
        .expect("sweep cell missing")
}

/// One measured cell of the throughput benchmark.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchCell {
    /// Placement policy label.
    pub placement: String,
    /// Jobs completed.
    pub jobs: usize,
    /// Jobs rejected at submission.
    pub rejected: usize,
    /// Wall seconds to price the whole trace (dispatcher throughput, not
    /// simulated time).
    pub wall_secs: f64,
    /// Jobs priced per wall second — the tracked PR-over-PR number.
    pub jobs_per_sec: f64,
    /// Strict-HBW p99 latency (simulated seconds).
    pub strict_p99: f64,
    /// Work-steal migrations.
    pub steals: usize,
    /// Canonical decision digest, hex — CI hard-fails when this drifts.
    pub digest: String,
    /// The dispatcher's work counters: exact for a given trace, so CI
    /// hard-fails when one *rises* — a gate that cannot flake, unlike
    /// jobs/sec. `None` in a report written before they existed.
    #[serde(default)]
    pub work: Option<FleetWork>,
}

/// [`mlm_fleet::FleetOutcome`]'s work counters, as recorded per cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetWork {
    /// Event times the loop visited.
    pub events: u64,
    /// Node re-tunes that found a changed running set.
    pub node_retunes: u64,
    /// Eqs. 1–5 profile evaluations.
    pub profile_searches: u64,
    /// Admission passes that ran (the rest were skipped: nothing touched
    /// the node since its last pass).
    pub admission_passes: u64,
    /// Idle nodes that had a donor queue to look into.
    pub steal_attempts: u64,
    /// Fit checks made by steal lookups.
    pub steal_probes: u64,
}

impl FleetWork {
    /// The counters by name, for tables and the `--check` gate.
    pub fn named(&self) -> [(&'static str, u64); 6] {
        [
            ("events", self.events),
            ("node_retunes", self.node_retunes),
            ("profile_searches", self.profile_searches),
            ("admission_passes", self.admission_passes),
            ("steal_attempts", self.steal_attempts),
            ("steal_probes", self.steal_probes),
        ]
    }
}

/// The whole benchmark report, serialized to `BENCH_fleet.json`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FleetBenchReport {
    /// Always `"fleet"`.
    pub bench: String,
    /// Always `"jobs/sec"`.
    pub unit: String,
    /// Fleet size of the benchmark (largest sweep point).
    pub nodes: usize,
    /// Jobs per node-stream.
    pub jobs_per_node: usize,
    /// Total jobs per cell.
    pub total_jobs: usize,
    /// One cell per placement policy, FIFO queueing.
    pub cells: Vec<FleetBenchCell>,
}

/// Run the throughput benchmark: the largest fleet, one cell per
/// [`BENCH_PLACEMENTS`] policy, FIFO queueing (so the placement effect is
/// unmixed).
pub fn run_fleet_bench(jobs_per_node: usize) -> Result<FleetBenchReport, String> {
    let nodes = *NODE_COUNTS.last().unwrap();
    let trace = fleet_trace(&fleet_trace_config(nodes, jobs_per_node));
    let mut cells = Vec::new();
    for placement in BENCH_PLACEMENTS {
        let cfg = fleet_config(nodes, placement, Policy::Fifo);
        let t0 = Instant::now();
        let out = fleet_serve(&cfg, &trace)?;
        let wall = t0.elapsed().as_secs_f64();
        cells.push(FleetBenchCell {
            placement: placement.label().to_string(),
            jobs: out.fleet.jobs,
            rejected: out.fleet.rejected,
            wall_secs: wall,
            jobs_per_sec: trace.len() as f64 / wall,
            strict_p99: out.strict_p99,
            steals: out.steals,
            digest: format!("{:#018x}", decision_digest(&out.decisions, nodes)),
            work: Some(FleetWork {
                events: out.events,
                node_retunes: out.node_retunes,
                profile_searches: out.profile_searches,
                admission_passes: out.admission_passes,
                steal_attempts: out.steal_attempts,
                steal_probes: out.steal_probes,
            }),
        });
    }
    Ok(FleetBenchReport {
        bench: "fleet".to_string(),
        unit: "jobs/sec".to_string(),
        nodes,
        jobs_per_node,
        total_jobs: trace.len(),
        cells,
    })
}

/// The λ-scaled trace for external callers (tests, the bin).
pub fn study_trace(nodes: usize, jobs_per_node: usize) -> Vec<FleetJob> {
    fleet_trace(&fleet_trace_config(nodes, jobs_per_node))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::OnceLock;

    /// Reduced scale for debug-profile `cargo test`; the release bin runs
    /// [`CSV_JOBS_PER_NODE`] and [`BENCH_JOBS_PER_NODE`].
    const TEST_JOBS_PER_NODE: usize = 40;

    fn study() -> &'static [FleetStudyRow] {
        static STUDY: OnceLock<Vec<FleetStudyRow>> = OnceLock::new();
        STUDY.get_or_init(|| fleet_study(TEST_JOBS_PER_NODE).unwrap())
    }

    #[test]
    fn study_is_deterministic() {
        let a = study();
        let b = fleet_study(TEST_JOBS_PER_NODE).unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.digest, y.digest, "{:?}/{:?}", x.placement, x.policy);
            assert_eq!(x.stats, y.stats);
            assert_eq!(x.strict_p99.to_bits(), y.strict_p99.to_bits());
        }
    }

    #[test]
    fn every_cell_conserves_jobs() {
        for row in study() {
            assert_eq!(
                row.stats.jobs + row.stats.rejected,
                row.nodes * TEST_JOBS_PER_NODE,
                "{} nodes {:?}/{:?} lost jobs",
                row.nodes,
                row.placement,
                row.policy
            );
        }
    }

    #[test]
    fn placement_policies_actually_differ_at_scale() {
        // At 16 nodes the three placement policies must make genuinely
        // different decisions — identical digests would mean the sweep
        // compares a policy against itself.
        let digests: std::collections::BTreeSet<u64> = study()
            .iter()
            .filter(|r| r.nodes == 16 && r.policy == Policy::Fifo)
            .map(|r| r.digest)
            .collect();
        assert_eq!(digests.len(), 3, "placement digests collide: {digests:?}");
    }

    /// The study's headline claim: packing strict rings tightly
    /// (best-fit-hbw) beats spreading them (least-loaded) on strict-HBW
    /// p99 at the largest fleet, because spreading fragments the 16 GiB
    /// nodes' headroom that strict batch elephants need. The effect is a
    /// congestion one — on a cold fleet spreading is free — so this test
    /// runs its own two cells at the CSV sweep's scale, long enough for
    /// queue buildup to dominate the warmup transient. The release bin
    /// re-asserts the claim on the million-job trace.
    #[test]
    fn best_fit_beats_least_loaded_on_strict_p99() {
        let nodes = 16;
        let trace = study_trace(nodes, CSV_JOBS_PER_NODE);
        let p99 = |placement| {
            let cfg = fleet_config(nodes, placement, Policy::Fifo);
            fleet_serve(&cfg, &trace).unwrap().strict_p99
        };
        let best = p99(PlacementPolicy::BestFitHbw);
        let spread = p99(PlacementPolicy::LeastLoaded);
        assert!(
            best < spread,
            "best-fit strict p99 {best} >= least-loaded {spread}"
        );
    }

    #[test]
    fn bench_report_round_trips_through_json() {
        let report = FleetBenchReport {
            bench: "fleet".into(),
            unit: "jobs/sec".into(),
            nodes: 16,
            jobs_per_node: 62_500,
            total_jobs: 1_000_000,
            cells: vec![FleetBenchCell {
                placement: "best-fit-hbw".into(),
                jobs: 999_000,
                rejected: 1_000,
                wall_secs: 10.0,
                jobs_per_sec: 100_000.0,
                strict_p99: 42.5,
                steals: 17,
                digest: "0x0123456789abcdef".into(),
                work: Some(FleetWork {
                    events: 5,
                    node_retunes: 4,
                    profile_searches: 3,
                    admission_passes: 3,
                    steal_attempts: 2,
                    steal_probes: 1,
                }),
            }],
        };
        let json = serde_json::to_string(&report).unwrap();
        let back: FleetBenchReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.nodes, 16);
        assert_eq!(back.cells[0].digest, "0x0123456789abcdef");
        assert_eq!(back.cells[0].work, report.cells[0].work);
    }

    /// A `BENCH_fleet.json` from before the work counters still parses,
    /// with nothing recorded for `--check` to gate on.
    #[test]
    fn bench_report_without_work_counters_still_parses() {
        let old = r#"{"bench":"fleet","unit":"jobs/sec","nodes":16,"jobs_per_node":62500,
            "total_jobs":1000000,"cells":[{"placement":"least-loaded","jobs":1000000,
            "rejected":0,"wall_secs":65.4,"jobs_per_sec":15290.0,"strict_p99":42166.6,
            "steals":113096,"digest":"0x76d90b2c97a24541"}]}"#;
        let report: FleetBenchReport = serde_json::from_str(old).unwrap();
        assert_eq!(report.cells[0].steals, 113_096);
        assert_eq!(report.cells[0].work, None);
    }

    /// The dispatcher's per-event work follows what changed, not how big
    /// the fleet or its queues are — pinned by count, not by stopwatch, on
    /// the CSV sweep's 16-node FIFO overload cells.
    #[test]
    fn dispatch_work_is_proportional_to_events_not_to_queue_length() {
        let nodes = 16;
        let trace = study_trace(nodes, CSV_JOBS_PER_NODE);
        // Distinct (strictness, placement, ring size) among the jobs.
        let mut classes = Vec::new();
        for j in &trace {
            let ring = mlm_exec::declared_bytes(&j.req.spec, j.req.spec.placement);
            let class = (j.strict, j.req.spec.placement, ring);
            if !classes.contains(&class) {
                classes.push(class);
            }
        }
        for placement in PlacementPolicy::ALL {
            let cfg = fleet_config(nodes, placement, Policy::Fifo);
            let out = fleet_serve(&cfg, &trace).unwrap();
            let admissions = out
                .decisions
                .iter()
                .filter(|d| matches!(d, mlm_fleet::Decision::Admitted { .. }))
                .count();
            // A node re-tunes only when an admission or a completion
            // changed its running set (the parent: 16 per event).
            let changes = (admissions + out.records.len() + nodes) as u64;
            assert!(
                out.node_retunes <= changes && out.node_retunes < out.events * nodes as u64 / 4,
                "{placement:?}: {} retunes, {changes} changes, {} events",
                out.node_retunes,
                out.events
            );
            // A FIFO node runs an admission pass only after a submit (a
            // placement or a steal's delivery), a finish or a steal from
            // it touched the node (the parent: 16 per event).
            let placed = out
                .decisions
                .iter()
                .filter(|d| matches!(d, mlm_fleet::Decision::Placed { .. }))
                .count();
            let submits = placed + out.steals;
            let touches = (submits + out.records.len() + out.steals + nodes) as u64;
            assert!(
                out.admission_passes <= touches
                    && out.admission_passes < out.events * nodes as u64 / 4,
                "{placement:?}: {} passes, {touches} touches, {} events",
                out.admission_passes,
                out.events
            );
            // A job is profiled once at admission and once per thread
            // budget it meets, 272 / co-residents — a handful (the
            // parent: once per event it was running for, ~370 each).
            assert!(
                out.profile_searches <= 8 * admissions as u64,
                "{placement:?}: {} searches for {admissions} admissions",
                out.profile_searches
            );
            // A steal lookup costs at most one probe per donor per fit
            // class — no term in queue length (the parent's first-fit
            // walked 1,444 queue slots per steal).
            let bound = out.steal_attempts * (nodes as u64 - 1) * classes.len() as u64;
            assert!(out.steals > 0 && out.steal_attempts >= out.steals as u64);
            assert!(
                out.steal_probes <= bound,
                "{placement:?}: {} probes > {bound}",
                out.steal_probes
            );
        }
    }
}
