//! Fleet configuration: per-node capacity, placement policy, stealing.

use knl_sim::machine::MachineConfig;
use knl_sim::GIB;
use mlm_cluster::ClusterConfig;
use mlm_serve::{Policy, ServeConfig};

/// One node's serving capacity.
#[derive(Debug, Clone)]
pub struct NodeConfig {
    /// The node's machine model (buses, threads, memory capacities).
    pub machine: MachineConfig,
    /// MCDRAM bytes this node's broker may hand out (clamped to
    /// addressable; heterogeneous fleets mix 8 and 16 GiB budgets).
    pub mcdram_budget: u64,
    /// `HBW_PREFERRED` semantics for non-strict jobs: spill their rings to
    /// DDR instead of queueing when MCDRAM is full.
    pub spill: bool,
}

impl NodeConfig {
    /// A node serving `machine` with the given budget and spill policy.
    pub fn new(machine: MachineConfig, mcdram_budget: u64, spill: bool) -> Self {
        NodeConfig {
            machine,
            mcdram_budget,
            spill,
        }
    }

    /// The single-node [`ServeConfig`] this node runs under the fleet's
    /// shared queueing policy.
    pub fn serve_config(&self, policy: Policy, fair_aging: f64) -> ServeConfig {
        ServeConfig {
            machine: self.machine.clone(),
            policy,
            mcdram_budget: self.mcdram_budget,
            spill: self.spill,
            fair_aging,
        }
    }
}

/// How the dispatcher picks a node for each arriving job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlacementPolicy {
    /// First node (by id) whose capacity fits the job right now; falls
    /// back to the first feasible node when none does.
    FirstFit,
    /// Node with the *least* MCDRAM headroom that still fits the ring —
    /// tightest fit, so big strict rings keep finding big holes elsewhere.
    /// Falls back to the node with the smallest strict backlog.
    BestFitHbw,
    /// Node with the lowest MCDRAM load (reserved + queued strict bytes,
    /// normalised by budget) — classic spreading.
    LeastLoaded,
}

impl PlacementPolicy {
    /// Every policy, for sweeps.
    pub const ALL: [PlacementPolicy; 3] = [
        PlacementPolicy::FirstFit,
        PlacementPolicy::BestFitHbw,
        PlacementPolicy::LeastLoaded,
    ];

    /// Stable label for CSV/report output.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::FirstFit => "first-fit",
            PlacementPolicy::BestFitHbw => "best-fit-hbw",
            PlacementPolicy::LeastLoaded => "least-loaded",
        }
    }
}

/// Configuration for one fleet serving run.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The nodes, in placement id order.
    pub nodes: Vec<NodeConfig>,
    /// Per-node queueing policy (shared by every node).
    pub policy: Policy,
    /// Dispatcher placement policy.
    pub placement: PlacementPolicy,
    /// Cross-node work stealing for straggler queues.
    pub steal: bool,
    /// Interconnect model pricing stolen-job migration (ring bytes over
    /// the link plus latency). `None` makes stealing free.
    pub cluster: Option<ClusterConfig>,
    /// Fair-share starvation bound, per node (see
    /// [`ServeConfig::fair_aging`]).
    pub fair_aging: f64,
}

impl FleetConfig {
    /// A homogeneous fleet of `n` identical nodes.
    pub fn homogeneous(machine: MachineConfig, n: usize, mcdram_budget: u64, spill: bool) -> Self {
        FleetConfig {
            nodes: (0..n)
                .map(|_| NodeConfig::new(machine.clone(), mcdram_budget, spill))
                .collect(),
            policy: Policy::Fifo,
            placement: PlacementPolicy::FirstFit,
            steal: false,
            cluster: None,
            fair_aging: f64::INFINITY,
        }
    }

    /// A heterogeneous fleet alternating 8 and 16 GiB MCDRAM budgets
    /// (even node ids get 16 GiB, odd get 8), the mixed-capacity shape the
    /// fleet study sweeps.
    pub fn mixed_8_16(machine: MachineConfig, n: usize, spill: bool) -> Self {
        let mut cfg = FleetConfig::homogeneous(machine, n, 16 * GIB, spill);
        for (i, node) in cfg.nodes.iter_mut().enumerate() {
            node.mcdram_budget = if i % 2 == 0 { 16 * GIB } else { 8 * GIB };
        }
        cfg
    }

    /// Validate the configuration: each node's [`ServeConfig`], then the
    /// interconnect.
    pub fn validate(&self) -> Result<(), String> {
        if self.nodes.is_empty() {
            return Err("fleet needs at least one node".into());
        }
        for (i, n) in self.nodes.iter().enumerate() {
            n.serve_config(self.policy, self.fair_aging)
                .validate()
                .map_err(|e| format!("node {i}: {e}"))?;
        }
        if let Some(c) = &self.cluster {
            c.validate().map_err(|e| format!("cluster: {e}"))?;
        }
        Ok(())
    }
}
