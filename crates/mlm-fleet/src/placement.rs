//! MCDRAM-aware node selection, shared by both serving modes.
//!
//! Placement happens once per job, at submission, against a snapshot of
//! every node's broker state. The policies only read the
//! [`PlacementView`] trait, which both the virtual-time [`NodeSim`]
//! wrapper and the host dispatcher's node state implement — so the two
//! modes run the *same* placement code, which is what makes their decision
//! sequences comparable at all.
//!
//! [`NodeSim`]: mlm_serve::NodeSim

use mlm_core::PipelineSpec;
pub use mlm_serve::ring_footprint;

use crate::config::PlacementPolicy;

/// The broker-state snapshot a placement policy may consult.
pub trait PlacementView {
    /// Could this node *ever* run the job (ring ≤ some reachable level)?
    fn can_take(&self, spec: &PipelineSpec, strict: bool) -> bool;
    /// Could the job start right now (ring ≤ current MCDRAM headroom, or a
    /// DDR spill is allowed)?
    fn fits_now(&self, spec: &PipelineSpec, strict: bool) -> bool;
    /// MCDRAM bytes currently unreserved.
    fn hbw_headroom(&self) -> u64;
    /// Ring bytes of strict jobs queued behind this node.
    fn queued_strict_bytes(&self) -> u64;
    /// MCDRAM bytes currently reserved.
    fn reserved_mcdram(&self) -> u64;
    /// The node's MCDRAM budget.
    fn budget(&self) -> u64;
}

/// MCDRAM pressure: reserved plus queued strict backlog, relative to
/// budget. Budget-0 nodes (cache mode) count as fully loaded.
fn load<V: PlacementView>(node: &V) -> f64 {
    (node
        .reserved_mcdram()
        .saturating_add(node.queued_strict_bytes())) as f64
        / node.budget().max(1) as f64
}

/// Pick a node for the job, or `None` when no node could ever fit it (the
/// fleet-level mirror of `can_ever_fit`: such jobs are rejected at
/// submission, never queued). Deterministic: every tie breaks toward the
/// lower node id. The feasible nodes are walked lazily; nothing is
/// allocated.
pub fn place<V: PlacementView>(
    nodes: &[V],
    policy: PlacementPolicy,
    spec: &PipelineSpec,
    strict: bool,
) -> Option<usize> {
    let mut feasible = (0..nodes.len()).filter(|&i| nodes[i].can_take(spec, strict));
    let footprint = ring_footprint(spec);
    match policy {
        PlacementPolicy::FirstFit => {
            // The first node that fits now, else the first feasible one.
            let first = feasible.next()?;
            std::iter::once(first)
                .chain(feasible)
                .find(|&i| nodes[i].fits_now(spec, strict))
                .or(Some(first))
        }
        PlacementPolicy::BestFitHbw => feasible
            .clone()
            .filter(|&i| footprint <= nodes[i].hbw_headroom() && nodes[i].fits_now(spec, strict))
            .min_by_key(|&i| (nodes[i].hbw_headroom() - footprint, i))
            .or_else(|| {
                // Nothing fits in MCDRAM right now: queue behind the node
                // with the smallest strict backlog (biggest budget breaks
                // ties, so giant rings wait where they can actually run).
                feasible.min_by_key(|&i| {
                    (
                        nodes[i].queued_strict_bytes(),
                        std::cmp::Reverse(nodes[i].budget()),
                        i,
                    )
                })
            }),
        PlacementPolicy::LeastLoaded => feasible
            .map(|i| (load(&nodes[i]), i))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
            .map(|(_, i)| i),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlm_core::{Placement, Workload};
    use proptest::prelude::*;

    /// [`place`] as it was before the walk went lazy: collect the feasible
    /// ids, then choose among them. Kept as the reference `place` must
    /// agree with.
    fn place_by_vec<V: PlacementView>(
        nodes: &[V],
        policy: PlacementPolicy,
        spec: &PipelineSpec,
        strict: bool,
    ) -> Option<usize> {
        let feasible: Vec<usize> = (0..nodes.len())
            .filter(|&i| nodes[i].can_take(spec, strict))
            .collect();
        if feasible.is_empty() {
            return None;
        }
        let footprint = ring_footprint(spec);
        match policy {
            PlacementPolicy::FirstFit => Some(
                feasible
                    .iter()
                    .copied()
                    .find(|&i| nodes[i].fits_now(spec, strict))
                    .unwrap_or(feasible[0]),
            ),
            PlacementPolicy::BestFitHbw => feasible
                .iter()
                .copied()
                .filter(|&i| {
                    footprint <= nodes[i].hbw_headroom() && nodes[i].fits_now(spec, strict)
                })
                .min_by(|&a, &b| {
                    (nodes[a].hbw_headroom() - footprint)
                        .cmp(&(nodes[b].hbw_headroom() - footprint))
                        .then(a.cmp(&b))
                })
                .or_else(|| {
                    feasible.iter().copied().min_by(|&a, &b| {
                        nodes[a]
                            .queued_strict_bytes()
                            .cmp(&nodes[b].queued_strict_bytes())
                            .then(nodes[b].budget().cmp(&nodes[a].budget()))
                            .then(a.cmp(&b))
                    })
                }),
            PlacementPolicy::LeastLoaded => feasible
                .iter()
                .copied()
                .min_by(|&a, &b| load(&nodes[a]).total_cmp(&load(&nodes[b])).then(a.cmp(&b))),
        }
    }

    struct Fake {
        headroom: u64,
        queued: u64,
        reserved: u64,
        budget: u64,
        spill: bool,
    }

    impl PlacementView for Fake {
        fn can_take(&self, spec: &PipelineSpec, strict: bool) -> bool {
            let f = ring_footprint(spec);
            f <= self.budget || (!strict && self.spill)
        }
        fn fits_now(&self, spec: &PipelineSpec, strict: bool) -> bool {
            let f = ring_footprint(spec);
            f <= self.headroom || (!strict && self.spill)
        }
        fn hbw_headroom(&self) -> u64 {
            self.headroom
        }
        fn queued_strict_bytes(&self) -> u64 {
            self.queued
        }
        fn reserved_mcdram(&self) -> u64 {
            self.reserved
        }
        fn budget(&self) -> u64 {
            self.budget
        }
    }

    const GIB: u64 = 1 << 30;

    fn spec(chunk: u64) -> PipelineSpec {
        PipelineSpec {
            total_bytes: 32 * GIB,
            chunk_bytes: chunk,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 2,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement: Placement::Hbw,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn node(headroom: u64, queued: u64, budget: u64) -> Fake {
        Fake {
            headroom,
            queued,
            reserved: budget - headroom,
            budget,
            spill: false,
        }
    }

    #[test]
    fn first_fit_takes_lowest_id_that_fits_now() {
        // 6 GiB ring; node 0 is full, node 1 has room.
        let nodes = [node(0, 0, 16 * GIB), node(8 * GIB, 0, 16 * GIB)];
        assert_eq!(
            place(&nodes, PlacementPolicy::FirstFit, &spec(2 * GIB), true),
            Some(1)
        );
        // Nothing fits now: first feasible node wins.
        let full = [node(0, 0, 16 * GIB), node(0, 0, 16 * GIB)];
        assert_eq!(
            place(&full, PlacementPolicy::FirstFit, &spec(2 * GIB), true),
            Some(0)
        );
    }

    #[test]
    fn best_fit_packs_tightest_and_falls_back_by_backlog() {
        // 6 GiB ring; headrooms 7 and 12 GiB: best-fit picks the 7.
        let nodes = [node(12 * GIB, 0, 16 * GIB), node(7 * GIB, 0, 16 * GIB)];
        assert_eq!(
            place(&nodes, PlacementPolicy::BestFitHbw, &spec(2 * GIB), true),
            Some(1)
        );
        // Nothing fits now: least strict backlog wins.
        let full = [
            node(0, 9 * GIB, 16 * GIB),
            node(0, 3 * GIB, 16 * GIB),
            node(0, 6 * GIB, 16 * GIB),
        ];
        assert_eq!(
            place(&full, PlacementPolicy::BestFitHbw, &spec(2 * GIB), true),
            Some(1)
        );
    }

    #[test]
    fn least_loaded_normalises_by_budget() {
        // Node 0: 8/16 GiB loaded (0.5). Node 1: 3/8 GiB loaded (0.375).
        let nodes = [node(8 * GIB, 0, 16 * GIB), node(5 * GIB, 0, 8 * GIB)];
        assert_eq!(
            place(&nodes, PlacementPolicy::LeastLoaded, &spec(GIB / 2), true),
            Some(1)
        );
    }

    #[test]
    fn infeasible_everywhere_is_rejected() {
        // 6 GiB ring, 4 GiB budgets, strict: no node can ever fit it.
        let nodes = [node(4 * GIB, 0, 4 * GIB), node(4 * GIB, 0, 4 * GIB)];
        assert_eq!(
            place(&nodes, PlacementPolicy::FirstFit, &spec(2 * GIB), true),
            None
        );
        // Non-strict with a spill node: feasible again.
        let spilly = [Fake {
            headroom: 0,
            queued: 0,
            reserved: 4 * GIB,
            budget: 4 * GIB,
            spill: true,
        }];
        assert_eq!(
            place(&spilly, PlacementPolicy::FirstFit, &spec(2 * GIB), false),
            Some(0)
        );
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Small quantised sizes make ties in headroom, backlog, budget
        /// and load common, so every tie-break is exercised.
        #[test]
        fn lazy_place_matches_the_vec_body(
            fleet in proptest::collection::vec(
                (0u64..=4, 0u64..=4, 0u64..=3, any::<bool>()),
                0..9,
            ),
            chunk_quarters in 1u64..=8,
            strict in any::<bool>(),
        ) {
            let nodes: Vec<Fake> = fleet
                .iter()
                .map(|&(budget4, used, queued, spill)| {
                    let budget = budget4 * 4 * GIB;
                    let reserved = (used * 4 * GIB).min(budget);
                    Fake {
                        headroom: budget - reserved,
                        queued: queued * 2 * GIB,
                        reserved,
                        budget,
                        spill,
                    }
                })
                .collect();
            let spec = spec(chunk_quarters * GIB / 4);
            for policy in [
                PlacementPolicy::FirstFit,
                PlacementPolicy::BestFitHbw,
                PlacementPolicy::LeastLoaded,
            ] {
                prop_assert_eq!(
                    place(&nodes, policy, &spec, strict),
                    place_by_vec(&nodes, policy, &spec, strict),
                    "{:?}",
                    policy
                );
            }
        }
    }
}
