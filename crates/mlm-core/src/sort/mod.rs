//! MLM-sort and its competitors (paper §4).
//!
//! Five algorithm variants appear in the paper's Table 1 / Figure 6:
//!
//! | name           | structure                                   | MCDRAM use           |
//! |----------------|---------------------------------------------|----------------------|
//! | `GNU-flat`     | parallel multiway mergesort                 | none (DDR only)      |
//! | `GNU-cache`    | parallel multiway mergesort                 | hardware cache       |
//! | `MLM-ddr`      | MLM-sort structure, buffers in DDR          | none                 |
//! | `MLM-sort`     | megachunks copied to MCDRAM, serial chunk sorts, multiway merges | flat-mode scratchpad |
//! | `MLM-implicit` | MLM-sort code, no explicit copies           | hardware cache       |
//!
//! [`host`] executes real, correctness-checked implementations at host
//! scale; [`sim`] lowers the same algorithms to op graphs for paper-scale
//! virtual-time runs. Both are [`mlm_exec::Backend`]s that
//! [`mlm_exec::interpret`] drives over one plan.

pub mod host;
pub mod sim;

use knl_sim::machine::MachineConfig;
use mlm_exec::{plan_sort, ChunkSortStyle, Placement, SortPlan, SortStructure, SortTiers};
use serde::{Deserialize, Serialize};

use crate::workload::SortWorkload;

/// The algorithm variants of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum SortAlgorithm {
    /// GNU parallel sort on DDR-resident data, flat mode.
    GnuFlat,
    /// GNU parallel sort with MCDRAM as hardware cache.
    GnuCache,
    /// MLM-sort structure with all buffers in DDR (no MCDRAM at all).
    MlmDdr,
    /// MLM-sort: explicit chunking through flat-mode MCDRAM.
    MlmSort,
    /// MLM-implicit: MLM-sort's chunked code in hardware cache mode.
    MlmImplicit,
    /// The "basic algorithm" of §4: chunk + *parallel* sort per megachunk
    /// (Bender et al.'s simplified scheme) in flat mode.
    BasicChunked,
    /// GNU parallel sort with `numactl --preferred`-style placement
    /// (paper §2.4, the Li et al. configuration): no chunking; the key
    /// array simply lands in MCDRAM until it is full and spills the
    /// remainder to DDR. Fast while the data fits, cliff beyond.
    GnuNumactl,
    /// MLM-sort with double-buffered megachunks: a dedicated copy pool
    /// prefetches megachunk `m+1` into the second half of MCDRAM while the
    /// compute pool sorts and merges megachunk `m` — the paper's §6 future
    /// work ("a slightly different approach might allow hiding the copy-in
    /// latency of the next megachunk"). Megachunks are capped at MCDRAM/2.
    MlmSortBuffered,
}

impl SortAlgorithm {
    /// The five variants of Table 1, in its row order.
    pub const TABLE1: [SortAlgorithm; 5] = [
        SortAlgorithm::GnuFlat,
        SortAlgorithm::GnuCache,
        SortAlgorithm::MlmDdr,
        SortAlgorithm::MlmSort,
        SortAlgorithm::MlmImplicit,
    ];

    /// Every variant, Table 1's five first.
    pub const ALL: [SortAlgorithm; 8] = [
        SortAlgorithm::GnuFlat,
        SortAlgorithm::GnuCache,
        SortAlgorithm::MlmDdr,
        SortAlgorithm::MlmSort,
        SortAlgorithm::MlmImplicit,
        SortAlgorithm::BasicChunked,
        SortAlgorithm::GnuNumactl,
        SortAlgorithm::MlmSortBuffered,
    ];

    /// Label used in tables (matches the paper's).
    pub fn label(&self) -> &'static str {
        match self {
            SortAlgorithm::GnuFlat => "GNU-flat",
            SortAlgorithm::GnuCache => "GNU-cache",
            SortAlgorithm::MlmDdr => "MLM-ddr",
            SortAlgorithm::MlmSort => "MLM-sort",
            SortAlgorithm::MlmImplicit => "MLM-implicit",
            SortAlgorithm::BasicChunked => "basic-chunked",
            SortAlgorithm::GnuNumactl => "GNU-numactl",
            SortAlgorithm::MlmSortBuffered => "MLM-sort-buffered",
        }
    }

    /// Does this variant require the machine to expose a hardware cache?
    pub fn needs_cache_mode(&self) -> bool {
        matches!(self, SortAlgorithm::GnuCache | SortAlgorithm::MlmImplicit)
    }

    /// Does this variant require flat-addressable MCDRAM?
    pub fn needs_flat_mcdram(&self) -> bool {
        matches!(
            self,
            SortAlgorithm::MlmSort
                | SortAlgorithm::BasicChunked
                | SortAlgorithm::MlmSortBuffered
                | SortAlgorithm::GnuNumactl
        )
    }

    /// The megachunk-level shape of this variant, as planned by
    /// [`mlm_exec::plan_sort`]. [`mlm_exec::interpret`] drives the same
    /// plan over both backends — the host one in [`host`] and the
    /// op-graph lowering in [`sim`]; where the bytes live during each
    /// phase is the plan's declaration ([`Self::tiers`]).
    pub fn structure(&self) -> SortStructure {
        match self {
            // The GNU baselines and numactl-preferred placement are
            // unchunked whole-array sorts.
            SortAlgorithm::GnuFlat | SortAlgorithm::GnuCache | SortAlgorithm::GnuNumactl => {
                SortStructure::Whole
            }
            // MLM-sort stages each megachunk into a working buffer
            // (MCDRAM — or DDR for the MLM-ddr control, same structure).
            SortAlgorithm::MlmSort | SortAlgorithm::MlmDdr | SortAlgorithm::BasicChunked => {
                SortStructure::Staged
            }
            // MLM-implicit sorts megachunks where they lie (the cache
            // stages them implicitly).
            SortAlgorithm::MlmImplicit => SortStructure::InPlace,
            SortAlgorithm::MlmSortBuffered => SortStructure::Buffered,
        }
    }

    /// Where this variant keeps its arrays on `machine`: the tiers its
    /// plan declares. GNU-flat, MLM-ddr and GNU-numactl use plain DDR
    /// (numactl's preferred policy puts the key array's front in
    /// addressable MCDRAM); the rest address their arrays through the
    /// MCDRAM cache, which a flat machine serves from DDR, and the flat
    /// MCDRAM variants stage megachunks into HBW buffers.
    pub fn tiers(&self, machine: &MachineConfig) -> SortTiers {
        use Placement::{Ddr, Hbw, Implicit};
        let (keys, work, preferred_hbw) = match self {
            Self::GnuFlat | Self::MlmDdr => (Ddr, Ddr, 0),
            Self::GnuNumactl => (Ddr, Ddr, machine.addressable_mcdram()),
            Self::GnuCache | Self::MlmImplicit => (Implicit, Implicit, 0),
            Self::MlmSort | Self::BasicChunked | Self::MlmSortBuffered => (Implicit, Hbw, 0),
        };
        SortTiers {
            keys,
            preferred_hbw,
            scratch: keys,
            work,
        }
    }

    /// The plan of one run of this variant over `w` on `machine`, with
    /// `megachunk_elems`-element megachunks: [`plan_sort`]'s phases over
    /// `w`'s keys, with the arrays in [`Self::tiers`].
    pub fn plan(&self, machine: &MachineConfig, w: SortWorkload, megachunk_elems: u64) -> SortPlan {
        SortPlan {
            elem_bytes: u64::from(w.elem_bytes),
            tiers: self.tiers(machine),
            ..plan_sort(self.structure(), self.chunk_style(), w.n, megachunk_elems)
        }
    }

    /// How this variant realises the chunk-sort phase of its plan.
    pub fn chunk_style(&self) -> ChunkSortStyle {
        match self {
            SortAlgorithm::GnuFlat
            | SortAlgorithm::GnuCache
            | SortAlgorithm::GnuNumactl
            | SortAlgorithm::BasicChunked => ChunkSortStyle::Gnu,
            SortAlgorithm::MlmSort | SortAlgorithm::MlmDdr | SortAlgorithm::MlmImplicit => {
                ChunkSortStyle::Serial
            }
            SortAlgorithm::MlmSortBuffered => ChunkSortStyle::Serial,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_has_five_labeled_variants() {
        let labels: Vec<&str> = SortAlgorithm::TABLE1.iter().map(|a| a.label()).collect();
        assert_eq!(
            labels,
            [
                "GNU-flat",
                "GNU-cache",
                "MLM-ddr",
                "MLM-sort",
                "MLM-implicit"
            ]
        );
    }

    #[test]
    fn mode_requirements() {
        assert!(SortAlgorithm::GnuCache.needs_cache_mode());
        assert!(SortAlgorithm::MlmImplicit.needs_cache_mode());
        assert!(!SortAlgorithm::MlmSort.needs_cache_mode());
        assert!(SortAlgorithm::MlmSort.needs_flat_mcdram());
        assert!(SortAlgorithm::BasicChunked.needs_flat_mcdram());
        assert!(SortAlgorithm::MlmSortBuffered.needs_flat_mcdram());
        assert!(SortAlgorithm::GnuNumactl.needs_flat_mcdram());
        assert_eq!(SortAlgorithm::GnuNumactl.label(), "GNU-numactl");
        assert!(!SortAlgorithm::MlmSortBuffered.needs_cache_mode());
        assert_eq!(SortAlgorithm::MlmSortBuffered.label(), "MLM-sort-buffered");
        assert!(!SortAlgorithm::GnuFlat.needs_flat_mcdram());
        assert!(!SortAlgorithm::MlmDdr.needs_flat_mcdram());
    }

    #[test]
    fn plan_shapes_follow_the_paper() {
        assert_eq!(SortAlgorithm::GnuFlat.structure(), SortStructure::Whole);
        assert_eq!(SortAlgorithm::GnuNumactl.structure(), SortStructure::Whole);
        assert_eq!(SortAlgorithm::MlmSort.structure(), SortStructure::Staged);
        assert_eq!(SortAlgorithm::MlmDdr.structure(), SortStructure::Staged);
        assert_eq!(
            SortAlgorithm::MlmImplicit.structure(),
            SortStructure::InPlace
        );
        assert_eq!(
            SortAlgorithm::MlmSortBuffered.structure(),
            SortStructure::Buffered
        );
        assert_eq!(SortAlgorithm::MlmSort.chunk_style(), ChunkSortStyle::Serial);
        assert_eq!(SortAlgorithm::GnuCache.chunk_style(), ChunkSortStyle::Gnu);
        assert_eq!(
            SortAlgorithm::BasicChunked.chunk_style(),
            ChunkSortStyle::Gnu
        );
    }
}
