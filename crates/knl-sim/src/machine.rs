//! Machine description: memory levels, MCDRAM modes, and the KNL-7250 preset.

use crate::error::SimError;
use crate::{GB, GIB};
use serde::{Deserialize, Serialize};

/// One of the two physical memory levels of the simulated node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MemLevel {
    /// Conventional DIMM-based DDR4 main memory (high capacity, low bandwidth).
    Ddr,
    /// On-package Multi-Channel DRAM (16 GiB, ~4.4x the DDR bandwidth,
    /// similar latency).
    Mcdram,
}

impl MemLevel {
    /// Both levels, in a fixed order usable for indexing.
    pub const ALL: [MemLevel; 2] = [MemLevel::Ddr, MemLevel::Mcdram];

    /// Dense index for per-level arrays.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            MemLevel::Ddr => 0,
            MemLevel::Mcdram => 1,
        }
    }
}

/// BIOS-selectable MCDRAM usage mode (paper §1.1).
///
/// The paper's fourth mode, *implicit cache mode*, is not a hardware mode: it
/// is flat-mode-style chunked software executed while the machine is booted
/// in [`MemMode::Cache`]. It therefore needs no variant here; software
/// layers express it by issuing [`crate::ops::Place::CachedDdr`] accesses.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum MemMode {
    /// MCDRAM is a separately addressable scratchpad ("flat mode").
    Flat,
    /// MCDRAM is a direct-mapped memory-side cache in front of DDR.
    Cache,
    /// Part of MCDRAM is cache, the rest is addressable scratchpad.
    /// `cache_fraction` is the fraction dedicated to the cache
    /// (the KNL BIOS offers 0.25 and 0.5).
    Hybrid {
        /// Fraction of MCDRAM capacity operating as cache (in `(0, 1)`).
        cache_fraction: f64,
    },
}

impl MemMode {
    /// True if any portion of MCDRAM acts as a hardware cache.
    pub fn has_cache(&self) -> bool {
        matches!(self, MemMode::Cache | MemMode::Hybrid { .. })
    }

    /// True if any portion of MCDRAM is directly addressable.
    pub fn has_flat(&self) -> bool {
        matches!(self, MemMode::Flat | MemMode::Hybrid { .. })
    }
}

/// Full description of the simulated node.
///
/// Bandwidths are in bytes/second; capacities in bytes. Defaults come from
/// the paper's Table 2 (measured with STREAM on a Xeon Phi 7250) and the KNL
/// product documentation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Physical cores (KNL 7250: 68).
    pub cores: usize,
    /// SMT ways per core (KNL: 4).
    pub threads_per_core: usize,
    /// DDR capacity in bytes (the Sandia testbed had 96 GiB).
    pub ddr_capacity: u64,
    /// MCDRAM capacity in bytes (16 GiB).
    pub mcdram_capacity: u64,
    /// Peak DDR bandwidth in bytes/s (paper Table 2: 90 GB/s).
    pub ddr_bandwidth: f64,
    /// Peak MCDRAM bandwidth in bytes/s (paper Table 2: 400 GB/s).
    pub mcdram_bandwidth: f64,
    /// Per-thread DDR<->MCDRAM copy rate when not bandwidth-limited, in
    /// moved bytes/s (paper Table 2: `S_copy` = 4.8 GB/s).
    pub per_thread_copy_bw: f64,
    /// Per-thread streaming-compute traffic rate when not bandwidth-limited,
    /// in traffic bytes/s (paper Table 2: `S_comp` = 6.78 GB/s for the merge
    /// benchmark). Individual ops may override this.
    pub per_thread_compute_bw: f64,
    /// MCDRAM usage mode.
    pub mode: MemMode,
    /// Efficiency factor applied to MCDRAM bandwidth when it operates as a
    /// cache (tag checks and memory-side-cache overheads mean cache mode
    /// never reaches flat-mode peak; measured KNL numbers are ~0.8-0.9).
    pub cache_mode_efficiency: f64,
    /// Fraction of cache capacity lost to tag storage (paper §1.1: "some
    /// portion of the memory is reserved to hold the tags").
    pub cache_tag_overhead: f64,
    /// Granularity at which the direct-mapped cache is modeled, in bytes.
    /// The real cache uses 64 B lines; simulating 48 GB arrays at line
    /// granularity is infeasible, and for the streaming access patterns
    /// studied here hit/miss *fractions* are unchanged by aggregating
    /// contiguous lines into segments. Default 1 MiB.
    pub cache_segment: u64,
    /// Extra cost per cold/conflict miss, in seconds per segment, modeling
    /// the latency of the memory-side-cache fill state machine. Small but
    /// non-zero: it is what makes implicit mode pay "at the start of each
    /// chunk" (paper §3.1).
    pub cache_miss_penalty: f64,
}

impl MachineConfig {
    /// The Xeon Phi 7250 node used in the paper, in the given MCDRAM mode.
    pub fn knl_7250(mode: MemMode) -> Self {
        MachineConfig {
            cores: 68,
            threads_per_core: 4,
            ddr_capacity: 96 * GIB,
            mcdram_capacity: 16 * GIB,
            ddr_bandwidth: 90.0 * GB,
            mcdram_bandwidth: 400.0 * GB,
            per_thread_copy_bw: 4.8 * GB,
            per_thread_compute_bw: 6.78 * GB,
            mode,
            cache_mode_efficiency: 0.85,
            cache_tag_overhead: 0.03,
            cache_segment: 1 << 20,
            cache_miss_penalty: 0.0,
        }
    }

    /// A small machine useful for fast unit tests: 4 cores, 1 GiB DDR,
    /// 64 MiB MCDRAM, round-number bandwidths.
    pub fn tiny(mode: MemMode) -> Self {
        MachineConfig {
            cores: 4,
            threads_per_core: 1,
            ddr_capacity: GIB,
            mcdram_capacity: 64 << 20,
            ddr_bandwidth: 10.0 * GB,
            mcdram_bandwidth: 40.0 * GB,
            per_thread_copy_bw: 1.0 * GB,
            per_thread_compute_bw: 2.0 * GB,
            mode,
            cache_mode_efficiency: 1.0,
            cache_tag_overhead: 0.0,
            cache_segment: 1 << 20,
            cache_miss_penalty: 0.0,
        }
    }

    /// Total hardware threads (KNL 7250: 272; the paper ran with 256).
    pub fn total_threads(&self) -> usize {
        self.cores * self.threads_per_core
    }

    /// Bytes of MCDRAM that are directly addressable in the current mode.
    pub fn addressable_mcdram(&self) -> u64 {
        match self.mode {
            MemMode::Flat => self.mcdram_capacity,
            MemMode::Cache => 0,
            MemMode::Hybrid { cache_fraction } => {
                (self.mcdram_capacity as f64 * (1.0 - cache_fraction)) as u64
            }
        }
    }

    /// Bytes of MCDRAM operating as cache, after removing tag overhead.
    pub fn effective_cache_capacity(&self) -> u64 {
        let raw = match self.mode {
            MemMode::Flat => 0,
            MemMode::Cache => self.mcdram_capacity,
            MemMode::Hybrid { cache_fraction } => {
                (self.mcdram_capacity as f64 * cache_fraction) as u64
            }
        };
        let eff = (raw as f64 * (1.0 - self.cache_tag_overhead)) as u64;
        // Round down to whole segments so the cache model has an integral
        // number of sets.
        eff - eff % self.cache_segment.max(1)
    }

    /// Effective MCDRAM bandwidth, accounting for the cache-mode efficiency
    /// loss whenever the cache is enabled.
    pub fn effective_mcdram_bandwidth(&self) -> f64 {
        if self.mode.has_cache() {
            self.mcdram_bandwidth * self.cache_mode_efficiency
        } else {
            self.mcdram_bandwidth
        }
    }

    /// Validate the configuration, returning a descriptive error for the
    /// first problem found.
    pub fn validate(&self) -> Result<(), SimError> {
        fn positive(name: &str, v: f64) -> Result<(), SimError> {
            if v > 0.0 && v.is_finite() {
                Ok(())
            } else {
                Err(SimError::InvalidConfig(format!(
                    "{name} must be positive and finite, got {v}"
                )))
            }
        }
        if self.cores == 0 || self.threads_per_core == 0 {
            return Err(SimError::InvalidConfig(
                "need at least one hardware thread".into(),
            ));
        }
        positive("ddr_bandwidth", self.ddr_bandwidth)?;
        positive("mcdram_bandwidth", self.mcdram_bandwidth)?;
        positive("per_thread_copy_bw", self.per_thread_copy_bw)?;
        positive("per_thread_compute_bw", self.per_thread_compute_bw)?;
        if self.ddr_capacity == 0 {
            return Err(SimError::InvalidConfig(
                "ddr_capacity must be nonzero".into(),
            ));
        }
        if self.mcdram_capacity == 0 {
            return Err(SimError::InvalidConfig(
                "mcdram_capacity must be nonzero".into(),
            ));
        }
        if self.cache_segment == 0 {
            return Err(SimError::InvalidConfig(
                "cache_segment must be nonzero".into(),
            ));
        }
        if !(0.0..=1.0).contains(&self.cache_tag_overhead) {
            return Err(SimError::InvalidConfig(format!(
                "cache_tag_overhead must be in [0,1], got {}",
                self.cache_tag_overhead
            )));
        }
        if self.cache_mode_efficiency <= 0.0 || self.cache_mode_efficiency > 1.0 {
            return Err(SimError::InvalidConfig(format!(
                "cache_mode_efficiency must be in (0,1], got {}",
                self.cache_mode_efficiency
            )));
        }
        if self.cache_miss_penalty < 0.0 || !self.cache_miss_penalty.is_finite() {
            return Err(SimError::InvalidConfig(
                "cache_miss_penalty must be >= 0".into(),
            ));
        }
        if let MemMode::Hybrid { cache_fraction } = self.mode {
            if cache_fraction <= 0.0 || cache_fraction >= 1.0 {
                return Err(SimError::InvalidConfig(format!(
                    "hybrid cache_fraction must be in (0,1), got {cache_fraction}"
                )));
            }
        }
        if self.mode.has_cache() && self.effective_cache_capacity() == 0 {
            return Err(SimError::InvalidConfig(
                "cache capacity rounds to zero segments; lower cache_segment".into(),
            ));
        }
        Ok(())
    }

    /// Capacity of the given level that software can allocate from.
    pub fn addressable_capacity(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::Ddr => self.ddr_capacity,
            MemLevel::Mcdram => self.addressable_mcdram(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knl_preset_matches_paper_table2() {
        let cfg = MachineConfig::knl_7250(MemMode::Flat);
        assert_eq!(cfg.total_threads(), 272);
        assert_eq!(cfg.ddr_bandwidth, 90.0 * GB);
        assert_eq!(cfg.mcdram_bandwidth, 400.0 * GB);
        assert_eq!(cfg.per_thread_copy_bw, 4.8 * GB);
        assert_eq!(cfg.per_thread_compute_bw, 6.78 * GB);
        assert_eq!(cfg.mcdram_capacity, 16 * GIB);
        cfg.validate().unwrap();
    }

    #[test]
    fn flat_mode_exposes_all_mcdram() {
        let cfg = MachineConfig::knl_7250(MemMode::Flat);
        assert_eq!(cfg.addressable_mcdram(), 16 * GIB);
        assert_eq!(cfg.effective_cache_capacity(), 0);
        assert_eq!(cfg.effective_mcdram_bandwidth(), 400.0 * GB);
    }

    #[test]
    fn cache_mode_exposes_no_flat_mcdram() {
        let cfg = MachineConfig::knl_7250(MemMode::Cache);
        assert_eq!(cfg.addressable_mcdram(), 0);
        let eff = cfg.effective_cache_capacity();
        // 3% tag overhead, rounded down to segments.
        assert!(eff < 16 * GIB && eff > 15 * GIB);
        assert_eq!(eff % cfg.cache_segment, 0);
        assert!(cfg.effective_mcdram_bandwidth() < 400.0 * GB);
    }

    #[test]
    fn hybrid_splits_capacity() {
        let cfg = MachineConfig::knl_7250(MemMode::Hybrid {
            cache_fraction: 0.5,
        });
        assert_eq!(cfg.addressable_mcdram(), 8 * GIB);
        let eff = cfg.effective_cache_capacity();
        assert!(eff <= 8 * GIB && eff > 7 * GIB);
        assert!(cfg.mode.has_cache() && cfg.mode.has_flat());
    }

    #[test]
    fn validation_rejects_bad_configs() {
        let mut cfg = MachineConfig::tiny(MemMode::Flat);
        cfg.ddr_bandwidth = 0.0;
        assert!(matches!(cfg.validate(), Err(SimError::InvalidConfig(_))));

        let mut cfg = MachineConfig::tiny(MemMode::Flat);
        cfg.ddr_bandwidth = f64::NAN;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::tiny(MemMode::Flat);
        cfg.cores = 0;
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig::tiny(MemMode::Hybrid {
            cache_fraction: 1.5,
        });
        assert!(cfg.validate().is_err());

        let cfg = MachineConfig::tiny(MemMode::Hybrid {
            cache_fraction: 0.0,
        });
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_segment = 0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_mode_efficiency = 0.0;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_tag_overhead = -0.1;
        assert!(cfg.validate().is_err());

        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.cache_miss_penalty = -1.0;
        assert!(cfg.validate().is_err());

        // A cache smaller than one segment is rejected in cache mode.
        let mut cfg = MachineConfig::tiny(MemMode::Cache);
        cfg.mcdram_capacity = 1 << 10;
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn addressable_capacity_by_level() {
        let cfg = MachineConfig::knl_7250(MemMode::Flat);
        assert_eq!(cfg.addressable_capacity(MemLevel::Ddr), 96 * GIB);
        assert_eq!(cfg.addressable_capacity(MemLevel::Mcdram), 16 * GIB);
        let cfg = MachineConfig::knl_7250(MemMode::Cache);
        assert_eq!(cfg.addressable_capacity(MemLevel::Mcdram), 0);
    }

    #[test]
    fn mode_predicates() {
        assert!(!MemMode::Flat.has_cache());
        assert!(MemMode::Flat.has_flat());
        assert!(MemMode::Cache.has_cache());
        assert!(!MemMode::Cache.has_flat());
        let h = MemMode::Hybrid {
            cache_fraction: 0.25,
        };
        assert!(h.has_cache() && h.has_flat());
    }

    #[test]
    fn level_index_is_dense() {
        assert_eq!(MemLevel::Ddr.index(), 0);
        assert_eq!(MemLevel::Mcdram.index(), 1);
        for (i, l) in MemLevel::ALL.iter().enumerate() {
            assert_eq!(l.index(), i);
        }
    }
}
