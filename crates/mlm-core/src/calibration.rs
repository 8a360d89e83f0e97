//! Calibration constants tying the simulator to measured KNL behaviour.
//!
//! The paper measures its machine-dependent constants with STREAM and the
//! merge benchmark (its Table 2). We adopt those four numbers verbatim
//! (`DDR_max`, `MCDRAM_max`, `S_copy`, `S_comp` live in
//! [`knl_sim::MachineConfig`]) and add the handful of constants the paper
//! does not tabulate but its results imply — per-thread serial-sort and
//! multiway-merge throughputs, the MCDRAM service-rate advantage, and the
//! GNU parallel mode's thread-scalability penalty. Defaults were fitted
//! once against the *GNU-flat random* anchor rows of the paper's Table 1
//! (see `mlm-bench --bin calibrate`); every other row and figure is an
//! emergent prediction.
//!
//! All rates are per *hardware thread* (the paper runs 256 SMT threads on
//! 68 cores, so these are SMT-degraded rates) in traffic bytes per second:
//! a pass that reads and writes one megabyte counts as two megabytes of
//! traffic.

use serde::{Deserialize, Serialize};

/// Machine- and software-dependent throughput constants.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Calibration {
    /// Per-thread traffic rate of serial introsort's *memory-visible*
    /// passes (partition scans) on uniformly random keys, in bytes/s.
    /// Scans are streaming and fast per thread — at 256 threads they
    /// saturate whichever bus serves the block, so at scale this phase is
    /// bandwidth-bound and its cost depends on the memory level, while
    /// the [`Calibration::incache_random`] component does not. That split
    /// is what produces both the cache-mode speedups and the paper's
    /// preference for large chunks (Fig. 7): halving the chunk removes a
    /// cheap bus-bound pass but adds an expensive high-fan-in final merge.
    pub s_sort_random: f64,
    /// Same, on reverse-sorted keys (scans are order-insensitive, so this
    /// equals the random rate by default; the reverse-input speedup of
    /// Table 1 comes from the in-cache component).
    pub s_sort_reverse: f64,
    /// Seconds per element of cache-resident introsort work on random
    /// keys (the recursion levels below [`Calibration::cache_resident_elems`]
    /// plus the insertion-sort base cases). This is the per-thread compute
    /// bulk of a serial sort.
    pub incache_random: f64,
    /// Same, on reverse-sorted keys. Branch-predictable partitioning makes
    /// this ~3x faster (Table 1's MLM-ddr rows: 9.28 s vs 4.79 s).
    pub incache_reverse: f64,
    /// Per-thread traffic rate of the k-way (loser-tree) merge at k = 2,
    /// in bytes/s. Larger k pays a `log2(k)` comparison penalty
    /// (see [`Calibration::multiway_rate`]).
    pub s_multiway: f64,
    /// Rate multiplier for multiway merges over runs produced from
    /// reverse-sorted input: such runs cover disjoint key ranges, so the
    /// loser tree's winner rarely changes and its branches predict
    /// perfectly.
    pub multiway_reverse_boost: f64,
    /// Service-rate advantage of MCDRAM-resident streaming over
    /// DDR-resident streaming for the *same* thread, below saturation.
    /// MCDRAM's 8 stacks sustain more outstanding requests per thread than
    /// the 6 DDR channels (Ramos & Hoefler characterize this asymmetry);
    /// it is what gives cache mode its benefit for compute-bound phases.
    pub mcdram_boost: f64,
    /// Multiplier (< 1) on per-thread rates inside the GNU parallel-mode
    /// baseline, accounting for its synchronization and load-imbalance
    /// overheads at 256 threads — the paper's motivation for MLM-sort's
    /// serial chunk sorts ("MLM-sort does not rely on thread-scalability
    /// of multithreaded algorithms").
    pub gnu_efficiency: f64,
    /// Per-thread traffic rate of the §5 merge-benchmark kernel at full
    /// 256-thread SMT occupancy, in bytes/s. The paper's Table 2 value
    /// (`S_comp` = 6.78 GB/s) was measured "when not bandwidth-limited",
    /// i.e. at low concurrency; with four threads per core the sustainable
    /// per-thread rate is ~4x lower, and it is this value that makes the
    /// empirical copy-thread optimum (Table 3) sensitive to the compute
    /// pool's size.
    pub s_merge_bench: f64,
    /// Per-thread traffic rate of one LSD radix-sort pass (count +
    /// scatter), in bytes/s. Radix sort has no cache-resident recursion —
    /// every pass streams the whole block, and its 256-bucket scatter is
    /// prefetch-friendly — so at 256 threads the aggregate demand
    /// (256 x 2 GB/s = 512 GB/s) exceeds even MCDRAM: the kernel is
    /// bus-bound wherever it runs, which is its defining property.
    pub s_radix: f64,
    /// Fixed virtual-time cost of a fork/join phase boundary, in seconds.
    pub phase_overhead: f64,
    /// Elements below which introsort recursion stays in the core's private
    /// caches and generates no memory traffic (KNL: 1 MiB L2 per tile).
    pub cache_resident_elems: usize,
    /// Smallest subproblem counted as a full memory pass, in elements:
    /// the insertion-sort cut-off of the libstdc++ introsort the model
    /// describes. A model constant; no sort in this repo has this
    /// threshold.
    pub base_case_elems: usize,
}

impl Default for Calibration {
    fn default() -> Self {
        Calibration {
            s_sort_random: 2.0e9,
            s_sort_reverse: 2.0e9,
            incache_random: 7.34e-7,
            incache_reverse: 2.2e-7,
            s_multiway: 0.70e9,
            multiway_reverse_boost: 2.0,
            mcdram_boost: 1.3,
            gnu_efficiency: 0.82,
            s_merge_bench: 1.4e9,
            s_radix: 2.0e9,
            phase_overhead: 2e-3,
            cache_resident_elems: 64 * 1024,
            base_case_elems: 24,
        }
    }
}

impl Calibration {
    /// Number of *memory-visible* passes serial introsort makes over an
    /// `n`-element range: one per recursion level until subproblems fit in
    /// the core-private cache.
    ///
    /// Levels below [`Self::cache_resident_elems`] are served from L2 and
    /// charged no memory traffic; the in-cache work is folded into the
    /// per-pass rate (which was measured end-to-end).
    pub fn sort_passes(&self, n: usize) -> u32 {
        if n <= self.cache_resident_elems {
            // Entirely cache-resident sorts still stream the data in and
            // out of memory once.
            return 1;
        }
        let ratio = n as f64 / self.cache_resident_elems as f64;
        ratio.log2().ceil() as u32 + 1
    }

    /// Memory traffic (bytes) of one serial introsort over `n` elements of
    /// `elem_bytes` each: read + write per memory-visible pass.
    pub fn sort_traffic(&self, n: usize, elem_bytes: usize) -> u64 {
        2 * (n as u64) * (elem_bytes as u64) * u64::from(self.sort_passes(n))
    }

    /// Per-thread memory-pass rate of serial sorting for the given order.
    pub fn sort_rate(&self, order: crate::workload::InputOrder) -> f64 {
        match order {
            crate::workload::InputOrder::Random => self.s_sort_random,
            crate::workload::InputOrder::Reverse => self.s_sort_reverse,
            crate::workload::InputOrder::Sorted => self.s_sort_reverse,
        }
    }

    /// Seconds of cache-resident compute per element of serial sorting.
    pub fn incache_time(&self, order: crate::workload::InputOrder) -> f64 {
        match order {
            crate::workload::InputOrder::Random => self.incache_random,
            crate::workload::InputOrder::Reverse => self.incache_reverse,
            crate::workload::InputOrder::Sorted => self.incache_reverse,
        }
    }

    /// Per-thread k-way merge rate: `s_multiway / log2(k)` for `k >= 2`
    /// (one tournament level per output element per log2 of fan-in).
    pub fn multiway_rate(&self, k: usize) -> f64 {
        let k = k.max(2) as f64;
        self.s_multiway / k.log2().max(1.0)
    }

    /// K-way merge rate adjusted for the input order the runs came from.
    pub fn multiway_rate_ordered(&self, k: usize, order: crate::workload::InputOrder) -> f64 {
        let base = self.multiway_rate(k);
        match order {
            crate::workload::InputOrder::Random => base,
            _ => base * self.multiway_reverse_boost,
        }
    }

    /// Validate the constants.
    pub fn validate(&self) -> Result<(), String> {
        let pos = [
            ("s_sort_random", self.s_sort_random),
            ("s_sort_reverse", self.s_sort_reverse),
            ("s_multiway", self.s_multiway),
            ("mcdram_boost", self.mcdram_boost),
            ("multiway_reverse_boost", self.multiway_reverse_boost),
            ("gnu_efficiency", self.gnu_efficiency),
            ("s_merge_bench", self.s_merge_bench),
            ("s_radix", self.s_radix),
        ];
        if self.incache_random < 0.0 || self.incache_reverse < 0.0 {
            return Err("in-cache times must be >= 0".into());
        }
        for (name, v) in pos {
            if !v.is_finite() || v <= 0.0 {
                return Err(format!("{name} must be positive, got {v}"));
            }
        }
        if self.gnu_efficiency > 1.0 {
            return Err("gnu_efficiency must be <= 1".into());
        }
        if self.phase_overhead < 0.0 {
            return Err("phase_overhead must be >= 0".into());
        }
        if self.cache_resident_elems == 0 || self.base_case_elems == 0 {
            return Err("element thresholds must be nonzero".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::InputOrder;

    #[test]
    fn defaults_validate() {
        Calibration::default().validate().unwrap();
    }

    #[test]
    fn sort_passes_grow_logarithmically() {
        let c = Calibration::default();
        let small = c.sort_passes(1000);
        assert_eq!(small, 1, "cache-resident sorts make one pass");
        let a = c.sort_passes(1 << 20);
        let b = c.sort_passes(1 << 22);
        assert_eq!(b, a + 2, "each doubling adds one pass");
        // 7.8M-element GNU block on the paper's machine: ~8 passes.
        let p = c.sort_passes(7_812_500);
        assert!((6..=9).contains(&p), "got {p}");
    }

    #[test]
    fn sort_traffic_counts_read_and_write() {
        let c = Calibration::default();
        let n = 1 << 20;
        let passes = c.sort_passes(n) as u64;
        assert_eq!(c.sort_traffic(n, 8), 2 * 8 * (n as u64) * passes);
    }

    #[test]
    fn reverse_is_faster_than_random() {
        let c = Calibration::default();
        // Scan passes are order-insensitive; the reverse advantage lives in
        // the cache-resident compute component.
        assert!(c.sort_rate(InputOrder::Reverse) >= c.sort_rate(InputOrder::Random));
        assert!(c.incache_time(InputOrder::Reverse) < c.incache_time(InputOrder::Random));
        assert!(c.incache_time(InputOrder::Sorted) <= c.incache_time(InputOrder::Reverse));
    }

    #[test]
    fn multiway_rate_decreases_with_fanin() {
        let c = Calibration::default();
        assert_eq!(c.multiway_rate(2), c.s_multiway);
        assert!(c.multiway_rate(4) < c.multiway_rate(2));
        assert!(c.multiway_rate(256) < c.multiway_rate(16));
        // k < 2 clamps to k = 2.
        assert_eq!(c.multiway_rate(1), c.multiway_rate(2));
    }

    #[test]
    fn validation_catches_bad_values() {
        let bad = [
            Calibration {
                s_multiway: 0.0,
                ..Calibration::default()
            },
            Calibration {
                gnu_efficiency: 1.5,
                ..Calibration::default()
            },
            Calibration {
                phase_overhead: -1.0,
                ..Calibration::default()
            },
            Calibration {
                cache_resident_elems: 0,
                ..Calibration::default()
            },
            Calibration {
                incache_random: -1.0,
                ..Calibration::default()
            },
            Calibration {
                s_merge_bench: f64::NAN,
                ..Calibration::default()
            },
        ];
        for c in bad {
            assert!(c.validate().is_err(), "{c:?}");
        }
    }
}
