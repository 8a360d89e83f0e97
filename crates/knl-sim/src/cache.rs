//! Segment-granular model of the KNL's direct-mapped memory-side MCDRAM cache.
//!
//! The real cache uses 64 B lines. Simulating multi-billion-element arrays at
//! line granularity is infeasible, and for the bulk streaming access patterns
//! of the paper the hit/miss *fractions* are unchanged when contiguous lines
//! are aggregated: a streaming pass either re-touches a resident segment
//! (hit) or faults it in whole (cold/conflict miss). We therefore model the
//! cache as `capacity / segment` direct-mapped sets of segment-sized blocks.
//!
//! The model is write-back, write-allocate, with one simplification for
//! writes: a write miss does not read the segment from DDR first (KNL's
//! memory-side cache services full-line streaming stores without a fill
//! read, and every write in the studied workloads is a full-segment
//! streaming write). A dirty segment that is evicted costs a writeback:
//! one MCDRAM read plus one DDR write of the segment.
//!
//! The state is a sorted `Vec` of resident *runs*, not a tag per set: a run
//! says that sets `s..s + len` hold DDR segments `seg..seg + len`, all clean
//! or all dirty, and a set in no run is empty. An access is cut into spans
//! of consecutive sets where the set index wraps (an access longer than the
//! cache has several, and a later span misses on the runs an earlier one
//! left). A span finds its overlapped runs by binary search; each
//! overlapped piece is all-hit when the run maps the same segment offset as
//! the access, else all-miss (writing back `len × segment` if dirty), and
//! each gap is a cold miss. The span's new runs are spliced in, merged with
//! neighbours that continue them with the same dirty bit. Bytes are
//! charged per piece with the per-segment rule, so traffic and statistics
//! are the same integers a walk over every segment produces (the unit
//! tests keep that walk as an oracle). An access costs O(log R + runs
//! overlapped) plus the splice, which moves at most the R ≤ `sets` runs
//! behind it; bulk streaming keeps R tiny (2–3 runs after each Table 1 and
//! Figure 7 program, against 15,892 sets), where the walk cost one step
//! per 1 MiB segment.

use crate::machine::MemLevel;
use serde::{Deserialize, Serialize};

/// Byte traffic resulting from pushing an access through the cache model.
///
/// All fields are in bytes. `to_level` tells the engine which bus each kind
/// of traffic rides on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheTraffic {
    /// Bytes served from resident segments (MCDRAM traffic).
    pub hit_bytes: u64,
    /// Bytes faulted in from DDR (DDR read traffic) — for read misses these
    /// bytes also appear as `fill_bytes` going into MCDRAM.
    pub miss_bytes: u64,
    /// Bytes written into MCDRAM to fill missing segments.
    pub fill_bytes: u64,
    /// Bytes of dirty evictions: MCDRAM read + DDR write each.
    pub writeback_bytes: u64,
    /// Number of segment misses (for the per-miss latency penalty).
    pub miss_count: u64,
}

impl CacheTraffic {
    /// Total bytes this access moves on the given level's bus.
    pub fn traffic_on(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::Ddr => self.miss_bytes + self.writeback_bytes,
            MemLevel::Mcdram => self.hit_bytes + self.fill_bytes + self.writeback_bytes,
        }
    }
}

/// Cumulative statistics of a [`DirectMappedCache`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Total bytes of accesses pushed through the cache.
    pub accessed_bytes: u64,
    /// Bytes that hit resident segments.
    pub hit_bytes: u64,
    /// Bytes that missed.
    pub miss_bytes: u64,
    /// Bytes written back to DDR on dirty evictions.
    pub writeback_bytes: u64,
    /// Individual segment misses.
    pub misses: u64,
    /// Individual segment hits.
    pub hits: u64,
}

impl CacheStats {
    /// Hit rate by bytes, in `[0, 1]`; `1.0` for an untouched cache.
    pub fn hit_rate(&self) -> f64 {
        if self.accessed_bytes == 0 {
            1.0
        } else {
            self.hit_bytes as f64 / self.accessed_bytes as f64
        }
    }
}

/// Sets `set..set + len` hold DDR segments `seg..seg + len`, all with the
/// same dirty bit.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Run {
    set: u64,
    len: u64,
    seg: u64,
    dirty: bool,
}

impl Run {
    fn end(&self) -> u64 {
        self.set + self.len
    }

    /// Segment minus set, wrapping: equal for two runs exactly when one
    /// continues the other's mapping.
    fn offset(&self) -> u64 {
        self.seg.wrapping_sub(self.set)
    }
}

/// Push `run` onto `runs`, merging it into the last run when it continues
/// that run with the same dirty bit.
fn push_merged(runs: &mut Vec<Run>, run: Run) {
    match runs.last_mut() {
        Some(last)
            if last.end() == run.set
                && last.offset() == run.offset()
                && last.dirty == run.dirty =>
        {
            last.len += run.len
        }
        _ => runs.push(run),
    }
}

/// Direct-mapped, write-back, segment-granular cache over the DDR address
/// space.
#[derive(Debug, Clone)]
pub struct DirectMappedCache {
    segment: u64,
    sets: u64,
    /// Resident runs, sorted by set, disjoint and maximal (no run continues
    /// its left neighbour with the same dirty bit). A set in no run is empty.
    runs: Vec<Run>,
    /// Replacement runs built by one access span; kept to reuse its buffer.
    scratch: Vec<Run>,
    stats: CacheStats,
}

impl DirectMappedCache {
    /// Create a cache of `capacity` bytes (rounded down to whole segments)
    /// with the given segment size.
    ///
    /// # Panics
    /// Panics if fewer than one set results — the caller (machine config
    /// validation) must prevent that.
    pub fn new(capacity: u64, segment: u64) -> Self {
        assert!(segment > 0, "segment size must be positive");
        let sets = capacity / segment;
        assert!(sets > 0, "cache must hold at least one segment");
        DirectMappedCache {
            segment,
            sets,
            runs: Vec::new(),
            scratch: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    /// Number of direct-mapped sets.
    pub fn sets(&self) -> usize {
        self.sets as usize
    }

    /// Segment (block) size in bytes.
    pub fn segment(&self) -> u64 {
        self.segment
    }

    /// Cumulative statistics since construction or the last [`Self::reset_stats`].
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Zero the statistics counters without touching cache contents.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Invalidate all contents (e.g. on simulated reboot between runs).
    /// Dirty data is discarded — use only between independent experiments.
    pub fn invalidate(&mut self) {
        self.runs.clear();
    }

    /// The spans of `[addr, addr + bytes)`, in access order: `(first_set,
    /// len, first_segment)` runs of consecutive sets, cut where the set
    /// index wraps. An access longer than the cache has several.
    fn spans(&self, addr: u64, bytes: u64) -> impl Iterator<Item = (u64, u64, u64)> {
        let sets = self.sets;
        let last = (addr + bytes - 1) / self.segment;
        let mut seg = addr / self.segment;
        std::iter::from_fn(move || {
            (seg <= last).then(|| {
                let set = seg % sets;
                let len = (last - seg + 1).min(sets - set);
                seg += len;
                (set, len, seg - len)
            })
        })
    }

    /// Push a streaming access over DDR byte range `[addr, addr + bytes)`
    /// through the cache, updating the resident runs, and return the
    /// resulting bus traffic.
    ///
    /// Partial first/last segments are charged proportionally: a hit or miss
    /// on a partially-covered segment contributes only the covered bytes.
    pub fn access(&mut self, addr: u64, bytes: u64, write: bool) -> CacheTraffic {
        let mut t = CacheTraffic::default();
        if bytes == 0 {
            return t;
        }
        // Spans run in access order: a later span of a multi-lap access
        // sees the earlier spans' runs and misses on them.
        for span in self.spans(addr, bytes) {
            self.access_span(&mut t, (addr, addr + bytes), span, write);
        }
        t
    }

    /// One span of an access over bytes `[lo, hi)`: sets `set..set + len`
    /// take segments `seg..seg + len`. Each overlapped run piece is an
    /// all-hit (same offset) or an all-miss, each gap a cold miss; the
    /// span's runs then replace the overlapped ones.
    fn access_span(
        &mut self,
        t: &mut CacheTraffic,
        (lo, hi): (u64, u64),
        (set, len, seg): (u64, u64, u64),
        write: bool,
    ) {
        let size = self.segment;
        let end = set + len;
        let offset = seg.wrapping_sub(set);
        let stats = &mut self.stats;
        let out = &mut self.scratch;
        // Overlapped runs are `first..past`; the splice also takes one
        // neighbour on each side so the new runs merge with it.
        let first = self.runs.partition_point(|r| r.end() <= set);
        let past = self.runs.partition_point(|r| r.set < end);
        let from = first.saturating_sub(1);
        let to = (past + 1).min(self.runs.len());
        out.clear();
        // Charge sets `a..b` as hits or as misses (writing back their
        // old data if `dirty`) and append the run they now hold.
        let mut fill = |out: &mut Vec<Run>, a: u64, b: u64, hit: bool, dirty: bool| {
            let n = b - a;
            let (s0, s1) = (seg + (a - set), seg + (b - set));
            let covered = hi.min(s1 * size) - lo.max(s0 * size);
            stats.accessed_bytes += covered;
            let dirty = if hit {
                t.hit_bytes += covered;
                stats.hits += n;
                stats.hit_bytes += covered;
                dirty || write
            } else {
                if dirty {
                    t.writeback_bytes += n * size;
                    stats.writeback_bytes += n * size;
                }
                t.miss_count += n;
                stats.misses += n;
                stats.miss_bytes += covered;
                if write {
                    // Full-segment streaming store: no fill read.
                    t.hit_bytes += covered; // the write itself lands in MCDRAM
                } else {
                    t.miss_bytes += covered;
                    t.fill_bytes += covered;
                }
                write
            };
            push_merged(
                out,
                Run {
                    set: a,
                    len: n,
                    seg: s0,
                    dirty,
                },
            );
        };
        if first > from {
            push_merged(out, self.runs[from]);
        }
        let mut at = set;
        for r in &self.runs[first..past] {
            if r.set < set {
                push_merged(
                    out,
                    Run {
                        len: set - r.set,
                        ..*r
                    },
                );
            }
            let (a, b) = (r.set.max(set), r.end().min(end));
            if at < a {
                fill(out, at, a, false, false);
            }
            fill(out, a, b, r.offset() == offset, r.dirty);
            at = b;
        }
        if at < end {
            fill(out, at, end, false, false);
        }
        if let Some(r) = self.runs[first..past].last().filter(|r| r.end() > end) {
            let cut = end - r.set;
            push_merged(
                out,
                Run {
                    set: end,
                    len: r.len - cut,
                    seg: r.seg + cut,
                    dirty: r.dirty,
                },
            );
        }
        if to > past {
            push_merged(out, self.runs[past]);
        }
        self.runs.splice(from..to, out.drain(..));
    }

    /// True if the whole byte range is resident.
    pub fn is_resident(&self, addr: u64, bytes: u64) -> bool {
        if bytes == 0 {
            return true;
        }
        self.spans(addr, bytes).all(|(set, len, seg)| {
            let offset = seg.wrapping_sub(set);
            let first = self.runs.partition_point(|r| r.end() <= set);
            let mut at = set;
            for r in &self.runs[first..] {
                if r.set > at || r.offset() != offset {
                    return false;
                }
                at = r.end();
                if at >= set + len {
                    return true;
                }
            }
            false
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The per-segment model the run representation replaces: one tag and
    /// one dirty bit per set, one step per segment of an access. Kept as
    /// the oracle of `runs_match_the_per_segment_walk`.
    struct SegmentCache {
        segment: u64,
        tags: Vec<Option<u64>>,
        dirty: Vec<bool>,
        stats: CacheStats,
    }

    impl SegmentCache {
        fn new(capacity: u64, segment: u64) -> Self {
            let sets = (capacity / segment) as usize;
            SegmentCache {
                segment,
                tags: vec![None; sets],
                dirty: vec![false; sets],
                stats: CacheStats::default(),
            }
        }

        fn set_of(&self, seg_no: u64) -> usize {
            (seg_no % self.tags.len() as u64) as usize
        }

        fn access(&mut self, addr: u64, bytes: u64, write: bool) -> CacheTraffic {
            let mut t = CacheTraffic::default();
            if bytes == 0 {
                return t;
            }
            let seg = self.segment;
            let first = addr / seg;
            let last = (addr + bytes - 1) / seg;
            for seg_no in first..=last {
                let seg_start = seg_no * seg;
                let lo = addr.max(seg_start);
                let hi = (addr + bytes).min(seg_start + seg);
                let covered = hi - lo;
                let set = self.set_of(seg_no);
                match self.tags[set] {
                    Some(tag) if tag == seg_no => {
                        t.hit_bytes += covered;
                        self.stats.hits += 1;
                        self.stats.hit_bytes += covered;
                        if write {
                            self.dirty[set] = true;
                        }
                    }
                    prev => {
                        if prev.is_some() && self.dirty[set] {
                            t.writeback_bytes += seg;
                            self.stats.writeback_bytes += seg;
                        }
                        self.tags[set] = Some(seg_no);
                        self.dirty[set] = write;
                        t.miss_count += 1;
                        self.stats.misses += 1;
                        self.stats.miss_bytes += covered;
                        if write {
                            t.hit_bytes += covered;
                        } else {
                            t.miss_bytes += covered;
                            t.fill_bytes += covered;
                        }
                    }
                }
                self.stats.accessed_bytes += covered;
            }
            t
        }

        fn is_resident(&self, addr: u64, bytes: u64) -> bool {
            if bytes == 0 {
                return true;
            }
            let first = addr / self.segment;
            let last = (addr + bytes - 1) / self.segment;
            (first..=last).all(|s| self.tags[self.set_of(s)] == Some(s))
        }
    }

    /// The runs are sorted, disjoint, inside the cache, non-empty and
    /// maximal.
    fn assert_canonical(c: &DirectMappedCache) {
        for r in &c.runs {
            assert!(r.len > 0 && r.end() <= c.sets, "{r:?} of {} sets", c.sets);
        }
        for w in c.runs.windows(2) {
            assert!(w[0].end() <= w[1].set, "overlap: {w:?}");
            let continues = w[0].end() == w[1].set && w[0].offset() == w[1].offset();
            assert!(!(continues && w[0].dirty == w[1].dirty), "unmerged: {w:?}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(4000))]

        /// The run representation charges every access, counts every
        /// statistic and answers every residency query exactly as the
        /// per-segment walk does: partial segments, multi-lap accesses,
        /// conflict evictions of dirty runs, one set up to a dozen.
        #[test]
        fn runs_match_the_per_segment_walk(
            sets in 1u64..13,
            segment in 1u64..9,
            accesses in proptest::collection::vec(
                (0u64..400, 0u64..160, any::<bool>()), 1..80),
            probes in proptest::collection::vec((0u64..400, 0u64..80), 1..12),
        ) {
            let mut runs = DirectMappedCache::new(sets * segment, segment);
            let mut walk = SegmentCache::new(sets * segment, segment);
            for (addr, bytes, write) in accesses {
                let t = runs.access(addr, bytes, write);
                prop_assert_eq!(t, walk.access(addr, bytes, write), "{} B at {}", bytes, addr);
                prop_assert_eq!(runs.stats(), walk.stats);
                assert_canonical(&runs);
                prop_assert_eq!(runs.is_resident(addr, bytes), walk.is_resident(addr, bytes));
                for &(a, b) in &probes {
                    prop_assert_eq!(runs.is_resident(a, b), walk.is_resident(a, b), "probe {} B at {}", b, a);
                }
            }
        }
    }

    const SEG: u64 = 1024;

    fn cache_of(segments: u64) -> DirectMappedCache {
        DirectMappedCache::new(segments * SEG, SEG)
    }

    #[test]
    fn cold_read_misses_then_hits() {
        let mut c = cache_of(16);
        let t = c.access(0, 4 * SEG, false);
        assert_eq!(t.miss_bytes, 4 * SEG);
        assert_eq!(t.fill_bytes, 4 * SEG);
        assert_eq!(t.hit_bytes, 0);
        assert_eq!(t.miss_count, 4);

        let t = c.access(0, 4 * SEG, false);
        assert_eq!(t.miss_bytes, 0);
        assert_eq!(t.hit_bytes, 4 * SEG);
        assert!(c.is_resident(0, 4 * SEG));
    }

    #[test]
    fn write_miss_has_no_fill_read() {
        let mut c = cache_of(16);
        let t = c.access(0, 2 * SEG, true);
        assert_eq!(
            t.miss_bytes, 0,
            "streaming store allocates without DDR read"
        );
        assert_eq!(t.fill_bytes, 0);
        assert_eq!(t.hit_bytes, 2 * SEG);
        assert_eq!(t.miss_count, 2);
    }

    #[test]
    fn dirty_eviction_costs_writeback() {
        let mut c = cache_of(4);
        // Write segments 0..4 (fills the whole cache, all dirty).
        c.access(0, 4 * SEG, true);
        // Read segments 4..8: conflict-evicts all four dirty segments.
        let t = c.access(4 * SEG, 4 * SEG, false);
        assert_eq!(t.writeback_bytes, 4 * SEG);
        assert_eq!(t.miss_bytes, 4 * SEG);
        // DDR sees miss reads + writebacks; MCDRAM sees fills + writeback reads.
        assert_eq!(t.traffic_on(MemLevel::Ddr), 8 * SEG);
        assert_eq!(t.traffic_on(MemLevel::Mcdram), 8 * SEG);
    }

    #[test]
    fn clean_eviction_costs_no_writeback() {
        let mut c = cache_of(4);
        c.access(0, 4 * SEG, false);
        let t = c.access(4 * SEG, 4 * SEG, false);
        assert_eq!(t.writeback_bytes, 0);
        assert_eq!(t.miss_bytes, 4 * SEG);
    }

    #[test]
    fn direct_mapped_aliasing_thrashes() {
        // Two ranges congruent mod cache size ping-pong every access.
        let mut c = cache_of(4);
        let a = 0u64;
        let b = 4 * SEG; // same sets as a
        for _ in 0..3 {
            let ta = c.access(a, 4 * SEG, false);
            assert_eq!(ta.hit_bytes, 0, "aliased range evicted everything");
            let tb = c.access(b, 4 * SEG, false);
            assert_eq!(tb.hit_bytes, 0);
        }
        let s = c.stats();
        assert_eq!(s.hit_bytes, 0);
        assert_eq!(s.miss_bytes, 24 * SEG);
    }

    #[test]
    fn non_aliasing_ranges_coexist() {
        let mut c = cache_of(8);
        c.access(0, 4 * SEG, false);
        c.access(4 * SEG, 4 * SEG, false);
        assert!(c.is_resident(0, 8 * SEG));
        let t = c.access(0, 8 * SEG, false);
        assert_eq!(t.hit_bytes, 8 * SEG);
    }

    #[test]
    fn partial_segments_charged_proportionally() {
        let mut c = cache_of(8);
        // 1.5 segments starting mid-segment: touches segments 0,1,2 partially.
        let t = c.access(SEG / 2, SEG + SEG / 2, false);
        assert_eq!(t.miss_bytes, SEG + SEG / 2);
        assert_eq!(t.miss_count, 2); // segments 0 and 1 (covers up to byte 2048)
        let t = c.access(SEG / 2, SEG + SEG / 2, false);
        assert_eq!(t.hit_bytes, SEG + SEG / 2);
    }

    #[test]
    fn zero_byte_access_is_noop() {
        let mut c = cache_of(4);
        let t = c.access(123, 0, true);
        assert_eq!(t, CacheTraffic::default());
        assert_eq!(c.stats().accessed_bytes, 0);
    }

    #[test]
    fn stats_accumulate_and_reset() {
        let mut c = cache_of(4);
        c.access(0, 2 * SEG, false);
        c.access(0, 2 * SEG, false);
        let s = c.stats();
        assert_eq!(s.accessed_bytes, 4 * SEG);
        assert_eq!(s.hit_bytes, 2 * SEG);
        assert_eq!(s.miss_bytes, 2 * SEG);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
        c.reset_stats();
        assert_eq!(c.stats(), CacheStats::default());
        assert_eq!(c.stats().hit_rate(), 1.0);
    }

    #[test]
    fn invalidate_clears_contents() {
        let mut c = cache_of(4);
        c.access(0, 4 * SEG, true);
        assert!(c.is_resident(0, 4 * SEG));
        c.invalidate();
        assert!(!c.is_resident(0, SEG));
        // No writeback charged for discarded dirty data — next access misses.
        let t = c.access(0, SEG, false);
        assert_eq!(t.writeback_bytes, 0);
        assert_eq!(t.miss_bytes, SEG);
    }

    #[test]
    fn working_set_larger_than_cache_streams_at_zero_hit_rate() {
        let mut c = cache_of(8);
        // Stream 32 segments repeatedly: classic LRU-defeating pattern also
        // defeats direct mapping (every set sees 4 distinct tags per pass).
        for _ in 0..4 {
            c.access(0, 32 * SEG, false);
        }
        let s = c.stats();
        assert_eq!(s.hit_bytes, 0);
    }

    #[test]
    #[should_panic(expected = "at least one segment")]
    fn rejects_zero_capacity() {
        DirectMappedCache::new(10, SEG);
    }
}
