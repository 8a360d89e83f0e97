//! The shared description of one chunked execution.
//!
//! Moved here from `mlm_core::pipeline` (which re-exports it) so that
//! every backend — host thread pools, the op-level simulator, recorders —
//! speaks the same spec without depending on `mlm-core`.

use serde::{Deserialize, Serialize};

use crate::drive::{RING_SLOTS, STENCIL_RING_SLOTS};
use crate::placement::Placement;

/// Which compute family the pipeline runs over its chunks.
///
/// The §3 schedule (stage in, compute, stage out over a rotating buffer
/// ring) is workload-generic; what differs per family is the kernel's
/// data footprint — and therefore the dependency edges and ring depth the
/// plan layer emits. `Map` is the paper's merge-benchmark shape (each
/// chunk is independent); `Stencil` is the first out-of-core family with
/// *inter-chunk* dependencies (halo reads from both staged neighbours).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub enum Workload {
    /// Chunk-local kernel: compute on chunk `c` touches only chunk `c`.
    #[default]
    Map,
    /// Out-of-core 2D stencil over a row-partitioned grid: compute on
    /// chunk `c` also reads `halo_bytes` of boundary rows from each
    /// adjacent staged chunk (`c - 1` and `c + 1`), so the plan keeps
    /// separate input and output buffers per slot and a deeper ring.
    Stencil {
        /// Bytes of boundary data read from each neighbouring chunk.
        halo_bytes: u64,
    },
}

impl Workload {
    /// Short family name, used in plan metadata and diagnostics.
    pub fn family(&self) -> &'static str {
        match self {
            Workload::Map => "map",
            Workload::Stencil { .. } => "stencil",
        }
    }
}

/// Full description of one chunked execution.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineSpec {
    /// Total bytes to stream through the pipeline.
    pub total_bytes: u64,
    /// Chunk (and buffer) size in bytes.
    pub chunk_bytes: u64,
    /// Copy-in pool size (ignored for [`Placement::Implicit`]).
    pub p_in: usize,
    /// Copy-out pool size (ignored for [`Placement::Implicit`]).
    pub p_out: usize,
    /// Compute pool size.
    pub p_comp: usize,
    /// Read+write passes the kernel makes over each chunk (the merge
    /// benchmark's `repeats`).
    pub compute_passes: u32,
    /// Per-thread compute traffic cap in bytes/s (the paper's `S_comp`).
    pub compute_rate: f64,
    /// Per-thread copy rate cap in bytes/s (the paper's `S_copy`).
    pub copy_rate: f64,
    /// Buffer placement.
    pub placement: Placement,
    /// `true` = the paper's lockstep steps (a barrier after every step,
    /// matching the model's `max(T_copy, T_comp)` structure);
    /// `false` = pure dataflow dependencies (buffer-recycling only), an
    /// ablation the paper leaves as future work.
    pub lockstep: bool,
    /// Simulated DDR base address of the source data (used by cache-mode
    /// accesses).
    pub data_addr: u64,
    /// Which compute family runs over the chunks. Defaults to [`Workload::Map`]
    /// (the paper's chunk-local kernels), so serialized specs from before
    /// the plan-IR refactor deserialize unchanged.
    #[serde(default)]
    pub workload: Workload,
}

impl PipelineSpec {
    /// Number of chunks (the last may be ragged).
    pub fn n_chunks(&self) -> usize {
        assert!(self.chunk_bytes > 0, "chunk_bytes must be positive");
        self.total_bytes.div_ceil(self.chunk_bytes) as usize
    }

    /// Size of chunk `c` in bytes.
    ///
    /// # Panics
    ///
    /// Panics if `c >= self.n_chunks()`. Out-of-range chunks used to
    /// return 0, which silently produced empty work items when a caller's
    /// chunk arithmetic drifted from the spec's; failing loudly here turns
    /// those geometry mismatches into immediate, debuggable panics.
    pub fn chunk_size(&self, c: usize) -> u64 {
        let n = self.n_chunks();
        assert!(c < n, "chunk index {c} out of range (spec has {n} chunks)");
        let start = c as u64 * self.chunk_bytes;
        self.chunk_bytes.min(self.total_bytes - start)
    }

    /// Buffer-ring depth the schedule rotates over: three slots for
    /// chunk-local workloads (paper Fig. 2), four for the stencil family
    /// (compute on chunk `c` reads the staged neighbours `c - 1` and
    /// `c + 1`, so a slot may only be recycled once *three* computes have
    /// read it).
    pub fn ring_slots(&self) -> usize {
        match self.workload {
            Workload::Map => RING_SLOTS,
            Workload::Stencil { .. } => STENCIL_RING_SLOTS,
        }
    }

    /// Chunk-sized buffers each ring slot owns: one for chunk-local
    /// kernels (computed in place), two (input + output) for stencils —
    /// an in-place stencil would corrupt the boundary rows its
    /// neighbours' computes still have to read.
    pub fn buffers_per_slot(&self) -> u64 {
        match self.workload {
            Workload::Map => 1,
            Workload::Stencil { .. } => 2,
        }
    }

    /// Total simulated threads the schedule occupies.
    pub fn threads(&self) -> usize {
        match self.placement {
            Placement::Implicit => self.p_comp,
            _ => self.p_in + self.p_out + self.p_comp,
        }
    }

    /// Basic feasibility checks shared by all backends.
    pub fn validate(&self) -> Result<(), String> {
        if self.total_bytes == 0 {
            return Err("total_bytes must be positive".into());
        }
        if self.chunk_bytes == 0 {
            return Err("chunk_bytes must be positive".into());
        }
        if self.p_comp == 0 {
            return Err("need at least one compute thread".into());
        }
        if self.placement != Placement::Implicit && (self.p_in == 0 || self.p_out == 0) {
            return Err("explicit pipelines need copy-in and copy-out threads".into());
        }
        if self.compute_passes == 0 {
            return Err("compute_passes must be >= 1".into());
        }
        // `<= 0.0` alone lets NaN through (every NaN comparison is false);
        // a NaN rate would reach the op validator as a confusing BadOp.
        if !(self.compute_rate > 0.0
            && self.compute_rate.is_finite()
            && self.copy_rate > 0.0
            && self.copy_rate.is_finite())
        {
            return Err("rates must be positive and finite".into());
        }
        if let Workload::Stencil { halo_bytes } = self.workload {
            if self.placement == Placement::Implicit {
                return Err(
                    "stencil workloads need explicit staging: implicit cache mode has no \
                     halo buffers to exchange through"
                        .into(),
                );
            }
            if halo_bytes >= self.chunk_bytes {
                return Err(format!(
                    "stencil halo of {halo_bytes} bytes must be smaller than the \
                     {}-byte chunk (wider halos reach past the adjacent chunk)",
                    self.chunk_bytes
                ));
            }
        }
        Ok(())
    }

    /// Check that the byte geometry is expressible in elements of
    /// `elem_bytes` each, as the host backend requires.
    ///
    /// The host pipeline carves `data: &[T]` into chunks of
    /// `chunk_bytes / size_of::<T>()` elements. If `chunk_bytes` is not a
    /// multiple of the element size, that division rounds down and the
    /// host's chunk boundaries silently drift away from the spec's (and
    /// the simulator's) byte boundaries — every chunk after the first
    /// covers different data than the model says it does. Reject such
    /// specs instead of mis-chunking.
    pub fn validate_elem_size(&self, elem_bytes: usize) -> Result<(), String> {
        let elem = elem_bytes.max(1) as u64;
        if self.chunk_bytes < elem {
            return Err(format!(
                "chunk_bytes = {} is smaller than one {elem}-byte element",
                self.chunk_bytes
            ));
        }
        if !self.chunk_bytes.is_multiple_of(elem) {
            return Err(format!(
                "chunk_bytes = {} is not a multiple of the {elem}-byte element size; \
                 host chunk boundaries would not match the spec's byte boundaries",
                self.chunk_bytes
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> PipelineSpec {
        PipelineSpec {
            total_bytes: 100,
            chunk_bytes: 30,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep: true,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    fn stencil_spec(halo_bytes: u64) -> PipelineSpec {
        let mut s = spec();
        s.workload = Workload::Stencil { halo_bytes };
        s
    }

    #[test]
    fn chunk_math_handles_ragged_tail() {
        let s = spec();
        assert_eq!(s.n_chunks(), 4);
        assert_eq!(s.chunk_size(0), 30);
        assert_eq!(s.chunk_size(2), 30);
        assert_eq!(s.chunk_size(3), 10);
        s.validate().unwrap();
    }

    #[test]
    fn exact_division_has_no_tail() {
        let mut s = spec();
        s.total_bytes = 90;
        assert_eq!(s.n_chunks(), 3);
        assert_eq!(s.chunk_size(2), 30);
    }

    #[test]
    #[should_panic(expected = "chunk index 4 out of range")]
    fn chunk_size_rejects_out_of_range_index() {
        let s = spec();
        // spec() has 4 chunks (0..=3); index 4 used to yield a silent 0.
        s.chunk_size(4);
    }

    #[test]
    fn elem_size_validation() {
        let mut s = spec();
        s.chunk_bytes = 32;
        assert!(s.validate_elem_size(8).is_ok());
        assert!(s.validate_elem_size(1).is_ok());
        // 30 % 8 != 0: chunk boundaries would fall mid-element.
        s.chunk_bytes = 30;
        assert!(s.validate_elem_size(8).is_err());
        // Chunk smaller than one element.
        s.chunk_bytes = 4;
        assert!(s.validate_elem_size(8).is_err());
        // Zero-sized types are treated as 1-byte for geometry purposes.
        s.chunk_bytes = 30;
        assert!(s.validate_elem_size(0).is_ok());
    }

    #[test]
    fn thread_accounting_by_placement() {
        let mut s = spec();
        assert_eq!(s.threads(), 8);
        s.placement = Placement::Implicit;
        assert_eq!(s.threads(), 4);
    }

    #[test]
    fn validation_rejects_degenerate_specs() {
        let mut s = spec();
        s.total_bytes = 0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.p_comp = 0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.p_in = 0;
        assert!(s.validate().is_err());

        // Implicit mode doesn't need copy pools.
        let mut s = spec();
        s.placement = Placement::Implicit;
        s.p_in = 0;
        s.p_out = 0;
        assert!(s.validate().is_ok());

        let mut s = spec();
        s.compute_passes = 0;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.copy_rate = 0.0;
        assert!(s.validate().is_err());

        // NaN compares false with everything, so `<= 0.0` alone missed it.
        let mut s = spec();
        s.compute_rate = f64::NAN;
        assert!(s.validate().is_err());

        let mut s = spec();
        s.copy_rate = f64::INFINITY;
        assert!(s.validate().is_err());
    }

    #[test]
    fn spec_serde_round_trip() {
        let s = spec();
        let json = serde_json::to_string(&s).unwrap();
        let back: PipelineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);

        let s = stencil_spec(8);
        let json = serde_json::to_string(&s).unwrap();
        let back: PipelineSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn specs_without_a_workload_field_deserialize_as_map() {
        // Serialized specs predating the plan-IR refactor carry no
        // `workload` key; they must keep meaning chunk-local kernels.
        let json = serde_json::to_string(&spec()).unwrap();
        let stripped = json.replace(",\"workload\":\"Map\"", "");
        assert_ne!(json, stripped, "test must actually strip the field");
        let back: PipelineSpec = serde_json::from_str(&stripped).unwrap();
        assert_eq!(back, spec());
    }

    #[test]
    fn stencil_geometry_deepens_the_ring_and_doubles_the_buffers() {
        let s = spec();
        assert_eq!(s.ring_slots(), 3);
        assert_eq!(s.buffers_per_slot(), 1);
        let t = stencil_spec(8);
        assert_eq!(t.ring_slots(), 4);
        assert_eq!(t.buffers_per_slot(), 2);
        t.validate().unwrap();
    }

    #[test]
    fn stencil_validation_rejects_infeasible_shapes() {
        // Implicit cache mode has no staging buffers to exchange halos in.
        let mut s = stencil_spec(8);
        s.placement = Placement::Implicit;
        s.p_in = 0;
        s.p_out = 0;
        assert!(s.validate().unwrap_err().contains("explicit staging"));

        // A halo as wide as the chunk would reach past the adjacent chunk.
        let s = stencil_spec(30);
        assert!(s.validate().is_err());
        let s = stencil_spec(29);
        assert!(s.validate().is_ok());
    }
}
