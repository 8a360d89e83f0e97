//! The unified memory-placement vocabulary.
//!
//! The pipeline spec, the plan builders, the lints and the schedule
//! verifier all name "where do the chunk buffers live" with this one
//! type (`mlm_core::pipeline::Placement` re-exports it).

use serde::{Deserialize, Serialize};

/// Where the pipeline's chunk buffers live.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Placement {
    /// Buffers in flat-mode MCDRAM (the paper's chunked flat algorithm).
    Hbw,
    /// Buffers in DDR — the chunking structure with no MCDRAM (MLM-ddr).
    Ddr,
    /// No buffers at all: compute touches the original DDR data through
    /// the MCDRAM cache (the paper's *implicit cache mode*, Fig. 5).
    Implicit,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_serde_round_trip() {
        for p in [Placement::Hbw, Placement::Ddr, Placement::Implicit] {
            let json = serde_json::to_string(&p).unwrap();
            let back: Placement = serde_json::from_str(&json).unwrap();
            assert_eq!(back, p);
        }
    }
}
