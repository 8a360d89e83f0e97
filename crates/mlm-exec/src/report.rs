//! The unified run-statistics vocabulary.
//!
//! Every backend reports the same shape: per-stage thread/busy/wait
//! accounting and copied bytes plus whole-run chunk and step counts.
//! `mlm-core`'s old `HostRunStats`/`StageStats` are now aliases of these
//! types, so existing callers (benches, experiments, serve) keep compiling
//! unchanged.

use std::time::Duration;

/// Per-stage timing and traffic of one pipeline run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageReport {
    /// Worker threads dedicated to (or sharing) this stage.
    pub threads: usize,
    /// Cumulative task execution time, summed across workers.
    pub busy: Duration,
    /// Time the stage's coordinator spent blocked waiting for a buffer
    /// dependency (dataflow runs only; zero under lockstep, where waiting
    /// happens inside the shared pool's step barrier).
    pub wait: Duration,
    /// Bytes this stage copied, counted once per chunk where the copy is
    /// issued: the whole input for copy-in and copy-out of an explicit
    /// run; zero for compute, for implicit placement (no copy stages) and
    /// on backends that move no data.
    pub bytes: u64,
}

impl StageReport {
    /// Fraction of `threads x elapsed` this stage spent executing tasks.
    pub fn occupancy(&self, elapsed: Duration) -> f64 {
        if self.threads == 0 || elapsed.is_zero() {
            return 0.0;
        }
        self.busy.as_secs_f64() / (self.threads as f64 * elapsed.as_secs_f64())
    }
}

/// Result of one pipeline run on any backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunReport {
    /// Number of chunks processed.
    pub chunks: usize,
    /// Number of schedule steps (`chunks + 2` for explicit pipelines;
    /// reported for dataflow runs too so the two modes compare directly,
    /// even though dataflow has no step barriers).
    pub steps: usize,
    /// Wall-clock duration of the chunked phase (zero on virtual-time
    /// backends, whose cost comes from the simulator's engine instead).
    pub elapsed: Duration,
    /// Copy-in stage timing (zero `threads` under implicit placement).
    pub copy_in: StageReport,
    /// Compute stage timing.
    pub compute: StageReport,
    /// Copy-out stage timing (zero `threads` under implicit placement).
    pub copy_out: StageReport,
}

impl RunReport {
    /// An all-zero report for a run that did nothing (empty input).
    pub fn empty() -> Self {
        RunReport {
            chunks: 0,
            steps: 0,
            elapsed: Duration::ZERO,
            copy_in: StageReport::default(),
            compute: StageReport::default(),
            copy_out: StageReport::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn occupancy_is_busy_over_capacity() {
        let s = StageReport {
            threads: 4,
            busy: Duration::from_secs(2),
            wait: Duration::ZERO,
            bytes: 0,
        };
        let occ = s.occupancy(Duration::from_secs(1));
        assert!((occ - 0.5).abs() < 1e-12);
        assert_eq!(
            StageReport::default().occupancy(Duration::from_secs(1)),
            0.0
        );
        assert_eq!(s.occupancy(Duration::ZERO), 0.0);
    }

    #[test]
    fn empty_report_is_all_zero() {
        let r = RunReport::empty();
        assert_eq!(r.chunks, 0);
        assert_eq!(r.steps, 0);
        assert!(r.elapsed.is_zero());
        assert_eq!(r.copy_in.bytes + r.compute.bytes + r.copy_out.bytes, 0);
    }
}
