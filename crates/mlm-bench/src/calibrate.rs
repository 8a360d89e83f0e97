//! Calibration: host measurements and fitting against the paper's anchors.
//!
//! Two jobs:
//!
//! 1. **Host characterisation** ([`measure_host`]): run STREAM and the
//!    serial sort natively on random and reverse keys, and report them.
//!    Nothing downstream consumes these numbers. In particular the host's
//!    reverse / random ratio does not stand in for the paper's: the
//!    platform sort (`parsort::introsort`, i.e. `sort_unstable`) detects
//!    a fully descending input and reverses it in O(n), so the host
//!    ratio is about 16× where the paper's KNL showed ≈ 2–3× from branch
//!    prediction. That effect lives only in the fitted reverse-order
//!    constants (`Calibration::incache_reverse`; `s_sort_reverse` equals
//!    the random rate).
//! 2. **Anchor fitting** ([`fit_to_anchor`]): choose a single global scale
//!    on the compute-rate constants so the simulated *GNU-flat, 2 B
//!    random* time matches the paper's 11.92 s. One scalar fitted against
//!    one anchor row; all 29 other cells and every figure stay emergent.

use mlm_core::{Calibration, InputOrder, SortAlgorithm};
use parsort::pool::WorkPool;
use parsort::serial::introsort;

use crate::experiments::simulate_sort;
use crate::BILLION;

/// Host measurements relevant to the calibration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostMeasurement {
    /// Native serial-sort traffic rate on random keys, bytes/s (host
    /// scale), priced with the model's pass count.
    pub sort_rate_random: f64,
    /// Same on reverse-sorted keys, which the platform sort finishes in
    /// one O(n) run detection and reversal.
    pub sort_rate_reverse: f64,
    /// `sort_rate_reverse / sort_rate_random`. Reported only; the model's
    /// reverse-order constants are fitted, not taken from this.
    pub reverse_ratio: f64,
    /// Native STREAM Triad bandwidth, bytes/s.
    pub triad_bandwidth: f64,
}

/// Measure the host: serial sort rates on both orders, and STREAM.
pub fn measure_host(n: usize, threads: usize) -> HostMeasurement {
    let pool = WorkPool::new(threads);
    let triad = mlm_stream::host::run_kernel(&pool, mlm_stream::StreamKernel::Triad, n.max(1), 3);

    let cal = Calibration::default();
    let measure_order = |order: InputOrder| -> f64 {
        let mut keys = mlm_core::workload::generate_keys(n, order, 11);
        let start = std::time::Instant::now();
        introsort(&mut keys);
        let secs = start.elapsed().as_secs_f64().max(1e-9);
        std::hint::black_box(&keys);
        cal.sort_traffic(n, 8) as f64 / secs
    };
    let sort_rate_random = measure_order(InputOrder::Random);
    let sort_rate_reverse = measure_order(InputOrder::Reverse);

    HostMeasurement {
        sort_rate_random,
        sort_rate_reverse,
        reverse_ratio: sort_rate_reverse / sort_rate_random,
        triad_bandwidth: triad.bandwidth,
    }
}

/// Scale `cal`'s three compute-rate constants by `factor`.
pub fn scale_compute_rates(cal: &Calibration, factor: f64) -> Calibration {
    Calibration {
        s_sort_random: cal.s_sort_random * factor,
        s_sort_reverse: cal.s_sort_reverse * factor,
        s_multiway: cal.s_multiway * factor,
        ..cal.clone()
    }
}

/// Fit the global compute-rate scale so the simulated GNU-flat / 2 B /
/// random time matches the paper's anchor (11.92 s), by bisection on the
/// (monotone) scale factor. Returns the fitted calibration and the
/// residual in seconds.
pub fn fit_to_anchor(base: &Calibration) -> Result<(Calibration, f64), String> {
    const ANCHOR_SECONDS: f64 = 11.92;
    let anchor = |cal: &Calibration| -> Result<f64, String> {
        simulate_sort(cal, 2 * BILLION, InputOrder::Random, SortAlgorithm::GnuFlat)
    };

    // Time decreases as rates increase: bracket the anchor.
    let mut lo = 0.25f64; // slower rates, longer time
    let mut hi = 4.0f64;
    let t_lo = anchor(&scale_compute_rates(base, lo))?;
    let t_hi = anchor(&scale_compute_rates(base, hi))?;
    if !(t_hi <= ANCHOR_SECONDS && ANCHOR_SECONDS <= t_lo) {
        return Err(format!(
            "anchor {ANCHOR_SECONDS} s not bracketed: [{t_hi}, {t_lo}] over scales [0.25, 4]"
        ));
    }
    for _ in 0..40 {
        let mid = 0.5 * (lo + hi);
        let t = anchor(&scale_compute_rates(base, mid))?;
        if t > ANCHOR_SECONDS {
            lo = mid; // still too slow: rates must grow
        } else {
            hi = mid;
        }
    }
    let fitted = scale_compute_rates(base, 0.5 * (lo + hi));
    let residual = anchor(&fitted)? - ANCHOR_SECONDS;
    Ok((fitted, residual))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_measurement_is_sane() {
        let m = measure_host(200_000, 2);
        assert!(m.sort_rate_random > 0.0);
        assert!(m.sort_rate_reverse > 0.0);
        assert!(m.triad_bandwidth > 0.0);
        // Reverse input sorts faster than random (on this platform sort,
        // by far more than the paper's branch-prediction effect).
        assert!(m.reverse_ratio > 1.1, "reverse ratio {}", m.reverse_ratio);
    }

    #[test]
    fn scaling_preserves_other_fields() {
        let base = Calibration::default();
        let scaled = scale_compute_rates(&base, 2.0);
        assert_eq!(scaled.s_sort_random, base.s_sort_random * 2.0);
        assert_eq!(scaled.s_multiway, base.s_multiway * 2.0);
        assert_eq!(scaled.mcdram_boost, base.mcdram_boost);
        assert_eq!(scaled.gnu_efficiency, base.gnu_efficiency);
    }

    #[test]
    fn fit_converges_to_anchor() {
        let (fitted, residual) = fit_to_anchor(&Calibration::default()).unwrap();
        assert!(residual.abs() < 0.05, "residual {residual}");
        fitted.validate().unwrap();
        // The shipped defaults should already be close to the fit.
        let drift = fitted.s_sort_random / Calibration::default().s_sort_random;
        assert!(
            (0.7..1.4).contains(&drift),
            "default drifted {drift}x from fit"
        );
    }
}
