//! The paper's copy-thread model (§3.2, Equations 1–5), implemented
//! verbatim.
//!
//! The model predicts the execution time of a buffered chunking algorithm
//! from five machine/problem parameters (paper Table 2) and the thread-pool
//! split, and from it the near-optimal number of copy threads.
//!
//! Equation numbers in the code refer to the paper:
//!
//! * Eq. 1: `T_total = max(T_copy, T_comp)`
//! * Eq. 2: `T_copy = 2·B / ((p_in + p_out)·C_copy)`
//! * Eq. 3: `C_copy = S_copy` until DDR saturates, then the DDR share
//! * Eq. 4: `T_comp = 2·B·passes / (p_comp·C_comp)`
//! * Eq. 5: `C_comp = S_comp` until MCDRAM saturates, then the leftover
//!   MCDRAM share

use serde::{Deserialize, Serialize};

/// Inputs to the model — the paper's Table 2 plus the thread budget.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelParams {
    /// Data set size `B_copy` in bytes (Table 2: 14.9 GB).
    pub b_copy: f64,
    /// Peak DDR bandwidth in bytes/s (Table 2: 90 GB/s).
    pub ddr_max: f64,
    /// Peak MCDRAM bandwidth in bytes/s (Table 2: 400 GB/s).
    pub mcdram_max: f64,
    /// Per-thread copy rate `S_copy` in bytes/s (Table 2: 4.8 GB/s).
    pub s_copy: f64,
    /// Per-thread compute rate `S_comp` in bytes/s (Table 2: 6.78 GB/s).
    pub s_comp: f64,
    /// Total hardware threads to divide among the three pools (paper: 256).
    pub total_threads: usize,
}

/// A concrete three-pool thread assignment derived from the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThreadSplit {
    /// Copy-in pool size.
    pub p_in: usize,
    /// Copy-out pool size.
    pub p_out: usize,
    /// Compute pool size.
    pub p_comp: usize,
}

impl ThreadSplit {
    /// Total threads the split occupies.
    pub fn total(&self) -> usize {
        self.p_in + self.p_out + self.p_comp
    }
}

impl ModelParams {
    /// The paper's Table 2 values.
    pub fn paper_table2() -> Self {
        ModelParams {
            b_copy: 14.9e9,
            ddr_max: 90e9,
            mcdram_max: 400e9,
            s_copy: 4.8e9,
            s_comp: 6.78e9,
            total_threads: 256,
        }
    }

    /// Eq. 3: effective per-thread copy rate for `p_in + p_out` copy
    /// threads.
    pub fn c_copy(&self, p_in: usize, p_out: usize) -> f64 {
        let p = (p_in + p_out) as f64;
        if p * self.s_copy <= self.ddr_max {
            self.s_copy
        } else {
            self.ddr_max / p
        }
    }

    /// Eq. 2: time to copy the data set into MCDRAM and back out.
    pub fn t_copy(&self, p_in: usize, p_out: usize) -> f64 {
        let p = (p_in + p_out) as f64;
        if p == 0.0 {
            return f64::INFINITY;
        }
        2.0 * self.b_copy / (p * self.c_copy(p_in, p_out))
    }

    /// Eq. 5: effective per-thread compute rate for `p_comp` compute
    /// threads sharing MCDRAM with `p_in + p_out` copy threads.
    pub fn c_comp(&self, p_comp: usize, p_in: usize, p_out: usize) -> f64 {
        let pc = p_comp as f64;
        let demand = pc * self.s_comp + (p_in + p_out) as f64 * self.s_copy;
        if demand <= self.mcdram_max {
            self.s_comp
        } else {
            let copy_share = (p_in + p_out) as f64 * self.c_copy(p_in, p_out);
            ((self.mcdram_max - copy_share) / pc).max(0.0)
        }
    }

    /// Eq. 4: compute time for `passes` read+write passes over the data.
    pub fn t_comp(&self, p_comp: usize, p_in: usize, p_out: usize, passes: u32) -> f64 {
        if p_comp == 0 {
            return f64::INFINITY;
        }
        let c = self.c_comp(p_comp, p_in, p_out);
        if c <= 0.0 {
            return f64::INFINITY;
        }
        2.0 * self.b_copy * f64::from(passes) / (p_comp as f64 * c)
    }

    /// Eq. 1: predicted total time with `p_in = p_out = copy_threads` and
    /// the remaining threads computing.
    ///
    /// Returns `None` when the split is infeasible (no compute threads
    /// left).
    pub fn t_total(&self, copy_threads: usize, passes: u32) -> Option<f64> {
        let used = 2 * copy_threads;
        if copy_threads == 0 || used >= self.total_threads {
            return None;
        }
        let p_comp = self.total_threads - used;
        Some(self.t_copy(copy_threads, copy_threads).max(self.t_comp(
            p_comp,
            copy_threads,
            copy_threads,
            passes,
        )))
    }

    /// The best symmetric split: `(copy-in threads, predicted seconds)`
    /// for the given number of compute passes (the merge benchmark's
    /// `repeats`).
    ///
    /// The answer is the one an ascending scan over every feasible `p`
    /// gives when it keeps a new `p` only on a strict improvement beyond
    /// float noise (`t < best·(1 − 1e-9)`): plateaus, such as the
    /// DDR-saturated regime where `T_copy` is analytically constant in
    /// `p`, resolve to the smallest thread count. The search stops as soon
    /// as no later `p` can pass that test, by this lemma. Let
    /// `share(p) = min(2p·S_copy, DDR_max)`. For every `q ≥ p`:
    ///
    /// * `T_copy(q) ≥ 2B / DDR_max`, since `2q·C_copy(q) ≤ DDR_max`
    ///   (Eq. 3);
    /// * `T_comp(q) ≥ 2B·passes / (MCDRAM_max − share(p))` when that room
    ///   is positive: both branches of Eq. 5 give
    ///   `p_comp·C_comp ≤ MCDRAM_max − share(q)`, and `share` is
    ///   non-decreasing.
    ///
    /// The room is widened by `1e-12·(MCDRAM_max + DDR_max)` and the
    /// bound scaled by `1 − 1e-12`, which covers the rounding of the
    /// evaluated times. `T_comp` alone is *not* monotone in `p` (Eq. 5
    /// tests saturation with `S_copy` but subtracts the DDR-capped
    /// `C_copy`), so bisecting on the `T_copy`/`T_comp` crossing would
    /// not find this optimum; the bound needs no monotonicity.
    pub fn optimal_copy_threads(&self, passes: u32) -> (usize, f64) {
        self.optimal_copy_threads_counted(passes).0
    }

    /// [`Self::optimal_copy_threads`] plus the number of splits it
    /// evaluated.
    fn optimal_copy_threads_counted(&self, passes: u32) -> ((usize, f64), usize) {
        const SLACK: f64 = 1.0 - 1e-12;
        let copy_floor = 2.0 * self.b_copy / self.ddr_max * SLACK;
        let comp_bytes = 2.0 * self.b_copy * f64::from(passes);
        let room_slack = 1e-12 * (self.mcdram_max + self.ddr_max);
        let mut best = (1, f64::INFINITY);
        let mut evaluated = 0;
        let mut p = 1;
        while 2 * p < self.total_threads {
            let share = ((2 * p) as f64 * self.s_copy).min(self.ddr_max);
            let room = self.mcdram_max - share + room_slack;
            let comp_floor = if room > 0.0 {
                comp_bytes / room * SLACK
            } else {
                0.0
            };
            let threshold = best.1 * (1.0 - 1e-9);
            if copy_floor.max(comp_floor) >= threshold {
                break;
            }
            evaluated += 1;
            if let Some(t) = self.t_total(p, passes) {
                if t < threshold {
                    best = (p, t);
                }
            }
            p += 1;
        }
        (best, evaluated)
    }

    /// Predicted time for an *asymmetric* split `p_in != p_out` — the
    /// paper's model assumes the pools equal ("the copy-in and copy-out
    /// pools are equal in size and have equivalent workloads"); this
    /// generalisation lets that assumption be checked rather than taken.
    /// Each pool moves `B` bytes, so the copy phase ends when the slower
    /// pool finishes; both share DDR.
    pub fn t_total_asymmetric(&self, p_in: usize, p_out: usize, passes: u32) -> Option<f64> {
        let used = p_in + p_out;
        if p_in == 0 || p_out == 0 || used >= self.total_threads {
            return None;
        }
        let c = self.c_copy(p_in, p_out);
        // The slower (smaller) pool bounds the copy phase.
        let t_copy = self.b_copy / (p_in.min(p_out) as f64 * c);
        let p_comp = self.total_threads - used;
        Some(t_copy.max(self.t_comp(p_comp, p_in, p_out, passes)))
    }

    /// Search all asymmetric splits; returns `(p_in, p_out, seconds)`.
    pub fn optimal_asymmetric(&self, passes: u32) -> (usize, usize, f64) {
        let mut best = (1, 1, f64::INFINITY);
        for p_in in 1..self.total_threads {
            for p_out in 1..(self.total_threads - p_in) {
                if p_in + p_out >= self.total_threads {
                    break;
                }
                if let Some(t) = self.t_total_asymmetric(p_in, p_out, passes) {
                    if t < best.2 * (1.0 - 1e-9) {
                        best = (p_in, p_out, t);
                    }
                }
            }
        }
        best
    }

    /// The same model under a different thread budget — how a scheduler
    /// re-poses the single-job question when a job is granted only a slice
    /// of the machine.
    pub fn with_total_threads(mut self, threads: usize) -> Self {
        self.total_threads = threads;
        self
    }

    /// The Eqs. 1–5 optimum as a concrete pool assignment under the
    /// current thread budget: symmetric copy pools from
    /// [`Self::optimal_copy_threads`], every remaining thread computing.
    ///
    /// This is the per-job tuner a multi-tenant scheduler calls each time
    /// the co-resident job set — and with it each job's thread budget —
    /// changes. Returns `None` in two cases:
    ///
    /// * the budget cannot host all three pools (`total_threads < 3`);
    /// * no split has a finite predicted time. For example, when even two
    ///   copy threads' share of MCDRAM (Eq. 5's `2·C_copy`) leaves the
    ///   compute pool no bandwidth, `C_comp = 0` at every `p`.
    pub fn optimal_split(&self, passes: u32) -> Option<ThreadSplit> {
        if self.total_threads < 3 {
            return None;
        }
        let (p, t) = self.optimal_copy_threads(passes);
        if !t.is_finite() {
            return None;
        }
        Some(ThreadSplit {
            p_in: p,
            p_out: p,
            p_comp: self.total_threads - 2 * p,
        })
    }

    /// Like [`Self::optimal_copy_threads`] but restricted to the candidate
    /// set the paper's empirical sweep used (powers of two up to 32).
    pub fn optimal_copy_threads_pow2(&self, passes: u32) -> (usize, f64) {
        let mut best = (1, f64::INFINITY);
        for p in [1usize, 2, 4, 8, 16, 32] {
            if 2 * p >= self.total_threads {
                break;
            }
            if let Some(t) = self.t_total(p, passes) {
                if t < best.1 * (1.0 - 1e-9) {
                    best = (p, t);
                }
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::{MachineConfig, MemMode};
    use proptest::prelude::*;

    fn m() -> ModelParams {
        ModelParams::paper_table2()
    }

    /// Every feasible `p`, ascending, with the same strict-improvement
    /// rule: what [`ModelParams::optimal_copy_threads`] did before it was
    /// bounded, kept as the reference it must agree with bit for bit.
    fn optimal_copy_threads_by_scan(m: &ModelParams, passes: u32) -> ((usize, f64), usize) {
        let mut best = (1, f64::INFINITY);
        let mut evaluated = 0;
        let mut p = 1;
        while 2 * p < m.total_threads {
            evaluated += 1;
            if let Some(t) = m.t_total(p, passes) {
                if t < best.1 * (1.0 - 1e-9) {
                    best = (p, t);
                }
            }
            p += 1;
        }
        (best, evaluated)
    }

    fn assert_bounded_is_scan(m: &ModelParams, passes: u32) {
        let ((p, t), _) = m.optimal_copy_threads_counted(passes);
        let ((want_p, want_t), _) = optimal_copy_threads_by_scan(m, passes);
        assert!(
            p == want_p && t.to_bits() == want_t.to_bits(),
            "{m:?}, passes {passes}: bounded ({p}, {t}) vs scan ({want_p}, {want_t})"
        );
    }

    /// `10^lo ..= 10^hi`, uniform in the exponent.
    fn log_uniform(lo: f64, hi: f64) -> impl Strategy<Value = f64> {
        (lo..=hi).prop_map(|e| 10f64.powf(e))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(20_000))]

        #[test]
        fn bounded_search_is_the_scan(
            (b_copy, ddr_max, mcdram_max) in (
                log_uniform(3.0, 13.0),
                log_uniform(8.0, 12.0),
                log_uniform(8.0, 13.0),
            ),
            (s_copy, s_comp) in (log_uniform(7.0, 11.0), log_uniform(7.0, 11.0)),
            total_threads in 0usize..=300,
            passes in 1u32..=256,
        ) {
            let m = ModelParams {
                b_copy,
                ddr_max,
                mcdram_max,
                s_copy,
                s_comp,
                total_threads,
            };
            assert_bounded_is_scan(&m, passes);
        }
    }

    /// The parameter sets a node actually poses: each KNL mode, with the
    /// MCDRAM ceiling of an HBW job and of a DDR-spilled job (`mlm-serve`'s
    /// `model_for`), every thread budget up to 300 and every pass count
    /// up to 256.
    #[test]
    fn bounded_search_is_the_scan_on_knl_shaped_models() {
        let modes = [
            MemMode::Flat,
            MemMode::Cache,
            MemMode::Hybrid {
                cache_fraction: 0.5,
            },
        ];
        for mode in modes {
            let machine = MachineConfig::knl_7250(mode);
            let hbw = machine.effective_mcdram_bandwidth();
            for mcdram_max in [hbw, machine.ddr_bandwidth] {
                for b_copy in [14.9e9, 2.0 * (1u64 << 30) as f64] {
                    for total_threads in 0..=300 {
                        let m = ModelParams {
                            b_copy,
                            ddr_max: machine.ddr_bandwidth,
                            mcdram_max,
                            s_copy: machine.per_thread_copy_bw,
                            s_comp: machine.per_thread_compute_bw,
                            total_threads,
                        };
                        for passes in 1..=256 {
                            assert_bounded_is_scan(&m, passes);
                        }
                    }
                }
            }
        }
    }

    /// Eq. 5 tests saturation with `S_copy` but subtracts the DDR-capped
    /// `C_copy`, so `T_comp` is not monotone in `p`: here it already
    /// exceeds `T_copy` at `p = 1`, yet the optimum is `p = 18`. A search
    /// for the `T_copy`/`T_comp` crossing would stop at 1.
    #[test]
    fn eq5_counterexample_defeats_a_crossing_search() {
        let m = ModelParams {
            b_copy: 6.73e6,
            ddr_max: 196.2e9,
            mcdram_max: 422.1e9,
            s_copy: 9.91e9,
            s_comp: 0.429e9,
            total_threads: 208,
        };
        let passes = 128;
        let t_comp = |p: usize| m.t_comp(m.total_threads - 2 * p, p, p, passes);
        assert!(t_comp(1) >= m.t_copy(1, 1));
        assert!(
            (t_comp(1) - 0.0195).abs() < 5e-5,
            "T_comp(1) = {}",
            t_comp(1)
        );
        assert!(
            (1..103).any(|p| t_comp(p + 1) < t_comp(p)),
            "T_comp is not monotone"
        );
        let (p, t) = m.optimal_copy_threads(passes);
        assert_eq!(p, 18);
        assert!((t - 0.00763).abs() < 5e-6, "t = {t}");
        assert_bounded_is_scan(&m, passes);
    }

    /// The bound's work on paper Table 2: the scan evaluates all 127
    /// feasible splits per call, the bounded search this many.
    #[test]
    fn bounded_search_evaluation_counts_are_pinned() {
        let m = m();
        let mut counts = Vec::new();
        for passes in [1u32, 2, 4, 8, 16, 32, 64, 128] {
            assert_eq!(optimal_copy_threads_by_scan(&m, passes).1, 127);
            counts.push(m.optimal_copy_threads_counted(passes).1);
        }
        assert_eq!(counts, [10, 10, 9, 5, 3, 2, 1, 1]);
    }

    #[test]
    fn c_copy_saturates_at_ddr() {
        let m = m();
        // 9 in + 9 out = 18 threads * 4.8 = 86.4 < 90: unsaturated.
        assert_eq!(m.c_copy(9, 9), 4.8e9);
        // 10 + 10 = 20 threads * 4.8 = 96 > 90: saturated share.
        let c = m.c_copy(10, 10);
        assert!((c - 90e9 / 20.0).abs() < 1.0);
        // Aggregate copy bandwidth never exceeds DDR_max.
        for p in 1..=64 {
            let agg = 2.0 * p as f64 * m.c_copy(p, p);
            assert!(agg <= 90e9 * (1.0 + 1e-12));
        }
    }

    #[test]
    fn t_copy_matches_closed_form() {
        let m = m();
        // Below saturation: 2*14.9 GB / (16 * 4.8 GB/s).
        let t = m.t_copy(8, 8);
        assert!((t - 2.0 * 14.9e9 / (16.0 * 4.8e9)).abs() < 1e-9);
        // Above saturation: 2*B / DDR_max.
        let t = m.t_copy(32, 32);
        assert!((t - 2.0 * 14.9e9 / 90e9).abs() < 1e-9);
    }

    #[test]
    fn c_comp_shares_leftover_mcdram() {
        let m = m();
        // 224 compute threads want 1518 GB/s >> 400: saturated. The 32
        // copy threads are themselves DDR-saturated, so their MCDRAM share
        // is DDR_max, not 32 x S_copy (Eq. 3 feeding Eq. 5).
        let c = m.c_comp(224, 16, 16);
        let copy_share = 90e9;
        assert!((c - (400e9 - copy_share) / 224.0).abs() < 1.0);
        // Below DDR saturation the share really is p x S_copy.
        let c = m.c_comp(224, 8, 8);
        assert!((c - (400e9 - 16.0 * 4.8e9) / 224.0).abs() < 1.0);
        // Few compute threads: unsaturated.
        assert_eq!(m.c_comp(16, 8, 8), 6.78e9);
    }

    #[test]
    fn more_repeats_need_fewer_copy_threads() {
        let m = m();
        let mut prev = usize::MAX;
        for repeats in [1u32, 2, 4, 8, 16, 32, 64] {
            let (p, t) = m.optimal_copy_threads(repeats);
            assert!(t.is_finite());
            assert!(
                p <= prev,
                "optimal copy threads must be non-increasing in repeats: {p} > {prev}"
            );
            prev = p;
        }
    }

    /// The paper's Table 3 model column: repeats → optimal copy threads
    /// {1:10, 2:10, 4:10, 8:8, 16:3, 32:2, 64:1}. Our implementation of
    /// Eqs. 1–5 reproduces the asymptotes exactly (10 at low repeats, 1 at
    /// high) and lands within ±3 everywhere (the paper's 8-repeat point is
    /// a near-tie plateau; see EXPERIMENTS.md).
    #[test]
    fn model_reproduces_table3_shape() {
        let m = m();
        let expect = [
            (1u32, 10usize),
            (2, 10),
            (4, 10),
            (8, 8),
            (16, 3),
            (32, 2),
            (64, 1),
        ];
        for (repeats, want) in expect {
            let (got, _) = m.optimal_copy_threads(repeats);
            assert!(
                (got as i64 - want as i64).unsigned_abs() <= 3,
                "repeats={repeats}: model says {got}, paper Table 3 says {want}"
            );
        }
        assert_eq!(m.optimal_copy_threads(1).0, 10);
        assert_eq!(m.optimal_copy_threads(2).0, 10);
        // High-repeat asymptote is exactly one copy thread.
        assert_eq!(m.optimal_copy_threads(64).0, 1);
        assert_eq!(m.optimal_copy_threads(128).0, 1);
    }

    #[test]
    fn t_total_infeasible_splits() {
        let m = m();
        assert!(m.t_total(0, 1).is_none());
        assert!(m.t_total(128, 1).is_none(), "no compute threads left");
    }

    #[test]
    fn pow2_restriction_is_never_better() {
        let m = m();
        for repeats in [1u32, 4, 16, 64] {
            let (_, free) = m.optimal_copy_threads(repeats);
            let (_, pow2) = m.optimal_copy_threads_pow2(repeats);
            assert!(pow2 >= free - 1e-12);
        }
    }

    /// The paper's symmetric-pools assumption is justified by its own
    /// model: the asymmetric optimum is (near-)symmetric because both
    /// pools move the same number of bytes.
    #[test]
    fn asymmetric_optimum_is_symmetric() {
        let m = m();
        for passes in [1u32, 8, 64] {
            let (p_in, p_out, t_asym) = m.optimal_asymmetric(passes);
            assert_eq!(p_in, p_out, "passes={passes}: optimum {p_in}/{p_out}");
            let (p_sym, t_sym) = m.optimal_copy_threads(passes);
            assert_eq!(p_in, p_sym);
            assert!((t_asym - t_sym).abs() < 1e-9 * t_sym.max(1.0));
        }
        // And a lopsided split is strictly worse than its balanced peer.
        let balanced = m.t_total_asymmetric(8, 8, 4).unwrap();
        let lopsided = m.t_total_asymmetric(2, 14, 4).unwrap();
        assert!(lopsided > balanced);
    }

    #[test]
    fn optimal_split_covers_the_budget() {
        for budget in [3usize, 4, 8, 16, 64, 256] {
            let m = m().with_total_threads(budget);
            for passes in [1u32, 4, 16] {
                let s = m.optimal_split(passes).unwrap();
                assert_eq!(s.total(), budget, "budget {budget}, passes {passes}");
                assert_eq!(s.p_in, s.p_out);
                assert!(s.p_comp >= 1);
                // The split is exactly the symmetric optimum's.
                assert_eq!(s.p_in, m.optimal_copy_threads(passes).0);
            }
        }
    }

    #[test]
    fn optimal_split_needs_three_threads() {
        assert!(m().with_total_threads(2).optimal_split(1).is_none());
        assert!(m().with_total_threads(0).optimal_split(1).is_none());
        let s = m().with_total_threads(3).optimal_split(64).unwrap();
        assert_eq!((s.p_in, s.p_out, s.p_comp), (1, 1, 1));
    }

    #[test]
    fn t_total_is_max_of_copy_and_compute() {
        let m = m();
        let p = 8;
        let t = m.t_total(p, 4).unwrap();
        let tc = m.t_copy(p, p);
        let tm = m.t_comp(m.total_threads - 2 * p, p, p, 4);
        assert_eq!(t, tc.max(tm));
    }
}
