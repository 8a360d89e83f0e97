//! Max–min-fair bandwidth arbitration ("water-filling") with per-flow caps.
//!
//! Every active op in the simulator is a *flow* progressing at some rate of
//! "logical bytes" per second. A flow consumes capacity on one or more
//! *resources* (the DDR bus, the MCDRAM bus) in fixed proportion to its
//! logical rate: a DDR→MCDRAM copy consumes 1 byte of DDR bandwidth and
//! 1 byte of MCDRAM bandwidth per logical byte moved; a cache-mode streaming
//! read with hit fraction `h` consumes `1-h` DDR bytes and `1` MCDRAM byte
//! per logical byte, and so on. Each flow also has an intrinsic rate cap
//! (the paper's per-thread rates `S_copy`, `S_comp`).
//!
//! [`allocate_rates`] computes the max–min-fair allocation by progressive
//! filling: the rate of every unfrozen flow is raised uniformly until either
//! a flow hits its cap (that flow freezes) or a resource saturates (every
//! flow using that resource freezes). This generalizes the closed-form
//! saturation conditionals of the paper's Equations 3 and 5 to arbitrary
//! mixes of flows.

/// Index of a resource in the capacity vector passed to [`allocate_rates`].
pub type ResourceId = usize;

/// A flow's demand profile: per logical byte, how many bytes of each
/// resource it consumes, plus its intrinsic rate cap.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowSpec {
    /// `(resource, coefficient)` pairs; coefficients must be positive and a
    /// resource may appear at most once.
    pub demand: Vec<(ResourceId, f64)>,
    /// Maximum logical rate of this flow in bytes/s (`f64::INFINITY` for
    /// uncapped flows).
    pub cap: f64,
}

impl FlowSpec {
    /// Flow consuming `coeff` bytes of a single resource per logical byte.
    pub fn single(resource: ResourceId, coeff: f64, cap: f64) -> Self {
        FlowSpec {
            demand: vec![(resource, coeff)],
            cap,
        }
    }
}

/// Compute the max–min-fair logical rates for `flows` over resources with
/// the given `capacities` (bytes/s).
///
/// Returns one rate per flow. Rates satisfy:
/// - `0 <= rate[i] <= flows[i].cap`
/// - for every resource `r`: `sum_i rate[i] * coeff[i][r] <= capacities[r]`
///   (within floating-point tolerance)
/// - max–min fairness: no flow's rate can be increased without decreasing
///   the rate of a flow that is at most as fast.
///
/// Flows with an empty demand vector are limited only by their cap. A flow
/// with cap `0` gets rate `0` (it will never complete; callers avoid this).
///
/// This is [`Arbiter::allocate_flows`] on a fresh arbiter; callers that
/// arbitrate again and again (`mlm-serve`'s re-tunes) keep one arbiter and
/// an output vector to allocate nothing per call, and hot loops (the
/// engine's rate epochs) use [`Arbiter::allocate`] directly, to arbitrate
/// whole classes of identical flows as one entry.
///
/// # Panics
/// Panics if a flow references a resource index out of range or has a
/// non-positive demand coefficient, or if a capacity is non-positive —
/// these are programming errors in the engine, not user errors.
pub fn allocate_rates(capacities: &[f64], flows: &[FlowSpec]) -> Vec<f64> {
    let mut out = Vec::new();
    Arbiter::new().allocate_flows(capacities, flows, &mut out);
    out
}

/// Reusable max–min-fair ("water-filling") rate allocator over flow
/// *classes*.
///
/// Each item the caller hands in is a `(spec, count)` pair: `count ≥ 1`
/// identical flows sharing one [`FlowSpec`], charged `count × coeff` on
/// every resource they use. Max–min fairness gives identical flows
/// identical rates (they freeze in the same filling round, by the same
/// test), so one rate per class is the whole answer, and a saturated
/// epoch costs O(classes) instead of O(flows). [`allocate_rates`] is the
/// case where every count is 1; since `1.0 × coeff == coeff` exactly, it
/// computes what a per-flow loop would, bit for bit.
///
/// Scratch vectors are kept between calls (no per-call heap allocation
/// once warm), and specs are *borrowed*, so callers holding them in an
/// arena never clone a [`FlowSpec`] to arbitrate over them.
#[derive(Debug, Default)]
pub struct Arbiter {
    frozen: Vec<bool>,
    agg: Vec<f64>,
    remaining: Vec<f64>,
    saturated: Vec<bool>,
}

impl Arbiter {
    /// A fresh arbiter with empty scratch state.
    pub fn new() -> Self {
        Arbiter::default()
    }

    /// [`allocate_rates`] into `out` (cleared first), reusing this
    /// arbiter's scratch: every flow its own class of one, the inputs
    /// validated with the hard panics documented there.
    pub fn allocate_flows(&mut self, capacities: &[f64], flows: &[FlowSpec], out: &mut Vec<f64>) {
        for (r, &c) in capacities.iter().enumerate() {
            assert!(
                c > 0.0 && c.is_finite(),
                "resource {r} has non-positive capacity {c}"
            );
        }
        for (i, f) in flows.iter().enumerate() {
            assert!(f.cap >= 0.0, "flow {i} has negative cap");
            for &(r, coeff) in &f.demand {
                assert!(
                    r < capacities.len(),
                    "flow {i} references unknown resource {r}"
                );
                assert!(
                    coeff > 0.0 && coeff.is_finite(),
                    "flow {i} has bad coefficient {coeff}"
                );
            }
        }
        self.allocate(capacities, flows.iter().map(|f| (f, 1)), out);
    }

    /// Compute the max–min-fair allocation for the flow classes yielded by
    /// `classes`, writing one rate per class — the rate of each of its
    /// members — into `out` (cleared first).
    ///
    /// The iterator is walked once to size `out`, then twice per filling
    /// round (sum the unfrozen demand, then freeze), hence `Clone`.
    ///
    /// Inputs are validated with debug assertions only;
    /// [`Self::allocate_flows`] performs the hard-panicking validation
    /// documented on [`allocate_rates`].
    pub fn allocate<'a, I>(&mut self, capacities: &[f64], classes: I, out: &mut Vec<f64>)
    where
        I: Iterator<Item = (&'a FlowSpec, usize)> + Clone,
    {
        out.clear();
        out.extend(classes.clone().map(|_| 0.0f64));
        let n = out.len();
        if n == 0 {
            return;
        }

        self.frozen.clear();
        self.frozen.resize(n, false);
        self.remaining.clear();
        self.remaining.extend_from_slice(capacities);
        let frozen = &mut self.frozen;
        let remaining = &mut self.remaining;
        // Current common fill level for all unfrozen flows.
        let mut level = 0.0f64;

        loop {
            // Aggregate demand coefficient of unfrozen flows on each
            // resource, and how far the level can rise before some
            // unfrozen flow hits its cap.
            self.agg.clear();
            self.agg.resize(capacities.len(), 0.0);
            let agg = &mut self.agg;
            let mut unfrozen = 0usize;
            let mut dl_cap = f64::INFINITY;
            for (i, (f, count)) in classes.clone().enumerate() {
                if frozen[i] {
                    continue;
                }
                unfrozen += 1;
                let count = count as f64;
                for &(r, coeff) in &f.demand {
                    debug_assert!(r < capacities.len(), "flow {i} uses unknown resource {r}");
                    debug_assert!(coeff > 0.0 && coeff.is_finite());
                    agg[r] += count * coeff;
                }
                dl_cap = dl_cap.min(f.cap - level);
            }
            if unfrozen == 0 {
                break;
            }

            // ... and before a resource saturates?
            let mut dl_resource = f64::INFINITY;
            for (r, &a) in agg.iter().enumerate() {
                if a > 0.0 {
                    dl_resource = dl_resource.min(remaining[r] / a);
                }
            }

            let dl = dl_resource.min(dl_cap);
            if !dl.is_finite() {
                // Unfrozen flows exist with no resource usage and infinite
                // caps; they are unconstrained. Give them an arbitrary huge
                // rate.
                for (i, (f, _)) in classes.clone().enumerate() {
                    if !frozen[i] {
                        out[i] = f.cap.min(f64::MAX);
                        frozen[i] = true;
                    }
                }
                break;
            }

            level += dl.max(0.0);

            // Charge the capacity consumed by this rise, and note which
            // resources it saturated.
            self.saturated.clear();
            for (r, &a) in agg.iter().enumerate() {
                remaining[r] -= a * dl;
                self.saturated
                    .push(a > 0.0 && remaining[r] <= 1e-9 * capacities[r]);
            }

            // Freeze flows that hit their cap at the new level, then flows
            // on any saturated resource (a flow that is both gets its cap).
            let mut any_frozen = false;
            for (i, (f, _)) in classes.clone().enumerate() {
                if frozen[i] {
                    continue;
                }
                if level >= f.cap - 1e-12 * f.cap.max(1.0) {
                    out[i] = f.cap;
                } else if f.demand.iter().any(|&(r, _)| self.saturated[r]) {
                    out[i] = level;
                } else {
                    continue;
                }
                frozen[i] = true;
                any_frozen = true;
            }
            if !any_frozen {
                // Defensive: should be impossible since dl froze something,
                // but guarantee termination against floating-point corner
                // cases.
                for i in 0..n {
                    if !frozen[i] {
                        out[i] = level;
                        frozen[i] = true;
                    }
                }
                break;
            }
        }
    }
}

/// Convenience: aggregate throughput `sum(rate[i])` of an allocation.
pub fn aggregate(rates: &[f64]) -> f64 {
    rates.iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    const DDR: ResourceId = 0;
    const MCD: ResourceId = 1;

    fn caps() -> Vec<f64> {
        vec![90e9, 400e9]
    }

    #[test]
    fn empty_flow_set() {
        assert!(allocate_rates(&caps(), &[]).is_empty());
    }

    #[test]
    fn single_capped_flow_gets_its_cap() {
        let flows = vec![FlowSpec {
            demand: vec![(DDR, 1.0), (MCD, 1.0)],
            cap: 4.8e9,
        }];
        let r = allocate_rates(&caps(), &flows);
        assert!((r[0] - 4.8e9).abs() < 1.0);
    }

    #[test]
    fn uncapped_flow_limited_by_bottleneck_resource() {
        let flows = vec![FlowSpec {
            demand: vec![(DDR, 1.0), (MCD, 1.0)],
            cap: f64::INFINITY,
        }];
        let r = allocate_rates(&caps(), &flows);
        assert!((r[0] - 90e9).abs() < 1.0, "DDR is the bottleneck");
    }

    /// Reproduces the paper's Eq. 3: below DDR saturation each copy thread
    /// contributes S_copy; past saturation they share DDR_max.
    #[test]
    fn copy_threads_saturate_ddr_like_eq3() {
        let s_copy = 4.8e9;
        for p in [1usize, 4, 8, 16, 18, 19, 32, 64] {
            let flows: Vec<FlowSpec> = (0..p)
                .map(|_| FlowSpec {
                    demand: vec![(DDR, 1.0), (MCD, 1.0)],
                    cap: s_copy,
                })
                .collect();
            let r = allocate_rates(&caps(), &flows);
            let agg = aggregate(&r);
            let expect = (p as f64 * s_copy).min(90e9);
            assert!(
                (agg - expect).abs() < 1e3,
                "p={p}: aggregate {agg} != expected {expect}"
            );
            // Fairness: all flows identical => all rates identical.
            for w in r.windows(2) {
                assert!((w[0] - w[1]).abs() < 1e-3);
            }
        }
    }

    /// Reproduces the paper's Eq. 5: compute threads get MCDRAM bandwidth
    /// left over after the copy threads take their share.
    #[test]
    fn compute_threads_share_leftover_mcdram_like_eq5() {
        let s_copy = 4.8e9;
        let s_comp = 6.78e9;
        let p_copy = 8usize; // 8 in + 8 out in paper terms => use 16 total
        let p_comp = 64usize;
        let mut flows: Vec<FlowSpec> = Vec::new();
        for _ in 0..(2 * p_copy) {
            flows.push(FlowSpec {
                demand: vec![(DDR, 1.0), (MCD, 1.0)],
                cap: s_copy,
            });
        }
        for _ in 0..p_comp {
            flows.push(FlowSpec {
                demand: vec![(MCD, 1.0)],
                cap: s_comp,
            });
        }
        let r = allocate_rates(&caps(), &flows);
        let copy_agg: f64 = r[..2 * p_copy].iter().sum();
        let comp_agg: f64 = r[2 * p_copy..].iter().sum();
        // 16 copy threads demand 76.8 GB/s < DDR_max, so they are uncapped
        // by resources; they take 76.8 of MCDRAM too.
        assert!((copy_agg - 76.8e9).abs() < 1e3);
        // 64 compute threads want 433.9 GB/s but only 400-76.8=323.2 remains.
        assert!(
            (comp_agg - (400e9 - 76.8e9)).abs() < 1e6,
            "comp_agg={comp_agg}"
        );
    }

    #[test]
    fn heterogeneous_caps_are_max_min_fair() {
        // Two flows on one resource of capacity 10: caps 2 and infinity.
        // Max-min: flow0 = 2, flow1 = 8.
        let flows = vec![
            FlowSpec::single(0, 1.0, 2.0),
            FlowSpec::single(0, 1.0, f64::INFINITY),
        ];
        let r = allocate_rates(&[10.0], &flows);
        assert!((r[0] - 2.0).abs() < 1e-9);
        assert!((r[1] - 8.0).abs() < 1e-9);
    }

    #[test]
    fn coefficient_weighting_charges_resources_proportionally() {
        // A flow with coefficient 2 on a resource of capacity 10 can run at
        // most 5 logical bytes/s.
        let flows = vec![FlowSpec::single(0, 2.0, f64::INFINITY)];
        let r = allocate_rates(&[10.0], &flows);
        assert!((r[0] - 5.0).abs() < 1e-9);
    }

    #[test]
    fn demandless_flow_gets_its_cap() {
        let flows = vec![FlowSpec {
            demand: vec![],
            cap: 7.0,
        }];
        let r = allocate_rates(&[10.0], &flows);
        assert_eq!(r[0], 7.0);
    }

    #[test]
    fn zero_cap_flow_gets_zero_without_blocking_others() {
        let flows = vec![
            FlowSpec::single(0, 1.0, 0.0),
            FlowSpec::single(0, 1.0, f64::INFINITY),
        ];
        let r = allocate_rates(&[10.0], &flows);
        assert_eq!(r[0], 0.0);
        assert!((r[1] - 10.0).abs() < 1e-9);
    }

    #[test]
    fn multi_bottleneck_cascade() {
        // Flow A uses resource 0 only; flows B, C use both 0 and 1.
        // Capacities: r0 = 30, r1 = 10.
        // Progressive filling: all rise to 5 (r1 saturates: 5+5=10), B and C
        // freeze; A continues to 30 - 10 = 20.
        let flows = vec![
            FlowSpec::single(0, 1.0, f64::INFINITY),
            FlowSpec {
                demand: vec![(0, 1.0), (1, 1.0)],
                cap: f64::INFINITY,
            },
            FlowSpec {
                demand: vec![(0, 1.0), (1, 1.0)],
                cap: f64::INFINITY,
            },
        ];
        let r = allocate_rates(&[30.0, 10.0], &flows);
        assert!((r[1] - 5.0).abs() < 1e-9);
        assert!((r[2] - 5.0).abs() < 1e-9);
        assert!((r[0] - 20.0).abs() < 1e-9);
    }

    #[test]
    fn arbiter_reuse_matches_fresh_allocation() {
        // One arbiter instance reused across differently-sized flow sets
        // must produce exactly what a fresh allocate_rates call produces.
        let mut arb = Arbiter::new();
        let mut out = Vec::new();
        let sets: Vec<Vec<FlowSpec>> = vec![
            (0..7)
                .map(|i| FlowSpec {
                    demand: vec![(DDR, 1.0), (MCD, 1.0)],
                    cap: 4.8e9 + i as f64,
                })
                .collect(),
            vec![FlowSpec::single(MCD, 2.0, f64::INFINITY)],
            vec![],
            (0..40).map(|_| FlowSpec::single(DDR, 1.0, 4.8e9)).collect(),
        ];
        let mut reused = Arbiter::new();
        let mut reused_out = Vec::new();
        for flows in &sets {
            arb.allocate(&caps(), flows.iter().map(|f| (f, 1)), &mut out);
            let fresh = allocate_rates(&caps(), flows);
            assert_eq!(out, fresh);
            reused.allocate_flows(&caps(), flows, &mut reused_out);
            assert_eq!(reused_out, fresh);
        }
    }

    #[test]
    #[should_panic(expected = "unknown resource")]
    fn panics_on_unknown_resource() {
        let flows = vec![FlowSpec::single(3, 1.0, 1.0)];
        allocate_rates(&[10.0], &flows);
    }

    #[test]
    #[should_panic(expected = "non-positive capacity")]
    fn panics_on_bad_capacity() {
        allocate_rates(&[0.0], &[]);
    }

    #[test]
    #[should_panic(expected = "bad coefficient")]
    fn panics_on_bad_coefficient() {
        let flows = vec![FlowSpec::single(0, -1.0, 1.0)];
        allocate_rates(&[10.0], &flows);
    }
}
