//! Property-based tests for the simulator substrate.

use knl_sim::bandwidth::{allocate_rates, Arbiter, FlowSpec};
use knl_sim::cache::{CacheTraffic, DirectMappedCache};
use knl_sim::machine::{MachineConfig, MemMode};
use knl_sim::ops::{OpKind, Place, Program};
use knl_sim::Simulator;
use proptest::prelude::*;

fn arb_flow(resources: usize) -> impl Strategy<Value = FlowSpec> {
    let demand = proptest::collection::vec((0..resources, 0.1f64..4.0), 0..=resources.min(3))
        .prop_map(|mut pairs| {
            // A resource may appear at most once per flow.
            pairs.sort_by_key(|&(r, _)| r);
            pairs.dedup_by_key(|&mut (r, _)| r);
            pairs
        });
    let cap = prop_oneof![(0.5f64..100.0).boxed(), Just(f64::INFINITY).boxed(),];
    (demand, cap).prop_map(|(demand, cap)| FlowSpec { demand, cap })
}

/// Up to six distinct two-resource specs drawn from `coeffs` and four
/// caps, each with a member count in 1..=64.
fn arb_classes(coeffs: &'static [f64]) -> impl Strategy<Value = Vec<(FlowSpec, usize)>> {
    let spec = (0..coeffs.len(), 0..coeffs.len(), 0..3usize, 0..4usize).prop_map(
        move |(a, b, used, cap)| {
            let demand = match used {
                0 => vec![(0, coeffs[a])],
                1 => vec![(1, coeffs[b])],
                _ => vec![(0, coeffs[a]), (1, coeffs[b])],
            };
            let cap = [0.5, 1.0, 4.8, f64::INFINITY][cap];
            FlowSpec { demand, cap }
        },
    );
    proptest::collection::vec((spec, 1usize..=64), 1..=6).prop_map(|drawn| {
        let mut distinct: Vec<(FlowSpec, usize)> = Vec::new();
        for c in drawn {
            if distinct.iter().all(|d| d.0 != c.0) {
                distinct.push(c);
            }
        }
        distinct
    })
}

/// Arbitrate `classes` as weighted entries and as the expanded per-flow
/// list; return `(class rate, member rates)` per class.
fn class_vs_flow_rates(caps: &[f64], classes: &[(FlowSpec, usize)]) -> Vec<(f64, Vec<f64>)> {
    let mut class_rates = Vec::new();
    Arbiter::new().allocate(caps, classes.iter().map(|(f, n)| (f, *n)), &mut class_rates);
    let flows: Vec<FlowSpec> = classes
        .iter()
        .flat_map(|(f, n)| std::iter::repeat_n(f.clone(), *n))
        .collect();
    let mut flow_rates = allocate_rates(caps, &flows).into_iter();
    classes
        .iter()
        .zip(class_rates)
        .map(|((_, n), r)| (r, flow_rates.by_ref().take(*n).collect()))
        .collect()
}

proptest! {
    /// Arbitrating a class of `n` identical flows as one entry weighted
    /// `n` gives each member exactly the rate the per-flow arbitration
    /// does, when the coefficients are dyadic (every partial sum exact).
    #[test]
    fn class_weighted_allocation_is_bit_equal_on_dyadic_coefficients(
        caps in proptest::collection::vec(1.0f64..200.0, 2),
        classes in arb_classes(&[0.25, 0.5, 1.0, 2.0]),
    ) {
        for (class_rate, members) in class_vs_flow_rates(&caps, &classes) {
            for r in members {
                prop_assert_eq!(r.to_bits(), class_rate.to_bits(), "{} vs {}", r, class_rate);
            }
        }
    }

    /// With non-dyadic coefficients `n × coeff` and an `n`-term sum may
    /// round differently; the rates still agree to 1e-12 relative.
    #[test]
    fn class_weighted_allocation_matches_on_other_coefficients(
        caps in proptest::collection::vec(1.0f64..200.0, 2),
        classes in arb_classes(&[1.0 / 3.0, 2.0 / 3.0, 0.1, 1.0]),
    ) {
        for (class_rate, members) in class_vs_flow_rates(&caps, &classes) {
            for r in members {
                prop_assert!(
                    (r - class_rate).abs() <= 1e-12 * r.abs(),
                    "{} vs {}", r, class_rate
                );
            }
        }
    }

    /// Feasibility: the allocation never oversubscribes a resource and
    /// never exceeds a flow's cap.
    #[test]
    fn allocation_is_feasible(
        caps in proptest::collection::vec(1.0f64..1000.0, 1..4),
        flows in proptest::collection::vec(arb_flow(3), 0..20),
    ) {
        let flows: Vec<FlowSpec> = flows
            .into_iter()
            .map(|mut f| {
                f.demand.retain(|&(r, _)| r < caps.len());
                f
            })
            .collect();
        let rates = allocate_rates(&caps, &flows);
        prop_assert_eq!(rates.len(), flows.len());
        for (f, &r) in flows.iter().zip(&rates) {
            prop_assert!(r >= 0.0);
            prop_assert!(r <= f.cap * (1.0 + 1e-9) || f.cap.is_infinite());
        }
        for (res, &c) in caps.iter().enumerate() {
            let used: f64 = flows
                .iter()
                .zip(&rates)
                .map(|(f, &r)| {
                    f.demand
                        .iter()
                        .find(|&&(fr, _)| fr == res)
                        .map_or(0.0, |&(_, coeff)| r * coeff)
                })
                .sum();
            prop_assert!(used <= c * (1.0 + 1e-6), "resource {res}: used {used} > cap {c}");
        }
    }

    /// Work conservation: if every flow got less than its cap, at least one
    /// resource it uses must be (nearly) saturated.
    #[test]
    fn allocation_is_work_conserving(
        caps in proptest::collection::vec(1.0f64..1000.0, 1..3),
        flows in proptest::collection::vec(arb_flow(2), 1..12),
    ) {
        let flows: Vec<FlowSpec> = flows
            .into_iter()
            .map(|mut f| {
                f.demand.retain(|&(r, _)| r < caps.len());
                f
            })
            .collect();
        let rates = allocate_rates(&caps, &flows);
        let mut used = vec![0.0f64; caps.len()];
        for (f, &r) in flows.iter().zip(&rates) {
            for &(res, coeff) in &f.demand {
                used[res] += r * coeff;
            }
        }
        for (f, &r) in flows.iter().zip(&rates) {
            if f.demand.is_empty() {
                continue;
            }
            let at_cap = f.cap.is_finite() && r >= f.cap * (1.0 - 1e-6);
            let bottlenecked = f
                .demand
                .iter()
                .any(|&(res, _)| used[res] >= caps[res] * (1.0 - 1e-6));
            prop_assert!(
                at_cap || bottlenecked,
                "flow neither capped nor bottlenecked: rate {r}, cap {}", f.cap
            );
        }
    }

    /// Identical flows receive identical rates (fairness symmetry).
    #[test]
    fn identical_flows_get_identical_rates(
        n in 1usize..30,
        cap in 0.5f64..50.0,
        resource_cap in 1.0f64..500.0,
    ) {
        let flows: Vec<FlowSpec> =
            (0..n).map(|_| FlowSpec::single(0, 1.0, cap)).collect();
        let rates = allocate_rates(&[resource_cap], &flows);
        for w in rates.windows(2) {
            prop_assert!((w[0] - w[1]).abs() < 1e-9);
        }
        let agg: f64 = rates.iter().sum();
        let expect = (n as f64 * cap).min(resource_cap);
        prop_assert!((agg - expect).abs() < 1e-6 * expect.max(1.0));
    }

    /// Cache conservation, per access and in total: a read's bytes are
    /// hits or misses and every missed byte is filled; a write lands in
    /// MCDRAM whole, with no DDR read or fill; writebacks are whole
    /// segments; the stats' hits and misses add up to the bytes accessed.
    #[test]
    fn cache_byte_conservation(
        accesses in proptest::collection::vec(
            (0u64..1 << 16, 1u64..1 << 14, any::<bool>()), 1..60),
        sets in 1u64..32,
    ) {
        let seg = 1024;
        let mut c = DirectMappedCache::new(sets * seg, seg);
        for (addr, bytes, write) in accesses {
            let t = c.access(addr, bytes, write);
            if write {
                prop_assert_eq!(t.hit_bytes, bytes);
                prop_assert_eq!((t.miss_bytes, t.fill_bytes), (0, 0));
            } else {
                prop_assert_eq!(t.hit_bytes + t.miss_bytes, bytes);
                prop_assert_eq!(t.fill_bytes, t.miss_bytes);
            }
            prop_assert_eq!(t.writeback_bytes % seg, 0);
        }
        let s = c.stats();
        prop_assert_eq!(s.hit_bytes + s.miss_bytes, s.accessed_bytes);
        let hr = s.hit_rate();
        prop_assert!((0.0..=1.0).contains(&hr));
    }

    /// Direct mapping only sees an address modulo the cache size: shifting
    /// every access and every query by a multiple of `sets x segment`
    /// changes no access's traffic and no residency answer.
    #[test]
    fn cache_is_invariant_under_whole_cache_shifts(
        accesses in proptest::collection::vec(
            (0u64..1 << 12, 0u64..1 << 11, any::<bool>()), 1..40),
        probes in proptest::collection::vec((0u64..1 << 12, 0u64..1 << 10), 1..8),
        sets in 1u64..12,
        seg in 1u64..100,
        laps in 1u64..1000,
    ) {
        let shift = laps * sets * seg;
        let mut base = DirectMappedCache::new(sets * seg, seg);
        let mut moved = DirectMappedCache::new(sets * seg, seg);
        for (addr, bytes, write) in accesses {
            let t = base.access(addr, bytes, write);
            prop_assert_eq!(moved.access(addr + shift, bytes, write), t);
            for &(a, b) in probes.iter().chain([(addr, bytes)].iter()) {
                prop_assert_eq!(moved.is_resident(a + shift, b), base.is_resident(a, b));
            }
        }
        prop_assert_eq!(moved.stats(), base.stats());
    }

    /// Cutting an access at a segment boundary into two back-to-back
    /// accesses moves the same bytes, counts the same stats and leaves
    /// the same segments resident: the cut splits a run that the whole
    /// access would have kept in one piece.
    #[test]
    fn cache_access_split_at_a_segment_boundary_is_unchanged(
        accesses in proptest::collection::vec(
            (0u64..1 << 12, 1u64..1 << 11, any::<bool>(), any::<u64>()), 1..40),
        probes in proptest::collection::vec((0u64..1 << 12, 0u64..1 << 10), 1..8),
        sets in 1u64..12,
        seg in 1u64..100,
    ) {
        let mut whole = DirectMappedCache::new(sets * seg, seg);
        let mut split = DirectMappedCache::new(sets * seg, seg);
        for (addr, bytes, write, pick) in accesses {
            let t = whole.access(addr, bytes, write);
            // Segment boundaries strictly inside the access: `seg * m` for
            // `m` in `lo..=hi`. With none, the second access is empty.
            let (lo, hi) = (addr / seg + 1, (addr + bytes - 1) / seg);
            let cut = if lo <= hi { (lo + pick % (hi - lo + 1)) * seg } else { addr + bytes };
            let a = split.access(addr, cut - addr, write);
            let b = split.access(cut, addr + bytes - cut, write);
            let sum = CacheTraffic {
                hit_bytes: a.hit_bytes + b.hit_bytes,
                miss_bytes: a.miss_bytes + b.miss_bytes,
                fill_bytes: a.fill_bytes + b.fill_bytes,
                writeback_bytes: a.writeback_bytes + b.writeback_bytes,
                miss_count: a.miss_count + b.miss_count,
            };
            prop_assert_eq!(sum, t);
            prop_assert_eq!(split.stats(), whole.stats());
            for &(a, b) in probes.iter().chain([(addr, bytes)].iter()) {
                prop_assert_eq!(split.is_resident(a, b), whole.is_resident(a, b));
            }
        }
    }

    /// Residency: any range just accessed is resident afterwards if it fits
    /// entirely in the cache without self-aliasing.
    #[test]
    fn recently_accessed_small_range_is_resident(
        start_seg in 0u64..128,
        len_segs in 1u64..8,
    ) {
        let seg = 512;
        let sets = 8u64;
        prop_assume!(len_segs <= sets);
        // A contiguous range of <= sets segments never self-aliases.
        let mut c = DirectMappedCache::new(sets * seg, seg);
        let addr = start_seg * seg;
        let bytes = len_segs * seg;
        c.access(addr, bytes, false);
        prop_assert!(c.is_resident(addr, bytes));
    }

    /// Engine sanity: a batch of independent copies always finishes, the
    /// makespan is at least the best-case bound (all threads at full cap,
    /// no bus limits) and at most the serial bound.
    #[test]
    fn engine_makespan_within_bounds(
        n_threads in 1usize..12,
        gb_each in 1u64..8,
    ) {
        let cfg = MachineConfig::tiny(MemMode::Flat);
        let bytes = gb_each * 100_000_000; // 0.1 GB units keep runtimes tiny
        let mut p = Program::new(n_threads);
        for t in 0..n_threads {
            p.push(t, OpKind::copy(Place::Ddr, Place::Mcdram, bytes, cfg.per_thread_copy_bw), &[]);
        }
        let r = Simulator::new(cfg.clone()).run(&p).unwrap();
        let per_thread = bytes as f64 / cfg.per_thread_copy_bw;
        let serial = per_thread * n_threads as f64;
        prop_assert!(r.makespan >= per_thread * (1.0 - 1e-9));
        prop_assert!(r.makespan <= serial * (1.0 + 1e-9));
        // Traffic accounting is exact.
        prop_assert_eq!(r.traffic_on(knl_sim::MemLevel::Ddr).read, bytes * n_threads as u64);
        prop_assert_eq!(r.traffic_on(knl_sim::MemLevel::Mcdram).written, bytes * n_threads as u64);
    }

    /// Determinism: running the same program twice yields identical reports.
    #[test]
    fn engine_is_deterministic(
        n_threads in 1usize..6,
        chunks in 1usize..4,
    ) {
        let cfg = MachineConfig::tiny(MemMode::Cache);
        let mut p = Program::new(n_threads);
        let mut deps = Vec::new();
        for c in 0..chunks {
            let mut step = Vec::new();
            for t in 0..n_threads {
                step.push(p.push(
                    t,
                    OpKind::Stream {
                        accesses: vec![knl_sim::Access::read(
                            Place::CachedDdr { addr: (c * n_threads + t) as u64 * (8 << 20) },
                            4 << 20,
                        )],
                        rate_cap: cfg.per_thread_compute_bw,
                    },
                    &deps,
                ));
            }
            deps = p.barrier(0..n_threads, &step);
        }
        let sim = Simulator::new(cfg);
        let a = sim.run(&p).unwrap();
        let b = sim.run(&p).unwrap();
        prop_assert_eq!(a, b);
    }
}
