//! A simplified (lazy) funnelsort — the cache-oblivious alternative the
//! paper's §2.1 discusses (Frigo et al.; Brodal/Fagerberg/Vinther's
//! engineered "Lazy Funnelsort").
//!
//! The paper conjectures that cache-oblivious versions of its chunked
//! algorithms "might eventually perform as well without requiring tuning
//! per machine". This module provides the comparison point: a recursive
//! k-way mergesort with `k ≈ n^(1/3)` whose recursion adapts to every
//! cache level without knowing any cache size — in contrast to MLM-sort's
//! explicitly MCDRAM-sized megachunks.
//!
//! Simplifications relative to the engineered original (documented for
//! honesty): merging uses the loser tree from [`crate::multiway`] with a
//! contiguous output buffer rather than a van Emde Boas-laid-out funnel
//! with per-node buffers. The recursion *shape* (and therefore the
//! cache-obliviousness of its locality) is preserved; the constant factors
//! of the true funnel data structure are not.

use crate::multiway::multiway_merge_into;
use crate::serial::introsort;

/// Below this size, fall back to introsort (the base case).
const FUNNEL_BASE: usize = 4096;

/// Sort `data` in place with the simplified funnelsort.
pub fn funnelsort<T: Ord + Copy>(data: &mut [T]) {
    let n = data.len();
    if n <= 1 {
        return;
    }
    let mut scratch = data.to_vec();
    funnelsort_rec(data, &mut scratch);
}

fn funnelsort_rec<T: Ord + Copy>(data: &mut [T], scratch: &mut [T]) {
    let n = data.len();
    if n <= FUNNEL_BASE {
        introsort(data);
        return;
    }
    // k = ceil(n^(1/3)) segments of ~n^(2/3) elements each.
    let k = ((n as f64).cbrt().ceil() as usize).clamp(2, 128);
    let seg = n.div_ceil(k);

    // Recursively sort each segment.
    {
        let mut rest_d: &mut [T] = data;
        let mut rest_s: &mut [T] = scratch;
        while !rest_d.is_empty() {
            let take = seg.min(rest_d.len());
            let (d, dt) = rest_d.split_at_mut(take);
            let (s, st) = rest_s.split_at_mut(take);
            funnelsort_rec(d, s);
            rest_d = dt;
            rest_s = st;
        }
    }

    // k-way merge the sorted segments through the scratch buffer.
    {
        let runs: Vec<&[T]> = data.chunks(seg).collect();
        multiway_merge_into(&runs, scratch);
    }
    data.copy_from_slice(scratch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::is_sorted;

    fn check(mut v: Vec<i64>) {
        let mut expect = v.clone();
        expect.sort_unstable();
        funnelsort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_trivial_inputs() {
        check(vec![]);
        check(vec![1]);
        check(vec![2, 1]);
        check(vec![3, 1, 2]);
    }

    #[test]
    fn sorts_base_case_sizes() {
        check((0..32).rev().collect());
        check((0..FUNNEL_BASE as i64).rev().collect());
        check((0..FUNNEL_BASE as i64 + 1).rev().collect());
    }

    #[test]
    fn sorts_large_random() {
        let mut state = 777u64;
        let v: Vec<i64> = (0..200_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 13) as i64
            })
            .collect();
        check(v);
    }

    #[test]
    fn sorts_structured_inputs() {
        let n = 100_000i64;
        check((0..n).collect());
        check((0..n).rev().collect());
        check((0..n).map(|i| i % 17).collect());
        check(vec![42; 50_000]);
    }

    #[test]
    fn recursion_uses_cube_root_fanin() {
        // Indirect check: a 10^6-element sort must complete and be correct
        // (k ~ 100, segments ~ 10^4, one further recursion level).
        let mut v: Vec<i64> = (0..1_000_000).rev().collect();
        funnelsort(&mut v);
        assert!(is_sorted(&v));
        assert_eq!(v[0], 0);
        assert_eq!(v[999_999], 999_999);
    }
}
