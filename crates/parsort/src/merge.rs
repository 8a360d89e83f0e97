//! Two-way merges: serial and parallel (rank-splitting).
//!
//! The parallel merge divides the *output* into near-equal parts and finds
//! the matching split point in each input with a dual binary search — the
//! same co-ranking technique MCSTL (the GNU parallel mode) uses. Each part
//! is then merged serially and independently.

use crate::pool::{split_range, WorkPool};

/// Merge sorted `a` and `b` into `out`, taking from `a` on ties.
///
/// Branch-free: while both sides have elements, each step loads both
/// heads, selects one, and advances `i` or `j` by the comparison's
/// outcome, so random keys cost no branch mispredictions. The side left
/// over is copied in one block.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn merge_into<T: Ord + Copy>(a: &[T], b: &[T], out: &mut [T]) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        let take_a = x <= y;
        out[i + j] = if take_a { x } else { y };
        i += usize::from(take_a);
        j += usize::from(!take_a);
    }
    let (a_tail, b_tail) = out[i + j..].split_at_mut(a.len() - i);
    a_tail.copy_from_slice(&a[i..]);
    b_tail.copy_from_slice(&b[j..]);
}

/// Find the *co-rank*: the pair `(i, j)` with `i + j == k`, `i <= a.len()`,
/// `j <= b.len()` such that merging the first `i` elements of `a` with the
/// first `j` of `b` yields the first `k` elements of `merge(a, b)`.
///
/// Standard dual binary search; O(log(min(k, |a|, |b|))).
pub fn co_rank<T: Ord>(k: usize, a: &[T], b: &[T]) -> (usize, usize) {
    debug_assert!(k <= a.len() + b.len());
    let mut lo = k.saturating_sub(b.len());
    let mut hi = k.min(a.len());
    while lo < hi {
        let i = lo + (hi - lo) / 2;
        let j = k - i;
        // Invariants: i < hi <= a.len(), j >= 1 when we inspect b[j - 1].
        if j > 0 && a[i] < b[j - 1] {
            // Too few from `a`.
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    (lo, k - lo)
}

/// Merge sorted `a` and `b` into `out` using every thread of `pool`.
///
/// # Panics
/// Panics if `out.len() != a.len() + b.len()`.
pub fn parallel_merge_into<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    a: &[T],
    b: &[T],
    out: &mut [T],
) {
    assert_eq!(out.len(), a.len() + b.len(), "output size mismatch");
    let total = out.len();
    if total == 0 {
        return;
    }
    let parts = pool.threads().min(total);
    if parts == 1 {
        merge_into(a, b, out);
        return;
    }

    // Pre-compute the co-rank at each output split point.
    let mut splits = Vec::with_capacity(parts + 1);
    for p in 0..parts {
        let (start, _) = split_range(total, parts, p);
        splits.push(co_rank(start, a, b));
    }
    splits.push((a.len(), b.len()));

    let mut out_parts: Vec<&mut [T]> = Vec::with_capacity(parts);
    let mut rest = out;
    for p in 0..parts {
        let (start, end) = split_range(total, parts, p);
        let (head, tail) = rest.split_at_mut(end - start);
        out_parts.push(head);
        rest = tail;
    }

    pool.scoped(out_parts.into_iter().enumerate().map(|(p, out_part)| {
        let (ai, bi) = splits[p];
        let (aj, bj) = splits[p + 1];
        let a_part = &a[ai..aj];
        let b_part = &b[bi..bj];
        move || merge_into(a_part, b_part, out_part)
    }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{comparisons, keyed, payload, runs_of, seeded_runs, Keyed};
    use crate::serial::is_sorted;

    #[test]
    fn merges_basic() {
        let a = [1i64, 3, 5];
        let b = [2i64, 4, 6];
        let mut out = [0i64; 6];
        merge_into(&a, &b, &mut out);
        assert_eq!(out, [1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn merges_empty_sides() {
        let mut out = [0i64; 3];
        merge_into(&[], &[1, 2, 3], &mut out);
        assert_eq!(out, [1, 2, 3]);
        merge_into(&[1, 2, 3], &[], &mut out);
        assert_eq!(out, [1, 2, 3]);
        let mut empty: [i64; 0] = [];
        merge_into(&[], &[], &mut empty);
    }

    #[test]
    fn merge_prefers_a_on_ties() {
        let tagged = |tag| [1, 2].map(|key| Keyed { key, tag });
        let mut out = [Keyed::default(); 4];
        merge_into(&tagged(0), &tagged(1), &mut out);
        assert_eq!(payload(&out), [(1, 0), (1, 1), (2, 0), (2, 1)]);
    }

    #[test]
    fn merge_into_comparison_counts_are_pinned() {
        let count = |runs: &[Vec<Keyed>], first: usize| {
            let mut out = vec![Keyed::default(); runs[0].len() + runs[1].len()];
            comparisons(|| merge_into(&runs[first], &runs[1 - first], &mut out))
        };
        // Disjoint ranges: one comparison per element of the lower run,
        // whichever side it is on, and none for the tail.
        let runs = runs_of(vec![keyed(0..100), keyed(100..150)]);
        assert_eq!((count(&runs, 0), count(&runs, 1)), (100, 100));
        // Perfect interleaving: every element but the last is compared out.
        let runs = runs_of(vec![
            keyed((0..50).map(|i| 2 * i)),
            keyed((0..50).map(|i| 2 * i + 1)),
        ]);
        assert_eq!(count(&runs, 0), 99);
        assert_eq!(count(&seeded_runs(&[1000, 700], 1 << 20, 3), 0), 1695);
        assert_eq!(count(&seeded_runs(&[1000, 700], 4, 3), 0), 1522);
    }

    #[test]
    #[should_panic(expected = "output size mismatch")]
    fn merge_size_mismatch_panics() {
        let mut out = [0i64; 2];
        merge_into(&[1], &[2, 3], &mut out);
    }

    #[test]
    fn co_rank_properties() {
        let a = [1i64, 3, 5, 7, 9];
        let b = [2i64, 4, 6, 8];
        let mut merged = vec![0i64; 9];
        merge_into(&a, &b, &mut merged);
        for k in 0..=merged.len() {
            let (i, j) = co_rank(k, &a, &b);
            assert_eq!(i + j, k);
            // Elements before the split are all <= elements after it.
            let max_before = a[..i].iter().chain(b[..j].iter()).max();
            let min_after = a[i..].iter().chain(b[j..].iter()).min();
            if let (Some(mb), Some(ma)) = (max_before, min_after) {
                assert!(mb <= ma, "k={k}: {mb} > {ma}");
            }
        }
    }

    #[test]
    fn co_rank_with_duplicates() {
        let a = [2i64, 2, 2, 2];
        let b = [2i64, 2, 2];
        for k in 0..=7 {
            let (i, j) = co_rank(k, &a, &b);
            assert_eq!(i + j, k);
            assert!(i <= 4 && j <= 3);
        }
    }

    #[test]
    fn co_rank_extremes() {
        let a = [1i64, 2];
        let b = [3i64, 4];
        assert_eq!(co_rank(0, &a, &b), (0, 0));
        assert_eq!(co_rank(4, &a, &b), (2, 2));
        assert_eq!(co_rank(2, &a, &b), (2, 0));
    }

    #[test]
    fn parallel_merge_matches_serial() {
        let pool = WorkPool::new(4);
        let mut state = 99u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as i64
        };
        for (na, nb) in [
            (0, 0),
            (1, 0),
            (0, 1),
            (100, 1),
            (1, 100),
            (1000, 1000),
            (997, 1003),
        ] {
            let mut a: Vec<i64> = (0..na).map(|_| next()).collect();
            let mut b: Vec<i64> = (0..nb).map(|_| next()).collect();
            a.sort_unstable();
            b.sort_unstable();
            let mut expect = vec![0i64; na + nb];
            merge_into(&a, &b, &mut expect);
            let mut got = vec![0i64; na + nb];
            parallel_merge_into(&pool, &a, &b, &mut got);
            assert_eq!(got, expect, "na={na} nb={nb}");
            assert!(is_sorted(&got));
        }
    }

    #[test]
    fn parallel_merge_all_duplicates() {
        let pool = WorkPool::new(8);
        let a = vec![7i64; 1000];
        let b = vec![7i64; 500];
        let mut out = vec![0i64; 1500];
        parallel_merge_into(&pool, &a, &b, &mut out);
        assert!(out.iter().all(|&x| x == 7));
    }
}
