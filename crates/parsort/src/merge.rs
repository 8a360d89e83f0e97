//! The serial two-way merge: the k-way merge's last step (see
//! [`crate::multiway`], whose rank-split parallel merge covers two runs
//! too).

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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{comparisons, keyed, payload, runs_of, seeded_runs, Keyed};
    use crate::pool::WorkPool;
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

    /// Two runs through the pool's rank-split k-way merge: the parallel
    /// two-way merge.
    fn parallel_merge_into(pool: &WorkPool, a: &[i64], b: &[i64], out: &mut [i64]) {
        crate::multiway::parallel_multiway_merge_into(pool, &[a, b], out);
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
