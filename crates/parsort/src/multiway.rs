//! K-way merging: loser-tree merge, multisequence selection, and the
//! parallel multiway merge built from both.
//!
//! This is the stand-in for the GNU parallel mode's `multiway_merge`
//! (Singler et al., MCSTL): the output is partitioned among threads at
//! exact global ranks found by multisequence selection, and each thread
//! merges its slice of every run with a tournament (loser) tree.

use crate::merge::merge_into;
use crate::pool::{split_mut, split_range, Task, WorkPool};

/// A run's current head, and which run it heads.
#[derive(Clone, Copy)]
struct Entry<T> {
    head: T,
    run: usize,
}

impl<T: Ord> Entry<T> {
    /// True if `self` goes out before `other`: the smaller head, or on
    /// equal heads the lower run. One comparison of two `T`s.
    #[inline]
    fn beats(&self, other: &Self) -> bool {
        let order = self.head.cmp(&other.head);
        order.is_lt() | (order.is_eq() & (self.run < other.run))
    }
}

/// Merge the non-empty sorted `runs` into the front of `out` with a
/// tournament (loser) tree until one of them runs dry. Returns the number
/// of elements written and the runs still live, in their original order.
///
/// The tree has the classic implicit layout: leaf `k + r` is run `r`,
/// internal node `j` in `1..k` parks the loser of the match played there,
/// and the overall winner is kept aside. Nodes hold their run's head by
/// value, so a replay reads one node per level and selects without
/// branching.
///
/// # Panics
/// Panics if `runs` is empty, or if `out` fills before a run runs dry.
fn loser_tree_merge<'a, T: Ord + Copy>(
    mut runs: Vec<&'a [T]>,
    out: &mut [T],
) -> (usize, Vec<&'a [T]>) {
    assert!(!runs.is_empty(), "need at least one run");
    let k = runs.len();
    let leaves: Vec<Entry<T>> = runs
        .iter()
        .enumerate()
        .map(|(run, r)| Entry { head: r[0], run })
        .collect();
    // `play` overwrites nodes `1..k`; node 0 is unused.
    let mut tree = leaves.clone();
    let mut winner = play(&mut tree, &leaves, 1);
    for (written, slot) in out.iter_mut().enumerate() {
        let w = winner.run;
        *slot = winner.head;
        let run = &mut runs[w];
        *run = &run[1..];
        let Some(&head) = run.first() else {
            runs.remove(w);
            return (written + 1, runs);
        };
        // Replay from the winner's leaf to the root.
        winner = Entry { head, run: w };
        let mut node = (k + w) / 2;
        while node >= 1 {
            let challenger = tree[node];
            let swap = challenger.beats(&winner);
            tree[node] = if swap { winner } else { challenger };
            winner = if swap { challenger } else { winner };
            node /= 2;
        }
    }
    panic!("output filled before a run ran dry");
}

/// Play the tournament below internal node `node`, parking each match's
/// loser in `tree` and returning the winner.
fn play<T: Ord + Copy>(tree: &mut [Entry<T>], leaves: &[Entry<T>], node: usize) -> Entry<T> {
    let k = leaves.len();
    if node >= k {
        return leaves[node - k];
    }
    let left = play(tree, leaves, 2 * node);
    let right = play(tree, leaves, 2 * node + 1);
    let (win, lose) = if left.beats(&right) {
        (left, right)
    } else {
        (right, left)
    };
    tree[node] = lose;
    win
}

/// Merge `runs` (each sorted) into `out`, taking from the lower-indexed
/// run on ties.
///
/// Empty runs are dropped, the rest go through a loser tree until one
/// runs dry, and the tree is rebuilt over the survivors, so a merge
/// rebuilds at most `k` times. The last two runs go to [`merge_into`]
/// and a last single run is copied. That bounds the comparisons at
/// `n·⌈log2 k⌉ + k²` for `n` elements.
///
/// # Panics
/// Panics if `out.len()` differs from the total input length.
pub fn multiway_merge_into<T: Ord + Copy>(runs: &[&[T]], out: &mut [T]) {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output size mismatch");
    let mut live: Vec<&[T]> = runs.iter().copied().filter(|r| !r.is_empty()).collect();
    let mut out = out;
    while live.len() > 2 {
        let (written, rest) = loser_tree_merge(live, out);
        live = rest;
        out = &mut std::mem::take(&mut out)[written..];
    }
    match live[..] {
        [a, b] => merge_into(a, b, out),
        [a] => out.copy_from_slice(a),
        _ => {}
    }
}

/// Multisequence selection: given sorted `seqs` and a global rank `r`,
/// return split positions `s[i]` with `sum(s) == r` such that every element
/// before a split is `<=` every element after any split.
///
/// This is the partitioning primitive that lets the parallel multiway merge
/// hand each thread an exact, independent slice of the output.
///
/// # Panics
/// Panics if `r` exceeds the total number of elements.
pub fn multiseq_select<T: Ord + Copy>(seqs: &[&[T]], r: usize) -> Vec<usize> {
    let total: usize = seqs.iter().map(|s| s.len()).sum();
    assert!(r <= total, "rank {r} > total {total}");
    let k = seqs.len();
    if r == 0 {
        return vec![0; k];
    }
    if r == total {
        return seqs.iter().map(|s| s.len()).collect();
    }

    // Search ranges per sequence.
    let mut lo = vec![0usize; k];
    let mut hi: Vec<usize> = seqs.iter().map(|s| s.len()).collect();

    loop {
        // Pick a pivot from the sequence with the widest remaining range.
        let (widest, width) = (0..k)
            .map(|i| (i, hi[i] - lo[i]))
            .max_by_key(|&(_, w)| w)
            .unwrap();
        if width == 0 {
            // Fully narrowed: lo is a valid split summing to r by invariant.
            debug_assert_eq!(lo.iter().sum::<usize>(), r);
            return lo;
        }
        let mid = lo[widest] + width / 2;
        let pivot = seqs[widest][mid];

        // Per sequence, the elements `< pivot` and `<= pivot`; their sums
        // are the pivot value's global ranks.
        let lt: Vec<usize> = seqs
            .iter()
            .map(|s| s.partition_point(|x| *x < pivot))
            .collect();
        let le: Vec<usize> = seqs
            .iter()
            .map(|s| s.partition_point(|x| *x <= pivot))
            .collect();
        let (less, less_eq) = (lt.iter().sum::<usize>(), le.iter().sum::<usize>());

        if less <= r && r <= less_eq {
            // Take everything < pivot, then pad with ties up to r, lower
            // sequences first.
            let mut split = lt;
            let mut need = r - less;
            for (s, &ties_end) in split.iter_mut().zip(&le) {
                let take = (ties_end - *s).min(need);
                *s += take;
                need -= take;
            }
            debug_assert_eq!(need, 0);
            return split;
        } else if less_eq < r {
            // Pivot too small: splits lie at or beyond each seq's `<= pivot`
            // boundary. This at least halves the widest range because
            // le[widest] > mid.
            for i in 0..k {
                lo[i] = lo[i].max(le[i]).min(hi[i]);
            }
        } else {
            // less > r: pivot too large.
            for i in 0..k {
                hi[i] = hi[i].min(lt[i]).max(lo[i]);
            }
        }
    }
}

/// Merge `runs` into `out` using every thread of `pool` (see
/// [`merge_parts`]).
///
/// # Panics
/// Panics if `out.len()` differs from the total input length.
pub fn parallel_multiway_merge_into<T: Ord + Copy + Send + Sync>(
    pool: &WorkPool,
    runs: &[&[T]],
    out: &mut [T],
) {
    pool.scoped(merge_parts(runs, out, pool.threads()));
}

/// The tasks of one k-way merge of `runs` into `out` split over `parts`
/// workers: the output is cut at exact global ranks via
/// [`multiseq_select`], and each task loser-tree merges its share. One
/// task merges everything when `parts` is 1 or there is a single run;
/// an empty merge has no tasks.
///
/// # Panics
/// Panics if `out.len()` differs from the total input length.
pub fn merge_parts<'a, T: Ord + Copy + Send + Sync>(
    runs: &[&'a [T]],
    out: &'a mut [T],
    parts: usize,
) -> Vec<Task<'a>> {
    let total: usize = runs.iter().map(|r| r.len()).sum();
    assert_eq!(out.len(), total, "output size mismatch");
    if total == 0 {
        return Vec::new();
    }
    let parts = parts.clamp(1, total);
    if parts == 1 || runs.len() == 1 {
        let runs = runs.to_vec();
        return vec![Box::new(move || multiway_merge_into(&runs, out))];
    }

    // Split positions per part boundary.
    let mut boundaries: Vec<Vec<usize>> = (0..parts)
        .map(|p| multiseq_select(runs, split_range(total, parts, p).0))
        .collect();
    boundaries.push(runs.iter().map(|r| r.len()).collect());

    split_mut(out, parts)
        .into_iter()
        .enumerate()
        .map(|(p, out_part)| {
            let sub_runs: Vec<&[T]> = runs
                .iter()
                .enumerate()
                .map(|(i, r)| &r[boundaries[p][i]..boundaries[p + 1][i]])
                .collect();
            Box::new(move || multiway_merge_into(&sub_runs, out_part)) as Task<'a>
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{comparisons, payload, runs_of, seeded_runs, tie_order, Keyed};
    use crate::serial::is_sorted;
    use proptest::prelude::*;

    fn reference_merge(runs: &[&[i64]]) -> Vec<i64> {
        let mut all: Vec<i64> = runs.iter().flat_map(|r| r.iter().copied()).collect();
        all.sort_unstable();
        all
    }

    fn rng_vec(n: usize, seed: u64) -> Vec<i64> {
        let mut state = seed | 1;
        let mut v: Vec<i64> = (0..n)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 24) % 1000) as i64
            })
            .collect();
        v.sort_unstable();
        v
    }

    #[test]
    fn loser_tree_merges_three_runs() {
        let (a, b, c) = ([1i64, 4, 7], [2i64, 5, 8], [3i64, 6, 9]);
        let mut out = [0i64; 9];
        // The tree stops when run `a` runs dry, after 7.
        let (written, rest) = loser_tree_merge(vec![&a[..], &b, &c], &mut out);
        assert_eq!(&out[..written], [1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(rest, [&b[2..], &c[2..]]);
    }

    #[test]
    fn loser_tree_single_run() {
        let mut out = [0i64; 3];
        assert_eq!(loser_tree_merge(vec![&[1, 2, 3]], &mut out), (3, vec![]));
        assert_eq!(out, [1, 2, 3]);
    }

    #[test]
    fn loser_tree_handles_empty_runs() {
        // Empty runs never reach the tree: the merge drops them first.
        let mut out = [0i64; 5];
        multiway_merge_into(&[&[], &[5, 9], &[], &[1, 6], &[7]], &mut out);
        assert_eq!(out, [1, 5, 6, 7, 9]);
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn loser_tree_rejects_no_runs() {
        let _ = loser_tree_merge::<i64>(vec![], &mut []);
    }

    #[test]
    fn multiway_merge_various_shapes() {
        for &(k, n) in &[
            (1usize, 10usize),
            (2, 100),
            (3, 33),
            (7, 50),
            (16, 8),
            (5, 0),
        ] {
            let runs_owned: Vec<Vec<i64>> = (0..k)
                .map(|i| rng_vec(n + i, (i as u64 + 1) * 7919))
                .collect();
            let runs: Vec<&[i64]> = runs_owned.iter().map(|r| r.as_slice()).collect();
            let expect = reference_merge(&runs);
            let mut out = vec![0i64; expect.len()];
            multiway_merge_into(&runs, &mut out);
            assert_eq!(out, expect, "k={k} n={n}");
        }
    }

    #[test]
    fn multiseq_select_invariants() {
        let runs_owned: Vec<Vec<i64>> = vec![
            rng_vec(57, 1),
            rng_vec(91, 2),
            rng_vec(3, 3),
            vec![],
            rng_vec(40, 4),
        ];
        let runs: Vec<&[i64]> = runs_owned.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        for r in [0, 1, 2, total / 3, total / 2, total - 1, total] {
            let split = multiseq_select(&runs, r);
            assert_eq!(split.iter().sum::<usize>(), r, "rank {r}");
            let max_before = runs
                .iter()
                .zip(&split)
                .flat_map(|(s, &c)| s[..c].iter())
                .max();
            let min_after = runs
                .iter()
                .zip(&split)
                .flat_map(|(s, &c)| s[c..].iter())
                .min();
            if let (Some(mb), Some(ma)) = (max_before, min_after) {
                assert!(mb <= ma, "rank {r}: {mb} > {ma}");
            }
        }
    }

    #[test]
    fn multiseq_select_all_duplicates() {
        let a = vec![5i64; 100];
        let b = vec![5i64; 50];
        let runs: Vec<&[i64]> = vec![&a, &b];
        for r in [0usize, 1, 75, 149, 150] {
            let split = multiseq_select(&runs, r);
            assert_eq!(split.iter().sum::<usize>(), r);
        }
    }

    #[test]
    #[should_panic(expected = "rank")]
    fn multiseq_select_rank_out_of_range() {
        let a = [1i64, 2];
        multiseq_select(&[&a[..]], 3);
    }

    #[test]
    fn parallel_multiway_matches_serial() {
        let pool = WorkPool::new(4);
        for &(k, n) in &[(2usize, 1000usize), (4, 997), (8, 250), (3, 1)] {
            let runs_owned: Vec<Vec<i64>> = (0..k)
                .map(|i| rng_vec(n, (i as u64 + 1) * 104729))
                .collect();
            let runs: Vec<&[i64]> = runs_owned.iter().map(|r| r.as_slice()).collect();
            let expect = reference_merge(&runs);
            let mut out = vec![0i64; expect.len()];
            parallel_multiway_merge_into(&pool, &runs, &mut out);
            assert_eq!(out, expect, "k={k} n={n}");
            assert!(is_sorted(&out));
        }
    }

    /// One worker, or one run to move, is one task that merges
    /// everything; more parts cut the output into that many tasks.
    #[test]
    fn merge_parts_splits_only_real_merges() {
        let (a, b) = (rng_vec(100, 3), rng_vec(50, 5));
        let mut out = vec![0i64; 150];
        assert_eq!(merge_parts(&[&a, &b], &mut out, 1).len(), 1);
        assert_eq!(merge_parts(&[&a], &mut out[..100], 4).len(), 1);
        assert_eq!(merge_parts(&[&a, &b], &mut out, 4).len(), 4);
        assert!(merge_parts::<i64>(&[&[], &[]], &mut [], 4).is_empty());
        let tasks = merge_parts(&[&a, &b], &mut out, 3);
        tasks.into_iter().for_each(|t| t());
        assert_eq!(out, reference_merge(&[&a, &b]));
    }

    #[test]
    fn parallel_multiway_empty_input() {
        let pool = WorkPool::new(4);
        let runs: Vec<&[i64]> = vec![&[], &[]];
        let mut out: Vec<i64> = vec![];
        parallel_multiway_merge_into(&pool, &runs, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn parallel_multiway_skewed_runs() {
        let pool = WorkPool::new(4);
        let a = rng_vec(10_000, 11);
        let b = rng_vec(3, 13);
        let c = rng_vec(500, 17);
        let runs: Vec<&[i64]> = vec![&a, &b, &c];
        let expect = reference_merge(&runs);
        let mut out = vec![0i64; expect.len()];
        parallel_multiway_merge_into(&pool, &runs, &mut out);
        assert_eq!(out, expect);
    }

    fn slices(runs: &[Vec<Keyed>]) -> Vec<&[Keyed]> {
        runs.iter().map(Vec::as_slice).collect()
    }

    /// `multiway_merge_into` over `runs`: its output and comparison count.
    fn merged(runs: &[Vec<Keyed>]) -> (Vec<Keyed>, u64) {
        let mut out = vec![Keyed::default(); runs.iter().map(Vec::len).sum()];
        let count = comparisons(|| multiway_merge_into(&slices(runs), &mut out));
        (out, count)
    }

    /// The most comparisons a `k`-way merge of `n` elements may make.
    fn bound(n: usize, k: usize) -> u64 {
        (n * k.next_power_of_two().trailing_zeros() as usize + k * k) as u64
    }

    /// `k` run lengths around `len`; every third run, the first included,
    /// is empty.
    fn with_empty_runs(k: usize, len: usize) -> Vec<usize> {
        (0..k)
            .map(|r| if r % 3 == 0 { 0 } else { len + r })
            .collect()
    }

    /// k = 2 pins `merge_into`, to which the merge hands its last two runs.
    #[test]
    fn multiway_merge_takes_from_the_lower_run_on_ties() {
        for k in [1, 2, 3, 5, 16] {
            for lens in [vec![200; k], with_empty_runs(k, 150)] {
                let runs = seeded_runs(&lens, 6, k as u64);
                let (out, _) = merged(&runs);
                assert_eq!(payload(&out), tie_order(&runs), "lens={lens:?}");
            }
        }
    }

    #[test]
    fn parallel_multiway_merge_matches_the_serial_payload_order() {
        for threads in [2, 3, 4] {
            let pool = WorkPool::new(threads);
            for k in [2, 3, 5, 16] {
                let runs = seeded_runs(&with_empty_runs(k, 300), 5, 31 + k as u64);
                let (serial, _) = merged(&runs);
                let mut out = vec![Keyed::default(); serial.len()];
                parallel_multiway_merge_into(&pool, &slices(&runs), &mut out);
                assert_eq!(payload(&out), payload(&serial), "k={k} threads={threads}");
            }
        }
    }

    #[test]
    fn multiway_merge_comparison_counts_are_pinned() {
        // One run is a copy; two runs are `merge_into`'s count.
        assert_eq!(merged(&seeded_runs(&[500], 1 << 20, 5)).1, 0);
        assert_eq!(merged(&seeded_runs(&[1000, 700], 1 << 20, 3)).1, 1695);
        for (lens, distinct, expect) in [
            (vec![1000; 4], 1 << 20, 7994),
            (vec![256; 16], 1 << 20, 16429),
            (with_empty_runs(16, 200), 1 << 20, 7082),
            (vec![1000, 1, 0, 500, 20], 100, 2769),
        ] {
            let count = merged(&seeded_runs(&lens, distinct, 11)).1;
            assert_eq!(count, expect, "lens={lens:?}");
            assert!(count <= bound(lens.iter().sum(), lens.len()));
        }
    }

    /// A tournament that scans every run head, `k - 1` comparisons per
    /// element, breaks the bound the loser tree keeps.
    #[test]
    fn linear_scan_tournament_exceeds_the_bound() {
        let runs = seeded_runs(&[256; 16], 1 << 20, 13);
        let (mut heads, n) = (vec![0; runs.len()], 16 * 256);
        let scan = comparisons(|| {
            for _ in 0..n {
                let live = (0..runs.len()).filter(|&r| heads[r] < runs[r].len());
                let best = live.min_by(|&a, &b| runs[a][heads[a]].cmp(&runs[b][heads[b]]));
                heads[best.expect("runs outlast the output")] += 1;
            }
        });
        assert!(scan > bound(n, 16), "{scan} <= {}", bound(n, 16));
    }

    proptest! {
        #[test]
        fn multiway_merge_comparisons_within_the_bound(
            key_lists in proptest::collection::vec(
                proptest::collection::vec(0i64..1000, 0..64), 1..=128),
        ) {
            let k = key_lists.len();
            let runs = runs_of(key_lists.into_iter().map(crate::counted::keyed).collect());
            let (out, count) = merged(&runs);
            prop_assert_eq!(payload(&out), tie_order(&runs));
            let n = out.len();
            prop_assert!(count <= bound(n, k), "k={} n={}: {}", k, n, count);
        }
    }
}
