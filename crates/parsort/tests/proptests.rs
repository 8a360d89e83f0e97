//! Property-based tests for the sorting substrate.

use parsort::merge::merge_into;
use parsort::multiway::{
    merge_parts, multiseq_select, multiway_merge_into, parallel_multiway_merge_into,
};
use parsort::pool::{copy_parts, split_mut, split_range, WorkPool};
use parsort::radix::radix_sort;
use parsort::serial::{introsort, is_sorted};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// How often each key occurs.
fn counts(v: &[i64]) -> BTreeMap<i64, usize> {
    let mut counts = BTreeMap::new();
    for &x in v {
        *counts.entry(x).or_insert(0) += 1;
    }
    counts
}

proptest! {
    /// `introsort` is the platform's `sort_unstable`, so the oracle must
    /// not be: the output is sorted and holds the input's multiset.
    #[test]
    fn introsort_equals_std(mut v in proptest::collection::vec(any::<i64>(), 0..3000)) {
        let expect = counts(&v);
        introsort(&mut v);
        prop_assert!(is_sorted(&v));
        prop_assert_eq!(counts(&v), expect);
    }

    #[test]
    fn radix_sort_equals_std(mut v in proptest::collection::vec(any::<i64>(), 0..5000)) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        prop_assert_eq!(v, expect);
    }

    #[test]
    fn parallel_radix_equals_std(
        mut v in proptest::collection::vec(any::<i64>(), 0..5000),
        threads in 1usize..6,
    ) {
        // The radix chunk style's shape: one radix sort per pool thread,
        // then one k-way merge of the sorted blocks.
        let pool = WorkPool::new(threads);
        let mut expect = v.clone();
        expect.sort_unstable();
        let parts = threads.min(v.len()).max(1);
        pool.scoped(split_mut(&mut v, parts).into_iter().map(|b| move || radix_sort(b)));
        let mut out = v.clone();
        parallel_multiway_merge_into(&pool, &parsort::parallel::split_borrows(&v, parts), &mut out);
        prop_assert_eq!(out, expect);
    }

    #[test]
    fn radix_sorts_u32_i32(
        mut a in proptest::collection::vec(any::<u32>(), 0..2000),
        mut b in proptest::collection::vec(any::<i32>(), 0..2000),
    ) {
        let mut ea = a.clone();
        ea.sort_unstable();
        radix_sort(&mut a);
        prop_assert_eq!(a, ea);
        let mut eb = b.clone();
        eb.sort_unstable();
        radix_sort(&mut b);
        prop_assert_eq!(b, eb);
    }

    #[test]
    fn merge_of_sorted_inputs_is_sorted(
        mut a in proptest::collection::vec(any::<i64>(), 0..500),
        mut b in proptest::collection::vec(any::<i64>(), 0..500),
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let mut out = vec![0i64; a.len() + b.len()];
        merge_into(&a, &b, &mut out);
        prop_assert!(is_sorted(&out));
        // Multiset preservation.
        let mut all: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        all.sort_unstable();
        prop_assert_eq!(out, all);
    }

    #[test]
    fn parallel_merge_equals_serial(
        mut a in proptest::collection::vec(any::<i64>(), 0..800),
        mut b in proptest::collection::vec(any::<i64>(), 0..800),
        threads in 1usize..6,
    ) {
        a.sort_unstable();
        b.sort_unstable();
        let pool = WorkPool::new(threads);
        let mut expect = vec![0i64; a.len() + b.len()];
        merge_into(&a, &b, &mut expect);
        // The parallel two-way merge is the rank-split k-way merge of two runs.
        let mut got = vec![0i64; a.len() + b.len()];
        parallel_multiway_merge_into(&pool, &[&a, &b], &mut got);
        prop_assert_eq!(got, expect);
    }

    #[test]
    fn multiway_merge_equals_concat_sort(
        runs_raw in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 0..200), 1..8),
    ) {
        let runs_owned: Vec<Vec<i64>> = runs_raw
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r
            })
            .collect();
        let runs: Vec<&[i64]> = runs_owned.iter().map(|r| r.as_slice()).collect();
        let mut expect: Vec<i64> = runs_owned.iter().flatten().copied().collect();
        expect.sort_unstable();
        let mut out = vec![0i64; expect.len()];
        multiway_merge_into(&runs, &mut out);
        prop_assert_eq!(&out, &expect);

        let pool = WorkPool::new(4);
        let mut out_p = vec![0i64; expect.len()];
        parallel_multiway_merge_into(&pool, &runs, &mut out_p);
        prop_assert_eq!(out_p, expect);
    }

    #[test]
    fn multiseq_select_partitions_correctly(
        runs_raw in proptest::collection::vec(
            proptest::collection::vec(-50i64..50, 0..150), 1..6),
        r_frac in 0.0f64..=1.0,
    ) {
        let runs_owned: Vec<Vec<i64>> = runs_raw
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r
            })
            .collect();
        let runs: Vec<&[i64]> = runs_owned.iter().map(|r| r.as_slice()).collect();
        let total: usize = runs.iter().map(|r| r.len()).sum();
        let rank = (total as f64 * r_frac) as usize;
        let split = multiseq_select(&runs, rank);
        prop_assert_eq!(split.iter().sum::<usize>(), rank);
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
            prop_assert!(mb <= ma);
        }
    }

    /// Both task emitters, run serially task by task, equal the serial
    /// copy and merge for every part count: one, a few, more than the
    /// runs, exactly one element each, and more parts than elements.
    #[test]
    fn emitters_equal_the_serial_result_for_any_part_count(
        runs_raw in proptest::collection::vec(
            proptest::collection::vec(any::<i64>(), 0..120), 1..6),
    ) {
        let runs_owned: Vec<Vec<i64>> = runs_raw
            .into_iter()
            .map(|mut r| {
                r.sort_unstable();
                r
            })
            .collect();
        let runs: Vec<&[i64]> = runs_owned.iter().map(Vec::as_slice).collect();
        let src: Vec<i64> = runs_owned.concat();
        let len = src.len();
        let mut merged = vec![0i64; len];
        multiway_merge_into(&runs, &mut merged);
        for parts in [1, 2, 7, len, len + 3] {
            let mut copy = vec![0i64; len];
            let tasks = copy_parts(&src, &mut copy, parts);
            prop_assert!(tasks.len() <= parts.max(1));
            tasks.into_iter().for_each(|t| t());
            prop_assert_eq!(&copy, &src, "copy, parts={}", parts);

            let mut out = vec![0i64; len];
            let tasks = merge_parts(&runs, &mut out, parts);
            prop_assert!(tasks.len() <= parts.max(1));
            tasks.into_iter().for_each(|t| t());
            prop_assert_eq!(&out, &merged, "merge, parts={}", parts);
        }
    }

    #[test]
    fn split_range_partitions(len in 0usize..10_000, parts in 1usize..64) {
        let mut covered = 0usize;
        let mut prev_end = 0usize;
        for i in 0..parts {
            let (s, e) = split_range(len, parts, i);
            prop_assert_eq!(s, prev_end);
            covered += e - s;
            prev_end = e;
        }
        prop_assert_eq!(covered, len);
    }

    #[test]
    fn parallel_mergesort_equals_std(
        mut v in proptest::collection::vec(any::<i64>(), 0..5000),
        threads in 1usize..8,
    ) {
        let pool = WorkPool::new(threads);
        let mut expect = v.clone();
        expect.sort_unstable();
        parsort::parallel::parallel_mergesort(&pool, &mut v);
        prop_assert_eq!(v, expect);
    }
}
