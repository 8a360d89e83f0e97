//! Serial sorting: the `std::sort` stand-in.
//!
//! MLM-sort's key design decision (paper §4) is to sort each thread's chunk
//! with the best available *serial* algorithm rather than relying on
//! multithreaded sort scalability. The paper used `std::sort`; [`introsort`]
//! calls the Rust platform's equivalent, `<[T]>::sort_unstable`.

/// Sort `data` in place with the platform's unstable sort, the
/// `std::sort` stand-in.
///
/// Like libstdc++'s `std::sort`, `<[T]>::sort_unstable` is an
/// introspective quicksort (bounded depth, heapsort fallback, small-sort
/// base case) and is not stable. Unlike it, it first looks for one
/// ascending or strictly descending run spanning the input and finishes
/// such input in O(n): host reverse keys sort an order of magnitude
/// faster than random ones, where the paper's KNL measured ≈ 2–3× from
/// branch prediction. The simulator reads no host sort rate; its
/// reverse-input speed-up is the fitted `Calibration::incache_reverse`.
pub fn introsort<T: Ord>(data: &mut [T]) {
    data.sort_unstable();
}

/// True if `data` is sorted non-decreasingly.
pub fn is_sorted<T: Ord>(data: &[T]) -> bool {
    data.windows(2).all(|w| w[0] <= w[1])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::counted::{comparisons, keyed, keys};
    use crate::radix::radix_sort;

    /// Sort with [`introsort`] and compare against the radix sort, which
    /// shares no code with it.
    fn check_sorts(mut v: Vec<i64>) {
        let mut expect = v.clone();
        radix_sort(&mut expect);
        introsort(&mut v);
        assert_eq!(v, expect, "introsort");
    }

    #[test]
    fn sorts_empty_and_singleton() {
        check_sorts(vec![]);
        check_sorts(vec![42]);
    }

    #[test]
    fn sorts_small_patterns() {
        check_sorts(vec![2, 1]);
        check_sorts(vec![1, 2, 3]);
        check_sorts(vec![3, 2, 1]);
        check_sorts(vec![1, 1, 1, 1]);
        check_sorts(vec![5, 1, 4, 2, 3]);
    }

    #[test]
    fn sorts_random_large() {
        // Deterministic LCG so the test needs no rand dependency here.
        let mut state = 0x243F6A8885A308D3u64;
        let v: Vec<i64> = (0..10_000)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (state >> 16) as i64
            })
            .collect();
        check_sorts(v);
    }

    #[test]
    fn sorts_adversarial_patterns() {
        let n = 4096i64;
        check_sorts((0..n).collect()); // already sorted
        check_sorts((0..n).rev().collect()); // reversed
        check_sorts((0..n).map(|i| i % 7).collect()); // few distinct
        check_sorts((0..n).map(|i| if i % 2 == 0 { i } else { n - i }).collect()); // organ pipe-ish
        check_sorts(std::iter::repeat_n(9, 1000).collect()); // constant
                                                             // Sawtooth — classic quicksort killer for naive pivots.
        check_sorts((0..n).map(|i| i % 64).collect());
    }

    #[test]
    fn introsort_survives_quicksort_killer() {
        // An interleaving hostile to median-of-three pivots.
        let n = 1 << 14;
        let killer: Vec<i64> = (0..n)
            .map(|i| if i % 2 == 0 { i / 2 } else { n / 2 + i / 2 })
            .collect();
        check_sorts(killer);
    }

    /// The toolchain owns the exact count; only the bound is ours.
    #[test]
    fn introsort_comparisons_stay_within_n_log_n() {
        let n = 1 << 14;
        let mut random = keys(n, 1 << 40, 17);
        let count = comparisons(|| introsort(&mut random));
        assert!(is_sorted(&random));
        assert!(count <= 2 * 14 * n as u64, "random: {count} comparisons");
        // A strictly descending input is found as one run and reversed:
        // the O(n) path behind the host's large reverse/random ratio.
        let mut reverse = keyed((0..n as i64).rev());
        let count = comparisons(|| introsort(&mut reverse));
        assert!(is_sorted(&reverse));
        assert!(count < 2 * n as u64, "reverse: {count} comparisons");
    }

    #[test]
    fn is_sorted_detects_order() {
        assert!(is_sorted::<i64>(&[]));
        assert!(is_sorted(&[1]));
        assert!(is_sorted(&[1, 1, 2, 3]));
        assert!(!is_sorted(&[2, 1]));
    }

    #[test]
    fn sorts_strings_too() {
        let mut v = vec!["pear", "apple", "orange", "banana", "apple"];
        introsort(&mut v);
        assert_eq!(v, ["apple", "apple", "banana", "orange", "pear"]);
    }
}
