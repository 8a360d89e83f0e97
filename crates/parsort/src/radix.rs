//! LSD radix sort for integer keys — the canonical *bandwidth-bound*
//! sorting algorithm, added as the paper's §6 "more complex benchmarks"
//! extension point.
//!
//! Where introsort's cost is dominated by comparisons (the in-cache
//! component of the calibration), radix sort is almost pure streaming:
//! eight counting passes over the data, each reading every element and
//! writing it to its bucket. That makes it the sort most sensitive to the
//! memory level it runs in — exactly the regime where the paper's chunking
//! pays most — and the natural next kernel for an MLM treatment.

/// Keys that radix sort can process: mapped to `u64` preserving order.
pub trait RadixKey: Copy {
    /// Order-preserving map into `u64` (two's-complement bias for signed).
    fn to_bits(self) -> u64;
}

impl RadixKey for u64 {
    #[inline]
    fn to_bits(self) -> u64 {
        self
    }
}

impl RadixKey for i64 {
    #[inline]
    fn to_bits(self) -> u64 {
        (self as u64) ^ (1 << 63)
    }
}

impl RadixKey for u32 {
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from(self)
    }
}

impl RadixKey for i32 {
    #[inline]
    fn to_bits(self) -> u64 {
        u64::from((self as u32) ^ (1 << 31))
    }
}

const RADIX_BITS: usize = 8;
const BUCKETS: usize = 1 << RADIX_BITS;

/// Sort `data` with serial LSD radix sort (8-bit digits, stable).
pub fn radix_sort<T: RadixKey>(data: &mut [T]) {
    let n = data.len();
    if n < 2 {
        return;
    }
    let digits = needed_digits(data);
    let mut scratch: Vec<T> = data.to_vec();
    let mut src_is_data = true;
    for d in 0..digits {
        let shift = d * RADIX_BITS;
        let (src, dst): (&[T], &mut [T]) = if src_is_data {
            (&*data, &mut scratch[..])
        } else {
            (&*scratch, &mut data[..])
        };
        let mut counts = [0usize; BUCKETS];
        for k in src {
            counts[((k.to_bits() >> shift) as usize) & (BUCKETS - 1)] += 1;
        }
        let mut offsets = [0usize; BUCKETS];
        let mut acc = 0;
        for (o, c) in offsets.iter_mut().zip(counts.iter()) {
            *o = acc;
            acc += c;
        }
        for k in src {
            let b = ((k.to_bits() >> shift) as usize) & (BUCKETS - 1);
            dst[offsets[b]] = *k;
            offsets[b] += 1;
        }
        src_is_data = !src_is_data;
    }
    if !src_is_data {
        data.copy_from_slice(&scratch);
    }
}

/// Number of 8-bit digit passes needed to cover the key range actually
/// present (skipping passes where every key shares the digit).
fn needed_digits<T: RadixKey>(data: &[T]) -> usize {
    let mut or_all = 0u64;
    let mut and_all = u64::MAX;
    for k in data {
        let b = k.to_bits();
        or_all |= b;
        and_all &= b;
    }
    // Bits that differ between any two keys.
    let varying = or_all ^ and_all;
    if varying == 0 {
        return 0;
    }
    let top = 63 - varying.leading_zeros() as usize;
    top / RADIX_BITS + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::serial::is_sorted;

    fn check<T: RadixKey + Ord + std::fmt::Debug>(mut v: Vec<T>) {
        let mut expect = v.clone();
        expect.sort_unstable();
        radix_sort(&mut v);
        assert_eq!(v, expect);
    }

    #[test]
    fn sorts_unsigned() {
        check::<u64>(vec![]);
        check::<u64>(vec![5]);
        check::<u64>(vec![3, 1, 2]);
        check(vec![u64::MAX, 0, u64::MAX / 2, 1, u64::MAX - 1]);
    }

    #[test]
    fn sorts_signed_with_negatives() {
        check(vec![-1i64, 1, 0, i64::MIN, i64::MAX, -42, 42]);
        check((-500i64..500).rev().collect::<Vec<_>>());
        check(vec![-3i32, 7, i32::MIN, i32::MAX, 0]);
        check(vec![7u32, 3, u32::MAX, 0]);
    }

    #[test]
    fn sorts_large_random() {
        let mut state = 0xDEADBEEFu64;
        let v: Vec<i64> = (0..100_000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                state as i64
            })
            .collect();
        check(v);
    }

    #[test]
    fn constant_and_narrow_ranges_short_circuit() {
        check(vec![9u64; 10_000]);
        // Only the low byte varies: one pass suffices; result still sorted.
        let v: Vec<u64> = (0..10_000).map(|i| 0xAB00 + (i % 256)).collect();
        check(v);
        assert_eq!(needed_digits(&[0xABu64, 0xCD]), 1);
        assert_eq!(needed_digits(&[0xAB00u64, 0xCD00]), 2);
        assert_eq!(needed_digits(&[7u64, 7]), 0);
    }

    #[test]
    fn stability_of_serial_radix() {
        // Keys equal on the sorted digit keep their relative order; check
        // via full sortedness on many duplicates.
        let v: Vec<i64> = (0..50_000).map(|i| (i * 7919) % 13).collect();
        let mut s = v.clone();
        radix_sort(&mut s);
        assert!(is_sorted(&s));
        assert_eq!(
            s.iter().filter(|&&x| x == 5).count(),
            v.iter().filter(|&&x| x == 5).count()
        );
    }
}
