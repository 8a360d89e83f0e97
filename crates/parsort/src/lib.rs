//! # parsort — from-scratch parallel sorting for the KNL reproduction
//!
//! The paper (Butcher et al., ICPP 2018) builds MLM-sort on two library
//! components it treats as state of the art:
//!
//! * the GNU libstdc++ **parallel mode sort** (MCSTL's multiway mergesort),
//!   used as the `GNU-flat` / `GNU-cache` baselines, and
//! * **`std::sort`** (serial introsort), used for MLM-sort's per-thread
//!   chunk sorts.
//!
//! Neither is available to a pure-Rust reproduction. The serial sort is
//! Rust's own `sort_unstable`; the parallel structure is built from
//! scratch the way MCSTL builds it:
//!
//! * [`serial::introsort`] — `<[T]>::sort_unstable`, Rust's `std::sort`;
//! * [`merge`] — the branch-free serial two-way merge;
//! * [`multiway`] — loser-tree k-way merge, multisequence selection, and
//!   the rank-split parallel multiway merge built from them;
//! * [`parallel::parallel_mergesort`] — block sort + parallel multiway
//!   merge, the GNU parallel sort stand-in;
//! * [`pool::WorkPool`] — a fixed-size thread pool with scoped execution,
//!   matching the paper's dedicated copy/compute thread-pool structure;
//! * the task emitters [`pool::copy_parts`] and [`multiway::merge_parts`]
//!   — one copy or k-way merge split over a given number of workers, so
//!   the pool-wide primitives and the host executors that share a pool
//!   between several operations split work the same way;
//! * [`radix::radix_sort`] — LSD radix sort, the purely bandwidth-bound
//!   kernel the paper's §6 "more benchmarks" future work points toward.
//!
//! ```
//! use parsort::{pool::WorkPool, parallel::parallel_mergesort, serial::is_sorted};
//!
//! let pool = WorkPool::new(4);
//! let mut data: Vec<i64> = (0..10_000).rev().collect();
//! parallel_mergesort(&pool, &mut data);
//! assert!(is_sorted(&data));
//! ```

#[cfg(test)]
mod counted;
pub mod merge;
pub mod multiway;
pub mod parallel;
pub mod pool;
pub mod radix;
pub mod serial;

pub use merge::merge_into;
pub use multiway::{multiway_merge_into, parallel_multiway_merge_into};
pub use parallel::parallel_mergesort;
pub use pool::WorkPool;
pub use radix::radix_sort;
pub use serial::{introsort, is_sorted};
