//! Test support: [`Keyed`] orders by `key` alone and counts every
//! comparison made on the calling thread, so tests see which of several
//! equal keys a merge emitted first, and read the work a kernel did
//! without a stopwatch.

use std::cell::Cell;
use std::cmp::Ordering;

thread_local! {
    static COMPARISONS: Cell<u64> = const { Cell::new(0) };
}

/// A key and a payload its order ignores: `run << 32 | position in run`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct Keyed {
    pub key: i64,
    pub tag: u64,
}

impl Ord for Keyed {
    fn cmp(&self, other: &Self) -> Ordering {
        COMPARISONS.with(|c| c.set(c.get() + 1));
        self.key.cmp(&other.key)
    }
}

impl PartialOrd for Keyed {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Keyed {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Keyed {}

/// The comparisons `f` made on this thread.
pub(crate) fn comparisons(f: impl FnOnce()) -> u64 {
    COMPARISONS.with(|c| c.set(0));
    f();
    COMPARISONS.with(Cell::get)
}

/// `keys`, untagged.
pub(crate) fn keyed(keys: impl IntoIterator<Item = i64>) -> Vec<Keyed> {
    keys.into_iter().map(|key| Keyed { key, tag: 0 }).collect()
}

/// Seeded keys in `0..distinct`, untagged.
pub(crate) fn keys(len: usize, distinct: u64, seed: u64) -> Vec<Keyed> {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    keyed((0..len).map(|_| {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((state >> 33) % distinct) as i64
    }))
}

/// Each key list, sorted and tagged, as the run of its index.
pub(crate) fn runs_of(key_lists: Vec<Vec<Keyed>>) -> Vec<Vec<Keyed>> {
    let lists = key_lists.into_iter().enumerate();
    lists
        .map(|(run, mut run_keys)| {
            run_keys.sort_by_key(|x| x.key);
            for (pos, x) in run_keys.iter_mut().enumerate() {
                x.tag = (run as u64) << 32 | pos as u64;
            }
            run_keys
        })
        .collect()
}

/// Sorted runs of the given lengths, seeded keys in `0..distinct`.
pub(crate) fn seeded_runs(lens: &[usize], distinct: u64, seed: u64) -> Vec<Vec<Keyed>> {
    let lists = lens.iter().zip(seed..);
    runs_of(lists.map(|(&len, s)| keys(len, distinct, s)).collect())
}

/// `(key, tag)` of each element.
pub(crate) fn payload(v: &[Keyed]) -> Vec<(i64, u64)> {
    v.iter().map(|x| (x.key, x.tag)).collect()
}

/// What every merge of `runs` must emit: by key, ties to the lower run,
/// each run's own order kept.
pub(crate) fn tie_order(runs: &[Vec<Keyed>]) -> Vec<(i64, u64)> {
    let mut all: Vec<(i64, u64)> = runs.iter().flat_map(|r| payload(r)).collect();
    all.sort_unstable();
    all
}
