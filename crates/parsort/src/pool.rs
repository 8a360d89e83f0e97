//! A fixed-size work pool with scoped execution.
//!
//! The paper's buffering scheme partitions hardware threads into dedicated
//! pools (copy-in / copy-out / compute). This module provides the host-side
//! equivalent: a [`WorkPool`] owns `n` OS threads for its lifetime and
//! executes batches of borrowed closures to completion ([`WorkPool::scoped`]).
//!
//! The scoped API is built the way such primitives are built in production
//! runtimes: tasks are type-erased through a raw pointer, and a completion
//! latch (atomic counter + `parking_lot` condvar) guarantees every borrowed
//! closure has finished before `scoped` returns, which is what makes the
//! lifetime erasure sound. Worker panics are captured and propagated to the
//! caller.

use std::any::Any;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crossbeam::channel::{unbounded, Sender};
use parking_lot::{Condvar, Mutex};

/// One unit of pool work that may borrow from the caller's stack: what
/// the task emitters ([`copy_parts`],
/// [`crate::multiway::merge_parts`]) return and [`WorkPool::scoped`] runs.
pub type Task<'a> = Box<dyn FnOnce() + Send + 'a>;
type PanicPayload = Box<dyn Any + Send>;

enum Message {
    Run(Task<'static>),
    Shutdown,
}

struct Latch {
    remaining: AtomicUsize,
    mutex: Mutex<()>,
    condvar: Condvar,
    panicked: AtomicUsize,
    /// First panic payload observed, kept so `scoped` can rethrow the
    /// original panic (message included) instead of a generic one.
    payload: Mutex<Option<PanicPayload>>,
}

impl Latch {
    fn new(count: usize) -> Self {
        Latch {
            remaining: AtomicUsize::new(count),
            mutex: Mutex::new(()),
            condvar: Condvar::new(),
            panicked: AtomicUsize::new(0),
            payload: Mutex::new(None),
        }
    }

    fn count_down(&self, panic: Option<PanicPayload>) {
        if let Some(p) = panic {
            self.panicked.fetch_add(1, Ordering::Relaxed);
            let mut slot = self.payload.lock();
            if slot.is_none() {
                *slot = Some(p);
            }
        }
        // Release ordering pairs with the Acquire in `wait` so task side
        // effects are visible to the caller after `scoped` returns.
        //
        // Audit note: the notify is taken under `mutex` so it cannot slip
        // into the window between `wait`'s predicate check and its park —
        // the same lost-wakeup discipline mlm-verify's `models::condvar`
        // checks for the pipeline ring (`PoisonSkipLock` is the variant
        // that skips the lock and deadlocks).
        if self.remaining.fetch_sub(1, Ordering::Release) == 1 {
            let _guard = self.mutex.lock();
            self.condvar.notify_all();
        }
    }

    fn wait(&self) -> Option<PanicPayload> {
        let mut guard = self.mutex.lock();
        while self.remaining.load(Ordering::Acquire) != 0 {
            self.condvar.wait(&mut guard);
        }
        if self.panicked.load(Ordering::Relaxed) == 0 {
            return None;
        }
        Some(
            self.payload
                .lock()
                .take()
                .unwrap_or_else(|| Box::new("pool task panicked")),
        )
    }
}

/// A pool of `n` persistent worker threads.
///
/// ```
/// use parsort::pool::WorkPool;
/// let pool = WorkPool::new(4);
/// let mut data = vec![0usize; 4];
/// pool.scoped(data.iter_mut().enumerate().map(|(i, slot)| {
///     move || *slot = i * i
/// }));
/// assert_eq!(data, [0, 1, 4, 9]);
/// ```
pub struct WorkPool {
    sender: Sender<Message>,
    handles: Vec<std::thread::JoinHandle<()>>,
    threads: usize,
}

impl WorkPool {
    /// Spawn a pool of `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = unbounded::<Message>();
        let mut handles = Vec::with_capacity(threads);
        for i in 0..threads {
            let rx = receiver.clone();
            handles.push(
                std::thread::Builder::new()
                    .name(format!("parsort-worker-{i}"))
                    .spawn(move || {
                        while let Ok(msg) = rx.recv() {
                            match msg {
                                Message::Run(task) => task(),
                                Message::Shutdown => break,
                            }
                        }
                    })
                    .expect("failed to spawn worker thread"),
            );
        }
        WorkPool {
            sender,
            handles,
            threads,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every closure in `tasks` on the pool and block until all have
    /// finished. Closures may borrow from the caller's stack: the latch
    /// guarantees they are dead before this function returns.
    ///
    /// # Panics
    /// If any task panicked, rethrows the first captured panic payload
    /// (after all tasks have finished), so the original panic message
    /// reaches the caller.
    pub fn scoped<'scope, I, F>(&self, tasks: I)
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() + Send + 'scope,
    {
        let tasks: Vec<F> = tasks.into_iter().collect();
        if tasks.is_empty() {
            return;
        }
        let latch = Arc::new(Latch::new(tasks.len()));
        for task in tasks {
            let latch = Arc::clone(&latch);
            let wrapped = move || {
                let result = catch_unwind(AssertUnwindSafe(task));
                latch.count_down(result.err());
            };
            // SAFETY: `wrapped` borrows data with lifetime 'scope. We erase
            // the lifetime to send it through the 'static channel. This is
            // sound because `scoped` does not return until the latch has
            // counted every task down, i.e. until every erased closure has
            // been dropped; no borrow outlives the caller's frame. Panics
            // inside the task are caught before the latch decrement, so a
            // panicking task still counts down and cannot leak a borrow.
            let erased: Task<'static> = unsafe {
                std::mem::transmute::<
                    Box<dyn FnOnce() + Send + 'scope>,
                    Box<dyn FnOnce() + Send + 'static>,
                >(Box::new(wrapped))
            };
            self.sender
                .send(Message::Run(erased))
                .expect("worker channel closed while pool alive");
        }
        if let Some(payload) = latch.wait() {
            resume_unwind(payload);
        }
    }
}

impl Drop for WorkPool {
    fn drop(&mut self) {
        for _ in 0..self.handles.len() {
            let _ = self.sender.send(Message::Shutdown);
        }
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

/// A dedicated pipeline-stage pool: a [`WorkPool`] that additionally
/// accounts the cumulative execution time of its tasks.
///
/// The paper's framework dedicates disjoint thread pools to copy-in,
/// compute, and copy-out. When those stages run decoupled (dataflow
/// scheduling instead of lockstep steps), per-stage busy time is the
/// quantity that tells you which stage is the bottleneck — so this pool
/// wraps every task with a timer and accumulates the total.
///
/// Accounting notes: `busy` is summed across worker threads (so with `n`
/// threads it can approach `n x` wall-clock), and a panicking task's time
/// is not recorded (the panic propagates through [`StagePool::scoped`]).
pub struct StagePool {
    pool: WorkPool,
    busy_nanos: AtomicU64,
}

impl StagePool {
    /// Spawn a stage pool of `threads` workers (at least 1).
    pub fn new(threads: usize) -> Self {
        StagePool {
            pool: WorkPool::new(threads),
            busy_nanos: AtomicU64::new(0),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// Cumulative task execution time since creation or the last
    /// [`StagePool::reset_busy`].
    pub fn busy(&self) -> Duration {
        Duration::from_nanos(self.busy_nanos.load(Ordering::Relaxed))
    }

    /// Zero the busy counter (call between runs when reusing the pool).
    pub fn reset_busy(&self) {
        self.busy_nanos.store(0, Ordering::Relaxed);
    }

    /// [`WorkPool::scoped`], with each task's execution time added to the
    /// stage's busy counter.
    pub fn scoped<'scope, I, F>(&self, tasks: I)
    where
        I: IntoIterator<Item = F>,
        F: FnOnce() + Send + 'scope,
    {
        let busy = &self.busy_nanos;
        self.pool.scoped(tasks.into_iter().map(|task| {
            move || {
                let t0 = Instant::now();
                task();
                busy.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            }
        }));
    }
}

/// Copy `src` to `dst` using every pool thread (the host stand-in for the
/// copy-in / copy-out pools).
///
/// # Panics
/// Panics if `src.len() != dst.len()`.
pub fn parallel_copy<T: Copy + Send + Sync>(pool: &WorkPool, src: &[T], dst: &mut [T]) {
    pool.scoped(copy_parts(src, dst, pool.threads()));
}

/// The tasks of one `src → dst` copy split over `parts` workers: one
/// contiguous [`split_range`] part each, at most one per element (none
/// for an empty copy).
///
/// # Panics
/// Panics if `src.len() != dst.len()`, in release builds too: a shorter
/// destination would otherwise take a prefix of `src` silently.
pub fn copy_parts<'a, T: Copy + Send + Sync>(
    src: &'a [T],
    dst: &'a mut [T],
    parts: usize,
) -> Vec<Task<'a>> {
    assert_eq!(
        src.len(),
        dst.len(),
        "copy source and destination differ in length"
    );
    if src.is_empty() {
        return Vec::new();
    }
    let parts = parts.clamp(1, src.len());
    split_mut(dst, parts)
        .into_iter()
        .zip(crate::parallel::split_borrows(src, parts))
        .map(|(d, s)| Box::new(move || d.copy_from_slice(s)) as Task<'a>)
        .collect()
}

/// The bounds of part `i` of `parts` near-equal contiguous parts of `0..len`.
///
/// The first `len % parts` parts get one extra element, so sizes differ by
/// at most one.
pub fn split_range(len: usize, parts: usize, i: usize) -> (usize, usize) {
    assert!(parts > 0 && i < parts);
    let base = len / parts;
    let extra = len % parts;
    let start = i * base + i.min(extra);
    let size = base + usize::from(i < extra);
    (start, start + size)
}

/// Split a mutable slice into `parts` near-equal contiguous chunks.
pub fn split_mut<T>(data: &mut [T], parts: usize) -> Vec<&mut [T]> {
    assert!(parts > 0);
    let len = data.len();
    let mut out = Vec::with_capacity(parts);
    let mut rest = data;
    for i in 0..parts {
        let (start, end) = split_range(len, parts, i);
        let (head, tail) = rest.split_at_mut(end - start);
        out.push(head);
        rest = tail;
    }
    debug_assert!(rest.is_empty());
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn runs_all_tasks() {
        let pool = WorkPool::new(4);
        let counter = AtomicU64::new(0);
        pool.scoped((0..100).map(|_| {
            || {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn borrows_stack_data_mutably() {
        let pool = WorkPool::new(3);
        let mut data = vec![0u64; 10];
        pool.scoped(
            data.chunks_mut(4)
                .enumerate()
                .map(|(i, chunk)| move || chunk.iter_mut().for_each(|x| *x = i as u64)),
        );
        assert_eq!(data, [0, 0, 0, 0, 1, 1, 1, 1, 2, 2]);
    }

    #[test]
    fn empty_batch_is_noop() {
        let pool = WorkPool::new(2);
        pool.scoped(std::iter::empty::<fn()>());
    }

    #[test]
    fn more_tasks_than_threads() {
        let pool = WorkPool::new(2);
        let counter = AtomicU64::new(0);
        pool.scoped((0..64).map(|i| {
            let counter = &counter;
            move || {
                counter.fetch_add(i, Ordering::Relaxed);
            }
        }));
        assert_eq!(counter.load(Ordering::Relaxed), (0..64).sum::<u64>());
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn propagates_panics() {
        let pool = WorkPool::new(2);
        pool.scoped((0..4).map(|i| {
            move || {
                if i == 2 {
                    panic!("boom");
                }
            }
        }));
    }

    #[test]
    fn panic_payload_message_survives() {
        let pool = WorkPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped([42u32].map(|code| move || panic!("task failed with code {code}")));
        }));
        let payload = result.expect_err("the task's panic must propagate");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
            .expect("payload should be the original panic message");
        assert_eq!(msg, "task failed with code 42");
    }

    #[test]
    fn first_of_many_panics_is_rethrown() {
        // All tasks panic; the rethrown payload must be one of the
        // original messages, not a synthesized summary.
        let pool = WorkPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped((0..4).map(|i| move || panic!("worker {i} exploded")));
        }));
        let payload = result.expect_err("panics must propagate");
        let msg = payload.downcast_ref::<String>().expect("original payload");
        assert!(msg.contains("exploded"), "unexpected payload: {msg}");
    }

    #[test]
    fn stage_pool_accounts_busy_time() {
        let pool = StagePool::new(2);
        assert_eq!(pool.threads(), 2);
        assert_eq!(pool.busy(), Duration::ZERO);
        let counter = AtomicU64::new(0);
        pool.scoped((0..8).map(|_| {
            || {
                std::thread::sleep(Duration::from_millis(2));
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(counter.load(Ordering::Relaxed), 8);
        // 8 tasks x 2ms each, summed across workers.
        assert!(
            pool.busy() >= Duration::from_millis(16),
            "busy = {:?}",
            pool.busy()
        );
        pool.reset_busy();
        assert_eq!(pool.busy(), Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "stage boom")]
    fn stage_pool_propagates_panics() {
        let pool = StagePool::new(2);
        pool.scoped([|| panic!("stage boom")]);
    }

    #[test]
    fn pool_survives_task_panic() {
        let pool = WorkPool::new(2);
        let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.scoped(
                [|| panic!("first batch dies")]
                    .into_iter()
                    .map(|f| f as fn()),
            );
        }));
        assert!(result.is_err());
        // Pool still works afterwards.
        let counter = AtomicU64::new(0);
        pool.scoped((0..8).map(|_| {
            || {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }

    #[test]
    fn zero_thread_request_clamps_to_one() {
        let pool = WorkPool::new(0);
        assert_eq!(pool.threads(), 1);
        let counter = AtomicU64::new(0);
        pool.scoped((0..3).map(|_| {
            || {
                counter.fetch_add(1, Ordering::Relaxed);
            }
        }));
        assert_eq!(counter.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn split_range_covers_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for parts in [1usize, 2, 3, 7, 16] {
                let mut covered = 0;
                let mut prev_end = 0;
                for i in 0..parts {
                    let (s, e) = split_range(len, parts, i);
                    assert_eq!(s, prev_end);
                    assert!(e >= s);
                    covered += e - s;
                    prev_end = e;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn split_range_sizes_differ_by_at_most_one() {
        let sizes: Vec<usize> = (0..7)
            .map(|i| {
                let (s, e) = split_range(100, 7, i);
                e - s
            })
            .collect();
        let min = *sizes.iter().min().unwrap();
        let max = *sizes.iter().max().unwrap();
        assert!(max - min <= 1);
    }

    #[test]
    fn split_mut_partitions_slice() {
        let mut v: Vec<u32> = (0..10).collect();
        let parts = split_mut(&mut v, 3);
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], &[0, 1, 2, 3]);
        assert_eq!(parts[1], &[4, 5, 6]);
        assert_eq!(parts[2], &[7, 8, 9]);
    }

    #[test]
    fn parallel_copy_is_exact() {
        let pool = WorkPool::new(4);
        let src: Vec<u64> = (0..10_001).collect();
        let mut dst = vec![0u64; 10_001];
        parallel_copy(&pool, &src, &mut dst);
        assert_eq!(src, dst);
        parallel_copy::<u64>(&pool, &[], &mut []);
    }

    #[test]
    fn copy_parts_splits_at_most_once_per_element() {
        let src: Vec<u64> = (0..5).collect();
        let mut dst = vec![0u64; 5];
        assert!(copy_parts::<u64>(&[], &mut [], 4).is_empty());
        assert_eq!(copy_parts(&src, &mut dst, 0).len(), 1);
        assert_eq!(copy_parts(&src, &mut dst, 3).len(), 3);
        assert_eq!(copy_parts(&src, &mut dst, 9).len(), 5);
    }

    /// A stage pool runs the copy emitter's tasks as they come.
    #[test]
    fn copy_split_is_exact_for_any_parts() {
        let pool = StagePool::new(3);
        let src: Vec<u64> = (0..997).collect();
        for parts in [1usize, 2, 5, 2000] {
            let mut dst = vec![0u64; src.len()];
            pool.scoped(copy_parts(&src, &mut dst, parts));
            assert_eq!(src, dst);
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn copy_of_unequal_lengths_is_refused() {
        let _ = copy_parts(&[1u64, 2, 3], &mut [0u64; 2], 2);
    }
}
