//! The per-node ready queue: job indices in queue order, plus the same
//! jobs indexed by *fit class* for the fleet's steal lookup.
//!
//! A node numbers the jobs placed on it 0, 1, 2, … and queues them in
//! that order, so the queue is always ascending in job index — removal
//! from the middle (SJF, fair-share, stealing) keeps it so. Three things
//! follow. The head leaves in O(1) (an offset moves; nothing is shifted),
//! where a plain `Vec::remove(0)` is a memmove of a queue that runs to
//! tens of thousands of jobs at fleet scale. "The first queued job after
//! the head that a given thief could start right now" needs no walk down
//! the queue: a thief's verdict depends only on the job's [`FitClass`], so
//! the answer is the smallest job index among each accepted class's first
//! non-head member — one probe per class instead of one per queued job,
//! returning the *same* job the walk would. And that job leaves in O(1)
//! too: it is named by its index, not its position, and what it leaves
//! behind is a hole, closed in bulk later — under first-fit pile-ups the
//! stealable jobs sit behind a run of ~10⁵ strict elephants no thief can
//! host, and closing each gap at once was a memmove of that run per steal.

use std::collections::VecDeque;

use mlm_core::Placement;

/// Everything `can_ever_fit` / `fits_now` read from a queued job: two
/// jobs of one class get the same verdict from any node in any state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FitClass {
    /// Pinned to MCDRAM even on a spill-capable node.
    pub strict: bool,
    /// Where the job asked for its buffers.
    pub placement: Placement,
    /// Bytes of chunk buffers at that placement (zero for implicit jobs).
    pub buffer_bytes: u64,
}

/// Below this many dead slots, compacting is not worth a pass.
const COMPACT_MIN: usize = 32;

/// `bucket_of` entry of a job that has left the queue.
const GONE: u32 = u32::MAX;

#[derive(Default)]
pub(crate) struct ReadyQueue {
    /// Queued job indices from `head` on, ascending. A job [`Self::take`]n
    /// from the middle stays as a *hole* (`bucket_of` says [`GONE`]) until
    /// the next compaction; `order[head]`, when there is one, is live.
    order: Vec<usize>,
    head: usize,
    holes: usize,
    /// One bucket per class ever queued here; members ascending.
    buckets: Vec<(FitClass, VecDeque<usize>)>,
    /// Bucket of each job ever queued here, by job index.
    bucket_of: Vec<u32>,
}

impl ReadyQueue {
    pub fn len(&self) -> usize {
        self.order.len() - self.head - self.holes
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The head alone, as a slice of one (or none): all a FIFO pass reads,
    /// and free of the hole-closing [`Self::as_slice`] may have to do.
    pub fn head_slice(&self) -> &[usize] {
        &self.order[self.head..self.order.len().min(self.head + 1)]
    }

    /// Queued job indices in queue order, holes closed first.
    pub fn as_slice(&mut self) -> &[usize] {
        if self.holes > 0 {
            self.compact();
        }
        &self.order[self.head..]
    }

    /// Queued job indices in queue order, stepping over holes.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        let live = move |i: &usize| self.bucket_of[*i] != GONE;
        self.order[self.head..].iter().copied().filter(live)
    }

    /// Append job `idx`, which must be the next index this node hands out.
    pub fn push(&mut self, idx: usize, class: FitClass) {
        assert_eq!(idx, self.bucket_of.len(), "jobs queue in index order");
        let b = match self.buckets.iter().position(|(c, _)| *c == class) {
            Some(b) => b,
            None => {
                self.buckets.push((class, VecDeque::new()));
                self.buckets.len() - 1
            }
        };
        self.buckets[b].1.push_back(idx);
        self.bucket_of.push(b as u32);
        self.order.push(idx);
    }

    /// Remove and return the job at position `pos` of the slice
    /// [`Self::as_slice`] or [`Self::head_slice`] just returned.
    pub fn remove_at(&mut self, pos: usize) -> usize {
        let at = self.head + pos;
        let idx = self.order[at];
        if pos == 0 {
            self.head += 1;
            self.settle_head();
        } else {
            assert_eq!(self.holes, 0, "positions past the head need as_slice");
            // Close the gap at once, shifting the shorter side.
            if pos < self.len() / 2 {
                self.order.copy_within(self.head..at, self.head + 1);
                self.head += 1;
            } else {
                self.order.remove(at);
            }
        }
        self.leave_bucket(idx);
        idx
    }

    /// Remove job `idx`, queued somewhere behind the head (a steal), in
    /// O(1) whatever the queue length: its slot becomes a hole.
    pub fn take(&mut self, idx: usize) {
        assert_ne!(self.head_slice(), [idx], "the head is not stolen");
        self.holes += 1;
        self.leave_bucket(idx);
    }

    /// First job index *after the head* whose class `accept`s (called
    /// with one member of the class, at most once per class), or `None`.
    pub fn first_after_head(&self, mut accept: impl FnMut(usize) -> bool) -> Option<usize> {
        let head = *self.head_slice().first()?;
        let mut best = usize::MAX;
        for (_, members) in &self.buckets {
            let first = match members.front() {
                Some(&m) if m == head => members.get(1),
                m => m,
            };
            if let Some(&m) = first {
                if m < best && accept(m) {
                    best = m;
                }
            }
        }
        (best != usize::MAX).then_some(best)
    }

    fn leave_bucket(&mut self, idx: usize) {
        let b = std::mem::replace(&mut self.bucket_of[idx], GONE);
        let members = &mut self.buckets[b as usize].1;
        if members.front() == Some(&idx) {
            members.pop_front();
        } else {
            let m = members
                .binary_search(&idx)
                .expect("queued job is in its class bucket");
            members.remove(m);
        }
        let dead = self.head + self.holes;
        if dead >= COMPACT_MIN && dead * 2 >= self.order.len() {
            self.compact();
        }
    }

    /// Step `head` over holes until it rests on a live job (or the end).
    fn settle_head(&mut self) {
        while self
            .order
            .get(self.head)
            .is_some_and(|&i| self.bucket_of[i] == GONE)
        {
            self.head += 1;
            self.holes -= 1;
        }
    }

    /// Drop the slots before `head` and every hole after it.
    fn compact(&mut self) {
        let bucket_of = &self.bucket_of;
        self.order.drain(..self.head);
        self.order.retain(|&i| bucket_of[i] != GONE);
        self.head = 0;
        self.holes = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn class(strict: bool, buffer_bytes: u64) -> FitClass {
        FitClass {
            strict,
            placement: Placement::Hbw,
            buffer_bytes,
        }
    }

    #[test]
    fn removals_and_steals_keep_queue_order() {
        let mut q = ReadyQueue::default();
        for i in 0..200 {
            q.push(i, class(i % 3 == 0, (i % 2) as u64));
        }
        let mut model: Vec<usize> = (0..200).collect();
        // Positional removals: heads, near the front, near the back.
        for pos in [0, 0, 0, 1, 150, 90, 0, 3, 100, 0] {
            assert_eq!(q.as_slice(), &model[..]);
            assert_eq!(q.remove_at(pos), model.remove(pos));
        }
        // Steals leave holes: the walk and the length step over them, the
        // head never rests on one, and the slice closes them.
        for pos in [1, 1, 40, 2, 1, 120] {
            q.take(model.remove(pos));
            assert!(q.iter().eq(model.iter().copied()));
            assert_eq!(q.len(), model.len());
            assert_eq!(q.head_slice(), &model[..1]);
            assert_eq!(q.remove_at(0), model.remove(0));
        }
        assert_eq!(q.as_slice(), &model[..]);
        // Drain by alternating steals of the second job and head pops, so
        // holes pile up right behind the head (and compaction runs).
        while model.len() > 1 {
            q.take(model.remove(1));
            assert_eq!(q.remove_at(0), model.remove(0));
            assert_eq!(q.head_slice(), &model[..model.len().min(1)]);
        }
        while !q.is_empty() {
            assert_eq!(q.remove_at(0), model.remove(0));
        }
        assert_eq!((q.len(), q.holes), (0, 0));
        assert!(q.buckets.iter().all(|(_, m)| m.is_empty()));
        assert!(q.bucket_of.iter().all(|&b| b == GONE));
    }

    #[test]
    fn lookup_skips_the_head_and_probes_each_class_once() {
        let mut q = ReadyQueue::default();
        let (a, b) = (class(true, 6), class(false, 12));
        for c in [a, a, b, a, b] {
            q.push(q.bucket_of.len(), c);
        }
        // Head is job 0 (class a): the first a after it is job 1.
        assert_eq!(q.first_after_head(|_| true), Some(1));
        // Only class b accepted: job 2, found with one probe per class.
        let mut probes = 0;
        let only_b = |m: usize| {
            probes += 1;
            m == 2 || m == 4
        };
        assert_eq!(q.first_after_head(only_b), Some(2));
        assert_eq!(probes, 2);
        assert_eq!(q.first_after_head(|_| false), None);
        // Once job 2 is stolen, the next b is job 4.
        q.take(2);
        assert_eq!(q.first_after_head(|m| m == 4), Some(4));
        // A lone head is never offered.
        let mut lone = ReadyQueue::default();
        lone.push(0, a);
        assert_eq!(lone.first_after_head(|_| true), None);
    }
}
