//! Programs: per-thread op sequences with cross-thread dependencies.
//!
//! A [`Program`] is the unit of simulation. Software layers (the chunking
//! pipeline, the sort builders) lower an algorithm + schedule into a program;
//! the [`crate::engine::Simulator`] executes it in virtual time.
//!
//! Each op belongs to a simulated hardware thread and threads execute their
//! ops strictly in push order. Cross-thread ordering (pipeline steps,
//! barriers) is expressed with explicit dependencies: an op starts only when
//! it is at the front of its thread's queue *and* all of its dependencies
//! have completed.
//!
//! A dependency list is stored once: a lockstep phase hands the same
//! `threads`-entry list to every op of the phase, and those ops share one
//! allocation ([`Op::deps`]), so a program costs memory and set-up time
//! proportional to its ops, not to its dependency edges.

use std::sync::Arc;

use crate::error::SimError;

/// Identifier of an op within a [`Program`] (dense, in push order).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(transparent)]
pub struct OpId(pub usize);

/// `ids` as the raw `usize`s they wrap, so that comparing two lists is
/// one `bcmp` instead of a loop over [`OpId`]'s derived `==`.
fn raw_ids(ids: &[OpId]) -> &[usize] {
    // SAFETY: `OpId` is `#[repr(transparent)]` over `usize`, so a slice of
    // `OpId`s has the layout, alignment and length of the `usize` slice
    // returned, which borrows the same memory for the same lifetime.
    unsafe { std::slice::from_raw_parts(ids.as_ptr().cast::<usize>(), ids.len()) }
}

/// A stored dependency list, shared by every op pushed with it.
type Deps = Arc<[OpId]>;

/// Identifier of a simulated hardware thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ThreadId(pub usize);

/// Where an access lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Place {
    /// Directly addressed DDR, bypassing the MCDRAM cache (flat-mode DDR,
    /// or any DDR access while the machine is in flat mode).
    Ddr,
    /// Directly addressed MCDRAM (flat mode or the flat part of hybrid).
    Mcdram,
    /// DDR address range accessed *through* the MCDRAM cache (cache or
    /// hybrid mode). `addr` is the DDR byte address of the start of the
    /// touched range; the access covers `[addr, addr + bytes)`.
    CachedDdr {
        /// Starting DDR byte address of the range.
        addr: u64,
    },
}

/// One logical memory access of an op: `bytes` bytes read from or written
/// to `place`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Access {
    /// Target of the access.
    pub place: Place,
    /// Bytes touched.
    pub bytes: u64,
    /// True for writes (affects cache dirty state and writebacks).
    pub write: bool,
}

impl Access {
    /// Read `bytes` from `place`.
    pub fn read(place: Place, bytes: u64) -> Self {
        Access {
            place,
            bytes,
            write: false,
        }
    }

    /// Write `bytes` to `place`.
    pub fn write(place: Place, bytes: u64) -> Self {
        Access {
            place,
            bytes,
            write: true,
        }
    }
}

/// The work a single op performs.
#[derive(Debug, Clone, PartialEq)]
pub enum OpKind {
    /// Bulk transfer: read `bytes` from `src`, write `bytes` to `dst`,
    /// at a per-thread logical rate of at most `rate_cap` moved bytes/s
    /// (the paper's `S_copy`).
    Copy {
        /// Source of the transfer (read side).
        src: Place,
        /// Destination of the transfer (write side).
        dst: Place,
        /// Bytes moved.
        bytes: u64,
        /// Per-thread cap on moved bytes/s.
        rate_cap: f64,
    },
    /// Streaming compute: the op makes the listed accesses; its *logical
    /// bytes* are the total traffic (sum of access bytes), progressing at a
    /// per-thread rate of at most `rate_cap` traffic bytes/s (the paper's
    /// `S_comp`).
    Stream {
        /// The accesses (reads and writes) this op performs.
        accesses: Vec<Access>,
        /// Per-thread cap on total traffic bytes/s.
        rate_cap: f64,
    },
    /// Fixed virtual-time delay (models fork/join and bookkeeping costs).
    Delay {
        /// Seconds of virtual time.
        seconds: f64,
    },
}

impl OpKind {
    /// Convenience constructor for a plain [`OpKind::Copy`].
    pub fn copy(src: Place, dst: Place, bytes: u64, rate_cap: f64) -> Self {
        OpKind::Copy {
            src,
            dst,
            bytes,
            rate_cap,
        }
    }

    /// Convenience constructor for a [`OpKind::Stream`] that reads and
    /// writes the same number of bytes at a single place — the shape of an
    /// in-place pass (partition step, in-place merge half, STREAM kernel).
    pub fn inplace_pass(place: Place, bytes: u64, rate_cap: f64) -> Self {
        OpKind::Stream {
            accesses: vec![Access::read(place, bytes), Access::write(place, bytes)],
            rate_cap,
        }
    }

    /// Total logical bytes of this op (0 for delays).
    pub fn logical_bytes(&self) -> u64 {
        match self {
            OpKind::Copy { bytes, .. } => 2 * *bytes,
            OpKind::Stream { accesses, .. } => accesses.iter().map(|a| a.bytes).sum(),
            OpKind::Delay { .. } => 0,
        }
    }

    fn validate(&self) -> Result<(), SimError> {
        match self {
            OpKind::Copy {
                bytes, rate_cap, ..
            } => {
                if *bytes == 0 {
                    return Err(SimError::BadOp("copy of zero bytes".into()));
                }
                if !rate_cap.is_finite() || *rate_cap <= 0.0 {
                    return Err(SimError::BadOp(format!(
                        "copy rate_cap {rate_cap} must be > 0"
                    )));
                }
            }
            OpKind::Stream { accesses, rate_cap } => {
                if accesses.is_empty() || accesses.iter().all(|a| a.bytes == 0) {
                    return Err(SimError::BadOp("stream op with no bytes".into()));
                }
                if !rate_cap.is_finite() || *rate_cap <= 0.0 {
                    return Err(SimError::BadOp(format!(
                        "stream rate_cap {rate_cap} must be > 0"
                    )));
                }
            }
            OpKind::Delay { seconds } => {
                if !seconds.is_finite() || *seconds < 0.0 {
                    return Err(SimError::BadOp(format!("delay of {seconds} seconds")));
                }
            }
        }
        Ok(())
    }
}

/// An op plus its scheduling metadata.
#[derive(Debug, Clone)]
pub struct Op {
    /// What the op does.
    pub kind: OpKind,
    /// The simulated thread executing this op.
    pub thread: ThreadId,
    /// Ops that must complete before this one can start (in addition to the
    /// implicit program order on `thread`). Ops pushed with the same list
    /// share one allocation; consumers that see the same pointer twice
    /// ([`Arc::ptr_eq`]) may treat the second as already handled.
    pub deps: Arc<[OpId]>,
    /// Optional label for traces and error messages.
    pub label: Option<String>,
}

/// A complete simulation input: a fixed thread count and an op list.
#[derive(Debug, Clone, Default)]
pub struct Program {
    threads: usize,
    ops: Vec<Op>,
    /// The most recent dependency list of two or more ids, offered to the
    /// next push with equal contents. Single-id lists never displace it:
    /// lowerings interleave `&[prev]` and `&[]` pushes between the ops of
    /// one phase, and a one-id list is not worth a comparison.
    shared: Deps,
    dep_lists: usize,
    dep_ids: usize,
}

impl Program {
    /// Create a program for `threads` simulated hardware threads.
    pub fn new(threads: usize) -> Self {
        Program {
            threads,
            ..Program::default()
        }
    }

    /// Number of simulated threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The ops in push order.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Append an op executing on `thread` after `deps`. Returns its id.
    pub fn push(&mut self, thread: usize, kind: OpKind, deps: &[OpId]) -> OpId {
        self.push_labeled(thread, kind, deps, None)
    }

    /// Distinct dependency lists stored (allocations; empty lists are free).
    pub fn dep_lists(&self) -> usize {
        self.dep_lists
    }

    /// Dependency ids stored, summed over [`Self::dep_lists`] — the
    /// program's edge memory. Grows with ops, not with `threads²`, as long
    /// as the ops of a phase are pushed with equal lists.
    pub fn dep_ids(&self) -> usize {
        self.dep_ids
    }

    /// Append a labeled op (labels show up in deadlock diagnostics).
    pub fn push_labeled(
        &mut self,
        thread: usize,
        kind: OpKind,
        deps: &[OpId],
        label: Option<String>,
    ) -> OpId {
        let deps = self.share(deps);
        self.push_shared(thread, kind, deps, label)
    }

    /// The stored list holding `deps`: the remembered one when its
    /// contents are equal (one bytewise compare, no allocation), else a
    /// new allocation. The compare runs once per pushed op, over lists of
    /// up to `threads` ids, so it must not be an element loop.
    fn share(&mut self, deps: &[OpId]) -> Deps {
        if deps.is_empty() {
            return Arc::default();
        }
        if raw_ids(&self.shared) == raw_ids(deps) {
            return self.shared.clone();
        }
        self.dep_lists += 1;
        self.dep_ids += deps.len();
        let list: Deps = deps.into();
        if deps.len() > 1 {
            self.shared = list.clone();
        }
        list
    }

    fn push_shared(
        &mut self,
        thread: usize,
        kind: OpKind,
        deps: Deps,
        label: Option<String>,
    ) -> OpId {
        let id = OpId(self.ops.len());
        self.ops.push(Op {
            kind,
            thread: ThreadId(thread),
            deps,
            label,
        });
        id
    }

    /// Add a full barrier: returns a set of zero-cost ops, one per thread in
    /// `threads`, each depending on `after`, such that making later ops
    /// depend on the returned ids serializes the two phases. As a
    /// convenience the returned vector can be used directly as the `deps`
    /// of every op in the next phase.
    pub fn barrier(
        &mut self,
        threads: impl IntoIterator<Item = usize>,
        after: &[OpId],
    ) -> Vec<OpId> {
        let after = self.share(after);
        threads
            .into_iter()
            .map(|t| self.push_shared(t, OpKind::Delay { seconds: 0.0 }, after.clone(), None))
            .collect()
    }

    /// Splice `other` into this program with its threads shifted by
    /// `thread_offset`, returning the new ids of `other`'s ops in push
    /// order (`other`'s `OpId(i)` becomes `returned[i]`).
    ///
    /// This is how independent per-job programs compose into one
    /// co-scheduled simulation: each job is built in isolation on threads
    /// `0..k`, then spliced onto its own thread block of the combined
    /// program, where the bandwidth arbiter makes the jobs' flows contend.
    /// In-thread push order is preserved, so ops pushed on a target thread
    /// *before* the splice (e.g. a [`OpKind::Delay`] modeling the job's
    /// arrival time) gate every spliced op on that thread.
    ///
    /// Fails with [`SimError::BadThread`] when `other` does not fit the
    /// thread range `thread_offset..self.threads()`.
    pub fn splice(&mut self, other: &Program, thread_offset: usize) -> Result<Vec<OpId>, SimError> {
        if thread_offset + other.threads > self.threads {
            return Err(SimError::BadThread {
                thread: thread_offset + other.threads.saturating_sub(1),
                threads: self.threads,
            });
        }
        let base = self.ops.len();
        let mut ids = Vec::with_capacity(other.ops.len());
        // A list `other` shares is remapped once and stays shared here.
        let mut remapped: Option<(&Deps, Deps)> = None;
        for (i, op) in other.ops.iter().enumerate() {
            let deps = match &remapped {
                Some((theirs, ours)) if Arc::ptr_eq(theirs, &op.deps) => ours.clone(),
                _ => {
                    let shifted: Vec<OpId> = op.deps.iter().map(|d| OpId(base + d.0)).collect();
                    let ours = self.share(&shifted);
                    if shifted.len() > 1 {
                        remapped = Some((&op.deps, ours.clone()));
                    }
                    ours
                }
            };
            let id = self.push_shared(
                op.thread.0 + thread_offset,
                op.kind.clone(),
                deps,
                op.label.clone(),
            );
            debug_assert_eq!(id.0, base + i);
            ids.push(id);
        }
        Ok(ids)
    }

    /// Validate thread indices, dependency ordering (deps must reference
    /// earlier ops), and op well-formedness.
    pub fn validate(&self) -> Result<(), SimError> {
        // A shared list is checked against the first op using it — the
        // lowest id, so the strictest bound — and skipped for the rest.
        let mut checked: Option<&Deps> = None;
        for (i, op) in self.ops.iter().enumerate() {
            if op.thread.0 >= self.threads {
                return Err(SimError::BadThread {
                    thread: op.thread.0,
                    threads: self.threads,
                });
            }
            if !checked.is_some_and(|list| Arc::ptr_eq(list, &op.deps)) {
                if let Some(d) = op.deps.iter().find(|d| d.0 >= i) {
                    return Err(SimError::BadDependency { op: i, dep: d.0 });
                }
                if op.deps.len() > 1 {
                    checked = Some(&op.deps);
                }
            }
            op.kind.validate()?;
        }
        Ok(())
    }

    /// Sum of logical bytes over all ops — a cheap size metric for tests.
    pub fn total_logical_bytes(&self) -> u64 {
        self.ops.iter().map(|o| o.kind.logical_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_assigns_dense_ids() {
        let mut p = Program::new(2);
        let a = p.push(0, OpKind::Delay { seconds: 0.0 }, &[]);
        let b = p.push(1, OpKind::Delay { seconds: 1.0 }, &[a]);
        assert_eq!(a, OpId(0));
        assert_eq!(b, OpId(1));
        assert_eq!(p.ops().len(), 2);
        p.validate().unwrap();
    }

    #[test]
    fn validate_rejects_bad_thread() {
        let mut p = Program::new(1);
        p.push(3, OpKind::Delay { seconds: 0.0 }, &[]);
        assert!(matches!(
            p.validate(),
            Err(SimError::BadThread {
                thread: 3,
                threads: 1
            })
        ));
    }

    #[test]
    fn validate_rejects_forward_dependency() {
        let mut p = Program::new(1);
        p.push(0, OpKind::Delay { seconds: 0.0 }, &[OpId(5)]);
        assert!(matches!(
            p.validate(),
            Err(SimError::BadDependency { op: 0, dep: 5 })
        ));
    }

    #[test]
    fn validate_rejects_self_dependency() {
        let mut p = Program::new(1);
        p.push(0, OpKind::Delay { seconds: 0.0 }, &[OpId(0)]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn validate_rejects_malformed_ops() {
        let mut p = Program::new(1);
        p.push(0, OpKind::copy(Place::Ddr, Place::Mcdram, 0, 1.0), &[]);
        assert!(p.validate().is_err());

        let mut p = Program::new(1);
        p.push(0, OpKind::copy(Place::Ddr, Place::Mcdram, 10, 0.0), &[]);
        assert!(p.validate().is_err());

        let mut p = Program::new(1);
        p.push(
            0,
            OpKind::Stream {
                accesses: vec![],
                rate_cap: 1.0,
            },
            &[],
        );
        assert!(p.validate().is_err());

        let mut p = Program::new(1);
        p.push(0, OpKind::Delay { seconds: -1.0 }, &[]);
        assert!(p.validate().is_err());

        let mut p = Program::new(1);
        p.push(0, OpKind::Delay { seconds: f64::NAN }, &[]);
        assert!(p.validate().is_err());
    }

    #[test]
    fn logical_bytes_accounting() {
        assert_eq!(
            OpKind::copy(Place::Ddr, Place::Mcdram, 100, 1.0).logical_bytes(),
            200
        );
        assert_eq!(
            OpKind::inplace_pass(Place::Mcdram, 50, 1.0).logical_bytes(),
            100
        );
        assert_eq!(OpKind::Delay { seconds: 1.0 }.logical_bytes(), 0);

        let mut p = Program::new(1);
        p.push(0, OpKind::copy(Place::Ddr, Place::Mcdram, 100, 1.0), &[]);
        p.push(0, OpKind::inplace_pass(Place::Ddr, 50, 1.0), &[]);
        assert_eq!(p.total_logical_bytes(), 300);
    }

    #[test]
    fn barrier_creates_one_op_per_thread() {
        let mut p = Program::new(4);
        let a = p.push(0, OpKind::Delay { seconds: 1.0 }, &[]);
        let bar = p.barrier(0..4, &[a]);
        assert_eq!(bar.len(), 4);
        p.validate().unwrap();
    }

    #[test]
    fn splice_remaps_threads_and_deps() {
        let mut job = Program::new(2);
        let a = job.push(0, OpKind::copy(Place::Ddr, Place::Mcdram, 10, 1.0), &[]);
        let _ = job.push(1, OpKind::inplace_pass(Place::Mcdram, 10, 1.0), &[a]);

        let mut combined = Program::new(5);
        // Arrival gate ahead of the job's ops on its thread block.
        combined.push(3, OpKind::Delay { seconds: 2.0 }, &[]);
        combined.push(4, OpKind::Delay { seconds: 2.0 }, &[]);
        let ids = combined.splice(&job, 3).unwrap();
        assert_eq!(ids.len(), 2);
        let spliced_a = &combined.ops()[ids[0].0];
        let spliced_b = &combined.ops()[ids[1].0];
        assert_eq!(spliced_a.thread, ThreadId(3));
        assert_eq!(spliced_b.thread, ThreadId(4));
        assert_eq!(*spliced_b.deps, [ids[0]]);
        assert_eq!(spliced_a.kind, job.ops()[a.0].kind);
        combined.validate().unwrap();
    }

    #[test]
    fn splice_rejects_overflowing_thread_block() {
        let job = Program::new(4);
        let mut combined = Program::new(5);
        assert!(matches!(
            combined.splice(&job, 2),
            Err(SimError::BadThread { .. })
        ));
        assert!(combined.splice(&job, 1).is_ok());
    }

    #[test]
    fn splice_of_empty_program_is_a_noop() {
        let mut combined = Program::new(2);
        let ids = combined.splice(&Program::new(1), 1).unwrap();
        assert!(ids.is_empty());
        assert!(combined.ops().is_empty());
    }

    #[test]
    fn equal_lists_are_stored_once_however_the_caller_passes_them() {
        let instant = || OpKind::Delay { seconds: 0.0 };
        let build = |fresh: bool| {
            let mut p = Program::new(4);
            let a = p.push(0, instant(), &[]);
            let b = p.push(1, instant(), &[]);
            let wave = [a, b];
            for t in 0..4 {
                // The shape of a cache-mode sort phase: the phase's list,
                // then a one-id list and an empty one on the same thread.
                let own = wave.to_vec();
                let first = p.push(t, instant(), if fresh { &own } else { &wave });
                p.push(t, instant(), &[first]);
                p.push(t, instant(), &[]);
            }
            p
        };
        let (reused, fresh) = (build(false), build(true));
        for p in [&reused, &fresh] {
            p.validate().unwrap();
            assert_eq!(p.dep_lists(), 1 + 4, "one wave list + four one-id lists");
            assert_eq!(p.dep_ids(), 2 + 4);
            let users: Vec<&Op> = p.ops().iter().filter(|op| op.deps.len() == 2).collect();
            assert_eq!(users.len(), 4);
            assert!(users.iter().all(|op| Arc::ptr_eq(&op.deps, &users[0].deps)));
        }
        let lists =
            |p: &Program| -> Vec<Vec<OpId>> { p.ops().iter().map(|op| op.deps.to_vec()).collect() };
        assert_eq!(lists(&reused), lists(&fresh));
    }

    #[test]
    fn validate_names_the_first_op_using_a_bad_shared_list() {
        for bad in [3, 2] {
            // Ops 2, 3 and 4 share [0, bad]: a forward reference for op 2
            // when `bad` is 3, a self-dependency when it is 2.
            let mut p = Program::new(3);
            let a = p.push(0, OpKind::Delay { seconds: 0.0 }, &[]);
            p.push(1, OpKind::Delay { seconds: 0.0 }, &[]);
            p.barrier(0..3, &[a, OpId(bad)]);
            assert_eq!(p.dep_lists(), 1);
            assert_eq!(
                p.validate(),
                Err(SimError::BadDependency { op: 2, dep: bad })
            );
        }
    }

    #[test]
    fn splice_keeps_shared_lists_shared_and_remaps_every_id() {
        let (width, rounds) = (16, 6);
        let mut job = Program::new(width);
        let mut deps = Vec::new();
        for _ in 0..rounds {
            deps = job.barrier(0..width, &deps);
        }
        let mut combined = Program::new(2 * width);
        for t in 0..2 * width {
            combined.push(t, OpKind::Delay { seconds: 1.0 }, &[]);
        }
        let base = combined.ops().len();
        let ids = combined.splice(&job, width).unwrap();
        assert_eq!(combined.dep_lists(), job.dep_lists());
        assert_eq!(combined.dep_ids(), job.dep_ids());
        for (theirs, &id) in job.ops().iter().zip(&ids) {
            let ours = &combined.ops()[id.0];
            assert_eq!(ours.thread.0, theirs.thread.0 + width);
            let shifted: Vec<OpId> = theirs.deps.iter().map(|d| OpId(base + d.0)).collect();
            assert_eq!(*ours.deps, *shifted);
        }
        combined.validate().unwrap();
    }

    #[test]
    fn program_is_clone_and_send() {
        fn assert_clone_send<T: Clone + Send>() {}
        assert_clone_send::<Program>();
    }

    #[test]
    fn access_constructors() {
        let r = Access::read(Place::Ddr, 10);
        assert!(!r.write);
        let w = Access::write(Place::Mcdram, 10);
        assert!(w.write);
    }
}
