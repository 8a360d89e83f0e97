//! The host-side buffer ring: the blocking realisation of the dataflow
//! dependency edges [`drive_verified`](crate::drive_verified) issues.
//!
//! [`drive_verified`](crate::drive_verified) expresses the non-lockstep schedule as token
//! dependencies: compute on chunk `c` after its copy-in, copy-out after
//! its compute, and copy-in of chunk `c` after copy-out of chunk
//! `c - RING_SLOTS` frees the slot. A host backend running real
//! coordinator threads realises those edges with this module's phase
//! machine: each of the [`RING_SLOTS`](crate::RING_SLOTS) slots cycles
//! `Empty(c) → Filled(c) → Computed(c) → Empty(c + RING_SLOTS)`, and a
//! coordinator blocks in [`BufSlot::await_phase`] until the phase that
//! hands it the buffer arrives. The phase baton and the condvar wakeup
//! protocol are machine-checked in `mlm-verify` (`models::condvar`, which
//! uses this module's [`Phase`]); the audit notes on each method point at
//! the checker variant that fails without it.

use std::any::Any;
use std::cell::UnsafeCell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Lifecycle of one ring slot. A slot cycles
/// `Empty(c) → Filled(c) → Computed(c) → Empty(c + RING_SLOTS)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Free for copy-in of chunk `chunk`.
    Empty,
    /// Holds the input of chunk `chunk`, ready for compute.
    Filled,
    /// Holds the output of chunk `chunk`, ready for copy-out.
    Computed,
}

#[derive(Debug, Clone, Copy)]
struct SlotState {
    phase: Phase,
    chunk: usize,
}

/// One slot of the three-buffer ring.
///
/// The `state` mutex + condvar implement the phase machine; `data` is
/// accessed through `UnsafeCell` because the coordinator that observed the
/// right phase holds *logical* exclusive ownership of the buffer until it
/// publishes the next phase — holding the mutex across a multi-megabyte
/// memcpy would serialize the stages the schedule exists to overlap.
pub struct BufSlot<T> {
    state: Mutex<SlotState>,
    cv: Condvar,
    data: UnsafeCell<Vec<T>>,
}

// SAFETY: `data` is only touched by the coordinator whose awaited phase
// grants it exclusive ownership (see the protocol in `await_phase` /
// `publish`); the mutex release/acquire pair on `state` provides the
// happens-before edge between the owner handing the buffer off and the
// next owner reading it.
//
// Why `T: Send` is the right bound (and `T: Sync` is not needed): sharing
// `&BufSlot<T>` across the three stage coordinators never produces
// concurrent `&T` access — the phase machine is a baton pass, so at any
// instant at most one thread holds any reference into the `Vec<T>`. What
// the protocol *does* do is hand the whole buffer from one thread to the
// next (copy-in fills it, compute mutates it, copy-out drains it), which
// is exactly an ownership transfer between threads — the capability
// `T: Send` licenses. Dropping to no bound would be unsound: e.g.
// `BufSlot<Rc<u64>>` would let copy-in clone `Rc`s that compute then
// drops on another thread, racing the non-atomic refcount. The protocol
// itself is machine-checked in `mlm-verify` (`models::condvar`, the phase
// baton and the wakeup discipline); this impl is the one line the checker
// cannot see, so the argument lives here.
//
// Compile-fail check (rustdoc does not run doctests on private items, so
// this is documentation, not an executed test — the claim it records is
// that the bound below rejects non-`Send` payloads):
//
// ```compile_fail
// let slot = BufSlot::<std::rc::Rc<u64>>::new(0);
// std::thread::scope(|s| { s.spawn(|| &slot); }); // Rc<u64>: !Send
// ```
unsafe impl<T: Send> Sync for BufSlot<T> {}

impl<T> BufSlot<T> {
    /// A fresh slot, `Empty` and awaiting copy-in of `first_chunk`.
    pub fn new(first_chunk: usize) -> Self {
        BufSlot {
            state: Mutex::new(SlotState {
                phase: Phase::Empty,
                chunk: first_chunk,
            }),
            cv: Condvar::new(),
            data: UnsafeCell::new(Vec::new()),
        }
    }

    /// Block until this slot reaches `(phase, chunk)`, returning the time
    /// spent blocked. Panics if a peer stage has poisoned the run.
    ///
    /// Audit note (mlm-verify `models::condvar`): the predicate is
    /// re-checked after *every* wakeup. Two distinct waiters can park on
    /// this one condvar (copy-out awaiting `Computed(c)` and copy-in
    /// awaiting `Empty(c + 3)` share slot `c % 3`), so a wakeup proves
    /// nothing about *whose* predicate became true; claiming without the
    /// re-check is the checker's `NoRecheck` ownership violation, and it
    /// also absorbs spurious wakeups.
    pub fn await_phase(&self, phase: Phase, chunk: usize, poisoned: &AtomicBool) -> Duration {
        let t0 = Instant::now();
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if poisoned.load(Ordering::SeqCst) {
                // panic_any keeps the payload a `&str`, which is how
                // `is_poison_payload` recognizes secondary aborts.
                std::panic::panic_any(POISON_MSG);
            }
            if st.phase == phase && st.chunk == chunk {
                return t0.elapsed();
            }
            st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner());
        }
    }

    /// Publish this slot's next `(phase, chunk)` and wake all waiters.
    ///
    /// Audit note (mlm-verify `models::condvar`): the store and the notify
    /// both happen under the slot lock, so no waiter can check the old
    /// state and park in between (`PoisonSkipLock`'s lost wakeup); and it
    /// must be `notify_all`, because with two kinds of waiters per slot a
    /// `notify_one` token can land on the waiter whose predicate is still
    /// false (`NotifyOne`'s deadlock, reachable from 4 chunks on).
    pub fn publish(&self, phase: Phase, chunk: usize) {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        *st = SlotState { phase, chunk };
        self.cv.notify_all();
    }

    /// The slot's buffer, mutably.
    ///
    /// # Safety
    /// The caller must hold the phase baton: it has observed (via
    /// [`await_phase`](Self::await_phase)) the phase that grants its stage
    /// exclusive ownership of the buffer, and must not use the reference
    /// after publishing the next phase.
    #[allow(clippy::mut_from_ref)]
    // SAFETY: contract documented in `# Safety` above — the caller's
    // observed phase is the exclusive-ownership token for the buffer.
    pub unsafe fn data_mut(&self) -> &mut Vec<T> {
        // SAFETY: forwarded to the caller — the phase baton guarantees at
        // most one coordinator holds any reference into the buffer.
        unsafe { &mut *self.data.get() }
    }

    /// The slot's buffer, shared.
    ///
    /// # Safety
    /// Same contract as [`data_mut`](Self::data_mut): the caller's stage
    /// owns the buffer for the current phase.
    // SAFETY: contract documented in `# Safety` above, as in `data_mut`.
    pub unsafe fn data_ref(&self) -> &Vec<T> {
        // SAFETY: forwarded to the caller, as in `data_mut`.
        unsafe { &*self.data.get() }
    }
}

/// Panic message used when a stage aborts because a *peer* stage panicked;
/// recognized by [`is_poison_payload`] so the original panic payload wins
/// when both propagate.
pub const POISON_MSG: &str = "host pipeline dataflow run aborted: a peer stage panicked";

/// Is `payload` a secondary abort (a stage that died because a peer
/// poisoned the ring), as opposed to the original panic?
pub fn is_poison_payload(payload: &(dyn Any + Send)) -> bool {
    payload.downcast_ref::<&str>() == Some(&POISON_MSG)
}

/// Mark the run poisoned and wake every coordinator. Taking each slot's
/// lock before notifying guarantees no coordinator can re-check the flag
/// and park between our store and our notify (no lost wakeups).
///
/// mlm-verify's `models::condvar` checks exactly this discipline: its
/// `Correct` variant (which locks here) verifies deadlock-free with poison
/// injected at every (stage, chunk), while `PoisonSkipLock` (notify
/// without the lock) deadlocks a waiter parked in that window.
fn poison<T>(slots: &[BufSlot<T>], poisoned: &AtomicBool) {
    poisoned.store(true, Ordering::SeqCst);
    for slot in slots {
        let _guard = slot.state.lock().unwrap_or_else(|e| e.into_inner());
        slot.cv.notify_all();
    }
}

/// Outcome of one coordinator: cumulative blocked time, or the panic
/// payload that killed it.
pub type StageResult = Result<Duration, Box<dyn Any + Send>>;

/// Run one stage coordinator, converting a panic into a poisoned ring (so
/// the peer stages wake up and abort instead of deadlocking on a phase
/// that will never come) plus the captured payload.
pub fn coordinate<T>(
    slots: &[BufSlot<T>],
    poisoned: &AtomicBool,
    body: impl FnOnce() -> Duration,
) -> StageResult {
    match catch_unwind(AssertUnwindSafe(body)) {
        Ok(waited) => Ok(waited),
        Err(payload) => {
            poison(slots, poisoned);
            Err(payload)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn baton_pass_carries_the_buffer_between_threads() {
        let slots: Vec<BufSlot<u64>> = (0..3).map(BufSlot::new).collect();
        let poisoned = AtomicBool::new(false);
        let slots = &slots;
        let poisoned = &poisoned;
        std::thread::scope(|s| {
            s.spawn(move || {
                for c in 0..6usize {
                    let slot = &slots[c % 3];
                    slot.await_phase(Phase::Empty, c, poisoned);
                    // SAFETY: Empty(c) hands this thread the buffer.
                    unsafe { slot.data_mut() }.push(c as u64);
                    slot.publish(Phase::Filled, c);
                }
            });
            s.spawn(move || {
                for c in 0..6usize {
                    let slot = &slots[c % 3];
                    slot.await_phase(Phase::Filled, c, poisoned);
                    // SAFETY: Filled(c) hands this thread the buffer.
                    assert_eq!(unsafe { slot.data_ref() }.last(), Some(&(c as u64)));
                    slot.publish(Phase::Empty, c + 3);
                }
            });
        });
    }

    #[test]
    fn coordinate_poisons_peers_on_panic() {
        let slots: Vec<BufSlot<u64>> = (0..3).map(BufSlot::new).collect();
        let poisoned = AtomicBool::new(false);
        let r = coordinate(&slots, &poisoned, || panic!("kernel died"));
        assert!(r.is_err());
        assert!(poisoned.load(Ordering::SeqCst));
        // A waiter that arrives after the poison aborts instead of parking
        // forever; its payload is recognizably secondary.
        let r2 = coordinate(&slots, &poisoned, || {
            slots[0].await_phase(Phase::Computed, 99, &poisoned)
        });
        match r2 {
            // `&*p`, not `&p`: a plain `&p` unsize-coerces the `Box` itself
            // into `dyn Any`, hiding the payload from the downcast.
            Err(p) => assert!(is_poison_payload(&*p)),
            Ok(_) => panic!("waiter must abort on a poisoned ring"),
        }
    }
}
