//! Mutex/condvar-granularity model of the buffer-ring synchronization.
//!
//! Three stage coordinators (copy-in, compute, copy-out) walk the chunk
//! sequence, synchronizing only through a ring of `slots` buffers whose
//! per-slot [`Phase`] cycles `Empty(c) → Filled(c) → Computed(c) →
//! Empty(c + slots)`. Each coordinator's fan-out to its stage pool is not
//! modelled: `StagePool::scoped` is a join, which cannot lose a wakeup, so
//! a stage's work is one step. `await_phase` and `publish` are opened up
//! to the granularity where lost-wakeup bugs live, mirroring
//! `mlm-exec/src/ring.rs`:
//!
//! * `await_phase`: lock the slot mutex, check the poison flag, check the
//!   predicate; if false, *park* — an atomic release-the-lock-and-wait, the
//!   window every condvar bug exploits — and on wakeup re-acquire the lock
//!   and re-check from the top.
//! * `publish`: lock the slot mutex, set the new `(phase, chunk)`,
//!   `notify_all`, unlock.
//! * `poison`: store the flag, then take *each* slot's lock and
//!   `notify_all` under it. Taking the lock is what closes the window: a
//!   coordinator that checked the flag and is about to park still holds
//!   the lock, so the poisoner's notify cannot slip in between.
//!
//! [`CvVariant::Correct`] models the code as written and verifies. Three
//! deliberately broken variants each fail, demonstrating the checker sees
//! the whole bug class:
//!
//! * [`CvVariant::PoisonSkipLock`] — poison notifies *without* taking the
//!   slot locks. The notify can fire inside a coordinator's
//!   checked-flag-but-not-yet-parked window; the coordinator then parks
//!   forever. Detected as a deadlock.
//! * [`CvVariant::NotifyOne`] — publish wakes one waiter instead of all.
//!   Copy-in waiting `Empty(c + slots)` and copy-out waiting `Computed(c)`
//!   park on the *same* slot condvar (`c` and `c + slots` share a slot),
//!   so the single token can be consumed by the waiter whose predicate is
//!   still false. Detected as a deadlock.
//! * [`CvVariant::NoRecheck`] — a woken coordinator claims the slot
//!   without re-checking the predicate. A `notify_all` meant for the
//!   *other* waiter on the same condvar makes it work on a slot in the
//!   wrong phase. Detected as an ownership-invariant violation.

use mlm_exec::ring::Phase;
use mlm_exec::Stage;

use crate::check::Model;

/// Which synchronization discipline to model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvVariant {
    /// The code as written: `notify_all`, predicate re-check loops, poison
    /// takes every slot lock before notifying.
    Correct,
    /// Poison stores the flag and notifies without taking the slot locks.
    PoisonSkipLock,
    /// `publish` uses `notify_one`.
    NotifyOne,
    /// A woken waiter proceeds without re-checking the predicate.
    NoRecheck,
}

/// What one coordinator is doing, at lock granularity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CvCoord {
    /// About to lock its slot and run the `await_phase` check.
    Idle,
    /// Checked (flag clear, predicate false); still holds the slot lock,
    /// about to park. This is the lost-wakeup window.
    Prepark,
    /// Parked on the slot condvar. Holds no lock; only a notify (or a
    /// spurious wakeup, if budgeted) can move it.
    Parked,
    /// Woken; contending to re-acquire the slot lock.
    Relock,
    /// Owns the slot's current phase; doing the stage's work unlocked.
    Work,
    /// Finished every chunk.
    Done,
    /// Unwound (panicked, or observed poison).
    Aborted,
    /// Panicked; walking the slots to notify waiters. `next` is the next
    /// slot to notify.
    Poisoning { next: u8 },
}

/// Global state.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CvState {
    /// `(phase, chunk)` per slot. Lock holders and parked sets are
    /// derivable: coordinator `i` at `Prepark` holds the lock of slot
    /// `chunk[i] % slots`; at `Parked` it is parked on that slot's cv.
    slots: Vec<(Phase, u8)>,
    coords: [CvCoord; 3],
    chunk: [u8; 3],
    poisoned: bool,
    /// Remaining spurious-wakeup budget (0 = deterministic wakeups only).
    spurious_left: u8,
}

impl CvState {
    fn slot_of(&self, stage: Stage, slots: usize) -> usize {
        self.chunk[stage as usize] as usize % slots
    }

    /// True iff some coordinator holds `slot`'s mutex persistently (i.e.
    /// sits in the check-to-park window).
    fn locked(&self, slot: usize, slots: usize) -> bool {
        Stage::ALL
            .iter()
            .any(|&s| self.coords[s as usize] == CvCoord::Prepark && self.slot_of(s, slots) == slot)
    }

    /// Stages currently parked on `slot`'s condvar.
    fn parked_on(&self, slot: usize, slots: usize) -> Vec<Stage> {
        Stage::ALL
            .iter()
            .copied()
            .filter(|&s| {
                self.coords[s as usize] == CvCoord::Parked && self.slot_of(s, slots) == slot
            })
            .collect()
    }
}

fn wanted(stage: Stage) -> Phase {
    match stage {
        Stage::CopyIn => Phase::Empty,
        Stage::Compute => Phase::Filled,
        Stage::CopyOut => Phase::Computed,
    }
}

/// Transition labels.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CvAction {
    /// Acquired the slot lock and ran the `await_phase` check for a chunk.
    LockCheck(Stage, u8),
    /// Released the lock and parked on the slot condvar (atomic).
    Park(Stage),
    /// Woken coordinator claimed the slot without re-checking
    /// ([`CvVariant::NoRecheck`] only).
    ClaimNoRecheck(Stage, u8),
    /// Finished the stage work for the chunk, locked the slot, published
    /// the next phase, notified, unlocked.
    Publish(Stage, u8),
    /// The stage's work panicked; the poison flag is now set.
    Panic(Stage, u8),
    /// The poisoner notified one slot's waiters (under the slot lock in
    /// [`CvVariant::Correct`], without it in
    /// [`CvVariant::PoisonSkipLock`]).
    PoisonNotify(u8),
    /// A parked coordinator woke spuriously.
    Spurious(Stage),
}

/// Model parameters.
#[derive(Debug, Clone, Copy)]
pub struct CondvarModel {
    /// Buffer slots (the implementation uses 3).
    pub slots: usize,
    /// Chunks to stream.
    pub chunks: u8,
    /// Synchronization discipline under test.
    pub variant: CvVariant,
    /// Inject a panic in this stage's work on this chunk.
    pub panic_at: Option<(Stage, u8)>,
    /// Total spurious wakeups the adversary may inject.
    pub spurious_budget: u8,
}

impl CondvarModel {
    /// The shipped discipline, no faults.
    pub fn correct(slots: usize, chunks: u8) -> Self {
        CondvarModel {
            slots,
            chunks,
            variant: CvVariant::Correct,
            panic_at: None,
            spurious_budget: 0,
        }
    }

    /// Wake every parked waiter of `slot` (they move to `Relock`).
    fn wake_all(&self, s: &mut CvState, slot: usize) {
        for st in s.parked_on(slot, self.slots) {
            s.coords[st as usize] = CvCoord::Relock;
        }
    }
}

impl Model for CondvarModel {
    type State = CvState;
    type Action = CvAction;

    fn name(&self) -> String {
        format!(
            "condvar({:?}, slots={}, chunks={}, panic={:?}, spurious={})",
            self.variant, self.slots, self.chunks, self.panic_at, self.spurious_budget
        )
    }

    fn initial(&self) -> CvState {
        CvState {
            slots: (0..self.slots).map(|i| (Phase::Empty, i as u8)).collect(),
            coords: [if self.chunks == 0 {
                CvCoord::Done
            } else {
                CvCoord::Idle
            }; 3],
            chunk: [0; 3],
            poisoned: false,
            spurious_left: self.spurious_budget,
        }
    }

    fn actions(&self, s: &CvState) -> Vec<(CvAction, CvState)> {
        let mut out = Vec::new();
        for stage in Stage::ALL {
            let i = stage as usize;
            let c = s.chunk[i];
            let k = c as usize % self.slots;
            match s.coords[i] {
                CvCoord::Done | CvCoord::Aborted => {}
                CvCoord::Idle | CvCoord::Relock => {
                    if s.locked(k, self.slots) {
                        continue; // blocked on the mutex
                    }
                    if s.coords[i] == CvCoord::Relock && self.variant == CvVariant::NoRecheck {
                        // Bug: proceed straight to the work body on wakeup.
                        let mut n = s.clone();
                        n.coords[i] = CvCoord::Work;
                        out.push((CvAction::ClaimNoRecheck(stage, c), n));
                        continue;
                    }
                    // Atomic lock + check. Order matches await_phase: the
                    // poison flag is re-checked under the lock first.
                    let mut n = s.clone();
                    if s.poisoned {
                        n.coords[i] = CvCoord::Aborted;
                    } else if s.slots[k] == (wanted(stage), c) {
                        n.coords[i] = CvCoord::Work; // guard dropped, work unlocked
                    } else {
                        n.coords[i] = CvCoord::Prepark; // still holding the lock
                    }
                    out.push((CvAction::LockCheck(stage, c), n));
                }
                CvCoord::Prepark => {
                    // Atomic release + park: Condvar::wait.
                    let mut n = s.clone();
                    n.coords[i] = CvCoord::Parked;
                    out.push((CvAction::Park(stage), n));
                }
                CvCoord::Parked => {
                    if s.spurious_left > 0 {
                        let mut n = s.clone();
                        n.spurious_left -= 1;
                        n.coords[i] = CvCoord::Relock;
                        out.push((CvAction::Spurious(stage), n));
                    }
                }
                CvCoord::Work => {
                    if self.panic_at == Some((stage, c)) && !s.poisoned {
                        // Unwinding sets the flag before any notify.
                        let mut n = s.clone();
                        n.poisoned = true;
                        n.coords[i] = CvCoord::Poisoning { next: 0 };
                        out.push((CvAction::Panic(stage, c), n));
                        continue; // the injected panic always fires
                    }
                    if s.locked(k, self.slots) {
                        continue; // publish blocked on the mutex
                    }
                    // Atomic lock + set + notify + unlock: publish.
                    let mut n = s.clone();
                    n.slots[k] = match stage {
                        Stage::CopyOut => (Phase::Empty, c + self.slots as u8),
                        Stage::CopyIn => (Phase::Filled, c),
                        Stage::Compute => (Phase::Computed, c),
                    };
                    let next = c + 1;
                    n.chunk[i] = next;
                    n.coords[i] = if next >= self.chunks {
                        CvCoord::Done
                    } else {
                        CvCoord::Idle
                    };
                    if self.variant == CvVariant::NotifyOne {
                        // One successor per waiter the token could go to.
                        let parked = n.parked_on(k, self.slots);
                        if parked.is_empty() {
                            out.push((CvAction::Publish(stage, c), n));
                        } else {
                            for st in parked {
                                let mut m = n.clone();
                                m.coords[st as usize] = CvCoord::Relock;
                                out.push((CvAction::Publish(stage, c), m));
                            }
                        }
                    } else {
                        self.wake_all(&mut n, k);
                        out.push((CvAction::Publish(stage, c), n));
                    }
                }
                CvCoord::Poisoning { next } => {
                    let slot = next as usize;
                    if self.variant != CvVariant::PoisonSkipLock && s.locked(slot, self.slots) {
                        continue; // waits for the slot lock, as the code does
                    }
                    let mut n = s.clone();
                    self.wake_all(&mut n, slot);
                    n.coords[i] = if slot + 1 == self.slots {
                        CvCoord::Aborted
                    } else {
                        CvCoord::Poisoning { next: next + 1 }
                    };
                    out.push((CvAction::PoisonNotify(next), n));
                }
            }
        }
        out
    }

    fn is_terminal(&self, s: &CvState) -> bool {
        s.coords
            .iter()
            .all(|c| matches!(c, CvCoord::Done | CvCoord::Aborted))
            && (s.poisoned || s.coords.iter().all(|c| matches!(c, CvCoord::Done)))
    }

    fn invariant(&self, s: &CvState) -> Result<(), String> {
        let mut owner: Vec<Option<Stage>> = vec![None; self.slots];
        for stage in Stage::ALL {
            let i = stage as usize;
            if s.coords[i] != CvCoord::Work {
                continue;
            }
            let c = s.chunk[i];
            let k = c as usize % self.slots;
            if let Some(prev) = owner[k] {
                return Err(format!(
                    "slot {k} owned by both {prev:?} and {stage:?} — data race"
                ));
            }
            owner[k] = Some(stage);
            if s.slots[k] != (wanted(stage), c) {
                return Err(format!(
                    "{stage:?} entered its work body for chunk {c} but slot {k} reads {:?} — \
                     the predicate was not re-checked after wakeup",
                    s.slots[k]
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::check::{check, CheckOptions, Violation};

    fn opts() -> CheckOptions {
        CheckOptions::default()
    }

    #[test]
    fn shipped_discipline_verifies() {
        let r = check(&CondvarModel::correct(3, 4), opts());
        assert!(r.ok(), "{r}\n{}", r.render_trace());
        assert_eq!(r.terminal_states, 1);
    }

    #[test]
    fn shipped_discipline_survives_spurious_wakeups() {
        // The re-check loop makes spurious wakeups harmless.
        let mut m = CondvarModel::correct(3, 3);
        m.spurious_budget = 2;
        let r = check(&m, opts());
        assert!(r.ok(), "{r}\n{}", r.render_trace());
    }

    #[test]
    fn shipped_poison_protocol_drains_everyone() {
        for stage in Stage::ALL {
            for chunk in 0..3u8 {
                let mut m = CondvarModel::correct(3, 3);
                m.panic_at = Some((stage, chunk));
                let r = check(&m, opts());
                assert!(r.ok(), "panic {stage:?}/{chunk}: {r}\n{}", r.render_trace());
            }
        }
    }

    #[test]
    fn zero_chunks_is_immediately_terminal() {
        let r = check(&CondvarModel::correct(3, 0), opts());
        assert!(r.ok());
        assert_eq!(r.states, 1);
    }

    #[test]
    fn broken_publish_order_is_caught() {
        // Regression shape: a ring whose copy-out recycles the slot for
        // the *same* chunk (forgetting the +slots advance) strands
        // copy-in, which waits for Empty(c+3) forever.
        struct Broken(CondvarModel);
        impl Model for Broken {
            type State = CvState;
            type Action = CvAction;
            fn name(&self) -> String {
                "condvar-broken-recycle".into()
            }
            fn initial(&self) -> CvState {
                self.0.initial()
            }
            fn actions(&self, s: &CvState) -> Vec<(CvAction, CvState)> {
                let mut acts = self.0.actions(s);
                for (a, n) in &mut acts {
                    if let CvAction::Publish(Stage::CopyOut, c) = a {
                        // Recycle for chunk c, not c + slots: stale chunk id.
                        n.slots[*c as usize % self.0.slots] = (Phase::Empty, *c);
                    }
                }
                acts
            }
            fn is_terminal(&self, s: &CvState) -> bool {
                self.0.is_terminal(s)
            }
        }
        let r = check(&Broken(CondvarModel::correct(3, 5)), opts());
        assert!(
            matches!(r.violation, Some(Violation::Deadlock { .. })),
            "stale recycle must deadlock: {r}"
        );
    }

    #[test]
    fn poison_without_slot_locks_loses_a_wakeup() {
        // The exact window ring.rs's poison() comment claims to close:
        // a coordinator between its flag check and its park misses the
        // only notify it will ever get.
        let m = CondvarModel {
            slots: 3,
            chunks: 3,
            variant: CvVariant::PoisonSkipLock,
            panic_at: Some((Stage::Compute, 0)),
            spurious_budget: 0,
        };
        let r = check(&m, opts());
        assert!(
            matches!(r.violation, Some(Violation::Deadlock { .. })),
            "skipping the locks must lose a wakeup: {r}"
        );
    }

    #[test]
    fn notify_one_starves_the_second_waiter() {
        // Copy-in (waiting Empty(c+3)) and copy-out (waiting Computed(c))
        // park on the same slot condvar; notify_one can hand the token to
        // the waiter whose predicate is still false.
        let m = CondvarModel {
            slots: 3,
            chunks: 4,
            variant: CvVariant::NotifyOne,
            panic_at: None,
            spurious_budget: 0,
        };
        let r = check(&m, opts());
        assert!(
            matches!(r.violation, Some(Violation::Deadlock { .. })),
            "notify_one must deadlock with two waiters per condvar: {r}"
        );
    }

    #[test]
    fn skipping_the_recheck_corrupts_ownership() {
        let m = CondvarModel {
            slots: 3,
            chunks: 4,
            variant: CvVariant::NoRecheck,
            panic_at: None,
            spurious_budget: 0,
        };
        let r = check(&m, opts());
        match &r.violation {
            Some(Violation::Invariant { message, .. }) => {
                assert!(
                    message.contains("not re-checked"),
                    "unexpected invariant message: {message}"
                );
            }
            other => panic!("no-recheck must violate slot ownership, got {other:?}"),
        }
    }

    #[test]
    fn counterexample_traces_are_replayable() {
        let m = CondvarModel {
            slots: 3,
            chunks: 4,
            variant: CvVariant::NotifyOne,
            panic_at: None,
            spurious_budget: 0,
        };
        let r = check(&m, opts());
        let trace = r.render_trace();
        assert!(
            trace.contains("Publish"),
            "deadlock trace should show the publish steps:\n{trace}"
        );
    }
}
