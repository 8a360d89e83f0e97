//! Transition-system models of the repository's concurrency protocols.
//!
//! Each module models one protocol at the granularity where its bugs live:
//!
//! * [`condvar`] — the host pipeline's buffer ring (`mlm_exec::ring`) at
//!   *mutex/condvar* granularity, where lost-wakeup bugs are expressible.
//!   The model of the code as written verifies deadlock-freedom,
//!   exclusive buffer ownership and poison drain; three deliberately
//!   buggy variants (poison without taking the slot locks, `notify_one`
//!   instead of `notify_all`, wait without re-checking the predicate)
//!   fail, proving the checker can see the whole bug class. The ring's
//!   in-flight bound is not modelled here: G004 proves it over the graph
//!   `drive_verified()` really emits.
//! * [`psrs`] — the `mlm-cluster` PSRS message protocol (splitter
//!   broadcast / partition exchange / deferred-message drain). The
//!   deferring protocol verifies; the pre-PR-2 strict variant (treat early
//!   exchange messages as `unreachable!`) reproduces the seed race as a
//!   failing check.

pub mod condvar;
pub mod psrs;
