//! Fault-injection hooks for the host pipeline (the `fuzz` feature).
//!
//! `mlm_exec::graph::analyze` proves the poison drain over every
//! linearization of the plan; this module makes the real executor run
//! it. With the `fuzz` feature enabled,
//! a test can arm a kernel panic for a specific chunk and the host
//! backend will panic inside the kernel task exactly as a buggy user
//! kernel would — its compute tasks are built in one place, so the probe
//! covers every schedule (implicit, lockstep, dataflow; map and stencil)
//! and exercises the real drain machinery (the pool's scoped join,
//! `mlm_exec::ring::coordinate`, slot poisoning, panic propagation) on the
//! schedule the analyzer proves.
//!
//! The hook is a process-global: tests that arm it must run in their own
//! integration-test binary (one process) and disarm on every exit path.
//! Without the `fuzz` feature the probe compiles to nothing.

#[cfg(feature = "fuzz")]
use std::sync::atomic::{AtomicIsize, Ordering};

/// Sentinel: no chunk armed.
#[cfg(feature = "fuzz")]
static ARMED_COMPUTE_PANIC: AtomicIsize = AtomicIsize::new(-1);

/// Arm a kernel panic: the next compute task that touches `chunk` panics
/// with a recognizable message. Stays armed until [`disarm`].
#[cfg(feature = "fuzz")]
pub fn arm_compute_panic(chunk: usize) {
    ARMED_COMPUTE_PANIC.store(chunk as isize, Ordering::SeqCst);
}

/// Disarm all injected faults.
#[cfg(feature = "fuzz")]
pub fn disarm() {
    ARMED_COMPUTE_PANIC.store(-1, Ordering::SeqCst);
}

/// Probe called by the host backend's compute tasks just before the user
/// kernel runs. No-op unless the `fuzz` feature armed this chunk.
#[inline]
pub(crate) fn maybe_panic_compute(chunk: usize) {
    #[cfg(feature = "fuzz")]
    {
        if ARMED_COMPUTE_PANIC.load(Ordering::SeqCst) == chunk as isize {
            panic!("fuzz fault injection: kernel panic on chunk {chunk}");
        }
    }
    #[cfg(not(feature = "fuzz"))]
    {
        let _ = chunk;
    }
}
