//! Structured errors for the orchestrator.
//!
//! The orchestrator used to signal every failure as a bare `String` and
//! to `panic!` (via `.expect`) when its own bookkeeping looked
//! inconsistent mid-walk. Panics are the wrong surface for a misbehaving
//! backend: a protocol violation should come back as a value the caller
//! can report, not abort the process. [`DriveError`] is that value.
//!
//! What stays a panic (deliberately): violations of *spec-validated*
//! invariants inside backends — e.g. the lockstep host's "at most one
//! action per ring slot per step", which [`drive_verified`](crate::drive_verified)
//! guarantees for every spec that passes [`PipelineSpec::validate`](crate::PipelineSpec::validate).
//! Those cannot be provoked by a misbehaving backend, only by a bug in the
//! orchestrator itself, and a loud abort is the honest report.

use std::fmt;

use crate::backend::Stage;

/// A failure while driving the chunk schedule over a backend.
#[derive(Debug, Clone, PartialEq)]
pub enum DriveError {
    /// The spec failed [`validate`](crate::PipelineSpec::validate); no work
    /// was issued.
    Spec(String),
    /// The orchestrator's dependency bookkeeping was violated mid-walk: an
    /// action needed a token that was never produced. With a conforming
    /// backend this is unreachable; a misbehaving backend surfaces here
    /// instead of panicking.
    Protocol {
        /// The stage whose dependency was missing.
        op: Stage,
        /// The chunk the missing token belongs to.
        chunk: usize,
        /// What was expected and was not there.
        detail: String,
    },
    /// The backend's own `finish` failed (e.g. a simulated deadlock, a
    /// poisoned buffer ring).
    Backend(String),
    /// The static schedule verifier ([`crate::graph`]) refused the
    /// emitted graph before any work ran: a race, deadlock, or capacity
    /// finding with its counterexample trace, rendered.
    Verification(String),
}

impl fmt::Display for DriveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DriveError::Spec(msg) => write!(f, "invalid spec: {msg}"),
            DriveError::Protocol { op, chunk, detail } => write!(
                f,
                "schedule protocol violation at {op:?} of chunk {chunk}: {detail}"
            ),
            DriveError::Backend(msg) => write!(f, "backend failed: {msg}"),
            DriveError::Verification(msg) => {
                write!(f, "schedule rejected by static verification: {msg}")
            }
        }
    }
}

impl std::error::Error for DriveError {}

// The pre-DriveError signature was `Result<(), String>`; adapters that
// still speak String errors (`build_program`, `?` in Result<_, String>
// functions) convert losslessly through Display.
impl From<DriveError> for String {
    fn from(e: DriveError) -> String {
        e.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_carries_context() {
        let e = DriveError::Protocol {
            op: Stage::CopyIn,
            chunk: 7,
            detail: "copy-out of chunk 4 never produced a token".into(),
        };
        let s = e.to_string();
        assert!(
            s.contains("CopyIn") && s.contains("chunk 7") && s.contains("chunk 4"),
            "{s}"
        );
        let as_string: String = e.into();
        assert!(as_string.contains("protocol violation"));
    }

    /// Every variant must render its payload and survive the
    /// `From<DriveError> for String` round-trip unchanged — the adapter
    /// path callers still speaking `Result<_, String>` depend on.
    #[test]
    fn every_variant_displays_and_round_trips() {
        let variants = [
            DriveError::Spec("chunk_bytes must be positive".into()),
            DriveError::Protocol {
                op: Stage::CopyOut,
                chunk: 3,
                detail: "compute never produced a token".into(),
            },
            DriveError::Backend("pool refused the task".into()),
            DriveError::Verification("[G001] ring slot 0 race".into()),
        ];
        let prefixes = [
            "invalid spec:",
            "schedule protocol violation at",
            "backend failed:",
            "schedule rejected by static verification:",
        ];
        let payloads = [
            "chunk_bytes",
            "compute never produced",
            "pool refused",
            "G001",
        ];
        for ((e, prefix), payload) in variants.iter().zip(prefixes).zip(payloads) {
            let s = e.to_string();
            assert!(s.starts_with(prefix), "{s:?} should start with {prefix:?}");
            assert!(s.contains(payload), "{s:?} should carry {payload:?}");
            let as_string: String = e.clone().into();
            assert_eq!(as_string, s, "From<DriveError> for String goes via Display");
        }
    }
}
