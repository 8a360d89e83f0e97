//! Error type for simulator construction and execution.

use std::fmt;

/// One unfinished op in a [`SimError::Deadlock`] report: where it was
/// scheduled and what it is still waiting for.
#[derive(Debug, Clone, PartialEq)]
pub struct StuckOp {
    /// Op id within the program.
    pub op: usize,
    /// The thread the op was scheduled on.
    pub thread: usize,
    /// The op's label, when the program gave it one.
    pub label: Option<String>,
    /// Dependencies that never completed. Empty when the op's dependencies
    /// are all satisfied but it is queued behind another stuck op on its
    /// thread.
    pub unmet_deps: Vec<usize>,
}

impl fmt::Display for StuckOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "op {}", self.op)?;
        if let Some(label) = &self.label {
            write!(f, " ({label:?})")?;
        }
        write!(f, " on thread {}", self.thread)?;
        if self.unmet_deps.is_empty() {
            write!(f, " queued behind a stuck op")
        } else {
            write!(f, " waiting on {:?}", self.unmet_deps)
        }
    }
}

/// Errors produced while validating a machine configuration, building a
/// program, or executing a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// A machine configuration parameter is out of range.
    InvalidConfig(String),
    /// An op references a thread id outside the program's thread count.
    BadThread { thread: usize, threads: usize },
    /// An op lists a dependency that does not exist (forward reference).
    BadDependency { op: usize, dep: usize },
    /// The program deadlocked: ops remain but none can become ready.
    /// Carries per-op diagnostics for the stuck ops (truncated to a
    /// handful), each naming its thread and unmet dependencies.
    Deadlock(Vec<StuckOp>),
    /// The engine kept rescheduling flow drains at one timestamp without
    /// any flow or the clock advancing — an engine bug, reported instead
    /// of spinning. `op` is the flow last rescheduled, `time` the stuck
    /// virtual clock.
    Livelock { op: usize, time: f64 },
    /// An allocation request exceeded the capacity of a memory level.
    OutOfMemory {
        level: crate::machine::MemLevel,
        requested: u64,
        available: u64,
    },
    /// An access targets a memory level that is not addressable in the
    /// current memory mode (e.g. `Place::Mcdram` while in cache mode).
    LevelNotAddressable(crate::machine::MemLevel),
    /// An op has a non-positive byte count or rate where one is required.
    BadOp(String),
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::InvalidConfig(msg) => write!(f, "invalid machine config: {msg}"),
            SimError::BadThread { thread, threads } => {
                write!(
                    f,
                    "op assigned to thread {thread} but program has {threads} threads"
                )
            }
            SimError::BadDependency { op, dep } => {
                write!(
                    f,
                    "op {op} depends on op {dep}, which is not defined before it"
                )
            }
            SimError::Deadlock(ops) => {
                write!(f, "simulation deadlocked with unfinished ops: ")?;
                for (i, s) in ops.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            SimError::Livelock { op, time } => write!(
                f,
                "simulation made no progress at t = {time} s: op {op}'s drain keeps being rescheduled"
            ),
            SimError::OutOfMemory {
                level,
                requested,
                available,
            } => write!(
                f,
                "out of memory on {level:?}: requested {requested} bytes, {available} available"
            ),
            SimError::LevelNotAddressable(level) => {
                write!(
                    f,
                    "memory level {level:?} is not addressable in the current mode"
                )
            }
            SimError::BadOp(msg) => write!(f, "malformed op: {msg}"),
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::MemLevel;

    #[test]
    fn display_formats_are_informative() {
        let e = SimError::InvalidConfig("ddr_bandwidth must be positive".into());
        assert!(e.to_string().contains("ddr_bandwidth"));
        let e = SimError::BadThread {
            thread: 7,
            threads: 4,
        };
        assert!(e.to_string().contains('7') && e.to_string().contains('4'));
        let e = SimError::OutOfMemory {
            level: MemLevel::Mcdram,
            requested: 10,
            available: 5,
        };
        assert!(e.to_string().contains("Mcdram"));
        let e = SimError::Deadlock(vec![
            StuckOp {
                op: 1,
                thread: 3,
                label: Some("merge".into()),
                unmet_deps: vec![0],
            },
            StuckOp {
                op: 2,
                thread: 4,
                label: None,
                unmet_deps: vec![],
            },
        ]);
        let msg = e.to_string();
        assert!(msg.contains("op 1"), "{msg}");
        assert!(msg.contains("\"merge\""), "{msg}");
        assert!(msg.contains("thread 3"), "{msg}");
        assert!(msg.contains("waiting on [0]"), "{msg}");
        assert!(
            msg.contains("op 2") && msg.contains("queued behind"),
            "{msg}"
        );
    }

    #[test]
    fn error_is_std_error() {
        fn takes_err(_e: &dyn std::error::Error) {}
        takes_err(&SimError::BadOp("zero bytes".into()));
    }
}
