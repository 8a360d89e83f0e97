//! # knl-sim — a discrete-event simulator of a KNL-style two-level memory system
//!
//! This crate is the hardware substrate for reproducing *Optimizing for KNL
//! Usage Modes When Data Doesn't Fit in MCDRAM* (Butcher et al., ICPP 2018)
//! without access to Knights Landing silicon.
//!
//! The simulated machine has two memory levels — DDR (high capacity, ~90 GB/s)
//! and MCDRAM (16 GB, ~400 GB/s) — and a configurable number of hardware
//! threads. MCDRAM can be configured in the three modes the real BIOS offers
//! (**flat**, **cache**, **hybrid**) plus the paper's *implicit* usage mode,
//! which is simply flat-mode software run while the hardware is in cache mode.
//!
//! ## What is simulated
//!
//! The paper's phenomena are *bandwidth* phenomena: DDR saturation by copy
//! threads, MCDRAM sharing between copy and compute thread pools, and cold /
//! conflict misses of the direct-mapped MCDRAM cache. Accordingly the
//! simulator executes *op graphs* — per-thread sequences of [`ops::OpKind`]
//! (bulk copies, streaming compute, fixed delays) with explicit cross-thread
//! dependencies — against a max–min-fair ("water-filling") bandwidth arbiter
//! with per-flow rate caps ([`bandwidth`]). Progress is tracked in virtual
//! seconds; the result is a deterministic [`report::SimReport`].
//!
//! The closed-form model of the paper (its Equations 1–5) is a special case
//! of this arbiter; the discrete-event engine additionally captures pipeline
//! fill/drain, lockstep barriers, and cache effects.
//!
//! ## Quick example
//!
//! ```
//! use knl_sim::machine::{MachineConfig, MemMode};
//! use knl_sim::ops::{OpKind, Place, Program};
//! use knl_sim::engine::Simulator;
//!
//! // One thread copies 1 GiB from DDR to MCDRAM on a flat-mode KNL.
//! let cfg = MachineConfig::knl_7250(MemMode::Flat);
//! let mut prog = Program::new(1);
//! prog.push(
//!     0,
//!     OpKind::copy(Place::Ddr, Place::Mcdram, 1 << 30, cfg.per_thread_copy_bw),
//!     &[],
//! );
//! let report = Simulator::new(cfg).run(&prog).unwrap();
//! // A single copy thread is capped at S_copy = 4.8 GB/s.
//! let expect = (1u64 << 30) as f64 / 4.8e9;
//! assert!((report.makespan - expect).abs() / expect < 1e-9);
//! ```

pub mod alloc;
pub mod bandwidth;
pub mod cache;
pub mod engine;
pub mod error;
pub mod machine;
pub mod ops;
#[cfg(feature = "reference-engine")]
mod reference;
pub mod report;
pub mod trace;

pub use engine::{EngineStats, Simulator};
pub use error::{SimError, StuckOp};
pub use machine::{MachineConfig, MemLevel, MemMode};
pub use ops::{Access, OpId, OpKind, Place, Program, ThreadId};
pub use report::SimReport;
pub use trace::{OpRecord, Trace};

/// Bytes per gigabyte as used throughout the paper (decimal GB, matching
/// STREAM-style bandwidth reporting).
pub const GB: f64 = 1e9;

/// Bytes per binary gibibyte (used for capacities, which Intel documents in
/// powers of two: the KNL has 16 GiB of MCDRAM).
pub const GIB: u64 = 1 << 30;
