//! Chunking + buffering: the paper's §3 framework.
//!
//! A large DDR-resident data set is processed in MCDRAM-sized chunks by
//! three dedicated thread pools — copy-in, compute, copy-out — with three
//! rotating buffers so that step `s` overlaps the copy-in of chunk `s`, the
//! compute on chunk `s-1`, and the copy-out of chunk `s-2` (paper Fig. 2).
//!
//! The schedule itself is owned by the execution layer: [`mlm_exec::drive_verified`]
//! walks the chunk schedule once, and the backends here adapt it to their
//! machinery:
//!
//! * [`sim::SimBackend`] (via [`sim::build_program`]) lowers the schedule
//!   to a [`knl_sim`] op graph for virtual-time experiments at paper scale;
//! * [`host::run_host_pipeline`] executes the same schedule with real
//!   threads and real buffers at host scale, validating that the pipeline
//!   produces correct data.
//!
//! [`PipelineSpec`] and [`Placement`] now live in [`mlm_exec`] (so every
//! layer shares one vocabulary) and are re-exported here for existing
//! callers.

pub mod fault;
pub mod host;
pub mod sim;

pub use mlm_exec::{PipelineSpec, Placement, Workload};
