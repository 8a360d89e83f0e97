//! # mlm-core — chunking, buffering, MLM-sort, and the copy-thread model
//!
//! The primary contribution of *Optimizing for KNL Usage Modes When Data
//! Doesn't Fit in MCDRAM* (Butcher, Olivier, Berry, Hammond, Kogge —
//! ICPP 2018), reproduced as a library:
//!
//! * [`pipeline`] — the §3 chunking + triple-buffering framework, with a
//!   real host backend and a [`knl_sim`] backend;
//! * [`model`] — the §3.2 copy-thread model (Equations 1–5) and its
//!   optimal-copy-thread search;
//! * [`sort`] — MLM-sort and the baselines of §4 (GNU-flat, GNU-cache,
//!   MLM-ddr, MLM-implicit, basic-chunked), host and simulated;
//! * [`merge_bench`] — the §5 streaming merge benchmark;
//! * [`calibration`] — the constants that bind simulated compute rates to
//!   the paper's measurements;
//! * [`workload`] — input descriptions and deterministic generators.
//!
//! ## Which backend do I want?
//!
//! *Host* functions (e.g. [`sort::host::mlm_sort`]) run the real algorithms
//! on real data — use them to sort things and to validate correctness.
//! *Sim* functions (e.g. [`sort::sim::build_sort_program`]) reproduce the
//! paper's KNL experiments in virtual time at full 2–6 billion element
//! scale without needing 48 GB of RAM or Xeon Phi silicon.
//!
//! ```
//! use mlm_core::sort::host::mlm_sort;
//! use mlm_core::workload::{generate_keys, InputOrder};
//! use parsort::{pool::WorkPool, serial::is_sorted};
//!
//! let pool = WorkPool::new(4);
//! let mut keys = generate_keys(100_000, InputOrder::Random, 1);
//! mlm_sort(&pool, &mut keys, 30_000, true);
//! assert!(is_sorted(&keys));
//! ```

pub mod calibration;
mod host;
mod lower;
pub mod merge_bench;
pub mod model;
pub mod nvm;
pub mod pipeline;
pub mod sort;
pub mod workload;

pub use calibration::Calibration;
pub use merge_bench::{merge_bench_program, simulate_merge_bench, MergeBenchParams};
pub use model::{ModelParams, ThreadSplit};
pub use nvm::{simulate_double_chunking, DoubleChunkSpec, NvmConfig};
pub use pipeline::{PipelineSpec, Placement, Workload};
pub use sort::SortAlgorithm;
pub use workload::{InputOrder, SortWorkload};
