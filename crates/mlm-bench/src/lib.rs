//! # mlm-bench — the experiment harness
//!
//! One driver per table/figure of the paper's evaluation ([`experiments`],
//! [`serving`], [`fleet`]), shared between the [`studies`] registry — whose
//! one binary, `study`, prints every table, writes the CSVs under
//! `results/` and checks them against the committed files; `study list`
//! and [`studies::STUDIES`] are the index of paper artefact → study →
//! CSV — and the integration tests, which assert the paper's qualitative
//! claims hold.
//!
//! The other binaries measure rather than reproduce: `sim_bench` and
//! `fleet_bench` (hard gates against `BENCH_*.json`) and `calibrate`
//! (host characterisation); schedule verification is `mlm-verify`.

pub mod calibrate;
pub mod experiments;
pub mod fleet;
pub mod paper;
pub mod report;
pub mod serving;
pub mod sim_bench;
pub mod studies;
pub mod verify;

/// Number of simulated hardware threads the paper's runs used.
pub const PAPER_THREADS: usize = 256;

/// One billion elements — the paper's problem-size unit.
pub const BILLION: u64 = 1_000_000_000;
