//! Static verification for the out-of-core pipeline workspace.
//!
//! The runtime crates (`mlm-core`, `mlm-cluster`, `knl-sim`) execute and
//! simulate the paper's multi-level-memory pipelines; this crate checks
//! them *before* anything runs, at four layers:
//!
//! 1. **Spec linting** ([`lint`], [`diag`]) — a registry of lints
//!    validates a [`mlm_core::pipeline::PipelineSpec`] against the machine
//!    it will run on: chunk geometry vs element size, buffer ring vs
//!    MCDRAM capacity, placement vs memory mode, pool sizes vs hardware
//!    threads, and rate sanity against the paper's §3.2 performance model.
//!    Findings are structured [`diag::Diagnostic`]s (stable id, severity,
//!    field-level context, suggested fix). [`lint_target`] is the one
//!    plan-time gate: it runs the registry and then appends layer 3's
//!    proof of the schedule the spec emits, so a single report answers
//!    "can this spec run on this machine?".
//!
//! 2. **Schedule model checking** ([`check`], [`models`]) — the host
//!    buffer ring's condvar protocol and the cluster's PSRS message
//!    protocol, expressed as explicit transition systems and explored
//!    exhaustively (DFS, state hashing, partial-order reduction) for
//!    deadlock-freedom, exclusive buffer ownership, poison drain, and
//!    protocol-order invariants — what no dependency graph can see.
//!    Deliberately broken variants — the seed's PSRS race,
//!    poison-without-locks, `notify_one`, missing predicate re-checks —
//!    are kept as regression models that must keep failing.
//!
//! 3. **Static graph verification** ([`graph`], over
//!    [`mlm_exec::graph`]) — the analyzer consumes the exact plan
//!    `drive_verified()` interprets and *proves*, over every linearization at once,
//!    that the schedule is race-free (G001), deadlock-free (G002), and
//!    within MCDRAM/ring occupancy bounds (G003/G004), plus dead-token
//!    and unreachable-node hygiene (G005/G006). Findings are the same
//!    structured [`diag::Diagnostic`]s as the lints, carrying
//!    counterexample traces (`mlm-verify graph`).
//!
//!    Layers 2 and 3 share one list of must-fail cases, the
//!    [`catalogue`]: one row per buggy executor construction, holding the
//!    G-codes the analyzer must fire and the condvar model it mirrors, so
//!    no layer restates another's bugs.
//!
//! 4. **Fleet battery** ([`fleetsuite`], over [`mlm_fleet`]) — dynamic
//!    invariant checks on the multi-node dispatcher: job conservation,
//!    per-node MCDRAM budget respect under work stealing, decision-log
//!    determinism across reruns, and virtual-time/host decision
//!    equivalence on the demo batch (`mlm-verify fleet`). The V011 lint
//!    is the static face of the same contract: a job the dispatcher would
//!    reject at submission fails the plan before anything runs.
//!
//! What the checker proves is bounded: it verifies the *protocol* for
//! concrete small geometries (1–4 slot rings, up to a handful of chunks;
//! 2–4 cluster nodes), not the Rust implementation itself, and state
//! counts grow combinatorially with those parameters. The condvar model
//! is kept line-for-line close to `mlm_exec::ring` (and uses its `Phase`)
//! so a protocol change there should be mirrored here — the [`suite`]
//! ties the two together in CI via `cargo run -p mlm-verify -- check-all`.

pub mod catalogue;
pub mod check;
pub mod diag;
pub mod fleetsuite;
pub mod graph;
pub mod lint;
pub mod models;
pub mod suite;

pub use check::{check, CheckOptions, CheckReport, Model, Violation};
pub use diag::{Context, Diagnostic, LintReport, Severity};
pub use fleetsuite::{run_fleet_suite, FleetCase};
pub use lint::{lint_target, FleetTarget, Lint, LintRegistry, VerifyTarget, RING_SLOTS};
