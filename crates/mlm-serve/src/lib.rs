//! # mlm-serve — multi-tenant job serving for MCDRAM-constrained nodes
//!
//! The paper sizes *one* chunked pipeline to *one* KNL node. A shared node
//! poses the follow-on question: given a stream of pipeline jobs whose
//! buffer rings all want the same 16 GB of MCDRAM, who runs when, and
//! where do their buffers live? This crate answers it with three layers:
//!
//! * **Capacity broker** ([`broker`]) — admission control over
//!   [`mlm_memkind`] reservations. A job runs only once its ring of chunk
//!   buffers is reserved; strict mode queues (`HBW`), spill mode falls
//!   back to DDR (`HBW_PREFERRED`), and `reserved ≤ budget` holds at every
//!   instant by construction.
//! * **Scheduler** ([`sched`]) — a deterministic virtual-time event loop.
//!   Each running job's service time comes from the paper's §3.2 model
//!   re-tuned for its current thread budget ([`policy::profile`]), and
//!   co-resident jobs contend as flows in the same max–min-fair
//!   water-filling the op-level simulator uses. Policies: FIFO, SJF
//!   (model-predicted makespan), and weighted fair-share across deadline
//!   classes.
//! * **Node state machine** ([`node`]) — [`NodeSim`] is the only code
//!   that admits jobs: `serve` drives one in virtual time, and
//!   `mlm-fleet` drives one per node, in virtual time and on real host
//!   threads alike.
//! * **Replay** — [`simx`] replays a realized schedule op-by-op in
//!   [`knl_sim`] (delay-gated, spliced programs; a single-job replay is
//!   bit-identical to running the pipeline directly). Running jobs for
//!   real on the dataflow pipeline's stage pools is `mlm-fleet`'s host
//!   mode; a 1-node fleet is the single-node case.
//!
//! Trace generation ([`trace`]) and fleet statistics ([`stats`]) round out
//! the loop that mlm-bench's `study serve` sweeps.

pub mod admission;
pub mod broker;
pub mod job;
pub mod node;
pub mod policy;
mod queue;
pub mod sched;
pub mod simx;
pub mod stats;
pub mod trace;

pub use broker::{ring_footprint, AdmitOutcome, CapacityBroker};
pub use job::{DeadlineClass, JobId, JobRecord, JobRequest, Rejection, N_CLASSES};
pub use node::{Admission, NodeSim, DONE_EPS};
pub use policy::{bus_demand, predicted_makespan, profile, JobProfile, Policy};
pub use sched::{serve, ServeConfig, ServeOutcome};
pub use simx::{co_schedule_program, replay, ScheduledJob, SimJobStats};
pub use stats::{percentile, FleetStats};
pub use trace::{heavy_tailed_trace, TraceConfig};
