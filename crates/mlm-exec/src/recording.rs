//! Event-trace production: wrap any backend and record the schedule it
//! was driven with.
//!
//! [`RecordingBackend`] composes — `RecordingBackend<SimBackend>` and a
//! `RecordingBackend` around the host backend produce comparable traces of
//! the *same* orchestrator walk, which turns "the host executes the
//! schedule the simulator prices" from folklore into a property test
//! (see `tests/tests/exec_equivalence.rs`). It is also the seam future
//! tracing/observability hangs off without touching any backend.

use std::marker::PhantomData;
use std::time::Duration;

use crate::backend::Backend;
use crate::plan::{PlanNode, WorkloadPlan};
use crate::report::RunReport;
use crate::spec::PipelineSpec;

/// One recorded orchestrator event.
///
/// Dependencies are recorded as indices of earlier events, so traces from
/// different backends (whose native tokens differ) compare directly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A plan node was issued.
    Action {
        /// The node as the interpreter issued it.
        node: PlanNode,
        /// Indices of the events this action depends on.
        deps: Vec<usize>,
    },
    /// A lockstep step barrier closed over the listed events.
    Barrier {
        /// Indices of the events the barrier waits for.
        after: Vec<usize>,
    },
    /// The run finished.
    Finish,
}

/// A token pairing the inner backend's token with the trace index of the
/// event that produced it.
#[derive(Debug, Clone)]
pub struct Traced<T> {
    /// The wrapped backend's own token.
    pub inner: T,
    /// Index into the recorded event list.
    pub event: usize,
}

/// Wraps any [`Backend`] and records every orchestrator call as an
/// [`Event`] while delegating the work unchanged.
pub struct RecordingBackend<B> {
    inner: B,
    events: Vec<Event>,
}

impl<B> RecordingBackend<B> {
    /// Wrap `inner`, starting with an empty trace.
    pub fn new(inner: B) -> Self {
        RecordingBackend {
            inner,
            events: Vec::new(),
        }
    }

    /// The trace recorded so far.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// Unwrap, returning the inner backend and the trace.
    pub fn into_parts(self) -> (B, Vec<Event>) {
        (self.inner, self.events)
    }

    /// The inner backend.
    pub fn inner(&self) -> &B {
        &self.inner
    }
}

impl<B: Backend> Backend for RecordingBackend<B> {
    type Ctx = B::Ctx;
    type Token = Traced<B::Token>;

    fn issue(
        &mut self,
        ctx: &B::Ctx,
        plan: &WorkloadPlan,
        node: &PlanNode,
        deps: &[Self::Token],
    ) -> Self::Token {
        let dep_events: Vec<usize> = deps.iter().map(|t| t.event).collect();
        let dep_tokens: Vec<B::Token> = deps.iter().map(|t| t.inner.clone()).collect();
        let inner = self.inner.issue(ctx, plan, node, &dep_tokens);
        self.events.push(Event::Action {
            node: node.clone(),
            deps: dep_events,
        });
        Traced {
            inner,
            event: self.events.len() - 1,
        }
    }

    fn step_barrier(&mut self, ctx: &B::Ctx, after: &[Self::Token]) -> Self::Token {
        let after_events: Vec<usize> = after.iter().map(|t| t.event).collect();
        let after_tokens: Vec<B::Token> = after.iter().map(|t| t.inner.clone()).collect();
        let inner = self.inner.step_barrier(ctx, &after_tokens);
        self.events.push(Event::Barrier {
            after: after_events,
        });
        Traced {
            inner,
            event: self.events.len() - 1,
        }
    }

    fn finish(&mut self, ctx: &B::Ctx) -> Result<(), String> {
        self.events.push(Event::Finish);
        self.inner.finish(ctx)
    }

    fn now(&self) -> Duration {
        self.inner.now()
    }
}

/// A backend that executes nothing: every placement is supported, tokens
/// are `()`, nodes disappear. Useful for extracting a pure schedule
/// trace (`RecordingBackend<NullBackend>`) or counting work. The context
/// type `C` is whatever the plan is run with — a [`PipelineSpec`] by
/// default, a [`SortPlan`](crate::sortplan::SortPlan) for sorts.
#[derive(Debug)]
pub struct NullBackend<C = PipelineSpec> {
    issued: usize,
    barriers: usize,
    ctx: PhantomData<fn(&C)>,
}

impl<C> Default for NullBackend<C> {
    fn default() -> Self {
        NullBackend {
            issued: 0,
            barriers: 0,
            ctx: PhantomData,
        }
    }
}

impl<C> NullBackend<C> {
    /// A fresh null backend.
    pub fn new() -> Self {
        NullBackend::default()
    }

    /// Number of nodes issued so far.
    pub fn issued(&self) -> usize {
        self.issued
    }

    /// Number of step barriers closed so far.
    pub fn barriers(&self) -> usize {
        self.barriers
    }

    /// A zero report (the null backend does no work, copies no bytes and
    /// keeps no clock).
    pub fn report(&self) -> RunReport {
        RunReport::empty()
    }
}

impl<C> Backend for NullBackend<C> {
    type Ctx = C;
    type Token = ();

    fn issue(&mut self, _ctx: &C, _plan: &WorkloadPlan, _node: &PlanNode, _deps: &[()]) {
        self.issued += 1;
    }

    fn step_barrier(&mut self, _ctx: &C, _after: &[()]) {
        self.barriers += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drive::drive_verified;
    use crate::placement::Placement;
    use crate::plan::PlanKind;
    use crate::spec::Workload;

    fn spec(lockstep: bool) -> PipelineSpec {
        PipelineSpec {
            total_bytes: 4 * 64,
            chunk_bytes: 64,
            p_in: 1,
            p_out: 1,
            p_comp: 2,
            compute_passes: 1,
            compute_rate: 1e9,
            copy_rate: 1e9,
            placement: Placement::Hbw,
            lockstep,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    #[test]
    fn trace_is_identical_across_backends_for_one_spec() {
        // Two *different* backend types driven with the same spec produce
        // the same event trace: the orchestrator, not the backend, owns
        // the schedule.
        let s = spec(true);
        let mut a = RecordingBackend::new(NullBackend::new());
        drive_verified(&mut a, &s, None).unwrap();

        let mut b = RecordingBackend::new(RecordingBackend::new(NullBackend::new()));
        drive_verified(&mut b, &s, None).unwrap();

        assert_eq!(a.events(), b.events());
    }

    #[test]
    fn dataflow_trace_records_ring_recycling_deps() {
        let s = spec(false);
        let mut r = RecordingBackend::new(NullBackend::new());
        drive_verified(&mut r, &s, None).unwrap();
        // Find copy-in of chunk 3: it must depend on exactly one event,
        // the copy-out of chunk 0 (slot recycling).
        let events = r.events();
        let dep_of_copyin3 = events
            .iter()
            .find_map(|e| match e {
                Event::Action { node, deps }
                    if node.kind == PlanKind::StageIn && node.chunk == Some(3) =>
                {
                    Some(deps.clone())
                }
                _ => None,
            })
            .unwrap();
        assert_eq!(dep_of_copyin3.len(), 1);
        match &events[dep_of_copyin3[0]] {
            Event::Action { node, .. } => {
                assert_eq!(node.kind, PlanKind::StageOut);
                assert_eq!(node.chunk, Some(0));
            }
            other => panic!("expected copy-out action, got {other:?}"),
        }
    }

    #[test]
    fn null_backend_counts_schedule_size() {
        let s = spec(true);
        let mut b = NullBackend::new();
        drive_verified(&mut b, &s, None).unwrap();
        // 4 chunks x 3 stages, plus one barrier per step (n + 2).
        assert_eq!(b.issued(), 12);
        assert_eq!(b.barriers(), 6);
        let report = b.report();
        assert_eq!(report.chunks, 0);
        assert_eq!(report.copy_in.bytes + report.copy_out.bytes, 0);
    }
}
