//! The MCDRAM capacity broker: admission control over [`mlm_memkind`]
//! reservations.
//!
//! Before a pipeline job may run, its rotating ring of chunk buffers must
//! have somewhere to live. The broker holds a [`MemKind`] heap whose MCDRAM
//! capacity is the operator-configured *budget* (usually the machine's
//! addressable MCDRAM, possibly less to keep headroom), and admits a job by
//! taking a [`Reservation`] for the job's buffer footprint. Release happens
//! at job completion, so `reserved ≤ budget` holds at every instant by
//! construction.
//!
//! Spill policy mirrors memkind's two flavours: strict ([`Kind::Hbw`])
//! makes a job *wait* for MCDRAM, preferred ([`Kind::HbwPreferred`]) lets
//! it run immediately with DDR buffers — slower, but unblocked.

use knl_sim::machine::MachineConfig;
use knl_sim::{MemLevel, SimError};
use mlm_core::{PipelineSpec, Placement};
use mlm_memkind::{Kind, MemKind, Reservation};

/// MCDRAM bytes a job's buffer ring asks for: the whole ring for an HBW
/// job ([`PipelineSpec::buffer_footprint`], every slot of the ring the
/// plan schedules), nothing for DDR and implicit jobs, which never wait on
/// MCDRAM.
/// The one statement of that rule — admission, `fits_now`, strict-backlog
/// accounting and fleet placement all read it.
pub fn ring_footprint(spec: &PipelineSpec) -> u64 {
    match spec.placement {
        Placement::Hbw => spec.buffer_footprint(),
        Placement::Ddr | Placement::Implicit => 0,
    }
}

/// Result of one admission attempt.
#[derive(Debug)]
pub enum AdmitOutcome {
    /// The job may start. The reservation is `None` for jobs with no buffer
    /// footprint (cache-mode jobs own no buffers).
    Admitted(Option<Reservation>),
    /// Capacity is currently held by co-resident jobs; retry when one
    /// completes.
    Busy,
}

/// Admission controller over a budgeted [`MemKind`] heap.
pub struct CapacityBroker {
    mk: MemKind,
    mcdram_budget: u64,
    ddr_capacity: u64,
    spill: bool,
    hwm: u64,
    ddr_hwm: u64,
    queued_strict: u64,
}

impl CapacityBroker {
    /// A broker for `machine` whose MCDRAM budget is `mcdram_budget` bytes
    /// (clamped to nothing in cache mode, where no MCDRAM is addressable).
    /// With `spill` set, jobs that want MCDRAM run from DDR instead of
    /// waiting when the budget is exhausted (`HBW_PREFERRED` semantics).
    pub fn new(machine: &MachineConfig, mcdram_budget: u64, spill: bool) -> Self {
        let mut cfg = machine.clone();
        cfg.mcdram_capacity = mcdram_budget.min(machine.addressable_mcdram());
        CapacityBroker {
            mk: MemKind::new(&cfg),
            mcdram_budget: cfg.addressable_mcdram(),
            ddr_capacity: cfg.ddr_capacity,
            spill,
            hwm: 0,
            ddr_hwm: 0,
            queued_strict: 0,
        }
    }

    /// The [`Kind`] a spec's buffers are requested with, given whether this
    /// particular job may spill to DDR (`spill_ok` is AND-ed with the
    /// broker's own spill policy, so a strict job stays strict even on a
    /// spill-capable node).
    fn kind_for(&self, spec: &PipelineSpec, spill_ok: bool) -> Kind {
        match spec.placement {
            Placement::Hbw => {
                if self.spill && spill_ok {
                    Kind::HbwPreferred
                } else {
                    Kind::Hbw
                }
            }
            Placement::Ddr => Kind::Default,
            Placement::Implicit => Kind::Default, // unused: footprint is 0
        }
    }

    /// `false` when the job's footprint exceeds every level its kind may
    /// land in — such jobs are rejected at submission rather than queued
    /// forever. `spill_ok = false` asks whether a *strict-HBW* job could
    /// ever fit, even on a broker whose policy would let preferred jobs
    /// fall back to DDR.
    pub fn can_ever_fit_job(&self, spec: &PipelineSpec, spill_ok: bool) -> bool {
        let footprint = spec.buffer_footprint();
        if footprint == 0 {
            return true;
        }
        match self.kind_for(spec, spill_ok) {
            Kind::Hbw => footprint <= self.mcdram_budget,
            Kind::HbwPreferred => footprint <= self.mcdram_budget.max(self.ddr_capacity),
            Kind::Default => footprint <= self.ddr_capacity,
        }
    }

    /// Try to admit `spec`: reserve its buffer footprint, or report `Busy`
    /// when co-resident jobs currently hold the capacity. `spill_ok =
    /// false` keeps this job strict (queue for MCDRAM) even on a
    /// spill-capable broker.
    ///
    /// Errors are reserved for jobs that should have been filtered by
    /// [`Self::can_ever_fit_job`] — asking for more than the budget is a
    /// caller bug, not transient contention.
    pub fn try_admit_job(
        &mut self,
        spec: &PipelineSpec,
        spill_ok: bool,
    ) -> Result<AdmitOutcome, String> {
        let footprint = spec.buffer_footprint();
        if footprint == 0 {
            return Ok(AdmitOutcome::Admitted(None));
        }
        if !self.can_ever_fit_job(spec, spill_ok) {
            return Err(format!(
                "job footprint {footprint} B exceeds broker capacity \
                 (budget {} B)",
                self.mcdram_budget
            ));
        }
        match self
            .mk
            .try_reserve(self.kind_for(spec, spill_ok), footprint)
        {
            Ok(r) => {
                self.hwm = self.hwm.max(self.mk.reserved(MemLevel::Mcdram));
                self.ddr_hwm = self.ddr_hwm.max(self.mk.reserved(MemLevel::Ddr));
                Ok(AdmitOutcome::Admitted(Some(r)))
            }
            Err(SimError::OutOfMemory { .. }) => Ok(AdmitOutcome::Busy),
            Err(e) => Err(e.to_string()),
        }
    }

    /// Whether [`Self::try_admit_job`] would admit `spec` now, reserving
    /// nothing. For a preferred ring on a spill broker this reads DDR's
    /// room too, which `NodeSim::fits_now` assumes is always there.
    #[cfg(debug_assertions)]
    pub(crate) fn would_admit(&self, spec: &PipelineSpec, spill_ok: bool) -> bool {
        let footprint = spec.buffer_footprint();
        let room = |level| footprint <= self.mk.reservable(level);
        footprint == 0
            || match self.kind_for(spec, spill_ok) {
                Kind::Hbw => room(MemLevel::Mcdram),
                Kind::HbwPreferred => room(MemLevel::Mcdram) || room(MemLevel::Ddr),
                Kind::Default => room(MemLevel::Ddr),
            }
    }

    /// Return a reservation at job completion.
    pub fn release(&mut self, r: &Reservation) -> Result<(), String> {
        self.mk.release(r).map_err(|e| e.to_string())
    }

    /// Bytes of MCDRAM currently reserved.
    pub fn reserved_mcdram(&self) -> u64 {
        self.mk.reserved(MemLevel::Mcdram)
    }

    /// Highest MCDRAM reservation level ever observed.
    pub fn high_water(&self) -> u64 {
        self.hwm
    }

    /// Highest DDR reservation level ever observed (spilled rings and
    /// `Placement::Ddr` jobs land here; the MCDRAM-only [`Self::high_water`]
    /// misses them).
    pub fn ddr_high_water(&self) -> u64 {
        self.ddr_hwm
    }

    /// MCDRAM bytes still unreserved: what a placement layer may pack a
    /// strict-HBW ring into right now.
    pub fn hbw_headroom(&self) -> u64 {
        self.mcdram_budget
            .saturating_sub(self.mk.reserved(MemLevel::Mcdram))
    }

    /// Record that a strict-HBW job of `bytes` ring footprint is waiting in
    /// this broker's queue (it refused to spill and MCDRAM was full).
    pub fn note_strict_queued(&mut self, bytes: u64) {
        self.queued_strict = self.queued_strict.saturating_add(bytes);
    }

    /// Undo [`Self::note_strict_queued`] once the job is admitted, stolen
    /// away, or abandoned.
    pub fn note_strict_dequeued(&mut self, bytes: u64) {
        self.queued_strict = self.queued_strict.saturating_sub(bytes);
    }

    /// Ring bytes of strict-HBW jobs currently queued behind this broker —
    /// a backlog signal placement policies use to avoid pile-ups.
    pub fn queued_strict_bytes(&self) -> u64 {
        self.queued_strict
    }

    /// The broker's MCDRAM budget in bytes.
    pub fn budget(&self) -> u64 {
        self.mcdram_budget
    }

    /// Number of live reservations (0 after a full drain).
    pub fn balance(&self) -> usize {
        self.mk.live_reservations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;
    use knl_sim::GIB;
    use mlm_core::Workload;

    fn machine() -> MachineConfig {
        MachineConfig::knl_7250(MemMode::Flat)
    }

    fn spec(chunk: u64, placement: Placement) -> PipelineSpec {
        PipelineSpec {
            total_bytes: 32 * GIB,
            chunk_bytes: chunk,
            p_in: 2,
            p_out: 2,
            p_comp: 4,
            compute_passes: 2,
            compute_rate: 6.78e9,
            copy_rate: 4.8e9,
            placement,
            lockstep: false,
            data_addr: 0,
            workload: Workload::Map,
        }
    }

    #[test]
    fn strict_broker_blocks_then_admits_after_release() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, false);
        let s = spec(2 * GIB, Placement::Hbw); // 6 GiB ring
        let r1 = match b.try_admit_job(&s, true).unwrap() {
            AdmitOutcome::Admitted(Some(r)) => r,
            other => panic!("expected admission, got {other:?}"),
        };
        assert_eq!(r1.level(), MemLevel::Mcdram);
        assert_eq!(b.reserved_mcdram(), 6 * GIB);
        // Second elephant cannot fit in the remaining 2 GiB.
        assert!(matches!(
            b.try_admit_job(&s, true).unwrap(),
            AdmitOutcome::Busy
        ));
        b.release(&r1).unwrap();
        assert!(matches!(
            b.try_admit_job(&s, true).unwrap(),
            AdmitOutcome::Admitted(Some(_))
        ));
        assert_eq!(b.high_water(), 6 * GIB);
    }

    #[test]
    fn spill_broker_falls_back_to_ddr() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, true);
        let s = spec(2 * GIB, Placement::Hbw);
        let _r1 = match b.try_admit_job(&s, true).unwrap() {
            AdmitOutcome::Admitted(Some(r)) => r,
            other => panic!("expected admission, got {other:?}"),
        };
        let r2 = match b.try_admit_job(&s, true).unwrap() {
            AdmitOutcome::Admitted(Some(r)) => r,
            other => panic!("expected DDR spill, got {other:?}"),
        };
        assert_eq!(r2.level(), MemLevel::Ddr);
    }

    /// `would_admit` predicts `try_admit_job` on every step of filling a
    /// spill broker: MCDRAM first, then DDR with spilled rings until DDR
    /// is full too and the preferred ring waits. `would_admit` exists only
    /// in debug builds, so the test does too.
    #[cfg(debug_assertions)]
    #[test]
    fn would_admit_predicts_admission_until_ddr_is_full() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, true);
        let s = spec(2 * GIB, Placement::Hbw);
        let mut held = Vec::new();
        loop {
            let predicted = b.would_admit(&s, true);
            match b.try_admit_job(&s, true).unwrap() {
                AdmitOutcome::Admitted(r) => {
                    assert!(predicted);
                    held.push(r);
                }
                AdmitOutcome::Busy => {
                    assert!(!predicted);
                    break;
                }
            }
        }
        // One 6 GiB ring in MCDRAM, sixteen spilled into 96 GiB of DDR.
        assert_eq!(held.len(), 17);
    }

    #[test]
    fn impossible_jobs_are_detected_up_front() {
        let b = CapacityBroker::new(&machine(), 4 * GIB, false);
        // 6 GiB ring > 4 GiB budget: can never fit under strict policy.
        assert!(!b.can_ever_fit_job(&spec(2 * GIB, Placement::Hbw), true));
        // But fits with spill (lands in DDR).
        let b = CapacityBroker::new(&machine(), 4 * GIB, true);
        assert!(b.can_ever_fit_job(&spec(2 * GIB, Placement::Hbw), true));
    }

    #[test]
    fn implicit_jobs_need_no_reservation() {
        let mut b = CapacityBroker::new(&machine(), GIB, false);
        let s = spec(2 * GIB, Placement::Implicit);
        assert!(b.can_ever_fit_job(&s, true));
        assert!(matches!(
            b.try_admit_job(&s, true).unwrap(),
            AdmitOutcome::Admitted(None)
        ));
        assert_eq!(b.balance(), 0);
    }

    #[test]
    fn ddr_high_water_tracks_spilled_rings() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, true);
        let s = spec(2 * GIB, Placement::Hbw); // 6 GiB ring
        let _r1 = b.try_admit_job(&s, true).unwrap(); // MCDRAM
        assert_eq!(b.ddr_high_water(), 0);
        let _r2 = b.try_admit_job(&s, true).unwrap(); // spills to DDR
        assert_eq!(b.ddr_high_water(), 6 * GIB);
        assert_eq!(b.high_water(), 6 * GIB); // MCDRAM hwm unchanged by spill
    }

    #[test]
    fn hbw_headroom_shrinks_with_reservations() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, false);
        assert_eq!(b.hbw_headroom(), 8 * GIB);
        let s = spec(2 * GIB, Placement::Hbw);
        let r = match b.try_admit_job(&s, true).unwrap() {
            AdmitOutcome::Admitted(Some(r)) => r,
            other => panic!("expected admission, got {other:?}"),
        };
        assert_eq!(b.hbw_headroom(), 2 * GIB);
        b.release(&r).unwrap();
        assert_eq!(b.hbw_headroom(), 8 * GIB);
    }

    #[test]
    fn strict_queue_accounting_is_saturating() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, false);
        assert_eq!(b.queued_strict_bytes(), 0);
        b.note_strict_queued(6 * GIB);
        b.note_strict_queued(3 * GIB);
        assert_eq!(b.queued_strict_bytes(), 9 * GIB);
        b.note_strict_dequeued(6 * GIB);
        assert_eq!(b.queued_strict_bytes(), 3 * GIB);
        b.note_strict_dequeued(u64::MAX); // over-dequeue clamps at zero
        assert_eq!(b.queued_strict_bytes(), 0);
    }

    #[test]
    fn strict_jobs_stay_strict_on_spill_brokers() {
        let mut b = CapacityBroker::new(&machine(), 8 * GIB, true);
        let s = spec(2 * GIB, Placement::Hbw);
        let _r1 = b.try_admit_job(&s, false).unwrap(); // MCDRAM
                                                       // A strict job must wait rather than spill, even though the broker
                                                       // allows preferred jobs to fall back to DDR.
        assert!(matches!(
            b.try_admit_job(&s, false).unwrap(),
            AdmitOutcome::Busy
        ));
        // And a preferred job admitted right after does spill.
        assert!(matches!(
            b.try_admit_job(&s, true).unwrap(),
            AdmitOutcome::Admitted(Some(_))
        ));
        // can_ever_fit_job agrees: a 6 GiB strict ring can never fit a 4 GiB
        // budget even when the broker spills.
        let b4 = CapacityBroker::new(&machine(), 4 * GIB, true);
        assert!(!b4.can_ever_fit_job(&s, false));
        assert!(b4.can_ever_fit_job(&s, true));
    }

    #[test]
    fn budget_is_clamped_to_addressable_mcdram() {
        let b = CapacityBroker::new(&machine(), u64::MAX, false);
        assert_eq!(b.budget(), machine().addressable_mcdram());
    }
}
