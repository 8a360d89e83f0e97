//! # mlm-memkind — a memkind-style heap manager for the simulated node
//!
//! On real KNL hardware, flat-mode MCDRAM is reached through the
//! [memkind](http://memkind.github.io/memkind/) library (`hbw_malloc()` et
//! al., Cantalupo et al., SAND2015-1862C). This crate reproduces that
//! interface surface over the simulated machine of [`knl_sim`]: named
//! allocation *kinds* with distinct placement policies, per-level capacity
//! accounting, and the fallback semantics that make `HBW_PREFERRED`
//! different from strict `HBW`.
//!
//! Allocations return [`SimAllocation`] handles carrying concrete simulated
//! address ranges, which is what lets the cache model observe direct-mapped
//! aliasing between co-resident arrays.
//!
//! ```
//! use knl_sim::machine::{MachineConfig, MemMode};
//! use mlm_memkind::{Kind, MemKind};
//!
//! let mk = MemKind::new(&MachineConfig::knl_7250(MemMode::Flat));
//! let a = mk.malloc(Kind::Hbw, 1 << 30).unwrap();
//! assert_eq!(a.region().level, knl_sim::MemLevel::Mcdram);
//! mk.free(a);
//! ```

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

use knl_sim::alloc::{Region, RegionAllocator};
use knl_sim::machine::MachineConfig;
use knl_sim::{MemLevel, SimError};
use parking_lot::Mutex;

/// Allocation kind, mirroring memkind's partition names.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Kind {
    /// Ordinary DDR allocation (`MEMKIND_DEFAULT`).
    Default,
    /// Strict high-bandwidth allocation (`MEMKIND_HBW`): fails when the
    /// addressable MCDRAM is exhausted.
    Hbw,
    /// Preferred high-bandwidth allocation (`MEMKIND_HBW_PREFERRED`): falls
    /// back to DDR when MCDRAM is exhausted — the behaviour `numactl
    /// --preferred` gives whole applications, which is how Li et al. ran
    /// their flat-mode experiments (paper §2.4).
    HbwPreferred,
}

/// A live simulated allocation. Free it with [`MemKind::free`]; dropping it
/// without freeing leaks simulated capacity (tracked, like a real leak).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SimAllocation {
    region: Region,
    kind: Kind,
    serial: u64,
}

impl SimAllocation {
    /// The simulated address range backing this allocation.
    pub fn region(&self) -> Region {
        self.region
    }

    /// The kind it was requested with (not necessarily where it landed —
    /// see [`SimAllocation::level`]).
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// The level the allocation actually landed in.
    pub fn level(&self) -> MemLevel {
        self.region.level
    }

    /// Size in bytes.
    pub fn size(&self) -> u64 {
        self.region.size
    }
}

/// A live capacity reservation. Created by [`MemKind::try_reserve`],
/// returned with [`MemKind::release`].
///
/// A reservation is an accounting claim, not an address range: it shrinks
/// what [`MemKind::reservable`] reports so an admission controller can
/// promise capacity to a job *before* the job allocates its actual buffers
/// (which still go through [`MemKind::malloc`]). This is the broker-side
/// half of the `hbw_malloc` story: real memkind has no reserve call, so
/// multi-tenant KNL schedulers layered exactly this bookkeeping on top.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Reservation {
    level: MemLevel,
    kind: Kind,
    bytes: u64,
    serial: u64,
}

impl Reservation {
    /// The level whose capacity this reservation holds (for
    /// [`Kind::HbwPreferred`] this may be [`MemLevel::Ddr`] — the
    /// fallback).
    pub fn level(&self) -> MemLevel {
        self.level
    }

    /// The kind the reservation was requested with.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Reserved bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }
}

struct Inner {
    ddr: RegionAllocator,
    mcdram: RegionAllocator,
    next_serial: u64,
    live: usize,
    /// Live reservations by serial: (level, bytes). A `BTreeMap` keeps the
    /// iteration (and thus any diagnostic output) deterministic.
    reservations: BTreeMap<u64, (MemLevel, u64)>,
}

impl Inner {
    fn available(&self, level: MemLevel) -> u64 {
        match level {
            MemLevel::Ddr => self.ddr.available(),
            MemLevel::Mcdram => self.mcdram.available(),
        }
    }
}

/// The heap manager: one per simulated machine.
pub struct MemKind {
    inner: Mutex<Inner>,
    /// Bytes held by live reservations, by [`MemLevel::index`]. Written
    /// only with `inner` locked, so a check-then-claim in
    /// [`Self::try_reserve`] stays atomic; read without the lock, so a
    /// placement layer asking for headroom never waits. The `Release`
    /// updates pair with the `Acquire` load in [`Self::reserved`]: a
    /// reader that sees a claim also sees the writes made before it.
    reserved: [AtomicU64; 2],
}

impl MemKind {
    /// Build a manager for `cfg`. In cache mode the MCDRAM partition has
    /// zero capacity and all `Hbw` requests fail (as strict `hbw_malloc`
    /// does on a cache-mode KNL); in hybrid mode it has the flat share.
    pub fn new(cfg: &MachineConfig) -> Self {
        MemKind {
            inner: Mutex::new(Inner {
                ddr: RegionAllocator::new(MemLevel::Ddr, cfg.ddr_capacity),
                mcdram: RegionAllocator::new(MemLevel::Mcdram, cfg.addressable_mcdram()),
                next_serial: 0,
                live: 0,
                reservations: BTreeMap::new(),
            }),
            reserved: [AtomicU64::new(0), AtomicU64::new(0)],
        }
    }

    /// Allocate `size` bytes with the given kind's policy.
    pub fn malloc(&self, kind: Kind, size: u64) -> Result<SimAllocation, SimError> {
        self.memalign(kind, size, 1)
    }

    /// Variant of [`Self::malloc`] with an alignment requirement
    /// (`hbw_posix_memalign`).
    pub fn memalign(&self, kind: Kind, size: u64, align: u64) -> Result<SimAllocation, SimError> {
        let mut g = self.inner.lock();
        let region = match kind {
            Kind::Default => g.ddr.alloc_aligned(size, align)?,
            Kind::Hbw => g.mcdram.alloc_aligned(size, align)?,
            Kind::HbwPreferred => match g.mcdram.alloc_aligned(size, align) {
                Ok(r) => r,
                Err(SimError::OutOfMemory { .. }) => g.ddr.alloc_aligned(size, align)?,
                Err(e) => return Err(e),
            },
        };
        let serial = g.next_serial;
        g.next_serial += 1;
        g.live += 1;
        Ok(SimAllocation {
            region,
            kind,
            serial,
        })
    }

    /// Release an allocation back to its level.
    pub fn free(&self, alloc: SimAllocation) {
        let mut g = self.inner.lock();
        match alloc.region.level {
            MemLevel::Ddr => g.ddr.free(alloc.region),
            MemLevel::Mcdram => g.mcdram.free(alloc.region),
        }
        g.live -= 1;
    }

    /// Bytes still allocatable in the given level (`hbw_verify` analogue).
    pub fn available(&self, level: MemLevel) -> u64 {
        self.inner.lock().available(level)
    }

    /// True if strict HBW allocation is possible at all
    /// (`hbw_check_available`).
    pub fn hbw_available(&self) -> bool {
        self.inner.lock().mcdram.capacity() > 0
    }

    /// Number of live (unfreed) allocations.
    pub fn live_allocations(&self) -> usize {
        self.inner.lock().live
    }

    /// Reserve `bytes` of capacity under the given kind's placement policy
    /// without allocating an address range.
    ///
    /// [`Kind::Hbw`] reserves strictly from MCDRAM and fails with
    /// [`SimError::OutOfMemory`] when the unreserved MCDRAM capacity is
    /// exhausted; [`Kind::HbwPreferred`] falls back to a DDR reservation in
    /// that case (mirroring `HBW_PREFERRED` allocation fallback);
    /// [`Kind::Default`] reserves from DDR. Reservations stack with live
    /// allocations: both shrink [`Self::reservable`], but a reservation
    /// does not block [`Self::malloc`] — the reserving job is expected to
    /// allocate into its own claim.
    pub fn try_reserve(&self, kind: Kind, bytes: u64) -> Result<Reservation, SimError> {
        if bytes == 0 {
            return Err(SimError::BadOp("reservation of zero bytes".into()));
        }
        let mut g = self.inner.lock();
        let level = match kind {
            Kind::Default => {
                self.check_reservable(&g, MemLevel::Ddr, bytes)?;
                MemLevel::Ddr
            }
            Kind::Hbw => {
                self.check_reservable(&g, MemLevel::Mcdram, bytes)?;
                MemLevel::Mcdram
            }
            Kind::HbwPreferred => match self.check_reservable(&g, MemLevel::Mcdram, bytes) {
                Ok(()) => MemLevel::Mcdram,
                Err(SimError::OutOfMemory { .. }) => {
                    self.check_reservable(&g, MemLevel::Ddr, bytes)?;
                    MemLevel::Ddr
                }
                Err(e) => return Err(e),
            },
        };
        let serial = g.next_serial;
        g.next_serial += 1;
        self.reserved[level.index()].fetch_add(bytes, Ordering::Release);
        g.reservations.insert(serial, (level, bytes));
        Ok(Reservation {
            level,
            kind,
            bytes,
            serial,
        })
    }

    /// Check that `bytes` are still reservable in `level`; `g` is the
    /// held lock, which keeps the check valid until the caller claims.
    fn check_reservable(&self, g: &Inner, level: MemLevel, bytes: u64) -> Result<(), SimError> {
        let free = self.reservable_in(g, level);
        if bytes > free {
            return Err(SimError::OutOfMemory {
                level,
                requested: bytes,
                available: free,
            });
        }
        Ok(())
    }

    /// Return a reservation's capacity to its level.
    ///
    /// Fails with [`SimError::BadOp`] when the reservation is not live —
    /// i.e. on a double release (reservations are `Clone` for bookkeeping,
    /// so the type system alone cannot rule that out, and silently
    /// tolerating it would corrupt the broker's balance).
    pub fn release(&self, r: &Reservation) -> Result<(), SimError> {
        let mut g = self.inner.lock();
        match g.reservations.remove(&r.serial) {
            Some((level, bytes)) => {
                debug_assert_eq!((level, bytes), (r.level, r.bytes));
                self.reserved[level.index()].fetch_sub(bytes, Ordering::Release);
                Ok(())
            }
            None => Err(SimError::BadOp(format!(
                "double release of reservation #{} ({} bytes of {:?})",
                r.serial, r.bytes, r.level
            ))),
        }
    }

    /// Bytes currently held by live reservations in `level`. Takes no
    /// lock.
    pub fn reserved(&self, level: MemLevel) -> u64 {
        self.reserved[level.index()].load(Ordering::Acquire)
    }

    /// Bytes still reservable in `level`: the allocator's availability
    /// minus live reservations.
    pub fn reservable(&self, level: MemLevel) -> u64 {
        self.reservable_in(&self.inner.lock(), level)
    }

    fn reservable_in(&self, g: &Inner, level: MemLevel) -> u64 {
        g.available(level).saturating_sub(self.reserved(level))
    }

    /// Number of live reservations (the broker's balance; zero after a
    /// full drain).
    pub fn live_reservations(&self) -> usize {
        self.inner.lock().reservations.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use knl_sim::machine::MemMode;
    use knl_sim::GIB;
    use proptest::prelude::*;

    fn flat() -> MemKind {
        MemKind::new(&MachineConfig::knl_7250(MemMode::Flat))
    }

    #[test]
    fn default_kind_lands_in_ddr() {
        let mk = flat();
        let a = mk.malloc(Kind::Default, GIB).unwrap();
        assert_eq!(a.level(), MemLevel::Ddr);
        assert_eq!(a.size(), GIB);
        mk.free(a);
        assert_eq!(mk.live_allocations(), 0);
    }

    #[test]
    fn hbw_lands_in_mcdram_and_respects_capacity() {
        let mk = flat();
        let a = mk.malloc(Kind::Hbw, 10 * GIB).unwrap();
        assert_eq!(a.level(), MemLevel::Mcdram);
        // 16 GiB total; 10 used; 8 more must fail strictly.
        let err = mk.malloc(Kind::Hbw, 8 * GIB).unwrap_err();
        assert!(matches!(
            err,
            SimError::OutOfMemory {
                level: MemLevel::Mcdram,
                ..
            }
        ));
        mk.free(a);
        assert!(mk.malloc(Kind::Hbw, 16 * GIB).is_ok());
    }

    #[test]
    fn hbw_preferred_falls_back_to_ddr() {
        let mk = flat();
        let big = mk.malloc(Kind::Hbw, 16 * GIB).unwrap();
        let b = mk.malloc(Kind::HbwPreferred, GIB).unwrap();
        assert_eq!(b.level(), MemLevel::Ddr, "fallback after MCDRAM exhausted");
        assert_eq!(b.kind(), Kind::HbwPreferred);
        mk.free(big);
        mk.free(b);
        let c = mk.malloc(Kind::HbwPreferred, GIB).unwrap();
        assert_eq!(c.level(), MemLevel::Mcdram, "MCDRAM again once free");
        mk.free(c);
    }

    #[test]
    fn cache_mode_has_no_hbw() {
        let mk = MemKind::new(&MachineConfig::knl_7250(MemMode::Cache));
        assert!(!mk.hbw_available());
        assert!(mk.malloc(Kind::Hbw, 1).is_err());
        // Preferred degrades to DDR.
        let a = mk.malloc(Kind::HbwPreferred, GIB).unwrap();
        assert_eq!(a.level(), MemLevel::Ddr);
        mk.free(a);
    }

    #[test]
    fn hybrid_mode_exposes_partial_hbw() {
        let mk = MemKind::new(&MachineConfig::knl_7250(MemMode::Hybrid {
            cache_fraction: 0.5,
        }));
        assert!(mk.hbw_available());
        assert_eq!(mk.available(MemLevel::Mcdram), 8 * GIB);
        let a = mk.malloc(Kind::Hbw, 8 * GIB).unwrap();
        assert!(mk.malloc(Kind::Hbw, 1).is_err());
        mk.free(a);
    }

    #[test]
    fn memalign_respects_alignment() {
        let mk = flat();
        let _pad = mk.malloc(Kind::Hbw, 3).unwrap();
        let a = mk.memalign(Kind::Hbw, 100, 4096).unwrap();
        assert_eq!(a.region().addr % 4096, 0);
        mk.free(a);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let mk = flat();
        let a = mk.malloc(Kind::Default, GIB).unwrap();
        let b = mk.malloc(Kind::Default, GIB).unwrap();
        let (ra, rb) = (a.region(), b.region());
        assert!(ra.end() <= rb.addr || rb.end() <= ra.addr);
        mk.free(a);
        mk.free(b);
    }

    #[test]
    fn available_tracks_usage() {
        let mk = flat();
        let before = mk.available(MemLevel::Ddr);
        let a = mk.malloc(Kind::Default, 5 * GIB).unwrap();
        assert_eq!(mk.available(MemLevel::Ddr), before - 5 * GIB);
        mk.free(a);
        assert_eq!(mk.available(MemLevel::Ddr), before);
    }

    #[test]
    fn allocations_are_distinguishable() {
        // Two same-shaped allocations must not compare equal (serial differs).
        let mk = flat();
        let a = mk.malloc(Kind::Default, 64).unwrap();
        mk.free(a.clone());
        let b = mk.malloc(Kind::Default, 64).unwrap();
        assert_ne!(a, b);
        mk.free(b);
    }

    #[test]
    fn zero_size_rejected() {
        let mk = flat();
        assert!(mk.malloc(Kind::Default, 0).is_err());
    }

    #[test]
    fn reserve_exhaustion_is_strict_for_hbw() {
        let mk = flat();
        let a = mk.try_reserve(Kind::Hbw, 10 * GIB).unwrap();
        assert_eq!(a.level(), MemLevel::Mcdram);
        assert_eq!(mk.reservable(MemLevel::Mcdram), 6 * GIB);
        let err = mk.try_reserve(Kind::Hbw, 8 * GIB).unwrap_err();
        assert!(matches!(
            err,
            SimError::OutOfMemory {
                level: MemLevel::Mcdram,
                requested,
                available,
            } if requested == 8 * GIB && available == 6 * GIB
        ));
        mk.release(&a).unwrap();
        assert!(mk.try_reserve(Kind::Hbw, 16 * GIB).is_ok());
    }

    #[test]
    fn reserve_preferred_falls_back_to_ddr() {
        let mk = flat();
        let big = mk.try_reserve(Kind::Hbw, 15 * GIB).unwrap();
        let b = mk.try_reserve(Kind::HbwPreferred, 4 * GIB).unwrap();
        assert_eq!(b.level(), MemLevel::Ddr, "fallback once MCDRAM is claimed");
        assert_eq!(b.kind(), Kind::HbwPreferred);
        assert_eq!(mk.reserved(MemLevel::Ddr), 4 * GIB);
        mk.release(&big).unwrap();
        mk.release(&b).unwrap();
        let c = mk.try_reserve(Kind::HbwPreferred, 4 * GIB).unwrap();
        assert_eq!(c.level(), MemLevel::Mcdram, "MCDRAM again after release");
        mk.release(&c).unwrap();
    }

    #[test]
    fn double_release_is_rejected() {
        let mk = flat();
        let r = mk.try_reserve(Kind::Hbw, GIB).unwrap();
        mk.release(&r).unwrap();
        let err = mk.release(&r).unwrap_err();
        assert!(matches!(err, SimError::BadOp(msg) if msg.contains("double release")));
        // The failed release must not disturb the balance.
        assert_eq!(mk.reserved(MemLevel::Mcdram), 0);
        assert_eq!(mk.live_reservations(), 0);
    }

    #[test]
    fn reservations_stack_with_allocations() {
        let mk = flat();
        let alloc = mk.malloc(Kind::Hbw, 6 * GIB).unwrap();
        // 10 GiB of unallocated MCDRAM remain; reservations claim from it.
        let r = mk.try_reserve(Kind::Hbw, 8 * GIB).unwrap();
        assert_eq!(mk.reservable(MemLevel::Mcdram), 2 * GIB);
        assert!(mk.try_reserve(Kind::Hbw, 3 * GIB).is_err());
        // A reservation is accounting only: the claiming job can still
        // malloc its buffers into the claim.
        let buf = mk.malloc(Kind::Hbw, 8 * GIB).unwrap();
        assert_eq!(buf.level(), MemLevel::Mcdram);
        mk.free(alloc);
        mk.free(buf);
        mk.release(&r).unwrap();
        assert_eq!(mk.reservable(MemLevel::Mcdram), 16 * GIB);
    }

    #[test]
    fn reserve_balance_returns_to_zero_after_drain() {
        let mk = flat();
        let rs: Vec<Reservation> = (0..8)
            .map(|_| mk.try_reserve(Kind::HbwPreferred, 3 * GIB).unwrap())
            .collect();
        // 16 GiB MCDRAM holds five 3-GiB claims; the rest spill to DDR.
        assert_eq!(mk.reserved(MemLevel::Mcdram), 15 * GIB);
        assert_eq!(mk.reserved(MemLevel::Ddr), 9 * GIB);
        assert_eq!(mk.live_reservations(), 8);
        for r in &rs {
            mk.release(r).unwrap();
        }
        assert_eq!(mk.live_reservations(), 0);
        assert_eq!(mk.reserved(MemLevel::Mcdram), 0);
        assert_eq!(mk.reserved(MemLevel::Ddr), 0);
    }

    #[test]
    fn zero_byte_reservation_rejected() {
        let mk = flat();
        assert!(mk.try_reserve(Kind::Hbw, 0).is_err());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random reserve / release / malloc / free sequences: the
        /// lock-free `reserved` is the sum of the live reservations, and
        /// `reservable` and every claim's verdict are the allocator's
        /// availability minus that sum.
        #[test]
        fn lock_free_balance_is_the_sum_of_live_reservations(
            steps in proptest::collection::vec((0u8..6, 1u64..=7, 0usize..64), 1..80),
        ) {
            let mk = flat();
            let mut live: Vec<Reservation> = Vec::new();
            let mut allocs: Vec<SimAllocation> = Vec::new();
            let levels = [MemLevel::Ddr, MemLevel::Mcdram];
            let sum = |live: &[Reservation], level: MemLevel| -> u64 {
                live.iter().filter(|r| r.level() == level).map(Reservation::bytes).sum()
            };
            for (op, gib, pick) in steps {
                let bytes = gib * GIB;
                match op {
                    0..=2 => {
                        let kind = [Kind::Default, Kind::Hbw, Kind::HbwPreferred][op as usize];
                        let free = |level| mk.available(level).saturating_sub(sum(&live, level));
                        let fits_mcdram = bytes <= free(MemLevel::Mcdram);
                        let fits_ddr = bytes <= free(MemLevel::Ddr);
                        let want = match kind {
                            Kind::Default => fits_ddr.then_some(MemLevel::Ddr),
                            Kind::Hbw => fits_mcdram.then_some(MemLevel::Mcdram),
                            Kind::HbwPreferred => {
                                if fits_mcdram {
                                    Some(MemLevel::Mcdram)
                                } else {
                                    fits_ddr.then_some(MemLevel::Ddr)
                                }
                            }
                        };
                        let got = mk.try_reserve(kind, bytes).ok();
                        prop_assert_eq!(got.as_ref().map(Reservation::level), want);
                        live.extend(got);
                    }
                    3 if !live.is_empty() => {
                        let r = live.swap_remove(pick % live.len());
                        mk.release(&r).unwrap();
                    }
                    4 => allocs.extend(mk.malloc(Kind::HbwPreferred, bytes).ok()),
                    5 if !allocs.is_empty() => mk.free(allocs.swap_remove(pick % allocs.len())),
                    _ => {}
                }
                for level in levels {
                    let held = sum(&live, level);
                    prop_assert_eq!(mk.reserved(level), held);
                    prop_assert_eq!(
                        mk.reservable(level),
                        mk.available(level).saturating_sub(held)
                    );
                }
                prop_assert_eq!(mk.live_reservations(), live.len());
            }
        }
    }
}
