//! The op emitters both simulated backends lower plan nodes with.
//!
//! [`super::pipeline::sim::SimBackend`] and
//! [`super::sort::sim::SimSortBackend`] read where a node's bytes live off
//! the buffers its footprint names ([`sides`]), split those bytes over a
//! thread pool ([`share`]), and move them with [`copy`]. Nothing here knows
//! which backend is calling: a pipeline's chunk buffers and a sort's
//! arrays are both [`mlm_exec::PlanBuffer`]s.

use std::ops::Range;

use knl_sim::ops::{OpId, OpKind, Place, Program};
use mlm_exec::{Access, BufferId, Placement, PlanNode, WorkloadPlan};

/// Where one side of a node lives: `place` (a cached side starts at its
/// address), except that under numactl's preferred policy the blocks of
/// the first `mcdram_threads` threads sit in the array's MCDRAM part.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Side {
    pub place: Place,
    pub mcdram_threads: usize,
}

impl Side {
    /// A side wholly in `place`.
    pub fn new(place: Place) -> Self {
        Side {
            place,
            mcdram_threads: 0,
        }
    }

    /// Where thread `t`'s bytes at `offset` into the side live.
    pub fn at(self, t: usize, offset: u64) -> Place {
        match self.place {
            _ if t < self.mcdram_threads => Place::Mcdram,
            Place::CachedDdr { addr } => Place::CachedDdr {
                addr: addr + offset,
            },
            place => place,
        }
    }
}

/// The source and destination of `node` on a `threads`-thread machine:
/// the buffers it reads and the buffers it writes. A node that only
/// writes (an in-place update) reads what it writes, and one that only
/// reads (a drain into memory the plan does not declare) gets its read
/// side twice; `None` when it touches no declared buffer at all.
pub(crate) fn sides(plan: &WorkloadPlan, node: &PlanNode, threads: usize) -> Option<(Side, Side)> {
    let touches = plan.touches_of(node);
    let side = |access| {
        let mut ids = touches.iter().filter(|t| t.1 == access).map(|t| t.0);
        let first = ids.next()?;
        Some(side(plan, first, ids.next_back().unwrap_or(first), threads))
    };
    let (read, write) = (side(Access::Read), side(Access::Write));
    Some((read.or(write)?, write.or(read)?))
}

/// The side spanning buffers `first..=last`: one place when they share a
/// tier (windows of one array, contiguous in DDR), else numactl's
/// preferred array, HBW part first: its threads split by the share of the
/// array that part holds, the rest working the spill. Non-HBW buffers sit
/// back to back in DDR in declaration order, so a cache-addressed
/// ([`Placement::Implicit`]) buffer starts where the ones before it end.
fn side(plan: &WorkloadPlan, first: BufferId, last: BufferId, threads: usize) -> Side {
    let place = |b: BufferId| match plan.buffers[b].tier {
        Placement::Hbw => Place::Mcdram,
        Placement::Ddr => Place::Ddr,
        Placement::Implicit => Place::CachedDdr {
            addr: plan.buffers[..b]
                .iter()
                .filter(|x| x.tier != Placement::Hbw)
                .map(|x| x.bytes)
                .sum(),
        },
    };
    let (hbw, spill) = (&plan.buffers[first], &plan.buffers[last]);
    if hbw.tier == spill.tier {
        return Side::new(place(first));
    }
    let fit = hbw.bytes as f64 / (hbw.bytes + spill.bytes) as f64;
    Side {
        place: place(last),
        mcdram_threads: (threads as f64 * fit).round() as usize,
    }
}

/// Contiguous byte share `(offset, len)` of part `t` when `total` bytes
/// are split `parts` ways.
pub(crate) fn share(total: u64, parts: usize, t: usize) -> (u64, u64) {
    let (p, t) = (parts as u64, t as u64);
    let (base, extra) = (total / p, total % p);
    (t * base + t.min(extra), base + u64::from(t < extra))
}

/// Copy ops after `deps`: the threads of `pool` cooperatively move
/// `bytes` from `src` to `dst`, each its [`share`] at `rate`.
pub(crate) fn copy(
    prog: &mut Program,
    pool: Range<usize>,
    bytes: u64,
    (src, dst): (Side, Side),
    rate: f64,
    deps: &[OpId],
) -> Vec<OpId> {
    let parts = pool.len();
    let mut ops = Vec::with_capacity(parts);
    for (i, t) in pool.enumerate() {
        let (offset, len) = share(bytes, parts, i);
        if len == 0 {
            continue;
        }
        let kind = OpKind::Copy {
            src: src.at(i, offset),
            dst: dst.at(i, offset),
            bytes: len,
            rate_cap: rate,
        };
        ops.push(prog.push(t, kind, deps));
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_tile_the_total() {
        for bytes in [0u64, 1, 99, 100, 1 << 20] {
            for parts in [1usize, 2, 3, 7] {
                let mut next = 0;
                for t in 0..parts {
                    let (offset, len) = share(bytes, parts, t);
                    assert_eq!(offset, next);
                    next += len;
                }
                assert_eq!(next, bytes);
            }
        }
    }
}
