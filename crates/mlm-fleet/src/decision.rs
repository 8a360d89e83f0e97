//! The dispatcher's decision log: what was placed where, admitted when,
//! stolen by whom — the sequence both serving modes must agree on.
//!
//! The virtual-time and real-thread modes cannot agree on *timing* (one
//! runs a model, the other a wall clock), so equivalence is defined over
//! the canonical projection that is timing-independent:
//!
//! * the global **placement sequence** — `Placed`/`Rejected` in submission
//!   order (both modes decide placements in submission order, before the
//!   decision can be influenced by a completion), and
//! * each node's **admission sequence** — per-node order is fixed by the
//!   queue discipline, even though the global interleaving across nodes
//!   depends on which node's job happens to finish first.
//!
//! [`decision_digest`] hashes exactly that projection, so equal digests ⇔
//! equal canonical decision sequences.

use knl_sim::MemLevel;
use mlm_serve::JobId;

/// One dispatcher decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// The job was routed to a node's queue at submission.
    Placed {
        /// Job id.
        job: JobId,
        /// Target node.
        node: usize,
    },
    /// No node could ever fit the job's ring; refused at submission.
    Rejected {
        /// Job id.
        job: JobId,
    },
    /// A node's broker reserved the job's ring and it started.
    Admitted {
        /// Job id.
        job: JobId,
        /// Node that admitted it.
        node: usize,
        /// Memory level of the ring reservation.
        level: MemLevel,
    },
    /// An idle node stole the job from a backlogged node's queue.
    Stolen {
        /// Job id.
        job: JobId,
        /// Donor node.
        from: usize,
        /// Thief node.
        to: usize,
    },
}

/// The global placement/rejection subsequence, in decision order.
pub fn placement_sequence(decisions: &[Decision]) -> Vec<Decision> {
    decisions
        .iter()
        .filter(|d| matches!(d, Decision::Placed { .. } | Decision::Rejected { .. }))
        .copied()
        .collect()
}

/// `node`'s admission subsequence `(job, level)`, in decision order.
pub fn admission_sequence(decisions: &[Decision], node: usize) -> Vec<(JobId, MemLevel)> {
    decisions
        .iter()
        .filter_map(|d| match d {
            Decision::Admitted {
                job,
                node: n,
                level,
            } if *n == node => Some((*job, *level)),
            _ => None,
        })
        .collect()
}

fn fnv1a(h: &mut u64, word: u64) {
    for b in word.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x100_0000_01b3);
    }
}

/// FNV-1a digest of the canonical decision projection: the placement
/// sequence, then each node's admission sequence in node order. Two runs
/// with equal digests made the same placements and the same per-node
/// admissions (with the same memory levels) — the drift signal
/// `fleet_bench --check` hard-fails on.
pub fn decision_digest(decisions: &[Decision], nodes: usize) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for d in placement_sequence(decisions) {
        match d {
            Decision::Placed { job, node } => {
                fnv1a(&mut h, 1);
                fnv1a(&mut h, job);
                fnv1a(&mut h, node as u64);
            }
            Decision::Rejected { job } => {
                fnv1a(&mut h, 2);
                fnv1a(&mut h, job);
            }
            _ => unreachable!("placement_sequence filters to Placed/Rejected"),
        }
    }
    for n in 0..nodes {
        fnv1a(&mut h, 3);
        for (job, level) in admission_sequence(decisions, n) {
            fnv1a(&mut h, job);
            fnv1a(&mut h, matches!(level, MemLevel::Mcdram) as u64);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_is_order_sensitive_where_it_must_be() {
        let a = vec![
            Decision::Placed { job: 0, node: 0 },
            Decision::Placed { job: 1, node: 1 },
            Decision::Admitted {
                job: 0,
                node: 0,
                level: MemLevel::Mcdram,
            },
            Decision::Admitted {
                job: 1,
                node: 1,
                level: MemLevel::Mcdram,
            },
        ];
        // Swapping the cross-node admission interleaving does not change
        // the canonical digest (per-node sequences are unchanged)...
        let mut b = a.clone();
        b.swap(2, 3);
        assert_eq!(decision_digest(&a, 2), decision_digest(&b, 2));
        // ...but swapping the placement order does.
        let mut c = a.clone();
        c.swap(0, 1);
        assert_ne!(decision_digest(&a, 2), decision_digest(&c, 2));
        // And so does moving an admission to a different node.
        let mut d = a;
        d[2] = Decision::Admitted {
            job: 0,
            node: 1,
            level: MemLevel::Mcdram,
        };
        assert_ne!(decision_digest(&c, 2), decision_digest(&d, 2));
    }

    #[test]
    fn projections_filter_correctly() {
        let ds = vec![
            Decision::Placed { job: 7, node: 1 },
            Decision::Stolen {
                job: 7,
                from: 1,
                to: 0,
            },
            Decision::Admitted {
                job: 7,
                node: 0,
                level: MemLevel::Ddr,
            },
            Decision::Rejected { job: 8 },
        ];
        assert_eq!(
            placement_sequence(&ds),
            vec![
                Decision::Placed { job: 7, node: 1 },
                Decision::Rejected { job: 8 }
            ]
        );
        assert_eq!(admission_sequence(&ds, 0), vec![(7, MemLevel::Ddr)]);
        assert!(admission_sequence(&ds, 1).is_empty());
    }
}
