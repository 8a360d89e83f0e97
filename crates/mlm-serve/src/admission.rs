//! Policy candidate selection for [`crate::node::NodeSim::admit`].
//!
//! Every scheduler admits through `NodeSim::admit`: the virtual-time
//! event loop ([`crate::sched::serve`]) and both of `mlm-fleet`'s
//! dispatchers, virtual-time and real-thread. They differ in *when*
//! admission runs and what happens after it; the decision itself — which
//! queued job to try next — is this module's, and it has one caller.

use crate::job::{DeadlineClass, JobId, N_CLASSES};
use crate::policy::Policy;

/// Pick the next admission candidate's *position* in `ready` (a queue of
/// job indices in arrival order), or `None` when no candidate remains.
///
/// - FIFO: the queue head.
/// - SJF: minimum predicted makespan, ties by job id.
/// - Fair-share: the oldest queued job of the lowest-credit class whose
///   class is not marked `blocked` (a class blocks when its head job hits
///   broker capacity, letting other classes keep flowing).
///
/// `est`, `ids` and `classes` are indexed by job index (the values stored
/// in `ready`), not by queue position.
pub(crate) fn select_candidate(
    policy: Policy,
    ready: &[usize],
    est: &[f64],
    ids: &[JobId],
    classes: &[DeadlineClass],
    credit: &[f64; N_CLASSES],
    blocked: &[bool; N_CLASSES],
) -> Option<usize> {
    match policy {
        Policy::Fifo => {
            if ready.is_empty() {
                None
            } else {
                Some(0)
            }
        }
        Policy::Sjf => (0..ready.len()).min_by(|&a, &b| {
            est[ready[a]]
                .total_cmp(&est[ready[b]])
                .then(ids[ready[a]].cmp(&ids[ready[b]]))
        }),
        Policy::FairShare => {
            // Lowest-credit class with an unblocked queued job; its oldest
            // job is the candidate.
            let mut best: Option<(f64, usize)> = None;
            for (pos, &idx) in ready.iter().enumerate() {
                let c = classes[idx].index();
                if blocked[c] {
                    continue;
                }
                // First (oldest) queued job of each class wins within the
                // class; classes compare by normalized credit.
                if best.map(|(_, p)| classes[ready[p]].index() == c) == Some(true) {
                    continue;
                }
                match best {
                    Some((cr, _)) if credit[c] >= cr => {}
                    _ => best = Some((credit[c], pos)),
                }
            }
            best.map(|(_, p)| p)
        }
    }
}

/// Fair-share credit charge at admission: the job's service estimate
/// normalised by its class weight. FIFO/SJF carry no credit state, so
/// this is a no-op for them.
pub(crate) fn charge_credit(
    policy: Policy,
    credit: &mut [f64; N_CLASSES],
    class: DeadlineClass,
    est: f64,
) {
    if policy == Policy::FairShare {
        let service = if est.is_finite() { est } else { 1.0 };
        credit[class.index()] += service / class.weight();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifo_takes_the_head_sjf_the_shortest() {
        let ready = vec![2usize, 0, 1];
        let est = [5.0, 1.0, 3.0];
        let ids = [10u64, 11, 12];
        let classes = [DeadlineClass::Standard; 3];
        let credit = [0.0; N_CLASSES];
        let blocked = [false; N_CLASSES];
        assert_eq!(
            select_candidate(
                Policy::Fifo,
                &ready,
                &est,
                &ids,
                &classes,
                &credit,
                &blocked
            ),
            Some(0)
        );
        // Job index 0 (est 5.0) is at position 1; SJF picks index 1
        // (est 1.0) at position 2.
        assert_eq!(
            select_candidate(Policy::Sjf, &ready, &est, &ids, &classes, &credit, &blocked),
            Some(2)
        );
        assert_eq!(
            select_candidate(Policy::Fifo, &[], &est, &ids, &classes, &credit, &blocked),
            None
        );
    }

    #[test]
    fn fair_share_skips_blocked_classes_and_prefers_low_credit() {
        let ready = vec![0usize, 1, 2];
        let est = [1.0; 3];
        let ids = [0u64, 1, 2];
        let classes = [
            DeadlineClass::Interactive,
            DeadlineClass::Batch,
            DeadlineClass::Interactive,
        ];
        let mut credit = [0.0; N_CLASSES];
        credit[DeadlineClass::Interactive.index()] = 5.0;
        let mut blocked = [false; N_CLASSES];
        // Batch has less credit: its oldest job (pos 1) wins.
        assert_eq!(
            select_candidate(
                Policy::FairShare,
                &ready,
                &est,
                &ids,
                &classes,
                &credit,
                &blocked
            ),
            Some(1)
        );
        // With batch blocked, interactive's oldest (pos 0) wins — never
        // pos 2, which is the same class's younger job.
        blocked[DeadlineClass::Batch.index()] = true;
        assert_eq!(
            select_candidate(
                Policy::FairShare,
                &ready,
                &est,
                &ids,
                &classes,
                &credit,
                &blocked
            ),
            Some(0)
        );
    }

    #[test]
    fn credit_is_charged_weighted_and_only_for_fair_share() {
        let mut credit = [0.0; N_CLASSES];
        charge_credit(Policy::Fifo, &mut credit, DeadlineClass::Batch, 4.0);
        assert_eq!(credit, [0.0; N_CLASSES]);
        charge_credit(Policy::FairShare, &mut credit, DeadlineClass::Batch, 4.0);
        assert_eq!(credit[DeadlineClass::Batch.index()], 4.0);
        charge_credit(
            Policy::FairShare,
            &mut credit,
            DeadlineClass::Interactive,
            f64::INFINITY,
        );
        // Infinite estimates fall back to a unit charge.
        assert_eq!(
            credit[DeadlineClass::Interactive.index()],
            1.0 / DeadlineClass::Interactive.weight()
        );
    }
}
