//! The shared-pool drain both host backends run plan nodes with.
//!
//! [`super::pipeline::host`]'s backend and
//! [`super::sort::host::HostSortBackend`] hand every issued node to a
//! [`Drain`], which batches mutually independent nodes; each batch it
//! hands back runs as one [`parsort::pool::WorkPool::scoped`] call, whose
//! join realises every edge out of it. A pipeline node borrows the buffers
//! its footprint names through [`Leases`]. Nothing here knows which
//! backend is calling: this is the host mirror of [`super::lower`], and
//! the tasks themselves come from `parsort`'s emitters
//! ([`parsort::pool::copy_parts`], [`parsort::multiway::merge_parts`]).

use std::ops::Range;

use mlm_exec::BufferId;

/// Issued nodes not yet run, and the batches run so far.
///
/// Tokens are issue indices: [`mlm_exec::interpret`] issues every plan
/// node, barriers included, in plan order, so a node's token is its index
/// in the plan. The pending nodes are mutually independent, so they run
/// as one batch; a node that depends on a pending node first has the
/// pending batch run. A lockstep step's nodes depend only on the previous
/// barrier, so its batch is the step.
pub(crate) struct Drain<N> {
    pending: Vec<N>,
    /// Tokens handed out so far; the pending nodes hold the last ones.
    issued: usize,
    /// The tokens of every batch handed out to run, in order.
    pub ran: Vec<Range<usize>>,
}

impl<N> Drain<N> {
    pub fn new() -> Self {
        Drain {
            pending: Vec::new(),
            issued: 0,
            ran: Vec::new(),
        }
    }

    /// Issue `node` after `deps`: its token, and the batch to run before
    /// it (empty unless `node` depends on a pending node).
    pub fn issue(&mut self, node: N, deps: &[usize]) -> (usize, Vec<N>) {
        let start = self.issued - self.pending.len();
        let ready = if deps.iter().any(|&d| d >= start) {
            self.take()
        } else {
            Vec::new()
        };
        self.pending.push(node);
        self.issued += 1;
        (self.issued - 1, ready)
    }

    /// Close a step: the barrier's token, and the pending batch, which
    /// runs before anything issued after it.
    pub fn barrier(&mut self) -> (usize, Vec<N>) {
        let ready = self.take();
        self.issued += 1;
        (self.issued - 1, ready)
    }

    /// The pending batch, to run now.
    pub fn take(&mut self) -> Vec<N> {
        if !self.pending.is_empty() {
            self.ran.push(self.issued - self.pending.len()..self.issued);
        }
        std::mem::take(&mut self.pending)
    }
}

/// The plan's declared buffers, lent to the nodes of one batch: a node
/// that writes a buffer borrows it exclusively, the nodes that read one
/// share it. The nodes of a batch are mutually independent, and the
/// plan's proof (G004) rules out two such nodes touching one buffer
/// unless both read, so a conflicting loan is a broken plan and panics.
pub(crate) struct Leases<'b, T> {
    loans: Vec<Loan<'b, T>>,
}

enum Loan<'b, T> {
    Free(&'b mut Vec<T>),
    Shared(&'b [T]),
    Lent,
}

impl<'b, T> Leases<'b, T> {
    pub fn new(buffers: &'b mut [Vec<T>]) -> Self {
        Leases {
            loans: buffers.iter_mut().map(Loan::Free).collect(),
        }
    }

    /// Borrow buffer `b` for a node that writes it.
    pub fn write(&mut self, b: BufferId) -> &'b mut Vec<T> {
        match std::mem::replace(&mut self.loans[b], Loan::Lent) {
            Loan::Free(buf) => buf,
            _ => panic!("buffer {b} is written while another node of its batch uses it"),
        }
    }

    /// Borrow buffer `b` for a node that reads it.
    pub fn read(&mut self, b: BufferId) -> &'b [T] {
        let buf: &'b [T] = match std::mem::replace(&mut self.loans[b], Loan::Lent) {
            Loan::Free(buf) => buf,
            Loan::Shared(buf) => buf,
            Loan::Lent => panic!("buffer {b} is read while another node of its batch writes it"),
        };
        self.loans[b] = Loan::Shared(buf);
        buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_node_on_a_pending_node_runs_the_batch_first() {
        let mut drain = Drain::new();
        assert_eq!(drain.issue('a', &[]), (0, vec![]));
        assert_eq!(drain.issue('b', &[]), (1, vec![]));
        assert_eq!(drain.issue('c', &[1]), (2, vec!['a', 'b']));
        assert_eq!(drain.barrier(), (3, vec!['c']));
        // The barrier ran everything before it: depending on it is free.
        assert_eq!(drain.issue('d', &[3]), (4, vec![]));
        assert_eq!(drain.take(), ['d']);
        assert!(drain.take().is_empty());
        assert_eq!(drain.ran, [0..2, 2..3, 4..5]);
    }

    #[test]
    fn readers_share_a_buffer() {
        let mut buffers = vec![vec![1u8], vec![2]];
        let mut leases = Leases::new(&mut buffers);
        assert_eq!(leases.read(0), [1]);
        assert_eq!(leases.read(0), [1]);
        leases.write(1).push(3);
        assert_eq!(buffers, [vec![1], vec![2, 3]]);
    }

    #[test]
    #[should_panic(expected = "buffer 0 is written while another node of its batch uses it")]
    fn a_write_to_a_read_buffer_panics() {
        let mut buffers = vec![vec![1u8]];
        let mut leases = Leases::new(&mut buffers);
        leases.read(0);
        leases.write(0);
    }

    #[test]
    #[should_panic(expected = "buffer 0 is read while another node of its batch writes it")]
    fn a_read_of_a_written_buffer_panics() {
        let mut buffers = vec![vec![1u8]];
        let mut leases = Leases::new(&mut buffers);
        leases.write(0);
        leases.read(0);
    }
}
