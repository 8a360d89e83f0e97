//! Message-passing PSRS with MLM-sort node-local phases, executed for real.
//!
//! Each simulated "node" is a worker thread owning a shard of the keys.
//! The four classic PSRS phases run with genuine message passing
//! (`crossbeam` channels), so the exchange is a real all-to-all, not an
//! array shuffle:
//!
//! 1. local sort — MLM-sort over the shard (each node uses a private
//!    [`WorkPool`] for its chunk sorts, standing in for the node's 256
//!    hardware threads);
//! 2. regular sampling — every node sends `nodes` samples to node 0, which
//!    sorts them and broadcasts `nodes - 1` splitters;
//! 3. all-to-all — every node partitions its sorted shard by the splitters
//!    and sends partition `j` to node `j`;
//! 4. local multiway merge of the received (sorted) fragments.
//!
//! The result is gathered in node order; the concatenation is globally
//! sorted.

use crossbeam::channel::{unbounded, Receiver, Sender};
use mlm_core::sort::host::mlm_sort;
use parsort::multiway::multiway_merge_into;
use parsort::pool::WorkPool;
use parsort::radix::RadixKey;

use crate::ClusterConfig;

/// Statistics of one distributed sort.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterSortStats {
    /// Nodes that participated.
    pub nodes: usize,
    /// Elements each node ended up owning after the exchange (load
    /// balance check; PSRS guarantees < 2x the ideal share).
    pub received_per_node: Vec<usize>,
    /// Wall-clock duration.
    pub elapsed: std::time::Duration,
}

enum NodeMsg<T> {
    Samples(Vec<T>),
    Splitters(Vec<T>),
    Partition(Vec<T>),
    /// End-of-exchange marker: every node sends exactly one partition to
    /// every other node, so `nodes` partitions (incl. its own) terminate
    /// the receive loop without needing counts up front.
    Done,
}

/// Sort `data` across `cfg.nodes` message-passing nodes and return the
/// globally sorted result plus statistics.
///
/// `threads_per_node` sizes each node's local [`WorkPool`] (its "hardware
/// threads"); `megachunk_elems` is MLM-sort's megachunk within a node.
pub fn cluster_sort<T: Ord + RadixKey + Send + Sync>(
    cfg: &ClusterConfig,
    data: &[T],
    threads_per_node: usize,
    megachunk_elems: usize,
) -> (Vec<T>, ClusterSortStats) {
    cfg.validate().expect("invalid cluster config");
    let n = cfg.nodes;
    let start = std::time::Instant::now();
    if data.is_empty() || n == 1 {
        // Single node: plain MLM-sort.
        let pool = WorkPool::new(threads_per_node);
        let mut v = data.to_vec();
        mlm_sort(&pool, &mut v, megachunk_elems.max(1), true);
        let stats = ClusterSortStats {
            nodes: 1,
            received_per_node: vec![v.len()],
            elapsed: start.elapsed(),
        };
        return (v, stats);
    }

    // Channel mesh: inboxes[i] receives everything addressed to node i.
    let mut senders: Vec<Sender<NodeMsg<T>>> = Vec::with_capacity(n);
    let mut inboxes: Vec<Option<Receiver<NodeMsg<T>>>> = Vec::with_capacity(n);
    for _ in 0..n {
        let (tx, rx) = unbounded();
        senders.push(tx);
        inboxes.push(Some(rx));
    }

    // Shard the input.
    let shard_size = data.len().div_ceil(n);
    let shards: Vec<&[T]> = (0..n)
        .map(|i| {
            let lo = (i * shard_size).min(data.len());
            let hi = ((i + 1) * shard_size).min(data.len());
            &data[lo..hi]
        })
        .collect();

    let mut results: Vec<Vec<T>> = Vec::with_capacity(n);
    std::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(n);
        for (node, shard) in shards.iter().enumerate() {
            let senders = senders.clone();
            let inbox = inboxes[node].take().expect("inbox taken once");
            handles.push(scope.spawn(move || {
                run_node(
                    node,
                    n,
                    shard,
                    inbox,
                    &senders,
                    threads_per_node,
                    megachunk_elems,
                )
            }));
        }
        for h in handles {
            results.push(h.join().expect("node thread panicked"));
        }
    });

    let received_per_node: Vec<usize> = results.iter().map(|r| r.len()).collect();
    let out: Vec<T> = results.into_iter().flatten().collect();
    let stats = ClusterSortStats {
        nodes: n,
        received_per_node,
        elapsed: start.elapsed(),
    };
    (out, stats)
}

fn run_node<T: Ord + RadixKey + Send + Sync>(
    node: usize,
    n: usize,
    shard: &[T],
    inbox: Receiver<NodeMsg<T>>,
    senders: &[Sender<NodeMsg<T>>],
    threads_per_node: usize,
    megachunk_elems: usize,
) -> Vec<T> {
    let pool = WorkPool::new(threads_per_node);
    // Messages can arrive ahead of the phase that consumes them: node 0
    // broadcasts splitters to peers one at a time, so a peer that got its
    // splitters early can deliver exchange partitions to a node still
    // waiting on its own splitters. Such messages are deferred here and
    // drained by the exchange loop instead of aborting the phase.
    let mut deferred: std::collections::VecDeque<NodeMsg<T>> = std::collections::VecDeque::new();

    // Phase 1: local MLM-sort.
    let mut local = shard.to_vec();
    if local.len() > 1 {
        mlm_sort(&pool, &mut local, megachunk_elems.max(1), true);
    }

    // Phase 2: regular sampling. Every node (including 0) sends n samples
    // at regular offsets to node 0.
    let samples: Vec<T> = (0..n)
        .filter_map(|k| {
            if local.is_empty() {
                None
            } else {
                Some(local[(k * local.len()) / n])
            }
        })
        .collect();
    senders[0]
        .send(NodeMsg::Samples(samples))
        .expect("node 0 alive");

    let splitters: Vec<T> = if node == 0 {
        // Gather n sample sets, sort, pick every n-th as a splitter.
        let mut all = Vec::with_capacity(n * n);
        let mut sets = 0;
        while sets < n {
            match inbox.recv().expect("mesh alive") {
                NodeMsg::Samples(s) => {
                    all.extend(s);
                    sets += 1;
                }
                NodeMsg::Splitters(_) => {
                    unreachable!("splitters are broadcast by node 0, never sent to it")
                }
                other => deferred.push_back(other),
            }
        }
        all.sort_unstable();
        let splitters: Vec<T> = (1..n)
            .filter_map(|k| all.get(k * all.len() / n).copied())
            .collect();
        for s in senders.iter().skip(1) {
            s.send(NodeMsg::Splitters(splitters.clone()))
                .expect("mesh alive");
        }
        splitters
    } else {
        loop {
            match inbox.recv().expect("mesh alive") {
                NodeMsg::Splitters(s) => break s,
                NodeMsg::Samples(_) => unreachable!("samples are addressed to node 0"),
                other => deferred.push_back(other),
            }
        }
    };

    // Phase 3: partition by splitters and exchange. Partition j goes to
    // node j; splitters has n-1 entries.
    let mut cut = 0usize;
    for (j, sender) in senders.iter().enumerate() {
        let hi = if j < splitters.len() {
            local.partition_point(|x| *x <= splitters[j]).max(cut)
        } else {
            local.len()
        };
        sender
            .send(NodeMsg::Partition(local[cut..hi].to_vec()))
            .expect("mesh alive");
        sender.send(NodeMsg::Done).expect("mesh alive");
        cut = hi;
    }

    // Phase 4: receive n partitions (one per peer, possibly empty) and
    // multiway merge them. `Done` markers count peers.
    let mut fragments: Vec<Vec<T>> = Vec::with_capacity(n);
    let mut done = 0usize;
    while done < n {
        let msg = deferred
            .pop_front()
            .unwrap_or_else(|| inbox.recv().expect("mesh alive"));
        match msg {
            NodeMsg::Partition(p) => fragments.push(p),
            NodeMsg::Done => done += 1,
            NodeMsg::Samples(_) | NodeMsg::Splitters(_) => {
                unreachable!("sampling finished before the exchange")
            }
        }
    }
    let total: usize = fragments.iter().map(|f| f.len()).sum();
    if total == 0 {
        return Vec::new();
    }
    let fill = fragments
        .iter()
        .find_map(|f| f.first().copied())
        .expect("total > 0 implies a nonempty fragment");
    let mut merged = vec![fill; total];
    let runs: Vec<&[T]> = fragments.iter().map(|f| f.as_slice()).collect();
    multiway_merge_into(&runs, &mut merged);
    merged
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlm_core::workload::{generate_keys, InputOrder};
    use parsort::serial::is_sorted;

    fn check(nodes: usize, n: usize, order: InputOrder) {
        let cfg = ClusterConfig::omnipath(nodes);
        let data = generate_keys(n, order, 31);
        let mut expect = data.clone();
        expect.sort_unstable();
        let (got, stats) = cluster_sort(&cfg, &data, 2, (n / 4).max(1));
        assert_eq!(got, expect, "nodes={nodes} n={n} {order:?}");
        assert_eq!(stats.nodes, nodes.max(1));
        assert_eq!(stats.received_per_node.iter().sum::<usize>(), n);
    }

    #[test]
    fn sorts_across_node_counts() {
        for nodes in [1usize, 2, 3, 4, 8] {
            check(nodes, 40_000, InputOrder::Random);
        }
    }

    #[test]
    fn sorts_structured_inputs() {
        check(4, 30_000, InputOrder::Reverse);
        check(4, 30_000, InputOrder::Sorted);
    }

    #[test]
    fn handles_duplicates_and_tiny_inputs() {
        let cfg = ClusterConfig::omnipath(4);
        let data = vec![7i64; 10_000];
        let (got, _) = cluster_sort(&cfg, &data, 2, 1000);
        assert_eq!(got, data);

        let (got, _) = cluster_sort::<i64>(&cfg, &[], 2, 10);
        assert!(got.is_empty());

        let (got, _) = cluster_sort(&cfg, &[3i64, 1, 2], 2, 10);
        assert_eq!(got, [1, 2, 3]);
    }

    #[test]
    fn psrs_load_balance_bound_holds() {
        // PSRS with regular sampling bounds each node's final share by
        // ~2x the ideal. Check a looser 3x bound on random data.
        let cfg = ClusterConfig::omnipath(8);
        let n = 160_000;
        let data = generate_keys(n, InputOrder::Random, 5);
        let (got, stats) = cluster_sort(&cfg, &data, 2, 10_000);
        assert!(is_sorted(&got));
        let ideal = n / 8;
        for (i, &r) in stats.received_per_node.iter().enumerate() {
            assert!(r < 3 * ideal, "node {i} got {r} of ideal {ideal}");
        }
    }

    #[test]
    fn skewed_input_still_sorts() {
        // Heavy skew: 90% of keys identical, the rest random.
        let mut data = vec![5i64; 45_000];
        data.extend(generate_keys(5_000, InputOrder::Random, 2));
        let mut expect = data.clone();
        expect.sort_unstable();
        let cfg = ClusterConfig::omnipath(4);
        let (got, _) = cluster_sort(&cfg, &data, 2, 10_000);
        assert_eq!(got, expect);
    }
}
