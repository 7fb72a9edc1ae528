"""Closed-form models of the PMI daemon tree (macro phase layer).

Companion to :mod:`repro.pmi.server`: every formula here mirrors one
code path of the exact engine.  Two kinds of results come out:

* **Exact combinatorics** — :func:`iallgather_tree_counters` computes
  the ``pmi.tree_messages`` / ``pmi.tree_bytes`` totals of one
  allgather over the daemon tree.  These depend only on the tree shape
  and payload sizes, never on timing, so they match the exact DES
  bit for bit and are asserted by the equivalence fixtures.
* **Timing recurrences** — :func:`iallgather_release_times` replays the
  per-daemon ``occupy`` chains (client contributions, tree sends, the
  down-phase waiter release) as an O(npes + nnodes) recurrence.  Under
  a lossless management network this reproduces the exact engine's
  release instants; it feeds the *modeled* on-demand finalize path
  (``resolve_directory`` waits) and is not asserted by fixtures.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..cluster import Cluster

__all__ = [
    "tree_fanout",
    "tree_children",
    "subtree_rank_counts",
    "iallgather_tree_counters",
    "iallgather_release_times",
]


def tree_fanout(cluster: Cluster) -> int:
    """The daemon tree fan-out (mirrors ``PMIDomain.__init__``)."""
    return max(2, cluster.cost.pmi_tree_fanout)


def tree_children(node: int, fanout: int, nnodes: int) -> List[int]:
    """Children of ``node`` in the k-ary heap layout (``Daemon.children``)."""
    first = node * fanout + 1
    return [c for c in range(first, first + fanout) if c < nnodes]


def subtree_rank_counts(cluster: Cluster) -> List[int]:
    """Ranks in the daemon subtree rooted at each node.

    The up-phase payload a daemon forwards maps every rank in its
    subtree to that rank's contribution, so the message size from node
    ``k`` is governed by this count (``_CollectiveState.entries`` for an
    allgather is ``max(1, len(payload))``).
    """
    fanout = tree_fanout(cluster)
    nnodes = cluster.nnodes
    counts = [len(cluster.ranks_on_node(n)) for n in range(nnodes)]
    # Children have strictly larger indices than their parent in the
    # heap layout, so one reverse sweep accumulates bottom-up.
    for node in range(nnodes - 1, 0, -1):
        counts[(node - 1) // fanout] += counts[node]
    return counts


def iallgather_tree_counters(cluster: Cluster) -> Tuple[int, int]:
    """(messages, bytes) one allgather pushes over the daemon tree.

    Up phase: every non-root daemon sends its merged subtree payload to
    its parent — ``nnodes - 1`` messages of
    ``max(64, subtree_ranks * pmi_entry_bytes)`` each.  Down phase: the
    full result (npes entries) is re-serialised on every edge —
    another ``nnodes - 1`` messages of ``max(64, npes * pmi_entry_bytes)``.
    A single-node job never touches the tree.
    """
    cost = cluster.cost
    nnodes = cluster.nnodes
    if nnodes <= 1:
        return 0, 0
    sub = subtree_rank_counts(cluster)
    entry = cost.pmi_entry_bytes
    up_bytes = sum(max(64, sub[n] * entry) for n in range(1, nnodes))
    down_bytes = (nnodes - 1) * max(64, max(1, cluster.npes) * entry)
    return 2 * (nnodes - 1), up_bytes + down_bytes


def iallgather_release_times(
    cluster: Cluster, call_times: Sequence[float]
) -> List[float]:
    """Per-node client release instants of one allgather.

    ``call_times[r]`` is the simulated time PE ``r`` calls
    ``iallgather`` (all clients are waiters — the on-demand startup
    arms the handle before any daemon finishes).  The recurrence
    replays, per daemon, the exact ``occupy`` chain of
    :mod:`repro.pmi.server` in chronological order: local contribution
    round-trips, child tree-message arrivals, the up-phase send, the
    down-phase fan-out and finally
    ``release_at = max(when, busy_until) + rtt/2``.

    Lossless-network assumption: management TCP never drops, so
    arrival = send_done + tcp_time exactly as ``_tree_send`` computes.
    """
    cost = cluster.cost
    fanout = tree_fanout(cluster)
    nnodes = cluster.nnodes
    npes = cluster.npes
    rtt2 = cost.pmi_local_rtt_us / 2
    scpu = cost.pmi_server_cpu_us
    ecpu = cost.pmi_entry_cpu_us
    entry = cost.pmi_entry_bytes
    sub = subtree_rank_counts(cluster)
    busy = [0.0] * nnodes
    # node -> [(arrival, ser_cpu), ...] of child up-messages.
    up_arrivals: Dict[int, List[Tuple[float, float]]] = {
        n: [] for n in range(nnodes)
    }
    ready = [0.0] * nnodes  # 'when' the daemon's subtree completes

    # Up phase: children have larger indices, so a reverse index sweep
    # visits every child before its parent.
    for node in range(nnodes - 1, -1, -1):
        # All busy-advancing events on this daemon before its up-send,
        # in chronological order of the occupy() *call*: a local
        # contribution occupies at client-call time (arrival call+rtt/2),
        # a tree arrival occupies at its arrival instant.
        events = [
            (call_times[r], call_times[r] + rtt2, scpu)
            for r in cluster.ranks_on_node(node)
        ]
        events += [(arr, arr, scpu + ser) for arr, ser in up_arrivals[node]]
        events.sort()
        b = busy[node]
        for _call, arrival, cpu in events:
            start = arrival if arrival > b else b
            b = start + cpu
        ready[node] = b
        busy[node] = b
        if node > 0:
            ser = sub[node] * ecpu
            send_done = b + ser  # occupy(ready, ser) with busy == ready
            busy[node] = send_done
            nbytes = max(64, sub[node] * entry)
            arrival = send_done + cost.pmi_tcp_time(nbytes)
            up_arrivals[(node - 1) // fanout].append((arrival, ser))

    # Down phase: the root result is re-serialised per edge; a parent's
    # sends queue behind each other on its own busy chain
    # (``_propagate_down`` calls ``_tree_send`` with the same ``when``
    # for every child — serialisation comes from ``occupy`` alone).
    down_entries = max(1, npes)
    ser_down = down_entries * ecpu
    nb_down = max(64, down_entries * entry)
    deliver = [0.0] * nnodes  # 'when' deliver_down runs at each node
    deliver[0] = ready[0]
    release = [0.0] * nnodes
    for node in range(nnodes):  # index order == top-down order
        when = deliver[node]
        for child in tree_children(node, fanout, nnodes):
            start = when if when > busy[node] else busy[node]
            send_done = start + ser_down
            busy[node] = send_done
            arrival = send_done + cost.pmi_tcp_time(nb_down)
            cstart = arrival if arrival > busy[child] else busy[child]
            cdone = cstart + (scpu + ser_down)
            busy[child] = cdone
            deliver[child] = cdone
        after = when if when > busy[node] else busy[node]
        release[node] = after + rtt2
    return release
