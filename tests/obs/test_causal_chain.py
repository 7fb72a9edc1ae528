"""Acceptance: one cross-rank connection reads as one causal span tree.

The issue's bar: a 128-PE on-demand run with ``observe=True`` must
export a Chrome trace in which a connection establishment reconstructs
as a single causal chain — conduit request, UD exchange, QP
RESET→INIT→RTR→RTS on both ends, first RC delivery — by following
``parent_id`` links from the client's ``conduit.connect`` root span.
"""

import pytest

from repro.apps import HelloWorld
from repro.cluster import cluster_b
from repro.core import Job, RuntimeConfig
from repro.obs import span_descendants, span_index, validate_chrome_trace


@pytest.fixture(scope="module")
def job():
    job = Job(
        npes=128,
        config=RuntimeConfig.proposed(observe=True),
        cluster=cluster_b(128, ppn=16),
    )
    job.run(HelloWorld())
    return job


def _cross_node_connected_roots(job):
    """Client connect spans that completed via the reply path against a
    peer on a different node (the full UD handshake, not a local serve
    shortcut or a collision adoption)."""
    cluster = job.cluster
    roots = []
    for span in job.obs.spans.by_name("conduit.connect"):
        if span.attrs.get("outcome") != "connected":
            continue
        client = int(span.actor[2:])
        peer = span.attrs["peer"]
        if cluster.node_of(client) != cluster.node_of(peer):
            roots.append(span)
    return roots


def test_cross_rank_establishment_is_one_causal_tree(job):
    roots = _cross_node_connected_roots(job)
    assert roots, "128-PE on-demand run produced no cross-node handshake"
    children = span_index(job.obs.spans)

    root = roots[0]
    client = root.actor
    server = f"pe{root.attrs['peer']}"
    tree = span_descendants(root, children)
    by_name_actor = {(s.name, s.actor) for s in tree}

    # Client side: QP brought up, request sent, reply received, RTR/RTS.
    for name in ("qp.RESET", "qp.INIT", "conduit.ud_request",
                 "conduit.reply_rx", "qp.RTR", "qp.RTS"):
        assert (name, client) in by_name_actor, (
            f"missing {name} on client {client} in tree of span "
            f"#{root.span_id}"
        )
    # Server side: the serve span links back via the request's span_id
    # and carries the server QP state machine and the UD reply.
    for name in ("conduit.serve", "qp.RESET", "qp.INIT", "qp.RTR",
                 "qp.RTS", "conduit.ud_reply"):
        assert (name, server) in by_name_actor, (
            f"missing {name} on server {server} in tree of span "
            f"#{root.span_id}"
        )
    # The first RC delivery over the new connection is attributed to
    # the same establishment tree.
    assert any(s.name == "rc.first_delivery" for s in tree)


def test_causal_ordering_within_the_tree(job):
    children = span_index(job.obs.spans)
    for root in _cross_node_connected_roots(job):
        tree = span_descendants(root, children)
        named = {}
        for s in tree:
            named.setdefault(s.name, s)
        request = named["conduit.ud_request"]
        serve = named["conduit.serve"]
        reply = named["conduit.ud_reply"]
        reply_rx = named["conduit.reply_rx"]
        assert root.start_us <= request.start_us
        assert request.start_us <= serve.start_us
        assert serve.start_us <= reply.start_us
        assert reply.start_us <= reply_rx.start_us
        assert reply_rx.start_us <= root.end_us
        # Every span in the tree lives inside the simulated run.
        for s in tree:
            assert s.start_us >= 0.0
            assert s.end_us is None or s.end_us >= s.start_us


def test_handshake_rtt_distribution_recorded(job):
    hist = job.obs.histogram("conduit.handshake_rtt_us")
    assert hist.count >= len(_cross_node_connected_roots(job))
    assert hist.min > 0.0
    assert hist.quantile(0.99) >= hist.quantile(0.5) > 0.0


def test_chrome_trace_exports_and_validates_at_scale(job):
    trace = job.obs.chrome_trace(label="128-PE on-demand")
    stats = validate_chrome_trace(trace)
    # One metadata pair per track plus the process name: 128 PE tracks
    # and at least the pmi track (fabric only appears when the fabric
    # records drop/duplicate events, which a clean run has none of).
    ntracks = (stats["M"] - 1) // 2
    assert ntracks >= 129
    assert stats["X"] > 0 and stats["i"] > 0
    assert stats.get("s", 0) == stats.get("f", 0) > 0
    names = {
        e["args"]["name"]
        for e in trace["traceEvents"]
        if e["ph"] == "M" and e["name"] == "thread_name"
    }
    assert {"pe0", "pe127", "pmi"} <= names
