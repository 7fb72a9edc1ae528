"""Host-memory footprint: idle queues cost only their object slots,
and collective channels are released once they drain."""

import tracemalloc

import pytest

from repro.apps import Graph500Hybrid, HelloWorld
from repro.core import Job, RuntimeConfig
from repro.ib import CompletionQueue
from repro.sim import Mailbox, Semaphore, Simulator


@pytest.mark.parametrize("make", [Mailbox, Semaphore, CompletionQueue],
                         ids=lambda cls: cls.__name__)
def test_idle_queue_allocates_under_150_bytes(make):
    sim = Simulator()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        objs = [make(sim) for _ in range(1000)]
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (after - before) / len(objs) < 150


def test_hello_on_demand_256_leaves_no_channels():
    job = Job(npes=256, config=RuntimeConfig.proposed())
    job.run(HelloWorld())
    assert [len(pe._coll_chans) for pe in job.pes] == [0] * 256


def test_graph500_16_leaves_no_channels():
    job = Job(npes=16, config=RuntimeConfig.proposed(heap_backing_kb=512))
    result = job.run(Graph500Hybrid(scale=7, edgefactor=8, nroots=2))
    assert all(b["errors"] == 0 for r in result.app_results for b in r["bfs"])
    assert [len(pe._coll_chans) for pe in job.pes] == [0] * 16
    assert [len(pe.mpi._chans) for pe in job.pes] == [0] * 16
