"""Host-memory footprint: idle queues cost only their object slots,
collective channels are released once they drain, and the objects a
job builds per PE, connection or node carry no instance dict."""

import enum
import gc
import tracemalloc
from collections import Counter

import pytest

from repro.apps import ChurnWorkload, Graph500Hybrid, HelloWorld
from repro.core import Job, RuntimeConfig
from repro.gasnet import LifecyclePolicy
from repro.ib import CompletionQueue
from repro.shmem import ShmemPE
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


_RUNTIME_LAYERS = {"sim", "ib", "pmi", "gasnet", "shmem", "mpi"}


def _census():
    """Live runtime-layer instances per class: ``(all, with a dict)``."""
    gc.collect()
    counts, with_dict = Counter(), Counter()
    for obj in gc.get_objects():
        cls = type(obj)
        module = cls.__module__
        if not isinstance(module, str) or issubclass(cls, enum.Enum):
            continue
        package, _, rest = module.partition(".")
        if package != "repro" or rest.partition(".")[0] not in _RUNTIME_LAYERS:
            continue
        counts[cls] += 1
        if hasattr(obj, "__dict__"):
            with_dict[cls] += 1
    return counts, with_dict


@pytest.mark.parametrize("make_job, make_app", [
    (lambda: Job(npes=64, config=RuntimeConfig.proposed()), HelloWorld),
    (lambda: Job(npes=64, config=RuntimeConfig.current()), HelloWorld),
    (lambda: Job(npes=16, config=RuntimeConfig.proposed(
        lifecycle=LifecyclePolicy(policy="lru"))),
     lambda: ChurnWorkload(epochs=2, partners=4, requests=4)),
    (lambda: Job(npes=16, config=RuntimeConfig.proposed(heap_backing_kb=512)),
     lambda: Graph500Hybrid(scale=7, edgefactor=8, nroots=2)),
], ids=["hello-ondemand-64", "hello-static-64", "churn-lru-16",
        "graph500-hybrid-16"])
def test_per_pe_objects_carry_no_instance_dict(make_job, make_app):
    # Count only what this job leaves alive, so objects other tests
    # still hold neither hide nor fake a per-job singleton.
    counts0, with_dict0 = _census()
    job = make_job()
    job.run(make_app())
    counts, with_dict = _census()
    # The census must see the job it just ran: a design that hid live
    # objects from the collector would otherwise pass vacuously.
    assert counts[ShmemPE] - counts0[ShmemPE] == job.npes
    carriers = {
        cls.__qualname__: with_dict[cls] - with_dict0[cls]
        for cls in with_dict
        if counts[cls] - counts0[cls] > 1 and with_dict[cls] > with_dict0[cls]
    }
    assert carriers == {}
