"""Golden-trace determinism regression.

Replays four runs and compares each full protocol trace — every active
message, connection request/serve/established, put and get, with exact
timestamps — byte-for-byte against a committed fixture:

* ``golden_trace_ondemand_128.txt``: the proposed corner, 128 PEs on
  Cluster B, captured *before* the fast-path kernel work (microtask
  queue, plain ``__slots__`` messages, yield-float sleeps, lazy
  callback storage, synchronous process resume, lazy heap backing);
* ``golden_trace_static_64.txt``: the current (static) corner, 64 PEs;
* ``golden_trace_churn_lru_16.txt``: ``ChurnWorkload(epochs=2)`` under
  an LRU lifecycle policy, pinning the drain/evict/reconnect path;
* ``golden_trace_faulted_64.txt``: the proposed corner under a fault
  plan (UD drop/duplicate, QP-create ENOMEM, PMI slowdown).

Any scheduling-order or cost-model drift introduced by a kernel
optimisation shows up here as a diff, not as a silently different
simulation.  If you change the *model* deliberately, regenerate the
fixtures::

    PYTHONPATH=src python - <<'EOF'
    from tests.sim.test_golden_trace import GOLDEN, FIXTURES
    for name, (build, app) in GOLDEN.items():
        job = build()
        job.run(app())
        (FIXTURES / name).write_text("\n".join(job.tracer.formatted()) + "\n")
    EOF
"""

from pathlib import Path

import pytest

from repro.apps import ChurnWorkload, HelloWorld
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.gasnet import LifecyclePolicy

from ..conftest import both_wave_forms
from ..obs.test_determinism import PLAN

FIXTURES = Path(__file__).parent.parent / "data"
FAULTED = RuntimeConfig.proposed(faults=PLAN)
FIXTURE = FIXTURES / "golden_trace_ondemand_128.txt"

#: fixture name -> (job builder, app factory)
GOLDEN = {
    "golden_trace_ondemand_128.txt": (
        lambda: Job(128, RuntimeConfig.proposed(), cluster_b(128, ppn=16),
                    trace=True),
        HelloWorld,
    ),
    "golden_trace_static_64.txt": (
        lambda: Job(64, RuntimeConfig.current(), cluster_b(64, ppn=16),
                    trace=True),
        HelloWorld,
    ),
    "golden_trace_churn_lru_16.txt": (
        lambda: Job(16, RuntimeConfig.proposed(
            lifecycle=LifecyclePolicy(policy="lru")), cluster_a(16),
            trace=True),
        lambda: ChurnWorkload(epochs=2),
    ),
    "golden_trace_faulted_64.txt": (
        lambda: Job(64, FAULTED, cluster_b(64, ppn=16), trace=True),
        HelloWorld,
    ),
}


def _assert_matches_fixture(got, fixture):
    # Pinpoint the first divergence before the full comparison so a
    # regression reports *where* the schedule drifted, not just "lists
    # differ" over ~1200 lines.
    want = fixture.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (
            f"{fixture.name} diverges at line {i + 1}:\n"
            f"  got:  {g}\n  want: {w}"
        )
    assert len(got) == len(want), (
        f"{fixture.name} length changed: got {len(got)} lines, "
        f"fixture has {len(want)}"
    )


@pytest.mark.parametrize("name", list(GOLDEN))
def test_trace_matches_golden_fixture(name):
    build, app = GOLDEN[name]
    job = build()
    job.run(app())
    _assert_matches_fixture(job.tracer.formatted(), FIXTURES / name)


@pytest.mark.parametrize("lifecycle", [None], ids=["no-policy"])
def test_ondemand_startup_trace_matches_golden_fixture(lifecycle):
    """The pre-lifecycle golden trace, byte for byte, built through
    the public ``RuntimeConfig(lifecycle=None)`` path."""
    job = Job(
        npes=128,
        config=RuntimeConfig.proposed(lifecycle=lifecycle),
        cluster=cluster_b(128, ppn=16),
        trace=True,
    )
    job.run(HelloWorld())
    _assert_matches_fixture(job.tracer.formatted(), FIXTURE)


@both_wave_forms
@pytest.mark.parametrize("observe", [
    False, {"timeline": True},
], ids=["unobserved", "timeline"])
def test_trace_is_byte_identical_with_timeline_sampling(observe, event_waves):
    """The timeline sampler has zero effect on simulated time.

    Its tick events consume sequence numbers, but seq only breaks
    same-time ties and the probes are pure reads — so the golden trace
    must stay byte-identical with sampling on, whether the launch and
    PMI-release waves run batched or as one heap entry per member.
    """
    job = Job(
        npes=128,
        config=RuntimeConfig.proposed(observe=observe),
        cluster=cluster_b(128, ppn=16),
        trace=True,
    )
    result = job.run(HelloWorld())
    _assert_matches_fixture(job.tracer.formatted(), FIXTURE)
    if observe:
        timeline = result.telemetry["timeline"]
        assert timeline["samples"] > 0
        assert timeline["series"]["conduit.connections"]["t"]
