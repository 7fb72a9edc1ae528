"""Golden-trace determinism regression.

Replays six runs and compares each full protocol trace — every active
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
  plan (UD drop/duplicate, QP-create ENOMEM, PMI slowdown);
* ``golden_trace_churn_lru_faulted_16.txt``: the LRU churn run under
  UD drop/duplicate/delay faults, which reaches the handshake's
  duplicate, collision and retransmission branches in both directions
  (connect and drain).  Its ``conduit.*`` counters are pinned too, in
  ``golden_counters_churn_lru_faulted_16.json``;
* ``golden_trace_graph500_16.txt``: ``Graph500Hybrid`` on 16 PEs, the
  one fixture on the RC data path (remote atomics, puts and their
  acks, QP-cache misses, RNR retries).  Its ``rc.*``, ``hca.*``,
  ``fabric.*``, ``verbs.*`` and ``conduit.*`` counters are pinned in
  ``golden_counters_graph500_16.json`` and the SHA-256 of its
  ``app_results`` in ``APP_RESULTS``.

Each fixture is also replayed under a strict sanitizer, and with the
flight recorder on, with and without the timeline sampler.  Auditing
must neither change a byte nor find a violation; observing must change
neither a byte of the trace nor a counter.

Any scheduling-order or cost-model drift introduced by a kernel
optimisation shows up here as a diff, not as a silently different
simulation.  If you change the *model* deliberately, regenerate the
fixtures::

    PYTHONPATH=src python - <<'EOF'
    import json
    from tests.sim.test_golden_trace import (
        COUNTERS, FIXTURES, GOLDEN, app_results_sha256, golden_job,
        pinned_counters)
    for name, (_, _, _, app) in GOLDEN.items():
        job = golden_job(name)
        res = job.run(app())
        (FIXTURES / name).write_text("\n".join(job.tracer.formatted()) + "\n")
        if name in COUNTERS:
            file, prefixes = COUNTERS[name]
            (FIXTURES / file).write_text(
                json.dumps(pinned_counters(res, prefixes), indent=1) + "\n")
        print(name, app_results_sha256(res))  # the APP_RESULTS entry
    EOF
"""

import functools
import hashlib
import json
from pathlib import Path

import pytest

from repro.apps import ChurnWorkload, HelloWorld
from repro.apps.graph500 import Graph500Hybrid
from repro.check import CheckPlan
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy

from ..conftest import both_wave_forms
from ..obs.test_determinism import PLAN

FIXTURES = Path(__file__).parent.parent / "data"
FAULTED = RuntimeConfig.proposed(faults=PLAN)
FIXTURE = FIXTURES / "golden_trace_ondemand_128.txt"
LRU = LifecyclePolicy(policy="lru")
CHURN_FAULTS = FaultPlan(
    name="churn-faulted",
    ud=(
        UDFault("drop", prob=0.1),
        UDFault("duplicate", prob=0.1, delay_us=40.0, jitter_us=30.0),
        UDFault("delay", prob=0.1, delay_us=60.0, jitter_us=60.0),
    ),
)

#: fixture name -> (npes, config, cluster factory, app factory)
GOLDEN = {
    "golden_trace_ondemand_128.txt": (
        128, RuntimeConfig.proposed(), lambda: cluster_b(128, ppn=16),
        HelloWorld,
    ),
    "golden_trace_static_64.txt": (
        64, RuntimeConfig.current(), lambda: cluster_b(64, ppn=16),
        HelloWorld,
    ),
    "golden_trace_churn_lru_16.txt": (
        16, RuntimeConfig.proposed(lifecycle=LRU), lambda: cluster_a(16),
        lambda: ChurnWorkload(epochs=2),
    ),
    "golden_trace_faulted_64.txt": (
        64, FAULTED, lambda: cluster_b(64, ppn=16), HelloWorld,
    ),
    "golden_trace_churn_lru_faulted_16.txt": (
        16, RuntimeConfig.proposed(lifecycle=LRU, faults=CHURN_FAULTS),
        lambda: cluster_a(16), lambda: ChurnWorkload(epochs=2),
    ),
    "golden_trace_graph500_16.txt": (
        16, RuntimeConfig.proposed(heap_backing_kb=2048),
        lambda: cluster_a(16),
        lambda: Graph500Hybrid(scale=5, edgefactor=16, nroots=1),
    ),
}

#: fixture name -> (pinned counter file, the counter prefixes it holds)
COUNTERS = {
    "golden_trace_churn_lru_faulted_16.txt": (
        "golden_counters_churn_lru_faulted_16.json", ("conduit.",),
    ),
    "golden_trace_graph500_16.txt": (
        "golden_counters_graph500_16.json",
        ("conduit.", "fabric.", "hca.", "rc.", "verbs."),
    ),
}

#: fixture name -> SHA-256 of its JSON-dumped ``app_results``
APP_RESULTS = {
    "golden_trace_graph500_16.txt":
        "bddc2d231956eac1c781b185b46edc4afb06b34cca8bf4fbd81d093d72a061cb",
}


def golden_job(name, check=None, observe=False):
    npes, config, cluster, _ = GOLDEN[name]
    return Job(npes, config.evolve(check=check, observe=observe), cluster(),
               trace=True)


def pinned_counters(result, prefixes):
    return {k: v for k, v in sorted(result.counters.items())
            if k.startswith(prefixes)}


def app_results_sha256(result):
    app_json = json.dumps(result.app_results, sort_keys=True)
    return hashlib.sha256(app_json.encode()).hexdigest()


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


@functools.lru_cache(maxsize=None)
def unobserved_counters(name):
    """The flat counters of the plain (unchecked, unobserved) replay."""
    return golden_job(name).run(GOLDEN[name][3]()).counters


#: (check, observe, id suffix): the plain replay, a strict sanitizer,
#: the flight recorder, and the flight recorder with the timeline on.
MODES = (
    (None, False, ""),
    (CheckPlan(strict=True), False, "-strict"),
    (None, True, "-observed"),
    (None, {"timeline": True}, "-timeline"),
)


@pytest.mark.parametrize("name,check,observe", [
    pytest.param(name, check, observe, id=name + suffix)
    for name in GOLDEN
    for check, observe, suffix in MODES
])
def test_trace_matches_golden_fixture(name, check, observe):
    job = golden_job(name, check, observe)
    result = job.run(GOLDEN[name][3]())
    _assert_matches_fixture(job.tracer.formatted(), FIXTURES / name)
    assert result.counters == unobserved_counters(name)
    if observe:
        _assert_one_record(result, observe)
    if name in COUNTERS:
        file, prefixes = COUNTERS[name]
        want = json.loads((FIXTURES / file).read_text())
        assert pinned_counters(result, prefixes) == want
    if name in APP_RESULTS:
        assert app_results_sha256(result) == APP_RESULTS[name]
    if check is not None:
        assert result.check["violations"] == []


def _assert_one_record(result, observe):
    """The telemetry record holds the flat counters as they are, no
    labelled series, and a (t, value) timeline only when sampled."""
    record = result.telemetry
    keys = {"spans", "counters", "histograms"}
    if isinstance(observe, dict):
        keys.add("timeline")
    assert set(record) == keys
    assert record["counters"] == result.counters
    for section in ("counters", "histograms"):
        assert not [k for k in record[section] if "{" in k]
    for key, buf in record.get("timeline", {}).get("series", {}).items():
        assert "{" not in key
        assert set(buf) == {"kind", "dropped", "t", "value"}


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
