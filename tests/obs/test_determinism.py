"""Observed runs are deterministic: same seed + fault plan, same bytes.

The flight recorder inherits the repo's determinism contract — two
identical runs must produce byte-identical span dumps and metric
snapshots, *including* under fault injection (the injector draws from
named RNG substreams, so the fault schedule is part of the seed).
"""

import json

from repro.apps import HelloWorld
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.faults import FaultPlan, PMIFault, QPCreateFault, UDFault

PLAN = FaultPlan(
    name="obs-determinism",
    ud=(
        UDFault("drop", prob=0.05),
        UDFault("duplicate", prob=0.02, delay_us=40.0, jitter_us=10.0),
    ),
    qp_create=(QPCreateFault(first_n=1, per_rank=True),),
    pmi=(PMIFault(window=(0.0, 1e6), slowdown=2.0),),
)


def _run(seed=13):
    job = Job(
        npes=16,
        config=RuntimeConfig.proposed(seed=seed, faults=PLAN, observe=True),
        cluster=cluster_a(16, ppn=4),
    )
    result = job.run(HelloWorld())
    return job, result


def test_same_seed_same_plan_byte_identical_exports():
    job_a, res_a = _run()
    job_b, res_b = _run()
    assert job_a.obs.flat_spans() == job_b.obs.flat_spans()
    assert json.dumps(res_a.telemetry, sort_keys=True) == json.dumps(
        res_b.telemetry, sort_keys=True
    )
    assert json.dumps(job_a.obs.chrome_trace(), sort_keys=True) == (
        json.dumps(job_b.obs.chrome_trace(), sort_keys=True)
    )


def test_different_seed_diverges():
    job_a, _ = _run(seed=13)
    job_b, _ = _run(seed=14)
    assert job_a.obs.flat_spans() != job_b.obs.flat_spans()


def test_fault_hits_land_on_the_faults_track():
    job, result = _run()
    spans = job.obs.spans
    fault_events = [s for s in spans if s.actor == "faults"]
    assert fault_events, "plan with prob=1 QP rule produced no fault spans"
    names = {s.name for s in fault_events}
    assert "fault.qp_enomem" in names
    assert "fault.pmi_slowdown" in names
    # Fault counters and their span events agree.
    counters = result.telemetry["counters"]
    assert counters["faults.qp_create_failed"] == len(
        spans.by_name("fault.qp_enomem")
    )
    by_name = {}
    for s in fault_events:
        by_name[s.name] = by_name.get(s.name, 0) + 1
    if "fault.ud_drop" in names:
        assert counters["faults.ud_dropped"] == by_name["fault.ud_drop"]
