"""Job-level sanitizer wiring: report shape, and byte-identity.

The headline guarantee of ``RuntimeConfig(check=...)``: auditing is
observation, never perturbation.  A sanitized run reaches the same
simulated wall time with the same counters as an unsanitized one — on
the current (static) and proposed (on-demand) configurations, under
fault injection, and on the 128-PE golden startup trace.
"""

import os

import pytest

from repro.apps import Heat2D, HelloWorld
from repro.check import CheckPlan
from repro.cluster import cluster_a, cluster_b
from repro.core import Job, RuntimeConfig
from repro.exec import JobSpec, execute
from repro.faults import FaultPlan, UDFault

from ..sim.test_golden_trace import FIXTURE


def _run(config, check, npes=16, app=None):
    config = config.evolve(check=check)
    job = Job(npes=npes, config=config, cluster=cluster_a(npes, ppn=8))
    return job.run(app if app is not None else HelloWorld())


class TestReportShape:
    def test_checked_job_attaches_a_full_report(self):
        res = _run(RuntimeConfig.proposed(), check=True)
        rep = res.check
        assert rep is not None
        assert set(rep) == {"plan", "strict", "violations", "heap_leaks",
                            "stats"}
        assert rep["strict"] is True
        assert rep["violations"] == []
        assert rep["heap_leaks"] == []
        stats = rep["stats"]
        assert stats["wr_posted"] == stats["wr_completed"] > 0
        assert stats["wr_errored"] == 0
        assert stats["connect_requests_seen"] > 0

    def test_unchecked_job_has_no_report(self):
        res = _run(RuntimeConfig.proposed(), check=None)
        assert res.check is None

    def test_empty_plan_never_installs(self):
        plan = CheckPlan(name="nothing", ib=False, memory=False,
                         pmi=False, conduit=False, lifecycle=False)
        config = RuntimeConfig.proposed(check=plan)
        job = Job(npes=4, config=config, cluster=cluster_a(4, ppn=4))
        assert job.sanitizer is None  # zero hooks armed, zero cost
        assert job.run(HelloWorld()).check is None


class TestByteIdentity:
    @pytest.mark.parametrize("config", [
        RuntimeConfig.current(), RuntimeConfig.proposed(),
    ], ids=lambda c: c.label)
    def test_sanitized_run_is_byte_identical(self, config):
        base = _run(config, check=None, app=Heat2D(n=32, iters=4))
        checked = _run(config, check=True, app=Heat2D(n=32, iters=4))
        assert checked.wall_time_us == base.wall_time_us
        assert checked.app_done_us == base.app_done_us
        assert checked.counters == base.counters
        # app results may be numpy arrays; repr equality is exact enough
        assert repr(checked.app_results) == repr(base.app_results)
        assert checked.check["violations"] == []

    def test_faulted_job_is_byte_identical_and_clean(self):
        plan = FaultPlan(
            name="chaos-lite",
            ud=(
                UDFault("drop", prob=0.20),
                UDFault("duplicate", prob=0.10, delay_us=10.0,
                        jitter_us=200.0),
            ),
        )

        def spec(check):
            return JobSpec(
                app=HelloWorld(), npes=16,
                config=RuntimeConfig.proposed(faults=plan, check=check),
                testbed="A", ppn=8,
            )

        base = execute(spec(check=None))
        checked = execute(spec(check=CheckPlan(name="chaos", strict=False)))
        assert checked.wall_time_us == base.wall_time_us
        assert checked.counters == base.counters
        assert checked.counters["faults.ud_dropped"] > 0
        assert checked.check["violations"] == []


@pytest.mark.skipif(
    os.environ.get("REPRO_SKIP_GOLDEN") == "1",
    reason="golden trace skipped by env",
)
def test_golden_trace_unchanged_under_sanitizer():
    """The full 128-PE on-demand startup, sanitized and strict, produces
    the exact pre-sanitizer golden trace — every message, every
    timestamp — and a clean audit."""
    job = Job(
        npes=128,
        config=RuntimeConfig.proposed(check=CheckPlan(name="golden")),
        cluster=cluster_b(128, ppn=16),
        trace=True,
    )
    res = job.run(HelloWorld())
    got = job.tracer.formatted()
    want = FIXTURE.read_text().splitlines()
    for i, (g, w) in enumerate(zip(got, want)):
        assert g == w, (
            f"sanitizer perturbed the trace at line {i + 1}:\n"
            f"  got:  {g}\n  want: {w}"
        )
    assert len(got) == len(want)
    assert res.check["violations"] == []
    assert res.check["stats"]["connect_requests_seen"] > 0
