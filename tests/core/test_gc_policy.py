"""``Job`` and the cyclic garbage collector: a job leaves the collector
as it found it — enabled or disabled, frozen objects still frozen —
whether its build and run succeed or raise, and the next job's build
frees a dropped job."""

import gc
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.apps import HelloWorld
from repro.apps.base import Application
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError
from repro.sim import ProcessFailure


class Boom(Application):
    """Raises on PE 1 after one simulated microsecond."""

    name = "boom"

    def run(self, pe):
        yield 1.0
        if pe.mype == 1:
            raise ValueError("kaboom")


@pytest.fixture(params=[True, False], ids=["gc-enabled", "gc-disabled"])
def collector(request):
    """Set the collector on or off for one test; restore it after."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("config", [RuntimeConfig.proposed(),
                                    RuntimeConfig.current()],
                         ids=["ondemand", "static"])
def test_build_and_run_keep_the_collector_state(collector, config):
    job = Job(npes=16, config=config)
    assert gc.isenabled() is collector
    job.run(HelloWorld())
    assert gc.isenabled() is collector


def test_failed_build_keeps_the_collector_state(collector):
    with pytest.raises(ConfigError):
        Job(npes=16, cluster=cluster_a(8))
    assert gc.isenabled() is collector


def test_failed_run_keeps_the_collector_state(collector):
    job = Job(npes=4, config=RuntimeConfig.proposed(),
              cluster=cluster_a(4, ppn=2))
    with pytest.raises(ProcessFailure):
        job.run(Boom())
    assert gc.isenabled() is collector


def _fresh_interpreter(script: str) -> dict:
    """Run ``script`` in a new interpreter; return the JSON it prints.

    The collector's behaviour depends on the whole process heap, which
    a test runner's own objects would blur."""
    src = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ, PYTHONPATH=str(src))
    out = subprocess.run([sys.executable, "-c", textwrap.dedent(script)],
                         env=env, capture_output=True, text=True,
                         check=True).stdout
    return json.loads(out)


def test_objects_the_caller_froze_stay_frozen():
    counts = _fresh_interpreter("""
        import gc, json
        from repro.apps import HelloWorld
        from repro.core import Job, RuntimeConfig

        def hello():
            Job(npes=16, config=RuntimeConfig.proposed()).run(HelloWorld())

        hello()  # warm the per-process caches
        gc.collect()
        gc.freeze()
        frozen = gc.get_freeze_count()
        hello()
        print(json.dumps([frozen, gc.get_freeze_count()]))
    """)
    assert counts[0] > 0
    assert counts[1] == counts[0]


def test_dead_jobs_are_reclaimed_by_the_next_build():
    # Promotion keeps a live job out of the young generations, so only a
    # full collection frees a dropped one: each build must apply that
    # rule, or dead machines pile up and peak RSS grows job after job.
    out = _fresh_interpreter("""
        import json, resource, weakref
        from repro.apps import HelloWorld
        from repro.core import Job, RuntimeConfig

        sims, peaks = [], []
        for _ in range(5):
            job = Job(npes=1024, config=RuntimeConfig.proposed())
            job.run(HelloWorld())
            sims.append(weakref.ref(job.sim))
            del job
            rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            peaks.append(rss_kib / 1024)
        print(json.dumps({"alive": [ref() is not None for ref in sims],
                          "peak_mib": peaks}))
    """)
    assert not any(out["alive"][:-1]), out
    assert out["peak_mib"][4] - out["peak_mib"][1] <= 2.0, out
