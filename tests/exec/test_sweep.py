"""run_sweep: worker policy, determinism, and failure surfacing.

The load-bearing property: parallel execution is *byte-identical* to
serial execution — same JobResults, same rendered tables — because a
JobSpec fully determines its simulation.  These tests pin that down,
including with fault injection and the flight recorder active, and
check that worker failures surface the original exception with the
failing spec attached.
"""

import multiprocessing

import pytest

from repro.apps import HelloWorld
from repro.apps.base import Application
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import (JobSpec, SweepError, execute, resolve_workers,
                        resolve_workers_info, run_sweep)
from repro.exec import pool as pool_mod
from repro.faults import FaultPlan, UDFault
from repro.sim import ProcessFailure

fork_available = "fork" in multiprocessing.get_all_start_methods()
needs_fork = pytest.mark.skipif(
    not fork_available, reason="needs fork start method for picklable "
    "test-module apps")


class Boom(Application):
    """Raises on PE 1 after one simulated microsecond."""

    name = "boom"

    def run(self, pe):
        yield 1.0
        if pe.mype == 1:
            raise ValueError("kaboom")


def _hello(npes, config=None):
    return JobSpec(app=HelloWorld(), npes=npes,
                   config=config or RuntimeConfig.proposed(),
                   testbed="A", ppn=2)


# ----------------------------------------------------------------------
# worker-count policy
# ----------------------------------------------------------------------
class TestResolveWorkers:
    def test_repro_par_zero_is_a_kill_switch(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "0")
        assert resolve_workers(4, njobs=8, host_cpus=8) == 1

    def test_repro_par_one_forces_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "1")
        assert resolve_workers(None, njobs=8, host_cpus=8) == 1

    def test_repro_par_sets_the_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "3")
        assert resolve_workers(None, njobs=8, host_cpus=8) == 3

    def test_explicit_workers_beat_repro_par_n(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "3")
        assert resolve_workers(2, njobs=8, host_cpus=8) == 2

    def test_clamped_to_job_count(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "16")
        assert resolve_workers(None, njobs=3, host_cpus=32) == 3

    def test_garbage_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "many")
        with pytest.raises(ConfigError):
            resolve_workers(None, njobs=2)

    def test_clamped_to_host_cpus(self, monkeypatch):
        # Oversubscribing CPU-bound simulations is a slowdown, not a
        # speedup — REPRO_PAR (or an explicit request) beyond the
        # affinity mask is clamped, never honoured blindly.
        monkeypatch.setenv("REPRO_PAR", "8")
        info = resolve_workers_info(None, njobs=16, host_cpus=2)
        assert info["workers"] == 2
        assert info["mode"] == "parallel"
        assert info["reason"] == "clamped to host CPUs"
        assert info["requested"] == 8

    def test_single_core_host_falls_back_to_serial(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "2")
        info = resolve_workers_info(None, njobs=6, host_cpus=1)
        assert info["workers"] == 1
        assert info["mode"] == "serial"
        assert info["reason"] == "single-core host"

    def test_explicit_request_is_clamped_too(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        info = resolve_workers_info(4, njobs=8, host_cpus=1)
        assert info["workers"] == 1
        assert info["reason"] == "single-core host"

    def test_kill_switch_reports_its_reason(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "0")
        info = resolve_workers_info(4, njobs=8, host_cpus=8)
        assert info["workers"] == 1
        assert info["reason"] == "REPRO_PAR kill switch"

    def test_auto_detect_uses_host_cpus(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        info = resolve_workers_info(None, njobs=64, host_cpus=4)
        assert info["workers"] == 4
        assert info["mode"] == "parallel"
        assert info["reason"] is None


# ----------------------------------------------------------------------
# input handling + serial routing
# ----------------------------------------------------------------------
class TestRunSweepBasics:
    def test_empty_sweep(self):
        assert run_sweep([]) == []

    def test_rejects_non_specs(self):
        with pytest.raises(ConfigError):
            run_sweep([HelloWorld()])

    def test_repro_par_zero_never_touches_the_pool(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "0")
        monkeypatch.setattr(
            pool_mod, "_run_parallel",
            lambda *a, **k: pytest.fail("pool used despite REPRO_PAR=0"))
        results = run_sweep([_hello(4), _hello(8)], max_workers=4)
        assert [r.npes for r in results] == [4, 8]

    def test_max_workers_one_never_touches_the_pool(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        monkeypatch.setattr(
            pool_mod, "_run_parallel",
            lambda *a, **k: pytest.fail("pool used despite max_workers=1"))
        results = run_sweep([_hello(4), _hello(8)], max_workers=1)
        assert [r.npes for r in results] == [4, 8]

    def test_progress_reports_in_spec_order(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "0")
        seen = []
        run_sweep([_hello(4), _hello(8)],
                  progress=lambda spec, done, total: seen.append(
                      (spec.npes, done, total)))
        assert seen == [(4, 1, 2), (8, 2, 2)]


# ----------------------------------------------------------------------
# parallel == serial, byte for byte
# ----------------------------------------------------------------------
def _grid():
    lossy = FaultPlan(name="loss5", ud=(UDFault("drop", prob=0.05),))
    return [
        _hello(8, RuntimeConfig.current()),
        _hello(8, RuntimeConfig.proposed()),
        _hello(8, RuntimeConfig.proposed(faults=lossy)),
        _hello(8, RuntimeConfig.proposed(observe=True)),
    ]


@needs_fork
class TestParallelEqualsSerial:
    def test_job_results_identical(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        serial = run_sweep(_grid(), max_workers=1)
        # Drive the pool directly: run_sweep would (correctly) clamp to
        # the serial path on a single-core host, but the byte-identity
        # contract must hold wherever the pool actually runs.
        parallel = pool_mod._run_parallel(_grid(), 2)
        # JobResult is a plain dataclass tree: == compares every field,
        # including counters and the observe=True telemetry payload.
        assert serial == parallel
        assert serial[3].telemetry is not None

    def test_experiment_tables_identical(self, monkeypatch):
        from repro.bench.experiments import fig5_startup

        monkeypatch.setenv("REPRO_PAR", "0")
        serial = fig5_startup.run(sizes=[16, 32])
        monkeypatch.setenv("REPRO_PAR", "2")
        parallel = fig5_startup.run(sizes=[16, 32])
        assert serial.render() == parallel.render()
        assert serial.csv() == parallel.csv()


# ----------------------------------------------------------------------
# failure surfacing
# ----------------------------------------------------------------------
class TestFailures:
    def test_serial_failure_carries_spec_and_cause(self, monkeypatch):
        monkeypatch.setenv("REPRO_PAR", "0")
        spec = JobSpec(app=Boom(), npes=4,
                       config=RuntimeConfig.proposed(), testbed="A", ppn=2)
        with pytest.raises(SweepError) as info:
            run_sweep([spec])
        assert info.value.spec is spec
        assert info.value.index == 0
        assert isinstance(info.value.cause, ProcessFailure)
        assert isinstance(info.value.cause.cause, ValueError)

    @needs_fork
    def test_worker_failure_carries_spec_and_cause(self, monkeypatch):
        monkeypatch.delenv("REPRO_PAR", raising=False)
        good = _hello(4)
        bad = JobSpec(app=Boom(), npes=4,
                      config=RuntimeConfig.proposed(), testbed="A", ppn=2)
        with pytest.raises(SweepError) as info:
            # Direct pool call for the same reason as above: the worker
            # boundary is the thing under test.
            pool_mod._run_parallel([good, bad], 2)
        assert info.value.spec == bad
        assert info.value.index == 1
        # The original exception crossed the process boundary intact
        # (ProcessFailure pickles by dropping the live Process).
        assert isinstance(info.value.cause, ProcessFailure)
        assert isinstance(info.value.cause.cause, ValueError)
        assert info.value.cause.process_name == "join"

    def test_error_names_are_collision_free(self, monkeypatch):
        # The descriptive key elides option details: these two specs
        # share it.  The sweep position keeps their failures apart.
        monkeypatch.setenv("REPRO_PAR", "0")
        a, b = (JobSpec(app=Boom(), npes=4, testbed="A", ppn=2,
                        config=RuntimeConfig.proposed(faults=FaultPlan(
                            ud=(UDFault("drop", prob=p),))))
                for p in (0.1, 0.2))
        assert a.key == b.key and a != b
        errors = [str(SweepError(i, s, ValueError("x")))
                  for i, s in enumerate((a, b))]
        assert errors[0] != errors[1]
        assert errors[1].startswith(f"sweep job #1 ({b.key}) failed")
        with pytest.raises(SweepError, match=r"^sweep job #1 \(boom-n4-"):
            run_sweep([_hello(4), b])


class TestExecuteIsolation:
    def test_execute_matches_run_sweep(self):
        spec = _hello(4)
        assert execute(spec) == run_sweep([spec])[0]
