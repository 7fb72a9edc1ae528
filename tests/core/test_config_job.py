"""Unit tests for RuntimeConfig and the Job launcher."""

import pytest

from repro.apps import HelloWorld
from repro.check import CheckPlan
from repro.cluster import cluster_a
from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy
from repro.obs.timeline import TimelineConfig


class TestRuntimeConfig:
    def test_presets(self):
        cur = RuntimeConfig.current()
        assert (cur.connection_mode, cur.pmi_mode, cur.barrier_mode) == (
            "static", "blocking", "global",
        )
        prop = RuntimeConfig.proposed()
        assert (prop.connection_mode, prop.pmi_mode, prop.barrier_mode) == (
            "ondemand", "nonblocking", "intranode",
        )

    def test_invalid_values_rejected(self):
        for bad in (
            {"connection_mode": "lazy"},
            {"pmi_mode": "sometimes"},
            {"barrier_mode": "none"},
            {"heap_mb": 0},
            {"heap_mb": float("nan")},
            {"heap_mb": float("inf")},
            {"heap_backing_kb": 0},
            {"heap_backing_kb": float("nan")},
            {"heap_backing_kb": float("inf")},
            {"heap_backing_kb": "64"},
            {"seed": -1},
            {"seed": "x"},
            {"seed": True},
            {"piggyback_segments": "no"},
        ):
            with pytest.raises(ConfigError) as err:
                RuntimeConfig(**bad)
            assert "\n" not in str(err.value), bad

    def test_equivalent_spellings_compare_equal(self):
        # RuntimeConfig coerces each option when it is built, so two
        # spellings of one run are one config (and one spec hash).
        proposed = RuntimeConfig.proposed
        assert proposed(check=True) == proposed(check=CheckPlan())
        assert proposed(check={"strict": False}) == proposed(
            check=CheckPlan(strict=False))
        assert proposed(observe={"timeline": True}) == proposed(
            observe={"timeline": TimelineConfig()})
        assert proposed(observe={"timeline": {"interval_us": 500.0}}) == (
            proposed(observe={"timeline": TimelineConfig(interval_us=500.0)}))
        assert proposed(faults={"ud": [{"action": "drop", "prob": 0.1}]}) == (
            proposed(faults=FaultPlan(ud=(UDFault("drop", prob=0.1),))))
        assert proposed(lifecycle={"policy": "lru"}) == proposed(
            lifecycle=LifecyclePolicy(policy="lru"))

    def test_evolve_keeps_validation(self):
        with pytest.raises(ConfigError):
            RuntimeConfig.proposed().evolve(connection_mode="bogus")

    def test_label(self):
        assert RuntimeConfig.current().label == "static+blocking+global"

    def test_aliases(self):
        assert RuntimeConfig.static().connection_mode == "static"
        assert RuntimeConfig.on_demand().connection_mode == "ondemand"


class TestJob:
    def test_invalid_npes(self):
        with pytest.raises(ConfigError):
            Job(npes=0)

    @pytest.mark.parametrize("npes", [2.5, "8", True],
                             ids=["float", "str", "bool"])
    def test_non_integer_npes_rejected(self, npes):
        with pytest.raises(ConfigError, match="npes must be an integer"):
            Job(npes=npes)

    def test_cluster_size_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            Job(npes=8, cluster=cluster_a(16))

    def test_single_pe_job_runs(self):
        result = Job(npes=1, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.app_results == ["Hello from PE 0 of 1"]
        assert result.wall_time_us > 0

    def test_result_fields_consistent(self):
        result = Job(npes=8, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.npes == 8
        assert result.config_label == "ondemand+nonblocking+intranode"
        assert result.app_done_us <= result.wall_time_us
        assert result.startup.max_us >= result.startup.mean_us
        assert result.wall_time_s == pytest.approx(result.wall_time_us / 1e6)
        assert set(result.startup.phase_means) >= {
            "Connection Setup", "PMI Exchange", "Memory Registration",
            "Shared Memory Setup", "Other",
        }

    def test_same_seed_same_results(self):
        a = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        b = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        assert a.wall_time_us == b.wall_time_us
        assert a.startup.mean_us == b.startup.mean_us

    def test_different_seed_different_skew(self):
        a = Job(npes=8, config=RuntimeConfig.proposed(seed=5)).run(HelloWorld())
        b = Job(npes=8, config=RuntimeConfig.proposed(seed=6)).run(HelloWorld())
        assert a.wall_time_us != b.wall_time_us

    def test_static_endpoint_accounting(self):
        result = Job(npes=16, config=RuntimeConfig.current()).run(HelloWorld())
        # Static design: N RC QPs + 1 UD QP per process.
        assert result.resources.mean_rc_qps == 16
        assert result.resources.mean_endpoints == 17
        # QP memory follows.
        assert result.resources.mean_qp_memory_bytes > 16 * 80_000

    def test_ondemand_endpoint_accounting(self):
        result = Job(npes=16, config=RuntimeConfig.proposed()).run(HelloWorld())
        assert result.resources.mean_endpoints < 5


class TestReportGuards:
    def test_startup_report_from_no_pes_rejected(self):
        from repro.core.metrics import StartupReport

        with pytest.raises(ConfigError, match="0 PEs"):
            StartupReport.from_pes([])

    def test_resource_report_from_no_pes_rejected(self):
        from repro.core.metrics import ResourceReport

        with pytest.raises(ConfigError, match="0 PEs"):
            ResourceReport.from_pes([])
