"""JobSpec: validation, normalisation, aliasing, pickling, seed handling."""

import pickle

import pytest

from repro.apps import HelloWorld
from repro.check import CheckPlan
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec, execute, run_sweep
from repro.faults import FaultPlan, UDFault
from repro.obs.timeline import TimelineConfig


def _spec(**kw):
    kw.setdefault("app", HelloWorld())
    kw.setdefault("npes", 8)
    kw.setdefault("config", RuntimeConfig.proposed())
    return JobSpec(**kw)


class TestValidation:
    def test_npes_must_be_positive(self):
        with pytest.raises(ConfigError):
            _spec(npes=0)

    def test_testbed_must_be_known(self):
        with pytest.raises(ConfigError):
            _spec(testbed="C")

    def test_ppn_must_be_positive(self):
        with pytest.raises(ConfigError):
            _spec(ppn=0)

    @pytest.mark.parametrize("field", ["npes", "ppn"])
    @pytest.mark.parametrize("value", [2.5, "8", True],
                             ids=["float", "str", "bool"])
    def test_non_integer_sizes_rejected_at_construction(self, field, value):
        with pytest.raises(ConfigError,
                           match=f"JobSpec.{field} must be an integer"):
            _spec(**{field: value})


class TestNormalisation:
    def test_cost_overrides_mapping_becomes_sorted_tuple(self):
        spec = _spec(cost_overrides={"qp_cache_entries": 8,
                                     "poll_cq_us": 0.2})
        assert spec.cost_overrides == (("poll_cq_us", 0.2),
                                       ("qp_cache_entries", 8))

    def test_spec_with_overrides_is_hashable(self):
        spec = _spec(cost_overrides={"qp_cache_entries": 8})
        assert hash(spec) == hash(_spec(cost_overrides=(
            ("qp_cache_entries", 8),)))


class TestUnhashableOverrides:
    def test_list_value_fails_fast_with_config_error(self):
        # Historically this exploded much later inside _custom_cluster's
        # lru_cache with an opaque "unhashable type: 'list'" TypeError.
        with pytest.raises(ConfigError, match="cost_overrides"):
            _spec(cost_overrides={"qp_cache_entries": [1, 2]})

    def test_dict_value_fails_fast(self):
        with pytest.raises(ConfigError, match="hashable"):
            _spec(cost_overrides={"qp_cache_entries": {"a": 1}})

    def test_non_string_key_fails_fast(self):
        with pytest.raises(ConfigError, match="cost_overrides"):
            _spec(cost_overrides={3: 1.0})

    def test_malformed_tuple_entries_fail_fast(self):
        with pytest.raises(ConfigError, match="pairs"):
            _spec(cost_overrides=(("a", 1, 2),))

    def test_valid_overrides_still_run(self):
        result = run_sweep(
            [_spec(npes=4, ppn=2,
                   cost_overrides={"launch_skew_us": 9_000.0})])
        assert result[0].npes == 4


class TestAliasing:
    """Trivially different spellings of the same run build equal specs:
    ``JobSpec`` normalises ``cost_overrides`` and ``RuntimeConfig``
    coerces the option spellings when it is built."""

    def test_dict_and_sorted_tuple_overrides_alias(self):
        as_dict = _spec(cost_overrides={"qp_cache_entries": 8,
                                        "poll_cq_us": 0.2})
        as_tuple = _spec(cost_overrides=(("poll_cq_us", 0.2),
                                         ("qp_cache_entries", 8)))
        assert as_dict == as_tuple

    def test_int_and_float_override_values_alias_like_json(self):
        a = _spec(cost_overrides={"poll_cq_us": 0.2})
        b = _spec(cost_overrides=(("poll_cq_us", 0.2),))
        assert a == b

    def test_empty_overrides_alias_absent(self):
        assert _spec(cost_overrides={}).cost_overrides is None
        assert _spec(cost_overrides={}) == _spec(cost_overrides=()) \
            == _spec(cost_overrides=None)

    def test_check_true_aliases_default_plan(self):
        assert _spec(config=RuntimeConfig.proposed(check=True)) \
            == _spec(config=RuntimeConfig.proposed(check=CheckPlan()))

    def test_observe_dict_aliases_timeline_config(self):
        as_dict = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": True}))
        as_config = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": TimelineConfig()}))
        assert as_dict == as_config

    def test_observe_interval_dict_aliases_explicit_config(self):
        as_dict = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": {"interval_us": 500.0}}))
        as_config = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": TimelineConfig(interval_us=500.0)}))
        assert as_dict == as_config

    def test_aliased_specs_produce_equal_results(self):
        # Aliasing is only sound if the two spellings really do run
        # identically; spot-check one non-trivial pair.
        as_dict = _spec(npes=4, ppn=2, config=RuntimeConfig.proposed(
            faults={"ud": [{"action": "drop", "prob": 0.1}]}))
        as_plan = _spec(npes=4, ppn=2, config=RuntimeConfig.proposed(
            faults=FaultPlan(ud=(UDFault("drop", prob=0.1),))))
        assert as_dict == as_plan
        assert execute(as_dict) == execute(as_plan)


class TestKey:
    def test_default_key_encodes_the_point(self):
        spec = _spec(npes=32, testbed="B", ppn=16)
        assert "hello" in spec.key
        assert "n32" in spec.key
        assert "tbB" in spec.key
        assert "ppn16" in spec.key

    def test_seed_and_observe_show_up(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=7, observe=True))
        assert "seed7" in spec.key
        assert "obs" in spec.key
        assert "seed" not in _spec().key


class TestPickling:
    def test_round_trip_equality(self):
        spec = _spec(npes=16, testbed="B",
                     config=RuntimeConfig.proposed(seed=3, observe=True),
                     cost_overrides={"qp_cache_entries": 32})
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert clone.key == spec.key


class TestExecute:
    def test_same_spec_is_deterministic(self):
        a = execute(_spec(npes=4, ppn=2))
        b = execute(_spec(npes=4, ppn=2))
        assert a == b

    def test_seed_override_changes_the_run(self):
        base = execute(_spec(npes=4, ppn=2))
        reseeded = execute(_spec(npes=4, ppn=2,
                                 config=RuntimeConfig.proposed(seed=999)))
        # Launch skew is drawn from the job RNG, so a different seed
        # moves the reported wall time.
        assert reseeded.wall_time_us != base.wall_time_us

    def test_cost_overrides_reach_the_cluster(self):
        slow = _spec(npes=4, ppn=2,
                     cost_overrides={"launch_skew_us": 50_000.0})
        assert execute(slow).wall_time_us > execute(
            _spec(npes=4, ppn=2)).wall_time_us
