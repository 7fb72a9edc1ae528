"""Canonical JobSpec identity: aliasing, distinctness, bugfixes.

Three families of property:

* **Aliasing** — trivially different spellings of the *same run* share
  a content hash: dict vs pre-sorted tuple overrides, empty vs absent
  overrides, and the option spellings ``RuntimeConfig`` coerces when it
  is built (``check=True`` vs ``CheckPlan()``, an ``observe`` dict vs
  ``TimelineConfig``).  The hash itself folds nothing; these hold
  because both spellings build equal specs.
* **Distinctness** — two specs differing in *any* semantic field must
  never share a hash; this pins the historical ``key`` bugs where
  ``faults`` and ``cost_overrides`` silently vanished from identity.
* **Bugfix regressions** — ``SweepError`` names specs collision-free,
  and unhashable ``cost_overrides`` values fail at construction with a
  one-line ``ConfigError`` instead of a deep ``lru_cache`` TypeError.
"""

import pickle

import pytest

from repro.apps import HelloWorld, NasEP
from repro.check import CheckPlan
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import (JobSpec, SweepError, canonical_json, execute,
                        run_sweep, spec_hash, spec_identity)
from repro.faults import FaultPlan, UDFault
from repro.gasnet import LifecyclePolicy
from repro.obs.timeline import TimelineConfig

LOSSY = FaultPlan(name="loss", ud=(UDFault("drop", prob=0.1),))


def _spec(**kw):
    kw.setdefault("app", HelloWorld())
    kw.setdefault("npes", 8)
    kw.setdefault("config", RuntimeConfig.proposed())
    return JobSpec(**kw)


# ----------------------------------------------------------------------
# aliasing: same run, same hash
# ----------------------------------------------------------------------
class TestAliasing:
    def test_dict_and_sorted_tuple_overrides_alias(self):
        as_dict = _spec(cost_overrides={"qp_cache_entries": 8,
                                        "poll_cq_us": 0.2})
        as_tuple = _spec(cost_overrides=(("poll_cq_us", 0.2),
                                         ("qp_cache_entries", 8)))
        assert spec_hash(as_dict) == spec_hash(as_tuple)

    def test_int_and_float_override_values_alias_like_json(self):
        # json canonicalisation: 8 and 8.0 are distinct (int vs float),
        # but 0.2 spelled twice is identical.
        a = _spec(cost_overrides={"poll_cq_us": 0.2})
        b = _spec(cost_overrides=(("poll_cq_us", 0.2),))
        assert spec_hash(a) == spec_hash(b)

    def test_empty_overrides_alias_absent(self):
        assert _spec(cost_overrides={}).cost_overrides is None
        assert spec_hash(_spec(cost_overrides={})) == spec_hash(
            _spec(cost_overrides=())) == spec_hash(_spec(cost_overrides=None))

    def test_check_true_aliases_default_plan(self):
        assert spec_hash(_spec(config=RuntimeConfig.proposed(check=True))) \
            == spec_hash(_spec(config=RuntimeConfig.proposed(
                check=CheckPlan())))

    def test_observe_dict_aliases_timeline_config(self):
        as_dict = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": True}))
        as_config = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": TimelineConfig()}))
        assert spec_hash(as_dict) == spec_hash(as_config)

    def test_observe_interval_dict_aliases_explicit_config(self):
        as_dict = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": {"interval_us": 500.0}}))
        as_config = _spec(config=RuntimeConfig.proposed(
            observe={"timeline": TimelineConfig(interval_us=500.0)}))
        assert spec_hash(as_dict) == spec_hash(as_config)

    def test_aliased_specs_produce_equal_results(self):
        # Aliasing is only sound if the two spellings really do run
        # identically; spot-check one non-trivial pair.
        as_dict = _spec(npes=4, ppn=2, config=RuntimeConfig.proposed(
            faults={"ud": [{"action": "drop", "prob": 0.1}]}))
        as_plan = _spec(npes=4, ppn=2, config=RuntimeConfig.proposed(
            faults=FaultPlan(ud=(UDFault("drop", prob=0.1),))))
        assert spec_hash(as_dict) == spec_hash(as_plan)
        assert execute(as_dict) == execute(as_plan)


# ----------------------------------------------------------------------
# distinctness: any semantic difference, different hash
# ----------------------------------------------------------------------
class TestDistinctness:
    def test_faults_only_difference_changes_the_hash(self):
        # The regression ISSUE names: two specs differing ONLY in
        # faults must never share an identity.
        plain = _spec()
        lossy = _spec(config=RuntimeConfig.proposed(faults=LOSSY))
        assert spec_hash(plain) != spec_hash(lossy)
        assert spec_identity(plain) != spec_identity(lossy)

    def test_cost_overrides_only_difference_changes_the_hash(self):
        assert spec_hash(_spec()) != spec_hash(
            _spec(cost_overrides={"qp_cache_entries": 8}))

    def test_semantic_field_matrix(self):
        variants = [
            _spec(),
            _spec(npes=16),
            _spec(config=RuntimeConfig.current()),
            _spec(testbed="B"),
            _spec(ppn=4),
            _spec(config=RuntimeConfig.proposed(seed=99)),
            _spec(config=RuntimeConfig.proposed(observe=True)),
            _spec(config=RuntimeConfig.proposed(observe={"timeline": True})),
            _spec(config=RuntimeConfig.proposed(faults=LOSSY)),
            _spec(config=RuntimeConfig.proposed(check=True)),
            _spec(config=RuntimeConfig.proposed(
                lifecycle=LifecyclePolicy(policy="lru"))),
            _spec(cost_overrides={"qp_cache_entries": 8}),
            _spec(cost_overrides={"qp_cache_entries": 16}),
            _spec(config=RuntimeConfig.proposed(macro=True)),
            _spec(app=NasEP()),
        ]
        hashes = [spec_hash(s) for s in variants]
        assert len(set(hashes)) == len(variants)
        identities = [spec_identity(s) for s in variants]
        assert len(set(identities)) == len(variants)

    def test_fault_probability_changes_the_hash(self):
        a = _spec(config=RuntimeConfig.proposed(faults=LOSSY))
        b = _spec(config=RuntimeConfig.proposed(faults=FaultPlan(
            name="loss", ud=(UDFault("drop", prob=0.2),))))
        assert spec_hash(a) != spec_hash(b)

    def test_app_params_change_the_hash(self):
        assert spec_hash(_spec(app=NasEP(real_pairs=100))) != spec_hash(
            _spec(app=NasEP(real_pairs=200)))


# ----------------------------------------------------------------------
# canonical form mechanics
# ----------------------------------------------------------------------
class TestCanonicalForm:
    def test_canonical_json_is_stable_and_sorted(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=3),
                     cost_overrides={"qp_cache_entries": 8})
        assert canonical_json(spec) == canonical_json(spec)
        assert canonical_json(spec).startswith('{"app":')

    def test_hash_survives_pickling(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=3, observe=True),
                     cost_overrides={"qp_cache_entries": 8})
        assert spec_hash(pickle.loads(pickle.dumps(spec))) == spec_hash(spec)

    def test_hash_is_hex_sha256(self):
        digest = spec_hash(_spec())
        assert len(digest) == 64
        assert int(digest, 16) >= 0


# ----------------------------------------------------------------------
# bugfix regressions
# ----------------------------------------------------------------------
class TestSweepErrorIdentity:
    class _Boom(HelloWorld):
        pass

    def test_error_names_are_collision_free(self):
        # The descriptive key elides option details; the hash suffix
        # keeps two failing specs that differ only in faults apart.
        a = _spec()
        b = _spec(config=RuntimeConfig.proposed(faults=LOSSY))
        err_a = SweepError(a, ValueError("x"))
        err_b = SweepError(b, ValueError("x"))
        assert str(err_a) != str(err_b)
        assert spec_identity(a) in str(err_a)
        assert spec_identity(b) in str(err_b)

    def test_identity_property_matches_function(self):
        spec = _spec(config=RuntimeConfig.proposed(seed=5))
        assert spec.identity == spec_identity(spec)


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
