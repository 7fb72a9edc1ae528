"""CheckPlan validation, round-trip and wiring into config/specs."""

import pytest

from repro.apps import HelloWorld
from repro.check import CheckPlan
from repro.core import RuntimeConfig
from repro.errors import ConfigError
from repro.exec import JobSpec


class TestCheckPlan:
    def test_defaults_arm_every_layer_strictly(self):
        plan = CheckPlan()
        assert plan.name == "check"
        assert plan.ib and plan.memory and plan.pmi and plan.conduit
        assert plan.lifecycle
        assert plan.strict
        assert not plan.empty

    def test_empty_when_no_layer_armed(self):
        plan = CheckPlan(ib=False, memory=False, pmi=False, conduit=False,
                         lifecycle=False)
        assert plan.empty
        # strict alone does not make the plan do anything
        assert CheckPlan(ib=False, memory=False, pmi=False, conduit=False,
                         lifecycle=False, strict=True).empty

    def test_round_trip_through_dict(self):
        plan = CheckPlan(name="teardown", pmi=False, strict=False)
        assert CheckPlan.from_dict(plan.as_dict()) == plan

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown CheckPlan keys"):
            CheckPlan.from_dict({"ib": True, "gasnet": True})

    def test_from_dict_rejects_non_dict(self):
        with pytest.raises(ConfigError):
            CheckPlan.from_dict(["ib"])

    def test_name_must_be_nonempty_string(self):
        with pytest.raises(ConfigError):
            CheckPlan(name="")
        with pytest.raises(ConfigError):
            CheckPlan(name=7)

    def test_layer_toggles_must_be_bools(self):
        with pytest.raises(ConfigError):
            CheckPlan(ib="yes")
        with pytest.raises(ConfigError):
            CheckPlan(strict=1)

    def test_plans_are_hashable(self):
        assert len({CheckPlan(), CheckPlan(), CheckPlan(pmi=False)}) == 2


class TestRuntimeConfigWiring:
    def test_true_becomes_default_plan(self):
        cfg = RuntimeConfig.proposed().evolve(check=True)
        assert cfg.check == CheckPlan()

    def test_false_becomes_none(self):
        cfg = RuntimeConfig.proposed().evolve(check=False)
        assert cfg.check is None

    def test_dict_is_parsed(self):
        cfg = RuntimeConfig.proposed().evolve(
            check={"name": "cfg-audit", "conduit": False}
        )
        assert cfg.check == CheckPlan(name="cfg-audit", conduit=False)

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            RuntimeConfig.proposed().evolve(check=3)


class TestJobSpecWiring:
    def test_true_becomes_default_plan_and_tags_key(self):
        spec = JobSpec(app=HelloWorld(), npes=4,
                       config=RuntimeConfig.proposed(check=True))
        assert spec.config.check == CheckPlan()
        assert spec.key.endswith("check")

    def test_false_becomes_none(self):
        spec = JobSpec(app=HelloWorld(), npes=4,
                       config=RuntimeConfig.proposed(check=False))
        assert spec.config.check is None
        assert "check" not in spec.key

    def test_dict_is_parsed(self):
        spec = JobSpec(app=HelloWorld(), npes=4,
                       config=RuntimeConfig.proposed(check={"strict": False}))
        assert spec.config.check == CheckPlan(strict=False)
        assert spec.key.endswith("check")

    def test_garbage_rejected(self):
        with pytest.raises(ConfigError):
            JobSpec(app=HelloWorld(), npes=4,
                    config=RuntimeConfig.proposed(check="all"))
