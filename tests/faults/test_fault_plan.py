"""FaultPlan declaration, validation, config round-trip and Job wiring."""

import pytest

from repro.core import Job, RuntimeConfig
from repro.errors import ConfigError
from repro.faults import FaultPlan, PMIFault, QPCreateFault, UDFault


class TestRuleValidation:
    def test_ud_action_must_be_known(self):
        with pytest.raises(ConfigError, match="action"):
            UDFault("corrupt")

    @pytest.mark.parametrize("prob", [-0.1, 1.5])
    def test_prob_bounds(self, prob):
        with pytest.raises(ConfigError, match="prob"):
            UDFault("drop", prob=prob)
        with pytest.raises(ConfigError, match="prob"):
            QPCreateFault(prob=prob)

    @pytest.mark.parametrize("window", [(5.0,), (10.0, 10.0), (20.0, 5.0),
                                        (-1.0, 5.0)])
    def test_window_must_be_ordered_nonnegative(self, window):
        with pytest.raises(ConfigError, match="window"):
            UDFault("drop", window=window)

    def test_first_n_must_be_positive(self):
        with pytest.raises(ConfigError, match="first_n"):
            UDFault("drop", first_n=0)

    def test_negative_delays_rejected(self):
        with pytest.raises(ConfigError, match="delay_us"):
            UDFault("delay", delay_us=-1.0)

    def test_pmi_slowdown_below_one_rejected(self):
        with pytest.raises(ConfigError, match="slowdown"):
            PMIFault(window=(0.0, 10.0), slowdown=0.5)

    def test_pmi_noop_rule_rejected(self):
        with pytest.raises(ConfigError, match="no effect"):
            PMIFault(window=(0.0, 10.0))


class TestPlan:
    def test_lists_normalised_to_tuples(self):
        plan = FaultPlan(ud=[UDFault("drop")], pmi=[])
        assert isinstance(plan.ud, tuple) and isinstance(plan.pmi, tuple)

    def test_wrong_rule_type_in_family_rejected(self):
        with pytest.raises(ConfigError, match="entries must be"):
            FaultPlan(ud=(QPCreateFault(),))

    def test_empty_property(self):
        assert FaultPlan().empty
        assert not FaultPlan(qp_create=(QPCreateFault(first_n=1),)).empty

    def test_dict_round_trip(self):
        plan = FaultPlan(
            name="mix",
            ud=(
                UDFault("drop", dst=3, first_n=2),
                UDFault("delay", prob=0.5, delay_us=40.0, jitter_us=10.0,
                        window=(100.0, 900.0)),
            ),
            qp_create=(QPCreateFault(first_n=1, per_rank=True),),
            pmi=(PMIFault(window=(0.0, 500.0), outage=True),),
        )
        assert FaultPlan.from_dict(plan.as_dict()) == plan

    def test_from_dict_accepts_window_lists(self):
        plan = FaultPlan.from_dict(
            {"ud": [{"action": "drop", "window": [0.0, 10.0]}]}
        )
        assert plan.ud[0].window == (0.0, 10.0)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ConfigError, match="unknown FaultPlan keys"):
            FaultPlan.from_dict({"udp": []})
        with pytest.raises(ConfigError, match="unknown UDFault fields"):
            FaultPlan.from_dict({"ud": [{"action": "drop", "probab": 0.2}]})

    def test_from_dict_validates_rule_values(self):
        with pytest.raises(ConfigError, match="prob"):
            FaultPlan.from_dict({"ud": [{"action": "drop", "prob": 2.0}]})


class TestConfigAndJobWiring:
    def test_runtime_config_coerces_dict(self):
        cfg = RuntimeConfig.proposed(
            faults={"name": "cfg", "ud": [{"action": "drop", "prob": 0.1}]}
        )
        assert isinstance(cfg.faults, FaultPlan)
        assert cfg.faults.name == "cfg"

    def test_runtime_config_rejects_bad_type(self):
        with pytest.raises(ConfigError, match="faults"):
            RuntimeConfig.proposed(faults=42)

    def test_job_installs_injector_everywhere(self):
        plan = FaultPlan(ud=(UDFault("drop", prob=0.1),))
        cfg = RuntimeConfig.proposed(faults=plan)
        job = Job(npes=4, config=cfg)
        inj = job.fault_injector
        assert inj is not None and inj.plan is plan
        assert job.fabric.faults is inj
        assert all(h.faults is inj for h in job.hcas)
        assert job.pmi_domain.faults is inj

    def test_job_skips_empty_plan(self):
        cfg = RuntimeConfig.proposed(faults=FaultPlan())
        job = Job(npes=4, config=cfg)
        assert job.fault_injector is None
        assert job.fabric.faults is None

    def test_job_picks_up_config_plan(self):
        cfg = RuntimeConfig.proposed(
            faults={"ud": [{"action": "drop", "prob": 0.1}]}
        )
        job = Job(npes=4, config=cfg)
        assert job.fault_injector is not None
        assert job.fault_injector.plan is cfg.faults


class TestKindValidation:
    def test_kind_must_be_nonempty_string(self):
        with pytest.raises(ConfigError):
            UDFault("drop", kind="")
        with pytest.raises(ConfigError):
            UDFault("drop", kind=42)

    def test_kind_round_trips_through_dict(self):
        plan = FaultPlan(ud=(UDFault("drop", kind="DisconnectAck"),))
        again = FaultPlan.from_dict(plan.as_dict())
        assert again.ud[0].kind == "DisconnectAck"
