"""Deterministic, seed-driven fault injection (see DESIGN.md).

Split into declarative plans (:mod:`repro.faults.plan`) and their
runtime evaluation (:mod:`repro.faults.injector`)::

    from repro.core import Job, RuntimeConfig
    from repro.faults import FaultPlan, UDFault

    plan = FaultPlan(name="lossy", ud=(UDFault("drop", prob=0.2),))
    config = RuntimeConfig.proposed(faults=plan)
    Job(npes=64, config=config).run(app)

Every decision draws from named sub-streams of the job's master seed,
so a (plan, seed) pair replays byte-identically — the chaos matrix in
``tests/faults`` leans on this to pin the handshake's adverse paths.
"""

from .injector import FaultInjector
from .plan import FaultPlan, PMIFault, QPCreateFault, UDFault

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "UDFault",
    "QPCreateFault",
    "PMIFault",
]
