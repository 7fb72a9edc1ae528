"""Macro phase models for ``start_pes`` (the analytical phase layer).

:func:`run_macro_job` is the orchestrator behind
``RuntimeConfig(macro=True)``: it reproduces one job's startup metrics
without stepping a per-PE protocol coroutine swarm.  It models the
paper's proposed design only; ``RuntimeConfig`` refuses macro mode on
the static corner and on every ablation when the config is built.

Every on-demand startup phase is homogeneous and data-independent:
endpoint creation, the non-blocking iallgather launch (which charges *zero*
client time — the daemon-tree work happens in the background), memory
registration, shared-memory setup and two intra-node barriers.  The
whole flow reduces to per-PE closed-form arithmetic plus a per-node max
for the barrier release — O(npes) float ops and no simulator events.
This is the path that carries a 1,048,576-PE Figure-5 point.

Equivalence contract (see ``tests/core/test_macro_equivalence.py``):
phase-timing breakdowns, ``init_duration`` / ``init_done_at`` and the
deterministic startup counters are reproduced bit for bit against the
exact engine.  ``wall_time_us``, the finalize-path counters and the
resource snapshot come from the lossless-UD model in
:mod:`repro.gasnet.models` (the exact engine draws UD-loss randomness
there, and its per-PE snapshot can catch finalize-phase connect traffic
from early finishers) and are reported in ``MacroRunResult.modeled``
rather than asserted.
"""

from __future__ import annotations

import math
from typing import Dict, List

from ..cluster import Cluster
from ..errors import ConfigError
from ..gasnet.models import exchange_payload_bytes, finalize_model
from ..pmi.models import iallgather_release_times, iallgather_tree_counters
from ..sim import RngRegistry
from ..sim.macro import MacroPE, MacroRunResult
from .startup import PHASE_MEMREG, PHASE_OTHER, PHASE_PMI, PHASE_SHM

__all__ = ["run_macro_job"]


def run_macro_job(app, npes: int, config, cluster: Cluster) -> MacroRunResult:
    """Reproduce one job's metrics through the macro phase models.

    ``config`` is the on-demand corner: ``RuntimeConfig`` refuses
    ``macro=True`` anywhere else when it is built.
    """
    profile = getattr(app, "macro_profile", None)
    if profile is None:
        raise ConfigError(
            f"macro mode requires an app with a macro_profile() "
            f"(closed-form per-rank cost); {type(app).__name__} has none"
        )
    cost = cluster.cost
    rng = RngRegistry(config.seed)
    skews = rng.stream("launch-skew").uniform(
        0.0, cost.launch_skew_us, size=npes
    )

    model_bytes = int(config.heap_mb * 1024 * 1024)
    backing = int(config.heap_backing_kb * 1024)
    reg_bytes = max(model_bytes, backing)
    mr_us = cost.mr_register_us(reg_bytes)

    # Per-PE instants, mirroring the exact flow's float ops one by one
    # (each ``yield d`` is one ``now + d``):
    #   t0 launch skew -> OTHER: init_misc + UD endpoint (t1)
    #   -> PMI: iallgather launch, zero client time
    #   -> MEMREG: heap registration (t2)
    #   -> SHM: shared-memory setup (t3)
    #   -> OTHER: two intra-node barriers (exit2).
    t0 = [0.0] * npes
    t1 = [0.0] * npes
    t3 = [0.0] * npes
    memreg = [0.0] * npes
    shm_us = [0.0] * npes
    for r in range(npes):
        s = 0.0 + float(skews[r])
        a = s + cost.init_misc_us
        b = a + cost.ud_qp_create_us
        c = b + mr_us
        local = cluster.local_size(r)
        d = c + (cost.shm_setup_base_us + cost.shm_setup_per_rank_us * local)
        t0[r] = s
        t1[r] = b
        memreg[r] = c - b
        t3[r] = d
        shm_us[r] = d - c

    # Intra-node barriers: ``yield shm_barrier_us * rounds`` then a
    # node Barrier released at the *last arrival* instant.  Nodes do
    # not synchronise with each other here, so exit times are per node.
    exit2 = [0.0] * cluster.nnodes
    for node in range(cluster.nnodes):
        ranks = cluster.ranks_on_node(node)
        local = len(ranks)
        rounds = max(1, math.ceil(math.log2(max(2, local))))
        w = cost.shm_barrier_us * rounds
        exit1 = max(t3[r] + w for r in ranks)
        exit2[node] = exit1 + w

    pes: List[MacroPE] = []
    app_done = [0.0] * npes
    results: List = [None] * npes
    resources = {
        "rc_qps": 0,
        "ud_qps": 1,
        "connections": 0,
        "qp_memory_bytes": cost.ud_qp_memory_bytes,
        "registered_bytes": reg_bytes,
        "active_connections": 0,
        "peers": 0,
    }
    for r in range(npes):
        done = exit2[cluster.node_of(r)]
        # PhaseTimer accumulation order: OTHER opens first, so it leads
        # the dict; both OTHER segments add in chronological order.
        breakdown = {
            PHASE_OTHER: (t1[r] - t0[r]) + (done - t3[r]),
            PHASE_PMI: 0.0,
            PHASE_MEMREG: memreg[r],
            PHASE_SHM: shm_us[r],
        }
        pes.append(MacroPE(
            rank=r, breakdown=breakdown, init_done_at=done,
            init_duration=done - t0[r], resources=resources,
        ))
        elapsed, value = app.macro_profile(r, npes, cost)
        app_done[r] = done + elapsed
        results[r] = value

    counters: Dict[str, int] = {
        "pmi.iallgathers": npes,
        "verbs.ud_qp_created": npes,
        "verbs.mr_registered": npes,
        "shmem.intranode_barriers": 2 * npes,
        "shmem.start_pes_done": npes,
    }
    tree_msgs, tree_bytes = iallgather_tree_counters(cluster)
    if tree_msgs:
        counters["pmi.tree_messages"] = tree_msgs
        counters["pmi.tree_bytes"] = tree_bytes

    # Finalize: barrier_all over lazily connected peers + QP sweep.
    # Modeled (lossless UD), not asserted — see the module docstring.
    dir_release = iallgather_release_times(cluster, t1)
    payload = exchange_payload_bytes(backing)
    done_times, fin_counters = finalize_model(
        cluster, app_done, dir_release, payload
    )
    # The per-PE resource snapshot is taken at *that PE's* app
    # completion; in the exact engine a PE on a slow node can first
    # serve connect requests from early finishers already inside the
    # finalize barrier, so a few server-side RC QPs leak into its
    # snapshot.  The macro snapshot is the startup-complete state
    # (no connections), which is the startup-attributable quantity —
    # hence "resources" rides the modeled list with the finalize keys.
    modeled = ["resources"]
    for key, value in fin_counters.items():
        if value:
            counters[key] = counters.get(key, 0) + value
            modeled.append(key)
    modeled.append("wall_time_us")

    launch = cost.launch_overhead_us
    return MacroRunResult(
        pes=pes,
        wall_time_us=launch + max(done_times),
        app_done_us=launch + max(app_done),
        app_results=results,
        counters=counters,
        modeled=modeled,
    )
