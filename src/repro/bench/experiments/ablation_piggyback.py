"""Ablation D1 — piggybacked vs separate segment-key exchange.

The paper's design appends the serialized ``<address, size, rkey>``
triplets to the connect request/reply so RDMA can start the instant the
connection is up (Section IV-C).  The ablation disables the piggyback
and falls back to a separate post-connect request/reply (the baseline's
inefficiency #2); the cost shows up as a higher *first-communication*
latency to each new peer.
"""

from __future__ import annotations

from typing import Generator, List, Optional

import numpy as np

from ...apps.base import Application
from ..runner import PROPOSED, ExperimentResult, job_spec, run_jobs


class FirstTouchLatency(Application):
    """PE0 times its first put to every other PE (cold connections)."""

    name = "first-touch"

    def run(self, pe) -> Generator:
        buf = pe.shmalloc(64)
        yield from pe.barrier_all()
        samples: List[float] = []
        if pe.mype == 0:
            for peer in range(1, pe.npes):
                if pe.cluster.same_node(0, peer):
                    continue  # intra-node peers need no connection
                start = pe.sim.now
                yield from pe.put(peer, buf, b"x" * 64)
                samples.append(pe.sim.now - start)
        yield from pe.barrier_all()
        return samples


def run(npes: Optional[int] = None, quick: bool = True) -> ExperimentResult:
    npes = npes or (16 if quick else 32)
    piggy, separate = run_jobs([
        job_spec(FirstTouchLatency(), npes,
                 PROPOSED.evolve(piggyback_segments=True),
                 testbed="A", ppn=2),
        job_spec(FirstTouchLatency(), npes,
                 PROPOSED.evolve(piggyback_segments=False),
                 testbed="A", ppn=2),
    ])
    a = float(np.mean(piggy.app_results[0]))
    b = float(np.mean(separate.app_results[0]))
    overhead = (b - a) / a * 100.0
    rows = [
        ["piggybacked (proposed)", f"{a:.2f}"],
        ["separate exchange (baseline)", f"{b:.2f}"],
        ["overhead of separate exchange", f"{overhead:.1f}%"],
    ]
    return ExperimentResult(
        experiment="Ablation D1",
        title="first-communication latency per new peer (us)",
        columns=["variant", "mean first-put latency (us)"],
        rows=rows,
        note="piggybacking removes one request/reply round from every "
             "first contact",
        extras={"piggyback_us": a, "separate_us": b, "overhead_pct": overhead},
    )
