"""One module per paper table/figure (see DESIGN.md experiment index).

:data:`EXPERIMENTS` is the one registry of the paper's experiments.
Each name is the stem of the experiment's committed artifacts under
``benchmarks/results/`` (quick scale) and ``benchmarks/results/full/``
(paper scale).  Each value runs the experiment when called as
``fn(quick=True)`` (quick sizes) or ``fn(quick=False)`` (the paper's).
"""

from . import (
    ablation_barrier,
    ablation_piggyback,
    ablation_pmi,
    ablation_qp_cache,
    fig1_breakdown,
    fig2_radar,
    fig5_startup,
    fig6_p2p,
    fig7_collectives,
    fig8a_nas,
    fig8b_graph500,
    fig9_churn,
    fig9_resources,
    table1_peers,
)

EXPERIMENTS = {
    "fig1_breakdown": fig1_breakdown.run,
    "table1_peers": table1_peers.run,
    "fig2_radar": fig2_radar.run,
    "fig5a_startup": fig5_startup.run,
    "fig5b_breakdown": fig5_startup.run_breakdown,
    # Beyond the paper: on-demand startup from 16,384 to 1,048,576 PEs
    # (quick keeps the 16,384-PE point only).
    "fig5_scale": fig5_startup.run_scale,
    "fig6ab_put_get": fig6_p2p.run,
    "fig6c_atomics": lambda quick: fig6_p2p.run_atomics(),
    "fig7ab_collect_reduce": fig7_collectives.run,
    "fig7c_barrier": fig7_collectives.run_barrier,
    "fig8a_nas": fig8a_nas.run,
    "fig8b_graph500": fig8b_graph500.run,
    "fig9_resources": fig9_resources.run,
    "fig9_churn": fig9_churn.run,
    "ablation_d1_piggyback": ablation_piggyback.run,
    "ablation_d2_pmi": ablation_pmi.run,
    "ablation_d3_barrier": ablation_barrier.run,
    "ablation_d5_qp_cache": lambda quick: ablation_qp_cache.run(),
}

__all__ = [
    "EXPERIMENTS",
    "fig1_breakdown",
    "table1_peers",
    "fig2_radar",
    "fig5_startup",
    "fig6_p2p",
    "fig7_collectives",
    "fig8a_nas",
    "fig8b_graph500",
    "fig9_resources",
    "fig9_churn",
    "ablation_piggyback",
    "ablation_pmi",
    "ablation_barrier",
    "ablation_qp_cache",
]
