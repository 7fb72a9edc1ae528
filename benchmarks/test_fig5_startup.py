"""Figure 5: startup performance, current vs proposed."""

from repro.shmem import PHASE_CONN, PHASE_MEMREG, PHASE_PMI

from conftest import full_scale


def test_fig5a_startup(experiment):
    result = experiment("fig5a_startup")

    raw = result.extras["raw"]
    sizes = sorted(raw)
    small, large = sizes[0], sizes[-1]

    # Proposed start_pes is near-constant across job sizes...
    prop_small = raw[small]["proposed"].startup.mean_us
    prop_large = raw[large]["proposed"].startup.mean_us
    assert prop_large / prop_small < 1.15

    # ...while the current design grows and loses at the largest size.
    cur_large = raw[large]["current"].startup.mean_us
    cur_small = raw[small]["current"].startup.mean_us
    assert cur_large > 1.3 * cur_small
    init_speedup = cur_large / prop_large
    assert init_speedup > 1.3

    # Hello World wall-clock gains exceed the init gains (teardown of
    # the fully connected fabric is also on the clock).
    hello_speedup = (
        raw[large]["current"].wall_time_us
        / raw[large]["proposed"].wall_time_us
    )
    assert hello_speedup > init_speedup * 0.9
    if full_scale():
        # Paper: ~3x init and ~8.3x Hello World at 8192 PEs.
        assert 2.0 < init_speedup < 7.0
        assert 5.0 < hello_speedup < 14.0


def test_fig5b_breakdown(experiment):
    result = experiment("fig5b_breakdown")
    means = result.extras["phase_means"]
    for npes, bd in means.items():
        # Negligible time in PMI operations and connection setup.
        assert bd.get(PHASE_PMI, 0.0) < 0.02 * bd[PHASE_MEMREG]
        assert bd.get(PHASE_CONN, 0.0) < 0.02 * bd[PHASE_MEMREG]


def test_fig5_scale(experiment):
    result = experiment("fig5_scale")

    raw = result.extras["raw"]
    sizes = sorted(raw)
    base = raw[sizes[0]].startup.mean_us
    for npes in sizes:
        # Hello World never leaves the node: no connection is built...
        assert raw[npes].resources.mean_connections == 0.0, npes
        # ...so start_pes stays flat far past the paper's 8,192 PEs.
        assert abs(raw[npes].startup.mean_us / base - 1.0) < 0.01, npes
