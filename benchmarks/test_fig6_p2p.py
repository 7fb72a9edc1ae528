"""Figure 6: point-to-point and atomic latency, static vs on-demand."""


def test_fig6ab_put_get(experiment):
    result = experiment("fig6ab_put_get")

    latency = result.extras["latency"]
    for op in ("get", "put"):
        for size, (static_us, ondemand_us, diff_pct) in latency[op].items():
            # Paper: <3% difference between the approaches everywhere.
            assert diff_pct < 3.0, (op, size, diff_pct)
        # Latency grows with message size (bandwidth regime kicks in).
        sizes = sorted(latency[op])
        assert latency[op][sizes[-1]][0] > latency[op][sizes[0]][0]


def test_fig6c_atomics(experiment):
    result = experiment("fig6c_atomics")

    latency = result.extras["latency"]
    for op, (static_us, ondemand_us, diff_pct) in latency.items():
        assert diff_pct < 3.0, (op, diff_pct)
    # Fetching swap needs a read + retry loop: costlier than plain fadd.
    assert latency["swap"][0] > latency["fadd"][0]
