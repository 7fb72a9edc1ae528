"""Figure 9 companion: QP footprint under connection churn."""


def test_fig9_churn(experiment):
    result = experiment("fig9_churn")

    series = result.extras["series"]
    for npes, off in series["off"].items():
        # Without a lifecycle policy nothing is ever evicted...
        assert off["evictions"] == 0, npes
        # ...so the footprint is the union of every epoch's peers, and
        # both eviction policies pin it below that.
        for policy in ("lru", "credit"):
            peak = series[policy][npes]["peak_connections"]
            assert peak < off["peak_connections"], (policy, npes)
        # LRU evicts the hot partner in every gap and reconnects.
        assert series["lru"][npes]["reconnects"] > 0, npes
