"""Figure 2: qualitative summary radar."""


def test_fig2_radar(experiment):
    result = experiment("fig2_radar")

    axes = result.extras["axes"]
    # Dramatic wins on startup and resource usage...
    assert axes["Startup Time"] < 0.9
    assert axes["Resource Usage"] < 0.6
    # ...moderate (but real) win on execution time.
    assert 0.4 < axes["Execution Time"] < 1.0
