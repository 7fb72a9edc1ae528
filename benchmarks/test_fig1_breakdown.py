"""Figure 1: init-time breakdown of the static design."""

from repro.shmem import PHASE_CONN, PHASE_MEMREG, PHASE_PMI


def test_fig1_breakdown(experiment):
    result = experiment("fig1_breakdown")

    means = result.extras["phase_means"]
    sizes = sorted(means)
    small, large = sizes[0], sizes[-1]
    # Connection setup and PMI exchange grow with job size...
    assert means[large][PHASE_CONN] > 1.8 * means[small][PHASE_CONN]
    assert means[large][PHASE_PMI] > 1.5 * means[small][PHASE_PMI]
    # ...while memory registration stays ~constant.
    ratio = means[large][PHASE_MEMREG] / means[small][PHASE_MEMREG]
    assert 0.9 < ratio < 1.1
