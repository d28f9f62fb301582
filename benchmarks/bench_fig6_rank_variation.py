"""Figure 6: variation across 64 processes in MPI_Reduce.

Regenerates the per-rank completion-time box plots (1.5 IQR whiskers) for
1,000 simulated reductions over 64 ranks on Piz Daint, plus the Rule 10
procedure: the ANOVA/Kruskal–Wallis homogeneity gate correctly refuses to
pool the ranks (daemon-core ranks and interior tree ranks differ
systematically).
"""

from __future__ import annotations

import numpy as np
from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig6_rank_variation(benchmark, record_result):
    fig = benchmark.pedantic(
        build_figure, args=("fig6_rank_variation",), kwargs={"n_runs": 200}, rounds=1, iterations=1
    )
    record_result("fig6_rank_variation", FIGURES["fig6_rank_variation"].to_text(fig))
    assert not fig.rank_summary.homogeneous
    meds = np.array([b["median"] for b in fig.boxstats])
    assert meds.max() > 2 * np.median(meds)  # clearly heterogeneous ranks
    assert len(fig.slow_ranks()) >= 1
