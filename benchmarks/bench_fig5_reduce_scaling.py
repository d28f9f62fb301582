"""Figure 5: 1,000 MPI_Reduce runs for different process counts.

Regenerates the worst-rank completion time of the simulated binomial-tree
reduce for every process count 2..64 on the Piz Daint model, split into
powers of two vs others.  The reproduced phenomenon: non-powers-of-two pay
an extra fold-in phase and are consistently slower than their power-of-two
neighbours.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig5_reduce_scaling(benchmark, record_result):
    fig = benchmark.pedantic(
        build_figure, args=("fig5_reduce",), kwargs={"n_runs": 150}, rounds=1, iterations=1
    )
    record_result("fig5_reduce_scaling", FIGURES["fig5_reduce"].to_text(fig))
    assert fig.pof2_advantage() > 1.1
    by_p = {pt.p: pt.median_us for pt in fig.points}
    assert by_p[64] > by_p[8]          # grows with P
    assert by_p[33] > by_p[32]         # the step at every 2^k boundary
    assert by_p[17] > by_p[16]
