"""Figure 4: quantile-regression comparison of Pilatus vs Piz Dora.

Regenerates the two panels: the intercept (Piz Dora latency per quantile)
and the difference (Pilatus − Dora per quantile, with bootstrap CIs), plus
the single mean-difference number (paper: 0.108 µs).  The reproduced
insight: the difference changes sign across quantiles — one system wins at
low percentiles, the other at high percentiles — which the mean hides
(Rule 8).
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig4_quantile_regression(benchmark, record_result):
    cmp = benchmark(build_figure, "fig4_quantreg", samples=120_000)
    record_result("fig4_quantreg", FIGURES["fig4_quantreg"].to_text(cmp))
    diffs = [d.coef[0] for d in cmp.difference]
    assert diffs[0] < 0 < diffs[-1]          # the crossover
    assert 0.03 < cmp.mean_difference < 0.2  # ~paper's +0.108 us
    assert len(cmp.crossover_taus()) >= 1
