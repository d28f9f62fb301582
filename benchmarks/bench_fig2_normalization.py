"""Figure 2: normalization of ping-pong samples on Piz Dora.

Regenerates the four panels — original data, log transform, CLT block
means with k = 100 and k = 1000 — with a normality diagnostic and Q-Q
straightness score per panel.  Expected shape (as in the paper): the raw
data is far from normal, and normality improves monotonically through the
normalization ladder.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig2_normalization(benchmark, record_result):
    fig = benchmark(build_figure, "fig2_normalization", samples=120_000)
    record_result("fig2_normalization", FIGURES["fig2_normalization"].to_text(fig))
    qq = {v.name: v.report.qq_corr for v in fig.variants}
    assert not fig.variant("original").report.plausibly_normal
    assert qq["block_k100"] > qq["log"] > qq["original"]
    assert qq["block_k1000"] > 0.97
