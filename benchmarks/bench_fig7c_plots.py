"""Figure 7(c): box, violin, and combined plots of 10⁶ ping-pong latencies.

Regenerates the distribution statistics the combined plot shows: quartile
box with 1.5 IQR whiskers, the violin density, arithmetic and geometric
means, median with its 95% CI — for 64 B ping-pong on the Piz Dora model.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig7c_distribution(benchmark, record_result):
    fig = benchmark(build_figure, "fig7c_distribution", samples=120_000)
    record_result("fig7c_plots", FIGURES["fig7c_distribution"].to_text(fig))
    s = fig.summary
    assert fig.whisker_low <= s.q25 <= s.median <= s.q75 <= fig.whisker_high
    assert s.median < fig.geometric_mean <= s.mean  # right-skewed ordering
    assert fig.median_ci95.relative_width < 0.01    # 10^5+ samples: tight CI
