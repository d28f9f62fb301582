"""Figure 3: significance of latency results on two systems.

Regenerates the Piz Dora vs Pilatus 64 B ping-pong comparison: per-system
distribution summaries with 99% CIs of mean and median, the min/max
anchors (paper: Dora 1.57/7.2 µs, Pilatus 1.48/11.59 µs), and the
significance verdicts — medians differ significantly (non-overlapping 99%
CIs and Kruskal–Wallis) despite heavily overlapping distributions.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig3_significance(benchmark, record_result):
    fig = benchmark(build_figure, "fig3_significance", samples=120_000)
    record_result("fig3_significance", FIGURES["fig3_significance"].to_text(fig))
    assert fig.medians_differ_significantly
    assert not fig.median_cis_overlap
    assert fig.pilatus.summary.maximum > fig.dora.summary.maximum
    assert fig.pilatus.summary.minimum < fig.dora.summary.minimum
