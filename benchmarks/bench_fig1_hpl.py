"""Figure 1: distribution of completion times for 50 HPL runs.

Regenerates the density of completion times on 64 simulated Piz Daint
nodes (N = 314k) and the figure's five Tflop/s annotations.  Paper values
for comparison: Max 77.38, 95% quantile 72.79, Median 69.92, Arithmetic
Mean 65.23, Min 61.23 Tflop/s against a 94.5 Tflop/s peak.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig1_hpl(benchmark, record_result):
    fig = benchmark(build_figure, "fig1_hpl")
    record_result("fig1_hpl", FIGURES["fig1_hpl"].to_text(fig))
    rows = dict(fig.annotation_rows())
    # Shape assertions: ordering and rough magnitudes of the paper's labels.
    assert rows["Max"] > rows["95% Quantile"] > rows["Median"] > rows["Min"]
    assert 74 < rows["Max"] < 80
    assert 60 < rows["Min"] < 68
    assert rows["Max"] < fig.peak_tflops
