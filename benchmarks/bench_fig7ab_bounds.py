"""Figure 7(a)/(b): time and speedup bounds models for parallel scaling.

Regenerates the Pi-digit scaling study (1–32 processes, 10 repetitions,
95% CI within 5% of the mean, as the paper's caption states) against the
three bounds models: ideal linear, serial overheads (Amdahl, b = 0.01),
and parallel overheads (the piecewise log reduction model).  The expected
shape: the parallel-overheads bound explains nearly all observed scaling.
"""

from __future__ import annotations

from _bench_utils import build_figure

from repro.report.registry import FIGURES


def test_fig7ab_bounds(benchmark, record_result):
    fig = benchmark(build_figure, "fig7ab_bounds")
    record_result("fig7ab_bounds", FIGURES["fig7ab_bounds"].to_text(fig))
    err = fig.model_error()
    assert err["parallel_overheads"] < err["amdahl"] < err["ideal"]
    assert err["parallel_overheads"] < 0.10
    assert fig.ci_within_5pct
