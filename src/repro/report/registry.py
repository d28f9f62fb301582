"""The figure registry: named generators behind a content-addressed cache.

Every figure the library can produce is one :class:`FigureEntry` in
:data:`FIGURES` — the paper's seven reproduction figures plus the
scenario figures (million-rank collective scaling, chaos degradation,
campaign trajectory).  An entry declares how to *build* the figure
dataclass and how to convert it to a Vega-Lite spec; the surrounding
:class:`FigureService` renders each entry to three artifacts —

* ``<key>.json``     — figure data + provenance (:func:`figure_to_json`),
* ``<key>.vl.json``  — the Vega-Lite spec (strict JSON),
* ``<key>.html``     — a standalone page embedding the spec —

where ``<key>`` is the figure's *content key*: a digest of the entry
name/version, its build parameters and seed, the simulation kernel
version, and (for campaign figures) the campaign's on-disk dataset and
shard-store state.  Unchanged inputs ⇒ unchanged key ⇒ the service
serves the cached bytes without rebuilding anything; new data changes
the key, so stale artifacts can never be served as current (Rule 9's
regeneration guarantee, mechanized).

The paper figures also carry a text view, which ``repro figures`` prints
and the ``benchmarks/bench_fig*.py`` scripts record: one generator and
one parameter set per paper number.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Mapping

import numpy as np

from ..errors import ValidationError
from .ascii_plot import box_plot, histogram_plot, line_chart, qq_plot, violin_plot
from .export import figure_to_json
from . import figures as _figs
from .table import render_table
from .vega import (
    vl_band_line_chart,
    vl_box_chart,
    vl_density_chart,
    vl_line_chart,
    vl_qq_chart,
    vl_to_json,
    vl_html,
)

__all__ = [
    "FigureEntry",
    "FigureService",
    "RenderedFigure",
    "FIGURES",
    "campaign_digest",
    "content_key",
    "figure_text",
    "text_figures",
]

_FORMATS = ("json", "vl.json", "html")


# --------------------------------------------------------------- registry


@dataclass(frozen=True)
class FigureEntry:
    """One named figure: how to build it and how to draw it.

    ``build(params)`` returns the figure dataclass; ``to_vega(figure)``
    converts it to a Vega-Lite spec dict; ``to_text(figure)``, set on the
    paper figures, renders it as text tables and terminal plots.
    ``params`` are the full-fidelity defaults; ``quick_params`` overlay
    them for fast CI/test renders.  ``needs_campaign`` entries build from
    recorded campaign data instead of fresh simulation, and key on the
    campaign's content (see :func:`campaign_digest`).  Bump ``version`` whenever
    the builder or spec layout changes meaning — it invalidates every
    cached render of this figure.
    """

    name: str
    title: str
    description: str
    build: Callable[..., Any]
    to_vega: Callable[[Any], dict[str, Any]]
    params: Mapping[str, Any] = field(default_factory=dict)
    quick_params: Mapping[str, Any] = field(default_factory=dict)
    needs_campaign: bool = False
    version: int = 1
    to_text: Callable[[Any], str] | None = None

    def resolve_params(self, *, quick: bool = False) -> dict[str, Any]:
        """Effective build params (quick overrides applied when set)."""
        params = dict(self.params)
        if quick:
            params.update(self.quick_params)
        return params

    def make(
        self, params: Mapping[str, Any], *, seed: int = 0, campaign: Any = None,
    ) -> Any:
        """Build the figure from *params* plus the campaign or seed it needs."""
        kwargs = dict(params)
        if self.needs_campaign:
            kwargs["campaign"] = campaign
        else:
            kwargs.setdefault("seed", seed)
        return self.build(**kwargs)


def _f(values: Any) -> list[float]:
    return [float(v) for v in np.asarray(values).ravel()]


# -- paper figures ------------------------------------------------------


def _vega_fig1(fig: _figs.Fig1HPL) -> dict[str, Any]:
    # Rate labels sit at the time that produced them: max rate = min time.
    rates = dict(fig.annotation_rows())
    s = fig.summary
    annotations = [
        (f"Max {rates['Max']:.2f} Tflop/s", s.minimum),
        (f"Median {rates['Median']:.2f} Tflop/s", s.median),
        (f"Mean {rates['Arithmetic Mean']:.2f} Tflop/s", s.mean),
        (f"Min {rates['Min']:.2f} Tflop/s", s.maximum),
    ]
    return vl_density_chart(
        {"HPL completion": (_f(fig.density_x), _f(fig.density_y))},
        title="Fig 1: HPL completion-time distribution",
        xlabel="completion time (s)",
        annotations=annotations,
    )


def _vega_fig2(fig: _figs.Fig2Normalization) -> dict[str, Any]:
    return vl_qq_chart(
        [
            {
                "name": v.name,
                "theoretical": _f(v.qq_theoretical),
                "sample": _f(v.qq_sample),
            }
            for v in fig.variants
        ],
        title="Fig 2: normalization strategies (normal Q-Q)",
    )


def _vega_fig3(fig: _figs.Fig3Significance) -> dict[str, Any]:
    return vl_density_chart(
        {
            fig.dora.name: (_f(fig.dora.density_x), _f(fig.dora.density_y)),
            fig.pilatus.name: (
                _f(fig.pilatus.density_x), _f(fig.pilatus.density_y),
            ),
        },
        title="Fig 3: latency distributions, Piz Dora vs Pilatus",
        xlabel="latency (µs)",
        annotations=[
            (f"{fig.dora.name} median", fig.dora.summary.median),
            (f"{fig.pilatus.name} median", fig.pilatus.summary.median),
        ],
    )


def _vega_fig4(qc: Any) -> dict[str, Any]:
    rows = [
        {
            "x": float(tau),
            "mid": float(res.coef[0]),
            "low": float(res.low[0]),
            "high": float(res.high[0]),
        }
        for tau, res in zip(qc.taus, qc.difference)
    ]
    return vl_band_line_chart(
        rows,
        title=(
            "Fig 4: per-quantile latency difference (Pilatus − Piz Dora); "
            f"mean difference {qc.mean_difference:.3f} µs"
        ),
        xlabel="quantile τ",
        ylabel="difference (µs)",
    )


def _vega_fig5(fig: _figs.Fig5Reduce) -> dict[str, Any]:
    rows = [
        {
            "x": pt.p,
            "mid": pt.median_us,
            "low": pt.q25_us,
            "high": pt.q75_us,
            "series": "power of two" if pt.power_of_two else "other",
        }
        for pt in fig.points
    ]
    # One quartile band over all points; the series split colors the line.
    return vl_band_line_chart(
        rows,
        title=f"Fig 5: MPI_Reduce completion vs processes ({fig.n_runs} runs)",
        xlabel="processes",
        ylabel="completion time (µs)",
        series_names=["power of two", "other"],
        legend_title="process count",
    )


def _vega_fig6(fig: _figs.Fig6RankVariation) -> dict[str, Any]:
    boxes = [
        {
            "x": b["rank"],
            "q1": b["q1"],
            "median": b["median"],
            "q3": b["q3"],
            "lo": b["whisker_low"],
            "hi": b["whisker_high"],
        }
        for b in fig.boxstats
    ]
    return vl_box_chart(
        boxes,
        title=(
            f"Fig 6: per-rank MPI_Reduce completion "
            f"({fig.nprocs} ranks, {fig.n_runs} runs)"
        ),
        xlabel="rank",
        ylabel="completion time (µs)",
    )


def _vega_fig7ab(fig: _figs.Fig7Bounds) -> dict[str, Any]:
    return vl_line_chart(
        list(fig.ps),
        {
            "measured": list(fig.measured_speedups),
            "ideal": list(fig.ideal_speedups),
            "Amdahl": list(fig.amdahl_speedups),
        },
        title="Fig 7(b): Pi speedup against bounds models",
        xlabel="processes",
        ylabel="speedup",
        legend_title="bound",
    )


def _vega_fig7c(fig: _figs.Fig7cPlots) -> dict[str, Any]:
    s = fig.summary
    spec = vl_density_chart(
        {"latency": (_f(fig.violin_x), _f(fig.violin_density))},
        title="Fig 7(c): latency distribution with box statistics",
        xlabel="latency (µs)",
        annotations=[
            ("q25", s.q25),
            ("median", s.median),
            ("q75", s.q75),
            ("whisker low", fig.whisker_low),
            ("whisker high", fig.whisker_high),
        ],
    )
    return spec


# -- paper figure text views --------------------------------------------


def _text_fig1(fig: _figs.Fig1HPL) -> str:
    rows = [[label, f"{value:.2f}"] for label, value in fig.annotation_rows()]
    rows.append(["Theoretical peak", f"{fig.peak_tflops:.2f}"])
    ci = fig.median_ci99
    return "\n".join([
        render_table(
            ["annotation", "Tflop/s"],
            rows,
            title="Figure 1 annotations (paper: 77.38 / 72.79 / 69.92 / 65.23 / 61.23, peak 94.5)",
        ),
        "",
        f"completion times: n={fig.summary.n}, median {fig.summary.median:.1f} s "
        f"(99% CI [{ci.low:.1f}, {ci.high:.1f}]), "
        f"range [{fig.summary.minimum:.1f}, {fig.summary.maximum:.1f}] s",
        "",
        histogram_plot(fig.times, bins=20, width=50, label="HPL completion time", unit="s"),
    ])


def _text_fig2(fig: _figs.Fig2Normalization) -> str:
    rows = [
        [
            v.name,
            v.k,
            v.data.size,
            f"{v.report.qq_corr:.4f}",
            f"{v.report.skew:.3f}",
            f"{v.report.shapiro.p_value:.2e}",
            "yes" if v.report.plausibly_normal else "no",
        ]
        for v in fig.variants
    ]
    original = fig.variant("original")
    block = fig.variant("block_k1000")
    n = original.data.size
    count = f"{n // 1_000_000}M" if n % 1_000_000 == 0 else f"{n:,}"
    return "\n".join([
        render_table(
            ["variant", "k", "n", "QQ corr", "skew", "Shapiro p", "normal?"],
            rows,
            title=f"Figure 2: normalization ladder ({count} 64B ping-pong samples on Piz Dora)",
        ),
        "",
        "Q-Q plot, original data:",
        qq_plot(original.qq_theoretical, original.qq_sample),
        "",
        "Q-Q plot, block means k=1000:",
        qq_plot(block.qq_theoretical, block.qq_sample),
    ])


def _text_fig3(fig: _figs.Fig3Significance) -> str:
    rows = [
        [
            p.name,
            f"{p.summary.minimum:.2f}",
            f"{p.summary.median:.3f}",
            f"[{p.median_ci99.low:.3f}, {p.median_ci99.high:.3f}]",
            f"{p.summary.mean:.3f}",
            f"[{p.mean_ci99.low:.3f}, {p.mean_ci99.high:.3f}]",
            f"{p.summary.maximum:.2f}",
        ]
        for p in (fig.dora, fig.pilatus)
    ]
    return "\n".join([
        render_table(
            ["system", "min", "median", "99% CI (median)", "mean", "99% CI (mean)", "max"],
            rows,
            title="Figure 3 (us; paper anchors: Dora 1.57..7.2, Pilatus 1.48..11.59)",
        ),
        "",
        f"Kruskal-Wallis H = {fig.kruskal.statistic:.1f}, p = {fig.kruskal.p_value:.3g}"
        f" -> medians differ: {fig.medians_differ_significantly}",
        f"median 99% CIs overlap: {fig.median_cis_overlap}; "
        f"mean 99% CIs overlap: {fig.mean_cis_overlap}",
        "",
        box_plot(
            {
                "Piz Dora": fig.dora.latencies[:20_000],
                "Pilatus": fig.pilatus.latencies[:20_000],
            },
            width=64,
        ),
    ])


def _text_fig4(qc: Any) -> str:
    rows = [
        [
            f"{tau:.1f}",
            f"{inter.coef[0]:.3f}",
            f"[{inter.low[0]:.3f}, {inter.high[0]:.3f}]",
            f"{diff.coef[0]:+.3f}",
            f"[{diff.low[0]:+.3f}, {diff.high[0]:+.3f}]",
        ]
        for tau, inter, diff in zip(qc.taus, qc.intercept, qc.difference)
    ]
    return "\n".join([
        render_table(
            ["quantile", "Dora (us)", "95% CI", "Pilatus - Dora", "95% CI"],
            rows,
            title="Figure 4: quantile regression (paper mean diff: +0.108 us)",
        ),
        "",
        f"mean difference (Pilatus - Dora): {qc.mean_difference:+.3f} us",
        f"sign crossover at quantile(s): {qc.crossover_taus()}",
    ])


def _text_fig5(fig: _figs.Fig5Reduce) -> str:
    rows = [
        [pt.p, "2^k" if pt.power_of_two else "", f"{pt.q25_us:.2f}",
         f"{pt.median_us:.2f}", f"{pt.q75_us:.2f}"]
        for pt in fig.points
    ]
    pof2 = [pt.median_us for pt in fig.points if pt.power_of_two]
    others = [pt.median_us for pt in fig.points if not pt.power_of_two]
    chart = line_chart(
        [pt.p for pt in fig.points],
        {"median completion": [pt.median_us for pt in fig.points]},
        height=14,
        width=62,
        xlabel="processes",
        ylabel="us",
    )
    return "\n".join([
        render_table(
            ["P", "pow2", "q25 (us)", "median (us)", "q75 (us)"],
            rows,
            title=f"Figure 5: MPI_Reduce completion ({fig.n_runs} runs/point, max across ranks)",
        ),
        "",
        chart,
        "",
        f"power-of-two advantage (median 2^k+1 / 2^k slowdown): "
        f"{fig.pof2_advantage():.3f}x",
        f"median over powers of two: {np.median(pof2):.2f} us; "
        f"over others: {np.median(others):.2f} us",
    ])


def _text_fig6(fig: _figs.Fig6RankVariation) -> str:
    box = ("whisker_low", "q1", "median", "q3", "whisker_high")
    rows = [
        [int(b["rank"]), *(f"{b[k]:.2f}" for k in box), int(b["n_outliers"])]
        for b in fig.boxstats[:16]
    ]
    rs = fig.rank_summary
    return "\n".join([
        render_table(
            ["rank", "lo whisker", "q1", "median", "q3", "hi whisker", "outliers"],
            rows,
            title=f"Figure 6: per-rank completion (us), first 16 of {fig.nprocs} ranks",
        ),
        "",
        f"ANOVA F = {rs.anova.statistic:.1f} (p = {rs.anova.p_value:.2e}); "
        f"Kruskal-Wallis H = {rs.kruskal.statistic:.1f} (p = {rs.kruskal.p_value:.2e})",
        f"homogeneous: {rs.homogeneous} -> {rs.recommendation()}",
        "",
        f"slow ranks (median > 1.5x cross-rank median): {fig.slow_ranks()}",
        f"cross-rank median of medians: "
        f"{np.median([b['median'] for b in fig.boxstats]):.2f} us; "
        f"slowest rank median: {max(b['median'] for b in fig.boxstats):.2f} us",
    ])


def _text_fig7ab(fig: _figs.Fig7Bounds) -> str:
    times = (fig.measured_times, fig.overhead_times, fig.amdahl_times, fig.ideal_times)
    speedups = (
        fig.measured_speedups, fig.overhead_speedups,
        fig.amdahl_speedups, fig.ideal_speedups,
    )
    rows = [
        [p, *(f"{t[i] * 1e3:.3f}" for t in times), *(f"{s[i]:.2f}" for s in speedups)]
        for i, p in enumerate(fig.ps)
    ]
    chart = line_chart(
        list(fig.ps),
        {
            "measured": list(fig.measured_speedups),
            "ideal": list(fig.ideal_speedups),
            "amdahl": list(fig.amdahl_speedups),
            "overheads": list(fig.overhead_speedups),
        },
        height=14,
        width=60,
        xlabel="processes",
        ylabel="speedup",
    )
    return "\n".join([
        render_table(
            [
                "P", "t meas (ms)", "t ovh", "t amdahl", "t ideal",
                "S meas", "S ovh", "S amdahl", "S ideal",
            ],
            rows,
            title="Figure 7(a)/(b): Pi scaling vs bounds models",
        ),
        "",
        chart,
        "",
        f"95% CI within 5% of the mean at every point: {fig.ci_within_5pct}",
        "median relative model error: "
        + ", ".join(f"{k}={v:.3f}" for k, v in fig.model_error().items()),
    ])


def _text_fig7c(fig: _figs.Fig7cPlots) -> str:
    s = fig.summary
    ci = fig.median_ci95
    rows = [
        ["n", s.n],
        ["lower 1.5 IQR whisker (us)", f"{fig.whisker_low:.3f}"],
        ["1st quartile", f"{s.q25:.3f}"],
        ["median", f"{s.median:.3f}"],
        ["95% CI (median)", f"[{ci.low:.4f}, {ci.high:.4f}]"],
        ["arithmetic mean", f"{s.mean:.3f}"],
        ["geometric mean", f"{fig.geometric_mean:.3f}"],
        ["4th quartile", f"{s.q75:.3f}"],
        ["higher 1.5 IQR whisker", f"{fig.whisker_high:.3f}"],
        ["max", f"{s.maximum:.3f}"],
    ]
    return "\n".join([
        render_table(
            ["statistic", "value"],
            rows,
            title="Figure 7(c): 64B ping-pong latency on Piz Dora (us)",
        ),
        "",
        box_plot({"latency": fig.latencies_us[:50_000]}, width=64),
        "",
        violin_plot(
            {"latency": fig.latencies_us[fig.latencies_us <= fig.violin_x[-1]][:100_000]},
            width=64,
        ),
    ])


# -- scenario figures ---------------------------------------------------


def _build_scale_collectives(
    *,
    rank_counts: tuple[int, ...] = (1_024, 8_192, 65_536, 262_144, 1_000_000),
    n_runs: int = 3,
    seed: int = 0,
) -> "ScaleCollectives":
    """Median reduce/allreduce completion on the XC-scale dragonfly."""
    from ..simsys.machine import xc_scale
    from ..simsys.mpi import SimComm

    cores = 8
    points = []
    for p in rank_counts:
        machine = xc_scale(-(-int(p) // cores), deterministic=True)
        comm = SimComm(machine, int(p), placement="packed", seed=seed)
        red = comm.reduce(8, n_runs).max(axis=1) * 1e6
        allred = comm.allreduce(8, n_runs).max(axis=1) * 1e6
        points.append(
            ScalePoint(
                p=int(p),
                reduce_median_us=float(np.median(red)),
                allreduce_median_us=float(np.median(allred)),
            )
        )
    return ScaleCollectives(points=tuple(points), n_runs=n_runs)


@dataclass(frozen=True)
class ScalePoint:
    """Collective completion medians at one rank count."""

    p: int
    reduce_median_us: float
    allreduce_median_us: float


@dataclass(frozen=True)
class ScaleCollectives:
    """Million-rank scaling of tree collectives on ``xc_scale``."""

    points: tuple[ScalePoint, ...]
    n_runs: int


def _vega_scale(fig: ScaleCollectives) -> dict[str, Any]:
    ps = [pt.p for pt in fig.points]
    return vl_line_chart(
        ps,
        {
            "reduce": [pt.reduce_median_us for pt in fig.points],
            "allreduce": [pt.allreduce_median_us for pt in fig.points],
        },
        title=(
            f"Collective completion vs ranks on xc_scale "
            f"(median of {fig.n_runs} runs)"
        ),
        xlabel="ranks",
        ylabel="completion time (µs)",
        x_log=True,
        y_log=True,
        legend_title="collective",
    )


@dataclass(frozen=True)
class ChaosDegradation:
    """Latency quantiles on a clean vs fault-injected machine."""

    profiles: tuple[str, ...]
    taus: tuple[float, ...]
    quantiles_us: tuple[tuple[float, ...], ...]  # per profile, per tau
    samples: int


def _build_chaos_degradation(
    *,
    profiles: tuple[str, ...] = ("none", "smoke", "heavy"),
    samples: int = 100_000,
    seed: int = 0,
) -> ChaosDegradation:
    """Ping-pong latency quantiles under escalating fault profiles.

    Uses :func:`repro.chaos.perturbed_machine` to apply each profile's
    environmental degradation (noise storms, stragglers) to the same base
    machine, then compares the latency quantile curves — the figure a
    degradation report shows next to its check table.
    """
    from ..chaos import FaultPlan, get_profile, perturbed_machine
    from ..simsys.machine import piz_dora
    from ..simsys.mpi import SimComm

    taus = tuple(float(t) for t in np.round(np.arange(0.1, 1.0, 0.1), 2))
    base = piz_dora()
    rows = []
    for prof_name in profiles:
        plan = FaultPlan(profile=get_profile(prof_name), seed=seed)
        machine = perturbed_machine(base, plan)
        comm = SimComm(machine, 2, placement="one_per_node", seed=seed)
        lat = comm.ping_pong(64, samples) * 1e6
        rows.append(tuple(float(q) for q in np.quantile(lat, taus)))
    return ChaosDegradation(
        profiles=tuple(profiles), taus=taus,
        quantiles_us=tuple(rows), samples=samples,
    )


def _vega_chaos(fig: ChaosDegradation) -> dict[str, Any]:
    return vl_line_chart(
        list(fig.taus),
        {p: list(q) for p, q in zip(fig.profiles, fig.quantiles_us)},
        title=(
            f"Latency quantiles under fault profiles "
            f"({fig.samples:,} ping-pongs each)"
        ),
        xlabel="quantile τ",
        ylabel="latency (µs)",
        legend_title="fault profile",
    )


@dataclass(frozen=True)
class CampaignTrajectory:
    """Per-dataset medians and quartiles of one recorded campaign."""

    campaign: str
    datasets: tuple[str, ...]
    units: tuple[str, ...]
    medians: tuple[float, ...]
    q25s: tuple[float, ...]
    q75s: tuple[float, ...]
    ns: tuple[int, ...]


def _build_campaign_trajectory(*, campaign: Any) -> CampaignTrajectory:
    """Summarize every dataset of a campaign, spilled shards included.

    Statistics stream through :meth:`MeasurementSet.summary`, so a
    spilled, larger-than-RAM dataset contributes its quartiles without
    being re-materialized as JSON.
    """
    if campaign is None:
        raise ValidationError(
            "figure 'campaign_trajectory' needs a campaign; "
            "pass --campaign to render it"
        )
    names, units, meds, q25s, q75s, ns = [], [], [], [], [], []
    for name in campaign.names():
        ms = campaign.load(name)
        s = ms.summary()
        names.append(name)
        units.append(ms.unit)
        meds.append(s.median)
        q25s.append(s.q25)
        q75s.append(s.q75)
        ns.append(ms.n)
    if not names:
        raise ValidationError(
            f"campaign {campaign.name!r} has no datasets to plot"
        )
    return CampaignTrajectory(
        campaign=campaign.name,
        datasets=tuple(names),
        units=tuple(units),
        medians=tuple(meds),
        q25s=tuple(q25s),
        q75s=tuple(q75s),
        ns=tuple(ns),
    )


def _vega_trajectory(fig: CampaignTrajectory) -> dict[str, Any]:
    unit = fig.units[0] if len(set(fig.units)) == 1 else "mixed units"
    boxes = [
        {
            "x": name,
            "q1": q25,
            "median": med,
            "q3": q75,
            "lo": q25,
            "hi": q75,
        }
        for name, med, q25, q75 in zip(
            fig.datasets, fig.medians, fig.q25s, fig.q75s,
        )
    ]
    return vl_box_chart(
        boxes,
        title=f"Campaign {fig.campaign!r}: per-dataset median and IQR",
        xlabel="dataset",
        ylabel=unit,
    )


# -- the registry itself ------------------------------------------------

FIGURES: dict[str, FigureEntry] = {
    e.name: e
    for e in (
        FigureEntry(
            name="fig1_hpl",
            title="HPL completion-time distribution",
            description="Figure 1: 50 HPL runs on 64 nodes, rate labels "
                        "from time quantiles.",
            build=_figs.fig1_hpl,
            to_vega=_vega_fig1,
            to_text=_text_fig1,
            params={"n_runs": 50},
            quick_params={"n_runs": 12},
        ),
        FigureEntry(
            name="fig2_normalization",
            title="Normalization strategies (Q-Q panels)",
            description="Figure 2: original/log/block-mean latencies "
                        "against normal quantiles.",
            build=_figs.fig2_normalization,
            to_vega=_vega_fig2,
            to_text=_text_fig2,
            params={"samples": 1_000_000},
            quick_params={"samples": 20_000},
        ),
        FigureEntry(
            name="fig3_significance",
            title="Two-system latency significance",
            description="Figure 3: Piz Dora vs Pilatus latency densities "
                        "with median annotations.",
            build=_figs.fig3_significance,
            to_vega=_vega_fig3,
            to_text=_text_fig3,
            params={"samples": 1_000_000},
            quick_params={"samples": 20_000},
        ),
        FigureEntry(
            name="fig4_quantreg",
            title="Quantile-regression difference",
            description="Figure 4: per-quantile Pilatus − Dora difference "
                        "with bootstrap CIs.",
            build=_figs.fig4_quantile_regression,
            to_vega=_vega_fig4,
            to_text=_text_fig4,
            params={"samples": 1_000_000},
            quick_params={"samples": 5_000},
        ),
        FigureEntry(
            name="fig5_reduce",
            title="MPI_Reduce scaling",
            description="Figure 5: reduce completion vs process count, "
                        "quartile band, powers of two marked.",
            build=_figs.fig5_reduce_scaling,
            to_vega=_vega_fig5,
            to_text=_text_fig5,
            params={"n_runs": 1000},
            quick_params={"process_counts": tuple(range(2, 18)),
                          "n_runs": 60},
        ),
        FigureEntry(
            name="fig6_rank_variation",
            title="Per-rank completion variation",
            description="Figure 6: per-process box statistics for "
                        "MPI_Reduce.",
            build=_figs.fig6_rank_variation,
            to_vega=_vega_fig6,
            to_text=_text_fig6,
            params={"nprocs": 64, "n_runs": 1000},
            quick_params={"nprocs": 16, "n_runs": 60},
        ),
        FigureEntry(
            name="fig7ab_bounds",
            title="Speedup against bounds models",
            description="Figure 7(a)/(b): measured Pi scaling against "
                        "ideal/Amdahl bounds.",
            build=_figs.fig7ab_bounds,
            to_vega=_vega_fig7ab,
            to_text=_text_fig7ab,
            params={"n_runs": 10},
            quick_params={"process_counts": (1, 2, 4, 8), "n_runs": 6},
        ),
        FigureEntry(
            name="fig7c_distribution",
            title="Latency distribution, box + violin",
            description="Figure 7(c): violin density with box statistics "
                        "of 10⁶ latencies.",
            build=_figs.fig7c_distribution,
            to_vega=_vega_fig7c,
            to_text=_text_fig7c,
            params={"samples": 1_000_000},
            quick_params={"samples": 20_000},
        ),
        FigureEntry(
            name="scale_collectives",
            title="Million-rank collective scaling",
            description="Median reduce/allreduce completion on the "
                        "xc_scale dragonfly up to 10⁶ ranks.",
            build=_build_scale_collectives,
            to_vega=_vega_scale,
            params={},
            quick_params={"rank_counts": (256, 2_048, 16_384),
                          "n_runs": 2},
        ),
        FigureEntry(
            name="chaos_degradation",
            title="Latency under fault profiles",
            description="Ping-pong latency quantiles on clean vs "
                        "fault-injected machines.",
            build=_build_chaos_degradation,
            to_vega=_vega_chaos,
            params={},
            quick_params={"samples": 5_000},
        ),
        FigureEntry(
            name="campaign_trajectory",
            title="Campaign dataset trajectory",
            description="Per-dataset median and IQR of a recorded "
                        "campaign (spilled shards included).",
            build=_build_campaign_trajectory,
            to_vega=_vega_trajectory,
            needs_campaign=True,
        ),
    )
}


def figure_text(name: str, *, quick: bool = False, seed: int = 0) -> str:
    """Paper figure *name*, built as :meth:`FigureService.render` builds
    it, as text (module-level, so ``ProcessExecutor`` workers can run it).
    """
    entry = FIGURES.get(name)
    if entry is None or entry.to_text is None:
        raise ValidationError(
            f"unknown figure {name!r}; available: {text_figures()}"
        )
    return entry.to_text(entry.make(entry.resolve_params(quick=quick), seed=seed))


def text_figures() -> list[str]:
    """The figures with a text view (the paper's), in registry order."""
    return [name for name, entry in FIGURES.items() if entry.to_text is not None]


# ----------------------------------------------------------- content keys


def _file_digest(path: Path, h: "hashlib._Hash") -> None:
    with path.open("rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)


def campaign_digest(campaign: Any) -> str:
    """A digest of everything a campaign figure can depend on.

    Covers the index, every dataset JSON file (which embeds provenance
    and, for spilled sets, the store stub), and the content digest of
    every listed shard-store entry — so appending a dataset, overwriting
    one, or any change to spilled values changes the digest, while a
    byte-identical campaign always produces the same one.
    """
    h = hashlib.blake2b(digest_size=16)
    index = campaign.path / "campaign.json"
    _file_digest(index, h)
    for d in sorted(campaign._read_datasets(), key=lambda d: d["name"]):
        h.update(d["name"].encode())
        _file_digest(campaign.path / d["file"], h)
    if campaign.has_store():
        store = campaign.store()
        for fp in store.fingerprints():
            h.update(fp.encode())
            digest = store.entry_digest(fp)
            h.update((digest or "quarantined").encode())
    return h.hexdigest()


def content_key(
    entry: FigureEntry,
    *,
    params: Mapping[str, Any],
    seed: int = 0,
    campaign: Any = None,
) -> str:
    """The content address of one render of *entry*.

    Pure function of the figure identity (name, version), its inputs
    (params, seed, campaign content for campaign figures), and the
    simulation kernel version for simulated figures — the RNG layout is
    an input to the numbers, so a kernel bump must invalidate renders.
    """
    from ..simsys.schedules import KERNEL_VERSION

    h = hashlib.blake2b(digest_size=16)
    h.update(f"figure:{entry.name}:v{entry.version}".encode())
    h.update(json.dumps(_canon(params), sort_keys=True).encode())
    if entry.needs_campaign:
        if campaign is None:
            raise ValidationError(
                f"figure {entry.name!r} needs a campaign to key on"
            )
        h.update(campaign_digest(campaign).encode())
    else:
        h.update(f"seed:{seed}".encode())
        h.update(f"kernel:{KERNEL_VERSION}".encode())
    return h.hexdigest()


def _canon(value: Any) -> Any:
    if isinstance(value, Mapping):
        return {str(k): _canon(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canon(v) for v in value]
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    return value


# -------------------------------------------------------------- service


@dataclass(frozen=True)
class RenderedFigure:
    """One render: where its three artifacts live and how it was served."""

    name: str
    key: str
    cached: bool
    json_path: Path
    vl_path: Path
    html_path: Path

    def path(self, fmt: str) -> Path:
        """The artifact path for *fmt* (``json``/``vl.json``/``html``)."""
        if fmt == "json":
            return self.json_path
        if fmt == "vl.json":
            return self.vl_path
        if fmt == "html":
            return self.html_path
        raise ValidationError(
            f"unknown figure format {fmt!r}; have {list(_FORMATS)}"
        )


class FigureService:
    """Renders registry figures into a content-addressed cache directory.

    The cache layout is ``<dir>/<figure>/<key>.{json,vl.json,html}`` plus
    ``<dir>/<figure>/current`` naming the latest key.  A render whose key
    already has all three artifacts is a *cache hit*: the builder never
    runs, the bytes on disk are served as-is (and are byte-identical to
    the first render, since every serialization here is deterministic).
    """

    def __init__(
        self,
        cache_dir: str | Path,
        *,
        campaign: Any = None,
        quick: bool = False,
        seed: int = 0,
        metrics: Any = None,
        tracer: Any = None,
    ) -> None:
        self.cache_dir = Path(cache_dir)
        self.campaign = campaign
        self.quick = bool(quick)
        self.seed = int(seed)
        self.metrics = metrics
        self.tracer = tracer
        self.cache_dir.mkdir(parents=True, exist_ok=True)

    # -- registry views --------------------------------------------------

    def names(self) -> list[str]:
        """Figures renderable right now (campaign figures need one)."""
        return [
            name
            for name, entry in sorted(FIGURES.items())
            if self.campaign is not None or not entry.needs_campaign
        ]

    def entry(self, name: str) -> FigureEntry:
        """The registry entry for *name*; ValidationError when unknown."""
        entry = FIGURES.get(name)
        if entry is None:
            raise ValidationError(
                f"unknown figure {name!r}; have {sorted(FIGURES)}"
            )
        return entry

    def content_key(self, name: str) -> str:
        """The current content key of *name* (see :func:`content_key`)."""
        entry = self.entry(name)
        return content_key(
            entry,
            params=entry.resolve_params(quick=self.quick),
            seed=self.seed,
            campaign=self.campaign if entry.needs_campaign else None,
        )

    def describe(self, name: str) -> dict[str, Any]:
        """The /figures catalog record for one figure."""
        entry = self.entry(name)
        return {
            "name": entry.name,
            "title": entry.title,
            "description": entry.description,
            "version": entry.version,
            "needs_campaign": entry.needs_campaign,
            "key": self.content_key(name),
            "formats": list(_FORMATS),
        }

    # -- rendering -------------------------------------------------------

    def _paths(self, name: str, key: str) -> tuple[Path, Path, Path]:
        d = self.cache_dir / name
        return (d / f"{key}.json", d / f"{key}.vl.json", d / f"{key}.html")

    def render(self, name: str) -> RenderedFigure:
        """Render (or serve from cache) all three artifacts of *name*."""
        entry = self.entry(name)
        key = self.content_key(name)
        json_path, vl_path, html_path = self._paths(name, key)
        if json_path.exists() and vl_path.exists() and html_path.exists():
            self._count("repro_serve_cache_hits_total")
            return RenderedFigure(
                name=name, key=key, cached=True,
                json_path=json_path, vl_path=vl_path, html_path=html_path,
            )

        params = entry.resolve_params(quick=self.quick)
        if self.tracer is not None:
            with self.tracer.span("figure-render", figure=name, key=key):
                figure = entry.make(params, seed=self.seed, campaign=self.campaign)
        else:
            figure = entry.make(params, seed=self.seed, campaign=self.campaign)
        spec = entry.to_vega(figure)

        json_path.parent.mkdir(parents=True, exist_ok=True)
        _write_atomic(json_path, figure_to_json(figure, indent=2))
        _write_atomic(vl_path, vl_to_json(spec, indent=2))
        _write_atomic(html_path, vl_html(spec, title=entry.title))
        (json_path.parent / "current").write_text(key + "\n")
        self._count("repro_serve_renders_total")
        return RenderedFigure(
            name=name, key=key, cached=False,
            json_path=json_path, vl_path=vl_path, html_path=html_path,
        )

    def payload(self, name: str, fmt: str) -> tuple[bytes, RenderedFigure]:
        """The bytes of one artifact, rendering on a cache miss."""
        rendered = self.render(name)
        return rendered.path(fmt).read_bytes(), rendered

    def _count(self, metric: str) -> None:
        if self.metrics is not None:
            self.metrics.counter(metric).inc()


def _write_atomic(path: Path, text: str) -> None:
    tmp = path.with_name(path.name + f".tmp.{os.getpid()}")
    tmp.write_text(text, encoding="utf-8")
    os.replace(tmp, path)
