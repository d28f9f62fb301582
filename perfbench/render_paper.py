"""render-paper: cold ``FigureService.render`` of the eight paper figures.

Each iteration renders every paper figure at ``quick`` fidelity for one
seed into a fresh cache directory (``wall_s``, also one request for the
latency percentiles; ``rps`` counts figures per second), then asks the
service ``RERUNS`` times for every artifact's bytes, which the figure cache
must answer without rebuilding (``rerun_s``, one sample per pass).  The
figure seed is ``seed * 1000 + iteration``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

from repro.report.registry import FigureService

from . import PAPER_FIGURES
from .checks import Checks, fig3_medians_differ, fig5_pof2_advantage, strict_json

#: Cached passes per iteration: one pass takes a few milliseconds.
RERUNS = 10
FORMATS = ("json", "vl.json", "html")


def iteration(workdir: Path, seed: int, tracer: Any, out: dict[str, list]) -> list[Any]:
    """Render every paper figure cold, then again from the cache."""
    service = FigureService(workdir / f"figs-{seed}", quick=True, seed=seed)
    clock = time.perf_counter
    with tracer.span("bench"):
        start = clock()
        cold = [service.render(name) for name in PAPER_FIGURES]
        wall = clock() - start
    out["wall_s"].append(wall)
    out["latency_s"].append(wall)
    for _ in range(RERUNS):
        with tracer.span("bench"):
            start = clock()
            warm = [[service.payload(name, fmt) for fmt in FORMATS] for name in PAPER_FIGURES]
            out["rerun_s"].append(clock() - start)
    out["ops"].append(len(cold))
    out["rps"].append(len(cold) / out["wall_s"][-1])
    return [cold, warm]


def check(rendered: list[Any], checks: Checks) -> None:
    cold, warm = rendered
    for fig in cold:
        checks.add(f"{fig.name} built cold", [] if not fig.cached else ["served from cache"])
        for fmt in ("json", "vl.json"):
            payload, failures = strict_json(fig.path(fmt).read_bytes())
            checks.add(f"{fig.name}.{fmt} strict JSON", failures)
            if fmt != "json" or payload is None:
                continue
            if fig.name == "fig3_significance":
                checks.add("fig3 medians differ", fig3_medians_differ(payload))
            if fig.name == "fig5_reduce":
                checks.add("fig5 power-of-two advantage", fig5_pof2_advantage(payload))
    for fig, payloads in zip(cold, warm):
        failures = []
        for fmt, (body, again) in zip(FORMATS, payloads):
            if not again.cached or again.key != fig.key:
                failures.append(f"{fmt} rerun not a cache hit on key {fig.key}")
            elif body != fig.path(fmt).read_bytes():
                failures.append(f"{fmt} bytes differ from the cold render")
        checks.add(f"{fig.name} cached rerun", failures)
