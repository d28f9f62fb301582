"""campaign-gate: a spilled serial campaign, its cached rerun, analysis and gate.

One iteration, in a fresh campaign directory:

1. cold run of 360 tasks — reduce/allreduce/bcast x P in {8,16,32,64} x
   {64, 4096, 65536} B x 10 replications on ``testbed(16)``, 500
   iterations per task — with ``spill_rows`` set, so task results and
   datasets go to the shard store (``rps`` counts these tasks per second);
2. the unchanged rerun, which the ``ResultCache`` must answer (``rerun_s``);
3. ``Campaign.open``, then ``load``, ``summary`` and ``median_ci`` per dataset;
4. a ``campaign_trajectory`` render;
5. a ``compare_runs`` gate of the cold suite against the rerun suite, one
   record per design point (10 runs of 500 iterations).

``wall_s`` is the whole iteration.  A request for the latency percentiles
is one task of the cold run: the time from the previous task's completion
(or the start of the run) to its own, which in a serial campaign is
everything the engine, cache and store do for that task.  The experiment
seed is ``seed * 1000 + iteration``.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Any

import numpy as np

from repro import compare
from repro.core import Campaign, Experiment, Factor, FactorialDesign
from repro.exec import ExecHooks, SerialExecutor
from repro.report.registry import FigureService
from repro.simsys import SimComm, testbed

from .checks import Checks, arrays_equal, no_regression, strict_json

ITERATIONS = 500
REPS = 10
SPILL_ROWS = 256
DESIGN = FactorialDesign(
    (
        Factor("op", ("reduce", "allreduce", "bcast")),
        Factor("P", (8, 16, 32, 64)),
        Factor("size", (64, 4096, 65536)),
    ),
    replications=REPS,
)
MACHINE = testbed(16)


def measure(point: dict, rep: int, rng: np.random.Generator) -> np.ndarray:
    """Completion time (slowest rank) of 500 collectives at one design point."""
    comm = SimComm(MACHINE, int(point["P"]), placement="packed",
                   seed=int(rng.integers(0, 2**31 - 1)))
    return getattr(comm, point["op"])(int(point["size"]), ITERATIONS).max(axis=1)


def _suite(result: Any) -> compare.BenchSuiteResult:
    records = {}
    for key, ms in result.datasets.items():
        values = np.asarray(ms.values)
        runs = [values[i * ITERATIONS:(i + 1) * ITERATIONS] for i in range(REPS)]
        rec = compare.BenchRecord(name="collective", params=dict(key), samples=runs)
        records[rec.key] = rec
    return compare.BenchSuiteResult(records=records)


def iteration(workdir: Path, seed: int, tracer: Any, out: dict[str, list]) -> dict[str, Any]:
    """One cold run, rerun, analysis, trajectory render and compare gate."""
    path = workdir / f"campaign-{seed}"
    exp = Experiment(name="collectives", design=DESIGN, measure=measure, unit="s", seed=seed)
    clock = time.perf_counter
    completions: list[float] = []

    def on_event(event: str, label: str) -> None:
        if event == "completed":
            completions.append(clock())

    cold_hooks = ExecHooks(on_event=on_event)
    rerun_hooks = ExecHooks()
    with tracer.span("bench"):
        start = clock()
        camp = Campaign.create(path, name=f"gate-{seed}")
        completions.append(clock())
        cold = camp.run(exp, executor=SerialExecutor(retries=0), hooks=cold_hooks,
                        spill_rows=SPILL_ROWS)
        cold_s = clock() - start
        t0 = clock()
        rerun = camp.run(exp, executor=SerialExecutor(retries=0), hooks=rerun_hooks,
                         overwrite=True, spill_rows=SPILL_ROWS)
        rerun_s = clock() - t0
        reopened = Campaign.open(path)
        loaded, summaries = {}, {}
        for name in reopened.names():
            ms = reopened.load(name)
            loaded[name] = ms.values
            summaries[name] = (ms.summary(), ms.median_ci())
        figure = FigureService(path / "figures", campaign=reopened, quick=True).render(
            "campaign_trajectory")
        gate = compare.compare_runs(_suite(cold), _suite(rerun))
        wall = clock() - start
    out["wall_s"].append(wall)
    out["latency_s"].extend(np.diff(completions).tolist())
    out["rerun_s"].append(rerun_s)
    out["ops"].append(cold_hooks.completed)
    out["rps"].append(cold_hooks.completed / cold_s)
    return {
        "cold": cold, "rerun": rerun, "cold_hooks": cold_hooks, "rerun_hooks": rerun_hooks,
        "loaded": loaded, "summaries": summaries, "figure": figure, "gate": gate,
    }


def layer_counts(state: dict[str, Any]) -> dict[str, float]:
    """Executor counts of one iteration (the rerun must be all cache hits)."""
    cold, rerun = state["cold_hooks"], state["rerun_hooks"]
    seen = rerun.cached + rerun.submitted
    return {
        "exec.completed": float(cold.completed),
        "exec.cached": float(rerun.cached),
        "exec.cache_hit_ratio": rerun.cached / seen if seen else 0.0,
    }


def summary_failures(summaries: dict[str, Any], loaded: dict[str, Any]) -> list[str]:
    """Each dataset's summary median is numpy's and lies in its median CI."""
    bad = []
    for name, (summary, ci) in summaries.items():
        median = float(np.median(loaded[name]))
        if not np.isclose(summary.median, median, rtol=1e-12, atol=0.0):
            bad.append(f"{name}: summary median {summary.median} != {median}")
        if not ci.low <= median <= ci.high:
            bad.append(f"{name}: median {median} outside its CI [{ci.low}, {ci.high}]")
    return bad


def check(state: dict[str, Any], checks: Checks) -> None:
    cold, rerun = state["cold"], state["rerun"]
    n_tasks = DESIGN.n_points * REPS
    checks.add("cold run measured every task", [] if state["cold_hooks"].completed == n_tasks
               else [f"completed {state['cold_hooks'].completed} of {n_tasks}"])
    hooks = state["rerun_hooks"]
    checks.add("rerun answered by the cache",
               [] if hooks.cached == n_tasks and hooks.submitted == 0
               else [f"cached {hooks.cached}, submitted {hooks.submitted} of {n_tasks}"])
    cold_values = {ms.name: ms.values for ms in cold.datasets.values()}
    checks.add("cold and rerun datasets equal", arrays_equal(
        cold_values, {ms.name: ms.values for ms in rerun.datasets.values()}))
    checks.add("reloaded datasets equal", arrays_equal(cold_values, state["loaded"]))
    checks.add("summaries agree with the data",
               summary_failures(state["summaries"], state["loaded"]))
    for fmt in ("json", "vl.json"):
        _, failures = strict_json(state["figure"].path(fmt).read_bytes())
        checks.add(f"campaign_trajectory.{fmt} strict JSON", failures)
    checks.add("identical suites show no regression",
               no_regression(state["gate"], DESIGN.n_points))
