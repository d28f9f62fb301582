"""The workload process of render-paper and campaign-gate.

``python -m perfbench.worker <workload>`` imports the package and the
workload's layers, prints ``READY {...}`` and waits for one job line on
stdin (EOF means: exit without work, a set-up-only start).  The job runs
iterations until its time is up, checks every iteration's outputs and
prints ``RESULT {...}``.  In a traced job, odd iterations run with every
layer entry point wrapped in spans (see :mod:`perfbench.layers`) and even
ones without, so the traced-minus-untraced ``wall_s`` is the tracing
overhead.
"""

from __future__ import annotations

import importlib
import json
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Any

WORKLOADS = {
    "render-paper": "perfbench.render_paper",
    "campaign-gate": "perfbench.campaign_gate",
}
#: ``peak_rss_mb`` is the peak over this many iterations, which every run
#: completes: the peak grows with the iteration count, and that count
#: follows the host's speed.
RSS_ITERATIONS = 5


def _layer_sample(tracer: Any, extra: dict[str, float]) -> dict[str, float]:
    from .layers import BUCKETS
    from .tracing import outer_counts, self_times

    own = self_times(tracer.spans)
    sample = {f"{bucket}.s": own.get(bucket, 0.0) for bucket in BUCKETS if bucket != "bench"}
    sample.update(outer_counts(tracer.spans))
    roots = [s for s in tracer.spans if s.name == "bench"]
    total = sum(s.duration for s in roots)
    sample["trace.uncovered_share"] = own.get("bench", 0.0) / total if total else 0.0
    sample["trace.spans"] = float(len(tracer.spans))
    sample.update(extra)
    return sample


def run_job(module: Any, job: dict[str, Any]) -> dict[str, Any]:
    """Iterate the workload for ``job["seconds"]`` and collect its figures."""
    from .checks import Checks
    from .layers import install
    from .tracing import NullTracer, Patch, Tracer

    workdir = Path(job["workdir"])
    traced_run = bool(job["trace"])
    deadline = time.perf_counter() + float(job["seconds"])
    out: dict[str, list] = defaultdict(list)
    checks = Checks()
    layer_samples: list[dict[str, float]] = []
    walls: dict[bool, list[float]] = {False: [], True: []}
    tracers = []
    peak_rss_kib = 0
    i = 0
    while i < (2 if traced_run else 1) or time.perf_counter() < deadline:
        traced = traced_run and i % 2 == 1
        tracer = Tracer() if traced else NullTracer()
        with Patch(tracer) as patch:
            if traced:
                install(patch)
            state = module.iteration(workdir, int(job["seed"]) * 1000 + i, tracer, out)
        module.check(state, checks)
        walls[traced].append(out["wall_s"][-1])
        if traced:
            extra = module.layer_counts(state) if hasattr(module, "layer_counts") else {}
            layer_samples.append(_layer_sample(tracer, extra))
            tracers.append(tracer)
        del state
        for child in workdir.iterdir():
            shutil.rmtree(child)
        i += 1
        if i == RSS_ITERATIONS:
            peak_rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    layers: dict[str, float] = {}
    if traced_run:
        keys = sorted({k for sample in layer_samples for k in sample})
        layers = {k: statistics.median(s.get(k, 0.0) for s in layer_samples) for k in keys}
        layers["trace.overhead_s"] = statistics.median(walls[True]) - statistics.median(walls[False])
        with (workdir.parent / f"{workdir.name}.spans.jsonl").open("w", encoding="utf-8") as fh:
            for n, tracer in enumerate(tracers):
                for s in tracer.spans:
                    fh.write(json.dumps({"iteration": 2 * n + 1, "id": s.id, "parent": s.parent,
                                         "name": s.name, "start": s.start, "end": s.end,
                                         "counts": s.counts}) + "\n")
    return {
        "iterations": i,
        "series": dict(out),
        "checks": checks.as_dict(),
        "peak_rss_mb": (peak_rss_kib or resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0,
        "layers": layers,
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2 or argv[1] not in WORKLOADS:
        print(f"usage: python -m perfbench.worker {{{','.join(WORKLOADS)}}}", file=sys.stderr)
        return 2
    import repro  # noqa: F401  (the package import is part of set-up)

    ready = {"scipy_stats_loaded": int("scipy.stats" in sys.modules)}
    module = importlib.import_module(WORKLOADS[argv[1]])
    print("READY " + json.dumps(ready), flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return 0
    result = run_job(module, json.loads(line))
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
