"""Which program entry points the traced runs wrap, and in which bucket.

A bucket is ``<layer>`` or ``<layer>.<part>``; the per-layer metric
``<bucket>.s`` is the bucket's summed self time.  Whole modules are
wrapped for ``simsys`` (machines, communicator, workload models),
``stats`` and ``compare``: every public function, and every public method
(plus ``__init__``/``__call__``) of the classes they define.  The other
layers are wrapped at the named calls the workloads make.  Workload code
calls module-level functions through their module (``compare.compare_runs``)
so that the patched name is the one it looks up.
"""

from __future__ import annotations

import dataclasses
import importlib
import inspect
from typing import Any

import numpy as np

from .tracing import Patch, wrap

__all__ = ["BUCKETS", "install"]

#: Every bucket a span can land in; ``bench`` is the root (uncovered time).
BUCKETS = (
    "bench",
    "simsys",
    "stats.quantreg", "stats.summary", "stats.other",
    "report.build", "report.export", "report.vega", "report.campaign_digest",
    "core.assemble", "core.record", "core.campaign",
    "exec.dispatch", "exec.cache.get", "exec.cache.put",
    "store.open", "store.append", "store.read",
    "compare",
)

_SIMSYS = ("repro.simsys.machine", "repro.simsys.mpi", "repro.simsys.workloads")
_STATS = (
    "bootstrap", "ci", "compare", "density", "distributions", "factorial",
    "multiple", "nonparametric", "normality", "normalize", "outliers",
    "power", "quantreg", "samplesize", "sketch", "streaming", "summaries",
    "trend",
)
_COMPARE = ("repro.compare.engine", "repro.compare.kalibera", "repro.compare.record")
_DUNDERS = ("__init__", "__call__")


def _stats_bucket(module: str) -> str:
    """The stats bucket of a ``repro.stats`` submodule name."""
    short = module.rsplit(".", 1)[-1]
    if short == "quantreg":
        return "stats.quantreg"
    if short in ("summaries", "streaming", "sketch"):
        return "stats.summary"
    return "stats.other"


def _values(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    if isinstance(result, np.ndarray):
        return {"simsys.values": float(result.size)}
    return {}


def _wrap_module(patch: Patch, module_name: str, bucket: str, counter=None,
                 counters: dict | None = None) -> None:
    """Wrap a module's public functions and class methods; *counters* by function name."""
    counters = counters or {}
    module = importlib.import_module(module_name)
    for name, obj in list(vars(module).items()):
        if name.startswith("_") or getattr(obj, "__module__", None) != module_name:
            continue
        if inspect.isfunction(obj):
            patch.add(module, name, bucket, counters.get(name, counter))
        elif inspect.isclass(obj):
            for attr, raw in list(vars(obj).items()):
                func = raw.__func__ if isinstance(raw, (staticmethod, classmethod)) else raw
                if not inspect.isfunction(func):
                    continue
                if attr.startswith("_") and attr not in _DUNDERS:
                    continue
                patch.add(obj, attr, bucket, counter)


def install(patch: Patch) -> None:
    """Wrap every traced entry point of the program into *patch*."""
    for name in _SIMSYS:
        _wrap_module(patch, name, "simsys", _values)
    for short in _STATS:
        name = f"repro.stats.{short}"
        _wrap_module(patch, name, _stats_bucket(name))
    for name in _COMPARE:
        _wrap_module(patch, name, "compare", counters={"compare_runs": _compared})

    from repro.core import campaign, experiment, measurement
    from repro.exec import cache, engine
    from repro.report import registry
    from repro.store import store

    patch.add(experiment.Experiment, "run", "core.assemble")
    patch.add(campaign.Campaign, "record", "core.record")
    for attr in ("create", "open", "run", "names", "load"):
        patch.add(campaign.Campaign, attr, "core.campaign")
    for attr in ("summary", "streaming_summary"):
        patch.add(measurement.MeasurementSet, attr, "stats.summary")
    for attr in ("median_ci", "mean_ci", "quantile_ci"):
        patch.add(measurement.MeasurementSet, attr, "stats.other")

    patch.add(engine, "run_measurement_tasks", "exec.dispatch")
    patch.add(engine, "make_tasks", "exec.dispatch")
    patch.add(engine.SerialExecutor, "run", "exec.dispatch")
    patch.add(cache.ResultCache, "get", "exec.cache.get")
    patch.add(cache.ResultCache, "put", "exec.cache.put")

    patch.add(store.ShardStore, "__init__", "store.open")
    patch.add(store.ShardStore, "append", "store.append", _appended)
    patch.add(store.ShardStore, "seal", "store.append")
    for attr in ("get", "iter_chunks", "entry_digest", "fingerprints", "metadata", "rows"):
        patch.add(store.ShardStore, attr, "store.read")

    patch.add(registry.FigureService, "render", "report.build", _rendered_bytes)
    patch.add(registry, "campaign_digest", "report.campaign_digest")
    patch.add(registry, "figure_to_json", "report.export")
    patch.add(registry, "_write_atomic", "report.export")
    patch.add(registry, "vl_to_json", "report.vega")
    patch.add(registry, "vl_html", "report.vega")
    for name, entry in list(registry.FIGURES.items()):
        patch.replace(registry.FIGURES, name, _traced_entry(patch, entry))


def _traced_entry(patch: Patch, entry: Any) -> Any:
    """A copy of a registry entry whose builder and spec step are traced."""
    return dataclasses.replace(
        entry,
        build=wrap(entry.build, patch.tracer, "report.build", None),
        to_vega=wrap(entry.to_vega, patch.tracer, "report.vega", None),
    )


def _appended(args: tuple, kwargs: dict, result: Any) -> dict[str, float]:
    values = np.asarray(args[2] if len(args) > 2 else kwargs["values"])
    return {"store.appends": 1.0, "store.bytes": float(values.size * 8)}


def _compared(args: tuple, kwargs: dict, comparison: Any) -> dict[str, float]:
    return {"compare.records": float(len(comparison.records))}


def _rendered_bytes(args: tuple, kwargs: dict, rendered: Any) -> dict[str, float]:
    if rendered.cached:
        return {}
    size = sum(rendered.path(f).stat().st_size for f in ("json", "vl.json", "html"))
    return {"report.bytes": float(size)}
