"""``BENCHMARK.json``: load it, check its shape, and check printed metrics against it."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path
from typing import Any, Mapping, Sequence

__all__ = ["SpecError", "check_name", "check_unit", "load_spec", "validate_spec",
           "validate_metrics"]

_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}")
_UNIT = re.compile(r"[A-Za-z0-9_/%.\-]{1,16}")
_TOP_KEYS = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}


class SpecError(ValueError):
    """``BENCHMARK.json`` or a printed metric set breaks the benchmark's rules."""


def check_name(name: Any) -> None:
    if not isinstance(name, str) or not _NAME.fullmatch(name):
        raise SpecError(f"bad metric or workload name {name!r}")


def check_unit(unit: Any) -> None:
    if not isinstance(unit, str) or not _UNIT.fullmatch(unit):
        raise SpecError(f"bad unit {unit!r}")


def _entries(spec: Mapping[str, Any], key: str, keys: set[str], lo: int, hi: int) -> list[dict]:
    entries = spec.get(key)
    if not isinstance(entries, list) or not lo <= len(entries) <= hi:
        raise SpecError(f"{key} must list {lo} to {hi} entries")
    for entry in entries:
        if not isinstance(entry, dict) or set(entry) != keys:
            raise SpecError(f"{key} entry {entry!r} must have exactly {sorted(keys)}")
        check_name(entry["name"])
    return entries


def _check_metric(metric: Mapping[str, Any]) -> None:
    check_unit(metric["unit"])
    if metric["better"] not in ("lower", "higher"):
        raise SpecError(f"better of {metric['name']!r} must be lower or higher")


def validate_spec(spec: Mapping[str, Any]) -> None:
    """Raise :class:`SpecError` unless *spec* has the shape the benchmark needs."""
    if set(spec) != _TOP_KEYS:
        raise SpecError(f"top-level keys must be {sorted(_TOP_KEYS)}, got {sorted(spec)}")
    for workload in _entries(spec, "workloads", {"name", "why"}, 2, 8):
        why = workload["why"]
        if not isinstance(why, str) or not why or "\n" in why or len(why) > 200:
            raise SpecError(f"workload {workload['name']!r} needs a one-line why")
    for metric in _entries(spec, "end_to_end", {"name", "unit", "better", "bound"}, 1, 16):
        _check_metric(metric)
        bound = metric["bound"]
        if not isinstance(bound, (int, float)) or not 0 < bound <= 0.25:
            raise SpecError(f"bound of {metric['name']!r} must be in (0, 0.25]")
    for metric in _entries(spec, "per_layer", {"name", "unit", "better"}, 1, 128):
        _check_metric(metric)
    names = [e["name"] for k in ("workloads", "end_to_end", "per_layer") for e in spec[k]]
    if len(names) != len(set(names)):
        raise SpecError("a name is used twice")
    setup = [m for m in spec["end_to_end"] if m["name"] == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        raise SpecError("end_to_end must have setup_s in s, lower is better")
    if setup[0]["bound"] < max(m["bound"] for m in spec["end_to_end"]):
        raise SpecError("setup_s must have the largest bound")


def load_spec(path: str | Path) -> dict[str, Any]:
    spec = json.loads(Path(path).read_text(encoding="utf-8"))
    validate_spec(spec)
    return spec


def validate_metrics(metrics: Mapping[str, float], declared: Sequence[Mapping[str, Any]]) -> None:
    """The printed metrics are exactly the declared ones, each a finite number."""
    want = [m["name"] for m in declared]
    missing = sorted(set(want) - set(metrics))
    extra = sorted(set(metrics) - set(want))
    if missing or extra:
        raise SpecError(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}")
    for name, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
            raise SpecError(f"metric {name!r} is not a finite number: {value!r}")
