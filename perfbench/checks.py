"""Correctness checks behind ``failed`` / ``attempted`` and ``error_rate``.

Each check is an invariant the paper claims or a self-consistency rule, not
a byte-golden digest, so a legitimate figure-version bump still passes.
Every function returns a list of failure messages; empty means it passed.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

import numpy as np

__all__ = [
    "Checks",
    "strict_json",
    "fig3_medians_differ",
    "fig5_pof2_advantage",
    "arrays_equal",
    "no_regression",
    "body_matches",
    "conditional_status",
]


class Checks:
    """Counts checks run and failed, keeping the first few messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def add(self, name: str, failures: list[str]) -> bool:
        self.attempted += 1
        if failures:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(f"{name}: {failures[0]}")
        return not failures

    def as_dict(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failed": self.failed, "messages": self.messages}


def _reject_constant(token: str) -> Any:
    raise ValueError(f"non-finite JSON token {token}")


def strict_json(text: str | bytes) -> tuple[Any, list[str]]:
    """Parse *text* as strict JSON (no NaN/Infinity); ``(value, failures)``."""
    try:
        return json.loads(text, parse_constant=_reject_constant), []
    except ValueError as exc:
        return None, [f"not strict JSON: {exc}"]


def fig3_medians_differ(payload: Mapping[str, Any], alpha: float = 0.05) -> list[str]:
    """Figure 3's claim: the two systems' medians differ significantly."""
    try:
        p = float(payload["data"]["kruskal"]["p_value"])
    except (KeyError, TypeError, ValueError) as exc:
        return [f"no Kruskal-Wallis p-value: {exc!r}"]
    if not p < alpha:
        return [f"medians do not differ (p={p:.3g} >= {alpha})"]
    return []


def fig5_pof2_advantage(payload: Mapping[str, Any]) -> list[str]:
    """Figure 5's claim: 2^k+1 processes are slower than 2^k (ratio > 1)."""
    try:
        by_p = {int(pt["p"]): float(pt["median_us"]) for pt in payload["data"]["points"]}
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed Figure 5 points: {exc!r}"]
    ratios = [by_p[p + 1] / by_p[p] for p in (4, 8, 16, 32) if p in by_p and p + 1 in by_p]
    if not ratios:
        return ["no adjacent power-of-two pairs"]
    advantage = float(np.median(ratios))
    if not advantage > 1.0:
        return [f"power-of-two advantage {advantage:.4f} is not above 1"]
    return []


def arrays_equal(a: Mapping[Any, Any], b: Mapping[Any, Any]) -> list[str]:
    """Both mappings hold the same keys with ``array_equal`` values."""
    if set(a) != set(b):
        return [f"key sets differ: {len(set(a) ^ set(b))} unmatched"]
    bad = [k for k in a if not np.array_equal(np.asarray(a[k]), np.asarray(b[k]))]
    if bad:
        return [f"{len(bad)} of {len(a)} datasets differ, first {bad[0]!r}"]
    return []


def no_regression(comparison: Any, expected_records: int) -> list[str]:
    """Comparing a suite with an identical copy finds no regression."""
    failures = []
    if len(comparison.records) != expected_records:
        failures.append(f"compared {len(comparison.records)} records, expected {expected_records}")
    if comparison.regressions:
        failures.append(f"{len(comparison.regressions)} regression(s) between identical suites")
    if not comparison.ok:
        failures.append("gate not ok for identical suites")
    return failures


def body_matches(body: bytes, etag: str | None, expected: bytes, key: str) -> list[str]:
    """A 200 body equals the cache file on disk and carries its key as ETag."""
    failures = []
    if etag != f'"{key}"':
        failures.append(f"ETag {etag!r} is not the content key {key!r}")
    if body != expected:
        failures.append(f"body of {len(body)} B differs from the {len(expected)} B cache file")
    return failures


def conditional_status(status: int, sent: str, current: str) -> list[str]:
    """A conditional GET returns 304 exactly when its ETag is current."""
    want = 304 if sent == f'"{current}"' else 200
    if status != want:
        return [f"If-None-Match {sent!r} got {status}, expected {want}"]
    return []
