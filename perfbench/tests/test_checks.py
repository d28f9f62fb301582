import json
from types import SimpleNamespace

import numpy as np

from perfbench.checks import (
    Checks,
    arrays_equal,
    body_matches,
    conditional_status,
    fig3_medians_differ,
    fig5_pof2_advantage,
    no_regression,
    strict_json,
)


def test_strict_json_rejects_non_finite_tokens():
    assert strict_json('{"a": [1.5, null]}') == ({"a": [1.5, None]}, [])
    for corrupt in ('{"a": NaN}', '{"a": Infinity}', '[-Infinity]', '{"a": 1', b"\xff"):
        value, failures = strict_json(corrupt)
        assert value is None and failures


def _fig3(p):
    return {"data": {"kruskal": {"p_value": p}}}


def test_fig3_claim():
    assert fig3_medians_differ(_fig3(1e-9)) == []
    assert fig3_medians_differ(_fig3(0.2))
    assert fig3_medians_differ({"data": {}})


def _fig5(slow):
    points = []
    for p in range(2, 18):
        median = p * (slow if p & (p - 1) else 1.0)
        points.append({"p": p, "power_of_two": not p & (p - 1), "median_us": median})
    return {"data": {"points": points}}


def test_fig5_claim():
    assert fig5_pof2_advantage(_fig5(1.5)) == []
    assert fig5_pof2_advantage(_fig5(0.5))
    assert fig5_pof2_advantage({"data": {"points": [{"p": 2, "median_us": 1.0}]}})


def test_mismatched_datasets_are_caught():
    a = {"x": np.arange(5.0), "y": np.ones(3)}
    assert arrays_equal(a, {k: v.copy() for k, v in a.items()}) == []
    changed = {"x": np.arange(5.0), "y": np.array([1.0, 1.0, 1.0 + 1e-15])}
    assert arrays_equal(a, changed)
    assert arrays_equal(a, {"x": a["x"]})


def test_regression_between_identical_suites_is_caught():
    clean = SimpleNamespace(records=[1, 2], regressions=(), ok=True)
    assert no_regression(clean, 2) == []
    assert no_regression(clean, 3)
    assert no_regression(SimpleNamespace(records=[1, 2], regressions=(1,), ok=False), 2)


def test_serve_bodies_and_etags():
    assert body_matches(b"abc", '"k1"', b"abc", "k1") == []
    assert body_matches(b"abd", '"k1"', b"abc", "k1")
    assert body_matches(b"abc", '"k2"', b"abc", "k1")
    assert conditional_status(304, '"k1"', "k1") == []
    assert conditional_status(200, '"k1"', "k1")
    assert conditional_status(304, '"stale"', "k1")
    assert conditional_status(200, '"stale"', "k1") == []


def test_checks_count_failures():
    checks = Checks()
    assert checks.add("good", [])
    assert not checks.add("bad", ["boom"])
    assert checks.as_dict() == {"attempted": 2, "failed": 1, "messages": ["bad: boom"]}
    json.dumps(checks.as_dict())
