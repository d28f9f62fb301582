"""The workloads' check functions fire on corrupted outputs (needs ``src`` on the path)."""

import json
from types import SimpleNamespace

import numpy as np
import pytest

pytest.importorskip("repro")

from perfbench import render_paper  # noqa: E402
from perfbench.checks import Checks  # noqa: E402


def _figure(tmp_path, name, data, key="k1"):
    paths = {}
    for fmt in render_paper.FORMATS:
        path = tmp_path / f"{name}.{fmt}"
        path.write_text(data if fmt == "json" else json.dumps({"mark": "line"}))
        paths[fmt] = path
    fig = SimpleNamespace(name=name, key=key, cached=False, path=paths.__getitem__)
    hit = SimpleNamespace(name=name, key=key, cached=True, path=paths.__getitem__)
    return fig, [(paths[fmt].read_bytes(), hit) for fmt in render_paper.FORMATS]


def _failed(tmp_path, name, data, mutate=None):
    fig, payloads = _figure(tmp_path, name, data)
    if mutate:
        payloads = mutate(payloads)
    checks = Checks()
    render_paper.check([[fig], [payloads]], checks)
    return checks.failed


def test_clean_render_passes(tmp_path):
    data = json.dumps({"data": {"kruskal": {"p_value": 1e-12}}})
    assert _failed(tmp_path, "fig3_significance", data) == 0


def test_corrupted_artifact_and_claims_fire(tmp_path):
    assert _failed(tmp_path, "fig1_hpl", '{"data": {"x": NaN}}') == 1
    assert _failed(tmp_path, "fig3_significance", json.dumps(
        {"data": {"kruskal": {"p_value": 0.5}}})) == 1


def test_rerun_that_differs_from_the_cold_bytes_fires(tmp_path):
    def corrupt(payloads):
        (body, hit), *rest = payloads
        return [(body + b" ", hit), *rest]

    assert _failed(tmp_path, "fig1_hpl", "{}", corrupt) == 1

    def miss(payloads):
        return [(body, SimpleNamespace(**{**vars(hit), "cached": False}))
                for body, hit in payloads]

    assert _failed(tmp_path, "fig1_hpl", "{}", miss) == 1


def test_campaign_summary_check_fires_on_a_wrong_median_or_ci():
    from perfbench.campaign_gate import summary_failures

    values = np.arange(11.0)
    ci = SimpleNamespace(low=3.0, high=7.0)
    assert summary_failures({"d": (SimpleNamespace(median=5.0), ci)}, {"d": values}) == []
    assert summary_failures({"d": (SimpleNamespace(median=5.5), ci)}, {"d": values})
    narrow = SimpleNamespace(low=6.0, high=7.0)
    assert summary_failures({"d": (SimpleNamespace(median=5.0), narrow)}, {"d": values})
