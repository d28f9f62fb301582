"""The figure registry and content-addressed FigureService.

Acceptance contract of the registry: every named figure renders strict
JSON, a valid Vega-Lite spec, and a standalone HTML page; a second
render with unchanged inputs is a cache hit that serves byte-identical
artifacts without re-running the builder; any change to the inputs — a
different seed, different params, or new campaign data — changes the
content key.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.cli import main
from repro.core import Campaign
from repro.core.measurement import MeasurementSet
from repro.errors import ValidationError
from repro.obs import MetricsRegistry
from repro.report.registry import (
    FIGURES,
    FigureService,
    campaign_digest,
    content_key,
    text_figures,
)
from repro.report.vega import VL_SCHEMA

SIMULATED = sorted(n for n, e in FIGURES.items() if not e.needs_campaign)
CAMPAIGN = sorted(n for n, e in FIGURES.items() if e.needs_campaign)

FORMATS = ("json", "vl.json", "html")


@pytest.fixture(scope="module")
def service(tmp_path_factory):
    """One quick-fidelity service shared by the module: renders are slow."""
    cache = tmp_path_factory.mktemp("figure-cache")
    return FigureService(cache, quick=True, seed=0)


@pytest.fixture(scope="module")
def rendered(service):
    """Every simulated figure rendered once, keyed by name."""
    return {name: service.render(name) for name in SIMULATED}


def _record(camp: Campaign, name: str, fill: float) -> None:
    camp.record(
        MeasurementSet(
            values=np.full(300, fill) + np.arange(300) * 1e-3,
            unit="us",
            name=name,
        ),
        spill_rows=100,
    )


@pytest.fixture()
def campaign(tmp_path):
    camp = Campaign.create(tmp_path / "camp", name="traj")
    _record(camp, "latency", 1.0)
    _record(camp, "bandwidth", 2.0)
    return camp


class TestRegistryShape:
    def test_all_seven_paper_figures_are_registered(self):
        for name in (
            "fig1_hpl", "fig2_normalization", "fig3_significance",
            "fig4_quantreg", "fig5_reduce", "fig6_rank_variation",
            "fig7ab_bounds", "fig7c_distribution",
        ):
            assert name in FIGURES

    def test_scenario_figures_are_registered(self):
        assert "scale_collectives" in FIGURES
        assert "chaos_degradation" in FIGURES
        assert "campaign_trajectory" in FIGURES
        assert FIGURES["campaign_trajectory"].needs_campaign

    def test_names_hides_campaign_figures_without_a_campaign(self, service):
        assert service.names() == SIMULATED

    def test_unknown_figure_is_a_validation_error(self, service):
        with pytest.raises(ValidationError, match="nope"):
            service.entry("nope")
        with pytest.raises(ValidationError):
            service.render("nope")


class TestTextView:
    """``repro figures`` is the registry's text view, not a second builder."""

    @pytest.mark.parametrize("name", text_figures())
    def test_cli_section_is_the_entrys_to_text(self, name, capsys):
        entry = FIGURES[name]
        expected = entry.to_text(entry.make(entry.resolve_params(quick=True)))
        assert main(["figures", name, "--quick"]) == 0
        assert capsys.readouterr().out == f"\n=== {name} ===\n{expected}\n"

class TestEveryFigureRenders:
    @pytest.mark.parametrize("name", SIMULATED)
    def test_three_artifacts_exist(self, rendered, name):
        fig = rendered[name]
        for fmt in FORMATS:
            assert fig.path(fmt).is_file(), f"{name} missing {fmt}"

    @pytest.mark.parametrize("name", SIMULATED)
    def test_vega_lite_spec_is_valid_strict_json(self, rendered, name):
        text = rendered[name].vl_path.read_text(encoding="utf-8")
        assert "NaN" not in text and "Infinity" not in text
        spec = json.loads(
            text,
            parse_constant=lambda c: pytest.fail(f"non-strict token {c!r}"),
        )
        assert spec["$schema"] == VL_SCHEMA
        assert "layer" in spec or "mark" in spec or "facet" in spec

    @pytest.mark.parametrize("name", SIMULATED)
    def test_html_embeds_the_spec(self, rendered, name):
        html = rendered[name].html_path.read_text(encoding="utf-8")
        assert "<!DOCTYPE html>" in html
        assert "vegaEmbed" in html
        assert VL_SCHEMA in html

    @pytest.mark.parametrize("name", SIMULATED)
    def test_data_json_is_strict(self, rendered, name):
        payload = json.loads(
            rendered[name].json_path.read_text(encoding="utf-8"),
            parse_constant=lambda c: pytest.fail(f"non-strict token {c!r}"),
        )
        assert set(payload) == {"figure", "data", "provenance"}


class TestContentAddressing:
    def test_key_is_deterministic(self):
        entry = FIGURES["fig1_hpl"]
        params = dict(entry.quick_params)
        a = content_key(entry, params=params, seed=3)
        b = content_key(entry, params=dict(params), seed=3)
        assert a == b and len(a) == 32

    def test_key_depends_on_seed_and_params(self):
        entry = FIGURES["fig1_hpl"]
        params = dict(entry.quick_params)
        base = content_key(entry, params=params, seed=0)
        assert content_key(entry, params=params, seed=1) != base
        bumped = dict(params, n_runs=params["n_runs"] + 1)
        assert content_key(entry, params=bumped, seed=0) != base

    def test_second_render_is_a_byte_identical_cache_hit(
        self, service, rendered
    ):
        name = "fig7ab_bounds"
        first = rendered[name]
        assert not first.cached
        before = {fmt: first.path(fmt).read_bytes() for fmt in FORMATS}
        again = FigureService(
            service.cache_dir, quick=True, seed=0
        ).render(name)
        assert again.cached
        assert again.key == first.key
        for fmt in FORMATS:
            assert again.path(fmt).read_bytes() == before[fmt]

    def test_cache_hit_and_render_metrics(self, service, rendered):
        metrics = MetricsRegistry()
        metrics.bind_serve_metrics()
        svc = FigureService(
            service.cache_dir, quick=True, seed=0, metrics=metrics
        )
        svc.render("fig1_hpl")  # warmed by the module fixture
        assert metrics.get("repro_serve_cache_hits_total").value == 1.0
        assert metrics.get("repro_serve_renders_total").value == 0.0

    def test_different_seed_renders_fresh(self, service, rendered):
        svc = FigureService(service.cache_dir, quick=True, seed=99)
        fig = svc.render("fig7ab_bounds")
        assert not fig.cached
        assert fig.key != rendered["fig7ab_bounds"].key

    def test_current_pointer_tracks_latest_key(self, service, rendered):
        name = "fig1_hpl"
        current = service.cache_dir / name / "current"
        assert current.read_text(encoding="utf-8").strip() == rendered[
            name
        ].key


class TestCampaignFigures:
    def test_render_needs_a_campaign(self, tmp_path):
        svc = FigureService(tmp_path / "cache", quick=True)
        with pytest.raises(ValidationError, match="campaign"):
            svc.render("campaign_trajectory")

    def test_trajectory_renders_and_caches(self, tmp_path, campaign):
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        assert "campaign_trajectory" in svc.names()
        first = svc.render("campaign_trajectory")
        assert not first.cached
        spec = json.loads(first.vl_path.read_text(encoding="utf-8"))
        assert spec["$schema"] == VL_SCHEMA
        again = svc.render("campaign_trajectory")
        assert again.cached and again.key == first.key

    def test_new_dataset_changes_the_key(self, tmp_path, campaign):
        svc = FigureService(tmp_path / "cache", campaign=campaign)
        before = svc.render("campaign_trajectory")
        digest_before = campaign_digest(campaign)
        _record(campaign, "jitter", 3.0)
        assert campaign_digest(campaign) != digest_before
        after = svc.render("campaign_trajectory")
        assert not after.cached
        assert after.key != before.key

    def test_empty_campaign_is_a_clean_error(self, tmp_path):
        camp = Campaign.create(tmp_path / "empty", name="empty")
        svc = FigureService(tmp_path / "cache", campaign=camp)
        with pytest.raises(ValidationError, match="no datasets"):
            svc.render("campaign_trajectory")


class TestDescribe:
    def test_describe_carries_key_and_formats(self, service, rendered):
        info = service.describe("fig1_hpl")
        assert info["name"] == "fig1_hpl"
        assert info["key"] == rendered["fig1_hpl"].key
        assert info["needs_campaign"] is False
        assert set(info["formats"]) == set(FORMATS)

    def test_payload_round_trips(self, service, rendered):
        body, fig = service.payload("fig1_hpl", "vl.json")
        assert body == rendered["fig1_hpl"].vl_path.read_bytes()
        assert fig.cached
