"""Tests for the command-line interface."""

from __future__ import annotations

import json
import re

import pytest

from repro.cli import build_parser, main
from repro.report.registry import text_figures


class TestParser:
    def test_requires_command(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])


class TestTable1:
    def test_outputs_totals(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "79/95" in out and "25/120" in out


def _sections(out: str) -> list[str]:
    """The figure names of ``repro figures`` section headers, in order."""
    return re.findall(r"^=== (\S+) ===$", out, re.M)


class TestFigures:
    def test_single_figure(self, capsys):
        assert main(["figures", "fig2_normalization", "--quick"]) == 0
        out = capsys.readouterr().out
        assert _sections(out) == ["fig2_normalization"]
        # The title counts the samples shown, not the full-fidelity 1M.
        assert "(20,000 64B ping-pong samples" in out

    def test_figure4_crossover_reported(self, capsys):
        assert main(["figures", "fig4_quantreg", "--quick"]) == 0
        assert "sign crossover" in capsys.readouterr().out

    def test_figure5_pof2(self, capsys):
        assert main(["figures", "fig5_reduce", "--quick"]) == 0
        assert "power-of-two advantage" in capsys.readouterr().out

    # A scenario figure is in the registry but has no text view.
    @pytest.mark.parametrize("name", ["nope", "scale_collectives"])
    def test_unknown_figure_exits_2_listing_available(self, name, capsys):
        assert main(["figures", name, "--quick"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and name in err
        for available in text_figures():
            assert available in err

    def test_workers_output_matches_serial(self, capsys):
        assert main(["figures", "--quick"]) == 0
        serial = capsys.readouterr().out
        assert _sections(serial) == text_figures()
        assert main(["figures", "--quick", "--workers", "2"]) == 0
        assert capsys.readouterr().out == serial

    def test_workers_preserve_figure_order(self, capsys):
        order = ["fig7ab_bounds", "fig1_hpl"]
        assert main(["figures", *order, "--quick", "--workers", "2"]) == 0
        assert _sections(capsys.readouterr().out) == order


class TestCalibrate:
    def test_reports_resolution(self, capsys):
        assert main(["calibrate", "--samples", "1000"]) == 0
        out = capsys.readouterr().out
        assert "resolution" in out and "overhead" in out

    def test_statistical_profile_writes_report(self, tmp_path, capsys):
        out_dir = tmp_path / "calib"
        metrics = tmp_path / "metrics.json"
        assert main([
            "calibrate", "--profile", "micro",
            "--out", str(out_dir), "--emit-metrics", str(metrics),
        ]) == 0
        out = capsys.readouterr().out
        assert "Calibration [micro]" in out
        assert "mean_ci" in out
        payload = json.loads((out_dir / "calibration_report.json").read_text())
        assert payload["summary"]["flagged"] == 0
        assert payload["provenance"]["methodology"]["profile"] == "micro"
        assert (out_dir / "calibration_report.md").exists()
        recorded = json.loads(metrics.read_text())
        assert recorded["repro_validate_cells_total"]["value"] == float(
            payload["summary"]["cells"]
        )

    def test_unknown_profile_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["calibrate", "--profile", "huge"])


class TestMachines:
    def test_lists_all(self, capsys):
        assert main(["machines"]) == 0
        out = capsys.readouterr().out
        for name in ("piz_daint", "piz_dora", "pilatus", "testbed"):
            assert name in out
        assert "dragonfly" in out


class TestCheck:
    def test_template(self, capsys):
        assert main(["check", "--template"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "reports_speedup" in payload

    def test_passing_declaration(self, tmp_path, capsys):
        decl = {
            "data_deterministic": True,
            "bounds_model_shown": True,
            "factors_documented": True,
            "environment": None,
        }
        # environment=None fails rule 9; make it deterministic-minimal.
        decl = {
            "data_deterministic": True,
            "bounds_model_shown": True,
            "factors_documented": False,
        }
        path = tmp_path / "decl.json"
        path.write_text(json.dumps(decl))
        code = main(["check", str(path)])
        out = capsys.readouterr().out
        assert code == 1  # rule 9 fails: no environment documented
        assert "rule  9" in out

    def test_declaration_missing_file_arg(self, capsys):
        assert main(["check"]) == 2

    def test_unknown_fields_rejected(self, tmp_path, capsys):
        path = tmp_path / "decl.json"
        path.write_text(json.dumps({"bogus_field": 1}))
        assert main(["check", str(path)]) == 2
        assert "unknown" in capsys.readouterr().err

    @pytest.mark.parametrize("text", ["42", "null", '"x"', "[1, 2]"])
    def test_non_object_declaration_rejected(self, tmp_path, capsys, text):
        path = tmp_path / "decl.json"
        path.write_text(text)
        assert main(["check", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "JSON object" in err
        assert len(err.strip().splitlines()) == 1


class TestNoise:
    def test_reports_noise_fraction(self, capsys):
        assert main(["noise", "--quantum", "0.0002", "--iterations", "50"]) == 0
        out = capsys.readouterr().out
        assert "noise fraction" in out
        assert "detours" in out


class TestCampaignCommand:
    def test_campaign_produces_datasets_trace_and_metrics(self, tmp_path, capsys):
        d = tmp_path / "camp"
        metrics = d / "metrics.prom"
        code = main([
            "campaign", "--dir", str(d), "--samples", "20", "--reps", "2",
            "--seed", "3", "--emit-metrics", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "design point(s)" in out
        assert (d / "campaign.json").exists()
        assert (d / "trace.jsonl").exists()
        assert metrics.read_text().startswith("# HELP")
        assert "repro_tasks_completed_total 4" in metrics.read_text()

    def test_rerun_served_from_cache(self, tmp_path, capsys):
        d = tmp_path / "camp"
        args = ["campaign", "--dir", str(d), "--samples", "10", "--seed", "1"]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cached 6" in capsys.readouterr().out

    def test_json_metrics_suffix(self, tmp_path):
        d = tmp_path / "camp"
        metrics = d / "metrics.json"
        assert main([
            "campaign", "--dir", str(d), "--samples", "10",
            "--emit-metrics", str(metrics),
        ]) == 0
        payload = json.loads(metrics.read_text())
        assert payload["repro_tasks_completed_total"]["value"] == 6

    def test_recorded_datasets_carry_provenance(self, tmp_path):
        from repro.core import Campaign

        d = tmp_path / "camp"
        assert main(["campaign", "--dir", str(d), "--samples", "10"]) == 0
        camp = Campaign.open(d)
        ms = camp.load(camp.names()[0])
        assert ms.provenance() is not None


class TestTraceCommand:
    def test_renders_span_tree(self, tmp_path, capsys):
        d = tmp_path / "camp"
        assert main(["campaign", "--dir", str(d), "--samples", "10"]) == 0
        capsys.readouterr()
        assert main(["trace", str(d)]) == 0
        out = capsys.readouterr().out
        assert "campaign" in out and "experiment" in out
        assert "design-point" in out and "measurement-batch" in out
        assert "└─" in out  # tree connectors

    def test_accepts_direct_file_path(self, tmp_path, capsys):
        d = tmp_path / "camp"
        assert main(["campaign", "--dir", str(d), "--samples", "10"]) == 0
        capsys.readouterr()
        assert main(["trace", str(d / "trace.jsonl")]) == 0
        assert "measurement-batch" in capsys.readouterr().out

    def test_missing_trace_errors(self, tmp_path, capsys):
        assert main(["trace", str(tmp_path)]) == 2
        assert "error" in capsys.readouterr().err


class TestFiguresMetrics:
    def test_emit_metrics_flag(self, tmp_path, capsys):
        metrics = tmp_path / "figures.prom"
        assert main([
            "figures", "fig1_hpl", "fig7ab_bounds", "--quick",
            "--emit-metrics", str(metrics),
        ]) == 0
        text = metrics.read_text()
        assert "repro_tasks_completed_total 2" in text
        assert "# TYPE repro_task_latency_seconds histogram" in text


class TestChaosCommand:
    def test_gate_green_with_artifacts_and_metrics(self, tmp_path, capsys):
        out = tmp_path / "run"
        metrics = tmp_path / "metrics.prom"
        assert main(["chaos", "--dir", str(out),
                     "--emit-metrics", str(metrics)]) == 0
        captured = capsys.readouterr()
        assert "Chaos gate" in captured.out
        payload = json.loads((out / "chaos_report.json").read_text())
        assert payload["ok"] is True and payload["profile"] == "smoke"
        assert "Failure envelopes" not in (out / "chaos_report.md").read_text() \
            or "recovered" in (out / "chaos_report.md").read_text()
        text = metrics.read_text()
        assert "repro_chaos_crashes_injected_total 1" in text
        assert "repro_chaos_points_recovered_total" in text

    def test_gate_red_exits_nonzero(self, tmp_path, capsys):
        assert main(["chaos", "--profile", "none",
                     "--dir", str(tmp_path / "none")]) == 1
        assert "CHAOS GATE FAILED" in capsys.readouterr().err


def _write_suite(path, *, scale=1.0, runs=6):
    import numpy as np

    from repro.compare import BenchRecord, BenchSuiteResult

    rng = np.random.default_rng(99)
    samples = scale * (
        1.0 + rng.normal(0, 0.01, size=(runs, 1)) + rng.normal(0, 0.005, size=(runs, 4))
    )
    suite = BenchSuiteResult(records={}).merged(
        BenchRecord(name="reduce", params={"P": 64}, samples=samples)
    )
    suite.write(path)
    return path


class TestCompareCommand:
    def test_identical_suites_pass(self, tmp_path, capsys):
        base = _write_suite(tmp_path / "base.json")
        assert main(["compare", str(base), str(base)]) == 0
        out = capsys.readouterr().out
        assert "OK" in out and "reduce[P=64]" in out

    def test_injected_regression_fails(self, tmp_path, capsys):
        base = _write_suite(tmp_path / "base.json")
        slow = _write_suite(tmp_path / "slow.json", scale=1.5)
        assert main(["compare", str(base), str(slow)]) == 1
        captured = capsys.readouterr()
        assert "COMPARE GATE FAILED" in captured.err
        assert "REGRESSION" in captured.out

    def test_out_writes_report_artifacts(self, tmp_path, capsys):
        base = _write_suite(tmp_path / "base.json")
        out_dir = tmp_path / "report"
        assert main(
            ["compare", str(base), str(base), "--out", str(out_dir)]
        ) == 0
        payload = json.loads((out_dir / "compare_report.json").read_text())
        assert payload["ok"] is True
        md = (out_dir / "compare_report.md").read_text()
        assert "Benchmark comparison" in md and "Provenance" in md

    def test_missing_suite_is_bad_input(self, tmp_path, capsys):
        assert main(["compare", str(tmp_path / "a.json"),
                     str(tmp_path / "b.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_corrupt_suite_is_bad_input(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{broken")
        base = _write_suite(tmp_path / "base.json")
        assert main(["compare", str(base), str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_history_mode(self, tmp_path, capsys):
        a = _write_suite(tmp_path / "a.json")
        b = _write_suite(tmp_path / "b.json")
        c = _write_suite(tmp_path / "c.json", scale=1.5)
        assert main(["compare", str(a), str(b), str(c)]) == 1
        out = capsys.readouterr().out
        assert "step -> b.json" in out and "step -> c.json" in out

    def test_sequential_gate(self, tmp_path, capsys):
        base = _write_suite(tmp_path / "base.json", runs=10)
        slow = _write_suite(tmp_path / "slow.json", scale=1.5, runs=10)
        assert main(["compare", str(base), str(slow), "--sequential"]) == 1
        assert "COMPARE GATE FAILED" in capsys.readouterr().err
        assert main(["compare", str(base), str(base), "--sequential"]) == 0


class TestRenderCommand:
    def test_list_names_every_simulated_figure(self, tmp_path, capsys):
        assert main(
            ["render", "--list", "--cache-dir", str(tmp_path / "c")]
        ) == 0
        out = capsys.readouterr().out
        assert "fig1_hpl" in out and "scale_collectives" in out
        assert "campaign_trajectory" not in out  # needs --campaign

    def test_render_builds_then_serves_from_cache(self, tmp_path, capsys):
        cache = str(tmp_path / "c")
        argv = ["render", "fig7ab_bounds", "--quick", "--cache-dir", cache]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "fig7ab_bounds: built key=" in first
        assert ".vl.json" in first and ".html" in first
        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "fig7ab_bounds: cache key=" in second
        key = first.split("key=")[1].split()[0]
        assert f"key={key}" in second

    def test_unknown_figure_is_bad_input(self, tmp_path, capsys):
        assert main(
            ["render", "nope", "--cache-dir", str(tmp_path / "c")]
        ) == 2
        assert "error:" in capsys.readouterr().err

    def test_emit_metrics_counts_the_render(self, tmp_path, capsys):
        metrics = tmp_path / "m.json"
        assert main(
            ["render", "fig7ab_bounds", "--quick",
             "--cache-dir", str(tmp_path / "c"),
             "--emit-metrics", str(metrics)]
        ) == 0
        payload = json.loads(metrics.read_text())
        assert payload["repro_serve_renders_total"]["value"] == 1.0
        assert payload["repro_serve_cache_hits_total"]["value"] == 0.0


class TestServeParser:
    def test_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.port == 8472
        assert args.host == "127.0.0.1"
        assert args.cache_dir == "figure-cache"
        assert args.quick is False

    def test_ephemeral_port_accepted(self):
        assert build_parser().parse_args(["serve", "--port", "0"]).port == 0
