"""Tests for the committed benchmark trajectory and its recorder.

``benchmarks/_bench_utils.record_bench`` appends runs to
``BENCH_simsys.json``; these tests pin that it never overwrites a suite
it cannot read, and that every benchmark which records into the suite
has actually committed a record there.
"""

from __future__ import annotations

import ast
import importlib.util
import json
from pathlib import Path

import pytest

from repro.compare import BenchSuiteResult
from repro.errors import ValidationError

ROOT = Path(__file__).resolve().parents[2]
BENCH_DIR = ROOT / "benchmarks"


def _load_bench_utils():
    spec = importlib.util.spec_from_file_location(
        "_bench_utils", BENCH_DIR / "_bench_utils.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _recorded_names() -> dict[str, str]:
    """Literal ``record_bench("<name>", ...)`` names → the bench file calling it."""
    names = {}
    for path in sorted(BENCH_DIR.glob("bench_*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "record_bench"
                and node.args
                and isinstance(node.args[0], ast.Constant)
                and isinstance(node.args[0].value, str)
            ):
                names.setdefault(node.args[0].value, path.name)
    return names


class TestRecordBench:
    def test_appends_runs(self, tmp_path):
        utils = _load_bench_utils()
        path = tmp_path / "BENCH.json"
        utils.record_bench("op", {"P": 2}, [1.0, 1.1], path=path)
        rec = utils.record_bench("op", {"P": 2}, [1.2], path=path)
        assert rec.samples == ((1.0, 1.1), (1.2,))
        assert BenchSuiteResult.load(path).records[rec.key] == rec

    def test_unreadable_suite_is_left_untouched(self, tmp_path):
        utils = _load_bench_utils()
        path = tmp_path / "BENCH.json"
        utils.record_bench("op", {"P": 2}, [1.0], path=path)
        payload = json.loads(path.read_text())
        payload["digest"] = "0" * 32
        path.write_text(json.dumps(payload))
        before = path.read_bytes()
        with pytest.raises(ValidationError, match="integrity digest"):
            utils.record_bench("op", {"P": 2}, [2.0], path=path)
        assert path.read_bytes() == before


class TestCommittedSuite:
    def test_every_recording_bench_has_a_committed_record(self):
        names = _recorded_names()
        assert names, "no literal record_bench calls found under benchmarks/"
        suite = BenchSuiteResult.load(ROOT / "BENCH_simsys.json", verify=True)
        committed = {rec.name for rec in suite.records.values()}
        missing = {name: f for name, f in names.items() if name not in committed}
        assert not missing, f"benchmarks with no committed record: {missing}"
