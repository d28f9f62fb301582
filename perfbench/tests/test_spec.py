import copy
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from perfbench.spec import SpecError, check_name, load_spec, validate_metrics, validate_spec

ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def spec():
    return load_spec(ROOT / "BENCHMARK.json")


@pytest.mark.parametrize("name", ["setup_s", "store.append.s", "exec.cache_hit_ratio", "9lives"])
def test_good_names(name):
    check_name(name)


@pytest.mark.parametrize("name", ["", "_hidden", "has space", "a/b", "x" * 65, 3, None])
def test_bad_names(name):
    with pytest.raises(SpecError):
        check_name(name)


def test_metrics_must_match_the_declaration(spec):
    declared = spec["end_to_end"]
    good = {m["name"]: 1.0 for m in declared}
    validate_metrics(good, declared)
    missing = dict(good)
    missing.pop("setup_s")
    with pytest.raises(SpecError, match="missing"):
        validate_metrics(missing, declared)
    with pytest.raises(SpecError, match="extra"):
        validate_metrics({**good, "bogus": 1.0}, declared)
    for bad in (math.nan, math.inf, "1.0", True):
        with pytest.raises(SpecError):
            validate_metrics({**good, "wall_s": bad}, declared)


def test_spec_rules(spec):
    for mutate in (
        lambda s: s["end_to_end"][1].update(bound=0.3),
        lambda s: s["end_to_end"][1].update(bound=0.26),
        lambda s: s["per_layer"].append(dict(s["per_layer"][0])),
        lambda s: s["end_to_end"][0].update(bound=0.01),
        lambda s: s["workloads"][0].update(why="two\nlines"),
        lambda s: s["per_layer"][0].update(unit="way too long a unit"),
        lambda s: s.update(extra=1),
    ):
        broken = copy.deepcopy(spec)
        mutate(broken)
        with pytest.raises(SpecError):
            validate_spec(broken)


def test_every_workload_has_a_runner(spec):
    from perfbench.run import WORKLOADS

    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_run_refuses_a_directory_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(load_spec(ROOT / "BENCHMARK.json")))
    for src in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench").mkdir(exist_ok=True)
        (tmp_path / "perfbench" / src.name).write_text(src.read_text())
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "render-paper", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert out.returncode != 0
    assert out.stdout.strip() == ""
