"""Repeat the benchmark over seeds; report each metric's spread against its bound.

    python3 perfbench/spread.py --workloads render-paper,serve-mix --seeds 1-10
    python3 perfbench/spread.py --seeds 1-10 --traced-seeds 1-3 --baseline perfbench/baseline.json

For every workload and end-to-end metric it prints the median of the
runs and their spread: the distance between the first and third quartile
(``statistics.quantiles(values, n=4)``) as a share of the median, next to
a third of the metric's bound, the target a steady benchmark stays under.
With ``--baseline`` it also runs ``--traced-seeds`` traced and writes the
medians of every metric, the host's ``nproc`` and its environment to the
given file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict[str, Any]:
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} failed:\n{out.stderr[-3000:]}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise RuntimeError(f"{workload} seed {seed}: {result['failed']} checks failed")
    return result


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def environment() -> dict[str, Any]:
    import numpy
    import scipy

    cpu = ""
    cpuinfo = Path("/proc/cpuinfo")
    if cpuinfo.exists():
        for line in cpuinfo.read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", help="comma-separated (default: all)")
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--traced-seeds", type=seeds, default=[])
    parser.add_argument("--baseline", type=Path, help="write medians of every metric here")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    workloads = args.workloads.split(",") if args.workloads else [w["name"] for w in spec["workloads"]]
    # Seeds outermost, so that a drift of the host's speed lands on every
    # workload alike instead of on whichever ran during it.
    values: dict[str, dict[str, list[float]]] = {w: {} for w in workloads}
    started = time.time()
    for seed in args.seeds:
        for workload in workloads:
            for name, metric in run_once(workload, seed, spec["run_seconds"], 0)["metrics"].items():
                values[workload].setdefault(name, []).append(metric["value"])
    print(f"== {len(args.seeds)} runs of each workload in {time.time() - started:.0f} s")
    baseline: dict[str, Any] = {}
    ok = True
    for workload in workloads:
        print(f"== {workload}")
        for name, vals in values[workload].items():
            s = spread(vals)
            verdict = "ok" if s < bounds[name] / 3 else ("WIDE" if s < bounds[name] else "OVER")
            ok &= name == "setup_s" or s < bounds[name]
            print(f"  {name:<16} median {statistics.median(vals):<12.6g} spread {s:.4f} "
                  f"(bound/3 {bounds[name] / 3:.4f}) {verdict}  "
                  f"[{', '.join(f'{v:.4g}' for v in vals)}]")
        entry = {"end_to_end": {n: statistics.median(v) for n, v in values[workload].items()}}
        layers: dict[str, list[float]] = {}
        for seed in args.traced_seeds:
            for name, metric in run_once(workload, seed, spec["run_seconds"], 1)["metrics"].items():
                layers.setdefault(name, []).append(metric["value"])
        if layers:
            entry["per_layer"] = {n: statistics.median(v) for n, v in layers.items()}
        baseline[workload] = entry
        sys.stdout.flush()
    if args.baseline:
        payload = {
            "seeds": [args.seeds[0], args.seeds[-1]],
            "traced_seeds": args.traced_seeds,
            "run_seconds": spec["run_seconds"],
            "environment": environment(),
            "workloads": baseline,
        }
        args.baseline.write_text(json.dumps(payload, indent=2) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
