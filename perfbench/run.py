"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload render-paper --seed 1 --seconds 12 --trace 0

Run from the repository root.  Every workload process is started fresh
(``setup_s`` is the median of several start-ups), its inputs derive from
``--seed`` only, and its outputs are checked.  The last line of stdout is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  Statistics here use numpy and the
standard library only, never the package under test.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.spec import load_spec, validate_metrics  # noqa: E402

WORKLOADS = ("render-paper", "campaign-gate", "serve-mix")
#: Fresh start-ups per run; ``setup_s`` is their median.
STARTUPS = 3
#: A run must end well inside the 180 s a run is allowed.
RUN_DEADLINE_S = 170.0


def log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(ROOT)])
    return env


def _read_tagged(proc: subprocess.Popen, tag: str) -> dict[str, Any]:
    while True:
        line = proc.stdout.readline()
        if not line:
            raise RuntimeError(f"workload process exited (code {proc.wait()}) before {tag}")
        if line.startswith(tag + " "):
            return json.loads(line[len(tag) + 1:])


def run_worker(workload: str, *, seed: int, seconds: float, trace: bool,
               workdir: Path) -> dict[str, Any]:
    """Start the worker ``STARTUPS`` times; the last start-up does the work."""
    argv = [sys.executable, "-m", "perfbench.worker", workload]
    setups = []
    for n in range(STARTUPS):
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                env=_env(), cwd=ROOT, text=True)
        watchdog = threading.Timer(RUN_DEADLINE_S, proc.kill)
        watchdog.start()
        try:
            ready = _read_tagged(proc, "READY")
            setups.append(time.perf_counter() - start)
            if n < STARTUPS - 1:
                proc.stdin.close()
                if proc.wait() != 0:
                    raise RuntimeError(f"set-up-only start exited with {proc.returncode}")
                continue
            job = {"seed": seed, "seconds": seconds, "trace": trace, "workdir": str(workdir)}
            proc.stdin.write(json.dumps(job) + "\n")
            proc.stdin.close()
            result = _read_tagged(proc, "RESULT")
            if proc.wait() != 0:
                raise RuntimeError(f"workload process exited with {proc.returncode}")
        finally:
            watchdog.cancel()
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    result["setups"] = setups
    result["ops"] = sum(result["series"].pop("ops"))
    result["failed_ops"] = 0
    result["layers"]["import.scipy_stats_loaded"] = float(ready["scipy_stats_loaded"])
    return result


def scipy_stats_probe() -> float:
    """Whether ``import repro`` alone loads ``scipy.stats`` (1) or not (0)."""
    code = "import sys, repro; print(int('scipy.stats' in sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=_env(), cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=60)
    return float(out.stdout.strip())


def percentile(values: list[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def end_to_end(result: dict[str, Any]) -> dict[str, float]:
    series = result["series"]
    return {
        "setup_s": statistics.median(result["setups"]),
        "wall_s": statistics.median(series["wall_s"]),
        "rerun_s": statistics.median(series["rerun_s"]),
        "rps": statistics.median(series["rps"]),
        "latency_p50_ms": percentile(series["latency_s"], 50) * 1e3,
        "latency_p99_ms": percentile(series["latency_s"], 99) * 1e3,
        "peak_rss_mb": result["peak_rss_mb"],
    }


def per_layer(result: dict[str, Any], declared: list[str]) -> dict[str, float]:
    layers = dict(result["layers"])
    layers["import.s"] = statistics.median(result["setups"])
    unknown = sorted(set(layers) - set(declared))
    if unknown:
        raise ValueError(f"layer metrics not declared in BENCHMARK.json: {unknown}")
    # An idle layer has no spans and no counts in this workload.
    return {name: float(layers.get(name, 0.0)) for name in declared}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        log(f"error: no repro package under {ROOT / 'src'}; run from a full checkout")
        return 2
    spec = load_spec(ROOT / "BENCHMARK.json")

    workdir = ROOT / ".perfbench" / f"{args.workload}-s{args.seed}-t{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if args.workload == "serve-mix":
            from perfbench import serve_mix

            result = serve_mix.run(seed=args.seed, seconds=args.seconds, trace=bool(args.trace),
                                   startups=STARTUPS, workdir=workdir, python=sys.executable,
                                   env=_env(), root=ROOT, log=log)
            if args.trace:
                result["layers"]["import.scipy_stats_loaded"] = scipy_stats_probe()
        else:
            result = run_worker(args.workload, seed=args.seed, seconds=args.seconds,
                                trace=bool(args.trace), workdir=workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    checks = result["checks"]
    attempted = int(result["ops"] + checks["attempted"])
    failed = int(result["failed_ops"] + checks["failed"])
    for message in checks["messages"] + result.get("op_messages", []):
        log(f"check failed: {message}")
    if args.trace:
        metrics = per_layer(result, [m["name"] for m in spec["per_layer"]])
        declared = spec["per_layer"]
    else:
        metrics = end_to_end(result)
        declared = spec["end_to_end"]
    validate_metrics(metrics, declared)

    units = {m["name"]: m["unit"] for m in declared}
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace} "
          f"nproc={os.cpu_count()} python={sys.version.split()[0]}")
    for name, value in metrics.items():
        print(f"{name:<28} {value:>14.6g} {units[name]}")
    print(f"{'error_rate':<28} {failed / attempted:>14.6g} fraction "
          f"({failed} failed of {attempted} attempted)")
    print(f"{'latency_samples':<28} {len(result['series']['latency_s']):>14d} count")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
