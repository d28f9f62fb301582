"""serve-mix: a ``repro serve --quick`` process under a closed-loop client mix.

The cache is pre-rendered with ``repro render`` for the eight paper figures
at the run's seed, so the server only reads it (``serve.renders`` must
stay 0).  One client in this process keeps one request in flight
(``Connection: close``, so one connection per request) for the measured
seconds.  Client and server are pinned to one CPU: in a closed loop of one
client only one of them runs at a time, and on a shared virtual machine
a wake-up across CPUs costs more, and varies more, than the request.
Each request is, by weight:

* 50% ``GET /figures/<name>.vl.json``
* 30% the same with ``If-None-Match: <current ETag>`` (must be 304)
* 15% ``GET /figures/<name>.json`` (the larger figure data)
* 5% ``GET /figures`` (the catalog)

Every ``PAGE_PERIOD`` seconds of the run the client loads the page instead
(catalog plus both artifacts of every figure: ``wall_s``) and revalidates
it with ETags (every request 304: ``rerun_s``), so that these medians, like
the others, cover the whole run and not a second or two of it.  ``rps``
and the latency percentiles count every request the client sends.
"""

from __future__ import annotations

import os
import random
import re
import signal
import socket
import statistics
import struct
import subprocess
import threading
import time
from pathlib import Path
from typing import Any, Callable

from . import PAPER_FIGURES
from .checks import Checks, body_matches, conditional_status, strict_json

PAGE_PERIOD = 0.5
MIX = (("vl", 50), ("conditional", 30), ("json", 15), ("catalog", 5))
_URL = re.compile(rb"on http://([0-9.]+):([0-9]+)")
_FORMATS = {"vl": "vl.json", "conditional": "vl.json", "json": "json"}


def http_get(port: int, path: str, etag: str | None = None) -> tuple[int, dict[str, str], bytes]:
    """One HTTP/1.1 GET on a fresh connection, read until the server closes."""
    lines = [f"GET {path} HTTP/1.1", "Host: 127.0.0.1"]
    if etag is not None:
        lines.append(f"If-None-Match: {etag}")
    request = ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1")
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=30) as sock:
        # Close with a reset once the body is read, so tens of thousands of
        # connections per run leave no TIME_WAIT sockets to exhaust the
        # ephemeral ports of the next run.
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_LINGER, struct.pack("ii", 1, 0))
        sock.sendall(request)
        while True:
            chunk = sock.recv(1 << 18)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status_line, *header_lines = head.decode("latin-1").split("\r\n")
    headers = {}
    for line in header_lines:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return int(status_line.split()[1]), headers, body


class Server:
    """One ``python -m repro serve`` process; ``setup_s`` is spawn-to-listening."""

    def __init__(self, argv: list[str], env: dict[str, str], cwd: Path) -> None:
        start = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, env=env, cwd=cwd)
        self.port = None
        while self.port is None:
            line = self.proc.stderr.readline()
            if not line:
                self.stop()
                raise RuntimeError("repro serve exited before listening")
            match = _URL.search(line)
            if match:
                self.port = int(match.group(2))
        self.setup_s = time.perf_counter() - start
        # Keep draining stderr so the server never blocks on a full pipe.
        self._drain = threading.Thread(target=self.proc.stderr.read, daemon=True)
        self._drain.start()

    def peak_rss_mb(self) -> float:
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        return int(re.search(r"VmHWM:\s+(\d+) kB", status).group(1)) / 1024.0

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=15)
        if self.proc.stderr is not None:
            self.proc.stderr.close()


def scrape(port: int) -> dict[str, float]:
    """The server's ``repro_serve_*`` counters from ``/metrics``."""
    status, _, body = http_get(port, "/metrics")
    if status != 200:
        raise RuntimeError(f"/metrics returned {status}")
    out = {}
    for line in body.decode("utf-8").splitlines():
        if line.startswith("repro_serve_") and "{" not in line:
            name, _, value = line.partition(" ")
            out[name] = float(value)
    return out


def expected_artifacts(cache: Path, checks: Checks) -> dict[str, Any]:
    """Current key and bytes of every pre-rendered artifact, checked as strict JSON."""
    expected = {}
    for name in PAPER_FIGURES:
        key = (cache / name / "current").read_text().strip()
        files = {}
        for fmt in ("vl.json", "json"):
            files[fmt] = (cache / name / f"{key}.{fmt}").read_bytes()
            checks.add(f"{name}.{fmt} strict JSON", strict_json(files[fmt])[1])
        expected[name] = {"key": key, **files}
    return expected


def _check_response(kind: str, name: str, status: int, headers: dict, body: bytes,
                    expected: dict[str, Any]) -> list[str]:
    if kind == "catalog":
        if status != 200:
            return [f"/figures returned {status}"]
        payload, failures = strict_json(body)
        if failures:
            return failures
        keys = {f["name"]: f["key"] for f in payload["figures"]}
        return [f"catalog key of {n} is {keys.get(n)}" for n in PAPER_FIGURES
                if keys.get(n) != expected[n]["key"]]
    key = expected[name]["key"]
    if kind == "conditional":
        return conditional_status(status, f'"{key}"', key)
    if status != 200:
        return [f"{name}.{_FORMATS[kind]} returned {status}"]
    return body_matches(body, headers.get("etag"), expected[name][_FORMATS[kind]], key)


def one_request(port: int, kind: str, name: str, expected: dict[str, Any]) -> list[str]:
    """Send one request of the mix and check its response."""
    if kind == "catalog":
        path, etag = "/figures", None
    else:
        path = f"/figures/{name}.{_FORMATS[kind]}"
        etag = f'"{expected[name]["key"]}"' if kind == "conditional" else None
    try:
        status, headers, body = http_get(port, path, etag)
    except OSError as exc:
        return [f"{path}: {exc!r}"]
    return _check_response(kind, name, status, headers, body, expected)


def timed_request(port: int, kind: str, name: str, expected: dict[str, Any],
                  latencies: list[float]) -> list[str]:
    """:func:`one_request`, appending its latency to *latencies*."""
    t0 = time.perf_counter()
    problems = one_request(port, kind, name, expected)
    latencies.append(time.perf_counter() - t0)
    return problems


def page_load(port: int, expected: dict[str, Any], checks: Checks,
              latencies: list[float]) -> tuple[float, float]:
    """Load the page (catalog and both artifacts of every figure), then revalidate it."""
    clock = time.perf_counter
    t0 = clock()
    problems = timed_request(port, "catalog", "", expected, latencies)
    for name in PAPER_FIGURES:
        problems += timed_request(port, "vl", name, expected, latencies)
        problems += timed_request(port, "json", name, expected, latencies)
    load = clock() - t0
    checks.add("page load", problems)
    t0 = clock()
    problems = []
    for name in PAPER_FIGURES:
        problems += timed_request(port, "conditional", name, expected, latencies)
    revalidation = clock() - t0
    checks.add("page revalidation", problems)
    return load, revalidation


def closed_loop(port: int, expected: dict[str, Any], seed: int, seconds: float,
                checks: Checks) -> dict[str, Any]:
    """One closed-loop client for *seconds*: the mix, and a page load every ``PAGE_PERIOD``."""
    kinds = [k for k, _ in MIX]
    weights = [w for _, w in MIX]
    rng = random.Random(seed)
    latencies: list[float] = []
    failures: list[str] = []
    loads: list[float] = []
    revalidations: list[float] = []
    clock = time.perf_counter
    start = clock()
    deadline = start + seconds
    next_page = start
    while (now := clock()) < deadline:
        if now >= next_page:
            load, revalidation = page_load(port, expected, checks, latencies)
            loads.append(load)
            revalidations.append(revalidation)
            next_page += PAGE_PERIOD
            continue
        kind = rng.choices(kinds, weights)[0]
        problems = timed_request(port, kind, rng.choice(PAPER_FIGURES), expected, latencies)
        if problems:
            failures.append(problems[0])
    return {"latencies": latencies, "failures": failures, "elapsed": clock() - start,
            "loads": loads, "revalidations": revalidations}


def run(*, seed: int, seconds: float, trace: bool, startups: int, workdir: Path,
        python: str, env: dict[str, str], root: Path, log: Callable[[str], None]) -> dict[str, Any]:
    """Pre-render, start the server ``startups`` times, load it, check it."""
    cache = workdir / "cache"
    render = [python, "-m", "repro", "render", *PAPER_FIGURES, "--quick",
              "--cache-dir", str(cache), "--seed", str(seed)]
    subprocess.run(render, env=env, cwd=root, check=True, stdout=subprocess.DEVNULL, timeout=170)
    checks = Checks()
    expected = expected_artifacts(cache, checks)

    serve = [python, "-m", "repro", "serve", "--port", "0", "--quick",
             "--cache-dir", str(cache), "--seed", str(seed)]
    setups: list[float] = []
    for _ in range(startups - 1):
        server = Server(serve, env, root)
        setups.append(server.setup_s)
        server.stop()
    server = Server(serve, env, root)
    setups.append(server.setup_s)
    cpu = {min(os.sched_getaffinity(0))}
    for task in Path(f"/proc/{server.proc.pid}/task").iterdir():
        os.sched_setaffinity(int(task.name), cpu)
    os.sched_setaffinity(0, cpu)
    try:
        before = scrape(server.port)
        load = closed_loop(server.port, expected, seed, seconds, checks)
        after = scrape(server.port)
        peak_rss = server.peak_rss_mb()
    finally:
        server.stop()
    latencies, failures = load["latencies"], load["failures"]
    n = len(latencies)
    log(f"serve-mix: {n} requests in {load['elapsed']:.2f} s, {len(failures)} failed")
    renders = after.get("repro_serve_renders_total", 0.0)
    checks.add("no renders while serving", [f"{renders:g} renders"] if renders else [])

    def delta(name: str) -> float:
        return after.get(name, 0.0) - before.get(name, 0.0)

    served = delta("repro_serve_request_seconds_count")
    server_s = delta("repro_serve_request_seconds_sum") / served if served else 0.0
    result: dict[str, Any] = {
        "setups": setups,
        "series": {"wall_s": load["loads"], "rerun_s": load["revalidations"],
                   "latency_s": latencies, "rps": [n / load["elapsed"]]},
        "ops": n,
        "failed_ops": len(failures),
        "op_messages": failures[:5],
        "peak_rss_mb": peak_rss,
        "checks": checks.as_dict(),
        "layers": {},
    }
    if trace:
        result["layers"] = {
            "serve.server_s": server_s,
            "serve.client_gap_ms": (statistics.fmean(latencies) - server_s) * 1e3 if latencies else 0.0,
            "serve.requests": served,
            "serve.not_modified": delta("repro_serve_not_modified_total"),
            "serve.cache_hits": delta("repro_serve_cache_hits_total"),
            "serve.renders": renders,
            "serve.errors": after.get("repro_serve_errors_total", 0.0),
        }
    return result
