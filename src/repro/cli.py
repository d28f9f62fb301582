"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``figures``
    Print the registry's paper figures as text tables and terminal plots
    (the text the ``benchmarks/bench_fig*.py`` scripts record).
``table1``
    Regenerate the literature-survey table.
``calibrate``
    Calibrate this host's timer and report resolution/overhead and the
    smallest soundly measurable interval (Section 4.2.1).
``machines``
    Describe the simulated machines and their calibration anchors.
``noise``
    Run the fixed-work-quantum benchmark on *this* host and report its
    noise fraction and any periodic interference.
``check``
    Run the twelve-rules checker on an experiment declaration stored as
    JSON (see ``--template`` for the schema).
``campaign``
    Run a small synthetic measurement campaign into a directory —
    datasets, result cache, provenance, span trace, and (with
    ``--emit-metrics``) a metrics export.
``worker``
    Run one worker rank of the distributed execution backend, connecting
    to a coordinator started with ``campaign --dist`` (or any
    :class:`repro.exec.DistExecutor` in ``spawn="external"`` mode).
``trace``
    Render the span tree of a recorded campaign run.
``chaos``
    Run the fault-injection gate: a smoke campaign under a seeded fault
    profile (worker crashes, hangs, cache corruption, clock steps) that
    must complete with every design point recovered or annotated; exits
    nonzero on any unhandled escape.
``compare``
    The continuous-benchmarking regression gate: compare ``BENCH_*.json``
    suites with Kalibera–Jones effect-size confidence intervals and exit
    1 on a statistically significant regression (see docs/COMPARE.md).
``store``
    Inspect, verify, or compact a columnar shard store (the out-of-core
    home of spilled campaign datasets and cache entries; see
    docs/STORE.md).  ``verify`` re-digests every shard and exits 1 when
    any had to be quarantined.
``render``
    Render named registry figures (see docs/REPORT.md) into a
    content-addressed cache directory as figure JSON, Vega-Lite spec,
    and standalone HTML; unchanged inputs are served from cache.
``serve``
    Serve the figure registry over HTTP (``/figures``, ``/health``,
    ``/metrics``) from the same content-addressed cache; ETags are
    content keys, so clients revalidate with ``If-None-Match``.

Exit codes are uniform across subcommands: 0 success, 1 gate/check
failure, 2 bad input (one-line ``error:`` message on stderr).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path
from typing import Sequence

__all__ = ["main", "build_parser"]


def _chaos_profiles() -> dict:
    from .chaos import PROFILES

    return PROFILES


def _make_metrics_hooks(emit_metrics: str | None):
    """(hooks, registry) — registry is None without ``--emit-metrics``."""
    from .exec import ExecHooks
    from .simsys.mpi import bind_kernel_metrics

    hooks = ExecHooks()
    if not emit_metrics:
        bind_kernel_metrics(None)
        return hooks, None
    from .obs import MetricsRegistry

    registry = MetricsRegistry()
    registry.bind_exec_hooks(hooks)
    # Simulation collectives running in this process report kernel cost
    # into the same registry (worker processes record into their own).
    bind_kernel_metrics(registry)
    return hooks, registry


def _write_metrics(registry, path: str) -> None:
    registry.write(path)
    print(f"metrics written to {path}", file=sys.stderr)


def _cmd_figures(args: argparse.Namespace) -> int:
    """``repro figures``: the text view of the paper figures in the registry."""
    from functools import partial

    from .exec import ProcessExecutor, SerialExecutor
    from .report.registry import figure_text, text_figures

    names = _requested_figures(args.figures, text_figures())
    # One executor seam for serial and parallel regeneration: each figure
    # is an independent task, so --workers N overlaps their simulations.
    if args.workers > 1:
        executor = ProcessExecutor(max_workers=args.workers)
    else:
        executor = SerialExecutor(retries=0)
    hooks, registry = _make_metrics_hooks(args.emit_metrics)
    outcomes = executor.run(
        partial(figure_text, quick=args.quick, seed=args.seed), names,
        labels=[f"figure {name}" for name in names], hooks=hooks,
    )
    status = 0
    for name, outcome in zip(names, outcomes):
        if outcome.ok:
            sys.stdout.write(f"\n=== {name} ===\n{outcome.value}\n")
        else:
            print(
                f"error: figure {name} failed after "
                f"{outcome.attempts} attempt(s): {outcome.error}",
                file=sys.stderr,
            )
            status = 1
    if registry is not None:
        _write_metrics(registry, args.emit_metrics)
    return status


def _demo_measure(point, rep, rng):
    """Simulated reduce-latency workload for the ``campaign`` command.

    Module-level so it pickles into :class:`~repro.exec.ProcessExecutor`
    workers.  Runs the actual collective simulator (so ``--emit-metrics``
    shows real kernel cost), seeded from the task's derived generator for
    executor-independent determinism.
    """
    from .simsys import SimComm, testbed

    comm = SimComm(
        testbed(2),
        nprocs=8,
        placement="packed",
        seed=int(rng.integers(0, 2**31 - 1)),
    )
    return comm.reduce_root_times(int(point["size"]), int(point["batch"]))


def _cmd_campaign(args: argparse.Namespace) -> int:
    from .core import Campaign, Experiment, Factor, FactorialDesign
    from .exec import ProcessExecutor, SerialExecutor
    from .obs import JsonlSpanSink, Tracer

    camp_dir = Path(args.dir)
    if (camp_dir / "campaign.json").exists():
        camp = Campaign.open(camp_dir)
    else:
        camp = Campaign.create(camp_dir, name="demo-campaign")
    exp = Experiment(
        name="synthetic-latency",
        design=FactorialDesign(
            (Factor("size", (64, 4096)), Factor("batch", (args.samples,))),
            replications=args.reps,
        ),
        measure=_demo_measure,
        unit="s",
        seed=args.seed,
    )
    hooks, registry = _make_metrics_hooks(args.emit_metrics)
    tracer = Tracer(sink=JsonlSpanSink(camp_dir / "trace.jsonl"))
    if args.dist > 0:
        from .exec import DistExecutor

        # Cold cli workers pay interpreter + package import before they
        # can even say HELLO; on a loaded runner that is many seconds.
        executor = DistExecutor(
            workers=args.dist, spawn=args.dist_spawn, connect_timeout=60.0
        )
    elif args.workers > 1:
        executor = ProcessExecutor(max_workers=args.workers)
    else:
        executor = SerialExecutor(retries=0)
    try:
        result = camp.run(
            exp,
            executor=executor,
            hooks=hooks,
            tracer=tracer,
            overwrite=True,
            spill_rows=args.spill_rows if args.spill_rows > 0 else None,
        )
    finally:
        if args.dist > 0:
            executor.close()
    print(result.describe())
    print(hooks.describe())
    if args.dist > 0:
        print(f"dist: coordinator on {executor.address[0]}:{executor.address[1]}, "
              f"{args.dist} {args.dist_spawn} worker(s)")
    print(f"trace {tracer.trace_id} -> {camp_dir / 'trace.jsonl'}")
    if registry is not None:
        _write_metrics(registry, args.emit_metrics)
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    """``repro worker``: one rank of the distributed backend."""
    from .errors import ValidationError
    from .exec.dist import worker_main

    host, _, port = args.connect.rpartition(":")
    if not host or not port.isdigit():
        raise ValidationError(
            f"--connect must be HOST:PORT, got {args.connect!r}"
        )
    return worker_main(
        host,
        int(port),
        rank=args.rank,
        connect_timeout=args.connect_timeout,
    )


def _cmd_chaos(args: argparse.Namespace) -> int:
    """``repro chaos``: the resilience gate (see :mod:`repro.chaos`)."""
    from .chaos import run_chaos
    from .report import chaos_markdown, chaos_table

    hooks, registry = _make_metrics_hooks(args.emit_metrics)
    if registry is not None:
        registry.bind_chaos_metrics()
    report = run_chaos(
        args.profile,
        out_dir=args.dir,
        seed=args.seed,
        workers=args.workers,
        hooks=hooks,
        metrics=registry,
    )
    print(chaos_table(report))
    json_path = report.write(args.out or args.dir)
    md_path = json_path.with_name("chaos_report.md")
    md_path.write_text(chaos_markdown(report))
    print(f"report written to {json_path} (+ {md_path.name})", file=sys.stderr)
    if registry is not None:
        _write_metrics(registry, args.emit_metrics)
    if not report.ok:
        print(
            f"CHAOS GATE FAILED: {len(report.escapes)} escape(s), "
            f"{sum(1 for c in report.checks if not c.ok)} failed check(s)",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    from .obs import read_trace, render_span_tree

    path = Path(args.run)
    if path.is_dir():
        path = path / "trace.jsonl"
    # Bad input (missing/corrupt trace) raises ValidationError, which
    # main() converts to the uniform exit code 2.
    print(render_span_tree(read_trace(path)))
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from .report import render_table
    from .survey import category_totals, load_survey, not_applicable_count

    records = load_survey()
    totals = category_totals(records)
    na, total = not_applicable_count(records)
    print(
        render_table(
            ["category", "documented"],
            [[k, f"{got}/{n}"] for k, (got, n) in totals.items()],
            title=f"Table 1 ({na}/{total} not applicable)",
        )
    )
    return 0


def _cmd_calibrate(args: argparse.Namespace) -> int:
    if args.profile:
        return _run_statistical_calibration(args)
    from .core import PerfTimer, calibrate, check_interval

    cal = calibrate(PerfTimer(), samples=args.samples or 10_000)
    print(cal.describe())
    for interval in (1e-7, 1e-6, 1e-5, 1e-4, 1e-3):
        chk = check_interval(cal, interval)
        verdict = "ok" if chk.ok else f"k>={chk.recommended_batch()} batching needed"
        print(f"  interval {interval:.0e} s: {verdict}")
    return 0


def _run_statistical_calibration(args: argparse.Namespace) -> int:
    """``repro calibrate --profile ...``: the Monte-Carlo stats gate.

    Exit code 1 when any cell lands outside its tolerance band, so CI can
    use the command directly as a correctness gate.
    """
    from .exec import ProcessExecutor, ResultCache
    from .report import calibration_markdown, calibration_table
    from .validate import CalibrationStudy, get_profile

    study = CalibrationStudy(get_profile(args.profile), master_seed=args.seed)
    executor = None
    if args.workers > 1:
        executor = ProcessExecutor(max_workers=args.workers)
    cache = ResultCache(args.cache) if args.cache else None
    hooks, registry = _make_metrics_hooks(args.emit_metrics)
    report = study.run(executor=executor, cache=cache, hooks=hooks)

    print(calibration_table(report))
    if args.out:
        json_path = report.write(args.out)
        md_path = json_path.with_name("calibration_report.md")
        md_path.write_text(calibration_markdown(report))
        print(f"report written to {json_path} (+ {md_path.name})", file=sys.stderr)
    if registry is not None:
        _write_metrics(registry, args.emit_metrics)
    flagged = report.flagged
    if flagged:
        print(
            f"CALIBRATION FAILED: {len(flagged)} cell(s) outside tolerance",
            file=sys.stderr,
        )
        return 1
    return 0


def _cmd_noise(args: argparse.Namespace) -> int:
    from .core import measure_host_noise
    from .simsys import dominant_period

    report = measure_host_noise(
        quantum=args.quantum, iterations=args.iterations
    )
    print(report.summary())
    period = dominant_period(report.result)
    if period is not None:
        print(f"  dominant periodic interference: every {period * 1e3:.2f} ms")
    else:
        print("  no dominant periodic interference detected")
    return 0


def _cmd_machines(args: argparse.Namespace) -> int:
    from .core import from_machine
    from .simsys import MACHINES, get_machine

    for name in sorted(MACHINES):
        m = get_machine(name)
        print(f"== {name}: {m.description}")
        print(from_machine(m).checklist())
        print()
    return 0


_CHECK_TEMPLATE = {
    "reports_speedup": True,
    "speedup_base_case": "single_parallel_process",
    "base_absolute_performance": 0.02,
    "data_deterministic": False,
    "reports_confidence_intervals": True,
    "uses_parametric_statistics": False,
    "normality_checked": False,
    "compares_alternatives": False,
    "comparison_method": "none",
    "factors_documented": True,
    "is_parallel_measurement": True,
    "sync_method": "window scheme",
    "rank_summary_method": "max across ranks",
    "bounds_model_shown": True,
    "reported_unit_strings": ["77.38 Tflop/s"],
}


def _cmd_check(args: argparse.Namespace) -> int:
    from .core import ExperimentDeclaration, check_all

    if args.template:
        print(json.dumps(_CHECK_TEMPLATE, indent=2))
        return 0
    if not args.declaration:
        print("error: provide a declaration file or --template", file=sys.stderr)
        return 2
    with open(args.declaration) as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict):
        print(
            f"error: a declaration is a JSON object of fields, got "
            f"{type(payload).__name__} (see --template)",
            file=sys.stderr,
        )
        return 2
    valid = set(ExperimentDeclaration.__dataclass_fields__)
    unknown = set(payload) - valid
    if unknown:
        print(f"error: unknown declaration fields {sorted(unknown)}", file=sys.stderr)
        return 2
    decl = ExperimentDeclaration(**payload)
    card = check_all(decl)
    print(card.summary())
    return 0 if card.all_passed else 1


def _cmd_compare(args: argparse.Namespace) -> int:
    """``repro compare``: the benchmark regression gate (see docs/COMPARE.md)."""
    from .compare import (
        BenchSuiteResult,
        compare_histories,
        compare_runs,
        compare_runs_sequential,
        history_labels,
    )
    from .obs import Provenance
    from .report import compare_markdown, compare_table

    suites = [BenchSuiteResult.load(p) for p in args.suites]
    history = None
    if len(suites) == 2:
        if args.sequential:
            comparison = compare_runs_sequential(
                suites[0], suites[1],
                confidence=args.confidence, min_effect=args.min_effect,
            )
        else:
            comparison = compare_runs(
                suites[0], suites[1],
                confidence=args.confidence, min_effect=args.min_effect,
                bootstrap=not args.no_bootstrap, n_boot=args.n_boot,
                seed=args.seed,
            )
        ok = comparison.ok
    else:
        history = compare_histories(
            suites, labels=history_labels(args.suites),
            confidence=args.confidence, min_effect=args.min_effect,
            bootstrap=not args.no_bootstrap, n_boot=args.n_boot,
            seed=args.seed,
        )
        for step in history.steps:
            s = step.comparison.summary()
            print(
                f"step -> {step.label}: {s['regressions']} regressed, "
                f"{s['improvements']} improved of {s['records']} shared"
            )
        comparison = history.overall
        ok = history.ok
    print(compare_table(comparison))
    if args.out:
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        payload = history.to_dict() if history is not None else comparison.to_dict()
        json_path = out_dir / "compare_report.json"
        json_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        provenance = Provenance.capture(
            master_seed=args.seed,
            methodology={
                "suites": [str(p) for p in args.suites],
                "confidence": args.confidence,
                "min_effect": args.min_effect,
                "sequential": bool(args.sequential),
            },
        ).to_dict()
        md_path = out_dir / "compare_report.md"
        md_path.write_text(compare_markdown(comparison, provenance=provenance))
        print(f"report written to {json_path} (+ {md_path.name})", file=sys.stderr)
    if not ok:
        regressed = ", ".join(r.key for r in comparison.regressions) or "history step"
        print(f"COMPARE GATE FAILED: significant regression in {regressed}",
              file=sys.stderr)
        return 1
    return 0


def _cmd_store(args: argparse.Namespace) -> int:
    """``repro store``: inspect/verify/compact a shard store (docs/STORE.md)."""
    from .report import store_markdown, store_table, store_verify_table
    from .store import ShardStore

    path = Path(args.dir)
    # Accept a campaign directory as shorthand for its store/ subdirectory.
    if not (path / "manifest.json").exists() and (
        path / "store" / "manifest.json"
    ).exists():
        path = path / "store"
    if not (path / "manifest.json").exists():
        print(f"error: no shard store at {path}", file=sys.stderr)
        return 2
    store = ShardStore(path)

    if args.action == "inspect":
        if args.json:
            print(json.dumps(store.stats().as_dict(), indent=2, sort_keys=True))
        else:
            print(store_table(store))
        return 0

    if args.action == "verify":
        import warnings

        # verify() already reports quarantines in its table; the warning
        # channel would just duplicate them on stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            report = store.verify()
        if args.json:
            print(json.dumps(report, indent=2, sort_keys=True))
        else:
            print(store_verify_table(report))
        if args.out:
            out_dir = Path(args.out)
            out_dir.mkdir(parents=True, exist_ok=True)
            json_path = out_dir / "store_report.json"
            json_path.write_text(
                json.dumps(
                    {"stats": store.stats().as_dict(), "verify": report},
                    indent=2,
                    sort_keys=True,
                )
                + "\n"
            )
            md_path = out_dir / "store_report.md"
            md_path.write_text(store_markdown(store, verify=report))
            print(
                f"report written to {json_path} (+ {md_path.name})",
                file=sys.stderr,
            )
        if not report["ok"]:
            print(
                f"STORE VERIFY FAILED: {report['corrupt']} shard(s) "
                f"quarantined, "
                f"{report['entries'] - report['entries_after']} entries lost",
                file=sys.stderr,
            )
            return 1
        return 0

    result = store.compact()
    print(
        f"compacted {path}: reclaimed {result['bytes_reclaimed']} bytes "
        f"({result['shards_before']} -> {result['shards_after']} shard(s))"
    )
    return 0


def _figure_service(args: argparse.Namespace, registry):
    """Build the FigureService shared by ``render`` and ``serve``."""
    from .core import Campaign
    from .report.registry import FigureService

    campaign = None
    if args.campaign:
        campaign = Campaign.open(args.campaign)
    return FigureService(
        args.cache_dir,
        campaign=campaign,
        quick=args.quick,
        seed=args.seed,
        metrics=registry,
    )


def _requested_figures(requested, available, hint: str = "") -> list[str]:
    """*requested* (default: all *available*); ValidationError naming unknowns."""
    from .errors import ValidationError

    unknown = [n for n in requested if n not in available]
    if unknown:
        raise ValidationError(
            f"unknown or unavailable figure(s) {unknown}; available: "
            f"{available}{hint}"
        )
    return list(requested or available)


def _cmd_render(args: argparse.Namespace) -> int:
    """``repro render``: materialize registry figures (see docs/REPORT.md)."""
    registry = None
    if args.emit_metrics:
        from .obs import MetricsRegistry

        registry = MetricsRegistry()
        registry.bind_serve_metrics()
    service = _figure_service(args, registry)
    available = service.names()
    if args.list:
        for name in available:
            entry = service.entry(name)
            print(f"{name:<22} {entry.title}")
        return 0
    names = _requested_figures(
        args.figures, available, " (campaign figures need --campaign)"
    )
    for name in names:
        rendered = service.render(name)
        origin = "cache" if rendered.cached else "built"
        print(f"{name}: {origin} key={rendered.key}")
        for fmt in ("json", "vl.json", "html"):
            print(f"  {rendered.path(fmt)}")
    if registry is not None:
        _write_metrics(registry, args.emit_metrics)
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the figure HTTP service (see docs/REPORT.md)."""
    from .obs import MetricsRegistry
    from .serve import run_server

    registry = MetricsRegistry()
    registry.bind_serve_metrics()
    service = _figure_service(args, registry)
    tracer = None
    if args.trace:
        from .obs import JsonlSpanSink, Tracer

        tracer = Tracer(sink=JsonlSpanSink(args.trace))

    def ready(server) -> None:
        # Flush so wrappers tailing a redirected log see the URL
        # immediately, not at process exit.
        print(
            f"serving {len(service.names())} figure(s) on {server.url} "
            f"(cache: {service.cache_dir})",
            file=sys.stderr,
            flush=True,
        )

    run_server(
        service,
        host=args.host,
        port=args.port,
        metrics=registry,
        tracer=tracer,
        ready=ready,
    )
    if args.emit_metrics:
        _write_metrics(registry, args.emit_metrics)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser (exposed for tests and docs)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Scientific benchmarking of parallel computing systems "
        "(Hoefler & Belli, SC'15) — reproduction toolkit.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "figures", help="print the paper figures' data as text tables",
    )
    p.add_argument("figures", nargs="*", metavar="FIGURE",
                   help="registry names of paper figures (default: all)")
    p.add_argument("--quick", action="store_true",
                   help="reduced-fidelity registry parameters (the ones "
                        "`render --quick` uses)")
    p.add_argument("--seed", type=int, default=0,
                   help="simulation seed")
    p.add_argument("--workers", type=int, default=1,
                   help="regenerate figures in parallel over N worker "
                        "processes (default: serial)")
    p.add_argument("--emit-metrics", metavar="PATH",
                   help="write execution metrics to PATH (.json for JSON, "
                        "anything else for Prometheus text format)")
    p.set_defaults(func=_cmd_figures)

    p = sub.add_parser(
        "campaign",
        help="run a small synthetic campaign (datasets + cache + trace)",
    )
    p.add_argument("--dir", required=True,
                   help="campaign directory (created if needed; rerunning "
                        "answers repeated points from the result cache)")
    p.add_argument("--samples", type=int, default=100,
                   help="measurement values per task (default 100)")
    p.add_argument("--reps", type=int, default=3,
                   help="replications per design point (default 3)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--dist", type=int, default=0, metavar="N",
                   help="run the campaign on the distributed backend with "
                        "N socket workers (overrides --workers)")
    p.add_argument("--dist-spawn", choices=["fork", "cli"], default="cli",
                   help="how the coordinator launches dist workers: 'cli' "
                        "runs `repro worker` subprocesses (default), 'fork' "
                        "forks in-interpreter")
    p.add_argument("--spill-rows", type=int, default=0, metavar="N",
                   help="spill datasets/cache values of N+ rows to the "
                        "campaign's columnar shard store (0 = keep inline)")
    p.add_argument("--emit-metrics", metavar="PATH",
                   help="write execution metrics to PATH (.json for JSON, "
                        "anything else for Prometheus text format)")
    p.set_defaults(func=_cmd_campaign)

    p = sub.add_parser(
        "worker",
        help="run one distributed-backend worker rank (see docs/EXEC.md)",
    )
    p.add_argument("--connect", required=True, metavar="HOST:PORT",
                   help="the coordinator's listen address")
    p.add_argument("--rank", type=int, default=-1,
                   help="this worker's rank (default: coordinator assigns)")
    p.add_argument("--connect-timeout", type=float, default=10.0,
                   help="seconds to keep retrying the initial connection")
    p.set_defaults(func=_cmd_worker)

    p = sub.add_parser(
        "chaos",
        help="run the fault-injection gate (campaign must degrade gracefully)",
    )
    p.add_argument("--profile", choices=sorted(_chaos_profiles()), default="smoke",
                   help="fault profile (default: smoke)")
    p.add_argument("--dir", required=True,
                   help="scratch directory for fault markers, the result "
                        "cache, and the report")
    p.add_argument("--seed", type=int, default=12,
                   help="fault-plan master seed (default 12, pinned so the "
                        "smoke profile plants every fault kind)")
    p.add_argument("--workers", type=int, default=1,
                   help="run campaign phases over N worker processes")
    p.add_argument("--out", metavar="DIR",
                   help="write chaos_report.json/.md into DIR "
                        "(default: --dir)")
    p.add_argument("--emit-metrics", metavar="PATH",
                   help="write repro_chaos_* metrics "
                        "(.json or Prometheus text)")
    p.set_defaults(func=_cmd_chaos)

    p = sub.add_parser("trace", help="render a recorded span trace")
    p.add_argument("run", help="trace.jsonl file, or a campaign directory "
                               "containing one")
    p.set_defaults(func=_cmd_trace)

    p = sub.add_parser("table1", help="regenerate the survey table")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser(
        "calibrate",
        help="calibrate this host's timer, or (--profile) the stats layer",
    )
    p.add_argument("--samples", type=int, default=10_000,
                   help="timer-calibration sample count (default mode)")
    p.add_argument("--profile", choices=("smoke", "full", "micro"),
                   help="run the Monte-Carlo statistical calibration "
                        "harness at this effort profile instead")
    p.add_argument("--seed", type=int, default=0,
                   help="master seed of the calibration study")
    p.add_argument("--workers", type=int, default=1,
                   help="fan calibration batches over N processes")
    p.add_argument("--out", metavar="DIR",
                   help="write calibration_report.json/.md into DIR")
    p.add_argument("--cache", metavar="DIR",
                   help="ResultCache directory for calibration batches")
    p.add_argument("--emit-metrics", metavar="PATH",
                   help="write repro_validate_* metrics "
                        "(.json or Prometheus text)")
    p.set_defaults(func=_cmd_calibrate)

    p = sub.add_parser(
        "compare",
        help="compare BENCH_*.json suites; exit 1 on significant regression",
    )
    p.add_argument("suites", nargs="+", metavar="SUITE",
                   help="two suite files (baseline current), or more for a "
                        "chronological history (oldest first)")
    p.add_argument("--confidence", type=float, default=0.95,
                   help="effect-size CI confidence level (default 0.95)")
    p.add_argument("--min-effect", type=float, default=0.02,
                   help="minimum ratio change that counts as a real effect "
                        "(default 0.02 = 2%%)")
    p.add_argument("--n-boot", type=int, default=1000,
                   help="hierarchical-bootstrap replicates (default 1000)")
    p.add_argument("--no-bootstrap", action="store_true",
                   help="skip the bootstrap cross-check (asymptotic CI only)")
    p.add_argument("--sequential", action="store_true",
                   help="replay runs through the sequential gate, stopping "
                        "per benchmark as soon as the verdict is significant")
    p.add_argument("--seed", type=int, default=0,
                   help="bootstrap resampling seed")
    p.add_argument("--out", metavar="DIR",
                   help="write compare_report.json/.md into DIR")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser(
        "store",
        help="inspect/verify/compact a columnar shard store",
    )
    p.add_argument("action", choices=("inspect", "verify", "compact"),
                   help="inspect: shape + shard table; verify: re-digest "
                        "every shard (exit 1 on quarantine); compact: "
                        "rewrite live entries, reclaim removed bytes")
    p.add_argument("dir", help="store directory, or a campaign directory "
                               "containing one")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output instead of tables")
    p.add_argument("--out", metavar="DIR",
                   help="(verify) write store_report.json/.md into DIR")
    p.set_defaults(func=_cmd_store)

    for cmd, helptext in (
        ("render", "render registry figures into a content-addressed cache"),
        ("serve", "serve registry figures over HTTP"),
    ):
        p = sub.add_parser(cmd, help=helptext)
        if cmd == "render":
            p.add_argument("figures", nargs="*", metavar="FIGURE",
                           help="figure names (default: all available; "
                                "see --list)")
            p.add_argument("--list", action="store_true",
                           help="list available figures and exit")
        p.add_argument("--cache-dir", default="figure-cache", metavar="DIR",
                       help="content-addressed figure cache directory "
                            "(default: ./figure-cache)")
        p.add_argument("--campaign", metavar="DIR",
                       help="campaign directory backing campaign figures "
                            "(e.g. campaign_trajectory)")
        p.add_argument("--quick", action="store_true",
                       help="reduced-fidelity parameters (fast CI/dev "
                            "renders; keyed separately from full renders)")
        p.add_argument("--seed", type=int, default=0,
                       help="simulation seed (part of the content key)")
        p.add_argument("--emit-metrics", metavar="PATH",
                       help="write repro_serve_* metrics "
                            "(.json or Prometheus text)")
        if cmd == "serve":
            p.add_argument("--host", default="127.0.0.1")
            p.add_argument("--port", type=int, default=8472,
                           help="listen port (default 8472; 0 = ephemeral)")
            p.add_argument("--trace", metavar="PATH",
                           help="record serve-request spans to a JSONL file")
        p.set_defaults(func=_cmd_render if cmd == "render" else _cmd_serve)

    p = sub.add_parser("machines", help="describe the simulated machines")
    p.set_defaults(func=_cmd_machines)

    p = sub.add_parser("noise", help="measure this host's noise (FWQ)")
    p.add_argument("--quantum", type=float, default=1e-3,
                   help="work quantum in seconds (default 1 ms)")
    p.add_argument("--iterations", type=int, default=500)
    p.set_defaults(func=_cmd_noise)

    p = sub.add_parser("check", help="run the twelve-rules checker")
    p.add_argument("declaration", nargs="?", help="JSON declaration file")
    p.add_argument("--template", action="store_true",
                   help="print a JSON declaration template and exit")
    p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Exit codes: 0 success, 1 gate/check failure, 2 bad input.  Bad input
    (``ReproError`` — including ``ValidationError`` — plus OS and JSON
    errors from user-supplied files) is reported as one ``error:`` line
    on stderr instead of a traceback, uniformly across subcommands.
    """
    from .errors import ReproError

    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return int(args.func(args))
    except BrokenPipeError:
        # stdout went away (e.g. piped into head); not an error.
        return 0
    except (ReproError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
