"""The continuous-benchmarking regression engine (``compare_runs``).

Given two :class:`~repro.compare.record.BenchSuiteResult` files — a
committed baseline and a fresh run — the engine compares every shared
record with the Kalibera–Jones effect-size CI on the ratio of means
(:mod:`repro.compare.kalibera`), cross-checks it with the hierarchical
bootstrap, and renders a per-record verdict:

``regression``
    the whole ratio CI lies above the regression threshold — the
    slowdown is statistically significant *and* larger than the minimum
    effect anyone cares about;
``improvement``
    the whole CI lies below the improvement threshold;
``indistinguishable``
    the CI straddles 1 (or the effect is smaller than the threshold);
``incomparable``
    not enough independent replication for a defensible interval
    (e.g. a single-run record) — reported with the point ratio, but
    never allowed to fail a gate: the paper's Rule 7 forbids claiming a
    change without sound statistics.

:class:`SequentialGate` adds the operational trick of the continuous-
benchmarking model: runs are fed in one pair at a time, and sampling
stops — reusing :class:`repro.stats.SequentialChecker` as the CI-width
stopping rule — as soon as the verdict is significant either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

from .._validation import check_int, check_positive, check_prob
from ..errors import InsufficientDataError, ValidationError
from ..stats.ci import ConfidenceInterval
from ..stats.samplesize import SequentialChecker
from .kalibera import ratio_ci, ratio_ci_bootstrap
from .record import BenchRecord, BenchSuiteResult

__all__ = [
    "RecordComparison",
    "SuiteComparison",
    "HistoryStep",
    "HistoryComparison",
    "compare_records",
    "compare_runs",
    "compare_runs_sequential",
    "compare_histories",
    "SequentialGate",
    "GateDecision",
]

#: Default minimum effect size: ratio changes within ±2% are treated as
#: noise even when statistically resolvable (practical significance).
DEFAULT_MIN_EFFECT = 0.02


def _ci_to_dict(ci: ConfidenceInterval | None) -> dict[str, Any] | None:
    if ci is None:
        return None
    return {
        "estimate": ci.estimate,
        "low": ci.low,
        "high": ci.high,
        "confidence": ci.confidence,
        "statistic": ci.statistic,
        "n": ci.n,
    }


@dataclass(frozen=True)
class RecordComparison:
    """Verdict for one shared benchmark configuration.

    ``ratio`` is ``new_mean / old_mean`` — above 1 means the new run is
    slower (records hold costs, not rates).  ``ci`` is the Kalibera–
    Jones asymptotic interval on that ratio, ``bootstrap_ci`` the
    hierarchical-bootstrap cross-check; ``statistical`` is False when
    replication was insufficient and only the point ratio is reported.
    """

    key: str
    unit: str
    old_mean: float
    new_mean: float
    ratio: float
    verdict: str
    statistical: bool
    ci: ConfidenceInterval | None = None
    bootstrap_ci: ConfidenceInterval | None = None
    old_runs: int = 0
    new_runs: int = 0
    note: str = ""

    @property
    def is_regression(self) -> bool:
        """True when this record's verdict is a significant regression."""
        return self.verdict == "regression"

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload for reports."""
        return {
            "key": self.key,
            "unit": self.unit,
            "old_mean": self.old_mean,
            "new_mean": self.new_mean,
            "ratio": self.ratio,
            "verdict": self.verdict,
            "statistical": self.statistical,
            "ci": _ci_to_dict(self.ci),
            "bootstrap_ci": _ci_to_dict(self.bootstrap_ci),
            "old_runs": self.old_runs,
            "new_runs": self.new_runs,
            "note": self.note,
        }


def compare_records(
    old: BenchRecord,
    new: BenchRecord,
    *,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    bootstrap: bool = True,
    n_boot: int = 1000,
    seed: int = 0,
) -> RecordComparison:
    """Compare one configuration's new samples against its baseline.

    The regression threshold is ``1 + min_effect`` and the improvement
    threshold ``1 / (1 + min_effect)`` (symmetric in log space).  A
    verdict is only ``regression``/``improvement`` when the *entire*
    effect-size CI clears the threshold — significance and magnitude at
    once, per Kalibera & Jones.
    """
    check_prob(confidence, "confidence")
    if not (0.0 <= min_effect < 1.0):
        raise ValidationError(f"min_effect must be in [0, 1), got {min_effect}")
    if old.key != new.key:
        raise ValidationError(
            f"cannot compare different configurations: {old.key!r} vs {new.key!r}"
        )
    if old.unit != new.unit:
        raise ValidationError(
            f"unit mismatch for {old.key!r}: {old.unit!r} vs {new.unit!r}"
        )
    old_mean, new_mean = old.mean, new.mean
    if old_mean == 0.0:
        raise ValidationError(f"baseline mean for {old.key!r} is zero; ratio undefined")
    ratio = new_mean / old_mean
    up = 1.0 + min_effect
    down = 1.0 / up

    if old.n_runs < 2 or new.n_runs < 2:
        return RecordComparison(
            key=old.key,
            unit=old.unit,
            old_mean=old_mean,
            new_mean=new_mean,
            ratio=ratio,
            verdict="incomparable",
            statistical=False,
            old_runs=old.n_runs,
            new_runs=new.n_runs,
            note=(
                "insufficient replication for a confidence interval "
                f"(runs: {old.n_runs} baseline, {new.n_runs} current; need >= 2 each)"
            ),
        )

    ci = ratio_ci(new.samples, old.samples, confidence=confidence)
    boot = None
    note = ""
    if bootstrap:
        boot = ratio_ci_bootstrap(
            new.samples, old.samples,
            confidence=confidence, n_boot=n_boot, seed=seed,
        )
        if boot.low > ci.high or boot.high < ci.low:
            note = "bootstrap cross-check disagrees with the asymptotic CI"
    if not math.isfinite(ci.low) or not math.isfinite(ci.high):
        verdict = "indistinguishable"
        note = (note + "; " if note else "") + "ratio CI unbounded (baseline mean not resolved)"
    elif ci.low > up:
        verdict = "regression"
    elif ci.high < down:
        verdict = "improvement"
    else:
        verdict = "indistinguishable"
    return RecordComparison(
        key=old.key,
        unit=old.unit,
        old_mean=old_mean,
        new_mean=new_mean,
        ratio=ratio,
        verdict=verdict,
        statistical=True,
        ci=ci,
        bootstrap_ci=boot,
        old_runs=old.n_runs,
        new_runs=new.n_runs,
        note=note,
    )


@dataclass(frozen=True)
class SuiteComparison:
    """The whole-suite comparison report.

    ``records`` holds one :class:`RecordComparison` per shared key;
    ``only_old``/``only_new`` list configurations present on one side
    only (never gate-failing — a new benchmark is not a regression).
    """

    records: tuple[RecordComparison, ...]
    only_old: tuple[str, ...] = ()
    only_new: tuple[str, ...] = ()
    confidence: float = 0.95
    min_effect: float = DEFAULT_MIN_EFFECT

    @property
    def regressions(self) -> tuple[RecordComparison, ...]:
        """Shared records whose verdict is a significant regression."""
        return tuple(r for r in self.records if r.is_regression)

    @property
    def improvements(self) -> tuple[RecordComparison, ...]:
        """Shared records whose verdict is a significant improvement."""
        return tuple(r for r in self.records if r.verdict == "improvement")

    @property
    def incomparable(self) -> tuple[RecordComparison, ...]:
        """Shared records lacking the replication for any verdict."""
        return tuple(r for r in self.records if r.verdict == "incomparable")

    @property
    def ok(self) -> bool:
        """Gate verdict: True when no significant regression was found."""
        return not self.regressions

    def summary(self) -> dict[str, Any]:
        """Count summary for logs and report headers."""
        return {
            "records": len(self.records),
            "regressions": len(self.regressions),
            "improvements": len(self.improvements),
            "indistinguishable": sum(
                1 for r in self.records if r.verdict == "indistinguishable"
            ),
            "incomparable": len(self.incomparable),
            "only_old": len(self.only_old),
            "only_new": len(self.only_new),
        }

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload (``compare_report.json``)."""
        return {
            "confidence": self.confidence,
            "min_effect": self.min_effect,
            "ok": self.ok,
            "summary": self.summary(),
            "records": [r.to_dict() for r in self.records],
            "only_old": list(self.only_old),
            "only_new": list(self.only_new),
        }


def compare_runs(
    baseline: BenchSuiteResult,
    current: BenchSuiteResult,
    *,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    bootstrap: bool = True,
    n_boot: int = 1000,
    seed: int = 0,
) -> SuiteComparison:
    """Compare a fresh benchmark suite against its baseline, key by key.

    The central API of the regression engine: every configuration present
    in both suites gets a Kalibera–Jones effect-size verdict; the
    resulting :class:`SuiteComparison` is the machine-readable gate
    (``.ok``) plus everything a report needs.
    """
    if not isinstance(baseline, BenchSuiteResult) or not isinstance(current, BenchSuiteResult):
        raise ValidationError("compare_runs expects two BenchSuiteResult instances")
    shared = [k for k in baseline.keys() if k in current]
    comparisons = tuple(
        compare_records(
            baseline.records[k],
            current.records[k],
            confidence=confidence,
            min_effect=min_effect,
            bootstrap=bootstrap,
            n_boot=n_boot,
            seed=seed + i,
        )
        for i, k in enumerate(shared)
    )
    return SuiteComparison(
        records=comparisons,
        only_old=tuple(k for k in baseline.keys() if k not in current),
        only_new=tuple(k for k in current.keys() if k not in baseline),
        confidence=confidence,
        min_effect=min_effect,
    )


@dataclass(frozen=True)
class HistoryStep:
    """One step of a benchmark trajectory: suite *label* vs its predecessor."""

    label: str
    comparison: SuiteComparison

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload for history reports."""
        return {"label": self.label, "comparison": self.comparison.to_dict()}


@dataclass(frozen=True)
class HistoryComparison:
    """A trajectory of suites compared consecutively (oldest first).

    ``steps[i]`` compares suite ``i+1`` against suite ``i``; ``overall``
    compares the newest suite against the oldest, catching slow drift
    that no single step resolves.
    """

    labels: tuple[str, ...]
    steps: tuple[HistoryStep, ...]
    overall: SuiteComparison

    @property
    def ok(self) -> bool:
        """True when neither the last step nor the overall drift regressed."""
        return self.overall.ok and (not self.steps or self.steps[-1].comparison.ok)

    def to_dict(self) -> dict[str, Any]:
        """Plain-JSON payload (``compare_history.json``)."""
        return {
            "labels": list(self.labels),
            "ok": self.ok,
            "steps": [s.to_dict() for s in self.steps],
            "overall": self.overall.to_dict(),
        }


def compare_histories(
    suites: Sequence[BenchSuiteResult],
    *,
    labels: Sequence[str] | None = None,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    bootstrap: bool = True,
    n_boot: int = 1000,
    seed: int = 0,
) -> HistoryComparison:
    """Compare a chronological history of suites (oldest first).

    Runs :func:`compare_runs` over every consecutive pair plus newest vs
    oldest, so both sudden regressions and accumulated drift surface.
    """
    if len(suites) < 2:
        raise ValidationError(
            f"a history comparison needs at least 2 suites, got {len(suites)}"
        )
    if labels is None:
        labels = tuple(f"suite{i}" for i in range(len(suites)))
    if len(labels) != len(suites):
        raise ValidationError(
            f"got {len(labels)} labels for {len(suites)} suites"
        )
    steps = tuple(
        HistoryStep(
            label=str(labels[i + 1]),
            comparison=compare_runs(
                suites[i], suites[i + 1],
                confidence=confidence, min_effect=min_effect,
                bootstrap=bootstrap, n_boot=n_boot, seed=seed + 1000 * i,
            ),
        )
        for i in range(len(suites) - 1)
    )
    overall = compare_runs(
        suites[0], suites[-1],
        confidence=confidence, min_effect=min_effect,
        bootstrap=bootstrap, n_boot=n_boot, seed=seed + 1000 * len(suites),
    )
    return HistoryComparison(labels=tuple(str(c) for c in labels), steps=steps, overall=overall)


@dataclass(frozen=True)
class GateDecision:
    """The sequential gate's stopping decision.

    ``verdict`` is ``"regression"``, ``"ok"``, or ``"inconclusive"``
    (budget exhausted or CI tight but straddling the threshold);
    ``runs_used`` counts the run pairs consumed before stopping.
    """

    verdict: str
    runs_used: int
    ci: ConfidenceInterval | None
    reason: str

    @property
    def is_regression(self) -> bool:
        """True when the gate stopped on a significant regression."""
        return self.verdict == "regression"


@dataclass
class SequentialGate:
    """Early-stopping regression verdict over incrementally arriving runs.

    Feed matched (baseline, current) run sample vectors with
    :meth:`add_run_pair`; after each pair the Kalibera–Jones ratio CI is
    recomputed and the gate stops as soon as the verdict is significant:
    the CI clear of the threshold on either side, or — via the embedded
    :class:`repro.stats.SequentialChecker` width rule on the per-run
    ratios — tight enough that continuing cannot change the answer.
    This is what lets ``repro compare --sequential`` (and a CI loop
    wrapping it) stop sampling early instead of always paying the full
    measurement budget.
    """

    confidence: float = 0.95
    min_effect: float = DEFAULT_MIN_EFFECT
    relative_error: float = 0.05
    min_runs: int = 3
    max_runs: int = 30
    _old_runs: list = field(default_factory=list, repr=False)
    _new_runs: list = field(default_factory=list, repr=False)
    _checker: SequentialChecker = field(init=False, repr=False)
    _decision: GateDecision | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        check_prob(self.confidence, "confidence")
        check_prob(self.relative_error, "relative_error")
        check_int(self.min_runs, "min_runs", minimum=2)
        check_int(self.max_runs, "max_runs", minimum=self.min_runs)
        check_positive(self.min_effect + 1.0, "min_effect + 1")
        self._checker = SequentialChecker(
            relative_error=self.relative_error,
            confidence=self.confidence,
            statistic="mean",
            check_every=1,
            min_n=self.min_runs,
        )

    @property
    def n_pairs(self) -> int:
        """Run pairs consumed so far."""
        return len(self._old_runs)

    @property
    def decision(self) -> GateDecision | None:
        """The stopping decision, or ``None`` while still sampling."""
        return self._decision

    def add_run_pair(self, old_run: Iterable[float], new_run: Iterable[float]) -> GateDecision | None:
        """Add one (baseline, current) run pair; returns a decision when done."""
        if self._decision is not None:
            return self._decision
        old = np.asarray(list(old_run), dtype=np.float64)
        new = np.asarray(list(new_run), dtype=np.float64)
        if old.size == 0 or new.size == 0:
            raise ValidationError("gate runs must be non-empty")
        self._old_runs.append(old)
        self._new_runs.append(new)
        if float(old.mean()) == 0.0:
            raise ValidationError("gate baseline run mean is zero; ratio undefined")
        tight = self._checker.add(float(new.mean()) / float(old.mean()))
        if self.n_pairs < self.min_runs:
            return None
        ci = ratio_ci(self._new_runs, self._old_runs, confidence=self.confidence)
        up = 1.0 + self.min_effect
        if math.isfinite(ci.low) and ci.low > up:
            self._decision = GateDecision(
                "regression", self.n_pairs, ci,
                f"ratio CI [{ci.low:.4f}, {ci.high:.4f}] entirely above {up:.4f}",
            )
        elif math.isfinite(ci.high) and ci.high < up:
            # No slowdown beyond the threshold is compatible with the data.
            self._decision = GateDecision(
                "ok", self.n_pairs, ci,
                f"ratio CI [{ci.low:.4f}, {ci.high:.4f}] excludes regressions beyond {up:.4f}",
            )
        elif tight:
            self._decision = GateDecision(
                "inconclusive", self.n_pairs, ci,
                "ratio CI width target reached but the interval straddles "
                f"the threshold {up:.4f}",
            )
        elif self.n_pairs >= self.max_runs:
            self._decision = GateDecision(
                "inconclusive", self.n_pairs, ci,
                f"run budget ({self.max_runs}) exhausted without a significant verdict",
            )
        if self._decision is not None:
            return self._decision
        return None

    def run_record(
        self, old: BenchRecord, new: BenchRecord
    ) -> GateDecision:
        """Feed two stored records' runs pairwise until the gate decides.

        Replays recorded history through the sequential rule — the
        offline counterpart of a live measure-compare loop — consuming
        ``min(old.n_runs, new.n_runs)`` pairs at most and reporting how
        many were actually needed.
        """
        pairs = min(old.n_runs, new.n_runs)
        if pairs < self.min_runs:
            raise InsufficientDataError(self.min_runs, pairs, "sequential gate run pairs")
        for i in range(pairs):
            decision = self.add_run_pair(old.samples[i], new.samples[i])
            if decision is not None:
                return decision
        ci = ratio_ci(self._new_runs, self._old_runs, confidence=self.confidence)
        self._decision = GateDecision(
            "inconclusive", self.n_pairs, ci,
            "recorded runs exhausted without a significant verdict",
        )
        return self._decision


def compare_runs_sequential(
    baseline: BenchSuiteResult,
    current: BenchSuiteResult,
    *,
    confidence: float = 0.95,
    min_effect: float = DEFAULT_MIN_EFFECT,
    relative_error: float = 0.05,
    min_runs: int = 3,
    max_runs: int = 30,
) -> SuiteComparison:
    """Compare two suites replaying runs through the sequential gate.

    Per shared key, stored runs are fed pairwise into a fresh
    :class:`SequentialGate`, which stops as soon as the regression
    verdict is significant — the offline analogue of stopping a live
    benchmark loop early.  Each record's note reports how many of the
    available run pairs the gate actually consumed.  Records without
    enough runs for the gate fall back to :func:`compare_records`
    (which marks them ``incomparable`` below two runs).
    """
    if not isinstance(baseline, BenchSuiteResult) or not isinstance(current, BenchSuiteResult):
        raise ValidationError("compare_runs_sequential expects two BenchSuiteResult instances")
    up = 1.0 + min_effect
    down = 1.0 / up
    comparisons = []
    for key in baseline.keys():
        if key not in current:
            continue
        old, new = baseline.records[key], current.records[key]
        pairs = min(old.n_runs, new.n_runs)
        if pairs < min_runs:
            comparisons.append(
                compare_records(
                    old, new,
                    confidence=confidence, min_effect=min_effect, bootstrap=False,
                )
            )
            continue
        if old.unit != new.unit:
            raise ValidationError(
                f"unit mismatch for {key!r}: {old.unit!r} vs {new.unit!r}"
            )
        gate = SequentialGate(
            confidence=confidence,
            min_effect=min_effect,
            relative_error=relative_error,
            min_runs=min_runs,
            max_runs=max_runs,
        )
        decision = gate.run_record(old, new)
        ci = decision.ci
        if decision.verdict == "regression":
            verdict = "regression"
        elif ci is not None and math.isfinite(ci.high) and ci.high < down:
            verdict = "improvement"
        else:
            verdict = "indistinguishable"
        used_old = [np.asarray(r, dtype=np.float64) for r in old.samples[: decision.runs_used]]
        used_new = [np.asarray(r, dtype=np.float64) for r in new.samples[: decision.runs_used]]
        old_mean = float(np.mean([r.mean() for r in used_old]))
        new_mean = float(np.mean([r.mean() for r in used_new]))
        comparisons.append(
            RecordComparison(
                key=key,
                unit=old.unit,
                old_mean=old_mean,
                new_mean=new_mean,
                ratio=new_mean / old_mean,
                verdict=verdict,
                statistical=True,
                ci=ci,
                old_runs=old.n_runs,
                new_runs=new.n_runs,
                note=(
                    f"sequential gate stopped after {decision.runs_used}/{pairs} "
                    f"run pair(s): {decision.reason}"
                ),
            )
        )
    return SuiteComparison(
        records=tuple(comparisons),
        only_old=tuple(k for k in baseline.keys() if k not in current),
        only_new=tuple(k for k in current.keys() if k not in baseline),
        confidence=confidence,
        min_effect=min_effect,
    )
