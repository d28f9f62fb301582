"""Statistically sound comparison of measurement groups (Section 3.2, Rule 7).

Provides the paper's comparison toolbox:

* Student/Welch t-tests for two means,
* one-way ANOVA (F test) for k means — used both for comparing systems and
  as the Rule-10 gate before summarizing timings across processes,
* the nonparametric Kruskal–Wallis test for k medians,
* the effect size E = (X̄ᵢ − X̄ⱼ)/√igv the paper recommends over bare
  p-values, and
* CI-overlap based significance (``compare_groups(...).ci_separated``).

The F and H statistics are computed from first principles (the formulas
the paper presents, with its well-known typos corrected to the standard
definitions) and cross-checkable against scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np
from scipy import stats as _sps

from .._validation import as_sample, check_prob
from ..errors import InsufficientDataError, ValidationError
from .ci import ConfidenceInterval, intervals_overlap, mean_ci

__all__ = [
    "TestOutcome",
    "t_test",
    "one_way_anova",
    "kruskal_wallis",
    "effect_size",
    "compare_groups",
    "GroupComparison",
]


@dataclass(frozen=True)
class TestOutcome:
    """Result of a hypothesis test.

    ``statistic`` is the test statistic (t, F, or H), ``p_value`` the
    probability of data at least this extreme under the null hypothesis of
    equal means/medians, ``df`` the degrees of freedom (tuple for F).
    """

    name: str
    statistic: float
    p_value: float
    df: tuple[float, ...]
    note: str = ""

    def significant(self, alpha: float = 0.05) -> bool:
        """True when the null hypothesis is rejected at level *alpha*."""
        check_prob(alpha, "alpha")
        return self.p_value < alpha


def _as_groups(groups: Sequence[Iterable[float]], min_k: int, what: str) -> list[np.ndarray]:
    if len(groups) < min_k:
        raise ValidationError(f"{what} needs at least {min_k} groups, got {len(groups)}")
    return [as_sample(g, min_n=2, what=f"{what} group {i}") for i, g in enumerate(groups)]


def t_test(
    a: Iterable[float], b: Iterable[float], *, equal_var: bool = False
) -> TestOutcome:
    """Two-sample t-test for equality of means.

    Defaults to Welch's variant (``equal_var=False``), which drops the
    equal-variance assumption the classic test needs; the paper notes the
    classic test "requires iid data from normal distributions with similar
    standard deviations".
    """
    x = as_sample(a, min_n=2, what="t-test group a")
    y = as_sample(b, min_n=2, what="t-test group b")
    name = "t-test" if equal_var else "welch-t-test"
    # The t statistic is invariant under a common positive rescaling;
    # shrink huge-magnitude samples so the variance cannot overflow to
    # inf (which scipy would propagate as a nan p-value).
    magnitude = max(float(np.abs(x).max()), float(np.abs(y).max()))
    if magnitude > 1e150:
        x = x / magnitude
        y = y / magnitude
    if x.var(ddof=1) == 0.0 and y.var(ddof=1) == 0.0:
        # Degenerate: both groups constant (scipy yields nan). Identical
        # constants -> no evidence; different constants -> infinitely
        # strong evidence, mirroring the ANOVA degenerate path.
        df = float(x.size + y.size - 2)
        if x[0] == y[0]:
            return TestOutcome(name, 0.0, 1.0, (df,))
        stat = math.inf if x[0] > y[0] else -math.inf
        return TestOutcome(name, stat, 0.0, (df,))
    stat, p = _sps.ttest_ind(x, y, equal_var=equal_var)
    if equal_var:
        df = float(x.size + y.size - 2)
    else:
        va, vb = x.var(ddof=1) / x.size, y.var(ddof=1) / y.size
        denom = va**2 / (x.size - 1) + vb**2 / (y.size - 1)
        df = float((va + vb) ** 2 / denom) if denom > 0 else float(x.size + y.size - 2)
    return TestOutcome(name, float(stat), float(p), (df,))


def one_way_anova(groups: Sequence[Iterable[float]]) -> TestOutcome:
    """One-factor analysis of variance (Section 3.2.1).

    Computes ``F = egv / igv`` where ``egv`` (the paper's inter-group
    variability) is the between-group mean square
    ``Σ nᵢ(x̄ᵢ − x̄)²/(k − 1)`` and ``igv`` the within-group mean square
    ``ΣΣ(xᵢⱼ − x̄ᵢ)²/(N − k)``.  (The paper's formulas index these slightly
    inconsistently; these are the standard definitions they intend.)
    The null hypothesis is that all group means are equal.  Groups may have
    unequal sizes.
    """
    gs = _as_groups(groups, 2, "ANOVA")
    k = len(gs)
    sizes = np.array([g.size for g in gs], dtype=np.float64)
    n_total = sizes.sum()
    means = np.array([g.mean() for g in gs])
    grand = float(np.concatenate(gs).mean())
    ss_between = float(np.sum(sizes * (means - grand) ** 2))
    ss_within = float(sum(((g - g.mean()) ** 2).sum() for g in gs))
    df_between = k - 1
    df_within = int(n_total) - k
    if df_within <= 0:
        raise InsufficientDataError(k + 1, int(n_total), "ANOVA")
    egv = ss_between / df_between
    igv = ss_within / df_within
    if igv == 0.0:
        # Degenerate: zero within-group variance. Identical means -> F = 0,
        # otherwise infinitely strong evidence of a difference.
        f = 0.0 if ss_between == 0.0 else math.inf
        p = 1.0 if ss_between == 0.0 else 0.0
    else:
        f = egv / igv
        p = float(_sps.f.sf(f, df_between, df_within))
    return TestOutcome("anova-F", float(f), float(p), (float(df_between), float(df_within)))


def kruskal_wallis(groups: Sequence[Iterable[float]]) -> TestOutcome:
    """Kruskal–Wallis rank-based one-way ANOVA (Section 3.2.2).

    Nonparametric test that the medians of k groups are equal; appropriate
    for the non-normal distributions measured on real systems.  Uses
    midranks with the standard tie correction, and the χ²(k−1) large-sample
    approximation for the p-value.
    """
    gs = _as_groups(groups, 2, "Kruskal-Wallis")
    k = len(gs)
    all_values = np.concatenate(gs)
    n_total = all_values.size
    ranks = _sps.rankdata(all_values)  # midranks for ties
    h = 0.0
    start = 0
    for g in gs:
        r = ranks[start : start + g.size]
        h += r.sum() ** 2 / g.size
        start += g.size
    h = 12.0 / (n_total * (n_total + 1)) * h - 3.0 * (n_total + 1)
    # Tie correction: divide by 1 - sum(t^3 - t)/(N^3 - N).
    _, counts = np.unique(all_values, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    denom = 1.0 - tie_term / (n_total**3 - n_total)
    if denom <= 0.0:
        # All values identical: no evidence of any difference.
        return TestOutcome("kruskal-wallis-H", 0.0, 1.0, (float(k - 1),), "all ties")
    h /= denom
    p = float(_sps.chi2.sf(h, k - 1))
    note = "" if min(g.size for g in gs) >= 5 else "small groups: chi2 approximation weak"
    return TestOutcome("kruskal-wallis-H", float(h), p, (float(k - 1),), note)


def effect_size(a: Iterable[float], b: Iterable[float]) -> float:
    """The paper's effect size ``E = (X̄ᵢ − X̄ⱼ)/√igv`` (Section 3.2.2).

    The difference of group means in units of the pooled within-group
    standard deviation — how large the difference is, not merely whether
    it is detectable.  Signed: positive when ``mean(a) > mean(b)``.
    """
    x = as_sample(a, min_n=2, what="effect size group a")
    y = as_sample(b, min_n=2, what="effect size group b")
    ss_within = ((x - x.mean()) ** 2).sum() + ((y - y.mean()) ** 2).sum()
    df_within = x.size + y.size - 2
    igv = ss_within / df_within
    if igv == 0.0:
        diff = float(x.mean() - y.mean())
        return 0.0 if diff == 0.0 else math.copysign(math.inf, diff)
    return float((x.mean() - y.mean()) / math.sqrt(igv))


@dataclass(frozen=True)
class GroupComparison:
    """Full comparison report for k groups (what Rule 7 asks to be done).

    Combines the parametric and nonparametric tests with the effect size
    for each group pair so readers can judge both significance and
    magnitude.
    """

    anova: TestOutcome
    kruskal: TestOutcome
    effect_sizes: dict[tuple[int, int], float]
    alpha: float
    confidence: float = 0.95
    mean_cis: tuple[ConfidenceInterval, ...] = ()
    ci_separated: dict[tuple[int, int], bool] = field(default_factory=dict)

    @property
    def means_differ(self) -> bool:
        """ANOVA verdict at the stored alpha."""
        return self.anova.significant(self.alpha)

    @property
    def medians_differ(self) -> bool:
        """Kruskal–Wallis verdict at the stored alpha."""
        return self.kruskal.significant(self.alpha)

    def separated(self, i: int, j: int) -> bool:
        """CI-overlap verdict for groups *i* and *j* (order-insensitive)."""
        key = (i, j) if i < j else (j, i)
        if key not in self.ci_separated:
            raise ValidationError(f"no such group pair {key} in this comparison")
        return self.ci_separated[key]


def compare_groups(
    groups: Sequence[Iterable[float]],
    alpha: float = 0.05,
    *,
    confidence: float = 0.95,
) -> GroupComparison:
    """The one-stop k-group comparison Rule 7 asks for.

    Runs the parametric (ANOVA) and nonparametric (Kruskal–Wallis)
    significance tests, computes the paper's effect size E for every
    group pair, and reports each group's mean confidence interval at
    *confidence* plus the conservative CI-overlap verdicts
    (``ci_separated[(i, j)]`` is ``True`` when the two intervals do not
    overlap, which establishes a significant difference on its own).
    """
    check_prob(alpha, "alpha")
    check_prob(confidence, "confidence")
    gs = _as_groups(groups, 2, "comparison")
    effects = {
        (i, j): effect_size(gs[i], gs[j])
        for i in range(len(gs))
        for j in range(i + 1, len(gs))
    }
    cis = tuple(mean_ci(g, confidence) for g in gs)
    separated = {
        (i, j): not intervals_overlap(cis[i], cis[j])
        for i in range(len(gs))
        for j in range(i + 1, len(gs))
    }
    return GroupComparison(
        anova=one_way_anova(gs),
        kruskal=kruskal_wallis(gs),
        effect_sizes=effects,
        alpha=alpha,
        confidence=confidence,
        mean_cis=cis,
        ci_separated=separated,
    )
