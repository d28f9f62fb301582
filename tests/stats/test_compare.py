"""Tests for repro.stats.compare (Rule 7: ANOVA, Kruskal-Wallis, effects)."""

from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from repro.errors import InsufficientDataError, ValidationError
from repro.stats import (
    GroupComparison,
    compare_groups,
    effect_size,
    intervals_overlap,
    kruskal_wallis,
    mean_ci,
    one_way_anova,
    t_test,
)


@pytest.fixture(scope="module")
def two_shifted():
    gen = np.random.default_rng(201)
    return gen.normal(0, 1, 200), gen.normal(0.8, 1, 200)


@pytest.fixture(scope="module")
def two_identical():
    gen = np.random.default_rng(202)
    return gen.normal(5, 1, 200), gen.normal(5, 1, 200)


class TestTTest:
    def test_detects_shift(self, two_shifted):
        assert t_test(*two_shifted).significant(0.01)

    def test_no_false_positive(self, two_identical):
        assert not t_test(*two_identical).significant(0.01)

    def test_welch_default(self, two_shifted):
        assert t_test(*two_shifted).name == "welch-t-test"

    def test_student_variant(self, two_shifted):
        out = t_test(*two_shifted, equal_var=True)
        assert out.name == "t-test"
        assert out.df[0] == 398.0

    def test_matches_scipy(self, two_shifted):
        a, b = two_shifted
        ours = t_test(a, b)
        ref = sps.ttest_ind(a, b, equal_var=False)
        assert ours.statistic == pytest.approx(ref.statistic)
        assert ours.p_value == pytest.approx(ref.pvalue)


class TestANOVA:
    def test_matches_scipy_f_oneway(self, rng):
        groups = [rng.normal(i * 0.3, 1, 50) for i in range(4)]
        ours = one_way_anova(groups)
        ref = sps.f_oneway(*groups)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_unequal_group_sizes(self, rng):
        groups = [rng.normal(0, 1, n) for n in (10, 35, 80)]
        ref = sps.f_oneway(*groups)
        assert one_way_anova(groups).statistic == pytest.approx(ref.statistic)

    def test_identical_groups_f_zero(self):
        g = [1.0, 2.0, 3.0]
        out = one_way_anova([g, g])
        assert out.p_value > 0.5

    def test_zero_within_variance_distinct_means(self):
        out = one_way_anova([[1.0, 1.0], [2.0, 2.0]])
        assert out.p_value == 0.0

    def test_zero_within_variance_equal_means(self):
        out = one_way_anova([[1.0, 1.0], [1.0, 1.0]])
        assert out.p_value == 1.0

    def test_needs_two_groups(self, normal_sample):
        with pytest.raises(ValidationError):
            one_way_anova([normal_sample])

    def test_df_reported(self, rng):
        groups = [rng.normal(0, 1, 20) for _ in range(3)]
        out = one_way_anova(groups)
        assert out.df == (2.0, 57.0)


class TestKruskalWallis:
    def test_matches_scipy(self, rng):
        groups = [rng.lognormal(i * 0.2, 0.5, 60) for i in range(3)]
        ours = kruskal_wallis(groups)
        ref = sps.kruskal(*groups)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)
        assert ours.p_value == pytest.approx(ref.pvalue, rel=1e-9)

    def test_tie_correction_matches_scipy(self, rng):
        groups = [
            rng.integers(0, 5, 40).astype(float),
            rng.integers(1, 6, 40).astype(float),
        ]
        ours = kruskal_wallis(groups)
        ref = sps.kruskal(*groups)
        assert ours.statistic == pytest.approx(ref.statistic, rel=1e-10)

    def test_all_ties(self):
        out = kruskal_wallis([[2.0, 2.0, 2.0], [2.0, 2.0, 2.0]])
        assert out.p_value == 1.0

    def test_detects_median_shift_nonnormal(self, rng):
        a = rng.lognormal(0.0, 0.8, 300)
        b = rng.lognormal(0.25, 0.8, 300)
        assert kruskal_wallis([a, b]).significant(0.01)

    def test_small_group_note(self):
        out = kruskal_wallis([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])
        assert "small groups" in out.note

    def test_figure3_medians_differ(self, dora_latencies, pilatus_latencies):
        """Figure 3's claim: the two systems' medians differ significantly
        even though the distributions overlap heavily."""
        out = kruskal_wallis([dora_latencies, pilatus_latencies])
        assert out.significant(0.05)
        overlap_low = max(dora_latencies.min(), pilatus_latencies.min())
        overlap_high = min(dora_latencies.max(), pilatus_latencies.max())
        assert overlap_low < overlap_high  # supports really do overlap


class TestEffectSize:
    def test_sign_and_magnitude(self, rng):
        a = rng.normal(1.0, 1.0, 500)
        b = rng.normal(0.0, 1.0, 500)
        e = effect_size(a, b)
        assert e == pytest.approx(1.0, abs=0.15)
        assert effect_size(b, a) == pytest.approx(-e)

    def test_zero_for_identical(self):
        assert effect_size([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == 0.0

    def test_infinite_for_degenerate_difference(self):
        assert effect_size([1.0, 1.0], [2.0, 2.0]) == -np.inf

    def test_scale_invariant(self, two_shifted):
        a, b = two_shifted
        assert effect_size(a * 3, b * 3) == pytest.approx(effect_size(a, b))


class TestCIComparison:
    def test_nonoverlap_is_significant(self, rng):
        a = mean_ci(rng.normal(0, 1, 200), 0.95)
        b = mean_ci(rng.normal(3, 1, 200), 0.95)
        assert not intervals_overlap(a, b)

    def test_overlap_inconclusive(self, rng):
        a = mean_ci(rng.normal(0, 1, 30), 0.95)
        b = mean_ci(rng.normal(0.05, 1, 30), 0.95)
        assert intervals_overlap(a, b)


class TestCompareGroups:
    def test_full_report(self, rng):
        groups = [rng.normal(i * 0.5, 1, 80) for i in range(3)]
        rep = compare_groups(groups, alpha=0.01)
        assert isinstance(rep, GroupComparison)
        assert rep.means_differ
        assert rep.medians_differ
        assert set(rep.effect_sizes) == {(0, 1), (0, 2), (1, 2)}
        assert rep.effect_sizes[(0, 2)] < rep.effect_sizes[(0, 1)] < 0

    def test_homogeneous_groups(self, rng):
        groups = [rng.normal(0, 1, 80) for _ in range(3)]
        rep = compare_groups(groups, alpha=0.01)
        assert not rep.means_differ
        assert not rep.medians_differ

    def test_ci_overlap_surface(self, rng):
        groups = [
            rng.normal(0, 1, 200),
            rng.normal(0.05, 1, 200),
            rng.normal(3, 1, 200),
        ]
        rep = compare_groups(groups, confidence=0.95)
        assert len(rep.mean_cis) == 3
        assert all(ci.confidence == 0.95 for ci in rep.mean_cis)
        assert rep.separated(0, 2) and rep.separated(2, 0)
        assert not rep.separated(0, 1)
        assert set(rep.ci_separated) == {(0, 1), (0, 2), (1, 2)}

    def test_separated_unknown_pair_rejected(self, rng):
        rep = compare_groups([rng.normal(0, 1, 30), rng.normal(0, 1, 30)])
        with pytest.raises(ValidationError):
            rep.separated(0, 5)
