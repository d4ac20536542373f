"""Correlation/error metrics against independent brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred.errors import DataError, NumericError
from engpred.metrics import (
    evaluate_predictions,
    grouped_srcc,
    plcc,
    ranks_average_ties,
    rmse,
    rmse_topk,
    srcc,
    topk_indices,
)


# --- independent oracles -------------------------------------------------


def brute_ranks(x):
    """O(n^2) fractional ranks: 1-based, ties share the average rank."""
    x = list(x)
    ranks = []
    for xi in x:
        less = sum(1 for xj in x if xj < xi)
        equal = sum(1 for xj in x if xj == xi)
        ranks.append(less + (equal + 1) / 2)
    return ranks


def brute_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    return cov / math.sqrt(vx * vy)


def brute_srcc(x, y):
    return brute_pearson(brute_ranks(x), brute_ranks(y))


def brute_rmse(p, t):
    return math.sqrt(sum((a - b) ** 2 for a, b in zip(p, t)) / len(p))


def brute_rmse_topk(p, t, k, ids=None):
    n = len(t)
    keys = ids if ids is not None else list(range(n))
    order = sorted(range(n), key=lambda i: (-t[i], keys[i]))
    count = math.floor(k * n / 100.0)
    idx = order[:count]
    return math.sqrt(sum((p[i] - t[i]) ** 2 for i in idx) / count)


# --- examples ------------------------------------------------------------


class TestSrcc:
    def test_monotone(self):
        assert srcc([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_reversal(self):
        assert srcc([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_tie_case_matches_hand_ranks(self):
        x = [1, 2, 2, 4]
        y = [1, 3, 2, 4]
        # ranks(x) = [1, 2.5, 2.5, 4], ranks(y) = [1, 3, 2, 4]
        expected = brute_pearson([1, 2.5, 2.5, 4], [1, 3, 2, 4])
        assert srcc(x, y) == pytest.approx(expected, abs=1e-15)
        assert expected == pytest.approx(0.9486832980505138)

    def test_constant_input_raises(self):
        with pytest.raises(NumericError):
            srcc([1, 1, 1], [1, 2, 3])

    def test_short_input_raises(self):
        with pytest.raises(DataError):
            srcc([1], [2])


class TestPlcc:
    def test_affine(self):
        x = [0.3, 1.2, -4.0, 2.2]
        assert plcc(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)

    def test_negation(self):
        x = [0.3, 1.2, -4.0, 2.2]
        assert plcc(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=10)
        y = rng.normal(size=10)
        assert plcc(x, y) == pytest.approx(brute_pearson(list(x), list(y)), abs=1e-12)


class TestRmse:
    def test_perfect(self):
        assert rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_value(self):
        assert rmse([0.3, -0.4], [0.0, 0.0]) == pytest.approx(math.sqrt(0.125))

    def test_perfect_element_lowers_rmse(self):
        base = rmse([0.3, -0.4], [0.0, 0.0])
        extended = rmse([0.3, -0.4, 5.0], [0.0, 0.0, 5.0])
        assert extended <= base


class TestRmseTopk:
    def test_hand_example_n20_k10(self):
        truth = [1.0, 0.9] + [0.1] * 18
        pred = [0.8, 0.9] + [0.1] * 18
        assert rmse_topk(pred, truth, 10.0) == pytest.approx(math.sqrt(0.04 / 2))

    def test_perfect(self):
        truth = [0.5, 0.9, 0.2, 0.8, 0.1, 0.6, 0.3, 0.4, 0.7, 1.0]
        assert rmse_topk(truth, truth, 20.0) == 0.0

    def test_k100_equals_rmse(self):
        rng = np.random.default_rng(3)
        pred = rng.random(37)
        truth = rng.random(37)
        assert rmse_topk(pred, truth, 100.0) == rmse(pred, truth)

    def test_empty_selection_raises(self):
        with pytest.raises(DataError):
            rmse_topk([1.0, 2.0], [1.0, 2.0], 10.0)

    def test_k_zero_is_in_range_and_selects_nothing(self):
        with pytest.raises(DataError, match=r"^top-0.0% of 3 samples selects nothing$"):
            topk_indices([0.1, 0.2, 0.3], 0.0)

    @pytest.mark.parametrize("k", [math.nan, math.inf, -math.inf, 1e308, 100.5, -1.0, -1e308])
    def test_k_not_finite_or_past_100_raises(self, k):
        with pytest.raises(DataError, match="top-K percent"):
            topk_indices([0.1, 0.2, 0.3], k)

    def test_tie_break_by_id_deterministic(self):
        truth = [0.9, 0.9, 0.9, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]
        ids = [f"v{i}" for i in range(10)]
        # With K=20 and three tied leaders, ids v0 and v1 are selected.
        idx = topk_indices(truth, 20.0, ids=ids)
        assert sorted(idx.tolist()) == [0, 1]
        shuffled = list(range(9, -1, -1))
        idx2 = topk_indices([truth[i] for i in shuffled], 20.0, ids=[ids[i] for i in shuffled])
        assert sorted(ids[shuffled[i]] for i in idx2.tolist()) == ["v0", "v1"]


class TestGroupedSrcc:
    def test_single_group(self):
        pred = [1.0, 2.0, 3.0, 4.0]
        truth = [2.0, 3.0, 1.0, 4.0]
        out = grouped_srcc(pred, truth, [12, 13, 14, 12], group_width_s=10)
        assert len(out["groups"]) == 1
        assert out["average"] == out["groups"][0]["srcc"] == pytest.approx(srcc(pred, truth))

    def test_perfect_groups_average_one(self):
        pred = [1, 2, 3, 10, 20, 30]
        truth = [1, 2, 3, 5, 6, 7]
        out = grouped_srcc(pred, truth, [11, 12, 13, 25, 26, 27], group_width_s=10)
        assert out["average"] == pytest.approx(1.0)

    def test_two_groups_unweighted_mean(self):
        # Group A perfect (srcc 1.0); group B ranks [1,2,3] vs [2,1,3] (srcc 0.5).
        pred = [1, 2, 3, 1, 2, 3]
        truth = [10, 20, 30, 20, 10, 30]
        out = grouped_srcc(pred, truth, [11, 12, 13, 25, 26, 27], group_width_s=10)
        assert [g["srcc"] for g in out["groups"]] == [pytest.approx(1.0), pytest.approx(0.5)]
        assert out["average"] == pytest.approx(0.75)

    def test_group_duration_bounds(self):
        pred = [1, 2, 3, 10, 20, 30]
        truth = [1, 2, 3, 5, 6, 7]
        out = grouped_srcc(pred, truth, [11, 12, 13, 25, 26, 27], group_width_s=10)
        assert [(g["duration_min_s"], g["duration_max_s"], g["n"]) for g in out["groups"]] == [
            (10, 20, 3),
            (20, 30, 3),
        ]

    def test_small_groups_skipped(self):
        with pytest.raises(DataError):
            grouped_srcc([1, 2], [1, 2], [10, 11], group_width_s=5)

    def test_degenerate_group_skipped(self):
        pred = [1, 2, 3, 5, 5, 5]
        truth = [1, 2, 3, 1, 2, 3]
        out = grouped_srcc(pred, truth, [11, 12, 13, 25, 26, 27], group_width_s=10)
        assert len(out["groups"]) == 1

    def test_constant_truth_group_skipped(self):
        out = grouped_srcc([1, 2, 3, 1, 2, 3], [1, 2, 3, 4, 4, 4], [11, 12, 13, 25, 26, 27], group_width_s=10)
        assert [(g["duration_min_s"], g["n"]) for g in out["groups"]] == [(10, 3)]

    def test_zero_width_refused(self):
        with pytest.raises(DataError, match="^group_width_s must be finite and positive$"):
            grouped_srcc([1, 2, 3], [1, 2, 3], [11, 12, 13], group_width_s=0.0)


class TestBruteForceSweep:
    def test_hundred_random_vectors_with_ties(self):
        rng = np.random.default_rng(42)
        for trial in range(100):
            n = int(rng.integers(5, 40))
            # Integer draws force ties; jitter half the trials to mix in floats.
            x = rng.integers(0, 6, size=n).astype(float)
            y = rng.integers(0, 6, size=n).astype(float)
            if trial % 2 == 0:
                x = x + rng.random(n)
                y = y + rng.random(n)
            if np.all(x == x[0]) or np.all(y == y[0]):
                continue
            assert srcc(x, y) == pytest.approx(brute_srcc(list(x), list(y)), abs=1e-12)
            assert plcc(x, y) == pytest.approx(brute_pearson(list(x), list(y)), abs=1e-12)
            assert rmse(x, y) == pytest.approx(brute_rmse(list(x), list(y)), abs=1e-12)
            k = float(rng.integers(10, 101))
            if math.floor(k * n / 100) >= 1:
                assert rmse_topk(x, y, k) == pytest.approx(
                    brute_rmse_topk(list(x), list(y), k), abs=1e-12
                )

    def test_ranks_match_brute_force(self):
        rng = np.random.default_rng(9)
        for _ in range(30):
            x = rng.integers(0, 5, size=int(rng.integers(2, 25))).astype(float)
            assert np.allclose(ranks_average_ties(x), brute_ranks(list(x)))


finite_vec = st.lists(
    st.floats(min_value=-100, max_value=100), min_size=4, max_size=30
).filter(lambda v: max(v) - min(v) > 1e-3)

# Well-separated values keep strictly monotone maps strictly monotone in
# floating point too.
separated_vec = st.lists(
    st.integers(min_value=-1000, max_value=1000), min_size=4, max_size=30, unique=True
).map(lambda v: [float(x) for x in v])


class TestProperties:
    @given(separated_vec)
    @settings(max_examples=60, deadline=None)
    def test_srcc_invariant_under_monotone_transform(self, x):
        y = [v * 2 + 1 for v in x]
        base = srcc(x, y)
        warped = srcc([math.exp(v / 300) for v in x], y)
        assert warped == pytest.approx(base, abs=1e-9)

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_plcc_invariant_under_positive_affine(self, x):
        y = [v + 0.5 * (-1) ** i for i, v in enumerate(x)]
        if len(set(y)) < 2:
            return
        base = plcc(x, y)
        assert plcc([3 * v - 7 for v in x], y) == pytest.approx(base, abs=1e-9)

    @given(finite_vec)
    @settings(max_examples=60, deadline=None)
    def test_correlations_symmetric(self, x):
        y = [v**3 / 5000 + i for i, v in enumerate(x)]
        if len(set(y)) < 2:
            return
        assert srcc(x, y) == pytest.approx(srcc(y, x), abs=1e-12)
        assert plcc(x, y) == pytest.approx(plcc(y, x), abs=1e-12)

    @given(finite_vec)
    @settings(max_examples=40, deadline=None)
    def test_correlation_bounds(self, x):
        y = [v + i * 0.1 for i, v in enumerate(x)]
        if len(set(y)) < 2:
            return
        assert -1.0 - 1e-12 <= srcc(x, y) <= 1.0 + 1e-12
        assert -1.0 - 1e-12 <= plcc(x, y) <= 1.0 + 1e-12


def test_evaluate_predictions_report():
    rng = np.random.default_rng(5)
    truth_nawp = rng.random(30)
    truth_ecr = rng.random(30)
    report = evaluate_predictions(
        truth_nawp,
        truth_ecr,
        truth_nawp,
        truth_ecr,
        ids=[f"v{i}" for i in range(30)],
        durations=rng.uniform(10, 60, 30),
        k_percent=10.0,
        group_width_s=25.0,
    )
    assert report.n == 30
    assert report.nawp.srcc == pytest.approx(1.0)
    assert report.ecr.rmse == 0.0
    assert report.nawp.rmse_topk == 0.0
    assert report.grouped is not None
    payload = report.to_dict()
    assert set(payload) == {"n", "k_percent", "nawp", "ecr", "grouped_srcc"}
