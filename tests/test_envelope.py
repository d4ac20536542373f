"""Envelope fitting, NAWP, and distribution reports."""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from engpred.envelope import (
    MAX_BINS,
    EnvelopeModel,
    annotate_nawp,
    bimodality_coefficient,
    distribution_report,
    fit_envelope,
    metric_correlation,
    nawp,
)
from engpred.errors import DataError, FitError, NumericError
from engpred.records import VideoRecord


def _record(video_id, duration, awt, ecr=0.5, nawp_value=None):
    return VideoRecord(
        video_id=video_id,
        duration_s=duration,
        views=100,
        awt_s=awt,
        awp=awt / duration,
        ecr=ecr,
        nawp=nawp_value,
    )


def _collinear_records(slope, intercept, per_bin=5, n_bins=10, start=10):
    """All records in a bin share the bin-midpoint duration and one AWT, so
    every bin quantile lands exactly on slope*midpoint + intercept."""
    records = []
    for k in range(n_bins):
        midpoint = start + k + 0.5
        awt = slope * midpoint + intercept
        for j in range(per_bin):
            records.append(_record(f"v{k}_{j}", midpoint, awt))
    return records


PAPER_ENV = EnvelopeModel(slope_a=0.556, intercept_b=5.64)


class TestFitEnvelope:
    def test_exact_collinear_recovery(self):
        records = _collinear_records(0.5, 6.0)
        env = fit_envelope(records, quantile_tau=0.97, bin_width_s=1.0, min_bin_count=3)
        assert env.slope_a == pytest.approx(0.5, rel=1e-9)
        assert env.intercept_b == pytest.approx(6.0, rel=1e-9)
        assert env.fit_stats.bins_used == 10
        assert env.fit_stats.residual_rmse == pytest.approx(0.0, abs=1e-9)

    def test_single_duration_fit_failure(self):
        records = [_record(f"v{i}", 30.5, 12.0 + i) for i in range(50)]
        with pytest.raises(FitError):
            fit_envelope(records)

    def test_sparse_bins_excluded(self):
        records = _collinear_records(0.5, 6.0, per_bin=5, n_bins=4)
        records += [_record("lonely", 55.5, 999.0)]  # below min_bin_count, ignored
        env = fit_envelope(records, bin_width_s=1.0, min_bin_count=5)
        assert env.fit_stats.bins_used == 4
        assert env.slope_a == pytest.approx(0.5, rel=1e-9)

    def test_empty_records_error(self):
        with pytest.raises(FitError):
            fit_envelope([])

    @pytest.mark.parametrize("tau", [0.0, 1.0])
    def test_quantile_tau_at_its_bounds_refused(self, tau):
        with pytest.raises(DataError, match=r"quantile_tau must lie in \(0, 1\)"):
            fit_envelope(_collinear_records(0.5, 6.0), quantile_tau=tau, min_bin_count=3)

    def test_zero_ceiling_refused(self):
        # No video of either bin is watched: the fitted line is exactly 0.
        with pytest.raises(FitError, match="fitted ceiling is non-positive"):
            fit_envelope([_record(f"v{i}", 10.5 + i % 2, 0.0) for i in range(6)], min_bin_count=3)

    def test_quantile_uses_linear_interpolation(self):
        # One bin with AWTs 0..9: the 0.97 quantile interpolates to 8.73.
        records = [_record(f"a{i}", 20.5, float(i)) for i in range(10)]
        records += _collinear_records(0.0, 5.0, per_bin=10, n_bins=1, start=40)
        env = fit_envelope(records, quantile_tau=0.97, min_bin_count=10)
        x1, y1 = 20.5, np.quantile(np.arange(10.0), 0.97)
        x2, y2 = 40.5, 5.0
        slope = (y2 - y1) / (x2 - x1)
        assert env.slope_a == pytest.approx(slope, rel=1e-12)

    def test_scale_covariance(self):
        # Scaling durations and AWTs by c leaves the slope alone and scales
        # the intercept by c (bins widen with the same factor).
        c = 2.5
        base = _collinear_records(0.5, 6.0)
        scaled = [
            _record(r.video_id, r.duration_s * c, r.awt_s * c) for r in base
        ]
        env = fit_envelope(scaled, bin_width_s=c, min_bin_count=3)
        assert env.slope_a == pytest.approx(0.5, rel=1e-9)
        assert env.intercept_b == pytest.approx(6.0 * c, rel=1e-9)

    def test_envelope_json_round_trip(self):
        records = _collinear_records(0.5, 6.0)
        env = fit_envelope(records, min_bin_count=3)
        clone = EnvelopeModel.from_dict(env.to_dict())
        assert clone == env


class TestNawp:
    def test_high_awt_clamps_to_one(self):
        assert nawp(30.0, 40.0, PAPER_ENV) == 1.0
        assert nawp(40.0, 60.0, PAPER_ENV) == 1.0

    def test_zero_awt_is_zero(self):
        for duration in (10.0, 25.0, 60.0):
            assert nawp(0.0, duration, PAPER_ENV) == 0.0

    def test_midpoint_value(self):
        assert nawp(13.94, 40.0, PAPER_ENV) == pytest.approx(0.5, abs=1e-9)

    def test_non_positive_ceiling_raises(self):
        bad = EnvelopeModel(slope_a=-1.0, intercept_b=5.0)
        with pytest.raises(NumericError):
            nawp(1.0, 10.0, bad)

    def test_zero_ceiling_raises(self):
        with pytest.raises(NumericError, match="ceiling is non-positive"):
            nawp(1.0, 10.0, EnvelopeModel(slope_a=0.0, intercept_b=0.0))

    def test_bad_duration_raises(self):
        with pytest.raises(DataError):
            nawp(1.0, 0.0, PAPER_ENV)

    @given(
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=0.0, max_value=200.0),
        st.floats(min_value=10.0, max_value=60.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_awt_and_range(self, awt1, awt2, duration):
        lo, hi = sorted((awt1, awt2))
        v_lo = nawp(lo, duration, PAPER_ENV)
        v_hi = nawp(hi, duration, PAPER_ENV)
        assert 0.0 <= v_lo <= v_hi <= 1.0
        assert (v_hi == 1.0) == (hi >= PAPER_ENV.f_max(duration))

    @given(
        st.floats(min_value=0.01, max_value=200.0),
        st.floats(min_value=10.0, max_value=60.0),
        st.floats(min_value=10.0, max_value=60.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_nonincreasing_in_duration(self, awt, d1, d2):
        lo, hi = sorted((d1, d2))
        assert nawp(awt, lo, PAPER_ENV) >= nawp(awt, hi, PAPER_ENV)


class TestAnnotate:
    def test_empty(self):
        assert annotate_nawp([], PAPER_ENV) == []

    def test_singleton_matches_scalar(self):
        record = _record("v1", 40.0, 13.94)
        (out,) = annotate_nawp([record], PAPER_ENV)
        assert out.nawp == nawp(13.94, 40.0, PAPER_ENV)
        assert out.video_id == record.video_id

    def test_batch_matches_scalar_and_preserves_order(self):
        rng = np.random.default_rng(0)
        records = [
            _record(f"v{i}", float(rng.uniform(10, 60)), float(rng.uniform(0, 40)))
            for i in range(25)
        ]
        annotated = annotate_nawp(records, PAPER_ENV)
        assert [r.video_id for r in annotated] == [r.video_id for r in records]
        for before, after in zip(records, annotated):
            assert after.nawp == nawp(before.awt_s, before.duration_s, PAPER_ENV)


def brute_bc(values):
    """Independent moment computation of the bimodality coefficient."""
    x = list(values)
    n = len(x)
    mean = sum(x) / n
    m2 = sum((v - mean) ** 2 for v in x) / n
    m3 = sum((v - mean) ** 3 for v in x) / n
    m4 = sum((v - mean) ** 4 for v in x) / n
    g1 = m3 / m2**1.5
    g2 = m4 / m2**2 - 3
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    kurt = ((n + 1) * g2 + 6) * (n - 1) / ((n - 2) * (n - 3))
    return (skew**2 + 1) / (kurt + 3 * (n - 1) ** 2 / ((n - 2) * (n - 3)))


class TestDistributionReport:
    def test_two_point_mixture_is_bimodal(self):
        values = [0.1, 0.9] * 500
        bc = bimodality_coefficient(values)
        assert bc == pytest.approx(brute_bc(values), rel=1e-12)
        assert bc > 5 / 9

    def test_uniform_grid_near_boundary(self):
        values = np.linspace(0.0, 1.0, 1000)
        bc = bimodality_coefficient(values)
        assert bc == pytest.approx(brute_bc(list(values)), rel=1e-10)
        assert abs(bc - 5 / 9) < 0.02

    def test_skewed_values_match_brute_force(self):
        # Both inputs above are symmetric, so their skew term is 0; these are not.
        right_skewed = np.random.default_rng(3).exponential(size=400)
        assert bimodality_coefficient(right_skewed) == pytest.approx(brute_bc(list(right_skewed)), rel=1e-10)
        left_skewed = [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, -4.0]
        assert bimodality_coefficient(left_skewed) == pytest.approx(brute_bc(left_skewed), rel=1e-12)

    def test_constant_vector_raises(self):
        with pytest.raises(NumericError):
            distribution_report([1.0] * 10, bins=4)

    def test_too_few_samples_raises(self):
        with pytest.raises(NumericError):
            bimodality_coefficient([1.0, 2.0, 3.0])

    def test_four_samples_are_enough(self):
        values = [0.0, 1.0, 1.0, 3.0]
        assert bimodality_coefficient(values) == pytest.approx(brute_bc(values), rel=1e-12)

    def test_histogram_counts_and_edges(self):
        rng = np.random.default_rng(1)
        values = rng.random(500)
        report = distribution_report(values, bins=16, metric_name="nawp")
        assert sum(report.counts) == 500
        edges = report.bin_edges
        assert all(a < b for a, b in zip(edges, edges[1:]))
        assert report.metric_name == "nawp"
        assert len(report.counts) == 16
        assert len(edges) == 17

    def test_bins_at_their_bounds(self):
        for bins in (1, MAX_BINS):
            assert len(distribution_report([0.1, 0.9] * 5, bins=bins).counts) == bins

    @pytest.mark.parametrize("bins", [0, -1, MAX_BINS + 1, 10**12])
    def test_bins_out_of_range_raise_before_any_histogram(self, bins):
        with mock.patch.object(np, "histogram", side_effect=AssertionError("a histogram was built")), \
                pytest.raises(DataError, match=f"bins must be between 1 and {MAX_BINS}"):
            distribution_report([0.1, 0.9] * 5, bins=bins)


class TestMetricCorrelation:
    def test_identical_metrics(self):
        records = [_record(f"v{i}", 30.0, 5.0, ecr=v, nawp_value=v) for i, v in enumerate([0.1, 0.5, 0.9, 0.3])]
        out = metric_correlation(records)
        assert out["srcc_ecr_nawp"] == pytest.approx(1.0)
        assert out["plcc_ecr_nawp"] == pytest.approx(1.0)

    def test_reversal(self):
        records = [
            _record(f"v{i}", 30.0, 5.0, ecr=v, nawp_value=1 - v)
            for i, v in enumerate([0.1, 0.5, 0.9, 0.3])
        ]
        assert metric_correlation(records)["srcc_ecr_nawp"] == pytest.approx(-1.0)

    def test_three_records_are_enough(self):
        records = [_record(f"v{i}", 30.0, 5.0, ecr=v, nawp_value=v) for i, v in enumerate([0.1, 0.5, 0.9])]
        assert metric_correlation(records)["srcc_ecr_nawp"] == pytest.approx(1.0)

    def test_requires_nawp(self):
        records = [_record(f"v{i}", 30.0, 5.0) for i in range(5)]
        with pytest.raises(DataError):
            metric_correlation(records)
