"""Duration-normalized engagement: envelope fitting, NAWP, distribution reports.

The watch-time ceiling is modeled as a line f_max(d) = a*d + b through the
per-duration-bin top quantile of average watch time; the floor is the
constant 0. NAWP normalizes a video's AWT between the two and clamps to
[0, 1].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Iterable, Sequence

import numpy as np

from .errors import DataError, FitError, NumericError
from .metrics import duration_bins, plcc, srcc
from .records import JsonFields, VideoRecord, rows_from_columns


@dataclass(frozen=True, slots=True)
class FitStats:
    bins_used: int
    residual_rmse: float


@dataclass(frozen=True, slots=True)
class EnvelopeModel(JsonFields):
    """Fitted watch-time ceiling f_max(d) = slope_a * d + intercept_b."""

    slope_a: float
    intercept_b: float
    quantile_tau: float = 0.97
    bin_width_s: float = 1.0
    fit_stats: FitStats = FitStats(bins_used=0, residual_rmse=0.0)

    def f_max(self, duration_s: float) -> float:
        return self.slope_a * duration_s + self.intercept_b


def fit_envelope(
    records: Sequence[VideoRecord],
    quantile_tau: float = 0.97,
    bin_width_s: float = 1.0,
    min_bin_count: int = 30,
) -> EnvelopeModel:
    """Fit the ceiling line through per-bin AWT quantiles.

    Durations are binned at ``bin_width_s``; bins with at least
    ``min_bin_count`` records contribute their tau-quantile of AWT
    (linear interpolation between order statistics) at the bin midpoint,
    and ordinary least squares fits a line through those points.
    """
    if not records:
        raise FitError("cannot fit envelope on empty record set")
    if not 0.0 < quantile_tau < 1.0:
        raise DataError("quantile_tau must lie in (0, 1)")
    bins = duration_bins([record.duration_s for record in records], bin_width_s, "bin_width_s")
    midpoints = []
    quantiles = []
    for key in sorted(bins):
        values = [records[i].awt_s for i in bins[key]]
        if len(values) < min_bin_count:
            continue
        midpoints.append((key + 0.5) * bin_width_s)
        quantiles.append(float(np.quantile(np.asarray(values, dtype=np.float64), quantile_tau)))
    if len(midpoints) < 2:
        raise FitError(
            f"need at least 2 duration bins with >= {min_bin_count} records, "
            f"got {len(midpoints)}"
        )
    x = np.asarray(midpoints, dtype=np.float64)
    y = np.asarray(quantiles, dtype=np.float64)
    design = np.stack([x, np.ones_like(x)], axis=1)
    (slope, intercept), *_ = np.linalg.lstsq(design, y, rcond=None)
    residuals = y - (slope * x + intercept)
    stats = FitStats(
        bins_used=len(midpoints),
        residual_rmse=math.sqrt(float(np.mean(residuals**2))),
    )
    model = EnvelopeModel(
        slope_a=float(slope),
        intercept_b=float(intercept),
        quantile_tau=quantile_tau,
        bin_width_s=bin_width_s,
        fit_stats=stats,
    )
    # The fit is unusable if the ceiling is not positive across the data span.
    for d in (min(x), max(x)):
        if model.f_max(d) <= 0:
            raise FitError(f"fitted ceiling is non-positive at duration {d:.3f}s")
    return model


def nawp(awt_s: float, duration_s: float, env: EnvelopeModel) -> float:
    """Normalized average watch percentage in [0, 1].

    Ratio of AWT to the ceiling at this duration, clamped above at 1 and
    (defensively) below at 0.
    """
    if duration_s <= 0:
        raise DataError("duration_s must be positive")
    ceiling = env.f_max(duration_s)
    if ceiling <= 0 or not math.isfinite(ceiling):
        raise NumericError(f"ceiling is non-positive at duration {duration_s:.3f}s")
    return min(max(awt_s / ceiling, 0.0), 1.0)


def annotate_nawp(records: Iterable[VideoRecord], env: EnvelopeModel) -> list[VideoRecord]:
    """Fill the nawp field on each record, preserving input order."""
    records = list(records)
    return rows_from_columns(VideoRecord, [
        [nawp(r.awt_s, r.duration_s, env) for r in records] if f.name == "nawp"
        else list(map(attrgetter(f.name), records))
        for f in fields(VideoRecord)
    ])


@dataclass(frozen=True, slots=True)
class DistributionReport(JsonFields):
    """Equal-width histogram plus the bimodality coefficient."""

    metric_name: str
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    bimodality_coefficient: float


def bimodality_coefficient(values) -> float:
    """Sarle's bimodality coefficient with sample-size correction.

    BC = (skewness^2 + 1) / (kurtosis + 3*(n-1)^2 / ((n-2)*(n-3))) using
    bias-corrected sample skewness and excess kurtosis. Values above 5/9
    lean bimodal; the uniform distribution sits at the 5/9 boundary.
    """
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    n = x.size
    if n < 4:
        raise NumericError("bimodality coefficient needs at least 4 samples")
    if not np.all(np.isfinite(x)):
        raise NumericError("values contain non-finite entries")
    m = x.mean()
    centered = x - m
    m2 = float(np.mean(centered**2))
    if m2 == 0.0:
        raise NumericError("bimodality coefficient undefined for constant values")
    m3 = float(np.mean(centered**3))
    m4 = float(np.mean(centered**4))
    g1 = m3 / m2**1.5
    g2 = m4 / m2**2 - 3.0
    skew = g1 * math.sqrt(n * (n - 1)) / (n - 2)
    kurt = ((n + 1) * g2 + 6.0) * (n - 1) / ((n - 2) * (n - 3))
    return (skew**2 + 1.0) / (kurt + 3.0 * (n - 1) ** 2 / ((n - 2) * (n - 3)))


# The most bins ``distribution_report`` builds: a report of 10,000 bins is
# already about 0.7 MB of JSON.
MAX_BINS = 10_000


def distribution_report(values, bins: int, metric_name: str = "metric") -> DistributionReport:
    """Histogram over [min, max] in 1 to ``MAX_BINS`` bins, with the bimodality coefficient."""
    if not 1 <= bins <= MAX_BINS:
        raise DataError(f"bins must be between 1 and {MAX_BINS}")
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    if x.size == 0:
        raise DataError("cannot report on empty values")
    if not np.all(np.isfinite(x)):
        raise NumericError("values contain non-finite entries")
    bc = bimodality_coefficient(x)
    counts, edges = np.histogram(x, bins=bins, range=(float(x.min()), float(x.max())))
    return DistributionReport(
        metric_name=metric_name,
        bin_edges=tuple(float(e) for e in edges),
        counts=tuple(int(c) for c in counts),
        bimodality_coefficient=bc,
    )


def metric_correlation(records: Sequence[VideoRecord]) -> dict:
    """SRCC and PLCC between per-video ECR and NAWP."""
    pairs = [(r.ecr, r.nawp) for r in records if r.nawp is not None]
    if len(pairs) < 3:
        raise DataError("need at least 3 records with both ECR and NAWP")
    ecr_values = [p[0] for p in pairs]
    nawp_values = [p[1] for p in pairs]
    return {
        "srcc_ecr_nawp": srcc(ecr_values, nawp_values),
        "plcc_ecr_nawp": plcc(ecr_values, nawp_values),
    }
