"""Correlation and error metrics with deterministic tie handling.

SRCC is the Pearson correlation of fractional (average-tie) ranks. Top-K
selection orders by descending ground truth with ties broken by ascending
video id, so the selected subset is identical across runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, NumericError
from .records import JsonFields


def _as_vector(x, name: str) -> np.ndarray:
    arr = np.asarray(x, dtype=np.float64).reshape(-1)
    if not np.all(np.isfinite(arr)):
        raise NumericError(f"{name} contains non-finite values")
    return arr


def _check_pair(x: np.ndarray, y: np.ndarray) -> None:
    if x.size != y.size:
        raise DataError(f"length mismatch: {x.size} vs {y.size}")
    if x.size < 2:
        raise DataError("need at least 2 samples")


def ranks_average_ties(x) -> np.ndarray:
    """1-based ranks with tied values assigned their average rank."""
    a = _as_vector(x, "values")
    order = np.argsort(a, kind="mergesort")
    ranks = np.empty(a.size, dtype=np.float64)
    i = 0
    while i < a.size:
        j = i
        while j + 1 < a.size and a[order[j + 1]] == a[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def plcc(x, y) -> float:
    """Pearson linear correlation coefficient."""
    a = _as_vector(x, "x")
    b = _as_vector(y, "y")
    _check_pair(a, b)
    a = a - a.mean()
    b = b - b.mean()
    denom = math.sqrt(float(np.dot(a, a)) * float(np.dot(b, b)))
    if denom == 0.0:
        raise NumericError("correlation undefined for constant input")
    return float(np.dot(a, b)) / denom


def srcc(x, y) -> float:
    """Spearman rank correlation coefficient (average-tie ranks)."""
    a = _as_vector(x, "x")
    b = _as_vector(y, "y")
    _check_pair(a, b)
    return plcc(ranks_average_ties(a), ranks_average_ties(b))


def rmse(pred, truth) -> float:
    """Root mean square error."""
    p = _as_vector(pred, "pred")
    t = _as_vector(truth, "truth")
    _check_pair(p, t)
    diff = p - t
    return math.sqrt(float(np.dot(diff, diff)) / p.size)


def topk_indices(truth, k_percent: float, ids=None) -> np.ndarray:
    """Indices of the floor(K*N/100) highest-truth entries.

    Ties in truth resolve by ascending id (positional index when ids are
    absent), so the subset is deterministic.
    """
    if not (math.isfinite(k_percent) and k_percent <= 100.0):
        raise DataError(f"top-K percent must be a finite number up to 100, got {k_percent!r}")
    t = _as_vector(truth, "truth")
    n = t.size
    count = math.floor(k_percent * n / 100.0)
    if count < 1:
        raise DataError(f"top-{k_percent}% of {n} samples selects nothing")
    if ids is None:
        keys = list(range(n))
    else:
        keys = list(ids)
        if len(keys) != n:
            raise DataError("ids length does not match truth length")
    order = sorted(range(n), key=lambda i: (-t[i], keys[i]))
    # Ascending positional order keeps downstream sums independent of the
    # selection ordering (K=100 then reduces to plain RMSE bit for bit).
    return np.asarray(sorted(order[:count]), dtype=np.intp)


def rmse_topk(pred, truth, k_percent: float = 10.0, ids=None) -> float:
    """RMSE over the top-K% of samples ranked by ground truth.

    The denominator is the selected count, so ``k_percent=100`` reduces to
    plain RMSE.
    """
    p = _as_vector(pred, "pred")
    t = _as_vector(truth, "truth")
    _check_pair(p, t)
    idx = topk_indices(t, k_percent, ids=ids)
    diff = p[idx] - t[idx]
    return math.sqrt(float(np.dot(diff, diff)) / idx.size)


def duration_bins(durations, width: float, name: str) -> dict[int, list[int]]:
    """The positions of ``durations`` keyed by their bin, ``floor(duration / width)``.

    ``name`` names the width in errors. A width that is not finite and
    positive, or one so small that a quotient overflows, is a DataError.
    """
    if not (math.isfinite(width) and width > 0):
        raise DataError(f"{name} must be finite and positive")
    bins: dict[int, list[int]] = {}
    for i, duration in enumerate(durations):
        quotient = float(duration) / width
        if not math.isfinite(quotient):
            raise DataError(f"duration {duration!r} over {name} {width!r} gives no finite bin")
        bins.setdefault(math.floor(quotient), []).append(i)
    return bins


def grouped_srcc(pred, truth, durations, group_width_s: float) -> dict:
    """SRCC per duration group plus the unweighted average.

    Groups are duration bins of ``group_width_s``; only bins with at least
    3 members and non-degenerate variance on both sides qualify. Raises if
    no group qualifies.
    """
    p = _as_vector(pred, "pred")
    t = _as_vector(truth, "truth")
    d = _as_vector(durations, "durations")
    _check_pair(p, t)
    if d.size != p.size:
        raise DataError("durations length does not match predictions")
    bins = duration_bins(d.tolist(), group_width_s, "group_width_s")
    groups = []
    for key in sorted(bins):
        idx = bins[key]
        if len(idx) < 3:
            continue
        sub_p = p[idx]
        sub_t = t[idx]
        if np.all(sub_p == sub_p[0]) or np.all(sub_t == sub_t[0]):
            continue
        lo = key * group_width_s
        groups.append(
            {
                "duration_min_s": lo,
                "duration_max_s": lo + group_width_s,
                "n": len(idx),
                "srcc": srcc(sub_p, sub_t),
            }
        )
    if not groups:
        raise DataError("no duration group qualifies for grouped SRCC")
    average = sum(g["srcc"] for g in groups) / len(groups)
    return {"groups": groups, "average": average}


@dataclass
class MetricBlock(JsonFields):
    """SRCC/PLCC/RMSE/top-K RMSE for one predicted metric."""

    srcc: float
    plcc: float
    rmse: float
    rmse_topk: float


@dataclass
class EvalReport:
    """Evaluation summary for joint NAWP/ECR predictions."""

    nawp: MetricBlock
    ecr: MetricBlock
    k_percent: float
    n: int
    grouped: dict | None = field(default=None)

    def to_dict(self) -> dict:
        payload = {
            "n": self.n,
            "k_percent": self.k_percent,
            "nawp": self.nawp.to_dict(),
            "ecr": self.ecr.to_dict(),
        }
        if self.grouped is not None:
            payload["grouped_srcc"] = self.grouped
        return payload


def evaluate_predictions(
    pred_nawp,
    pred_ecr,
    truth_nawp,
    truth_ecr,
    ids=None,
    durations=None,
    k_percent: float = 10.0,
    group_width_s: float | None = None,
) -> EvalReport:
    """Build a full EvalReport; grouped SRCC (over NAWP) requires durations."""
    n = _as_vector(truth_nawp, "truth_nawp").size
    blocks = {}
    for name, pred, truth in (
        ("nawp", pred_nawp, truth_nawp),
        ("ecr", pred_ecr, truth_ecr),
    ):
        blocks[name] = MetricBlock(
            srcc=srcc(pred, truth),
            plcc=plcc(pred, truth),
            rmse=rmse(pred, truth),
            rmse_topk=rmse_topk(pred, truth, k_percent=k_percent, ids=ids),
        )
    grouped = None
    if group_width_s is not None:
        if durations is None:
            raise DataError("grouped SRCC requires durations")
        grouped = grouped_srcc(pred_nawp, truth_nawp, durations, group_width_s)
    return EvalReport(
        nawp=blocks["nawp"],
        ecr=blocks["ecr"],
        k_percent=k_percent,
        n=n,
        grouped=grouped,
    )
