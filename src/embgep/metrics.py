"""Accuracy measures for prediction sets.

``mae_paper`` implements the normalised mean-absolute-error form exactly as
tabulated in the source relationship, (1/N) * (sum|Yp - Ym| / sum Ym), and
``scatter_index`` divides the RMSE by the mean of Ym; both are defined only
for a positive sum of Ym, as for displacements in metres (not their
logarithms, which are mostly negative).  The
conventional mean absolute deviation is exposed separately as
``mae_conventional``, and ``bias`` is the signed mean error, so
over- and under-predictions cancel in it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class MetricsError(ValueError):
    """Undefined metric for the given prediction set."""


@dataclass(frozen=True)
class PredictionSet:
    """Paired measured/predicted values."""

    y_measured: np.ndarray
    y_predicted: np.ndarray

    def __post_init__(self):
        ym = np.asarray(self.y_measured, dtype=np.float64)
        yp = np.asarray(self.y_predicted, dtype=np.float64)
        if ym.ndim != 1 or yp.ndim != 1:
            raise MetricsError("prediction set needs 1-D value vectors")
        if ym.shape != yp.shape:
            raise MetricsError(f"length mismatch: {ym.shape[0]} measured vs {yp.shape[0]} predicted")
        if ym.shape[0] < 1:
            raise MetricsError("prediction set must be nonempty")
        object.__setattr__(self, "y_measured", ym)
        object.__setattr__(self, "y_predicted", yp)

    @property
    def n(self) -> int:
        return self.y_measured.shape[0]

    @property
    def mean_measured(self) -> float:
        return float(np.mean(self.y_measured))


def r_squared(pset: PredictionSet) -> float:
    """Coefficient of determination, 1 - SSE/SST."""
    ym, yp = pset.y_measured, pset.y_predicted
    sst = float(np.sum((ym - pset.mean_measured) ** 2))
    if sst == 0.0:
        raise MetricsError("R^2 undefined: measured values are constant")
    return 1.0 - float(np.sum((ym - yp) ** 2)) / sst


def mae_paper(pset: PredictionSet) -> float:
    """(1/N) * (sum|Yp - Ym| / sum Ym), exactly as tabulated; defined for a
    positive sum of measured values, such as displacements in metres."""
    total_measured = float(np.sum(pset.y_measured))
    if not total_measured > 0.0:
        raise MetricsError(f"normalised MAE undefined: measured values sum to {total_measured!r}, "
                           "not a positive number")
    return float(np.sum(np.abs(pset.y_predicted - pset.y_measured))) / pset.n / total_measured


def mae_conventional(pset: PredictionSet) -> float:
    """Plain mean absolute deviation, (1/N) * sum|Yp - Ym|."""
    return float(np.mean(np.abs(pset.y_predicted - pset.y_measured)))


def rmse(pset: PredictionSet) -> float:
    return float(np.sqrt(np.mean((pset.y_predicted - pset.y_measured) ** 2)))


def scatter_index(pset: PredictionSet) -> float:
    """RMSE normalised by the mean measured value, which must be positive."""
    mean = pset.mean_measured
    if not mean > 0.0:
        raise MetricsError(f"scatter index undefined: mean measured value is {mean!r}, "
                           "not a positive number")
    return rmse(pset) / mean


def bias(pset: PredictionSet) -> float:
    """Signed mean error (1/N) * sum(Yp - Ym); positive when predictions run high."""
    return float(np.mean(pset.y_predicted - pset.y_measured))


def relative_error(d_measured, d_predicted):
    """Signed percent deviation, (pred - measured)/measured * 100."""
    dm = np.asarray(d_measured, dtype=np.float64)
    dp = np.asarray(d_predicted, dtype=np.float64)
    if np.any(dm == 0.0):
        raise MetricsError("relative error undefined for zero measured displacement")
    out = (dp - dm) / dm * 100.0
    return float(out) if out.ndim == 0 else out


def pearson_r(x, y) -> float:
    """Product-moment correlation in [-1, 1]."""
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise MetricsError("pearson_r needs two equal-length 1-D vectors")
    if x.shape[0] < 2:
        raise MetricsError("pearson_r needs at least two points")
    dx = x - x.mean()
    dy = y - y.mean()
    sx = float(np.sqrt(np.sum(dx * dx)))
    sy = float(np.sqrt(np.sum(dy * dy)))
    if sx == 0.0 or sy == 0.0:
        raise MetricsError("pearson_r undefined for a constant vector")
    r = float(np.sum(dx * dy)) / (sx * sy)
    return max(-1.0, min(1.0, r))


def correlation_matrix(columns: dict[str, np.ndarray]) -> tuple[tuple[str, ...], np.ndarray]:
    """Pairwise Pearson correlations; returns (names, full symmetric matrix).

    A pair whose correlation is undefined (a constant column, fewer than two
    rows) holds NaN, and so does a constant column's diagonal cell; every
    other diagonal cell is 1.
    """
    names = tuple(columns)
    vectors = [np.asarray(columns[name], dtype=np.float64) for name in names]
    if any(v.ndim != 1 or v.shape != vectors[0].shape for v in vectors):
        raise MetricsError("correlation_matrix needs equal-length 1-D columns")
    k = len(names)
    mat = np.full((k, k), np.nan)
    for i in range(k):
        for j in range(i + 1):
            try:
                r = pearson_r(vectors[i], vectors[j])
            except MetricsError:  # shapes are checked: a constant column or < 2 rows
                continue
            mat[i, j] = mat[j, i] = 1.0 if i == j else r
    return names, mat


def cumulative_frequency(errors, thresholds) -> np.ndarray:
    """Fraction of errors at or below each threshold; non-decreasing in [0, 1].
    A NaN error counts only in the denominator, and a NaN threshold gives 0."""
    errors = np.asarray(errors, dtype=np.float64)
    if errors.ndim != 1 or errors.shape[0] == 0:
        raise MetricsError("cumulative_frequency needs a nonempty 1-D error list")
    thresholds = np.asarray(thresholds, dtype=np.float64)
    # sort puts NaN errors last, beyond every threshold but a NaN one
    at_or_below = np.sort(errors).searchsorted(thresholds, side="right")
    at_or_below[np.isnan(thresholds)] = 0
    return at_or_below / errors.size


@dataclass(frozen=True)
class ResidualSummary:
    """Residuals (predicted - measured), their spread and a fixed-width
    histogram with mean +/- one standard deviation markers."""

    residuals: np.ndarray
    mean_abs: float
    sd: float
    bin_edges: np.ndarray
    counts: np.ndarray
    marker_low: float
    marker_high: float
    degenerate: bool


def residual_summary(pset: PredictionSet, bins: int = 10) -> ResidualSummary:
    if pset.n < 2:
        raise MetricsError("residual summary needs at least two pairs for the SD")
    res = pset.y_predicted - pset.y_measured
    mean_abs = float(np.mean(np.abs(res)))
    sd = float(np.std(res, ddof=1))
    mean_res = float(np.mean(res))
    lo, hi = float(res.min()), float(res.max())
    if lo == hi:
        # all residuals identical: one bin holding everything
        edges = np.array([lo - 0.5, hi + 0.5])
        counts = np.array([pset.n])
    else:
        counts, edges = np.histogram(res, bins=bins, range=(lo, hi))
    return ResidualSummary(
        residuals=res,
        mean_abs=mean_abs,
        sd=sd,
        bin_edges=edges,
        counts=counts,
        marker_low=mean_res - sd,
        marker_high=mean_res + sd,
        degenerate=sd == 0.0,
    )
