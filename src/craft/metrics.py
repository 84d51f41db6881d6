"""Evaluation metrics: RMSE and the percentage-bend correlation.

The percentage-bend correlation is a robust alternative to Pearson's r: each
variable is centered on a bend estimate of location and scaled by the
(1 - bend)-quantile of absolute deviations from the median, with standardized
deviations winsorized into [-1, 1] before the normalized cross product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, ScalerParams, apply_scaler
from .network import RegressorParams, forward_batch

__all__ = ["MetricPair", "rmse", "percentage_bend_correlation", "evaluate"]

_BEND = 0.2  # the conventional bend


@dataclass(frozen=True)
class MetricPair:
    """RMSE in label units plus the robust correlation.

    ``pbcor`` is None when the correlation is undefined (degenerate spread on
    either side, e.g. a constant predictor).
    """

    rmse: float
    pbcor: float | None


def rmse(pred, truth) -> float:
    pred = np.asarray(pred, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    if pred.shape != truth.shape or pred.ndim != 1 or pred.size < 1:
        raise ValueError("pred and truth must be equal-length nonempty vectors")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def _bend_location_and_scale(v: np.ndarray):
    """Winsorized location estimate and the bend scale for one variable."""
    n = v.size
    med = float(np.median(v))
    dev = np.abs(v - med)
    m = int(math.floor((1.0 - _BEND) * n + 0.5))
    omega = float(np.sort(dev)[m - 1])
    if omega <= 0.0:
        raise ValueError("degenerate spread: too many ties at the median")
    # classify against the deviations themselves so the omega-defining sample
    # always counts as interior regardless of rounding in med +/- omega
    outside = dev > omega
    low = outside & (v < med)
    high = outside & (v > med)
    i1 = int(low.sum())
    i2 = int(high.sum())
    core = float(v[~outside].sum())
    theta = (omega * (i2 - i1) + core) / (n - i1 - i2)
    return theta, omega


def percentage_bend_correlation(x, y) -> float:
    """Robust correlation with winsorized standardized deviations.

    Raises ValueError when either variable has degenerate spread (the bend
    scale comes out zero).
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be equal-length vectors")
    if x.size < 3:
        raise ValueError("need at least 3 pairs")
    tx, ox = _bend_location_and_scale(x)
    ty, oy = _bend_location_and_scale(y)
    a = np.clip((x - tx) / ox, -1.0, 1.0)
    b = np.clip((y - ty) / oy, -1.0, 1.0)
    return float((a @ b) / np.sqrt((a @ a) * (b @ b)))


def evaluate(params: RegressorParams, test: Dataset, scaler: ScalerParams) -> MetricPair:
    """Score a model on a fully labeled raw-unit test set.

    Features are scaled into model space, predictions are mapped back to
    original label units, and both metrics are computed there.  A degenerate
    prediction spread yields pbcor = None rather than an error.
    """
    if not test.labeled.all():
        raise ValueError("evaluation needs a fully labeled dataset")
    preds = scaler.unscale_labels(forward_batch(params, apply_scaler(test, scaler).features))
    err = rmse(preds, test.labels)
    try:
        corr = percentage_bend_correlation(preds, test.labels)
    except ValueError:
        corr = None
    return MetricPair(err, corr)
