"""Small statistical helpers: two-sample KS, one-sided dominance bands,
batch means and overflow-safe moment estimates."""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

__all__ = [
    "ks_two_sample",
    "ks_critical_value",
    "dominance_violation",
    "one_sided_band",
    "MeanCI",
    "mean_ci",
    "batch_se",
]


def ks_two_sample(a: np.ndarray, b: np.ndarray) -> float:
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|.

    Infinite samples are allowed (defective laws); they weigh the tails of
    the empirical CDFs but can never be evaluation points.
    """
    return float(np.max(np.abs(_cdf_gap(a, b)), initial=0.0))


def _cdf_gap(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """F_a - F_b at the pooled finite points of the two samples."""
    a = np.sort(np.asarray(a, dtype=float))
    b = np.sort(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be non-empty")
    pts = np.concatenate([a[np.isfinite(a)], b[np.isfinite(b)]])
    return np.searchsorted(a, pts, side="right") / a.size - np.searchsorted(b, pts, side="right") / b.size


def _can_fail(name: str, threshold: float, alpha: float) -> float:
    """`threshold`, unless it is >= 1: a KS distance never exceeds 1, so a
    check against such a threshold would pass on no evidence."""
    if threshold >= 1.0:
        raise ValueError(f"{name} {threshold:.4g} at alpha={alpha} is >= 1, so the check cannot fail")
    return threshold


def ks_critical_value(n: int, m: int, alpha: float = 0.01) -> float:
    """Asymptotic two-sided rejection threshold at level alpha; a ValueError
    when it is >= 1 (samples too small for the test to reject)."""
    c = math.sqrt(-math.log(alpha / 2.0) / 2.0)
    return _can_fail("KS critical value", c * math.sqrt((n + m) / (n * m)), alpha)


def dominance_violation(hi: np.ndarray, lo: np.ndarray) -> float:
    """Largest one-sided violation of the claim ``hi >= lo stochastically``.

    The claim holds when F_hi <= F_lo everywhere; the return value is
    max(0, sup(F_hi - F_lo)) over the pooled finite sample points, so 0
    means the empirical CDFs are perfectly ordered.
    """
    return float(np.max(_cdf_gap(hi, lo), initial=0.0))


def one_sided_band(n: int, m: int, alpha: float = 0.01) -> float:
    """One-sided KS band: violations below this are consistent with the
    ordering holding exactly, at level alpha.  A ValueError when it is >= 1
    (samples too small for the check to fail)."""
    c = math.sqrt(-math.log(alpha) / 2.0)
    return _can_fail("one-sided KS band", c * math.sqrt((n + m) / (n * m)), alpha)


class MeanCI(NamedTuple):
    mean: float
    se: float
    lo: float
    hi: float
    n: int


_Z99 = 2.5758293035489004  # standard normal quantile of a two-sided 99% interval


def mean_ci(samples: np.ndarray) -> MeanCI:
    """Mean with a normal 99% two-sided confidence interval.

    Rescales before computing the variance so that samples of astronomical
    magnitude (they do occur in the drift diagnostics) cannot overflow the
    intermediate squares.
    """
    x = np.asarray(samples, dtype=float)
    n = x.size
    if n < 2:
        raise ValueError("need at least 2 samples")
    scale = float(np.max(np.abs(x)))
    if scale == 0.0 or not math.isfinite(scale):
        scale = 1.0
    xs = x / scale
    m = float(np.mean(xs))
    sd = float(np.std(xs, ddof=1))
    se = sd * scale / math.sqrt(n)
    mean = m * scale
    return MeanCI(mean, se, mean - _Z99 * se, mean + _Z99 * se, n)


def batch_se(values: np.ndarray) -> float:
    """Standard error of the mean of a batch-means series."""
    v = np.asarray(values, dtype=float)
    if v.size < 2:
        return math.nan
    return float(np.std(v, ddof=1) / math.sqrt(v.size))
