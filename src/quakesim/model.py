"""Model primitives for the hybrid stress-release / self-exciting point process.

The process has conditional intensity

    lambda(t) = phi(X(t)) + Y(t)

where X(t) is a stress level that builds linearly at rate c and drops by a
random amount Z at every event, Y(t) is an aftershock residual that decays
exponentially at rate alpha and jumps by k at every event, and phi is a
non-decreasing positive "primary hazard" function of the stress.

Two phi families are supported:

* ``ExponentialPhi(scale=s)``:      phi(x) = exp(s*x), strictly positive
* ``ThresholdLinearPhi(theta, m)``: phi(x) = m*max(0, x - theta), zero below
  the threshold, linear above it

Three stress-drop distributions are supported: exponential, uniform and
deterministic.  All types are immutable after construction and safe to share
across threads; every random operation takes an explicit
``numpy.random.Generator``.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

__all__ = [
    "ExponentialPhi",
    "ThresholdLinearPhi",
    "PhiSpec",
    "ExponentialZ",
    "UniformZ",
    "DeterministicZ",
    "ZSpec",
    "ModelParams",
    "State",
    "Regime",
    "regime",
    "phi_eval",
    "intensity",
    "intensity_saturated",
    "cumulative_hazard_primary",
    "cumulative_hazard_numeric",
    "z_sample",
    "z_samples",
    "z_mean",
    "z_tail_mean_above",
]

# exp() overflows float64 just above this exponent
_EXP_OVERFLOW = 709.0
_INF = math.inf
_CRITICAL_EPS = 1e-12


@dataclass(frozen=True)
class ExponentialPhi:
    """phi(x) = exp(scale * x); positive everywhere, log-linear in x."""

    scale: float = 1.0

    def __post_init__(self) -> None:
        if not self.scale > 0:
            raise ValueError(f"scale must be > 0, got {self.scale}")


@dataclass(frozen=True)
class ThresholdLinearPhi:
    """phi(x) = slope * max(0, x - theta); zero at and below the threshold."""

    theta: float = 0.0
    slope: float = 1.0

    def __post_init__(self) -> None:
        if not self.slope > 0:
            raise ValueError(f"slope must be > 0, got {self.slope}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")


PhiSpec = Union[ExponentialPhi, ThresholdLinearPhi]


@dataclass(frozen=True)
class ExponentialZ:
    """Exponential stress drop with the given mean."""

    mean: float

    def __post_init__(self) -> None:
        if not self.mean > 0:
            raise ValueError(f"mean must be > 0, got {self.mean}")


@dataclass(frozen=True)
class UniformZ:
    """Uniform stress drop on [low, high], low >= 0 and high > low."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0:
            raise ValueError(f"low must be >= 0, got {self.low}")
        if not self.high > self.low:
            raise ValueError(f"need high > low, got [{self.low}, {self.high}]")


@dataclass(frozen=True)
class DeterministicZ:
    """Fixed stress drop of the given size."""

    value: float

    def __post_init__(self) -> None:
        if not self.value > 0:
            raise ValueError(f"value must be > 0, got {self.value}")


ZSpec = Union[ExponentialZ, UniformZ, DeterministicZ]


def z_mean(z: ZSpec) -> float:
    """Mean stress drop E[Z]."""
    if isinstance(z, ExponentialZ):
        return z.mean
    if isinstance(z, UniformZ):
        return 0.5 * (z.low + z.high)
    return z.value


def z_cz_metadata(z: ZSpec) -> tuple[float, float, float] | None:
    """Interval and density floor (z1, z2, h) of an absolutely continuous
    component of Z, or None when the law has no such component
    (deterministic drops).  Used by convergence diagnostics to decide
    whether the two-chain comparison is backed by the smoothness the
    ergodic theory needs."""
    if isinstance(z, ExponentialZ):
        # density exp(-z/mean)/mean is >= exp(-1)/mean on [0, mean]
        return (0.0, z.mean, math.exp(-1.0) / z.mean)
    if isinstance(z, UniformZ):
        return (z.low, z.high, 1.0 / (z.high - z.low))
    return None


def z_sample(z: ZSpec, rng: np.random.Generator) -> float:
    """Draw one stress drop."""
    if isinstance(z, ExponentialZ):
        return z.mean * rng.standard_exponential()
    if isinstance(z, UniformZ):
        return rng.uniform(z.low, z.high)
    return z.value


def z_samples(z: ZSpec, rng: np.random.Generator, n: int) -> np.ndarray:
    """Vector of n stress drops (same law as `z_sample`)."""
    if isinstance(z, ExponentialZ):
        return z.mean * rng.standard_exponential(n)
    if isinstance(z, UniformZ):
        return rng.uniform(z.low, z.high, size=n)
    return np.full(n, z.value)


def z_tail_mean_above(z: ZSpec, x0: float) -> float:
    """E[(Z - x0)^+], closed form per variant."""
    if isinstance(z, ExponentialZ):
        if x0 <= 0:
            return z.mean - x0
        return z.mean * math.exp(-x0 / z.mean)
    if isinstance(z, UniformZ):
        if x0 <= z.low:
            return 0.5 * (z.low + z.high) - x0
        if x0 >= z.high:
            return 0.0
        return (z.high - x0) ** 2 / (2.0 * (z.high - z.low))
    return max(z.value - x0, 0.0)


@dataclass(frozen=True)
class ModelParams:
    """Full parameter set of the process.

    c      stress build-up rate (> 0, stress per unit time)
    k      aftershock jump added to the residual at each event (>= 0)
    alpha  aftershock decay rate (> 0)
    phi    primary hazard family
    z      stress-drop law
    intensity_cap  saturation guard: runs terminate with a diagnostic once
                   the intensity reaches this value instead of overflowing
    """

    c: float
    k: float
    alpha: float
    phi: PhiSpec
    z: ZSpec
    intensity_cap: float = 1e12

    def __post_init__(self) -> None:
        if not self.c > 0:
            raise ValueError(f"c must be > 0, got {self.c}")
        if not self.k >= 0:
            raise ValueError(f"k must be >= 0, got {self.k}")
        if not self.alpha > 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if not self.intensity_cap > 0:
            raise ValueError(f"intensity_cap must be > 0, got {self.intensity_cap}")

    @property
    def z_mean(self) -> float:
        return z_mean(self.z)


@dataclass(frozen=True)
class State:
    """Instantaneous state (x, y): stress level and aftershock residual."""

    x: float
    y: float

    def __post_init__(self) -> None:
        # chained comparisons, false for NaN: this runs once per event
        if not (-_INF < self.x < _INF and 0.0 <= self.y < _INF):
            raise ValueError(f"need finite x and finite y >= 0, got ({self.x}, {self.y})")


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


def regime(params: ModelParams, eps: float = _CRITICAL_EPS) -> Regime:
    """Classify k/alpha against 1 with tolerance eps."""
    ratio = params.k / params.alpha
    if ratio < 1.0 - eps:
        return Regime.SUBCRITICAL
    if abs(ratio - 1.0) <= eps:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def phi_eval(phi: PhiSpec, x) -> float | np.ndarray:
    """Primary hazard phi(x).  Accepts scalars or numpy arrays.

    Guarded against float overflow: exponents past the float64 range
    evaluate to inf, which the intensity cap then converts into a
    saturation diagnostic downstream.
    """
    scalar = type(x) is float  # the event loop's case: `math` only, no array
    if isinstance(phi, ExponentialPhi):
        v = phi.scale * (x if scalar else np.asarray(x, dtype=float))
        if scalar or v.ndim == 0:
            v = float(v)
            return math.inf if v > _EXP_OVERFLOW else math.exp(v)
        out = np.empty_like(v)
        big = v > _EXP_OVERFLOW
        out[big] = np.inf
        out[~big] = np.exp(v[~big])
        return out
    if scalar:
        d = x - phi.theta
        # the bits of np.maximum(d, 0.0): +0.0 for d == -0.0, NaN kept
        return phi.slope * (d if d > 0.0 or d != d else 0.0)
    v = phi.slope * np.maximum(np.asarray(x, dtype=float) - phi.theta, 0.0)
    return float(v) if v.ndim == 0 else v


def intensity(params: ModelParams, state: State) -> float:
    """Conditional intensity phi(x) + y, clipped at the saturation cap."""
    lam = phi_eval(params.phi, state.x) + state.y
    return min(lam, params.intensity_cap)


def intensity_saturated(params: ModelParams, state: State) -> bool:
    """True when the uncapped intensity has reached the saturation cap."""
    return phi_eval(params.phi, state.x) + state.y >= params.intensity_cap


def cumulative_hazard_primary(phi: PhiSpec, x, c: float, t) -> float | np.ndarray:
    """Integral of phi(x + c*v) for v in [0, t], closed form per variant.

    For the exponential family this is exp(s*x)*(exp(s*c*t) - 1)/(s*c); for
    the threshold-linear family it is piecewise quadratic (zero until the
    stress ramp crosses the threshold).  Accepts scalar or array x / t.
    """
    x = np.asarray(x, dtype=float)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("t must be >= 0")
    if isinstance(phi, ExponentialPhi):
        s = phi.scale
        # expm1 keeps small-t accuracy; exp(s*x) may round to 0 or inf at
        # extreme stress, which is the right limit unless the other factor
        # rounds the other way (the NaN products repaired below)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.exp(s * x) * np.expm1(s * c * t) / (s * c)
            nan = np.isnan(out)
            if nan.any():
                # 0*inf: a segment from deep below zero stress whose ramp
                # overflows expm1; add the exponents in log space instead.
                # inf*0: an empty segment (t == 0) at overflowing stress.
                logs = np.exp(s * (x + c * t) + np.log1p(-np.exp(-s * c * t))) / (s * c)
                out = np.where(nan, np.where(t == 0, 0.0, logs), out)
    else:
        m, theta = phi.slope, phi.theta
        a = x - theta
        # time at which the ramp crosses the threshold (0 if already above)
        t0 = np.maximum(-a / c, 0.0)
        dt = np.maximum(t - t0, 0.0)
        start = np.maximum(a, 0.0)
        out = m * (start * dt + 0.5 * c * dt * dt)
    return float(out) if out.ndim == 0 else out


def _adaptive_simpson(f, a: float, b: float, tol: float, depth: int, fa, fm, fb, whole):
    m = 0.5 * (a + b)
    lm = 0.5 * (a + m)
    rm = 0.5 * (m + b)
    flm = f(lm)
    frm = f(rm)
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    if depth <= 0 or abs(left + right - whole) <= 15.0 * tol:
        return left + right + (left + right - whole) / 15.0
    return _adaptive_simpson(f, a, m, tol / 2.0, depth - 1, fa, flm, fm, left) + _adaptive_simpson(
        f, m, b, tol / 2.0, depth - 1, fm, frm, fb, right
    )


def cumulative_hazard_numeric(phi: PhiSpec, x: float, c: float, t: float, tol: float = 1e-12) -> float:
    """Adaptive-Simpson quadrature of the primary hazard integral.

    Reference path only: tests use it as an independent oracle for
    `cumulative_hazard_primary`; production code always takes the closed
    form.  `tol` is interpreted relative to a coarse estimate of the
    integral so that large-magnitude hazards are handled sensibly.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    if t == 0.0:
        return 0.0

    def f(v: float) -> float:
        return phi_eval(phi, x + c * v)

    # coarse pass over 16 panels seeds the error scale and guards against
    # the integrand being zero at the probe points of a single panel
    edges = np.linspace(0.0, t, 17)
    vals = [f(e) for e in edges]
    coarse = 0.0
    for i in range(16):
        coarse += (edges[i + 1] - edges[i]) / 6.0 * (
            vals[i] + 4.0 * f(0.5 * (edges[i] + edges[i + 1])) + vals[i + 1]
        )
    eps = tol * max(1.0, abs(coarse))
    total = 0.0
    for i in range(16):
        a, b = float(edges[i]), float(edges[i + 1])
        fa, fb = vals[i], vals[i + 1]
        fm = f(0.5 * (a + b))
        whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
        total += _adaptive_simpson(f, a, b, eps / 16.0, 48, fa, fm, fb, whole)
    return total
