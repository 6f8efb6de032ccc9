"""Model primitives for the hybrid stress-release / self-exciting point process.

The process has conditional intensity

    lambda(t) = phi(X(t)) + Y(t)

where X(t) is a stress level that builds linearly at rate c and drops by a
random amount Z at every event, Y(t) is an aftershock residual that decays
exponentially at rate alpha and jumps by k at every event, and phi is a
non-decreasing positive "primary hazard" function of the stress.

There are two phi families,

* ``ExponentialPhi(scale=s)``:      phi(x) = exp(s*x), strictly positive
* ``ThresholdLinearPhi(theta, m)``: phi(x) = m*max(0, x - theta), zero below
  the threshold, linear above it

and three stress-drop laws: ``ExponentialZ(mean)``, ``UniformZ(low, high)``
and ``DeterministicZ(value)``.  Every variant parameter must be given; none
has a default.  Each variant class carries its own formulas:

    phi  at(x)                 phi(x), x a float (math only) or an array
         hazard(x, c, t)       integral of phi(x + c*v) over [0, t], arrays
         invert(x, c, e)       the wait T > 0 with hazard(x, c, T) = e > 0
         invert_many(x, c, e)  the same for an array of e
         quiet_level(c, v0)    largest x with hazard(x, c, v0) <= log 2
    Z    draw(rng)             one drop; draws(rng, n): an array of n
         expectation()         E[Z]
         tail_mean_above(x0)   E[(Z - x0)^+]
         density_floor()       (z1, z2, h), density >= h on [z1, z2]; None
                               without an absolutely continuous part

`phi_eval`, `cumulative_hazard_primary` and the primary-clock inversions
below are thin calls into these methods.

The wait from a state (x, y) is the minimum of two independent clocks, and
this module holds the formulas of both (the draw order of one transition is
written in `chain`):

* the primary clock, driven by the stress ramp, with survival
  P(T1 > t) = exp(-integral of phi(x + c*v) over [0, t]), always finite;
* the secondary clock, driven by the decaying aftershock residual, with
  survival P(T2 > t) = exp(-(y/alpha) * (1 - exp(-alpha*t))), evaluated
  as exp(-(y/alpha) * -expm1(-alpha*t)).  It is defective: it never fires
  with probability exp(-y/alpha), represented as ``math.inf``.

Each clock is sampled exactly by inverting its cumulative hazard against a
unit exponential or a uniform (no discretisation, no rejection).  The
scalar inversions serve the event loop; the ``*_times`` batch versions draw
numpy arrays for Monte Carlo work through the same ``*_from_*`` transforms.
`expected_wait` integrates the product of the two public survivals,
`primary_survival` and `secondary_survival`, to E[min(T1, T2)] by
deterministic quadrature.

`ModelParams`, `State` and `FosterConfig`
(the constants of the drift construction in `foster`) are the package's
parameter types.  All types are immutable after construction and safe to
share across threads; every random operation takes an explicit
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
    "FosterConfig",
    "Regime",
    "regime",
    "phi_eval",
    "intensity_saturated",
    "cumulative_hazard_primary",
    "primary_time_from_exponential",
    "secondary_time_from_uniform",
    "sample_primary_times",
    "primary_times_from_exponentials",
    "sample_secondary_times",
    "secondary_times_from_uniforms",
    "primary_survival",
    "secondary_survival",
    "expected_wait",
]

_INF = math.inf
_CRITICAL_EPS = 1e-12
_TINY = 5e-324  # smallest positive subnormal; floor for open-interval draws


def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1]: Newton's method
    on the Legendre three-term recurrence from Tricomi's first guesses.
    Scalar `math`, like the level tables below: an array operation or a
    LAPACK call at import would add resident pages to every command."""
    nodes, weights = [], []
    for i in range(1, n + 1):
        x = math.cos(math.pi * (i - 0.25) / (n + 0.5))
        for _ in range(8):
            p0, p1 = 1.0, x
            for j in range(2, n + 1):
                p0, p1 = p1, ((2 * j - 1) * x * p1 - (j - 1) * p0) / j
            dp = n * (x * p1 - p0) / (x * x - 1.0)
            x -= p1 / dp
        nodes.append(x)
        weights.append(2.0 / ((1.0 - x * x) * dp * dp))
    return np.array(nodes), np.array(weights)


_GL_NODES, _GL_WEIGHTS = _gauss_legendre(24)
# Panel edges of `expected_wait`: the times at which a clock's cumulative
# hazard reaches one of these levels, doubling up to 42 (e^-42 < 1e-18,
# where the integral stops).  Below the first level the survival is 1 to
# within 1e-16.
_WAIT_LEVELS = np.array([math.ldexp(42.0, -j) for j in range(59, -1, -1)])
# past half its total hazard y/alpha, the secondary clock's remaining hazard
# halves every log(2)/alpha; sixty halvings leave 2^-60 of it
_WAIT_HALVINGS = np.array([j * math.log(2.0) for j in range(1, 61)])


@dataclass(frozen=True)
class ExponentialPhi:
    """phi(x) = exp(scale * x); positive everywhere, log-linear in x."""

    scale: float

    def __post_init__(self) -> None:
        if not 0 < self.scale < _INF:
            raise ValueError(f"scale must be finite and > 0, got {self.scale}")

    def at(self, x) -> float | np.ndarray:
        scalar = type(x) is float  # the event loop's case: `math` only, no array
        v = self.scale * (x if scalar else np.asarray(x, dtype=float))
        if scalar or v.ndim == 0:
            try:
                return math.exp(v)
            except OverflowError:  # past the float64 range, near 709.78
                return math.inf
        with np.errstate(over="ignore"):
            return np.exp(v)

    def hazard(self, x: np.ndarray, c: float, t: np.ndarray) -> np.ndarray:
        s = self.scale
        # expm1 keeps small-t accuracy; exp(s*x) may round to 0 or inf at
        # extreme stress, which is the right limit unless the other factor
        # rounds the other way (the non-finite and zero products repaired
        # below)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = np.exp(s * x) * np.expm1(s * c * t) / (s * c)
            zero = (out == 0.0) & (t > 0)
            bad = ~np.isfinite(out) | zero
            if bad.any():
                # 0*inf or tiny*inf: a segment from below zero stress whose
                # ramp overflows expm1; inf*small: a short segment at
                # overflowing stress; 0*finite: a segment from below zero
                # stress whose ramp climbs back into the float range.  Add
                # the exponents in log space instead, which is inf only
                # where the integral overflows and 0 only where it
                # underflows.  inf*0: an empty segment (t == 0) at
                # overflowing stress.  Where the exponential alone overflows
                # or underflows but the quotient does not, divide by s*c in
                # log space too.
                log_out = s * (x + c * t) + np.log(-np.expm1(-s * c * t))
                logs = np.exp(log_out) / (s * c)
                logs = np.where(np.isinf(logs) | zero, np.exp(log_out - math.log(s * c)), logs)
                out = np.where(bad, np.where(t == 0, 0.0, logs), out)
        return out

    def invert(self, x: float, c: float, e: float) -> float:
        s = self.scale
        sc = s * c
        w = math.log(sc * e) - s * x
        if w > 36.0:
            # log1p(exp(w)) = w + log1p(exp(-w)), and exp(-w) < 2.4e-16 is
            # below half an ulp of w (3.6e-15 for w >= 32): w + exp(-w) == w
            t = w / sc
        elif w < -36.0:
            t = math.exp(w) / sc
        else:
            t = math.log1p(math.exp(w)) / sc
        return t if t > 0.0 else _TINY

    def invert_many(self, x: float, c: float, e: np.ndarray) -> np.ndarray:
        s = self.scale
        sc = s * c
        w = np.log(sc * e) - s * x
        return np.maximum(np.logaddexp(0.0, w) / sc, _TINY)

    def quiet_level(self, c: float, v0: float) -> float:
        # in log space: c*v0 can be far beyond the exp-able range
        s = self.scale
        scv = s * c * v0
        if scv > 1e-8:
            log_em1 = scv + math.log1p(-math.exp(-scv))
        else:
            log_em1 = math.log(math.expm1(scv))
        return (math.log(math.log(2.0) * s * c) - log_em1) / s


@dataclass(frozen=True)
class ThresholdLinearPhi:
    """phi(x) = slope * max(0, x - theta); zero at and below the threshold."""

    theta: float
    slope: float

    def __post_init__(self) -> None:
        if not 0 < self.slope < _INF:
            raise ValueError(f"slope must be finite and > 0, got {self.slope}")
        if not math.isfinite(self.theta):
            raise ValueError(f"theta must be finite, got {self.theta}")

    def at(self, x) -> float | np.ndarray:
        if type(x) is float:
            d = x - self.theta
            # the bits of np.maximum(d, 0.0): +0.0 for d == -0.0, NaN kept
            return self.slope * (d if d > 0.0 or d != d else 0.0)
        v = self.slope * np.maximum(np.asarray(x, dtype=float) - self.theta, 0.0)
        return float(v) if v.ndim == 0 else v

    def hazard(self, x: np.ndarray, c: float, t: np.ndarray) -> np.ndarray:
        a = x - self.theta
        # time at which the ramp crosses the threshold (0 if already above)
        t0 = np.maximum(-a / c, 0.0)
        dt = np.maximum(t - t0, 0.0)
        start = np.maximum(a, 0.0)
        return self.slope * (start * dt + 0.5 * c * dt * dt)

    def invert(self, x: float, c: float, e: float) -> float:
        m = self.slope
        a = x - self.theta
        if a >= 0.0:
            # m*(a*T + c*T^2/2) = e, positive root in cancellation-free form
            t = 2.0 * (e / m) / (a + math.sqrt(a * a + 2.0 * c * e / m))
        else:
            # zero hazard until the ramp reaches the threshold at (theta-x)/c
            t = -a / c + math.sqrt(2.0 * e / (m * c))
        return t if t > 0.0 else _TINY

    def invert_many(self, x: float, c: float, e: np.ndarray) -> np.ndarray:
        m = self.slope
        a = x - self.theta
        if a >= 0.0:
            return np.maximum(2.0 * (e / m) / (a + np.sqrt(a * a + 2.0 * c * e / m)), _TINY)
        return np.maximum(-a / c + np.sqrt(2.0 * e / (m * c)), _TINY)

    def quiet_level(self, c: float, v0: float) -> float:
        # zero hazard on the whole window
        return self.theta - c * v0


PhiSpec = Union[ExponentialPhi, ThresholdLinearPhi]


@dataclass(frozen=True)
class ExponentialZ:
    """Exponential stress drop with the given mean."""

    mean: float

    def __post_init__(self) -> None:
        if not 0 < self.mean < _INF:
            raise ValueError(f"mean must be finite and > 0, got {self.mean}")

    def draw(self, rng: np.random.Generator) -> float:
        return self.mean * rng.standard_exponential()

    def draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return self.mean * rng.standard_exponential(n)

    def expectation(self) -> float:
        return self.mean

    def tail_mean_above(self, x0: float) -> float:
        if x0 <= 0:
            return self.mean - x0
        return self.mean * math.exp(-x0 / self.mean)

    def density_floor(self) -> tuple[float, float, float]:
        # density exp(-z/mean)/mean is >= exp(-1)/mean on [0, mean]
        return (0.0, self.mean, math.exp(-1.0) / self.mean)


@dataclass(frozen=True)
class UniformZ:
    """Uniform stress drop on [low, high], low >= 0 and high > low."""

    low: float
    high: float

    def __post_init__(self) -> None:
        if self.low < 0:
            raise ValueError(f"low must be >= 0, got {self.low}")
        if not self.low < self.high < _INF:
            raise ValueError(f"need finite high > low, got [{self.low}, {self.high}]")

    def draw(self, rng: np.random.Generator) -> float:
        return rng.uniform(self.low, self.high)

    def draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, size=n)

    def expectation(self) -> float:
        return 0.5 * (self.low + self.high)

    def tail_mean_above(self, x0: float) -> float:
        if x0 <= self.low:
            return 0.5 * (self.low + self.high) - x0
        if x0 >= self.high:
            return 0.0
        return (self.high - x0) ** 2 / (2.0 * (self.high - self.low))

    def density_floor(self) -> tuple[float, float, float]:
        return (self.low, self.high, 1.0 / (self.high - self.low))


@dataclass(frozen=True)
class DeterministicZ:
    """Fixed stress drop of the given size."""

    value: float

    def __post_init__(self) -> None:
        if not 0 < self.value < _INF:
            raise ValueError(f"value must be finite and > 0, got {self.value}")

    def draw(self, rng: np.random.Generator) -> float:
        return self.value

    def draws(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.value)

    def expectation(self) -> float:
        return self.value

    def tail_mean_above(self, x0: float) -> float:
        return max(self.value - x0, 0.0)

    def density_floor(self) -> None:
        return None


ZSpec = Union[ExponentialZ, UniformZ, DeterministicZ]


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
        if not 0 < self.c < _INF:
            raise ValueError(f"c must be finite and > 0, got {self.c}")
        if not 0 <= self.k < _INF:
            raise ValueError(f"k must be finite and >= 0, got {self.k}")
        if not 0 < self.alpha < _INF:
            raise ValueError(f"alpha must be finite and > 0, got {self.alpha}")
        if not 0 < self.intensity_cap < _INF:
            raise ValueError(f"intensity_cap must be finite and > 0, got {self.intensity_cap}")


@dataclass(frozen=True)
class State:
    """Instantaneous state (x, y): stress level and aftershock residual."""

    x: float
    y: float

    def __post_init__(self) -> None:
        # chained comparisons, false for NaN: this runs once per event
        if not (-_INF < self.x < _INF and 0.0 <= self.y < _INF):
            raise ValueError(f"need finite x and finite y >= 0, got ({self.x}, {self.y})")


@dataclass(frozen=True)
class FosterConfig:
    """Validated coefficient set for the Lyapunov drift construction.

    The test function is L(x, y) = r1*x + r2*y for x >= 0 and r3*|x| + r2*y
    for x < 0.  A configuration fixes the weights (r1, r2, r3), the drift
    margin gamma, the decay headroom delta = (alpha - k)/2, and the geometry
    of the recurrent box V = [x1, x0] x [0, y0] together with the truncation
    time v0 of the capped embedding.  Construction and re-validation of these
    numbers live in `quakesim.foster`.
    """

    r1: float
    r2: float
    r3: float
    gamma: float
    x0: float
    y0: float
    v0: float
    x1: float
    delta: float

    def __post_init__(self) -> None:
        for name in ("r1", "r2", "r3", "gamma", "x0", "y0", "v0", "delta"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"{name} must be finite and > 0, got {v}")
        if not self.r3 < self.r1:
            raise ValueError(f"need r3 < r1, got r3={self.r3}, r1={self.r1}")
        if not self.x1 < 0:
            raise ValueError(f"x1 must be < 0, got {self.x1}")
        if not math.isfinite(self.x1):
            raise ValueError("x1 must be finite")

    def lyapunov_x(self, x):
        """Stress part of L; scalar or array."""
        x = np.asarray(x, dtype=float)
        return np.where(x >= 0.0, self.r1 * x, self.r3 * -x)

    def in_recurrent_set(self, x: float, y: float) -> bool:
        """True when (x, y) lies in the box V = [x1, x0] x [0, y0]."""
        return self.x1 <= x <= self.x0 and 0.0 <= y <= self.y0


class Regime(enum.Enum):
    SUBCRITICAL = "subcritical"
    CRITICAL = "critical"
    SUPERCRITICAL = "supercritical"


def regime(params: ModelParams) -> Regime:
    """Classify k/alpha against 1 with tolerance _CRITICAL_EPS."""
    ratio = params.k / params.alpha
    if ratio < 1.0 - _CRITICAL_EPS:
        return Regime.SUBCRITICAL
    if abs(ratio - 1.0) <= _CRITICAL_EPS:
        return Regime.CRITICAL
    return Regime.SUPERCRITICAL


def phi_eval(phi: PhiSpec, x) -> float | np.ndarray:
    """Primary hazard phi(x) (`phi.at`).  Accepts scalars or numpy arrays.

    Guarded against float overflow: exponents past the float64 range
    evaluate to inf, which the intensity cap then converts into a
    saturation diagnostic downstream.
    """
    return phi.at(x)


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
    out = phi.hazard(x, c, t)
    return float(out) if out.ndim == 0 else out


# --- the two clocks ---------------------------------------------------------


def primary_time_from_exponential(phi: PhiSpec, x: float, c: float, e: float) -> float:
    """Solve (cumulative primary hazard from x)(T) = e for T, scalar
    (`phi.invert`, with e <= 0 floored to the smallest positive float).

    Exponential phi:  T = log(1 + s*c*e*exp(-s*x)) / (s*c), evaluated in
    log space when exp(-s*x) would overflow.  Threshold-linear phi: the
    hazard ramp gives a linear-plus-quadratic equation; below the
    threshold the hazard is zero until the ramp reaches it.
    """
    if e <= 0.0:
        e = _TINY
    return phi.invert(x, c, e)


def secondary_time_from_uniform(y: float, alpha: float, u: float) -> float:
    """Invert the defective secondary survival at the uniform draw u:
    T = -log1p((alpha/y)*log(u))/alpha, which keeps its relative accuracy
    where (alpha/y)*log(u) is far below 1 (huge y).

    Returns math.inf for draws that land in the never-fires atom
    (u <= exp(-y/alpha), tested as (alpha/y)*log(u) <= -1).
    """
    if y <= 0.0:
        return math.inf
    if u <= 0.0:
        u = _TINY
    a = (alpha / y) * math.log(u)
    if a <= -1.0:
        return math.inf
    t = -math.log1p(a) / alpha
    return t if t > 0.0 else _TINY


def sample_primary_times(phi: PhiSpec, x: float, c: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent primary-clock draws as an array."""
    if not -_INF < x < _INF:
        raise ValueError(f"x must be finite, got {x}")
    return primary_times_from_exponentials(phi, x, c, rng.standard_exponential(n))


def primary_times_from_exponentials(phi: PhiSpec, x: float, c: float, e: np.ndarray) -> np.ndarray:
    """Vectorised primary inversion applied to given unit exponentials
    (`phi.invert_many`)."""
    e = np.maximum(np.asarray(e, dtype=float), _TINY)
    return phi.invert_many(x, c, e)


def sample_secondary_times(y: float, alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent secondary-clock draws; the atom appears as np.inf."""
    if not 0.0 <= y < _INF:
        raise ValueError(f"y must be finite and >= 0, got {y}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return secondary_times_from_uniforms(y, alpha, rng.random(n))


def secondary_times_from_uniforms(y: float, alpha: float, u: np.ndarray) -> np.ndarray:
    """Vectorised secondary inversion applied to given uniforms, by the
    formula of `secondary_time_from_uniform`."""
    u = np.maximum(np.asarray(u, dtype=float), _TINY)
    out = np.full(u.shape, np.inf)
    if y <= 0.0:
        return out
    a = (alpha / y) * np.log(u)
    fires = a > -1.0
    out[fires] = np.maximum(-np.log1p(a[fires]) / alpha, _TINY)
    return out


def primary_survival(phi: PhiSpec, x: float, c: float, t) -> float | np.ndarray:
    """P(T1 > t) for the primary clock, via the closed-form hazard."""
    lam = cumulative_hazard_primary(phi, x, c, t)
    if np.ndim(lam):
        return np.exp(-lam)
    return math.exp(-lam)


def secondary_survival(y: float, alpha: float, t) -> float | np.ndarray:
    """P(T2 > t) for the defective secondary clock.  Its cumulative hazard
    (y/alpha)*(1 - exp(-alpha*t)) is written with -expm1, which keeps its
    relative accuracy where alpha*t is far below 1."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-(y / alpha) * -np.expm1(-alpha * t))
    return float(out) if out.ndim == 0 else out


def expected_wait(phi: PhiSpec, x: float, c: float, y: float, alpha: float) -> float:
    """E[min(T1(x), T2(y))], the mean wait from the state (x, y), as the
    integral of P(T1 > t)*P(T2 > t) over t >= 0: the product of
    `primary_survival` and `secondary_survival`.  With y = 0 the secondary
    clock never fires and this is E[T1(x)].

    Composite 24-point Gauss-Legendre quadrature.  The panels are geometric
    in hazard rather than in time: their edges are the closed-form waits at
    which either clock's cumulative hazard doubles (or the secondary clock's
    remaining hazard halves), so every panel sits at the integrand's own
    scale, however far away the primary clock's bulk lies or however close
    to 0 the secondary clock's.  The integral stops where the primary
    hazard reaches 42 and the survival product is below 1e-18.
    """
    if not (-_INF < x < _INF and 0.0 <= y < _INF):
        raise ValueError(f"need finite x and finite y >= 0, got ({x}, {y})")
    t1 = phi.invert_many(x, c, _WAIT_LEVELS)
    edges = [np.zeros(1), t1]
    if y > 0.0:
        # the secondary hazard (y/alpha)*(1 - e^{-alpha*t}) at the same
        # levels while below half its total, then at each halving of the rest
        g = _WAIT_LEVELS * (alpha / y)
        t2 = np.concatenate((-np.log1p(-g[g < 0.5]), _WAIT_HALVINGS)) / alpha
        edges.append(t2[t2 < t1[-1]])
    e = np.unique(np.concatenate(edges))
    half = 0.5 * (e[1:] - e[:-1])
    t = (0.5 * (e[1:] + e[:-1]))[:, None] + half[:, None] * _GL_NODES
    survival = primary_survival(phi, x, c, t) * secondary_survival(y, alpha, t)
    return float(half @ (survival @ _GL_WEIGHTS))
