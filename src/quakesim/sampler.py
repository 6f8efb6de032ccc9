"""Exact inter-event time sampling by hazard inversion.

The waiting time from state (x, y) is the minimum of two independent clocks:

* a primary clock driven by the stress ramp, with survival
  P(T1 > t) = exp(-integral of phi(x + c*v) over [0, t]), always finite;
* a secondary clock driven by the decaying aftershock residual, with
  survival P(T2 > t) = exp(-(y/alpha) * (1 - exp(-alpha*t))).  This clock is
  defective: it never fires with probability exp(-y/alpha), represented
  here as the float value ``math.inf``.

Both clocks are sampled by inverting their cumulative hazards against a
unit exponential, so the sampler is exact (no discretisation, no
rejection).  Scalar versions are used in the sequential event loop; the
``*_times`` batch versions produce numpy arrays for Monte Carlo work and
share the same inversion formulas through the ``*_from_*`` transforms.
The primary clock's formulas are methods of each phi family
(``invert``/``invert_many``, see ``model``).
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .model import _TINY, FosterConfig, ModelParams, PhiSpec, State, cumulative_hazard_primary

__all__ = [
    "TruncatedDraw",
    "sample_secondary_time",
    "sample_interevent",
    "sample_interevent_truncated",
    "sample_primary_times",
    "sample_secondary_times",
    "primary_time_from_exponential",
    "secondary_time_from_uniform",
    "primary_survival",
    "secondary_survival",
]


class TruncatedDraw(NamedTuple):
    """Waiting time of the truncated embedding.

    ``is_real_event`` is False only on the truncation branch (x <= x1) when
    the natural waiting time exceeded the cap v0; then ``t_tilde == v0`` and
    no event of the point process occurs.
    """

    t_tilde: float
    is_real_event: bool


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
    """Invert the defective secondary survival at the uniform draw u.

    Returns math.inf for draws that land in the never-fires atom
    (u <= exp(-y/alpha), tested in log space so large y stays exact).
    """
    if y <= 0.0:
        return math.inf
    if u <= 0.0:
        u = _TINY
    lu = math.log(u)
    arg = 1.0 + (alpha / y) * lu
    if lu * alpha <= -y or arg <= 0.0:
        return math.inf
    t = -math.log(arg) / alpha
    return t if t > 0.0 else _TINY


def sample_secondary_time(y: float, alpha: float, rng: np.random.Generator) -> float:
    """One draw of the secondary clock at residual y; math.inf = never fires."""
    if y < 0:
        raise ValueError("y must be >= 0")
    if not alpha > 0:
        raise ValueError("alpha must be > 0")
    return secondary_time_from_uniform(y, alpha, rng.random())


def sample_interevent(params: ModelParams, state: State, rng: np.random.Generator) -> float:
    """Waiting time from `state`: the minimum of the two independent clocks.

    The primary clock is finite with probability one, so the result is
    always finite.  Consumes exactly one exponential and one uniform draw.
    """
    t1 = primary_time_from_exponential(params.phi, state.x, params.c, rng.standard_exponential())
    t2 = secondary_time_from_uniform(state.y, params.alpha, rng.random())
    return t1 if t1 <= t2 else t2


def sample_interevent_truncated(
    params: ModelParams,
    state: State,
    config: FosterConfig,
    rng: np.random.Generator,
) -> TruncatedDraw:
    """Waiting time of the truncated embedding.

    Below the stress threshold config.x1 the wait is capped at config.v0; a
    capped draw is a phantom transition, not an event of the point process.
    Above x1 the draw is the natural one.  `FosterConfig` guarantees
    v0 > 0 and x1 < 0, both finite.
    """
    t = sample_interevent(params, state, rng)
    if state.x > config.x1:
        return TruncatedDraw(t, True)
    if t <= config.v0:
        return TruncatedDraw(t, True)
    return TruncatedDraw(config.v0, False)


def sample_primary_times(phi: PhiSpec, x: float, c: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent primary-clock draws as an array."""
    return primary_times_from_exponentials(phi, x, c, rng.standard_exponential(n))


def primary_times_from_exponentials(phi: PhiSpec, x: float, c: float, e: np.ndarray) -> np.ndarray:
    """Vectorised primary inversion applied to given unit exponentials
    (`phi.invert_many`)."""
    e = np.maximum(np.asarray(e, dtype=float), _TINY)
    return phi.invert_many(x, c, e)


def sample_secondary_times(y: float, alpha: float, rng: np.random.Generator, n: int) -> np.ndarray:
    """n independent secondary-clock draws; the atom appears as np.inf."""
    return secondary_times_from_uniforms(y, alpha, rng.random(n))


def secondary_times_from_uniforms(y: float, alpha: float, u: np.ndarray) -> np.ndarray:
    """Vectorised secondary inversion applied to given uniforms."""
    u = np.maximum(np.asarray(u, dtype=float), _TINY)
    if y <= 0.0:
        return np.full(u.shape, np.inf)
    lu = np.log(u)
    out = np.full(u.shape, np.inf)
    finite = lu * alpha > -y
    arg = 1.0 + (alpha / y) * lu[finite]
    good = arg > 0.0
    vals = np.full(arg.shape, np.inf)
    vals[good] = np.maximum(-np.log(arg[good]) / alpha, _TINY)
    out[finite] = vals
    return out


def primary_survival(phi: PhiSpec, x: float, c: float, t) -> float | np.ndarray:
    """P(T1 > t) for the primary clock, via the closed-form hazard."""
    lam = cumulative_hazard_primary(phi, x, c, t)
    if np.ndim(lam):
        return np.exp(-np.asarray(lam, dtype=float))
    return 0.0 if math.isinf(lam) else math.exp(-lam)


def secondary_survival(y: float, alpha: float, t) -> float | np.ndarray:
    """P(T2 > t) for the defective secondary clock."""
    t = np.asarray(t, dtype=float)
    out = np.exp(-(y / alpha) * (1.0 - np.exp(-alpha * t)))
    return float(out) if out.ndim == 0 else out
