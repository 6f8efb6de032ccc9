"""Independent oracle simulator based on windowed thinning.

Candidate points are proposed from a homogeneous stream whose rate bounds
the true intensity over a short window and accepted with probability
lambda(t-)/bound.  Between events the bound is valid because the stress
ramp only raises phi going forward while the aftershock residual only
decays, so

    bound = phi(x + c*delta) + y  >=  phi(x + c*u) + y*exp(-alpha*u)

for every u in [0, delta).  After each accepted event the window restarts
from the post-event state.

This path exists to cross-validate the inversion sampler; it is
deliberately simple and makes no attempt to match its speed.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from .chain import EventLog
from .model import ModelParams, State, phi_eval

__all__ = ["simulate_thinning"]

_DEFAULT_MAX_WINDOW = 0.1
_BOUND_SLACK = 1.0 + 1e-9


def simulate_thinning(
    params: ModelParams,
    initial: State,
    horizon: float,
    rng: np.random.Generator,
    window: Optional[float] = None,
) -> EventLog:
    """Simulate on [0, horizon] by thinning; same log schema as `simulate`.

    `window` fixes the proposal window length; by default it adapts to
    min(0.1, 1/lambda(t)) so the bound stays tight.  Raises RuntimeError if
    a candidate ever sees intensity above the window bound (that would mean
    the bound argument is broken, so it is checked on every proposal).
    """
    if not horizon > 0:
        raise ValueError("horizon must be > 0")
    if window is not None and not window > 0:
        raise ValueError("window must be > 0")

    c, k, alpha = params.c, params.k, params.alpha
    x, y = initial.x, initial.y
    t = 0.0
    t_last = 0.0
    columns: list[list[float]] = [[] for _ in range(6)]  # t, dt, x, y, z, lambda_pre
    reason = "horizon_reached"

    while t < horizon:
        lam_now = phi_eval(params.phi, x) + y
        if lam_now >= params.intensity_cap:
            reason = "saturation"
            break
        if window is not None:
            delta = window
        else:
            delta = min(_DEFAULT_MAX_WINDOW, 1.0 / max(lam_now, 1e-12))
        delta = min(delta, horizon - t)
        bound = phi_eval(params.phi, x + c * delta) + y
        if not math.isfinite(bound):
            reason = "saturation"
            break
        accepted = False
        if bound > 0.0:
            s = 0.0
            while True:
                s += rng.standard_exponential() / bound
                if s >= delta:
                    break
                xc = x + c * s
                yc = y * math.exp(-alpha * s)
                lam_c = phi_eval(params.phi, xc) + yc
                if lam_c > bound * _BOUND_SLACK:
                    raise RuntimeError(
                        f"thinning bound violated: lambda={lam_c} > bound={bound}"
                    )
                if rng.random() * bound <= lam_c:
                    z = params.z.draw(rng)
                    t = t + s
                    x = xc - z
                    y = yc + k
                    for col, v in zip(columns, (t, t - t_last, x, y, z, lam_c)):
                        col.append(v)
                    t_last = t
                    accepted = True
                    break
        if not accepted:
            t += delta
            x += c * delta
            y *= math.exp(-alpha * delta)

    horizon_out = horizon if reason == "horizon_reached" else t
    events = np.ones(len(columns[0]), dtype=bool)
    return EventLog(params, initial, horizon_out, reason, *(np.array(col, dtype=float) for col in columns), events)
