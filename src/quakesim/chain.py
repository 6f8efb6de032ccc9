"""Embedded Markov chains, trajectory simulation and exact time integrals.

Between events the state flows deterministically, (x, y) -> (x + c*dt,
y*exp(-alpha*dt)).  At an event after a wait of T the post-event state is

    x' = x + c*T - Z        (stress relieved by the random drop Z)
    y' = y*exp(-alpha*T) + k

The natural chain records every event; the truncated chain additionally
caps the wait at v0 whenever the stress is at or below a (very negative)
level x1, producing "phantom" transitions that advance time without an
event.  Phantoms are logged with is_event False and excluded from all
event counts and rate estimates.

One transition kernel makes every step of both chains, moving a mutable
position in place; `simulate` and `step` (one transition from a `State`)
both run it.  They read their randomness from a `Draws`, the three streams
of draw contract v2: `rng.spawn(3)` of the trajectory's generator gives
the unit exponentials E of the primary clock, the uniforms U of the
secondary clock (the clock formulas are in `model`) and the stress drops
Z, in that order.  Each transition takes the next E and the next U, and an
event also the next Z; a truncation phantom takes no Z.  Each stream is
read strictly in order, in blocks of a fixed size.  numpy's block draws
equal its scalar draws, so the columns do not depend on the block size.
A trajectory is an `EventLog` of columns, one float64 array per field
and a boolean event mask.

Time integrals of the intensity components over a trajectory are exact:
each inter-event segment contributes a closed-form piece, including the
tail segment between the last event and the horizon.
"""

from __future__ import annotations

import math
import numbers
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Optional

import numpy as np

from .model import (
    FosterConfig,
    ModelParams,
    State,
    ZSpec,
    cumulative_hazard_primary,
    intensity_saturated,
    phi_eval,
    primary_time_from_exponential,
    secondary_time_from_uniform,
)

__all__ = [
    "EARLY_STOPS",
    "Draws",
    "EventLog",
    "StopRule",
    "sample_interevent",
    "step",
    "simulate",
    "flow",
    "state_at",
    "window_integrals",
]

# terminated_reason of a run that stopped before its StopRule, and the cause
EARLY_STOPS = {"saturation": "intensity saturation", "time_resolution": "float time resolution"}

# the float64 columns of an EventLog, in order; `is_event` follows them
FLOAT_COLUMNS = ("t", "dt", "x", "y", "z", "lambda_pre")

# values per block of a `Draws` stream.  A converge trajectory (about 100
# events) reads one block per stream; on replicas' runs of about 1e4
# events, larger blocks measured within about 1%.
_BLOCK = 256


@dataclass(frozen=True)
class StopRule:
    """Stop after max_events real events, at the time horizon, or whichever
    of the two comes first when both are set."""

    max_events: Optional[int] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is None and self.horizon is None:
            raise ValueError("set max_events, horizon, or both")
        m = self.max_events
        if m is not None and (isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0):
            raise ValueError(f"max_events must be an integer >= 0, got {m!r}")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")


@dataclass(eq=False)
class EventLog:
    """Simulation trace: parameters, initial state, the total simulated time,
    why the run stopped, and the transitions as columns, one row per
    transition (phantoms included) in time order:

    t          absolute transition time (float64)
    dt         wait since the previous transition, > 0 (float64)
    x, y       state just after the transition (float64)
    z          stress relieved, 0 for phantoms (float64)
    lambda_pre intensity immediately before the transition (float64)
    is_event   True for an event, False for a truncation phantom (bool)

    `terminated_reason` is one of:

    "horizon_reached"  the next transition would pass stop.horizon
    "event_budget"     stop.max_events real events were made
    "saturation"       the intensity reached params.intensity_cap
    "time_resolution"  the next wait was too short to advance the float
                       clock (t + dt == t)
    """

    params: ModelParams
    initial: State
    horizon: float
    terminated_reason: str
    t: np.ndarray
    dt: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lambda_pre: np.ndarray
    is_event: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        scalars = ("params", "initial", "horizon", "terminated_reason")
        return all(getattr(self, f) == getattr(other, f) for f in scalars) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in (*FLOAT_COLUMNS, "is_event")
        )

    @property
    def event_count(self) -> int:
        return int(np.count_nonzero(self.is_event))

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment arrays (t_start, x_start, y_start, t_end), one row per
        inter-transition segment including the tail up to the horizon."""
        t0 = np.concatenate(([0.0], self.t))
        x0 = np.concatenate(([self.initial.x], self.x))
        y0 = np.concatenate(([self.initial.y], self.y))
        t1 = np.append(self.t, max(self.horizon, self.t[-1] if self.t.size else 0.0))
        return t0, x0, y0, t1

    @cached_property
    def event_times(self) -> np.ndarray:
        return self.t[self.is_event]


def flow(params: ModelParams, state: State, dt: float) -> State:
    """Deterministic inter-event flow over a lapse dt >= 0."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return State(state.x + params.c * dt, state.y * math.exp(-params.alpha * dt))


def state_at(log: EventLog, t: float) -> State:
    """State (x, y) at absolute time t, reconstructed from the log."""
    if t < 0 or t > log.horizon:
        raise ValueError(f"t={t} outside [0, {log.horizon}]")
    i = int(np.searchsorted(log.t, t, side="right"))
    if i == 0:
        base_t, base = 0.0, log.initial
    else:
        base_t, base = float(log.t[i - 1]), State(float(log.x[i - 1]), float(log.y[i - 1]))
    return flow(log.params, base, t - base_t)


def sample_interevent(params: ModelParams, state: State, e: float, u: float) -> float:
    """Waiting time from `state`: the minimum of the two independent clocks,
    the primary clock inverted at the unit exponential `e` and the
    secondary clock at the uniform `u`.

    The primary clock is finite with probability one, so the result is
    always finite.
    """
    t1 = primary_time_from_exponential(params.phi, state.x, params.c, e)
    t2 = secondary_time_from_uniform(state.y, params.alpha, u)
    return t1 if t1 <= t2 else t2


def _stream(block: Callable[[int], np.ndarray]) -> Iterator[float]:
    """The values of `block(_BLOCK)` calls, one at a time.  Overflow to inf
    is left to the kernel's range check, which refuses it without a numpy
    warning.  A block's list of floats is dropped before the next block is
    drawn."""
    while True:
        with np.errstate(over="ignore"):
            values = block(_BLOCK)
        yield from values.tolist()


class Draws:
    """The draw streams of one trajectory under draw contract v2.

    `rng.spawn(3)` gives the streams of the primary exponentials, the
    secondary uniforms and the drops of law `z` (kept as `law`), in that
    order; `e()`, `u()` and `z()` return each stream's next value.  Each
    spawn gives new children, so two `Draws` of one generator read
    different streams.
    """

    __slots__ = ("law", "e", "u", "z")

    def __init__(self, rng: np.random.Generator, z: ZSpec) -> None:
        e_rng, u_rng, z_rng = rng.spawn(3)
        self.law = z
        self.e = _stream(e_rng.standard_exponential).__next__
        self.u = _stream(u_rng.random).__next__
        self.z = _stream(lambda n: z.draws(z_rng, n)).__next__


class _Position:
    """The chain's current state, moved in place by each step.

    It has the two fields of `State`, which is all that `sample_interevent`
    and `intensity_saturated` read, without a validated frozen `State` built
    per transition.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _kernel(
    params: ModelParams, truncated: Optional[FosterConfig], draws: Draws
) -> Callable[[_Position], tuple[float, float, float, bool]]:
    """The transition function of the natural chain (`truncated` None) or the
    truncated embedding, reading `draws`.

    `transition(pos)` moves `pos` to the post-transition state and returns
    (dt, z, lambda_pre, is_event).  The wait comes from `sample_interevent`.
    In the truncated chain, a wait longer than v0 from a stress at or below
    x1 is capped at v0 and is a phantom: pure flow, z = 0.  `FosterConfig`
    guarantees v0 > 0 and x1 < 0, both finite.  A stress drop is drawn only
    for an event.
    """
    phi, c, k, alpha = params.phi, params.c, params.k, params.alpha
    next_e, next_u, next_z = draws.e, draws.u, draws.z
    exp, inf = math.exp, math.inf

    def transition(pos: _Position) -> tuple[float, float, float, bool]:
        dt = sample_interevent(params, pos, next_e(), next_u())
        event = truncated is None or pos.x > truncated.x1 or dt <= truncated.v0
        if not event:
            dt = truncated.v0
        decay = exp(-alpha * dt)
        x = pos.x + c * dt
        y = pos.y * decay
        lam = phi_eval(phi, x) + y
        if event:
            z = next_z()
            x, y = x - z, y + k
        else:
            z = 0.0
        if not (-inf < x < inf and 0.0 <= y < inf):
            State(x, y)  # raises: a drop or a flow left the float range
        pos.x, pos.y = x, y
        return dt, z, lam, event

    return transition


def step(
    params: ModelParams, state: State, draws: Draws, truncated: Optional[FosterConfig] = None
) -> tuple[State, float, float, float, bool]:
    """One transition from `state`, of the natural chain or, with
    `truncated` set, of the truncated embedding (as in `simulate`).

    Returns (post-transition state, dt, z, lambda_pre, is_event), reading
    `draws` exactly as the matching step of `simulate` does: steps from
    `Draws(rng, params.z)` replay `simulate(..., rng)`.  `draws` must be of
    params.z's drop law.
    """
    if draws.law != params.z:
        raise ValueError(f"draws are of drop law {draws.law}, params of {params.z}")
    pos = _Position(state.x, state.y)
    dt, z, lam, event = _kernel(params, truncated, draws)(pos)
    return State(pos.x, pos.y), dt, z, lam, event


def simulate(
    params: ModelParams,
    initial: State,
    stop: StopRule,
    rng: np.random.Generator,
    truncated: Optional[FosterConfig] = None,
) -> EventLog:
    """Simulate one trajectory of the embedded chain, reading `Draws(rng,
    params.z)`.

    With `truncated` set, transitions follow the truncated embedding and
    phantom rows may appear.

    Two conditions stop the run early: a saturated intensity (at
    params.intensity_cap) gives terminated_reason="saturation", and a wait
    below the float resolution of the clock gives "time_resolution".  See
    `EventLog` for all four reasons.
    """
    transition = _kernel(params, truncated, Draws(rng, params.z))
    pos = _Position(initial.x, initial.y)
    max_events = math.inf if stop.max_events is None else stop.max_events
    horizon = math.inf if stop.horizon is None else stop.horizon
    floats = [array("d") for _ in FLOAT_COLUMNS]
    mask = bytearray()
    put_t, put_dt, put_x, put_y, put_z, put_lam = (col.append for col in floats)
    put_event = mask.append
    t = 0.0
    events = 0
    while True:
        if events >= max_events:
            reason = "event_budget"
            break
        if intensity_saturated(params, pos):
            reason = "saturation"
            break
        dt, z, lam, event = transition(pos)
        if t + dt > horizon:
            reason = "horizon_reached"
            break
        if t + dt == t:
            # wait below float resolution at this time scale: time can no
            # longer advance, whatever the intensity
            reason = "time_resolution"
            break
        t += dt
        put_t(t)
        put_dt(dt)
        put_x(pos.x)
        put_y(pos.y)
        put_z(z)
        put_lam(lam)
        put_event(event)
        events += event

    end = stop.horizon if reason == "horizon_reached" else t
    # the log's columns share the grown buffers, they are not copied
    columns = [np.frombuffer(col, dtype=np.float64) for col in floats]
    return EventLog(params, initial, end, reason, *columns, np.frombuffer(mask, dtype=np.bool_))


def window_integrals(log: EventLog, a: float, b: float) -> tuple[int, float, float]:
    """Event count and exact component integrals restricted to (a, b].

    Returns (number of events with a < t <= b, integral of Y over [a, b],
    integral of phi(X) over [a, b]).  Used by batch-means estimators.
    """
    if not 0.0 <= a <= b <= log.horizon + 1e-9:
        raise ValueError(f"window [{a}, {b}] outside [0, {log.horizon}]")
    p = log.params
    t0, x0, y0, t1 = log._segments
    lo = np.clip(t0, a, b)
    hi = np.clip(t1, a, b)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    s_t0, s_x0, s_y0 = t0[live], x0[live], y0[live]
    e_lo = np.exp(-p.alpha * (lo - s_t0))
    e_hi = np.exp(-p.alpha * (hi - s_t0))
    int_y = float(np.sum(s_y0 * (e_lo - e_hi)) / p.alpha)
    int_phi = float(
        np.sum(
            cumulative_hazard_primary(p.phi, s_x0, p.c, hi - s_t0)
            - cumulative_hazard_primary(p.phi, s_x0, p.c, lo - s_t0)
        )
    )
    times = log.event_times
    n = int(np.searchsorted(times, b, side="right") - np.searchsorted(times, a, side="right"))
    return n, int_y, int_phi
