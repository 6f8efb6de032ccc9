"""Embedded Markov chains, trajectory simulation and exact time integrals.

Between events the state flows deterministically, (x, y) -> (x + c*dt,
y*exp(-alpha*dt)).  At an event after a wait of T the post-event state is

    x' = x + c*T - Z        (stress relieved by the random drop Z)
    y' = y*exp(-alpha*T) + k

The natural chain records every event; the truncated chain additionally
caps the wait at v0 whenever the stress is at or below a (very negative)
level x1, producing "phantom" transitions that advance time without an
event.  Phantoms are logged with kind="truncation_phantom" and excluded
from all event counts and rate estimates.

Time integrals of the intensity components over a trajectory are exact:
each inter-event segment contributes a closed-form piece, including the
tail segment between the last event and the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .foster_config import FosterConfig
from .model import (
    ModelParams,
    State,
    cumulative_hazard_primary,
    intensity_saturated,
    phi_eval,
    z_sample,
)
from .sampler import sample_interevent, sample_interevent_truncated

__all__ = [
    "EARLY_STOPS",
    "EventRecord",
    "EventLog",
    "StopRule",
    "step_natural",
    "step_truncated",
    "simulate",
    "flow",
    "state_at",
    "integrated_y",
    "integrated_phi_x",
    "window_integrals",
]

KIND_EVENT = "event"
KIND_PHANTOM = "truncation_phantom"

# terminated_reason of a run that stopped before its StopRule, and the cause
EARLY_STOPS = {"saturation": "intensity saturation", "time_resolution": "float time resolution"}


@dataclass(frozen=True, slots=True)
class EventRecord:
    """One transition of the embedded chain.

    n          1-based position in the log (phantoms included)
    t          absolute transition time
    dt         wait since the previous transition (> 0)
    kind       "event" or "truncation_phantom"
    x_post     stress level just after the transition
    y_post     aftershock residual just after the transition
    z          stress relieved (0 for phantoms)
    lambda_pre intensity immediately before the transition
    """

    n: int
    t: float
    dt: float
    kind: str
    x_post: float
    y_post: float
    z: float
    lambda_pre: float


@dataclass(frozen=True)
class StopRule:
    """Stop after max_events real events, at the time horizon, or whichever
    of the two comes first when both are set."""

    max_events: Optional[int] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is None and self.horizon is None:
            raise ValueError("set max_events, horizon, or both")
        if self.max_events is not None and self.max_events < 0:
            raise ValueError(f"max_events must be >= 0, got {self.max_events}")
        if self.horizon is not None and not self.horizon > 0:
            raise ValueError(f"horizon must be > 0, got {self.horizon}")


@dataclass
class EventLog:
    """Simulation trace: parameters, initial state, ordered records and the
    total simulated time.  `terminated_reason` is one of:

    "horizon_reached"  the next transition would pass stop.horizon
    "event_budget"     stop.max_events real events were made
    "saturation"       the intensity reached params.intensity_cap
    "time_resolution"  the next wait was too short to advance the float
                       clock (t + dt == t)
    """

    params: ModelParams
    initial: State
    records: list[EventRecord]
    horizon: float
    terminated_reason: str

    @property
    def event_count(self) -> int:
        return sum(1 for r in self.records if r.kind == KIND_EVENT)

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment arrays (t_start, x_start, y_start, t_end), one row per
        inter-transition segment including the tail up to the horizon."""
        n = len(self.records)
        t0 = np.empty(n + 1)
        x0 = np.empty(n + 1)
        y0 = np.empty(n + 1)
        t1 = np.empty(n + 1)
        t0[0], x0[0], y0[0] = 0.0, self.initial.x, self.initial.y
        for i, r in enumerate(self.records):
            t1[i] = r.t
            t0[i + 1] = r.t
            x0[i + 1] = r.x_post
            y0[i + 1] = r.y_post
        t1[n] = max(self.horizon, t1[n - 1] if n else 0.0)
        return t0, x0, y0, t1

    @cached_property
    def event_times(self) -> np.ndarray:
        return np.array([r.t for r in self.records if r.kind == KIND_EVENT])

    @cached_property
    def transition_times(self) -> np.ndarray:
        return np.array([r.t for r in self.records])


def flow(params: ModelParams, state: State, dt: float) -> State:
    """Deterministic inter-event flow over a lapse dt >= 0."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return State(state.x + params.c * dt, state.y * math.exp(-params.alpha * dt))


def state_at(log: EventLog, t: float) -> State:
    """State (x, y) at absolute time t, reconstructed from the log."""
    if t < 0 or t > log.horizon:
        raise ValueError(f"t={t} outside [0, {log.horizon}]")
    times = log.transition_times
    i = int(np.searchsorted(times, t, side="right"))
    if i == 0:
        base_t, base = 0.0, log.initial
    else:
        r = log.records[i - 1]
        base_t, base = r.t, State(r.x_post, r.y_post)
    return flow(log.params, base, t - base_t)


def step_natural(
    params: ModelParams, state: State, rng: np.random.Generator
) -> tuple[EventRecord, State]:
    """One natural transition; returns the record core (n and t zeroed) and
    the post-event state."""
    t = sample_interevent(params, state, rng)
    z = z_sample(params.z, rng)
    decay = math.exp(-params.alpha * t)
    lam_pre = phi_eval(params.phi, state.x + params.c * t) + state.y * decay
    new = State(state.x + params.c * t - z, state.y * decay + params.k)
    rec = EventRecord(0, 0.0, t, KIND_EVENT, new.x, new.y, z, lam_pre)
    return rec, new


def step_truncated(
    params: ModelParams, state: State, foster: FosterConfig, rng: np.random.Generator
) -> tuple[EventRecord, State]:
    """One transition of the truncated embedding.  Identical in law to
    `step_natural` when x > x1; below x1 a wait capped at v0 becomes a
    phantom transition with no stress drop and no aftershock jump."""
    if state.x > foster.x1:
        return step_natural(params, state, rng)
    draw = sample_interevent_truncated(params, state, foster.v0, foster.x1, rng)
    decay = math.exp(-params.alpha * draw.t_tilde)
    lam_pre = phi_eval(params.phi, state.x + params.c * draw.t_tilde) + state.y * decay
    if draw.is_real_event:
        z = z_sample(params.z, rng)
        new = State(state.x + params.c * draw.t_tilde - z, state.y * decay + params.k)
        rec = EventRecord(0, 0.0, draw.t_tilde, KIND_EVENT, new.x, new.y, z, lam_pre)
    else:
        new = State(state.x + params.c * draw.t_tilde, state.y * decay)
        rec = EventRecord(0, 0.0, draw.t_tilde, KIND_PHANTOM, new.x, new.y, 0.0, lam_pre)
    return rec, new


def simulate(
    params: ModelParams,
    initial: State,
    stop: StopRule,
    rng: np.random.Generator,
    truncated: Optional[FosterConfig] = None,
    record_sink: Optional[Callable[[EventRecord], None]] = None,
    keep_records: bool = True,
) -> EventLog:
    """Simulate one trajectory of the embedded chain.

    With `truncated` set, transitions follow the truncated embedding and
    phantom records may appear.  `record_sink`, when given, receives every
    record as it is produced (streaming CSV for very long runs);
    `keep_records=False` then drops them from the returned log.

    Two conditions stop the run early: a saturated intensity (at
    params.intensity_cap) gives terminated_reason="saturation", and a wait
    below the float resolution of the clock gives "time_resolution".  See
    `EventLog` for all four reasons.
    """
    records: list[EventRecord] = []
    state = initial
    t = 0.0
    n = 0
    events = 0
    reason = "event_budget"
    while True:
        if stop.max_events is not None and events >= stop.max_events:
            reason = "event_budget"
            break
        if intensity_saturated(params, state):
            reason = "saturation"
            break
        if truncated is not None:
            core, new_state = step_truncated(params, state, truncated, rng)
        else:
            core, new_state = step_natural(params, state, rng)
        if stop.horizon is not None and t + core.dt > stop.horizon:
            reason = "horizon_reached"
            break
        if t + core.dt == t:
            # wait below float resolution at this time scale: time can no
            # longer advance, whatever the intensity
            reason = "time_resolution"
            break
        t += core.dt
        n += 1
        rec = EventRecord(n, t, core.dt, core.kind, core.x_post, core.y_post, core.z, core.lambda_pre)
        if record_sink is not None:
            record_sink(rec)
        if keep_records:
            records.append(rec)
        state = new_state
        if rec.kind == KIND_EVENT:
            events += 1

    horizon = stop.horizon if (stop.horizon is not None and reason == "horizon_reached") else t
    return EventLog(params, initial, records, horizon, reason)


def integrated_y(log: EventLog) -> float:
    """Exact integral of the aftershock residual Y(t) over [0, horizon]."""
    alpha = log.params.alpha
    t0, _, y0, t1 = log._segments
    dt = t1 - t0
    return float(np.sum(y0 * -np.expm1(-alpha * dt)) / alpha)


def integrated_phi_x(log: EventLog) -> float:
    """Exact integral of the primary hazard phi(X(t)) over [0, horizon]."""
    p = log.params
    t0, x0, _, t1 = log._segments
    vals = cumulative_hazard_primary(p.phi, x0, p.c, t1 - t0)
    return float(np.sum(vals))


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
