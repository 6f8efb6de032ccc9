"""Numerical verification of the model's stationary-regime identities.

In the subcritical regime (k/alpha < 1) the process has a unique stationary
law with three testable identities for the event rate:

    rate            = c / E[Z]                 (stress balance)
    E[Y]            = rate * k / alpha         (aftershock share)
    rate            = rate_primary + E[Y]      (component balance)

`estimate_rates` measures all three from a single long trajectory with
batch-means errors.  The remaining operations probe the qualitative theory:
stochastic orderings of the clocks, the scaled shrinkage limit of the
secondary clock, two-chain convergence as a total-variation surrogate, and
the degeneracy of the critical and supercritical regimes.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .chain import EARLY_STOPS, EventLog, StopRule, simulate, state_at, window_integrals
from .model import ModelParams, Regime, State, regime, sample_primary_times, sample_secondary_times
from .stats import batch_se, dominance_violation, ks_critical_value, ks_two_sample, one_sided_band

__all__ = [
    "RegimeError",
    "InsufficientDataError",
    "theoretical_rate",
    "SummaryStats",
    "estimate_rates",
    "ConvergencePoint",
    "ConvergenceReport",
    "convergence_diagnostic",
    "DominanceReport",
    "dominance_test",
    "LemmaRow",
    "lemma_l2_check",
    "GrowthReport",
    "supercritical_probe",
]

_BATCHES = 20  # batch-means batches in estimate_rates
_LEVEL = 0.01  # significance level of the KS checks


class RegimeError(ValueError):
    """Raised when an operation requires a regime the parameters are not in."""


class InsufficientDataError(ValueError):
    """Raised when a log carries too little data for the requested estimate."""


def theoretical_rate(params: ModelParams) -> float:
    """Stationary event rate c/E[Z]; defined only in the subcritical regime."""
    r = regime(params)
    if r is Regime.CRITICAL:
        raise RegimeError(
            "k/alpha = 1: the only point process with finite average intensity "
            "is the empty one, so no stationary rate exists"
        )
    if r is Regime.SUPERCRITICAL:
        raise RegimeError(
            f"k/alpha = {params.k / params.alpha:.6g} > 1: no finite-rate "
            "stationary regime exists"
        )
    return params.c / params.z.expectation()


@dataclass(frozen=True)
class SummaryStats:
    """Rate estimates from one trajectory with batch-means errors.

    `mean_y_hat` and `lambda2_hat` are the same number (the time average of
    Y estimates both E[Y] and the aftershock component of the rate); both
    names are kept because both identities are of interest.
    """

    rate_hat: float
    rate_se: float
    rate_theory: Optional[float]
    mean_y_hat: float
    mean_y_se: float
    lambda1_hat: float
    lambda1_se: float
    lambda2_hat: float
    lambda2_se: float
    regime: Regime
    n_events: int
    horizon_effective: float
    burn_in_fraction: float
    batches: int
    diagnostics: dict = field(default_factory=dict)


def estimate_rates(
    log: EventLog,
    burn_in_fraction: float = 0.1,
) -> SummaryStats:
    """Estimate the event rate and its two components from a trajectory.

    The first `burn_in_fraction` of the horizon is discarded (the theory is
    about the stationary regime; the transient biases finite runs), the
    rest is split into _BATCHES equal-length batches, and standard errors
    come from the batch scatter.  The balance residual rate - lambda1 - lambda2 and
    its standard error are reported in `diagnostics`.
    """
    if not 0.0 <= burn_in_fraction < 1.0:
        raise ValueError("burn_in_fraction must be in [0, 1)")
    if log.horizon <= 0 or not log.t.size:
        raise InsufficientDataError("insufficient data: empty log")
    if burn_in_fraction == 0.0:
        warnings.warn(
            "burn-in disabled: estimates include the initial transient",
            stacklevel=2,
        )
    t_burn = burn_in_fraction * log.horizon
    span = log.horizon - t_burn
    edges = np.linspace(t_burn, log.horizon, _BATCHES + 1)
    counts = np.empty(_BATCHES)
    int_y = np.empty(_BATCHES)
    int_phi = np.empty(_BATCHES)
    for i in range(_BATCHES):
        n_i, y_i, p_i = window_integrals(log, float(edges[i]), float(edges[i + 1]))
        counts[i], int_y[i], int_phi[i] = n_i, y_i, p_i
    n_events = int(np.sum(counts))
    if n_events == 0:
        raise InsufficientDataError("insufficient data: no events after burn-in")
    width = span / _BATCHES
    rates = counts / width
    l2 = int_y / width
    l1 = int_phi / width

    reg = regime(log.params)
    theory = theoretical_rate(log.params) if reg is Regime.SUBCRITICAL else None
    rate_hat = n_events / span
    l1_hat = float(np.sum(int_phi)) / span
    l2_hat = float(np.sum(int_y)) / span
    resid = rates - l1 - l2
    diagnostics = {
        "balance_residual": rate_hat - l1_hat - l2_hat,
        "balance_residual_se": batch_se(resid),
        "y_share": l2_hat / rate_hat,
        "terminated_reason": log.terminated_reason,
    }
    return SummaryStats(
        rate_hat=rate_hat,
        rate_se=batch_se(rates),
        rate_theory=theory,
        mean_y_hat=l2_hat,
        mean_y_se=batch_se(l2),
        lambda1_hat=l1_hat,
        lambda1_se=batch_se(l1),
        lambda2_hat=l2_hat,
        lambda2_se=batch_se(l2),
        regime=reg,
        n_events=n_events,
        horizon_effective=span,
        burn_in_fraction=burn_in_fraction,
        batches=_BATCHES,
        diagnostics=diagnostics,
    )


@dataclass(frozen=True)
class ConvergencePoint:
    t: float
    ks_x: float
    ks_y: float
    threshold: float

    @property
    def below(self) -> bool:
        return self.ks_x <= self.threshold and self.ks_y <= self.threshold


@dataclass(frozen=True)
class ConvergenceReport:
    points: tuple[ConvergencePoint, ...]
    replications: int
    alpha: float
    cz_warning: bool


def convergence_diagnostic(
    params: ModelParams,
    init_a: State,
    init_b: State,
    t_grid: Sequence[float],
    replications: int,
    rng: np.random.Generator,
) -> ConvergenceReport:
    """Two-chain convergence check: KS distance per coordinate over time.

    Runs `replications` independent natural trajectories from each initial
    state, reconstructs (X(t), Y(t)) at each grid time, and compares the
    two per-coordinate samples with the two-sample KS distance against the
    critical value at level _LEVEL.  Small distances at late times are the
    observable footprint of convergence to a common stationary law.
    Replication counts whose critical value is >= 1 are refused, since no
    distance could then exceed it.  So is any run in which a chain stops
    early (InsufficientDataError): it has no state at later grid times.
    """
    if regime(params) is not Regime.SUBCRITICAL:
        raise RegimeError("convergence diagnostic requires the subcritical regime")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    thr = ks_critical_value(replications, replications, _LEVEL)
    cz_missing = params.z.density_floor() is None
    if cz_missing:
        warnings.warn(
            "stress-drop law has no absolutely continuous component; ergodic "
            "convergence is not guaranteed for this configuration",
            stacklevel=2,
        )
    grid = sorted(float(t) for t in t_grid)
    if not grid:
        raise ValueError("t_grid must be non-empty")
    for t in grid:  # NaN sorts anywhere, so check every time
        if not 0.0 <= t < math.inf:
            raise ValueError(f"t_grid times must be finite and >= 0, got {t}")
    t_max = grid[-1]
    stop = StopRule(horizon=t_max if t_max > 0 else 1.0)
    # allocate before spawning: numpy refuses a sample too large for memory
    # at once, where spawning one generator per replication would not
    shape = (replications, len(grid))
    samples = {label: (np.empty(shape), np.empty(shape)) for label in "ab"}
    children = rng.spawn(2 * replications)
    stops = []  # (stop time, reason) of each chain that stopped early
    for (xs, ys), init, chunk in (
        (samples["a"], init_a, children[:replications]),
        (samples["b"], init_b, children[replications:]),
    ):
        for i, child in enumerate(chunk):
            log = simulate(params, init, stop, child)
            if log.terminated_reason in EARLY_STOPS:
                stops.append((log.horizon, log.terminated_reason))
                continue
            for j, t in enumerate(grid):
                s = state_at(log, t)
                xs[i, j] = s.x
                ys[i, j] = s.y
    if stops:
        when, reason = min(stops)
        raise InsufficientDataError(
            f"{len(stops)} of {2 * replications} chains stopped early, the first by "
            f"{EARLY_STOPS[reason]} at t={when:.6g}; no KS distances computed"
        )
    points = []
    for j, t in enumerate(grid):
        ks_x = ks_two_sample(samples["a"][0][:, j], samples["b"][0][:, j])
        ks_y = ks_two_sample(samples["a"][1][:, j], samples["b"][1][:, j])
        points.append(ConvergencePoint(t, ks_x, ks_y, thr))
    return ConvergenceReport(tuple(points), replications, _LEVEL, cz_missing)


@dataclass(frozen=True)
class DominanceReport:
    family: str
    param_low: float
    param_high: float
    n: int
    violation: float
    band: float

    @property
    def passed(self) -> bool:
        return self.violation <= self.band


_DOMINANCE_FAMILIES = ("secondary", "primary", "shifted_primary")


def dominance_test(
    params: ModelParams,
    family: str,
    param_low: float,
    param_high: float,
    n: int,
    rng: np.random.Generator,
) -> DominanceReport:
    """One-sided empirical check of the clock orderings.

    family="secondary":       wait T2(y) shrinks stochastically as y grows
    family="primary":         wait T1(x) shrinks stochastically as x grows
    family="shifted_primary": the post-wait stress ramp x + c*T1(x) grows
                              stochastically with x

    The report carries the largest CDF-ordering violation and the
    one-sided band at level _LEVEL it must stay under.  Sizes n whose band
    is >= 1 are refused, since no violation could then exceed it.
    """
    if family not in _DOMINANCE_FAMILIES:
        raise ValueError(f"family must be one of {_DOMINANCE_FAMILIES}, got {family!r}")
    if not (math.isfinite(param_low) and math.isfinite(param_high)):
        raise ValueError(f"need finite parameters, got [{param_low}, {param_high}]")
    if not param_low < param_high:
        raise ValueError("need param_low < param_high")
    if n < 1:
        raise ValueError("n must be >= 1")
    band = one_sided_band(n, n, _LEVEL)
    if family == "secondary":
        hi = sample_secondary_times(param_low, params.alpha, rng, n)
        lo = sample_secondary_times(param_high, params.alpha, rng, n)
        violation = dominance_violation(hi, lo)
    elif family == "primary":
        hi = sample_primary_times(params.phi, param_low, params.c, rng, n)
        lo = sample_primary_times(params.phi, param_high, params.c, rng, n)
        violation = dominance_violation(hi, lo)
    else:
        low_shift = param_low + params.c * sample_primary_times(params.phi, param_low, params.c, rng, n)
        high_shift = param_high + params.c * sample_primary_times(params.phi, param_high, params.c, rng, n)
        violation = dominance_violation(high_shift, low_shift)
    return DominanceReport(family, param_low, param_high, n, violation, band)


@dataclass(frozen=True)
class LemmaRow:
    y: float
    mc: float
    se: float
    exact: float


def lemma_l2_check(
    alpha: float,
    y_grid: Sequence[float],
    n: int,
    rng: np.random.Generator,
) -> list[LemmaRow]:
    """Monte Carlo table of the scaled secondary-clock shrinkage.

    For each y, estimates y*E[1 - exp(-alpha*T2(y))] from n draws and pairs
    it with the closed form alpha*(1 - exp(-y/alpha)); the never-fires atom
    contributes its full weight y.  The exact value approaches alpha as y
    grows, which is the limit the drift construction leans on.
    """
    if not 0 < alpha < math.inf:
        raise ValueError(f"alpha must be finite and > 0, got {alpha}")
    if n < 2:
        raise ValueError("n must be >= 2 (the standard error needs two draws)")
    rows = []
    for y in y_grid:
        if not 0 <= y < math.inf:
            raise ValueError(f"y must be finite and >= 0, got {y}")
        if y == 0:
            rows.append(LemmaRow(0.0, 0.0, 0.0, 0.0))
            continue
        t = sample_secondary_times(float(y), alpha, rng, n)
        vals = y * -np.expm1(-alpha * t)
        mc = float(np.mean(vals))
        exact = alpha * -math.expm1(-y / alpha)
        rows.append(LemmaRow(float(y), mc, batch_se(vals), exact))
    return rows


@dataclass(frozen=True)
class GrowthReport:
    """Per-quartile event rates of a single run, with an explosiveness flag:
    strictly increasing rates across the quartiles, or an early stop
    (saturated intensity or exhausted time resolution), mark the run as
    explosive."""

    regime: Regime
    quartile_rates: tuple[float, float, float, float]
    event_count: int
    time_covered: float
    terminated_reason: str

    @property
    def explosive(self) -> bool:
        if self.terminated_reason in EARLY_STOPS:
            return True
        r = self.quartile_rates
        return r[0] < r[1] < r[2] < r[3]


def supercritical_probe(
    params: ModelParams,
    horizon: float,
    budget: int,
    rng: np.random.Generator,
    initial: State = State(0.0, 0.0),
) -> GrowthReport:
    """Run up to the horizon or the event budget and report rate growth.

    Intended for critical and supercritical parameters, where the theory
    predicts either extinction or explosion; for subcritical input the
    report is purely informational.
    """
    log = simulate(params, initial, StopRule(max_events=budget, horizon=horizon), rng)
    t_end = log.horizon
    times = log.event_times
    if t_end <= 0:
        rates = (0.0, 0.0, 0.0, 0.0)
    else:
        edges = np.linspace(0.0, t_end, 5)
        counts = np.diff(np.searchsorted(times, edges, side="right"))
        rates = tuple(float(c) / (t_end / 4.0) for c in counts)
    return GrowthReport(
        regime=regime(params),
        quartile_rates=rates,  # type: ignore[arg-type]
        event_count=len(times),
        time_covered=t_end,
        terminated_reason=log.terminated_reason,
    )
