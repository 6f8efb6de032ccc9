"""Construction, validation and empirical probing of the drift condition.

Given weights r1 > r3 > 0 and r2 > 0 for the piecewise-linear test function

    L(x, y) = r1*x + r2*y   (x >= 0),      r3*|x| + r2*y   (x < 0),

`foster_params` builds the constants (gamma, x0, y0, v0, x1) so that one
step of the truncated chain decreases E[L] by at least gamma from every
state outside the box V = [x1, x0] x [0, y0].  The numbers come from a
system of inequalities; each carries a descriptive name used in reports:

    weights_order          r3 < r1
    weights_x_gain         r1*E[Z] > r2*k
    weights_y_gain         r2*delta > r3*E[Z],        delta = (alpha - k)/2
    drift_margin           gamma = min(r2*delta - r3*E[Z], r1*E[Z] - r2*k)/3
    x0_primary_wait        r1*c*E[T1(x0)] <= gamma
    x0_overshoot           (r1 + r3)*E[(Z - x0)^+] <= gamma
    y0_decay_gain          alpha*(1 - exp(-y0/alpha)) - k >= (5/3)*delta
    y0_wait                r1*c*E[T(0, y0)] <= gamma
    v0_capped_decay_gain   y0*E[1 - exp(-alpha*min(v0, T2(y0)))] - k >= (4/3)*delta
    v0_phantom_push        (r3*c*v0/2)*exp(-y0/alpha) > gamma + r3*E[Z] + r2*k
    x1_below_reach         x1 <= -c*v0
    x1_quiet_hazard        P(T1(x1) > v0) >= 1/2
    x1_decay_gain          y0*E[1 - exp(-alpha*min(T1(x1), T2(y0), v0))] - k >= delta

Constraints quantified over y >= y0 (or x <= x1) are monotone in the
quantified variable, so they are imposed and re-checked at the binding
corner.  Two identities remove Monte Carlo noise where it would hurt most:

    y*E[1 - exp(-alpha*T2(y))]          = alpha*(1 - exp(-y/alpha))
    y*E[1 - exp(-alpha*min(v0, T2(y)))] = alpha*(1 - exp(-(y/alpha)*(1 - exp(-alpha*v0))))

The wait expectations that fix x0 and y0 are deterministic integrals of
the closed-form survivals (`model.expected_wait`), solved by bisection; the
x1 corner gain is a Monte Carlo mean over one set of common random numbers.
Each choice is padded with a safety margin so that `validate_foster`, which
re-estimates every expectation by independent Monte Carlo, passes with room
to spare.  The phantom-push inequality makes v0 grow like exp(y0/alpha);
for heavy weights this is astronomically large, so all arithmetic touching
exp(c*v0) happens in log space, and the construction refuses configurations
whose constants cannot be represented in float64 at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .chain import Draws, step
from .model import (
    FosterConfig,
    ModelParams,
    Regime,
    State,
    expected_wait,
    primary_times_from_exponentials,
    regime,
    sample_primary_times,
    sample_secondary_times,
    secondary_times_from_uniforms,
)
from .stats import mean_ci

__all__ = [
    "WeightConstraintError",
    "FosterInfeasibleError",
    "ConstraintCheck",
    "ConstraintReport",
    "DriftEstimate",
    "ReturnTimeStats",
    "foster_params",
    "validate_foster",
    "estimate_drift",
    "return_times",
]

_MC_N = 100_000  # Monte Carlo draws of the corner-gain mean; validation takes twice as many
_RETURN_BUDGET = 1_000_000  # steps per replication in return_times
_MARGIN = 1.2  # multiplicative safety on constructed constants; gives the Monte Carlo re-check room
# largest admissible log(v0); keeps c*v0, |x1| and r*|x| finite in float64
_LN_V0_HEADROOM = 706.0


class WeightConstraintError(ValueError):
    """A weight triple violates one of the order constraints; the message
    names the violated inequality."""


class FosterInfeasibleError(RuntimeError):
    """The construction exists mathematically but its constants exceed the
    float64 range (v0 grows like exp(y0/alpha))."""


@dataclass(frozen=True)
class ConstraintCheck:
    name: str
    margin: float
    passed: bool
    method: str  # "exact", "log_exact" or "monte_carlo"
    se: Optional[float] = None
    note: str = ""


@dataclass(frozen=True)
class ConstraintReport:
    checks: tuple[ConstraintCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def _check_weights(params: ModelParams, r1: float, r2: float, r3: float) -> float:
    """Order constraints on the weights; returns delta."""
    for name, v in (("r1", r1), ("r2", r2), ("r3", r3)):
        if not 0 < v < math.inf:
            raise WeightConstraintError(f"{name} must be finite and > 0, got {v}")
    ez = params.z.expectation()
    delta = 0.5 * (params.alpha - params.k)
    if delta <= 0:
        raise WeightConstraintError(
            f"drift construction needs k < alpha (subcritical); got k/alpha = {params.k / params.alpha}"
        )
    if not r3 < r1:
        raise WeightConstraintError(f"violates weights_order: need r3 < r1, got r3={r3}, r1={r1}")
    if not r1 * ez > r2 * params.k:
        raise WeightConstraintError(
            f"violates weights_x_gain: need r1*E[Z] > r2*k, got {r1 * ez} <= {r2 * params.k}"
        )
    if not r2 * delta > r3 * ez:
        raise WeightConstraintError(
            f"violates weights_y_gain: need r2*delta > r3*E[Z], got {r2 * delta} <= {r3 * ez}"
        )
    return delta


def _solve_decreasing(f, lo: float, hi: float, name: str) -> float:
    """Smallest point >= lo where the non-increasing f is <= 0: lo itself
    when f(lo) <= 0, else bracketed by doubling `hi` until f(hi) <= 0 and
    then bisected."""
    if f(lo) <= 0.0:
        return lo
    for _ in range(200):
        if f(hi) <= 0.0:
            break
        hi *= 2.0
    else:
        raise FosterInfeasibleError(f"could not bracket {name}")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        if f(mid) <= 0.0:
            hi = mid
        else:
            lo = mid
    return hi


def foster_params(
    params: ModelParams,
    r1: float,
    r2: float,
    r3: float,
    rng: np.random.Generator,
) -> FosterConfig:
    """Construct a validated drift configuration for the given weights.

    x0 and y0 bisect on the mean waits E[T1(x)] and E[min(T1(0), T2(y))],
    computed by quadrature; only the x1 corner-gain check draws from `rng`,
    one common set of _MC_N draws for every probe of x1.
    Raises WeightConstraintError when the weight triple violates an order
    constraint (the message names it) and FosterInfeasibleError when the
    required constants cannot be represented in float64.
    """
    delta = _check_weights(params, r1, r2, r3)
    c, k, alpha = params.c, params.k, params.alpha
    ez = params.z.expectation()
    gamma = min(r2 * delta - r3 * ez, r1 * ez - r2 * k) / 3.0

    # x0: primary wait and overshoot budgets, each at most gamma
    def x0_excess(x: float) -> float:
        wait = r1 * c * expected_wait(params.phi, x, c, 0.0, alpha)
        overshoot = (r1 + r3) * params.z.tail_mean_above(x)
        return max(wait, overshoot) - gamma

    x0 = _MARGIN * max(_solve_decreasing(x0_excess, 0.0, 1.0, "x0"), 1e-6)

    # y0: exact decay-gain bound plus the wait bound
    y_gain_bound = alpha * math.log(3.0 * alpha / delta)

    def y0_excess(y: float) -> float:
        return r1 * c * expected_wait(params.phi, 0.0, c, y, alpha) - gamma

    y0_raw = _solve_decreasing(y0_excess, y_gain_bound, max(y_gain_bound, 1.0), "y0")

    # the phantom-push bound forces v0 > coef*exp(y0/alpha); cap y0 so that
    # v0, c*v0 and r*|x1| all stay inside float64
    coef = 2.0 * (gamma + r3 * ez + r2 * k) / (r3 * c)
    ln_v0_max = _LN_V0_HEADROOM - max(0.0, math.log(c)) - max(0.0, math.log(max(r1, r2, r3)))
    y0_cap = alpha * (ln_v0_max - math.log(coef * _MARGIN))
    y0 = min(_MARGIN * y0_raw, y0_cap)
    if y0 < y0_raw * 1.02:
        raise FosterInfeasibleError(
            f"y0 needs to be ~{y0_raw:.6g} but the phantom-push bound then puts v0 "
            f"beyond float64 (log v0 limit {ln_v0_max:.1f}); use gentler weights"
        )

    # v0: capped decay gain (closed form, monotone increasing in v0) and the
    # phantom push, each with margin; the push is evaluated in log space
    ratio = (alpha / y0) * math.log(3.0 * alpha / (2.0 * delta))
    v_gain = -math.log1p(-ratio) / alpha
    ln_v_push = math.log(coef) + y0 / alpha
    if ln_v_push + math.log(_MARGIN) > ln_v0_max + 1.0:
        raise FosterInfeasibleError("v0 exceeds float64 range")
    v0 = max(_MARGIN * v_gain, _MARGIN * math.exp(ln_v_push))

    # x1: below the truncation reach and quiet enough that the primary clock
    # usually outlasts the whole window (hazard over [0, v0] at most log 2);
    # then verified (and pushed further down if needed) against the corner
    # decay-gain requirement
    x1 = min(-c * v0, params.phi.quiet_level(c, v0))
    x1 = x1 - max(1.0, 1e-9 * abs(x1))

    target = k + delta

    # one common set of _MC_N draws serves every probe of x1; T2(y0) does
    # not depend on x1 and is inverted once
    e_draws = rng.standard_exponential(_MC_N)
    t2 = secondary_times_from_uniforms(y0, alpha, rng.random(_MC_N))

    def corner_gain(x: float) -> float:
        t1 = primary_times_from_exponentials(params.phi, x, c, e_draws)
        t = np.minimum(np.minimum(t1, t2), v0)
        return y0 * float(np.mean(-np.expm1(-alpha * t)))

    for _ in range(200):
        if corner_gain(x1) >= target + delta / 6.0:
            break
        x1 *= 2.0
        if not math.isfinite(x1):
            raise FosterInfeasibleError("x1 exceeds float64 range")
    else:
        raise FosterInfeasibleError("could not satisfy the corner decay gain")

    return FosterConfig(r1=r1, r2=r2, r3=r3, gamma=gamma, x0=x0, y0=y0, v0=v0, x1=x1, delta=delta)


def validate_foster(
    params: ModelParams,
    config: FosterConfig,
    rng: np.random.Generator,
) -> ConstraintReport:
    """Re-check every inequality with fresh randomness and report margins.

    Algebraic constraints are re-derived exactly; expectation constraints
    are re-estimated by independent Monte Carlo from `rng`, 2*_MC_N draws
    per expectation (no common random numbers with the construction); the
    phantom push is checked in log space, so its margin is in log units.  A constraint passes when its margin is
    >= 0.  Constraints quantified over y >= y0 or x <= x1 are checked at
    the binding corner, where monotonicity makes them tightest.
    """
    n = 2 * _MC_N
    c, k, alpha = params.c, params.k, params.alpha
    ez = params.z.expectation()
    r1, r2, r3 = config.r1, config.r2, config.r3
    gamma, delta = config.gamma, config.delta
    x0, y0, v0, x1 = config.x0, config.y0, config.v0, config.x1
    checks: list[ConstraintCheck] = []

    def exact(name: str, margin: float, note: str = "", method: str = "exact") -> None:
        checks.append(ConstraintCheck(name, margin, margin >= 0.0, method, None, note))

    def mc(name: str, samples: np.ndarray, bound: float, sign: int, note: str = "") -> None:
        """sign=+1 checks mean >= bound, sign=-1 checks mean <= bound."""
        est = mean_ci(samples)
        margin = sign * (est.mean - bound)
        checks.append(ConstraintCheck(name, margin, margin >= 0.0, "monte_carlo", est.se, note))

    exact("weights_order", r1 - r3)
    exact("weights_x_gain", r1 * ez - r2 * k)
    exact("weights_y_gain", r2 * delta - r3 * ez)
    expected_gamma = min(r2 * delta - r3 * ez, r1 * ez - r2 * k) / 3.0
    exact("drift_margin", 1e-12 - abs(gamma - expected_gamma), note=f"gamma={gamma!r}")
    exact("decay_headroom", 1e-12 - abs(delta - 0.5 * (alpha - k)), note=f"delta={delta!r}")

    t1_x0 = sample_primary_times(params.phi, x0, c, rng, n)
    mc("x0_primary_wait", gamma - r1 * c * t1_x0, 0.0, +1)

    z_draw = params.z.draws(rng, n)
    mc("x0_overshoot", gamma - (r1 + r3) * np.maximum(z_draw - x0, 0.0), 0.0, +1)

    t2_y0 = sample_secondary_times(y0, alpha, rng, n)
    gain_y0 = y0 * -np.expm1(-alpha * t2_y0)  # the never-fires atom contributes y0*1
    mc("y0_decay_gain", gain_y0, k + 5.0 * delta / 3.0, +1, note="binding corner y = y0")

    t1_0 = sample_primary_times(params.phi, 0.0, c, rng, n)
    t2_b = sample_secondary_times(y0, alpha, rng, n)
    mc("y0_wait", gamma - r1 * c * np.minimum(t1_0, t2_b), 0.0, +1)

    t2_c = np.minimum(sample_secondary_times(y0, alpha, rng, n), v0)
    mc(
        "v0_capped_decay_gain",
        y0 * -np.expm1(-alpha * t2_c),
        k + 4.0 * delta / 3.0,
        +1,
        note="binding corner y = y0",
    )

    log_lhs = math.log(r3) + math.log(c) + math.log(v0) - math.log(2.0) - y0 / alpha
    log_rhs = math.log(gamma + r3 * ez + r2 * k)
    exact("v0_phantom_push", log_lhs - log_rhs, "margin in log units", method="log_exact")

    exact("x1_below_reach", -c * v0 - x1)

    t1_x1 = sample_primary_times(params.phi, x1, c, rng, n)
    mc("x1_quiet_hazard", (t1_x1 > v0).astype(float), 0.5, +1)

    t2_d = sample_secondary_times(y0, alpha, rng, n)
    t_corner = np.minimum(np.minimum(t1_x1, t2_d), v0)
    mc(
        "x1_decay_gain",
        y0 * -np.expm1(-alpha * t_corner),
        k + delta,
        +1,
        note="binding corner (x1, y0)",
    )

    return ConstraintReport(tuple(checks))


@dataclass(frozen=True)
class DriftEstimate:
    """One-step Monte Carlo drift E[L(next)] - L(state)."""

    state: State
    n: int
    mean: float
    se: float
    ci99_lo: float
    ci99_hi: float
    inside_v: bool


def estimate_drift(
    params: ModelParams,
    config: FosterConfig,
    state: State,
    n: int,
    rng: np.random.Generator,
) -> DriftEstimate:
    """Estimate the one-step drift of L under the truncated embedding.

    Outside V the construction guarantees a mean drift of at most -gamma;
    inside V no sign is asserted.  Vectorised; n must be at least 1000 for
    the normal interval to be meaningful.
    """
    if n < 1000:
        raise ValueError("n must be >= 1000")
    c, k, alpha = params.c, params.k, params.alpha
    x, y = state.x, state.y
    t1 = sample_primary_times(params.phi, x, c, rng, n)
    t2 = sample_secondary_times(y, alpha, rng, n)
    t = np.minimum(t1, t2)
    z = params.z.draws(rng, n)
    if x <= config.x1:
        real = t <= config.v0
        t_eff = np.minimum(t, config.v0)
    else:
        real = np.ones(n, dtype=bool)
        t_eff = t
    inc = c * t_eff - z * real
    x_new = x + inc
    # increment form: L(x', y') - L(x, y) evaluated without differencing the
    # large absolute levels, so states with |x| near the float range (the
    # truncation branch lives there) keep the O(1) drift visible; the
    # crossing branch is only selected where the magnitudes are comparable
    d_l2 = config.r2 * (k * real - y * -np.expm1(-alpha * t_eff))
    same_pos = (x >= 0.0) & (x_new >= 0.0)
    same_neg = (x < 0.0) & (x_new < 0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        crossing = config.lyapunov_x(x_new) - config.lyapunov_x(x)
        d_l1 = np.where(same_pos, config.r1 * inc, np.where(same_neg, -config.r3 * inc, crossing))
    d = d_l1 + d_l2
    est = mean_ci(d)
    return DriftEstimate(
        state=state,
        n=n,
        mean=est.mean,
        se=est.se,
        ci99_lo=est.lo,
        ci99_hi=est.hi,
        inside_v=config.in_recurrent_set(x, y),
    )


@dataclass(frozen=True)
class ReturnTimeStats:
    """Hitting times of V by the truncated chain, across replications."""

    taus: np.ndarray  # completed hitting times (steps, >= 1)
    exhausted: int  # replications that did not hit V within the budget
    budget: int
    replications: int


def return_times(
    params: ModelParams,
    config: FosterConfig,
    initial: State,
    replications: int,
    rng: np.random.Generator,
) -> ReturnTimeStats:
    """Empirical first hitting time min{n >= 1: state_n in V} from `initial`.

    Each replication runs at most _RETURN_BUDGET steps; budget exhaustion
    is reported, not fatal.  Requires a subcritical configuration
    (positive recurrence has no content otherwise).
    """
    if regime(params) is not Regime.SUBCRITICAL:
        raise ValueError("return times require a subcritical configuration")
    if replications < 1:
        raise ValueError("replications must be >= 1")
    taus: list[int] = []
    exhausted = 0
    for child in rng.spawn(replications):
        draws = Draws(child, params.z)
        state = initial
        hit = 0
        for n in range(1, _RETURN_BUDGET + 1):
            state = step(params, state, draws, truncated=config)[0]
            if config.in_recurrent_set(state.x, state.y):
                hit = n
                break
        if hit:
            taus.append(hit)
        else:
            exhausted += 1
    return ReturnTimeStats(np.array(taus, dtype=float), exhausted, _RETURN_BUDGET, replications)
