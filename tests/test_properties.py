"""Cross-configuration property checks.

Everything else in the suite leans on the reference configuration
(exponential hazard, c = alpha = 1), so these tests sweep a grid of
parameter sets, both hazard families and all three drop laws, and re-check
the load-bearing properties: inversion correctness against the closed-form
survival, the rate identities, thinning agreement, and the drift
construction with its consequences.
"""

import math

import numpy as np
import pytest

from quakesim import (
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    estimate_drift,
    estimate_rates,
    foster_params,
    return_times,
    simulate,
    simulate_thinning,
    theoretical_rate,
    validate_foster,
)
from quakesim.model import (
    primary_survival,
    sample_primary_times,
    sample_secondary_times,
    secondary_survival,
)
from quakesim.stats import ks_two_sample

CONFIGS = [
    ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0)),
    ModelParams(2.0, 0.3, 1.5, ExponentialPhi(0.5), UniformZ(0.5, 1.5)),
    ModelParams(0.5, 0.2, 0.8, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(1.0)),
    ModelParams(1.0, 0.9, 1.0, ExponentialPhi(1.0), DeterministicZ(1.0)),
    ModelParams(3.0, 1.0, 4.0, ThresholdLinearPhi(-1.0, 2.0), UniformZ(0.2, 1.0)),
]
IDS = ["reference", "exp-phi-fast", "threshold-slow", "near-critical", "threshold-fast"]


@pytest.mark.parametrize("params", CONFIGS, ids=IDS)
def test_interevent_survival_product(params):
    # min-of-clocks sampling against the product of closed-form survivals,
    # from a few representative states
    rng = np.random.default_rng(301)
    n = 200_000
    for x, y in ((0.0, 0.0), (-1.0, 2.0), (1.5, 0.5)):
        t1 = sample_primary_times(params.phi, x, params.c, rng, n)
        t2 = sample_secondary_times(y, params.alpha, rng, n)
        t = np.minimum(t1, t2)
        for q in (0.2, 0.7, 1.8):
            p = primary_survival(params.phi, x, params.c, q) * secondary_survival(y, params.alpha, q)
            se = math.sqrt(max(p * (1.0 - p), 1e-12) / n)
            assert abs(float(np.mean(t > q)) - p) <= 4.0 * se + 1e-9, (x, y, q)


@pytest.mark.parametrize("params", CONFIGS, ids=IDS)
def test_rate_law_and_share(params):
    rate = theoretical_rate(params)
    # near-critical configurations need longer runs: the aftershock cascade
    # inflates the variance by roughly (1 - k/alpha)^-2
    horizon = 20_000.0 / rate if params.k / params.alpha < 0.8 else 60_000.0 / rate
    log = simulate(params, State(0.0, 0.0), StopRule(horizon=horizon), np.random.default_rng(302))
    st = estimate_rates(log)
    assert abs(st.rate_hat - rate) <= 4.0 * st.rate_se, (st.rate_hat, rate, st.rate_se)
    share = st.lambda2_hat / st.rate_hat
    expected_share = params.k / params.alpha
    se_share = share * math.sqrt(
        (st.lambda2_se / st.lambda2_hat) ** 2 + (st.rate_se / st.rate_hat) ** 2
    )
    assert abs(share - expected_share) <= 4.0 * se_share + 0.01, (share, expected_share)
    resid = st.diagnostics["balance_residual"]
    assert abs(resid) <= 4.0 * st.diagnostics["balance_residual_se"]


@pytest.mark.parametrize("params", [CONFIGS[2], CONFIGS[4]], ids=["threshold-slow", "threshold-fast"])
def test_thinning_agreement_threshold_linear(params):
    # the oracle-agreement acceptance check runs the exponential family;
    # this covers the piecewise-linear hazard branch of both simulators
    rate = theoretical_rate(params)
    horizon = 150.0 / rate
    reps = 40
    rng_a = np.random.default_rng(303)
    rng_b = np.random.default_rng(304)
    counts_a = np.empty(reps)
    counts_b = np.empty(reps)
    gaps_a, gaps_b = [], []
    for i, (ca, cb) in enumerate(zip(rng_a.spawn(reps), rng_b.spawn(reps))):
        log_a = simulate(params, State(0.0, 0.0), StopRule(horizon=horizon), ca)
        log_b = simulate_thinning(params, State(0.0, 0.0), horizon, rng=cb)
        counts_a[i] = log_a.event_count
        counts_b[i] = log_b.event_count
        gaps_a.append(log_a.dt)
        gaps_b.append(log_b.dt)
    se = math.sqrt(np.var(counts_a, ddof=1) / reps + np.var(counts_b, ddof=1) / reps)
    assert abs(float(np.mean(counts_a) - np.mean(counts_b))) <= 4.0 * se
    assert ks_two_sample(np.concatenate(gaps_a), np.concatenate(gaps_b)) <= 0.025


FOSTER_CASES = [
    (CONFIGS[1], (10.0, 1.0, 0.3)),
    (CONFIGS[4], (8.0, 1.0, 0.5)),
    (CONFIGS[3], (5.0, 2.0, 0.05)),  # near-critical: delta = 0.05
]


@pytest.mark.parametrize(
    "params,weights", FOSTER_CASES, ids=["exp-phi-fast", "threshold-fast", "near-critical"]
)
def test_foster_construction_off_reference(params, weights):
    cfg = foster_params(params, *weights, rng=np.random.default_rng(305))
    report = validate_foster(params, cfg, rng=np.random.default_rng(306))
    assert report.passed, report.failures()

    # drift negative outside V at representative states
    for state in (State(cfg.x0 + 5.0, 1.0), State(0.0, cfg.y0 + 3.0), State(2.0 * cfg.x1, 1.0)):
        est = estimate_drift(params, cfg, state, 20_000, np.random.default_rng(307))
        assert est.ci99_hi <= -cfg.gamma / 2.0, (state, est)

    rt = return_times(params, cfg, State(cfg.x0 + 5.0, 1.0), 50, np.random.default_rng(308))
    assert rt.exhausted == 0


def test_feasibility_cap_boundary():
    # the truncation time grows like exp(y0/alpha); weights just inside the
    # float64 budget construct and validate, weights past it refuse cleanly
    from quakesim import FosterInfeasibleError

    ref = CONFIGS[0]
    cfg = foster_params(ref, 110.0, 10.0, 1.0, rng=np.random.default_rng(309))
    assert validate_foster(ref, cfg, rng=np.random.default_rng(310)).passed
    assert math.isfinite(cfg.v0) and math.isfinite(cfg.x1)
    with pytest.raises(FosterInfeasibleError, match="gentler weights"):
        foster_params(ref, 130.0, 10.0, 1.0, rng=np.random.default_rng(311))
