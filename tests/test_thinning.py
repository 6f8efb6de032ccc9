import math

import numpy as np
import pytest

from quakesim import (
    DeterministicZ,
    ExponentialPhi,
    ModelParams,
    State,
    StopRule,
    simulate,
    simulate_thinning,
)
from quakesim.model import cumulative_hazard_primary
from quakesim.stats import ks_two_sample


def pure_decay_params(k=0.0):
    """Primary hazard forced to zero on any reachable stress level."""
    return ModelParams(1.0, k, 1.0, ExponentialPhi(50.0), z=DeterministicZ(1.0))


class TestPureDecay:
    """With phi effectively zero and k = 0 the process is an inhomogeneous
    Poisson process with intensity y*exp(-alpha*t): mean count and void
    probability have closed forms."""

    def _runs(self, n_runs, horizon, seed):
        params = ModelParams(1.0, 0.0, 1.0, phi=_far_threshold(), z=DeterministicZ(1.0))
        counts = np.empty(n_runs)
        rng = np.random.default_rng(seed)
        for i, child in enumerate(rng.spawn(n_runs)):
            log = simulate_thinning(params, State(0.0, 1.0), horizon, window=0.5, rng=child)
            counts[i] = log.event_count
        return counts

    def test_expected_count(self):
        n_runs, horizon = 10_000, 10.0
        counts = self._runs(n_runs, horizon, seed=70)
        expected = 1.0 * (1.0 - math.exp(-horizon))  # y/alpha * (1 - e^{-alpha H})
        se = float(np.std(counts, ddof=1) / math.sqrt(n_runs))
        assert abs(float(np.mean(counts)) - expected) <= 3.0 * se

    def test_void_probability(self):
        # events after t=10 carry ~1.7e-5 probability mass, far below the
        # Monte Carlo band, so the finite horizon stands in for "ever"
        n_runs = 10_000
        counts = self._runs(n_runs, 10.0, seed=71)
        p = math.exp(-1.0)  # e^{-y/alpha}
        se = math.sqrt(p * (1.0 - p) / n_runs)
        assert abs(float(np.mean(counts == 0)) - p) <= 3.0 * se


def _far_threshold():
    from quakesim import ThresholdLinearPhi

    return ThresholdLinearPhi(1e9, 1.0)


class TestAgainstClosedForm:
    def test_first_event_matches_primary_survival(self, ref_params):
        # y = 0: the first thinning event has the primary-clock law
        n = 100_000
        rng = np.random.default_rng(72)
        firsts = np.empty(n)
        kept = 0
        for child in rng.spawn(n):
            log = simulate_thinning(ref_params, State(0.0, 0.0), horizon=4.0, window=0.5, rng=child)
            if log.t.size:
                firsts[kept] = log.t[0]
                kept += 1
        firsts = firsts[:kept]
        assert kept == n  # survival past t=4 has probability exp(1 - e^4)
        ts = np.sort(firsts)
        cdf_hat = np.arange(1, kept + 1) / kept
        cdf = 1.0 - np.exp(-cumulative_hazard_primary(ref_params.phi, 0.0, ref_params.c, ts))
        assert float(np.max(np.abs(cdf_hat - cdf))) <= 0.01


class TestOracleAgreement:
    def test_counts_and_gaps_match_inversion_sampler(self, ref_params):
        horizon, reps = 200.0, 60
        rng_a = np.random.default_rng(73)
        rng_b = np.random.default_rng(74)
        counts_a = np.empty(reps)
        counts_b = np.empty(reps)
        gaps_a: list[np.ndarray] = []
        gaps_b: list[np.ndarray] = []
        for i, (ca, cb) in enumerate(zip(rng_a.spawn(reps), rng_b.spawn(reps))):
            log_a = simulate(ref_params, State(0.0, 0.0), StopRule(horizon=horizon), ca)
            log_b = simulate_thinning(ref_params, State(0.0, 0.0), horizon, rng=cb)
            counts_a[i] = log_a.event_count
            counts_b[i] = log_b.event_count
            gaps_a.append(log_a.dt)
            gaps_b.append(log_b.dt)
        se = math.sqrt(
            np.var(counts_a, ddof=1) / reps + np.var(counts_b, ddof=1) / reps
        )
        assert abs(float(np.mean(counts_a) - np.mean(counts_b))) <= 4.0 * se
        pooled_a = np.concatenate(gaps_a)
        pooled_b = np.concatenate(gaps_b)
        assert ks_two_sample(pooled_a, pooled_b) <= 0.02


class TestMechanics:
    def test_same_schema_as_chain(self, ref_params):
        log = simulate_thinning(ref_params, State(0.0, 0.0), horizon=50.0, rng=np.random.default_rng(75))
        assert log.terminated_reason == "horizon_reached"
        assert log.horizon == 50.0
        assert log.is_event.all()
        x_prev, y_prev = 0.0, 0.0
        for dt, x, y, z in zip(log.dt.tolist(), log.x.tolist(), log.y.tolist(), log.z.tolist()):
            assert dt > 0
            assert x == pytest.approx(x_prev + ref_params.c * dt - z, abs=1e-9)
            assert y == pytest.approx(y_prev * math.exp(-ref_params.alpha * dt) + ref_params.k, abs=1e-9)
            x_prev, y_prev = x, y

    def test_reproducible(self, ref_params):
        a = simulate_thinning(ref_params, State(0.0, 0.0), 100.0, rng=np.random.default_rng(76))
        b = simulate_thinning(ref_params, State(0.0, 0.0), 100.0, rng=np.random.default_rng(76))
        assert a == b

    def test_saturation_guard(self, ref_params):
        log = simulate_thinning(ref_params, State(40.0, 0.0), 10.0, rng=np.random.default_rng(77))
        assert log.terminated_reason == "saturation"

    def test_requires_rng(self, ref_params):
        with pytest.raises(TypeError):
            simulate_thinning(ref_params, State(0.0, 0.0), 10.0)

    def test_explicit_window(self, ref_params):
        log = simulate_thinning(
            ref_params, State(0.0, 0.0), 100.0, window=0.25, rng=np.random.default_rng(78)
        )
        assert log.event_count > 20


@pytest.mark.parametrize(
    "horizon, window, message",
    [
        (0.0, None, "horizon must be > 0"),
        (math.nan, None, "horizon must be > 0"),
        (10.0, 0.0, "window must be > 0"),
        (10.0, -1.0, "window must be > 0"),
    ],
)
def test_refusals(ref_params, origin, horizon, window, message):
    with pytest.raises(ValueError, match=message):
        simulate_thinning(ref_params, origin, horizon, np.random.default_rng(79), window=window)
