import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakesim import (
    Draws,
    ExponentialPhi,
    ExponentialZ,
    FosterConfig,
    ModelParams,
    State,
    ThresholdLinearPhi,
    cumulative_hazard_primary,
    sample_interevent,
    sample_primary_times,
    sample_secondary_times,
    step,
)
from quakesim.model import (
    expected_wait,
    primary_survival,
    primary_time_from_exponential,
    primary_times_from_exponentials,
    secondary_survival,
    secondary_time_from_uniform,
    secondary_times_from_uniforms,
)
from quakesim.stats import ks_two_sample

from simpson import cumulative_hazard_numeric


def _root_find_primary(phi, x, c, e, lo=0.0, hi=1.0):
    """Independent oracle: bisection on the quadrature hazard."""
    while cumulative_hazard_numeric(phi, x, c, hi) < e:
        hi *= 2.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if cumulative_hazard_numeric(phi, x, c, mid) < e:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestPrimaryInversion:
    def test_unit_example(self):
        # bisection on the quadrature hazard confirms T = 1 at e = e - 1
        oracle = _root_find_primary(ExponentialPhi(1.0), 0.0, 1.0, math.e - 1.0)
        assert oracle == pytest.approx(1.0, abs=1e-9)
        t = primary_time_from_exponential(ExponentialPhi(1.0), 0.0, 1.0, math.e - 1.0)
        assert t == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize(
        "phi,x,c",
        [
            (ExponentialPhi(1.0), 0.0, 1.0),
            (ExponentialPhi(0.5), -2.0, 2.0),
            (ExponentialPhi(2.0), 1.0, 0.5),
            (ThresholdLinearPhi(0.0, 1.0), 0.5, 1.0),
            (ThresholdLinearPhi(0.0, 1.0), -3.0, 1.0),
            (ThresholdLinearPhi(1.0, 2.0), -1.0, 0.7),
        ],
    )
    def test_inversion_matches_root_find(self, phi, x, c):
        for e in (0.05, 0.7, 3.1):
            t = primary_time_from_exponential(phi, x, c, e)
            oracle = _root_find_primary(phi, x, c, e)
            assert t == pytest.approx(oracle, rel=1e-7, abs=1e-9)

    def test_small_e_gives_small_t(self):
        for phi in (ExponentialPhi(1.0), ThresholdLinearPhi(0.0, 1.0)):
            prev = math.inf
            for e in (1e-2, 1e-4, 1e-8, 1e-12):
                t = primary_time_from_exponential(phi, 0.5, 1.0, e)
                assert 0.0 < t < prev
                prev = t

    def test_extreme_stress_levels(self):
        # very negative stress: wait is dominated by the ramp-back time
        t = primary_time_from_exponential(ExponentialPhi(1.0), -1e6, 2.0, 1.0)
        assert t == pytest.approx(5e5, rel=1e-3)
        # very positive stress: wait is tiny but positive
        t = primary_time_from_exponential(ExponentialPhi(1.0), 700.0, 1.0, 1.0)
        assert 0.0 < t < 1e-300

    def test_survival_example(self):
        # P(T > 1) = exp(-(e - 1)) for the unit exponential hazard
        rng = np.random.default_rng(10)
        draws = sample_primary_times(ExponentialPhi(1.0), 0.0, 1.0, rng, 1_000_000)
        frac = float(np.mean(draws > 1.0))
        assert abs(frac - math.exp(-(math.e - 1.0))) < 0.002

    def test_scalar_matches_vector_transform(self):
        es = np.array([1e-8, 0.02, 0.5, 1.0, 4.2, 40.0])
        for phi, x, c in [
            (ExponentialPhi(1.3), -0.7, 1.1),
            (ExponentialPhi(1.0), -800.0, 1.0),
            (ThresholdLinearPhi(0.2, 2.0), -1.0, 0.5),
            (ThresholdLinearPhi(0.2, 2.0), 3.0, 0.5),
        ]:
            vec = primary_times_from_exponentials(phi, x, c, es)
            scal = np.array([primary_time_from_exponential(phi, x, c, float(e)) for e in es])
            np.testing.assert_allclose(vec, scal, rtol=1e-12)

    def test_validation(self):
        rng = np.random.default_rng(17)
        for phi in (ExponentialPhi(1.0), ThresholdLinearPhi(0.0, 1.0)):
            for x in (math.inf, -math.inf, math.nan):
                with pytest.raises(ValueError, match="x must be finite"):
                    sample_primary_times(phi, x, 1.0, rng, 10)

    def test_empirical_survival_curve(self):
        rng = np.random.default_rng(11)
        n = 1_000_000
        for phi, x, c in [(ExponentialPhi(1.0), 0.3, 1.0), (ThresholdLinearPhi(0.0, 1.0), -0.5, 2.0)]:
            draws = sample_primary_times(phi, x, c, rng, n)
            for t in np.linspace(0.05, 2.5, 20):
                p = primary_survival(phi, x, c, float(t))
                se = math.sqrt(max(p * (1 - p), 1e-12) / n)
                assert abs(float(np.mean(draws > t)) - p) <= 3.0 * se + 1e-9


# Both phi families.  Exponential scales start at 0.5: near x = 700/s a
# wait for e = 1e-12 is subnormal, resolved to 5e-324/T relative, and
# s*c >= 0.15 keeps that below 1e-6 with room.
_PHIS = st.one_of(
    st.builds(ExponentialPhi, st.floats(0.5, 3.0)),
    st.builds(ThresholdLinearPhi, st.floats(-5.0, 5.0), st.floats(0.1, 3.0)),
)
_C = st.floats(0.3, 3.0)
_E = st.floats(1e-12, 50.0)


class TestHazardRoundTrip:
    """The hazard and the inversion of each phi family undo each other."""

    @settings(max_examples=500, deadline=None)
    @given(phi=_PHIS, u=st.floats(0.0, 1.0), c=_C, e=_E)
    def test_hazard_of_inverted_wait_is_e(self, phi, u, c, e):
        top = 700.0 / phi.scale if isinstance(phi, ExponentialPhi) else 700.0
        x = -1e3 + u * (top + 1e3)
        t = primary_time_from_exponential(phi, x, c, e)
        assert cumulative_hazard_primary(phi, x, c, t) == pytest.approx(e, rel=1e-6)

    @settings(max_examples=300, deadline=None)
    @given(phi=_PHIS, x=st.floats(-1e307, -1e3), c=_C, e=_E)
    def test_deep_stress_stays_finite(self, phi, x, c, e):
        # beyond |x| ~ 1e6 the float T cannot resolve x + c*T, so only
        # finiteness and scalar/array agreement are asked for here
        t = primary_time_from_exponential(phi, x, c, e)
        assert 0.0 < t < math.inf
        assert not math.isnan(cumulative_hazard_primary(phi, x, c, t))
        vec = primary_times_from_exponentials(phi, x, c, np.array([e]))
        assert vec[0] == pytest.approx(t, rel=1e-12)


class TestSecondaryInversion:
    def test_zero_residual_never_fires(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            assert secondary_time_from_uniform(0.0, 1.0, rng.random()) == math.inf

    def test_atom_fraction(self):
        rng = np.random.default_rng(13)
        draws = sample_secondary_times(1.0, 1.0, rng, 1_000_000)
        frac = float(np.mean(np.isinf(draws)))
        assert abs(frac - math.exp(-1.0)) < 0.002

    def test_scaled_shrinkage_example(self):
        # y*E(1 - e^{-alpha*T}) = alpha*(1 - e^{-y/alpha}); at y = alpha = 1
        rng = np.random.default_rng(14)
        draws = sample_secondary_times(1.0, 1.0, rng, 1_000_000)
        vals = 1.0 * -np.expm1(-draws)  # atom contributes 1
        assert abs(float(np.mean(vals)) - (1.0 - math.exp(-1.0))) < 0.005

    def test_empirical_survival_curve(self):
        rng = np.random.default_rng(15)
        n = 1_000_000
        for y, alpha in [(1.0, 1.0), (5.0, 2.0)]:
            draws = sample_secondary_times(y, alpha, rng, n)
            for t in np.linspace(0.05, 3.0, 20):
                p = secondary_survival(y, alpha, float(t))
                se = math.sqrt(p * (1 - p) / n)
                assert abs(float(np.mean(draws > t)) - p) <= 3.0 * se + 1e-9

    @pytest.mark.parametrize("t", [1e-12, 1e-14])
    def test_survival_where_alpha_t_is_tiny(self, t):
        # 1 - e^{-alpha*t} is near alpha*t: the reference takes it at 50
        # digits, where the cancellation costs none of the 16 that count
        y, alpha = 1e14, 1.0
        with decimal.localcontext() as ctx:
            ctx.prec = 50
            hazard = Decimal(y) / Decimal(alpha) * (1 - (-Decimal(alpha) * Decimal(t)).exp())
            exact = float((-hazard).exp())
        assert secondary_survival(y, alpha, t) == pytest.approx(exact, rel=1e-12, abs=0.0)
        assert secondary_survival(y, alpha, np.array([t]))[0] == pytest.approx(exact, rel=1e-12, abs=0.0)

    def test_scalar_matches_vector_transform(self):
        us = np.array([1e-12, 0.05, math.exp(-1.0), 0.5, 0.9, 1.0 - 1e-12])
        for y, alpha in [(1.0, 1.0), (0.01, 2.0), (300.0, 0.5)]:
            vec = secondary_times_from_uniforms(y, alpha, us)
            scal = np.array(
                [__import__("quakesim").model.secondary_time_from_uniform(y, alpha, float(u)) for u in us]
            )
            np.testing.assert_allclose(vec, scal, rtol=1e-12)

    @pytest.mark.parametrize("batch", [False, True], ids=["scalar", "batch"])
    @pytest.mark.parametrize("y", [1e20, 1e300])
    def test_scaled_shrinkage_at_huge_residual(self, y, batch):
        # y*E(1 - e^{-alpha*T}) = alpha*(1 - e^{-y/alpha}), about alpha here
        alpha = 1.0
        us = np.random.default_rng(32).random(20_000)
        if batch:
            t = secondary_times_from_uniforms(y, alpha, us)
        else:
            t = np.array([secondary_time_from_uniform(y, alpha, float(u)) for u in us])
        vals = y * -np.expm1(-alpha * t)
        se = float(np.std(vals)) / math.sqrt(us.size)
        assert abs(float(np.mean(vals)) - alpha * -math.expm1(-y / alpha)) <= 5.0 * se

    def test_validation(self):
        rng = np.random.default_rng(16)
        for y in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError, match="y must be finite and >= 0"):
                sample_secondary_times(y, 1.0, rng, 10)
        for alpha in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="alpha must be > 0"):
                sample_secondary_times(1.0, alpha, rng, 10)


class TestArraysOfStates:
    """The batch inversions broadcast over arrays of states, as the lockstep
    lanes of `chain.simulate_states` call them, and agree with the scalar
    inversions of the event loop at extreme states too (the lanes may not
    warn: any RuntimeWarning fails the suite)."""

    # waits below the normal range (2.2e-308) carry an absolute rounding of
    # a few 5e-324 divided by s*c
    _SUBNORMAL = 1e-320

    @settings(max_examples=300, deadline=None)
    @given(
        phi=_PHIS,
        c=_C,
        pairs=st.lists(st.tuples(st.sampled_from([-4e304, -1e6, -65.0, 0.0, 700.0]), _E), min_size=1, max_size=8),
    )
    def test_primary_waits_of_an_array_of_stresses(self, phi, c, pairs):
        x, e = (np.array(column) for column in zip(*pairs))
        got = primary_times_from_exponentials(phi, x, c, e)
        want = [primary_time_from_exponential(phi, xi, c, ei) for xi, ei in pairs]
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=self._SUBNORMAL)

    @settings(max_examples=300, deadline=None)
    @given(
        alpha=st.floats(0.3, 3.0),
        pairs=st.lists(
            st.tuples(st.sampled_from([0.0, 1e-300, 1e10, 1e300]), st.floats(0.0, 1.0, exclude_max=True)),
            min_size=1,
            max_size=8,
        ),
    )
    def test_secondary_waits_of_an_array_of_residuals(self, alpha, pairs):
        y, u = (np.array(column) for column in zip(*pairs))
        got = secondary_times_from_uniforms(y, alpha, u)
        want = [secondary_time_from_uniform(yi, alpha, ui) for yi, ui in pairs]
        assert got.tolist() == pytest.approx(want, rel=1e-12, abs=self._SUBNORMAL)


def _exp_phi_mean_wait(s, c, x):
    """E[T1(x)] for phi = exp(s*x): e^a*E1(a)/(s*c) with a = e^{s*x}/(s*c),
    by its asymptotic series where e^a overflows."""
    from scipy.special import exp1

    a = math.exp(s * x) / (s * c)
    if a < 500.0:
        return math.exp(a) * exp1(a) / (s * c)
    return sum((-1) ** j * math.factorial(j) / a ** (j + 1) for j in range(6)) / (s * c)


def _threshold_mean_wait(theta, m, c, x):
    """E[T1(x)] for phi = m*max(0, x - theta): the quiet wait to the
    threshold plus a Gaussian tail integral."""
    from scipy.special import erfcx

    a = x - theta
    tail = math.sqrt(math.pi / (2.0 * m * c))
    if a <= 0.0:
        return -a / c + tail
    return tail * erfcx(a * math.sqrt(m / (2.0 * c)))


class TestExpectedWait:
    """E[min(T1(x), T2(y))] by quadrature against independent oracles."""

    @pytest.mark.parametrize("s,c", [(1.0, 1.0), (0.5, 2.0), (2.0, 0.3)])
    @pytest.mark.parametrize("x", [-5.0, 0.0, 3.0, 17.0])
    def test_exponential_phi_closed_form(self, s, c, x):
        got = expected_wait(ExponentialPhi(s), x, c, 0.0, 1.0)
        assert got == pytest.approx(_exp_phi_mean_wait(s, c, x), rel=1e-8)

    @pytest.mark.parametrize("theta,m,c", [(0.0, 1.0, 1.0), (1.0, 0.3, 2.0), (-2.0, 5.0, 0.5)])
    @pytest.mark.parametrize("x", [-5.0, 0.0, 3.0, 17.0])
    def test_threshold_linear_closed_form(self, theta, m, c, x):
        got = expected_wait(ThresholdLinearPhi(theta, m), x, c, 0.0, 1.0)
        assert got == pytest.approx(_threshold_mean_wait(theta, m, c, x), rel=1e-8)

    def test_quiet_wait_plus_half_gaussian(self):
        got = expected_wait(ThresholdLinearPhi(0.0, 1.0), -5.0, 1.0, 0.0, 1.0)
        assert got == pytest.approx(5.0 + math.sqrt(math.pi / 2.0), rel=1e-14)

    @pytest.mark.parametrize("phi", [ExponentialPhi(1.0), ThresholdLinearPhi(0.0, 1.0)], ids=["exp", "threshold"])
    @pytest.mark.parametrize("alpha", [1.0, 0.3])
    @pytest.mark.parametrize("y", [1.0, 50.0, 698.5])
    @pytest.mark.parametrize("x", [0.0, -5.0])
    def test_survival_product_against_adaptive_quadrature(self, phi, alpha, y, x):
        # the secondary clock's mass lies within 1/(y + alpha) of 0; without
        # that split an adaptive rule misses it.  At x = -5 the threshold
        # clock is quiet until t = 5, so its own panels cannot see that mass.
        from scipy import integrate

        def f(t):
            return primary_survival(phi, x, 1.0, t) * secondary_survival(y, alpha, t)

        scale = 1.0 / (y + alpha)
        head = integrate.quad(f, 0.0, scale, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        tail = integrate.quad(f, scale, math.inf, epsabs=0.0, epsrel=1e-12, limit=200)[0]
        assert expected_wait(phi, x, 1.0, y, alpha) == pytest.approx(head + tail, rel=1e-8)

    @pytest.mark.parametrize("y,alpha", [(1.0, 1.0), (1.0, 3.0), (5.0, 2.0)])
    def test_secondary_clock_settles_within_a_long_quiet_wait(self, y, alpha):
        # the threshold clock is quiet until t = 50, many decay times 1/alpha
        # after the secondary hazard has all but reached its total y/alpha
        from scipy import integrate

        phi = ThresholdLinearPhi(0.0, 1.0)

        def f(t):
            return primary_survival(phi, -50.0, 1.0, t) * secondary_survival(y, alpha, t)

        quiet = integrate.quad(f, 0.0, 50.0, points=[1.0 / (y + alpha), 1.0, 10.0], epsabs=0.0, epsrel=1e-12)[0]
        tail = integrate.quad(f, 50.0, math.inf, epsabs=0.0, epsrel=1e-12)[0]
        assert expected_wait(phi, -50.0, 1.0, y, alpha) == pytest.approx(quiet + tail, rel=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(
        phi=_PHIS,
        x=st.floats(-5.0, 5.0),
        c=_C,
        y=st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
        alpha=st.floats(0.2, 5.0),
    )
    def test_agrees_with_monte_carlo(self, phi, x, c, y, alpha):
        rng = np.random.default_rng(18)
        n = 100_000
        t = np.minimum(sample_primary_times(phi, x, c, rng, n), sample_secondary_times(y, alpha, rng, n))
        se = float(np.std(t, ddof=1)) / math.sqrt(n)
        assert abs(expected_wait(phi, x, c, y, alpha) - float(np.mean(t))) <= 5.0 * se

    def test_validation(self):
        for x, y in ((math.inf, 0.0), (math.nan, 0.0), (0.0, -1.0), (0.0, math.inf)):
            with pytest.raises(ValueError, match="need finite x and finite y >= 0"):
                expected_wait(ExponentialPhi(1.0), x, 1.0, y, 1.0)


class TestInterevent:
    def test_zero_y_matches_primary_clock(self, ref_params):
        rng = np.random.default_rng(17)
        n = 1_000_000
        t1 = np.minimum(
            sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n),
            sample_secondary_times(0.0, 1.0, rng, n),
        )
        t2 = sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n)
        assert ks_two_sample(t1, t2) <= 0.003

    def test_scalar_path_distribution(self, ref_params):
        rng = np.random.default_rng(18)
        scal = np.array(
            [
                sample_interevent(ref_params, State(0.0, 1.0), rng.standard_exponential(), rng.random())
                for _ in range(30_000)
            ]
        )
        batch = np.minimum(
            sample_primary_times(ref_params.phi, 0.0, 1.0, np.random.default_rng(19), 30_000),
            sample_secondary_times(1.0, 1.0, np.random.default_rng(20), 30_000),
        )
        from scipy.stats import ks_2samp

        assert ks_2samp(scal, batch).pvalue > 1e-4

    def test_always_finite(self, ref_params):
        rng = np.random.default_rng(21)
        for y in (0.0, 1.0, 50.0):
            for _ in range(200):
                e, u = rng.standard_exponential(), rng.random()
                assert math.isfinite(sample_interevent(ref_params, State(0.0, y), e, u))

    def test_survival_product_example(self, ref_params):
        # P(T > 1) from (0, 1) is the product of the clock survivals at t=1
        rng = np.random.default_rng(22)
        n = 1_000_000
        t = np.minimum(
            sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n),
            sample_secondary_times(1.0, 1.0, rng, n),
        )
        expected = math.exp(-(math.e - 1.0)) * math.exp(-(1.0 - math.exp(-1.0)))
        assert abs(float(np.mean(t > 1.0)) - expected) < 0.002

    def test_mean_decreasing_in_y(self, ref_params):
        rng = np.random.default_rng(23)
        n = 200_000
        means = []
        for y in (0.0, 1.0, 5.0, 20.0):
            t = np.minimum(
                sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n),
                sample_secondary_times(float(y), 1.0, rng, n),
            )
            means.append(float(np.mean(t)))
        assert all(a > b for a, b in zip(means, means[1:]))

    def test_uniform_integrability_limit(self, ref_params):
        # E[T from (0, y)] tends to zero as the residual grows
        rng = np.random.default_rng(24)
        n = 200_000
        means = []
        for y in (10.0, 100.0, 1000.0, 10_000.0):
            t = np.minimum(
                sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n),
                sample_secondary_times(float(y), 1.0, rng, n),
            )
            means.append(float(np.mean(t)))
        assert all(a > b for a, b in zip(means, means[1:]))
        assert means[-1] < 2.0e-4


def truncation(v0, x1):
    # only v0 and x1 reach the truncated draw; the other fields are inert
    return FosterConfig(r1=10.0, r2=2.0, r3=1.0, gamma=0.1, x0=5.0, y0=4.0, v0=v0, x1=x1, delta=0.25)


class TestTruncatedDraw:
    def test_above_threshold_always_real(self, ref_params):
        draws = Draws(np.random.default_rng(25), ref_params.z)
        for _ in range(500):
            assert step(ref_params, State(0.0, 1.0), draws, truncated=truncation(2.0, -5.0))[4]

    def test_deep_below_threshold_is_phantom(self):
        # threshold-linear hazard, stress far below threshold: the wait
        # exceeds the cap essentially always
        params = ModelParams(1.0, 0.5, 1.0, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(2.0))
        draws = Draws(np.random.default_rng(26), params.z)
        v0 = 2.0
        phantoms = 0
        n = 5000
        for _ in range(n):
            _, dt, _, _, is_event = step(params, State(-100.0, 0.0), draws, truncated=truncation(v0, -50.0))
            assert dt <= v0
            phantoms += not is_event
            if not is_event:
                assert dt == v0
        assert phantoms / n >= 0.999

    def test_capped_mean(self, ref_params):
        draws = Draws(np.random.default_rng(27), ref_params.z)
        v0 = 1.5
        waits = [
            step(ref_params, State(-10.0, 0.2), draws, truncated=truncation(v0, -5.0))[1] for _ in range(2000)
        ]
        assert float(np.mean(waits)) <= v0

    def test_validation(self):
        # the config refuses what the draw no longer checks per call
        with pytest.raises(ValueError, match="v0"):
            truncation(0.0, -1.0)
        with pytest.raises(ValueError, match="x1"):
            truncation(1.0, 1.0)


class TestClockOrderings:
    """Stochastic dominance of the clock families, checked one-sidedly."""

    def test_secondary_decreasing_in_y(self):
        from quakesim.stats import dominance_violation, one_sided_band

        rng = np.random.default_rng(29)
        n = 100_000
        t_low = sample_secondary_times(1.0, 1.0, rng, n)
        t_high = sample_secondary_times(5.0, 1.0, rng, n)
        assert dominance_violation(t_low, t_high) <= one_sided_band(n, n)

    def test_primary_decreasing_in_x(self, ref_params):
        from quakesim.stats import dominance_violation, one_sided_band

        rng = np.random.default_rng(30)
        n = 100_000
        t_low = sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n)
        t_high = sample_primary_times(ref_params.phi, 2.0, 1.0, rng, n)
        assert dominance_violation(t_low, t_high) <= one_sided_band(n, n)

    def test_shifted_primary_increasing_in_x(self, ref_params):
        from quakesim.stats import dominance_violation, one_sided_band

        rng = np.random.default_rng(31)
        n = 100_000
        lo = 0.0 + 1.0 * sample_primary_times(ref_params.phi, 0.0, 1.0, rng, n)
        hi = 2.0 + 1.0 * sample_primary_times(ref_params.phi, 2.0, 1.0, rng, n)
        assert dominance_violation(hi, lo) <= one_sided_band(n, n)
