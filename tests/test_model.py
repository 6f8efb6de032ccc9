import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quakesim import (
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    FosterConfig,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    cumulative_hazard_primary,
    intensity_saturated,
    phi_eval,
)

from simpson import cumulative_hazard_numeric


class TestPhi:
    def test_exponential_at_zero(self):
        assert phi_eval(ExponentialPhi(1.0), 0.0) == 1.0

    def test_threshold_below_is_zero(self):
        assert phi_eval(ThresholdLinearPhi(0.0, 1.0), -1.0) == 0.0

    def test_exponential_at_log2(self):
        assert phi_eval(ExponentialPhi(1.0), math.log(2.0)) == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize(
        "phi",
        [ExponentialPhi(0.7), ExponentialPhi(2.0), ThresholdLinearPhi(-1.0, 0.5), ThresholdLinearPhi(3.0, 2.0)],
    )
    def test_monotone_on_grid(self, phi):
        grid = np.linspace(-30.0, 30.0, 301)
        vals = phi_eval(phi, grid)
        assert np.all(np.diff(vals) >= 0.0)
        assert np.all(vals >= 0.0)

    def test_vanishes_at_negative_infinity(self):
        s = 2.0
        assert phi_eval(ExponentialPhi(s), -50.0 / s) < 1e-10
        assert phi_eval(ThresholdLinearPhi(1.5, 2.0), 0.5) == 0.0

    @pytest.mark.parametrize(
        "phi,top", [(ExponentialPhi(1.0), 40.0), (ThresholdLinearPhi(0.0, 1.0), 2e6)]
    )
    def test_unbounded_and_strictly_increasing_above(self, phi, top):
        grid = np.linspace(1.0, top, 100)
        vals = np.asarray(phi_eval(phi, grid))
        assert np.all(np.diff(vals) > 0.0)
        assert vals[-1] > 1e6

    def test_overflow_guard(self):
        assert phi_eval(ExponentialPhi(1.0), 1e6) == math.inf

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ExponentialPhi(0.0)
        with pytest.raises(ValueError):
            ThresholdLinearPhi(0.0, -1.0)


class TestIntensity:
    # the conditional intensity is phi(x) + y
    def test_examples(self, ref_params):
        assert phi_eval(ref_params.phi, 0.0) + 0.0 == 1.0
        assert phi_eval(ref_params.phi, 0.0) + 0.5 == 1.5
        tl = ModelParams(1.0, 0.5, 1.0, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(2.0))
        assert phi_eval(tl.phi, 2.0) + 3.0 == 5.0

    def test_nonnegative(self, ref_params):
        rng = np.random.default_rng(0)
        for _ in range(200):
            s = State(rng.normal(scale=5.0), abs(rng.normal(scale=3.0)))
            assert phi_eval(ref_params.phi, s.x) + s.y >= 0.0

    def test_saturation_cap(self, ref_params):
        hot = State(40.0, 0.0)  # phi = e^40 >> 1e12
        assert phi_eval(ref_params.phi, hot.x) + hot.y >= ref_params.intensity_cap
        assert intensity_saturated(ref_params, hot)
        assert not intensity_saturated(ref_params, State(0.0, 0.0))


HAZARD_GRID = [
    (ExponentialPhi(1.0), 0.0, 1.0, 1.0),
    (ExponentialPhi(1.0), -2.0, 0.5, 3.0),
    (ExponentialPhi(0.6), 1.5, 2.0, 0.7),
    (ExponentialPhi(2.0), 0.3, 1.0, 2.0),
    (ThresholdLinearPhi(0.0, 1.0), 0.0, 1.0, 2.0),
    (ThresholdLinearPhi(0.0, 1.0), -3.0, 1.0, 5.0),
    (ThresholdLinearPhi(1.0, 2.5), -2.0, 2.0, 0.9),
    (ThresholdLinearPhi(-1.0, 0.5), 0.5, 0.5, 4.0),
]


class TestCumulativeHazard:
    def test_exponential_unit_example(self):
        # quadrature oracle first, then the frozen value e - 1
        oracle = cumulative_hazard_numeric(ExponentialPhi(1.0), 0.0, 1.0, 1.0)
        assert oracle == pytest.approx(math.e - 1.0, rel=1e-10)
        closed = cumulative_hazard_primary(ExponentialPhi(1.0), 0.0, 1.0, 1.0)
        assert closed == pytest.approx(oracle, rel=1e-10)

    def test_threshold_example(self):
        # integral of v over [0, 2] is 2
        oracle = cumulative_hazard_numeric(ThresholdLinearPhi(0.0, 1.0), 0.0, 1.0, 2.0)
        assert oracle == pytest.approx(2.0, rel=1e-10)
        assert cumulative_hazard_primary(ThresholdLinearPhi(0.0, 1.0), 0.0, 1.0, 2.0) == pytest.approx(
            2.0, rel=1e-12
        )

    @pytest.mark.parametrize("phi", [ExponentialPhi(1.3), ThresholdLinearPhi(0.4, 2.0)])
    def test_zero_at_t_zero(self, phi):
        assert cumulative_hazard_primary(phi, 1.7, 2.0, 0.0) == 0.0

    @pytest.mark.parametrize("phi,x,c,t", HAZARD_GRID)
    def test_closed_form_matches_quadrature(self, phi, x, c, t):
        closed = cumulative_hazard_primary(phi, x, c, t)
        numeric = cumulative_hazard_numeric(phi, x, c, t)
        assert closed == pytest.approx(numeric, rel=1e-9, abs=1e-12)

    @pytest.mark.parametrize("phi,x,c,t", HAZARD_GRID)
    def test_nondecreasing_in_t(self, phi, x, c, t):
        ts = np.linspace(0.0, t, 50)
        vals = cumulative_hazard_primary(phi, x, c, ts)
        assert np.all(np.diff(vals) >= -1e-15)

    @pytest.mark.parametrize("phi,x,c,t", HAZARD_GRID)
    def test_derivative_is_phi(self, phi, x, c, t):
        # centred finite difference of the closed form against phi(x + c*t)
        h = 1e-6 * max(t, 1.0)
        d = (
            cumulative_hazard_primary(phi, x, c, t + h) - cumulative_hazard_primary(phi, x, c, t - h)
        ) / (2.0 * h)
        expected = phi_eval(phi, x + c * t)
        if expected > 1e-12:
            assert d == pytest.approx(expected, rel=1e-6)
        else:
            assert abs(d) < 1e-9

    def test_rejects_negative_t(self):
        with pytest.raises(ValueError):
            cumulative_hazard_primary(ExponentialPhi(1.0), 0.0, 1.0, -0.1)

    def test_segment_from_deep_negative_stress(self):
        # exp(s*x) underflows to 0 while expm1(s*c*t) overflows; the
        # integral is exp(0.5)*(1 - exp(-800.5)), i.e. e^0.5 in float64
        value = cumulative_hazard_primary(ExponentialPhi(1.0), -800.0, 1.0, 800.5)
        assert value == pytest.approx(math.exp(0.5), rel=1e-12)
        arr = cumulative_hazard_primary(ExponentialPhi(1.0), np.array([-800.0, 0.0]), 1.0, np.array([800.5, 1.0]))
        assert arr[0] == value and arr[1] == cumulative_hazard_primary(ExponentialPhi(1.0), 0.0, 1.0, 1.0)

    def test_segment_whose_factors_round_to_tiny_times_inf(self):
        # exp(s*x) is subnormal, not 0, while expm1(s*c*t) overflows: the
        # plain product is inf, the integral exp(0.5)*(1 - exp(-720.5))
        value = cumulative_hazard_primary(ExponentialPhi(1.0), -720.0, 1.0, 720.5)
        assert value == pytest.approx(math.exp(0.5), rel=1e-12)

    def test_short_segment_at_overflowing_stress(self):
        # exp(s*x) overflows, expm1(s*c*t) = 1e-10: the integral is finite
        value = cumulative_hazard_primary(ExponentialPhi(1.0), 710.0, 1.0, 1e-10)
        assert value == pytest.approx(math.exp(710.0 + math.log(1e-10)), rel=1e-9)
        assert cumulative_hazard_primary(ExponentialPhi(1.0), 710.0, 1.0, 1.0) == math.inf

    def test_empty_segment_at_overflowing_stress(self):
        # exp(s*x) overflows, expm1(0) = 0: the integral over [0, 0] is 0
        assert cumulative_hazard_primary(ExponentialPhi(1.0), 800.0, 1.0, 0.0) == 0.0
        arr = cumulative_hazard_primary(ExponentialPhi(2.0), np.array([400.0, 1.0]), 1.0, 0.0)
        assert arr.tolist() == [0.0, 0.0]

    @settings(max_examples=300, deadline=None)
    @given(
        s=st.floats(0.01, 10.0),
        c=st.floats(0.01, 10.0),
        xt=st.lists(st.tuples(st.floats(-2000.0, 2000.0), st.floats(0.0, 2000.0)), min_size=1, max_size=8),
    )
    # exp(s*c*t) overflows, but the integral divided by s*c is finite
    @example(s=8.9375, c=8.9375, xt=[(0.0, 8.9375)])
    # exp(s*x) underflows to 0, but the integral is e^-100
    @example(s=1.0, c=1.0, xt=[(-800.0, 700.0)])
    def test_finite_values_keep_their_bits(self, s, c, xt):
        # the plain closed form, where it is finite and nonzero (or the
        # segment is empty), is the reference: rate estimates built on it
        # must not move by a single bit.  Where it is inf (a product with an
        # overflowed factor) or 0 on a nonempty segment (a product with an
        # underflowed factor), the integral is
        # exp(s*x + log(expm1(s*c*t)))/(s*c), inf only when that overflows
        # and 0 only when it underflows
        x, t = (np.array(v) for v in zip(*xt))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            before = np.exp(s * x) * np.expm1(s * c * t) / (s * c)
            y = s * c * t
            log_em1 = np.where(y > 30.0, y + np.log1p(-np.exp(-y)), np.log(np.expm1(y)))
            reference = np.exp(s * x + log_em1 - math.log(s * c))
        after = cumulative_hazard_primary(ExponentialPhi(s), x, c, t)
        assert not np.isnan(after).any()
        kept = np.isfinite(before) & ((before != 0.0) | (t == 0.0))
        assert after[kept].tobytes() == before[kept].tobytes()
        over = np.isinf(before)
        np.testing.assert_allclose(after[over], reference[over], rtol=1e-9)
        under = (before == 0.0) & (t > 0.0)
        tiny = np.finfo(float).tiny
        normal = under & (reference >= tiny)
        np.testing.assert_allclose(after[normal], reference[normal], rtol=1e-9)
        subnormal = under & (reference < tiny)
        np.testing.assert_allclose(after[subnormal], reference[subnormal], rtol=0.0, atol=1e-9 * tiny)
        scalar = cumulative_hazard_primary(ExponentialPhi(s), float(x[0]), c, float(t[0]))
        assert np.float64(scalar).tobytes() == after[0].tobytes()


class TestZ:
    def test_deterministic(self):
        rng = np.random.default_rng(1)
        assert DeterministicZ(2.0).draw(rng) == 2.0

    def test_exponential_mean_lln(self):
        rng = np.random.default_rng(2)
        draws = ExponentialZ(2.0).draws(rng, 1_000_000)
        assert abs(float(np.mean(draws)) - 2.0) < 0.01
        assert np.all(draws > 0.0)

    def test_uniform_mean_lln(self):
        rng = np.random.default_rng(3)
        draws = UniformZ(1.0, 3.0).draws(rng, 1_000_000)
        assert abs(float(np.mean(draws)) - 2.0) < 0.01
        assert np.all(draws > 0.0)

    def test_scalar_matches_batch_law(self):
        rng = np.random.default_rng(4)
        scalars = np.array([ExponentialZ(2.0).draw(rng) for _ in range(20_000)])
        batch = ExponentialZ(2.0).draws(np.random.default_rng(5), 20_000)
        from scipy.stats import ks_2samp

        assert ks_2samp(scalars, batch).pvalue > 1e-4

    def test_means(self):
        assert ExponentialZ(2.0).expectation() == 2.0
        assert UniformZ(1.0, 3.0).expectation() == 2.0
        assert DeterministicZ(3.5).expectation() == 3.5

    def test_cz_metadata(self):
        assert ExponentialZ(2.0).density_floor() is not None
        assert UniformZ(0.0, 1.0).density_floor() == (0.0, 1.0, 1.0)
        assert DeterministicZ(1.0).density_floor() is None
        z1, z2, h = ExponentialZ(2.0).density_floor()
        # density really is above h on [z1, z2]
        grid = np.linspace(z1, z2, 100)
        dens = np.exp(-grid / 2.0) / 2.0
        assert np.all(dens >= h - 1e-15)

    def test_tail_mean_closed_forms(self):
        rng = np.random.default_rng(6)
        for z, x0 in [
            (ExponentialZ(2.0), 3.0),
            (ExponentialZ(0.5), -1.0),
            (UniformZ(1.0, 3.0), 2.0),
            (UniformZ(1.0, 3.0), 0.5),
            (UniformZ(1.0, 3.0), 4.0),
            (DeterministicZ(2.0), 1.0),
            (DeterministicZ(2.0), 3.0),
        ]:
            draws = z.draws(rng, 400_000)
            mc = float(np.mean(np.maximum(draws - x0, 0.0)))
            se = float(np.std(np.maximum(draws - x0, 0.0)) / math.sqrt(draws.size))
            assert abs(z.tail_mean_above(x0) - mc) <= max(4.0 * se, 1e-12)

    def test_invalid_specs(self):
        with pytest.raises(ValueError):
            ExponentialZ(0.0)
        with pytest.raises(ValueError):
            UniformZ(-0.5, 1.0)
        with pytest.raises(ValueError):
            UniformZ(2.0, 2.0)
        with pytest.raises(ValueError):
            DeterministicZ(0.0)


class TestParams:
    def test_validation(self):
        phi, z = ExponentialPhi(1.0), ExponentialZ(2.0)
        with pytest.raises(ValueError):
            ModelParams(0.0, 0.5, 1.0, phi, z)
        with pytest.raises(ValueError):
            ModelParams(1.0, -0.1, 1.0, phi, z)
        with pytest.raises(ValueError):
            ModelParams(1.0, 0.5, 0.0, phi, z)
        # k = 0 is allowed: aftershock-free degenerate case
        ModelParams(1.0, 0.0, 1.0, phi, z)

    @pytest.mark.parametrize(
        "build",
        [
            lambda: ModelParams(math.inf, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0)),
            lambda: ModelParams(1.0, math.inf, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0)),
            lambda: ModelParams(1.0, 0.5, math.inf, ExponentialPhi(1.0), ExponentialZ(2.0)),
            lambda: ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0), intensity_cap=math.inf),
            lambda: ExponentialPhi(math.inf),
            lambda: ThresholdLinearPhi(0.0, math.inf),
            lambda: ExponentialZ(math.inf),
            lambda: UniformZ(0.0, math.inf),
            lambda: DeterministicZ(math.inf),
            lambda: StopRule(horizon=math.inf),
            lambda: StopRule(max_events=2.5),
            lambda: StopRule(max_events=True),
        ],
        ids=["c", "k", "alpha", "cap", "exp-scale", "slope", "exp-mean", "uniform-high", "value", "horizon", "max-2.5", "max-bool"],
    )
    def test_non_finite_and_non_integer_settings_are_refused(self, build):
        with pytest.raises(ValueError):
            build()

    def test_state_validation(self):
        with pytest.raises(ValueError):
            State(0.0, -1e-9)

    @pytest.mark.parametrize(
        "x,y", [(math.nan, 0.0), (math.inf, 0.0), (-math.inf, 1.0), (0.0, math.nan), (0.0, math.inf)]
    )
    def test_state_rejects_non_finite(self, x, y):
        # from a NaN stress every wait is 5e-324, so time never advances
        with pytest.raises(ValueError, match="finite"):
            State(x, y)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ThresholdLinearPhi(math.nan, 1.0), "theta must be finite, got nan"),
        (lambda: ThresholdLinearPhi(math.inf, 1.0), "theta must be finite, got inf"),
        (lambda: FosterConfig(1.0, 1.0, 1.0, 0.1, 1.0, 1.0, 1.0, -1.0, 0.1), "need r3 < r1, got r3=1.0, r1=1.0"),
        (lambda: FosterConfig(1.0, 1.0, 2.0, 0.1, 1.0, 1.0, 1.0, -1.0, 0.1), "need r3 < r1, got r3=2.0, r1=1.0"),
        (lambda: FosterConfig(2.0, 1.0, 1.0, 0.1, 1.0, 1.0, 1.0, -math.inf, 0.1), "x1 must be finite"),
    ],
    ids=["theta-nan", "theta-inf", "r3-equal", "r3-above", "x1-minus-inf"],
)
def test_refusals(build, message):
    with pytest.raises(ValueError, match=message):
        build()
