import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from quakesim import (
    ExponentialPhi,
    ExponentialZ,
    FosterConfig,
    FosterInfeasibleError,
    ModelParams,
    State,
    ThresholdLinearPhi,
    UniformZ,
    WeightConstraintError,
    estimate_drift,
    foster_params,
    return_times,
    validate_foster,
)

REF_WEIGHTS = (100.0, 10.0, 1.0)


@pytest.fixture(scope="module")
def ref_config():
    params = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
    return params, foster_params(params, *REF_WEIGHTS, rng=np.random.default_rng(200))


class TestConstruction:
    def test_gamma_reference_arithmetic(self, ref_config):
        # min(r2*delta - r3*E[Z], r1*E[Z] - r2*k)/3 = min(0.5, 195)/3
        _, cfg = ref_config
        assert cfg.gamma == pytest.approx(0.5 / 3.0, abs=1e-15)
        assert cfg.delta == 0.25

    def test_y0_exact_lower_bound(self, ref_config):
        # alpha*(1 - e^{-y0/alpha}) - k >= (5/3)*delta forces y0 >= alpha*ln(3*alpha/delta)
        params, cfg = ref_config
        bound = params.alpha * math.log(3.0 * params.alpha / cfg.delta)
        assert bound == pytest.approx(math.log(12.0), rel=1e-15)
        assert cfg.y0 >= bound
        gain = params.alpha * (1.0 - math.exp(-cfg.y0 / params.alpha)) - params.k
        assert gain >= (5.0 / 3.0) * cfg.delta

    def test_geometry_orderings(self, ref_config):
        params, cfg = ref_config
        assert cfg.x0 > 0
        assert cfg.x1 <= -params.c * cfg.v0
        assert cfg.v0 > 0 and math.isfinite(cfg.v0)
        assert math.isfinite(cfg.x1)

    def test_weight_rejections_name_the_constraint(self, ref_config):
        params, _ = ref_config
        with pytest.raises(WeightConstraintError, match="weights_order"):
            foster_params(params, 1.0, 10.0, 100.0, np.random.default_rng(201))
        with pytest.raises(WeightConstraintError, match="weights_y_gain"):
            foster_params(params, 100.0, 1.0, 10.0, np.random.default_rng(201))
        # r1*E[Z] <= r2*k: E[Z]=2, k=0.5 needs r2 >= 4*r1
        with pytest.raises(WeightConstraintError, match="weights_x_gain"):
            foster_params(params, 1.0, 9.0, 0.001, np.random.default_rng(201))

    @pytest.mark.parametrize("position", [0, 1, 2], ids=["r1", "r2", "r3"])
    def test_non_finite_weight_is_named(self, ref_config, position):
        params, _ = ref_config
        weights = list(REF_WEIGHTS)
        weights[position] = math.inf
        name = f"r{position + 1}"
        with pytest.raises(WeightConstraintError, match=f"{name} must be finite and > 0, got inf"):
            foster_params(params, *weights, np.random.default_rng(201))

    def test_inversion_budget(self, ref_config, monkeypatch):
        # x0 and y0 come from quadrature; only the x1 corner-gain check
        # inverts clock draws, one batch of each clock per corner probe.
        # The reference corner passes at its first probe.
        import quakesim.foster

        calls = {"primary_times_from_exponentials": 0, "secondary_times_from_uniforms": 0}
        for name in calls:
            original = getattr(quakesim.foster, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(quakesim.foster, name, counted)
        params, cfg = ref_config
        assert foster_params(params, *REF_WEIGHTS, rng=np.random.default_rng(200)) == cfg
        assert calls == {"primary_times_from_exponentials": 1, "secondary_times_from_uniforms": 1}

    def test_supercritical_rejected(self):
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        with pytest.raises(WeightConstraintError, match="subcritical"):
            foster_params(p, 100.0, 10.0, 1.0, np.random.default_rng(201))

    def test_infeasible_weights_raise(self, ref_config):
        # r1 so large that v0 ~ exp(r1*c/gamma) cannot fit in float64
        params, _ = ref_config
        with pytest.raises(FosterInfeasibleError):
            foster_params(params, 10_000.0, 10.0, 1.0, rng=np.random.default_rng(201))

    def test_threshold_linear_uniform_variant(self):
        params = ModelParams(1.0, 0.5, 1.0, ThresholdLinearPhi(0.0, 1.0), UniformZ(1.0, 3.0))
        cfg = foster_params(params, 5.0, 2.0, 0.1, rng=np.random.default_rng(202))
        report = validate_foster(params, cfg, rng=np.random.default_rng(203))
        assert report.passed, [c.name for c in report.checks if not c.passed]

    def test_reproducible(self, ref_config):
        params, cfg = ref_config
        again = foster_params(params, *REF_WEIGHTS, rng=np.random.default_rng(200))
        assert again == cfg


class TestValidation:
    def test_construction_passes(self, ref_config):
        params, cfg = ref_config
        report = validate_foster(params, cfg, rng=np.random.default_rng(204))
        assert report.passed, [c.name for c in report.checks if not c.passed]
        for check in report.checks:
            assert check.margin >= 0.0, check

    def test_halved_v0_fails_phantom_push(self, ref_config):
        params, cfg = ref_config
        crippled = replace(cfg, v0=cfg.v0 / 2.0)
        report = validate_foster(params, crippled, rng=np.random.default_rng(205))
        assert not report.passed
        assert "v0_phantom_push" in [c.name for c in report.checks if not c.passed]

    def test_quiet_hazard_holds_at_x1(self, ref_config):
        # survival of the primary clock over the whole truncation window is
        # at least 1/2 at the constructed x1 (hazard integral <= ln 2)
        params, cfg = ref_config
        report = validate_foster(params, cfg, rng=np.random.default_rng(206))
        assert [c.margin >= 0.0 for c in report.checks if c.name == "x1_quiet_hazard"] == [True]

    def test_report_access(self, ref_config):
        params, cfg = ref_config
        report = validate_foster(params, cfg, rng=np.random.default_rng(207))
        assert report.passed is True
        checks = asdict(report)["checks"]
        assert [c["name"] for c in checks] == [c.name for c in report.checks]
        assert set(checks[0]) == {"name", "margin", "passed", "method", "se", "note"}


class TestDrift:
    def test_negative_outside_v(self, ref_config):
        params, cfg = ref_config
        for state in (State(cfg.x0 + 5.0, 1.0), State(0.0, cfg.y0 + 5.0)):
            est = estimate_drift(params, cfg, state, 20_000, np.random.default_rng(208))
            assert est.ci99_hi <= -cfg.gamma / 2.0
            assert not est.inside_v

    def test_inside_v_reports_only(self, ref_config):
        params, cfg = ref_config
        est = estimate_drift(params, cfg, State(0.0, 1.0), 5_000, np.random.default_rng(209))
        assert est.inside_v
        assert math.isfinite(est.mean)

    def test_below_truncation_threshold(self, ref_config):
        params, cfg = ref_config
        deep = State(min(2.0 * cfg.x1, cfg.x1 - 10.0), 1.0)
        est = estimate_drift(params, cfg, deep, 20_000, np.random.default_rng(210))
        assert est.ci99_hi < 0.0

    def test_minimum_sample_size(self, ref_config):
        params, cfg = ref_config
        with pytest.raises(ValueError):
            estimate_drift(params, cfg, State(0.0, 0.0), 999, np.random.default_rng(211))


class TestReturnTimes:
    def test_all_hit_from_moderate_start(self, ref_config):
        params, cfg = ref_config
        rt = return_times(params, cfg, State(cfg.x0 + 10.0, 1.0), 100, np.random.default_rng(212))
        assert rt.exhausted == 0
        assert rt.taus.size == 100
        assert np.mean(rt.taus) >= 1.0

    def test_start_inside_v_minimum_one_step(self, ref_config):
        params, cfg = ref_config
        rt = return_times(params, cfg, State(0.0, 1.0), 200, np.random.default_rng(213))
        assert rt.exhausted == 0
        assert np.all(rt.taus >= 1)

    def test_affine_growth_in_lyapunov(self, ref_config):
        # mean return times grow at most affinely in L: the ratio between two
        # starts is bounded by the ratio of (L + 1) with slack 2
        params, cfg = ref_config
        near = State(cfg.x0 + 10.0, 1.0)
        far = State(cfg.x0 + 20.0, 1.0)
        rt_near = return_times(params, cfg, near, 300, np.random.default_rng(214))
        rt_far = return_times(params, cfg, far, 300, np.random.default_rng(215))
        l_near = cfg.lyapunov_x(near.x) + cfg.r2 * near.y
        l_far = cfg.lyapunov_x(far.x) + cfg.r2 * far.y
        assert np.mean(rt_far.taus) / np.mean(rt_near.taus) <= 2.0 * (l_far + 1.0) / (l_near + 1.0)

    def test_requires_subcritical(self, ref_config):
        _, cfg = ref_config
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        with pytest.raises(ValueError, match="subcritical"):
            return_times(p, cfg, State(0.0, 0.0), 10, np.random.default_rng(216))


class TestConfigType:
    def test_lyapunov_evaluation(self):
        cfg = FosterConfig(2.0, 3.0, 1.0, 0.1, 5.0, 4.0, 10.0, -20.0, 0.25)
        assert cfg.lyapunov_x(2.0) + cfg.r2 * 1.0 == 2.0 * 2.0 + 3.0 * 1.0
        assert cfg.lyapunov_x(-2.0) + cfg.r2 * 1.0 == 1.0 * 2.0 + 3.0 * 1.0
        assert cfg.in_recurrent_set(0.0, 0.0)
        assert not cfg.in_recurrent_set(6.0, 0.0)
        assert not cfg.in_recurrent_set(0.0, 5.0)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            FosterConfig(0.0, 1.0, 0.5, 0.1, 1.0, 1.0, 1.0, -1.0, 0.1)
        with pytest.raises(ValueError):
            FosterConfig(2.0, 1.0, 0.5, 0.1, 1.0, 1.0, 1.0, 1.0, 0.1)


@pytest.mark.parametrize("replications", [0, -1])
def test_return_times_refusals(ref_config, replications):
    params, cfg = ref_config
    with pytest.raises(ValueError, match="replications must be >= 1"):
        return_times(params, cfg, State(0.0, 1.0), replications, np.random.default_rng(217))
