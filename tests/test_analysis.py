import math

import numpy as np
import pytest

from quakesim import (
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    GrowthReport,
    InsufficientDataError,
    ModelParams,
    Regime,
    RegimeError,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    convergence_diagnostic,
    dominance_test,
    estimate_rates,
    lemma_l2_check,
    regime,
    simulate,
    supercritical_probe,
    theoretical_rate,
)
from quakesim.chain import EventLog


class TestRegime:
    def test_subcritical(self, ref_params):
        assert regime(ref_params) is Regime.SUBCRITICAL

    def test_critical(self):
        p = ModelParams(1.0, 1.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        assert regime(p) is Regime.CRITICAL

    def test_supercritical(self):
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        assert regime(p) is Regime.SUPERCRITICAL

    def test_tolerance_band(self):
        p = ModelParams(1.0, 1.0 + 1e-13, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        assert regime(p) is Regime.CRITICAL


class TestTheoreticalRate:
    def test_reference(self, ref_params):
        assert theoretical_rate(ref_params) == 0.5

    def test_deterministic_z(self):
        p = ModelParams(3.0, 0.5, 1.0, ExponentialPhi(1.0), DeterministicZ(1.0))
        assert theoretical_rate(p) == 3.0

    def test_uniform_z(self):
        p = ModelParams(2.0, 0.5, 1.0, ExponentialPhi(1.0), UniformZ(1.0, 3.0))
        assert theoretical_rate(p) == 1.0

    def test_refuses_critical(self):
        p = ModelParams(1.0, 1.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        with pytest.raises(RegimeError, match="empty"):
            theoretical_rate(p)

    def test_refuses_supercritical(self):
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        with pytest.raises(RegimeError, match="no finite-rate"):
            theoretical_rate(p)


class TestEstimateRates:
    def test_reference_run(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(80))
        st = estimate_rates(log)
        assert abs(st.rate_hat - 0.5) <= 4.0 * st.rate_se
        assert abs(st.lambda2_hat - 0.25) <= 4.0 * st.lambda2_se
        assert st.diagnostics["y_share"] == pytest.approx(0.5, abs=0.05)
        assert st.rate_theory == 0.5
        assert st.mean_y_hat == st.lambda2_hat
        resid = st.diagnostics["balance_residual"]
        assert abs(resid) <= 4.0 * st.diagnostics["balance_residual_se"]

    def test_empty_log_raises(self, ref_params, origin):
        empty = np.empty(0)
        log = EventLog(ref_params, origin, 0.0, "event_budget", *[empty] * 6, np.empty(0, dtype=bool))
        with pytest.raises(InsufficientDataError, match="insufficient data"):
            estimate_rates(log)

    def test_no_burn_in_warns(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=2000.0), np.random.default_rng(81))
        with pytest.warns(UserWarning, match="transient"):
            estimate_rates(log, burn_in_fraction=0.0)

    def test_y_share_independent_of_z_family(self):
        # the aftershock share is k/alpha regardless of the drop law
        shares = []
        ses = []
        for z in (ExponentialZ(2.0), UniformZ(1.0, 3.0)):
            p = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), z)
            log = simulate(p, State(0.0, 0.0), StopRule(horizon=20_000.0), np.random.default_rng(82))
            st = estimate_rates(log)
            share = st.lambda2_hat / st.rate_hat
            se = share * math.sqrt(
                (st.lambda2_se / st.lambda2_hat) ** 2 + (st.rate_se / st.rate_hat) ** 2
            )
            shares.append(share)
            ses.append(se)
        combined = math.sqrt(ses[0] ** 2 + ses[1] ** 2)
        assert abs(shares[0] - shares[1]) <= 3.0 * combined

    def test_validation(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=500.0), np.random.default_rng(83))
        with pytest.raises(ValueError):
            estimate_rates(log, burn_in_fraction=1.0)
        with pytest.raises(ValueError):
            estimate_rates(log, batches=1)

    def test_seed_invariance(self, ref_params, origin):
        # disjoint master seeds agree within their combined intervals
        a = estimate_rates(
            simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(1111))
        )
        b = estimate_rates(
            simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(2222))
        )
        for attr in ("rate_hat", "lambda1_hat", "lambda2_hat"):
            se = math.hypot(getattr(a, attr.replace("_hat", "_se")), getattr(b, attr.replace("_hat", "_se")))
            assert abs(getattr(a, attr) - getattr(b, attr)) <= 3.0 * se


class TestConvergence:
    def test_identical_inits_within_null_band(self, ref_params, origin):
        rep = convergence_diagnostic(
            ref_params, origin, origin, [5.0, 20.0], 400, np.random.default_rng(84)
        )
        for p in rep.points:
            assert p.below, f"t={p.t}: ks_x={p.ks_x}, ks_y={p.ks_y}, thr={p.threshold}"

    def test_distinct_inits_converge(self, ref_params, origin):
        # the burst from (5, 10) drops the stress by ~40, and the rebuild at
        # rate c takes ~40 time units, so the marginals separate long past
        # t=1 and only merge on the rebuild time scale
        rep = convergence_diagnostic(
            ref_params, origin, State(5.0, 10.0), [1.0, 150.0], 400, np.random.default_rng(85)
        )
        early, late = rep.points[0], rep.points[1]
        assert early.ks_x > early.threshold
        assert late.below

    def test_cz_warning_for_deterministic_z(self, origin):
        p = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), DeterministicZ(2.0))
        with pytest.warns(UserWarning, match="absolutely continuous"):
            rep = convergence_diagnostic(p, origin, origin, [2.0], 50, np.random.default_rng(86))
        assert rep.cz_warning

    def test_requires_subcritical(self, origin):
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        with pytest.raises(RegimeError):
            convergence_diagnostic(p, origin, origin, [1.0], 10, np.random.default_rng(87))

    @pytest.mark.parametrize("replications", [0, -3])
    def test_needs_a_replication(self, ref_params, origin, replications):
        with pytest.raises(ValueError, match="replications must be >= 1"):
            convergence_diagnostic(ref_params, origin, origin, [1.0], replications, np.random.default_rng(87))

    def test_refuses_replications_whose_critical_value_reaches_one(self, ref_params, origin):
        # at alpha 0.01 the critical value is 2.30 at 1 replication, 1.03 at
        # 5 and first below 1 at 6; a KS distance never exceeds 1
        for replications, value in ((1, "2.302"), (5, "1.029")):
            with pytest.raises(ValueError, match=f"KS critical value {value} at alpha=0.01 is >= 1"):
                convergence_diagnostic(ref_params, origin, origin, [1.0], replications, np.random.default_rng(87))
        rep = convergence_diagnostic(ref_params, origin, origin, [1.0], 6, np.random.default_rng(87))
        assert rep.points[0].threshold < 1.0


class TestDominanceOp:
    @pytest.mark.parametrize(
        "family,lo,hi",
        [("secondary", 1.0, 5.0), ("primary", 0.0, 2.0), ("shifted_primary", 0.0, 2.0)],
    )
    def test_orderings_hold(self, ref_params, family, lo, hi):
        rep = dominance_test(ref_params, family, lo, hi, 50_000, np.random.default_rng(88))
        assert rep.passed, f"{family}: violation={rep.violation}, band={rep.band}"

    def test_reversed_parameters_fail(self, ref_params):
        # swapping the roles breaks the ordering and the violation shows it
        rep = dominance_test(ref_params, "secondary", 0.05, 5.0, 50_000, np.random.default_rng(89))
        swapped = dominance_test(ref_params, "primary", -3.0, 3.0, 50_000, np.random.default_rng(90))
        assert rep.passed and swapped.passed
        from quakesim.model import sample_secondary_times
        from quakesim.stats import dominance_violation, one_sided_band

        rng = np.random.default_rng(91)
        hi_y = sample_secondary_times(5.0, 1.0, rng, 50_000)
        lo_y = sample_secondary_times(0.05, 1.0, rng, 50_000)
        assert dominance_violation(hi_y, lo_y) > one_sided_band(50_000, 50_000)

    def test_validation(self, ref_params):
        with pytest.raises(ValueError, match="family"):
            dominance_test(ref_params, "nope", 0.0, 1.0, 100, np.random.default_rng(92))
        with pytest.raises(ValueError, match="param_low"):
            dominance_test(ref_params, "primary", 2.0, 1.0, 100, np.random.default_rng(93))

    @pytest.mark.parametrize("n", [0, -2])
    def test_needs_a_draw(self, ref_params, n):
        rng = np.random.default_rng(94)
        before = rng.bit_generator.state
        with pytest.raises(ValueError, match="n must be >= 1"):
            dominance_test(ref_params, "primary", 0.0, 2.0, n, rng)
        assert rng.bit_generator.state == before

    def test_refuses_sizes_whose_band_reaches_one(self, ref_params):
        # at alpha 0.01 the band is 2.15 at n = 1, 1.07 at n = 4 and first
        # below 1 at n = 5; a KS violation never exceeds 1
        for n, value in ((1, "2.146"), (4, "1.073")):
            rng = np.random.default_rng(95)
            before = rng.bit_generator.state
            with pytest.raises(ValueError, match=f"one-sided KS band {value} at alpha=0.01 is >= 1"):
                dominance_test(ref_params, "primary", 0.0, 2.0, n, rng)
            assert rng.bit_generator.state == before
        rep = dominance_test(ref_params, "primary", 0.0, 2.0, 5, np.random.default_rng(95))
        assert rep.band < 1.0


class TestLemmaTable:
    def test_unit_point(self):
        rows = lemma_l2_check(1.0, [1.0], 500_000, np.random.default_rng(94))
        r = rows[0]
        assert r.exact == pytest.approx(1.0 - math.exp(-1.0), rel=1e-12)
        assert abs(r.mc_value - r.exact) <= 3.0 * r.mc_se

    def test_zero_point(self):
        rows = lemma_l2_check(1.0, [0.0], 100, np.random.default_rng(95))
        assert rows[0].mc_value == 0.0 and rows[0].exact == 0.0

    def test_limit_row(self):
        rows = lemma_l2_check(1.0, [20.0], 200_000, np.random.default_rng(96))
        assert abs(rows[0].exact - 1.0) < 1e-8
        assert abs(rows[0].mc_value - 1.0) < 0.01

    @pytest.mark.parametrize("n", [1, 0])
    def test_needs_two_draws(self, n):
        # one draw has no standard error (np.std with ddof=1 is NaN)
        with pytest.raises(ValueError, match="n must be >= 2"):
            lemma_l2_check(1.0, [1.0], n, np.random.default_rng(98))

    def test_alpha_scaling(self):
        alpha = 2.5
        rows = lemma_l2_check(alpha, [0.5, 3.0, 50.0], 200_000, np.random.default_rng(97))
        for r in rows:
            assert r.exact == pytest.approx(alpha * (1.0 - math.exp(-r.y / alpha)), rel=1e-12)
            assert abs(r.mc_value - r.exact) <= 3.0 * r.mc_se + 1e-9


class TestSupercriticalProbe:
    def test_supercritical_flagged(self):
        p = ModelParams(1.0, 2.0, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        rep = supercritical_probe(p, 50.0, 100_000, np.random.default_rng(98))
        assert rep.regime is Regime.SUPERCRITICAL
        assert rep.explosive

    @pytest.mark.parametrize("reason", ["saturation", "time_resolution"])
    def test_early_stop_is_explosive(self, reason):
        rep = GrowthReport(Regime.SUPERCRITICAL, (2.0, 1.0, 1.0, 1.0), 5, 1.0, reason)
        assert rep.explosive
        assert not GrowthReport(Regime.SUPERCRITICAL, (2.0, 1.0, 1.0, 1.0), 5, 1.0, "horizon_reached").explosive

    def test_near_critical_reports_only(self):
        p = ModelParams(1.0, 0.999, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
        rep = supercritical_probe(p, 200.0, 50_000, np.random.default_rng(99))
        assert rep.regime is Regime.SUBCRITICAL
        assert rep.event_count > 0  # informational run, no assertion on the flag

    def test_critical_pure_decay_dies_out(self):
        # k/alpha = 1 with the primary hazard out of reach: counts stay bounded
        p = ModelParams(1.0, 1.0, 1.0, ThresholdLinearPhi(1e9, 1.0), DeterministicZ(1.0))
        rng = np.random.default_rng(100)
        medians = []
        for horizon in (100.0, 1000.0):
            counts = [
                simulate(p, State(0.0, 1.0), StopRule(horizon=horizon), child).event_count
                for child in rng.spawn(60)
            ]
            medians.append(float(np.median(counts)))
        assert medians[1] <= medians[0] + 2.0
