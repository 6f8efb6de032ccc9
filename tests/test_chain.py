import math
import warnings
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakesim import (
    DeterministicZ,
    Draws,
    EventLog,
    ExponentialPhi,
    ExponentialZ,
    FosterConfig,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    cumulative_hazard_primary,
    estimate_rates,
    flow,
    foster_params,
    master,
    simulate,
    state_at,
    step,
    substream,
    window_integrals,
)
from quakesim.stats import ks_two_sample

from simpson import cumulative_hazard_numeric


def small_foster(v0=2.0, x1=-50.0):
    # hand-built configuration for exercising the truncated kernel; the
    # drift constraints are irrelevant to these mechanical tests
    return FosterConfig(r1=10.0, r2=2.0, r3=1.0, gamma=0.1, x0=5.0, y0=4.0, v0=v0, x1=x1, delta=0.25)


class TestStepAlgebra:
    def test_recurrence_arithmetic(self):
        # x' = x + c*dt - z and y' = y*exp(-alpha*dt) + k; with dt=1, z=2,
        # (x, y) = (0, 0), c=1, k=0.5, alpha=1 this lands at (-1, 0.5)
        c, k, alpha, dt, z = 1.0, 0.5, 1.0, 1.0, 2.0
        x_post = 0.0 + c * dt - z
        y_post = 0.0 * math.exp(-alpha * dt) + k
        assert (x_post, y_post) == (-1.0, 0.5)

    def test_per_record_algebra_exact(self, ref_params, origin):
        rng = np.random.default_rng(40)
        log = simulate(ref_params, origin, StopRule(horizon=500.0), rng)
        assert log.t.size
        x_prev, y_prev = origin.x, origin.y
        for dt, x, y, z in zip(log.dt.tolist(), log.x.tolist(), log.y.tolist(), log.z.tolist()):
            assert x == pytest.approx(x_prev + ref_params.c * dt - z, abs=1e-12)
            assert y == pytest.approx(y_prev * math.exp(-ref_params.alpha * dt) + ref_params.k, abs=1e-12)
            x_prev, y_prev = x, y

    def test_y_floor_after_events(self, ref_params, origin):
        rng = np.random.default_rng(41)
        log = simulate(ref_params, origin, StopRule(max_events=500), rng)
        for y in log.y.tolist():
            assert y >= ref_params.k

    def test_first_step_marginal_matches_primary(self, ref_params, origin):
        # from y = 0 the second clock is off, so the first wait has the
        # primary-clock law
        draws = Draws(np.random.default_rng(42), ref_params.z)
        waits = np.array([step(ref_params, origin, draws)[1] for _ in range(30_000)])
        from quakesim import sample_primary_times

        ref = sample_primary_times(ref_params.phi, 0.0, 1.0, np.random.default_rng(43), 30_000)
        assert ks_two_sample(waits, ref) <= 1.63 * math.sqrt(2.0 / 30_000)


class TestFlow:
    def test_identity(self, ref_params):
        s = State(0.0, 1.0)
        assert flow(ref_params, s, 0.0) == s

    def test_exact_decay(self, ref_params):
        s = flow(ref_params, State(0.0, 1.0), math.log(2.0))
        assert s.x == pytest.approx(math.log(2.0), rel=1e-15)
        assert s.y == pytest.approx(0.5, rel=1e-12)

    def test_semigroup(self, ref_params):
        s = State(-1.3, 2.7)
        a = flow(ref_params, flow(ref_params, s, 0.3), 0.7)
        b = flow(ref_params, s, 1.0)
        assert a.x == pytest.approx(b.x, abs=1e-12)
        assert a.y == pytest.approx(b.y, abs=1e-12)

    def test_rejects_negative(self, ref_params):
        with pytest.raises(ValueError):
            flow(ref_params, State(0.0, 0.0), -0.1)


class TestSimulate:
    def test_zero_budget(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(max_events=0), np.random.default_rng(44))
        assert log.t.size == 0
        assert log.horizon == 0.0
        assert log.terminated_reason == "event_budget"

    def test_event_budget(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(max_events=50), np.random.default_rng(45))
        assert log.event_count == 50
        assert log.terminated_reason == "event_budget"
        assert log.horizon == log.t[-1]

    def test_horizon(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=100.0), np.random.default_rng(46))
        assert log.terminated_reason == "horizon_reached"
        assert log.horizon == 100.0
        assert all(t <= 100.0 for t in log.t.tolist())

    def test_times_strictly_increase(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=200.0), np.random.default_rng(47))
        times = log.t.tolist()
        assert all(a < b for a, b in zip(times, times[1:]))
        assert all(dt > 0 for dt in log.dt.tolist())

    def test_reproducible(self, ref_params, origin):
        stop = StopRule(horizon=300.0)
        a = simulate(ref_params, origin, stop, np.random.default_rng(48))
        b = simulate(ref_params, origin, stop, np.random.default_rng(48))
        assert a == b
        assert a.horizon == b.horizon

    def test_saturation_terminates(self, ref_params):
        # phi(40) = e^40 far exceeds the default cap
        log = simulate(ref_params, State(40.0, 0.0), StopRule(horizon=10.0), np.random.default_rng(49))
        assert log.terminated_reason == "saturation"
        assert log.t.size == 0

    def test_time_resolution_is_not_saturation(self, ref_params):
        # two phantoms of length v0 ~ 4e304 carry the clock to ~8e304, where
        # an O(1) wait no longer advances it, though the intensity is ~1
        cfg = foster_params(ref_params, 100.0, 10.0, 1.0, rng=substream(42, 0))
        log = simulate(ref_params, State(2.0 * cfg.x1, 1.0), StopRule(max_events=10), master(1), truncated=cfg)
        assert log.terminated_reason == "time_resolution"
        assert log.lambda_pre[-1] < ref_params.intensity_cap
        # the segment integrals over that log stay finite
        assert math.isfinite(window_integrals(log, 0.0, log.horizon)[2])
        stats = estimate_rates(log)
        numbers = [v for v in asdict(stats).values() if isinstance(v, float)]
        numbers += [v for v in stats.diagnostics.values() if isinstance(v, float)]
        assert all(math.isfinite(v) for v in numbers)
        assert stats.diagnostics["terminated_reason"] == "time_resolution"

    def test_subcritical_rate_smoke(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(50))
        rate = log.event_count / log.horizon
        assert abs(rate - 0.5) < 0.02

    def test_drop_beyond_float_range_is_refused(self, ref_params):
        # from y = 1e3 the secondary clock fires within about 1.4 for every
        # float uniform, long before the primary clock at x = -1e308; the
        # first drop of 1.5e308 then sends the stress to -inf, which no
        # state holds, whatever the draws
        params = ModelParams(ref_params.c, ref_params.k, ref_params.alpha, ref_params.phi, DeterministicZ(1.5e308))
        with pytest.raises(ValueError, match="need finite x"):
            simulate(params, State(-1e308, 1e3), StopRule(horizon=400.0), master(42))

    def test_exponential_drop_overflow_draws_without_a_warning(self):
        # 1.5e308 times a unit exponential above about 1.2 overflows to inf;
        # the block is drawn without numpy's RuntimeWarning, and the
        # kernel's range check is left to refuse the drop
        draws = Draws(master(42), ExponentialZ(1.5e308))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drops = [draws.z() for _ in range(64)]
        assert math.inf in drops

    def test_stop_rule_validation(self):
        with pytest.raises(ValueError):
            StopRule()
        with pytest.raises(ValueError):
            StopRule(max_events=-1)
        with pytest.raises(ValueError):
            StopRule(horizon=0.0)


class TestTruncatedChain:
    def test_phantoms_below_threshold(self):
        params = ModelParams(1.0, 0.5, 1.0, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(2.0))
        cfg = small_foster(v0=2.0, x1=-50.0)
        draws = Draws(np.random.default_rng(52), params.z)
        new, dt, z, _, is_event = step(params, State(-100.0, 0.0), draws, truncated=cfg)
        assert not is_event
        assert dt == cfg.v0
        assert z == 0.0
        # indicator is zero on the phantom path: pure flow
        assert new.x == pytest.approx(-100.0 + params.c * cfg.v0, rel=1e-15)
        assert new.y == pytest.approx(0.0, abs=1e-15)

    def test_above_threshold_matches_natural(self, ref_params):
        cfg = small_foster()
        state = State(0.0, 1.0)
        a = Draws(np.random.default_rng(53), ref_params.z)
        b = Draws(np.random.default_rng(53), ref_params.z)
        new_t, *rec_t = step(ref_params, state, a, truncated=cfg)
        new_n, *rec_n = step(ref_params, state, b)
        assert rec_t == rec_n
        assert new_t == new_n

    def test_above_threshold_distribution(self, ref_params):
        # branch x > x1 is the natural kernel in law
        cfg = small_foster()
        state = State(0.0, 1.0)
        draws = Draws(np.random.default_rng(54), ref_params.z)
        xs_t = np.array([step(ref_params, state, draws, truncated=cfg)[0].x for _ in range(20_000)])
        draws2 = Draws(np.random.default_rng(55), ref_params.z)
        xs_n = np.array([step(ref_params, state, draws2)[0].x for _ in range(20_000)])
        assert ks_two_sample(xs_t, xs_n) <= 1.63 * math.sqrt(2.0 / 20_000)

    def test_phantom_bookkeeping_in_log(self):
        params = ModelParams(1.0, 0.5, 1.0, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(2.0))
        cfg = small_foster(v0=5.0, x1=-20.0)
        rng = np.random.default_rng(56)
        log = simulate(params, State(-60.0, 0.0), StopRule(horizon=300.0), rng, truncated=cfg)
        phantom = ~log.is_event
        assert phantom.any() and log.is_event.any()
        assert all(z == 0.0 and dt == cfg.v0 for z, dt in zip(log.z[phantom].tolist(), log.dt[phantom].tolist()))
        assert log.event_count == log.t.size - np.count_nonzero(phantom)
        # integrals still well-defined with phantoms interleaved
        total = window_integrals(log, 0.0, log.horizon)
        assert total[0] == log.event_count


class TestStateReconstruction:
    def test_state_at_transitions(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=50.0), np.random.default_rng(57))
        for t, x, y in zip(log.t[:20].tolist(), log.x[:20].tolist(), log.y[:20].tolist()):
            s = state_at(log, t)
            assert s.x == pytest.approx(x, abs=1e-12)
            assert s.y == pytest.approx(y, abs=1e-12)

    def test_state_between_events_is_flow(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=50.0), np.random.default_rng(58))
        t0, t1 = log.t[3:5].tolist()
        mid = 0.5 * (t0 + t1)
        s = state_at(log, mid)
        expect = flow(ref_params, State(float(log.x[3]), float(log.y[3])), mid - t0)
        assert s.x == pytest.approx(expect.x, abs=1e-12)
        assert s.y == pytest.approx(expect.y, abs=1e-12)

    def test_counting_function(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=50.0), np.random.default_rng(59))
        times = log.event_times
        for t in (0.0, 10.0, 25.0, 50.0):
            n = int(np.searchsorted(times, t, side="right"))
            assert n == sum(1 for e, u in zip(log.is_event.tolist(), log.t.tolist()) if e and u <= t)

    def test_out_of_range(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=10.0), np.random.default_rng(60))
        with pytest.raises(ValueError):
            state_at(log, -1.0)
        with pytest.raises(ValueError):
            state_at(log, 11.0)


def _manual_log(params, initial, events, horizon, reason="horizon_reached"):
    """A log whose transitions are the given events, rows of
    (t, dt, x, y, z, lambda_pre)."""
    columns = np.array(events, dtype=float).reshape(-1, 6).T.copy()
    return EventLog(params, initial, horizon, reason, *columns, np.ones(len(events), dtype=bool))


def _window_integrals_of_every_segment(log, a, b):
    """`window_integrals` clipping every segment of the log to [a, b], the
    ones outside it included."""
    p = log.params
    t0 = np.concatenate(([0.0], log.t))
    x0 = np.concatenate(([log.initial.x], log.x))
    y0 = np.concatenate(([log.initial.y], log.y))
    t1 = np.append(log.t, max(log.horizon, log.t[-1] if log.t.size else 0.0))
    lo, hi = np.clip(t0, a, b), np.clip(t1, a, b)
    live = hi > lo
    lo, hi, t0, x0, y0 = lo[live], hi[live], t0[live], x0[live], y0[live]
    int_y = float(np.sum(y0 * (np.exp(-p.alpha * (lo - t0)) - np.exp(-p.alpha * (hi - t0)))) / p.alpha)
    int_phi = float(
        np.sum(cumulative_hazard_primary(p.phi, x0, p.c, hi - t0) - cumulative_hazard_primary(p.phi, x0, p.c, lo - t0))
    )
    times = log.event_times
    return int(np.searchsorted(times, b, side="right") - np.searchsorted(times, a, side="right")), int_y, int_phi


class TestIntegrals:
    def test_single_segment_y(self, ref_params):
        # integral of e^{-t} over [0, log 2] is 1/2
        row = (math.log(2.0), math.log(2.0), 0.0, 1.0, 1.0, 1.0)
        log = _manual_log(ref_params, State(0.0, 1.0), [row], math.log(2.0))
        assert window_integrals(log, 0.0, log.horizon)[1] == pytest.approx(0.5, rel=1e-12)

    def test_empty_log_zero_y(self, ref_params):
        log = _manual_log(ref_params, State(0.0, 0.0), [], 7.0)
        assert window_integrals(log, 0.0, log.horizon)[1] == 0.0

    def test_single_segment_phi(self, ref_params):
        oracle = cumulative_hazard_numeric(ref_params.phi, 0.0, 1.0, 1.0)
        row = (1.0, 1.0, -1.0, 0.5, 2.0, math.e)
        log = _manual_log(ref_params, State(0.0, 0.0), [row], 1.0)
        int_phi = window_integrals(log, 0.0, log.horizon)[2]
        assert int_phi == pytest.approx(oracle, rel=1e-9)
        assert int_phi == pytest.approx(math.e - 1.0, rel=1e-12)

    def test_zero_length_log(self, ref_params):
        log = _manual_log(ref_params, State(0.0, 0.0), [], 0.0, "event_budget")
        assert window_integrals(log, 0.0, log.horizon) == (0, 0.0, 0.0)

    def test_tail_segment_included(self, ref_params):
        # one event at t=1, horizon 3: the tail [1, 3] must contribute
        row = (1.0, 1.0, 0.0, 2.0, 1.0, 1.0)
        log = _manual_log(ref_params, State(0.0, 0.0), [row], 3.0)
        tail = 2.0 * (1.0 - math.exp(-2.0)) / 1.0
        assert window_integrals(log, 0.0, log.horizon)[1] == pytest.approx(tail, rel=1e-12)

    @pytest.mark.parametrize("a, b", [(0.0, 11.0), (-1.0, 5.0), (6.0, 5.0)])
    def test_window_outside_the_log_is_refused(self, ref_params, origin, a, b):
        log = simulate(ref_params, origin, StopRule(horizon=10.0), np.random.default_rng(60))
        with pytest.raises(ValueError, match="outside"):
            window_integrals(log, a, b)

    def test_window_additivity(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=400.0), np.random.default_rng(61))
        full = window_integrals(log, 0.0, log.horizon)
        parts = [window_integrals(log, a, a + 80.0) for a in np.arange(0.0, 400.0, 80.0)]
        assert sum(p[0] for p in parts) == full[0] == log.event_count
        assert sum(p[1] for p in parts) == pytest.approx(full[1], rel=1e-10)
        assert sum(p[2] for p in parts) == pytest.approx(full[2], rel=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(
        phi=st.sampled_from([ExponentialPhi(1.0), ThresholdLinearPhi(0.0, 1.0)]),
        horizon=st.floats(0.5, 40.0),
        max_events=st.one_of(st.none(), st.integers(1, 3)),
        seed=st.integers(0, 2**32),
        data=st.data(),
    )
    def test_window_reads_the_same_bits_as_every_segment(self, phi, horizon, max_events, seed, data):
        # a budget of 1 gives a one-row log; windows may start or end on an
        # event time, be empty (a == b) or reach into the tail segment
        params = ModelParams(1.0, 0.5, 1.0, phi, ExponentialZ(2.0))
        stop = StopRule(max_events=max_events, horizon=horizon)
        log = simulate(params, State(0.0, 0.0), stop, master(seed))
        edges = st.one_of(st.sampled_from([0.0, *log.t.tolist(), log.horizon]), st.floats(0.0, log.horizon))
        a = data.draw(edges)
        a, b = sorted((a, data.draw(st.one_of(st.just(a), edges))))
        got = window_integrals(log, a, b)
        want = _window_integrals_of_every_segment(log, a, b)
        assert got[0] == want[0] and got[1].hex() == want[1].hex() and got[2].hex() == want[2].hex()

    def test_rate_balance(self, ref_params, origin):
        # events/horizon against the exact intensity integral: the counting
        # martingale makes these agree within Monte Carlo error
        log = simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(62))
        n = log.event_count
        _, int_y, int_phi = window_integrals(log, 0.0, log.horizon)
        total = int_phi + int_y
        assert abs(n - total) <= 4.0 * math.sqrt(n)

    def test_long_run_aftershock_share(self, ref_params, origin):
        log = simulate(ref_params, origin, StopRule(horizon=20_000.0), np.random.default_rng(63))
        _, int_y, int_phi = window_integrals(log, 0.0, log.horizon)
        assert int_y / log.horizon == pytest.approx(0.25, abs=0.02)
        assert int_phi / log.horizon == pytest.approx(0.25, abs=0.02)
