"""The one transition kernel behind every chain step, and the columnar log.

`simulate` and `step` run the same kernel, so a trajectory replayed one
step at a time from the `Draws` of an identically seeded generator must
reproduce `simulate`'s columns bit for bit.  The names the benchmark tracer wraps
must stay where it looks for them.
"""

import ast
import importlib
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakesim import (
    DeterministicZ,
    Draws,
    ExponentialPhi,
    ExponentialZ,
    FosterConfig,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    master,
    phi_eval,
    simulate,
    step,
)

_PHIS = st.one_of(
    st.builds(ExponentialPhi, st.floats(0.2, 3.0)),
    st.builds(ThresholdLinearPhi, st.floats(-2.0, 2.0), st.floats(0.2, 3.0)),
)
_ZS = st.one_of(
    st.builds(ExponentialZ, st.floats(0.2, 4.0)),
    st.builds(lambda low, width: UniformZ(low, low + width), st.floats(0.0, 2.0), st.floats(0.1, 3.0)),
    st.builds(DeterministicZ, st.floats(0.2, 4.0)),
)


@settings(max_examples=60, deadline=None)
@given(
    phi=_PHIS,
    z=_ZS,
    c=st.floats(0.3, 3.0),
    k=st.floats(0.0, 1.5),
    alpha=st.floats(0.3, 3.0),
    x=st.floats(-40.0, 4.0),
    y=st.floats(0.0, 5.0),
    truncated=st.booleans(),
    v0=st.floats(0.5, 5.0),
    x1=st.floats(-20.0, -1.0),
    seed=st.integers(0, 2**32),
)
def test_simulate_is_a_replay_of_single_steps(phi, z, c, k, alpha, x, y, truncated, v0, x1, seed):
    params = ModelParams(c, k, alpha, phi, z)
    cfg = FosterConfig(r1=10.0, r2=2.0, r3=1.0, gamma=0.1, x0=5.0, y0=4.0, v0=v0, x1=x1, delta=0.25) if truncated else None
    log = simulate(params, State(x, y), StopRule(max_events=40, horizon=500.0), master(seed), truncated=cfg)

    draws = Draws(master(seed), params.z)
    state, t = State(x, y), 0.0
    rows, kinds = [], []
    for _ in range(log.t.size):
        state, dt, z, lam, event = step(params, state, draws, truncated=cfg)
        t += dt
        rows.append((t, dt, state.x, state.y, z, lam))
        kinds.append(event)
    got = np.column_stack([log.t, log.dt, log.x, log.y, log.z, log.lambda_pre])
    assert got.tobytes() == np.array(rows, dtype=float).reshape(-1, 6).tobytes()
    assert log.is_event.tolist() == kinds
    assert log.event_count == sum(kinds)


def test_step_refuses_draws_of_another_drop_law(ref_params, origin):
    draws = Draws(master(3), DeterministicZ(2.0))
    with pytest.raises(ValueError, match="drop law"):
        step(ref_params, origin, draws)


@settings(max_examples=40, deadline=None)
@given(
    phi=_PHIS,
    z=_ZS,
    k=st.floats(0.0, 1.5),
    x=st.floats(-40.0, 4.0),
    y=st.floats(0.0, 5.0),
    truncated=st.booleans(),
    x1=st.floats(-20.0, -1.0),
    seed=st.integers(0, 2**32),
)
def test_columns_do_not_depend_on_the_block_size(phi, z, k, x, y, truncated, x1, seed):
    import quakesim.chain

    params = ModelParams(1.0, k, 1.0, phi, z)
    cfg = None
    if truncated:
        cfg = FosterConfig(r1=10.0, r2=2.0, r3=1.0, gamma=0.1, x0=5.0, y0=4.0, v0=2.0, x1=x1, delta=0.25)
    columns = []
    # one value per refill against the blocks users run
    for block in (1, quakesim.chain._BLOCK):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(quakesim.chain, "_BLOCK", block)
            log = simulate(params, State(x, y), StopRule(max_events=200, horizon=500.0), master(seed), truncated=cfg)
        got = np.column_stack([log.t, log.dt, log.x, log.y, log.z, log.lambda_pre])
        columns.append((got.tobytes(), log.is_event.tobytes(), log.terminated_reason))
    assert columns[0] == columns[1]


@settings(max_examples=200, deadline=None)
@given(
    phi=_PHIS,
    x=st.one_of(st.floats(-800.0, 800.0), st.sampled_from([0.0, -0.0, 709.0, 709.5, 709.79, -1e308, 1e308])),
)
def test_float_phi_eval_matches_zero_d_path(phi, x):
    # a Python float takes the `math` path; a 0-d array takes the numpy
    # path that scalars took before it.  Same bits, signed zeros and
    # overflow included
    with np.errstate(over="ignore"):
        a, b = phi_eval(phi, x), phi_eval(phi, np.array(x))
    assert type(a) is float
    assert math.copysign(1.0, a) == math.copysign(1.0, b) and (a == b or (math.isnan(a) and math.isnan(b)))


@pytest.mark.parametrize("v, expected", [(709.5, math.exp(709.5)), (709.79, math.inf)])
def test_exp_phi_overflows_where_float64_does(v, expected):
    # e^709.5 = 1.35e308 is finite; e^709.79 is past the largest float
    phi = ExponentialPhi(1.0)
    values = phi_eval(phi, v), phi_eval(phi, np.array(v)), phi_eval(phi, np.array([v, 0.0]))[0]
    assert values == (expected, expected, expected)


def test_simulate_steps_through_the_sampler_and_model_layers(ref_params, origin, monkeypatch):
    # each step draws its wait with chain.sample_interevent and checks
    # saturation with chain.intensity_saturated; phi is evaluated twice per
    # step, once for saturation and once for lambda_pre
    import quakesim.chain
    import quakesim.model

    calls = {"sample_interevent": 0, "intensity_saturated": 0, "phi_eval": 0}

    def counting(module, name):
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)

    for name in calls:
        counting(quakesim.chain, name)
    counting(quakesim.model, "phi_eval")
    log = simulate(ref_params, origin, StopRule(horizon=200.0), master(8))
    steps = log.event_count + 1  # the last wait overshoots the horizon
    assert calls == {"sample_interevent": steps, "intensity_saturated": steps, "phi_eval": 2 * steps}


def test_tracer_targets_resolve():
    # benchmarks/tracing.py wraps these (module, attribute) pairs by name;
    # read its table without importing it
    tree = ast.parse((Path(__file__).parents[1] / "benchmarks" / "tracing.py").read_text())
    table = next(
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "INSTRUMENTED" for t in node.targets)
    )
    targets = [(module, attr) for module, attr, *_ in ast.literal_eval(table)]
    assert ("quakesim.chain", "sample_interevent") in targets
    for module, attr in targets:
        assert callable(getattr(importlib.import_module(module), attr, None)), f"{module}.{attr}"
