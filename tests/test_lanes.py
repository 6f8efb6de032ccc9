"""The lockstep lanes of `simulate_states` against the scalar chain.

Lane i of `simulate_states(params, initial, times, horizon, rng, n)` is the
trajectory `simulate(params, initial, StopRule(horizon=horizon),
rng.spawn(n)[i])`, read at `times` as `state_at` reads it.  numpy's exp and
log may differ from `math`'s in the last bit, so the law is checked by lane
replay: every lane matches that scalar oracle to 1e-12, and stops early at
the same step for the same reason.  The lanes' stream seeds are hashed in
one pass; they are checked bit for bit against numpy's `spawn` and
`generate_state`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quakesim.chain
from quakesim import (
    EARLY_STOPS,
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    InsufficientDataError,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    convergence_diagnostic,
    master,
    simulate,
    simulate_states,
    state_at,
    substream,
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

# alpha = 1e20 with k = alpha/2: after the first event a secondary wait of
# about 1e-20 lands at t of order 1, below the float resolution of the
# clock.  The cap lets the intensity of 1e20 through.
_FLAT = ModelParams(1.0, 0.5e20, 1e20, ExponentialPhi(1.0), ExponentialZ(2.0), intensity_cap=1e300)


def scalar_lanes(params, initial, times, horizon, rng, lanes):
    """The oracle: (x, y, stops) of `simulate_states` from one `simulate`
    per child of `rng.spawn(lanes)` and `state_at` at each time."""
    xs = np.full((lanes, len(times)), math.nan)
    ys = np.full((lanes, len(times)), math.nan)
    stops = []
    for i, child in enumerate(rng.spawn(lanes)):
        log = simulate(params, initial, StopRule(horizon=horizon), child)
        if log.terminated_reason in EARLY_STOPS:
            stops.append((log.horizon, log.terminated_reason))
            continue
        for j, t in enumerate(times):
            s = state_at(log, t)
            xs[i, j], ys[i, j] = s.x, s.y
    return xs, ys, stops


def assert_replays(got, want):
    (xs, ys, stops), (wx, wy, wstops) = got, want
    # relative 1e-12, and absolute 1e-12 where x passes near 0
    np.testing.assert_allclose(xs, wx, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(ys, wy, rtol=1e-12, atol=1e-12)
    assert [reason for _, reason in stops] == [reason for _, reason in wstops]
    assert [when for when, _ in stops] == pytest.approx([when for when, _ in wstops], rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    phi=_PHIS,
    z=_ZS,
    c=st.floats(0.3, 3.0),
    share=st.floats(0.0, 0.9),
    alpha=st.floats(0.3, 3.0),
    x=st.floats(-40.0, 4.0),
    y=st.floats(0.0, 5.0),
    times=st.lists(st.floats(0.0, 30.0), min_size=1, max_size=4),
    seed=st.integers(0, 2**32),
)
def test_each_lane_replays_simulate_and_state_at(phi, z, c, share, alpha, x, y, times, seed):
    params = ModelParams(c, share * alpha, alpha, phi, z)
    times = sorted(times)
    horizon = times[-1] if times[-1] > 0 else 1.0
    got = simulate_states(params, State(x, y), times, horizon, master(seed), 12)
    assert_replays(got, scalar_lanes(params, State(x, y), times, horizon, master(seed), 12))


@pytest.mark.parametrize(
    "params, initial, horizon",
    [(_FLAT, State(0.0, 1e20), 2.0), (_FLAT, State(0.0, 0.0), 2.0), (None, State(40.0, 0.0), 5.0)],
    ids=["time-resolution-from-1e20", "time-resolution-and-live", "saturation-at-0"],
)
def test_early_stops_replay_simulate(ref_params, params, initial, horizon):
    params = params or ref_params
    times = [0.0, horizon / 2, horizon]
    got = simulate_states(params, initial, times, horizon, master(5), 12)
    want = scalar_lanes(params, initial, times, horizon, master(5), 12)
    assert_replays(got, want)
    assert want[2]  # the case stops some lanes early


def test_lane_values_do_not_depend_on_lanes_chunks_or_blocks(ref_params, monkeypatch):
    # the flat model stops lanes at different steps, so the live set changes
    # under the lanes that keep running.  250 and 251 lanes in chunks of 250
    # end on a full chunk and on a chunk of one lane
    for params, initial, times in ((ref_params, State(0.0, 0.0), [3.0, 20.0]), (_FLAT, State(0.0, 0.0), [1.0, 2.0])):
        runs = []
        for lanes, chunk, block in (
            (9, 1, 1),
            (9, 4, 5),
            (40, 125, 64),
            (9, 3, 200),
            (250, 250, 32),
            (251, 250, 32),
            (251, 9, 7),
        ):
            monkeypatch.setattr(quakesim.chain, "_LANES", chunk)
            monkeypatch.setattr(quakesim.chain, "_LANE_BLOCK", block)
            runs.append(simulate_states(params, initial, times, times[-1], master(11), lanes))
        for i, (xs, ys, stops) in enumerate(runs):
            for other in runs[:i]:
                # the lanes both runs have; stops come in lane order, one
                # per NaN row
                m = min(len(xs), len(other[0]))
                first = int(np.count_nonzero(np.isnan(xs[:m, 0])))
                assert xs[:m].tobytes() == other[0][:m].tobytes()
                assert ys[:m].tobytes() == other[1][:m].tobytes()
                assert stops[:first] == other[2][:first]


def test_a_time_on_a_transition_reads_the_state_after_it(origin):
    # threshold-linear waits from a zero residual with k = 0 take only
    # correctly rounded arithmetic, so the lanes' clocks equal `simulate`'s
    # bit for bit and the times can sit exactly on its transitions
    params = ModelParams(1.0, 0.0, 1.0, ThresholdLinearPhi(0.0, 1.0), ExponentialZ(2.0))
    log = simulate(params, origin, StopRule(horizon=50.0), master(1).spawn(3)[0])
    times = log.t[:5].tolist()
    xs, ys, _ = simulate_states(params, origin, times, 50.0, master(1), 3)
    assert xs[0].tolist() == log.x[:5].tolist() == [state_at(log, t).x for t in times]
    assert ys[0].tolist() == log.y[:5].tolist() == [0.0] * 5


def _insufficient_data_message(stops, chains):
    when, reason = min(stops)
    return (
        f"{len(stops)} of {chains} chains stopped early, the first by "
        f"{EARLY_STOPS[reason]} at t={when:.6g}; no KS distances computed"
    )


@pytest.mark.parametrize(
    "params, init_a, init_b, grid",
    [
        (None, State(40.0, 0.0), State(0.0, 0.0), [1.0, 5.0]),
        (_FLAT, State(0.0, 1e20), State(0.0, 0.0), [1.0]),
        (_FLAT, State(0.0, 0.0), State(0.0, 1e20), [1.0, 2.0]),
    ],
    ids=["saturation-at-0", "time-resolution", "stopped-and-live"],
)
def test_converge_refuses_early_stops_as_the_scalar_path_does(ref_params, params, init_a, init_b, grid):
    # each case stops some chains early and runs the others to the horizon
    params = params or ref_params
    replications = 6
    # the scalar path: side a on children 0..R-1 of the run's generator,
    # side b on children R..2R-1
    rng = master(87)
    stops = [
        stop for initial in (init_a, init_b) for stop in scalar_lanes(params, initial, grid, grid[-1], rng, replications)[2]
    ]
    assert 0 < len(stops) < 2 * replications
    with pytest.raises(InsufficientDataError) as info:
        convergence_diagnostic(params, init_a, init_b, grid, replications, master(87))
    assert str(info.value) == _insufficient_data_message(stops, 2 * replications)


def test_a_state_out_of_the_float_range_raises_as_simulate_does(origin):
    # drops of mean 1e308 overflow to inf or push the stress past -1.8e308
    params = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(1e308))
    with pytest.raises(ValueError) as scalar:
        scalar_lanes(params, origin, [5.0], 5.0, master(3), 6)
    with pytest.raises(ValueError) as lanes:
        simulate_states(params, origin, [5.0], 5.0, master(3), 6)
    # the same lane and state; y may differ in its last bit
    assert str(lanes.value).startswith("need finite x and finite y >= 0, got (-inf, ")
    assert str(lanes.value).split(", ")[0] == str(scalar.value).split(", ")[0]
    got_y = float(str(lanes.value).rsplit(", ", 1)[1].rstrip(")"))
    want_y = float(str(scalar.value).rsplit(", ", 1)[1].rstrip(")"))
    assert got_y == pytest.approx(want_y, rel=1e-12)


@pytest.mark.parametrize(
    "times, horizon",
    [([2.0, 1.0], 5.0), ([1.0, 6.0], 5.0), ([-1.0], 5.0), ([math.nan], 5.0), ([1.0], 0.0), ([1.0], math.inf)],
)
def test_refusals(ref_params, origin, times, horizon):
    with pytest.raises(ValueError):
        simulate_states(ref_params, origin, times, horizon, master(1), 3)


_BIT_GENERATORS = [np.random.PCG64, np.random.PCG64DXSM, np.random.Philox, np.random.SFC64, np.random.MT19937]
# the (n_words, dtype) that each of _BIT_GENERATORS asks of its seed
_STATE_REQUESTS = [(4, np.uint64), (2, np.uint64), (3, np.uint64), (624, np.uint32)]


@settings(max_examples=60, deadline=None)
@given(
    entropy=st.one_of(
        st.sampled_from([0, 2**64 - 1]),
        st.integers(2**64, 2**200),
        st.lists(st.integers(0, 2**70), max_size=6),
    ),
    spawn_key=st.lists(st.integers(0, 2**40), max_size=3).map(tuple),
    pool_size=st.sampled_from([4, 8]),
    first=st.one_of(st.integers(0, 1000), st.integers(2**32 - 100, 2**32 - 6)),
    n=st.integers(1, 5),
)
def test_lane_seeds_are_numpys_spawned_seeds(entropy, spawn_key, pool_size, first, n):
    # first + n stays below 2**32: numpy's spawn count is a uint32
    seq, twin = (
        np.random.SeedSequence(entropy, spawn_key=spawn_key, pool_size=pool_size, n_children_spawned=first)
        for _ in range(2)
    )
    lanes = quakesim.chain._lane_seeds(seq, n)
    want = [child.spawn(3) for child in twin.spawn(n)]
    assert seq.n_children_spawned == twin.n_children_spawned == first + n
    assert len(lanes) == n
    for lane, children in zip(lanes, want):
        for seed, child in zip(lane, children, strict=True):
            assert (seed.entropy, seed.spawn_key) == (child.entropy, child.spawn_key)
            for n_words, dtype in _STATE_REQUESTS:
                got = seed.generate_state(n_words, dtype)
                assert got.dtype == dtype and got.tobytes() == child.generate_state(n_words, dtype).tobytes()
            for bits in _BIT_GENERATORS:
                assert bits(seed).random_raw(3).tolist() == bits(child).random_raw(3).tolist()


@pytest.mark.parametrize("bits", [np.random.SFC64, np.random.MT19937], ids=["SFC64", "MT19937"])
def test_lanes_replay_simulate_on_other_bit_generators(ref_params, origin, bits):
    # the lanes' streams are of the generator's own bit generator type
    times = [1.0, 10.0]
    got = simulate_states(ref_params, origin, times, 10.0, np.random.Generator(bits(31)), 7)
    assert_replays(got, scalar_lanes(ref_params, origin, times, 10.0, np.random.Generator(bits(31)), 7))


def test_lanes_advance_the_spawn_count_as_spawn_does(ref_params, origin, monkeypatch):
    # three chunks of four lanes, the last one short
    monkeypatch.setattr(quakesim.chain, "_LANES", 4)
    rng = substream(6, 2)
    simulate_states(ref_params, origin, [1.0], 1.0, rng, 10)
    assert rng.spawn(1)[0].bit_generator.seed_seq.spawn_key == (2, 10)


def test_lanes_at_the_last_spawn_count_numpy_holds(ref_params, origin):
    # children 2**32 - 3 and 2**32 - 2 bring the uint32 count to 2**32 - 1
    seed = lambda: np.random.Generator(np.random.PCG64(np.random.SeedSequence(4, n_children_spawned=2**32 - 3)))
    got = simulate_states(ref_params, origin, [2.0], 2.0, seed(), 2)
    assert_replays(got, scalar_lanes(ref_params, origin, [2.0], 2.0, seed(), 2))


class _Subclassed(np.random.SeedSequence):
    pass


@pytest.mark.parametrize(
    "seq, lanes, error, message",
    [
        (_Subclassed(5), 3, TypeError, "lane seeds hash numpy.random.SeedSequence keys only, got _Subclassed"),
        (
            np.random.SeedSequence(["0x10", 3]),
            3,
            TypeError,
            "lane seeds hash integer entropy only, got the string '0x10'",
        ),
        # the third child would take the count to 2**32, which numpy's spawn
        # cannot hold: it is refused before anything spawns
        (
            np.random.SeedSequence(5, n_children_spawned=2**32 - 3),
            3,
            ValueError,
            r"3 lanes would take the seed sequence's count of children from 4294967293 to 4294967296, past 2\*\*32 - 1",
        ),
    ],
    ids=["subclass", "string-entropy", "count-past-uint32"],
)
def test_refusals_of_seeds_the_hash_cannot_match(ref_params, origin, seq, lanes, error, message):
    count = seq.n_children_spawned
    with pytest.raises(error, match=message):
        simulate_states(ref_params, origin, [1.0], 1.0, np.random.Generator(np.random.PCG64(seq)), lanes)
    assert seq.n_children_spawned == count
