"""Embedded Markov chains, trajectory simulation and exact time integrals.

Between events the state flows deterministically, (x, y) -> (x + c*dt,
y*exp(-alpha*dt)).  At an event after a wait of T the post-event state is

    x' = x + c*T - Z        (stress relieved by the random drop Z)
    y' = y*exp(-alpha*T) + k

The natural chain records every event; the truncated chain additionally
caps the wait at v0 whenever the stress is at or below a (very negative)
level x1, producing "phantom" transitions that advance time without an
event.  Phantoms are logged with is_event False and excluded from all
event counts and rate estimates.

One transition kernel makes every step of both chains, moving a mutable
position in place; `simulate` and `step` (one transition from a `State`)
both run it.  They read their randomness from a `Draws`, the three streams
of draw contract v2: `rng.spawn(3)` of the trajectory's generator gives
the unit exponentials E of the primary clock, the uniforms U of the
secondary clock (the clock formulas are in `model`) and the stress drops
Z, in that order.  Each transition takes the next E and the next U, and an
event also the next Z; a truncation phantom takes no Z.  Each stream is
read strictly in order, in blocks of a fixed size.  numpy's block draws
equal its scalar draws, so the columns do not depend on the block size.
A trajectory is an `EventLog` of columns, one float64 array per field
and a boolean event mask.

`simulate_states` runs many natural trajectories from one state in
lockstep, as the lanes of numpy arrays, and keeps only their states at
given times (the chains of `analysis.convergence_diagnostic`).  Lane i
reads the three streams of the i-th child of its generator, in blocks of
its own, so it is the trajectory `simulate` makes on that child.  The
seeds of a chunk's streams are hashed in one numpy pass, with the keys
and bits of numpy's `spawn`.  The lanes' clocks use numpy's exp and log,
which may differ from `math`'s in the last bit, so a lane and `simulate`
agree to rounding, not bit for bit.

Time integrals of the intensity components over a trajectory are exact:
each inter-event segment contributes a closed-form piece, including the
tail segment between the last event and the horizon.
"""

from __future__ import annotations

import itertools
import math
import numbers
from array import array
from dataclasses import dataclass
from functools import cache, cached_property, partial
from typing import Callable, Iterator, Optional, Sequence

import numpy as np

from .model import (
    FosterConfig,
    ModelParams,
    State,
    ZSpec,
    cumulative_hazard_primary,
    intensity_saturated,
    phi_eval,
    primary_times_from_exponentials,
    secondary_time_from_uniform,
    secondary_times_from_uniforms,
)

__all__ = [
    "EARLY_STOPS",
    "Draws",
    "EventLog",
    "StopRule",
    "sample_interevent",
    "step",
    "simulate",
    "simulate_states",
    "flow",
    "state_at",
    "window_integrals",
]

# terminated_reason of a run that stopped before its StopRule, and the cause
EARLY_STOPS = {"saturation": "intensity saturation", "time_resolution": "float time resolution"}

# the float64 columns of an EventLog, in order; `is_event` follows them
FLOAT_COLUMNS = ("t", "dt", "x", "y", "z", "lambda_pre")

# values per block of a `Draws` stream.  A converge trajectory (about 100
# events) reads one block per stream; on replicas' runs of about 1e4
# events, larger blocks measured within about 1%.
_BLOCK = 256

# lanes stepped together by `simulate_states`, and values per block of each
# lane's draw buffers.  A chunk steps until its longest lane ends, so wider
# chunks take fewer steps; a chunk's streams (about 2.3 KB a lane) and draw
# buffer (24*_LANE_BLOCK bytes a lane) are released before the next chunk is
# spawned.  On converge's benchmark (2x500 lanes of about 105 transitions,
# 2 vCPUs): time per operation against chunks of 125 in blocks of 64 (paired
# median of 21 in-process rounds), and the benchmark's peak RSS:
#
#   lanes x block   time    peak RSS
#   125 x 64        1.00    37.96 MB
#   250 x 16        0.98    38.00 MB   the per-lane refills dominate
#   250 x 32        0.87    38.12 MB   the buffer bytes of 125 x 64
#   250 x 64        0.82    38.28 MB
#   500 x 16        0.89    38.79 MB
#   500 x 32        0.77    38.94 MB
#
# 250 x 32 halves the steps and adds only the streams of 125 more lanes;
# the faster settings also add buffer bytes or the streams of more lanes.
_LANES = 250
_LANE_BLOCK = 32


@dataclass(frozen=True)
class StopRule:
    """Stop after max_events real events, at the time horizon, or whichever
    of the two comes first when both are set."""

    max_events: Optional[int] = None
    horizon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.max_events is None and self.horizon is None:
            raise ValueError("set max_events, horizon, or both")
        m = self.max_events
        if m is not None and (isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 0):
            raise ValueError(f"max_events must be an integer >= 0, got {m!r}")
        if self.horizon is not None and not 0 < self.horizon < math.inf:
            raise ValueError(f"horizon must be finite and > 0, got {self.horizon}")


@dataclass(eq=False)
class EventLog:
    """Simulation trace: parameters, initial state, the total simulated time,
    why the run stopped, and the transitions as columns, one row per
    transition (phantoms included) in time order:

    t          absolute transition time (float64)
    dt         wait since the previous transition, > 0 (float64)
    x, y       state just after the transition (float64)
    z          stress relieved, 0 for phantoms (float64)
    lambda_pre intensity immediately before the transition (float64)
    is_event   True for an event, False for a truncation phantom (bool)

    `terminated_reason` is one of:

    "horizon_reached"  the next transition would pass stop.horizon
    "event_budget"     stop.max_events real events were made
    "saturation"       the intensity reached params.intensity_cap
    "time_resolution"  the next wait was too short to advance the float
                       clock (t + dt == t)
    """

    params: ModelParams
    initial: State
    horizon: float
    terminated_reason: str
    t: np.ndarray
    dt: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray
    lambda_pre: np.ndarray
    is_event: np.ndarray

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, EventLog):
            return NotImplemented
        scalars = ("params", "initial", "horizon", "terminated_reason")
        return all(getattr(self, f) == getattr(other, f) for f in scalars) and all(
            np.array_equal(getattr(self, c), getattr(other, c)) for c in (*FLOAT_COLUMNS, "is_event")
        )

    @property
    def event_count(self) -> int:
        return int(np.count_nonzero(self.is_event))

    @cached_property
    def _segments(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-segment arrays (t_start, x_start, y_start, t_end), one row per
        inter-transition segment including the tail up to the horizon."""
        t0 = np.concatenate(([0.0], self.t))
        x0 = np.concatenate(([self.initial.x], self.x))
        y0 = np.concatenate(([self.initial.y], self.y))
        t1 = np.append(self.t, max(self.horizon, self.t[-1] if self.t.size else 0.0))
        return t0, x0, y0, t1

    @cached_property
    def event_times(self) -> np.ndarray:
        return self.t[self.is_event]


def flow(params: ModelParams, state: State, dt: float) -> State:
    """Deterministic inter-event flow over a lapse dt >= 0."""
    if dt < 0:
        raise ValueError("dt must be >= 0")
    return State(state.x + params.c * dt, state.y * math.exp(-params.alpha * dt))


def state_at(log: EventLog, t: float) -> State:
    """State (x, y) at absolute time t, reconstructed from the log."""
    if t < 0 or t > log.horizon:
        raise ValueError(f"t={t} outside [0, {log.horizon}]")
    i = int(np.searchsorted(log.t, t, side="right"))
    if i == 0:
        base_t, base = 0.0, log.initial
    else:
        base_t, base = float(log.t[i - 1]), State(float(log.x[i - 1]), float(log.y[i - 1]))
    return flow(log.params, base, t - base_t)


def sample_interevent(params: ModelParams, state: State, e: float, u: float) -> float:
    """Waiting time from `state`: the minimum of the two independent clocks,
    the primary clock inverted at the unit exponential `e` and the
    secondary clock at the uniform `u`.

    The primary clock is finite with probability one, so the result is
    always finite.
    """
    t1 = params.phi.invert(state.x, params.c, e)
    t2 = secondary_time_from_uniform(state.y, params.alpha, u)
    return t1 if t1 <= t2 else t2


def _blocks(block: Callable[[int], np.ndarray]) -> Iterator[list[float]]:
    """The values of `block(_BLOCK)` calls, as one list per call.  Overflow
    to inf is left to the kernel's range check, which refuses it without a
    numpy warning."""
    while True:
        with np.errstate(over="ignore"):
            values = block(_BLOCK)
        yield values.tolist()


def _stream(block: Callable[[int], np.ndarray]) -> Callable[[], float]:
    """The next value of the stream of `block` calls.  Chaining the lists
    steps through them in C; a block's list is dropped before the next
    block is drawn."""
    return itertools.chain.from_iterable(_blocks(block)).__next__


class Draws:
    """The draw streams of one trajectory under draw contract v2.

    `rng.spawn(3)` gives the streams of the primary exponentials, the
    secondary uniforms and the drops of law `z` (kept as `law`), in that
    order; `e()`, `u()` and `z()` return each stream's next value.  Each
    spawn gives new children, so two `Draws` of one generator read
    different streams.
    """

    __slots__ = ("law", "e", "u", "z")

    def __init__(self, rng: np.random.Generator, z: ZSpec) -> None:
        e_rng, u_rng, z_rng = rng.spawn(3)
        self.law = z
        self.e = _stream(e_rng.standard_exponential)
        self.u = _stream(u_rng.random)
        self.z = _stream(lambda n: z.draws(z_rng, n))


class _Position:
    """The chain's current state, moved in place by each step.

    It has the two fields of `State`, which is all that `sample_interevent`
    and `intensity_saturated` read, without a validated frozen `State` built
    per transition.
    """

    __slots__ = ("x", "y")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y


def _kernel(
    params: ModelParams, truncated: Optional[FosterConfig], draws: Draws
) -> Callable[[_Position], tuple[float, float, float, bool]]:
    """The transition function of the natural chain (`truncated` None) or the
    truncated embedding, reading `draws`.

    `transition(pos)` moves `pos` to the post-transition state and returns
    (dt, z, lambda_pre, is_event).  The wait comes from `sample_interevent`.
    In the truncated chain, a wait longer than v0 from a stress at or below
    x1 is capped at v0 and is a phantom: pure flow, z = 0.  `FosterConfig`
    guarantees v0 > 0 and x1 < 0, both finite.  A stress drop is drawn only
    for an event.
    """
    phi, c, k, alpha = params.phi, params.c, params.k, params.alpha
    next_e, next_u, next_z = draws.e, draws.u, draws.z
    exp, inf = math.exp, math.inf

    def transition(pos: _Position) -> tuple[float, float, float, bool]:
        dt = sample_interevent(params, pos, next_e(), next_u())
        event = truncated is None or pos.x > truncated.x1 or dt <= truncated.v0
        if not event:
            dt = truncated.v0
        decay = exp(-alpha * dt)
        x = pos.x + c * dt
        y = pos.y * decay
        lam = phi_eval(phi, x) + y
        if event:
            z = next_z()
            x, y = x - z, y + k
        else:
            z = 0.0
        if not (-inf < x < inf and 0.0 <= y < inf):
            State(x, y)  # raises: a drop or a flow left the float range
        pos.x, pos.y = x, y
        return dt, z, lam, event

    return transition


def step(
    params: ModelParams, state: State, draws: Draws, truncated: Optional[FosterConfig] = None
) -> tuple[State, float, float, float, bool]:
    """One transition from `state`, of the natural chain or, with
    `truncated` set, of the truncated embedding (as in `simulate`).

    Returns (post-transition state, dt, z, lambda_pre, is_event), reading
    `draws` exactly as the matching step of `simulate` does: steps from
    `Draws(rng, params.z)` replay `simulate(..., rng)`.  `draws` must be of
    params.z's drop law.
    """
    if draws.law != params.z:
        raise ValueError(f"draws are of drop law {draws.law}, params of {params.z}")
    pos = _Position(state.x, state.y)
    dt, z, lam, event = _kernel(params, truncated, draws)(pos)
    return State(pos.x, pos.y), dt, z, lam, event


def simulate(
    params: ModelParams,
    initial: State,
    stop: StopRule,
    rng: np.random.Generator,
    truncated: Optional[FosterConfig] = None,
) -> EventLog:
    """Simulate one trajectory of the embedded chain, reading `Draws(rng,
    params.z)`.

    With `truncated` set, transitions follow the truncated embedding and
    phantom rows may appear.

    Two conditions stop the run early: a saturated intensity (at
    params.intensity_cap) gives terminated_reason="saturation", and a wait
    below the float resolution of the clock gives "time_resolution".  See
    `EventLog` for all four reasons.
    """
    transition = _kernel(params, truncated, Draws(rng, params.z))
    pos = _Position(initial.x, initial.y)
    max_events = math.inf if stop.max_events is None else stop.max_events
    horizon = math.inf if stop.horizon is None else stop.horizon
    floats = [array("d") for _ in FLOAT_COLUMNS]
    mask = bytearray()
    put_t, put_dt, put_x, put_y, put_z, put_lam = (col.append for col in floats)
    put_event = mask.append
    t = 0.0
    events = 0
    while True:
        if events >= max_events:
            reason = "event_budget"
            break
        if intensity_saturated(params, pos):
            reason = "saturation"
            break
        dt, z, lam, event = transition(pos)
        if t + dt > horizon:
            reason = "horizon_reached"
            break
        if t + dt == t:
            # wait below float resolution at this time scale: time can no
            # longer advance, whatever the intensity
            reason = "time_resolution"
            break
        t += dt
        put_t(t)
        put_dt(dt)
        put_x(pos.x)
        put_y(pos.y)
        put_z(z)
        put_lam(lam)
        put_event(event)
        events += event

    end = stop.horizon if reason == "horizon_reached" else t
    # the log's columns share the grown buffers, they are not copied
    columns = [np.frombuffer(col, dtype=np.float64) for col in floats]
    return EventLog(params, initial, end, reason, *columns, np.frombuffer(mask, dtype=np.bool_))


def simulate_states(
    params: ModelParams,
    initial: State,
    times: Sequence[float],
    horizon: float,
    rng: np.random.Generator,
    lanes: int,
) -> tuple[np.ndarray, np.ndarray, list[tuple[float, str]]]:
    """The states at `times` of `lanes` natural trajectories from `initial`
    to `horizon`, stepped together as numpy arrays.

    Lane i is the trajectory `simulate(params, initial,
    StopRule(horizon=horizon), children[i])` for `children =
    rng.spawn(lanes)`: it reads the streams of `children[i].spawn(3)`, each
    in order, so its values do not depend on `lanes`, on the chunks of
    _LANES lanes (spawned chunk by chunk, which gives the same keys in the
    same order) or on which lanes are still running.  The streams' seeds
    are hashed in one pass per chunk, bit-equal to numpy's (see
    `_lane_seeds`), so `rng` must be seeded by a numpy SeedSequence and
    its count of spawned children must stay below 2**32.  The waits come from
    the array inversions of `model`, whose numpy exp and log may differ
    from `math`'s in the last bit, so a lane agrees with `simulate` and
    `state_at` to rounding, not bit for bit.

    Returns (x, y, stops).  x[i, j], y[i, j] is lane i's state at times[j],
    as `state_at` reconstructs it: the last transition at or before that
    time, flowed to it.  `stops` holds the (stop time, reason) of each lane
    that stopped early, in lane order, with a reason of EARLY_STOPS; the
    rows of those lanes are NaN.  A state that leaves the float range
    raises the ValueError of `State`, for the first such lane.  `times`
    must be sorted and within [0, horizon].
    """
    StopRule(horizon=horizon)  # validates the horizon
    grid = np.array(times, dtype=float)
    if grid.ndim != 1 or not (np.all(grid[1:] >= grid[:-1]) and np.all((0.0 <= grid) & (grid <= horizon))):
        raise ValueError(f"times must be sorted and within [0, {horizon}]")
    # allocate first: numpy refuses a sample too large for memory before
    # any lane runs
    xs = np.empty((lanes, grid.size))
    ys = np.empty((lanes, grid.size))
    stops: list[tuple[float, str]] = []
    for start in range(0, lanes, _LANES):
        chunk = slice(start, min(start + _LANES, lanes))
        stops += _step_lanes(params, initial, grid, horizon, rng, xs[chunk], ys[chunk])
    return xs, ys, stops


def _step_lanes(
    params: ModelParams,
    initial: State,
    grid: np.ndarray,
    horizon: float,
    rng: np.random.Generator,
    xs: np.ndarray,
    ys: np.ndarray,
) -> list[tuple[float, str]]:
    """Run one chunk of `simulate_states`, one lane per row of xs and ys:
    lane r reads the (E, U, Z) streams of the r-th child of `rng` spawned
    here, seeded from one hashing pass, and fills xs[r], ys[r].  Each step
    makes, for every live lane, the checks of `simulate`'s loop in its
    order: saturation, the transition (with the kernel's float-range
    check), the horizon, the float resolution of the clock.  The streams
    and buffers are released on return."""
    phi, c, k, alpha, cap, law = params.phi, params.c, params.k, params.alpha, params.intensity_cap, params.z
    n = len(xs)
    # the streams of `child.spawn(3)` for each child of `rng.spawn(n)`, built
    # as `Generator.spawn` builds them but from seeds hashed in one pass;
    # nothing draws from the children themselves, so their generators are
    # not built
    make_bits, make_rng = type(rng.bit_generator), type(rng)
    streams = [[make_rng(make_bits(seed)) for seed in lane] for lane in _lane_seeds(rng.bit_generator.seed_seq, n)]
    # draws[j, :, r] is the E, U and Z of lane r's step j of the block of
    # _LANE_BLOCK steps; a step reads one contiguous row per variate
    draws = np.empty((_LANE_BLOCK, 3, n))
    ends = np.append(grid, math.inf)  # a sentinel past every time
    row = np.arange(n)  # the chunk row of each live lane
    t = np.zeros(n)
    x = np.full(n, initial.x)
    y = np.full(n, initial.y)
    nxt = np.zeros(n, dtype=np.intp)  # index of each live lane's first time not yet recorded
    due = np.full(n, ends[0])  # and that time
    stopped: dict[int, tuple[float, str]] = {}
    refused: dict[int, tuple[float, float]] = {}  # rows whose state left the float range
    steps = 0
    # float overflow and inf - inf are left to the range check, as Python
    # floats leave them to it in the scalar kernel
    with np.errstate(over="ignore", invalid="ignore"):
        while row.size:
            saturated = phi.at(x) + y >= cap
            if saturated.any():
                stopped.update(zip(row[saturated].tolist(), ((when, "saturation") for when in t[saturated].tolist())))
                live = ~saturated
                row, t, x, y, nxt, due = row[live], t[live], x[live], y[live], nxt[live], due[live]
                if not row.size:
                    break
            j = steps % _LANE_BLOCK
            if j == 0:
                for r in row.tolist():
                    e_rng, u_rng, z_rng = streams[r]
                    draws[:, 0, r] = e_rng.standard_exponential(_LANE_BLOCK)
                    draws[:, 1, r] = u_rng.random(_LANE_BLOCK)
                    draws[:, 2, r] = law.draws(z_rng, _LANE_BLOCK)
            steps += 1
            # rows only leave, so while all n run they are the chunk's rows
            # in order and the step reads its draws as a view
            e, u, z = draws[j] if row.size == n else draws[j][:, row]
            t1 = primary_times_from_exponentials(phi, x, c, e)
            t2 = secondary_times_from_uniforms(y, alpha, u)
            dt = np.where(t1 <= t2, t1, t2)
            x_new = x + c * dt - z
            y_new = y * np.exp(-alpha * dt) + k
            t_new = t + dt
            # record each time before this transition from the state before
            # it; a lane past the horizon records all of its remaining times
            i = (due < t_new).nonzero()[0]
            while i.size:
                d = due[i] - t[i]
                xs[row[i], nxt[i]] = x[i] + c * d
                ys[row[i], nxt[i]] = y[i] * np.exp(-alpha * d)
                nxt[i] += 1
                due[i] = ends[nxt[i]]
                i = i[due[i] < t_new[i]]
            # y, the decay and k are >= 0, so y_new is >= 0 unless NaN, and
            # the kernel's range check comes to both being finite
            fine = np.isfinite(x_new) & np.isfinite(y_new)
            stay = fine & (t < t_new) & (t_new <= horizon)
            if stay.all():
                t, x, y = t_new, x_new, y_new
                continue
            wild = ~fine
            refused.update(zip(row[wild].tolist(), zip(x_new[wild].tolist(), y_new[wild].tolist())))
            flat = fine & (t_new == t)
            stopped.update(zip(row[flat].tolist(), ((when, "time_resolution") for when in t[flat].tolist())))
            row, t, x, y, nxt, due = row[stay], t_new[stay], x_new[stay], y_new[stay], nxt[stay], due[stay]
    # a recorded state needs no range check of its own: its stress x + c*d
    # (d < dt) is at most the stress x + c*dt before the next drop, and a
    # step whose stress overflowed there was refused
    if refused:
        State(*refused[min(refused)])  # raises, as the kernel does
    rows = sorted(stopped)
    xs[rows] = math.nan
    ys[rows] = math.nan
    return [stopped[r] for r in rows]


# numpy's SeedSequence hash (NEP 19, after O'Neill 2015, "Developing a
# seed_seq alternative"), with the constants of numpy/random/bit_generator.pyx.
# A sequence mixes the words of its entropy and spawn key into a pool of
# pool_size uint32 words; `generate_state` hashes the pool into a bit
# generator's seed.  All arithmetic is on uint32 arrays, which wrap.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF
_SHIFT = np.uint32(16)


def _words(value: object) -> list[int]:
    """The uint32 words a SeedSequence reads from its entropy or spawn key:
    an integer (>= 0, as SeedSequence checks) in little-endian 32-bit words,
    0 as one word, and a sequence word by word."""
    if isinstance(value, str):
        raise TypeError(f"lane seeds hash integer entropy only, got the string {value!r}")
    if isinstance(value, (int, np.integer)):
        n = int(value)
        words = [n & _MASK32]
        while n > _MASK32:
            n >>= 32
            words.append(n & _MASK32)
        return words
    return [w for v in value for w in _words(v)]


def _hashmix(value: np.ndarray, call: int) -> np.ndarray:
    """The call-th hashmix of a pool's mixing, whose hash constant is then
    _INIT_A * _MULT_A**call."""
    const = _INIT_A * pow(_MULT_A, call, 1 << 32) & _MASK32
    value = (value ^ np.uint32(const)) * np.uint32(const * _MULT_A & _MASK32)
    return value ^ value >> _SHIFT


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = _MIX_MULT_L * x - _MIX_MULT_R * y
    return r ^ r >> _SHIFT


def _pools(words: list[np.ndarray], size: int) -> np.ndarray:
    """The pools of `size` words that SeedSequence's `mix_entropy` makes of
    `words`, at least `size` of them, one uint32 array per word; the arrays
    broadcast to one row per sequence, and a word shared by all rows is
    mixed once."""
    pool = [_hashmix(word, call) for call, word in enumerate(words[:size])]
    call = size
    for src in range(size):
        for dst in range(size):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hashmix(pool[src], call))
                call += 1
    for word in words[size:]:
        for dst in range(size):
            pool[dst] = _mix(pool[dst], _hashmix(word, call))
            call += 1
    return np.stack(pool, axis=1)


def _generate_state(pools: np.ndarray, n_words: int, dtype: object) -> np.ndarray:
    """SeedSequence.generate_state(n_words, dtype) of each row of `pools`."""
    dtype = np.dtype(dtype)
    if dtype not in (np.uint32, np.uint64):
        raise ValueError("only support uint32 or uint64")
    n32 = n_words * (dtype.itemsize // 4)
    consts = [_INIT_B]
    for _ in range(n32):
        consts.append(consts[-1] * _MULT_B & _MASK32)
    hash_const = np.array(consts, dtype=np.uint32)
    # row r's words cycle through pool r; a row of the result is contiguous
    state = (np.ascontiguousarray(pools[:, np.arange(n32) % pools.shape[1]]) ^ hash_const[:-1]) * hash_const[1:]
    state ^= state >> _SHIFT
    # uint64 words are the little-endian pairs of uint32 words
    return state.astype("<u4").view("<u8").astype(dtype) if dtype == np.uint64 else state


class _LaneSeed:
    """The seed of one lane stream: it stands for SeedSequence(entropy,
    spawn_key=spawn_key) of its parent's pool size, and `generate_state`
    returns the stream's row of its chunk's hashed states.  `_lane_seeds`
    registers it as a numpy ISeedSequence, which bit generators take as
    their seed."""

    __slots__ = ("entropy", "spawn_key", "_states", "_row")

    def __init__(self, entropy: object, spawn_key: tuple, states: Callable[[int, object], np.ndarray], row: int):
        self.entropy = entropy
        self.spawn_key = spawn_key
        self._states = states
        self._row = row

    def generate_state(self, n_words: int, dtype: object = np.uint32) -> np.ndarray:
        return self._states(n_words, dtype)[self._row]


def _lane_seeds(seq: np.random.SeedSequence, n: int) -> list[tuple[_LaneSeed, _LaneSeed, _LaneSeed]]:
    """Spawn n children of `seq`, as `Generator.spawn(n)` does, and return
    the seeds of each child's `spawn(3)`, one triple per child, without
    building those 3n sequences: their spawn keys, seq.spawn_key + (i, j),
    share all words but the last two, and the pools and states of all 3n
    are hashed in one pass, bit-equal to numpy's.  The states are made for
    the (n_words, dtype) that the bit generators ask for, at their first
    request.

    Refuses, before spawning, a `seq` that is not exactly a numpy
    SeedSequence or has a string in its entropy (TypeError), and children
    up to index 2**32 - 1 or past
    (ValueError): numpy keeps the count of children in a uint32, and spawns
    without end to reach 2**32.  Each child index is therefore one key
    word."""
    if type(seq) is not np.random.SeedSequence:
        raise TypeError(f"lane seeds hash numpy.random.SeedSequence keys only, got {type(seq).__name__}")
    first = seq.n_children_spawned
    if first + n > _MASK32:
        raise ValueError(
            f"{n} lanes would take the seed sequence's count of children from {first} to {first + n}, past 2**32 - 1"
        )
    size = seq.pool_size
    run = _words(seq.entropy)
    # a sequence with a spawn key pads its entropy with zeros to the pool
    shared = run + [0] * (size - len(run)) + _words(seq.spawn_key)
    seq.spawn(n)
    # registered here, not at import: importing numpy.random before the
    # rest of the program's objects raised converge's peak RSS by 0.5 MB
    np.random.bit_generator.ISeedSequence.register(_LaneSeed)
    words = [np.array([w], dtype=np.uint32) for w in shared]
    words += [np.arange(first, first + n, dtype=np.uint32).repeat(3), np.tile(np.arange(3, dtype=np.uint32), n)]
    states = cache(partial(_generate_state, _pools(words, size)))
    return [
        tuple(_LaneSeed(seq.entropy, (*seq.spawn_key, first + i, j), states, 3 * i + j) for j in range(3))
        for i in range(n)
    ]


def window_integrals(log: EventLog, a: float, b: float) -> tuple[int, float, float]:
    """Event count and exact component integrals restricted to (a, b].

    Returns (number of events with a < t <= b, integral of Y over [a, b],
    integral of phi(X) over [a, b]).  Used by batch-means estimators.
    """
    if not 0.0 <= a <= b <= log.horizon + 1e-9:
        raise ValueError(f"window [{a}, {b}] outside [0, {log.horizon}]")
    p = log.params
    t0, x0, y0, t1 = log._segments
    # both edges are sorted, so the segments that end after a and start
    # before b are one slice; the others clip to an empty piece
    cut = slice(np.searchsorted(t1, a, side="right"), np.searchsorted(t0, b, side="left"))
    t0, x0, y0, t1 = t0[cut], x0[cut], y0[cut], t1[cut]
    lo = np.clip(t0, a, b)
    hi = np.clip(t1, a, b)
    live = hi > lo
    lo, hi = lo[live], hi[live]
    s_t0, s_x0, s_y0 = t0[live], x0[live], y0[live]
    e_lo = np.exp(-p.alpha * (lo - s_t0))
    e_hi = np.exp(-p.alpha * (hi - s_t0))
    int_y = float(np.sum(s_y0 * (e_lo - e_hi)) / p.alpha)
    int_phi = float(
        np.sum(
            cumulative_hazard_primary(p.phi, s_x0, p.c, hi - s_t0)
            - cumulative_hazard_primary(p.phi, s_x0, p.c, lo - s_t0)
        )
    )
    times = log.event_times
    n = int(np.searchsorted(times, b, side="right") - np.searchsorted(times, a, side="right"))
    return n, int_y, int_phi
