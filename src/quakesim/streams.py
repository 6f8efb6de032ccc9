"""Reproducible random number streams for replicated runs.

The seeding contract, part of the tool's external interface so that other
implementations can reproduce results exactly: replica i of a run with
master seed s draws from

    numpy.random.Generator(numpy.random.PCG64(
        numpy.random.SeedSequence(entropy=s, spawn_key=(i,))))

Replica streams are independent of each other and of how many replicas run
or in what order.

Within a trajectory, draw contract v2 (written in `quakesim.chain`) spawns
three child streams of the trajectory's generator with `Generator.spawn`:
spawn keys (..., 0), (..., 1) and (..., 2) carry the primary-clock
exponentials, the secondary-clock uniforms and the stress drops.  Under
`substream(s, i)` they are (i, 0), (i, 1) and (i, 2).  One caveat for
library callers: `master(s)` has the empty spawn key, so a trajectory
simulated on it reads the keys (0,), (1,) and (2,), which are the roots of
`substream(s, 0)`, `substream(s, 1)` and `substream(s, 2)`: a run on
`master(s)` is not independent of runs on those substreams.
"""

from __future__ import annotations

import numpy as np

__all__ = ["substream", "master"]

_SEED_MAX = 2**64


def master(seed: int) -> np.random.Generator:
    """Generator for single-trajectory runs with the given 64-bit seed."""
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def substream(seed: int, index: int) -> np.random.Generator:
    """Independent generator for replica `index` of master seed `seed`."""
    if not 0 <= seed < _SEED_MAX:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    if index < 0:
        raise ValueError(f"index must be >= 0, got {index}")
    ss = np.random.SeedSequence(entropy=seed, spawn_key=(index,))
    return np.random.Generator(np.random.PCG64(ss))
