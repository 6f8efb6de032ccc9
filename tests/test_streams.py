import json

import numpy as np
import pytest

import quakesim.chain
from quakesim import ExponentialPhi, ExponentialZ, ModelParams, State, StopRule, master, simulate, substream
from quakesim.cli import run_command

_REF_MODEL = {
    "c": 1.0, "k": 0.5, "alpha": 1.0,
    "phi": {"kind": "exp", "scale": 1.0},
    "z": {"kind": "exponential", "mean": 2.0},
}


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: master(-1), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: master(2**64), f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (lambda: substream(-1, 0), "seed must be a 64-bit unsigned integer, got -1"),
        (lambda: substream(2**64, 0), f"seed must be a 64-bit unsigned integer, got {2**64}"),
        (lambda: substream(0, -1), "index must be >= 0, got -1"),
    ],
    ids=["master-negative", "master-too-large", "substream-negative", "substream-too-large", "index"],
)
def test_refusals(call, message):
    with pytest.raises(ValueError, match=message):
        call()


class _Recorded(np.random.PCG64):
    """PCG64 that records the (entropy, spawn_key) of each instance, those
    that `Generator.spawn` makes included (it builds children of its bit
    generator's own type)."""

    keys: list = []

    def __init__(self, seed=None):
        super().__init__(seed)
        _Recorded.keys.append((self.seed_seq.entropy, self.seed_seq.spawn_key))


# command lines run on the reference config, each on short runs
COMMANDS = {
    "simulate": "simulate --out {tmp}/events.csv --summary {tmp}/summary.json",
    "rate": "rate --out {tmp}/rate.json",
    "foster": "foster --weights 100,10,1 --out {tmp}/foster.json",
    "drift": "drift --n 1000 --states 20,1;-5,30 --out {tmp}/drift.csv",
    "converge": "converge --replications 20 --t-grid 5,20 --out {tmp}/ks.csv",
    "dominance": "dominance --n 500 --out {tmp}/dominance.json",
    "lemma-l2": "lemma-l2 --n 500 --out {tmp}/lemma.csv",
    "probe-supercritical": "probe-supercritical --horizon 5 --budget 2000 --out {tmp}/probe.json",
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_no_stream_key_repeats_within_a_command(tmp_path, monkeypatch, command):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps(
            {
                "model": _REF_MODEL,
                "initial": {"x": 0.0, "y": 0.0},
                "seed": 42,
                "stop": {"horizon": 50.0},
                "replications": 3,
            }
        )
    )
    monkeypatch.setattr(np.random, "PCG64", _Recorded)
    monkeypatch.setattr(_Recorded, "keys", [])
    argv = [arg.format(tmp=tmp_path) for arg in COMMANDS[command].split()] + ["--config", str(cfg)]
    assert run_command(argv) == 0
    keys = _Recorded.keys
    assert keys and len(set(keys)) == len(keys)


def test_simulate_spawns_the_roots_of_the_first_substreams(monkeypatch):
    # the caveat documented in streams.py: the draw streams of a run on
    # master(s) are the generators substream(s, 0..2)
    monkeypatch.setattr(np.random, "PCG64", _Recorded)
    monkeypatch.setattr(_Recorded, "keys", [])
    params = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
    simulate(params, State(0.0, 0.0), StopRule(max_events=5), master(7))
    for i in range(3):
        substream(7, i)
    keys = _Recorded.keys
    assert keys[:4] == [(7, ()), (7, (0,)), (7, (1,)), (7, (2,))]
    assert keys[4:] == keys[1:4]


def test_converge_reads_the_keys_of_one_trajectory_per_chain(tmp_path, monkeypatch):
    # converge runs on substream(seed, 0): the lanes of side a read its
    # children 0..R-1 and those of side b children R..2R-1, each child's
    # three streams in order, as one `simulate` per chain did; R spans more
    # than one chunk of lanes
    replications = quakesim.chain._LANES + 5
    cfg = tmp_path / "cfg.json"
    cfg.write_text(
        json.dumps({"model": _REF_MODEL, "initial": {"x": 0.0, "y": 0.0}, "seed": 42, "stop": {"horizon": 50.0}})
    )
    monkeypatch.setattr(np.random, "PCG64", _Recorded)
    monkeypatch.setattr(_Recorded, "keys", [])
    argv = ["converge", "--config", str(cfg), "--t-grid", "0.5,1", "--replications", str(replications)]
    assert run_command([*argv, "--out", str(tmp_path / "ks.csv")]) == 0
    streams = [key for key in _Recorded.keys if len(key[1]) == 3]
    assert streams == [(42, (0, i, j)) for i in range(2 * replications) for j in range(3)]
