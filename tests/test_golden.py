"""Golden digests of draw contract v1.

The event CSV and rate JSON of a fixed seed are pinned by sha256, so any
change to the draw order or the float arithmetic of the event loop shows
up here and has to be made on purpose (with a new draw-contract version,
see README "Seeding contract").  The documents of the other commands are
pinned the same way, so a change to how a result is written shows up too.
The truncated run pins the columns of a library-level trajectory with
phantoms, bit for bit.
"""

import hashlib
import json

import pytest

import numpy as np

from quakesim import ExponentialPhi, ExponentialZ, ModelParams, State, StopRule, foster_params, master, simulate, substream
from quakesim.cli import run_command

_REF_MODEL = {
    "c": 1.0, "k": 0.5, "alpha": 1.0,
    "phi": {"kind": "exp", "scale": 1.0},
    "z": {"kind": "exponential", "mean": 2.0},
}

# name -> (model, seed, stop, events sha256, rate sha256, exit code)
GOLDEN = {
    "exp_exponential": (
        _REF_MODEL, 42, {"horizon": 2000.0},
        "9e43acb792b93261eed3fd2c498805d5ea81447b93db441fc76619baa979f1e6",
        "65327dc929a393b0724f39bec86112d5e9c167dd66f37c73206e451093538743",
        0,
    ),
    "threshold_linear_uniform": (
        {**_REF_MODEL, "phi": {"kind": "threshold_linear", "theta": 0.5, "slope": 2.0},
         "z": {"kind": "uniform", "low": 1.0, "high": 3.0}},
        7, {"horizon": 2000.0},
        "232f5883bf171d4a54f1d0294021e7f845c731546eca390de346e7dea655372f",
        "f70cd10e176d5a18ed9f09ccac2760ae519f88a6040a16d2c5c9479a99a05649",
        0,
    ),
    "deterministic_z": (
        {**_REF_MODEL, "z": {"kind": "deterministic", "value": 2.0}},
        3, {"horizon": 2000.0},
        "95bb233cba0d53ccc9ce68b33f740dd2c7e61b20bf4b896c23be56da20617d45",
        "d24af9b472384a3321aed2a6cac2a3f02ac2de312e17b5709073b6598bf8607b",
        0,
    ),
    # supercritical (k/alpha = 2) with a low cap: saturates after a burst
    "saturation": (
        {**_REF_MODEL, "k": 2.0, "intensity_cap": 1e4},
        11, {"horizon": 2000.0},
        "9b87ff62686a0cef60e7fafece12c2e024fbb6d9b853df7e3791ab718f9eafb8",
        "2b45f6072c5ffffea8afb6bff2a6bf2c4de47a2f8dd20bd32784cf075595bacd",
        2,
    ),
}


def _digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _outputs(tmp_path, model, seed, stop):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "initial": {"x": 0.0, "y": 0.0}, "seed": seed, "stop": stop}))
    events, rate = tmp_path / "events.csv", tmp_path / "rate.json"
    codes = (
        run_command(["simulate", "--config", str(cfg), "--out", str(events)]),
        run_command(["rate", "--config", str(cfg), "--out", str(rate)]),
    )
    return codes, _digest(events), _digest(rate)


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_golden_digests(tmp_path, capsys, name):
    model, seed, stop, events_sha, rate_sha, code = GOLDEN[name]
    assert _outputs(tmp_path, model, seed, stop) == ((code, code), events_sha, rate_sha)
    # simulate and rate each name the cause
    warning = "warning: run terminated by intensity saturation\n" * 2 if code else ""
    assert capsys.readouterr() == ("", warning)


# name -> (GOLDEN config, extra config keys, command line, output sha256);
# {out} is the pinned document, {tmp} the test's directory
DOCUMENTS = {
    "simulate_summary": (
        "exp_exponential", {"replications": 3}, "simulate --out {tmp}/events.csv --summary {out}",
        "7d291f96ca88c8447cfb967f7b25f5ad00720873754d2e3ea4c454779d2f10ee",
    ),
    "foster": (
        "exp_exponential", {}, "foster --weights 100,10,1 --out {out}",
        "a879e5ef964a8a4c199c33b12eeb980fd2200cef387131fd6264b33fa5e6e3e7",
    ),
    "drift": (
        "exp_exponential", {}, "drift --n 2000 --out {out}",
        "f64ff929c11555e1d3174aec8810e205ec0b2e87853f8509c075ba8528b42e93",
    ),
    "converge_csv": (
        "exp_exponential", {}, "converge --replications 100 --t-grid 5,20 --out {out}",
        "39d8def317c5e1dca6a1f831311641cff8994994108e63827b06a770edd35611",
    ),
    "converge_json": (
        "exp_exponential", {}, "converge --replications 100 --t-grid 5,20 --format json --out {out}",
        "db0170f7ccf504e091fcd48f1574dfce251e3c304eaaa651e0768f2d24334720",
    ),
    "dominance": (
        "exp_exponential", {}, "dominance --n 2000 --out {out}",
        "2b96400471ef8e3e019e04c0b180a780dd3dc4c1b5fbcdc3f6d6eb6ec839e15b",
    ),
    "lemma_l2_csv": (
        "exp_exponential", {}, "lemma-l2 --n 2000 --out {out}",
        "ab15074a24d838bbe8b1c6ed8af2362e998f0872a9bf45fbc1b11549789d2e43",
    ),
    "lemma_l2_json": (
        "exp_exponential", {}, "lemma-l2 --n 2000 --format json --out {out}",
        "991220488abf09d8e9b93eebbdc0b41cbce8e270d50bfbad896fc523b9187d08",
    ),
    "regime": (
        "exp_exponential", {}, "regime --out {out}",
        "adf421d4067a23e3945c70850875107e493b16288f6aee7d3b27a148fd9db250",
    ),
    "probe_supercritical": (
        "saturation", {}, "probe-supercritical --horizon 20 --budget 20000 --out {out}",
        "449952d18462bea6ce8139a4a3ecc524ba87760cb956ea52d353d72f419f2cdf",
    ),
}


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_golden_documents(tmp_path, capsys, name):
    config, extra, command, sha = DOCUMENTS[name]
    model, seed, stop = GOLDEN[config][:3]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"model": model, "initial": {"x": 0.0, "y": 0.0}, "seed": seed, "stop": stop, **extra}))
    out = tmp_path / "out"
    argv = [arg.format(tmp=tmp_path, out=out) for arg in command.split()] + ["--config", str(cfg)]
    assert run_command(argv) == 0
    assert _digest(out) == sha
    assert capsys.readouterr() == ("", "")

# columns (t, dt, x, y, z, lambda_pre) of the truncated run below, as float.hex
TRUNCATED_COLUMNS = [
    ("0x1.ab24568f714e5p-5", "0x1.ab24568f714e5p-5", "-0x1.dd546f8cad62cp+1012",
     "0x1.72fe6c4e2d398p+0", "0x1.2cada8da3ca9bp-3", "0x1.e5fcd89c5a731p-1"),
    ("0x1.aea98e478ed6fp+0", "0x1.a1506b93134c8p+0", "-0x1.dd546f8cad62cp+1012",
     "0x1.915ba22ada8b4p-1", "0x1.d885dd929e159p-3", "0x1.22b74455b5169p-2"),
    ("0x1.dd546f84ab451p+1011", "0x1.dd546f84ab451p+1011", "-0x1.dd546f94af807p+1011",
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.dd546f84ab451p+1012", "0x1.dd546f84ab451p+1011", "-0x1.0043b60000000p+983",
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.dd546f8cad62cp+1012", "0x1.0043b60000000p+983", "-0x1.d845db59e6419p-2",
     "0x1.0000000000000p-1", "0x1.d845db59e6419p-2", "0x1.0000000000000p+0"),
]


def test_golden_truncated_columns():
    # two phantoms of length v0 carry the clock to ~8e304, where the next
    # wait no longer advances it
    params = ModelParams(1.0, 0.5, 1.0, ExponentialPhi(1.0), ExponentialZ(2.0))
    cfg = foster_params(params, 100.0, 10.0, 1.0, rng=substream(42, 0))
    log = simulate(params, State(2.0 * cfg.x1, 1.0), StopRule(max_events=10), master(1), truncated=cfg)
    assert log.terminated_reason == "time_resolution"
    assert log.horizon.hex() == "0x1.dd546f8cad62cp+1012"
    expect = np.array([[float.fromhex(v) for v in row] for row in TRUNCATED_COLUMNS])
    got = np.column_stack([log.t, log.dt, log.x, log.y, log.z, log.lambda_pre])
    assert got.tobytes() == expect.tobytes()
    assert log.is_event.tolist() == [True, True, False, False, True]
