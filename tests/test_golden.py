"""Golden digests of draw contract v2.

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
        "cce8b432a22de50f5197261a9d0b1b82161917fb51b60f1628b97b404b6a3d13",
        "15a5443157b97ed147bdbf1c9d91f16bfc2e0a24f608726e55a08d0949f47ab6",
        0,
    ),
    "threshold_linear_uniform": (
        {**_REF_MODEL, "phi": {"kind": "threshold_linear", "theta": 0.5, "slope": 2.0},
         "z": {"kind": "uniform", "low": 1.0, "high": 3.0}},
        7, {"horizon": 2000.0},
        "3d58f6a8930744a2d07216fc74a5ee01e1bf06183996ff69762633205c3ba8cd",
        "f8a54bf05a342dc56cec97fd76bddf36b63ca5a9d363f0ff1ccf84c5dbb1d1fa",
        0,
    ),
    "deterministic_z": (
        {**_REF_MODEL, "z": {"kind": "deterministic", "value": 2.0}},
        3, {"horizon": 2000.0},
        "c47e492bbb32025944a365966470be9b64005e723e2dad44f463e88a17d0900e",
        "d85eea5175105fe37115684802c692e88cac972d9cf92668f01443bdda3e5759",
        0,
    ),
    # supercritical (k/alpha = 2) with a low cap: saturates after a burst
    "saturation": (
        {**_REF_MODEL, "k": 2.0, "intensity_cap": 1e4},
        11, {"horizon": 2000.0},
        "9764fca40341884faedb80178b17040ffa93d94e5688a7e981514c004d57af23",
        "9deb15d5c31de09494d6cb7a7278c49d8d57354af2c8b56f7f5fdf15f82eb7e6",
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
        "7b1d815237ae616cea93190aa6eb825e40c05ce4c4c5028000085bbee1914f7d",
    ),
    "foster": (
        "exp_exponential", {}, "foster --weights 100,10,1 --out {out}",
        "23251b4f68be763132574cea899dc72840466c185d9cd88c86b709d83db31c81",
    ),
    "drift": (
        "exp_exponential", {}, "drift --n 2000 --out {out}",
        "4e28cdf43f71ef1f7b6e0c1ccff566b304f620cae681c5c990536526a196dcb3",
    ),
    "converge_csv": (
        "exp_exponential", {}, "converge --replications 100 --t-grid 5,20 --out {out}",
        "bbb4dfcb233b57f6a21fc85cf6d0ff41eb3078d98b265c66d7faa03ee1e4cf56",
    ),
    "converge_json": (
        "exp_exponential", {}, "converge --replications 100 --t-grid 5,20 --format json --out {out}",
        "3a8128e42112f9a432374013a0a823808e0b23335e2b235762ec002c866a979a",
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
        "1954255dc0c460d93a9f633740f468209cd657a93a62ab1bab3bf0e07983f00d",
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
    ("0x1.5ba7a36411e86p+0", "0x1.5ba7a36411e86p+0", "-0x1.dd546f8cad62cp+1012",
     "0x1.83ab7d9418e5ep-1", "0x1.10d319870057dp-1", "0x1.0756fb2831cbcp-2"),
    ("0x1.3d0bafa0558aap+1", "0x1.1e6fbbdc992cep+0", "-0x1.dd546f8cad62cp+1012",
     "0x1.7ea107baa6e9cp-1", "0x1.35cd2d0019746p-3", "0x1.fa841eea9ba6ep-3"),
    ("0x1.dd546f84ab451p+1011", "0x1.dd546f84ab451p+1011", "-0x1.dd546f94af807p+1011",
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.dd546f84ab451p+1012", "0x1.dd546f84ab451p+1011", "-0x1.0043b60000000p+983",
     "0x0.0p+0", "0x0.0p+0", "0x0.0p+0"),
    ("0x1.dd546f8cad62cp+1012", "0x1.0043b60000000p+983", "-0x1.b72695b9fb118p-2",
     "0x1.0000000000000p-1", "0x1.b72695b9fb118p-2", "0x1.0000000000000p+0"),
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
