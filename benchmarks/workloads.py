"""The four benchmark workloads: generated inputs and one operation each.

Each workload is a closed loop of one operation at a time.  An operation is
one or more ``quakesim`` command lines, run in-process through
``quakesim.cli.run_command``.  The program receives only the config files
written here; the workload seed reaches it through those files alone.

This module imports nothing from quakesim and nothing outside the standard
library, so the worker can start its set-up clock before either is loaded.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

DEFAULT_SEED = 42

# The README reference model: exp phi, exponential Z with mean 2.
# Subcritical (k/alpha = 1/2) with stationary rate c/E[Z] = 0.5.
MODEL = {
    "c": 1.0,
    "k": 0.5,
    "alpha": 1.0,
    "phi": {"kind": "exp", "scale": 1.0},
    "z": {"kind": "exponential", "mean": 2.0},
}
INITIAL = {"x": 0.0, "y": 0.0}
BURN_IN_FRACTION = 0.1

CATALOG_HORIZON = 1e5
REPLICAS_HORIZON = 2e4
REPLICAS = 8
WEIGHTS = (100.0, 10.0, 1.0)
DRIFT_DRAWS = 100_000
DRIFT_STATES = 8
CONVERGE_REPLICATIONS = 500
CONVERGE_GRID = (10.0, 50.0, 100.0, 200.0)
CONVERGE_INIT_B = (5.0, 10.0)

NAMES = ("catalog", "replicas", "drift", "converge")
OUTPUTS = {
    "catalog": ("events.csv",),
    "replicas": ("rate.json",),
    "drift": ("foster.json", "drift.csv"),
    "converge": ("ks.csv",),
}


@dataclass(frozen=True)
class Workload:
    """One workload in a work directory: the command lines of one
    operation and the output files that operation writes."""

    workdir: str
    argvs: tuple[tuple[str, ...], ...]
    outputs: tuple[str, ...]

    def output_path(self, name: str) -> str:
        return os.path.join(self.workdir, name)


def run_config(seed: int, horizon: float, replications: int) -> dict:
    return {
        "model": MODEL,
        "initial": INITIAL,
        "seed": seed,
        "stop": {"horizon": horizon},
        "replications": replications,
        "burn_in_fraction": BURN_IN_FRACTION,
    }


def _csv(values) -> str:
    return ",".join(format(v, "g") for v in values)


def prepare(name: str, seed: int, workdir: str) -> Workload:
    """Write the config files of workload `name` for `seed` into `workdir`
    and return the workload."""
    if name not in NAMES:
        raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
    os.makedirs(workdir, exist_ok=True)

    def config(file: str, horizon: float, replications: int) -> str:
        path = os.path.join(workdir, file)
        with open(path, "w") as f:
            json.dump(run_config(seed, horizon, replications), f, indent=2)
        return path

    def out(file: str) -> str:
        return os.path.join(workdir, file)

    if name == "catalog":
        ref = config("reference.json", CATALOG_HORIZON, 1)
        argvs = (("simulate", "--config", ref, "--out", out("events.csv")),)
    elif name == "replicas":
        cfg = config("replicas.json", REPLICAS_HORIZON, REPLICAS)
        # the default fan-out; two threads were measured and rejected, see
        # README.md
        argvs = (("rate", "--config", cfg, "--out", out("rate.json")),)
    elif name == "drift":
        ref = config("reference.json", CATALOG_HORIZON, 1)
        weights = _csv(WEIGHTS)
        argvs = (
            ("foster", "--config", ref, "--weights", weights, "--out", out("foster.json")),
            (
                "drift", "--config", ref, "--weights", weights,
                "--n", str(DRIFT_DRAWS), "--out", out("drift.csv"),
            ),
        )
    else:
        ref = config("reference.json", CATALOG_HORIZON, 1)
        argvs = (
            (
                "converge", "--config", ref,
                "--init-b", _csv(CONVERGE_INIT_B),
                "--t-grid", _csv(CONVERGE_GRID),
                "--replications", str(CONVERGE_REPLICATIONS),
                "--out", out("ks.csv"),
            ),
        )
    return Workload(workdir, argvs, OUTPUTS[name])
