"""Benchmark of the quakesim commands, as users run them.

    python3 benchmarks/run.py --workload catalog --seed 42 --seconds 25 --trace 0

Runs one workload (see workloads.py and README.md) as a closed loop of one
operation at a time, each operation being ``quakesim <command>`` called
in-process through ``quakesim.cli.run_command``.  The last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.

With --trace 0 the metrics are the end-to-end ones: set-up time (median of
three fresh processes), the median wall and CPU time of one operation and
the peak resident memory of the process that ran the operations.  With
--trace 1 they are the per-layer figures of a traced run, medians over its
traced operations, and the tracing overhead.

The operations' outputs are checked against computations made here, apart
from the program (checks.py).  Every file the benchmark writes goes under
benchmarks/out/ in the checkout; the work directory is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
WORKER = os.path.join(HERE, "worker.py")

SETUP_SAMPLES = 3
# all worker processes of one run must finish inside the 180 s it may take
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {"setup_s": "s", "op_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
LAYER_UNITS = {
    "cli.self_s": "s",
    "cli.output_bytes": "bytes",
    "cli.fanout_parallelism": "ratio",
    "chain.simulate_s": "s",
    "chain.simulate_calls": "count",
    "chain.events": "count",
    "chain.us_per_event": "us",
    "chain.state_at_s": "s",
    "chain.state_at_calls": "count",
    "sampler.interevent_s": "s",
    "sampler.interevent_calls": "count",
    "model.phi_eval_calls": "count",
    "model.phi_eval_s": "s",
    "model.intensity_saturated_s": "s",
    "sampler.batch_draws": "count",
    "sampler.batch_s": "s",
    "analysis.estimate_rates_s": "s",
    "chain.window_integrals_calls": "count",
    "analysis.convergence_self_s": "s",
    "stats.ks_s": "s",
    "foster.params_s": "s",
    "foster.validate_s": "s",
    "foster.drift_s": "s",
    "stats.mean_ci_s": "s",
    "trace.overhead": "ratio",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not run: no result is printed."""


def run_worker(args, workdir: str, setup_only: bool, deadline: float) -> dict:
    cmd = [
        sys.executable, WORKER,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", workdir,
    ]
    if setup_only:
        cmd.append("--setup-only")
    # the fan-out width is part of the workload, not of the caller's shell
    env = {k: v for k, v in os.environ.items() if k != "QUAKESIM_THREADS"}
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as e:
        raise BenchmarkError(f"the run took more than {RUN_BUDGET_S} s") from e
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(setups: list[float], result: dict) -> dict:
    good = [op for op in result["ops"] if op["ok"]]
    metrics = {
        "setup_s": statistics.median(setups),
        "op_s": statistics.median(op["wall_s"] for op in good),
        "cpu_s": statistics.median(op["cpu_s"] for op in good),
        "peak_rss_mb": result["peak_rss_mb"],
    }
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]} for name, value in metrics.items()}


def per_layer(result: dict) -> dict:
    plain = [op for op in result["ops"] if op["ok"] and not op["traced"]]
    traced = [op for op in result["ops"] if op["ok"] and op["traced"]]
    values = {name: statistics.median(op["layers"][name] for op in traced) for name in traced[0]["layers"]}
    values["cli.output_bytes"] = statistics.median(op["output_bytes"] for op in traced)
    values["trace.overhead"] = statistics.median(op["wall_s"] for op in traced) / statistics.median(
        op["wall_s"] for op in plain
    )
    return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_UNITS.items()}


def check_outputs(workload: str, workdir: str, result: dict) -> tuple[bool, str]:
    import checks

    if not all(op["same_output"] for op in result["ops"] if op["ok"]):
        return False, "an operation's output bytes differ from the first operation's"
    texts = {}
    for name in workloads.OUTPUTS[workload]:
        with open(os.path.join(workdir, "checked", name)) as f:
            texts[name] = f.read()
    try:
        checks.check(workload, texts)
    except checks.CheckFailed as e:
        return False, str(e)
    return True, ""


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "quakesim")):
        print(f"error: no quakesim sources under {ROOT}/src", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    deadline = time.monotonic() + RUN_BUDGET_S
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setups.append(run_worker(args, workdir, True, deadline)["setup_s"])
        result = run_worker(args, workdir, False, deadline)
        setups.append(result["setup_s"])
        if not any(op["ok"] for op in result["ops"]) or (
            args.trace and not any(op["ok"] for op in result["ops"] if op["traced"])
        ):
            raise BenchmarkError("no operation succeeded")
        correct, why = check_outputs(args.workload, workdir, result)
    except BenchmarkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not correct:
        print(f"check failed: {why}", file=sys.stderr)

    ok = [op for op in result["ops"] if op["ok"]]
    metrics = per_layer(result) if args.trace else end_to_end(setups, result)
    line = {
        "correct": correct,
        "attempted": len(result["ops"]),
        "failed": len(result["ops"]) - len(ok),
        "metrics": metrics,
    }
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as f:
        json.dump({**line, "setup_samples": setups, "ops": result["ops"]}, f, indent=1)
    if args.trace:
        with open(os.path.join(OUT, f"trace-{tag}.json"), "w") as f:
            json.dump(result["spans"], f)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
