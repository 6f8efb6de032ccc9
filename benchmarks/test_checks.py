"""Tests of the benchmark's own output checks and tracer.

    python -m pytest benchmarks

Each check accepts the real output of one operation and rejects a copy
corrupted in one place.
"""

from __future__ import annotations

import csv
import io
import json
import os

import pytest

import checks
import run
import tracing
import worker
import workloads

run_command = worker.import_program()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Real outputs of one operation of every workload."""
    texts = {}
    for name in workloads.NAMES:
        work = workloads.prepare(name, workloads.DEFAULT_SEED, str(tmp_path_factory.mktemp(name)))
        assert worker.run_op(run_command, work)
        for out in work.outputs:
            with open(work.output_path(out)) as f:
                texts[out] = f.read()
    return texts


def _rows(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _csv(rows: list[dict]) -> str:
    buf = io.StringIO()
    w = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    w.writeheader()
    w.writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("name", workloads.NAMES)
def test_real_output_passes(outputs, name):
    checks.check(name, {out: outputs[out] for out in workloads.OUTPUTS[name]})


def test_catalog_rejects_one_perturbed_dt(outputs):
    rows = _rows(outputs["events.csv"])
    row = rows[len(rows) // 2]
    row["dt"] = repr(float(row["dt"]) * (1 + 1e-9))
    with pytest.raises(checks.CheckFailed, match="running sum"):
        checks.check_catalog(_csv(rows))


def test_foster_rejects_a_negative_margin(outputs):
    body = json.loads(outputs["foster.json"])
    body["report"]["checks"][3]["margin"] = -1e-3
    with pytest.raises(checks.CheckFailed, match="Foster margin"):
        checks.check_foster(json.dumps(body))


def test_drift_rejects_a_positive_mean(outputs):
    cfg = checks.check_foster(outputs["foster.json"])
    rows = _rows(outputs["drift.csv"])
    # a state at x = 0 above y0, where the estimate is tight (se ~ 0.03)
    row = next(r for r in rows if float(r["x"]) == 0.0)
    row["mean"] = "0.5"
    with pytest.raises(checks.CheckFailed, match="not below -gamma"):
        checks.check_drift(_csv(rows), cfg)


def test_converge_rejects_last_distance_above_threshold(outputs):
    rows = _rows(outputs["ks.csv"])
    rows[-1]["ks_x"] = repr(float(rows[-1]["threshold"]) + 0.05)
    rows[-1]["below"] = "False"
    with pytest.raises(checks.CheckFailed, match="not converged"):
        checks.check_converge(_csv(rows))


def test_replicas_reject_a_rate_off_theory(outputs):
    body = json.loads(outputs["rate.json"])
    r = body["per_replica"][5]
    r["rate_hat"] += 10 * r["rate_se"]
    with pytest.raises(checks.CheckFailed, match="replica 5"):
        checks.check_replicas(json.dumps(body))


def test_ks_critical_value_matches_scipy():
    stats = pytest.importorskip("scipy.stats")
    n = 50_000
    assert checks.ks_critical(n, None, 0.001) == pytest.approx(stats.kstwo.ppf(0.999, n), rel=2e-3)


def test_tracer_restores_the_program_and_counts_work(tmp_path):
    import quakesim.chain
    import quakesim.cli

    original = quakesim.cli.simulate
    work = workloads.prepare("replicas", 7, str(tmp_path))
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert quakesim.cli.simulate is not original
        tracer.begin_op()
        assert worker.run_op(run_command, work, tracer)
        layers = tracing.layer_metrics(tracer.end_op())
    finally:
        tracer.uninstall()
    assert quakesim.cli.simulate is original
    assert not hasattr(quakesim.chain.sample_interevent, "__wrapped__")
    assert layers["chain.simulate_calls"] == workloads.REPLICAS
    assert layers["chain.window_integrals_calls"] == 20 * workloads.REPLICAS
    # every event costs one interevent draw; each replica also draws the
    # wait that overshoots the horizon
    assert layers["sampler.interevent_calls"] == layers["chain.events"] + workloads.REPLICAS
    assert layers["model.phi_eval_calls"] == 2 * layers["sampler.interevent_calls"]
    assert 0.0 < layers["cli.self_s"] < layers["chain.simulate_s"]
    assert 0.9 <= layers["cli.fanout_parallelism"] <= workloads.REPLICAS


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
