import csv
import dataclasses
import json
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quakesim import (
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    ModelParams,
    State,
    StopRule,
    ThresholdLinearPhi,
    UniformZ,
    cli,
)
from quakesim.cli import ConfigError, RunConfig, parse_config, run_command

README = Path(__file__).resolve().parents[1] / "README.md"

REF_CONFIG = {
    "model": {
        "c": 1,
        "k": 0.5,
        "alpha": 1,
        "phi": {"kind": "exp", "scale": 1},
        "z": {"kind": "exponential", "mean": 2},
    },
    "initial": {"x": 0, "y": 0},
    "seed": 42,
    "stop": {"horizon": 1e5},
    "replications": 1,
    "burn_in_fraction": 0.1,
}


def write_config(tmp_path, horizon=400.0, replications=1, **model_overrides):
    cfg = json.loads(json.dumps(REF_CONFIG))
    cfg["stop"] = {"horizon": horizon}
    cfg["replications"] = replications
    cfg["model"].update(model_overrides)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return path


class TestParseConfig:
    def test_reference_accepted(self):
        cfg = parse_config(json.dumps(REF_CONFIG))
        assert cfg.seed == 42
        assert cfg.model.c == 1.0
        assert cfg.stop.horizon == 1e5
        assert cfg.burn_in_fraction == 0.1

    def test_negative_alpha_path(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["model"]["alpha"] = -1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.model.alpha" in e and "must be > 0" in e for e in exc.value.errors)

    def test_unknown_phi_variant(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["model"]["phi"] = {"kind": "cubic"}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.model.phi.kind" in e and "unknown variant" in e for e in exc.value.errors)

    def test_unknown_key_rejected(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["extra"] = 1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.extra" in e and "unknown key" in e for e in exc.value.errors)

    def test_missing_key_reported(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        del bad["model"]["c"]
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.model.c" in e and "missing" in e for e in exc.value.errors)

    def test_seed_range(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["seed"] = -1
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.seed" in e for e in exc.value.errors)

    def test_stop_needs_a_bound(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["stop"] = {}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert any("$.stop" in e for e in exc.value.errors)

    def test_multiple_errors_collected(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["model"]["alpha"] = -1
        bad["model"]["c"] = 0
        bad["seed"] = "x"
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert len(exc.value.errors) >= 3

    def test_round_trip(self):
        cfg = parse_config(json.dumps(REF_CONFIG))
        again = parse_config(json.dumps(cfg.to_json_dict()))
        assert again == RunConfig(cfg.model, cfg.initial, cfg.seed, cfg.stop, cfg.replications, cfg.burn_in_fraction)

    def test_uniform_and_threshold_variants(self):
        alt = json.loads(json.dumps(REF_CONFIG))
        alt["model"]["phi"] = {"kind": "threshold_linear", "theta": 0.5, "slope": 2.0}
        alt["model"]["z"] = {"kind": "uniform", "low": 1, "high": 3}
        cfg = parse_config(json.dumps(alt))
        assert cfg.model.phi.theta == 0.5
        assert cfg.model.z.high == 3.0

    def test_invalid_json(self):
        with pytest.raises(ConfigError, match="invalid JSON"):
            parse_config("{not json")

    def test_error_list_and_order(self):
        # a missing section is reported once; output paths are command-line
        # options, not config keys
        with pytest.raises(ConfigError) as exc:
            parse_config('{"model": {}, "seed": -1, "output": {"events": 1}, "burn_in_fraction": 1}')
        assert exc.value.errors == [
            "$.output: unknown key",
            "$.initial: missing key",
            "$.stop: missing key",
            "$.model.c: missing key",
            "$.model.k: missing key",
            "$.model.alpha: missing key",
            "$.model.phi: missing key",
            "$.model.z: missing key",
            "$.seed: must be an unsigned 64-bit integer",
            "$.burn_in_fraction: must be < 1",
        ]

    def test_cross_field_rules(self):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["model"]["z"] = {"kind": "uniform", "low": 2, "high": 2, "x": 0}
        bad["stop"] = {"when": 1}
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert exc.value.errors == [
            "$.model.z.x: unknown key",
            "$.model.z: need finite high > low, got [2.0, 2.0]",
            "$.stop.when: unknown key",
            "$.stop: set max_events, horizon, or both",
        ]

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("k", -1, "$.model.k: must be >= 0"),
            ("c", "1", "$.model.c: expected number, got str"),
        ],
    )
    def test_model_number_refusals(self, key, value, message):
        bad = json.loads(json.dumps(REF_CONFIG))
        bad["model"][key] = value
        with pytest.raises(ConfigError) as exc:
            parse_config(json.dumps(bad))
        assert exc.value.errors == [message]

    def test_integer_beyond_float_range(self):
        text = json.dumps(REF_CONFIG).replace('"c": 1', '"c": 1' + "0" * 400)
        with pytest.raises(ConfigError) as exc:
            parse_config(text)
        assert exc.value.errors == ["$.model.c: must be finite"]

    def test_largest_seed_accepted(self):
        cfg = json.loads(json.dumps(REF_CONFIG))
        cfg["seed"] = 2**64 - 1
        assert parse_config(json.dumps(cfg)).seed == 2**64 - 1


def _records(node):
    """Every record of the config schema under `node`, depth first."""
    if isinstance(node, cli._Variants):
        for case in node.cases.values():
            yield from _records(case)
    elif isinstance(node, cli._Record):
        yield node
        for kind in node.fields.values():
            yield from _records(kind)


def test_schema_records_follow_their_types():
    # each record builds a dataclass, one key per field, and may leave out
    # exactly the fields that have a default
    records = list(_records(cli._CONFIG))
    assert {r.build for r in records} == {
        RunConfig,
        ModelParams,
        ExponentialPhi,
        ThresholdLinearPhi,
        ExponentialZ,
        UniformZ,
        DeterministicZ,
        State,
        StopRule,
    }
    for record in records:
        assert dataclasses.is_dataclass(record.build)
        fields = dataclasses.fields(record.build)
        assert sorted(record.fields) == sorted(f.name for f in fields)
        errors = []
        record.parse({}, "$", errors)
        missing = {e.removesuffix(": missing key") for e in errors if e.endswith(": missing key")}
        no_default = (dataclasses.MISSING, dataclasses.MISSING)
        assert missing == {f"$.{f.name}" for f in fields if (f.default, f.default_factory) == no_default}


def test_readme_reference_config(tmp_path, capsys):
    # the README's reference configuration is valid, so it cannot drift from the schema
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    parse_config(block)
    path = tmp_path / "readme.json"
    path.write_text(block)
    assert run_command(["regime", "--config", str(path)]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["regime"] == "subcritical"
    assert err == ""


_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_REAL = st.floats(allow_nan=False, allow_infinity=False)
_NON_NEGATIVE = st.floats(min_value=0.0, allow_infinity=False)


@st.composite
def _uniform_z(draw):
    low = draw(st.floats(0.0, 1e6))
    return {"kind": "uniform", "low": low, "high": draw(st.floats(min_value=low, max_value=2e6, exclude_min=True))}


_PHIS = [
    st.fixed_dictionaries({"kind": st.just("exp"), "scale": _POSITIVE}),
    st.fixed_dictionaries({"kind": st.just("threshold_linear"), "theta": _REAL, "slope": _POSITIVE}),
]
_ZS = [
    st.fixed_dictionaries({"kind": st.just("exponential"), "mean": _POSITIVE}),
    _uniform_z(),
    st.fixed_dictionaries({"kind": st.just("deterministic"), "value": _POSITIVE}),
]
_STOPS = st.one_of(
    st.fixed_dictionaries({"max_events": st.integers(0, 2**63 - 1)}),
    st.fixed_dictionaries({"horizon": _POSITIVE}),
    st.fixed_dictionaries({"max_events": st.integers(0, 2**63 - 1), "horizon": _POSITIVE}),
)


def _configs(phi, z):
    model = st.fixed_dictionaries(
        {"c": _POSITIVE, "k": _NON_NEGATIVE, "alpha": _POSITIVE, "phi": phi, "z": z},
        optional={"intensity_cap": _POSITIVE},
    )
    return st.fixed_dictionaries(
        {
            "model": model,
            "initial": st.fixed_dictionaries({"x": _REAL, "y": _NON_NEGATIVE}),
            "seed": st.integers(0, 2**64 - 1),
            "stop": _STOPS,
        },
        optional={
            "replications": st.integers(1, 10**6),
            "burn_in_fraction": st.floats(0.0, 1.0, exclude_max=True),
        },
    )


class TestSchemaRoundTrip:
    @pytest.mark.parametrize("phi", _PHIS, ids=["exp", "threshold_linear"])
    @pytest.mark.parametrize("z", _ZS, ids=["exponential", "uniform", "deterministic"])
    def test_parse_print_parse(self, phi, z):
        @settings(max_examples=60, deadline=None)
        @given(doc=_configs(phi, z))
        def check(doc):
            cfg = parse_config(json.dumps(doc))
            printed = cfg.to_json_dict()
            assert parse_config(json.dumps(printed)) == cfg
            # the printed document is the input with its defaults filled in
            for key in ("intensity_cap", "phi", "z"):
                if key in doc["model"]:
                    assert printed["model"][key] == doc["model"][key]
            assert printed["stop"] == doc["stop"]

        check()


class TestSimulateCommand:
    def test_csv_contract(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "events.csv"
        code = run_command(["simulate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        rows = list(csv.reader(out.read_text().splitlines()))
        assert rows[0] == ["n", "t", "dt", "kind", "x", "y", "z", "lambda_pre"]
        assert all(r[3] in ("event", "phantom") for r in rows[1:])
        assert len(rows) > 100

    def test_rows_satisfy_recurrence(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "events.csv"
        run_command(["simulate", "--config", str(cfg), "--out", str(out)])
        rows = list(csv.DictReader(out.read_text().splitlines()))
        x_prev, y_prev = 0.0, 0.0
        for r in rows:
            dt, z = float(r["dt"]), float(r["z"])
            assert float(r["x"]) == pytest.approx(x_prev + 1.0 * dt - z, abs=1e-12)
            assert float(r["y"]) == pytest.approx(y_prev * math.exp(-dt) + 0.5, abs=1e-12)
            x_prev, y_prev = float(r["x"]), float(r["y"])

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_command(["simulate", "--config", str(cfg), "--out", str(a)])
        run_command(["simulate", "--config", str(cfg), "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_seed_override_changes_output(self, tmp_path):
        cfg = write_config(tmp_path)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run_command(["simulate", "--config", str(cfg), "--out", str(a)])
        run_command(["simulate", "--config", str(cfg), "--out", str(b), "--seed", "7"])
        assert a.read_bytes() != b.read_bytes()

    def test_saturation_exit_code(self, tmp_path):
        cfg_path = tmp_path / "hot.json"
        hot = json.loads(json.dumps(REF_CONFIG))
        hot["initial"] = {"x": 40, "y": 0}
        hot["stop"] = {"horizon": 10.0}
        cfg_path.write_text(json.dumps(hot))
        out = tmp_path / "events.csv"
        code = run_command(["simulate", "--config", str(cfg_path), "--out", str(out)])
        assert code == 2
        # saturation at the first step leaves an empty log: the header alone
        assert out.read_text() == "n,t,dt,kind,x,y,z,lambda_pre\n"

    def test_drop_beyond_float_range_exit_one(self, tmp_path, capsys):
        # the first drop leaves the float range whatever the draws (see
        # test_chain's test_drop_beyond_float_range_is_refused)
        cfg = write_config(tmp_path, z={"kind": "deterministic", "value": 1.5e308})
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "initial": {"x": -1e308, "y": 1e3}}))
        out = tmp_path / "events.csv"
        assert run_command(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: need finite x") and err.count("\n") == 1

    def test_summary_written(self, tmp_path):
        cfg = write_config(tmp_path)
        out, summ = tmp_path / "e.csv", tmp_path / "s.json"
        run_command(["simulate", "--config", str(cfg), "--out", str(out), "--summary", str(summ)])
        body = json.loads(summ.read_text())
        assert body["replications"] == 1
        assert body["replicas"][0]["terminated_reason"] == "horizon_reached"


class TestRateCommand:
    def test_reference_rate_theory(self, tmp_path):
        cfg = write_config(tmp_path, horizon=2000.0)
        out = tmp_path / "rate.json"
        code = run_command(["rate", "--config", str(cfg), "--out", str(out)])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["rate_theory"] == 0.5
        assert abs(body["per_replica"][0]["rate_hat"] - 0.5) < 0.05

    def test_no_burn_in_warns_once(self, tmp_path, capsys):
        # every replica's estimate warns from the same place: one line
        cfg = write_config(tmp_path, horizon=200.0, replications=3)
        cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "burn_in_fraction": 0.0}))
        out = tmp_path / "rate.json"
        assert run_command(["rate", "--config", str(cfg), "--out", str(out)]) == 0
        assert len(json.loads(out.read_text())["per_replica"]) == 3
        assert capsys.readouterr() == ("", "warning: burn-in disabled: estimates include the initial transient\n")

    def test_empty_log_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["stop"] = {"max_events": 0}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "rate.json"
        assert run_command(["rate", "--config", str(cfg), "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr() == ("", "error: insufficient data: empty log\n")

    def test_first_step_saturation_is_an_early_stop(self, tmp_path, capsys):
        # from x = 40 the intensity e^40 is above the 1e12 cap, so the run
        # stops before its first event: the stop is named, not the empty log
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["initial"] = {"x": 40, "y": 0}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "rate.json"
        assert run_command(["rate", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr() == ("", "warning: run terminated by intensity saturation\n")


class TestOtherCommands:
    def test_regime(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        assert run_command(["regime", "--config", str(cfg)]) == 0
        body = json.loads(capsys.readouterr().out)
        assert body == {"k_over_alpha": 0.5, "rate_theory": 0.5, "regime": "subcritical"}

    def test_foster_report(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "foster.json"
        code = run_command(["foster", "--config", str(cfg), "--out", str(out), "--weights", "100,10,1"])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["foster_config"]["gamma"] == pytest.approx(0.5 / 3.0, abs=1e-15)
        assert body["report"]["passed"] is True

    def test_foster_bad_weights_exit_one(self, tmp_path):
        cfg = write_config(tmp_path)
        assert run_command(["foster", "--config", str(cfg), "--weights", "1,10,100"]) == 1

    def test_drift_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "drift.csv"
        code = run_command(
            ["drift", "--config", str(cfg), "--out", str(out), "--n", "2000", "--states", "20,1;0,710"]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert len(rows) == 2
        assert float(rows[0]["mean"]) < 0

    def test_converge_csv(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "ks.csv"
        code = run_command(
            [
                "converge",
                "--config",
                str(cfg),
                "--out",
                str(out),
                "--t-grid",
                "5,20",
                "--replications",
                "80",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.read_text().splitlines()))
        assert [r["t"] for r in rows] == ["5", "20"]

    def test_converge_with_chains_stopped_early_exit_two(self, tmp_path, capsys):
        # from x = 40 the intensity e^40 is above the 1e12 cap: every chain
        # started there stops at t=0, so there are no states to compare
        cfg = write_config(tmp_path)
        doc = json.loads(cfg.read_text())
        doc["initial"] = {"x": 40, "y": 0}
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "ks.csv"
        argv = ["converge", "--config", str(cfg), "--out", str(out), "--t-grid", "1,5", "--replications", "20"]
        assert run_command(argv) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "warning: 20 of 40 chains stopped early, the first by intensity saturation at t=0; "
            "no KS distances computed\n"
        )

    def test_converge_library_warning_is_one_line(self, tmp_path, capsys):
        # the library's UserWarning reads like the command's own warnings:
        # no source path or line, once per command
        cfg = write_config(tmp_path, z={"kind": "deterministic", "value": 2.0})
        out = tmp_path / "ks.csv"
        argv = ["converge", "--config", str(cfg), "--out", str(out), "--t-grid", "5,20", "--replications", "50"]
        expected = (
            "",
            "warning: stress-drop law has no absolutely continuous component; "
            "ergodic convergence is not guaranteed for this configuration\n",
        )
        for _ in range(2):
            assert run_command(argv) == 0
            assert out.exists()
            assert capsys.readouterr() == expected

    def test_dominance(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "dom.json"
        code = run_command(["dominance", "--config", str(cfg), "--out", str(out), "--n", "20000"])
        assert code == 0
        body = json.loads(out.read_text())
        assert body["all_passed"] is True
        assert {r["family"] for r in body["orderings"]} == {"secondary", "primary", "shifted_primary"}

    def test_lemma_l2_formats(self, tmp_path):
        cfg = write_config(tmp_path)
        out_csv = tmp_path / "l.csv"
        out_json = tmp_path / "l.json"
        assert run_command(["lemma-l2", "--config", str(cfg), "--out", str(out_csv), "--n", "20000"]) == 0
        assert (
            run_command(
                ["lemma-l2", "--config", str(cfg), "--out", str(out_json), "--n", "20000", "--format", "json"]
            )
            == 0
        )
        rows = list(csv.DictReader(out_csv.read_text().splitlines()))
        assert [r["y"] for r in rows] == ["0.5", "1", "2", "5", "20"]
        body = json.loads(out_json.read_text())
        assert len(body["rows"]) == 5

    def test_probe_supercritical(self, tmp_path):
        cfg_path = tmp_path / "sup.json"
        sup = json.loads(json.dumps(REF_CONFIG))
        sup["model"]["k"] = 2
        sup["stop"] = {"horizon": 50.0}
        cfg_path.write_text(json.dumps(sup))
        out = tmp_path / "probe.json"
        code = run_command(
            ["probe-supercritical", "--config", str(cfg_path), "--out", str(out), "--budget", "50000"]
        )
        assert code == 0
        body = json.loads(out.read_text())
        assert body["regime"] == "supercritical"
        assert body["explosive"] is True

    def test_missing_config_file(self, tmp_path):
        assert run_command(["rate", "--config", str(tmp_path / "nope.json")]) == 1

    def test_invalid_config_exit_one(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{\"model\": {}}")
        assert run_command(["rate", "--config", str(p)]) == 1


class TestFlags:
    @pytest.mark.parametrize(
        "argv",
        [
            ["rate", "--format", "json"],
            ["foster", "--threads", "2"],
            ["regime", "--seed", "3"],
            ["selftest", "--threads", "2"],
            ["selftest", "--out", "x.txt"],
            ["selftest", "--seed", "1"],
            ["simulate", "--threads", "2"],
            ["rate", "--threads", "2"],
        ],
    )
    def test_flags_a_subcommand_does_not_read_are_rejected(self, tmp_path, argv):
        cfg = write_config(tmp_path)
        if argv[0] != "selftest":
            argv = argv[:1] + ["--config", str(cfg)] + argv[1:]
        assert run_command(argv) == 1

    def test_non_finite_drift_state_exit_one(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "drift.csv"
        argv = ["drift", "--config", str(cfg), "--out", str(out), "--n", "2000", "--states", "nan,1"]
        assert run_command(argv) == 1
        assert not out.exists()

    def test_non_finite_converge_state_exit_one(self, tmp_path):
        # from a NaN stress every wait is 5e-324: the run would never end
        cfg = write_config(tmp_path)
        argv = ["converge", "--config", str(cfg), "--init-b", "nan,1", "--t-grid", "5", "--replications", "20"]
        assert run_command(argv) == 1

    # an infinite time would run the chains forever, an infinite y would
    # write the bare words Infinity and NaN into the JSON table
    @pytest.mark.parametrize(
        "flags, value",
        [
            (["converge", "--t-grid", "5,inf"], "inf"),
            (["converge", "--t-grid", "1,nan,5"], "nan"),
            (["converge", "--t-grid", "inf"], "inf"),
            (["lemma-l2", "--format", "json", "--y-grid", "1,inf"], "inf"),
            (["lemma-l2", "--format", "json", "--y-grid", "nan"], "nan"),
        ],
    )
    def test_non_finite_grid_exit_one(self, tmp_path, capsys, flags, value):
        cfg = write_config(tmp_path)
        out = tmp_path / "table.txt"
        assert run_command([flags[0], "--config", str(cfg), "--out", str(out), *flags[1:]]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.endswith(f"got {value}\n") and err.count("\n") == 1

    @pytest.mark.parametrize("replications", ["0", "-3"])
    def test_converge_without_replications_exit_one(self, tmp_path, capsys, replications):
        cfg = write_config(tmp_path)
        argv = ["converge", "--config", str(cfg), "--t-grid", "5", "--replications", replications]
        assert run_command(argv) == 1
        assert capsys.readouterr().err == "error: replications must be >= 1\n"

    # a sample too large for memory is refused before one generator is
    # spawned per replication: 29 TiB of samples, then too many dimensions
    @pytest.mark.parametrize("replications", [10**12, 10**30])
    def test_converge_replications_beyond_memory_exit_one(self, tmp_path, capsys, replications):
        cfg = write_config(tmp_path)
        out = tmp_path / "ks.csv"
        argv = ["converge", "--config", str(cfg), "--out", str(out), "--replications", str(replications)]
        assert run_command(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("n", ["0", "-2"])
    def test_dominance_without_draws_exit_one(self, tmp_path, capsys, n):
        cfg = write_config(tmp_path)
        out = tmp_path / "dom.json"
        assert run_command(["dominance", "--config", str(cfg), "--out", str(out), "--n", n]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == "error: n must be >= 1\n"

    def test_dominance_band_of_one_or_more_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "dom.json"
        assert run_command(["dominance", "--config", str(cfg), "--out", str(out), "--n", "1"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: one-sided KS band 2.146 at alpha=0.01 is >= 1") and err.count("\n") == 1
        assert run_command(["dominance", "--config", str(cfg), "--out", str(out), "--n", "5"]) == 0
        assert json.loads(out.read_text())["orderings"][0]["band"] < 1.0

    def test_converge_critical_value_of_one_or_more_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "ks.csv"
        argv = ["converge", "--config", str(cfg), "--t-grid", "5", "--out", str(out), "--replications"]
        assert run_command([*argv, "1"]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: KS critical value 2.302 at alpha=0.01 is >= 1") and err.count("\n") == 1
        assert run_command([*argv, "6"]) == 0
        assert float(next(csv.DictReader(out.read_text().splitlines()))["threshold"]) < 1.0

    def test_lemma_l2_single_draw_exit_one(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "table.json"
        argv = ["lemma-l2", "--config", str(cfg), "--out", str(out), "--n", "1", "--format", "json"]
        assert run_command(argv) == 1
        assert not out.exists()
        assert "n must be >= 2" in capsys.readouterr().err

    # 8e17 bytes per array: beyond any 57-bit address space, so the
    # allocation is refused before a byte is touched
    @pytest.mark.parametrize("command", [["dominance"], ["drift", "--states", "1,1"], ["lemma-l2"]])
    def test_draw_count_beyond_memory_exit_one(self, tmp_path, capsys, command):
        cfg = write_config(tmp_path)
        out = tmp_path / "out.txt"
        argv = [*command, "--config", str(cfg), "--out", str(out), "--n", str(10**17)]
        assert run_command(argv) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: Unable to allocate") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["drift", "--states", "1"], "--states: expected x,y, got '1'"),
            (["drift", "--states", "a,1"], "--states: expected x,y, got 'a,1'"),
            (["converge", "--init-b", "1"], "--init-b: expected x,y, got '1'"),
            (["converge", "--t-grid", "5,x"], "--t-grid: expected comma-separated numbers, got '5,x'"),
            (["lemma-l2", "--y-grid", "1,,"], "--y-grid: expected comma-separated numbers, got '1,,'"),
            (["foster", "--weights", "1,2"], "--weights: expected r1,r2,r3, got '1,2'"),
            (["foster", "--weights", "1,2,x"], "--weights: expected r1,r2,r3, got '1,2,x'"),
        ],
    )
    def test_bad_list_flag_names_itself(self, tmp_path, capsys, flags, message):
        cfg = write_config(tmp_path)
        assert run_command([flags[0], "--config", str(cfg), *flags[1:]]) == 1
        assert capsys.readouterr().err == f"config error: {message}\n"


class TestSelftest:
    def test_selftest_passes(self, capsys):
        assert run_command(["selftest"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert "PASS  hazard closed form vs expm1(1)\n" in out
        assert "checks passed" in out
