"""Batch command-line front end.

Subcommands: simulate, rate, foster, drift, converge, dominance, lemma-l2,
regime, probe-supercritical, selftest.  Configuration is a strict JSON
document (unknown keys are rejected, errors carry JSON paths) built into the
library's parameter types, whose defaults and cross-field rules it keeps;
output paths come from --out and --summary only.  Bulk event data goes to
CSV with the fixed header ``n,t,dt,kind,x,y,z,lambda_pre``, everything else
to JSON.  Exit codes: 0 success, 1 validation failure,
2 a run stopped early (intensity saturation or float time resolution),
3 selftest assertion failure.

Replica i of a run with master seed s draws from the documented substream
(seed s, spawn key (i,)); aggregation happens in replica order.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import enum
import itertools
import json
import math
import sys
import warnings
from dataclasses import asdict, dataclass, replace
from typing import Any, Callable, Iterable, Optional, Sequence

import numpy as np

from . import analysis, foster
from .chain import EARLY_STOPS, EventLog, StopRule, simulate
from .model import (
    DeterministicZ,
    ExponentialPhi,
    ExponentialZ,
    ModelParams,
    Regime,
    State,
    ThresholdLinearPhi,
    UniformZ,
    cumulative_hazard_primary,
    phi_eval,
    primary_time_from_exponential,
    regime,
    sample_secondary_times,
)
from .stats import batch_se
from .streams import master, substream

__all__ = ["RunConfig", "ConfigError", "parse_config", "run_command", "main"]

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_EARLY_STOP = 2
EXIT_SELFTEST = 3

CSV_HEADER = ["n", "t", "dt", "kind", "x", "y", "z", "lambda_pre"]
# one event CSV row: floats with 17 significant digits, as `_emit` writes them
_EVENT_ROW = "%d,%.17g,%.17g,%s,%.17g,%.17g,%.17g,%.17g\n"
_EVENT_BLOCK = 4096  # rows formatted per write


class ConfigError(ValueError):
    """Invalid run configuration; `errors` lists one message per field."""

    def __init__(self, errors: list[str]):
        super().__init__("; ".join(errors))
        self.errors = errors


@dataclass(frozen=True)
class RunConfig:
    model: ModelParams
    initial: State
    seed: int
    stop: StopRule
    replications: int = 1
    burn_in_fraction: float = 0.1

    def to_json_dict(self) -> dict:
        return _CONFIG.encode(self)


# --- configuration schema -------------------------------------------------
#
# One table (`_CONFIG`, below) describes the JSON document: its sections,
# the variants of phi and Z, and each key's JSON type and bounds.  Which
# keys may be left out, their defaults and the rules between keys are the
# built types' own.  Parsing reports every problem as "<JSON path>:
# <message>", in table order, and printing walks the same table back.

_BAD = object()  # value of a field that failed validation


class _Leaf:
    def encode(self, value: Any) -> Any:
        return value


@dataclass(frozen=True)
class _Number(_Leaf):
    """A finite JSON number, kept as float, with optional bounds."""

    lo: float = -math.inf
    lo_strict: bool = False
    below: float = math.inf

    def parse(self, v: Any, path: str, errors: list[str]) -> Any:
        if isinstance(v, bool) or not isinstance(v, (int, float)):
            errors.append(f"{path}: expected number, got {type(v).__name__}")
            return _BAD
        try:
            v = float(v)
        except OverflowError:  # an integer literal beyond the float range
            v = math.inf
        if not math.isfinite(v):
            msg = "must be finite"
        elif self.lo_strict and v <= self.lo:
            msg = f"must be > {self.lo:g}"
        elif v < self.lo:
            msg = f"must be >= {self.lo:g}"
        elif not v < self.below:
            msg = f"must be < {self.below:g}"
        else:
            return v
        errors.append(f"{path}: {msg}")
        return _BAD


@dataclass(frozen=True)
class _Integer(_Leaf):
    lo: int
    hi: int = 2**63 - 1
    range_error: str = ""  # message for a value outside [lo, hi]

    def parse(self, v: Any, path: str, errors: list[str]) -> Any:
        if isinstance(v, bool) or not isinstance(v, int):
            errors.append(f"{path}: expected integer, got {type(v).__name__}")
            return _BAD
        if not self.lo <= v <= self.hi:
            errors.append(f"{path}: {self.range_error or f'must be in [{self.lo}, {self.hi}]'}")
            return _BAD
        return v


@dataclass(frozen=True)
class _Record:
    """A JSON object built into the dataclass `build`, one key per field.
    A key may be left out when its field has a default; the object is
    built once every key is valid on its own, and a `ValueError` from the
    constructor (a rule between fields) is reported at the object's path."""

    build: type
    fields: dict[str, Any]  # key -> JSON type

    def parse(self, data: Any, path: str, errors: list[str], extra_keys: tuple[str, ...] = ()) -> Any:
        if not isinstance(data, dict):
            errors.append(f"{path}: expected object, got {type(data).__name__}")
            return _BAD
        known = self.fields.keys() | set(extra_keys)
        errors.extend(f"{path}.{key}: unknown key" for key in data if key not in known)
        optional = {f.name for f in dataclasses.fields(self.build) if f.default is not dataclasses.MISSING}
        missing = [key for key in self.fields if key not in data and key not in optional]
        errors.extend(f"{path}.{key}: missing key" for key in missing)
        values = {
            key: kind.parse(data[key], f"{path}.{key}", errors) for key, kind in self.fields.items() if key in data
        }
        if missing or any(v is _BAD for v in values.values()):
            return _BAD
        try:
            return self.build(**values)
        except ValueError as e:
            errors.append(f"{path}: {e}")
            return _BAD

    def encode(self, value: Any) -> dict:
        return {key: kind.encode(v) for key, kind in self.fields.items() if (v := getattr(value, key)) is not None}


@dataclass(frozen=True)
class _Variants:
    """A JSON object whose "kind" key selects one of several records."""

    cases: dict[str, _Record]

    def parse(self, data: Any, path: str, errors: list[str]) -> Any:
        kind = data.get("kind") if isinstance(data, dict) else None
        case = self.cases.get(kind) if isinstance(kind, str) else None
        if case is None:
            *head, last = map(repr, self.cases)
            errors.append(f"{path}.kind: unknown variant {kind!r} (expected {', '.join(head)} or {last})")
            return _BAD
        return case.parse(data, path, errors, extra_keys=("kind",))

    def encode(self, value: Any) -> dict:
        kind, case = next((k, c) for k, c in self.cases.items() if c.build is type(value))
        return {"kind": kind, **case.encode(value)}


_POSITIVE = _Number(lo=0.0, lo_strict=True)
_NON_NEGATIVE = _Number(lo=0.0)
_REAL = _Number()

_PHI = _Variants(
    {
        "exp": _Record(ExponentialPhi, {"scale": _POSITIVE}),
        "threshold_linear": _Record(ThresholdLinearPhi, {"theta": _REAL, "slope": _POSITIVE}),
    }
)
_Z = _Variants(
    {
        "exponential": _Record(ExponentialZ, {"mean": _POSITIVE}),
        "uniform": _Record(UniformZ, {"low": _NON_NEGATIVE, "high": _REAL}),
        "deterministic": _Record(DeterministicZ, {"value": _POSITIVE}),
    }
)
_MODEL = _Record(
    ModelParams,
    {"c": _POSITIVE, "k": _NON_NEGATIVE, "alpha": _POSITIVE, "intensity_cap": _POSITIVE, "phi": _PHI, "z": _Z},
)
_CONFIG = _Record(
    RunConfig,
    {
        "model": _MODEL,
        "initial": _Record(State, {"x": _REAL, "y": _NON_NEGATIVE}),
        "seed": _Integer(0, 2**64 - 1, "must be an unsigned 64-bit integer"),
        "stop": _Record(StopRule, {"max_events": _Integer(0), "horizon": _POSITIVE}),
        "replications": _Integer(1),
        "burn_in_fraction": _Number(lo=0.0, below=1.0),
    },
)


def parse_config(text: str) -> RunConfig:
    """Parse and validate a JSON run configuration.

    Raises ConfigError whose `errors` list one problem per field, each
    prefixed with the JSON path ($.model.alpha style).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError([f"$: invalid JSON: {e}"]) from None
    errors: list[str] = []
    cfg = _CONFIG.parse(data, "$", errors)
    if errors:
        raise ConfigError(errors)
    return cfg


# --- output -----------------------------------------------------------------


def _emit(out: Optional[str], doc: Any, fmt: str = "json", table: Optional[str] = None) -> None:
    """Write `doc` to the file `out`, or to stdout when `out` is None.

    As JSON, `doc` is written whole, indented, with sorted keys, and each
    enum as its value.  As CSV, the rows are `doc[table]` (`doc` itself
    when `table` is None): mappings that share their keys, which name the
    columns.
    Each column's formatter is chosen once, from its first value: floats
    get 17 significant digits, so they round-trip exactly, anything else
    str().  Fields are numbers, booleans and bare words, so none needs
    quoting.
    """
    lines: Iterable[str]
    if fmt == "json":
        lines = [json.dumps(doc, indent=2, sort_keys=True, default=_enum_value) + "\n"]
    else:
        rows = iter(doc if table is None else doc[table])
        first = next(rows, None)
        columns = list(first or ())
        lines = [",".join(columns) + "\n"]
        if first is not None:
            line = ",".join(f"{{{c}:.17g}}" if isinstance(first[c], float) else f"{{{c}}}" for c in columns)
            lines = itertools.chain(lines, map((line + "\n").format_map, itertools.chain([first], rows)))
    with _output(out) as f:
        f.writelines(lines)


def _enum_value(obj: Any) -> Any:
    """`json.dumps` hook for what JSON has no type for: an enum member
    becomes its value, anything else is refused."""
    if isinstance(obj, enum.Enum):
        return obj.value
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _output(out: Optional[str]):
    """The file `out` opened for writing, or stdout when `out` is None."""
    return open(out, "w") if out else contextlib.nullcontext(sys.stdout)


def _write_events(out: Optional[str], log: EventLog) -> None:
    """The event CSV of `log`, formatted from its columns in blocks of rows."""
    kinds = ("phantom", "event")
    with _output(out) as f:
        f.write(",".join(CSV_HEADER) + "\n")
        for i in range(0, log.t.size, _EVENT_BLOCK):
            block = slice(i, i + _EVENT_BLOCK)
            t, dt, x, y, z, lam = (col[block].tolist() for col in (log.t, log.dt, log.x, log.y, log.z, log.lambda_pre))
            kind = [kinds[e] for e in log.is_event[block].tolist()]
            rows = zip(range(i + 1, i + 1 + len(t)), t, dt, kind, x, y, z, lam)
            f.write("".join(map(_EVENT_ROW.__mod__, rows)))


def _record(obj: Any, *derived: str) -> dict:
    """asdict(obj) plus the named derived properties."""
    return {**asdict(obj), **{name: getattr(obj, name) for name in derived}}


def _load_config(args: argparse.Namespace) -> RunConfig:
    with open(args.config) as f:
        cfg = parse_config(f.read())
    seed = getattr(args, "seed", None)
    return cfg if seed is None else replace(cfg, seed=seed)


def _run_replicas(cfg: RunConfig) -> list[EventLog]:
    """Simulate all replicas in order; replica i uses substream(seed, i)."""
    return [simulate(cfg.model, cfg.initial, cfg.stop, substream(cfg.seed, i)) for i in range(cfg.replications)]


def _exit_code(logs: list[EventLog]) -> int:
    """The exit code of a simulating command: EXIT_EARLY_STOP, with one
    warning line naming the first early-stopped replica's cause, if any
    replica stopped early, else EXIT_OK."""
    reason = next((lg.terminated_reason for lg in logs if lg.terminated_reason in EARLY_STOPS), None)
    if reason is None:
        return EXIT_OK
    print(f"warning: run terminated by {EARLY_STOPS[reason]}", file=sys.stderr)
    return EXIT_EARLY_STOP


def _cmd_simulate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    logs = _run_replicas(cfg)
    _write_events(args.out, logs[0])
    if args.summary:
        replicas = [
            {
                "n_events": lg.event_count,
                "n_records": lg.t.size,
                "horizon": lg.horizon,
                "terminated_reason": lg.terminated_reason,
            }
            for lg in logs
        ]
        _emit(args.summary, {"config": cfg.to_json_dict(), "replications": cfg.replications, "replicas": replicas})
    return _exit_code(logs)


def _pooled_rate_summary(cfg: RunConfig, logs: list[EventLog]) -> dict:
    stats = [analysis.estimate_rates(lg, cfg.burn_in_fraction) for lg in logs]
    body: dict[str, Any] = {
        "replications": cfg.replications,
        "per_replica": [asdict(s) for s in stats],
    }
    rates = np.array([s.rate_hat for s in stats])
    if len(stats) > 1:
        body["pooled"] = {
            "rate_hat": float(np.mean(rates)),
            "rate_se": batch_se(rates),
        }
    body["rate_theory"] = stats[0].rate_theory
    return body


def _cmd_rate(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    logs = _run_replicas(cfg)
    try:
        body = _pooled_rate_summary(cfg, logs)
    except analysis.InsufficientDataError:
        # a replica that stopped early (at its first step, say) left too
        # little data: report the early stop, not the data shortage
        if any(lg.terminated_reason in EARLY_STOPS for lg in logs):
            return _exit_code(logs)
        raise
    _emit(args.out, body)
    return _exit_code(logs)


def _numbers(flag: str, text: str, names: Optional[str] = None) -> list[float]:
    """The comma-separated numbers of a list flag: as many as `names`
    ("x,y") names, or any count when it is None."""
    try:
        values = [float(p) for p in text.split(",")]
    except ValueError:
        values = []  # split gives at least one part, so empty means unparsed
    if not values or (names is not None and len(values) != names.count(",") + 1):
        raise ConfigError([f"{flag}: expected {names or 'comma-separated numbers'}, got {text!r}"])
    return values


def _foster_config(cfg: RunConfig, weights: str) -> foster.FosterConfig:
    """The drift construction for `--weights r1,r2,r3`."""
    r1, r2, r3 = _numbers("--weights", weights, "r1,r2,r3")
    return foster.foster_params(cfg.model, r1, r2, r3, rng=substream(cfg.seed, 0))


def _cmd_foster(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    config = _foster_config(cfg, args.weights)
    report = foster.validate_foster(cfg.model, config, rng=substream(cfg.seed, 1))
    _emit(args.out, {"foster_config": asdict(config), "report": _record(report, "passed")})
    return EXIT_OK if report.passed else EXIT_VALIDATION


def default_drift_grid(config) -> list[State]:
    """Eight states outside V covering every drift case: deep stress, high
    residual at several stress levels, the far corner, and two states at or
    below the truncation threshold."""
    x0, y0, x1 = config.x0, config.y0, config.x1
    deep = min(2.0 * x1, x1 - 10.0)
    return [
        State(x0 + 5.0, 1.0),
        State(x0 + 20.0, 1.0),
        State(x0 + 5.0, y0 + 5.0),
        State(0.0, y0 + 5.0),
        State(x0 / 2.0, y0 + 5.0),
        State(-5.0, y0 + 5.0),
        State(deep, 1.0),
        State(deep, y0 + 5.0),
    ]


def _cmd_drift(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    config = _foster_config(cfg, args.weights)
    if args.states:
        states = [State(*_numbers("--states", part, "x,y")) for part in args.states.split(";")]
    else:
        states = default_drift_grid(config)
    rows = []
    for i, s in enumerate(states):
        est = asdict(foster.estimate_drift(cfg.model, config, s, args.n, substream(cfg.seed, 100 + i)))
        rows.append({**est.pop("state"), **est})
    _emit(args.out, rows, "csv")
    return EXIT_OK


def _cmd_converge(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    init_b = State(*_numbers("--init-b", args.init_b, "x,y"))
    grid = _numbers("--t-grid", args.t_grid)
    try:
        report = analysis.convergence_diagnostic(
            cfg.model, cfg.initial, init_b, grid, args.replications, substream(cfg.seed, 0)
        )
    except analysis.InsufficientDataError as e:
        print(f"warning: {e}", file=sys.stderr)
        return EXIT_EARLY_STOP
    points = [_record(p, "below") for p in report.points]
    _emit(args.out, {**asdict(report), "points": points}, args.format, table="points")
    return EXIT_OK


_DOMINANCE_CASES = [
    ("secondary", 1.0, 5.0),
    ("primary", 0.0, 2.0),
    ("shifted_primary", 0.0, 2.0),
]


def _cmd_dominance(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    rows = [
        _record(analysis.dominance_test(cfg.model, family, lo, hi, args.n, substream(cfg.seed, i)), "passed")
        for i, (family, lo, hi) in enumerate(_DOMINANCE_CASES)
    ]
    passed = all(r["passed"] for r in rows)
    _emit(args.out, {"orderings": rows, "all_passed": passed})
    return EXIT_OK if passed else EXIT_VALIDATION


def _cmd_lemma_l2(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    grid = _numbers("--y-grid", args.y_grid)
    rows = [asdict(r) for r in analysis.lemma_l2_check(cfg.model.alpha, grid, args.n, substream(cfg.seed, 0))]
    _emit(args.out, {"rows": rows}, args.format, table="rows")
    return EXIT_OK


def _cmd_regime(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    r = regime(cfg.model)
    body: dict[str, Any] = {
        "k_over_alpha": cfg.model.k / cfg.model.alpha,
        "regime": r,
    }
    if r is Regime.SUBCRITICAL:
        body["rate_theory"] = analysis.theoretical_rate(cfg.model)
    _emit(args.out, body)
    return EXIT_OK


def _cmd_probe(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    report = analysis.supercritical_probe(
        cfg.model, args.horizon, args.budget, substream(cfg.seed, 0), initial=cfg.initial
    )
    _emit(args.out, _record(report, "explosive"))
    return EXIT_OK


def _selftest_checks() -> list[tuple[str, bool, str]]:
    checks: list[tuple[str, bool, str]] = []

    def add(name: str, ok: bool, detail: str = "") -> None:
        checks.append((name, bool(ok), detail))

    phi = ExponentialPhi(1.0)
    add("phi exp(0) = 1", phi_eval(phi, 0.0) == 1.0)
    add("phi threshold below = 0", phi_eval(ThresholdLinearPhi(0.0, 1.0), -1.0) == 0.0)
    add("phi exp(ln 2) = 2", abs(phi_eval(phi, math.log(2.0)) - 2.0) < 1e-12)

    # the integral of e^v over [0, 1] is exactly expm1(1)
    closed = cumulative_hazard_primary(phi, 0.0, 1.0, 1.0)
    exact = math.expm1(1.0)
    add("hazard closed form vs expm1(1)", abs(closed - exact) < 1e-9 * exact, f"{closed} vs {exact}")
    add("hazard at t=0", cumulative_hazard_primary(phi, 0.3, 2.0, 0.0) == 0.0)

    t = primary_time_from_exponential(phi, 0.0, 1.0, math.e - 1.0)
    add("primary inversion at e-1", abs(t - 1.0) < 1e-12, f"t={t}")

    rng = master(20240)
    vals = sample_secondary_times(1.0, 1.0, rng, 200_000)
    frac = float(np.mean(np.isinf(vals)))
    se = math.sqrt(math.exp(-1.0) * (1 - math.exp(-1.0)) / 200_000)
    add("secondary atom fraction", abs(frac - math.exp(-1.0)) < 4 * se, f"{frac:.5f}")

    params = ModelParams(1.0, 0.5, 1.0, phi, ExponentialZ(2.0))
    cfg = foster.foster_params(params, 100.0, 10.0, 1.0, rng=master(77))
    add("gamma exact arithmetic", abs(cfg.gamma - 0.5 / 3.0) < 1e-15, f"gamma={cfg.gamma}")

    add("regime subcritical", regime(params) is Regime.SUBCRITICAL)
    add(
        "regime supercritical",
        regime(ModelParams(1.0, 2.0, 1.0, phi, ExponentialZ(2.0))) is Regime.SUPERCRITICAL,
    )

    log = simulate(params, State(0.0, 0.0), StopRule(horizon=20_000.0), master(5))
    st = analysis.estimate_rates(log)
    add(
        "rate near c/E[Z]",
        abs(st.rate_hat - 0.5) < 4 * st.rate_se,
        f"rate={st.rate_hat:.4f} se={st.rate_se:.4f}",
    )

    log_a = simulate(params, State(0.0, 0.0), StopRule(horizon=500.0), master(9))
    log_b = simulate(params, State(0.0, 0.0), StopRule(horizon=500.0), master(9))
    add("bit-identical replays", log_a == log_b)
    return checks


def _cmd_selftest(args: argparse.Namespace) -> int:
    checks = _selftest_checks()
    failed = 0
    for name, ok, detail in checks:
        line = f"{'PASS' if ok else 'FAIL'}  {name}"
        if detail and not ok:
            line += f"  ({detail})"
        print(line)
        failed += not ok
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return EXIT_OK if failed == 0 else EXIT_SELFTEST


# options shared by several subcommands; each subcommand names the ones it reads
_SHARED_OPTIONS = {
    "--config": dict(required=True, help="path to JSON run configuration"),
    "--out": dict(default=None, help="output path (stdout when omitted)"),
    "--seed": dict(type=int, default=None, help="override the config seed"),
    "--format": dict(choices=["csv", "json"], default="csv", help="tabular output format"),
    "--weights": dict(default="100,10,1", help="r1,r2,r3"),
}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="quakesim", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name: str, func: Callable, help: str, shared: str = "") -> argparse.ArgumentParser:
        sp = sub.add_parser(name, help=help)
        for option in shared.split():
            sp.add_argument(option, **_SHARED_OPTIONS[option])
        sp.set_defaults(func=func)
        return sp

    sp = command("simulate", _cmd_simulate, "event log CSV plus summary JSON", "--config --out --seed")
    sp.add_argument("--summary", default=None, help="summary JSON path")

    command("rate", _cmd_rate, "rate estimates with batch-means errors (JSON)", "--config --out --seed")

    command("foster", _cmd_foster, "drift construction and constraint report (JSON)", "--config --out --seed --weights")

    sp = command("drift", _cmd_drift, "drift map over a state grid (CSV)", "--config --out --seed --weights")
    sp.add_argument("--n", type=int, default=100_000, help="draws per state")
    sp.add_argument("--states", default=None, help="semicolon-separated x,y pairs")

    sp = command("converge", _cmd_converge, "two-chain KS table over time (CSV)", "--config --out --seed --format")
    sp.add_argument("--init-b", default="5,10", help="second initial state x,y")
    sp.add_argument("--t-grid", default="10,50,100,200", help="comma-separated times")
    sp.add_argument("--replications", type=int, default=1000)

    sp = command("dominance", _cmd_dominance, "clock stochastic-ordering checks (JSON)", "--config --out --seed")
    sp.add_argument("--n", type=int, default=100_000)

    sp = command("lemma-l2", _cmd_lemma_l2, "scaled secondary-clock shrinkage table", "--config --out --seed --format")
    sp.add_argument("--y-grid", default="0.5,1,2,5,20")
    sp.add_argument("--n", type=int, default=200_000)

    command("regime", _cmd_regime, "criticality classification (JSON)", "--config --out")

    sp = command("probe-supercritical", _cmd_probe, "explosiveness probe (JSON)", "--config --out --seed")
    sp.add_argument("--horizon", type=float, default=50.0)
    sp.add_argument("--budget", type=int, default=200_000)

    command("selftest", _cmd_selftest, "run the built-in example checks")
    return p


def _print_warning(message, category, filename, lineno, file=None, line=None) -> None:
    """`warnings.showwarning` during a command: a library warning becomes a
    `warning:` line like the command's own, without a source location."""
    print(f"warning: {message}", file=sys.stderr)


def run_command(argv: Sequence[str]) -> int:
    """Execute a CLI invocation; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(list(argv))
    except SystemExit as e:
        return EXIT_VALIDATION if e.code not in (0, None) else EXIT_OK
    try:
        with warnings.catch_warnings():
            warnings.showwarning = _print_warning
            return args.func(args)
    except ConfigError as e:
        for msg in e.errors:
            print(f"config error: {msg}", file=sys.stderr)
        return EXIT_VALIDATION
    except (FileNotFoundError, ValueError, MemoryError, foster.FosterInfeasibleError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_VALIDATION


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
