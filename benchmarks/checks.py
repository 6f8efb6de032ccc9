"""Output checks of the benchmark workloads.

Every check recomputes what it compares against from the workload's inputs
and the model's formulas, or tests a property the method must have.  None
compares against a stored copy of the program's output, and none imports
quakesim.  Each check raises `CheckFailed` naming the first violation.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

import workloads as wl


class CheckFailed(AssertionError):
    """An output of the program is wrong."""


def _require(ok, msg: str) -> None:
    if not ok:
        raise CheckFailed(msg)


def _rel_close(a: np.ndarray, b: np.ndarray, scale: np.ndarray, rtol: float) -> np.ndarray:
    return np.abs(a - b) <= rtol * scale


def ks_critical(n: int, m: int | None, level: float) -> float:
    """Asymptotic two-sided Kolmogorov-Smirnov critical value: one-sample
    when m is None, else two-sample with sizes n and m."""
    c = math.sqrt(-math.log(level / 2.0) / 2.0)
    return c / math.sqrt(n) if m is None else c * math.sqrt((n + m) / (n * m))


def ks_exp1(values: np.ndarray) -> float:
    """One-sample KS distance of `values` from the Exp(1) law."""
    u = np.sort(-np.expm1(-values))
    n = u.size
    i = np.arange(1, n + 1)
    return float(max(np.max(i / n - u), np.max(u - (i - 1) / n)))


def _batch_mean_se(values: np.ndarray) -> tuple[float, float]:
    return float(np.mean(values)), float(np.std(values, ddof=1) / math.sqrt(values.size))


def stationary_rate() -> float:
    return wl.MODEL["c"] / wl.MODEL["z"]["mean"]


def check_catalog(text: str) -> None:
    """Event CSV of `simulate` on the reference config."""
    c, k, alpha = wl.MODEL["c"], wl.MODEL["k"], wl.MODEL["alpha"]
    s = wl.MODEL["phi"]["scale"]
    lines = text.splitlines()
    _require(lines and lines[0] == "n,t,dt,kind,x,y,z,lambda_pre", "bad CSV header")
    rows = [line.split(",") for line in lines[1:]]
    _require(len(rows) > 1000, f"only {len(rows)} events")
    _require(all(len(r) == 8 for r in rows), "row with a wrong field count")
    _require(all(r[3] == "event" for r in rows), "natural chain logged a non-event")
    n = np.array([int(r[0]) for r in rows])
    t, dt, x, y, z, lam = (np.array([float(r[j]) for r in rows]) for j in (1, 2, 4, 5, 6, 7))
    _require(np.array_equal(n, np.arange(1, len(rows) + 1)), "n is not 1, 2, 3, ...")
    _require(np.all(np.isfinite(np.stack([t, dt, x, y, z, lam]))), "non-finite value")
    _require(np.all(dt > 0) and np.all(np.diff(t) > 0), "times not strictly increasing")
    _require(t[-1] < wl.CATALOG_HORIZON, "event past the horizon")
    # t_i is the float running sum t_{i-1} + dt_i: equal up to its rounding
    prev_t = np.concatenate([[0.0], t[:-1]])
    _require(
        np.all(np.abs(t - (prev_t + dt)) <= np.spacing(t)),
        "t is not the running sum of dt",
    )

    x_pre = np.concatenate([[wl.INITIAL["x"]], x[:-1]])
    y_pre = np.concatenate([[wl.INITIAL["y"]], y[:-1]])
    decay = np.exp(-alpha * dt)
    x_want = x_pre + c * dt - z
    _require(
        np.all(_rel_close(x, x_want, np.abs(x_pre) + c * dt + z, 1e-12)),
        "x recurrence x' = x + c*dt - z broken",
    )
    y_want = y_pre * decay + k
    _require(np.all(_rel_close(y, y_want, y_want, 1e-12)), "y recurrence y' = y*exp(-alpha*dt) + k broken")
    lam_want = np.exp(s * (x_pre + c * dt)) + y_pre * decay
    _require(np.all(_rel_close(lam, lam_want, lam_want, 1e-12)), "lambda_pre is not phi(x) + y before the event")

    # time rescaling (Ogata 1988): compensator increments are iid Exp(1)
    comp = np.exp(s * x_pre) * np.expm1(s * c * dt) / (s * c) - y_pre * np.expm1(-alpha * dt) / alpha
    d = ks_exp1(comp)
    crit = ks_critical(comp.size, None, 0.001)
    _require(d < crit, f"compensator increments fail KS vs Exp(1): D={d:.5f} >= {crit:.5f}")

    # stationary rate c/E[Z] from 20 equal batches after burn-in
    edges = np.linspace(wl.BURN_IN_FRACTION * wl.CATALOG_HORIZON, wl.CATALOG_HORIZON, 21)
    rates = np.diff(np.searchsorted(t, edges, side="right")) / (edges[1] - edges[0])
    mean, se = _batch_mean_se(rates)
    want = stationary_rate()
    _require(abs(mean - want) <= 4 * se, f"event rate {mean:.5f} is {abs(mean - want) / se:.1f} se from {want}")


def check_replicas(text: str) -> None:
    """Rate JSON of `rate` with 8 replicas."""
    body = json.loads(text)
    want = stationary_rate()
    reps = body["per_replica"]
    _require(len(reps) == wl.REPLICAS == body["replications"], "wrong replica count")
    _require(body["rate_theory"] == want, f"rate_theory {body['rate_theory']} != c/E[Z] = {want}")
    for i, r in enumerate(reps):
        _require(r["rate_se"] > 0 and math.isfinite(r["rate_hat"]), f"replica {i}: no rate estimate")
        _require(abs(r["rate_hat"] - want) <= 4 * r["rate_se"], f"replica {i}: rate {r['rate_hat']} off c/E[Z]")
        d = r["diagnostics"]
        _require(
            abs(d["balance_residual"]) <= 4 * d["balance_residual_se"],
            f"replica {i}: balance residual {d['balance_residual']} off zero",
        )
    rates = np.array([r["rate_hat"] for r in reps])
    mean, se = _batch_mean_se(rates)
    pooled = body["pooled"]
    _require(abs(pooled["rate_hat"] - mean) <= 1e-12 * mean, "pooled rate is not the replica mean")
    _require(abs(pooled["rate_se"] - se) <= 1e-9 * se, "pooled se is not the replica standard error")
    _require(abs(mean - want) <= 4 * se, f"pooled rate {mean} off c/E[Z]")


def check_foster(text: str) -> dict:
    """Foster JSON; returns the drift configuration it reports."""
    body = json.loads(text)
    cfg = body["foster_config"]
    checks = body["report"]["checks"]
    _require(checks, "empty Foster report")
    for chk in checks:
        m = chk["margin"]
        _require(isinstance(m, (int, float)) and math.isfinite(m) and m >= 0, f"Foster margin {chk['name']} = {m}")
    r1, r2, r3 = wl.WEIGHTS
    _require((cfg["r1"], cfg["r2"], cfg["r3"]) == (r1, r2, r3), "weights differ from the command line")
    k, alpha, ez = wl.MODEL["k"], wl.MODEL["alpha"], wl.MODEL["z"]["mean"]
    delta = (alpha - k) / 2.0
    gamma = min(r2 * delta - r3 * ez, r1 * ez - r2 * k) / 3.0
    _require(abs(cfg["delta"] - delta) <= 1e-12 * delta, f"delta {cfg['delta']} != (alpha - k)/2 = {delta}")
    _require(abs(cfg["gamma"] - gamma) <= 1e-12 * gamma, f"gamma {cfg['gamma']} != {gamma}")
    _require(cfg["x1"] <= -wl.MODEL["c"] * cfg["v0"], "x1 > -c*v0")
    return cfg


def check_drift(text: str, cfg: dict) -> None:
    """Drift CSV over the default grid, against the Foster configuration."""
    rows = list(csv.DictReader(io.StringIO(text)))
    _require(len(rows) == wl.DRIFT_STATES, f"{len(rows)} drift rows, expected {wl.DRIFT_STATES}")
    for row in rows:
        x, y, mean, se = (float(row[key]) for key in ("x", "y", "mean", "se"))
        _require(all(math.isfinite(v) for v in (x, y, mean, se)), f"non-finite drift row {row}")
        _require(int(row["n"]) == wl.DRIFT_DRAWS, f"drift row with n={row['n']}")
        inside = cfg["x1"] <= x <= cfg["x0"] and 0.0 <= y <= cfg["y0"]
        _require(not inside and row["inside_v"] == "False", f"drift state ({x}, {y}) is inside V")
        _require(mean <= -cfg["gamma"] + 4 * se, f"drift at ({x}, {y}) is {mean}, not below -gamma")


def check_converge(text: str) -> None:
    """Two-chain KS table of `converge`."""
    rows = list(csv.DictReader(io.StringIO(text)))
    n = wl.CONVERGE_REPLICATIONS
    _require([float(r["t"]) for r in rows] == list(wl.CONVERGE_GRID), "KS table rows differ from the t-grid")
    thr = ks_critical(n, n, 0.01)
    crit = ks_critical(n, n, 0.001)
    for r in rows:
        _require(abs(float(r["threshold"]) - thr) <= 1e-12 * thr, f"threshold {r['threshold']} != {thr}")
        ks = (float(r["ks_x"]), float(r["ks_y"]))
        _require(all(0.0 <= v <= 1.0 for v in ks), f"KS distance outside [0, 1] at t={r['t']}")
        _require(r["below"] == str(max(ks) <= float(r["threshold"])), f"'below' is wrong at t={r['t']}")
    first = max(float(rows[0]["ks_x"]), float(rows[0]["ks_y"]))
    last = max(float(rows[-1]["ks_x"]), float(rows[-1]["ks_y"]))
    _require(last < crit, f"chains not converged at t={rows[-1]['t']}: KS {last} >= {crit:.4f}")
    _require(first > crit, f"chains already indistinguishable at t={rows[0]['t']}: KS {first} <= {crit:.4f}")


def check(name: str, outputs: dict[str, str]) -> None:
    """Check the outputs of one operation of workload `name`, given as a
    map from output file name to its text."""
    if name == "catalog":
        check_catalog(outputs["events.csv"])
    elif name == "replicas":
        check_replicas(outputs["rate.json"])
    elif name == "drift":
        check_drift(outputs["drift.csv"], check_foster(outputs["foster.json"]))
    elif name == "converge":
        check_converge(outputs["ks.csv"])
    else:
        raise ValueError(f"unknown workload {name!r}")
