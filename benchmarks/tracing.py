"""Span tracing of quakesim from outside the program.

`Tracer.install` wraps public functions of each quakesim module in the
namespace where the calling module looks them up (``quakesim.chain`` calls
``sample_interevent`` through its own globals, the CLI calls
``analysis.estimate_rates`` through the module attribute, and so on), and
`Tracer.uninstall` puts the originals back.  The program itself is never
edited.

A span is one call of a wrapped function.  Spans nest per thread; a span's
self time is its duration minus that of its child spans.  The root span is
one ``run_command`` call made by the benchmark; its self time subtracts the
union of the intervals of its direct children, which may run on other
threads (the replica fan-out).  Fine-grained spans are aggregated per name
(calls, inclusive and self seconds, and a work count); spans directly under
the root are also kept whole, so that an operation's trace can be written
out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from dataclasses import dataclass, field

_perf = time.perf_counter

# (module where the caller looks the name up, attribute, span name, kind)
# kind: "plain"; "scalar" records only calls with a scalar argument;
# "batch" counts array elements as work; "simulate" counts events as work;
# "fanout" is a simulate whose interval also enters the fan-out figure.
INSTRUMENTED = (
    ("quakesim.cli", "simulate", "chain.simulate", "fanout"),
    ("quakesim.analysis", "simulate", "chain.simulate", "simulate"),
    ("quakesim.analysis", "state_at", "chain.state_at", "plain"),
    ("quakesim.analysis", "window_integrals", "chain.window_integrals", "plain"),
    ("quakesim.analysis", "estimate_rates", "analysis.estimate_rates", "plain"),
    ("quakesim.analysis", "convergence_diagnostic", "analysis.convergence", "plain"),
    ("quakesim.analysis", "ks_two_sample", "stats.ks", "plain"),
    ("quakesim.analysis", "sample_primary_times", "sampler.batch", "batch"),
    ("quakesim.analysis", "sample_secondary_times", "sampler.batch", "batch"),
    ("quakesim.chain", "sample_interevent", "sampler.interevent", "plain"),
    ("quakesim.chain", "intensity_saturated", "model.intensity_saturated", "plain"),
    ("quakesim.chain", "phi_eval", "model.phi_eval", "scalar"),
    ("quakesim.model", "phi_eval", "model.phi_eval", "scalar"),
    ("quakesim.foster", "foster_params", "foster.params", "plain"),
    ("quakesim.foster", "validate_foster", "foster.validate", "plain"),
    ("quakesim.foster", "estimate_drift", "foster.drift", "plain"),
    ("quakesim.foster", "mean_ci", "stats.mean_ci", "plain"),
    ("quakesim.foster", "sample_primary_times", "sampler.batch", "batch"),
    ("quakesim.foster", "sample_secondary_times", "sampler.batch", "batch"),
    ("quakesim.foster", "primary_times_from_exponentials", "sampler.batch", "batch"),
    ("quakesim.foster", "secondary_times_from_uniforms", "sampler.batch", "batch"),
)

# positional index of the count (n) or array argument of each batch function
_BATCH_WORK = {
    "sample_primary_times": (4, "n"),
    "sample_secondary_times": (3, "n"),
    "primary_times_from_exponentials": (3, "e"),
    "secondary_times_from_uniforms": (2, "u"),
}


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    work: int = 0


@dataclass
class OpTrace:
    """The trace of one operation."""

    stats: dict[str, Aggregate] = field(default_factory=dict)
    roots: list[dict] = field(default_factory=list)

    def get(self, name: str) -> Aggregate:
        return self.stats.get(name, Aggregate())


class Tracer:
    """Records spans while installed; one operation at a time."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._thread_stats: list[dict[str, Aggregate]] = []
        self._root: list[float] | None = None
        self._children: list[tuple[str, float, float]] = []
        self._fanout: list[tuple[float, float]] = []
        self._roots: list[dict] = []
        self._patches: list[tuple[object, str, object]] = []

    def _state(self):
        loc = self._local
        try:
            return loc.stack, loc.stats
        except AttributeError:
            loc.stack, loc.stats = [], {}
            with self._lock:
                self._thread_stats.append(loc.stats)
            return loc.stack, loc.stats

    def _wrap(self, fn, name: str, kind: str):
        tracer = self
        fanout = kind == "fanout"
        counts_events = kind in ("simulate", "fanout")
        batch = _BATCH_WORK.get(fn.__name__) if kind == "batch" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if kind == "scalar" and not isinstance(args[1], (float, int)):
                return fn(*args, **kwargs)
            stack, stats = tracer._state()
            frame = [0.0]
            stack.append(frame)
            t0 = _perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _perf()
                stack.pop()
            dt = t1 - t0
            agg = stats.get(name)
            if agg is None:
                agg = stats[name] = Aggregate()
            agg.calls += 1
            agg.total_s += dt
            agg.self_s += dt - frame[0]
            if counts_events:
                agg.work += result.event_count
            elif batch is not None:
                pos, key = batch
                arg = args[pos] if len(args) > pos else kwargs[key]
                agg.work += arg if isinstance(arg, int) else len(arg)
            # counting the work is tracer cost: charge it to no layer
            t2 = _perf()
            root = tracer._root
            if stack and stack[-1] is not root:
                stack[-1][0] += t2 - t0
            elif root is not None:
                tracer._children.append((name, t0, t2))
                if fanout:
                    tracer._fanout.append((t0, t1))
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in INSTRUMENTED."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, kind in INSTRUMENTED:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name, kind))

    def uninstall(self) -> None:
        """Put every wrapped function back."""
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)
        self._patches.clear()

    def run_root(self, fn, *args):
        """Call fn(*args) as a root span; returns its result."""
        if self._root is not None:
            raise RuntimeError("nested root span")
        stack, _ = self._state()
        self._root, self._children, self._fanout = [0.0], [], []
        stack.append(self._root)
        t0 = _perf()
        try:
            return fn(*args)
        finally:
            t1 = _perf()
            stack.pop()
            self._root = None
            covered = _union_length([(a, b) for _, a, b in self._children])
            self._roots.append(
                {
                    "start": t0,
                    "end": t1,
                    "self_s": (t1 - t0) - covered,
                    "children": self._children,
                    "fanout": self._fanout,
                }
            )

    def begin_op(self) -> None:
        with self._lock:
            for stats in self._thread_stats:
                stats.clear()
        self._roots = []

    def end_op(self) -> OpTrace:
        """The trace of the operation since `begin_op`."""
        merged: dict[str, Aggregate] = {}
        with self._lock:
            for stats in self._thread_stats:
                for name, agg in stats.items():
                    m = merged.setdefault(name, Aggregate())
                    m.calls += agg.calls
                    m.total_s += agg.total_s
                    m.self_s += agg.self_s
                    m.work += agg.work
        return OpTrace(merged, self._roots)


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total = 0.0
    end = float("-inf")
    for a, b in sorted(intervals):
        if b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


def fanout_parallelism(op: OpTrace) -> float:
    """Sum of the replica simulate spans over the wall time of the replica
    section, summed over the operation's commands; 0 without a fan-out."""
    spans = [s for root in op.roots for s in root["fanout"]]
    if not spans:
        return 0.0
    busy = sum(b - a for a, b in spans)
    wall = sum(
        max(b for _, b in root["fanout"]) - min(a for a, _ in root["fanout"])
        for root in op.roots
        if root["fanout"]
    )
    return busy / wall


def layer_metrics(op: OpTrace) -> dict[str, float]:
    """Per-layer figures of one traced operation (output bytes and the
    tracing overhead are added by the caller)."""
    g = op.get
    sim = g("chain.simulate")
    return {
        "cli.self_s": sum(root["self_s"] for root in op.roots),
        "cli.fanout_parallelism": fanout_parallelism(op),
        "chain.simulate_s": sim.total_s,
        "chain.simulate_calls": sim.calls,
        "chain.events": sim.work,
        "chain.us_per_event": 1e6 * sim.total_s / sim.work if sim.work else 0.0,
        "chain.state_at_s": g("chain.state_at").total_s,
        "chain.state_at_calls": g("chain.state_at").calls,
        "sampler.interevent_s": g("sampler.interevent").total_s,
        "sampler.interevent_calls": g("sampler.interevent").calls,
        "model.phi_eval_calls": g("model.phi_eval").calls,
        "model.phi_eval_s": g("model.phi_eval").total_s,
        "model.intensity_saturated_s": g("model.intensity_saturated").total_s,
        "sampler.batch_draws": g("sampler.batch").work,
        "sampler.batch_s": g("sampler.batch").total_s,
        "analysis.estimate_rates_s": g("analysis.estimate_rates").total_s,
        "chain.window_integrals_calls": g("chain.window_integrals").calls,
        "analysis.convergence_self_s": g("analysis.convergence").self_s,
        "stats.ks_s": g("stats.ks").total_s,
        "foster.params_s": g("foster.params").total_s,
        "foster.validate_s": g("foster.validate").total_s,
        "foster.drift_s": g("foster.drift").total_s,
        "stats.mean_ci_s": g("stats.mean_ci").total_s,
    }


def serialisable(op: OpTrace) -> dict:
    """An operation's trace as JSON-ready data: every root span with its
    direct children, and the per-name aggregates."""
    return {
        "roots": [
            {
                "name": "cli.run_command",
                "id": i,
                "start": root["start"],
                "end": root["end"],
                "self_s": root["self_s"],
                "children": [
                    {"name": name, "parent": i, "start": a, "end": b} for name, a, b in root["children"]
                ],
            }
            for i, root in enumerate(op.roots)
        ],
        "aggregates": {name: vars(agg) for name, agg in sorted(op.stats.items())},
    }
