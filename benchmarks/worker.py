"""One benchmark process: set up a workload, then run its operations.

Started by run.py, never by hand.  The set-up clock starts before quakesim
(and with it numpy) is imported.  With --setup-only the process stops after
the warm-up operation.  Otherwise it runs operations one at a time for
--seconds and prints one JSON line of raw samples for run.py to reduce.
With --trace 1 the operations alternate between untraced and traced, so
that the tracing overhead is measured under the same conditions.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import workloads  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import quakesim from this checkout's sources, never from elsewhere."""
    sys.path.insert(0, SRC)
    import quakesim
    from quakesim.cli import run_command

    where = os.path.dirname(os.path.abspath(quakesim.__file__))
    if where != os.path.join(SRC, "quakesim"):
        raise ImportError(f"quakesim imported from {where}, not from {SRC}")
    return run_command


def children_cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def output_digest(work: workloads.Workload) -> tuple[str, int]:
    h = hashlib.sha256()
    size = 0
    for name in work.outputs:
        with open(work.output_path(name), "rb") as f:
            data = f.read()
        h.update(len(data).to_bytes(8, "little"))
        h.update(data)
        size += len(data)
    return h.hexdigest(), size


def run_op(run_command, work: workloads.Workload, tracer=None) -> bool:
    """One operation; True when every command exits with 0."""
    for argv in work.argvs:
        try:
            code = tracer.run_root(run_command, list(argv)) if tracer else run_command(list(argv))
        except Exception:  # a crash is a failed operation, not a failed run
            traceback.print_exc()
            return False
        if code != 0:
            print(f"quakesim {' '.join(argv)} exited with {code}", file=sys.stderr)
            return False
    return True


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    run_command = import_program()
    work = workloads.prepare(args.workload, args.seed, args.workdir)
    if not run_op(run_command, work):
        print(f"warm-up operation of {args.workload} failed", file=sys.stderr)
        return 1
    reference, _ = output_digest(work)
    setup_s = time.perf_counter() - _T_START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    # keep the warm-up outputs for the checks in run.py
    checked = os.path.join(args.workdir, "checked")
    os.makedirs(checked, exist_ok=True)
    for name in work.outputs:
        shutil.copyfile(work.output_path(name), os.path.join(checked, name))

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
    ops = []
    spans = []
    deadline = time.perf_counter() + args.seconds
    while True:
        traced = tracer is not None and len(ops) % 2 == 1
        if traced:
            tracer.install()
            tracer.begin_op()
        gc.collect()
        cpu0 = time.process_time() + children_cpu_s()
        t0 = time.perf_counter()
        ok = run_op(run_command, work, tracer if traced else None)
        t1 = time.perf_counter()
        cpu1 = time.process_time() + children_cpu_s()
        if traced:
            tracer.uninstall()
        digest, size = output_digest(work) if ok else (None, 0)
        ops.append(
            {"wall_s": t1 - t0, "cpu_s": cpu1 - cpu0, "ok": ok, "same_output": digest == reference,
             "output_bytes": size, "traced": traced}
        )
        if traced:
            trace = tracer.end_op()
            ops[-1]["layers"] = tracing.layer_metrics(trace)
            spans.append(tracing.serialisable(trace))
        # stop only after whole rounds: one operation, or an untraced and
        # a traced one when tracing
        if t1 >= deadline and (tracer is None or traced):
            break

    result = {"setup_s": setup_s, "peak_rss_mb": peak_rss_mb(), "ops": ops}
    if tracer is not None:
        result["spans"] = spans
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
