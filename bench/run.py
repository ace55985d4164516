"""specres benchmark: one command for every workload, metric and oracle.

Usage, from the root of a checkout::

    python3 bench/run.py --workload scan|calculus|eigen --seed N --seconds S --trace 0|1

The run measures set-up time in fresh processes, then runs one untimed
warm-up pass over the workload's operation list and as many timed passes
as fit the rest of ``--seconds`` (at least three), checking every output
against its oracle after each pass.  With ``--trace 0`` the last stdout
line carries the end-to-end metrics; with ``--trace 1`` one more pass
runs under the span tracer and the last line carries the per-layer
metrics.  The line before it records the inputs, the models' N and |S|,
and the machine settings.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 3
MIN_PASSES = 3   # timed passes, besides the warm-up: the median drops one slow pass
PROBE_TIMEOUT_S = 60


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("scan", "calculus", "eigen"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only import and build the workload, then exit (set-up timing)")
    return parser.parse_args(argv)


def measure_setup(args):
    """Median wall time from starting a fresh process to the end of its set-up.

    The probe prints the wall-clock time at which its set-up finished, so
    interpreter teardown and the parent's polling for the exit stay out.
    """
    cmd = [sys.executable, str(BENCH_DIR / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", "0", "--setup-probe"]
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.time()
        probe = subprocess.run(cmd, check=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
                               capture_output=True, text=True)
        times.append(float(probe.stdout.split()[-1]) - t0)
    return statistics.median(times)


def environment():
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    try:
        import threadpoolctl  # noqa: F401
        limits = "threadpoolctl"
    except ImportError:
        limits = "none (threadpoolctl missing: cli --threads sizes only the Python pool)"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "blas_thread_limits": limits,
        "nproc": os.cpu_count(),
    }


def run_pass(wl, tracer=None):
    """One timed pass over the operation list, traced when a tracer is given.

    Returns (ctx, outputs, wall seconds, per-operation seconds).
    """
    ctx = wl.prepare()
    outputs, op_s = {}, {}
    if tracer is not None:
        tracer.install()
    try:
        t_pass = time.perf_counter()
        for op_id, op in enumerate(wl.ops):
            if tracer is not None:
                tracer.op_id = op_id
            t0 = time.perf_counter()
            try:
                outputs[op.name] = op.run(ctx)
            except Exception as exc:  # a failed operation is counted, not fatal
                outputs[op.name] = exc
            op_s[op.name] = time.perf_counter() - t0
        wall = time.perf_counter() - t_pass
    finally:
        if tracer is not None:
            tracer.uninstall()
    return ctx, outputs, wall, op_s


def check_pass(wl, ctx, outputs):
    """Oracle verdicts, outside the timed region: list of (op, reason)."""
    failures = []
    for op in wl.ops:
        out = outputs.get(op.name)
        if isinstance(out, Exception):
            failures.append((op.name, f"raised {type(out).__name__}: {out}"))
            continue
        try:
            reason = op.check(ctx, outputs)
        except Exception:  # an oracle that cannot read the output is a miss
            reason = "oracle error: " + traceback.format_exc(limit=2).strip().splitlines()[-1]
        if reason:
            failures.append((op.name, reason))
    return failures


def remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        workdir.parent.rmdir()   # only when no other run is using it
    except OSError:
        pass


def main(argv=None):
    args = parse_args(argv)
    if not (ROOT / "src" / "specres" / "__init__.py").is_file():
        print(f"benchmark: no specres sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for var in BLAS_ENV:  # before numpy is imported, here and in set-up probes
        os.environ[var] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"

    if args.setup_probe:
        import workloads

        try:
            workloads.build(args.workload, args.seed, str(workdir))
            print(repr(time.time()))
        finally:
            remove_workdir(workdir)
        return 0

    setup_s = measure_setup(args)
    import workloads
    from tracing import Tracer

    try:
        wl = workloads.build(args.workload, args.seed, str(workdir))
        # The warm-up pass is checked but not timed: the first pass in a
        # process pays for growing the allocator's heap (page faults),
        # which later passes reuse.  Its length sizes the timed passes.
        t_start = time.perf_counter()
        ctx, outputs, _, _ = run_pass(wl)
        failures = check_pass(wl, ctx, outputs)
        attempted = len(wl.ops)
        warm_s = time.perf_counter() - t_start
        passes = max(MIN_PASSES, round((args.seconds - warm_s) / warm_s))
        walls, op_times = [], []
        while len(walls) < passes:
            ctx, outputs, wall, op_s = run_pass(wl)
            failures += check_pass(wl, ctx, outputs)
            attempted += len(wl.ops)
            walls.append(wall)
            op_times.append(op_s)
        wall_s = statistics.median(walls)
        if args.trace:
            tracer = Tracer()
            ctx, outputs, traced_wall, _ = run_pass(wl, tracer)
            failures += check_pass(wl, ctx, outputs)
            attempted += len(wl.ops)
            metrics = tracer.metrics(traced_wall, wall_s)
        else:
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {
                "setup_s": (setup_s, "s"),
                "wall_s": (wall_s, "s"),
                "solved_ratio": ((attempted - len(failures)) / attempted, "1"),
                "peak_rss_mb": (rss_mb, "MB"),
            }
        record = {
            "workload": args.workload,
            "seed": args.seed,
            "inputs": wl.inputs,
            "warmup_wall_s": warm_s,
            "passes": len(walls),
            "pass_wall_s": walls,
            "op_wall_s_median": {name: statistics.median(t[name] for t in op_times)
                                 for name in op_times[0]},
            "failures": failures,
            "models": workloads.model_sizes(wl.models),
            "environment": environment(),
        }
    finally:
        remove_workdir(workdir)

    print(json.dumps({"record": record}, default=repr))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
