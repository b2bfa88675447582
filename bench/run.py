#!/usr/bin/env python3
"""Desk-scene benchmark for surfplan: one workload per invocation.

    python3 bench/run.py --workload desk_plan --seed 0 --seconds 30 --trace 0

Run it from the repository root; it imports the package from ``src/``.
With ``--trace 0`` it times a fixed number of operations, as many as take
``--seconds`` seconds at the workload's nominal pace, so that a seed always
gives the same operations, and prints the end-to-end metrics; with
``--trace 1`` it runs half as many, each twice, plain and traced, checks
that both give identical results, and prints the per-layer metrics.  Every
returned plan is checked; a failed check makes the run exit 1.  The last
stdout line is the JSON result.  ``--scale desk`` runs one untimed pass at
the full criterion-7/8 sizes instead (minutes per workload).  See
``bench/README.md``.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, "bench-out")
SETUP_REPEATS = 9
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name, unit, better, bound
END_TO_END = [
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("min_rate_bps", "bps", "higher", 0.15),
    ("lifted_objective", "bps", "higher", 0.15),
    ("peak_rss_mb", "MB", "lower", 0.15),
]

SETUP_CHILD = """
import time
t0 = time.perf_counter()
import surfplan
from surfplan.channel import synthesize_channels
from surfplan.scenes import desk_scene
synthesize_channels(desk_scene(seed={seed}, **{dims!r}))
print(time.perf_counter() - t0)
"""


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ[v] for v in THREAD_VARS},
        "commit": _git_commit(),
    }


def measure_setup(dims: dict, seed: int) -> float:
    """Median over fresh processes of package import plus channel synthesis."""
    env = dict(os.environ, PYTHONPATH=SRC)
    code = SETUP_CHILD.format(seed=seed, dims=dims)
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_op(workload, inp, tracer=None):
    """(seconds, raw result or None); an exception is printed, not raised."""
    from layers import OP_SPAN

    t0 = time.perf_counter()
    try:
        if tracer is None:
            raw = workload.run(inp)
        else:
            raw = tracer.call(OP_SPAN, workload.run, (inp,), {})
    except Exception:
        traceback.print_exc(file=sys.stderr)
        raw = None
    return time.perf_counter() - t0, raw


def outcome_of(workload, inp, raw):
    return workload.failed_outcome(inp) if raw is None else workload.outcome(inp, raw)


def benchmark(workload, seed: int, seconds: float, trace: bool):
    """Run the operations sized by ``seconds``; returns the run's record."""
    from layers import targets
    from tracer import Tracer

    tracer = Tracer() if trace else None
    record = {"times": [], "outcomes": [], "tracer": tracer}
    for index in range(workload.operations(seconds, trace)):
        inp = workload.prepare(seed, index)
        dt, raw = run_op(workload, inp)
        out = outcome_of(workload, inp, raw)
        if trace:
            tracer.run = index
            with tracer:
                tracer.install(targets())
                traced_inp = workload.prepare(seed, index)
                _, traced_raw = run_op(workload, traced_inp, tracer)
            twin = outcome_of(workload, traced_inp, traced_raw)
            if (twin.fingerprint, twin.rates) != (out.fingerprint, out.rates):
                out.problems.append("traced operation returned a different result")
        print(f"op {index}: {dt:.3f} s, {out.attempted} attempted, {out.failed} failed, "
              f"rates {[round(r, 6) for r in out.rates]}", file=sys.stderr)
        record["times"].append(dt)
        record["outcomes"].append(out)
    return record


def end_to_end_metrics(record, setup_s: float) -> dict:
    rates = [r for o in record["outcomes"] for r in o.rates]
    objectives = [v for o in record["outcomes"] for v in o.objectives]
    median = lambda xs: statistics.median(xs) if xs else 0.0
    return {
        "setup_s": setup_s,
        "wall_s": median(record["times"]),
        "min_rate_bps": median(rates),
        "lifted_objective": median(objectives),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("bench", "desk"), default="bench")
    args = parser.parse_args(argv)

    # pin BLAS and OpenMP before numpy loads, in this process and its children
    os.environ.update({v: "1" for v in THREAD_VARS})
    if not os.path.isfile(os.path.join(SRC, "surfplan", "__init__.py")):
        print(f"error: no surfplan package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import surfplan

    if not os.path.abspath(surfplan.__file__).startswith(SRC + os.sep):
        print(f"error: imported surfplan from {surfplan.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    os.makedirs(OUT_DIR, exist_ok=True)
    scale = workloads.SCALES[args.scale]
    workload = workloads.WORKLOADS[args.workload](scale, OUT_DIR)
    print("environment " + json.dumps(environment(), sort_keys=True))

    setup_s = 0.0 if args.trace else measure_setup(
        workload.dims, workloads.instance_seed(args.seed, 0))
    record = benchmark(workload, args.seed, args.seconds, bool(args.trace))

    if args.trace:
        tracer = record["tracer"]
        values = layers.layer_metrics(tracer.spans, sum(record["times"]))
        units = layers.UNITS
        tracer.write(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.jsonl"))
    else:
        values = end_to_end_metrics(record, setup_s)
        units = {name: unit for name, unit, _, _ in END_TO_END}

    problems = [p for o in record["outcomes"] for p in o.problems]
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in record["outcomes"]),
        "failed": sum(o.failed for o in record["outcomes"]),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
