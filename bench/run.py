"""Benchmark of the dispersionless toolkit: one workload per run.

Usage (from the repository root):

    python3 bench/run.py --workload reconstruct --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the run measures the end-to-end metrics: a closed loop
with one caller runs whole rounds of seeded tasks until ``--seconds`` have
passed and at least MIN_TASKS tasks ran.  Only the calls into
``dispersionless`` are timed; input generation and output checks run
between them.  ``setup_s`` is the median time of fresh interpreters
importing the package, spread over the run.

On a shared machine the speed drifts over seconds to minutes, and a slow
spell slows the program and any other code alike.  So after each task,
and around each set-up import, the run times fixed calibration chunks that
use no code of the package, and it reports every time at the reference
speed, at which one chunk takes CAL_REF_S seconds: a measured time is
multiplied by (reference chunk time / measured chunk time) of its own round
or import.  The unscaled figures are printed as well.

With ``--trace 1`` the run times a fixed set of rounds twice, untraced and
under the span tracer in alternating order, and reports the per-layer
metrics and the tracing overhead.  Spans go to
``bench/_out/spans-<workload>.jsonl``.

Human-readable lines come first; the last line of standard output is the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import os

# BLAS and OpenMP pools are pinned to one thread in the workload process and
# in its set-up children, before numpy is first imported.
THREAD_PIN = {name: "1" for name in
              ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
os.environ.update(THREAD_PIN)

import argparse
import functools
import gc
import hashlib
import json
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")

MIN_TASKS = 100
SETUP_RUNS = 9
# calibration: seconds one chunk takes at the reference speed, and the
# calibration time spent per second of timed task time
CAL_REF_S = 0.0005
CAL_SHARE = 0.05
# rounds timed by a traced run; fixed so that call counts repeat exactly
TRACE_ROUNDS = {"reconstruct": 6, "jointmeas": 6, "subensemble": 4, "cli": 10}


@functools.cache
def _cal_inputs():
    import numpy as np

    rng = np.random.default_rng(2018)
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    g = np.array([[0.8, -0.6j], [-0.6j, 0.8]])  # a unitary 2 x 2 rotation
    return np, a + a.conj().T, g, rng.standard_normal(1 << 16)


def calibrate(seconds: float) -> tuple[int, float]:
    """Run fixed calibration chunks for about ``seconds`` at the reference
    speed; returns (chunks run, wall time they took).

    A chunk does the kind of work the package's tasks do, with code of its
    own: Jacobi-style 2 x 2 rotations of a small complex matrix by numpy
    fancy indexing from a Python loop, a LAPACK Hermitian eigensolve, array
    arithmetic and sorting, and plain Python dict work.
    """
    np, herm, g, vec = _cal_inputs()
    gh = g.conj().T
    chunks = max(1, round(seconds / CAL_REF_S))
    start = time.perf_counter()
    for _ in range(chunks):
        a = herm[:6, :6].copy()
        for p in range(5):
            for q in range(p + 1, 6):
                a[:, [p, q]] = a[:, [p, q]] @ g
                a[[p, q], :] = gh @ a[[p, q], :]
        np.linalg.eigh(herm)
        np.sort(vec[: 1 << 12] * 2.0)
        sorted({(i * 7919) % 997: i for i in range(200)}.items())
    return chunks, time.perf_counter() - start


def import_time() -> tuple[float, float]:
    """Wall time of a fresh interpreter importing the package, and the
    speed factor (reference / measured calibration time) around it."""
    before = calibrate(0.015)
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import dispersionless"],
                   env=dict(os.environ, PYTHONPATH=SRC), cwd=ROOT, check=True)
    wall = time.perf_counter() - start
    after = calibrate(0.015)
    return wall, (before[0] + after[0]) * CAL_REF_S / (before[1] + after[1])


@functools.cache
def stamp() -> dict:
    """Versions and settings that a result depends on."""
    import numpy as np

    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dispersionless")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10,
                             env=dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT)),
                             ).stdout.strip() or None
    except OSError:
        sha = None
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pin": {k: os.environ.get(k) for k in THREAD_PIN},
    }


class Runner:
    """Runs rounds of one workload's tasks and keeps latencies and failures."""

    def __init__(self, workload, seed, workdir, tracer=None):
        # imported here: workloads imports the package, which main() first
        # puts on sys.path
        import numpy as np
        import workloads

        self.np = np
        self.make_round = workloads.WORKLOADS[workload]
        self.output_bytes = workloads.output_bytes
        self.index = list(workloads.WORKLOADS).index(workload)
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.rounds = []  # task latencies of each checked round, in seconds
        self.speeds = []  # speed factor of each checked round
        self.attempted = 0
        self.failures = []

    def tasks(self, round_no):
        rng = self.np.random.default_rng([self.seed, self.index, round_no])
        return self.make_round(rng, self.workdir)

    def run_round(self, round_no, check=True):
        """Run, time and check one round; returns its timed seconds."""
        latencies = []
        chunks, cal_s = 0, 0.0
        tasks = self.tasks(round_no)
        for k, task in enumerate(tasks):
            task_id = f"{round_no}.{k}"
            error = output = None
            start = time.perf_counter()
            try:
                if self.tracer is None:
                    output = task.call(task.inputs)
                else:
                    output = self.tracer.task(task_id, task.call, task.inputs)
            except Exception as exc:  # an unexpected raise is a failed task
                error = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
            n, t = calibrate(CAL_SHARE * elapsed)
            chunks, cal_s = chunks + n, cal_s + t
            if not check:
                continue
            if error is None:
                try:
                    task.check(task.inputs, output)
                except Exception as exc:  # any oracle mismatch or crash fails the task
                    error = f"{type(exc).__name__}: {exc}"
            if self.tracer is not None and error is None:
                self.tracer.output_bytes += self.output_bytes(task, output)
            self.attempted += 1
            latencies.append(elapsed)
            if error is not None:
                self.failures.append((task_id, task.describe(), error))
        if check:
            self.rounds.append(latencies)
            self.speeds.append(chunks * CAL_REF_S / cal_s)
        gc.collect()
        return sum(latencies)


def end_to_end(args, workdir):
    runner = Runner(args.workload, args.seed, workdir)
    import_time()  # the first import also writes bytecode caches
    runner.run_round(0, check=False)  # warm-up: lazy imports, caches
    setup = []  # (wall s, speed factor) of each set-up import
    begin = time.perf_counter()
    round_no = 1
    while (elapsed := time.perf_counter() - begin) < args.seconds \
            or runner.attempted < MIN_TASKS:
        if len(setup) < SETUP_RUNS * elapsed / max(args.seconds, 1e-9):
            setup.append(import_time())  # spread over the run, like the rounds
        runner.run_round(round_no)
        round_no += 1
    while len(setup) < SETUP_RUNS:
        setup.append(import_time())
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def task_metrics(scale):
        lat_ms = [x * f * 1e3 for latencies, f in zip(runner.rounds, scale) for x in latencies]
        return (len(lat_ms) / sum(lat_ms) * 1e3, statistics.median(lat_ms),
                statistics.quantiles(lat_ms, n=10, method="inclusive")[8])

    per_s, p50, p90 = task_metrics(runner.speeds)
    metrics = {
        "tasks_per_s": (per_s, "1/s"),
        "task_p50_ms": (p50, "ms"),
        "task_p90_ms": (p90, "ms"),
        "setup_s": (statistics.median(wall * f for wall, f in setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    raw = task_metrics([1.0] * len(runner.rounds))
    speeds = sorted(runner.speeds)
    notes = [
        f"{runner.attempted} tasks in {len(runner.rounds)} rounds; {len(setup)} set-up imports",
        f"speed factor of the rounds (reference / measured calibration time): median "
        f"{statistics.median(speeds):.3f}, range {speeds[0]:.3f}-{speeds[-1]:.3f}",
        f"unscaled: tasks_per_s {raw[0]:.4g} 1/s, task_p50_ms {raw[1]:.4g} ms, "
        f"task_p90_ms {raw[2]:.4g} ms, setup_s {statistics.median(w for w, _ in setup):.4g} s",
        "at the reference speed:",
    ]
    return runner, metrics, notes


def traced(args, workdir):
    from tracer import LAYERS, Tracer, layer_metrics

    rounds = range(1, TRACE_ROUNDS[args.workload] + 1)
    tracer = Tracer()
    plain = Runner(args.workload, args.seed, workdir)
    runner = Runner(args.workload, args.seed, workdir, tracer)
    plain.run_round(0, check=False)
    plain_busy = traced_busy = 0.0
    # each round runs untraced and traced, in alternating order, so that
    # neither drift in machine speed nor the second pass over the same
    # inputs passes for tracing overhead
    for r in rounds:
        if r % 2:
            plain_busy += plain.run_round(r)
        with tracer:
            traced_busy += runner.run_round(r)
        if not r % 2:
            plain_busy += plain.run_round(r)
    runner.attempted += plain.attempted
    runner.failures += plain.failures

    metrics = layer_metrics(tracer)
    overhead = traced_busy / plain_busy
    metrics["trace.overhead_ratio"] = (overhead, "ratio")

    os.makedirs(OUT_DIR, exist_ok=True)
    path = os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl")
    tracer.write(path, {"workload": args.workload, "seed": args.seed,
                        "rounds": len(rounds), **stamp()})

    total = sum(metrics[f"{layer}.self_s"][0] for layer in LAYERS)
    notes = [
        f"{plain.attempted} tasks in {len(rounds)} rounds, each run untraced and traced",
        f"tracing overhead: untraced {plain.attempted / plain_busy:.2f} tasks/s, "
        f"traced {plain.attempted / traced_busy:.2f} tasks/s ({overhead:.2f}x)",
        f"spans: {len(tracer.spans)} written to {os.path.relpath(path, ROOT)}",
        "per-layer self time (share of traced time in listed functions):",
    ]
    for layer in sorted(LAYERS, key=lambda l: -metrics[f"{l}.self_s"][0]):
        value = metrics[f"{layer}.self_s"][0]
        notes.append(f"  {layer:<26} {value:10.4f} s  {value / total if total else 0:6.1%}")
    return runner, metrics, notes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(TRACE_ROUNDS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    if not os.path.isfile(os.path.join(SRC, "dispersionless", "__init__.py")):
        print(f"error: package source not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import dispersionless

    if not os.path.abspath(dispersionless.__file__).startswith(SRC + os.sep):
        print(f"error: imported {dispersionless.__file__}, not the source tree", file=sys.stderr)
        return 2

    os.chdir(ROOT)  # generated @file paths are relative, as the expression grammar wants
    with tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH_DIR) as workdir:
        workdir = os.path.relpath(workdir, ROOT)
        measure = traced if args.trace else end_to_end
        runner, metrics, notes = measure(args, workdir)

    failed = len(runner.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(note)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<62} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<62} {failed / runner.attempted:>14.6g} ratio "
          f"({failed} of {runner.attempted} tasks)")
    for task_id, what, error in runner.failures[:20]:
        print(f"FAILED task {task_id}: {what}: {error}")
    print(f"correct: {failed == 0}")
    print("stamp: " + json.dumps(stamp(), sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": runner.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
