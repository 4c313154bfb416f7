"""Tests of the benchmark itself, on one seeded round per workload.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import dispersionless as dl  # noqa: E402
from run import Runner  # noqa: E402
from tracer import TASK, Tracer, layer_metrics, self_times  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return str(tmp_path_factory.mktemp("work"))


@pytest.fixture(scope="module")
def traced_rounds(workdir):
    """One traced round of every workload: workload -> (tracer, runner)."""
    out = {}
    for workload in WORKLOADS:
        tracer = Tracer()
        runner = Runner(workload, SEED, workdir, tracer)
        with tracer:
            runner.run_round(1)
        out[workload] = (tracer, runner)
    return out


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_every_check_passes(workload, workdir):
    runner = Runner(workload, SEED, workdir)
    runner.run_round(1)
    assert runner.attempted == len(runner.tasks(1)) > 0
    assert runner.failures == []
    assert len(runner.speeds) == 1 and runner.speeds[0] > 0


def test_rounds_repeat_for_a_seed(workdir):
    a = Runner("jointmeas", SEED, workdir).tasks(3)
    b = Runner("jointmeas", SEED, workdir).tasks(3)
    c = Runner("jointmeas", SEED + 1, workdir).tasks(3)
    assert [t.kind for t in a] == [t.kind for t in c]
    assert all((x.inputs["r"] == y.inputs["r"]).all() for x, y in zip(a, b))
    assert not (a[0].inputs["r"] == c[0].inputs["r"]).all()


def test_a_wrong_output_fails_its_check(workdir):
    task = Runner("subensemble", SEED, workdir).tasks(1)[0]
    report = task.call(task.inputs)
    task.check(task.inputs, report)
    task.inputs["r"] = task.inputs["r"] + 0.5 * dl.SIGMA_Z
    with pytest.raises(AssertionError):
        task.check(task.inputs, report)


@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_self_times_add_up_to_task_duration(workload, traced_rounds):
    tracer, runner = traced_rounds[workload]
    assert runner.failures == []
    spans = tracer.spans
    selfs = self_times(spans)
    totals = {}
    for span, own in zip(spans, selfs):
        assert own >= -1e-9
        totals[span[4]] = totals.get(span[4], 0.0) + own
    roots = [s for s in spans if s[0] == TASK]
    assert len(roots) == runner.attempted
    for name, start, end, parent, task, _, _ in roots:
        assert parent == -1
        assert totals[task] == pytest.approx(end - start, rel=1e-9, abs=1e-12)


def test_tracer_restores_the_package(traced_rounds):
    assert not hasattr(dl.eigendecompose, "__wrapped__")
    assert not hasattr(dl.expectation_functionals.eigendecompose, "__wrapped__")
    assert not hasattr(dl.HermitianOperator.__init__, "__wrapped__")


def test_eigendecompose_calls_by_workload(traced_rounds):
    calls = {w: layer_metrics(t)["operator_core.eigendecompose.calls"][0]
             for w, (t, _) in traced_rounds.items()}
    assert calls["subensemble"] == 0
    assert calls["reconstruct"] > 0
    assert calls["jointmeas"] > 0


def test_nested_calls_are_child_spans(traced_rounds):
    # eigendecompose inside the maxeig functional inside reconstruct_density
    spans = traced_rounds["reconstruct"][0].spans
    chains = set()
    for name, _, _, parent, _, _, _ in spans:
        if name == "eigendecompose" and parent >= 0:
            grand = spans[parent][3]
            chains.add((spans[parent][0], spans[grand][0] if grand >= 0 else None))
    assert ("functional_call", "reconstruct_density") in chains


def test_metric_names_match_benchmark_json(traced_rounds):
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    metrics = layer_metrics(traced_rounds["cli"][0])
    metrics["trace.overhead_ratio"] = (1.0, "ratio")
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {name: unit for name, (_, unit) in metrics.items()}
    assert {w["name"] for w in spec["workloads"]} <= set(WORKLOADS)


def _run(args, cwd):
    return subprocess.run([sys.executable, os.path.join(cwd, "bench", "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def test_command_prints_end_to_end_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    out = _run(["--workload", "jointmeas", "--seed", "3", "--seconds", "0", "--trace", "0"], ROOT)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 100
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        {name: m["unit"] for name, m in result["metrics"].items()}
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_command_fails_without_the_package(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("_out", "_work-*", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(["--workload", "cli", "--seed", "1", "--seconds", "1", "--trace", "0"],
               str(tmp_path))
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
