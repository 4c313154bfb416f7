"""The package surface the benchmark reaches must resolve.

bench/tracer.py wraps the functions and methods it lists in TRACED, and
bench/workloads.py calls the package through ``dl.<name>``.  Both files are
read here, never edited, so removing a name either of them uses fails this
test instead of the benchmark run.
"""

import importlib
import re
from pathlib import Path

import pytest

import dispersionless as dl

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _traced():
    # executed from its source, so nothing (not even a .pyc) is written under bench/
    path = BENCH / "tracer.py"
    namespace = {"__name__": "bench_tracer"}
    exec(compile(path.read_text(), str(path), "exec"), namespace)
    return [(layer, attr) for layer, _, attr, _ in namespace["TRACED"]]


TRACED = _traced()
WORKLOAD_NAMES = sorted(set(re.findall(r"\bdl\.(\w+)", (BENCH / "workloads.py").read_text())))


def test_workloads_read_the_package():
    assert "reconstruct_density" in WORKLOAD_NAMES
    assert "run_command" in WORKLOAD_NAMES


@pytest.mark.parametrize("layer, path", TRACED, ids=[".".join(t) for t in TRACED])
def test_traced_path_resolves(layer, path):
    target = importlib.import_module(f"dispersionless.{layer}")
    for attr in path.split("."):
        # the tracer reads methods from the class dict, so inherited ones do not count
        owner = target
        target = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    assert callable(target)


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_workload_name_resolves(name):
    assert hasattr(dl, name)
