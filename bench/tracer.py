"""Span tracer for the benchmark's traced run.

The tracer wraps the listed public functions of ``dispersionless`` from the
outside: it rebinds each function name in every ``dispersionless.*`` module
namespace that holds it, and wraps the listed methods on their classes.
Nested calls therefore nest as child spans, e.g. ``eigendecompose`` inside
the ``maxeig`` functional inside ``reconstruct_density``.  Nothing under
``src/`` changes, and everything is undone when the ``with`` block ends.

A span is ``(name, start, end, parent, task, size, ok)``: perf_counter
seconds, the index of the enclosing span (-1 for a task root), the task id,
a per-function size (matrix dimension or grid points, else None) and
whether the call returned normally.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

LAYERS = (
    "operator_core",
    "expectation_functionals",
    "ncpoly",
    "symmetrized_algebra",
    "hidden_variables",
    "expressions",
    "cli",
)


def _dim(op):
    return int(getattr(op, "dim", None) or len(op))


# (layer, metric name, attribute path in the layer's module, size of a call)
TRACED = (
    ("operator_core", "eigendecompose", "eigendecompose", lambda a: _dim(a[0])),
    ("operator_core", "apply_function", "apply_function", None),
    ("operator_core", "commutator_norm", "commutator_norm", None),
    ("operator_core", "HermitianOperator.init", "HermitianOperator.__init__", None),
    ("expectation_functionals", "reconstruct_density", "reconstruct_density", None),
    ("expectation_functionals", "functional_call", "ExpectationFunctional.__call__", None),
    ("expectation_functionals", "check_linearity", "check_linearity", None),
    ("expectation_functionals", "dispersion_witness", "dispersion_witness", None),
    ("expectation_functionals", "DensityMatrix.init", "DensityMatrix.__init__", None),
    ("expectation_functionals", "hermitian_basis", "hermitian_basis", lambda a: int(a[0])),
    ("ncpoly", "NcPolynomial.mul", "NcPolynomial.__mul__", None),
    ("ncpoly", "evaluate_nc", "evaluate_nc", None),
    ("symmetrized_algebra", "verify_appendix1_chain", "verify_appendix1_chain", None),
    ("symmetrized_algebra", "joint_measurability_witness", "joint_measurability_witness", None),
    ("symmetrized_algebra", "common_generator", "common_generator", None),
    ("symmetrized_algebra", "CommonGenerator.reconstruct", "CommonGenerator.reconstruct", None),
    ("hidden_variables", "additivity_violation_report", "additivity_violation_report",
     lambda a: len(a[3])),
    ("hidden_variables", "assign_value", "assign_value", None),
    ("hidden_variables", "average_over_lambda", "average_over_lambda", None),
    ("hidden_variables", "lambda_grid", "lambda_grid", None),
    ("expressions", "parse_hermitian", "parse_hermitian", None),
    ("cli", "run_command", "run_command", None),
)

LAYER_OF = {name: layer for layer, name, _, _ in TRACED}
EIG_DIMS = (2, 4, 8, 16, 32)
TASK = "task"


class Tracer:
    """Records spans while installed; use as a context manager."""

    def __init__(self):
        self.spans: list = []
        self.output_bytes = 0
        self._stack: list[int] = []
        self._task = None
        self._undo: list = []

    def __enter__(self):
        modules = [m for k, m in sorted(sys.modules.items())
                   if k == "dispersionless" or k.startswith("dispersionless.")]
        for layer, name, path, size in TRACED:
            home = sys.modules[f"dispersionless.{layer}"]
            if "." in path:
                cls_name, attr = path.split(".")
                owner = getattr(home, cls_name)
                original = owner.__dict__[attr]
                self._rebind(owner, attr, original, self._wrap(name, original, size))
                continue
            original = getattr(home, path)
            wrapper = self._wrap(name, original, size)
            for module in modules:
                if getattr(module, path, None) is original:
                    self._rebind(module, path, original, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()
        return False

    def _rebind(self, owner, attr, original, wrapper):
        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def _wrap(self, name, fn, size):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            measured = size(args) if size else None
            ok = False
            start = clock()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._task, measured, ok)

        traced.__wrapped__ = fn
        return traced

    def task(self, task_id, fn, *args):
        """Run fn(*args) as the root span of one task; returns its result."""
        index = len(self.spans)
        self.spans.append(None)
        self._stack.append(index)
        self._task = task_id
        ok = False
        start = time.perf_counter()
        try:
            result = fn(*args)
            ok = True
            return result
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self._task = None
            self.spans[index] = (TASK, start, end, -1, task_id, None, ok)

    def write(self, path, header: dict):
        """Write a header object, then one JSON array per span."""
        header = dict(header, fields=["name", "start_s", "end_s", "parent", "task", "size", "ok"])
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [end - start for _, start, end, _, _, _, _ in spans]
    for _, start, end, parent, _, _, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def _under(spans, index, target, stop):
    # whether span `index` lies below a `target` span without crossing `stop`
    parent = spans[index][3]
    while parent >= 0:
        name = spans[parent][0]
        if name == target:
            return True
        if name == stop:
            return False
        parent = spans[parent][3]
    return False


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Per-layer metrics of one traced run, as name -> (value, unit)."""
    spans = tracer.spans
    selfs = self_times(spans)
    calls = defaultdict(int)
    self_s = defaultdict(float)
    eig_us = defaultdict(list)
    basis_bytes = 0
    points = 0
    report_s = 0.0
    recon_ok = 0
    recon_eigs = 0
    recon_evals = 0
    for i, (name, start, end, _, _, size, ok) in enumerate(spans):
        calls[name] += 1
        self_s[name] += selfs[i]
        if name == "eigendecompose":
            eig_us[size].append((end - start) * 1e6)
            if _under(spans, i, "reconstruct_density", "functional_call"):
                recon_eigs += 1
        elif name == "functional_call":
            if _under(spans, i, "reconstruct_density", TASK):
                recon_evals += 1
        elif name == "hermitian_basis":
            basis_bytes += size ** 4 * 16
        elif name == "additivity_violation_report":
            points += size
            report_s += end - start
        elif name == "reconstruct_density" and ok:
            recon_ok += 1

    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (
            sum(v for k, v in self_s.items() if LAYER_OF.get(k) == layer), "s")
    for layer, name, _, _ in TRACED:
        out[f"{layer}.{name}.calls"] = (calls[name], "count")
        out[f"{layer}.{name}.self_s"] = (self_s[name], "s")
    for d in EIG_DIMS:
        samples = eig_us[d]
        out[f"operator_core.eigendecompose.d{d}.mean_us"] = (
            sum(samples) / len(samples) if samples else 0.0, "us")
    out["expectation_functionals.reconstruct_density.eig_per_call"] = (
        recon_eigs / recon_ok if recon_ok else 0.0, "ratio")
    n_recon = calls["reconstruct_density"]
    out["expectation_functionals.functional_evals_per_reconstruct"] = (
        recon_evals / n_recon if n_recon else 0.0, "ratio")
    out["expectation_functionals.hermitian_basis.bytes"] = (basis_bytes, "B")
    out["hidden_variables.points_per_s"] = (points / report_s if report_s else 0.0, "1/s")
    out["cli.output_bytes"] = (tracer.output_bytes, "B")
    return out
