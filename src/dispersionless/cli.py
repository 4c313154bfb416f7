"""Command-line front end: parse operator expressions, run suites, emit reports.

Exit codes: 0 when every check a command runs passes, 1 when a
verification fails (a chain step breaks, a functional violates one of the
state axioms, no dispersion witness exists), 2 on usage, parse, or input
errors.  With ``--format json`` every report, including failures, is a
single JSON document with a top-level ``"schema": 1`` marker, in the layout
of ``json.dumps(report, indent=2, sort_keys=True)``.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import os
import sys

import numpy as np

from .expectation_functionals import (
    AdditivityViolation,
    DensityMatrix,
    ExpectationFunctional,
    FunctionalViolation,
    LIN_TOL,
    NormalizationViolation,
    PureState,
    _basis_bands,
    _reconstruct,
    max_eigenvalue_functional,
    pure_state_functional,
    trace_functional,
    dispersion_witness,
)
from .expressions import ExprError, parse_hermitian
from .hidden_variables import (
    additivity_violation_report,
    lambda_grid,
    subensemble_functional,
)
from .operator_core import (
    COMM_TOL,
    HermitianOperator,
    ValidationError,
    complex_from_pairs,
    eigendecompose,
    matrix_from_json,
    matrix_to_json,
)
from .symmetrized_algebra import joint_measurability_witness, verify_appendix1_chain

SCHEMA_VERSION = 1
DEFAULT_SEED = 1234
SEED_ENV_VAR = "DISPERSIONLESS_SEED"

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

# input limits, checked before anything is allocated: a reconstruct
# transcript alone holds dim^4 JSON cells
MAX_DIM = 32
MAX_TRIALS = 10_000
MAX_LAMBDA_GRID_SIZE = 1_000_000

JSON_INDENT = 2


class CliInputError(Exception):
    """Bad command-line input outside the expression language."""


def _seed(args) -> int:
    """--seed, else $DISPERSIONLESS_SEED, else DEFAULT_SEED; never negative."""
    if args.seed is not None:
        if args.seed < 0:
            raise CliInputError(f"--seed must be non-negative, got {args.seed}")
        return args.seed
    raw = os.environ.get(SEED_ENV_VAR)
    if raw is None:
        return DEFAULT_SEED
    try:
        seed = int(raw)
    except ValueError:
        raise CliInputError(f"{SEED_ENV_VAR} must be an integer, got {raw!r}") from None
    if seed < 0:
        raise CliInputError(f"{SEED_ENV_VAR} must be non-negative, got {raw!r}")
    return seed


def _check_count(flag: str, value: int, low: int, high: int):
    if value < low:
        raise CliInputError(f"{flag} must be at least {low}")
    if value > high:
        raise CliInputError(f"{flag} must be at most {high}")


def _check_tol(flag: str, tol: float):
    if not 0.0 < tol < math.inf:
        raise CliInputError(f"{flag} must be finite and positive, got {tol!r}")


def _payload(command: str, **fields) -> dict:
    out = {"schema": SCHEMA_VERSION, "command": command}
    out.update(fields)
    return out


def _json_rows(columns: dict[str, np.ndarray]) -> list[str]:
    """The pieces whose join is the text json.dumps(..., indent=JSON_INDENT, sort_keys=True)
    gives, as the value of a top-level key, for the list of row objects {key: column[i]} of
    equal-length float64 columns, one of them under "lambda".

    The rows are written in runs over which every other column keeps its
    bits, so -0.0 stays apart from 0.0 and one NaN from another.  One
    json.dumps call formats the lambdas and one the other columns at each
    run's start, which gives the stdlib's text (float repr, NaN, Infinity)
    by construction.
    """
    keys = sorted(columns)
    count = len(columns["lambda"])
    if count == 0:
        return ["[]"]
    item = "\n" + " " * (2 * JSON_INDENT)
    field = item + " " * JSON_INDENT
    steps = np.stack([columns[key] for key in keys if key != "lambda"])
    bits = steps.view(np.int64)
    starts = [0, *(np.flatnonzero((bits[:, 1:] != bits[:, :-1]).any(axis=0)) + 1).tolist()]
    values = iter(json.dumps(steps[:, starts].T.ravel().tolist())[1:-1].split(", "))
    names = [json.dumps(key) + ": " for key in keys]
    slot = keys.index("lambda")
    # lambda texts at odd places, the text before and after each at even ones
    pieces = ["[" + item, ""] + ["," + item, ""] * (count - 1) + ["\n" + " " * JSON_INDENT + "]"]
    pieces[1::2] = json.dumps(columns["lambda"].tolist())[1:-1].split(", ")
    for start, stop in zip(starts, starts[1:] + [count]):
        cells = [name if key == "lambda" else name + next(values) for key, name in zip(keys, names)]
        head = "{" + field + ("," + field).join(cells[:slot + 1])
        tail = "".join("," + field + cell for cell in cells[slot + 1:]) + item + "}"
        pieces[2 * start] += head
        pieces[2 * start + 2:2 * stop:2] = [tail + "," + item + head] * (stop - start - 1)
        pieces[2 * stop] = tail + pieces[2 * stop]
    return pieces


def _hv_demo_json(report) -> str:
    """The hv-demo report as json.dumps(..., indent=JSON_INDENT, sort_keys=True) writes it,
    with the "pairs" rows written from the report's columns."""
    header = json.dumps(_payload(
        "hv-demo", passed=True, phi=[[float(z.real), float(z.imag)] for z in report.phi.vector],
        pairs=[], avg_delta=report.avg_delta, violation_fraction=report.violation_fraction,
    ), indent=JSON_INDENT, sort_keys=True)
    columns = {"lambda": report.lambdas, "vR": report.values_r, "vS": report.values_s,
               "vRplusS": report.values_sum, "delta": report.deltas}
    # a quote inside a JSON string is escaped, so this is the top-level key
    before, _, after = header.partition('"pairs": []')
    return "".join([before, '"pairs": ', *_json_rows(columns), after])


@functools.lru_cache(maxsize=8)
def _zero_row(dim: int) -> tuple[tuple[str, ...], tuple[int, ...]]:
    # a transcript row as the stdlib lays it out, for the zero probe and the value 0.0, in blocks
    # (each probe row, then the value to the row's end), and each scalar's offset in its
    # block; every scalar, and no key or dim, reads "0.0"
    text = json.dumps({"t": [{"probe": matrix_to_json(np.zeros((dim, dim))), "value": 0.0}]},
                      indent=JSON_INDENT, sort_keys=True)
    *gaps, tail = text[text.index("{", 1):text.rindex("}", 0, -1) + 1].split("0.0")
    blocks = ["0.0".join(gaps[i:i + 2 * dim]) + "0.0" for i in range(0, len(gaps), 2 * dim)]
    return (*blocks[:-1], blocks[-1] + tail), tuple(
        at - 3 for i in range(0, len(gaps), 2 * dim)
        for at in itertools.accumulate(len(gap) + 3 for gap in gaps[i:i + 2 * dim]))


def _reconstruct_json(payload: dict, values: np.ndarray) -> str:
    """json.dumps(payload, indent=JSON_INDENT, sort_keys=True) with {"probe": matrix_to_json(e),
    "value": v} for each basis element e and its value v, in _basis_bands order, in its empty
    transcript.

    Each row is the cached zero row with the scalars whose bits are not +0.0 written in, from
    one json.dumps call per band; the blocks it leaves alone are shared, and it is joined once.
    """
    dim = math.isqrt(len(values))
    blocks, ats = _zero_row(dim)
    # a quote inside a JSON string is escaped, so this is the top-level key
    before, _, after = json.dumps(payload, indent=JSON_INDENT, sort_keys=True).partition(
        '"transcript": []')
    pieces, start = [before, '"transcript": ['], 0
    for band in _basis_bands(dim):
        scalars = np.column_stack([band.view(np.float64).reshape(len(band), -1),
                                   values[start:start + len(band)]])
        start += len(band)
        elements, cells = np.nonzero(scalars.view(np.int64))
        texts = json.dumps(scalars[elements, cells].tolist())[1:-1].split(", ")
        rows = [list(blocks) for _ in band]
        # last first, so a longer text leaves the earlier offsets in place
        for element, cell, text in zip(elements[::-1].tolist(), cells[::-1].tolist(), texts[::-1]):
            row, block, at = rows[element], cell // (2 * dim), ats[cell]
            row[block] = row[block][:at] + text + row[block][at + 3:]
        for row in rows:
            pieces += [",", "\n" + " " * (2 * JSON_INDENT), *row]
    pieces[2] = ""  # no comma before the first row
    return "".join([*pieces, "\n" + " " * JSON_INDENT + "]", after])


def _verdict_json(exc: FunctionalViolation) -> dict:
    """The reconstruct verdict object, from the violation's own attributes."""
    if isinstance(exc, AdditivityViolation):
        return {"kind": exc.kind, "probe": matrix_to_json(exc.probe.matrix),
                "lhs": exc.lhs, "rhs": exc.rhs, "delta": exc.delta}
    if isinstance(exc, NormalizationViolation):
        return {"kind": exc.kind, "trace": exc.value}
    return {"kind": exc.kind, "min_eigenvalue": exc.eigenvalue}


def _emit(output_format: str, payload: dict, lines: list[str]):
    if output_format == "json":
        print(json.dumps(payload, indent=JSON_INDENT, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _error_payload(command: str, exc: Exception) -> dict:
    return _payload(command, passed=False, error={"type": type(exc).__name__, "message": str(exc)})


def _emit_error(output_format: str, command: str, exc: Exception, code: int) -> int:
    if output_format == "json":
        print(json.dumps(_error_payload(command, exc), indent=JSON_INDENT, sort_keys=True))
    else:
        print(f"error: {exc}", file=sys.stderr)
    return code


def _fmt(value: float) -> str:
    return f"{value:.8f}"


def _matrix_lines(matrix) -> list[str]:
    lines = []
    for row in matrix:
        cells = ", ".join(f"{z.real:+.6f}{z.imag:+.6f}j" for z in row)
        lines.append(f"  [{cells}]")
    return lines


def _strip_at(path: str) -> str:
    return path[1:] if path.startswith("@") else path


def _load_json_file(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise CliInputError(f"cannot read {path!r}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise CliInputError(f"{path!r} is not valid JSON: {exc}") from exc


def state_from_spec(spec: str) -> PureState:
    """A cardinal label (z+, x-, ...) or @file with a complex vector."""
    if spec.startswith("@"):
        obj = _load_json_file(spec[1:])
        if not isinstance(obj, list):
            raise CliInputError(
                f"state file {spec[1:]!r} must hold a JSON list of [re, im] pairs"
            )
        try:
            return PureState.normalized(complex_from_pairs(obj, "state vector"))
        except ValidationError as exc:
            raise CliInputError(f"bad state vector in {spec[1:]!r}: {exc}") from exc
    try:
        return PureState.from_label(spec)
    except ValidationError as exc:
        raise CliInputError(str(exc)) from exc


def functional_from_spec(spec: str, dim: int | None) -> tuple[ExpectationFunctional, str]:
    """Mini-format: trace:@file | pure:<state> | maxeig | hv:<state>:<lambda>.

    Only maxeig reads ``dim`` (2 when None); any other functional carries
    its own dimension.
    """
    if spec == "maxeig":
        dim = 2 if dim is None else dim
        return max_eigenvalue_functional(dim), f"maxeig(dim={dim})"
    kind, sep, rest = spec.partition(":")
    if not sep:
        raise CliInputError(
            f"unknown functional spec {spec!r}; expected trace:@file, "
            "pure:<state>, maxeig, or hv:<state>:<lambda>"
        )
    if kind == "trace":
        matrix = matrix_from_json(_load_json_file(_strip_at(rest)))
        return trace_functional(HermitianOperator(matrix)), f"trace:{rest}"
    if kind == "pure":
        return pure_state_functional(state_from_spec(rest)), f"pure:{rest}"
    if kind == "hv":
        state_spec, sep2, lam_text = rest.rpartition(":")
        if not sep2:
            raise CliInputError("hv functional needs a state and a lambda, e.g. hv:z+:0.3")
        try:
            lam = float(lam_text)
        except ValueError:
            raise CliInputError(f"bad lambda value {lam_text!r}") from None
        return subensemble_functional(state_from_spec(state_spec), lam), f"hv:{state_spec}:{lam}"
    raise CliInputError(f"unknown functional kind {kind!r}")


def cmd_verify_appendix1(args) -> int:
    report = verify_appendix1_chain()
    lines = ["symmetrized-product identity chain (exact rational arithmetic):"]
    for step in report.steps:
        status = "PASS" if step.passed else "FAIL"
        lines.append(f"  {status}  {step.name}: {step.description}")
        if not step.passed:
            lines.append(f"        computed: {step.computed}")
            lines.append(f"        expected: {step.expected}")
    verdict = (
        "all steps hold: jointly measurable quantities must commute"
        if report.passed else "chain broken"
    )
    lines.append(verdict)
    _emit(args.output_format, _payload(
        "verify-appendix1",
        passed=report.passed,
        # a ChainStep's fields; dataclasses.asdict would deep-copy each one
        steps=[dict(vars(s)) for s in report.steps],
    ), lines)
    return EXIT_OK if report.passed else EXIT_FAIL


def cmd_reconstruct(args) -> int:
    seed = _seed(args)
    _check_count("--trials", args.trials, 1, MAX_TRIALS)
    _check_tol("--lin-tol", args.lin_tol)
    functional, label = functional_from_spec(args.functional, args.dim)
    if args.dim is not None and args.dim != functional.dim:
        raise CliInputError(
            f"--dim {args.dim} does not match the dimension {functional.dim} of {label}"
        )
    if functional.dim > MAX_DIM:
        raise CliInputError(
            f"reconstruct handles dimension at most {MAX_DIM}, got {functional.dim}"
        )
    try:
        values, density = _reconstruct(functional, args.trials, seed, args.lin_tol)
    except FunctionalViolation as exc:
        values, violation = exc.values, exc
        lines = [
            f"functional {label}: {exc}",
            "no density matrix reproduces this functional",
        ]
    else:
        violation = None
        lines = [
            f"functional {label} is normalized, positive, and additive;",
            "recovered the density matrix of its trace form:",
        ]
    if args.output_format == "json":
        result = ({"density": matrix_to_json(density.matrix)} if violation is None
                  else {"verdict": _verdict_json(violation)})
        lines = [_reconstruct_json(_payload("reconstruct", passed=violation is None,
                                            functional=label, transcript=[], **result), values)]
    elif violation is None:
        lines += _matrix_lines(density.matrix)
    print("\n".join(lines))
    return EXIT_OK if violation is None else EXIT_FAIL


def cmd_dispersion_witness(args) -> int:
    matrix = matrix_from_json(_load_json_file(_strip_at(args.density)))
    density = DensityMatrix(matrix)
    try:
        witness, value = dispersion_witness(density)
    except ValidationError as exc:
        _emit(args.output_format, _error_payload("dispersion-witness", exc),
              [f"no witness: {exc}"])
        return EXIT_FAIL
    lines = [f"dispersion {_fmt(value)} > 0 for the witness operator:"]
    if args.output_format == "text":
        lines += _matrix_lines(witness.matrix)
    _emit(args.output_format, _payload(
        "dispersion-witness",
        passed=True,
        witness=matrix_to_json(witness.matrix),
        dispersion=value,
    ), lines)
    return EXIT_OK


def cmd_jointmeas(args) -> int:
    _check_tol("--comm-tol", args.comm_tol)
    a = parse_hermitian(args.a)
    b = parse_hermitian(args.b)
    verdict = joint_measurability_witness(a, b, tol=args.comm_tol)
    generator_json = None
    lines = [
        f"A = {args.a}",
        f"B = {args.b}",
        f"verdict: {'' if verdict.jointly_measurable else 'not '}jointly measurable",
        f"commutator norm: {_fmt(verdict.commutator_norm)}",
    ]
    if verdict.jointly_measurable:
        gen = verdict.generator
        generator_json = {
            "t": matrix_to_json(gen.t.matrix),
            "f_table": {str(k): v for k, v in gen.f_table.items()},
            "g_table": {str(k): v for k, v in gen.g_table.items()},
        }
        lines.append("common generator T with readout tables:")
        if args.output_format == "text":
            lines += _matrix_lines(gen.t.matrix)
        lines.append(f"  f: {gen.f_table}")
        lines.append(f"  g: {gen.g_table}")
    else:
        lines.append(
            "certificate |(AB-BA)^2|: " + _fmt(verdict.commutator_square_norm)
        )
        lines.append(
            "square-product deficit |A^2B^2 + B^2A^2 - (AB)(BA) - (BA)(AB)|: "
            + _fmt(verdict.square_product_deficit_norm)
        )
    _emit(args.output_format, _payload(
        "jointmeas",
        passed=True,
        jointly_measurable=verdict.jointly_measurable,
        commutator_norm=verdict.commutator_norm,
        commutator_square_norm=verdict.commutator_square_norm,
        square_product_deficit_norm=verdict.square_product_deficit_norm,
        generator=generator_json,
    ), lines)
    return EXIT_OK


def cmd_hv_demo(args) -> int:
    _check_count("--lambda-grid-size", args.lambda_grid_size, 2, MAX_LAMBDA_GRID_SIZE)
    phi = state_from_spec(args.phi)
    a = parse_hermitian(args.a)
    b = parse_hermitian(args.b)
    report = additivity_violation_report(phi, a, b, lambda_grid(args.lambda_grid_size))
    print(_hv_demo_json(report) if args.output_format == "json" else "\n".join([
        f"subensemble outcomes for phi={args.phi}, R={args.a}, S={args.b} "
        f"over {args.lambda_grid_size} lambda points:",
        f"  per-point additivity violations: {report.violation_fraction:.4f} of grid",
        f"  averaged delta (must vanish):    {report.avg_delta:.3e}",
        "  lambda-averaged vs quantum expectations:",
        f"    R:     {_fmt(report.average_r)} vs {_fmt(report.quantum_r)}",
        f"    S:     {_fmt(report.average_s)} vs {_fmt(report.quantum_s)}",
        f"    R + S: {_fmt(report.average_sum)} vs {_fmt(report.quantum_sum)}",
    ]))
    return EXIT_OK


def cmd_spectrum(args) -> int:
    op = parse_hermitian(args.expr)
    eigenvalues = [float(v) for v in eigendecompose(op).eigenvalues]
    text = "[" + ", ".join(_fmt(v) for v in eigenvalues) + "]"
    _emit(args.output_format, _payload(
        "spectrum", passed=True, expr=args.expr, eigenvalues=eigenvalues,
    ), [text])
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing leaves it unchanged."""
    return _parsers()[0]


@functools.cache
def _parsers() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    # build_parser's parser, and each command's subparser by name
    parser = argparse.ArgumentParser(
        prog="dispersionless",
        description="Hermitian-operator toolkit: density-matrix reconstruction, "
                    "dispersion witnesses, the symmetrized-product identity chain, "
                    "and a qubit subensemble model.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}

    def command(name, handler, summary):
        p = commands[name] = sub.add_parser(name, help=summary)
        p.add_argument("--format", choices=("text", "json"), default="text",
                       dest="output_format", help="report format")
        p.set_defaults(handler=handler, command=name)
        return p

    command("verify-appendix1", cmd_verify_appendix1,
            "verify the symmetrized-product identity chain in exact arithmetic")

    p = command("reconstruct", cmd_reconstruct,
                "reconstruct a density matrix from an expectation functional")
    p.add_argument("--functional", required=True,
                   help="trace:@file | pure:<state> | maxeig | hv:<state>:<lambda>")
    p.add_argument("--dim", type=int, default=None,
                   help="dimension of maxeig (default 2); other functionals must match "
                        f"it; at most {MAX_DIM}, matrix files included")
    p.add_argument("--seed", type=int, default=None,
                   help=f"random seed (default: ${SEED_ENV_VAR} or {DEFAULT_SEED})")
    p.add_argument("--trials", type=int, default=32,
                   help=f"random probe count for functional checks (1 to {MAX_TRIALS})")
    p.add_argument("--lin-tol", type=float, default=LIN_TOL,
                   help="tolerance for additivity and normalization checks")

    p = command("dispersion-witness", cmd_dispersion_witness,
                "produce an operator with positive dispersion for a density matrix")
    p.add_argument("--density", required=True, help="@file with a matrix in JSON form")

    p = command("jointmeas", cmd_jointmeas,
                "decide joint measurability of two operator expressions")
    p.add_argument("--a", required=True, help="first operator expression")
    p.add_argument("--b", required=True, help="second operator expression")
    p.add_argument("--comm-tol", type=float, default=COMM_TOL,
                   help="tolerance for commutativity checks")

    p = command("hv-demo", cmd_hv_demo,
                "per-lambda outcome additivity report for the qubit model")
    p.add_argument("--phi", required=True, help="state spec: z+ z- x+ x- y+ y- or @file")
    p.add_argument("--a", required=True, help="first operator expression (dim 2)")
    p.add_argument("--b", required=True, help="second operator expression (dim 2)")
    p.add_argument("--lambda-grid-size", type=int, default=1000,
                   help=f"grid points for the subensemble report (2 to {MAX_LAMBDA_GRID_SIZE})")

    p = command("spectrum", cmd_spectrum, "eigenvalues of an operator expression")
    p.add_argument("--expr", required=True, help="operator expression")

    return parser, commands


def _parse(argv: list[str]) -> argparse.Namespace:
    # build_parser().parse_args(argv), whose top-level pass hands all that
    # follows a command's name to its subparser: here that subparser alone
    parser, commands = _parsers()
    if not argv or argv[0] not in commands:
        return parser.parse_args(argv)
    args, extras = commands[argv[0]].parse_known_args(argv[1:])
    if extras:
        parser.error("unrecognized arguments: " + " ".join(extras))
    return args


def run_command(argv: list[str]) -> int:
    """Dispatch one command line; returns the process exit code."""
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return EXIT_OK if not exc.code else EXIT_USAGE
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.handler(args)
    except (ExprError, CliInputError, ValidationError, FloatingPointError) as exc:
        return _emit_error(args.output_format, args.command, exc, EXIT_USAGE)


def main():
    try:
        code = run_command(sys.argv[1:])
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has closed the pipe: send what is left to /dev/null, so
        # the flush at exit cannot fail again, and exit 1 as Python does
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
