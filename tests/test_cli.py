"""Expression language and command-line behavior tests."""

import argparse
import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dispersionless.cli as cli
from dispersionless import expectation_functionals, expressions, hidden_variables, operator_core
from dispersionless.cli import run_command
from dispersionless.expressions import (
    MAX_NESTING,
    ExprEvalError,
    ExprSyntaxError,
    evaluate_matrix,
    parse_expr,
    parse_hermitian,
)
from dispersionless.expectation_functionals import (
    LIN_TOL,
    ExpectationFunctional,
    FunctionalViolation,
    PureState,
    hermitian_basis,
    reconstruct_density,
    trace_functional,
)
from dispersionless.operator_core import (
    HERM_TOL,
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    as_square_matrix,
    frobenius,
    identity,
    matrix_to_json,
    random_hermitian,
)

CORPUS = [
    "SX",
    "SY",
    "SZ",
    "I",
    "2*I",
    "0.5*SX",
    "SX + SY",
    "SX - SY",
    "SX + SY + SZ",
    "SX - SY - SZ",
    "SX * SY",
    "SX * SY * SZ",
    "0.5*SX + 0.5*SZ",
    "2*SX - 3*SZ",
    "(SX + SY)",
    "(SX + SY) * SZ",
    "SZ * (SX + SY)",
    "SX * (SY + SZ) * SX",
    "sq(SX)",
    "cube(SZ)",
    "abs(SZ)",
    "offspec(SX)",
    "sq(SX + SY)",
    "cube(SX - SY)",
    "sq(2*SX + 1*I)",
    "abs(SX + SZ)",
    "sq(sq(SZ))",
    "1.5",
    "1e-09",
    "2.5e3",
    "0.25",
    "1 + 2",
    "2 * 3 + 4",
    "2 * (3 + 4)",
    "SX + 2*I",
    "2*I - SX",
    "I + I",
    "3*I * SZ",
    "@u.json",
    "@dir/u2.json",
    "@u.json + SX",
    "2*@u.json",
    "sq(@u.json)",
    "SX - (SY - SZ)",
    "(SX - SY) - SZ",
    "SX * SX - I",
    "0.70710678*SX + 0.70710678*SY",
    "abs(3*SZ - 1*I)",
    "offspec(SX + SY)",
    "sq(SX) + sq(SY) - 2*I",
]


def value(src):
    return evaluate_matrix(parse_expr(src))


class TestParser:
    def test_simple_sum(self):
        assert np.array_equal(value("SX + SY"), SIGMA_X + SIGMA_Y)

    def test_weighted_sum(self):
        assert np.array_equal(value("0.5*SX + 0.5*SZ"), 0.5 * SIGMA_X + 0.5 * SIGMA_Z)

    def test_call_node(self):
        s = SIGMA_X + SIGMA_Y
        assert np.array_equal(value("sq(SX + SY)"), s @ s)

    def test_file_ref(self, tmp_path):
        f = random_hermitian(3, np.random.default_rng(5)).matrix
        path = write_density(tmp_path, f, "m.json")
        assert np.array_equal(value(f"@{path}"), f)

    def test_left_associativity(self):
        m = value("SX - SY - SZ")
        assert np.array_equal(m, (SIGMA_X - SIGMA_Y) - SIGMA_Z)
        assert not np.array_equal(m, value("SX - (SY - SZ)"))

    def test_syntax_error_has_position(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("SX + ")
        assert exc.value.line == 1
        assert exc.value.col == 6

    def test_unexpected_character(self):
        with pytest.raises(ExprSyntaxError) as exc:
            parse_expr("SX $ SY")
        assert exc.value.col == 4

    def test_trailing_input(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("SX SY")

    def test_unbalanced_paren(self):
        with pytest.raises(ExprSyntaxError):
            parse_expr("(SX + SY")

    @pytest.mark.parametrize("src", CORPUS)
    def test_round_trip(self, src):
        # every corpus entry parses, and each step of its program leads
        # back to the source text at the step's position
        program = parse_expr(src)
        assert program
        for op, arg, (line, col) in program:
            rest = src.splitlines()[line - 1][col - 1:]
            if op == "num":
                assert float(re.match(r"[0-9.]+(e[+-]?[0-9]+)?", rest).group()) == arg
            else:
                assert rest.startswith({"const": arg, "call": f"{arg}(", "file": f"@{arg}"}.get(op, op))

    def test_corpus_size(self):
        assert len(CORPUS) >= 50

    @pytest.mark.parametrize("opener, expected", [("(", SIGMA_X), ("sq(", identity(2))])
    def test_nesting_cap(self, opener, expected):
        def nested(depth):
            return opener * depth + "SX" + ")" * depth

        assert np.array_equal(value(nested(MAX_NESTING)), expected)
        with pytest.raises(ExprSyntaxError, match="nested deeper") as exc:
            parse_expr("SX + " + nested(MAX_NESTING + 1))
        # reported at the opening token one level past the cap
        assert (exc.value.line, exc.value.col) == (1, 6 + MAX_NESTING * len(opener))

    @pytest.mark.parametrize("text", ["foo + (", "@missing.json )", "log(SX) +"])
    def test_syntax_errors_come_before_evaluation(self, text):
        with pytest.raises(ExprSyntaxError):
            parse_hermitian(text)


# operator expressions of depth <= 4 as (text, numpy value, precedence);
# precedence 1 for a sum, 2 for a product, 3 for anything that never needs
# parentheses, which the rendering adds only where the grammar needs them
_LEAVES = {"SX": SIGMA_X, "SY": SIGMA_Y, "SZ": SIGMA_Z, "I": identity(2)}


def _wrap(node, prec, strict):
    text, _, own = node
    return f"({text})" if own < prec or (strict and own == prec) else text


def _binary(args):
    left, op, right = args
    prec = 2 if op == "*" else 1
    text = f"{_wrap(left, prec, False)} {op} {_wrap(right, prec, True)}"
    combine = {"+": np.add, "-": np.subtract, "*": np.matmul}[op]
    return text, combine(left[1], right[1]), prec


def _scaled(args):
    x, node = args
    return f"{x!r}*{_wrap(node, 2, True)}", x * node[1], 2


def _call(args):
    func, (text, m, _) = args
    return f"{func}({text})", m @ m if func == "sq" else m @ m @ m, 3


def _operator_exprs(depth):
    leaf = st.sampled_from(sorted(_LEAVES)).map(lambda name: (name, _LEAVES[name], 3))
    if depth == 0:
        return leaf
    sub = _operator_exprs(depth - 1)
    return st.one_of(
        leaf,
        st.tuples(sub, st.sampled_from("+-*"), sub).map(_binary),
        st.tuples(st.floats(0, 4), sub).map(_scaled),
        st.tuples(st.sampled_from(["sq", "cube"]), sub).map(_call),
    )


class TestEvaluationProperty:
    @settings(max_examples=200, deadline=None)
    @given(node=_operator_exprs(4))
    def test_matches_numpy(self, node):
        text, expected, _ = node
        norm = frobenius(expected)
        if frobenius(expected - expected.conj().T) > HERM_TOL * max(1.0, norm):
            with pytest.raises(ExprEvalError, match="not Hermitian"):
                parse_hermitian(text)
        else:
            assert frobenius(parse_hermitian(text).matrix - expected) <= 1e-12 * (1 + norm)


class TestEvaluation:
    def test_square_of_pauli_sum(self):
        # oracle: (sx + sy)^2 = 2I by the Pauli algebra
        m = evaluate_matrix(parse_expr("sq(SX + SY)"))
        assert frobenius(m - 2 * identity(2)) <= 1e-12

    def test_identity_adapts_to_context(self):
        m = evaluate_matrix(parse_expr("SX + 2*I"))
        assert frobenius(m - (SIGMA_X + 2 * identity(2))) <= 1e-15

    def test_bare_identity_defaults_to_dim2(self):
        m = evaluate_matrix(parse_expr("3*I"))
        assert m.shape == (2, 2)

    def test_unknown_identifier(self):
        with pytest.raises(ExprEvalError, match="unknown identifier"):
            evaluate_matrix(parse_expr("SW"))

    def test_unknown_function(self):
        with pytest.raises(ExprEvalError, match="unknown function"):
            evaluate_matrix(parse_expr("log(SX)"))

    def test_scalar_plus_operator_rejected(self):
        with pytest.raises(ExprEvalError, match="bare scalar"):
            evaluate_matrix(parse_expr("1 + SX"))

    def test_bare_scalar_rejected(self):
        with pytest.raises(ExprEvalError, match="bare scalar"):
            evaluate_matrix(parse_expr("2 * 3"))

    def test_dimension_mismatch_at_evaluation(self, tmp_path):
        path = tmp_path / "m3.json"
        path.write_text(json.dumps(matrix_to_json(identity(3))))
        with pytest.raises(ExprEvalError, match="dimension mismatch"):
            evaluate_matrix(parse_expr(f"SX + @{path}"))

    @pytest.mark.parametrize("text, expected", [
        # expected is built from F, the 3x3 @file matrix, with the same
        # float operations the evaluator performs
        ("I + @F", lambda f: 1.0 * identity(3) + 1.0 * f),
        ("@F + I", lambda f: f + 1.0 * identity(3)),
        ("@F * I", lambda f: f * 1.0),
        ("2*I*@F", lambda f: 2.0 * f),
        ("(2*3)*I", lambda f: 6.0 * identity(2)),
        ("sq(2*I) + SX", lambda f: 4.0 * identity(2) + SIGMA_X),
        ("cube(I) - SX", lambda f: 1.0 * identity(2) - SIGMA_X),
        ("abs(I - 4*I)", lambda f: 3.0 * identity(2)),
        ("offspec(I) + SX", lambda f: 0.0 * identity(2) + SIGMA_X),
        ("offspec(2)", "offspec needs an operator argument"),
        ("2 + I", "cannot add a bare scalar"),
        ("I + 2", "cannot add a bare scalar"),
    ])
    def test_value_kinds(self, tmp_path, text, expected):
        f = random_hermitian(3, np.random.default_rng(21)).matrix
        path = tmp_path / "f.json"
        path.write_text(json.dumps(matrix_to_json(f)))
        tree = parse_expr(text.replace("@F", f"@{path}"))
        if isinstance(expected, str):
            with pytest.raises(ExprEvalError, match=expected):
                evaluate_matrix(tree)
        else:
            assert np.array_equal(evaluate_matrix(tree), expected(f))

    def test_non_hermitian_rejected_where_required(self):
        with pytest.raises(ExprEvalError, match="not Hermitian"):
            parse_hermitian("SX * SY")

    def test_hermitian_product_allowed_as_matrix(self):
        m = evaluate_matrix(parse_expr("SX * SX"))
        assert frobenius(m - identity(2)) == 0.0

    def test_offspec_annihilates(self):
        m = evaluate_matrix(parse_expr("offspec(SX + SY)"))
        assert frobenius(m) <= 1e-12

    @pytest.mark.parametrize("text", ["offspec(SX + SY)", "offspec(sq(SX) + 2*SZ)"])
    def test_offspec_decomposes_once(self, monkeypatch, text):
        calls = []
        original = operator_core.eigendecompose

        def counting(op):
            calls.append(op)
            return original(op)

        for module in (operator_core, expressions):
            monkeypatch.setattr(module, "eigendecompose", counting)
        m = evaluate_matrix(parse_expr(text))
        assert len(calls) == 1
        assert frobenius(m) <= 1e-12

    def test_abs_of_sigma_z(self):
        m = evaluate_matrix(parse_expr("abs(SZ)"))
        assert frobenius(m - identity(2)) <= 1e-12

    def test_missing_file(self):
        with pytest.raises(ExprEvalError, match="cannot read"):
            evaluate_matrix(parse_expr("@no/such/file.json"))

    @pytest.mark.parametrize("text, col", [("SX + log(SY)", 6), ("1 + SX", 3)])
    def test_evaluation_error_positions(self, text, col):
        with pytest.raises(ExprEvalError) as exc:
            value(text)
        assert (exc.value.line, exc.value.col) == (1, col)


def run(capsys, *argv):
    code = run_command(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def assert_error_document(out, command, message):
    data = json.loads(out)
    assert data == {
        "schema": 1,
        "command": command,
        "passed": False,
        "error": {"type": "CliInputError", "message": data["error"]["message"]},
    }
    assert message in data["error"]["message"]


def assert_refused(fmt, out, err, command, message):
    """An input error: the JSON error document, or `error: ...` on stderr."""
    if fmt == "json":
        assert err == ""
        assert_error_document(out, command, message)
    else:
        assert out == ""
        assert message in err


class _Reached(Exception):
    """Raised by a stand-in for the first allocation a command makes."""


def _reached(*_):
    raise _Reached


def write_density(tmp_path, matrix, name="u.json"):
    path = tmp_path / name
    path.write_text(json.dumps(matrix_to_json(matrix)))
    return str(path)


# (name, description, polynomial) of each verify-appendix1 step; the chain
# is exact rational arithmetic, so every byte of its report is fixed
APPENDIX1_STEPS = [
    ("RS", "image of the product of R and S", "1/2*RS + 1/2*SR"),
    ("R(RS)", "image of the nested product R(RS)", "1/4*RRS + 1/2*RSR + 1/4*SRR"),
    ("S(R(RS))", "image of the nested product S(R(RS))",
     "1/8*RRSS + 1/4*RSRS + 1/4*SRRS + 1/4*SRSR + 1/8*SSRR"),
    ("R(S(SR))", "image of the nested product R(S(SR))",
     "1/8*RRSS + 1/4*RSRS + 1/4*RSSR + 1/4*SRSR + 1/8*SSRR"),
    ("(RS)(RS)", "image of the squared product (RS)^2",
     "1/4*RSRS + 1/4*RSSR + 1/4*SRRS + 1/4*SRSR"),
    ("square-product identity",
     "S(R(RS)) + R(S(SR)) - 2(RS)^2 reduces to the square-product deficit / 4",
     "1/4*RRSS + -1/4*RSSR + -1/4*SRRS + 1/4*SSRR"),
    ("R^2S^2", "image of the product of R^2 and S^2", "1/2*RRSS + 1/2*SSRR"),
    ("R^2S^2 reduced",
     "R^2S^2 image minus the imposed deficit / 2 equals [(RS)(SR)+(SR)(RS)]/2",
     "1/2*RSSR + 1/2*SRRS"),
    ("cross-square identity",
     "reduced R^2S^2 minus the (RS)^2 image is -(cross-square deficit)/4",
     "-1/4*RSRS + 1/4*RSSR + 1/4*SRRS + -1/4*SRSR"),
    ("commutator square vanishes",
     "(RS - SR)^2 expands to the cross-square deficit, which the chain forces to 0",
     "1*RSRS + -1*RSSR + -1*SRRS + 1*SRSR"),
]


class TestCliCommands:
    def test_verify_appendix1_text_pinned(self, capsys):
        code, out, err = run(capsys, "verify-appendix1")
        assert (code, err) == (0, "")
        assert out == """\
symmetrized-product identity chain (exact rational arithmetic):
  PASS  RS: image of the product of R and S
  PASS  R(RS): image of the nested product R(RS)
  PASS  S(R(RS)): image of the nested product S(R(RS))
  PASS  R(S(SR)): image of the nested product R(S(SR))
  PASS  (RS)(RS): image of the squared product (RS)^2
  PASS  square-product identity: S(R(RS)) + R(S(SR)) - 2(RS)^2 reduces to the square-product deficit / 4
  PASS  R^2S^2: image of the product of R^2 and S^2
  PASS  R^2S^2 reduced: R^2S^2 image minus the imposed deficit / 2 equals [(RS)(SR)+(SR)(RS)]/2
  PASS  cross-square identity: reduced R^2S^2 minus the (RS)^2 image is -(cross-square deficit)/4
  PASS  commutator square vanishes: (RS - SR)^2 expands to the cross-square deficit, which the chain forces to 0
all steps hold: jointly measurable quantities must commute
"""

    def test_verify_appendix1_json_pinned(self, capsys):
        code, out, err = run(capsys, "verify-appendix1", "--format", "json")
        assert (code, err) == (0, "")
        expected = {
            "schema": 1,
            "command": "verify-appendix1",
            "passed": True,
            "steps": [
                {"name": name, "description": description, "computed": text,
                 "expected": text, "passed": True}
                for name, description, text in APPENDIX1_STEPS
            ],
        }
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

    def test_verify_appendix1_passes(self, capsys):
        code, out, _ = run(capsys, "verify-appendix1")
        assert code == 0
        assert out.count("PASS") == 10
        assert "FAIL" not in out

    def test_verify_appendix1_json(self, capsys):
        code, out, _ = run(capsys, "verify-appendix1", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["passed"] is True
        assert len(data["steps"]) == 10

    def test_spectrum_text(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--expr", "SX + SY")
        assert code == 0
        assert out.strip() == "[-1.41421356, 1.41421356]"

    def test_spectrum_json(self, capsys):
        code, out, _ = run(capsys, "spectrum", "--expr", "SZ", "--format", "json")
        data = json.loads(out)
        assert data["eigenvalues"] == [-1.0, 1.0]

    def test_hv_demo(self, capsys):
        code, out, _ = run(
            capsys, "hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["violation_fraction"] == 1.0
        assert abs(data["avg_delta"]) <= 1e-12
        assert len(data["pairs"]) == 1000

    def test_hv_demo_text_builds_no_json(self, capsys, monkeypatch):
        argv = ("hv-demo", "--phi", "x+", "--a", "SZ", "--b", "SX", "--lambda-grid-size", "5")
        _, json_out, _ = run(capsys, *argv, "--format", "json")
        report = hidden_variables.additivity_violation_report(
            PureState.from_label("x+"), SIGMA_Z, SIGMA_X, hidden_variables.lambda_grid(5))
        expected = hv_demo_payload(report)
        assert json_out == json.dumps(expected, indent=2, sort_keys=True) + "\n"

        def refuse(report):
            raise AssertionError("text mode built the JSON payload")

        monkeypatch.setattr(cli, "_hv_demo_json", refuse)
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, "")
        assert "over 5 lambda points:" in out

    def test_hv_demo_grid_size(self, capsys):
        code, out, _ = run(
            capsys, "hv-demo", "--phi", "x+", "--a", "SZ", "--b", "SX",
            "--lambda-grid-size", "11", "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["pairs"]) == 11

    def test_hv_demo_large_operator(self, capsys):
        # <x+|A|x+> is ~3.2e9, where roundoff leaves an imaginary part ~2e-7
        code, out, _ = run(
            capsys, "hv-demo", "--phi", "x+",
            "--a", "cube(1234.567*SX + 987.654*SY + 345.123*SZ)", "--b", "SZ",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["command"] == "hv-demo"
        assert data["passed"] is True

    def test_hv_demo_rejects_dim3(self, capsys, tmp_path):
        path = write_density(tmp_path, identity(3) / 3, "m3.json")
        code, _, err = run(capsys, "hv-demo", "--phi", "z+", "--a", f"@{path}", "--b", "SY")
        assert code == 2

    def test_reconstruct_trace_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(8)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        u = g @ g.conj().T
        u /= np.trace(u).real
        path = write_density(tmp_path, u)
        code, out, _ = run(
            capsys, "reconstruct", "--functional", f"trace:@{path}",
            "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["passed"] is True
        entries = data["density"]["entries"]
        got = np.array([[complex(c[0], c[1]) for c in row] for row in entries])
        assert frobenius(got - u) <= 1e-10
        assert len(data["transcript"]) == 9

    def test_reconstruct_maxeig_fails_additivity(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--functional", "maxeig", "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["passed"] is False
        assert data["verdict"]["kind"] == "b-prime-violation"

    def test_reconstruct_hv_fails_additivity_only(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--functional", "hv:z+:0.3", "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["verdict"]["kind"] == "b-prime-violation"

    def test_reconstruct_pure_state(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--functional", "pure:z+", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["density"]["entries"][0][0] == [1.0, 0.0]

    def test_dispersion_witness_pure(self, capsys, tmp_path):
        path = write_density(tmp_path, np.diag([1.0, 0.0]))
        code, out, _ = run(
            capsys, "dispersion-witness", "--density", f"@{path}", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert abs(data["dispersion"] - 0.25) <= 1e-12

    def test_dispersion_witness_dim1_fails(self, capsys, tmp_path):
        path = write_density(tmp_path, np.array([[1.0]]))
        code, out, _ = run(
            capsys, "dispersion-witness", "--density", f"@{path}", "--format", "json",
        )
        assert code == 1
        assert json.loads(out)["passed"] is False

    def test_jointmeas_commuting(self, capsys):
        code, out, _ = run(
            capsys, "jointmeas", "--a", "SZ", "--b", "2*SZ + 3*I", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["jointly_measurable"] is True
        assert data["generator"] is not None
        assert set(data["generator"]) == {"t", "f_table", "g_table"}

    def test_jointmeas_noncommuting(self, capsys):
        code, out, _ = run(
            capsys, "jointmeas", "--a", "SX", "--b", "SY", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["jointly_measurable"] is False
        assert data["generator"] is None
        assert abs(data["commutator_square_norm"] - 4 * math.sqrt(2)) <= 1e-12

    def test_jointmeas_tiny_non_commuting_pair(self, capsys):
        # the commutator norm 2.8e-10 is small, but so are the operators
        code, out, _ = run(capsys, "jointmeas", "--a", "0.00001*SX", "--b", "0.00001*SY")
        assert code == 0
        assert "verdict: not jointly measurable" in out
        _, out, _ = run(capsys, "jointmeas", "--a", "0.00001*SX", "--b", "0.00001*SY",
                        "--format", "json")
        data = json.loads(out)
        assert data["jointly_measurable"] is False
        assert data["generator"] is None

    def test_jointmeas_nearly_commuting_certificate(self, capsys):
        # C = AB - BA = 2e-3i·SY, so ||C·C|| = 4e-6·||I|| = 4√2·1e-6; the
        # fourth-degree words RSRS, ... are about 1e12 each and their sum
        # would cancel to 0
        argv = ("jointmeas", "--a", "1000*SZ", "--b", "1000*SZ + 0.000001*SX")
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["jointly_measurable"] is False
        exact = 4 * math.sqrt(2) * 1e-6
        assert abs(data["commutator_square_norm"] - exact) <= 1e-12 * exact
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert "certificate |(AB-BA)^2|: 0.00000566\n" in out

    def test_jointmeas_tiny_eigenvalue_gap(self, capsys):
        # the eigenvalues +-1e-9 of B are far apart on the scale of B
        code, out, _ = run(capsys, "jointmeas", "--a", "I", "--b", "0.000000001*SZ",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["jointly_measurable"] is True
        assert sorted(data["generator"]["g_table"].values()) == [-1e-9, 1e-9]

    def test_jointmeas_gap_small_against_identity_part(self, capsys):
        # the clustering gap is relative to the spectral radius, not to the
        # spread: 0.002 is below 1e-8 * 1e6, so the two eigenvalues of A are
        # one cluster and f(T) = 999999.999 * I misses A by 1.4e-9 of its norm
        code, out, _ = run(capsys, "jointmeas", "--a", "1000000*I + 0.001*SZ", "--b", "I",
                           "--format", "json")
        assert code == 0
        gen = json.loads(out)["generator"]
        assert gen["f_table"] == {"0": 999999.999}
        assert gen["g_table"] == {"0": 1.0}
        assert gen["t"]["entries"] == [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]

    def test_jointmeas_non_hermitian_expr(self, capsys):
        code, _, err = run(capsys, "jointmeas", "--a", "SX * SY", "--b", "SZ")
        assert code == 2
        assert "Hermitian" in err

    def test_syntax_error_exit_code(self, capsys):
        code, _, err = run(capsys, "spectrum", "--expr", "SX +")
        assert code == 2
        assert "line 1" in err

    def test_error_as_json(self, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--expr", "SX +", "--format", "json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["passed"] is False
        assert data["error"]["type"] == "ExprSyntaxError"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_nesting_past_cap_refused(self, capsys, fmt):
        text = "(" * 1000 + "SX" + ")" * 1000
        code, out, err = run(capsys, "spectrum", "--expr", text, "--format", fmt)
        assert code == 2
        message = (f"expression nested deeper than {MAX_NESTING} levels "
                   f"(line 1, column {MAX_NESTING + 1})")
        if fmt == "json":
            assert err == ""
            assert json.loads(out)["error"] == {"type": "ExprSyntaxError", "message": message}
        else:
            assert (out, err) == ("", f"error: {message}\n")

    def test_long_flat_sum(self, capsys):
        code, out, err = run(
            capsys, "spectrum", "--expr", "+".join(["SX"] * 5000), "--format", "json",
        )
        assert (code, err) == (0, "")
        assert json.loads(out)["eigenvalues"] == [-5000.0, 5000.0]

    def test_unknown_subcommand(self, capsys):
        assert run_command(["no-such-command"]) == 2

    def test_missing_required_flag(self, capsys):
        assert run_command(["spectrum"]) == 2

    def test_bad_state_label(self, capsys):
        code, _, err = run(capsys, "hv-demo", "--phi", "q+", "--a", "SX", "--b", "SY")
        assert code == 2

    def test_bad_density_file(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "entries": [[[1,0]],[[0,0],[1,0]]]}')
        code, _, _ = run(capsys, "dispersion-witness", "--density", f"@{path}")
        assert code == 2

    def test_bad_density_boolean_cell(self, capsys, tmp_path):
        path = tmp_path / "bool.json"
        path.write_text('{"dim": 1, "entries": [[[true, false]]]}')
        code, out, _ = run(
            capsys, "dispersion-witness", "--density", f"@{path}", "--format", "json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["schema"] == 1
        assert data["command"] == "dispersion-witness"
        assert data["passed"] is False
        assert data["error"]["type"] == "ValidationError"
        assert "real numbers" in data["error"]["message"]

    def test_state_file_boolean_entries(self, capsys, tmp_path):
        path = tmp_path / "bool_state.json"
        path.write_text("[[true, false], [false, false]]")
        code, out, _ = run(
            capsys, "hv-demo", "--phi", f"@{path}", "--a", "SX", "--b", "SY",
            "--format", "json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["passed"] is False
        assert "real numbers" in data["error"]["message"]

    def test_density_fractional_dim(self, capsys, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text('{"dim": 1.9, "entries": [[[1, 0]]]}')
        code, out, _ = run(
            capsys, "dispersion-witness", "--density", f"@{path}", "--format", "json",
        )
        assert code == 2
        data = json.loads(out)
        assert data["error"]["type"] == "ValidationError"
        assert "integer" in data["error"]["message"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("density, argv, message", [
        ('{"dim": 1.5, "entries": [[[1, 0]]]}', ("dispersion-witness", "--density", "@{path}"),
         "matrix JSON 'dim' must be an integer, got 1.5"),
        ('{"entries": [[[1, 0]]]}', ("dispersion-witness", "--density", "@{path}"),
         "matrix JSON 'dim' is missing"),
        # a file's value is named as JSON spells it, not as Python does
        ('{"dim": true, "entries": [[[1, 0]]]}', ("dispersion-witness", "--density", "@{path}"),
         "matrix JSON 'dim' must be an integer, got true"),
        ('{"dim": null, "entries": [[[1, 0]]]}', ("dispersion-witness", "--density", "@{path}"),
         "matrix JSON 'dim' must be an integer, got null"),
        (None, ("reconstruct", "--functional", "maxeig", "--dim", "0"),
         "functional dimension must be at least 1"),
    ], ids=["float-density-dim", "missing-density-dim", "true-density-dim", "null-density-dim",
            "maxeig-dim-zero"])
    def test_integer_refusal_texts(self, capsys, tmp_path, density, argv, message, fmt):
        # the library's one integer rule, as the command line prints it
        path = tmp_path / "dim.json"
        if density is not None:
            path.write_text(density)
        code, out, err = run(capsys, *(arg.format(path=path) for arg in argv), "--format", fmt)
        assert code == 2
        if fmt == "text":
            assert (out, err) == ("", f"error: {message}\n")
            return
        assert err == ""
        assert json.loads(out) == {
            "schema": 1, "command": argv[0], "passed": False,
            "error": {"type": "ValidationError", "message": message},
        }

    def test_matrix_file_coerced_once(self, capsys, monkeypatch, tmp_path):
        # matrix_from_json hands over a square complex128 array, which only
        # the HermitianOperator built from it coerces and copies
        path = write_density(tmp_path, np.diag([0.25, 0.75]))
        calls = []

        def counting(entries):
            calls.append(1)
            return as_square_matrix(entries)

        monkeypatch.setattr(operator_core, "as_square_matrix", counting)
        code, out, err = run(capsys, "spectrum", "--expr", f"@{path}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["eigenvalues"] == [0.25, 0.75]
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [
        ("reconstruct", "--functional", "hv:z+:0.3", "--lin-tol", "nan"),
        ("reconstruct", "--functional", "maxeig", "--lin-tol", "-1"),
        ("jointmeas", "--a", "SZ", "--b", "2*SZ", "--comm-tol", "nan"),
    ], ids=["lin-tol-nan", "lin-tol-negative", "comm-tol-nan"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert f"{argv[-2]} must be finite and positive" in err

    @pytest.mark.parametrize("argv, message", [
        (("reconstruct", "--functional", "pure:z+", "--trials", "0"), "--trials must be at least 1"),
        (("hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--lambda-grid-size", "1"),
         "--lambda-grid-size must be at least 2"),
        (("reconstruct", "--functional", "hv:z+:0.3", "--lin-tol", "nan"),
         "--lin-tol must be finite and positive"),
        (("jointmeas", "--a", "SZ", "--b", "2*SZ", "--comm-tol", "nan"),
         "--comm-tol must be finite and positive"),
    ], ids=["trials-0", "grid-1", "lin-tol-nan", "comm-tol-nan"])
    def test_argument_errors_as_json(self, capsys, argv, message):
        code, out, err = run(capsys, *argv, "--format", "json")
        assert (code, err) == (2, "")
        assert_error_document(out, argv[0], message)

    def test_bad_seed_env_as_json(self, capsys, monkeypatch):
        monkeypatch.setenv("DISPERSIONLESS_SEED", "not-a-number")
        code, out, err = run(
            capsys, "reconstruct", "--functional", "pure:z+", "--format", "json",
        )
        assert (code, err) == (2, "")
        assert_error_document(out, "reconstruct", "DISPERSIONLESS_SEED must be an integer")

    @pytest.mark.parametrize("argv, flag, limit, message", [
        (("reconstruct", "--functional", "maxeig"), "--dim", 32,
         "reconstruct handles dimension at most 32"),
        (("reconstruct", "--functional", "pure:z+"), "--trials", 10_000,
         "--trials must be at most 10000"),
        (("hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY"), "--lambda-grid-size", 1_000_000,
         "--lambda-grid-size must be at most 1000000"),
    ], ids=["dim", "trials", "grid"])
    def test_input_limits(self, capsys, monkeypatch, argv, flag, limit, message):
        # the limit itself gets as far as reconstruction or the grid; one
        # above it is refused before either starts
        monkeypatch.setattr(cli, "_reconstruct", _reached)
        monkeypatch.setattr(cli, "lambda_grid", _reached)
        with pytest.raises(_Reached):
            run_command([*argv, flag, str(limit)])
        code, out, err = run(capsys, *argv, flag, str(limit + 1))
        assert (code, out) == (2, "")
        assert message in err
        code, out, err = run(capsys, *argv, flag, str(limit + 1), "--format", "json")
        assert (code, err) == (2, "")
        assert_error_document(out, argv[0], message)

    def test_trace_file_dimension_limit(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(matrix_to_json(identity(33) / 33)))
        monkeypatch.setattr(cli, "_reconstruct", _reached)
        code, out, _ = run(
            capsys, "reconstruct", "--functional", f"trace:@{path}", "--format", "json",
        )
        assert code == 2
        assert_error_document(out, "reconstruct", "dimension at most 32, got 33")

    def test_state_from_file(self, capsys, tmp_path):
        path = tmp_path / "state.json"
        path.write_text(json.dumps([[1.0, 0.0], [1.0, 0.0]]))
        code, out, _ = run(
            capsys, "hv-demo", "--phi", f"@{path}", "--a", "SX", "--b", "2*SX",
            "--lambda-grid-size", "50", "--format", "json",
        )
        assert code == 0
        data = json.loads(out)
        assert data["violation_fraction"] == 0.0
        root_half = 1 / math.sqrt(2)
        assert data["phi"] == [[root_half, 0.0], [root_half, 0.0]]

    def test_grid_size_validated(self, capsys):
        code, _, _ = run(
            capsys, "hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY",
            "--lambda-grid-size", "1",
        )
        assert code == 2

    def test_seed_env_override(self, capsys, monkeypatch):
        monkeypatch.setenv("DISPERSIONLESS_SEED", "99")
        code, _, _ = run(capsys, "reconstruct", "--functional", "pure:z+")
        assert code == 0

    def test_bad_seed_env(self, capsys, monkeypatch):
        monkeypatch.setenv("DISPERSIONLESS_SEED", "not-a-number")
        code, _, _ = run(capsys, "reconstruct", "--functional", "pure:z+")
        assert code == 2


OPTIONS = {
    "verify-appendix1": set(),
    "reconstruct": {"--functional", "--dim", "--seed", "--trials", "--lin-tol"},
    "dispersion-witness": {"--density"},
    "jointmeas": {"--a", "--b", "--comm-tol"},
    "hv-demo": {"--phi", "--a", "--b", "--lambda-grid-size"},
    "spectrum": {"--expr"},
}


class TestOptionSets:
    """Each option sits only on the command whose handler reads it."""

    def test_each_command_has_exactly_its_options(self):
        parser = cli.build_parser()
        (commands,) = [a.choices for a in parser._actions
                       if isinstance(a, argparse._SubParsersAction)]
        assert set(commands) == set(OPTIONS)
        for name, sub in commands.items():
            got = {flag for action in sub._actions for flag in action.option_strings}
            assert got == {"-h", "--help", "--format"} | OPTIONS[name], name

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--expr", "SZ", "--trials", "5"),
        ("verify-appendix1", "--seed", "1"),
        ("jointmeas", "--a", "SX", "--b", "SY", "--lin-tol", "0.5"),
        ("hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--comm-tol", "1"),
    ], ids=["spectrum-trials", "verify-seed", "jointmeas-lin-tol", "hv-demo-comm-tol"])
    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_foreign_option_refused(self, capsys, argv, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert (code, out) == (2, "")
        assert f"unrecognized arguments: {argv[-2]}" in err

    def test_bad_seed_env_ignored_without_seed_option(self, capsys, monkeypatch):
        monkeypatch.setenv("DISPERSIONLESS_SEED", "not-a-number")
        code, out, _ = run(capsys, "spectrum", "--expr", "SZ")
        assert code == 0
        assert out.strip() == "[-1.00000000, 1.00000000]"


PARSE_CORPUS = [
    [], ["spectrum"], ["spectrum", "--expr", "SX"],
    ["spectrum", "--expr", "SX", "--format", "json"],
    ["spectrum", "--expr=SX", "--format=json"], ["spectrum", "--ex", "SX"], ["spectrum", "-h"],
    ["spectrum", "--expr", "SX", "--help"], ["spectrum", "--expr", "SX", "--trials", "5"],
    ["spectrum", "--expr", "SX", "extra", "--bogus"], ["spectrum", "--", "--expr", "SX"],
    ["spectrum", "--expr", "--", "SX"], ["spectrum", "--expr", "SX", "--format", "xml"],
    ["verify-appendix1"], ["verify-appendix1", "--seed", "1"], ["verify-appendix1", "-h"],
    ["reconstruct", "--functional", "maxeig", "--dim", "3", "--seed", "4", "--trials", "9",
     "--lin-tol", "1e-6", "--format", "json"],
    ["reconstruct", "--functional", "maxeig", "--dim", "x"], ["reconstruct", "--dim", "3"],
    ["reconstruct", "--functional", "maxeig", "--comm-tol", "1", "--lambda-grid-size", "3"],
    ["dispersion-witness", "--density", "@u.json"], ["dispersion-witness"],
    ["jointmeas", "--a", "SX", "--b", "SY", "--comm-tol", "1e-3"], ["jointmeas", "--a", "SX"],
    ["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--lambda-grid-size", "10"],
    ["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--lin-tol", "0.5"],
    ["-h"], ["--help"], ["--format", "json", "spectrum", "--expr", "SX"], ["--", "spectrum"],
    ["spectrm", "--expr", "SX"], ["SPECTRUM"], ["--bogus"], [""],
]
PARSE_TOKENS = st.sampled_from([
    *OPTIONS, "--functional", "--dim", "--seed", "--trials", "--lin-tol", "--density", "--a",
    "--b", "--comm-tol", "--phi", "--lambda-grid-size", "--expr", "--format", "-h", "--help", "--",
    "--bogus", "--fo", "--format=json", "--dim=3", "json", "text", "maxeig", "SX", "z+", "3", "-1",
    "1e-3", "x", "", "-",
])


def _parse_outcome(parse, argv):
    """(exit code or None, stdout, stderr, namespace or None) of parse(argv)."""
    out, err = io.StringIO(), io.StringIO()
    code = namespace = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            namespace = vars(parse(list(argv)))
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue(), namespace


class TestOnePassParse:
    """A command line that starts with a command's name goes to its subparser
    alone, with the same output, exit code and namespace as the full parser."""

    @pytest.mark.parametrize("argv", PARSE_CORPUS, ids=" ".join)
    def test_corpus_matches_full_parser(self, argv):
        full = _parse_outcome(cli.build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse, argv) == full

    @settings(max_examples=300, deadline=None)
    @given(argv=st.one_of(
        st.lists(PARSE_TOKENS, max_size=7),
        st.builds(lambda name, rest: [name, *rest], st.sampled_from(sorted(OPTIONS)),
                  st.lists(PARSE_TOKENS, max_size=7))))
    def test_generated_lines_match_full_parser(self, argv):
        full = _parse_outcome(cli.build_parser().parse_args, argv)
        assert _parse_outcome(cli._parse, argv) == full

    def test_command_line_skips_the_top_level_parse(self, monkeypatch):
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", _reached)
        assert cli._parse(["spectrum", "--expr", "SX"]).command == "spectrum"

    def test_foreign_option_is_reported_by_the_top_level_parser(self, capsys):
        code, out, err = run(capsys, "spectrum", "--expr", "SX", "--seed", "1")
        assert (code, out) == (2, "")
        assert err == (cli.build_parser().format_usage()
                       + "dispersionless: error: unrecognized arguments: --seed 1\n")


class TestParserReuse:
    def test_parser_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_usage_error_leaves_parser_clean(self, capsys):
        argv = ["jointmeas", "--a", "SX", "--b", "SZ", "--format", "json"]
        alone = subprocess.run(
            [sys.executable, "-m", "dispersionless", *argv], capture_output=True, text=True,
        )
        code, out, _ = run(capsys, "jointmeas", "--a", "SX", "--lin-tol", "0.5")
        assert (code, out) == (2, "")
        assert run(capsys, *argv) == (alone.returncode, alone.stdout, alone.stderr)


class TestReconstructOptions:
    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("dim", ["5", "0"])
    def test_dim_must_match_functional(self, capsys, monkeypatch, dim, fmt):
        monkeypatch.setattr(cli, "_reconstruct", _reached)
        code, out, err = run(
            capsys, "reconstruct", "--functional", "pure:x+", "--dim", dim, "--format", fmt,
        )
        message = f"--dim {dim} does not match the dimension 2 of pure:x+"
        assert code == 2
        assert_refused(fmt, out, err, "reconstruct", message)

    def test_dim_matching_functional_accepted(self, capsys, tmp_path):
        path = write_density(tmp_path, identity(3) / 3)
        code, out, _ = run(
            capsys, "reconstruct", "--functional", f"trace:@{path}", "--dim", "3",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)["transcript"]) == 9

    def test_maxeig_dim(self, capsys):
        code, out, _ = run(
            capsys, "reconstruct", "--functional", "maxeig", "--dim", "4", "--format", "json",
        )
        assert code == 1
        data = json.loads(out)
        assert data["functional"] == "maxeig(dim=4)"
        assert len(data["transcript"]) == 16
        code, out, _ = run(capsys, "reconstruct", "--functional", "maxeig", "--format", "json")
        assert json.loads(out)["functional"] == "maxeig(dim=2)"

    def test_maxeig_dim_zero_refused(self, capsys, monkeypatch):
        # a zero --dim is an error, not a fallback to the default dimension
        monkeypatch.setattr(cli, "_reconstruct", _reached)
        code, out, err = run(capsys, "reconstruct", "--functional", "maxeig", "--dim", "0")
        assert (code, out) == (2, "")
        assert "dimension must be at least 1" in err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("seed_arg, seed_env, message", [
        ("-1", None, "--seed must be non-negative, got -1"),
        (None, "-3", "DISPERSIONLESS_SEED must be non-negative, got '-3'"),
    ], ids=["flag", "env"])
    def test_negative_seed_refused(self, capsys, monkeypatch, seed_arg, seed_env, message, fmt):
        monkeypatch.setattr(cli, "_reconstruct", _reached)
        if seed_env is None:
            monkeypatch.delenv("DISPERSIONLESS_SEED", raising=False)
        else:
            monkeypatch.setenv("DISPERSIONLESS_SEED", seed_env)
        seed = [] if seed_arg is None else ["--seed", seed_arg]
        code, out, err = run(
            capsys, "reconstruct", "--functional", "maxeig", *seed, "--format", fmt,
        )
        assert code == 2
        assert_refused(fmt, out, err, "reconstruct", message)


def hv_demo_payload(report) -> dict:
    """The hv-demo JSON payload, one row object per parameter value, from the report's arrays."""
    keys = ("lambda", "vR", "vS", "vRplusS", "delta")
    columns = (report.lambdas, report.values_r, report.values_s, report.values_sum, report.deltas)
    return {
        "schema": 1, "command": "hv-demo", "passed": True,
        "phi": [[float(z.real), float(z.imag)] for z in report.phi.vector],
        "pairs": [dict(zip(keys, row)) for row in zip(*(c.tolist() for c in columns))],
        "avg_delta": report.avg_delta,
        "violation_fraction": report.violation_fraction,
    }


class TestHvDemoRows:
    """hv-demo writes its rows from the report's columns, with the bytes of json.dumps."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        size=st.integers(2, 3000),
        exponent=st.integers(-12, 12),
        kind=st.sampled_from(["random", "parallel", "identity", "zero"]),
    )
    def test_stdout_equals_stdlib_dump(self, seed, size, exponent, kind):
        rng = np.random.default_rng(seed)
        r = 10.0**exponent * random_hermitian(2, rng).matrix
        s = {
            "random": random_hermitian(2, rng).matrix,
            "parallel": -0.5 * r + 3.0 * identity(2),
            "identity": identity(2),
            "zero": 0.0 * r,
        }[kind]
        psi = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        with tempfile.TemporaryDirectory() as tmp:
            paths = [str(Path(tmp) / name) for name in ("phi.json", "r.json", "s.json")]
            Path(paths[0]).write_text(json.dumps([[z.real, z.imag] for z in psi]))
            Path(paths[1]).write_text(json.dumps(matrix_to_json(r)))
            Path(paths[2]).write_text(json.dumps(matrix_to_json(s)))
            phi_spec, r_spec, s_spec = (f"@{path}" for path in paths)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = run_command(["hv-demo", "--phi", phi_spec, "--a", r_spec, "--b", s_spec,
                                    "--lambda-grid-size", str(size), "--format", "json"])
            report = hidden_variables.additivity_violation_report(
                cli.state_from_spec(phi_spec), parse_hermitian(r_spec), parse_hermitian(s_spec),
                hidden_variables.lambda_grid(size))
        assert code == 0
        expected = json.dumps(hv_demo_payload(report), indent=2, sort_keys=True) + "\n"
        assert out.getvalue() == expected

    def test_special_values(self):
        special = [-0.0, 0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
                   2.2250738585072014e-308, 1.0, 1.0, -0.0, 0.1, -1e300, 1.0]
        columns = [np.roll(np.array(special), shift) for shift in (0, 1, 4, 9)]
        report = hidden_variables.SubensembleReport(
            PureState.from_label("y-"), *columns,
            average_r=math.nan, average_s=-0.0, average_sum=math.inf,
            quantum_r=0.0, quantum_s=0.0, quantum_sum=0.0,
        )
        # inf - inf in the deltas is part of the data here
        with np.errstate(invalid="ignore", over="ignore"):
            expected = json.dumps(hv_demo_payload(report), indent=2, sort_keys=True)
            assert cli._hv_demo_json(report) == expected
        for text in ("NaN", "Infinity", "-Infinity", "-0.0", "5e-324",
                     "2.2250738585072014e-308"):
            assert f": {text}," in expected or f": {text}\n" in expected

    @pytest.mark.parametrize("kind", ["non-commuting", "parallel"])
    def test_shuffled_lambdas(self, kind):
        # an unsorted lambda array breaks the rows into many runs of constant outcomes
        rng = np.random.default_rng(19)
        r = random_hermitian(2, rng).matrix
        s = random_hermitian(2, rng).matrix if kind == "non-commuting" else -0.5 * r + identity(2)
        report = hidden_variables.additivity_violation_report(
            PureState.normalized(rng.standard_normal(2) + 1j * rng.standard_normal(2)), r, s,
            rng.permutation(hidden_variables.lambda_grid(1000)))
        assert np.count_nonzero(np.diff(report.values_r)) > 100
        expected = json.dumps(hv_demo_payload(report), indent=2, sort_keys=True)
        assert cli._hv_demo_json(report) == expected

    @pytest.mark.parametrize("steps", [
        [1.0, -1.0, 1.0],
        [0.0, -0.0, 0.0],
        [math.nan, -math.nan, math.nan],
    ])
    def test_runs_that_come_back(self, steps):
        # a step value that returns after another, or differs only in its sign bit
        column = np.repeat(steps, [3, 1, 2])
        report = hidden_variables.SubensembleReport(
            PureState.from_label("z+"), hidden_variables.lambda_grid(6),
            column, np.full(6, -0.0), column[::-1].copy(),
            average_r=0.0, average_s=0.0, average_sum=0.0,
            quantum_r=0.0, quantum_s=0.0, quantum_sum=0.0,
        )
        expected = json.dumps(hv_demo_payload(report), indent=2, sort_keys=True)
        assert cli._hv_demo_json(report) == expected

    def test_no_rows(self):
        report = hidden_variables.additivity_violation_report(
            PureState.from_label("z+"), SIGMA_X, SIGMA_Z, [])
        expected = json.dumps(hv_demo_payload(report), indent=2, sort_keys=True)
        assert cli._hv_demo_json(report) == expected
        assert '"pairs": []' in expected


def test_hv_demo_json_is_joined_once():
    # the rows are joined into the document once, so no rows text or spliced
    # copy of the document is alive beside it (a per-run join spliced into the
    # header read 3.96x on Python 3.11)
    argv = ["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY",
            "--lambda-grid-size", "100000", "--format", "json"]
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.5 * len(out.getvalue())


def test_reconstruct_json_is_joined_once():
    # the rows share the zero row's untouched blocks and are joined into the
    # document once, so no copy of the rows is alive beside it (1.24x on
    # Python 3.11; probe dicts walked by _dumps read 4.98x)
    argv = ["reconstruct", "--functional", "maxeig", "--dim", "16", "--format", "json"]
    with contextlib.redirect_stdout(io.StringIO()):
        run_command(argv)  # fills the zero row's cache
    out = io.StringIO()
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(out):
            code = run_command(argv)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak <= 2 * len(out.getvalue())


def random_density(dim, seed):
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    u = g @ g.conj().T
    return u / np.trace(u).real


def expected_reconstruct_json(spec, dim, seed):
    """json.dumps(..., indent=2, sort_keys=True) of the reconstruct payload, its
    transcript built from one matrix_to_json per hermitian_basis element, and
    whether it passed."""
    functional, label = cli.functional_from_spec(spec, dim)
    try:
        values, density = expectation_functionals._reconstruct(functional, 32, seed, LIN_TOL)
        result = {"density": matrix_to_json(density.matrix)}
    except FunctionalViolation as exc:
        values, result = exc.values, {"verdict": cli._verdict_json(exc)}
    transcript = [{"probe": matrix_to_json(op.matrix), "value": v}
                  for op, v in zip(hermitian_basis(functional.dim), values.tolist())]
    payload = {"schema": 1, "command": "reconstruct", "passed": "density" in result,
               "functional": label, "transcript": transcript, **result}
    return json.dumps(payload, indent=2, sort_keys=True), payload["passed"]


def reconstruct_spec(kind, dim, tmp_path):
    """A --functional spec of the given kind in dimension dim."""
    rng = np.random.default_rng(dim)
    if kind == "maxeig":
        return "maxeig"
    if kind == "pure":
        vector = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
        path = tmp_path / "phi.json"
        path.write_text(json.dumps([[z.real, z.imag] for z in vector]))
        return f"pure:@{path}"
    u = random_density(dim, dim)
    if kind == "trace-a-prime":
        u = 2 * u
    elif kind == "trace-negative":
        # u's eigenvectors, eigenvalue -1/2 on one and 3/2 spread over the rest: trace 1
        w = np.full(dim, 1.5 / (dim - 1))
        w[0] = -0.5
        v = np.linalg.eigh(u)[1]
        u = (v * w) @ v.conj().T
    return f"trace:@{write_density(tmp_path, u)}"


class TestReconstructTranscript:
    """The transcript holds reconstruction's own basis values, built only for JSON."""

    # no 1 x 1 trace form of trace 1 is negative
    @pytest.mark.parametrize("kind, dim", [
        (kind, dim) for kind in ("maxeig", "pure", "trace", "trace-a-prime", "trace-negative")
        for dim in (1, 2, 3, 9, 10, 16) if (kind, dim) != ("trace-negative", 1)])
    def test_bytes_equal_stdlib_dump(self, capsys, tmp_path, kind, dim):
        spec = reconstruct_spec(kind, dim, tmp_path)
        code, out, err = run(capsys, "reconstruct", "--functional", spec, "--dim", str(dim),
                             "--seed", "5", "--format", "json")
        expected, passed = expected_reconstruct_json(spec, dim, 5)
        assert passed == (kind in ("trace", "pure") or (kind, dim) == ("maxeig", 1))
        assert (code, err) == (0 if passed else 1, "")
        assert out == expected + "\n"

    def test_label_holding_the_transcript_key(self, capsys, tmp_path):
        # the label is a JSON string before the transcript, where the key's quotes are escaped
        name = 'a"transcript": [].json'
        spec = f"trace:@{write_density(tmp_path, random_density(2, 3), name)}"
        code, out, _ = run(capsys, "reconstruct", "--functional", spec, "--seed", "5",
                           "--format", "json")
        assert code == 0
        assert out == expected_reconstruct_json(spec, None, 5)[0] + "\n"

    def test_hv_bytes_equal_stdlib_dump(self, capsys):
        code, out, _ = run(capsys, "reconstruct", "--functional", "hv:x+:0.3", "--seed", "5",
                           "--format", "json")
        assert code == 1
        assert out == expected_reconstruct_json("hv:x+:0.3", None, 5)[0] + "\n"

    def test_imaginary_cross_term_cells(self, capsys):
        # i(|0><1| - |1><0|): 1j above the diagonal is (0.0, 1.0), -1j below it (-0.0, -1.0)
        code, out, _ = run(capsys, "reconstruct", "--functional", "maxeig", "--format", "json")
        assert code == 1
        entries = json.loads(out)["transcript"][3]["probe"]["entries"]
        assert entries[0][1] == [0.0, 1.0] and math.copysign(1.0, entries[0][1][0]) == 1.0
        assert entries[1][0] == [-0.0, -1.0] and math.copysign(1.0, entries[1][0][0]) == -1.0
        assert "[\n" + " " * 14 + "-0.0,\n" + " " * 14 + "-1.0\n" in out

    def test_each_basis_element_evaluated_once(self, capsys, monkeypatch):
        inner = trace_functional(HermitianOperator(random_density(3, 4)))
        calls = []

        def evaluate_stack(stack):
            calls.extend(m.tobytes() for m in stack)
            return inner._evaluate_stack(stack)

        counting = ExpectationFunctional(3, evaluate_stack=evaluate_stack)
        monkeypatch.setattr(cli, "functional_from_spec", lambda spec, dim: (counting, spec))
        code, out, _ = run(capsys, "reconstruct", "--functional", "counted", "--seed", "3",
                           "--trials", "5", "--format", "json")
        assert code == 0
        cli_calls = calls[:]
        calls.clear()
        reconstruct_density(counting, probe_count=5, seed=3)
        # the basis once, then f(I), the identity probe, the triple and 5 random probes
        basis = hermitian_basis(3)
        assert cli_calls == calls
        assert calls[:9] == [op.matrix.tobytes() for op in basis]
        assert len(calls) == 9 + 1 + 1 + 3 + 5
        transcript = json.loads(out)["transcript"]
        assert [row["probe"] for row in transcript] == [matrix_to_json(op.matrix) for op in basis]
        assert [row["value"] for row in transcript] == [inner(op) for op in basis]

    def test_transcript_across_several_bands(self, capsys, tmp_path):
        # d = 16 sweeps the basis in 8 bands of one reused buffer
        dim, u = 16, random_density(16, 7)
        assert sum(1 for _ in expectation_functionals._basis_bands(dim)) == 8
        path = write_density(tmp_path, u, "rho16.json")
        code, out, _ = run(capsys, "reconstruct", "--functional", f"trace:@{path}",
                           "--format", "json")
        assert code == 0
        elements = [np.diag(np.eye(dim)[n]).astype(complex) for n in range(dim)]
        for m in range(dim):
            for n in range(m + 1, dim):
                for above in (1.0, 1.0j):
                    e = np.zeros((dim, dim), dtype=complex)
                    e[m, n], e[n, m] = above, np.conj(above)
                    elements.append(e)
        transcript = json.loads(out)["transcript"]
        assert len(transcript) == dim * dim
        for row, e in zip(transcript, elements):
            probe = np.array([[complex(*cell) for cell in r] for r in row["probe"]["entries"]])
            assert np.array_equal(probe, e)
            assert abs(row["value"] - np.trace(u @ e).real) <= 1e-12

    def test_text_renders_no_probe(self, capsys, monkeypatch, tmp_path):
        path = write_density(tmp_path, random_density(4, 5))
        for name in ("matrix_to_json", "_reconstruct_json"):
            monkeypatch.setattr(cli, name, _reached)
        code, out, err = run(capsys, "reconstruct", "--functional", f"trace:@{path}")
        assert (code, err) == (0, "")
        assert out.startswith(f"functional trace:@{path} is normalized")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_normalization_violation_keeps_the_whole_transcript(self, capsys, tmp_path, fmt):
        u = 2 * random_density(3, 6)
        path = write_density(tmp_path, u)
        code, out, _ = run(capsys, "reconstruct", "--functional", f"trace:@{path}",
                           "--format", fmt)
        assert code == 1
        if fmt == "text":
            assert "value on the identity is" in out
            return
        data = json.loads(out)
        assert data["verdict"]["kind"] == "a-prime-violation"
        assert data["verdict"]["trace"] == pytest.approx(2.0)
        values = [np.trace(u @ op.matrix).real for op in hermitian_basis(3)]
        assert len(data["transcript"]) == 9
        assert [row["value"] for row in data["transcript"]] == pytest.approx(values, abs=1e-12)


JSON_TEXT = st.text(st.sampled_from([",", " ", "[", "]", '"', "\n", "\\", "{", "}", "%", ":",
                                     "a", "é", "λ", "\u2028", "\x00"]), max_size=6)
JSON_SCALARS = (
    st.floats(allow_nan=True, allow_infinity=True)
    | st.sampled_from([-0.0, 0.0, math.nan, math.inf, -math.inf, 10**400, -(10**30)])
    | st.integers(-(2**70), 2**70) | st.booleans() | st.none()
)
NUMERIC_ARRAYS = st.recursive(
    JSON_SCALARS, lambda inner: st.lists(inner, max_size=4) | st.tuples(inner, inner),
    max_leaves=24,
)
JSON_VALUES = st.recursive(
    JSON_SCALARS | JSON_TEXT | NUMERIC_ARRAYS,
    lambda inner: st.lists(inner, max_size=4) | st.tuples(inner)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    """_dumps writes the bytes json.dumps(..., indent=2, sort_keys=True) writes."""

    @settings(max_examples=400, deadline=None)
    @given(payload=st.dictionaries(JSON_TEXT, JSON_VALUES, max_size=5))
    def test_equals_stdlib(self, payload):
        assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)

    @pytest.mark.parametrize("payload", [
        [[1, 2], [3]], [[1], [[2]], [3]], [[1, [2]], [3, 4]], [[1], []], [[[1]], [2]],
        [0, [[1]]], [[1.5, -0.0], (2, 3)], [[1, "a, b"]], [[1, {}]], [[[1, 2], [3, 4]]], [],
    ], ids=repr)
    def test_arrays_of_mixed_depth(self, payload):
        assert cli._dumps(payload) == json.dumps(payload, indent=2, sort_keys=True)


BIG = "9" * 401


class TestOversizedIntegers:
    """A JSON integer beyond the float range is refused like an infinite entry."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv, error, message", [
        (("spectrum", "--expr", "@{m}"), "ExprEvalError", "matrix entries must be finite"),
        (("dispersion-witness", "--density", "@{m}"), "ValidationError",
         "matrix entries must be finite"),
        (("reconstruct", "--functional", "trace:@{m}"), "ValidationError",
         "matrix entries must be finite"),
        (("hv-demo", "--phi", "@{s}", "--a", "SX", "--b", "SY"), "CliInputError",
         "state vector entries must be finite"),
    ], ids=["spectrum", "witness", "reconstruct", "hv-demo"])
    def test_refused(self, capsys, tmp_path, argv, error, message, fmt):
        paths = {"m": tmp_path / "m.json", "s": tmp_path / "s.json"}
        paths["m"].write_text(f'{{"dim": 2, "entries": [[[1, 0], [0, 0]], [[0, 0], [-{BIG}, 0]]]}}')
        paths["s"].write_text(f"[[1, 0], [0, {BIG}]]")
        code, out, err = run(capsys, *(arg.format(**paths) for arg in argv), "--format", fmt)
        assert code == 2
        if fmt == "text":
            assert out == "" and message in err
            return
        assert err == ""
        data = json.loads(out)
        assert (data["passed"], data["error"]["type"]) == (False, error)
        assert message in data["error"]["message"]


class TestExtremeScales:
    """State and matrix files whose squares leave the float range."""

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("text", ["[[Infinity, 0], [0, 0]]", "[[NaN, 0], [1, 0]]"],
                             ids=["infinity", "nan"])
    def test_non_finite_state_refused(self, capsys, tmp_path, text, fmt):
        path = tmp_path / "s.json"
        path.write_text(text)
        code, out, err = run(capsys, "hv-demo", "--phi", f"@{path}", "--a", "SX", "--b", "SY",
                             "--format", fmt)
        assert code == 2
        assert_refused(fmt, out, err, "hv-demo", "state vector entries must be finite")
        if fmt == "text":
            assert err.count("\n") == 1

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("part", ["1e200", "1e-200", "1e-160"])
    def test_scaled_copies_of_x_plus(self, capsys, tmp_path, part, fmt):
        path = tmp_path / "s.json"
        path.write_text(f"[[{part}, 0], [{part}, 0]]")
        argv = ["--a", "SX + 0.5*SZ", "--b", "SY", "--lambda-grid-size", "9", "--format", fmt]
        code, out, err = run(capsys, "hv-demo", "--phi", f"@{path}", *argv)
        assert (code, err) == (0, "")
        expected = run(capsys, "hv-demo", "--phi", "x+", *argv)
        assert out == expected[1].replace("phi=x+", f"phi=@{path}")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("diagonal", [0, 1e200])
    def test_non_hermitian_matrix_refused(self, capsys, tmp_path, diagonal, fmt):
        # 1e200 at (0, 1) only: |m - m*|^2 and |m|^2 both overflow
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[diagonal, 0], [1e200, 0]],
                                                          [[0, 0], [diagonal, 0]]]}))
        code, out, err = run(capsys, "spectrum", "--expr", f"@{path}", "--format", fmt)
        assert code == 2
        if fmt == "text":
            assert out == "" and "matrix is not Hermitian" in err
            return
        assert err == ""
        data = json.loads(out)
        assert (data["passed"], data["error"]["type"]) == (False, "ExprEvalError")
        assert "matrix is not Hermitian (deviation 1.414e+200)" in data["error"]["message"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_non_hermitian_matrix_refused_when_its_deviation_overflows(self, capsys, tmp_path, fmt):
        # m - m* would hold +-inf; it is formed only on the scaled copy, so
        # numpy writes no overflow warning, which this suite turns into an error
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[0, 0], [1.5e308, 0]],
                                                          [[-1.5e308, 0], [0, 0]]]}))
        code, out, err = run(capsys, "spectrum", "--expr", f"@{path}", "--format", fmt)
        assert code == 2
        if fmt == "text":
            assert out == "" and "matrix is not Hermitian (deviation inf)" in err
            return
        assert err == ""
        assert "matrix is not Hermitian (deviation inf)" in json.loads(out)["error"]["message"]

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("argv", [
        ("jointmeas", "--a", "1e150*SX", "--b", "1e150*SY"),
        ("jointmeas", "--a", "1e200*SX", "--b", "1e200*SY"),
        ("spectrum", "--expr", "sq(1e200*SZ)"),
    ], ids=["jointmeas-1e150", "jointmeas-1e200", "spectrum-sq-1e200"])
    def test_overflow_refused(self, capsys, argv, fmt):
        # a floating-point overflow while a command runs refuses the input,
        # instead of a report of Infinity and NaN beside numpy's warnings
        state = np.geterr()
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert np.geterr() == state
        assert code == 2
        if fmt == "text":
            assert out == "" and err.startswith("error: overflow encountered in ")
            assert err.count("\n") == 1
            return
        assert err == ""
        data = json.loads(out)
        message = data["error"]["message"]
        assert data == {"schema": 1, "command": argv[0], "passed": False,
                        "error": {"type": "FloatingPointError", "message": message}}
        assert message.startswith("overflow encountered in ")

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("scale", ["1e300", "1e-200"])
    def test_hv_demo_answered_at_extreme_scales(self, capsys, scale, fmt):
        # the Bloch axis is normalized on a power-of-two scaled copy, so
        # squares past the float range neither refuse the run (1e300) nor
        # read the operators as multiples of the identity (1e-200)
        argv = ["--phi", "x+", "--lambda-grid-size", "9", "--format", fmt]
        code, out, err = run(capsys, "hv-demo", "--a", f"{scale}*SX", "--b", f"{scale}*SZ", *argv)
        assert (code, err) == (0, "")
        _, unit, _ = run(capsys, "hv-demo", "--a", "SX", "--b", "SZ", *argv)
        if fmt == "text":
            assert "per-point additivity violations: 1.0000 of grid" in out
            return
        data, unit = json.loads(out), json.loads(unit)
        assert data["violation_fraction"] == unit["violation_fraction"] == 1.0
        c = float(scale)
        for got, want in zip(data["pairs"], unit["pairs"], strict=True):
            assert got["lambda"] == want["lambda"]
            # each outcome is an eigenvalue of its operator: exactly +-c for
            # R and S, +-c sqrt(2) up to rounding for R + S
            assert (got["vR"], got["vS"]) == (c * want["vR"], c * want["vS"])
            assert abs(got["vRplusS"] - c * want["vRplusS"]) <= 1e-15 * c

    def test_large_hermitian_file_kept(self, capsys, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"dim": 2, "entries": [[[0, 0], [1.5e308, 0]],
                                                          [[1.5e308, 0], [0, 0]]]}))
        code, out, err = run(capsys, "spectrum", "--expr", f"@{path}", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["eigenvalues"] == [-1.5e308, 1.5e308]

    def test_large_hermitian_matrix_kept(self, capsys):
        code, out, err = run(capsys, "spectrum", "--expr", "1e200*SX", "--format", "json")
        assert (code, err) == (0, "")
        assert json.loads(out)["eigenvalues"] == [-1e200, 1e200]


class TestDeterminism:
    @pytest.mark.parametrize("argv", [
        ("hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--format", "json"),
        ("reconstruct", "--functional", "maxeig", "--format", "json"),
        ("verify-appendix1", "--format", "json"),
        ("jointmeas", "--a", "SX", "--b", "SY", "--format", "json"),
    ])
    def test_byte_identical_reports(self, capsys, argv):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second

    @pytest.mark.parametrize("a, b, output_format, expected", [
        ("SX", "SY", "json", """\
{
  "command": "jointmeas",
  "commutator_norm": 2.8284271247461903,
  "commutator_square_norm": 5.656854249492381,
  "generator": null,
  "jointly_measurable": false,
  "passed": true,
  "schema": 1,
  "square_product_deficit_norm": 0.0
}
"""),
        ("SX", "SY", "text", """\
A = SX
B = SY
verdict: not jointly measurable
commutator norm: 2.82842712
certificate |(AB-BA)^2|: 5.65685425
square-product deficit |A^2B^2 + B^2A^2 - (AB)(BA) - (BA)(AB)|: 0.00000000
"""),
        ("SZ", "2*SZ + 3*I", "json", """\
{
  "command": "jointmeas",
  "commutator_norm": 0.0,
  "commutator_square_norm": 0.0,
  "generator": {
    "f_table": {
      "0": -1.0,
      "1": 1.0
    },
    "g_table": {
      "0": 1.0,
      "1": 5.0
    },
    "t": {
      "dim": 2,
      "entries": [
        [
          [
            1.0,
            0.0
          ],
          [
            0.0,
            0.0
          ]
        ],
        [
          [
            0.0,
            0.0
          ],
          [
            0.0,
            0.0
          ]
        ]
      ]
    }
  },
  "jointly_measurable": true,
  "passed": true,
  "schema": 1,
  "square_product_deficit_norm": 0.0
}
"""),
        ("SZ", "2*SZ + 3*I", "text", """\
A = SZ
B = 2*SZ + 3*I
verdict: jointly measurable
commutator norm: 0.00000000
common generator T with readout tables:
  [+1.000000+0.000000j, +0.000000+0.000000j]
  [+0.000000+0.000000j, +0.000000+0.000000j]
  f: {0: -1.0, 1: 1.0}
  g: {0: 1.0, 1: 5.0}
"""),
    ], ids=["pauli-json", "pauli-text", "diagonal-json", "diagonal-text"])
    def test_pinned_jointmeas_reports(self, capsys, a, b, output_format, expected):
        # Pauli and diagonal inputs: every product and norm is exact, and the
        # eigenvectors of a diagonal matrix are unit vectors under any LAPACK,
        # so these bytes do not depend on one solver
        assert run(capsys, "jointmeas", "--a", a, "--b", b,
                   "--format", output_format) == (0, expected, "")


def test_closed_pipe_exits_without_traceback():
    # a report far larger than a pipe buffer, whose reader leaves after one line
    proc = subprocess.Popen(
        [sys.executable, "-m", "dispersionless", "hv-demo", "--phi", "z+", "--a", "SX",
         "--b", "SY", "--lambda-grid-size", "100001", "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline() == b"{\n"
    proc.stdout.close()
    stderr = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 1
    assert stderr == b""


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "dispersionless", "spectrum", "--expr", "SZ"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "[-1.00000000, 1.00000000]"
