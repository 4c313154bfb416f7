"""Small operator-expression language for the command line.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '@' FILEPATH

NUMBER is an unsigned decimal scalar, IDENT names a built-in constant
(I, SX, SY, SZ) or a function (sq, cube, abs, offspec), and '@path' loads
a matrix in the shared JSON wire format.  'I' adapts to the dimension of
whatever it is combined with, defaulting to 2 when nothing pins it down.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field

import numpy as np

from .operator_core import (
    FUNCALC_TOL,
    HermitianOperator,
    ValidationError,
    apply_function,
    eigendecompose,
    identity,
    indicator_outside,
    matrix_from_json,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

CONSTANTS = {"SX": SIGMA_X, "SY": SIGMA_Y, "SZ": SIGMA_Z}
_DEFAULT_DIM = 2


class ExprError(Exception):
    """Base for expression-language failures; carries a 1-based position."""

    def __init__(self, message: str, line: int = 0, col: int = 0):
        self.line = line
        self.col = col
        if line:
            message = f"{message} (line {line}, column {col})"
        super().__init__(message)


class ExprSyntaxError(ExprError):
    pass


class ExprEvalError(ExprError):
    pass


@dataclass(frozen=True)
class Num:
    value: float
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Const:
    name: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class FileRef:
    path: str
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class Call:
    func: str
    arg: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class BinOp:
    op: str
    left: object
    right: object
    pos: tuple[int, int] = field(default=(0, 0), compare=False, repr=False)


_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>[0-9]+(?:\.[0-9]*)?(?:[eE][+-]?[0-9]+)?|\.[0-9]+(?:[eE][+-]?[0-9]+)?)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<file>@[A-Za-z0-9_./\-]+)
  | (?P<op>[+\-*()])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str
    text: str
    line: int
    col: int


def _tokenize(src: str) -> list[_Token]:
    tokens = []
    line, col = 1, 1
    pos = 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ExprSyntaxError(f"unexpected character {src[pos]!r}", line, col)
        kind = m.lastgroup
        text = m.group()
        if kind != "ws":
            tokens.append(_Token(kind, text, line, col))
        newlines = text.count("\n")
        if newlines:
            line += newlines
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(_Token("eof", "", line, col))
    return tokens


class _Parser:
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0

    @property
    def current(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.current
        self.idx += 1
        return tok

    def expect_op(self, text: str):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.current
        if tok.kind != "eof":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.col
            )
        return node

    def expr(self):
        node = self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance()
            right = self.term()
            node = BinOp(op.text, node, right, pos=(op.line, op.col))
        return node

    def term(self):
        node = self.factor()
        while self.current.kind == "op" and self.current.text == "*":
            op = self.advance()
            right = self.factor()
            node = BinOp("*", node, right, pos=(op.line, op.col))
        return node

    def factor(self):
        tok = self.current
        if tok.kind == "number":
            self.advance()
            return Num(float(tok.text), pos=(tok.line, tok.col))
        if tok.kind == "file":
            self.advance()
            return FileRef(tok.text[1:], pos=(tok.line, tok.col))
        if tok.kind == "ident":
            self.advance()
            if self.current.kind == "op" and self.current.text == "(":
                self.advance()
                arg = self.expr()
                self.expect_op(")")
                return Call(tok.text, arg, pos=(tok.line, tok.col))
            return Const(tok.text, pos=(tok.line, tok.col))
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            node = self.expr()
            self.expect_op(")")
            return node
        raise ExprSyntaxError(
            f"expected a number, name, '(' or '@file', found "
            f"{tok.text or 'end of input'!r}",
            tok.line, tok.col,
        )


def parse_expr(src: str):
    """Parse source text into an expression tree, or raise ExprSyntaxError."""
    return _Parser(_tokenize(src)).parse()


_PRECEDENCE = {"+": 1, "-": 1, "*": 2}


def pretty(node) -> str:
    """Render a tree back to source; reparsing yields an equal tree."""
    if isinstance(node, Num):
        return repr(node.value)
    if isinstance(node, Const):
        return node.name
    if isinstance(node, FileRef):
        return f"@{node.path}"
    if isinstance(node, Call):
        return f"{node.func}({pretty(node.arg)})"
    if isinstance(node, BinOp):
        prec = _PRECEDENCE[node.op]

        def wrap(child, strict):
            text = pretty(child)
            if isinstance(child, BinOp):
                child_prec = _PRECEDENCE[child.op]
                if child_prec < prec or (strict and child_prec == prec):
                    return f"({text})"
            return text

        return f"{wrap(node.left, False)} {node.op} {wrap(node.right, True)}"
    raise ExprEvalError(f"not an expression node: {node!r}")


# evaluation values: a concrete matrix is a bare ndarray; a _Scalar is a
# bare scalar or, with identity set, a scale on a dimension-agnostic identity
@dataclass(frozen=True)
class _Scalar:
    value: float
    identity: bool = False


def _load_matrix_file(path: str, pos) -> np.ndarray:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ExprEvalError(f"cannot read matrix file {path!r}: {exc}", *pos) from exc
    except json.JSONDecodeError as exc:
        raise ExprEvalError(f"matrix file {path!r} is not valid JSON: {exc}", *pos) from exc
    try:
        return matrix_from_json(obj)
    except ValidationError as exc:
        raise ExprEvalError(f"matrix file {path!r}: {exc}", *pos) from exc


def _require_same_shape(left, right, pos):
    if left.shape != right.shape:
        raise ExprEvalError(f"dimension mismatch: {left.shape[0]} vs {right.shape[0]}", *pos)


def _combine_add(op, left, right, pos):
    sign = 1.0 if op == "+" else -1.0
    bare = [isinstance(v, _Scalar) and not v.identity for v in (left, right)]
    if bare[0] != bare[1]:
        raise ExprEvalError(
            "cannot add a bare scalar to an operator; scale the identity "
            "instead, e.g. '2*I + SX'", *pos,
        )
    if isinstance(left, _Scalar) and isinstance(right, _Scalar):
        return _Scalar(left.value + sign * right.value, left.identity)
    if isinstance(left, _Scalar):
        return left.value * identity(right.shape[0]) + sign * right
    if isinstance(right, _Scalar):
        return left + sign * right.value * identity(left.shape[0])
    _require_same_shape(left, right, pos)
    return left + sign * right


def _combine_mul(left, right, pos):
    if isinstance(left, _Scalar) and isinstance(right, _Scalar):
        return _Scalar(left.value * right.value, left.identity or right.identity)
    if isinstance(left, _Scalar):
        return left.value * right
    if isinstance(right, _Scalar):
        return left * right.value
    _require_same_shape(left, right, pos)
    return left @ right


def _hermitian_or_error(matrix, what, pos):
    try:
        return HermitianOperator(matrix)
    except ValidationError as exc:
        raise ExprEvalError(f"{what} needs a Hermitian argument: {exc}", *pos) from exc


def _apply_call(func, value, pos):
    scalar = isinstance(value, _Scalar)
    if func == "sq":
        return _Scalar(value.value ** 2, value.identity) if scalar else value @ value
    if func == "cube":
        return _Scalar(value.value ** 3, value.identity) if scalar else value @ value @ value
    if func == "abs":
        if scalar:
            return _Scalar(abs(value.value), value.identity)
        return apply_function(np.abs, _hermitian_or_error(value, "abs", pos)).matrix
    if func == "offspec":
        # indicator that is 0 on the argument's spectrum and 1 elsewhere;
        # applying it to the argument itself always yields zero
        if scalar and not value.identity:
            raise ExprEvalError("offspec needs an operator argument", *pos)
        if scalar:
            return _Scalar(0.0, identity=True)
        spec = eigendecompose(_hermitian_or_error(value, "offspec", pos))
        return spec.apply(indicator_outside(spec.eigenvalues, FUNCALC_TOL)).matrix
    raise ExprEvalError(f"unknown function {func!r}", *pos)


def _evaluate(node):
    if isinstance(node, Num):
        return _Scalar(node.value)
    if isinstance(node, Const):
        if node.name == "I":
            return _Scalar(1.0, identity=True)
        if node.name in CONSTANTS:
            return CONSTANTS[node.name]
        raise ExprEvalError(f"unknown identifier {node.name!r}", *node.pos)
    if isinstance(node, FileRef):
        return _load_matrix_file(node.path, node.pos)
    if isinstance(node, Call):
        return _apply_call(node.func, _evaluate(node.arg), node.pos)
    if isinstance(node, BinOp):
        left = _evaluate(node.left)
        right = _evaluate(node.right)
        if node.op == "*":
            return _combine_mul(left, right, node.pos)
        return _combine_add(node.op, left, right, node.pos)
    raise ExprEvalError(f"not an expression node: {node!r}")


def evaluate_matrix(node) -> np.ndarray:
    """Evaluate a tree to a concrete matrix.

    A dimension-agnostic result (built only from I and scalars) is pinned
    to dimension 2; a bare scalar is rejected since every consumer wants
    an operator.
    """
    value = _evaluate(node)
    if not isinstance(value, _Scalar):
        return value
    if not value.identity:
        raise ExprEvalError(
            "expression evaluates to a bare scalar, not an operator; "
            "multiply by I to get an operator"
        )
    return value.value * identity(_DEFAULT_DIM)


def parse_hermitian(src: str) -> HermitianOperator:
    """Parse and evaluate source text to a Hermitian operator, rejecting non-Hermitian results."""
    matrix = evaluate_matrix(parse_expr(src))
    try:
        return HermitianOperator(matrix)
    except ValidationError as exc:
        raise ExprEvalError(f"expression is not Hermitian-valued: {exc}") from exc
