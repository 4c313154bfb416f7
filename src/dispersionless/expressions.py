"""Small operator-expression language for the command line.

Grammar:

    expr   := term (('+' | '-') term)*
    term   := factor ('*' factor)*
    factor := NUMBER | IDENT | IDENT '(' expr ')' | '(' expr ')' | '@' FILEPATH

NUMBER is an unsigned decimal scalar, IDENT names a built-in constant
(I, SX, SY, SZ) or a function (sq, cube, abs, offspec), and '@path' loads
a matrix in the shared JSON wire format.  'I' adapts to the dimension of
whatever it is combined with, defaulting to 2 when nothing pins it down.

Parsing yields a postfix program of (op, arg, (line, col)) steps, op one
of num, const, file, call, '+', '-', '*', and finds every syntax error;
evaluating it is one loop over a value stack, which alone reads files and
looks up names.  '(' and calls nest at most MAX_NESTING levels deep.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

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
    read_json_file,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
)

_DEFAULT_DIM = 2
# parentheses and function calls nest at most this deep; deeper input is a
# syntax error rather than a parser recursion without bound
MAX_NESTING = 100


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
    # recursive descent that emits each operand and operator in postfix order
    def __init__(self, tokens: list[_Token]):
        self.tokens = tokens
        self.idx = 0
        self.depth = 0
        self.program = []

    @property
    def current(self) -> _Token:
        return self.tokens[self.idx]

    def advance(self) -> _Token:
        tok = self.current
        self.idx += 1
        return tok

    def emit(self, op: str, arg, tok: _Token):
        self.program.append((op, arg, (tok.line, tok.col)))

    def expect_op(self, text: str):
        tok = self.current
        if tok.kind != "op" or tok.text != text:
            raise ExprSyntaxError(
                f"expected {text!r}, found {tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )
        return self.advance()

    def parse(self):
        self.expr()
        tok = self.current
        if tok.kind != "eof":
            raise ExprSyntaxError(
                f"unexpected trailing input {tok.text!r}", tok.line, tok.col
            )
        return self.program

    def expr(self):
        self.term()
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance()
            self.term()
            self.emit(op.text, None, op)

    def term(self):
        self.factor()
        while self.current.kind == "op" and self.current.text == "*":
            op = self.advance()
            self.factor()
            self.emit("*", None, op)

    def factor(self):
        tok = self.current
        if tok.kind == "number":
            self.advance()
            self.emit("num", float(tok.text), tok)
        elif tok.kind == "file":
            self.advance()
            self.emit("file", tok.text[1:], tok)
        elif tok.kind == "ident":
            self.advance()
            if self.current.kind == "op" and self.current.text == "(":
                self.parenthesized(tok)
                self.emit("call", tok.text, tok)
            else:
                self.emit("const", tok.text, tok)
        elif tok.kind == "op" and tok.text == "(":
            self.parenthesized(tok)
        else:
            raise ExprSyntaxError(
                f"expected a number, name, '(' or '@file', found "
                f"{tok.text or 'end of input'!r}",
                tok.line, tok.col,
            )

    def parenthesized(self, opener: _Token):
        # '(' expr ')' at the current token; opener is that '(' or the
        # function name before it, where a too-deep nesting is reported
        if self.depth == MAX_NESTING:
            raise ExprSyntaxError(
                f"expression nested deeper than {MAX_NESTING} levels",
                opener.line, opener.col,
            )
        self.depth += 1
        self.advance()
        self.expr()
        self.expect_op(")")
        self.depth -= 1


def parse_expr(src: str) -> list:
    """Parse source text into a postfix program, or raise ExprSyntaxError."""
    return _Parser(_tokenize(src)).parse()


# evaluation values: a concrete matrix is a bare ndarray; a _Scalar is a
# bare scalar or, with identity set, a scale on a dimension-agnostic identity
@dataclass(frozen=True)
class _Scalar:
    value: float
    identity: bool = False


CONSTANTS = {"SX": SIGMA_X, "SY": SIGMA_Y, "SZ": SIGMA_Z, "I": _Scalar(1.0, identity=True)}


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


def evaluate_matrix(program) -> np.ndarray:
    """Evaluate a postfix program to a concrete matrix, operands in source order.

    A dimension-agnostic result (built only from I and scalars) is pinned
    to dimension 2; a bare scalar is rejected since every consumer wants
    an operator.
    """
    stack = []
    for op, arg, pos in program:
        if op == "num":
            stack.append(_Scalar(arg))
        elif op == "const":
            if arg not in CONSTANTS:
                raise ExprEvalError(f"unknown identifier {arg!r}", *pos)
            stack.append(CONSTANTS[arg])
        elif op == "file":
            try:
                stack.append(read_json_file(arg, matrix_from_json))
            except ValidationError as exc:
                raise ExprEvalError(str(exc), *pos) from exc
        elif op == "call":
            stack.append(_apply_call(arg, stack.pop(), pos))
        else:
            right, left = stack.pop(), stack.pop()
            if op == "*":
                stack.append(_combine_mul(left, right, pos))
            else:
                stack.append(_combine_add(op, left, right, pos))
    (value,) = stack
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
