"""Free noncommutative polynomials over named symbols with exact rational coefficients.

Words are tuples of symbol names.  A polynomial stores a word-to-integer
numerator map with no stored zeros over one positive integer denominator,
reduced by their greatest common divisor after every operation, so equal
polynomials have equal storage, equality is plain comparison and every
identity check is exact.
"""

from __future__ import annotations

from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from numbers import Rational
from typing import Mapping

import numpy as np

from .operator_core import ValidationError, as_hermitian

Word = tuple[str, ...]


def _ratio(value) -> tuple[int, int]:
    # numerator and positive denominator of an exact rational scalar; bool
    # counts as numbers.Integral in Python but is refused as a coefficient
    if isinstance(value, bool) or not isinstance(value, Rational):
        raise ValidationError(
            f"coefficients must be exact rationals, got {type(value).__name__}"
        )
    return int(value.numerator), int(value.denominator)


def _reduced(nums: dict[Word, int], den: int) -> "NcPolynomial":
    # the one constructor every operation ends in: drop zeros, divide out the
    # common factor of the numerators and the denominator
    nums = {word: n for word, n in nums.items() if n}
    common = gcd(den, *nums.values())
    if common > 1:
        nums = {word: n // common for word, n in nums.items()}
        den //= common
    p = object.__new__(NcPolynomial)
    p._nums = nums
    p._den = den
    return p


def _canonical(item) -> tuple[int, Word]:
    return len(item[0]), item[0]


class NcPolynomial:
    """Element of the free algebra: sum of rational coefficients times words."""

    __slots__ = ("_nums", "_den")

    def __init__(self, terms: Mapping[Word, object] | None = None):
        ratios = {tuple(word): _ratio(coeff) for word, coeff in (terms or {}).items()}
        # each ratio is in lowest terms, so over their least common
        # denominator the numerators share no factor with it
        den = lcm(*(d for _, d in ratios.values()))
        self._nums = {word: n * (den // d) for word, (n, d) in ratios.items() if n}
        self._den = den

    @classmethod
    def symbol(cls, name: str) -> "NcPolynomial":
        if not name or not isinstance(name, str):
            raise ValidationError("symbol name must be a non-empty string")
        return cls({(name,): 1})

    def symbols(self) -> set[str]:
        return {name for word in self._nums for name in word}

    def __bool__(self):
        return bool(self._nums)

    def __eq__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self):
        return hash((self._den, frozenset(self._nums.items())))

    def __neg__(self):
        return _reduced({w: -n for w, n in self._nums.items()}, self._den)

    def __add__(self, other, sign: int = 1):
        # self + sign * other over the least common denominator, in one pass
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        common = gcd(self._den, other._den)
        lift, other_lift = other._den // common, sign * (self._den // common)
        out = {w: n * lift for w, n in self._nums.items()}
        for word, n in other._nums.items():
            out[word] = out.get(word, 0) + n * other_lift
        return _reduced(out, self._den * lift)

    def __sub__(self, other):
        return self.__add__(other, -1)

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            out: dict[Word, int] = {}
            for w1, n1 in self._nums.items():
                for w2, n2 in other._nums.items():
                    word = w1 + w2
                    out[word] = out.get(word, 0) + n1 * n2
            return _reduced(out, self._den * other._den)
        num, den = _ratio(other)
        return _reduced({w: n * num for w, n in self._nums.items()}, self._den * den)

    # reached only with a scalar on the left, and scalars commute with words
    __rmul__ = __mul__

    def __truediv__(self, other):
        num, den = _ratio(other)
        if num == 0:
            raise ZeroDivisionError("division of NcPolynomial by zero")
        if num < 0:
            num, den = -num, -den
        return _reduced({w: n * den for w, n in self._nums.items()}, self._den * num)

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in canonical order: by word length, then lexicographically."""
        return [(word, Fraction(n, self._den))
                for word, n in sorted(self._nums.items(), key=_canonical)]

    def __str__(self):
        # each coefficient as str(Fraction) prints it, the empty word as 1
        terms = [f"{coeff}*{''.join(word) or '1'}" for word, coeff in self.sorted_terms()]
        return " + ".join(terms) or "0"

    def __repr__(self):
        return f"NcPolynomial({self})"


def symmetrized_product(a: NcPolynomial, b: NcPolynomial) -> NcPolynomial:
    """(ab + ba)/2 in the free algebra; commutative and bilinear by construction."""
    # one pass over the term pairs and one reduction
    out: dict[Word, int] = {}
    for w1, n1 in a._nums.items():
        for w2, n2 in b._nums.items():
            n = n1 * n2
            ab, ba = w1 + w2, w2 + w1
            out[ab] = out.get(ab, 0) + n
            out[ba] = out.get(ba, 0) + n
    return _reduced(out, 2 * a._den * b._den)


def evaluate_nc(p: NcPolynomial, bindings: Mapping[str, object]) -> np.ndarray:
    """Substitute matrices for symbols and evaluate.

    Words become left-to-right matrix products, the empty word the
    identity; each word is multiplied out on its own, in the canonical
    term order.  Rational coefficients convert exactly to double precision
    at the end.  Every symbol of p must be bound and all bound operators
    must share one dimension.
    """
    mats: dict[str, np.ndarray] = {}
    dim = None
    for name, op in bindings.items():
        m = as_hermitian(op).matrix
        if dim is None:
            dim = m.shape[0]
        elif m.shape[0] != dim:
            raise ValidationError(
                f"bound operators disagree on dimension: {dim} vs {m.shape[0]}"
            )
        mats[name] = m
    missing = p.symbols() - set(mats)
    if missing:
        raise ValidationError(f"unbound symbols: {sorted(missing)}")
    if dim is None:
        # constant polynomial with no bindings has no intrinsic dimension
        raise ValidationError("at least one binding is required")
    total = np.zeros((dim, dim), dtype=np.complex128)
    for word, n in sorted(p._nums.items(), key=_canonical):
        product = (reduce(np.matmul, [mats[name] for name in word]) if word
                   else np.eye(dim, dtype=np.complex128))
        # int true division rounds correctly, as float(Fraction(n, den)) does
        total += n / p._den * product
    return total
