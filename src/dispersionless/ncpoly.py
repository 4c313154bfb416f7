"""Free noncommutative polynomials over named symbols with exact rational coefficients.

Words are tuples of symbol names; a polynomial is a finite word-to-Fraction
map with no stored zeros, so equality is plain map comparison and every
identity check is exact.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import Mapping

import numpy as np

from .operator_core import ValidationError, as_hermitian

Word = tuple[str, ...]


def _as_coeff(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, Rational):
        return Fraction(value)
    raise ValidationError(
        f"coefficients must be exact rationals, got {type(value).__name__}"
    )


class NcPolynomial:
    """Element of the free algebra: sum of rational coefficients times words."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Word, object] | None = None):
        clean: dict[Word, Fraction] = {}
        if terms:
            for word, coeff in terms.items():
                word = tuple(word)
                coeff = _as_coeff(coeff)
                if coeff:
                    clean[word] = coeff
        self._terms = clean

    @classmethod
    def symbol(cls, name: str) -> "NcPolynomial":
        if not name or not isinstance(name, str):
            raise ValidationError("symbol name must be a non-empty string")
        return cls({(name,): Fraction(1)})

    @classmethod
    def constant(cls, value) -> "NcPolynomial":
        return cls({(): value})

    @classmethod
    def zero(cls) -> "NcPolynomial":
        return cls()

    @property
    def terms(self) -> dict[Word, Fraction]:
        return dict(self._terms)

    def symbols(self) -> set[str]:
        return {name for word in self._terms for name in word}

    def __bool__(self):
        return bool(self._terms)

    def __eq__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __neg__(self):
        return NcPolynomial({w: -c for w, c in self._terms.items()})

    def __add__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        out = dict(self._terms)
        for word, coeff in other._terms.items():
            out[word] = out.get(word, Fraction(0)) + coeff
        return NcPolynomial(out)

    def __sub__(self, other):
        if not isinstance(other, NcPolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, NcPolynomial):
            out: dict[Word, Fraction] = {}
            for w1, c1 in self._terms.items():
                for w2, c2 in other._terms.items():
                    word = w1 + w2
                    out[word] = out.get(word, Fraction(0)) + c1 * c2
            return NcPolynomial(out)
        coeff = _as_coeff(other)
        return NcPolynomial({w: c * coeff for w, c in self._terms.items()})

    # reached only with a scalar on the left, and scalars commute with words
    __rmul__ = __mul__

    def __truediv__(self, other):
        coeff = _as_coeff(other)
        if coeff == 0:
            raise ZeroDivisionError("division of NcPolynomial by zero")
        return NcPolynomial({w: c / coeff for w, c in self._terms.items()})

    def __pow__(self, exponent: int):
        if not isinstance(exponent, int) or exponent < 0:
            raise ValidationError("exponent must be a non-negative integer")
        out = NcPolynomial.constant(1)
        for _ in range(exponent):
            out = out * self
        return out

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms in canonical order: by word length, then lexicographically."""
        return sorted(self._terms.items(), key=lambda kv: (len(kv[0]), kv[0]))

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for word, coeff in self.sorted_terms():
            name = "".join(word) if word else "1"
            parts.append(f"{coeff}*{name}")
        return " + ".join(parts)

    def __repr__(self):
        return f"NcPolynomial({self})"


def evaluate_nc(p: NcPolynomial, bindings: Mapping[str, object]) -> np.ndarray:
    """Substitute matrices for symbols and evaluate.

    Words become matrix products, the empty word the identity; rational
    coefficients convert exactly to double precision at the end.  Every
    symbol of p must be bound and all bound operators must share one
    dimension.
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
    for word, coeff in p.sorted_terms():
        acc = np.eye(dim, dtype=np.complex128)
        for name in word:
            acc = acc @ mats[name]
        total += float(coeff) * acc
    return total
