"""Complex Hermitian matrix core: eigendecomposition, spectra, functional calculus.

All matrices are dense numpy complex128 arrays.  Dimensions are small by
design (a handful, not thousands); eigendecompositions are LAPACK's
Hermitian eigensolver called through numpy.linalg.eigh.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

HERM_TOL = 1e-10
FUNCALC_TOL = 1e-9
COMM_TOL = 1e-9

# eigenvalues closer than this, relative to the spectral radius of their
# operator, are treated as one degenerate cluster
DEGENERACY_GAP = 1e-8
# how far a computed eigenvalue of a common generator may sit from the
# integer label it is read out as
TABLE_MATCH_TOL = 1e-6


class ValidationError(ValueError):
    """An input failed a structural precondition (shape, hermiticity, ...)."""


class FunctionDomainError(ValueError):
    """A readout table has no label within TABLE_MATCH_TOL of an eigenvalue."""


def as_square_matrix(entries) -> np.ndarray:
    """Coerce nested lists / arrays to a square complex128 matrix.

    Rejects ragged, non-square, or zero-dimensional input.
    """
    try:
        m = np.array(entries, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a complex matrix: {exc}") from exc
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] < 1:
        raise ValidationError("matrix dimension must be at least 1")
    return m


def _require_finite(m: np.ndarray, what: str = "matrix") -> float:
    # a finite sum of squares, one BLAS dot product, proves every entry
    # finite in a fraction of the time isfinite takes on a small array
    squared = np.vdot(m, m).real
    if not squared < math.inf and not np.isfinite(m).all():
        raise ValidationError(f"{what} entries must be finite")
    return squared


def _require_hermitian(m: np.ndarray):
    """Raise unless the square matrix m is finite and Hermitian.

    The rule is |m - m*| <= HERM_TOL * max(1, |m|), compared in squares,
    with |m| taken only when the deviation exceeds HERM_TOL, on m scaled
    by the power of two that brings its largest part below 1.  BLAS vdot
    writes no numpy warning when a square overflows, and m - m* is formed
    unscaled only while |m|^2 is finite, where no part of it can overflow;
    that |m|^2 is the one the finiteness check returns.
    """
    if _require_finite(m) < math.inf:
        d = m - m.conj().T
        if np.vdot(d, d).real <= HERM_TOL**2:
            return
    # an exact scaling, so a verdict on finite squares keeps its bits
    part = max(np.abs(m.real).max(), np.abs(m.imag).max())
    scale = math.ldexp(1.0, -math.frexp(part)[1])
    m = m * scale
    d = m - m.conj().T
    squared = np.vdot(d, d).real
    if squared > HERM_TOL**2 * np.vdot(m, m).real:
        # in the matrix's own units, as a Python float: inf past the float range
        deviation = math.sqrt(squared) / scale
        raise ValidationError(f"matrix is not Hermitian (deviation {deviation:.3e})")


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def identity(dim: int) -> np.ndarray:
    _require_integer("identity dimension", dim, 1)
    return np.eye(dim, dtype=np.complex128)


# the Pauli matrices as one read-only (3, 2, 2) band; each is a slice of it
PAULIS = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]],
                  dtype=np.complex128)
PAULIS.flags.writeable = False
SIGMA_X, SIGMA_Y, SIGMA_Z = PAULIS


class HermitianOperator:
    """An n-by-n complex Hermitian matrix standing for a measurable quantity.

    Immutable after construction; hermiticity is enforced within HERM_TOL
    (relative Frobenius deviation).  A sum of two stays inside the class;
    any other arithmetic (scaling, matrix products) goes through the raw
    ``.matrix`` array.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        if isinstance(matrix, HermitianOperator):
            self._matrix = matrix._matrix
            return
        m = as_square_matrix(matrix)
        _require_hermitian(m)
        m.flags.writeable = False
        self._matrix = m

    @property
    def matrix(self) -> np.ndarray:
        return self._matrix

    @property
    def dim(self) -> int:
        return self._matrix.shape[0]

    def trace(self) -> float:
        return float(np.trace(self._matrix).real)

    def norm(self) -> float:
        return frobenius(self._matrix)

    def _require_same_dim(self, other: "HermitianOperator"):
        if self.dim != other.dim:
            raise ValidationError(
                f"dimension mismatch: {self.dim} vs {other.dim}"
            )

    def __add__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        self._require_same_dim(other)
        return HermitianOperator(self._matrix + other._matrix)

    def __repr__(self):
        return f"HermitianOperator(dim={self.dim})"


def as_hermitian(op) -> HermitianOperator:
    return op if isinstance(op, HermitianOperator) else HermitianOperator(op)


@dataclass(frozen=True)
class Spectrum:
    """Full eigensystem of a Hermitian operator.

    ``eigenvalues`` is ascending with multiplicity; column k of
    ``eigenvectors`` belongs to ``eigenvalues[k]`` and the columns are
    orthonormal.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray

    def __post_init__(self):
        self.eigenvalues.flags.writeable = False
        self.eigenvectors.flags.writeable = False

    def projector(self, k: int) -> np.ndarray:
        v = self.eigenvectors[:, k]
        return np.outer(v, v.conj())

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
        """Sum of f(eigenvalue) * eigenprojector, f mapping the whole eigenvalue array."""
        vals = np.asarray(f(self.eigenvalues), dtype=np.float64)
        return HermitianOperator((self.eigenvectors * vals) @ self.eigenvectors.conj().T)


def eigendecompose(op) -> Spectrum:
    """Diagonalize a Hermitian operator with LAPACK's eigh (through numpy).

    Returns all eigenpairs: eigenvalues ascending, eigenvectors orthonormal.
    """
    vals, vecs = np.linalg.eigh(as_hermitian(op).matrix)
    return Spectrum(vals, vecs)


def indicator_outside(points: Sequence[float], tol: float) -> Callable[[np.ndarray], np.ndarray]:
    """Elementwise indicator: 1 away from the given points, 0 within tol of any of them.

    Raises ValidationError unless tol is finite and positive.
    """
    _require_tol("indicator tolerance", tol)
    pts = np.asarray(points, dtype=np.float64)

    def indicator(x: np.ndarray) -> np.ndarray:
        near = (np.abs(np.subtract.outer(x, pts)) <= tol).any(axis=-1)
        return np.where(near, 0.0, 1.0)

    return indicator


def apply_function(f: Callable[[np.ndarray], np.ndarray], op) -> HermitianOperator:
    """Evaluate f on the spectrum: sum of f(eigenvalue) * eigenprojector.

    f maps the ascending eigenvalue array to an array of real values of the
    same length (a numpy ufunc such as np.abs, or a function over arrays)
    and is called once per decomposition.
    """
    return eigendecompose(op).apply(f)


def commutator_norm(a, b) -> float:
    """Frobenius norm of AB - BA; zero (within COMM_TOL) iff the pair commutes."""
    a = as_hermitian(a)
    b = as_hermitian(b)
    a._require_same_dim(b)
    return frobenius(a.matrix @ b.matrix - b.matrix @ a.matrix)


def _require_integer(name: str, value, low: int):
    # a plain int skips the slower numbers.Integral check; bool is Integral but refused
    if type(value) is not int and (
            isinstance(value, bool) or not isinstance(value, numbers.Integral)):
        raise ValidationError(f"{name} must be an integer, got {value!r}")
    if value < low:
        raise ValidationError(f"{name} must be at least {low}")


def _require_tol(what: str, tol: float):
    # the one tolerance rule of the library: a NaN, infinite, zero or
    # negative tolerance would turn every comparison against it into a
    # fixed verdict
    if not 0.0 < tol < math.inf:
        raise ValidationError(f"{what} must be finite and positive, got {tol!r}")


def commutator_within_tol(norm: float, a: HermitianOperator, b: HermitianOperator,
                          tol: float) -> bool:
    """Whether the commutator norm of a and b meets ||AB - BA|| <= tol * ||A||·||B||.

    Every commutation verdict uses this rule.  It is relative, so the
    verdict does not change under A -> cA.  Raises ValidationError unless
    tol is finite and positive.
    """
    _require_tol("commutation tolerance", tol)
    return norm <= tol * a.norm() * b.norm()


def random_hermitian_stack(dim: int, rng: np.random.Generator, count: int) -> np.ndarray:
    """count matrices of standard complex Gaussian entries, each symmetrized to (G + G*)/2.

    Each matrix draws its dim^2 real parts, then its dim^2 imaginary parts,
    so the (count, dim, dim) result follows the stream of count successive
    random_hermitian calls.
    """
    _require_integer("dimension", dim, 1)
    _require_integer("count", count, 0)
    x = rng.standard_normal((count, 2, dim, dim))
    # a multiply by the rounded 1/sqrt(2): dividing by sqrt(2) would move
    # the last bits of every seeded draw
    x *= 1.0 / math.sqrt(2.0)
    # G + G* is x0 + x0^T in the real parts and x1 - x1^T in the imaginary
    # ones, written in place: the same bits as the complex sum
    out = np.empty((count, dim, dim), dtype=np.complex128)
    np.add(x[:, 0], np.swapaxes(x[:, 0], -1, -2), out=out.real)
    np.subtract(x[:, 1], np.swapaxes(x[:, 1], -1, -2), out=out.imag)
    # halved as floats: the bits of the complex division by 2, at half its cost
    parts = out.view(np.float64)
    parts /= 2.0
    return out


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Standard complex Gaussian entries, symmetrized to (G + G*)/2."""
    return HermitianOperator(random_hermitian_stack(dim, rng, 1)[0])


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to the shared wire format {"dim": n, "entries": [[[re, im], ...], ...]}."""
    m = as_square_matrix(m)
    _require_finite(m)
    return {"dim": m.shape[0], "entries": np.stack((m.real, m.imag), axis=-1).tolist()}


def complex_from_pairs(pairs, what: str) -> np.ndarray:
    """[re, im] pairs of the wire format (matrix cells, state entries) as a complex128 vector.

    Every pair is checked, in order, before any is converted; ``what`` names
    the entries in the error for an integer beyond the float range.
    """
    for cell in pairs:
        # the types json.load gives are tried before the abstract ones
        if (type(cell) is not list and (isinstance(cell, str) or not isinstance(cell, Sequence))
                or len(cell) != 2):
            raise ValidationError("JSON entries must be [re, im] pairs")
        for part in cell:
            # JSON true/false parse to bool, which Python counts as numbers.Real
            if type(part) not in (float, int) and (
                    isinstance(part, bool) or not isinstance(part, numbers.Real)):
                raise ValidationError("JSON [re, im] parts must be real numbers")
    try:
        parts = np.array(pairs, dtype=np.float64).reshape(-1, 2)
    except OverflowError:
        # json.load parses an integer of any length exactly
        raise ValidationError(f"{what} entries must be finite") from None
    return parts.view(np.complex128)[:, 0]


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared matrix wire format, rejecting non-square or ragged data."""
    if not isinstance(obj, Mapping):
        raise ValidationError("matrix JSON must be an object with 'dim' and 'entries'")
    if "dim" not in obj:
        raise ValidationError("matrix JSON 'dim' is missing")
    dim, entries = obj["dim"], obj.get("entries")
    if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
        # in the file's own spelling (true, null, "2"), not Python's
        raise ValidationError(
            f"matrix JSON 'dim' must be an integer, got {json.dumps(dim, default=repr)}")
    _require_integer("matrix JSON 'dim'", dim, 1)
    if not isinstance(entries, Sequence) or len(entries) != dim:
        raise ValidationError("matrix JSON 'entries' must have exactly 'dim' rows")
    for row in entries:
        if not isinstance(row, Sequence) or len(row) != dim:
            raise ValidationError("matrix JSON rows must each have exactly 'dim' cells")
    cells = [cell for row in entries for cell in row]
    # square, complex128 and of dimension at least 1 already: only finiteness is left
    m = complex_from_pairs(cells, "matrix").reshape(dim, dim)
    _require_finite(m)
    return m
