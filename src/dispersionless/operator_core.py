"""Complex Hermitian matrix core: eigendecomposition, spectra, functional calculus.

All matrices are dense numpy complex128 arrays.  Dimensions are small by
design (a handful, not thousands); eigendecompositions are LAPACK's
Hermitian eigensolver called through numpy.linalg.eigh.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

HERM_TOL = 1e-10
FUNCALC_TOL = 1e-9
COMM_TOL = 1e-9

# eigenvalues closer than this are treated as one degenerate cluster
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
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")
    return m


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValidationError("identity dimension must be at least 1")
    return np.eye(dim, dtype=np.complex128)


SIGMA_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=np.complex128)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
PAULIS = (SIGMA_X, SIGMA_Y, SIGMA_Z)
for _p in PAULIS:
    _p.flags.writeable = False


class HermitianOperator:
    """An n-by-n complex Hermitian matrix standing for a measurable quantity.

    Immutable after construction; hermiticity is enforced within HERM_TOL
    (relative Frobenius deviation).  Real linear combinations stay inside
    the class; anything that can leave it (matrix products, say) goes
    through the raw ``.matrix`` array.
    """

    __slots__ = ("_matrix",)

    def __init__(self, matrix):
        if isinstance(matrix, HermitianOperator):
            self._matrix = matrix._matrix
            return
        m = as_square_matrix(matrix)
        deviation = frobenius(m - m.conj().T)
        # the verdict of deviation > HERM_TOL * max(1, |m|), taking |m| only when needed
        if deviation > HERM_TOL and deviation > HERM_TOL * frobenius(m):
            raise ValidationError(
                f"matrix is not Hermitian (deviation {deviation:.3e})"
            )
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

    def __sub__(self, other):
        if not isinstance(other, HermitianOperator):
            return NotImplemented
        self._require_same_dim(other)
        return HermitianOperator(self._matrix - other._matrix)

    def __neg__(self):
        return HermitianOperator(-self._matrix)

    def __mul__(self, scalar):
        if not isinstance(scalar, numbers.Real):
            raise ValidationError("only real scalars preserve hermiticity")
        return HermitianOperator(self._matrix * float(scalar))

    __rmul__ = __mul__

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

    @property
    def dim(self) -> int:
        return len(self.eigenvalues)

    def projector(self, k: int) -> np.ndarray:
        v = self.eigenvectors[:, k]
        return np.outer(v, v.conj())

    def apply(self, f: Callable[[np.ndarray], np.ndarray]) -> HermitianOperator:
        """Sum of f(eigenvalue) * eigenprojector, f mapping the whole eigenvalue array."""
        vals = np.asarray(f(self.eigenvalues), dtype=np.float64)
        return HermitianOperator((self.eigenvectors * vals) @ self.eigenvectors.conj().T)

    def reconstruct(self) -> np.ndarray:
        """Sum of eigenvalue-weighted eigenprojectors."""
        return self.apply(lambda values: values).matrix


def eigendecompose(op) -> Spectrum:
    """Diagonalize a Hermitian operator with LAPACK's eigh (through numpy).

    Returns all eigenpairs: eigenvalues ascending, eigenvectors orthonormal.
    """
    vals, vecs = np.linalg.eigh(as_hermitian(op).matrix)
    return Spectrum(vals, vecs)


def indicator_outside(points: Sequence[float], tol: float) -> Callable[[np.ndarray], np.ndarray]:
    """Elementwise indicator: 1 away from the given points, 0 within tol of any of them."""
    if tol < 0:
        raise ValidationError("tolerance must be non-negative")
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


def spectrum_contains(op, value: float, tol: float) -> bool:
    """Whether some eigenvalue of op lies within tol of value."""
    if tol < 0:
        raise ValidationError("tolerance must be non-negative")
    spec = eigendecompose(as_hermitian(op))
    return bool(np.min(np.abs(spec.eigenvalues - float(value))) <= tol)


def commutator_norm(a, b) -> float:
    """Frobenius norm of AB - BA; zero (within COMM_TOL) iff the pair commutes."""
    a = as_hermitian(a)
    b = as_hermitian(b)
    if a.dim != b.dim:
        raise ValidationError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return frobenius(a.matrix @ b.matrix - b.matrix @ a.matrix)


def commutes(a, b, tol: float = COMM_TOL) -> bool:
    """Whether ||AB - BA|| <= tol * max(1, ||A||·||B||); every commutation verdict uses it."""
    a = as_hermitian(a)
    b = as_hermitian(b)
    return commutator_norm(a, b) <= tol * max(1.0, a.norm() * b.norm())


def random_hermitian(dim: int, rng: np.random.Generator, scale: float = 1.0) -> HermitianOperator:
    """Standard complex Gaussian entries, symmetrized to (G + G*)/2."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    g *= scale / math.sqrt(2.0)
    return HermitianOperator((g + g.conj().T) / 2.0)


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to the shared wire format {"dim": n, "entries": [[[re, im], ...], ...]}."""
    m = as_square_matrix(m)
    return {
        "dim": int(m.shape[0]),
        "entries": [
            [[float(z.real), float(z.imag)] for z in row] for row in m
        ],
    }


def complex_from_pair(cell) -> complex:
    """One [re, im] pair of the wire format (matrix cells, state entries)."""
    if (not isinstance(cell, Sequence)) or isinstance(cell, str) or len(cell) != 2:
        raise ValidationError("JSON entries must be [re, im] pairs")
    # JSON true/false parse to bool, which Python counts as numbers.Real
    if any(isinstance(x, bool) or not isinstance(x, numbers.Real) for x in cell):
        raise ValidationError("JSON [re, im] parts must be real numbers")
    return complex(float(cell[0]), float(cell[1]))


def matrix_from_json(obj) -> np.ndarray:
    """Parse the shared matrix wire format, rejecting non-square or ragged data."""
    if not isinstance(obj, Mapping):
        raise ValidationError("matrix JSON must be an object with 'dim' and 'entries'")
    dim, entries = obj.get("dim"), obj.get("entries")
    if isinstance(dim, bool) or not isinstance(dim, int):
        raise ValidationError("matrix JSON 'dim' must be an integer")
    if dim < 1:
        raise ValidationError("matrix JSON 'dim' must be at least 1")
    if not isinstance(entries, Sequence) or len(entries) != dim:
        raise ValidationError("matrix JSON 'entries' must have exactly 'dim' rows")
    for row in entries:
        if not isinstance(row, Sequence) or len(row) != dim:
            raise ValidationError("matrix JSON rows must each have exactly 'dim' cells")
    return as_square_matrix([[complex_from_pair(cell) for cell in row] for row in entries])
