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
    _require_finite(m)
    return m


def _require_finite(m: np.ndarray):
    if not np.isfinite(m).all():
        raise ValidationError("matrix entries must be finite")


def _squared_norms(m: np.ndarray) -> np.ndarray:
    # squared Frobenius norm of each trailing square matrix of m; vdot on one
    # matrix skips vecdot's call overhead and makes the same BLAS dot product
    if m.ndim == 2:
        return np.vdot(m, m).real
    flat = m.reshape(m.shape[:-2] + (-1,))
    # a square past the float range is inf here, as from vdot, which does not
    # raise numpy's overflow flag; callers decide such a matrix on a scaled copy
    with np.errstate(over="ignore"):
        return np.vecdot(flat, flat).real


def _all(flags) -> bool:
    # .all() on the numpy bool of a single matrix costs a 0-d array round trip
    return bool(flags) if flags.ndim == 0 else bool(flags.all())


def _require_hermitian(m: np.ndarray):
    """Raise unless every trailing square matrix of m is Hermitian.

    The rule is |m - m*| <= HERM_TOL * max(1, |m|), compared in squares,
    with |m| taken only when the deviation exceeds HERM_TOL (or is NaN, as
    when it overflows), on each matrix scaled by the power of two that
    keeps its squares in range; the error names the deviation of the first
    matrix that breaks it.
    """
    squared = _squared_norms(m - m.conj().swapaxes(-1, -2))
    ok = squared <= HERM_TOL**2
    if not _all(ok):
        # the power of two that brings each matrix's largest part below 1:
        # an exact scaling, so a verdict on finite squares keeps its bits
        parts = np.maximum(np.abs(m.real), np.abs(m.imag)).max(axis=(-2, -1))
        scale = np.ldexp(1.0, -np.frexp(parts)[1])
        scaled = m * scale[..., None, None]
        squared = _squared_norms(scaled - scaled.conj().swapaxes(-1, -2))
        broken = ~ok & (squared > HERM_TOL**2 * _squared_norms(scaled))
        if broken.any():
            first = np.argmax(broken)
            # in the matrix's own units, as a Python float: inf past the float range
            deviation = math.sqrt(squared.flat[first]) / float(scale.flat[first])
            raise ValidationError(f"matrix is not Hermitian (deviation {deviation:.3e})")


def frobenius(m: np.ndarray) -> float:
    return float(np.linalg.norm(m))


def identity(dim: int) -> np.ndarray:
    if dim < 1:
        raise ValidationError("identity dimension must be at least 1")
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


def as_hermitian_stack(stack) -> np.ndarray:
    """Validate a (k, d, d) band of Hermitian matrices in one vectorized step.

    Every slice meets the finiteness and hermiticity rules HermitianOperator
    applies to one matrix, and fails them with the same messages; a band
    that cannot be coerced or has the wrong shape gets its own message.
    Returns the band as a complex128 array, without copying one that
    already is.
    """
    try:
        s = np.asarray(stack, dtype=np.complex128)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"not a complex matrix stack: {exc}") from exc
    if s.ndim != 3 or s.shape[1] != s.shape[2] or s.shape[1] < 1:
        raise ValidationError(f"expected a (k, d, d) stack of matrices, got shape {s.shape}")
    _require_finite(s)
    _require_hermitian(s)
    return s


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
    x = rng.standard_normal((count, 2, dim, dim))
    g = x[:, 0] + 1j * x[:, 1]
    # a multiply by the rounded 1/sqrt(2): dividing by sqrt(2) would move
    # the last bits of every seeded draw
    g *= 1.0 / math.sqrt(2.0)
    return (g + np.swapaxes(g, -1, -2).conj()) / 2.0


def random_hermitian(dim: int, rng: np.random.Generator) -> HermitianOperator:
    """Standard complex Gaussian entries, symmetrized to (G + G*)/2."""
    return HermitianOperator(random_hermitian_stack(dim, rng, 1)[0])


def matrix_to_json(m: np.ndarray) -> dict:
    """Serialize to the shared wire format {"dim": n, "entries": [[[re, im], ...], ...]}."""
    return matrices_to_json(as_square_matrix(m)[None])[0]


def matrices_to_json(stack: np.ndarray) -> list[dict]:
    """matrix_to_json of each slice of a finite (k, d, d) complex array, in one conversion."""
    dim = stack.shape[-1]
    return [{"dim": dim, "entries": entries}
            for entries in np.stack((stack.real, stack.imag), axis=-1).tolist()]


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
    cells = [cell for row in entries for cell in row]
    return as_square_matrix(complex_from_pairs(cells, "matrix").reshape(dim, dim))
