"""Expectation functionals over Hermitian operators and what they force.

A functional that is normalized, positive, and additive over arbitrary
operator combinations must be a trace form against a density matrix; this
module reconstructs that density matrix entrywise from basis expectations,
verifies the two assumptions separately instead of presuming them, and
produces for every density matrix an operator whose dispersion is
strictly positive, so no trace-form functional is dispersion-free in
dimension two or more.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Spectrum,
    ValidationError,
    as_hermitian,
    eigendecompose,
    identity,
    matrix_to_json,
    random_hermitian,
)

LIN_TOL = 1e-9
DM_TOL = 1e-9
# eigenvalues this close to 0 or 1 count as "effectively pure" when picking
# a dispersion witness
DM_GAP = 1e-6

DEFAULT_PROBE_COUNT = 32
_PROBE_SEED = 0x5EED


class FunctionalViolation(Exception):
    """A black-box expectation functional failed one of the state axioms."""

    kind = "violation"

    def to_json(self) -> dict:
        return {"kind": self.kind}


class NormalizationViolation(FunctionalViolation):
    """The functional is not normalized: its value on the identity is not 1."""

    kind = "a-prime-violation"

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__(
            f"functional violates A': value on the identity is {self.value!r}, not 1"
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "trace": self.value}


class PositivityViolation(FunctionalViolation):
    """The functional assigns a negative expectation to some projector."""

    kind = "a-prime-violation"

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            "functional violates A': reconstructed state has negative "
            f"eigenvalue {self.eigenvalue!r}"
        )

    def to_json(self) -> dict:
        return {"kind": self.kind, "min_eigenvalue": self.eigenvalue}


class AdditivityViolation(FunctionalViolation):
    """The functional disagrees with every trace form: additivity fails."""

    kind = "b-prime-violation"

    def __init__(self, probe: HermitianOperator, lhs: float, rhs: float):
        self.probe = probe
        self.lhs = float(lhs)
        self.rhs = float(rhs)
        super().__init__(
            f"functional violates B': probe expectation {self.lhs!r} but the "
            f"reconstructed trace form gives {self.rhs!r}"
        )

    @property
    def delta(self) -> float:
        return self.lhs - self.rhs

    def to_json(self) -> dict:
        return {
            "kind": self.kind,
            "probe": matrix_to_json(self.probe.matrix),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "delta": self.delta,
        }


class PureState:
    """Complex unit vector; the extreme case of a density matrix."""

    __slots__ = ("_vector",)

    _LABELS = {
        "z+": (1, 0, 0, 0),
        "z-": (0, 0, 1, 0),
        "x+": (1, 0, 1, 0),
        "x-": (1, 0, -1, 0),
        "y+": (1, 0, 0, 1),
        "y-": (1, 0, 0, -1),
    }

    def __init__(self, vector):
        try:
            v = np.array(vector, dtype=np.complex128)
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"not a complex vector: {exc}") from exc
        if v.ndim != 1 or len(v) < 1:
            raise ValidationError(f"expected a 1-d state vector, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValidationError("state vector entries must be finite")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > DM_TOL:
            raise ValidationError(f"state vector norm is {nrm!r}, not 1")
        v.flags.writeable = False
        self._vector = v

    @classmethod
    def normalized(cls, vector) -> "PureState":
        v = np.array(vector, dtype=np.complex128)
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(v / nrm)

    @classmethod
    def from_label(cls, label: str) -> "PureState":
        """Cardinal qubit states: z+, z-, x+, x-, y+, y-."""
        try:
            a_re, a_im, b_re, b_im = cls._LABELS[label]
        except KeyError:
            raise ValidationError(
                f"unknown state label {label!r}; expected one of {sorted(cls._LABELS)}"
            ) from None
        return cls.normalized([complex(a_re, a_im), complex(b_re, b_im)])

    @classmethod
    def basis_state(cls, dim: int, k: int) -> "PureState":
        v = np.zeros(dim, dtype=np.complex128)
        v[k] = 1.0
        return cls(v)

    @property
    def vector(self) -> np.ndarray:
        return self._vector

    @property
    def dim(self) -> int:
        return len(self._vector)

    def projector(self) -> np.ndarray:
        return np.outer(self._vector, self._vector.conj())

    def bloch(self) -> np.ndarray:
        """Pauli expectation 3-vector; qubit states only."""
        if self.dim != 2:
            raise ValidationError("Bloch vectors are defined for dimension 2 only")
        v = self._vector
        return np.array([
            float(np.vdot(v, s @ v).real) for s in (SIGMA_X, SIGMA_Y, SIGMA_Z)
        ])

    def __repr__(self):
        return f"PureState(dim={self.dim})"


class DensityMatrix:
    """Non-negative Hermitian operator of unit trace."""

    __slots__ = ("_op", "_spectrum")

    def __init__(self, operator):
        op = as_hermitian(operator)
        spec = eigendecompose(op)
        low = float(spec.eigenvalues.min())
        if low < -DM_TOL:
            raise ValidationError(f"density matrix has negative eigenvalue {low!r}")
        tr = op.trace()
        if abs(tr - 1.0) > DM_TOL:
            raise ValidationError(f"density matrix has trace {tr!r}, not 1")
        self._op = op
        self._spectrum = spec

    @classmethod
    def _from_spectrum(cls, op: HermitianOperator, spec: Spectrum) -> "DensityMatrix":
        # for callers that already decomposed op and applied the checks above
        density = cls.__new__(cls)
        density._op, density._spectrum = op, spec
        return density

    @classmethod
    def pure(cls, phi: PureState) -> "DensityMatrix":
        return cls(HermitianOperator(phi.projector()))

    @classmethod
    def maximally_mixed(cls, dim: int) -> "DensityMatrix":
        return cls(HermitianOperator(identity(dim) / dim))

    @classmethod
    def random(cls, dim: int, rng: np.random.Generator) -> "DensityMatrix":
        g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        m = g @ g.conj().T
        return cls(HermitianOperator(m / np.trace(m).real))

    @property
    def operator(self) -> HermitianOperator:
        return self._op

    @property
    def matrix(self) -> np.ndarray:
        return self._op.matrix

    @property
    def dim(self) -> int:
        return self._op.dim

    @property
    def spectrum(self) -> Spectrum:
        return self._spectrum

    def to_json(self) -> dict:
        return matrix_to_json(self.matrix)

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class ExpectationFunctional:
    """Black-box map from Hermitian operators to real expectation values.

    One interface covers trace forms, pure states, deliberately nonlinear
    counterexamples, and hidden-parameter subensemble assignments, so they
    can all be fed to the same reconstruction and linearity checks.
    """

    __slots__ = ("dim", "label", "_evaluate")

    def __init__(self, dim: int, evaluate, label: str = ""):
        if dim < 1:
            raise ValidationError("functional dimension must be at least 1")
        self.dim = int(dim)
        self.label = label
        self._evaluate = evaluate

    def __call__(self, op) -> float:
        op = as_hermitian(op)
        if op.dim != self.dim:
            raise ValidationError(
                f"operator dimension {op.dim} does not match functional dimension {self.dim}"
            )
        return float(self._evaluate(op))

    def __repr__(self):
        return f"ExpectationFunctional({self.label or 'anonymous'}, dim={self.dim})"


def pure_state_expectation(phi: PureState, op) -> float:
    """Inner-product expectation of op in the state phi.

    The imaginary part is dropped: for a HermitianOperator it is at most
    HERM_TOL * max(1, |op|) / 2 plus roundoff at the scale of op.
    """
    op = as_hermitian(op)
    if op.dim != phi.dim:
        raise ValidationError(
            f"dimension mismatch: state {phi.dim} vs operator {op.dim}"
        )
    return float(np.vdot(phi.vector, op.matrix @ phi.vector).real)


def trace_functional(u, label: str = "") -> ExpectationFunctional:
    """Trace-form functional against a fixed Hermitian operator.

    Accepts any Hermitian operator, not just valid density matrices, so
    that defective linear functionals can be probed too.
    """
    op = u.operator if isinstance(u, DensityMatrix) else as_hermitian(u)
    return ExpectationFunctional(
        op.dim,
        # vdot(r, u) = sum conj(r_ij) u_ij = tr(u r) for Hermitian r, in O(d^2)
        lambda r: float(np.vdot(r.matrix, op.matrix).real),
        label=label or "trace-form",
    )


def pure_state_functional(phi: PureState) -> ExpectationFunctional:
    return ExpectationFunctional(
        phi.dim, lambda r: pure_state_expectation(phi, r), label="pure-state"
    )


def max_eigenvalue_functional(dim: int) -> ExpectationFunctional:
    """The canonical nonlinear counterexample: top of the spectrum."""
    return ExpectationFunctional(
        dim,
        lambda r: float(eigendecompose(r).eigenvalues[-1]),
        label="max-eigenvalue",
    )


def _basis_elements(dim: int):
    # hermitian_basis order, one element at a time, for reconstruct_density
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    for n in range(dim):
        p = np.zeros((dim, dim), dtype=np.complex128)
        p[n, n] = 1.0
        yield HermitianOperator(p)
    for m in range(dim):
        for n in range(m + 1, dim):
            a = np.zeros((dim, dim), dtype=np.complex128)
            a[m, n] = 1.0
            a[n, m] = 1.0
            yield HermitianOperator(a)
            b = np.zeros((dim, dim), dtype=np.complex128)
            b[m, n] = 1.0j
            b[n, m] = -1.0j
            yield HermitianOperator(b)


def hermitian_basis(dim: int) -> list[HermitianOperator]:
    """Basis of the real vector space of Hermitian dim x dim matrices.

    dim projectors onto coordinate axes, then for each index pair m < n the
    real and imaginary cross terms |m><n| + |n><m| and i(|m><n| - |n><m|):
    dim^2 operators in total.
    """
    return list(_basis_elements(dim))


def canonical_noncommuting_probes(dim: int) -> list[HermitianOperator]:
    """Deterministic probe triple built on a non-commuting 2x2 pair.

    The first two members commute with nothing that treats them jointly;
    the third is their sum, whose spectrum is not the sum of spectra.
    Empty for dimension 1, where every pair commutes.
    """
    if dim < 2:
        return []
    def embed(block):
        m = np.zeros((dim, dim), dtype=np.complex128)
        m[:2, :2] = block
        return HermitianOperator(m)
    return [embed(SIGMA_X), embed(SIGMA_Y), embed(SIGMA_X + SIGMA_Y)]


def reconstruct_density(
    f: ExpectationFunctional,
    probe_count: int = DEFAULT_PROBE_COUNT,
    seed: int = _PROBE_SEED,
    lin_tol: float = LIN_TOL,
) -> DensityMatrix:
    """Assemble the density matrix a normalized additive functional must have.

    The matrix is built entrywise from the functional's values on the
    Hermitian basis; nothing is assumed.  Verification order matters:

    1. the value on the identity must be 1, else the functional is not
       normalized (A' fails);
    2. the assembled trace form must reproduce the functional on the
       identity, on a deterministic non-commuting probe triple, and on
       ``probe_count`` seeded random operators, else no trace form matches
       and additivity is what broke (B' fails);
    3. only then are positivity and unit trace of the assembled matrix
       enforced; a failure here means a genuinely linear functional that
       is negative somewhere (A' fails).
    """
    dim = f.dim
    norm_value = f(HermitianOperator(identity(dim)))
    if abs(norm_value - 1.0) > lin_tol:
        raise NormalizationViolation(norm_value)

    values = [f(op) for op in _basis_elements(dim)]
    u = np.diag(np.array(values[:dim], dtype=np.complex128))
    rows, cols = np.triu_indices(dim, 1)
    upper = (np.array(values[dim::2]) + 1j * np.array(values[dim + 1::2])) / 2.0
    u[rows, cols] = upper
    u[cols, rows] = upper.conj()
    u_op = HermitianOperator(u)

    # drawn lazily, so a violation on an early probe stops the random draws
    rng = np.random.default_rng(seed)
    probes = itertools.chain(
        [HermitianOperator(identity(dim))],
        canonical_noncommuting_probes(dim),
        (random_hermitian(dim, rng) for _ in range(probe_count)),
    )
    for probe in probes:
        lhs = f(probe)
        rhs = float(np.vdot(probe.matrix, u).real)
        if abs(lhs - rhs) > lin_tol:
            raise AdditivityViolation(probe, lhs, rhs)

    spec = eigendecompose(u_op)
    low = float(spec.eigenvalues.min())
    if low < -DM_TOL:
        raise PositivityViolation(low)
    tr = u_op.trace()
    if abs(tr - 1.0) > DM_TOL:
        raise NormalizationViolation(tr)
    return DensityMatrix._from_spectrum(u_op, spec)


@dataclass(frozen=True)
class LinearityReport:
    """Worst additivity deviations of a functional, split by commutativity."""

    trials: int
    seed: int
    tol: float
    unrestricted_max_deviation: float
    commuting_max_deviation: float

    @property
    def unrestricted_exceeds_tol(self) -> bool:
        return self.unrestricted_max_deviation > self.tol

    @property
    def commuting_exceeds_tol(self) -> bool:
        return self.commuting_max_deviation > self.tol


def _monotone_commuting_pair(dim, rng):
    # both operators are increasing readouts of one generator, so any
    # outcome-respecting functional treats them as jointly measured
    t = random_hermitian(dim, rng)
    spec = eigendecompose(t)
    fvals = np.cumsum(rng.uniform(0.1, 1.0, size=dim)) + rng.uniform(-2, 0)
    gvals = np.cumsum(rng.uniform(0.1, 1.0, size=dim)) + rng.uniform(-2, 0)
    return spec.apply(lambda _: fvals), spec.apply(lambda _: gvals)


def check_linearity(
    f: ExpectationFunctional,
    trials: int,
    seed: int,
    tol: float = LIN_TOL,
) -> LinearityReport:
    """Probe additivity of a functional over random operator combinations.

    Unrestricted trials draw arbitrary Hermitian pairs and signed weights
    (always including the deterministic non-commuting witness pair with
    unit weights).  Commuting trials draw pairs that are increasing
    functions of one shared generator, combined with non-negative weights:
    additivity over such jointly measurable combinations is exactly the
    weakened assumption that survives the counterexamples killing the
    unrestricted form.
    """
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    dim = f.dim

    def deviation(r, s, a, b):
        combined = f(a * r + b * s)
        return abs(combined - a * f(r) - b * f(s))

    unrestricted = 0.0
    probes = canonical_noncommuting_probes(dim)
    if probes:
        unrestricted = deviation(probes[0], probes[1], 1.0, 1.0)
    for _ in range(trials):
        r = random_hermitian(dim, rng)
        s = random_hermitian(dim, rng)
        a, b = rng.uniform(-2.0, 2.0, size=2)
        unrestricted = max(unrestricted, deviation(r, s, float(a), float(b)))

    commuting = 0.0
    for _ in range(trials):
        r, s = _monotone_commuting_pair(dim, rng)
        a, b = rng.uniform(0.0, 2.0, size=2)
        commuting = max(commuting, deviation(r, s, float(a), float(b)))

    return LinearityReport(
        trials=trials,
        seed=seed,
        tol=tol,
        unrestricted_max_deviation=float(unrestricted),
        commuting_max_deviation=float(commuting),
    )


def dispersion(f: ExpectationFunctional, op) -> float:
    """f(op^2) - f(op)^2, with op^2 formed by matrix multiplication."""
    op = as_hermitian(op)
    if op.dim != f.dim:
        raise ValidationError(
            f"operator dimension {op.dim} does not match functional dimension {f.dim}"
        )
    square = HermitianOperator(op.matrix @ op.matrix)
    return f(square) - f(op) ** 2


def dispersion_witness(u: DensityMatrix) -> tuple[HermitianOperator, float]:
    """Produce an operator with strictly positive dispersion under u.

    If u has an eigenvalue p away from both 0 and 1 (by more than DM_GAP),
    the matching eigenprojector already has dispersion p - p^2.  Otherwise
    u is effectively a pure state |phi><phi|; the projector onto
    (phi + psi)/sqrt(2) with psi orthogonal to phi has dispersion 1/4.
    Only the trivial one-dimensional case admits no witness.
    """
    if u.dim == 1:
        raise ValidationError(
            "dispersion-free functional exists only in dimension 1: "
            "no witness for a 1x1 density matrix"
        )
    spec = u.spectrum
    # p and 1 - p are equally good; take the lower one whatever the rounding
    dist = np.abs(spec.eigenvalues - 0.5)
    idx = int(np.flatnonzero(dist <= dist.min() + DM_TOL)[0])
    p = float(spec.eigenvalues[idx])
    if DM_GAP < p < 1.0 - DM_GAP:
        witness = HermitianOperator(spec.projector(idx))
    else:
        phi = spec.eigenvectors[:, -1]
        psi = spec.eigenvectors[:, 0]
        w = (phi + psi) / math.sqrt(2.0)
        w = w / np.linalg.norm(w)
        witness = HermitianOperator(np.outer(w, w.conj()))
    wm = witness.matrix
    first = float(np.trace(u.matrix @ wm @ wm).real)
    second = float(np.trace(u.matrix @ wm).real)
    return witness, first - second * second
