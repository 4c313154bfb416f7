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

import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HermitianOperator,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    Spectrum,
    ValidationError,
    _require_tol,
    as_hermitian,
    as_hermitian_stack,
    eigendecompose,
    identity,
    matrix_to_json,
    random_hermitian_stack,
)

LIN_TOL = 1e-9
DM_TOL = 1e-9
# eigenvalues this close to 0 or 1 count as "effectively pure" when picking
# a dispersion witness
DM_GAP = 1e-6

DEFAULT_PROBE_COUNT = 32
_PROBE_SEED = 0x5EED
# operators are evaluated in (k, d, d) bands of at most this many complex128
# cells (128 KiB): fewer cells pay more per-band overhead, more raise the peak
# memory of a reconstruction
_BAND_CELLS = 8192


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

    # amplitudes before normalization; y-'s second one is 0 - 1j, since the
    # literal -1j has real part -0.0, which the JSON state would print
    _LABELS = {"z+": (1, 0), "z-": (0, 1), "x+": (1, 1), "x-": (1, -1),
               "y+": (1, 1j), "y-": (1, 0 - 1j)}

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
        if not np.isfinite(v).all():
            raise ValidationError("state vector entries must be finite")
        # the plain norm holds while the square of the largest part is a normal
        # float and the 2 len squares cannot overflow; else divide by that part,
        # as floats: numpy's complex division overflows on a subnormal divisor
        big = np.abs([v.real, v.imag]).max(initial=0.0)
        if not 2.0**-511 <= big <= 2.0**511 / math.sqrt(2 * v.size):
            v.real /= big or 1.0
            v.imag /= big or 1.0
        nrm = np.linalg.norm(v)
        if nrm == 0:
            raise ValidationError("cannot normalize the zero vector")
        return cls(v / nrm)

    @classmethod
    def from_label(cls, label: str) -> "PureState":
        """Cardinal qubit states: z+, z-, x+, x-, y+, y-."""
        if label not in cls._LABELS:
            raise ValidationError(
                f"unknown state label {label!r}; expected one of {sorted(cls._LABELS)}"
            )
        return cls.normalized(cls._LABELS[label])

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
        return _pure_state_values(self._vector, PAULIS)

    def __repr__(self):
        return f"PureState(dim={self.dim})"


def _require_density(op: HermitianOperator, spec: Spectrum, negative, off_trace):
    # the density-matrix rule, in the caller's errors: raise negative(low) if the
    # lowest eigenvalue is below -DM_TOL, off_trace(tr) if the trace is off 1 by more
    low = float(spec.eigenvalues.min())
    if low < -DM_TOL:
        raise negative(low)
    tr = op.trace()
    if abs(tr - 1.0) > DM_TOL:
        raise off_trace(tr)


class DensityMatrix:
    """Non-negative Hermitian operator of unit trace."""

    __slots__ = ("_op", "_spectrum")

    def __init__(self, operator):
        op = as_hermitian(operator)
        spec = eigendecompose(op)
        _require_density(
            op, spec,
            lambda low: ValidationError(f"density matrix has negative eigenvalue {low!r}"),
            lambda tr: ValidationError(f"density matrix has trace {tr!r}, not 1"),
        )
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
    ``evaluate`` maps one HermitianOperator to a real number;
    ``evaluate_stack`` maps a validated (k, dim, dim) complex array to its
    k real values.  A functional takes exactly one of the two, and
    evaluates one operator as a band of one.
    """

    __slots__ = ("dim", "_evaluate_stack")

    def __init__(self, dim: int, evaluate=None, evaluate_stack=None):
        # bool counts as numbers.Integral in Python but is refused as a dimension
        if isinstance(dim, bool) or not isinstance(dim, numbers.Integral):
            raise ValidationError(f"functional dimension must be an integer, got {dim!r}")
        if dim < 1:
            raise ValidationError("functional dimension must be at least 1")
        if (evaluate is None) == (evaluate_stack is None):
            raise ValidationError("a functional needs evaluate or evaluate_stack, not both")
        self.dim = int(dim)
        if evaluate is not None:
            def evaluate_stack(stack):
                return [float(evaluate(HermitianOperator(m))) for m in stack]
        self._evaluate_stack = evaluate_stack

    def _require_dim(self, dim: int):
        if dim != self.dim:
            raise ValidationError(
                f"operator dimension {dim} does not match functional dimension {self.dim}"
            )

    def __call__(self, op) -> float:
        op = as_hermitian(op)
        self._require_dim(op.dim)
        return float(self._evaluate_stack(op.matrix[None])[0])

    def values(self, stack) -> np.ndarray:
        """The functional on each slice of a (k, dim, dim) band of Hermitian matrices."""
        stack = as_hermitian_stack(stack)
        self._require_dim(stack.shape[1])
        return np.asarray(self._evaluate_stack(stack), dtype=np.float64)

    def __repr__(self):
        return f"ExpectationFunctional(dim={self.dim})"


def trace_functional(u) -> ExpectationFunctional:
    """Trace-form functional against a fixed Hermitian operator.

    Accepts any Hermitian operator, not just valid density matrices, so
    that defective linear functionals can be probed too.
    """
    op = u.operator if isinstance(u, DensityMatrix) else as_hermitian(u)
    return _trace_form(op.matrix)


def _trace_form(u: np.ndarray) -> ExpectationFunctional:
    # the trace form of a matrix taken as it is, unchecked
    flat = u.ravel()
    return ExpectationFunctional(
        len(u),
        # per flattened slice r, vecdot(r, u) = sum conj(r_ij) u_ij = tr(u r)
        # for Hermitian r, in O(d^2)
        evaluate_stack=lambda stack: np.vecdot(stack.reshape(len(stack), -1), flat).real,
    )


def _pure_state_values(v: np.ndarray, stack: np.ndarray) -> np.ndarray:
    # <v|r|v> for each slice r of a Hermitian (k, d, d) band, unchecked
    return np.vecdot(v, stack @ v).real


def pure_state_functional(phi: PureState) -> ExpectationFunctional:
    """<phi|r|phi> per operator r: the real part of the inner product vdot(phi, r phi)."""
    return ExpectationFunctional(
        phi.dim, evaluate_stack=functools.partial(_pure_state_values, phi.vector))


def max_eigenvalue_functional(dim: int) -> ExpectationFunctional:
    """The canonical nonlinear counterexample: top of the spectrum."""
    return ExpectationFunctional(dim, evaluate_stack=_top_eigenvalues)


def _top_eigenvalues(stack):
    # one operator is decomposed by eigendecompose, as every spectrum in the
    # package is; a band by the same LAPACK driver, batched (eigvalsh's
    # eigenvalue-only driver differs in the last bits)
    if len(stack) == 1:
        return [eigendecompose(stack[0]).eigenvalues[-1]]
    return np.linalg.eigh(stack)[0][:, -1]


def _band_length(dim: int) -> int:
    # how many dim x dim operators one band holds
    return max(1, _BAND_CELLS // (dim * dim))


@functools.lru_cache(maxsize=8)
def _basis_scatter(dim: int):
    # the d^2 basis elements in hermitian_basis order as scatter targets:
    # element e sets flat cell above[e] of its own d x d slot of a band to
    # upper[e] and cell below[e] to lower[e] (the same cell on the
    # diagonal).  Building them takes 50-70 us on a 2-vCPU x86_64 VM, 14-22 %
    # of a d <= 8 reconstruction, so the last 8 dimensions keep theirs:
    # 48 d^2 bytes each, 49 KB at d = 32.
    rows, cols = np.triu_indices(dim, 1)
    m = np.concatenate([np.arange(dim), np.repeat(rows, 2)])
    n = np.concatenate([np.arange(dim), np.repeat(cols, 2)])
    slot = np.arange(dim * dim) * (dim * dim)
    upper = np.concatenate([np.ones(dim), np.tile([1.0, 1.0j], len(rows))])
    lower = np.concatenate([np.ones(dim), np.tile([1.0, -1.0j], len(rows))])
    scatter = slot + m * dim + n, upper, slot + n * dim + m, lower
    for part in scatter:
        part.flags.writeable = False
    return scatter


def _basis_bands(dim: int):
    # hermitian_basis order, one (k, dim, dim) band at a time
    if dim < 1:
        raise ValidationError("dimension must be at least 1")
    above, upper, below, lower = _basis_scatter(dim)
    cells = dim * dim
    step = _band_length(dim)
    for start in range(0, cells, step):
        end = min(start + step, cells)
        band = np.zeros((end - start, dim, dim), dtype=np.complex128)
        flat = band.reshape(-1)
        flat[above[start:end] - start * cells] = upper[start:end]
        flat[below[start:end] - start * cells] = lower[start:end]
        yield band


def hermitian_basis(dim: int) -> list[HermitianOperator]:
    """Basis of the real vector space of Hermitian dim x dim matrices.

    dim projectors onto coordinate axes, then for each index pair m < n the
    real and imaginary cross terms |m><n| + |n><m| and i(|m><n| - |n><m|):
    dim^2 operators in total.
    """
    return [HermitianOperator(m) for band in _basis_bands(dim) for m in band]


def _canonical_band(dim: int) -> np.ndarray:
    # the deterministic probe triple as one (k, dim, dim) band: a
    # non-commuting 2x2 pair and their sum, whose spectrum is not the sum of
    # spectra; empty for dimension 1, where every pair commutes
    band = np.zeros((3 if dim >= 2 else 0, dim, dim), dtype=np.complex128)
    if dim >= 2:
        band[:, :2, :2] = SIGMA_X, SIGMA_Y, SIGMA_X + SIGMA_Y
    return band


def reconstruct_density(
    f: ExpectationFunctional,
    probe_count: int = DEFAULT_PROBE_COUNT,
    seed: int = _PROBE_SEED,
    lin_tol: float = LIN_TOL,
) -> DensityMatrix:
    """Assemble the density matrix a normalized additive functional must have.

    The matrix is built entrywise from the functional's values on the
    Hermitian basis, read first; nothing is assumed.  Verification order matters:

    1. the value on the identity must be 1, else the functional is not
       normalized (A' fails);
    2. the assembled trace form must reproduce the functional on the
       identity, on a deterministic non-commuting probe triple, and on
       ``probe_count`` seeded random operators, else no trace form matches
       and additivity is what broke (B' fails);
    3. only then are positivity and unit trace of the assembled matrix
       enforced; a failure here means a genuinely linear functional that
       is negative somewhere (A' fails).

    The basis and the probes are Hermitian by construction and go to the
    functional's band formula unchecked, in bands of at most
    ``_BAND_CELLS`` cells; a probe band is drawn only when every earlier
    probe passed.  A NaN value fails its check, and a NaN basis value the
    first probe that reads it.  Raises ValidationError unless lin_tol is
    finite and positive and probe_count is non-negative.
    """
    return _reconstruct(f, probe_count, seed, lin_tol)[1]


def _reconstruct(f, probe_count, seed, lin_tol) -> tuple[np.ndarray, DensityMatrix]:
    # reconstruct_density, also returning the basis values in _basis_bands
    # order; a FunctionalViolation it raises carries them as `values`
    _require_tol("linearity tolerance", lin_tol)
    if probe_count < 0:
        raise ValidationError(f"probe_count must be non-negative, got {probe_count}")
    dim = f.dim

    def evaluate(band):
        # the bands built here are Hermitian, so none is checked again
        return np.asarray(f._evaluate_stack(band), dtype=np.float64)

    values = np.concatenate([evaluate(band) for band in _basis_bands(dim)])
    try:
        norm_value = f(HermitianOperator(identity(dim)))
        if not abs(norm_value - 1.0) <= lin_tol:
            raise NormalizationViolation(norm_value)

        u = np.diag(values[:dim].astype(np.complex128))
        rows, cols = np.triu_indices(dim, 1)
        upper = (values[dim::2] + 1j * values[dim + 1::2]) / 2.0
        u[rows, cols] = upper
        u[cols, rows] = upper.conj()
        # u is checked only after the probes, so that a NaN value in it fails a
        # probe comparison rather than the matrix check
        form = _trace_form(u)

        def probes():
            # lazily, band by band: a failing band stops the rest, and a
            # failing fixed band does not even seed the generator
            yield identity(dim)[None]
            if dim >= 2:
                yield _canonical_band(dim)
            rng = np.random.default_rng(seed)
            step = _band_length(dim)
            for start in range(0, probe_count, step):
                yield random_hermitian_stack(dim, rng, min(step, probe_count - start))

        for band in probes():
            lhs, rhs = evaluate(band), form._evaluate_stack(band)
            failed = ~(np.abs(lhs - rhs) <= lin_tol)
            if failed.any():
                first = int(np.argmax(failed))
                raise AdditivityViolation(HermitianOperator(band[first]), lhs[first], rhs[first])

        u_op = HermitianOperator(u)
        spec = eigendecompose(u_op)
        _require_density(u_op, spec, PositivityViolation, NormalizationViolation)
    except FunctionalViolation as exc:
        exc.values = values
        raise
    return values, DensityMatrix._from_spectrum(u_op, spec)


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
        return not self.unrestricted_max_deviation <= self.tol

    @property
    def commuting_exceeds_tol(self) -> bool:
        return not self.commuting_max_deviation <= self.tol


def _max_deviation(f, r, s, a, b) -> float:
    # the largest |f(a r + b s) - a f(r) - b f(s)| over one band of trials:
    # (k, d, d) operator bands r and s, length-k weight arrays a and b
    combined = f.values(r * a[:, None, None] + s * b[:, None, None])
    # np.max, unlike max, keeps a NaN deviation
    return float(np.max(np.abs(combined - a * f.values(r) - b * f.values(s))))


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
    unrestricted form.  After the witness pair, the trials are drawn and
    evaluated a band at a time, as many per band as a reconstruction
    probe band holds.  Raises ValidationError unless tol is finite and
    positive.
    """
    _require_tol("linearity tolerance", tol)
    if trials < 1:
        raise ValidationError("trials must be at least 1")
    rng = np.random.default_rng(seed)
    dim = f.dim
    unrestricted, commuting = [], []
    if dim >= 2:
        r, s = _canonical_band(dim)[:2, None]
        unrestricted.append(_max_deviation(f, r, s, np.ones(1), np.ones(1)))
    step = _band_length(dim)
    for start in range(0, trials, step):
        k = min(step, trials - start)
        r, s = random_hermitian_stack(dim, rng, 2 * k).reshape(2, k, dim, dim)
        unrestricted.append(_max_deviation(f, r, s, *rng.uniform(-2.0, 2.0, size=(2, k))))
        # both readouts of a pair are increasing functions of one generator, so
        # any outcome-respecting functional treats them as jointly measured
        vectors = np.linalg.eigh(random_hermitian_stack(dim, rng, k))[1]
        tables = np.cumsum(rng.uniform(0.1, 1.0, size=(2, k, 1, dim)), axis=-1)
        tables += rng.uniform(-2.0, 0.0, size=(2, k, 1, 1))
        r, s = (vectors * tables) @ vectors.conj().swapaxes(-1, -2)
        commuting.append(_max_deviation(f, r, s, *rng.uniform(0.0, 2.0, size=(2, k))))

    return LinearityReport(
        trials=trials,
        seed=seed,
        tol=tol,
        unrestricted_max_deviation=float(np.max(unrestricted)),
        commuting_max_deviation=float(np.max(commuting)),
    )


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
