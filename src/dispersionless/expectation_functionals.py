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
from dataclasses import dataclass

import numpy as np

from .operator_core import (
    HermitianOperator,
    PAULIS,
    SIGMA_X,
    SIGMA_Y,
    Spectrum,
    ValidationError,
    _require_finite,
    _require_integer,
    _require_tol,
    as_hermitian,
    eigendecompose,
    identity,
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


class NormalizationViolation(FunctionalViolation):
    """The functional is not normalized: its value on the identity is not 1."""

    kind = "a-prime-violation"

    def __init__(self, value: float):
        self.value = float(value)
        super().__init__(
            f"functional violates A': value on the identity is {self.value!r}, not 1"
        )


class PositivityViolation(FunctionalViolation):
    """The functional assigns a negative expectation to some projector."""

    kind = "a-prime-violation"

    def __init__(self, eigenvalue: float):
        self.eigenvalue = float(eigenvalue)
        super().__init__(
            "functional violates A': reconstructed state has negative "
            f"eigenvalue {self.eigenvalue!r}"
        )


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
        _require_finite(v, "state vector")
        nrm = float(np.linalg.norm(v))
        if abs(nrm - 1.0) > DM_TOL:
            raise ValidationError(f"state vector norm is {nrm!r}, not 1")
        v.flags.writeable = False
        self._vector = v

    @classmethod
    def normalized(cls, vector) -> "PureState":
        v = np.array(vector, dtype=np.complex128)
        _require_finite(v, "state vector")
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
        _require_integer("dimension", dim, 1)
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

    def __repr__(self):
        return f"DensityMatrix(dim={self.dim})"


class ExpectationFunctional:
    """Black-box map from Hermitian operators to real expectation values.

    One interface covers trace forms, pure states, deliberately nonlinear
    counterexamples, and hidden-parameter subensemble assignments, so they
    can all be fed to the same reconstruction and linearity checks.
    ``evaluate`` maps one HermitianOperator to a real number;
    ``evaluate_stack`` maps a (k, dim, dim) complex array of Hermitian
    matrices to its k real values.  A functional takes exactly one of the
    two.  Calling it validates one operator and evaluates it as a band of
    one; reconstruction and the linearity check hand the formula the
    bands they built, exactly Hermitian and unchecked, each of at most
    8192 cells (a band of one past d = 90).  A band given to
    ``evaluate_stack`` may be read-only and is valid only during the call:
    reconstruction reuses its probe bands, and successive basis bands may
    be the same read-only array, which the next band overwrites.  The
    formula must return k values, one per slice, or a ValidationError is
    raised.  ``evaluate`` gets a validated HermitianOperator copy of each slice.
    """

    __slots__ = ("dim", "_evaluate_stack")

    def __init__(self, dim: int, evaluate=None, evaluate_stack=None):
        _require_integer("functional dimension", dim, 1)
        if (evaluate is None) == (evaluate_stack is None):
            raise ValidationError("a functional needs evaluate or evaluate_stack, not both")
        self.dim = int(dim)
        if evaluate is not None:
            def evaluate_stack(stack):
                return [float(evaluate(HermitianOperator(m))) for m in stack]
        self._evaluate_stack = evaluate_stack

    def __call__(self, op) -> float:
        op = as_hermitian(op)
        if op.dim != self.dim:
            raise ValidationError(
                f"operator dimension {op.dim} does not match functional dimension {self.dim}"
            )
        return float(_band_values(self, op.matrix[None])[0])

    def __repr__(self):
        return f"ExpectationFunctional(dim={self.dim})"


def trace_functional(u) -> ExpectationFunctional:
    """Trace-form functional against a fixed Hermitian operator.

    Accepts any Hermitian operator, not just valid density matrices, so
    that defective linear functionals can be probed too.
    """
    op = u.operator if isinstance(u, DensityMatrix) else as_hermitian(u)
    return _trace_form(op.matrix)


def _band_values(f: ExpectationFunctional, band: np.ndarray) -> np.ndarray:
    # f on each slice of a Hermitian (k, f.dim, f.dim) band the package built,
    # unchecked; a band of more than _BAND_CELLS cells reaches the formula in
    # parts that fit (of one operator past d = 90), and the formula's output
    # must hold one value per slice
    if len(band) > 1 and band.size > _BAND_CELLS:
        return np.concatenate([_band_values(f, band[a:b]) for a, b in _bands(f.dim, len(band))])
    values = np.asarray(f._evaluate_stack(band), dtype=np.float64)
    if values.shape != band.shape[:1]:
        raise ValidationError(
            f"a band formula returned values of shape {values.shape} for a band "
            f"of shape {band.shape}; expected shape ({len(band)},)"
        )
    return values


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
    # package is; a band by the same LAPACK driver, batched.  eigvalsh's
    # eigenvalue-only driver would save the eigenvectors, but differs in the
    # last bits: equal on all 11440 basis slices for d = 1..32 and on the
    # fixed probes, it differs on 153-188 of 200 random operators at d = 4..32
    if len(stack) == 1:
        return [eigendecompose(stack[0]).eigenvalues[-1]]
    return np.linalg.eigh(stack)[0][:, -1]


def _bands(dim: int, count: int):
    # (start, stop) of each band of count dim x dim operators
    step = max(1, _BAND_CELLS // (dim * dim))
    for start in range(0, count, step):
        yield start, min(start + step, count)


@functools.lru_cache(maxsize=8)
def _basis_scatter(dim: int):
    # the sweep of the d^2 basis elements in hermitian_basis order: its longest
    # band's length, the cross terms' index pairs (rows, cols), and per band a
    # (cells, values) pair: flat[cells] = values clears the last band's cells of
    # a (step, d, d) buffer and writes this one's.  Built in 75-240 us (d <= 32,
    # 2-vCPU x86_64 VM), they are kept for the last 8 dimensions: 125 KB at d = 32
    cells = dim * dim
    # bands start at multiples of the first one's length
    _, step = next(_bands(dim, cells))
    rows, cols = np.nonzero(~np.tri(dim, dtype=bool))  # np.triu_indices(dim, 1)
    # element e's cells in slot e % step and values, in order: (n, n) to 1, else
    # (m, n) and (n, m) to 1 and 1, then 1j and -1j; e's begin at max(e, 2e - d)
    slot = np.arange(cells) % step * cells
    mn = np.array([rows * dim + cols, cols * dim + rows]).T[:, None]
    targets = np.concatenate([slot[:dim] + np.arange(0, cells, dim + 1),
                              (slot[dim:].reshape(-1, 2, 1) + mn).ravel()])
    value = np.ones(len(targets), dtype=np.complex128)
    value[dim + 2::4], value[dim + 3::4] = 1j, -1j
    # a band's cells, its elements' and the last band's, are one window of
    # targets, unique as numpy leaves the order of repeated writes open: in
    # bands of one, a pair's imaginary term clears nothing, being on the real
    # one's cells.  Its values are that window of its parity's array
    starts = np.arange(0, cells, step)
    bounds = np.array([np.maximum(starts - step, 0), starts, np.minimum(starts + step, cells)])
    if step == 1:
        bounds[0, dim + 1::2] = starts[dim + 1::2]
    low, mid, high = np.maximum(bounds, 2 * bounds - dim)
    odd = np.repeat(np.arange(len(starts)) % 2, high - mid)
    values = np.where(odd, 0.0, value), np.where(odd, value, 0.0)
    for part in (rows, cols, targets, *values):
        part.flags.writeable = False
    windows = zip(low.tolist(), high.tolist(), values * len(starts))
    return step, rows, cols, tuple([(targets[a:b], v[a:b]) for a, b, v in windows])


def _basis_bands(dim: int):
    # hermitian_basis order, one band at a time, each the one read-only view
    # of one buffer (a slice for a shorter last band), valid, with any view of
    # it, until the next band clears its cells and writes its own
    _require_integer("dimension", dim, 1)
    step, _, _, scatter = _basis_scatter(dim)
    buffer = np.zeros((step, dim, dim), dtype=np.complex128)
    flat, view = buffer.reshape(-1), buffer.view()
    view.flags.writeable = False
    for (start, end), (cells, values) in zip(_bands(dim, dim * dim), scatter):
        flat[cells] = values
        yield view if end - start == step else view[:end - start]


def hermitian_basis(dim: int) -> list[HermitianOperator]:
    """Basis of the real vector space of Hermitian dim x dim matrices.

    dim projectors onto coordinate axes, then for each index pair m < n the
    real and imaginary cross terms |m><n| + |n><m| and i(|m><n| - |n><m|):
    dim^2 operators in total.
    """
    return [HermitianOperator(m) for band in _basis_bands(dim) for m in band]


def _probe_bands(dim: int, seed: int, count: int):
    # the count seeded random probes, one (k, dim, dim) band at a time
    rng = np.random.default_rng(seed)
    for start, stop in _bands(dim, count):
        yield random_hermitian_stack(dim, rng, stop - start)


@functools.lru_cache(maxsize=8)
def _kept_probe_bands(dim: int, seed: int, count: int) -> tuple[np.ndarray, ...]:
    # _probe_bands, drawn whole and kept read-only for the last 8 keys.
    # Drawing the default 32 probes at d = 32 took 1.4 ms of a 3.7 ms
    # reconstruction on a 2-vCPU x86_64 VM; callers keep only keys of at most
    # 4 * _BAND_CELLS cells (512 KiB), so the cache holds at most 4 MiB
    bands = tuple(_probe_bands(dim, seed, count))
    for band in bands:
        band.flags.writeable = False
    return bands


def _fixed_probes(dim: int) -> np.ndarray:
    # the deterministic probes as one (k, dim, dim) band: the identity, then
    # a non-commuting 2x2 pair and their sum, whose spectrum is not the sum
    # of spectra; the identity alone in dimension 1, where every pair commutes
    band = np.zeros((4 if dim >= 2 else 1, dim, dim), dtype=np.complex128)
    band[0] = identity(dim)
    if dim >= 2:
        band[1:, :2, :2] = SIGMA_X, SIGMA_Y, SIGMA_X + SIGMA_Y
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
    ``_BAND_CELLS`` cells; the basis bands share one buffer, the identity
    and the triple are one fixed band (given to the formula in parts past
    d = 45), and a probe band is evaluated only when every earlier probe
    passed.  The random
    probes are drawn only after the fixed band passes: within
    a budget of ``4 * _BAND_CELLS`` cells the first call for a (dim, seed,
    probe_count) draws all of their bands and later calls reuse them,
    read-only; above it each band is drawn when it is reached.  A NaN
    value fails its check, and a NaN basis value the first probe that
    reads it.  Raises ValidationError unless lin_tol is finite and
    positive and probe_count and seed are non-negative integers: a bool,
    a float, a sequence or a Generator seed is refused.
    """
    return _reconstruct(f, probe_count, seed, lin_tol)[1]


def _reconstruct(f, probe_count, seed, lin_tol) -> tuple[np.ndarray, DensityMatrix]:
    # reconstruct_density, also returning the basis values in _basis_bands
    # order; a FunctionalViolation it raises carries them as `values`
    _require_tol("linearity tolerance", lin_tol)
    _require_integer("probe_count", probe_count, 0)
    # the seed is a cache key: a Generator would replay its first draws
    _require_integer("seed", seed, 0)
    dim = f.dim
    # each band's values are copied out before the next band overwrites it
    values, start = np.empty(dim * dim), 0
    for band in _basis_bands(dim):
        values[start:start + len(band)] = _band_values(f, band)
        start += len(band)
    try:
        norm_value = f(HermitianOperator(identity(dim)))
        if not abs(norm_value - 1.0) <= lin_tol:
            raise NormalizationViolation(norm_value)

        u = np.diag(values[:dim].astype(np.complex128))
        _, rows, cols, _ = _basis_scatter(dim)
        upper = (values[dim::2] + 1j * values[dim + 1::2]) / 2.0
        u[rows, cols] = upper
        u[cols, rows] = upper.conj()
        # u is checked only after the probes, so that a NaN value in it fails a
        # probe comparison rather than the matrix check
        form = _trace_form(u)

        def probes():
            # lazily, band by band: a failing band stops the rest, and a
            # failing fixed band does not even seed the generator; random
            # probes within the cache's budget are drawn whole once per key
            yield _fixed_probes(dim)
            if probe_count * dim * dim <= 4 * _BAND_CELLS:
                yield from _kept_probe_bands(dim, seed, probe_count)
            else:
                yield from _probe_bands(dim, seed, probe_count)

        for band in probes():
            lhs, rhs = _band_values(f, band), _band_values(form, band)
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
    co-monotone pairs only, a part of the commuting pairs, so
    max_eigenvalue_functional passes them though it is not additive on
    |0><0| and |1><1|.  The trials are drawn a band at a time, as many of
    each kind per band as fit with the witness pair in 8192 cells (at
    least one): the unrestricted pairs and weights, then the commuting
    ones.  Each band, the witness pair leading the first, reaches the
    functional's formula three times: as a r + b s, then r, then s; past
    d = 52, where one trial of each kind and the pair exceed 8192 cells,
    each time in parts that fit (of one operator past d = 90).
    Raises ValidationError unless tol is finite and positive, trials is a
    positive integer and seed, which the report keeps, a non-negative one:
    a bool, a float or a Generator is refused.
    """
    _require_tol("linearity tolerance", tol)
    _require_integer("trials", trials, 1)
    _require_integer("seed", seed, 0)
    rng = np.random.default_rng(seed)
    dim = f.dim
    # the witness pair as (r, s) bands of one, for the first band only; of
    # none in dimension 1
    witness = _fixed_probes(dim)[1:3].reshape(2, -1, dim, dim)
    step = max(1, (_BAND_CELLS // (dim * dim) - 1) // 2)
    unrestricted, commuting = [], []
    for start in range(0, trials, step):
        k = min(step, trials - start)
        pairs = random_hermitian_stack(dim, rng, 2 * k).reshape(2, k, dim, dim)
        weights = rng.uniform(-2.0, 2.0, size=(2, k))
        # both readouts of a pair are increasing functions of one generator, so
        # any outcome-respecting functional treats them as jointly measured
        vectors = np.linalg.eigh(random_hermitian_stack(dim, rng, k))[1]
        tables = np.cumsum(rng.uniform(0.1, 1.0, size=(2, k, 1, dim)), axis=-1)
        tables += rng.uniform(-2.0, 0.0, size=(2, k, 1, 1))
        joint = (vectors * tables) @ vectors.conj().swapaxes(-1, -2)
        # V T V* is Hermitian only up to roundoff; (M + M*)/2 is, bit for bit
        joint = (joint + joint.conj().swapaxes(-1, -2)) / 2
        r, s = np.concatenate([witness, pairs, joint], axis=1)
        a, b = np.concatenate(
            [np.ones((2, len(witness[0]))), weights, rng.uniform(0.0, 2.0, size=(2, k))], axis=1)
        combined = _band_values(f, r * a[:, None, None] + s * b[:, None, None])
        deviation = np.abs(combined - a * _band_values(f, r) - b * _band_values(f, s))
        # np.max, unlike max, keeps a NaN deviation
        unrestricted.append(np.max(deviation[:-k]))
        commuting.append(np.max(deviation[-k:]))
        witness = witness[:, :0]

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
