"""An explicit dispersion-free subensemble model for a single qubit.

An operator splits as base + weight * (axis . sigma), with the axis signed
so that its first component above roundoff is positive.  The hidden
parameter lambda reads the outcome base + weight * s, where s = +1 when
lambda + (Bloch . axis) / 2 >= 0 and -1 otherwise.  Both rules forgive
DELTA_TOL: roundoff in a vanishing axis component cannot flip the axis
sign, and a threshold that lands on the tie up to roundoff reads +1, so
an eigenstate always reads its own eigenvalue.  Every assignment is
spectrum-valued and dispersion-free, the uniform average over the
parameter reproduces the quantum expectation exactly, and additivity of
outcomes fails pointwise for non-commuting pairs while holding after
averaging: recombination, not the individual subensembles, carries the
quantum statistics.

The model is qubit-only by construction; higher dimensions are refused at
the boundary rather than silently mishandled.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .expectation_functionals import ExpectationFunctional, PureState, pure_state_expectation
from .operator_core import (
    HermitianOperator,
    ValidationError,
    as_hermitian,
)

LAMBDA_MIN = -0.5
LAMBDA_MAX = 0.5
# relative roundoff allowance of the model: a per-sample delta counts as an
# additivity violation when it exceeds DELTA_TOL times the size of the
# three outcomes it compares, axis components at or below it (relative to
# the norm) do not fix the axis sign, and thresholds within it of the tie
# read +1
DELTA_TOL = 1e-9


class UnsupportedDimensionError(ValidationError):
    """The subensemble model is defined for dimension 2 only."""


def _lambdas(x) -> np.ndarray:
    """A float64 copy of the hidden parameter values, refusing NaN and out-of-range ones."""
    lams = np.array(x, dtype=float)
    outside = ~((lams >= LAMBDA_MIN) & (lams <= LAMBDA_MAX))
    if outside.any():
        v = float(lams[outside][0])
        raise ValidationError(f"hidden parameter {v!r} outside [{LAMBDA_MIN}, {LAMBDA_MAX}]")
    return lams


def _require_qubit(dim: int):
    if dim != 2:
        raise UnsupportedDimensionError(
            f"the subensemble model is qubit-only; got dimension {dim}"
        )


def _axis_decomposition(op: HermitianOperator):
    """Split a 2x2 Hermitian operator into trace part, signed weight, and axis.

    The axis is the canonical representative of the Pauli direction: its
    first component larger than DELTA_TOL (the axis has unit norm) is
    positive, and the weight carries the sign.  All operators sharing one
    measurement axis, up to roundoff in the other components, therefore
    share one sign variable.
    """
    m = op.matrix
    base = float(np.trace(m).real) / 2.0
    # Pauli coefficients tr(m sigma_k) / 2, read off the entries
    v = np.array([m[0, 1].real + m[1, 0].real, m[1, 0].imag - m[0, 1].imag,
                  m[0, 0].real - m[1, 1].real]) / 2.0
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return base, 0.0, np.zeros(3)
    axis = v / norm
    # a unit 3-vector has a component of size >= 1/sqrt(3), so one exists
    if axis[np.abs(axis) > DELTA_TOL][0] < 0.0:
        return base, -norm, -axis
    return base, norm, axis


def _outcomes(phi: PureState, lams, op: HermitianOperator):
    """Outcomes of op at each lambda, and their closed-form average over lambda."""
    base, weight, axis = _axis_decomposition(op)
    # the sign integrates to (Bloch . axis) over the parameter range
    projection = float(phi.bloch() @ axis)
    # sign(0) is +1 by convention, and thresholds within DELTA_TOL of the
    # tie count as 0; the tie set has measure zero and never moves an average
    signs = np.where(lams + 0.5 * projection >= -DELTA_TOL, 1.0, -1.0)
    return base + weight * signs, base + weight * projection


def assign_value(phi: PureState, lam, r) -> float:
    """Deterministic outcome of measuring r in the subensemble (phi, lam).

    The operator splits as base + weight * (axis . sigma); the returned
    value is base + weight * s with s the sign for that axis, i.e.
    always one of the two eigenvalues.  Multiples of the identity just
    return their scale.
    """
    r = as_hermitian(r)
    _require_qubit(r.dim)
    _require_qubit(phi.dim)
    return float(_outcomes(phi, _lambdas(lam), r)[0])


def average_over_lambda(phi: PureState, r) -> float:
    """Closed-form uniform average of assign_value over the parameter range.

    It collapses to the quantum expectation of r in phi; no sampling is
    involved.
    """
    r = as_hermitian(r)
    _require_qubit(r.dim)
    _require_qubit(phi.dim)
    # the average does not depend on the lambda passed
    return _outcomes(phi, LAMBDA_MIN, r)[1]


def subensemble_functional(phi: PureState, lam) -> ExpectationFunctional:
    """Wrap the outcome map of one (phi, lambda) subensemble as a black-box functional.

    The map is spectrum-valued, dispersion-free and normalized (identity
    maps to 1) but nowhere a trace form: reconstruction from it must end in
    an additivity verdict, never a normalization one.
    """
    _require_qubit(phi.dim)
    lam = float(_lambdas(lam))
    return ExpectationFunctional(
        2, lambda r: assign_value(phi, lam, r), label=f"subensemble(lambda={lam})"
    )


def lambda_grid(size: int) -> np.ndarray:
    """Uniform deterministic grid over the parameter range, endpoints included."""
    if size < 2:
        raise ValidationError("lambda grid needs at least 2 points")
    return np.linspace(LAMBDA_MIN, LAMBDA_MAX, size)


@dataclass(frozen=True)
class LambdaSample:
    lam: float
    value_r: float
    value_s: float
    value_sum: float

    @property
    def delta(self) -> float:
        return self.value_sum - self.value_r - self.value_s


@dataclass(frozen=True, eq=False)
class SubensembleReport:
    """Per-parameter outcomes for a pair of quantities and their sum.

    The columns ``lambdas``, ``values_r``, ``values_s`` and ``values_sum``
    are read-only arrays, one entry per parameter value.  ``avg_delta``
    comes from the closed-form averages, which are linear, so it vanishes
    up to roundoff no matter how badly the per-parameter deltas behave;
    ``violation_fraction`` is the share of parameter values whose delta is
    nonzero beyond DELTA_TOL relative to the outcomes it compares.
    """

    phi: PureState
    lambdas: np.ndarray
    values_r: np.ndarray
    values_s: np.ndarray
    values_sum: np.ndarray
    average_r: float
    average_s: float
    average_sum: float
    quantum_r: float
    quantum_s: float
    quantum_sum: float

    def __post_init__(self):
        for column in (self.lambdas, self.values_r, self.values_s, self.values_sum):
            column.flags.writeable = False

    @property
    def deltas(self) -> np.ndarray:
        return self.values_sum - self.values_r - self.values_s

    @property
    def samples(self) -> tuple[LambdaSample, ...]:
        return tuple(LambdaSample(*row) for row in zip(*self._columns()))

    def _columns(self) -> list[list]:
        return [c.tolist() for c in (self.lambdas, self.values_r, self.values_s, self.values_sum)]

    @property
    def avg_delta(self) -> float:
        return self.average_sum - self.average_r - self.average_s

    @property
    def violation_fraction(self) -> float:
        scale = np.abs(self.values_r) + np.abs(self.values_s) + np.abs(self.values_sum)
        bad = np.count_nonzero(np.abs(self.deltas) > DELTA_TOL * scale)
        return bad / max(self.lambdas.size, 1)  # 0.0 for an empty lambda list

    def to_json(self) -> dict:
        return {
            "phi": [[float(z.real), float(z.imag)] for z in self.phi.vector],
            "pairs": [
                {"lambda": lam, "vR": vr, "vS": vs, "vRplusS": vsum, "delta": delta}
                for lam, vr, vs, vsum, delta in zip(*self._columns(), self.deltas.tolist())
            ],
            "avg_delta": self.avg_delta,
            "violation_fraction": self.violation_fraction,
        }


def additivity_violation_report(phi: PureState, r, s, lambdas) -> SubensembleReport:
    """Tabulate outcome additivity of r, s, and r + s across subensembles.

    lambdas is any one-dimensional sequence or array of floats in
    [-1/2, 1/2]; the report keeps its own copy.  The sum is formed at the
    operator level, the only meaning available when r and s cannot be
    measured together; each row reports the three assigned outcomes and
    their mismatch.
    """
    r = as_hermitian(r)
    s = as_hermitian(s)
    _require_qubit(r.dim)
    _require_qubit(s.dim)
    _require_qubit(phi.dim)
    lams = _lambdas(lambdas)
    if lams.ndim != 1:
        raise ValidationError(f"lambdas must be one-dimensional, got shape {lams.shape}")
    combined = r + s
    (vr, avg_r), (vs, avg_s), (vsum, avg_sum) = (
        _outcomes(phi, lams, op) for op in (r, s, combined)
    )
    return SubensembleReport(
        phi=phi,
        lambdas=lams,
        values_r=vr,
        values_s=vs,
        values_sum=vsum,
        average_r=avg_r,
        average_s=avg_s,
        average_sum=avg_sum,
        quantum_r=pure_state_expectation(phi, r),
        quantum_s=pure_state_expectation(phi, s),
        quantum_sum=pure_state_expectation(phi, combined),
    )
