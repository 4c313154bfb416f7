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

from .expectation_functionals import ExpectationFunctional, PureState, _pure_state_values
from .operator_core import ValidationError, as_hermitian

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


def _require_qubit(*dims: int):
    for dim in dims:
        if dim != 2:
            raise UnsupportedDimensionError(
                f"the subensemble model is qubit-only; got dimension {dim}"
            )


# a 2x2 complex matrix read as 8 floats holds (re, im) of m00, m01, m10, m11;
# its Pauli coefficients tr(m sigma_k) / 2 are (f2 + f4, f5 - f3, f0 - f6) / 2
_PAULI_FIRST = [2, 5, 0]
_PAULI_SECOND = [4, 3, 6]
_PAULI_SECOND_SIGN = np.array([1.0, -1.0, -1.0])
# a row of entries in {-1, 0, 1} has, against these weights, the sign of its
# first nonzero entry (4 > 2 + 1 and 2 > 1)
_LEAD_WEIGHTS = np.array([4.0, 2.0, 1.0])
_SMALLEST = np.finfo(np.float64).smallest_subnormal


def _axis_decomposition(stack: np.ndarray):
    """Split each matrix of a (k, 2, 2) Hermitian band into trace part, signed weight, and axis.

    The axis is the canonical representative of the Pauli direction: its
    first component larger than DELTA_TOL (the axis has unit norm) is
    positive, and the weight carries the sign.  All operators sharing one
    measurement axis, up to roundoff in the other components, therefore
    share one sign variable.  A multiple of the identity has weight 0 and
    the zero axis.
    """
    f = np.ascontiguousarray(stack).view(np.float64).reshape(-1, 8)
    base = (f[:, 0] + f[:, 6]) / 2.0
    v = (f[:, _PAULI_FIRST] + f[:, _PAULI_SECOND] * _PAULI_SECOND_SIGN) / 2.0
    norm = np.sqrt(np.vecdot(v, v))
    # v vanishes where its norm does, and a positive norm is at least the
    # smallest subnormal, so this divides by the norm wherever it is positive
    axis = v / np.maximum(norm, _SMALLEST)[:, None]
    # the sign of the first component above DELTA_TOL; a unit 3-vector has a
    # component of size >= 1/sqrt(3), so one exists unless the axis is zero
    lead = np.vecdot(np.copysign(np.abs(axis) > DELTA_TOL, axis), _LEAD_WEIGHTS)
    sign = np.where(lead < 0.0, -1.0, 1.0)
    return base, sign * norm, sign[:, None] * axis


def _outcomes(bloch: np.ndarray, lams: np.ndarray, stack: np.ndarray):
    """Outcomes of each operator of a (k, 2, 2) band at each lambda, and their averages.

    The outcomes have shape (k,) + lams.shape, one contiguous row per
    operator; the closed-form averages over lambda have shape (k,).  One
    operator is a band of one.
    """
    base, weight, axis = _axis_decomposition(stack)
    # the sign integrates to (Bloch . axis) over the parameter range
    projection = np.vecdot(axis, bloch)
    row = (-1,) + (1,) * lams.ndim
    # sign(0) is +1 by convention, and thresholds within DELTA_TOL of the
    # tie count as 0; the tie set has measure zero and never moves an average
    plus = lams + (0.5 * projection).reshape(row) >= -DELTA_TOL
    # base + weight * (+-1), with the sign applied to the weight: the same bits
    weight_row = weight.reshape(row)
    outcomes = np.where(plus, weight_row, -weight_row)
    outcomes += base.reshape(row)
    return outcomes, base + weight * projection


def assign_value(phi: PureState, lam, r) -> float:
    """Deterministic outcome of measuring r in the subensemble (phi, lam).

    The operator splits as base + weight * (axis . sigma); the returned
    value is base + weight * s with s the sign for that axis, i.e.
    always one of the two eigenvalues.  Multiples of the identity just
    return their scale.
    """
    r = as_hermitian(r)
    _require_qubit(r.dim, phi.dim)
    return float(_outcomes(phi.bloch(), _lambdas(lam), r.matrix[None])[0][0])


def average_over_lambda(phi: PureState, r) -> float:
    """Closed-form uniform average of assign_value over the parameter range.

    It collapses to the quantum expectation of r in phi; no sampling is
    involved.
    """
    r = as_hermitian(r)
    _require_qubit(r.dim, phi.dim)
    # the average does not depend on the lambda passed
    return float(_outcomes(phi.bloch(), _lambdas(LAMBDA_MIN), r.matrix[None])[1][0])


def subensemble_functional(phi: PureState, lam) -> ExpectationFunctional:
    """Wrap the outcome map of one (phi, lambda) subensemble as a black-box functional.

    The map is spectrum-valued, dispersion-free and normalized (identity
    maps to 1) but nowhere a trace form: reconstruction from it must end in
    an additivity verdict, never a normalization one.  It evaluates whole
    bands with the formula assign_value applies to one operator.
    """
    _require_qubit(phi.dim)
    lam = _lambdas(lam)
    bloch = phi.bloch()
    return ExpectationFunctional(2, evaluate_stack=lambda stack: _outcomes(bloch, lam, stack)[0])


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
    def columns(self) -> dict[str, np.ndarray]:
        """Each per-parameter column under its key in the JSON "pairs" rows."""
        return {"lambda": self.lambdas, "vR": self.values_r, "vS": self.values_s,
                "vRplusS": self.values_sum, "delta": self.deltas}

    @property
    def samples(self) -> tuple[LambdaSample, ...]:
        columns = (self.lambdas, self.values_r, self.values_s, self.values_sum)
        return tuple(LambdaSample(*row) for row in zip(*(c.tolist() for c in columns)))

    @property
    def avg_delta(self) -> float:
        return self.average_sum - self.average_r - self.average_s

    @property
    def violation_fraction(self) -> float:
        scale = np.abs(self.values_r) + np.abs(self.values_s) + np.abs(self.values_sum)
        bad = np.count_nonzero(np.abs(self.deltas) > DELTA_TOL * scale)
        return float(bad / max(self.lambdas.size, 1))  # 0.0 for an empty lambda list

    def to_json(self, pairs: bool = True) -> dict:
        """The report as a JSON object, with one "pairs" row per parameter value.

        With pairs=False the "pairs" list is left empty, for a writer that
        renders the rows from ``columns`` itself.
        """
        columns = self.columns if pairs else {}
        rows = zip(*(c.tolist() for c in columns.values()))
        return {
            "phi": [[float(z.real), float(z.imag)] for z in self.phi.vector],
            "pairs": [dict(zip(columns, row)) for row in rows],
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
    _require_qubit(r.dim, s.dim, phi.dim)
    lams = _lambdas(lambdas)
    if lams.ndim != 1:
        raise ValidationError(f"lambdas must be one-dimensional, got shape {lams.shape}")
    stack = np.array([r.matrix, s.matrix, (r + s).matrix])
    values, averages = _outcomes(phi.bloch(), lams, stack)
    # the band is Hermitian: r, s and their sum were each checked
    quantum = _pure_state_values(phi.vector, stack)
    # the report's fields, in order: the columns, then the averages and the
    # quantum values of r, s and r + s
    return SubensembleReport(phi, lams, *values, *averages.tolist(), *quantum.tolist())
