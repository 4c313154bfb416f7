"""Symmetrized products of jointly measurable quantities and their identity chain.

The physical product of two jointly measurable quantities maps to the
symmetrized operator product (RS + SR)/2.  Iterating that map over nested
products of two generic symbols and equating the images of equal
quantities forces (RS - SR)^2 = 0, i.e. the operators commute.  This
module replays that derivation in exact rational arithmetic on every call
and checks each expansion against hard-coded fixture polynomials, whose
text is rendered once at import; the joint-measurability witness's two
certificates are the values of two of them, formed from the one matrix
commutator C as C·C and C·C + R·C·S - S·C·R.  It complements the chain
with the constructive converse: two commuting Hermitian operators are
both functions of one common generator, built here by simultaneous
diagonalization, with eigenvalue clusters split and readouts snapped in
plain Python over each spectrum.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ncpoly import NcPolynomial, symmetrized_product
from .operator_core import (
    COMM_TOL,
    DEGENERACY_GAP,
    TABLE_MATCH_TOL,
    FunctionDomainError,
    HermitianOperator,
    ValidationError,
    as_hermitian,
    commutator_norm,
    commutator_within_tol,
    eigendecompose,
    frobenius,
)


def _poly(spec: dict[str, tuple[int, int]]) -> NcPolynomial:
    return NcPolynomial(
        {tuple(word): Fraction(num, den) for word, (num, den) in spec.items()}
    )


# Fixture polynomials: the printed right-hand sides of each expansion,
# entered term by term (never recomputed through the product map) so the
# chain check catches both engine bugs and transcription drift.
FIXTURE_RS = _poly({"RS": (1, 2), "SR": (1, 2)})
FIXTURE_RRS = _poly({"RRS": (1, 4), "RSR": (1, 2), "SRR": (1, 4)})
FIXTURE_SRRS = _poly({
    "SRRS": (1, 4), "SRSR": (1, 4), "RSRS": (1, 4), "SSRR": (1, 8), "RRSS": (1, 8),
})
FIXTURE_RSSR = _poly({
    "RSSR": (1, 4), "RSRS": (1, 4), "SRSR": (1, 4), "RRSS": (1, 8), "SSRR": (1, 8),
})
FIXTURE_RSRS = _poly({
    "RSRS": (1, 4), "SRSR": (1, 4), "RSSR": (1, 4), "SRRS": (1, 4),
})
FIXTURE_SSRR = _poly({"RRSS": (1, 2), "SSRR": (1, 2)})
FIXTURE_SSRR_REDUCED = _poly({"RSSR": (1, 2), "SRRS": (1, 2)})

# R^2S^2 + S^2R^2 - (RS)(SR) - (SR)(RS): zero exactly when squared products
# of a jointly measurable pair are consistent.
SQUARE_PRODUCT_DEFICIT = _poly({
    "RRSS": (1, 1), "SSRR": (1, 1), "RSSR": (-1, 1), "SRRS": (-1, 1),
})
# (RS)^2 + (SR)^2 - (RS)(SR) - (SR)(RS): equals (RS - SR)^2 identically in
# the free algebra, so its matrix value certifies non-commutation.
CROSS_SQUARE_DEFICIT = _poly({
    "RSRS": (1, 1), "SRSR": (1, 1), "RSSR": (-1, 1), "SRRS": (-1, 1),
})


@dataclass(frozen=True)
class ChainStep:
    name: str
    description: str
    computed: str
    expected: str
    passed: bool


@dataclass(frozen=True)
class ChainReport:
    steps: tuple[ChainStep, ...]

    @property
    def passed(self) -> bool:
        return all(step.passed for step in self.steps)

    def failures(self) -> list[str]:
        return [step.name for step in self.steps if not step.passed]


# The expected side of the chain, built once at import: each step's name,
# description, fixture and the fixture's text.
_CHAIN = tuple((name, description, fixture, str(fixture)) for name, description, fixture in (
    ("RS", "image of the product of R and S", FIXTURE_RS),
    ("R(RS)", "image of the nested product R(RS)", FIXTURE_RRS),
    ("S(R(RS))", "image of the nested product S(R(RS))", FIXTURE_SRRS),
    ("R(S(SR))", "image of the nested product R(S(SR))", FIXTURE_RSSR),
    ("(RS)(RS)", "image of the squared product (RS)^2", FIXTURE_RSRS),
    # S(R(RS)), R(S(SR)) and (RS)^2 are one and the same quantity, so the
    # residual of their images must be a multiple of the square-product
    # deficit; equate them and R^2S^2 + S^2R^2 = (RS)(SR) + (SR)(RS) follows.
    ("square-product identity",
     "S(R(RS)) + R(S(SR)) - 2(RS)^2 reduces to the square-product deficit / 4",
     SQUARE_PRODUCT_DEFICIT / 4),
    ("R^2S^2", "image of the product of R^2 and S^2", FIXTURE_SSRR),
    # Rewriting R^2S^2 + S^2R^2 through the square-product identity gives
    # the reduced form [(RS)(SR) + (SR)(RS)]/2 for the same quantity.
    ("R^2S^2 reduced",
     "R^2S^2 image minus the imposed deficit / 2 equals [(RS)(SR)+(SR)(RS)]/2",
     FIXTURE_SSRR_REDUCED),
    # (RS)^2 and R^2S^2 are also the same quantity, so the reduced form must
    # match the (RS)^2 image: the gap is exactly -1/4 of the cross-square
    # deficit, forcing (RS)(SR) + (SR)(RS) = (RS)^2 + (SR)^2.
    ("cross-square identity",
     "reduced R^2S^2 minus the (RS)^2 image is -(cross-square deficit)/4",
     -(CROSS_SQUARE_DEFICIT / 4)),
    # Free-algebra expansion, no imposed relations: (RS - SR)^2 equals the
    # cross-square deficit, hence vanishes once the chain is imposed.
    ("commutator square vanishes",
     "(RS - SR)^2 expands to the cross-square deficit, which the chain forces to 0",
     CROSS_SQUARE_DEFICIT),
))


def verify_appendix1_chain() -> ChainReport:
    """Replay the identity chain that forces jointly measurable pairs to commute.

    Every step is an exact free-algebra computation, replayed on each call
    and compared against its fixture; the two bridging identities record
    that equating different routes to the same physical quantity leaves no
    room for a nonzero (RS - SR)^2.
    """
    r = NcPolynomial.symbol("R")
    s = NcPolynomial.symbol("S")
    prod = symmetrized_product

    rs = prod(r, s)
    r_rs = prod(r, rs)
    s_r_rs = prod(s, r_rs)
    r_s_sr = prod(r, prod(s, prod(s, r)))
    rs_sq = prod(rs, rs)
    sq_prod = prod(prod(r, r), prod(s, s))
    comm = r * s - s * r
    computed = (
        rs, r_rs, s_r_rs, r_s_sr, rs_sq,
        s_r_rs + r_s_sr - 2 * rs_sq,
        sq_prod,
        sq_prod - SQUARE_PRODUCT_DEFICIT / 2,
        FIXTURE_SSRR_REDUCED - rs_sq,
        comm * comm,
    )
    # equal polynomials have equal storage and print the same text, so only
    # a failing step renders its computed side
    return ChainReport(steps=tuple(
        ChainStep(name=name, description=description,
                  computed=text if got == fixture else str(got),
                  expected=text, passed=got == fixture)
        for (name, description, fixture, text), got in zip(_CHAIN, computed)))


@dataclass(frozen=True)
class CommonGenerator:
    """Operator T with readout tables turning T-outcomes into R- and S-values.

    Joint eigenspaces carry distinct integer labels; T is the label-weighted
    sum of joint projectors, f_table maps labels to R's eigenvalue on that
    space and g_table to S's.
    """

    t: HermitianOperator
    f_table: dict[int, float]
    g_table: dict[int, float]

    def reconstruct(self) -> tuple[HermitianOperator, HermitianOperator]:
        """(f(T), g(T)), reading each eigenvalue of T as its nearest integer label.

        Raises FunctionDomainError when an eigenvalue lies farther than
        TABLE_MATCH_TOL from every label of a table.
        """
        spec = eigendecompose(self.t)
        return spec.apply(_readout(self.f_table)), spec.apply(_readout(self.g_table))


def _readout(table: dict[int, float]):
    def read(eigenvalues: np.ndarray) -> list[float]:
        values = []
        for x in eigenvalues.tolist():
            label = round(x)
            if abs(x - label) > TABLE_MATCH_TOL or label not in table:
                raise FunctionDomainError(
                    f"no readout label within {TABLE_MATCH_TOL} of eigenvalue {x!r}"
                )
            values.append(table[label])
        return values

    return read


def _clusters(values: list[float], radius: float) -> list[tuple[int, int]]:
    # ascending input; split where the gap exceeds the degeneracy threshold
    # relative to the spectral radius of the operator the values belong to
    gap = DEGENERACY_GAP * radius
    bounds = []
    start = 0
    for k in range(1, len(values) + 1):
        if k == len(values) or values[k] - values[k - 1] > gap:
            bounds.append((start, k))
            start = k
    return bounds


def _nearest(values: list[float], cluster: np.ndarray) -> float:
    # the ascending list's value nearest the cluster's mean (np.mean's bits),
    # first on a tie as by np.argmin; the distance falls to the mean, then rises
    mean = float(cluster.sum()) / len(cluster)
    k = bisect_left(values, mean)
    if k == len(values) or k and abs(values[k - 1] - mean) <= abs(values[k] - mean):
        k -= 1
        while k and abs(values[k - 1] - mean) == abs(values[k] - mean):
            k -= 1
    return values[k]


def common_generator(r, s, tol: float = COMM_TOL) -> CommonGenerator:
    """Simultaneously diagonalize a commuting pair and label joint eigenspaces.

    Diagonalizes r, then the restriction of s inside each eigenvalue
    cluster of r.  Each readout is snapped to the nearest eigenvalue of its
    own operator, so equal inputs give equal tables.  Raises
    ValidationError (carrying the commutator norm) when the pair does not
    commute within tol.
    """
    r = as_hermitian(r)
    s = as_hermitian(s)
    norm = commutator_norm(r, s)
    if not commutator_within_tol(norm, r, s, tol):
        raise ValidationError(f"operators do not commute: commutator norm {norm:.6e}")
    return _common_generator(r, s)


def _common_generator(r: HermitianOperator, s: HermitianOperator) -> CommonGenerator:
    # common_generator for a pair already found to commute.  Each spectrum is
    # read once as a list, and clusters are split and readouts snapped in
    # plain Python: numpy's fixed cost per call on a handful of values would
    # exceed the arithmetic
    spec_r = eigendecompose(r)
    spec_s = eigendecompose(s)
    values_r = spec_r.eigenvalues.tolist()
    values_s = spec_s.eigenvalues.tolist()
    t = np.zeros((r.dim, r.dim), dtype=np.complex128)
    f_table: dict[int, float] = {}
    g_table: dict[int, float] = {}
    label = 0
    # spectral radii, read off the ends of the ascending spectra
    radius_r, radius_s = (max(-values[0], values[-1]) for values in (values_r, values_s))
    for i0, i1 in _clusters(values_r, radius_r):
        basis = spec_r.eigenvectors[:, i0:i1]
        r_val = _nearest(values_r, spec_r.eigenvalues[i0:i1])
        block = basis.conj().T @ s.matrix @ basis
        # (B + B*)/2 is Hermitian by construction, entry for entry
        sub_values, sub_vectors = np.linalg.eigh((block + block.conj().T) / 2)
        # the restriction of s is clustered on the scale of s itself, so a
        # block that vanishes up to roundoff stays one cluster
        for j0, j1 in _clusters(sub_values.tolist(), radius_s):
            if label:  # the label-0 term adds exact zeros
                joint = basis @ sub_vectors[:, j0:j1]
                t += label * (joint @ joint.conj().T)
            f_table[label] = r_val
            g_table[label] = _nearest(values_s, sub_values[j0:j1])
            label += 1
    return CommonGenerator(HermitianOperator(t), f_table, g_table)


@dataclass(frozen=True)
class JointMeasurabilityVerdict:
    """Commutativity verdict with either a common generator or numeric certificates."""

    jointly_measurable: bool
    commutator_norm: float
    commutator_square_norm: float
    square_product_deficit_norm: float
    generator: CommonGenerator | None


def joint_measurability_witness(r, s, tol: float = COMM_TOL) -> JointMeasurabilityVerdict:
    """Decide joint measurability of two Hermitian operators.

    Commuting pairs come back with a CommonGenerator.  Every verdict
    carries three norms of the commutator C = RS - SR, formed once: ||C||,
    which decides the verdict, and the two certificates ||C·C|| and
    ||C·C + R·C·S - S·C·R||.  In the free algebra C·C is the cross-square
    deficit (RS)^2 + (SR)^2 - (RS)(SR) - (SR)(RS) and the second is the
    square-product deficit R^2S^2 + S^2R^2 - (RS)(SR) - (SR)(RS), so both
    vanish on a commuting pair, and forming them from C keeps a nearly
    commuting pair's small certificate from cancelling away.  tol must be
    finite and positive, or ValidationError is raised.
    """
    r = as_hermitian(r)
    s = as_hermitian(s)
    r._require_same_dim(s)
    a, b = r.matrix, s.matrix
    c = a @ b - b @ a  # as commutator_norm forms it
    cnorm = frobenius(c)
    cc = c @ c
    cross = frobenius(cc)
    square = frobenius(cc + a @ c @ b - b @ c @ a)
    jointly = commutator_within_tol(cnorm, r, s, tol)
    return JointMeasurabilityVerdict(
        jointly_measurable=jointly,
        commutator_norm=cnorm,
        commutator_square_norm=cross,
        square_product_deficit_norm=square,
        generator=_common_generator(r, s) if jointly else None,
    )
