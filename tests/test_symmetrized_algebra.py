"""Free-algebra engine and symmetrized-product chain tests.

Numeric oracles: Pauli products computed by hand (sx sy = i sz and kin),
and explicit matrix arithmetic for every certificate the witness reports.
"""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionless import operator_core, symmetrized_algebra
from dispersionless.ncpoly import NcPolynomial, evaluate_nc
from dispersionless.operator_core import (
    FunctionDomainError,
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    apply_function,
    eigendecompose,
    frobenius,
    identity,
    random_hermitian,
)
from dispersionless.symmetrized_algebra import (
    CROSS_SQUARE_DEFICIT,
    CommonGenerator,
    common_generator,
    joint_measurability_witness,
    symmetrized_product,
    verify_appendix1_chain,
)

R = NcPolynomial.symbol("R")
S = NcPolynomial.symbol("S")


def poly(spec):
    return NcPolynomial({tuple(w): Fraction(*c) for w, c in spec.items()})


def random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def commuting_pair_from_tables(dim, rng):
    """Inverse construction: random generator T with integer spectrum, grid-valued tables."""
    q = random_unitary(dim, rng)
    t = HermitianOperator(q @ np.diag(np.arange(dim, dtype=float)) @ q.conj().T)
    fvals = rng.integers(-30, 31, size=dim) / 10.0
    gvals = rng.integers(-30, 31, size=dim) / 10.0
    return (
        apply_function(lambda x: fvals[np.rint(x).astype(int)], t),
        apply_function(lambda x: gvals[np.rint(x).astype(int)], t),
    )


class TestNcPolynomial:
    def test_zero_coefficients_dropped(self):
        p = NcPolynomial({("R",): Fraction(0), ("S",): Fraction(2)})
        assert p.terms == {("S",): Fraction(2)}

    def test_exact_equality(self):
        assert (R * S + S * R) / 2 == poly({"RS": (1, 2), "SR": (1, 2)})

    def test_rational_round_trip(self):
        p = (R * S - S * R) / 3
        assert p * 3 == R * S - S * R

    def test_float_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            R * 0.5

    def test_power(self):
        assert (R + S) ** 2 == R * R + R * S + S * R + S * S

    def test_canonical_text_form(self):
        p = poly({"RRS": (1, 4), "RSR": (1, 2), "SRR": (1, 4)})
        assert str(p) == "1/4*RRS + 1/2*RSR + 1/4*SRR"

    def test_text_orders_by_length_then_lex(self):
        p = poly({"SR": (1, 1), "R": (1, 1), "RS": (1, 1)})
        assert str(p) == "1*R + 1*RS + 1*SR"

    def test_zero_prints_as_zero(self):
        assert str(NcPolynomial.zero()) == "0"


class TestSymmetrizedProduct:
    def test_basic_pair(self):
        assert symmetrized_product(R, S) == poly({"RS": (1, 2), "SR": (1, 2)})

    def test_idempotent_square(self):
        assert symmetrized_product(R, R) == R * R

    def test_nested_product(self):
        got = symmetrized_product(R, symmetrized_product(R, S))
        assert got == poly({"RRS": (1, 4), "RSR": (1, 2), "SRR": (1, 4)})

    @settings(max_examples=60)
    @given(st.data())
    def test_commutative_and_bilinear(self, data):
        words = st.lists(st.sampled_from(["R", "S", "T"]), min_size=0, max_size=3)
        coeffs = st.fractions(
            min_value=-4, max_value=4, max_denominator=8
        )
        polys = st.dictionaries(words.map(tuple), coeffs, max_size=4).map(NcPolynomial)
        a, b, c = data.draw(polys), data.draw(polys), data.draw(polys)
        k = data.draw(coeffs)
        assert symmetrized_product(a, b) == symmetrized_product(b, a)
        assert symmetrized_product(a + c, b) == (
            symmetrized_product(a, b) + symmetrized_product(c, b)
        )
        assert symmetrized_product(a * k, b) == symmetrized_product(a, b) * k

    def test_expression_tree_rendering(self):
        # the nested product S(R(RS)) is rendered by its chain step name and
        # the canonical text of its image
        tree = symmetrized_product(S, symmetrized_product(R, symmetrized_product(R, S)))
        assert tree == poly({
            "SRRS": (1, 4), "SRSR": (1, 4), "RSRS": (1, 4),
            "SSRR": (1, 8), "RRSS": (1, 8),
        })
        by_name = {step.name: step for step in verify_appendix1_chain().steps}
        assert by_name["S(R(RS))"].computed == str(tree)


class TestChain:
    def test_full_chain_passes(self):
        report = verify_appendix1_chain()
        assert report.passed
        assert report.failures() == []
        assert len(report.steps) == 10

    def test_every_step_has_fixture_text(self):
        report = verify_appendix1_chain()
        by_name = {step.name: step for step in report.steps}
        assert by_name["S(R(RS))"].expected == (
            "1/8*RRSS + 1/4*RSRS + 1/4*SRRS + 1/4*SRSR + 1/8*SSRR"
        )
        assert by_name["S(R(RS))"].computed == by_name["S(R(RS))"].expected

    def test_replay_binds_each_image_once(self, monkeypatch):
        # 10 symmetrized products of 2 products each, then (RS - SR)^2 takes 3
        calls = []
        product = NcPolynomial.__mul__

        def counted(self, other):
            calls.append(other)
            return product(self, other)

        monkeypatch.setattr(NcPolynomial, "__mul__", counted)
        assert verify_appendix1_chain().passed
        assert len(calls) <= 23

    def test_commutator_square_is_cross_square_deficit(self):
        comm = R * S - S * R
        assert comm * comm == CROSS_SQUARE_DEFICIT
        assert comm * comm == poly({
            "RSRS": (1, 1), "SRSR": (1, 1), "RSSR": (-1, 1), "SRRS": (-1, 1),
        })


class TestEvaluateNc:
    def test_pauli_commutator(self):
        # oracle: sx sy - sy sx = 2i sz
        got = evaluate_nc(R * S - S * R, {"R": SIGMA_X, "S": SIGMA_Y})
        assert frobenius(got - 2j * SIGMA_Z) <= 1e-14

    def test_symmetrized_square_is_identity(self):
        got = evaluate_nc(symmetrized_product(R, S), {"R": SIGMA_X, "S": SIGMA_X})
        assert frobenius(got - identity(2)) <= 1e-14

    def test_commuting_diagonals_annihilate_commutator_square(self):
        comm_sq = (R * S - S * R) ** 2
        got = evaluate_nc(comm_sq, {"R": np.diag([1.0, 2.0]), "S": np.diag([3.0, 4.0])})
        assert frobenius(got) == 0.0

    def test_unbound_symbol(self):
        with pytest.raises(ValidationError):
            evaluate_nc(R * S, {"R": SIGMA_X})

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate_nc(R * S, {"R": SIGMA_X, "S": identity(3)})

    def test_constant_term_scales_identity(self):
        got = evaluate_nc(NcPolynomial.constant(3) + R, {"R": SIGMA_Z})
        assert frobenius(got - (3 * identity(2) + SIGMA_Z)) <= 1e-14


class TestCommonGenerator:
    def test_already_diagonal_pair(self):
        r = HermitianOperator(np.diag([1.0, 1.0, 2.0]))
        s = HermitianOperator(np.diag([5.0, 6.0, 6.0]))
        gen = common_generator(r, s)
        np.testing.assert_allclose(
            eigendecompose(gen.t).eigenvalues, [0.0, 1.0, 2.0], atol=1e-12
        )
        assert gen.f_table == {0: 1.0, 1: 1.0, 2: 2.0}
        assert gen.g_table == {0: 5.0, 1: 6.0, 2: 6.0}
        r2, s2 = gen.reconstruct()
        assert frobenius(r2.matrix - r.matrix) <= 1e-12
        assert frobenius(s2.matrix - s.matrix) <= 1e-12

    def test_sigma_x_with_identity(self):
        gen = common_generator(HermitianOperator(SIGMA_X), HermitianOperator(identity(2)))
        np.testing.assert_allclose(
            eigendecompose(gen.t).eigenvalues, [0.0, 1.0], atol=1e-12
        )
        assert sorted(gen.f_table.values()) == [-1.0, 1.0]
        assert set(gen.g_table.values()) == {1.0}
        r2, s2 = gen.reconstruct()
        assert frobenius(r2.matrix - SIGMA_X) <= 1e-12
        assert frobenius(s2.matrix - identity(2)) <= 1e-12

    def test_equal_operators(self):
        gen = common_generator(HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_Z))
        assert gen.f_table == gen.g_table
        r2, s2 = gen.reconstruct()
        assert frobenius(r2.matrix - SIGMA_Z) <= 1e-12
        assert frobenius(s2.matrix - SIGMA_Z) <= 1e-12

    def test_table_gap_raises_domain_error(self):
        # labels 0 and 1; T's eigenvalue 0.5 is 0.5 from both
        gen = CommonGenerator(HermitianOperator(np.diag([0.0, 0.5])), {0: 1.0, 1: 2.0},
                              {0: 3.0, 1: 4.0})
        with pytest.raises(FunctionDomainError, match="eigenvalue 0.5"):
            gen.reconstruct()

    def test_reconstruct_decomposes_once(self, monkeypatch):
        calls = []

        def counting(op):
            calls.append(op)
            return eigendecompose(op)

        for module in (operator_core, symmetrized_algebra):
            monkeypatch.setattr(module, "eigendecompose", counting)
        r = HermitianOperator(np.diag([1.0, 1.0, 2.0, 3.0]))
        s = HermitianOperator(np.diag([5.0, 6.0, 6.0, 6.0]))
        gen = common_generator(r, s)
        calls.clear()
        r2, s2 = gen.reconstruct()
        assert len(calls) == 1
        assert frobenius(r2.matrix - r.matrix) <= 1e-12
        assert frobenius(s2.matrix - s.matrix) <= 1e-12

    def test_non_commuting_rejected_with_norm(self):
        with pytest.raises(ValidationError, match="commutator norm"):
            common_generator(HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_round_trip_random_pairs(self, dim):
        rng = np.random.default_rng(600 + dim)
        for _ in range(20):
            r, s = commuting_pair_from_tables(dim, rng)
            gen = common_generator(r, s)
            r2, s2 = gen.reconstruct()
            assert frobenius(r2.matrix - r.matrix) <= 1e-9
            assert frobenius(s2.matrix - s.matrix) <= 1e-9


class TestJointMeasurability:
    def test_commuting_diagonal_pair(self):
        verdict = joint_measurability_witness(
            HermitianOperator(SIGMA_Z), HermitianOperator(np.diag([3.0, 7.0]))
        )
        assert verdict.jointly_measurable
        assert verdict.verdict == "jointly measurable"
        assert verdict.generator is not None
        r2, s2 = verdict.generator.reconstruct()
        assert frobenius(r2.matrix - SIGMA_Z) <= 1e-9
        assert frobenius(s2.matrix - np.diag([3.0, 7.0])) <= 1e-9

    def test_pauli_pair_certificates(self):
        # oracle: (sx sy - sy sx)^2 = (2i sz)^2 = -4I, Frobenius norm 4*sqrt(2)
        verdict = joint_measurability_witness(
            HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y)
        )
        assert not verdict.jointly_measurable
        assert verdict.generator is None
        assert abs(verdict.commutator_norm - 2 * math.sqrt(2)) <= 1e-12
        assert abs(verdict.commutator_square_norm - 4 * math.sqrt(2)) <= 1e-12

    def test_operator_with_itself(self):
        op = HermitianOperator(SIGMA_X + 0.5 * SIGMA_Z)
        verdict = joint_measurability_witness(op, op)
        assert verdict.jointly_measurable
        f, g = verdict.generator.f_table, verdict.generator.g_table
        assert f == g

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            joint_measurability_witness(
                HermitianOperator(SIGMA_X), HermitianOperator(identity(3))
            )

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_commuting_pairs_satisfy_both_identities(self, dim):
        rng = np.random.default_rng(700 + dim)
        for _ in range(25):
            r, s = commuting_pair_from_tables(dim, rng)
            verdict = joint_measurability_witness(r, s)
            assert verdict.jointly_measurable
            assert verdict.square_product_deficit_norm <= 1e-9
            assert verdict.commutator_square_norm <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_noncommuting_certificate_matches_commutator_square(self, dim):
        rng = np.random.default_rng(800 + dim)
        found = 0
        while found < 25:
            r = random_hermitian(dim, rng)
            s = random_hermitian(dim, rng)
            verdict = joint_measurability_witness(r, s)
            if verdict.jointly_measurable:
                continue
            found += 1
            c = r.matrix @ s.matrix - s.matrix @ r.matrix
            direct = frobenius(c @ c)
            assert verdict.commutator_square_norm > 0
            assert abs(verdict.commutator_square_norm - direct) <= 1e-9
