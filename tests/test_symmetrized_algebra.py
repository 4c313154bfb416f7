"""Free-algebra engine and symmetrized-product chain tests.

Numeric oracles: Pauli products computed by hand (sx sy = i sz and kin),
and explicit matrix arithmetic for every certificate the witness reports.
"""

import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionless import operator_core, symmetrized_algebra
from dispersionless.ncpoly import NcPolynomial, _evaluate, evaluate_nc, symmetrized_product
from dispersionless.operator_core import (
    FunctionDomainError,
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    apply_function,
    commutator_norm,
    eigendecompose,
    frobenius,
    identity,
    random_hermitian,
)
from dispersionless.symmetrized_algebra import (
    CROSS_SQUARE_DEFICIT,
    SQUARE_PRODUCT_DEFICIT,
    CommonGenerator,
    common_generator,
    joint_measurability_witness,
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


# A plain word-to-Fraction map is the reference the integer-numerator
# storage of NcPolynomial is checked against.

def ref_clean(terms):
    return {tuple(w): Fraction(c) for w, c in terms.items() if c}


def ref_add(a, b, sign=1):
    out = dict(a)
    for word, coeff in b.items():
        out[word] = out.get(word, Fraction(0)) + sign * coeff
    return ref_clean(out)


def ref_mul(a, b):
    out = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, Fraction(0)) + c1 * c2
    return ref_clean(out)


def ref_scale(a, k):
    return ref_clean({w: c * k for w, c in a.items()})


def ref_order(terms):
    return sorted(terms, key=lambda w: (len(w), w))


def ref_str(terms):
    if not terms:
        return "0"
    return " + ".join(f"{terms[w]}*{''.join(w) if w else '1'}" for w in ref_order(terms))


def left_to_right(p, mats, dim):
    """evaluate_nc's reference: each word multiplied out from the identity, left to right."""
    total = np.zeros((dim, dim), dtype=np.complex128)
    for word, coeff in p.sorted_terms():
        acc = np.eye(dim, dtype=np.complex128)
        for name in word:
            acc = acc @ mats[name]
        total += float(coeff) * acc
    return total


WORDS = st.lists(st.sampled_from("RST"), max_size=3).map(tuple)
COEFFS = st.fractions(min_value=-6, max_value=6, max_denominator=12)
TERMS = st.dictionaries(WORDS, COEFFS, max_size=5)


class TestNcPolynomial:
    def test_zero_coefficients_dropped(self):
        p = NcPolynomial({("R",): Fraction(0), ("S",): Fraction(2)})
        assert p.sorted_terms() == [(("S",), Fraction(2))]

    def test_exact_equality(self):
        assert (R * S + S * R) / 2 == poly({"RS": (1, 2), "SR": (1, 2)})

    def test_rational_round_trip(self):
        p = (R * S - S * R) / 3
        assert p * 3 == R * S - S * R

    def test_float_coefficients_rejected(self):
        with pytest.raises(ValidationError):
            R * 0.5

    def test_canonical_text_form(self):
        p = poly({"RRS": (1, 4), "RSR": (1, 2), "SRR": (1, 4)})
        assert str(p) == "1/4*RRS + 1/2*RSR + 1/4*SRR"

    def test_text_orders_by_length_then_lex(self):
        p = poly({"SR": (1, 1), "R": (1, 1), "RS": (1, 1)})
        assert str(p) == "1*R + 1*RS + 1*SR"

    def test_zero_prints_as_zero(self):
        assert str(NcPolynomial()) == "0"

    @pytest.mark.parametrize("make", [
        lambda: NcPolynomial({("R",): True}),
        lambda: NcPolynomial({(): False}),
        lambda: R * True,
        lambda: True * R,
        lambda: R / True,
    ], ids=["terms", "constant", "mul", "rmul", "div"])
    def test_bool_scalars_rejected(self, make):
        with pytest.raises(ValidationError):
            make()

    def test_equal_polynomials_hash_equal(self):
        assert (R * 3) / 3 == R
        assert hash((R * 3) / 3) == hash(R)
        p = (R * S + S * R) / 6 + (R * S) / 3
        q = poly({"RS": (1, 2), "SR": (1, 6)})
        assert p == q and hash(p) == hash(q)
        assert len({R, (R * 3) / 3, R + S - S, R * Fraction(2, 4) * 2}) == 1

    @settings(max_examples=200, deadline=None)
    @given(TERMS, TERMS, COEFFS.filter(bool), st.integers(-5, 5).filter(bool))
    def test_matches_fraction_dict_reference(self, a, b, k, n):
        pa, pb = NcPolynomial(a), NcPolynomial(b)
        a, b = ref_clean(a), ref_clean(b)
        cases = [
            (pa, a),
            (-pa, ref_scale(a, -1)),
            (pa + pb, ref_add(a, b)),
            (pa - pb, ref_add(a, b, -1)),
            (pa * pb, ref_mul(a, b)),
            (pa * k, ref_scale(a, k)),
            (k * pa, ref_scale(a, k)),
            (pa * n, ref_scale(a, n)),
            (pa / k, ref_scale(a, 1 / k)),
            (pa / n, ref_scale(a, Fraction(1, n))),
        ]
        for got, want in cases:
            assert all(type(c) is Fraction for _, c in got.sorted_terms())
            assert got.sorted_terms() == [(w, want[w]) for w in ref_order(want)]
            assert str(got) == ref_str(want)
            assert got == NcPolynomial(want)
            assert hash(got) == hash(NcPolynomial(want))
            assert bool(got) == bool(want)
        assert (pa == pb) == (a == b)

    @settings(max_examples=200, deadline=None)
    @given(TERMS, TERMS)
    def test_one_pass_forms_match_generic_operators(self, a, b):
        pa, pb = NcPolynomial(a), NcPolynomial(b)
        assert pa - pb == pa + (-pb)
        generic = (pa * pb + pb * pa) / 2
        assert symmetrized_product(pa, pb) == generic
        assert str(symmetrized_product(pa, pb)) == str(generic)

    def test_subtracting_a_scalar_is_refused(self):
        with pytest.raises(TypeError):
            R - 1


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
        # 10 symmetrized products, then (RS - SR)^2 takes 3 plain products
        sym_calls, mul_calls = [], []
        sym, mul = symmetrized_product, NcPolynomial.__mul__

        def counted_sym(a, b):
            sym_calls.append((a, b))
            return sym(a, b)

        def counted_mul(self, other):
            mul_calls.append(other)
            return mul(self, other)

        monkeypatch.setattr(symmetrized_algebra, "symmetrized_product", counted_sym)
        monkeypatch.setattr(NcPolynomial, "__mul__", counted_mul)
        assert verify_appendix1_chain().passed
        assert (len(sym_calls), len(mul_calls)) == (10, 3)
        # nothing is cached: a second replay makes every product again
        assert verify_appendix1_chain().passed
        assert (len(sym_calls), len(mul_calls)) == (20, 6)

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
        comm = R * S - S * R
        comm_sq = comm * comm
        got = evaluate_nc(comm_sq, {"R": np.diag([1.0, 2.0]), "S": np.diag([3.0, 4.0])})
        assert frobenius(got) == 0.0

    def test_unbound_symbol(self):
        with pytest.raises(ValidationError):
            evaluate_nc(R * S, {"R": SIGMA_X})

    def test_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            evaluate_nc(R * S, {"R": SIGMA_X, "S": identity(3)})

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 32])
    def test_equals_left_to_right_products(self, dim):
        # shared prefixes change which products are formed, not their bits
        rng = np.random.default_rng(900 + dim)
        mats = {"R": random_hermitian(dim, rng).matrix, "S": random_hermitian(dim, rng).matrix}
        words = [w for n in range(5) for w in itertools.product("RS", repeat=n)]
        dense = NcPolynomial({w: Fraction(int(rng.integers(-9, 10)), int(rng.integers(1, 9)))
                              for w in words})
        sparse = NcPolynomial({tuple("RSSRS"): 3, tuple("SSRRS"): Fraction(-1, 3), ("S",): 2})
        for p in (CROSS_SQUARE_DEFICIT, SQUARE_PRODUCT_DEFICIT, dense, sparse):
            assert np.array_equal(evaluate_nc(p, mats), left_to_right(p, mats, dim))

    @settings(max_examples=80, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 8, 32]),
           k=st.integers(-20, 20), extra=st.lists(TERMS, max_size=2))
    def test_shared_table_equals_separate_evaluations(self, seed, dim, k, extra):
        # one table of prefix products, shared by the deficits and any other
        # polynomials, gives each the bits it has alone
        rng = np.random.default_rng(seed)
        mats = {name: 2.0 ** k * random_hermitian(dim, rng).matrix for name in "RST"}
        polys = [CROSS_SQUARE_DEFICIT, SQUARE_PRODUCT_DEFICIT, *map(NcPolynomial, extra)]
        for shared, p in zip(_evaluate(polys, mats), polys, strict=True):
            assert np.array_equal(shared, evaluate_nc(p, mats))
            assert np.array_equal(shared, left_to_right(p, mats, dim))

    def test_constant_term_scales_identity(self):
        got = evaluate_nc(NcPolynomial({(): 3}) + R, {"R": SIGMA_Z})
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


class TestSinglePass:
    @pytest.mark.parametrize("b, jointly", [(np.diag([3.0, 7.0]), True), (SIGMA_X, False)],
                             ids=["commuting", "non-commuting"])
    def test_one_commutator_per_witness(self, monkeypatch, b, jointly):
        calls = []

        def counting(x, y):
            calls.append((x, y))
            return commutator_norm(x, y)

        for module in (operator_core, symmetrized_algebra):
            monkeypatch.setattr(module, "commutator_norm", counting)
        verdict = joint_measurability_witness(HermitianOperator(SIGMA_Z), HermitianOperator(b))
        assert verdict.jointly_measurable is jointly
        assert len(calls) == 1

    @settings(max_examples=60, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), dim=st.sampled_from([1, 2, 3, 8, 32]),
           exponents=st.tuples(st.integers(-20, 20), st.integers(-20, 20)),
           commuting=st.booleans())
    def test_certificates_equal_direct_evaluation(self, seed, dim, exponents, commuting):
        rng = np.random.default_rng(seed)
        if commuting and dim > 1:
            r, s = commuting_pair_from_tables(dim, rng)
        else:
            r, s = random_hermitian(dim, rng), random_hermitian(dim, rng)
        r, s = (HermitianOperator(2.0 ** k * op.matrix) for k, op in zip(exponents, (r, s)))
        verdict = joint_measurability_witness(r, s)
        bindings = {"R": r, "S": s}
        assert verdict.commutator_norm == commutator_norm(r, s)
        assert verdict.commutator_square_norm == frobenius(
            evaluate_nc(CROSS_SQUARE_DEFICIT, bindings))
        assert verdict.square_product_deficit_norm == frobenius(
            evaluate_nc(SQUARE_PRODUCT_DEFICIT, bindings))

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        z, x = HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)
        for r, s in ((z, x), (z, z)):
            with pytest.raises(ValidationError, match="finite and positive"):
                joint_measurability_witness(r, s, tol=tol)
            with pytest.raises(ValidationError, match="finite and positive"):
                common_generator(r, s, tol=tol)


class TestScaleRelativeRules:
    """Commutation and degeneracy are judged relative to the operators: R -> cR changes nothing."""

    def test_tiny_non_commuting_pair_is_not_jointly_measurable(self):
        verdict = joint_measurability_witness(
            HermitianOperator(1e-5 * SIGMA_X), HermitianOperator(1e-5 * SIGMA_Y)
        )
        assert not verdict.jointly_measurable
        assert verdict.generator is None

    def test_tiny_eigenvalue_gap_is_resolved(self):
        s = 1e-9 * SIGMA_Z
        gen = common_generator(HermitianOperator(identity(2)), HermitianOperator(s))
        assert sorted(gen.g_table.values()) == [-1e-9, 1e-9]
        _, s2 = gen.reconstruct()
        assert frobenius(s2.matrix - s) <= 1e-12 * frobenius(s)

    def test_vanishing_block_stays_one_cluster(self):
        # s vanishes on the degenerate eigenspace of r up to roundoff; that
        # block is judged on the scale of s, not on its own ~1e-16 spread
        rng = np.random.default_rng(3)
        for _ in range(5):
            q = random_unitary(3, rng)
            r = HermitianOperator(q @ np.diag([1.0, 1.0, 2.0]) @ q.conj().T)
            s = HermitianOperator(q @ np.diag([0.0, 0.0, 5.0]) @ q.conj().T)
            gen = common_generator(r, s)
            assert len(gen.g_table) == 2
            r2, s2 = gen.reconstruct()
            assert frobenius(r2.matrix - r.matrix) <= 1e-9
            assert frobenius(s2.matrix - s.matrix) <= 1e-9

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        dim=st.integers(2, 5),
        exponents=st.tuples(st.floats(-6.0, 6.0), st.floats(-6.0, 6.0)),
    )
    def test_verdicts_and_tables_are_scale_covariant(self, seed, dim, exponents):
        rng = np.random.default_rng(seed)
        c, c2 = (10.0 ** e for e in exponents)
        r, s = commuting_pair_from_tables(dim, rng)
        unit = common_generator(r, s)
        scaled = joint_measurability_witness(c * r.matrix, c2 * s.matrix)
        assert scaled.jointly_measurable
        gen = scaled.generator
        assert len(gen.f_table) == len(unit.f_table)
        for table, unit_table, scale in ((gen.f_table, unit.f_table, c),
                                         (gen.g_table, unit.g_table, c2)):
            bound = 1e-9 * scale * max(map(abs, unit_table.values()))
            for label, value in unit_table.items():
                assert abs(table[label] - scale * value) <= bound
        a, b = random_hermitian(dim, rng), random_hermitian(dim, rng)
        assert not joint_measurability_witness(c * a.matrix, c2 * b.matrix).jointly_measurable
