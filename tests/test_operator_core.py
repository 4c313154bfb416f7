"""Matrix-core tests: eigendecomposition, functional calculus, commutators.

eigendecompose is LAPACK's eigh, so no oracle here calls a solver: they are
the closed-form 2x2 eigenvalue formula and explicit matrix powers (power
sums tr(A^k) and matrix polynomials).
"""

import math
import re

import numpy as np
import pytest

from dispersionless.operator_core import (
    COMM_TOL,
    FUNCALC_TOL,
    HERM_TOL,
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    apply_function,
    as_square_matrix,
    commutator_norm,
    commutator_within_tol,
    eigendecompose,
    frobenius,
    identity,
    indicator_outside,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
    random_hermitian_stack,
)
from dispersionless.expectation_functionals import (
    check_linearity,
    max_eigenvalue_functional,
    reconstruct_density,
)

RNG = np.random.default_rng


def polynomial(coeffs):
    """Array function sum_k coeffs[k] x^k for apply_function."""
    return lambda x: np.polynomial.polynomial.polyval(x, coeffs)
# residual bound for reconstruction and orthonormality of an eigensystem
EIG_TOL = 1e-10


def pauli_xy_eigs(x, y):
    # closed form: eigenvalues of x*sx + y*sy are +-sqrt(x^2 + y^2)
    r = math.hypot(x, y)
    return [-r, r]


class TestValidation:
    def test_rejects_ragged(self):
        with pytest.raises(ValidationError):
            as_square_matrix([[1, 2], [3]])

    def test_rejects_non_square(self):
        with pytest.raises(ValidationError):
            as_square_matrix([[1, 2, 3], [4, 5, 6]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValidationError):
            HermitianOperator([[0, 1], [0, 0]])

    @pytest.mark.parametrize("size", [0.1, 50.0])
    @pytest.mark.parametrize("factor", [0.99, 1.01])
    def test_hermiticity_threshold(self, size, factor):
        # the rule is |m - m*| > HERM_TOL * max(1, |m|); at 0.99 the deviation
        # lies above HERM_TOL * |m| (size 0.1) or above HERM_TOL (size 50)
        rng = RNG(11)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        h = (g + g.conj().T) / 2
        a = 1j * h[::-1]
        a = (a - a.conj().T) / 2
        eps = factor * HERM_TOL * max(1.0, size) / (2 * np.linalg.norm(a))
        m = size * h / np.linalg.norm(h) + eps * a
        deviation = np.linalg.norm(m - m.conj().T)
        threshold = HERM_TOL * max(1.0, np.linalg.norm(m))
        assert abs(deviation / threshold - factor) < 1e-3
        if factor > 1:
            with pytest.raises(ValidationError, match="not Hermitian"):
                HermitianOperator(m)
        else:
            assert HermitianOperator(m).dim == 3

    @pytest.mark.parametrize("bad", [
        [[0, 1e200], [0, 0]],
        [[1e200, 1e200], [0, 1e200]],
        [[0, 1e300j], [1e300j, 0]],
    ], ids=["off-diagonal", "diagonal-too", "imaginary"])
    def test_non_hermitian_refused_when_squares_overflow(self, bad):
        # |m - m*|^2 and |m|^2 overflow to inf; the rule is decided on m scaled
        # by a power of two and the deviation is reported in the original units
        with pytest.raises(ValidationError, match="not Hermitian") as exc:
            HermitianOperator(bad)
        m = np.array(bad, dtype=complex)
        deviation = float(re.search(r"deviation (\S+)\)", str(exc.value)).group(1))
        expected = 2.0**600 * np.linalg.norm((m - m.conj().T) / 2.0**600)
        assert abs(deviation - expected) <= 1e-3 * expected

    @pytest.mark.parametrize("scale", [1e160, 1e200, 1e300])
    def test_relative_rule_when_squares_overflow(self, scale):
        # a relative defect of 1e-13 is forgiven and one of 1e-9 is not, at
        # scales where |m|^2 is past the float range
        h = (SIGMA_X + 0.5 * SIGMA_Z) / 2
        defect = np.array([[0, 1], [0, 0]], dtype=complex)
        m = scale * (h + 1e-13 * defect)
        assert np.array_equal(HermitianOperator(m).matrix, m)
        assert HermitianOperator(scale * SIGMA_Y).matrix[0, 1] == -1j * scale
        with pytest.raises(ValidationError, match="not Hermitian"):
            HermitianOperator(scale * (h + 1e-9 * defect))

    @pytest.mark.parametrize("bad", [
        [[1, np.nan], [np.nan, 1]],
        [[np.inf, 0], [0, 1]],
        [[1, complex(0, -np.inf)], [complex(0, np.inf), 1]],
        [[1e300, np.nan], [np.nan, 1e300]],
    ], ids=["nan", "inf", "imaginary-inf", "nan-beside-overflow"])
    def test_rejects_non_finite_entries(self, bad):
        with pytest.raises(ValidationError, match="^matrix entries must be finite$"):
            HermitianOperator(bad)

    def test_accepts_hermitian_with_complex_entries(self):
        op = HermitianOperator([[2, 1 - 1j], [1 + 1j, 3]])
        assert op.dim == 2

    def test_operator_matrix_is_readonly(self):
        op = HermitianOperator(SIGMA_Z)
        with pytest.raises(ValueError):
            op.matrix[0, 0] = 5.0

    def test_dim_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            HermitianOperator(SIGMA_X) + HermitianOperator(identity(3))


class TestRandomHermitian:
    @pytest.mark.parametrize("dim, count", [(1, 3), (2, 1), (2, 7), (3, 5), (8, 4), (32, 2)])
    def test_band_draw_equals_successive_draws(self, dim, count):
        banded, single = RNG(dim * 100 + count), RNG(dim * 100 + count)
        band = random_hermitian_stack(dim, banded, count)
        assert band.shape == (count, dim, dim)
        for m in band:
            assert m.tobytes() == random_hermitian(dim, single).matrix.tobytes()
        assert banded.bit_generator.state == single.bit_generator.state

    @pytest.mark.parametrize("dim, count", [(1, 4), (2, 0), (2, 3), (3, 5), (7, 2), (32, 8)])
    @pytest.mark.parametrize("seed", [0, 1, 0x5EED, 2**40 + 7])
    def test_matches_reference_formula(self, dim, count, seed):
        # (G + G*)/2 with G = (x0 + i x1) (1/sqrt(2)), written out as complex
        # arithmetic on the same normals
        x = RNG(seed).standard_normal((count, 2, dim, dim))
        g = (x[:, 0] + 1j * x[:, 1]) * (1.0 / math.sqrt(2.0))
        want = (g + g.conj().swapaxes(-1, -2)) / 2.0
        got = random_hermitian_stack(dim, RNG(seed), count)
        assert got.dtype == np.complex128 and got.shape == (count, dim, dim)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("name, dim, count", [
        ("count", 2, -1), ("count", 2, 2.5), ("count", 2, True),
        ("dimension", 0, 3), ("dimension", 2.5, 3),
    ])
    def test_refuses_bad_arguments(self, name, dim, count):
        with pytest.raises(ValidationError, match=f"^{name} must be"):
            random_hermitian_stack(dim, RNG(0), count)


class TestEigendecompose:
    def test_sigma_z_diagonal(self):
        spec = eigendecompose(HermitianOperator(SIGMA_Z))
        np.testing.assert_allclose(spec.eigenvalues, [-1.0, 1.0], atol=1e-14)

    def test_identity3(self):
        spec = eigendecompose(HermitianOperator(identity(3)))
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 1.0], atol=1e-14)

    def test_sigma_x_plus_sigma_y(self):
        spec = eigendecompose(HermitianOperator(SIGMA_X + SIGMA_Y))
        np.testing.assert_allclose(spec.eigenvalues, pauli_xy_eigs(1.0, 1.0), atol=1e-12)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_xy_combination_matches_closed_form(self, seed):
        rng = RNG(seed)
        x, y = rng.uniform(-3, 3, size=2)
        spec = eigendecompose(HermitianOperator(x * SIGMA_X + y * SIGMA_Y))
        np.testing.assert_allclose(spec.eigenvalues, pauli_xy_eigs(x, y), atol=1e-12)

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6, 9, 16])
    def test_reconstruction_and_orthonormality(self, dim):
        rng = RNG(100 + dim)
        for _ in range(20):
            op = random_hermitian(dim, rng)
            spec = eigendecompose(op)
            residual = frobenius(op.matrix - spec.apply(lambda x: x).matrix)
            assert residual <= EIG_TOL * max(1.0, op.norm())
            gram = spec.eigenvectors.conj().T @ spec.eigenvectors
            assert frobenius(gram - identity(dim)) <= EIG_TOL

    @pytest.mark.parametrize("dim", [2, 3, 4, 6])
    def test_matches_lapack_eigenvalues(self, dim):
        # oracle: tr(A^k) = sum of eigenvalue^k for k = 1..dim, from explicit
        # matrix powers; by Newton's identities these fix the whole spectrum
        rng = RNG(200 + dim)
        for _ in range(20):
            op = random_hermitian(dim, rng)
            spec = eigendecompose(op)
            assert len(spec.eigenvalues) == dim
            power = identity(dim)
            for k in range(1, dim + 1):
                power = power @ op.matrix
                expected = np.trace(power).real
                got = float(np.sum(spec.eigenvalues ** k))
                assert abs(got - expected) <= 1e-11 * max(1.0, op.norm()) ** k

    def test_eigenvalues_sorted_ascending(self):
        rng = RNG(7)
        op = random_hermitian(5, rng)
        spec = eigendecompose(op)
        assert np.all(np.diff(spec.eigenvalues) >= 0)

    def test_degenerate_spectrum(self):
        # eigenvalues {1, 1, 4} seen through a random unitary conjugation
        rng = RNG(42)
        g = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        q, _ = np.linalg.qr(g)
        m = q @ np.diag([1.0, 1.0, 4.0]) @ q.conj().T
        op = HermitianOperator((m + m.conj().T) / 2)
        spec = eigendecompose(op)
        np.testing.assert_allclose(spec.eigenvalues, [1.0, 1.0, 4.0], atol=1e-12)
        assert frobenius(op.matrix - spec.apply(lambda x: x).matrix) <= 1e-12
        gram = spec.eigenvectors.conj().T @ spec.eigenvectors
        assert frobenius(gram - identity(3)) <= 1e-12

    def test_zero_matrix(self):
        spec = eigendecompose(HermitianOperator(np.zeros((4, 4))))
        np.testing.assert_allclose(spec.eigenvalues, np.zeros(4))

    def test_dim_one(self):
        spec = eigendecompose(HermitianOperator([[3.5]]))
        np.testing.assert_allclose(spec.eigenvalues, [3.5])


class TestApplyFunction:
    def test_square_of_sigma_x_is_identity(self):
        out = apply_function(polynomial([0, 0, 1]), HermitianOperator(SIGMA_X))
        assert frobenius(out.matrix - identity(2)) <= 1e-12

    def test_indicator_outside_spectrum_annihilates(self):
        spec = eigendecompose(HermitianOperator(SIGMA_Z))
        f = indicator_outside(spec.eigenvalues, tol=1e-9)
        out = apply_function(f, HermitianOperator(SIGMA_Z))
        assert frobenius(out.matrix) <= 1e-12

    def test_cubic_matches_matrix_powers(self):
        # oracle: explicit matrix product R.R.R - 2R
        rng = RNG(11)
        op = random_hermitian(4, rng)
        out = apply_function(polynomial([0, -2, 0, 1]), op)
        m = op.matrix
        expected = m @ m @ m - 2 * m
        assert frobenius(out.matrix - expected) <= 1e-9

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_polynomial_property(self, dim):
        rng = RNG(300 + dim)
        for _ in range(10):
            op = random_hermitian(dim, rng)
            coeffs = rng.uniform(-2, 2, size=4)
            out = apply_function(polynomial(coeffs), op)
            expected = sum(
                c * np.linalg.matrix_power(op.matrix, k) for k, c in enumerate(coeffs)
            )
            scale = max(1.0, frobenius(expected))
            assert frobenius(out.matrix - expected) <= FUNCALC_TOL * scale

    @pytest.mark.parametrize("dim", [2, 4, 6])
    def test_function_commutes_with_argument(self, dim):
        rng = RNG(400 + dim)
        op = random_hermitian(dim, rng)
        out = apply_function(polynomial([1, 0.5, -1, 0.25]), op)
        assert commutator_norm(out, op) <= COMM_TOL * max(1.0, out.norm() * op.norm())

    def test_table_backed_function(self):
        out = apply_function(lambda x: np.where(x < 0, 5.0, 7.0), HermitianOperator(SIGMA_Z))
        np.testing.assert_allclose(out.matrix, np.diag([7.0, 5.0]), atol=1e-12)

    def test_function_sees_whole_ascending_spectrum_once(self):
        seen = []

        def square(x):
            seen.append(x.copy())
            return x * x

        out = apply_function(square, HermitianOperator(np.diag([3.0, -1.0, 2.0])))
        assert len(seen) == 1
        np.testing.assert_allclose(seen[0], [-1.0, 2.0, 3.0], atol=1e-12)
        np.testing.assert_allclose(out.matrix, np.diag([9.0, 1.0, 4.0]), atol=1e-12)

    def test_spectrum_apply_maps_eigenvalues(self):
        # oracle: f(T) and g(T) of one generator commute and match their closed forms
        t = HermitianOperator(np.diag([2.0, -1.0, 0.5]))
        spec = eigendecompose(t)
        square, sign = spec.apply(np.square), spec.apply(np.sign)
        assert isinstance(square, HermitianOperator)
        np.testing.assert_allclose(square.matrix, np.diag([4.0, 1.0, 0.25]), atol=1e-12)
        np.testing.assert_allclose(sign.matrix, np.diag([1.0, -1.0, 1.0]), atol=1e-12)
        assert frobenius(spec.apply(lambda x: x).matrix - t.matrix) <= 1e-12

    def test_indicator_rejects_negative_tolerance(self):
        with pytest.raises(ValidationError):
            indicator_outside([0.0], tol=-1e-9)


class TestSpectrumContains:
    """Membership in a spectrum as offspec reads it: its indicator is 0 there."""

    def test_sigma_z_contains_one(self):
        indicator = indicator_outside(eigendecompose(HermitianOperator(SIGMA_Z)).eigenvalues, 1e-9)
        assert indicator(np.array([1.0]))[0] == 0.0

    def test_xy_sum_misses_one(self):
        spec = eigendecompose(HermitianOperator(SIGMA_X + SIGMA_Y))
        assert indicator_outside(spec.eigenvalues, 1e-9)(np.array([1.0]))[0] == 1.0

    def test_xy_sum_contains_sqrt2(self):
        spec = eigendecompose(HermitianOperator(SIGMA_X + SIGMA_Y))
        assert indicator_outside(spec.eigenvalues, 1e-9)(np.array([math.sqrt(2)]))[0] == 0.0

    def test_negative_tol_rejected(self):
        with pytest.raises(ValidationError):
            indicator_outside(eigendecompose(HermitianOperator(SIGMA_Z)).eigenvalues, -1e-3)


class TestCommutator:
    def test_identity_commutes(self):
        assert commutator_norm(HermitianOperator(SIGMA_Z), HermitianOperator(identity(2))) == 0.0

    def test_pauli_commutator_norm(self):
        # [sx, sy] = 2i sz, so the Frobenius norm is 2*sqrt(2)
        value = commutator_norm(HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y))
        assert abs(value - 2.0 * math.sqrt(2)) <= 1e-12

    def test_diagonal_matrices_commute(self):
        a = HermitianOperator(np.diag([1.0, 2.0]))
        b = HermitianOperator(np.diag([3.0, 4.0]))
        assert commutator_norm(a, b) == 0.0
        assert commutator_within_tol(commutator_norm(a, b), a, b, COMM_TOL)

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            commutator_norm(HermitianOperator(SIGMA_X), HermitianOperator(identity(3)))

    @pytest.mark.parametrize("scale", [1e-6, 1e-5, 1.0, 1e6])
    def test_verdict_ignores_scale(self, scale):
        x, y, z = (HermitianOperator(scale * p) for p in (SIGMA_X, SIGMA_Y, SIGMA_Z))
        pairs = [
            (x, y, False),
            (x, HermitianOperator(SIGMA_Y), False),
            (z, HermitianOperator(np.diag([3.0, 7.0])), True),
            (z, HermitianOperator(0.0 * z.matrix), True),
        ]
        for a, b, verdict in pairs:
            assert commutator_within_tol(commutator_norm(a, b), a, b, COMM_TOL) is verdict

    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf, -math.inf])
    def test_tolerance_must_be_finite_and_positive(self, tol):
        # one rule for every library tolerance; a bad one must not read as
        # a verdict on the input
        z, x = HermitianOperator(SIGMA_Z), HermitianOperator(SIGMA_X)
        calls = [
            lambda: commutator_within_tol(commutator_norm(z, z), z, z, tol),
            lambda: commutator_within_tol(commutator_norm(z, x), z, x, tol),
            lambda: reconstruct_density(max_eigenvalue_functional(2), lin_tol=tol),
            lambda: check_linearity(max_eigenvalue_functional(2), trials=1, seed=0, tol=tol),
            lambda: indicator_outside([1.0], tol),
        ]
        for call in calls:
            with pytest.raises(ValidationError, match="finite and positive"):
                call()

    @pytest.mark.parametrize("dim", [2, 3, 5])
    def test_hermitian_square_vanishes_iff_operator_does(self, dim):
        # for Hermitian C: |C^2| <= t forces |C| <= sqrt(dim * t)
        rng = RNG(500 + dim)
        for _ in range(25):
            c = random_hermitian(dim, rng)
            sq_norm = frobenius(c.matrix @ c.matrix)
            if sq_norm <= 1e-12:
                assert c.norm() <= math.sqrt(dim * 1e-12)
            if c.norm() <= 1e-12:
                assert sq_norm <= 1e-12
        z = HermitianOperator(np.zeros((dim, dim)))
        assert frobenius(z.matrix @ z.matrix) == 0.0


class TestMatrixJson:
    def test_round_trip(self):
        rng = RNG(9)
        op = random_hermitian(3, rng)
        obj = matrix_to_json(op.matrix)
        back = matrix_from_json(obj)
        assert frobenius(back - op.matrix) == 0.0

    def test_rejects_ragged_rows(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]})

    def test_rejects_wrong_dim(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 3, "entries": [[[1, 0], [0, 0]], [[0, 0], [1, 0]]]})

    def test_rejects_bad_cells(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 1, "entries": [[[1, 0, 0]]]})
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 1, "entries": [["ab"]]})

    def test_rejects_json_booleans(self):
        # bool is a numbers.Real in Python, but true/false are not matrix entries
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 1, "entries": [[[True, False]]]})
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 1, "entries": [[[1.0, False]]]})
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": True, "entries": [[[1.0, 0.0]]]})

    def test_rejects_non_integer_dim(self):
        # int() would truncate 1.9 to a 1x1 matrix
        for dim in (1.9, 1.0, "1", None):
            with pytest.raises(ValidationError, match="integer"):
                matrix_from_json({"dim": dim, "entries": [[[1, 0]]]})

    def test_rejects_non_object(self):
        with pytest.raises(ValidationError):
            matrix_from_json([[1, 0]])

    @pytest.mark.parametrize("entries, message", [
        ([[[True, 0]]], "JSON [re, im] parts must be real numbers"),
        ([[[1.0, "0"]]], "JSON [re, im] parts must be real numbers"),
        ([[[1, 0, 0]]], "JSON entries must be [re, im] pairs"),
        ([["ab"]], "JSON entries must be [re, im] pairs"),
        ([[None]], "JSON entries must be [re, im] pairs"),
        ([[(1, 0, 0)]], "JSON entries must be [re, im] pairs"),
        ([[[1, 0]], [[0, 0], [1, 0]]], "matrix JSON rows must each have exactly 'dim' cells"),
        # the first failing cell in row-major order names the fault, and a
        # ragged row is found before any cell
        ([[[1, 0, 0], [True, 0]], [[0, 0], [1, 0]]], "JSON entries must be [re, im] pairs"),
        ([[[1, 0], [True, 0]], [[0, 0], [1, 0, 0]]], "JSON [re, im] parts must be real numbers"),
        ([[[True, 0], [0, 0]], [[0, 0]]], "matrix JSON rows must each have exactly 'dim' cells"),
        ([[[1, 0], [0, 0]], [[0, 0], [10**400, 0]]], "matrix entries must be finite"),
        ([[[1, 0], [0, 0]], [[0, 0], [math.inf, 0]]], "matrix entries must be finite"),
    ])
    def test_refusal_messages(self, entries, message):
        with pytest.raises(ValidationError) as exc:
            matrix_from_json({"dim": len(entries), "entries": entries})
        assert str(exc.value) == message

    def test_tuple_cells_read_as_lists(self):
        cells = [[(0.5, -0.0), (0, 2**60)], ((0, -(2**60)), [0.5, 0.0])]
        got = matrix_from_json({"dim": 2, "entries": cells})
        expected = np.array([[complex(float(re), float(im)) for re, im in row] for row in cells])
        assert got.tobytes() == expected.tobytes()
