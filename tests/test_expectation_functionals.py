"""Reconstruction, dispersion, and linearity-separation tests.

Oracles: round trips against the generating density matrix, hand-computed
projector dispersions (p - p^2 and the 1/4 superposition value), and the
eigenvalue nonadditivity of the Pauli pair (max eigenvalue of sx + sy is
sqrt(2), not 2).
"""

import math
import tracemalloc

import numpy as np
import pytest

import dispersionless.expectation_functionals as ef
from dispersionless.expectation_functionals import (
    AdditivityViolation,
    DEFAULT_PROBE_COUNT,
    DensityMatrix,
    ExpectationFunctional,
    LIN_TOL,
    NormalizationViolation,
    PositivityViolation,
    PureState,
    check_linearity,
    dispersion,
    dispersion_witness,
    hermitian_basis,
    max_eigenvalue_functional,
    pure_state_expectation,
    pure_state_functional,
    reconstruct_density,
    trace_functional,
)
from dispersionless.operator_core import (
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    eigendecompose,
    frobenius,
    identity,
    random_hermitian,
    random_hermitian_stack,
)

RNG = np.random.default_rng


class TestPureState:
    def test_norm_enforced(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 1.0])

    def test_normalized_constructor(self):
        phi = PureState.normalized([1.0, 1.0])
        assert abs(np.linalg.norm(phi.vector) - 1.0) <= 1e-15

    def test_labels(self):
        assert np.allclose(PureState.from_label("z+").vector, [1, 0])
        xp = PureState.from_label("x+")
        assert np.allclose(xp.vector, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        with pytest.raises(ValidationError):
            PureState.from_label("w+")

    def test_bloch_vectors(self):
        np.testing.assert_allclose(PureState.from_label("z+").bloch(), [0, 0, 1], atol=1e-15)
        np.testing.assert_allclose(PureState.from_label("x-").bloch(), [-1, 0, 0], atol=1e-15)
        np.testing.assert_allclose(PureState.from_label("y+").bloch(), [0, 1, 0], atol=1e-15)

    def test_bloch_requires_dim2(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 0.0, 0.0]).bloch()


class TestDensityMatrix:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    def test_random_is_valid(self):
        rng = RNG(1)
        for dim in (2, 3, 5):
            u = DensityMatrix.random(dim, rng)
            assert abs(u.operator.trace() - 1.0) <= 1e-12
            assert u.spectrum.eigenvalues.min() >= -1e-12


class TestHermitianBasis:
    def test_dim1(self):
        basis = hermitian_basis(1)
        assert len(basis) == 1
        np.testing.assert_allclose(basis[0].matrix, [[1.0]])

    def test_dim2_members(self):
        basis = hermitian_basis(2)
        assert len(basis) == 4
        np.testing.assert_allclose(basis[0].matrix, np.diag([1.0, 0.0]))
        np.testing.assert_allclose(basis[1].matrix, np.diag([0.0, 1.0]))
        np.testing.assert_allclose(basis[2].matrix, SIGMA_X)
        # the imaginary cross term is minus sigma-y in this convention
        np.testing.assert_allclose(basis[3].matrix, -SIGMA_Y)

    def test_dim3_spans(self):
        basis = hermitian_basis(3)
        assert len(basis) == 9
        gram = np.array([
            [np.trace(a.matrix @ b.matrix).real for b in basis] for a in basis
        ])
        assert np.linalg.matrix_rank(gram) == 9

    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32])
    def test_bands_equal_element_by_element_fill(self, dim):
        expected = np.zeros((dim * dim, dim, dim), dtype=np.complex128)
        elements = [(n, n, 1.0, 1.0) for n in range(dim)]
        for m in range(dim):
            for n in range(m + 1, dim):
                elements += [(m, n, 1.0, 1.0), (m, n, 1.0j, -1.0j)]
        for k, (m, n, above, below) in enumerate(elements):
            expected[k, m, n] = above
            expected[k, n, m] = below
        bands = list(ef._basis_bands(dim))
        assert all(len(band) <= ef._band_length(dim) for band in bands)
        # tobytes, unlike ==, tells -0.0 from 0.0
        assert np.concatenate(bands).tobytes() == expected.tobytes()


class TestReconstruction:
    def test_round_trip_dim4(self):
        rng = RNG(2)
        u0 = DensityMatrix.random(4, rng)
        out = reconstruct_density(trace_functional(u0))
        assert frobenius(out.matrix - u0.matrix) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 3, 5, 6])
    def test_round_trip_other_dims(self, dim):
        rng = RNG(30 + dim)
        for _ in range(5):
            u0 = DensityMatrix.random(dim, rng)
            out = reconstruct_density(trace_functional(u0))
            assert frobenius(out.matrix - u0.matrix) <= 1e-10

    def test_one_eigendecomposition_per_reconstruction(self, monkeypatch):
        u0 = DensityMatrix.random(3, RNG(4))
        f = trace_functional(u0)
        calls = []
        original = ef.eigendecompose

        def counting(op):
            calls.append(op)
            return original(op)

        monkeypatch.setattr(ef, "eigendecompose", counting)
        out = reconstruct_density(f)
        assert len(calls) == 1
        assert frobenius(out.matrix - u0.matrix) <= 1e-10
        assert frobenius(out.spectrum.apply(lambda x: x).matrix - out.matrix) <= 1e-12

    def test_checks_only_the_identity_and_the_assembled_matrix(self, monkeypatch):
        # the basis and the probes are built Hermitian and go to the band
        # formula unchecked
        import dispersionless.operator_core as core

        u0 = DensityMatrix.random(3, RNG(24))
        checks = []
        original = core._require_hermitian
        monkeypatch.setattr(core, "_require_hermitian", lambda m: checks.append(m) or original(m))
        out = reconstruct_density(trace_functional(u0), probe_count=40)
        assert len(checks) == 2
        assert np.array_equal(checks[0], identity(3))
        assert np.array_equal(checks[1], out.matrix)

    def test_holds_one_basis_element_at_a_time(self):
        # all d^2 basis matrices of d = 32 together take 16 MB
        u0 = DensityMatrix.random(32, RNG(6))
        f = trace_functional(u0)
        tracemalloc.start()
        try:
            out = reconstruct_density(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert frobenius(out.matrix - u0.matrix) <= 1e-10

    def test_probe_sequence(self):
        # identity, the canonical triple, then the seeded draws, in that order
        dim, seed = 3, 17
        u0 = DensityMatrix.random(dim, RNG(8))
        seen = []

        def recording(r):
            seen.append(r.matrix)
            return np.trace(u0.matrix @ r.matrix).real

        reconstruct_density(ExpectationFunctional(dim, recording), probe_count=5, seed=seed)
        rng = RNG(seed)
        expected = [identity(dim)]
        expected += list(ef._canonical_band(dim))
        expected += [random_hermitian(dim, rng).matrix for _ in range(5)]
        assert len(seen) == dim * dim + 1 + len(expected)
        for got, want in zip(seen[dim * dim + 1:], expected):
            assert np.array_equal(got, want)

    def test_violation_on_identity_draws_no_random_probe(self, monkeypatch):
        draws = []
        original = ef.random_hermitian_stack

        def counting(dim, rng, count, *args):
            draws.extend([dim] * count)
            return original(dim, rng, count, *args)

        monkeypatch.setattr(ef, "random_hermitian_stack", counting)
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(max_eigenvalue_functional(4))
        assert draws == []
        # every basis element has top eigenvalue 1, so the trace form reads 4 on I
        assert np.array_equal(exc.value.probe.matrix, identity(4))
        assert (exc.value.lhs, exc.value.rhs) == (1.0, 4.0)

        draws.clear()
        reconstruct_density(trace_functional(DensityMatrix.random(4, RNG(9))))
        assert draws == [4] * DEFAULT_PROBE_COUNT

    def test_pure_state_holds_one_band_at_a_time(self):
        v = RNG(7).standard_normal(32) + 1j * RNG(8).standard_normal(32)
        phi = PureState.normalized(v)
        f = pure_state_functional(phi)
        tracemalloc.start()
        try:
            out = reconstruct_density(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000
        assert frobenius(out.matrix - phi.projector()) <= 1e-10

    def test_failing_band_stops_at_its_first_failing_probe(self):
        # linear on the basis, the identity and the canonical triple (at most
        # two nonzero cells each), but not on a full random matrix
        dim, seed, count = 16, 3, 64
        u0 = DensityMatrix.random(dim, RNG(12))
        probes = random_hermitian_stack(dim, RNG(seed), count)

        def kink(m):
            return 1e-8 * np.abs(m[..., 0, 0] * m[..., 1, 1] * m[..., 2, 3])

        # three probes fail, by margins far above roundoff
        ranked = np.sort(kink(probes))
        tol = float(ranked[-4] + ranked[-3]) / 2
        first = int(np.flatnonzero(kink(probes) > tol)[0])
        seen = []

        def evaluate(r):
            seen.append(r.matrix)
            return np.vdot(r.matrix, u0.matrix).real + kink(r.matrix)

        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(
                ExpectationFunctional(dim, evaluate), probe_count=count, seed=seed, lin_tol=tol)
        assert np.array_equal(exc.value.probe.matrix, probes[first])
        assert abs(exc.value.delta - kink(probes[first])) <= 1e-15
        # the failing band was evaluated whole, and no later band was drawn
        band = ef._band_length(dim)
        drawn = min(count, (first // band + 1) * band)
        assert len(seen) == dim * dim + 1 + 4 + drawn
        assert all(np.array_equal(a, b) for a, b in zip(seen[-drawn:], probes[:drawn]))

    def test_pure_state_functional(self):
        out = reconstruct_density(pure_state_functional(PureState.from_label("z+")))
        np.testing.assert_allclose(out.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    def test_max_eigenvalue_violates_additivity(self):
        with pytest.raises(AdditivityViolation, match="violates B'"):
            reconstruct_density(max_eigenvalue_functional(2))

    def test_linear_indefinite_violates_positivity(self):
        f = trace_functional(HermitianOperator(np.diag([1.5, -0.5])))
        with pytest.raises(PositivityViolation, match="violates A'") as exc:
            reconstruct_density(f)
        assert abs(exc.value.eigenvalue + 0.5) <= 1e-9

    def test_unnormalized_violates_normalization(self):
        u0 = DensityMatrix(identity(2) / 2)
        f = ExpectationFunctional(2, lambda r: 1.2 * np.trace(u0.matrix @ r.matrix).real)
        with pytest.raises(NormalizationViolation, match="violates A'") as exc:
            reconstruct_density(f)
        assert abs(exc.value.value - 1.2) <= 1e-12

    def test_nan_values_fail_their_check(self):
        # the maximally mixed trace form on the identity and on the basis,
        # NaN on every other operator; SX is a basis element, so the first
        # probe that reads NaN is SY
        known = [identity(2)] + [b.matrix for b in hermitian_basis(2)]

        def evaluate(r):
            return r.trace() / 2 if any(np.array_equal(r.matrix, k) for k in known) else math.nan

        f = ExpectationFunctional(2, evaluate)
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(f)
        assert np.array_equal(exc.value.probe.matrix, SIGMA_Y)
        assert math.isnan(exc.value.lhs) and exc.value.rhs == 0.0
        assert check_linearity(f, trials=3, seed=1).unrestricted_exceeds_tol

        with pytest.raises(NormalizationViolation) as exc:
            reconstruct_density(ExpectationFunctional(2, lambda r: math.nan))
        assert math.isnan(exc.value.value)

    @pytest.mark.parametrize("evaluate", [
        # normalized, NaN on every basis element
        lambda r: 1.0 if np.array_equal(r.matrix, identity(2)) else math.nan,
        # the maximally mixed trace form, NaN only on the off-diagonal SX
        lambda r: math.nan if np.array_equal(r.matrix, SIGMA_X) else r.trace() / 2,
    ], ids=["every-basis-value", "off-diagonal"])
    def test_nan_basis_value_fails_a_probe(self, evaluate):
        # the band formula sums every cell of u, and 0 * NaN is NaN, so the
        # trace form is NaN already on the identity, the first probe
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(ExpectationFunctional(2, evaluate))
        assert np.array_equal(exc.value.probe.matrix, identity(2))
        assert exc.value.lhs == 1.0 and math.isnan(exc.value.rhs)

    def test_additivity_violation_json(self):
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(max_eigenvalue_functional(2))
        obj = exc.value.to_json()
        assert obj["kind"] == "b-prime-violation"
        assert obj["probe"]["dim"] == 2
        assert abs(obj["delta"] - (obj["lhs"] - obj["rhs"])) == 0.0


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _numpy_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


class TestTraceFormValue:
    """Oracles: the explicit double sum and unitary covariance, in plain numpy."""

    @pytest.mark.parametrize("dim", [1, 2, 3, 5, 8])
    def test_matches_explicit_sum(self, dim):
        rng = RNG(70 + dim)
        for _ in range(5):
            # indefinite u: a trace form need not come from a state
            u = _numpy_hermitian(dim, rng)
            r = _numpy_hermitian(dim, rng)
            expected = sum(u[i, j] * r[j, i] for i in range(dim) for j in range(dim))
            value = trace_functional(HermitianOperator(u))(HermitianOperator(r))
            assert abs(value - expected.real) <= 1e-12 * (1 + frobenius(u) * frobenius(r))

    @pytest.mark.parametrize("dim", [2, 4, 7])
    def test_unitary_covariance(self, dim):
        rng = RNG(80 + dim)
        for _ in range(5):
            u = _numpy_hermitian(dim, rng)
            r = _numpy_hermitian(dim, rng)
            w = _random_unitary(dim, rng)
            before = trace_functional(HermitianOperator(u))(HermitianOperator(r))
            after = trace_functional(HermitianOperator(w @ u @ w.conj().T))(
                HermitianOperator(w @ r @ w.conj().T))
            assert abs(after - before) <= 1e-12 * (1 + frobenius(u) * frobenius(r))


def _stack_functionals(dim, rng):
    """The three built-ins given by a stack formula, on random data.

    Each comes with the one-operator formula of the same value: tr(u r) as
    vdot, pure_state_expectation, and the top of eigendecompose.
    """
    rho = DensityMatrix.random(dim, rng)
    phi = PureState.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return [
        (trace_functional(rho), lambda r: float(np.vdot(r.matrix, rho.matrix).real)),
        (pure_state_functional(phi), lambda r: pure_state_expectation(phi, r)),
        (max_eigenvalue_functional(dim), lambda r: float(eigendecompose(r).eigenvalues[-1])),
    ]


def _black_box(f):
    # the same functional, evaluated one operator at a time
    return ExpectationFunctional(f.dim, f, label=f.label)


def _outcome(f, **kwargs):
    try:
        out = reconstruct_density(f, **kwargs)
    except AdditivityViolation as exc:
        return exc.probe.matrix.tobytes(), exc.lhs, exc.rhs
    except (NormalizationViolation, PositivityViolation) as exc:
        return str(exc)
    return out.matrix.tobytes()


class TestStackEvaluation:
    """The band path against the per-operator path: equal bits, not a tolerance."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_stack_values_equal_calls(self, dim):
        rng = RNG(90 + dim)
        basis = np.array([op.matrix for op in hermitian_basis(dim)])
        probes = random_hermitian_stack(dim, rng, 8)
        for f, one_operator in _stack_functionals(dim, rng):
            for stack in (basis, probes):
                expected = [one_operator(HermitianOperator(m)) for m in stack]
                assert f.values(stack).tolist() == expected, f.label
                assert [f(HermitianOperator(m)) for m in stack] == expected, f.label

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_reconstruction_equals_black_box(self, dim):
        rng = RNG(100 + dim)
        for f, _ in _stack_functionals(dim, rng):
            for kwargs in ({}, {"probe_count": 5, "seed": 3, "lin_tol": 1e-15}):
                assert _outcome(f, **kwargs) == _outcome(_black_box(f), **kwargs), f.label

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_linearity_report_equals_black_box(self, dim):
        rng = RNG(110 + dim)
        for f, _ in _stack_functionals(dim, rng):
            assert check_linearity(f, 5, 7) == check_linearity(_black_box(f), 5, 7), f.label

    def test_a_functional_needs_a_formula(self):
        with pytest.raises(ValidationError, match="evaluate or evaluate_stack"):
            ExpectationFunctional(2)
        with pytest.raises(ValidationError, match="not both"):
            ExpectationFunctional(
                2, lambda r: r.trace(), evaluate_stack=lambda stack: np.trace(stack, axis1=1, axis2=2).real)

    def test_values_validates_the_band(self):
        f = trace_functional(DensityMatrix(identity(3) / 3))
        with pytest.raises(ValidationError, match="does not match functional dimension 3"):
            f.values(np.zeros((2, 2, 2)))
        band = np.zeros((3, 3, 3), dtype=np.complex128)
        band[1, 0, 1] = 1.0
        with pytest.raises(ValidationError, match="not Hermitian"):
            f.values(band)


class TestCheckLinearity:
    def test_trace_form_is_additive_everywhere(self):
        rng = RNG(3)
        u0 = DensityMatrix.random(3, rng)
        report = check_linearity(trace_functional(u0), trials=40, seed=9)
        assert report.unrestricted_max_deviation <= 1e-10
        assert report.commuting_max_deviation <= 1e-10
        assert not report.unrestricted_exceeds_tol
        assert not report.commuting_exceeds_tol

    def test_max_eigenvalue_separation(self):
        report = check_linearity(max_eigenvalue_functional(2), trials=60, seed=11)
        # oracle: max-eig(sx + sy) = sqrt(2) while max-eig(sx) + max-eig(sy) = 2
        assert report.unrestricted_max_deviation >= 2.0 - math.sqrt(2) - 1e-12
        assert report.commuting_max_deviation <= 1e-10
        assert report.unrestricted_exceeds_tol
        assert not report.commuting_exceeds_tol

    @pytest.mark.parametrize("seed", range(20))
    def test_witness_pair_leads(self, seed):
        # without the witness pair, 9 of these 20 one-trial runs fall short
        report = check_linearity(max_eigenvalue_functional(2), trials=1, seed=seed)
        assert report.unrestricted_max_deviation >= 2.0 - math.sqrt(2) - 1e-12

    def test_nan_values_do_not_pass(self):
        report = check_linearity(ExpectationFunctional(2, lambda r: math.nan), trials=5, seed=1)
        assert math.isnan(report.unrestricted_max_deviation)
        assert math.isnan(report.commuting_max_deviation)
        assert report.unrestricted_exceeds_tol
        assert report.commuting_exceeds_tol

    def test_normalized_trace_functional(self):
        f = ExpectationFunctional(2, lambda r: r.trace() / 2.0)
        report = check_linearity(f, trials=20, seed=5)
        assert report.unrestricted_max_deviation <= 1e-12
        assert report.commuting_max_deviation <= 1e-12

    def test_trials_validated(self):
        with pytest.raises(ValidationError):
            check_linearity(max_eigenvalue_functional(2), trials=0, seed=1)


class TestDispersion:
    def test_eigenstate_has_none(self):
        f = pure_state_functional(PureState.from_label("z+"))
        assert abs(dispersion(f, HermitianOperator(SIGMA_Z))) <= 1e-12

    def test_transverse_operator_has_unit_dispersion(self):
        f = pure_state_functional(PureState.from_label("z+"))
        assert abs(dispersion(f, HermitianOperator(SIGMA_X)) - 1.0) <= 1e-12

    def test_maximally_mixed_sigma_z(self):
        f = trace_functional(DensityMatrix(identity(2) / 2))
        assert abs(dispersion(f, HermitianOperator(SIGMA_Z)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_form_dispersion_nonnegative(self, dim):
        rng = RNG(40 + dim)
        for _ in range(20):
            u = DensityMatrix.random(dim, rng)
            f = trace_functional(u)
            op = random_hermitian(dim, rng)
            assert dispersion(f, op) >= -LIN_TOL


class TestDispersionWitness:
    def test_pure_qubit(self):
        u = DensityMatrix.pure(PureState.from_label("z+"))
        witness, d = dispersion_witness(u)
        assert abs(d - 0.25) <= 1e-12
        # the witness projects onto an equal superposition of phi and
        # an orthogonal companion
        assert abs(np.trace(u.matrix @ witness.matrix).real - 0.5) <= 1e-12

    def test_maximally_mixed_qubit(self):
        u = DensityMatrix(identity(2) / 2)
        witness, d = dispersion_witness(u)
        assert abs(d - 0.25) <= 1e-12
        np.testing.assert_allclose(witness.matrix, np.diag([1.0, 0.0]), atol=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_tie_between_p_and_one_minus_p_takes_lower(self, seed):
        # 0.3 and 0.7 are equally far from 1/2; rounding must not decide
        rng = RNG(seed)
        q, _ = np.linalg.qr(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
        m = q @ np.diag([0.7, 0.3]) @ q.conj().T
        u = DensityMatrix((m + m.conj().T) / 2)
        witness, d = dispersion_witness(u)
        assert abs(np.trace(u.matrix @ witness.matrix).real - 0.3) <= 1e-12
        assert abs(d - 0.21) <= 1e-12

    def test_pure_dim3(self):
        u = DensityMatrix(np.diag([1.0, 0.0, 0.0]))
        _, d = dispersion_witness(u)
        assert abs(d - 0.25) <= 1e-12

    def test_dim1_has_no_witness(self):
        with pytest.raises(ValidationError, match="dimension 1"):
            dispersion_witness(DensityMatrix([[1.0]]))

    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_witness_lower_bound(self, dim):
        rng = RNG(50 + dim)
        for _ in range(20):
            u = DensityMatrix.random(dim, rng)
            _, d = dispersion_witness(u)
            p = u.spectrum.eigenvalues[
                int(np.argmin(np.abs(u.spectrum.eigenvalues - 0.5)))
            ]
            assert d >= min(0.25, p - p * p) - LIN_TOL
            assert d > 0.0


class TestPureStateExpectation:
    def test_eigenstate(self):
        assert pure_state_expectation(
            PureState.from_label("z+"), HermitianOperator(SIGMA_Z)
        ) == 1.0

    def test_x_eigenstate(self):
        val = pure_state_expectation(
            PureState.from_label("x+"), HermitianOperator(SIGMA_X)
        )
        assert abs(val - 1.0) <= 1e-12

    def test_additivity_is_exact_for_this_case(self):
        phi = PureState.from_label("z+")
        combined = pure_state_expectation(phi, HermitianOperator(SIGMA_X + SIGMA_Y))
        separate = pure_state_expectation(
            phi, HermitianOperator(SIGMA_X)
        ) + pure_state_expectation(phi, HermitianOperator(SIGMA_Y))
        assert combined == 0.0
        assert combined == separate

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bilinear_additivity_any_pair(self, dim):
        # the inner-product form is additive for arbitrary operator pairs,
        # commuting or not
        rng = RNG(60 + dim)
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            phi = PureState.normalized(v)
            r = random_hermitian(dim, rng)
            s = random_hermitian(dim, rng)
            lhs = pure_state_expectation(phi, r + s)
            rhs = pure_state_expectation(phi, r) + pure_state_expectation(phi, s)
            assert abs(lhs - rhs) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            pure_state_expectation(PureState([1.0, 0.0, 0.0]), HermitianOperator(SIGMA_X))

    def test_large_operator_matches_numpy(self):
        # |<v|M|v>| ~ 3.2e9 with a roundoff imaginary part ~ 2e-7
        a = 1234.567 * SIGMA_X + 987.654 * SIGMA_Y + 345.123 * SIGMA_Z
        m = a @ a @ a
        phi = PureState.from_label("x+")
        expected = np.vdot(phi.vector, m @ phi.vector).real
        got = pure_state_expectation(phi, HermitianOperator(m))
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestTraceFormLinearity:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_additive_on_noncommuting_pairs(self, dim):
        # the quantum peculiarity: trace forms are additive even where the
        # operators fail to commute
        rng = RNG(70 + dim)
        u = DensityMatrix.random(dim, rng)
        f = trace_functional(u)
        probes = ef._canonical_band(dim)
        lhs = f(probes[2])
        rhs = f(probes[0]) + f(probes[1])
        assert abs(lhs - rhs) <= 1e-12
