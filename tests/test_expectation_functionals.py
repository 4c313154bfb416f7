"""Reconstruction, dispersion, and linearity-separation tests.

Oracles: round trips against the generating density matrix, hand-computed
projector dispersions (p - p^2 and the 1/4 superposition value), and the
eigenvalue nonadditivity of the Pauli pair (max eigenvalue of sx + sy is
sqrt(2), not 2).
"""

import json
import math
import tracemalloc

import numpy as np
import pytest

import dispersionless.expectation_functionals as ef
from dispersionless.cli import run_command
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
    dispersion_witness,
    hermitian_basis,
    max_eigenvalue_functional,
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
        for label, bloch in [("z+", [0, 0, 1]), ("z-", [0, 0, -1]), ("x+", [1, 0, 0]),
                             ("x-", [-1, 0, 0]), ("y+", [0, 1, 0]), ("y-", [0, -1, 0])]:
            np.testing.assert_allclose(PureState.from_label(label).bloch(), bloch, atol=1e-15,
                                       err_msg=label)

    @pytest.mark.parametrize("scale", [1e-300, 1e-200, 1e-160, 1e200, 1e308])
    def test_normalized_outside_the_unit_scale(self, scale):
        # the squares of these entries leave the normal float range (at 1e-160
        # they are subnormal, with a plain norm off 1 by 5.6e-6); the state is x+
        phi = PureState.normalized([scale, scale])
        assert phi.vector.tobytes() == PureState.from_label("x+").vector.tobytes()

    def test_normalized_with_a_subnormal_largest_part(self):
        # 1 / 5e-324 overflows, so the vector must be divided, not multiplied
        phi = PureState.normalized([5e-324, 0])
        assert phi.vector.tobytes() == PureState.from_label("z+").vector.tobytes()

    @pytest.mark.parametrize("entries", [[math.inf, 0], [math.nan, 1], [1, complex(0, math.inf)]])
    def test_normalized_refuses_non_finite_entries(self, entries):
        with pytest.raises(ValidationError, match="entries must be finite"):
            PureState.normalized(entries)

    def test_normalized_keeps_the_plain_norm_in_range(self):
        rng = RNG(5)
        for scale in (1e-150, 1e-3, 1.0, 1e3, 1e150):
            v = scale * (rng.standard_normal(3) + 1j * rng.standard_normal(3))
            expected = v / np.linalg.norm(v)
            assert PureState.normalized(v).vector.tobytes() == expected.tobytes()
        with pytest.raises(ValidationError, match="zero vector"):
            PureState.normalized([0.0, 0.0])

    def test_bloch_requires_dim2(self):
        with pytest.raises(ValidationError):
            PureState([1.0, 0.0, 0.0]).bloch()

    @pytest.mark.parametrize("k", [0.75, 1.5, -0.75, -1.5])
    def test_norm_tolerance_is_dm_tol(self, k):
        # DM_TOL = 1e-9: a norm off 1 by 0.75 of it, either way, is accepted, by 1.5 of it refused
        if abs(k) < 1:
            PureState([1 + k * 1e-9, 0])
        else:
            with pytest.raises(ValidationError, match="norm"):
                PureState([1 + k * 1e-9, 0])


class TestDensityMatrix:
    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValidationError, match="negative eigenvalue"):
            DensityMatrix(np.diag([1.5, -0.5]))

    def test_rejects_bad_trace(self):
        with pytest.raises(ValidationError, match="trace"):
            DensityMatrix(np.diag([0.7, 0.7]))

    @pytest.mark.parametrize("diagonal, message, violation, field, value", [
        ([1.5, -0.5], "density matrix has negative eigenvalue -0.5", PositivityViolation,
         "eigenvalue", -0.5),
        ([1.0, 1.0], "density matrix has trace 2.0, not 1", NormalizationViolation,
         "value", 2.0),
    ], ids=["indefinite", "trace-2"])
    def test_one_rule_at_both_sites(self, diagonal, message, violation, field, value):
        # the density-matrix rule refuses the same matrices when they are given
        # as a density and when reconstruction assembles them, each site with
        # its own error; lin_tol admits f(I) = 2, so the rule decides
        with pytest.raises(ValidationError) as given:
            DensityMatrix(np.diag(diagonal))
        assert str(given.value) == message
        f = trace_functional(HermitianOperator(np.diag(diagonal)))
        with pytest.raises(violation, match="violates A'") as assembled:
            reconstruct_density(f, lin_tol=1.5)
        assert getattr(assembled.value, field) == value

    @pytest.mark.parametrize("k", [0.75, 1.5])
    def test_negative_eigenvalue_tolerance_is_dm_tol(self, k):
        # DM_TOL = 1e-9: an eigenvalue of -0.75e-9 is accepted, one of -1.5e-9 refused
        diagonal = np.diag([1 + k * 1e-9, -k * 1e-9])
        if k < 1:
            DensityMatrix(diagonal)
        else:
            with pytest.raises(ValidationError, match="negative eigenvalue"):
                DensityMatrix(diagonal)

    @pytest.mark.parametrize("k", [0.75, 1.5, -0.75, -1.5])
    def test_trace_tolerance_is_dm_tol(self, k):
        # DM_TOL = 1e-9: a trace off 1 by 0.75e-9, either way, is accepted, by 1.5e-9 refused
        diagonal = np.diag([0.5 + k * 0.5e-9] * 2)
        if abs(k) < 1:
            DensityMatrix(diagonal)
        else:
            with pytest.raises(ValidationError, match="trace"):
                DensityMatrix(diagonal)

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

    # d = 33, 64 and 91 sweep in bands of 7, 2 and 1 operators; at d = 91 the
    # real and imaginary terms of an index pair share both cells
    @pytest.mark.parametrize("dim", [1, 2, 3, 4, 5, 6, 7, 8, 16, 32, 33, 64, 91])
    def test_bands_equal_element_by_element_fill(self, dim):
        elements = [(n, n, 1.0, 1.0) for n in range(dim)]
        for m in range(dim):
            for n in range(m + 1, dim):
                elements += [(m, n, 1.0, 1.0), (m, n, 1.0j, -1.0j)]
        step = max(1, ef._BAND_CELLS // dim**2)
        count = 0
        # band by band, since all d^4 cells take 1.1 GB at d = 91; each band
        # is compared before the next one overwrites the shared buffer
        for index, band in enumerate(ef._basis_bands(dim)):
            part = elements[index * step:(index + 1) * step]
            expected = np.zeros((len(part), dim, dim), dtype=np.complex128)
            for k, (m, n, above, below) in enumerate(part):
                expected[k, m, n] = above
                expected[k, n, m] = below
            # tobytes, unlike ==, tells -0.0 from 0.0
            assert band.tobytes() == expected.tobytes()
            count += len(band)
        assert count == dim * dim

    @pytest.mark.parametrize("dim", [1, 2, 3, 32, 33, 64, 91])
    def test_scatter_cells_are_unique_within_a_band(self, dim):
        # numpy leaves the order of a fancy write with repeated indices open:
        # each band clears the last band's cells, then writes its own, and
        # element e's cells in the table begin at max(e, 2e - d)
        _, _, _, begins, cells, values = ef._basis_table(dim)
        assert begins == tuple(max(e, 2 * e - dim) for e in range(dim * dim + 1))
        assert len(cells) == len(values) == begins[-1] == dim + 2 * (dim * dim - dim)
        last = cells[:0]
        for start, end in ef._bands(dim, dim * dim):
            band = cells[begins[start]:begins[end]]
            for assigned in (last, band):
                assert len(np.unique(assigned)) == len(assigned)
            last = band

    @pytest.mark.parametrize("dim", [1, 2, 16, 32, 33])
    def test_bands_are_read_only(self, dim):
        # a formula cannot write into the buffer the rest of the sweep reuses
        for band in ef._basis_bands(dim):
            assert not band.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                band[0, 0, 0] = 2.0


class TestFunctionalDimension:
    @pytest.mark.parametrize("dim", [True, 2.7, 2.0, "2"], ids=["bool", "float", "whole-float", "str"])
    def test_dimension_must_be_an_integer(self, dim):
        # int(2.7) would silently make a 2-dimensional functional
        with pytest.raises(ValidationError, match="must be an integer"):
            ExpectationFunctional(dim, evaluate=lambda op: 0.0)
        with pytest.raises(ValidationError, match="must be an integer"):
            max_eigenvalue_functional(dim)


class TestReconstruction:
    def test_negative_probe_count_refused(self):
        # range(0, -3, step) is empty, so -3 would run as no random probe
        f = trace_functional(DensityMatrix(identity(2) / 2))
        with pytest.raises(ValidationError, match="probe_count"):
            reconstruct_density(f, probe_count=-3)

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

    def test_linearity_check_validates_no_band(self, monkeypatch):
        # the witness pair and the trial bands are built Hermitian and go to
        # the band formula unchecked
        import dispersionless.operator_core as core

        f = trace_functional(DensityMatrix.random(3, RNG(24)))
        checks = []
        original = core._require_hermitian
        monkeypatch.setattr(core, "_require_hermitian", lambda m: checks.append(m) or original(m))
        report = check_linearity(f, 5, 7)
        assert checks == []
        assert report.unrestricted_max_deviation <= 1e-12
        assert report.commuting_max_deviation <= 1e-12

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

    def test_warm_sweep_holds_one_band(self):
        # with the probes kept from a first call, the peak is about one band
        # (128 KiB) and its temporaries, not the 16 MB of all d^2 elements
        u0 = DensityMatrix.random(32, RNG(6))
        f = trace_functional(u0)
        reconstruct_density(f)
        tracemalloc.start()
        try:
            out = reconstruct_density(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert frobenius(out.matrix - u0.matrix) <= 1e-10

    @pytest.mark.parametrize("dim", [16, 32])
    def test_formula_returning_views_into_its_band(self, dim):
        # the values are copied out before the next basis band overwrites these
        f = ExpectationFunctional(dim, evaluate_stack=lambda stack: stack[:, 0, 0].real)
        expected = np.zeros((dim, dim), dtype=np.complex128)
        expected[0, 0] = 1.0
        assert np.array_equal(reconstruct_density(f).matrix, expected)

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
        expected += list(ef._fixed_probes(dim)[1:])
        expected += [random_hermitian(dim, rng).matrix for _ in range(5)]
        assert len(seen) == dim * dim + 1 + len(expected)
        for got, want in zip(seen[dim * dim + 1:], expected):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    def test_formula_passes(self, dim):
        # the basis bands, f(I) as a band of one, the fixed band, then the
        # random bands; no band holds more than _BAND_CELLS cells
        f, bands = _recording(trace_functional(DensityMatrix.random(dim, RNG(dim))))
        reconstruct_density(f)
        step = ef._BAND_CELLS // dim**2
        basis = [min(step, dim**2 - i) for i in range(0, dim**2, step)]
        probes = [min(step, DEFAULT_PROBE_COUNT - i) for i in range(0, DEFAULT_PROBE_COUNT, step)]
        assert [len(band) for band in bands] == basis + [1, 4 if dim >= 2 else 1] + probes
        assert all(band.size <= ef._BAND_CELLS for band in bands)
        fixed = np.zeros((4, dim, dim), dtype=complex)
        fixed[0] = np.eye(dim)
        if dim >= 2:
            fixed[1:, :2, :2] = [[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[0, 1 - 1j], [1 + 1j, 0]]]
        assert np.array_equal(bands[len(basis) + 1], fixed[:len(bands[len(basis) + 1])])

    def test_max_eigenvalue_stops_at_the_fixed_band(self):
        f, bands = _recording(max_eigenvalue_functional(2))
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(f)
        assert [len(band) for band in bands] == [4, 1, 4]
        assert np.array_equal(exc.value.probe.matrix, identity(2))

    def test_fixed_band_past_d45_reaches_the_formula_in_parts(self):
        # 8192 // 46^2 = 3 operators fit: the identity and the triple as 3 + 1
        f, bands = _recording(trace_functional(DensityMatrix.random(46, RNG(46))))
        reconstruct_density(f, probe_count=0)
        assert [len(band) for band in bands[-2:]] == [3, 1]
        assert all(band.size <= ef._BAND_CELLS for band in bands)
        assert np.array_equal(np.concatenate(bands[-2:]), ef._fixed_probes(46))

    def test_violation_on_identity_draws_no_random_probe(self, monkeypatch):
        draws = []
        original = ef.random_hermitian_stack

        def counting(dim, rng, count, *args):
            draws.extend([dim] * count)
            return original(dim, rng, count, *args)

        monkeypatch.setattr(ef, "random_hermitian_stack", counting)
        # the count below must not depend on which test drew these probes first
        ef._kept_probe_bands.cache_clear()
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(max_eigenvalue_functional(4))
        assert draws == []
        # every basis element has top eigenvalue 1, so the trace form reads 4 on I
        assert np.array_equal(exc.value.probe.matrix, identity(4))
        assert (exc.value.lhs, exc.value.rhs) == (1.0, 4.0)

        draws.clear()
        reconstruct_density(trace_functional(DensityMatrix.random(4, RNG(9))))
        assert draws == [4] * DEFAULT_PROBE_COUNT

        # a second reconstruction with the same (dim, seed, count) draws nothing
        draws.clear()
        reconstruct_density(trace_functional(DensityMatrix.random(4, RNG(10))))
        assert draws == []

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
        band = max(1, ef._BAND_CELLS // (dim * dim))
        drawn = min(count, (first // band + 1) * band)
        assert len(seen) == dim * dim + 1 + 4 + drawn
        assert all(np.array_equal(a, b) for a, b in zip(seen[-drawn:], probes[:drawn]))

    @pytest.mark.parametrize("value", [True, 2.5, 2.0], ids=["bool", "float", "whole-float"])
    def test_counts_and_seed_must_be_integers(self, value):
        f = trace_functional(DensityMatrix(identity(2) / 2))
        with pytest.raises(ValidationError, match="probe_count must be an integer"):
            reconstruct_density(f, probe_count=value)
        with pytest.raises(ValidationError, match="seed must be an integer"):
            reconstruct_density(f, seed=value)
        with pytest.raises(ValidationError, match="trials must be an integer"):
            check_linearity(f, value, 0)

    @pytest.mark.parametrize("seed", [[1, 2], np.array([1, 2]), RNG(1)], ids=["list", "array", "generator"])
    def test_seed_must_be_one_integer(self, seed):
        # a sequence would not hash as a cache key, and a Generator would
        # replay its first draws instead of advancing
        with pytest.raises(ValidationError, match="seed must be an integer"):
            reconstruct_density(trace_functional(DensityMatrix(identity(2) / 2)), seed=seed)

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

    def test_additivity_violation_json(self, capsys):
        assert run_command(["reconstruct", "--functional", "maxeig", "--format", "json"]) == 1
        obj = json.loads(capsys.readouterr().out)["verdict"]
        assert obj["kind"] == "b-prime-violation"
        assert obj["probe"]["dim"] == 2
        assert abs(obj["delta"] - (obj["lhs"] - obj["rhs"])) == 0.0

    @pytest.mark.parametrize("c", [0.75e-9, 1.5e-9, -0.75e-9, -1.5e-9])
    def test_probe_tolerance_is_lin_tol(self, c):
        # LIN_TOL = 1e-9: I/2's trace form plus c Re(r01) Im(r01) is I/2 on every basis
        # element, and misses it by |c| on the fixed probe SX + SY alone
        def evaluate(op):
            m = op.matrix
            return np.trace(m).real / 2 + c * m[0, 1].real * m[0, 1].imag

        f = ExpectationFunctional(2, evaluate=evaluate)
        if abs(c) < LIN_TOL:
            np.testing.assert_array_equal(reconstruct_density(f, 0).matrix, identity(2) / 2)
        else:
            with pytest.raises(AdditivityViolation):
                reconstruct_density(f, 0)


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _numpy_hermitian(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


class TestKeptProbeBands:
    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    @pytest.mark.parametrize("count", [0, 1, 5, 32])
    def test_equal_a_fresh_band_stream(self, dim, count):
        seed = 40 + dim + count
        rng, step = RNG(seed), max(1, ef._BAND_CELLS // (dim * dim))
        want = [random_hermitian_stack(dim, rng, min(step, count - start))
                for start in range(0, count, step)]
        got = ef._kept_probe_bands(dim, seed, count)
        assert len(got) == len(want)
        for band, fresh in zip(got, want):
            assert band.shape == fresh.shape and band.tobytes() == fresh.tobytes()
            assert not band.flags.writeable
            with pytest.raises(ValueError):
                band[0, 0, 0] = 1.0

    def test_cold_and_warm_reconstructions_agree(self):
        u0 = DensityMatrix.random(8, RNG(31))
        ef._kept_probe_bands.cache_clear()
        cold = reconstruct_density(trace_functional(u0), seed=77)
        hits = ef._kept_probe_bands.cache_info().hits
        warm = reconstruct_density(trace_functional(u0), seed=77)
        assert ef._kept_probe_bands.cache_info().hits == hits + 1
        assert cold.matrix.tobytes() == warm.matrix.tobytes()

    def test_cold_and_warm_report_the_same_violating_probe(self):
        # the kinked functional of test_failing_band_stops_at_its_first_failing_probe
        dim, seed, count = 16, 3, 64
        u0 = DensityMatrix.random(dim, RNG(12))

        def kink(m):
            return 1e-8 * np.abs(m[..., 0, 0] * m[..., 1, 1] * m[..., 2, 3])

        ranked = np.sort(kink(random_hermitian_stack(dim, RNG(seed), count)))
        tol = float(ranked[-4] + ranked[-3]) / 2
        f = ExpectationFunctional(dim, lambda r: np.vdot(r.matrix, u0.matrix).real + kink(r.matrix))
        ef._kept_probe_bands.cache_clear()
        reports = []
        for _ in range(2):
            with pytest.raises(AdditivityViolation) as exc:
                reconstruct_density(f, probe_count=count, seed=seed, lin_tol=tol)
            reports.append(exc.value)
        assert ef._kept_probe_bands.cache_info().hits == 1
        cold, warm = reports
        assert cold.probe.matrix.tobytes() == warm.probe.matrix.tobytes()
        assert (cold.lhs, cold.rhs) == (warm.lhs, warm.rhs)

    def test_over_budget_count_is_streamed(self):
        # 64 probes at d = 32 are twice the cache's per-key budget
        u0 = DensityMatrix.random(32, RNG(6))
        f = trace_functional(u0)
        ef._kept_probe_bands.cache_clear()
        tracemalloc.start()
        try:
            out = reconstruct_density(f, probe_count=64)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        info = ef._kept_probe_bands.cache_info()
        assert (info.currsize, info.misses) == (0, 0)
        assert peak < 1_000_000
        assert frobenius(out.matrix - u0.matrix) <= 1e-10


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

    Each comes under its name with the one-operator formula of the same
    value: tr(u r) and <phi|r|phi> as vdot, and the top of eigendecompose.
    """
    rho = DensityMatrix.random(dim, rng)
    phi = PureState.normalized(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))
    return {
        "trace": (trace_functional(rho), lambda r: float(np.vdot(r.matrix, rho.matrix).real)),
        "pure": (pure_state_functional(phi),
                 lambda r: float(np.vdot(phi.vector, r.matrix @ phi.vector).real)),
        "maxeig": (max_eigenvalue_functional(dim),
                   lambda r: float(eigendecompose(r).eigenvalues[-1])),
    }


def _black_box(f):
    # the same functional, evaluated one operator at a time
    return ExpectationFunctional(f.dim, f)


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
        for name, (f, one_operator) in _stack_functionals(dim, rng).items():
            for stack in (basis, probes):
                expected = [one_operator(HermitianOperator(m)) for m in stack]
                assert np.asarray(f._evaluate_stack(stack), dtype=float).tolist() == expected, name
                assert [f(HermitianOperator(m)) for m in stack] == expected, name

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_reconstruction_equals_black_box(self, dim):
        rng = RNG(100 + dim)
        for name, (f, _) in _stack_functionals(dim, rng).items():
            for kwargs in ({}, {"probe_count": 5, "seed": 3, "lin_tol": 1e-15}):
                assert _outcome(f, **kwargs) == _outcome(_black_box(f), **kwargs), name

    @pytest.mark.parametrize("dim", [2, 3, 4, 8, 16, 32])
    def test_linearity_report_equals_black_box(self, dim):
        rng = RNG(110 + dim)
        for name, (f, _) in _stack_functionals(dim, rng).items():
            assert check_linearity(f, 5, 7) == check_linearity(_black_box(f), 5, 7), name

    def test_a_functional_needs_a_formula(self):
        with pytest.raises(ValidationError, match="evaluate or evaluate_stack"):
            ExpectationFunctional(2)
        with pytest.raises(ValidationError, match="not both"):
            ExpectationFunctional(
                2, lambda r: r.trace(), evaluate_stack=lambda stack: np.trace(stack, axis1=1, axis2=2).real)

    @pytest.mark.parametrize("formula, one_operator_fails", [
        (lambda stack: stack[:1, 0, 0].real, False),
        (lambda stack: 0.5, True),
        (lambda stack: stack[:, 0, :1].real, True),
    ], ids=["one-value-per-band", "scalar", "column"])
    def test_formula_must_give_one_value_per_operator(self, formula, one_operator_fails):
        f = ExpectationFunctional(2, evaluate_stack=formula)
        with pytest.raises(ValidationError, match=r"expected shape \(4,\)"):
            reconstruct_density(f)
        with pytest.raises(ValidationError, match="band formula returned values of shape"):
            check_linearity(f, 3, 0)
        if one_operator_fails:
            with pytest.raises(ValidationError, match=r"expected shape \(1,\)"):
                f(SIGMA_X)
        else:
            assert f(SIGMA_Z) == 1.0

    def test_call_checks_the_dimension(self):
        f = trace_functional(DensityMatrix(identity(3) / 3))
        with pytest.raises(ValidationError, match="does not match functional dimension 3"):
            f(SIGMA_X)


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

    @pytest.mark.parametrize("dim, trials", [(2, 1), (3, 6), (8, 130), (32, 17)])
    def test_trials_are_the_documented_pairs(self, dim, trials):
        f, bands = _recording(max_eigenvalue_functional(dim))
        check_linearity(f, trials, seed=4)
        # each band of trials reaches the functional as a r + b s, then r, then s
        assert len(bands) % 3 == 0
        assert all(band.size <= ef._BAND_CELLS for band in bands)
        groups = [bands[i:i + 3] for i in range(0, len(bands), 3)]
        # the witness pair leads the first band, once, with unit weights
        combined, r, s = (band[:1] for band in groups[0])
        assert [band.tobytes() for band in (combined, r, s)] == [
            ef._fixed_probes(dim)[i:i + 1].tobytes() for i in (3, 1, 2)]
        counts = {"unrestricted": 0, "commuting": 0}
        for i, (combined, r, s) in enumerate(groups):
            if i == 0:
                combined, r, s = combined[1:], r[1:], s[1:]
            # a band's trials: as many unrestricted pairs, then commuting ones
            k = len(r) // 2
            assert len(r) == 2 * k and 0 < k <= max(1, (ef._BAND_CELLS // dim**2 - 1) // 2)
            for kind, low, part in (("unrestricted", -2.0, slice(k)), ("commuting", 0.0, slice(k, None))):
                for x, y in zip(r[part], s[part]):
                    commutes = frobenius(x @ y - y @ x) <= 1e-12 * frobenius(x) * frobenius(y)
                    assert commutes == (kind == "commuting")
                    # every pair reaches the formula exactly Hermitian
                    assert np.array_equal(x, x.conj().T) and np.array_equal(y, y.conj().T)
                    if commutes:
                        # both are increasing functions of one generator: in
                        # the eigenbasis of x, y is diagonal and increasing too
                        vectors = np.linalg.eigh(x)[1]
                        y_in_x = vectors.conj().T @ y @ vectors
                        assert np.all(np.diff(np.diag(y_in_x).real) > 0)
                for c, x, y in zip(combined[part], r[part], s[part]):
                    (a, b), *_ = np.linalg.lstsq(np.stack([x.ravel(), y.ravel()], axis=1), c.ravel())
                    assert abs(a.imag) <= 1e-12 and abs(b.imag) <= 1e-12
                    assert low <= a.real <= 2.0 and low <= b.real <= 2.0
                counts[kind] += k
        assert counts == {"unrestricted": trials, "commuting": trials}

    def test_dimension_one_has_no_witness(self):
        # the top eigenvalue of a 1 x 1 matrix is its entry, additive over any pair
        f, bands = _recording(max_eigenvalue_functional(1))
        report = check_linearity(f, 5, seed=2)
        assert not report.unrestricted_exceeds_tol and not report.commuting_exceeds_tol
        # one band: 5 unrestricted and 5 commuting trials, no witness pair
        assert [len(band) for band in bands] == [10] * 3

    def test_seed_fixes_the_report(self):
        for f in (max_eigenvalue_functional(3), _stack_functionals(3, RNG(8))["trace"][0]):
            assert check_linearity(f, 9, seed=21) == check_linearity(f, 9, seed=21)

    @pytest.mark.parametrize("trials", [7, 8, 9, 17])
    def test_verdicts_across_bands_of_eight(self, trials):
        # a 32 x 32 band holds at most 8 operators: the witness pair and 3
        # trials of each kind, so these counts end one past two whole bands,
        # a band early, a band exactly and across six bands
        f, bands = _recording(max_eigenvalue_functional(32))
        top = check_linearity(f, trials, seed=trials)
        assert top.unrestricted_exceeds_tol and not top.commuting_exceeds_tol
        sizes = [2 * min(3, trials - start) for start in range(0, trials, 3)]
        sizes[0] += 1
        assert [len(band) for band in bands] == [n for n in sizes for _ in range(3)]
        assert max(len(band) for band in bands) * 32 * 32 <= ef._BAND_CELLS
        trace = check_linearity(trace_functional(DensityMatrix.random(32, RNG(trials))),
                                trials, seed=trials)
        assert not trace.unrestricted_exceeds_tol and not trace.commuting_exceeds_tol

    def test_one_band_of_trials_is_three_formula_passes(self):
        # the witness pair and 3 trials of each kind fit one band at d = 1, 2, 8
        for dim in (1, 2, 8):
            f, bands = _recording(max_eigenvalue_functional(dim))
            check_linearity(f, 3, seed=5)
            assert [len(band) for band in bands] == [6 + (dim >= 2)] * 3

    @pytest.mark.parametrize("dim, parts", [(53, [2, 1]), (64, [2, 1]), (91, [1, 1, 1])])
    def test_bands_past_d52_reach_the_formula_in_parts(self, dim, parts):
        # one trial of each kind per band; the first band's 3 operators and
        # the second's 2 exceed 8192 cells, and each reaches the formula in
        # parts of as many operators as fit, one past d = 90
        f, bands = _recording(trace_functional(DensityMatrix.random(dim, RNG(dim))))
        report = check_linearity(f, 2, seed=dim)
        assert not report.unrestricted_exceeds_tol and not report.commuting_exceeds_tol
        second = [2] if dim <= 64 else [1, 1]
        assert [len(band) for band in bands] == parts * 3 + second * 3
        assert all(len(band) == 1 or band.size <= ef._BAND_CELLS for band in bands)

    @pytest.mark.parametrize("dim", [1, 2, 3, 8, 32])
    def test_report_equals_separate_passes(self, dim):
        # reference: the same draws, with the witness pair, the unrestricted
        # and the commuting trials each evaluated as a band of its own
        def deviation(f, r, s, a, b):
            def values(band):
                return np.asarray(f._evaluate_stack(band), dtype=float)

            combined = values(r * a[:, None, None] + s * b[:, None, None])
            return np.max(np.abs(combined - a * values(r) - b * values(s)))

        def separate(f, trials, seed):
            rng = RNG(seed)
            fixed = ef._fixed_probes(dim)
            unrestricted = []
            if dim > 1:
                unrestricted.append(deviation(f, fixed[1:2], fixed[2:3], np.ones(1), np.ones(1)))
            r, s = random_hermitian_stack(dim, rng, 2 * trials).reshape(2, trials, dim, dim)
            unrestricted.append(deviation(f, r, s, *rng.uniform(-2.0, 2.0, size=(2, trials))))
            vectors = np.linalg.eigh(random_hermitian_stack(dim, rng, trials))[1]
            tables = np.cumsum(rng.uniform(0.1, 1.0, size=(2, trials, 1, dim)), axis=-1)
            tables += rng.uniform(-2.0, 0.0, size=(2, trials, 1, 1))
            joint = (vectors * tables) @ vectors.conj().swapaxes(-1, -2)
            r, s = (joint + joint.conj().swapaxes(-1, -2)) / 2
            commuting = deviation(f, r, s, *rng.uniform(0.0, 2.0, size=(2, trials)))
            return float(np.max(unrestricted)), float(commuting)

        for name, (f, _) in _stack_functionals(dim, RNG(120 + dim)).items():
            for trials in (1, 2, 3):
                for seed in (0, 7):
                    report = check_linearity(f, trials, seed)
                    got = (report.unrestricted_max_deviation, report.commuting_max_deviation)
                    assert got == separate(f, trials, seed), (name, trials, seed)


def _recording(f):
    # f's own stack formula, also keeping a copy of every band handed to it
    bands = []

    def evaluate_stack(stack):
        bands.append(stack.copy())
        return f._evaluate_stack(stack)

    return ExpectationFunctional(f.dim, evaluate_stack=evaluate_stack), bands


class TestDispersion:
    # the dispersion of op under f is f(op op) - f(op)^2
    def test_eigenstate_has_none(self):
        f = pure_state_functional(PureState.from_label("z+"))
        assert abs(f(SIGMA_Z @ SIGMA_Z) - f(SIGMA_Z) ** 2) <= 1e-12

    def test_transverse_operator_has_unit_dispersion(self):
        f = pure_state_functional(PureState.from_label("z+"))
        assert abs(f(SIGMA_X @ SIGMA_X) - f(SIGMA_X) ** 2 - 1.0) <= 1e-12

    def test_maximally_mixed_sigma_z(self):
        f = trace_functional(DensityMatrix(identity(2) / 2))
        assert abs(f(SIGMA_Z @ SIGMA_Z) - f(SIGMA_Z) ** 2 - 1.0) <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_trace_form_dispersion_nonnegative(self, dim):
        rng = RNG(40 + dim)
        for _ in range(20):
            u = DensityMatrix.random(dim, rng)
            f = trace_functional(u)
            op = random_hermitian(dim, rng)
            assert f(op.matrix @ op.matrix) - f(op) ** 2 >= -LIN_TOL


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

    @pytest.mark.parametrize("k", [0.75, 1.5, -0.75, -1.5])
    def test_eigenvalue_gap_is_dm_gap(self, k):
        # DM_GAP = 1e-6: the eigenvalue nearest 1/2 at p = 0.75e-6 from 0 (k > 0) or from 1
        # (k < 0) counts as pure, with a witness of dispersion 1/4; at 1.5e-6 its projector
        # is the witness, of dispersion p - p^2
        p = abs(k) * 1e-6
        diagonal = [1 - p, p] if k > 0 else [p / 2, p / 2, 1 - p]
        _, d = dispersion_witness(DensityMatrix(np.diag(diagonal)))
        assert d == pytest.approx(0.25 if abs(k) < 1 else p - p * p, rel=1e-6)


class TestPureStateExpectation:
    def test_eigenstate(self):
        f = pure_state_functional(PureState.from_label("z+"))
        assert f(HermitianOperator(SIGMA_Z)) == 1.0

    def test_x_eigenstate(self):
        val = pure_state_functional(PureState.from_label("x+"))(HermitianOperator(SIGMA_X))
        assert abs(val - 1.0) <= 1e-12

    def test_additivity_is_exact_for_this_case(self):
        f = pure_state_functional(PureState.from_label("z+"))
        combined = f(HermitianOperator(SIGMA_X + SIGMA_Y))
        separate = f(HermitianOperator(SIGMA_X)) + f(HermitianOperator(SIGMA_Y))
        assert combined == 0.0
        assert combined == separate

    @pytest.mark.parametrize("dim", [2, 3, 4])
    def test_bilinear_additivity_any_pair(self, dim):
        # the inner-product form is additive for arbitrary operator pairs,
        # commuting or not
        rng = RNG(60 + dim)
        for _ in range(20):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            f = pure_state_functional(PureState.normalized(v))
            r = random_hermitian(dim, rng)
            s = random_hermitian(dim, rng)
            lhs = f(r + s)
            rhs = f(r) + f(s)
            assert abs(lhs - rhs) <= 1e-12

    def test_dim_mismatch(self):
        with pytest.raises(ValidationError):
            pure_state_functional(PureState([1.0, 0.0, 0.0]))(HermitianOperator(SIGMA_X))

    def test_large_operator_matches_numpy(self):
        # |<v|M|v>| ~ 3.2e9 with a roundoff imaginary part ~ 2e-7
        a = 1234.567 * SIGMA_X + 987.654 * SIGMA_Y + 345.123 * SIGMA_Z
        m = a @ a @ a
        phi = PureState.from_label("x+")
        expected = np.vdot(phi.vector, m @ phi.vector).real
        got = pure_state_functional(phi)(HermitianOperator(m))
        assert abs(got - expected) <= 1e-12 * abs(expected)


class TestTraceFormLinearity:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_additive_on_noncommuting_pairs(self, dim):
        # the quantum peculiarity: trace forms are additive even where the
        # operators fail to commute
        rng = RNG(70 + dim)
        u = DensityMatrix.random(dim, rng)
        f = trace_functional(u)
        probes = ef._fixed_probes(dim)[1:]
        lhs = f(probes[2])
        rhs = f(probes[0]) + f(probes[1])
        assert abs(lhs - rhs) <= 1e-12
