"""Qubit subensemble model tests.

Oracles: eigenvalues from numpy.linalg.eigvalsh for spectrum membership,
a midpoint Riemann sum as an independent check on the closed-form average,
hand-worked outcome tables for the structured examples, and readout rules
applied to outcomes for functional composition.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from dispersionless import cli, hidden_variables

from dispersionless.expectation_functionals import (
    AdditivityViolation,
    ExpectationFunctional,
    FunctionalViolation,
    PureState,
    check_linearity,
    hermitian_basis,
    pure_state_functional,
    reconstruct_density,
)
from dispersionless.hidden_variables import (
    DELTA_TOL,
    SubensembleReport,
    UnsupportedDimensionError,
    additivity_violation_report,
    assign_value,
    average_over_lambda,
    lambda_grid,
    subensemble_functional,
)
from dispersionless.operator_core import (
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    ValidationError,
    apply_function,
    identity,
    random_hermitian,
    random_hermitian_stack,
)

RNG = np.random.default_rng
Z_PLUS = PureState.from_label("z+")

# axes with exactly-zero Pauli components, where roundoff once picked the sign
ZERO_COMPONENT_AXES = {
    "SX+SY": SIGMA_X + SIGMA_Y,
    "SY-SZ": SIGMA_Y - SIGMA_Z,
    "SX-SZ": SIGMA_X - SIGMA_Z,
    "SY": SIGMA_Y,
}
OUTCOME_MAPS = {
    "-x": lambda x: -x,
    "|x|": abs,
    "x^2": lambda x: x * x,
    "x^3-x": lambda x: x**3 - x,
}


def random_qubit_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState.normalized(v)


def reference_assignment(phi, lam, m):
    """The model worked one matrix at a time: its Pauli coefficients, their
    norm, the signed axis and the sign of lambda + (Bloch . axis) / 2."""
    base = float(np.trace(m).real) / 2.0
    v = np.array([m[0, 1].real + m[1, 0].real, m[1, 0].imag - m[0, 1].imag,
                  m[0, 0].real - m[1, 1].real]) / 2.0
    norm = float(np.linalg.norm(v))
    if norm == 0.0:
        return base
    axis = v / norm
    if axis[np.abs(axis) > DELTA_TOL][0] < 0.0:
        norm, axis = -norm, -axis
    projection = float(phi.bloch() @ axis)
    return base + norm * (1.0 if lam + 0.5 * projection >= -DELTA_TOL else -1.0)


class TestHiddenParameter:
    def test_range_enforced(self):
        r, s = HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y)
        for lam in (0.5, -0.5):
            assign_value(Z_PLUS, lam, r)
            additivity_violation_report(Z_PLUS, r, s, [lam])
        with pytest.raises(ValidationError):
            assign_value(Z_PLUS, 0.6, r)
        with pytest.raises(ValidationError):
            additivity_violation_report(Z_PLUS, r, s, [0.6])

    def test_grid_is_inclusive_and_uniform(self):
        grid = lambda_grid(5)
        assert grid.tolist() == [-0.5, -0.25, 0.0, 0.25, 0.5]
        with pytest.raises(ValidationError):
            lambda_grid(1)

    @pytest.mark.parametrize("bad, shown", [
        (0.6, "0.6"), (float("nan"), "nan"), (-0.5000001, "-0.5000001"),
    ])
    def test_out_of_range_array_names_the_value_as_a_float(self, bad, shown):
        r, s = HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y)
        lams = np.array([0.0, 0.25, bad, 0.7])
        message = f"hidden parameter {shown} outside [-0.5, 0.5]"
        with pytest.raises(ValidationError) as exc:
            additivity_violation_report(Z_PLUS, r, s, lams)
        assert str(exc.value) == message
        for call in (lambda: assign_value(Z_PLUS, np.float64(bad), r),
                     lambda: subensemble_functional(Z_PLUS, bad)):
            with pytest.raises(ValidationError) as exc:
                call()
            assert str(exc.value) == message

    def test_report_needs_a_one_dimensional_lambda_list(self):
        r, s = HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y)
        for lams in (0.25, [[0.0, 0.25]]):
            with pytest.raises(ValidationError):
                additivity_violation_report(Z_PLUS, r, s, lams)


class TestAssignValue:
    def test_eigenstate_always_reads_its_eigenvalue(self):
        for lam in np.linspace(-0.5, 0.5, 21):
            assert assign_value(Z_PLUS, lam, HermitianOperator(SIGMA_Z)) == 1.0

    def test_transverse_axis_splits_on_lambda_sign(self):
        op = HermitianOperator(SIGMA_X)
        assert assign_value(Z_PLUS, 0.3, op) == 1.0
        assert assign_value(Z_PLUS, -0.3, op) == -1.0

    def test_identity_reads_one(self):
        for lam in (-0.5, 0.0, 0.2, 0.5):
            assert assign_value(Z_PLUS, lam, HermitianOperator(identity(2))) == 1.0

    def test_dimension_guard(self):
        with pytest.raises(UnsupportedDimensionError):
            assign_value(Z_PLUS, 0.0, HermitianOperator(identity(3)))

    @pytest.mark.parametrize("seed", range(5))
    def test_spectrum_membership(self, seed):
        rng = RNG(900 + seed)
        for _ in range(200):
            phi = random_qubit_state(rng)
            lam = rng.uniform(-0.5, 0.5)
            op = random_hermitian(2, rng)
            value = assign_value(phi, lam, op)
            eigs = np.linalg.eigvalsh(op.matrix)
            assert np.min(np.abs(eigs - value)) <= 1e-9

    @pytest.mark.parametrize("seed", range(5))
    def test_dispersion_free(self, seed):
        rng = RNG(950 + seed)
        for _ in range(200):
            phi = random_qubit_state(rng)
            lam = rng.uniform(-0.5, 0.5)
            op = random_hermitian(2, rng)
            square = HermitianOperator(op.matrix @ op.matrix)
            left = assign_value(phi, lam, square)
            right = assign_value(phi, lam, op) ** 2
            assert abs(left - right) <= 1e-12

    def test_dispersion_free_with_negative_trace_part(self):
        # squared operators flip the axis weight when the trace part is
        # negative; the shared axis keeps the outcome consistent
        op = HermitianOperator(SIGMA_X - 0.5 * identity(2).real)
        square = HermitianOperator(op.matrix @ op.matrix)
        for lam in (-0.4, -0.1, 0.0, 0.2, 0.5):
            assert abs(
                assign_value(Z_PLUS, lam, square) - assign_value(Z_PLUS, lam, op) ** 2
            ) <= 1e-12

    def test_function_compatibility_along_shared_axis(self):
        # readout functions act on outcomes: decreasing maps included
        rng = RNG(77)
        for _ in range(100):
            phi = random_qubit_state(rng)
            lam = rng.uniform(-0.5, 0.5)
            op = random_hermitian(2, rng)
            coeffs = rng.uniform(-2, 2, size=4)
            m = op.matrix
            poly_op = HermitianOperator(
                coeffs[0] * identity(2) + coeffs[1] * m
                + coeffs[2] * m @ m + coeffs[3] * m @ m @ m
            )
            direct = assign_value(phi, lam, poly_op)
            x = assign_value(phi, lam, op)
            through_outcome = coeffs[0] + coeffs[1] * x + coeffs[2] * x**2 + coeffs[3] * x**3
            assert abs(direct - through_outcome) <= 1e-9


    def test_roundoff_in_an_axis_component_does_not_flip_outcomes(self):
        # z+ has Bloch vector (0, 0, 1), so a y-axis threshold is lambda itself
        for op in (SIGMA_Y, SIGMA_Y - 1e-15 * SIGMA_X):
            outcomes = [assign_value(Z_PLUS, lam, HermitianOperator(op)) for lam in (-0.3, 0.3)]
            assert outcomes == [-1.0, 1.0]

    @pytest.mark.parametrize("label, op", [
        ("x+", SIGMA_X), ("y+", SIGMA_Y), ("z+", SIGMA_Z),
    ])
    def test_cardinal_eigenstates_read_plus_one_everywhere(self, label, op):
        # the threshold lambda + 1/2 is 0 at lambda = -1/2: the tie reads +1
        phi = PureState.from_label(label)
        op = HermitianOperator(op)
        grid = lambda_grid(11)
        assert [assign_value(phi, lam, op) for lam in grid] == [1.0] * 11
        report = additivity_violation_report(phi, op, op, grid)
        assert [sample.value_r for sample in report.samples] == [1.0] * 11

    @given(
        label=st.sampled_from(["z+", "z-", "x+", "x-", "y+", "y-"]),
        axis=st.sampled_from(sorted(ZERO_COMPONENT_AXES)),
        a=st.sampled_from([-2.5, -1.0, 0.5, 1.0, 3.0]),
        c=st.sampled_from([-1.5, 0.0, 0.25, 2.0]),
        f=st.sampled_from(sorted(OUTCOME_MAPS)),
        lam=st.integers(1, 12).flatmap(
            lambda n: st.sampled_from(lambda_grid(2 * n + 1).tolist())
        ),
    )
    @example(label="z+", axis="SX+SY", a=1.0, c=0.0, f="-x", lam=0.0)
    def test_outcomes_compose_with_readout_functions(self, label, axis, a, c, f, lam):
        phi = PureState.from_label(label)
        rule = OUTCOME_MAPS[f]
        op = HermitianOperator(a * ZERO_COMPONENT_AXES[axis] + c * identity(2))
        mapped = apply_function(rule, op)
        assert assign_value(phi, lam, mapped) == pytest.approx(
            rule(assign_value(phi, lam, op)), abs=1e-9
        )


class TestAverageOverLambda:
    def test_eigenstate(self):
        assert average_over_lambda(Z_PLUS, HermitianOperator(SIGMA_Z)) == 1.0

    def test_transverse(self):
        assert average_over_lambda(Z_PLUS, HermitianOperator(SIGMA_X)) == 0.0

    def test_tilted_pair(self):
        phi = PureState.from_label("x+")
        got = average_over_lambda(phi, HermitianOperator(SIGMA_X + SIGMA_Y))
        assert abs(got - 1.0) <= 1e-12

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_quantum_expectation(self, seed):
        rng = RNG(1000 + seed)
        for _ in range(100):
            phi = random_qubit_state(rng)
            op = random_hermitian(2, rng)
            closed = average_over_lambda(phi, op)
            quantum = pure_state_functional(phi)(op)
            assert abs(closed - quantum) <= 1e-12

    def test_against_riemann_sum(self):
        # independent route: midpoint rule over a fine grid
        rng = RNG(5)
        phi = random_qubit_state(rng)
        op = random_hermitian(2, rng)
        n = 20001
        xs = (np.arange(n) + 0.5) / n - 0.5
        approx = float(np.mean([assign_value(phi, x, op) for x in xs]))
        assert abs(approx - average_over_lambda(phi, op)) <= 2e-3


class TestAdditivityReport:
    def test_noncommuting_pair_violates_everywhere(self):
        report = additivity_violation_report(
            Z_PLUS,
            HermitianOperator(SIGMA_X),
            HermitianOperator(SIGMA_Y),
            lambda_grid(1000),
        )
        assert report.violation_fraction == 1.0
        assert abs(report.avg_delta) <= 1e-12
        for sample in report.samples:
            assert sample.value_sum in (
                pytest.approx(math.sqrt(2)), pytest.approx(-math.sqrt(2))
            )
            assert sample.value_r + sample.value_s in (
                pytest.approx(-2.0), pytest.approx(0.0), pytest.approx(2.0)
            )
        assert np.all(np.abs(report.deltas) >= 2.0 - math.sqrt(2) - 1e-12)

    def test_commuting_pair_never_violates(self):
        report = additivity_violation_report(
            Z_PLUS,
            HermitianOperator(SIGMA_Z),
            HermitianOperator(np.diag([3.0, 7.0])),
            lambda_grid(1000),
        )
        assert report.violation_fraction == 0.0
        assert report.deltas.tolist() == [0.0] * 1000
        assert abs(report.avg_delta) <= 1e-12

    def test_scaled_operator_is_exactly_additive(self):
        report = additivity_violation_report(
            Z_PLUS,
            HermitianOperator(SIGMA_X),
            HermitianOperator(2.0 * SIGMA_X),
            lambda_grid(500),
        )
        assert report.violation_fraction == 0.0
        assert report.deltas.tolist() == [0.0] * 500

    def test_averages_match_quantum_values(self):
        rng = RNG(12)
        phi = random_qubit_state(rng)
        r = random_hermitian(2, rng)
        s = random_hermitian(2, rng)
        report = additivity_violation_report(phi, r, s, lambda_grid(100))
        assert abs(report.average_r - report.quantum_r) <= 1e-12
        assert abs(report.average_s - report.quantum_s) <= 1e-12
        assert abs(report.average_sum - report.quantum_sum) <= 1e-12

    @pytest.mark.parametrize("scale", [1e-6, 1.0, 1e6])
    def test_quantum_values_are_pure_state_expectations(self, scale):
        # <phi|X|phi> for X = R, S, R + S, against the one-operator formula,
        # within a few ulps of the size of X
        rng = RNG(int(1300 + math.log10(scale)))
        ulp = np.finfo(np.float64).eps
        for _ in range(200):
            phi = random_qubit_state(rng)
            r = HermitianOperator(random_hermitian(2, rng).matrix * float(scale * rng.uniform(0.1, 10)))
            s = HermitianOperator(random_hermitian(2, rng).matrix * float(scale * rng.uniform(0.1, 10)))
            report = additivity_violation_report(phi, r, s, [0.0])
            for value, op in ((report.quantum_r, r), (report.quantum_s, s),
                              (report.quantum_sum, r + s)):
                assert abs(value - pure_state_functional(phi)(op)) <= 4 * ulp * op.norm()

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_pointwise_assignment(self, seed):
        # the per-point loop is the reference for the array evaluation
        rng = RNG(1200 + seed)
        phi = random_qubit_state(rng)
        r, s = random_hermitian(2, rng), random_hermitian(2, rng)
        grid = lambda_grid(101)
        report = additivity_violation_report(phi, r, s, grid)
        for lam, sample in zip(grid.tolist(), report.samples):
            assert sample.lam == lam
            assert sample.value_r == assign_value(phi, lam, r)
            assert sample.value_s == assign_value(phi, lam, s)
            assert sample.value_sum == assign_value(phi, lam, r + s)
        assert report.average_sum == average_over_lambda(phi, r + s)

    def test_one_decomposition_per_operator(self, monkeypatch):
        calls = []
        original = hidden_variables._axis_decomposition

        def counting(stack):
            calls.append(len(stack))
            return original(stack)

        monkeypatch.setattr(hidden_variables, "_axis_decomposition", counting)
        r, s = HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y)
        for size in (2, 11, 500):
            calls.clear()
            additivity_violation_report(Z_PLUS, r, s, lambda_grid(size))
            # r, s and r + s, decomposed together as one band
            assert calls == [3]
        calls.clear()
        assign_value(Z_PLUS, 0.1, r)
        assert calls == [1]

    def test_overflow_in_the_split_is_refused(self):
        # 1.5e308 * SZ has its z coefficient (f0 - f6) / 2 past the float range
        r, s = HermitianOperator(1.5e308 * SIGMA_Z), HermitianOperator(SIGMA_Y)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc:
            additivity_violation_report(Z_PLUS, r, s, lambda_grid(3))
        assert str(exc.value) == "overflow encountered in add"

    @pytest.mark.parametrize("lambdas", [lambda_grid(5), [-0.5]], ids=["grid", "one"])
    def test_outcome_overflow_refused_before_the_quantum_values(self, lambdas):
        # at the top eigenvector of 8e307 (I + SX + SZ) both its top outcome
        # 1.93e308 and its quantum value pass the float range; the outcomes
        # are refused first, numpy's "add"
        r = HermitianOperator(8e307 * (identity(2) + SIGMA_X + SIGMA_Z))
        phi = PureState([math.cos(math.pi / 8), math.sin(math.pi / 8)])
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as exc:
            additivity_violation_report(phi, r, HermitianOperator(SIGMA_Y), lambdas)
        assert str(exc.value) == "overflow encountered in add"

    def test_sum_refused_as_its_operator_is(self):
        # each of r and s is Hermitian relative to its own size; the sum
        # keeps only their anti-Hermitian parts, which it is refused for
        rng = RNG(17)
        h = random_hermitian(2, rng).matrix
        a = 1e-4 * np.array([[0, 1], [-1, 0]], dtype=complex)
        r, s = HermitianOperator(1e7 * h + a), HermitianOperator(-1e7 * h + a)
        with pytest.raises(ValidationError) as want:
            HermitianOperator(r.matrix + s.matrix)
        with pytest.raises(ValidationError) as got:
            additivity_violation_report(Z_PLUS, r, s, lambda_grid(3))
        assert str(got.value) == str(want.value)
        assert str(got.value).startswith("matrix is not Hermitian")

    @pytest.mark.parametrize("seed", range(3))
    def test_rows_match_the_band_functional(self, seed):
        # the report and the functional apply one formula, to a band or to f(op)
        rng = RNG(1600 + seed)
        phi = random_qubit_state(rng)
        r, s = random_hermitian(2, rng), random_hermitian(2, rng)
        grid = lambda_grid(257)
        report = additivity_violation_report(phi, r, s, grid)
        band = np.array([r.matrix, s.matrix, (r + s).matrix])
        for i in rng.choice(grid.size, 12, replace=False).tolist() + [0, grid.size - 1]:
            f = subensemble_functional(phi, grid[i])
            row = [report.values_r[i], report.values_s[i], report.values_sum[i]]
            assert np.asarray(f._evaluate_stack(band), dtype=float).tolist() == row
            assert [f(r), f(s), f(r + s)] == row

    @pytest.mark.parametrize("lambdas", [lambda_grid(10), [0.1], []], ids=["grid", "one", "empty"])
    def test_violation_fraction_is_a_python_float(self, lambdas):
        # as every other report number is, so it reads 1.0, not np.float64(1.0)
        report = additivity_violation_report(
            Z_PLUS, HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y), lambdas
        )
        assert type(report.violation_fraction) is float

    def test_json_schema(self):
        report = additivity_violation_report(
            Z_PLUS, HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y), lambda_grid(4)
        )
        obj = json.loads(cli._hv_demo_json(report))
        assert set(obj) == {"schema", "command", "passed", "phi", "pairs", "avg_delta",
                            "violation_fraction"}
        assert obj["phi"] == [[1.0, 0.0], [0.0, 0.0]]
        assert len(obj["pairs"]) == 4
        assert set(obj["pairs"][0]) == {"lambda", "vR", "vS", "vRplusS", "delta"}

    @pytest.mark.parametrize("seed", range(3))
    def test_json_pairs_match_samples(self, seed):
        rng = RNG(1300 + seed)
        phi = random_qubit_state(rng)
        r, s = random_hermitian(2, rng), random_hermitian(2, rng)
        report = additivity_violation_report(phi, r, s, rng.uniform(-0.5, 0.5, size=57))
        pairs = json.loads(cli._hv_demo_json(report))["pairs"]
        assert len(pairs) == len(report.samples) == 57
        for pair, sample, delta in zip(pairs, report.samples, report.deltas.tolist()):
            assert pair == {"lambda": sample.lam, "vR": sample.value_r, "vS": sample.value_s,
                            "vRplusS": sample.value_sum, "delta": delta}
            assert delta == sample.value_sum - sample.value_r - sample.value_s
            assert all(type(v) is float for v in pair.values())

    def test_columns_are_read_only_copies(self):
        lams = np.array([-0.5, -0.1, 0.2, 0.5])
        report = additivity_violation_report(
            Z_PLUS, HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y), lams
        )
        before = cli._hv_demo_json(report)
        for column in (report.lambdas, report.values_r, report.values_s, report.values_sum):
            with pytest.raises(ValueError):
                column[0] = 0.0
        lams[:] = 0.0
        assert report.lambdas.tolist() == [-0.5, -0.1, 0.2, 0.5]
        assert cli._hv_demo_json(report) == before

    def test_empty_lambda_list(self):
        report = additivity_violation_report(
            Z_PLUS, HermitianOperator(SIGMA_X), HermitianOperator(SIGMA_Y), []
        )
        assert report.violation_fraction == 0.0
        assert report.samples == ()
        assert json.loads(cli._hv_demo_json(report))["pairs"] == []


def _violations(phi_label, r, s):
    phi = PureState.from_label(phi_label)
    report = additivity_violation_report(
        phi, HermitianOperator(r), HermitianOperator(s), lambda_grid(1000)
    )
    return report.violation_fraction


class TestViolationScale:
    """A delta counts relative to the outcomes it compares, so verdicts ignore scale."""

    def test_large_parallel_pair_is_additive(self):
        r = 1e8 * (SIGMA_X + 0.3 * SIGMA_Z)
        assert _violations("x+", r, 0.7 * r + 0.3e8 * identity(2)) == 0.0

    def test_unit_parallel_pair_is_additive(self):
        r = SIGMA_X + 0.3 * SIGMA_Z
        assert _violations("x+", r, 0.7 * r + 0.3 * identity(2)) == 0.0

    def test_tiny_non_commuting_pair_violates_like_unit_scale(self):
        assert _violations("x+", SIGMA_X, SIGMA_Y) == 1.0
        assert _violations("x+", 1e-10 * SIGMA_X, 1e-10 * SIGMA_Y) == 1.0

    def test_identity_multiples_are_additive(self):
        assert _violations("x+", 2 * identity(2), 3 * identity(2)) == 0.0

    @given(
        seed=st.integers(0, 2**32 - 1),
        exponent=st.floats(-6.0, 6.0),
        parallel=st.booleans(),
    )
    def test_verdict_is_scale_covariant(self, seed, exponent, parallel):
        rng = RNG(seed)
        phi = random_qubit_state(rng)
        r = random_hermitian(2, rng)
        if parallel:
            a, c = rng.uniform(-2.0, 2.0, size=2)
            s = HermitianOperator(a * r.matrix + c * identity(2))
        else:
            s = random_hermitian(2, rng)
        grid = lambda_grid(64)
        unit = additivity_violation_report(phi, r, s, grid).violation_fraction
        scale = 10.0 ** exponent
        scaled = additivity_violation_report(phi, scale * r.matrix, scale * s.matrix, grid)
        assert scaled.violation_fraction == unit
        assert unit == (0.0 if parallel else 1.0)

    @pytest.mark.parametrize("k", [0.75, 1.5, -0.75, -1.5])
    def test_delta_tolerance_is_delta_tol(self, k):
        # DELTA_TOL = 1e-9 of |vR| + |vS| + |vRplusS| = 4: a delta of 0.75 of 4e-9, either
        # sign, is no violation, and one of 1.5 of it is
        one = np.array([1.0])
        report = SubensembleReport(PureState.from_label("z+"), np.array([0.0]), one, one,
                                   np.array([2 + k * 4e-9]), *[0.0] * 6)
        assert report.violation_fraction == (0.0 if abs(k) < 1 else 1.0)


class TestAxisDecomposition:
    @given(seed=st.integers(0, 2**32 - 1), exponent=st.integers(-300, 300))
    def test_weight_is_the_vecdot_norm_at_any_scale(self, seed, exponent):
        # np.vecdot contracts with FMA where a Python sum of squares rounds
        # twice; scaling by 2^k moves no bit of the norm or the axis
        v = RNG(seed).uniform(-1.0, 1.0, 3)
        v = np.ldexp(v, -np.frexp(np.abs(v).max())[1])
        x, y, z = v * 2.0**exponent
        m = np.array([[z, x - 1j * y], [x + 1j * y, -z]])
        _, weight, axis = hidden_variables._axis_decomposition(m[None])
        norm = float(np.sqrt(np.vecdot(v, v)))
        assert abs(weight[0]) == math.ldexp(norm, exponent)
        assert (np.copysign(1.0, weight[0]) * axis[0]).tolist() == (v / norm).tolist()


class TestSubensembleFunctional:
    def test_dispersion_free_on_sigma_x(self):
        f = subensemble_functional(Z_PLUS, 0.3)
        # f(op op) - f(op)^2 for op = SX
        assert f(SIGMA_X @ SIGMA_X) - f(SIGMA_X) ** 2 == 0.0

    def test_normalized(self):
        for lam in (-0.5, -0.2, 0.0, 0.4, 0.5):
            f = subensemble_functional(Z_PLUS, lam)
            assert f(HermitianOperator(identity(2))) == 1.0

    def test_reconstruction_blames_additivity(self):
        f = subensemble_functional(Z_PLUS, 0.3)
        with pytest.raises(AdditivityViolation) as exc:
            reconstruct_density(f)
        # the probe that exposes it is the non-commuting sum
        assert abs(abs(exc.value.delta) - (2.0 - math.sqrt(2))) <= 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_never_blames_normalization(self, seed):
        rng = RNG(1100 + seed)
        for _ in range(25):
            phi = random_qubit_state(rng)
            lam = rng.uniform(-0.5, 0.5)
            f = subensemble_functional(phi, lam)
            with pytest.raises(FunctionalViolation) as exc:
                reconstruct_density(f)
            assert isinstance(exc.value, AdditivityViolation)

    @pytest.mark.parametrize("seed", range(4))
    def test_band_values_equal_one_matrix_formula(self, seed):
        # equal bits, not a tolerance: the band formula is the per-matrix one
        rng = RNG(1400 + seed)
        phi = random_qubit_state(rng)
        lam = float(rng.uniform(-0.5, 0.5))
        f = subensemble_functional(phi, lam)
        bands = [
            np.array([op.matrix for op in hermitian_basis(2)]),
            random_hermitian_stack(2, rng, 64) * 10.0 ** rng.uniform(-8, 8, size=(64, 1, 1)),
            np.array([0.0 * SIGMA_X, 3.0 * identity(2), -SIGMA_Y, SIGMA_Y - SIGMA_Z,
                      SIGMA_Z + 1e-12 * SIGMA_X, -SIGMA_Z + 1e-12 * SIGMA_X]),
        ]
        for band in bands:
            expected = [reference_assignment(phi, lam, m) for m in band]
            assert np.asarray(f._evaluate_stack(band), dtype=float).tolist() == expected
            assert [f(m) for m in band] == expected
            assert [assign_value(phi, lam, m) for m in band] == expected

    @pytest.mark.parametrize("seed", range(3))
    def test_reconstruction_equals_black_box(self, seed):
        rng = RNG(1500 + seed)
        phi = random_qubit_state(rng)
        lam = float(rng.uniform(-0.5, 0.5))
        f = subensemble_functional(phi, lam)
        black_box = ExpectationFunctional(2, lambda r: assign_value(phi, lam, r))
        outcomes = []
        for g in (f, black_box):
            with pytest.raises(AdditivityViolation) as exc:
                reconstruct_density(g, probe_count=5, seed=seed)
            outcomes.append((exc.value.probe.matrix.tobytes(), exc.value.lhs, exc.value.rhs))
        assert outcomes[0] == outcomes[1]
        assert check_linearity(f, 5, seed) == check_linearity(black_box, 5, seed)

    def test_value_assignment_is_callable(self):
        f = subensemble_functional(Z_PLUS, 0.25)
        assert f(HermitianOperator(SIGMA_Z)) == 1.0
        assert repr(f) == "ExpectationFunctional(dim=2)"
