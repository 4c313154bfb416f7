"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
Every tolerance is pinned here; nothing is deferred to calibration.
"""

import json
import math
import time

import numpy as np

from dispersionless.cli import run_command
from dispersionless.expectation_functionals import (
    AdditivityViolation,
    DensityMatrix,
    FunctionalViolation,
    PureState,
    check_linearity,
    dispersion_witness,
    max_eigenvalue_functional,
    reconstruct_density,
    trace_functional,
)
from dispersionless.hidden_variables import (
    ValueAssignment,
    HiddenParameter,
    average_over_lambda,
    subensemble_functional,
)
from dispersionless.operator_core import (
    HermitianOperator,
    SIGMA_X,
    SIGMA_Y,
    apply_function,
    eigendecompose,
    frobenius,
    indicator_outside,
    random_hermitian,
)
from dispersionless.symmetrized_algebra import (
    joint_measurability_witness,
    verify_appendix1_chain,
)

RNG = np.random.default_rng


def _line(number: int, ok: bool, detail: str):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {number}: {detail}")
    assert ok, f"criterion {number} failed: {detail}"


def _random_unitary(dim, rng):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(g)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _commuting_pair(dim, rng):
    # inverse construction: both operators are table readouts of one
    # generator with integer spectrum; coarse-grid tables make degenerate
    # readout values routine
    q = _random_unitary(dim, rng)
    fvals = rng.integers(-30, 31, size=dim) / 10.0
    gvals = rng.integers(-30, 31, size=dim) / 10.0
    r = HermitianOperator(q @ np.diag(fvals) @ q.conj().T)
    s = HermitianOperator(q @ np.diag(gvals) @ q.conj().T)
    return r, s


def _random_qubit_state(rng):
    v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    return PureState.normalized(v)


def test_criterion_1_identity_chain():
    start = time.perf_counter()
    report = verify_appendix1_chain()
    exit_code = run_command(["verify-appendix1"])
    elapsed = time.perf_counter() - start
    ok = report.passed and len(report.steps) == 10 and exit_code == 0 and elapsed < 1.0
    _line(1, ok, f"chain of {len(report.steps)} exact identities, "
                 f"cli exit {exit_code}, {elapsed:.3f}s")


def test_criterion_2_trace_form_round_trip():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4, 5, 6):
        rng = RNG(2000 + dim)
        for _ in range(200):
            u0 = DensityMatrix.random(dim, rng)
            out = reconstruct_density(trace_functional(u0))
            worst = max(worst, frobenius(out.matrix - u0.matrix))
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-10 and elapsed < 10.0
    _line(2, ok, f"1000 reconstructions, worst residual {worst:.3e} "
                 f"(tol 1e-10), {elapsed:.2f}s")


def test_criterion_3_no_dispersion_free_trace_form():
    start = time.perf_counter()
    min_d = float("inf")
    worst_pure = 0.0
    for dim in (2, 3, 4, 5, 6):
        rng = RNG(3000 + dim)
        for _ in range(200):
            u = DensityMatrix.random(dim, rng)
            _, d = dispersion_witness(u)
            min_d = min(min_d, d)
        for _ in range(50):
            v = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
            u = DensityMatrix.pure(PureState.normalized(v))
            _, d = dispersion_witness(u)
            worst_pure = max(worst_pure, abs(d - 0.25))
    elapsed = time.perf_counter() - start
    ok = min_d > 1e-8 and worst_pure <= 1e-12 and elapsed < 10.0
    _line(3, ok, f"min dispersion {min_d:.3e} (> 1e-8), pure-state deviation "
                 f"from 1/4 at most {worst_pure:.3e} (tol 1e-12), {elapsed:.2f}s")


def test_criterion_4_joint_measurability():
    start = time.perf_counter()
    worst_identity = 0.0
    worst_round_trip = 0.0
    for dim in (2, 3, 4, 5, 6):
        rng = RNG(4000 + dim)
        for _ in range(200):
            r, s = _commuting_pair(dim, rng)
            verdict = joint_measurability_witness(r, s)
            assert verdict.jointly_measurable
            worst_identity = max(worst_identity, verdict.square_product_deficit_norm)
            worst_identity = max(worst_identity, verdict.commutator_square_norm)
            r2, s2 = verdict.generator.reconstruct()
            worst_round_trip = max(
                worst_round_trip,
                frobenius(r2.matrix - r.matrix),
                frobenius(s2.matrix - s.matrix),
            )
    worst_cert_gap = 0.0
    min_cert = float("inf")
    count = 0
    for dim in (2, 3, 4):
        rng = RNG(4500 + dim)
        while count < 334 * (dim - 1):
            r = random_hermitian(dim, rng)
            s = random_hermitian(dim, rng)
            verdict = joint_measurability_witness(r, s)
            if verdict.jointly_measurable:
                continue
            count += 1
            c = r.matrix @ s.matrix - s.matrix @ r.matrix
            direct = frobenius(c @ c)
            worst_cert_gap = max(
                worst_cert_gap, abs(verdict.commutator_square_norm - direct)
            )
            min_cert = min(min_cert, verdict.commutator_square_norm)
    elapsed = time.perf_counter() - start
    ok = (
        worst_identity <= 1e-9
        and worst_round_trip <= 1e-9
        and worst_cert_gap <= 1e-9
        and min_cert > 0.0
        and count >= 1000
        and elapsed < 30.0
    )
    _line(4, ok, f"1000 commuting pairs: identity residual {worst_identity:.3e}, "
                 f"round trip {worst_round_trip:.3e} (tol 1e-9); {count} "
                 f"non-commuting pairs: certificate vs |(RS-SR)^2| gap "
                 f"{worst_cert_gap:.3e}, min certificate {min_cert:.3e}, "
                 f"{elapsed:.2f}s")


def test_criterion_5_spectrum_theorem():
    start = time.perf_counter()
    worst = 0.0
    for dim in (2, 3, 4, 5, 6):
        rng = RNG(5000 + dim)
        for _ in range(100):
            op = random_hermitian(dim, rng)
            eigenvalues = eigendecompose(op).eigenvalues
            f = indicator_outside(eigenvalues, tol=1e-9)
            worst = max(worst, frobenius(apply_function(f, op).matrix))
    spectrum = eigendecompose(HermitianOperator(SIGMA_X + SIGMA_Y)).eigenvalues
    gap = max(
        abs(spectrum[0] + math.sqrt(2)), abs(spectrum[1] - math.sqrt(2))
    )
    elapsed = time.perf_counter() - start
    ok = worst <= 1e-9 and gap <= 1e-12 and elapsed < 10.0
    _line(5, ok, f"500 indicator annihilations, worst norm {worst:.3e} "
                 f"(tol 1e-9); sx+sy spectrum off by {gap:.3e} (tol 1e-12), "
                 f"{elapsed:.2f}s")


def test_criterion_6_recombination_and_dispersion_freeness():
    start = time.perf_counter()
    rng = RNG(6000)
    worst_avg = 0.0
    worst_disp = 0.0
    for _ in range(500):
        phi = _random_qubit_state(rng)
        op = random_hermitian(2, rng)
        closed = average_over_lambda(phi, op)
        quantum = float(np.vdot(phi.vector, op.matrix @ phi.vector).real)
        worst_avg = max(worst_avg, abs(closed - quantum))
    for _ in range(500):
        phi = _random_qubit_state(rng)
        lam = HiddenParameter(float(rng.uniform(-0.5, 0.5)))
        assignment = ValueAssignment(phi, lam)
        op = random_hermitian(2, rng)
        square = HermitianOperator(op.matrix @ op.matrix)
        worst_disp = max(worst_disp, abs(assignment(square) - assignment(op) ** 2))
    elapsed = time.perf_counter() - start
    ok = worst_avg <= 1e-12 and worst_disp <= 1e-12
    _line(6, ok, f"500 recombinations, worst gap {worst_avg:.3e} (tol 1e-12); "
                 f"500 per-lambda dispersions, worst {worst_disp:.3e} "
                 f"(zero up to roundoff, tol 1e-12), {elapsed:.2f}s")


def test_criterion_7_additivity_fails_per_subensemble(capsys):
    start = time.perf_counter()
    code = run_command([
        "hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--format", "json",
    ])
    data = json.loads(capsys.readouterr().out)
    cli_ok = (
        code == 0
        and data["violation_fraction"] == 1.0
        and abs(data["avg_delta"]) <= 1e-12
    )
    verdicts_ok = True
    for lam in np.linspace(-0.5, 0.5, 21):
        f = subensemble_functional(PureState.from_label("z+"), float(lam))
        try:
            reconstruct_density(f)
            verdicts_ok = False
        except AdditivityViolation:
            pass
        except FunctionalViolation:
            verdicts_ok = False
    rng = RNG(7000)
    for _ in range(50):
        f = subensemble_functional(
            _random_qubit_state(rng), float(rng.uniform(-0.5, 0.5))
        )
        try:
            reconstruct_density(f)
            verdicts_ok = False
        except AdditivityViolation:
            pass
        except FunctionalViolation:
            verdicts_ok = False
    elapsed = time.perf_counter() - start
    ok = cli_ok and verdicts_ok and elapsed < 5.0
    with capsys.disabled():
        _line(7, ok, f"hv-demo violation fraction {data['violation_fraction']}, "
                     f"avg delta {data['avg_delta']:.1e}; 71 subensemble "
                     f"functionals all fail additivity and nothing else, "
                     f"{elapsed:.2f}s")


def test_criterion_8_linearity_separation():
    start = time.perf_counter()
    report = check_linearity(max_eigenvalue_functional(2), trials=100, seed=88)
    elapsed = time.perf_counter() - start
    ok = (
        report.commuting_max_deviation <= 1e-10
        and report.unrestricted_max_deviation >= 0.5
    )
    _line(8, ok, f"max-eigenvalue functional: commuting deviation "
                 f"{report.commuting_max_deviation:.3e} (tol 1e-10), "
                 f"unrestricted deviation {report.unrestricted_max_deviation:.4f} "
                 f"(>= 0.5), {elapsed:.2f}s")
