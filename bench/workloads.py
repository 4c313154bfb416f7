"""Seeded task rounds for the four benchmark workloads, with their oracles.

A workload is a fixed list of task classes (kind and size) making up one
*round*; every round draws fresh random inputs from the seed and the round
index, so each seed gives the same mix of classes and only the matrices
differ.  The round builders make the inputs with plain numpy, outside the
timed interval.  A task then has two parts:

* ``call``  makes the calls into ``dispersionless`` (the timed interval);
* ``check`` compares the outputs with an oracle that does not use the
  package's solver (outside the timed interval) and raises CheckFailed.

``call`` reaches the package only through attributes of the ``dl`` module
looked up at call time, so the tracer's rebinding sees every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
from dataclasses import dataclass
from typing import Callable

import numpy as np

import dispersionless as dl

LIN_TOL = 1e-9
MATCH_TOL = 1e-8


class CheckFailed(AssertionError):
    """An output disagreed with its oracle."""


@dataclass
class Task:
    kind: str
    inputs: dict
    call: Callable[[dict], object]
    check: Callable[[dict, object], None]

    def describe(self) -> str:
        shown = {k: v for k, v in self.inputs.items() if not isinstance(v, np.ndarray)}
        return f"{self.kind} {shown}"


def expect(cond, message):
    if not cond:
        raise CheckFailed(message)


def close(a, b, tol, what):
    diff = float(np.max(np.abs(np.asarray(a) - np.asarray(b)))) if np.size(a) else 0.0
    expect(diff <= tol, f"{what}: off by {diff:.3e} (tolerance {tol:.1e})")


# --- numpy-only input generators -------------------------------------------

def gaussian(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def random_herm(d, rng):
    g = gaussian(rng, (d, d))
    return (g + g.conj().T) / 2


def random_density(d, rng):
    g = gaussian(rng, (d, d))
    m = g @ g.conj().T
    return m / np.trace(m).real


def random_state(d, rng):
    v = gaussian(rng, d)
    return v / np.linalg.norm(v)


def random_unitary(d, rng):
    q, r = np.linalg.qr(gaussian(rng, (d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def degenerate_pair(d, rng):
    """R = f(T), S = g(T) on a random eigenbasis, with repeated readouts."""
    u = random_unitary(d, rng)
    f = rng.choice([-1.5, -0.5, 1.0, 2.0], size=d)
    g = rng.choice([-1.0, 0.25, 1.5], size=d)
    return (u * f) @ u.conj().T, (u * g) @ u.conj().T, f, g


def fnorm(m):
    return float(np.linalg.norm(m))


def dispersion_np(rho, w):
    first = np.trace(rho @ w @ w).real
    second = np.trace(rho @ w).real
    return first - second * second


def outcomes_in_spectrum(values, matrix, what):
    """Every value must be an eigenvalue of matrix (numpy eigvalsh as the oracle)."""
    spec = np.linalg.eigvalsh(matrix)
    gap = float(np.max(np.min(np.abs(np.asarray(values)[:, None] - spec[None, :]), axis=1)))
    expect(gap <= MATCH_TOL * (1 + fnorm(matrix)),
           f"{what}: an outcome is off the spectrum by {gap:.3e}")


def grid_mean_matches(values, matrix, psi, what):
    """The mean outcome over an n-point uniform grid is <psi|M|psi> within 2/n of the spread."""
    spec = np.linalg.eigvalsh(matrix)
    half_gap = (spec[-1] - spec[0]) / 2
    n = len(values)
    expected = np.vdot(psi, matrix @ psi).real
    close(np.mean(values), expected, 4 * half_gap / (n - 1) + 1e-12, what)


def to_matrix(obj):
    return np.array([[complex(re, im) for re, im in row] for row in obj["entries"]])


def readouts_match(t, table, target, what):
    """Apply a readout table to T through numpy's eigh and compare with target."""
    vals, vecs = np.linalg.eigh(t)
    mapped = np.array([table[int(round(x))] for x in vals])
    close((vecs * mapped) @ vecs.conj().T, target, 1e-7 * (1 + fnorm(target)), what)


# --- reconstruct -------------------------------------------------------------

def _recon_and_witness(inp, functional):
    density = dl.reconstruct_density(functional)
    witness, disp = dl.dispersion_witness(density)
    lin = dl.check_linearity(functional, 3, inp["lin_seed"]) if inp["linearity"] else None
    return density.matrix, witness.matrix, disp, lin


def _call_trace(inp):
    f = dl.trace_functional(dl.HermitianOperator(inp["rho"]))
    return _recon_and_witness(inp, f)


def _call_pure(inp):
    f = dl.pure_state_functional(dl.PureState(inp["psi"]))
    return _recon_and_witness(inp, f)


def _check_state(inp, out):
    rho = inp["rho"]
    density, witness, disp, lin = out
    close(density, rho, 1e-8, "reconstructed density vs source")
    close(disp, dispersion_np(rho, witness), 1e-8, "witness dispersion vs numpy")
    expect(disp > 1e-6, f"witness dispersion {disp!r} is not positive")
    if lin is not None:
        expect(lin.unrestricted_max_deviation <= LIN_TOL
               and lin.commuting_max_deviation <= LIN_TOL,
               f"trace form failed a linearity trial: {lin}")


def _call_violation(functional_factory):
    def call(inp):
        f = functional_factory(inp)
        try:
            dl.reconstruct_density(f)
            verdict = None
        except dl.FunctionalViolation as exc:
            verdict = exc
        lin = dl.check_linearity(f, 3, inp["lin_seed"]) if inp["linearity"] else None
        return verdict, lin
    return call


def _check_violation(inp, out):
    """maxeig and hv functionals must end in a B' verdict, never A'."""
    verdict, lin = out
    expect(verdict is not None, "a nonlinear functional was reconstructed as a state")
    expect(verdict.kind == "b-prime-violation", f"expected B', got {verdict!r}")
    probe = verdict.probe.matrix
    if inp["functional"] == "maxeig":
        close(verdict.lhs, np.linalg.eigvalsh(probe)[-1], MATCH_TOL * (1 + fnorm(probe)),
              "maxeig value vs numpy top eigenvalue")
    else:
        outcomes_in_spectrum([verdict.lhs], probe, "subensemble value")
    expect(abs(verdict.lhs - verdict.rhs) > LIN_TOL, f"B' verdict without a gap: {verdict!r}")
    if lin is not None:
        expect(lin.unrestricted_max_deviation > LIN_TOL,
               "nonlinear functional passed the unrestricted linearity trials")
        expect(lin.commuting_max_deviation <= LIN_TOL,
               f"commuting-combination additivity failed: {lin.commuting_max_deviation!r}")


_maxeig_call = _call_violation(lambda inp: dl.max_eigenvalue_functional(inp["dim"]))
_hv_call = _call_violation(
    lambda inp: dl.subensemble_functional(dl.PureState(inp["psi"]), inp["lam"]))

# Every (functional, d) class of the workload runs once per round, with the
# same weight -- trace and pure forms for d in {2,4,8,16,32}, maxeig
# for d <= 16, hv for d = 2 -- and half of the d <= 8 tasks also run
# check_linearity, so each d <= 8 class runs once with and once without it.
RECONSTRUCT_DIMS = {"trace": (2, 4, 8, 16, 32), "pure": (2, 4, 8, 16, 32),
                    "maxeig": (2, 4, 8, 16), "hv": (2,)}
RECONSTRUCT_ROUND = tuple(
    (functional, d, linearity)
    for functional, dims in RECONSTRUCT_DIMS.items() for d in dims
    for linearity in ((False, True) if d <= 8 else (False,)))


def reconstruct_round(rng, workdir):
    tasks = []
    for functional, d, linearity in RECONSTRUCT_ROUND:
        inp = {"functional": functional, "dim": d, "linearity": linearity,
               "lin_seed": int(rng.integers(2**31))}
        if functional == "trace":
            inp["rho"] = random_density(d, rng)
            tasks.append(Task(f"trace/d{d}", inp, _call_trace, _check_state))
        elif functional == "pure":
            inp["psi"] = random_state(d, rng)
            inp["rho"] = np.outer(inp["psi"], inp["psi"].conj())
            tasks.append(Task(f"pure/d{d}", inp, _call_pure, _check_state))
        elif functional == "maxeig":
            tasks.append(Task(f"maxeig/d{d}", inp, _maxeig_call, _check_violation))
        else:
            inp["psi"] = random_state(2, rng)
            inp["lam"] = float(rng.uniform(-0.5, 0.5))
            tasks.append(Task("hv/d2", inp, _hv_call, _check_violation))
    return tasks


# --- jointmeas ---------------------------------------------------------------

def _call_commuting(inp):
    verdict = dl.joint_measurability_witness(
        dl.HermitianOperator(inp["r"]), dl.HermitianOperator(inp["s"]))
    rebuilt = verdict.generator.reconstruct() if verdict.generator else None
    return verdict, rebuilt


def _call_noncommuting(inp):
    verdict = dl.joint_measurability_witness(
        dl.HermitianOperator(inp["r"]), dl.HermitianOperator(inp["s"]))
    return verdict, dl.verify_appendix1_chain()


def _check_certificates(r, s, cnorm, square_norm):
    comm = r @ s - s @ r
    scale = 1 + fnorm(r) * fnorm(s)
    close(cnorm, fnorm(comm), 1e-9 * scale, "commutator norm vs numpy")
    close(square_norm, fnorm(comm @ comm), 1e-9 * scale ** 2, "|(RS-SR)^2| vs numpy")


def _check_commuting(inp, out):
    r, s = inp["r"], inp["s"]
    verdict, rebuilt = out
    expect(verdict.jointly_measurable, "a commuting pair was judged not jointly measurable")
    _check_certificates(r, s, verdict.commutator_norm, verdict.commutator_square_norm)
    gen = verdict.generator
    t = gen.t.matrix
    readouts_match(t, gen.f_table, r, "f(T) vs R")
    readouts_match(t, gen.g_table, s, "g(T) vs S")
    close(rebuilt[0].matrix, r, 1e-7 * (1 + fnorm(r)), "reconstructed R")
    close(rebuilt[1].matrix, s, 1e-7 * (1 + fnorm(s)), "reconstructed S")
    for table, values in ((gen.f_table, inp["f"]), (gen.g_table, inp["g"])):
        for v in table.values():
            close(np.min(np.abs(values - v)), 0.0, MATCH_TOL, "readout table value")


def _check_noncommuting(inp, out):
    verdict, chain = out
    expect(not verdict.jointly_measurable, "a random pair was judged jointly measurable")
    _check_certificates(inp["r"], inp["s"], verdict.commutator_norm,
                        verdict.commutator_square_norm)
    expect(chain.passed and len(chain.steps) == 10, f"identity chain failed: {chain.failures()}")


JOINTMEAS_DIMS = (2, 4, 8, 16, 32)


def jointmeas_round(rng, workdir):
    tasks = []
    for d in JOINTMEAS_DIMS:
        r, s, f, g = degenerate_pair(d, rng)
        tasks.append(Task(f"commuting/d{d}", {"dim": d, "r": r, "s": s, "f": f, "g": g},
                          _call_commuting, _check_commuting))
        inp = {"dim": d, "r": random_herm(d, rng), "s": random_herm(d, rng)}
        tasks.append(Task(f"noncommuting/d{d}", inp, _call_noncommuting, _check_noncommuting))
    return tasks


# --- subensemble ---------------------------------------------------------------

def _call_report(inp):
    return dl.additivity_violation_report(
        dl.PureState(inp["psi"]), dl.HermitianOperator(inp["r"]),
        dl.HermitianOperator(inp["s"]), dl.lambda_grid(inp["points"]))


def _check_report(inp, rep):
    psi, r, s = inp["psi"], inp["r"], inp["s"]
    vr = np.array([x.value_r for x in rep.samples])
    vs = np.array([x.value_s for x in rep.samples])
    vsum = np.array([x.value_sum for x in rep.samples])
    expect(len(vr) == inp["points"], "report has the wrong number of grid points")
    for values, m, name in ((vr, r, "R"), (vs, s, "S"), (vsum, r + s, "R+S")):
        outcomes_in_spectrum(values, m, f"outcomes of {name}")
        grid_mean_matches(values, m, psi, f"grid mean of {name}")
    for avg, m, name in ((rep.average_r, r, "R"), (rep.average_s, s, "S"),
                         (rep.average_sum, r + s, "R+S")):
        close(avg, np.vdot(psi, m @ psi).real, 1e-9 * (1 + fnorm(m)), f"lambda-average of {name}")
    close(rep.avg_delta, 0.0, 1e-9 * (1 + fnorm(r) + fnorm(s)), "averaged delta")
    if inp["parallel"]:
        expect(rep.violation_fraction == 0.0,
               f"parallel pair broke additivity at {rep.violation_fraction:.4f} of the grid")
    else:
        expect(rep.violation_fraction > 0.0, "non-commuting pair never broke additivity")


# Grid sizes from 10^2 to 2 * 10^3 points, each factor of four with the same
# weight: a parallel pair on 2^k points and a non-commuting pair on 2^k + 1
# points, for k = 7, 9, 11.  Three sizes keep rounds short, so a run has
# many rounds to take the faster half from.
SUBENSEMBLE_EXPONENTS = (7, 9, 11)


def subensemble_round(rng, workdir):
    tasks = []
    for k in SUBENSEMBLE_EXPONENTS:
        for parallel in (True, False):
            r = random_herm(2, rng)
            if parallel:
                a = float(rng.uniform(0.25, 2.0) * rng.choice([-1.0, 1.0]))
                if abs(a + 1) < 0.25:
                    a = -a
                s = a * r + float(rng.uniform(-1, 1)) * np.eye(2)
            else:
                s = random_herm(2, rng)
            n = 2**k if parallel else 2**k + 1
            inp = {"points": n, "parallel": parallel, "psi": random_state(2, rng), "r": r, "s": s}
            tasks.append(Task(f"{'parallel' if parallel else 'noncommuting'}/n{n}",
                              inp, _call_report, _check_report))
    return tasks


# --- cli -------------------------------------------------------------------------

def _num(x):
    return f"{x:.3f}"


def write_matrix(workdir, name, m):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"dim": m.shape[0],
                   "entries": [[[z.real, z.imag] for z in row] for row in m]}, fh)
    return path


def write_state(workdir, name, v):
    path = os.path.join(workdir, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([[z.real, z.imag] for z in v], fh)
    return path


PAULI = {"SX": np.array([[0, 1], [1, 0]], dtype=complex),
         "SY": np.array([[0, -1j], [1j, 0]]),
         "SZ": np.array([[1, 0], [0, -1]], dtype=complex)}
LABELS = {"z+": [1, 0], "z-": [0, 1], "x+": [1, 1], "x-": [1, -1], "y+": [1, 1j], "y-": [1, -1j]}


def np_abs(m):
    vals, vecs = np.linalg.eigh(m)
    return (vecs * np.abs(vals)) @ vecs.conj().T


def coeff(rng):
    """A coefficient as the expression grammar writes it: unsigned, 3 decimals."""
    return round(float(rng.uniform(0.1, 2.0)), 3)


def qubit_expr(rng):
    """A Hermitian 2x2 expression and its numpy value."""
    a, b = coeff(rng), coeff(rng)
    x, y = rng.choice(list(PAULI), size=2, replace=False)
    templates = [
        (f"{_num(a)}*{x} + {_num(b)}*{y}", a * PAULI[x] + b * PAULI[y]),
        (f"sq({x} + {_num(a)}*I) - {_num(b)}*{y}",
         np.linalg.matrix_power(PAULI[x] + a * np.eye(2), 2) - b * PAULI[y]),
        (f"cube({_num(a)}*{x} - {y}) + abs({y} - {_num(b)}*{x})",
         np.linalg.matrix_power(a * PAULI[x] - PAULI[y], 3) + np_abs(PAULI[y] - b * PAULI[x])),
        (f"{x} + offspec({_num(a)}*{y})", PAULI[x]),
    ]
    return templates[int(rng.integers(len(templates)))]


def file_expr(rng, workdir, template, d):
    """Expression number `template` over a generated d x d matrix file, and its numpy value."""
    m = random_herm(d, rng)
    path = write_matrix(workdir, f"spec{template}.json", m)
    a = coeff(rng)
    templates = [
        (f"abs(@{path})", np_abs(m)),
        (f"offspec(@{path}) + sq(@{path})", m @ m),
        (f"cube(@{path}) - {_num(a)}*I", m @ m @ m - a * np.eye(d)),
    ]
    return templates[template]


def _run_cli(inp):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        code = dl.run_command(inp["argv"])
    return code, buf.getvalue()


def output_bytes(task, output) -> int:
    """Bytes a CLI task printed; zero for tasks that call the library."""
    return len(output[1].encode()) if task.call is _run_cli else 0


def _payload(out, code):
    expect(out[0] == code, f"exit code {out[0]}, expected {code}")
    return json.loads(out[1])


def _check_spectrum(inp, out):
    payload = _payload(out, 0)
    m = inp["matrix"]
    close(np.array(payload["eigenvalues"]), np.linalg.eigvalsh(m),
          MATCH_TOL * (1 + fnorm(m)), "spectrum vs numpy eigvalsh")


def _check_chain(inp, out):
    payload = _payload(out, 0)
    expect(payload["passed"] and len(payload["steps"]) == 10
           and all(step["passed"] for step in payload["steps"]), "identity chain failed")


def _check_cli_jointmeas(inp, out):
    payload = _payload(out, 0)
    r, s = inp["r"], inp["s"]
    expect(payload["jointly_measurable"] == inp["commuting"],
           f"verdict {payload['jointly_measurable']} for a pair built to be "
           f"{'commuting' if inp['commuting'] else 'non-commuting'}")
    _check_certificates(r, s, payload["commutator_norm"], payload["commutator_square_norm"])
    if inp["commuting"]:
        gen = payload["generator"]
        t = to_matrix(gen["t"])
        readouts_match(t, {int(k): v for k, v in gen["f_table"].items()}, r, "f(T) vs A")
        readouts_match(t, {int(k): v for k, v in gen["g_table"].items()}, s, "g(T) vs B")


def _check_hv_demo(inp, out):
    payload = _payload(out, 0)
    psi, r, s = inp["psi"], inp["r"], inp["s"]
    pairs = payload["pairs"]
    expect(len(pairs) == 1000, f"{len(pairs)} grid points, expected the default 1000")
    for key, m in (("vR", r), ("vS", s), ("vRplusS", r + s)):
        values = np.array([p[key] for p in pairs])
        outcomes_in_spectrum(values, m, f"hv-demo {key}")
        grid_mean_matches(values, m, psi, f"hv-demo grid mean of {key}")


def _check_cli_reconstruct(inp, out):
    if inp["rho"] is not None:
        payload = _payload(out, 0)
        close(to_matrix(payload["density"]), inp["rho"], 1e-8, "reconstructed density vs source")
    else:
        payload = _payload(out, 1)
        verdict = payload["verdict"]
        expect(verdict["kind"] == "b-prime-violation", f"expected B', got {verdict['kind']}")
        outcomes_in_spectrum([verdict["lhs"]], to_matrix(verdict["probe"]), "violating probe value")
    for row in payload["transcript"]:
        inp["transcript"](to_matrix(row["probe"]), row["value"])


def _check_cli_witness(inp, out):
    payload = _payload(out, 0)
    disp = payload["dispersion"]
    close(disp, dispersion_np(inp["rho"], to_matrix(payload["witness"])), 1e-8,
          "witness dispersion vs numpy")
    expect(disp > 1e-6, f"witness dispersion {disp!r} is not positive")


def _expect_value(oracle):
    def check(probe, value):
        close(value, oracle(probe), MATCH_TOL * (1 + fnorm(probe)), "transcript value vs numpy")
    return check


def _cli_task(kind, argv, check, **inp):
    inp["argv"] = argv + ["--format", "json"]
    return Task(kind, inp, _run_cli, check)


def cli_round(rng, workdir):
    """Each of the six commands three times: its README example, then two
    generated variants (@file matrices and states with d <= 8, expressions
    with sq/cube/abs/offspec).  Every slot has a fixed dimension, so rounds
    cost alike."""
    tasks = [_cli_task("verify-appendix1", ["verify-appendix1"], _check_chain)] * 3

    tasks.append(_cli_task("spectrum/readme", ["spectrum", "--expr", "SX + SY"],
                           _check_spectrum, matrix=PAULI["SX"] + PAULI["SY"]))
    expr, m = qubit_expr(rng)
    tasks.append(_cli_task("spectrum/qubit", ["spectrum", "--expr", expr], _check_spectrum,
                           matrix=m))
    expr, m = file_expr(rng, workdir, int(rng.integers(3)), 8)
    tasks.append(_cli_task("spectrum/file-d8", ["spectrum", "--expr", expr],
                           _check_spectrum, matrix=m))

    tasks.append(_cli_task("jointmeas/readme", ["jointmeas", "--a", "SX", "--b", "SY"],
                           _check_cli_jointmeas, r=PAULI["SX"], s=PAULI["SY"], commuting=False))
    a = coeff(rng)
    tasks.append(_cli_task(
        "jointmeas/qubit", ["jointmeas", "--a", "SZ", "--b", f"sq(SZ) + {_num(a)}*SZ"],
        _check_cli_jointmeas, r=PAULI["SZ"], s=np.eye(2) + a * PAULI["SZ"], commuting=True))
    r, s, _, _ = degenerate_pair(8, rng)
    pa, pb = write_matrix(workdir, "jm_r.json", r), write_matrix(workdir, "jm_s.json", s)
    tasks.append(_cli_task("jointmeas/file-d8", ["jointmeas", "--a", f"@{pa}", "--b", f"@{pb}"],
                           _check_cli_jointmeas, r=r, s=s, commuting=True))

    tasks.append(_cli_task("hv-demo/readme", ["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY"],
                           _check_hv_demo, psi=np.array([1, 0], dtype=complex),
                           r=PAULI["SX"], s=PAULI["SY"]))
    psi = random_state(2, rng)
    (ea, ma), (eb, mb) = qubit_expr(rng), qubit_expr(rng)
    phi = write_state(workdir, "phi.json", psi)
    tasks.append(_cli_task("hv-demo/file", ["hv-demo", "--phi", f"@{phi}", "--a", ea, "--b", eb],
                           _check_hv_demo, psi=psi, r=ma, s=mb))
    label = str(rng.choice(list(LABELS)))
    (ea, ma), (eb, mb) = qubit_expr(rng), qubit_expr(rng)
    psi = np.array(LABELS[label], dtype=complex) / np.linalg.norm(LABELS[label])
    tasks.append(_cli_task("hv-demo/label", ["hv-demo", "--phi", label, "--a", ea, "--b", eb],
                           _check_hv_demo, psi=psi, r=ma, s=mb))

    tasks.append(_cli_task("reconstruct/maxeig", ["reconstruct", "--functional", "maxeig"],
                           _check_cli_reconstruct, rho=None,
                           transcript=_expect_value(lambda p: np.linalg.eigvalsh(p)[-1])))
    lam = float(rng.uniform(-0.5, 0.5))
    label = str(rng.choice(list(LABELS)))
    tasks.append(_cli_task(
        "reconstruct/hv", ["reconstruct", "--functional", f"hv:{label}:{lam:.4f}"],
        _check_cli_reconstruct, rho=None,
        transcript=lambda p, value: outcomes_in_spectrum([value], p, "subensemble transcript")))
    rho = random_density(4, rng)
    path = write_matrix(workdir, "rho.json", rho)
    tasks.append(_cli_task(
        "reconstruct/trace-d4", ["reconstruct", "--functional", f"trace:@{path}"],
        _check_cli_reconstruct, rho=rho,
        transcript=_expect_value(lambda p, rho=rho: np.trace(rho @ p).real)))

    for d in (2, 4, 8):
        rho = random_density(d, rng)
        path = write_matrix(workdir, f"witness_rho{d}.json", rho)
        tasks.append(_cli_task(f"dispersion-witness/d{d}",
                               ["dispersion-witness", "--density", f"@{path}"],
                               _check_cli_witness, rho=rho))
    return tasks


WORKLOADS = {
    "reconstruct": reconstruct_round,
    "jointmeas": jointmeas_round,
    "subensemble": subensemble_round,
    "cli": cli_round,
}
