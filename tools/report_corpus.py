"""Print a digest of every report in a fixed corpus of command lines.

    python tools/report_corpus.py [SRC]

runs ``python -m dispersionless`` from SRC (default: this checkout's
``src``) once per command line, each in a fresh process in a scratch
directory that holds the input files, and prints one line per run:

    sha256(stdout)  sha256(stderr)  exit  argv

Run it on two trees on one machine and diff the outputs to show that a
change keeps every report's bytes.  The corpus is the README's examples in
both formats; ``reconstruct`` of maxeig, a pure state and a passing trace
form at d = 1, 2, 3, 16 and 32; ``hv-demo`` at 10^3 and 10^6 rows; and, in
JSON, refusals: five of options and files, ``--lin-tol 0``, ``--comm-tol nan``
and ``--seed -1``, and each kind of bad input file (missing, not JSON, not
UTF-8, nested 100 000 deep, a 5000-digit integer, one byte over the cap) on a
matrix path and on the state path.  The digests depend on the machine's float
formatting and numpy build, so this is a tool, not a test.
"""

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

DIMS = (1, 2, 3, 16, 32)
# the byte cap on an input file (operator_core.MAX_INPUT_BYTES)
MAX_INPUT_BYTES = 1 << 20
BAD_FILES = ("missing.json", "not_json.json", "not_utf8.json", "deep.json", "long_int.json",
             "over_cap.json")

README_EXAMPLES = [
    ["verify-appendix1"],
    ["spectrum", "--expr", "SX + SY"],
    ["jointmeas", "--a", "SX", "--b", "SY"],
    ["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY"],
    ["reconstruct", "--functional", "maxeig"],
    ["reconstruct", "--functional", "hv:z+:0.3"],
    ["dispersion-witness", "--density", "@state.json"],
]

REFUSALS = [
    ["reconstruct", "--functional", "maxeig", "--trials", "0"],
    ["reconstruct", "--functional", "maxeig", "--dim", "33"],
    ["hv-demo", "--phi", "@inf_state.json", "--a", "SX", "--b", "SY"],
    ["spectrum", "--expr", "@big_offdiag.json"],
    ["jointmeas", "--a", "1e200*SX", "--b", "1e200*SY"],
    ["reconstruct", "--functional", "maxeig", "--lin-tol", "0"],
    ["jointmeas", "--a", "SX", "--b", "SY", "--comm-tol", "nan"],
    ["reconstruct", "--functional", "maxeig", "--seed", "-1"],
    *(["dispersion-witness", "--density", f"@{name}"] for name in BAD_FILES),
    *(["hv-demo", "--phi", f"@{name}", "--a", "SX", "--b", "SY"] for name in BAD_FILES),
]


def _matrix(diagonal):
    n = len(diagonal)
    return {"dim": n, "entries": [[[diagonal[i] if i == j else 0, 0] for j in range(n)]
                                  for i in range(n)]}


def files() -> dict[str, bytes]:
    """The corpus's input files, by name; missing.json is not among them."""
    out = {
        "state.json": json.dumps(_matrix([0.75, 0.25])),
        "inf_state.json": "[[Infinity, 0], [0, 0]]",
        "big_offdiag.json": '{"dim": 2, "entries": [[[0, 0], [1e200, 0]], [[0, 0], [0, 0]]]}',
        "not_json.json": "not json",
        "deep.json": "[" * 100_000 + "]" * 100_000,
        "long_int.json": "[[" + "9" * 5000 + ", 0]]",
    }
    for d in DIMS:
        total = d * (d + 1) // 2
        out[f"rho{d}.json"] = json.dumps(_matrix([(i + 1) / total for i in range(d)]))
        out[f"phi{d}.json"] = json.dumps([[k + 1, 0.5 * k] for k in range(d)])
    # a valid density matrix, one byte over the cap
    out["over_cap.json"] = out["state.json"].ljust(MAX_INPUT_BYTES + 1)
    out = {name: text.encode() for name, text in out.items()}
    out["not_utf8.json"] = b"\xff"
    return out


def corpus() -> list[list[str]]:
    runs = [[*argv, "--format", fmt] for argv in README_EXAMPLES for fmt in ("text", "json")]
    for d in DIMS:
        runs += [["reconstruct", "--functional", "maxeig", "--dim", str(d), "--format", "json"],
                 ["reconstruct", "--functional", f"pure:@phi{d}.json", "--format", "json"],
                 ["reconstruct", "--functional", f"trace:@rho{d}.json", "--format", "json"]]
    runs += [["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY", "--lambda-grid-size", str(n),
              "--format", "json"] for n in (1000, 1_000_000)]
    return runs + [[*argv, "--format", "json"] for argv in REFUSALS]


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else Path(__file__).resolve().parent.parent / "src").resolve()
    env = dict(os.environ, PYTHONPATH=str(src))
    env.pop("DISPERSIONLESS_SEED", None)
    with tempfile.TemporaryDirectory() as scratch:
        for name, data in files().items():
            Path(scratch, name).write_bytes(data)
        for args in corpus():
            run = subprocess.run([sys.executable, "-m", "dispersionless", *args],
                                 cwd=scratch, env=env, capture_output=True)
            print(hashlib.sha256(run.stdout).hexdigest(), hashlib.sha256(run.stderr).hexdigest(),
                  run.returncode, shlex.join(args), sep="  ", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
