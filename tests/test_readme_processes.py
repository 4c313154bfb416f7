"""The README's command-line examples and refusals, each run as its own process.

Every example runs ``python -m dispersionless ... --format json`` in a
fresh interpreter: it must exit with the code the README gives, write
nothing on stderr, and print the stdlib's indent=2, sort_keys=True text of
its own report; a refusal (exit 2) prints an error document with passed
false.  A reconstruction at d = 32 with 10^4 probes must peak below 150 MB.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# input files of the examples, by name
FILES = {
    "rho32.json": json.dumps({"dim": 32, "entries": [
        [[(i + 1) / 528 if i == j else 0, 0] for j in range(32)] for i in range(32)]}),
    "state.json": json.dumps({"dim": 2, "entries": [[[0.75, 0], [0, 0]], [[0, 0], [0.25, 0]]]}),
    "inf_state.json": "[[Infinity, 0], [0, 0]]",
    "big_offdiag.json": '{"dim": 2, "entries": [[[0, 0], [1e200, 0]], [[0, 0], [0, 0]]]}',
    # m - m* is past the float range
    "anti_hermitian.json": '{"dim": 2, "entries": [[[0, 0], [1.5e308, 0]], [[-1.5e308, 0], [0, 0]]]}',
    "float_dim.json": '{"dim": 1.5, "entries": [[[1, 0]]]}',
    # x+ at a scale whose squares are subnormal
    "sub_state.json": "[[1e-160, 0], [1e-160, 0]]",
}

EXAMPLES = [
    (["verify-appendix1"], 0),
    (["spectrum", "--expr", "SX + SY"], 0),
    (["jointmeas", "--a", "SX", "--b", "SY"], 0),
    (["hv-demo", "--phi", "z+", "--a", "SX", "--b", "SY"], 0),
    (["reconstruct", "--functional", "maxeig"], 1),
    (["reconstruct", "--functional", "hv:z+:0.3"], 1),
    (["dispersion-witness", "--density", "@state.json"], 0),
    (["hv-demo", "--phi", "@sub_state.json", "--a", "SX", "--b", "SY"], 0),
    # outcomes of +-1e300, whose squares are past the float range
    (["hv-demo", "--phi", "x+", "--a", "1e300*SX", "--b", "1e300*SZ"], 0),
    # outcomes of 1e-310, a subnormal float
    (["hv-demo", "--phi", "x+", "--a", "1e-310*SX", "--b", "SY", "--lambda-grid-size", "3"], 0),
    # 10^5 rows written in runs of constant outcomes
    (["hv-demo", "--phi", "x+", "--a", "SX + 0.5*SZ", "--b", "SY",
      "--lambda-grid-size", "100001"], 0),
    # refusals: an error document on stdout, nothing on stderr
    (["hv-demo", "--phi", "@inf_state.json", "--a", "SX", "--b", "SY"], 2),
    # the z coefficient of 1.5e308*SZ is past the float range: refused as an overflow
    (["hv-demo", "--phi", "x+", "--a", "1.5e308*SZ", "--b", "SY"], 2),
    (["spectrum", "--expr", "@big_offdiag.json"], 2),
    (["spectrum", "--expr", "@anti_hermitian.json"], 2),
    (["dispersion-witness", "--density", "@float_dim.json"], 2),
    # a product past the float range is refused, not reported as NaN
    (["jointmeas", "--a", "1e200*SX", "--b", "1e200*SY"], 2),
    # the certificate's squared entries pass the float range first
    (["jointmeas", "--a", "1e50*SX", "--b", "1e50*SY"], 2),
]

# the peak RSS of one command alone: RUSAGE_CHILDREN of a fresh process
# whose only child it is (in the test process it is a maximum over every
# child the run has started); ru_maxrss is in KiB on Linux
PEAK_RSS = """
import json, resource, subprocess, sys
proc = subprocess.run(sys.argv[1:], stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
print(json.dumps([proc.returncode, proc.stderr,
                  resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024]))
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in FILES.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(filter(None, [
        str(SRC), os.environ.get("PYTHONPATH")])))
    return tmp_path


@pytest.mark.parametrize("argv, code", EXAMPLES, ids=[" ".join(argv) for argv, _ in EXAMPLES])
def test_example(workdir, argv, code):
    proc = subprocess.run([sys.executable, "-m", "dispersionless", *argv, "--format", "json"],
                          capture_output=True, text=True)
    assert proc.returncode == code, proc.stderr
    assert proc.stderr == ""
    if code == 2:
        assert json.loads(proc.stdout)["passed"] is False
    # the report is the stdlib's indent=2, sort_keys=True text of itself
    assert proc.stdout == json.dumps(json.loads(proc.stdout), indent=2, sort_keys=True) + "\n"


def test_many_probes_stream_in_bounded_memory(workdir):
    # 10^4 seeded probes at d = 32 stream band by band (kept, they would
    # take 164 MB)
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS, sys.executable, "-m", "dispersionless",
         "reconstruct", "--functional", "trace:@rho32.json", "--trials", "10000"],
        capture_output=True, text=True, check=True)
    returncode, stderr, peak_mb = json.loads(proc.stdout)
    assert (returncode, stderr) == (0, "")
    assert peak_mb < 150, peak_mb
