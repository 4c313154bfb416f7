"""The README's library quick tour, run as written.

Each expression statement in the tour carries a comment with its result;
the test runs the block statement by statement and checks every such
result, so the tour cannot drift from the library it shows.
"""

import ast
import io
import math
import re
import tokenize
from pathlib import Path

import numpy as np

from dispersionless import AdditivityViolation, DensityMatrix, HermitianOperator

README = Path(__file__).resolve().parent.parent / "README.md"


def _tour() -> str:
    match = re.search(r"## Library quick tour\n\n```python\n(.*?)```", README.read_text(), re.S)
    assert match, "README has no library quick tour block"
    return match.group(1)


def _comments(source: str) -> dict[int, str]:
    # line number -> the text of the comment on it
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return {tok.start[0]: tok.string.lstrip("# ") for tok in tokens if tok.type == tokenize.COMMENT}


def _run(source: str) -> tuple[dict, dict]:
    # the namespace, and comment -> (value, exception) for each commented
    # expression statement, with each statement run in order
    comments = _comments(source)
    namespace, results = {}, {}
    for node in ast.parse(source).body:
        comment = " ".join(comments[n] for n in range(node.lineno, node.end_lineno + 1)
                           if n in comments)
        if not isinstance(node, ast.Expr):
            exec(compile(ast.Module([node], []), "README", "exec"), namespace)
            continue
        try:
            outcome = eval(compile(ast.Expression(node.value), "README", "eval"), namespace), None
        except Exception as exc:  # the tour shows one raise; it is checked below
            outcome = None, exc
        results[comment] = outcome
    return namespace, results


def test_library_quick_tour():
    namespace, results = _run(_tour())

    def value(comment):
        got, exc = results[comment]
        assert exc is None, (comment, exc)
        return got

    assert value("True, exact arithmetic") is True

    abs_sx = value("|SX| = I; f maps the eigenvalue array")
    assert isinstance(abs_sx, HermitianOperator)
    assert np.allclose(abs_sx.matrix, np.eye(2), rtol=0.0, atol=1e-12)

    recovered = value("recovers u")
    assert isinstance(recovered, DensityMatrix)
    assert np.linalg.norm(recovered.matrix - namespace["u"].matrix) <= 1e-10

    assert abs(value("0.25") - 0.25) <= 1e-12
    assert abs(value("4*sqrt(2): not jointly measurable") - 4 * math.sqrt(2)) <= 1e-12

    _, exc = results["raises AdditivityViolation"]
    assert isinstance(exc, AdditivityViolation)

    fraction = value("1.0")
    assert type(fraction) is float and fraction == 1.0

    # every commented result above is checked, and no other is shown
    assert set(results) == {
        "True, exact arithmetic", "|SX| = I; f maps the eigenvalue array", "recovers u",
        "0.25", "4*sqrt(2): not jointly measurable", "raises AdditivityViolation", "1.0",
    }
