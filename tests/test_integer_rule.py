"""Every count, seed and dimension the library takes follows one integer rule.

A bool, a float (numpy's included), a string, None, or an integer below the
entry's bound is refused with a ValidationError that names the argument;
a seed is also refused as a Generator or a list.  A Python or numpy integer
at or above the bound is accepted.
"""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dispersionless.expectation_functionals import (
    DensityMatrix,
    ExpectationFunctional,
    check_linearity,
    hermitian_basis,
    max_eigenvalue_functional,
    reconstruct_density,
    trace_functional,
)
from dispersionless.hidden_variables import lambda_grid
from dispersionless.operator_core import (
    ValidationError,
    identity,
    matrix_from_json,
    random_hermitian,
)


def _trace_form():
    return trace_functional(DensityMatrix(identity(2) / 2))


def _reconstructs(**kwargs):
    return reconstruct_density(_trace_form(), **kwargs).dim == 2


def _matrix_json(dim):
    # the identity of dimension dim in the wire format, with dim as given;
    # any other dim gets one row: it is refused before the rows are read
    n = dim if type(dim) in (int, np.int64) else 1
    return {"dim": dim, "entries": [[[float(i == j), 0.0] for j in range(n)] for i in range(n)]}


# name in the error, lowest accepted value, highest value tried, whether it
# is a seed, and the call; a value that passes must give what the test checks
ENTRIES = {
    "ExpectationFunctional": ("functional dimension", 1, 4, False,
                              lambda v: ExpectationFunctional(v, evaluate=lambda op: 0.0).dim == v),
    "max_eigenvalue_functional": ("functional dimension", 1, 4, False,
                                  lambda v: max_eigenvalue_functional(v).dim == v),
    "reconstruct_density-probe_count": ("probe_count", 0, 40, False,
                                        lambda v: _reconstructs(probe_count=v)),
    "reconstruct_density-seed": ("seed", 0, 2**32, True, lambda v: _reconstructs(seed=v)),
    "check_linearity-trials": ("trials", 1, 20, False,
                               lambda v: check_linearity(_trace_form(), v, 0).trials == v),
    "check_linearity-seed": ("seed", 0, 2**32, True,
                             lambda v: check_linearity(_trace_form(), 3, v).seed == v),
    "hermitian_basis": ("dimension", 1, 4, False, lambda v: len(hermitian_basis(v)) == v * v),
    "identity": ("identity dimension", 1, 4, False, lambda v: identity(v).shape == (v, v)),
    "matrix_from_json": ("matrix JSON 'dim'", 1, 4, False,
                         lambda v: matrix_from_json(_matrix_json(v)).shape == (v, v)),
    "lambda_grid": ("lambda grid size", 2, 100, False, lambda v: len(lambda_grid(v)) == v),
    "random_hermitian": ("dimension", 1, 4, False,
                         lambda v: random_hermitian(v, np.random.default_rng(0)).dim == v),
    "DensityMatrix.random": ("dimension", 1, 4, False,
                             lambda v: DensityMatrix.random(v, np.random.default_rng(0)).dim == v),
}

NOT_INTEGERS = [True, False, 2.5, np.float64(2.0), "2", None]
NOT_SEEDS = [np.random.default_rng(1), [1, 2]]


def _bad_values(low, seed):
    others = NOT_INTEGERS + NOT_SEEDS if seed else NOT_INTEGERS
    return (st.sampled_from(others) | st.integers(max_value=low - 1)
            | st.integers(-2**63, low - 1).map(np.int64))


@pytest.mark.parametrize("entry", ENTRIES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_bad_values_are_refused_by_name(entry, data):
    name, low, _, seed, call = ENTRIES[entry]
    value = data.draw(_bad_values(low, seed))
    with pytest.raises(ValidationError) as exc:
        call(value)
    # ValidationError itself, never a bare TypeError or numpy's ValueError
    assert type(exc.value) is ValidationError
    assert re.fullmatch(
        rf"{re.escape(name)} must be (an integer, got .*|at least {low})", str(exc.value),
        re.DOTALL), str(exc.value)


@pytest.mark.parametrize("entry", ENTRIES)
@settings(max_examples=15, deadline=None)
@given(data=st.data())
def test_integers_at_or_above_the_bound_pass(entry, data):
    _, low, high, _, call = ENTRIES[entry]
    value = data.draw(st.integers(low, high))
    assert call(value)
    assert call(np.int64(value))


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_bound_itself_passes(entry):
    _, low, _, _, call = ENTRIES[entry]
    assert call(low)
