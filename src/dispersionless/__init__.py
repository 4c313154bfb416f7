"""Toolkit for dispersion-free ensembles and Hermitian-operator identities.

Reconstructs density matrices from black-box expectation functionals,
produces dispersion witnesses, verifies the symmetrized-product identity
chain for jointly measurable quantities, and runs an explicit qubit
hidden-variable model whose subensembles break expectation additivity
while their recombination restores it.
"""

from .operator_core import (
    COMM_TOL,
    FUNCALC_TOL,
    HERM_TOL,
    FunctionDomainError,
    HermitianOperator,
    Spectrum,
    ValidationError,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    apply_function,
    commutator_norm,
    eigendecompose,
    identity,
    indicator_outside,
    matrix_from_json,
    matrix_to_json,
    random_hermitian,
)
from .expectation_functionals import (
    DM_GAP,
    DM_TOL,
    LIN_TOL,
    AdditivityViolation,
    DensityMatrix,
    ExpectationFunctional,
    FunctionalViolation,
    LinearityReport,
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
from .ncpoly import NcPolynomial, evaluate_nc
from .symmetrized_algebra import (
    ChainReport,
    ChainStep,
    CommonGenerator,
    JointMeasurabilityVerdict,
    common_generator,
    joint_measurability_witness,
    symmetrized_product,
    verify_appendix1_chain,
)
from .hidden_variables import (
    SubensembleReport,
    UnsupportedDimensionError,
    additivity_violation_report,
    assign_value,
    average_over_lambda,
    lambda_grid,
    subensemble_functional,
)
from .expressions import parse_hermitian
from .cli import run_command

__version__ = "0.1.0"
