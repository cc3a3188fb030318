"""Numerical certificates and proof diagnostics for Gaussian comparison of
expected maxima.

The package turns the increment-comparison machinery for finite Gaussian
vectors into checkable numerical operations: increment matrices and
discrepancy certificates, the log-sum-exp smooth max with its softmax
calculus, the square-root interpolation path with Monte Carlo derivative
estimators, a Gaussian integration-by-parts residual checker, and seeded
experiment runners behind the ``sudfer`` command line tool.
"""

__version__ = "0.1.0"

from .bounds import (
    BoundCertificate,
    beta_tradeoff_bound,
    certify,
    optimal_beta,
    sf_bound,
)
from .errors import (
    ConfigError,
    DegenerateGamma,
    DegenerateN,
    DimensionMismatch,
    DomainError,
    EmptyInput,
    FactorizationFailure,
    InvalidInput,
    MeanMismatch,
    NotPSD,
    NotSymmetric,
    SudferError,
    UnknownGenerator,
)
from .estimator import (
    MCEstimate,
    empirical_gap,
    expected_max_bivariate_exact,
    expected_max_mc,
)
from .experiments import (
    ExperimentConfig,
    dominated_pair,
    iid_standard_spec,
    random_spec,
    run_experiment,
    spec_from_document,
    zero_spec,
)
from .gaussian import (
    GaussianSpec,
    blended_spec,
    derive_seed,
    iid_maxima,
    increment_matrix,
    sample,
    validate_spec,
)
from .reports import (
    ExperimentReport,
    render,
    render_csv,
    render_json,
    write_report,
)
from .interpolation import (
    DerivativeEstimate,
    phi,
    phi_derivative,
    stein_residuals,
)
from .smoothmax import (
    SmoothMaxParams,
    sandwich_gap,
    smooth_max,
    smooth_max_hessian,
    softmax,
)

__all__ = [
    "BoundCertificate",
    "ConfigError",
    "DegenerateGamma",
    "DegenerateN",
    "DerivativeEstimate",
    "DimensionMismatch",
    "DomainError",
    "EmptyInput",
    "ExperimentConfig",
    "ExperimentReport",
    "FactorizationFailure",
    "GaussianSpec",
    "InvalidInput",
    "MCEstimate",
    "MeanMismatch",
    "NotPSD",
    "NotSymmetric",
    "SmoothMaxParams",
    "SudferError",
    "UnknownGenerator",
    "beta_tradeoff_bound",
    "blended_spec",
    "certify",
    "derive_seed",
    "dominated_pair",
    "empirical_gap",
    "expected_max_bivariate_exact",
    "expected_max_mc",
    "iid_maxima",
    "iid_standard_spec",
    "increment_matrix",
    "optimal_beta",
    "phi",
    "phi_derivative",
    "random_spec",
    "render",
    "render_csv",
    "render_json",
    "run_experiment",
    "sample",
    "sandwich_gap",
    "sf_bound",
    "smooth_max",
    "smooth_max_hessian",
    "softmax",
    "spec_from_document",
    "stein_residuals",
    "validate_spec",
    "write_report",
    "zero_spec",
]
