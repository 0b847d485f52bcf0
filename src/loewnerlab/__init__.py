"""Loewner matrices, operator monotone functions, and operator means.

Numerical machinery for the finite-dimensional theory of operator
monotonicity: divided-difference (Loewner) matrices and their PSD
certificates, the matrix-function chain rule, kernel-measure
representations with a nonnegative-least-squares inverse fitter,
Kubo-Ando connections built from parallel sums, mollification, and
grid-level concave envelopes with Caratheodory support reduction.  The
`loewnerlab` CLI drives the same code paths.  Only names with a caller
outside the tests are exported, together with the types they return and
the monotonicity-preserving transforms of the proof; helpers used inside
one module stay private to it.
"""

from ._version import __version__
from .calculus import (
    MatrixPath,
    affine_path,
    apply_function,
    path_derivative,
    path_second_derivative,
)
from .choquet import (
    BarycenterResult,
    GridFunction,
    caratheodory_decompose,
    concave_envelope,
    is_concave_grid,
)
from .connections import (
    arithmetic_spec,
    evaluate_connection,
    geometric_mean_closed_form,
    geometric_spec,
    harmonic_spec,
)
from .divdiff import (
    LoewnerMatrix,
    NodeSet,
    dd1,
    dd2,
    difference_quotient_transform,
    loewner_matrix,
    second_dd_matrix,
)
from .errors import InfeasiblePointError, NumericalFailure, UsageError
from .functions import (
    ScalarFunction,
    catalog,
    catalog_names,
    get_function,
    mollify,
    mollify_derivative,
)
from .hermitian import (
    HermitianMatrix,
    Interval,
    POSITIVE_AXIS,
    eigendecompose,
    random_hermitian,
    random_ordered_pair,
)
from .measures import (
    RadonMeasure01,
    default_lambda_grid,
    endpoint_masses,
    fit_measure,
    kernel01,
    kernel_inf,
    synthesize,
)
from .monotonicity import (
    Verdict,
    check_convex_order_n,
    check_midpoint_concavity,
    check_monotone_direct,
    check_monotone_order_n,
    extreme_decomposition,
    transform_involution,
)
from .report import CheckRecord, Report, RunConfig
from .acceptance import CRITERIA, run_acceptance

__all__ = [
    "__version__",
    "BarycenterResult",
    "CheckRecord",
    "CRITERIA",
    "GridFunction",
    "HermitianMatrix",
    "InfeasiblePointError",
    "Interval",
    "LoewnerMatrix",
    "MatrixPath",
    "NodeSet",
    "NumericalFailure",
    "POSITIVE_AXIS",
    "RadonMeasure01",
    "Report",
    "RunConfig",
    "ScalarFunction",
    "UsageError",
    "Verdict",
    "affine_path",
    "apply_function",
    "arithmetic_spec",
    "caratheodory_decompose",
    "catalog",
    "catalog_names",
    "check_convex_order_n",
    "check_midpoint_concavity",
    "check_monotone_direct",
    "check_monotone_order_n",
    "concave_envelope",
    "dd1",
    "dd2",
    "default_lambda_grid",
    "difference_quotient_transform",
    "eigendecompose",
    "endpoint_masses",
    "evaluate_connection",
    "extreme_decomposition",
    "fit_measure",
    "geometric_mean_closed_form",
    "geometric_spec",
    "get_function",
    "harmonic_spec",
    "is_concave_grid",
    "kernel01",
    "kernel_inf",
    "loewner_matrix",
    "mollify",
    "mollify_derivative",
    "path_derivative",
    "path_second_derivative",
    "random_hermitian",
    "random_ordered_pair",
    "run_acceptance",
    "second_dd_matrix",
    "synthesize",
    "transform_involution",
]
