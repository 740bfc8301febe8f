"""Multivariate Meixner polynomial families parametrized by orthochronous
pseudo-rotations, with exact cross-verification of their identities.

The public surface re-exports the domain objects and operations; the CLI
lives in :mod:`multimeixner.cli`.
"""

from .bivariate import (
    MeixnerSystem,
    check_addition,
    check_difference,
    check_duality,
    check_lowering,
    check_orthogonality,
    check_recurrence,
    elliptic_me,
    factorized_eval,
    general_sum_eval,
    hyperbolic_me_psi,
    hyperbolic_me_xi,
    monic_eval_gf,
    monic_eval_hyp,
    monic_eval_raising,
    monic_poly_coeffs,
    orthonormal_eval,
)
from .errors import (
    MatrixValidationError,
    ModeError,
    NonConvergence,
    NonGenericMatrix,
    NotOrthochronous,
    NotPseudoOrthogonal,
    PreconditionError,
)
from .harness import (
    SuiteConfig,
    canonical_lambda,
    canonical_system,
    random_matrix,
    random_system,
    run_suite,
)
from .lorentz import (
    PseudoRotation,
    SubgroupParam,
    boost,
    compose,
    determinant,
    inverse_tilde,
    is_generic,
    matrix_from_json,
    matrix_to_json,
    rotation,
    validate,
)
from .multivariate import (
    MeixnerSystemD,
    check_addition_d,
    check_difference_d,
    check_duality_d,
    check_lowering_d,
    check_orthogonality_d,
    check_recurrence_d,
    element_reader,
    monic_eval_gf_d,
    monic_eval_raising_d,
    orthonormal_eval_d,
    weight_d,
)
from .numerics import (
    Rational,
    ScalarMode,
    TruncatedSeries,
    as_rational,
    coefficient,
    pochhammer,
    series_geom_pow,
    series_mul,
)
from .reports import EvalReport, LatticeBox
from .univariate import krawtchouk, meixner

__version__ = "0.1.0"

# the exact inner loops are pure Python; the benchmark reports this name
KERNEL_BACKEND = "pure"
