"""Numerical laboratory for local anisotropic polynomial approximation.

Building blocks: axis-aligned box geometry with tensor quadrature, a corpus
of functions with analytic mixed derivatives, mixed difference operators and
moduli of smoothness, best tensor-polynomial approximation (projection,
minimax, and L1), B-spline averaging operators, and two-sided brackets for
the mixed K-functional.  The ``whitney-lab`` CLI runs the verification
sweeps end to end.
"""

from .geometry import (
    GeometryError,
    MultiIndex,
    Parallelepiped,
    QuadratureSpec,
    StepVector,
    SubsetMask,
    lp_norm,
    shifted_domain,
    subsets,
)
from .functions import CapabilityError, FunctionSpec, corpus, get_function, sobolev_norm
from .differences import (
    mixed_difference,
    modulus,
    p_mean_modulus,
    total_modulus,
    total_p_mean_modulus,
    whitney_constant_sum,
)
from .polyapprox import (
    TensorPolynomial,
    best_approx,
    equioscillation_count,
    taylor_poly,
    taylor_remainder_bound,
)
from .simplex import SimplexError
from .smoother import (
    BracketViolation,
    DomainValidityError,
    KBracket,
    bspline_eval,
    k_functional_bracket,
    smooth_mixed,
    smooth_univariate,
    smoothed_derivative,
)
from .harness import (
    ConfigError,
    ExperimentConfig,
    ResultRow,
    RunResult,
    emit,
    run_bestapprox,
    run_johnen,
    run_kfunc,
    run_lemma21,
    run_modulus,
    run_taylor,
    run_whitney,
)

__version__ = "0.1.0"
