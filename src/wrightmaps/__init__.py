"""Wright-kernel harmonic mappings: series numerics, coefficient convolution,
sufficient-condition checkers, and a sampling-based geometric oracle."""

import types

from .errors import ConvergenceError, DomainError, SingularPointError
from .wright import (
    DEFAULT_CONTROL,
    DerivativeValues,
    SeriesControl,
    WrightParams,
    derivs_at_one,
    norm_coeff,
    norm_coeffs,
    normalized_eval,
    wright_eval,
)
from .mappings import (
    CoefficientSeq,
    ConvolutionSpec,
    EvalPoint,
    ImageCoefficients,
    convolve,
    eval_derivs,
    eval_map,
    identity_image,
    random_coefficients,
)
from .criteria import (
    CriterionReport,
    FORM_DERIVED,
    FORM_EXACT,
    FORM_STATED,
    THEOREM_IDS,
    class_bound_coeffs,
    close_to_convex_lhs,
    close_to_convex_probe,
    default_epsilons,
    exact_image_criterion,
    hypothesis_columns,
    lemma1_sum,
    lemma2_sum,
    lemma5_sum,
    lemma6_membership,
    stated_hypothesis,
)
from .oracle import (
    OracleReport,
    SampleGrid,
    Violation,
    dtheta_arg_f,
    dtheta_arg_ftheta,
    jacobian_margin,
    sweep,
)

__version__ = "0.1.0"

# Every name imported above, and the version.
__all__ = [
    name for name, value in list(globals().items())
    if not name.startswith("_") and not isinstance(value, types.ModuleType)
] + ["__version__"]
