"""Wright-kernel harmonic mappings: series numerics, coefficient convolution,
sufficient-condition checkers, and a sampling-based geometric oracle.

Each public name is imported from its module on first access (PEP 562), so
`import wrightmaps.cli` loads numpy only when a command needs it.
"""

import importlib

# The public names, by the module that defines them.
_EXPORTS = {
    "errors": "ConvergenceError DomainError SingularPointError",
    "wright": "DEFAULT_CONTROL DerivativeValues SeriesControl WrightParams derivs_at_one norm_coeff norm_coeffs "
    "normalized_eval wright_eval",
    "mappings": "CoefficientSeq ConvolutionSpec EvalPoint ImageCoefficients convolve eval_derivs eval_map "
    "identity_image random_coefficients",
    "criteria": "CriterionReport FORM_DERIVED FORM_EXACT FORM_STATED THEOREM_IDS class_bound_coeffs "
    "close_to_convex_bound close_to_convex_lhs close_to_convex_probe default_epsilons exact_image_criterion "
    "hypothesis_columns lemma1_sum lemma2_sum lemma5_sum lemma6_membership stated_hypothesis",
    "oracle": "OracleReport SampleGrid Violation dtheta_arg_f dtheta_arg_ftheta jacobian_margin sweep",
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"

__all__ = [*_MODULE_OF, "__version__"]


def __getattr__(name):
    """A public name or a submodule, imported on first access and then bound here."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_EXPORTS})
