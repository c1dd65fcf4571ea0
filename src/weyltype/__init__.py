"""Exact computer algebra for operator algebras built from a commutative
coefficient algebra and a family of commuting derivations, with normal-ordered
multiplication, the induced Lie bracket, the natural action on coefficients,
and truncated-window probes for simplicity-style structure questions.

The names below are the library surface: a context, expressions and the
product, the window probes, and the exceptions.  Everything else is imported
from its own module (`weyltype.operators`, `weyltype.scenario`, ...).
"""

from .coefficients import Context
from .errors import (
    BasisCapError,
    EvalError,
    ExponentCapError,
    ParseError,
    UsageError,
    ValidationError,
    VariableCapError,
    WeylTypeError,
)
from .fields import RATIONAL, FieldSpec
from .multiindex import MultiIndex, p_adic_factor
from .operators import w_mul, wbasis, widentity
from .parser import evaluate_text
from .probes import (
    Window,
    assoc_ideal_closure_probe,
    compute_f1,
    d_simplicity_probe,
    lie_ideal_closure_probe,
    theta_kernel,
)

__version__ = "0.1.0"

__all__ = [
    "Context", "FieldSpec", "RATIONAL", "MultiIndex", "p_adic_factor",
    "evaluate_text", "w_mul", "wbasis", "widentity",
    "Window", "compute_f1", "theta_kernel", "d_simplicity_probe",
    "assoc_ideal_closure_probe", "lie_ideal_closure_probe",
    "WeylTypeError", "UsageError", "ValidationError", "ParseError", "EvalError",
    "BasisCapError", "ExponentCapError", "VariableCapError",
]
