"""Exact computer algebra for operator algebras built from a commutative
coefficient algebra and a family of commuting derivations, with normal-ordered
multiplication, the induced Lie bracket, the natural action on coefficients,
and truncated-window probes for simplicity-style structure questions.
"""

from .coefficients import AElement, Context, Derivation, Monomial, VariableSpec
from .errors import (
    BasisCapError,
    EvalError,
    ExponentCapError,
    InternalError,
    ParseError,
    UsageError,
    ValidationError,
    VariableCapError,
    WeylTypeError,
    WindowError,
)
from .fields import RATIONAL, FieldSpec, Scalar, binom_scalar, format_scalar, parse_scalar
from .multiindex import (
    MINUS_INFINITY,
    MultiIndex,
    PAdicFactor,
    binom_product,
    compare,
    lower_set,
    p_adic_factor,
)
from .operators import (
    MAX_EXPONENT,
    LeadingData,
    WeylElement,
    act,
    apply_multi,
    format_multi_index,
    format_weyl,
    leading,
    lie_bracket,
    split_constant,
    support,
    w_mul,
    wbasis,
    wderivation,
    wfrom_a,
    widentity,
    wzero,
)
from .parser import evaluate, evaluate_text, parse, parse_text, tokenize
from .probes import (
    ProbeVerdict,
    SubspaceBasis,
    Window,
    assoc_ideal_closure_probe,
    compute_f1,
    d_simplicity_probe,
    equal_mod_f1,
    lie_ideal_closure_probe,
    theta_kernel,
)
from .scenario import Scenario, load_bundled, load_scenario, bundled_scenario_names

__version__ = "0.1.0"
