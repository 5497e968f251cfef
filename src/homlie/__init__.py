"""Exact verification engine for Hom-Lie algebroid structures over
polynomial coefficient rings with rational coefficients.

Everything is checked as an exact polynomial identity: no floating
point appears anywhere, so every verdict is at tolerance zero.
"""

from .calculus import (
    CartanContext,
    check_differential_props,
    differential,
    interior,
    lie_derivative_form,
    lie_derivative_tensor,
    schouten,
)
from .exterior import (
    EndoMap,
    Form,
    MultiVector,
    SectionTwist,
    pair,
    twist_tensor,
)
from .homalg import (
    HomAlgebroid,
    PullbackVectorField,
    ad_twist,
    bracket_phistar,
    check_axioms,
    make_pullback_tangent,
    make_tm_r,
)
from .polyring import AffineTwist, Poly, monomials
from .report import CheckResult, PreconditionError, StructureError, TheoremViolation, Witness

__version__ = "0.1.0"

# benchmark run records carry the kernel backend; there is only one
BACKEND = "python"

__all__ = [
    "AffineTwist",
    "BACKEND",
    "CartanContext",
    "CheckResult",
    "EndoMap",
    "Form",
    "HomAlgebroid",
    "MultiVector",
    "Poly",
    "PreconditionError",
    "PullbackVectorField",
    "SectionTwist",
    "StructureError",
    "TheoremViolation",
    "Witness",
    "ad_twist",
    "bracket_phistar",
    "check_axioms",
    "check_differential_props",
    "differential",
    "interior",
    "lie_derivative_form",
    "lie_derivative_tensor",
    "make_pullback_tangent",
    "make_tm_r",
    "monomials",
    "pair",
    "schouten",
    "twist_tensor",
]
