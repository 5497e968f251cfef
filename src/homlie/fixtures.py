"""Built-in instance catalog: the canonical positive instances used
throughout the test suite plus the negative fixtures that exercise
every checker's failure path.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product

from .calculus import CartanContext, schouten
from .exterior import EndoMap, MultiVector, SectionTwist, twist_tensor
from .homalg import HomAlgebroid, make_pullback_tangent, make_tm_r
from .poisson import Bivector
from .polyring import AffineTwist, Poly, monomials


def base_map_s1() -> AffineTwist:
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


def algebroid_s0() -> HomAlgebroid:
    phi = AffineTwist.identity(1)
    return HomAlgebroid(phi, SectionTwist.identity(1, phi), [[Poly.zero(1)]], {})


def algebroid_s1() -> HomAlgebroid:
    return make_pullback_tangent(base_map_s1())


def algebroid_s2() -> HomAlgebroid:
    return make_tm_r(base_map_s1())


def algebroid_s3() -> HomAlgebroid:
    return make_pullback_tangent(AffineTwist.identity(3))


def standard_pi(A: HomAlgebroid) -> Bivector:
    return Bivector(A.frame(0).wedge(A.frame(1)))


def search_invariant_non_poisson_bivector(
    ctx: CartanContext, coeff_degree: int = 1
) -> Bivector:
    """Deterministic enumeration over bivectors with monomial
    coefficients, returning the first twist-invariant one whose graded
    square does not vanish."""
    r, n = ctx.rank, ctx.n
    slots = [(i, j) for i in range(r) for j in range(i + 1, r)]
    options = [Poly.zero(n)] + monomials(n, coeff_degree)
    for combo in product(range(len(options)), repeat=len(slots)):
        if not any(combo):
            continue
        coeffs = {}
        for slot, pick in zip(slots, combo):
            c = options[pick]
            if not c.is_zero():
                coeffs[slot] = c
        table = MultiVector(r, n, 2, coeffs)
        if not (twist_tensor(table, ctx.algebroid.phiA) - table).is_zero():
            continue
        if not schouten(ctx, table, table).is_zero():
            return Bivector(table)
    raise LookupError("no invariant bivector with nonzero square in the search space")


class Fixture:
    def __init__(self, name: str, description: str, tags: list, build):
        self.name = name
        self.description = description
        self.tags = tags
        # builds the fixture's data: the algebroid and any objects checked on it
        self.build = build


def _build_s0():
    return {"algebroid": algebroid_s0()}


def _build_s1():
    A = algebroid_s1()
    return {"algebroid": A, "pi": standard_pi(A)}


def _build_s2():
    return {"algebroid": algebroid_s2()}


def _build_s3():
    return {"algebroid": algebroid_s3()}


def _build_s1_perturbed():
    A = algebroid_s1()
    bad = HomAlgebroid(A.phi, A.phiA, A.anchor, {(0, 1, 0): Poly.const(2, 1)})
    return {"algebroid": bad, "expect_axioms": False}


def _build_s1_noninvariant_pi():
    A = algebroid_s1()
    x = Poly.variable(2, 0)
    return {
        "algebroid": A,
        "pi": Bivector(A.frame(0).wedge(A.frame(1)).scale(x)),
        "expect_poisson": False,
    }


def _build_s1_noncommuting_endo():
    A = algebroid_s1()
    z = Poly.zero(2)
    one = Poly.const(2, 1)
    return {
        "algebroid": A,
        "N": EndoMap([[z, z], [one, z]]),
        "expect_nijenhuis": False,
    }


def _build_s1_incompatible_endo():
    A = algebroid_s1()
    return {
        "algebroid": A,
        "pi": standard_pi(A),
        "N": EndoMap.diagonal(2, [1, 2]),
        "expect_compatible": False,
    }


def _build_s1_scalar_endo():
    A = algebroid_s1()
    return {
        "algebroid": A,
        "pi": standard_pi(A),
        "N": EndoMap.diagonal(2, [Fraction(2), Fraction(2)]),
        "expect_compatible": True,
    }


def _build_s3_nonpoisson_pi():
    A = algebroid_s3()
    ctx = CartanContext(A)
    return {
        "algebroid": A,
        "pi": search_invariant_non_poisson_bivector(ctx),
        "expect_poisson": False,
    }


def _build_s1_symmetric_graph():
    A = algebroid_s1()
    return {"algebroid": A, "H": EndoMap.identity(2, 2), "expect_dirac": False}


CATALOG = [
    Fixture("S0", "rank-1 trivial instance on one variable; every structure map vanishes", ["valid", "algebroid"], _build_s0),
    Fixture("S1", "pullback tangent instance of the plane map (x,y) -> (2x, y/2), with the standard frame bivector", ["valid", "algebroid", "poisson"], _build_s1),
    Fixture("S2", "tangent-plus-line instance of the plane map (x,y) -> (2x, y/2)", ["valid", "algebroid"], _build_s2),
    Fixture("S3", "classical tangent instance on three variables (identity base map)", ["valid", "algebroid", "classical"], _build_s3),
    Fixture("S1-perturbed-structure", "S1 with one structure constant overwritten to 1; fails the anchor compatibility with a witness", ["negative", "algebroid"], _build_s1_perturbed),
    Fixture("S1-noninvariant-pi", "S1 with the coordinate-scaled bivector; the twist doubles it, so invariance fails", ["negative", "poisson"], _build_s1_noninvariant_pi),
    Fixture("S1-noncommuting-endo", "S1 with the nilpotent endomorphism sending the first frame element to the second; does not commute with the twist", ["negative", "nijenhuis"], _build_s1_noncommuting_endo),
    Fixture("S1-incompatible-endo", "S1 with the diagonal (1,2) endomorphism; torsion-free and invariant but fails the sharp commutation with the standard bivector", ["negative", "nijenhuis", "poisson"], _build_s1_incompatible_endo),
    Fixture("S1-scalar-endo", "S1 with a scalar endomorphism; fully compatible with the standard bivector", ["valid", "nijenhuis", "poisson"], _build_s1_scalar_endo),
    Fixture("S3-nonpoisson-pi", "invariant bivector on the classical three-variable instance with nonzero graded square, found by deterministic search over monomial coefficients", ["negative", "poisson", "dirac"], _build_s3_nonpoisson_pi),
    Fixture("S1-symmetric-graph", "graph of the identity map on S1; not isotropic, used as the negative subbundle fixture", ["negative", "dirac"], _build_s1_symmetric_graph),
]


def fixture_tags() -> list:
    """Every tag of the catalog, sorted."""
    return sorted({t for f in CATALOG for t in f.tags})


def list_fixtures(tag: str | None = None):
    out = [f for f in CATALOG if tag is None or tag in f.tags]
    return out
