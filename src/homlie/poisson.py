"""Twist-invariant Poisson bivectors on a Hom-Lie algebroid: the sharp
map, the induced bracket on covectors, the dual algebroid, the induced
degree-raising operator on multivectors, and the correspondence with
classical Poisson pairs on the pullback tangent instance.  Every entry
point on an algebroid takes the bivector as a Bivector.
"""

from __future__ import annotations

from itertools import product

from . import classical, probes
from .calculus import (
    CartanContext,
    _koszul_differential,
    differential,
    lie_derivative_form,
    schouten,
)
from .exterior import (
    EndoMap,
    Form,
    MultiVector,
    dual_section_twist,
    pair,
    poly_mat_mul,
    reinterpret,
    require_invariant,
    twist_invariance,
    wedge_all,
)
from .homalg import HomAlgebroid, make_pullback_tangent
from .polyring import AffineTwist, Poly
from .report import (
    CheckResult,
    PreconditionError,
    StructureError,
    TheoremViolation,
    Witness,
    first_failure,
    first_nonzero,
    require,
)


class Bivector:
    """A degree-2 multivector with its cached sharp map.

    Sharp convention: for a decomposition sum X_i wedge Y_i the sharp of
    alpha is sum(<alpha, X_i> Y_i - <alpha, Y_i> X_i).
    """

    __slots__ = ("table", "rank", "n", "sharp")

    def __init__(self, table: MultiVector):
        if table.degree != 2:
            raise PreconditionError("a bivector must have degree 2")
        self.table = table
        self.rank = table.rank
        self.n = table.n
        mat = [[Poly.zero(self.n) for _ in range(self.rank)] for _ in range(self.rank)]
        for (i, j), c in table.coeffs.items():
            mat[j][i] = mat[j][i] + c
            mat[i][j] = mat[i][j] - c
        self.sharp = EndoMap(mat, kind="form")

    @classmethod
    def from_sharp(cls, matrix, n: int) -> "Bivector":
        """Recover the bivector from a sharp matrix; requires the matrix
        to be antisymmetric."""
        rank = len(matrix)
        rows = [
            [x if isinstance(x, Poly) else Poly.const(n, x) for x in row] for row in matrix
        ]
        coeffs = {}
        for i in range(rank):
            if not rows[i][i].is_zero():
                raise TheoremViolation(
                    f"sharp matrix has a nonzero diagonal entry at {i}: "
                    f"{rows[i][i].render()}"
                )
            for j in range(i + 1, rank):
                res = rows[i][j] + rows[j][i]
                if not res.is_zero():
                    raise TheoremViolation(
                        f"sharp matrix is not antisymmetric at ({i},{j}): "
                        f"residual {res.render()}"
                    )
                c = -rows[i][j]
                if not c.is_zero():
                    coeffs[(i, j)] = c
        return cls(MultiVector(rank, n, 2, coeffs))

    def sharp_apply(self, alpha: Form) -> MultiVector:
        """pi-sharp of a covector: the sharp matrix on its coefficients,
        read as a section."""
        if alpha.degree != 1:
            raise StructureError("sharp application needs a degree-1 form")
        return MultiVector.from_vector(self.rank, self.n, self.sharp._mat_apply(alpha.vector()))

    def render(self, names=None) -> str:
        return self.table.render(names)

    def __repr__(self) -> str:
        return f"Bivector({self.render()})"


def is_hom_poisson(ctx: CartanContext, pi: Bivector) -> CheckResult:
    """Vanishing self-bracket plus twist invariance, both as exact
    residuals; computed once per context and bivector."""
    return ctx.once(("is_hom_poisson", pi.table), lambda: first_failure("is_hom_poisson", [
        twist_invariance("pi", pi.table, ctx.algebroid.phiA),
        first_nonzero("self-bracket", [({"pi": pi}, schouten(ctx, pi.table, pi.table))]),
    ]))


def sharp_commutes(ctx: CartanContext, pi: Bivector, probe_degree: int = 3) -> CheckResult:
    """Twist-sharp commutation on probe covectors, reported alongside
    invariance; the two verdicts must agree."""
    A = ctx.algebroid

    def cases():
        for label, alpha in probes.coframes(A, probe_degree):
            lhs = A.phiA.apply_graded(pi.sharp_apply(alpha))
            rhs = pi.sharp_apply(ctx.dagger.apply_graded(alpha))
            yield {"alpha": label}, lhs - rhs

    found = first_nonzero("sharp-twist-commutation", cases())
    commutes = found.passed
    invariant = twist_invariance("pi", pi.table, A.phiA).passed
    result = CheckResult(
        "sharp_commutes",
        commutes,
        found.witness,
        details={"invariant": invariant, "commutes": commutes, "equivalent": commutes == invariant},
    )
    if commutes != invariant:
        raise TheoremViolation(
            "sharp commutation and twist invariance disagree: "
            f"commutes={commutes}, invariant={invariant}"
        )
    return result


def bracket_pi(ctx: CartanContext, pi: Bivector, xi: Form, eta: Form) -> Form:
    """Covector bracket induced by the bivector."""
    return _sharp_bracket(ctx, xi, pi.sharp_apply(xi), eta, pi.sharp_apply(eta))


def _sharp_bracket(
    ctx: CartanContext, xi: Form, s_xi: MultiVector, eta: Form, s_eta: MultiVector
) -> Form:
    """L_{s_xi} eta - L_{s_eta} xi - d<eta, s_xi>: the covector bracket
    of the sharp map that sends xi to s_xi and eta to s_eta."""
    out = lie_derivative_form(ctx, s_xi, eta) - lie_derivative_form(ctx, s_eta, xi)
    return out - differential(ctx, pair(eta, s_xi))


def dual_algebroid(ctx: CartanContext, pi: Bivector) -> HomAlgebroid:
    """The dual-frame algebroid carried by a Poisson bivector: dagger
    twist, covector bracket, anchor through the sharp map.  Refuses
    non-Poisson input with the failing residual.  Built once per context
    and bivector."""
    return _dual_context(ctx, pi).algebroid


def _dual_context(ctx: CartanContext, pi: Bivector) -> CartanContext:
    """The context of the dual algebroid, derived from ctx once; a
    refusal is not cached, so every caller raises it."""
    return ctx.once(("dual of", pi.table), lambda: CartanContext(_dual_data(ctx, pi)))


def _dual_data(ctx: CartanContext, pi: Bivector) -> HomAlgebroid:
    require(is_hom_poisson(ctx, pi), "bivector is not Poisson")
    return _dual_candidate(ctx, pi)


def _dual_candidate(ctx: CartanContext, pi: Bivector) -> HomAlgebroid:
    """The dual candidate of any bivector: dagger twist, covector
    bracket on the coframe, anchor rho . sharp.  It is a Hom-Lie
    algebroid exactly when the bivector is Poisson."""
    A = ctx.algebroid
    structure = {
        (i, j): bracket_pi(ctx, pi, A.coframe(i), A.coframe(j))
        for i in range(ctx.rank)
        for j in range(i + 1, ctx.rank)
    }
    return HomAlgebroid(
        A.phi,
        dual_section_twist(A.phiA),
        poly_mat_mul(A.anchor, pi.sharp.matrix),
        structure,
    )


def d_pi(ctx: CartanContext, pi: Bivector, D) -> MultiVector:
    """Degree-raising operator on multivectors driven by the bivector:
    the differential of the dual candidate (the Koszul formula run on
    the dual side), defined for every twist-invariant bivector.  The
    result is cross-checked against the graded bracket with the
    bivector on every call."""
    reason = "bivector is not twist-invariant: residual"
    require_invariant("pi", pi.table, ctx.algebroid.phiA, reason)
    D = ctx.as_multivector(D)
    candidate = lambda: CartanContext(_dual_candidate(ctx, pi))
    dual_ctx = ctx.once(("dual candidate of", pi.table), candidate)
    out = reinterpret(_koszul_differential(dual_ctx, reinterpret(D, Form)), MultiVector)
    bracket_route = schouten(ctx, pi.table, D)
    if out != bracket_route:
        raise TheoremViolation(
            "dual evaluation route disagrees with the graded bracket: "
            f"{(out - bracket_route).render()}"
        )
    return out


def pi_pi_cases(ctx: CartanContext, pi: Bivector, pairs):
    """(inputs, residual) for each covector pair (alpha, beta): half the
    self-bracket contracted against the twisted covectors, minus the
    sharp-commutator defect.  The self-bracket does not depend on the
    pair, so it is computed once for all of them."""
    A = ctx.algebroid
    sq = schouten(ctx, pi.table, pi.table)
    half = Poly.const(ctx.n, "1/2")
    for alpha, beta in pairs:
        d_alpha = ctx.dagger.apply_graded(alpha)
        d_beta = ctx.dagger.apply_graded(beta)
        lhs_coeffs = []
        for k in range(ctx.rank):
            W = wedge_all(ctx.rank, ctx.n, [d_alpha, d_beta, A.coframe(k)], Form)
            lhs_coeffs.append(pair(W, sq))
        lhs = MultiVector.from_vector(ctx.rank, ctx.n, [half * c for c in lhs_coeffs])
        rhs = A.bracket(pi.sharp_apply(alpha), pi.sharp_apply(beta)) - pi.sharp_apply(
            bracket_pi(ctx, pi, alpha, beta)
        )
        yield {"alpha": alpha, "beta": beta}, lhs - rhs


def pi_pi_identity(ctx: CartanContext, pi: Bivector) -> CheckResult:
    """Half the self-bracket contracted against twisted covectors equals
    the sharp-commutator defect, on every ordered pair of coframe
    covectors; holds whether or not the self-bracket vanishes."""
    co = [ctx.algebroid.coframe(i) for i in range(ctx.rank)]
    found = first_nonzero("pi-pi-contraction", pi_pi_cases(ctx, pi, product(co, co)))
    return CheckResult("pi_pi_identity", found.passed, found.witness)


def lift_bivector(phi: AffineTwist, pi_classical: dict):
    """Pullback tangent instance together with the lifted bivector
    (coefficients pulled back along the base map).  pi_classical is the
    classical coefficient table {(i, j): Poly} with i < j."""
    n = phi.n
    pi_cl = MultiVector(n, n, 2, pi_classical)
    ctx = CartanContext(make_pullback_tangent(phi))
    lifted = MultiVector(n, n, 2, {I: phi.pullback(c) for I, c in pi_cl.coeffs.items()})
    return ctx, Bivector(lifted), pi_cl


def classical_poisson_lift(phi: AffineTwist, pi_classical: dict) -> CheckResult:
    """Build the pullback tangent instance, lift the classical bivector,
    and report whether the classical verdict (vanishing self-bracket and
    invariance under the pushforward) matches the twisted verdict."""
    ctx, lifted_biv, pi_cl = lift_bivector(phi, pi_classical)
    classical_square = classical.schouten_classical(pi_cl, pi_cl)
    classical_poisson = classical_square.is_zero()
    pushed = classical.pushforward_bivector(phi, pi_cl)
    classical_invariant = (pushed - pi_cl).is_zero()
    hom = is_hom_poisson(ctx, lifted_biv)
    hom_poisson = hom.details.get("self-bracket") == "pass"
    hom_invariant = hom.details.get("twist-invariance") == "pass"
    agrees = (classical_poisson == hom_poisson) and (
        classical_invariant == hom_invariant
    )
    details = {
        "classical-poisson": classical_poisson,
        "classical-invariant": classical_invariant,
        "hom-poisson": hom_poisson,
        "hom-invariant": hom_invariant,
    }
    return CheckResult(
        "classical_poisson_lift",
        agrees,
        None if agrees else Witness("lift-correspondence", {"pi": pi_cl.render()}, str(details)),
        details,
    )

