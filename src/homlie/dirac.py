"""Subbundles of a doubled structure: isotropy, twist invariance,
closure under the bracket, the induced algebroid on a passing
subbundle, graphs of dual-to-primal maps, and the gradient-type
obstruction that characterizes which graphs pass.

Span membership: a full-rank generator matrix G has a nonzero r x r
minor M on some rows R, found once per subbundle.  Over the
rational-function field the only solution of G c = t is then
c = adj(M) t_R / det(M), so t is a polynomial member exactly when
G adj(M) t_R = det(M) t on every row and det(M) divides each entry of
adj(M) t_R; graphs and factor subbundles always stay inside this
restricted solver.
"""

from __future__ import annotations

from functools import cached_property
from itertools import combinations

from . import probes
from .calculus import schouten
from .courant import BialgebroidPair, CourantDouble, ESection
from .exterior import (
    EndoMap,
    MultiVector,
    SectionTwist,
    poly_mat_adjugate,
    poly_mat_det,
    require_invariant,
    twist_invariance,
)
from .homalg import HomAlgebroid
from .poisson import Bivector
from .polyring import Poly, poly_divides, sum_products
from .report import (
    CheckResult,
    PreconditionError,
    StructureError,
    Witness,
    first_failure,
    first_nonzero,
    require,
)


def _find_pivot(columns):
    """The first row tuple R, in combinations order, on which the square
    minor M of the columns is nonzero, with det(M) and adj(M); None when
    the columns are rank-deficient."""
    for rows in combinations(range(len(columns[0])), len(columns)):
        minor = [[col[i] for col in columns] for i in rows]
        det = poly_mat_det(minor)
        if not det.is_zero():
            return rows, det, poly_mat_adjugate(minor)
    return None


def _full_rank(pivot):
    """The pivot, refusing rank-deficient generators."""
    if pivot is None:
        raise PreconditionError("generators are rank-deficient at the generic point")
    return pivot


def _solve(columns, pivot, target):
    """Over the rational functions the only solution is
    c = adj(M) t_R / det(M); test it on every row, then for polynomiality."""
    rows, det, adj = pivot
    n = det.n
    nums = [sum_products(n, zip(a, (target[i] for i in rows))) for a in adj]
    for i, t in enumerate(target):
        if sum_products(n, ((col[i], num) for col, num in zip(columns, nums))) != det * t:
            return "not-member", i
    coeffs = []
    for j, num in enumerate(nums):
        c = poly_divides(det, num)
        if c is None:
            return "non-polynomial", j
        coeffs.append(c)
    return "member", coeffs


class Subbundle:
    """A rank-r subbundle of the doubled bundle given by generating
    sections with polynomial coefficients."""

    def __init__(self, host: CourantDouble, generators):
        self.host = host
        self.generators = [
            g if isinstance(g, ESection) else ESection(list(g), host.n)
            for g in generators
        ]
        if len(self.generators) != host.r:
            raise StructureError(
                f"expected {host.r} generators for half-rank {host.r}, got {len(self.generators)}"
            )

    @cached_property
    def _pivot(self):
        return _find_pivot([g.coeffs for g in self.generators])

    def membership(self, section: ESection):
        cols = [g.coeffs for g in self.generators]
        return _solve(cols, _full_rank(self._pivot), section.coeffs)


def is_isotropic(L: Subbundle) -> CheckResult:
    """The pairing vanishes on every generator pair; with full rank this
    is maximal isotropy."""
    _full_rank(L._pivot)
    gens = L.generators
    pairings = (
        ({"g_i": f"g{i + 1}", "g_j": f"g{j + 1}"}, L.host.pairing(gens[i], gens[j]))
        for i in range(len(gens))
        for j in range(i, len(gens))
    )
    return first_nonzero("is_isotropic", pairings)


_RESTRICTED = "fails (restricted solver): not a polynomial-frame member"


def _span_check(name, L, cases, leaves, non_polynomial=_RESTRICTED):
    """Every (inputs, section) case must be a polynomial member of the
    span; the first that is not fails the check with its status."""
    for inputs, section in cases:
        status, _ = L.membership(section)
        if status != "member":
            reason = non_polynomial if status == "non-polynomial" else leaves
            return CheckResult(name, False, Witness(name, {**inputs, "status": status}, reason))
    return CheckResult(name, True)


def is_phi_invariant(L: Subbundle) -> CheckResult:
    """Each twisted generator must stay inside the polynomial span of
    the generators."""
    name = "is_phi_invariant"
    _full_rank(L._pivot)
    images = (({"generator": f"g{i + 1}"}, L.host.phiE(g)) for i, g in enumerate(L.generators))
    return _span_check(name, L, images, "image leaves the span")


def is_integrable(L: Subbundle, probe_degree: int = 1) -> CheckResult:
    """Brackets of generators stay in the span; closure under function
    multiples is additionally spot-checked."""
    name = "is_integrable"
    _full_rank(L._pivot)
    gens = L.generators
    brackets = (
        ({"pair": f"(g{i + 1},g{j + 1})"}, L.host.bracket(gens[i], gens[j]))
        for i in range(len(gens))
        for j in range(i + 1, len(gens))
    )
    scaled = (
        ({"pair": f"(g{i + 1},({f.render()})g{j + 1})"}, L.host.bracket(gens[i], gens[j].scale(f)))
        for f in probes.nonconstant_monomials(L.host.n, probe_degree)[:2]
        for i in range(min(2, len(gens)))
        for j in range(len(gens))
    )
    found = _span_check(name, L, brackets, "bracket leaves the span")
    if not found.passed:
        return found
    scaled_leaves = "scaled bracket leaves the span"
    return _span_check(name, L, scaled, scaled_leaves, scaled_leaves)


def dirac_checks(L: Subbundle) -> CheckResult:
    results = [is_isotropic(L), is_phi_invariant(L), is_integrable(L)]
    return first_failure("dirac_checks", results)


def dirac_to_algebroid(L: Subbundle) -> HomAlgebroid:
    """Restrict the bracket, twist and anchor to a passing subbundle; the
    result is expressed in the generator frame.  The restricted twist
    matrix may fail to be invertible; its invertibility is reported by
    the twist itself."""
    require(dirac_checks(L), "subbundle is not a valid graph-type structure")
    host = L.host
    r = host.r
    gens = L.generators
    # membership succeeds on every image and bracket: the checks passed
    twist_cols = [L.membership(host.phiE(g))[1] for g in gens]
    twist_matrix = [[twist_cols[j][i] for j in range(r)] for i in range(r)]
    phiA = SectionTwist(twist_matrix, host.phi, "multivector")
    structure = {
        (i, j): L.membership(host.bracket(gens[i], gens[j]))[1]
        for i in range(r)
        for j in range(i + 1, r)
    }
    anchor_cols = [host.rho_field(g).coeffs for g in gens]
    anchor = [[anchor_cols[j][i] for j in range(r)] for i in range(host.n)]
    return HomAlgebroid(host.phi, phiA, anchor, structure)


def graph(E: CourantDouble, H: EndoMap) -> Subbundle:
    """Span of the sections (H applied to a dual frame element) plus that
    element; automatically full rank."""
    r = E.r
    gens = []
    for i in range(r):
        coeffs = [H.matrix[k][i] for k in range(r)]
        coeffs += [Poly.const(E.n, 1 if k == i else 0) for k in range(r)]
        gens.append(ESection(coeffs, E.n))
    return Subbundle(E, gens)


def maurer_cartan_defect(P: BialgebroidPair, pi: Bivector) -> MultiVector:
    """Dual differential of the bivector plus half its graded square."""
    ctx = P.ctx
    require_invariant("pi", pi.table, P.A.phiA, "bivector is not twist-invariant:")
    half = Poly.const(ctx.n, "1/2")
    return P.dual_differential(pi.table) + schouten(ctx, pi.table, pi.table).scale(half)


def check_maurer_cartan(P: BialgebroidPair, pi: Bivector) -> CheckResult:
    """The bivector solves the Maurer-Cartan equation of the pair: its
    `maurer_cartan_defect` vanishes."""
    found = first_nonzero("maurer-cartan-equation", [({"pi": pi}, maurer_cartan_defect(P, pi))])
    return CheckResult("maurer_cartan", found.passed, found.witness)


def graph_theorem_check(P: BialgebroidPair, H: EndoMap) -> CheckResult:
    """Evaluate both characterizations independently: the three
    subbundle checks on the graph, versus skewness, sharp commutation
    and the vanishing gradient obstruction; the verdicts must agree."""
    side_a = dirac_checks(graph(CourantDouble(P), H))

    r = P.A.rank
    n = P.A.n
    H_mat = H.matrix
    skew = all((H_mat[i][j] + H_mat[j][i]).is_zero() for i in range(r) for j in range(r))
    commutation = False
    mc_zero = False
    if skew:
        pi = Bivector.from_sharp(H_mat, n)
        inv = twist_invariance("pi", pi.table, P.A.phiA).passed
        commutation = inv
        if inv:
            mc_zero = maurer_cartan_defect(P, pi).is_zero()
    side_b = skew and commutation and mc_zero
    agree = side_a.passed == side_b
    return CheckResult(
        "graph_theorem_check",
        agree,
        None
        if agree
        else Witness(
            "graph-characterization",
            {
                "subbundle-checks": str(side_a.passed),
                "skew": str(skew),
                "invariant": str(commutation),
                "obstruction-vanishes": str(mc_zero),
            },
            "the two characterizations disagree",
        ),
        details={
            "subbundle-side": side_a.passed,
            "tensor-side": side_b,
            "skew": skew,
            "invariant": commutation,
            "obstruction-vanishes": mc_zero,
        },
    )
