"""Subbundles of a doubled structure: isotropy, twist invariance,
closure under the bracket, the induced algebroid on a passing
subbundle, graphs of dual-to-primal maps, and the gradient-type
obstruction that characterizes which graphs pass.

Span membership is decided by exact Gaussian elimination over the
rational-function field with an explicit polynomiality check on the
solution; graphs and factor subbundles always stay inside this
restricted solver.
"""

from __future__ import annotations

from itertools import combinations

from . import probes
from .calculus import schouten
from .courant import BialgebroidPair, CourantDouble, ESection
from .exterior import (
    EndoMap,
    MultiVector,
    SectionTwist,
    poly_mat_det,
    twist_invariance,
)
from .homalg import HomAlgebroid
from .poisson import Bivector, _as_bivector
from .polyring import Poly, poly_divides
from .report import (
    CheckResult,
    PreconditionError,
    StructureError,
    Witness,
    first_failure,
    first_nonzero,
)


class _RF:
    """Rational function as an unreduced numerator/denominator pair;
    enough arithmetic for small eliminations."""

    __slots__ = ("num", "den")

    def __init__(self, num: Poly, den: Poly | None = None):
        if den is None:
            den = Poly.const(num.n, 1)
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        self.num = num
        self.den = den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __add__(self, other):
        return _RF(self.num * other.den + other.num * self.den, self.den * other.den)

    def __sub__(self, other):
        return _RF(self.num * other.den - other.num * self.den, self.den * other.den)

    def __mul__(self, other):
        return _RF(self.num * other.num, self.den * other.den)

    def __truediv__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("division by the zero rational function")
        return _RF(self.num * other.den, self.den * other.num)

    def as_poly(self):
        """Exact polynomial value, or None when the reduced form is not
        polynomial."""
        return poly_divides(self.den, self.num)


def solve_membership(columns, target):
    """Solve sum_j c_j columns[j] = target for polynomial c_j.

    columns: list of coefficient tuples (length m); target: length-m
    tuple.  Returns ("member", coeffs), ("not-member", residual_index)
    or ("non-polynomial", column_index).
    """
    m = len(target)
    k = len(columns)
    n = target[0].n
    aug = [[_RF(columns[j][i]) for j in range(k)] + [_RF(target[i])] for i in range(m)]
    pivots = []
    row = 0
    for col in range(k):
        pivot = next((r for r in range(row, m) if not aug[r][col].is_zero()), None)
        if pivot is None:
            continue
        aug[row], aug[pivot] = aug[pivot], aug[row]
        pivots.append(col)
        for r in range(m):
            if r != row and not aug[r][col].is_zero():
                factor = aug[r][col] / aug[row][col]
                aug[r] = [a - factor * b for a, b in zip(aug[r], aug[row])]
        row += 1
    solution = [_RF(Poly.zero(n))] * k
    for r, col in enumerate(pivots):
        solution[col] = aug[r][k] / aug[r][col]
    for r in range(row, m):
        if not aug[r][k].is_zero():
            return "not-member", r
    coeffs = []
    for j, val in enumerate(solution):
        p = val.as_poly()
        if p is None:
            return "non-polynomial", j
        coeffs.append(p)
    # defensive re-check of the full system
    for i in range(m):
        acc = Poly.zero(n)
        for j in range(k):
            acc = acc + columns[j][i] * coeffs[j]
        if not (acc - target[i]).is_zero():
            return "not-member", i
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

    def generator_matrix(self):
        """Columns are generators, rows the 2r frame coefficients."""
        return [
            [g.coeffs[i] for g in self.generators] for i in range(2 * self.host.r)
        ]

    def is_full_rank(self) -> bool:
        cols = self.generator_matrix()
        r = self.host.r
        for rows in combinations(range(2 * r), r):
            minor = [[cols[i][j] for j in range(r)] for i in rows]
            if not poly_mat_det(minor).is_zero():
                return True
        return False

    def membership(self, section: ESection):
        cols = [g.coeffs for g in self.generators]
        return solve_membership(cols, section.coeffs)


def is_isotropic(L: Subbundle) -> CheckResult:
    """The pairing vanishes on every generator pair; with full rank this
    is maximal isotropy."""
    if not L.is_full_rank():
        raise PreconditionError("generators are rank-deficient at the generic point")
    gens = L.generators
    pairings = (
        ({"g_i": f"g{i + 1}", "g_j": f"g{j + 1}"}, L.host.pairing(gens[i], gens[j]))
        for i in range(len(gens))
        for j in range(i, len(gens))
    )
    return first_nonzero("is_isotropic", pairings)


def is_phi_invariant(L: Subbundle) -> CheckResult:
    """Each twisted generator must stay inside the polynomial span of
    the generators."""
    name = "is_phi_invariant"
    if not L.is_full_rank():
        raise PreconditionError("generators are rank-deficient at the generic point")
    for i, g in enumerate(L.generators):
        status, _ = L.membership(L.host.phiE(g))
        if status != "member":
            reason = (
                "fails (restricted solver): not a polynomial-frame member"
                if status == "non-polynomial"
                else "image leaves the span"
            )
            return CheckResult(
                name,
                False,
                Witness(name, {"generator": f"g{i + 1}", "status": status}, reason),
            )
    return CheckResult(name, True)


def is_integrable(L: Subbundle, probe_degree: int = 1) -> CheckResult:
    """Brackets of generators stay in the span; closure under function
    multiples is additionally spot-checked."""
    name = "is_integrable"
    if not L.is_full_rank():
        raise PreconditionError("generators are rank-deficient at the generic point")
    for i in range(len(L.generators)):
        for j in range(i + 1, len(L.generators)):
            br = L.host.bracket(L.generators[i], L.generators[j])
            status, _ = L.membership(br)
            if status != "member":
                reason = (
                    "fails (restricted solver): not a polynomial-frame member"
                    if status == "non-polynomial"
                    else "bracket leaves the span"
                )
                return CheckResult(
                    name,
                    False,
                    Witness(name, {"pair": f"(g{i + 1},g{j + 1})", "status": status}, reason),
                )
    spot = probes.nonconstant_monomials(L.host.n, probe_degree)[:2]
    for f in spot:
        for i in range(min(2, len(L.generators))):
            for j in range(len(L.generators)):
                br = L.host.bracket(L.generators[i], L.generators[j].scale(f))
                status, _ = L.membership(br)
                if status != "member":
                    return CheckResult(
                        name,
                        False,
                        Witness(
                            name,
                            {"pair": f"(g{i + 1},({f.render()})g{j + 1})", "status": status},
                            "scaled bracket leaves the span",
                        ),
                    )
    return CheckResult(name, True)


def dirac_checks(L: Subbundle) -> CheckResult:
    results = [is_isotropic(L), is_phi_invariant(L), is_integrable(L)]
    return first_failure("dirac_checks", results)


def dirac_to_algebroid(L: Subbundle) -> HomAlgebroid:
    """Restrict the bracket, twist and anchor to a passing subbundle; the
    result is expressed in the generator frame.  The restricted twist
    matrix may fail to be invertible; its invertibility is reported by
    the twist itself."""
    verdict = dirac_checks(L)
    if not verdict.passed:
        raise PreconditionError(
            "subbundle is not a valid graph-type structure: " + verdict.witness.render(),
            verdict.witness,
        )
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


def graph(E: CourantDouble, H) -> Subbundle:
    """Span of the sections (H applied to a dual frame element) plus that
    element; automatically full rank."""
    if isinstance(H, EndoMap):
        H = H.matrix
    r = E.r
    gens = []
    for i in range(r):
        coeffs = [
            H[k][i] if isinstance(H[k][i], Poly) else Poly.const(E.n, H[k][i])
            for k in range(r)
        ]
        coeffs += [Poly.const(E.n, 1 if k == i else 0) for k in range(r)]
        gens.append(ESection(coeffs, E.n))
    return Subbundle(E, gens)


def maurer_cartan_defect(P: BialgebroidPair, pi) -> MultiVector:
    """Dual differential of the bivector plus half its graded square."""
    ctx = P.ctx
    pi = _as_bivector(ctx, pi)
    inv = twist_invariance("pi", pi.table, P.A.phiA)
    if not inv.passed:
        raise PreconditionError(
            "bivector is not twist-invariant: " + inv.witness.residual, inv.witness
        )
    half = Poly.const(ctx.n, "1/2")
    return P.dual_differential(pi.table) + schouten(ctx, pi.table, pi.table).scale(half)


def graph_theorem_check(P: BialgebroidPair, H) -> CheckResult:
    """Evaluate both characterizations independently: the three
    subbundle checks on the graph, versus skewness, sharp commutation
    and the vanishing gradient obstruction; the verdicts must agree."""
    if isinstance(H, EndoMap):
        H_mat = [list(r) for r in H.matrix]
    else:
        H_mat = [
            [x if isinstance(x, Poly) else Poly.const(P.A.n, x) for x in row] for row in H
        ]
    E = CourantDouble(P)
    L = graph(E, H_mat)
    side_a = dirac_checks(L)

    r = P.A.rank
    n = P.A.n
    skew = all(
        (H_mat[i][j] + H_mat[j][i]).is_zero() for i in range(r) for j in range(r)
    )
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
