"""Torsion-free twist-invariant endomorphisms and their interaction
with Poisson bivectors: deformed algebroids, compatibility tensors, the
bivector hierarchy, and the deformed-dual bialgebroid equivalence with
its graded defect.  Every entry point takes the bivector as a Bivector
and the endomorphism as an EndoMap.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain

from . import probes
from .calculus import (
    CartanContext,
    differential,
    lie_derivative_tensor,
    schouten,
)
from .courant import BialgebroidPair, check_bialgebroid
from .exterior import (
    EndoMap,
    Form,
    MultiVector,
    pair,
    poly_mat_mul,
    require_invariant,
    twist_invariance,
)
from .homalg import HomAlgebroid, by_label
from .poisson import (
    Bivector,
    _sharp_bracket,
    dual_algebroid,
    is_hom_poisson,
)
from .polyring import monomials
from .report import (
    CheckResult,
    PreconditionError,
    TheoremViolation,
    agreement,
    first_failure,
    first_nonzero,
    require,
)


def torsion_value(ctx: CartanContext, N: EndoMap, X: MultiVector, Y: MultiVector) -> MultiVector:
    """[NX,NY] - N[NX,Y] - N[X,NY] + N^2[X,Y]."""
    A = ctx.algebroid
    NX, NY = N.apply(X), N.apply(Y)
    out = A.bracket(NX, NY)
    out = out - N.apply(A.bracket(NX, Y))
    out = out - N.apply(A.bracket(X, NY))
    return out + N.apply(N.apply(A.bracket(X, Y)))


def torsion(ctx: CartanContext, N: EndoMap) -> dict:
    """Frame table of the torsion."""
    A = ctx.algebroid
    return {
        (i, j): torsion_value(ctx, N, A.frame(i), A.frame(j))
        for i in range(ctx.rank)
        for j in range(i + 1, ctx.rank)
    }


def _commutes_with_twist(A: HomAlgebroid, N: EndoMap, sections) -> bool:
    """N(phi_A X) = phi_A(N X) on every labelled probe section X."""
    return all(
        (N.apply(A.phiA.apply_graded(X)) - A.phiA.apply_graded(N.apply(X))).is_zero()
        for _, X in sections
    )


def is_hom_nijenhuis(ctx: CartanContext, N: EndoMap, probe_degree: int = 2) -> CheckResult:
    """Vanishing torsion plus twist invariance; the invariance verdict
    is cross-checked against twist commutation on probe sections.  The
    probes stop at degree 1, so the verdict is computed once per
    context, endomorphism and min(probe_degree, 1)."""
    degree = min(probe_degree, 1)
    return ctx.once(("is_hom_nijenhuis", N, degree), lambda: _nijenhuis_verdict(ctx, N, degree))


def _nijenhuis_verdict(ctx: CartanContext, N: EndoMap, degree: int) -> CheckResult:
    A = ctx.algebroid
    sections = probes.sections(A, degree)
    frame_table = (
        ({"X": f"e{i + 1}", "Y": f"e{j + 1}"}, val)
        for (i, j), val in sorted(torsion(ctx, N).items())
    )
    probe_pairs = (
        ({"X": lx, "Y": ly}, torsion_value(ctx, N, X, Y))
        for lx, X in sections
        for ly, Y in sections
    )
    results = [
        first_nonzero("torsion", chain(frame_table, probe_pairs)),
        twist_invariance("N", N, A.phiA),
    ]
    invariant = results[1].passed
    commutes = _commutes_with_twist(A, N, sections)
    if commutes != invariant:
        raise TheoremViolation(
            f"twist commutation ({commutes}) disagrees with invariance ({invariant})"
        )
    merged = first_failure("is_hom_nijenhuis", results)
    merged.details["commutes-with-twist"] = commutes
    return merged


def lemma_checks(
    ctx: CartanContext, N: EndoMap, Nprime: EndoMap, probe_degree: int = 2
) -> CheckResult:
    """The five structural identities tying the twist to endomorphisms,
    their transposes and their composites."""
    A = ctx.algebroid
    twN = A.phiA.apply_endo(N)
    twNt = ctx.dagger.apply_endo(N.transpose())
    sections = probes.sections(A, probe_degree)
    coforms = probes.coframes(A, probe_degree)

    def image():
        for label, X in sections:
            yield {"X": label}, A.phiA.apply_graded(N.apply(X)) - twN.apply(A.phiA.apply_graded(X))

    def transpose_image():
        for label, xi in coforms:
            lhs = ctx.dagger.apply_graded(N.transpose().apply(xi))
            yield {"xi": label}, lhs - twNt.apply(ctx.dagger.apply_graded(xi))

    composite = A.phiA.apply_endo(N.compose(Nprime)) - twN.compose(A.phiA.apply_endo(Nprime))
    results = [
        first_nonzero("twist-of-image", image()),
        first_nonzero("twist-of-transpose-image", transpose_image()),
        first_nonzero("transpose-commutes-with-twist", [({}, twNt - twN.transpose())]),
        first_nonzero("twist-of-composite", [({}, composite)]),
    ]

    invariant = (twN - N).is_zero()
    commutes = _commutes_with_twist(A, N, sections)
    verdicts = {"invariant": invariant, "commutes": commutes}
    results.append(agreement("invariance-equivalence", "invariance-equivalence", verdicts))
    return first_failure("lemma_checks", results)


def deformed_bracket(ctx: CartanContext, N: EndoMap, X: MultiVector, Y: MultiVector) -> MultiVector:
    """[NX,Y] + [X,NY] - N[X,Y]."""
    A = ctx.algebroid
    return (
        A.bracket(N.apply(X), Y)
        + A.bracket(X, N.apply(Y))
        - N.apply(A.bracket(X, Y))
    )


def _deformed_data(ctx: CartanContext, N: EndoMap) -> HomAlgebroid:
    """The deformed candidate built from frame values of the deformed
    bracket and the composed anchor rho . N; twist invariance of the
    endomorphism makes the twisted Leibniz expansion exact."""
    A = ctx.algebroid
    structure = {
        (i, j): deformed_bracket(ctx, N, A.frame(i), A.frame(j))
        for i in range(ctx.rank)
        for j in range(i + 1, ctx.rank)
    }
    return HomAlgebroid(A.phi, A.phiA, poly_mat_mul(A.anchor, N.matrix), structure)


def _deformed_context(ctx: CartanContext, N: EndoMap) -> CartanContext:
    """The context of the deformed algebroid, derived from ctx once.
    The deformation needs a twist-invariant endomorphism, which every
    caller establishes first (is_hom_nijenhuis or _require_invariant)."""
    return ctx.once(("deformed", N), lambda: CartanContext(_deformed_data(ctx, N)))


def _require_invariant(ctx: CartanContext, N: EndoMap) -> None:
    reason = "deformation requires a twist-invariant endomorphism: residual"
    require_invariant("N", N, ctx.algebroid.phiA, reason)


def deformed_algebroid(ctx: CartanContext, N: EndoMap, probe_degree: int = 2) -> HomAlgebroid:
    """The deformed structure; refuses candidates that are not
    torsion-free and invariant."""
    require(is_hom_nijenhuis(ctx, N, probe_degree), "endomorphism is not a valid deformation")
    return _deformed_context(ctx, N).algebroid


def d_n_props(ctx: CartanContext, N: EndoMap, probe_degree: int = 3) -> CheckResult:
    """The deformed differential acts on functions through the
    transpose, and anticommutes with the original differential there."""
    # refuses an invalid N first
    ctxN = CartanContext(deformed_algebroid(ctx, N, min(probe_degree, 2)))
    Nt = N.transpose()

    def on_functions():
        for f in monomials(ctx.n, probe_degree):
            yield {"f": f}, differential(ctxN, f) - Nt.apply(differential(ctx, f))

    def anticommute():
        for f in monomials(ctx.n, probe_degree):
            res = differential(ctxN, differential(ctx, f)) + differential(
                ctx, differential(ctxN, f)
            )
            yield {"f": f}, res

    results = [
        first_nonzero("deformed-differential-on-functions", on_functions()),
        first_nonzero("differentials-anticommute", anticommute()),
    ]
    return first_failure("d_n_props", results)


# The values of a covector alpha that the compatibility tensors read,
# computed once per covector of a sweep: alpha, N* alpha, pi# alpha,
# pi# N* alpha and N pi# alpha.
_Covector = namedtuple("_Covector", "form Nt sharp sharp_Nt N_sharp")


def _covector(pi: Bivector, N: EndoMap, Nt: EndoMap, alpha: Form) -> _Covector:
    Nt_alpha = Nt.apply(alpha)
    s_alpha = pi.sharp_apply(alpha)
    return _Covector(alpha, Nt_alpha, s_alpha, pi.sharp_apply(Nt_alpha), N.apply(s_alpha))


def compat_C(ctx: CartanContext, pi: Bivector, N: EndoMap, alpha: Form, beta: Form) -> Form:
    """Difference of the two deformed covector brackets."""
    Nt = N.transpose()
    return _compat_tensor(ctx, Nt, _covector(pi, N, Nt, alpha), _covector(pi, N, Nt, beta))


def _compat_tensor(ctx: CartanContext, Nt: EndoMap, a: _Covector, b: _Covector) -> Form:
    """The tensor at the covectors of a and b: the bracket of the
    composed sharp N pi# minus the transposed bracket."""
    first = _sharp_bracket(ctx, a.form, a.N_sharp, b.form, b.N_sharp)
    return first - _transposed_bracket(ctx, Nt, a, b)


def _transposed_bracket(ctx: CartanContext, Nt: EndoMap, a: _Covector, b: _Covector) -> Form:
    """[Nt alpha, beta]_pi + [alpha, Nt beta]_pi - Nt [alpha, beta]_pi for
    the transpose Nt of the endomorphism, at the covectors of a and b."""
    return (
        _sharp_bracket(ctx, a.Nt, a.sharp_Nt, b.form, b.sharp)
        + _sharp_bracket(ctx, a.form, a.sharp, b.Nt, b.sharp_Nt)
        - Nt.apply(_sharp_bracket(ctx, a.form, a.sharp, b.form, b.sharp))
    )


def _sharp_commutation_residual(ctx, pi, N):
    """N . sharp - sharp . transpose as a matrix residual."""
    lhs = poly_mat_mul(N.matrix, pi.sharp.matrix)
    rhs = poly_mat_mul(pi.sharp.matrix, N.transpose().matrix)
    return [
        [lhs[i][j] - rhs[i][j] for j in range(ctx.rank)] for i in range(ctx.rank)
    ]


def _require_sharp_commutation(ctx, pi, N) -> None:
    res = _sharp_commutation_residual(ctx, pi, N)
    if any(not x.is_zero() for row in res for x in row):
        raise PreconditionError("sharp commutation fails; the tensor is undefined")


def _derivative_values(ctx: CartanContext, N: EndoMap, a: _Covector):
    """The dual twist of alpha and the transposed Lie derivative of N
    along pi# alpha, which the derivative tensor reads."""
    return ctx.dagger.apply_graded(a.form), lie_derivative_tensor(ctx, a.sharp, N).transpose()


def _derivative_tensor(ctx: CartanContext, Nt: EndoMap, a: _Covector, b: _Covector, da, db) -> Form:
    """The equivalent compatibility tensor built from Lie derivatives of
    the endomorphism, at the covectors of a and b with their
    `_derivative_values` da and db; defined when the sharp commutes."""
    (dag_alpha, LN_alpha), (dag_beta, LN_beta) = da, db
    out = LN_alpha.apply(dag_beta) - LN_beta.apply(dag_alpha)
    out = out + Nt.apply(differential(ctx, pair(b.form, a.sharp)))
    return out - differential(ctx, pair(b.form, a.sharp_Nt))


def is_hpn(
    ctx: CartanContext,
    pi: Bivector,
    N: EndoMap,
    probe_degree: int = 2,
) -> CheckResult:
    """Full compatibility verdict: both structures, the sharp
    commutation, and the vanishing compatibility tensor.  When the
    hypotheses hold, the four equivalent formulations are evaluated and
    their agreement recorded."""
    fact = _hpn(ctx, pi, N, probe_degree)
    merged = CheckResult(fact.name, fact.passed, fact.witness, dict(fact.details))
    invariant = all(
        ok.details.get("twist-invariance") == "pass"
        for ok in (is_hom_poisson(ctx, pi), is_hom_nijenhuis(ctx, N, probe_degree))
    )
    if invariant and merged.details["sharp-endo-commutation"] == "pass":
        compat = merged.details["compatibility-tensor"] == "pass"
        conds = _prop_conditions(ctx, pi, N, min(probe_degree, 1), compat)
        merged.details.update(conds)
        values = [conds[k] for k in sorted(conds)]
        merged.details["prop-conditions-agree"] = all(values) or not any(values)
    return merged


def _hpn(ctx, pi, N, probe_degree):
    """is_hpn's verdict without the equivalent formulations.  Its probes
    stop at degree 1, so it is computed once per context, bivector,
    endomorphism and min(probe_degree, 1)."""
    degree = min(probe_degree, 1)
    return ctx.once(("hpn", pi.table, N, degree), lambda: _hpn_verdict(ctx, pi, N, degree))


def _hpn_verdict(ctx, pi, N, degree):
    results = [is_hom_poisson(ctx, pi), is_hom_nijenhuis(ctx, N, degree)]
    res_mat = _sharp_commutation_residual(ctx, pi, N)
    entries = (
        ({"entry": f"({i + 1},{j + 1})"}, res_mat[i][j])
        for i in range(ctx.rank)
        for j in range(ctx.rank)
    )
    results.append(first_nonzero("sharp-endo-commutation", entries))
    coforms = probes.coframes(ctx.algebroid, degree)
    Nt = N.transpose()
    covector = by_label(lambda alpha: _covector(pi, N, Nt, alpha))
    tensor = (
        (
            {"alpha": la, "beta": lb},
            _compat_tensor(ctx, Nt, covector(la, alpha), covector(lb, beta)),
        )
        for la, alpha in coforms
        for lb, beta in coforms
    )
    results.append(first_nonzero("compatibility-tensor", tensor))
    return first_failure("is_hpn", results)


def _prop_conditions(ctx, pi, N, probe_degree, compat_tensor):
    """The four equivalent compatibility formulations, each evaluated on
    probe covector pairs.  is_hpn calls it only for a twist-invariant N
    whose sharp commutation holds, passing its own compatibility-tensor
    verdict on the same pairs as compat_tensor."""
    coforms = probes.coframes(ctx.algebroid, probe_degree)
    ctxN = _deformed_context(ctx, N)
    Nt = N.transpose()
    _require_sharp_commutation(ctx, pi, N)
    covector = by_label(lambda alpha: _covector(pi, N, Nt, alpha))
    derivative = by_label(lambda a: _derivative_values(ctx, N, a))
    cond = {
        "cond-compat-tensor": compat_tensor,
        "cond-deformed-vs-composed": True,
        "cond-deformed-vs-transposed": True,
        "cond-derivative-tensor": True,
    }
    for la, alpha in coforms:
        a = covector(la, alpha)
        for lb, beta in coforms:
            b = covector(lb, beta)
            # [alpha, beta]_pi on the deformed algebroid
            base = _sharp_bracket(ctxN, alpha, a.sharp, beta, b.sharp)
            if cond["cond-deformed-vs-composed"]:
                # the bracket of the bivector whose sharp is N pi#
                other = _sharp_bracket(ctx, alpha, a.N_sharp, beta, b.N_sharp)
                if not (base - other).is_zero():
                    cond["cond-deformed-vs-composed"] = False
            if cond["cond-deformed-vs-transposed"]:
                other = _transposed_bracket(ctx, Nt, a, b)
                if not (base - other).is_zero():
                    cond["cond-deformed-vs-transposed"] = False
            if cond["cond-derivative-tensor"]:
                value = _derivative_tensor(ctx, Nt, a, b, derivative(la, a), derivative(lb, b))
                if not value.is_zero():
                    cond["cond-derivative-tensor"] = False
    return cond


def hierarchy(ctx: CartanContext, pi: Bivector, N: EndoMap, depth: int, probe_degree: int = 1):
    """Bivector tower through repeated sharp composition.  Every stage
    is checked to be antisymmetric; every pair of stages must commute
    under the graded bracket and stay compatible with every power of the
    endomorphism."""
    require(_hpn(ctx, pi, N, max(probe_degree, 1)), "hierarchy requires a compatible pair")
    towers = [pi]
    H = pi.sharp.matrix
    for _ in range(depth):
        H = poly_mat_mul(N.matrix, H)
        towers.append(Bivector.from_sharp(H, ctx.n))
    powers = [N.power(p) for p in range(depth + 1)]
    results = []
    for k in range(len(towers)):
        for p in range(depth + 1):
            sub = _hpn(ctx, towers[k], powers[p], probe_degree)
            results.append(
                CheckResult(f"stage-{k}-power-{p}", sub.passed, sub.witness)
            )
    brackets = (
        ({"k": str(k), "l": str(l)}, schouten(ctx, towers[k].table, towers[l].table))
        for k in range(len(towers))
        for l in range(k, len(towers))
    )
    results.append(first_nonzero("stage-brackets-vanish", brackets))
    return towers, first_failure("hierarchy", results)


def bialgebroid_defect(ctx: CartanContext, pi: Bivector, N: EndoMap):
    """The graded defect, as the map (xi1, xi2) -> defect: how far the
    deformed differential is from being a twisted derivation of the dual
    graded bracket.  The undifferentiated slot carries the dagger twist,
    so that the defect vanishes exactly on compatible pairs.  Refuses a
    non-Poisson pi, then a non-invariant N, before the map is built."""
    dual_schouten = BialgebroidPair.from_pi(ctx, pi).dual_schouten
    _require_invariant(ctx, N)
    ctxN = _deformed_context(ctx, N)
    dag = ctx.dagger.apply_graded

    def defect(xi1, xi2) -> Form:
        xi1 = ctx.as_form(xi1)
        xi2 = ctx.as_form(xi2)
        if xi1.degree == 0 and xi2.degree == 0:
            # the graded bracket of two functions vanishes identically, so
            # only the cross terms survive at scalar level
            out = Form.zero(ctx.rank, ctx.n, 0)
        else:
            out = differential(ctxN, dual_schouten(xi1, xi2))
        out = out - dual_schouten(differential(ctxN, xi1), dag(xi2))
        tail = dual_schouten(dag(xi1), differential(ctxN, xi2))
        return out + tail if xi1.degree % 2 == 0 else out - tail

    return defect


def bialgebroid_defect_checks(
    ctx: CartanContext, pi: Bivector, N: EndoMap, probe_degree: int = 1
) -> CheckResult:
    """The five displayed properties of the defect: values on function
    pairs, on differential-function pairs, the wedge rule with the
    doubly-twisted tail, and graded antisymmetry."""
    defect = bialgebroid_defect(ctx, pi, N)  # refuses before any probe runs
    A = ctx.algebroid
    Nt = N.transpose()
    funcs = monomials(ctx.n, probe_degree)

    def sharp_defect(form):
        return N.apply(pi.sharp_apply(form)) - pi.sharp_apply(Nt.apply(form))

    def on_functions():
        for f in funcs:
            for g in funcs:
                lhs = defect(f, g).scalar_value()
                rhs = pair(
                    differential(ctx, A.phi.pullback(f)),
                    sharp_defect(differential(ctx, A.phi.pullback(g))),
                )
                yield {"f": f, "g": g}, lhs - rhs

    def on_exact_and_function():
        for f in funcs:
            for g in funcs:
                lhs = defect(differential(ctx, f), g)
                rhs = compat_C(
                    ctx,
                    pi,
                    N,
                    differential(ctx, A.phi.pullback(f)),
                    differential(ctx, g),
                )
                yield {"f": f, "g": g}, lhs - rhs

    def on_exact_pairs():
        for f in funcs:
            for g in funcs:
                df, dg = differential(ctx, f), differential(ctx, g)
                lhs = defect(df, dg)
                rhs = -differential(ctx, compat_C(ctx, pi, N, df, dg))
                yield {"f": f, "g": g}, lhs - rhs

    coforms = probes.coframes(ctx.algebroid, probe_degree)
    # the values that depend on fewer coforms than a case, each computed
    # on its first lookup: the defect of a pair, keyed by both labels,
    # the wedge of a pair and the double dagger twist of a coform
    pair_defect = by_label(lambda xi_eta: defect(*xi_eta))
    wedge = by_label(lambda xi_eta: xi_eta[0].wedge(xi_eta[1]))
    dagger2 = by_label(lambda w: ctx.dagger.apply_graded(ctx.dagger.apply_graded(w)))

    def wedge_rule():
        for la, alpha in coforms:
            for lb, beta in coforms:
                for lc, gamma in coforms:
                    lhs = defect(alpha, wedge((lb, lc), (beta, gamma)))
                    first = pair_defect((la, lb), (alpha, beta)).wedge(dagger2(lc, gamma))
                    second = dagger2(lb, beta).wedge(pair_defect((la, lc), (alpha, gamma)))
                    even = (alpha.degree * beta.degree) % 2 == 0
                    rhs = first + second if even else first - second
                    yield {"alpha": la, "beta": lb, "gamma": lc}, lhs - rhs

    def graded_antisymmetry():
        for la, alpha in coforms:
            for lb, beta in coforms:
                lhs = pair_defect((la, lb), (alpha, beta))
                rhs = pair_defect((lb, la), (beta, alpha))
                sign = -1 if ((alpha.degree - 1) * (beta.degree - 1)) % 2 == 0 else 1
                yield {"alpha": la, "beta": lb}, lhs - rhs.scale(sign)

    results = [
        first_nonzero("defect-on-functions", on_functions()),
        first_nonzero("defect-on-exact-and-function", on_exact_and_function()),
        first_nonzero("defect-on-exact-pairs", on_exact_pairs()),
        first_nonzero("defect-wedge-rule", wedge_rule()),
        first_nonzero("defect-graded-antisymmetry", graded_antisymmetry()),
    ]
    return first_failure("bialgebroid_defect_checks", results)


def hpn_bialgebroid_equiv(
    ctx: CartanContext, pi: Bivector, N: EndoMap, probe_degree: int = 1
) -> CheckResult:
    """Three verdicts that must coincide: the compatibility of the pair,
    and the bialgebroid identity for the deformed algebroid against the
    dual structure, in both orders."""
    require(is_hom_poisson(ctx, pi), "bivector is not Poisson")
    require(is_hom_nijenhuis(ctx, N, probe_degree), "endomorphism is not a valid deformation")
    hpn = _hpn(ctx, pi, N, probe_degree)
    A_N = _deformed_context(ctx, N).algebroid
    dual = dual_algebroid(ctx, pi)
    pair_check = check_bialgebroid(BialgebroidPair(A_N, dual), probe_degree)
    verdicts = {
        "is-hpn": hpn.passed,
        "deformed-dual": pair_check.details.get("dual-derivation-of-bracket") == "pass",
        "dual-deformed": pair_check.details.get("primal-derivation-of-dual-bracket") == "pass",
    }
    return agreement("hpn_bialgebroid_equiv", "hpn-bialgebroid-equivalence", verdicts)
