"""Twisted Cartan calculus on a Hom-Lie algebroid: differential,
interior multiplication, Lie derivatives and the graded bracket on
multivectors.

Every operator follows the twisted evaluation formulas exactly.  The
differential is table-driven: the Koszul formula runs once per basis
form and the twisted Leibniz rule extends it (see `differential`).  The
consistency checks (square-zero, twist commutation, graded Leibniz,
pairing identity, tensoriality against the Koszul formula) live in
check_differential_props so inner loops stay lean.

Inside an `operator_cache()` scope, `differential`, `lie_derivative_form`
and `CourantDouble.product` compute each distinct input once.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations

from . import probes
from .exterior import (
    EndoMap,
    Form,
    MultiVector,
    _merge_sign,
    _sum_each,
    eval_form,
    pair,
)
from .homalg import HomAlgebroid
from .polyring import Poly, sum_products
from .report import CheckResult, StructureError, until_first_failure


class CartanContext:
    """An algebroid with its cached twists and the structure table of
    the differential.

    `CartanContext(A)` is the one context of the algebroid object A: it
    is built on the first call and kept on A, and every later call
    returns it.  The table d(eps^J) is filled on first use, computed
    once per basis form (2^rank entries at most) by the Koszul formula;
    the twists keep their own derived values (see `SectionTwist`).

    The class has no __init__, which Python would rerun on every call.
    """

    def __new__(cls, algebroid: HomAlgebroid) -> "CartanContext":
        ctx = algebroid._context
        if ctx is None:
            ctx = super().__new__(cls)
            ctx.algebroid = algebroid
            ctx.rank = algebroid.rank
            ctx.n = algebroid.n
            ctx._d_basis = {}
            ctx._once = []
            algebroid._context = ctx
        return ctx

    # phi_A's derived twists, built on first use and kept on phi_A, so a
    # twist that cannot be built fails each use alike
    dagger = property(lambda self: self.algebroid.phiA.dual())
    dagger_inv = property(lambda self: self.algebroid.phiA.dual().inverse())
    phiA_inv = property(lambda self: self.algebroid.phiA.inverse())

    def d_basis(self, J: tuple) -> Form:
        """d(eps^J) from the Koszul formula, computed once."""
        got = self._d_basis.get(J)
        if got is None:
            got = self._d_basis[J] = _koszul_differential(self, Form.basis(self.rank, self.n, J))
        return got

    def once(self, key, build):
        """build(), run on the first call whose key equals `key`; later
        calls return the stored value.  It holds the facts checked on
        this context and the contexts of algebroids derived from it (a
        dual, a deformation), so they survive across calls.  A refusal
        that build raises is not stored, so every call raises it anew.
        A stored value is handed to every caller, so no caller may
        mutate it."""
        for k, value in self._once:
            if k == key:
                return value
        value = build()
        self._once.append((key, value))
        return value

    def as_form(self, x) -> Form:
        if isinstance(x, Poly):
            return Form.scalar(self.rank, self.n, x)
        if isinstance(x, Form):
            return x
        raise StructureError(f"expected a form, got {type(x).__name__}")

    def as_multivector(self, x) -> MultiVector:
        if isinstance(x, Poly):
            return MultiVector.scalar(self.rank, self.n, x)
        if isinstance(x, MultiVector):
            return x
        raise StructureError(f"expected a multivector, got {type(x).__name__}")


# the table of the open operator-cache scope, None when no scope is open
_scope_table: ContextVar = ContextVar("operator_cache", default=None)


@contextmanager
def operator_cache():
    """A scope in which the cached operators look their results up.

    The table maps (operator, owner, input keys) to the value computed
    on the first miss, where the owner is the CartanContext or
    CourantDouble object itself.  The key holds the owner, so no object
    id is reused while the scope is open.  Nested scopes share the
    outermost table, which is dropped when that scope exits, also on an
    exception.  Yields the table.

    A cached value is handed to every caller with an equal input, so no
    caller may mutate an operator's result.
    """
    table = _scope_table.get()
    if table is not None:
        yield table
        return
    table = {}
    token = _scope_table.set(table)
    try:
        yield table
    finally:
        _scope_table.reset(token)


def cached_call(fn, owner, *args):
    """fn(owner, *args), looked up in the open operator-cache scope and
    computed only on a miss; computed directly when no scope is open."""
    table = _scope_table.get()
    if table is None:
        return fn(owner, *args)
    key = (fn, owner) + tuple(a.key() for a in args)
    got = table.get(key)
    if got is None:
        got = table[key] = fn(owner, *args)
    return got


def _slots(ctx: CartanContext, args):
    """The phiA^-1 images and the anchor fields of section arguments."""
    A = ctx.algebroid
    return [ctx.phiA_inv.apply_graded(X) for X in args], [A.anchor_field(X) for X in args]


def _koszul_at(
    ctx: CartanContext, omega: Form, dag_omega: Form, args, inv_args, fields, brackets, values
) -> Poly:
    """Right side of the twisted evaluation formula at the given
    degree-1 section arguments, with their phiA^-1 images and anchor
    fields (see `_slots`).  `brackets` maps a slot pair (a, b), a < b,
    to [inv_args[a], inv_args[b]], and `values` maps a slot a to omega
    evaluated on the other inv_args, where the caller already has them;
    the others are computed here."""
    A = ctx.algebroid
    k1 = len(args)
    val = Poly.zero(ctx.n)
    for a in range(k1):
        field = fields[a]
        if field.is_zero():
            continue
        w = values.get(a)
        if w is None:
            w = eval_form(omega, [inv_args[b] for b in range(k1) if b != a])
        if not w.is_zero():
            term = field.apply(w)
            val = val + (term if a % 2 == 0 else -term)
    for a in range(k1):
        for b in range(a + 1, k1):
            br = brackets.get((a, b))
            if br is None:
                br = A.bracket(inv_args[a], inv_args[b])
            if br.is_zero():
                continue
            rest = [args[c] for c in range(k1) if c != a and c != b]
            term = eval_form(dag_omega, [br] + rest)
            val = val + (term if (a + b) % 2 == 0 else -term)
    return val


def _koszul_differential(ctx: CartanContext, omega: Form) -> Form:
    """Reference differential: coefficients extracted by evaluating the
    defining formula on increasing frame tuples.  It fills the basis
    table of the context."""
    k = omega.degree
    A = ctx.algebroid
    out = {}
    if k + 1 <= ctx.rank and not A.is_zero_structure:
        dag_omega = ctx.dagger.apply_graded(omega)
        for I in combinations(range(ctx.rank), k + 1):
            args = [A.frame(i) for i in I]
            val = _koszul_at(ctx, omega, dag_omega, args, *_slots(ctx, args), {}, {})
            if not val.is_zero():
                out[I] = val
    return Form._raw(ctx.rank, ctx.n, k + 1, out)


def differential(ctx: CartanContext, omega) -> Form:
    """The degree-raising differential, table-driven.

    The twisted Leibniz rule d(f w) = df ^ dagger(w) + phi*(f) dw fixes
    d by its values on functions and basis forms, so for
    omega = sum_J f_J eps^J

        d omega = sum_J df_J ^ dagger(eps^J) + phi*(f_J) d(eps^J),

    with df = sum_i rho(e_i)(f) eps^i.  The anchor and structure enter
    only through the context's tables: the nonzero anchor entries and
    d(eps^J), which the Koszul formula (_koszul_at) computes once per
    basis form.  The identity holds for every candidate, valid or not,
    because each anchor field is a phi-twisted derivation and the dual
    twist is phi*-linear; check_differential_props still compares the
    result against the Koszul formula at scaled arguments.

    Cached inside an operator_cache() scope.
    """
    return cached_call(_differential, ctx, ctx.as_form(omega))


def _differential(ctx: CartanContext, omega: Form) -> Form:
    k = omega.degree
    A = ctx.algebroid
    if k + 1 > ctx.rank or A.is_zero_structure:
        return Form.zero(ctx.rank, ctx.n, k + 1)
    pb = A.phi.pullback
    pairs = {}  # the products that sum to each coefficient of d omega
    for J, f in omega.coeffs.items():
        pf = pb(f)
        for K, c in ctx.d_basis(J).coeffs.items():
            pairs.setdefault(K, []).append((pf, c))
        pulled = [pb(f.partial(m)) for m in range(ctx.n)]
        dag = ctx.dagger.basis_image(J).coeffs
        for i, column in enumerate(A.anchor_columns):
            dfi = sum_products(ctx.n, [(a, pulled[m]) for m, a in column])
            if dfi.is_zero():
                continue
            for L, c in dag.items():
                K, sign = _merge_sign((i,), L)
                if K is not None:
                    pairs.setdefault(K, []).append((dfi if sign > 0 else -dfi, c))
    return Form._raw(ctx.rank, ctx.n, k + 1, _sum_each(ctx.n, pairs))


def interior(ctx: CartanContext, D, omega: Form) -> Form:
    """Twisted interior multiplication: contract the twisted argument
    into the twisted form, landing in degree m - k."""
    D = ctx.as_multivector(D)
    m, k = omega.degree, D.degree
    if m < k:
        raise StructureError(f"cannot contract a degree-{k} multivector into a degree-{m} form")
    if omega.is_zero() or D.is_zero():
        return Form.zero(ctx.rank, ctx.n, m - k)
    dag_omega = ctx.dagger.apply_graded(omega)
    tw = ctx.algebroid.phiA.apply_graded(D)
    out = Form.zero(ctx.rank, ctx.n, m - k)
    for J in combinations(range(ctx.rank), m - k):
        D_full = tw.wedge(MultiVector.basis(ctx.rank, ctx.n, J)) if J else tw
        val = pair(dag_omega, D_full)
        if not val.is_zero():
            out.coeffs[J] = val
    return out


def lie_derivative_form(ctx: CartanContext, X: MultiVector, eta) -> Form:
    """Lie derivative on forms, the unique value forced by the twisted
    Cartan formula (the dual twist of the argument is undone first).

    Cached inside an operator_cache() scope."""
    if not isinstance(X, MultiVector):
        raise StructureError(f"expected a multivector, got {type(X).__name__}")
    return cached_call(_lie_derivative_form, ctx, X, ctx.as_form(eta))


def _lie_derivative_form(ctx: CartanContext, X, eta: Form) -> Form:
    if ctx.algebroid.is_zero_structure:
        # both terms of the twisted Cartan formula factor through the
        # differential, which vanishes identically here
        return Form.zero(ctx.rank, ctx.n, eta.degree)
    om = ctx.dagger_inv.apply_graded(eta)
    t1 = interior(ctx, X, differential(ctx, om))
    if eta.degree == 0:
        return t1
    t2 = differential(ctx, interior(ctx, ctx.phiA_inv.apply_graded(X), om))
    return t1 + t2


def lie_derivative_tensor(ctx: CartanContext, X: MultiVector, T: EndoMap) -> EndoMap:
    """Lie derivative of a (1,1)-tensor: the derivative hits one slot
    while every other slot is twisted."""
    if T.kind != "multivector":
        raise StructureError("expected an endomorphism of the section side")
    r, n = ctx.rank, ctx.n
    A = ctx.algebroid
    pairs = [[[] for _ in range(r)] for _ in range(r)]
    for j in range(r):
        L_eps = lie_derivative_form(ctx, X, A.coframe(j)).vector()
        dag_eps = ctx.dagger.basis_image((j,)).vector()
        for i in range(r):
            c = T.matrix[i][j]
            if c.is_zero():
                continue
            mv1 = schouten(ctx, X, A.frame(i).scale(c)).vector()
            mv2 = A.phiA_frame(i).scale(A.phi.pullback(c)).vector()
            for a in range(r):
                for b in range(r):
                    pairs[a][b] += [(mv1[a], dag_eps[b]), (mv2[a], L_eps[b])]
    return EndoMap([[sum_products(n, p) for p in row] for row in pairs], kind="multivector")


def _mono_terms(D: MultiVector):
    return [(f, I) for I, f in sorted(D.coeffs.items())]


def schouten(ctx: CartanContext, D1, D2) -> MultiVector:
    """Graded bracket on multivectors: the unique extension of the
    section bracket by the twisted wedge Leibniz rule, with functions
    as degree-0 factors.  For a section X it is the Lie derivative on
    multivectors: L_X D = [X, D]."""
    D1 = ctx.as_multivector(D1)
    D2 = ctx.as_multivector(D2)
    deg = D1.degree + D2.degree - 1
    out = MultiVector.zero(ctx.rank, ctx.n, max(deg, 0))
    for f, I in _mono_terms(D1):
        for g, J in _mono_terms(D2):
            out = out + _sbr_mono(ctx, f, I, g, J)
    return out


def _scalar_mv(ctx, f) -> MultiVector:
    return MultiVector.scalar(ctx.rank, ctx.n, f)


def _sbr_mono(ctx, f: Poly, I: tuple, g: Poly, J: tuple) -> MultiVector:
    A = ctx.algebroid
    k, l = len(I), len(J)
    if k == 0 and l == 0:
        return MultiVector.zero(ctx.rank, ctx.n, 0)
    if k == 0:
        # [f, g e_J]: the function peels off with one pullback, then the
        # frame factors peel one by one
        return _sbr_fn_frame(ctx, f, J).scale(A.phi.pullback(g))
    if l == 0:
        flipped = _sbr_mono(ctx, g, (), f, I)
        return flipped if k % 2 == 0 else -flipped
    if k == 1 and l == 1:
        return A.bracket(
            MultiVector(ctx.rank, ctx.n, 1, {I: f}),
            MultiVector(ctx.rank, ctx.n, 1, {J: g}),
        )
    if l == 1:
        # graded flip onto the lower-degree first slot
        flipped = _sbr_mono(ctx, g, J, f, I)
        return -flipped if ((k - 1) * (l - 1)) % 2 == 0 else flipped
    # peel the second slot: g e_J = (g e_{j0}) wedge e_{J'}
    j0, Jr = J[0], J[1:]
    sub1 = _sbr_mono(ctx, f, I, g, (j0,))
    part1 = sub1.wedge(A.phiA.basis_image(Jr))
    sub2 = _sbr_mono(ctx, f, I, Poly.const(ctx.n, 1), Jr)
    lead = A.phiA_frame(j0).scale(A.phi.pullback(g))
    part2 = lead.wedge(sub2)
    return part1 + part2 if (k + 1) % 2 == 0 else part1 - part2


def _sbr_fn_frame(ctx, f: Poly, J: tuple) -> MultiVector:
    """[f, e_J] by peeling frame factors."""
    A = ctx.algebroid
    if len(J) == 0:
        return MultiVector.zero(ctx.rank, ctx.n, 0)
    j0, Jr = J[0], J[1:]
    head = _scalar_mv(ctx, -A.anchor_after_twist(j0).apply(f))
    if not Jr:
        return head
    part1 = head.wedge(A.phiA.basis_image(Jr))
    part2 = A.phiA_frame(j0).wedge(_sbr_fn_frame(ctx, f, Jr))
    return part1 - part2


def check_differential_props(ctx: CartanContext, probe_degree: int = 3) -> CheckResult:
    """Square-zero, twist commutation, graded Leibniz, tensoriality of
    the coefficient extraction, and the Lie-derivative pairing identity,
    all as exact residuals on probe forms up to top degree."""
    A = ctx.algebroid
    forms = probes.forms(A, probe_degree)
    small_forms = probes.forms(A, min(probe_degree, 1))
    sections = probes.sections(A, min(probe_degree, 2))

    def tensorial():
        # the Koszul formula at frame arguments with one slot scaled by
        # f; the dual twist of omega, and the phiA^-1 images, anchor
        # fields and brackets of the unscaled frame arguments, do not
        # depend on f, so each is computed once per (omega, I).  Nor
        # does omega on the unscaled slots, which the scaled slot's
        # anchor field applies to: once per (omega, I, slot)
        funcs = probes.nonconstant_monomials(ctx.n, min(probe_degree, 2))
        for label, om in small_forms:
            if om.degree >= ctx.rank:
                continue
            d_om = differential(ctx, om)
            dag_om = ctx.dagger.apply_graded(om)
            for I in combinations(range(ctx.rank), om.degree + 1):
                frame = [A.frame(i) for i in I]
                inv_frame, frame_fields = _slots(ctx, frame)
                frame_brackets = {
                    (a, b): A.bracket(inv_frame[a], inv_frame[b])
                    for a, b in combinations(range(len(I)), 2)
                }
                for pos in range(len(I)):
                    known = {ab: br for ab, br in frame_brackets.items() if pos not in ab}
                    unscaled = {pos: eval_form(om, [v for b, v in enumerate(inv_frame) if b != pos])}
                    for f in funcs:
                        args = list(frame)
                        args[pos] = frame[pos].scale(f)
                        inv_args = list(inv_frame)
                        inv_args[pos] = ctx.phiA_inv.apply_graded(args[pos])
                        fields = list(frame_fields)
                        fields[pos] = A.anchor_field(args[pos])
                        direct = _koszul_at(ctx, om, dag_om, args, inv_args, fields, known, unscaled)
                        # the table side at the same arguments:
                        # <d omega, f e_I> = f (d omega)_I
                        tens = f * d_om.coeff(I)
                        inputs = {
                            "omega": label,
                            "slots": "e[" + ",".join(str(i + 1) for i in I) + "]",
                            "scaled_slot": str(pos),
                            "f": f,
                        }
                        yield inputs, direct - tens

    def square_zero():
        for label, om in forms:
            yield {"omega": label}, differential(ctx, differential(ctx, om))

    def twist_commutes():
        for label, om in forms:
            lhs = differential(ctx, ctx.dagger.apply_graded(om))
            rhs = ctx.dagger.apply_graded(differential(ctx, om))
            yield {"omega": label}, lhs - rhs

    def leibniz():
        # d and the dual twist of each probe form, once per form: no
        # cache scope keeps them across the pairs
        images = [(differential(ctx, om), ctx.dagger.apply_graded(om)) for _, om in small_forms]
        for (lw, om), (d_om, dag_om) in zip(small_forms, images):
            for (le, eta), (d_eta, dag_eta) in zip(small_forms, images):
                lhs = differential(ctx, om.wedge(eta))
                rhs = d_om.wedge(dag_eta)
                tail = dag_om.wedge(d_eta)
                rhs = rhs + tail if om.degree % 2 == 0 else rhs - tail
                yield {"omega": lw, "eta": le}, lhs - rhs

    def pairing_identity():
        # alpha-independent values, each computed once: phiA^-1(Y) per
        # Y, the flat field of -rho(phiA X) per X, and [X, phiA^-1 Y] per
        # (X, Y) on first use
        inv = [ctx.phiA_inv.apply_graded(Y) for _, Y in sections]
        rho = [[-c for c in A.anchor_field(A.phiA.apply_graded(X)).flat] for _, X in sections]
        brackets = {}
        for la, alpha in probes.coframes(A, min(probe_degree, 2)):
            dag_alpha = ctx.dagger.apply_graded(alpha).coeffs
            # the partials of phi* <alpha, phiA^-1 Y> per Y: rho[x]
            # applied to <alpha, phiA^-1 Y> is rho[x]'s flat field on it
            partials = []
            for v in inv:
                pv = A.phi.pullback(pair(alpha, v))
                partials.append([pv.partial(k) for k in range(ctx.n)])
            for x, (lx, X) in enumerate(sections):
                L_alpha = lie_derivative_form(ctx, X, alpha).coeffs
                for y, (ly, Y) in enumerate(sections):
                    br = brackets.get((x, y))
                    if br is None:
                        br = brackets[x, y] = schouten(ctx, X, inv[y])
                    # <L_X alpha, Y> + <alpha^dagger, [X, phiA^-1 Y]>
                    # - rho(phiA X)<alpha, phiA^-1 Y>, in one sum
                    terms = [(c, Y.coeffs[K]) for K, c in L_alpha.items() if K in Y.coeffs]
                    terms += [(c, br.coeffs[K]) for K, c in dag_alpha.items() if K in br.coeffs]
                    terms += zip(rho[x], partials[y])
                    yield {"alpha": la, "X": lx, "Y": ly}, sum_products(ctx.n, terms)

    return until_first_failure(
        "check_differential_props",
        [
            ("differential-multilinearity", tensorial()),
            ("differential-square-zero", square_zero()),
            ("differential-twist-commutation", twist_commutes()),
            ("differential-graded-leibniz", leibniz()),
            ("lie-derivative-pairing", pairing_identity()),
        ],
    )
