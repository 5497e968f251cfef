"""Untwisted Cartan calculus on the coordinate frame, the cross-check
for the twisted engine on the classical tangent instance.

Each operator is written from its coordinate formula and shares no code
path with `homlie.calculus`: the differential uses the coordinate-sum
formula, contraction the direct slot formula, and the Lie derivative
the direct evaluation formula.  Only tests import this module; it also
holds two instance builders that several tests share: a diagonal
endomorphism and the search that derives s3_nonpoisson_pi.json's
bivector.
"""

from itertools import combinations, product

from homlie.calculus import CartanContext, schouten
from homlie.exterior import EndoMap, Form, MultiVector, _merge_sign, pair, twist_tensor, wedge_all
from homlie.poisson import Bivector
from homlie.polyring import Poly, monomials


def diagonal(n: int, entries) -> EndoMap:
    """The endomorphism with the rational `entries` on its diagonal,
    over n variables."""
    r = len(entries)
    return EndoMap([[Poly.const(n, entries[i] if i == j else 0) for j in range(r)] for i in range(r)])


def search_invariant_non_poisson_bivector(ctx: CartanContext, coeff_degree: int = 1) -> Bivector:
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


def vf_apply(coeffs, f: Poly) -> Poly:
    """Classical vector field action: sum_i c_i df/dx_i."""
    out = Poly.zero(f.n)
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            out = out + c * f.partial(i)
    return out


def vf_commutator(X, Y):
    """Classical commutator of coordinate-frame vector fields."""
    return [vf_apply(X, Y[i]) - vf_apply(Y, X[i]) for i in range(len(X))]


def de_rham(omega: Form) -> Form:
    """Coordinate formula: d omega = sum_i dx_i wedge (d/dx_i omega)."""
    n = omega.n
    out = Form.zero(omega.rank, n, omega.degree + 1)
    for J, f in omega.coeffs.items():
        for i in range(omega.rank):
            df = f.partial(i) if i < n else Poly.zero(n)
            if df.is_zero():
                continue
            K, sign = _merge_sign((i,), J)
            if K is None:
                continue
            term = df if sign > 0 else -df
            prev = out.coeffs.get(K)
            total = term if prev is None else prev + term
            if total.is_zero():
                out.coeffs.pop(K, None)
            else:
                out.coeffs[K] = total
    return out


def contract(X: MultiVector, omega: Form) -> Form:
    """Classical interior product of a degree-1 argument by the direct
    slot formula."""
    n = omega.n
    out = Form.zero(omega.rank, n, omega.degree - 1)
    coeffs = X.vector()
    for J, f in omega.coeffs.items():
        for pos, idx in enumerate(J):
            c = coeffs[idx]
            if c.is_zero():
                continue
            K = J[:pos] + J[pos + 1 :]
            term = f * c
            if pos % 2:
                term = -term
            prev = out.coeffs.get(K)
            total = term if prev is None else prev + term
            if total.is_zero():
                out.coeffs.pop(K, None)
            else:
                out.coeffs[K] = total
    return out


def contract_multi(D: MultiVector, omega: Form) -> Form:
    """Contraction by any multivector: the wedge factors fill the
    leading slots in order, so the first factor contracts first."""
    out = Form.zero(omega.rank, omega.n, omega.degree - D.degree)
    for I, f in sorted(D.coeffs.items()):
        cur = omega
        for idx in I:
            cur = contract(MultiVector.basis(D.rank, D.n, (idx,)), cur)
        cur = cur.scale(f)
        out = out + cur
    return out


def lie_form(X: MultiVector, omega: Form) -> Form:
    """Direct evaluation formula: (L_X w)(Y...) = X(w(Y...)) minus the
    sum of w with one argument replaced by the commutator."""
    n = omega.n
    Xc = X.vector()
    out = Form.zero(omega.rank, n, omega.degree)
    for J in combinations(range(omega.rank), omega.degree):
        val = vf_apply(Xc, omega.coeffs.get(J, Poly.zero(n)))
        for pos, idx in enumerate(J):
            # [X, e_idx] = -sum_m (d X_m / dx_idx) e_m
            br = MultiVector.from_vector(
                omega.rank, n, [-(Xc[m].partial(idx)) if idx < n else Poly.zero(n) for m in range(omega.rank)]
            )
            args = [MultiVector.basis(omega.rank, n, (j,)) for j in J]
            args[pos] = br
            val = val - pair(omega, wedge_all(omega.rank, n, args, MultiVector))
        if not val.is_zero():
            out.coeffs[J] = val
    return out
