"""The table-driven differential against the Koszul reference.

`differential` extends its basis table d(eps^J) by the twisted Leibniz
rule; `_koszul_differential` evaluates the defining formula on every
frame tuple.  They must agree on valid algebroids and on invalid
candidates alike, since the Leibniz expansion uses only that anchor
fields are twisted derivations and that the dual twist is
phi*-linear.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from homlie import calculus
from homlie.calculus import CartanContext, check_differential_props, differential
from homlie.exterior import Form, SectionTwist
from homlie.fixtures import algebroid_s0, algebroid_s1, algebroid_s2, algebroid_s3
from homlie.homalg import HomAlgebroid, make_pullback_tangent
from homlie.polyring import AffineTwist, Poly, monomials


def dense_tangent():
    phi = AffineTwist(
        [[Fraction(3, 2), Fraction(1, 2)], [Fraction(1, 2), Fraction(-1, 2)]],
        [Fraction(1, 3), Fraction(1, 2)],
    )
    return make_pullback_tangent(phi)


def invalid_candidate():
    """Non-constant anchor, polynomial structure functions and a
    unipotent polynomial twist over a non-identity base map; it fails
    the algebroid axioms."""
    n = 2
    x, y = Poly.variable(n, 0), Poly.variable(n, 1)
    one = Poly.const(n, 1)
    phi = AffineTwist([[1, 1], [0, 1]], [1, 0])
    twist = SectionTwist(
        [[one, x, y * y], [Poly.zero(n), one, x + y], [Poly.zero(n), Poly.zero(n), one]],
        phi,
    )
    anchor = [[x, one, Poly.zero(n)], [y * y, Poly.zero(n), x * y]]
    structure = {(0, 1, 0): x * y, (0, 1, 2): one + y, (1, 2, 1): x * x - 2}
    return HomAlgebroid(phi, twist, anchor, structure)


ALGEBROIDS = {
    "S0": algebroid_s0,
    "S1": algebroid_s1,
    "S2": algebroid_s2,
    "S3": algebroid_s3,
    "dense-tangent": dense_tangent,
    "invalid": invalid_candidate,
}


def probe_forms(ctx, degree):
    """Every basis form scaled by every monomial up to degree, plus one
    dense form per degree."""
    funcs = monomials(ctx.n, degree)
    out = []
    for k in range(ctx.rank + 1):
        dense = {}
        for t, I in enumerate(combinations(range(ctx.rank), k)):
            for f in funcs:
                out.append(Form(ctx.rank, ctx.n, k, {I: f}))
            dense[I] = funcs[(t + 1) % len(funcs)] * (t + 2) + funcs[-1]
        out.append(Form(ctx.rank, ctx.n, k, dense))
    return out


@pytest.mark.parametrize("name", sorted(ALGEBROIDS))
def test_table_differential_matches_koszul(name):
    ctx = CartanContext(ALGEBROIDS[name]())
    for omega in probe_forms(ctx, 2):
        assert differential(ctx, omega) == calculus._koszul_differential(ctx, omega), omega


def test_invalid_candidate_is_invalid():
    from homlie.homalg import check_axioms

    assert not check_axioms(invalid_candidate(), 1).passed


@pytest.mark.parametrize("name", ["S3", "invalid"])
def test_koszul_runs_once_per_basis_form(name, monkeypatch):
    calls = []
    reference = calculus._koszul_differential

    def counted(ctx, omega):
        calls.append(next(iter(omega.coeffs)))
        return reference(ctx, omega)

    monkeypatch.setattr(calculus, "_koszul_differential", counted)
    ctx = CartanContext(ALGEBROIDS[name]())
    forms = probe_forms(ctx, 1)
    for omega in forms:
        differential(ctx, omega)
    first = len(calls)
    assert first <= 2 ** ctx.rank
    assert len(set(calls)) == first
    for omega in forms:
        differential(ctx, differential(ctx, omega))
    assert len(calls) == first


def test_differential_props_fill_table_once(monkeypatch):
    calls = []
    reference = calculus._koszul_differential

    def counted(ctx, omega):
        calls.append(omega)
        return reference(ctx, omega)

    monkeypatch.setattr(calculus, "_koszul_differential", counted)
    ctx = CartanContext(algebroid_s2())
    assert check_differential_props(ctx, 1).passed
    assert 0 < len(calls) <= 2 ** ctx.rank
