"""Oracle test: Poly arithmetic, the fused sum of products, partial
derivatives and the affine pullbacks agree with sympy's sparse
polynomial rings over QQ."""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from homlie.polyring import AffineTwist, Poly, sum_products

sympy = pytest.importorskip("sympy")
from sympy.polys.domains import QQ
from sympy.polys.rings import ring

N = 3
R, *GENS = ring(",".join(f"x{i}" for i in range(N)), QQ)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
polys = st.dictionaries(
    st.tuples(*[st.integers(0, 3)] * N), rationals, max_size=6
).map(lambda terms: Poly(N, terms))
maps = st.tuples(
    st.lists(st.lists(rationals, min_size=N, max_size=N), min_size=N, max_size=N),
    st.lists(rationals, min_size=N, max_size=N),
)


def to_sympy(p: Poly):
    return R.from_dict({k: qq(c) for k, c in p.terms.items()})


def from_sympy(q) -> Poly:
    return Poly(N, {k: Fraction(int(c.numerator), int(c.denominator)) for k, c in q.terms()})


def qq(c: Fraction):
    return QQ(c.numerator, c.denominator)


def affine(matrix, offset):
    """The substitution x_i -> sum_j matrix[i][j] x_j + offset[i] in R."""
    images = []
    for i, row in enumerate(matrix):
        image = R.zero + qq(offset[i])
        for j, c in enumerate(row):
            image += qq(c) * GENS[j]
        images.append((GENS[i], image))
    return images


settings_ = settings(max_examples=60, deadline=None)


@settings_
@given(polys, polys)
def test_add_and_mul_match_sympy(f, g):
    assert from_sympy(to_sympy(f) + to_sympy(g)) == f + g
    assert from_sympy(to_sympy(f) * to_sympy(g)) == f * g


@settings_
@given(st.lists(st.tuples(polys, polys), max_size=5))
def test_sum_products_matches_sympy(pairs):
    expected = R.zero
    for f, g in pairs:
        expected += to_sympy(f) * to_sympy(g)
    assert from_sympy(expected) == sum_products(N, pairs)


@settings_
@given(polys, st.integers(0, N - 1))
def test_partial_matches_sympy(f, i):
    assert from_sympy(to_sympy(f).diff(GENS[i])) == f.partial(i)


@settings_
@given(polys, maps)
def test_pullbacks_match_sympy(f, spec):
    matrix, offset = spec
    M = sympy.Matrix(matrix)
    assume(M.det() != 0)
    phi = AffineTwist(matrix, offset)
    assert from_sympy(to_sympy(f).compose(affine(matrix, offset))) == phi.pullback(f)
    # the inverse map is x -> M^-1 (x - b), built from sympy's own inverse
    Minv = M.inv()
    inv_matrix = [[Fraction(str(Minv[i, j])) for j in range(N)] for i in range(N)]
    inv_offset = [-sum(inv_matrix[i][j] * offset[j] for j in range(N)) for i in range(N)]
    expected = to_sympy(f).compose(affine(inv_matrix, inv_offset))
    assert from_sympy(expected) == phi.inverse_pullback(f)
    assert phi.inverse_pullback(phi.pullback(f)) == f
