from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import kernels
from homlie.kernels import LIMIT, ExponentOverflow, pack, unpack
from homlie.polyring import (
    AffineTwist,
    DimensionMismatch,
    Poly,
    monomials,
    poly_divides,
    sum_products,
)


def P2(expr_terms):
    return Poly(2, expr_terms)


def packed(terms):
    """A term map keyed by exponent tuples, keyed by kernel keys."""
    return {pack(k): v for k, v in terms.items()}


def unpacked(terms, n=2):
    """A kernel term map keyed by exponent tuples again."""
    return {unpack(k, n): v for k, v in terms.items()}


@pytest.fixture
def scale_map():
    # (x, y) -> (2x, y/2)
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


rationals = st.builds(
    Fraction, st.integers(-20, 20), st.integers(1, 8)
)


@st.composite
def polys(draw, n=2, max_degree=3, max_terms=4):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        terms[exps] = draw(rationals)
    return Poly(n, terms)


@st.composite
def edge_monomials(draw):
    """One term in two variables, with exponents at both ends of the
    range and a nonzero coefficient, often over a non-unit denominator."""
    exps = tuple(draw(st.sampled_from([0, 1, LIMIT - 2, LIMIT - 1])) for _ in range(2))
    return Poly.monomial(2, exps, draw(rationals.filter(bool)))


class TestPolyArithmetic:
    def test_canonical_form_add_negate(self):
        f = x * x + y
        assert (f + (-f)).terms == {}
        assert f - f == Poly.zero(2)

    def test_equality_is_term_map_equality(self):
        assert x * y == y * x
        assert x + x == 2 * x
        assert Poly.const(2, 0).terms == {}

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_ring_axioms(self, f, g, h):
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * (g + h) == f * g + f * h

    def test_pow(self):
        assert (x + y) ** 2 == x * x + 2 * x * y + y * y

    @given(polys(), rationals, edge_monomials(), edge_monomials())
    @settings(max_examples=60)
    def test_constant_factor_matches_full_product(self, f, c, m1, m2):
        # a constant factor, and one term by one term, against the
        # kernel product of the Fraction terms, which raises past the limit
        k = Poly.const(2, c)
        for a, b in ((k, f), (m1, m2)):
            try:
                want = Poly(2, unpacked(kernels.poly_mul(packed(a.terms), packed(b.terms))))
            except ExponentOverflow:
                for left, right in ((a, b), (b, a)):
                    with pytest.raises(ExponentOverflow):
                        left * right
                continue
            for got in (a * b, b * a):
                assert (got.num, got.den) == (want.num, want.den)
                assert_canonical(got)

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_key_is_equal_exactly_for_equal_polys(self, f, g):
        assert (f.key() == g.key()) == (f == g)
        assert hash(f.key()) == hash(((f + g) - g).key())


class TestPartial:
    def test_x2y_by_x(self):
        f = x * x * y
        assert f.partial(0) == 2 * x * y

    def test_x2y_by_y(self):
        f = x * x * y
        assert f.partial(1) == x * x

    def test_constant(self):
        assert Poly.const(2, 7).partial(0) == Poly.zero(2)

    def test_index_out_of_range(self):
        with pytest.raises(IndexError):
            x.partial(5)

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_product_rule(self, f, g):
        for i in range(2):
            assert (f * g).partial(i) == f.partial(i) * g + f * g.partial(i)


class TestPullback:
    def test_identity_map(self):
        phi = AffineTwist.identity(2)
        f = x * x + y
        assert phi.pullback(f) == f

    def test_scale_map_xy(self, scale_map):
        # (2x)(y/2) = x*y, worked by direct substitution
        assert scale_map.pullback(x * y) == x * y

    def test_scale_map_x_squared(self, scale_map):
        assert scale_map.pullback(x * x) == 4 * x * x

    def test_offset(self):
        phi = AffineTwist([[1, 0], [0, 1]], [1, 0])
        assert phi.pullback(x) == x + 1
        assert phi.pullback(x * x) == x * x + 2 * x + 1

    @given(polys(), polys())
    @settings(max_examples=40)
    def test_ring_homomorphism(self, f, g):
        phi = AffineTwist([[2, 1], [0, Fraction(1, 2)]], [0, 3])
        assert phi.pullback(f * g) == phi.pullback(f) * phi.pullback(g)
        assert phi.pullback(f + g) == phi.pullback(f) + phi.pullback(g)

    def test_dimension_mismatch(self, scale_map):
        with pytest.raises(DimensionMismatch):
            scale_map.pullback(Poly.variable(3, 0))


class TestInversePullback:
    def test_identity(self):
        phi = AffineTwist.identity(2)
        f = x * y + 3
        assert phi.inverse_pullback(f) == f

    def test_scale_map(self, scale_map):
        # inverse map is (x/2, 2y)
        assert scale_map.inverse_pullback(x) == Fraction(1, 2) * x
        assert scale_map.inverse_pullback(y) == 2 * y

    @given(polys())
    @settings(max_examples=100)
    def test_round_trip(self, f):
        phi = AffineTwist([[1, 2], [1, 3]], [5, Fraction(-1, 2)])
        assert phi.pullback(phi.inverse_pullback(f)) == f
        assert phi.inverse_pullback(phi.pullback(f)) == f


def substitute_reference(phi, f):
    """f after phi by one poly_substitute call on freshly built powers of
    the variables' images, without the twist's monomial tables."""
    n = phi.n
    images = [
        Poly(n, {tuple(int(j == k) for k in range(n)): phi.matrix[i][j] for j in range(n)})
        + phi.offset[i]
        for i in range(n)
    ]
    need = max((e for k in f.terms for e in k), default=0)
    powers = []
    for img in images:
        col = [{pack((0,) * n): Fraction(1)}, packed(img.terms)]
        while len(col) <= need:
            col.append(kernels.poly_mul(col[-1], packed(img.terms)))
        powers.append(col)
    return Poly(n, unpacked(kernels.poly_substitute(packed(f.terms), powers, n), n))


def dense_map():
    return AffineTwist([[1, 2], [Fraction(-1, 3), 3]], [5, Fraction(-1, 2)])


class TestPullbackTable:
    @given(polys(max_degree=4, max_terms=6))
    @settings(max_examples=60)
    def test_matches_substitution_kernel(self, f):
        phi = dense_map()
        assert phi.pullback(f) == substitute_reference(phi, f)
        assert phi.inverse_pullback(f) == substitute_reference(phi.inverse(), f)

    @given(st.lists(st.tuples(st.booleans(), polys(max_degree=4)), max_size=8))
    @settings(max_examples=40)
    def test_directions_interleaved_on_one_twist(self, calls):
        phi = dense_map()
        inverse = phi.inverse()
        for forward, f in calls + calls:
            if forward:
                assert phi.pullback(f) == substitute_reference(phi, f)
            else:
                assert phi.inverse_pullback(f) == substitute_reference(inverse, f)

    def test_zero_and_identity(self):
        phi = dense_map()
        assert phi.pullback(Poly.zero(2)) == Poly.zero(2)
        assert phi.inverse_pullback(Poly.zero(2)) == Poly.zero(2)
        ident = AffineTwist.identity(2)
        f = x * x * y + 3
        assert ident.pullback(f) is f
        assert ident.inverse_pullback(f) is f

    @given(polys(max_degree=4, max_terms=6))
    @settings(max_examples=40)
    def test_round_trip_on_warm_tables(self, f):
        phi = dense_map()
        for _ in range(2):
            assert phi.inverse_pullback(phi.pullback(f)) == f
            assert phi.pullback(phi.inverse_pullback(f)) == f

    @pytest.mark.parametrize("f", [x * y, x * y + 2 * x - 1], ids=["one-term", "scaled-sum"])
    def test_results_do_not_alias_the_table(self, f):
        phi = dense_map()
        expected = phi.pullback(f)
        for _ in range(2):
            got = phi.pullback(f)
            assert got == expected
            got.terms.clear()
            got.terms[(7, 7)] = Fraction(1)
            assert got == expected
            got.num.clear()
            got.num[(7, 7)] = 1
        assert phi.pullback(f) == expected
        assert phi.inverse_pullback(phi.pullback(f)) == f

    def test_one_entry_per_distinct_monomial_and_direction(self):
        phi = dense_map()
        f = x * x + 3 * x * y
        g = 2 * x * x - y + 1
        h = y ** 3
        phi.pullback(f)
        phi.pullback(g)
        phi.pullback(f)
        phi.inverse_pullback(h)
        assert set(phi._table) == set(map(pack, [(2, 0), (1, 1), (0, 1), (0, 0)]))
        # the inverse map keeps the table of inverse_pullback
        assert set(phi.inverse()._table) == {pack((0, 3))}
        ident = AffineTwist.identity(2)
        ident.pullback(f)
        ident.inverse_pullback(f)
        assert not ident._table and not ident.inverse()._table


def assert_canonical(p):
    assert p.den > 0
    assert all(type(v) is int and v for v in p.num.values())
    assert gcd(p.den, *p.num.values()) == 1
    # equal values give equal (num, den): rebuild from the Fraction view
    q = Poly(p.n, p.terms)
    assert (q.num, q.den) == (p.num, p.den)


class TestRepresentation:
    """Integer numerators over one reduced positive denominator, after
    every operation."""

    @given(polys(), polys(), st.integers(-6, 6), rationals)
    @settings(max_examples=80)
    def test_every_result_is_canonical(self, f, g, k, c):
        phi = dense_map()
        results = [
            f + g,
            f - g,
            f * g,
            f * k,
            c * f,
            f.partial(0),
            f.partial(1),
            phi.pullback(f),
            phi.inverse_pullback(f),
        ]
        for p in [f, g, *results]:
            assert_canonical(p)
        # the same values reached another way share their representation
        same = [
            (f + g, Poly(2, unpacked(kernels.poly_add(packed(f.terms), packed(g.terms))))),
            (f * g, Poly(2, unpacked(kernels.poly_mul(packed(f.terms), packed(g.terms))))),
            ((f + g) - g, f),
            (phi.inverse_pullback(phi.pullback(f)), f),
        ]
        for a, b in same:
            assert (a.num, a.den) == (b.num, b.den)

    def test_zero_has_unit_denominator(self):
        half = Poly.const(2, Fraction(1, 2)) * x
        for z in (half - half, half * 0, Poly.zero(2), Poly(2, {(1, 0): 0})):
            assert (z.num, z.den) == ({}, 1)


def render_reference(terms, n):
    """The text of a tuple-keyed term map, written without Poly."""
    names = ["x", "y", "z"][:n] if n <= 3 else [f"x{i + 1}" for i in range(n)]
    out = ""
    for exps, c in sorted(terms.items(), key=lambda kv: (sum(kv[0]), kv[0]), reverse=True):
        factors = "*".join(
            names[i] if e == 1 else f"{names[i]}^{e}" for i, e in enumerate(exps) if e
        )
        body = str(c) if not factors else {1: "", -1: "-"}.get(c, f"{c}*") + factors
        if not out:
            out = body
        else:
            out += " - " + body[1:] if body.startswith("-") else " + " + body
    return out or "0"


@st.composite
def wide_terms(draw):
    n = draw(st.integers(1, 4))
    exps = st.tuples(*[st.integers(0, LIMIT - 1)] * n)
    return n, draw(st.dictionaries(exps, rationals.filter(bool), max_size=5))


@st.composite
def one_term(draw):
    exps = tuple(draw(st.integers(0, 4)) for _ in range(2))
    return Poly.monomial(2, exps, draw(rationals))


class TestPackedKeys:
    """Monomials are packed into one int per term; exponent tuples are
    what every public accessor still sees."""

    @given(wide_terms())
    @settings(max_examples=80)
    def test_round_trip(self, case):
        n, terms = case
        p = Poly(n, terms)
        assert p.terms == terms
        assert p.render() == render_reference(terms, n)
        assert p.degree() == max((sum(k) for k in terms), default=0)

    def test_exponent_at_the_limit_is_refused(self):
        for make in (
            lambda: Poly(2, {(0, LIMIT): 1}),
            lambda: Poly.monomial(3, [LIMIT, 0, 0]),
        ):
            with pytest.raises(ExponentOverflow):
                make()
        with pytest.raises(ValueError):
            Poly(2, {(-1, 0): 1})
        assert Poly.monomial(2, [LIMIT - 1, 0]).degree() == LIMIT - 1

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_product_past_the_limit_raises(self, i):
        top = [0, 0, 0]
        top[i] = LIMIT - 1
        high = Poly.monomial(3, top) + Poly.const(3, 1)
        var = Poly.variable(3, i)
        for a, b in ((high, var), (var, high)):
            with pytest.raises(ExponentOverflow):
                a * b
        with pytest.raises(ExponentOverflow):
            high ** 2
        # below the limit the same monomial multiplies and differentiates
        lower = list(top)
        lower[i] -= 1
        assert (high * Poly.const(3, 2)).terms[tuple(top)] == 2
        assert high.partial(i) == Poly.monomial(3, lower, LIMIT - 1)

    @given(one_term(), st.booleans())
    @settings(max_examples=80)
    def test_one_term_fast_path_matches_general_loop(self, f, forward):
        def pull(phi, g):
            return phi.pullback(g) if forward else phi.inverse_pullback(g)

        warm, cold = dense_map(), dense_map()
        table = (warm if forward else warm.inverse())._table
        for k in f.num:
            pull(warm, Poly(2, {unpack(k, 2): 1}) + x * y)  # fills the entry of k
        entries = {k: (dict(num), d) for k, (num, d) in table.items()}
        got = pull(warm, f)
        want = pull(cold, f)
        assert (got.num, got.den) == (want.num, want.den)
        assert all(got.num is not num for num, _ in table.values())
        if f.is_constant():
            assert got is f  # the pullback fixes constants
            return
        got.num.clear()
        assert {k: (dict(num), d) for k, (num, d) in table.items()} == entries
        assert pull(warm, f) == want


def term_by_term(n, pairs):
    out = Poly.zero(n)
    for a, b in pairs:
        out = out + a * b
    return out


class TestSumProducts:
    """sum_products(n, pairs) is the sum of a * b over the pairs, reduced
    once; the result is the canonical form of the term-by-term sum."""

    @given(st.lists(st.tuples(polys(), polys()), max_size=5))
    @settings(max_examples=80)
    def test_matches_term_by_term_sum(self, pairs):
        got = sum_products(2, pairs)
        want = term_by_term(2, pairs)
        assert (got.num, got.den) == (want.num, want.den)
        assert_canonical(got)

    @given(polys(), polys(), polys())
    @settings(max_examples=60)
    def test_a_sum_that_cancels_is_the_zero_polynomial(self, f, g, h):
        got = sum_products(2, [(f, g), (h, g), (-f - h, g)])
        assert (got.num, got.den) == ({}, 1)

    def test_mixed_denominators(self):
        pairs = [
            (Poly.const(2, Fraction(1, 6)), x + y),
            (x * Fraction(1, 4), y * Fraction(2, 3)),
            (Poly.const(2, Fraction(5, 6)), x + y * Fraction(1, 10)),
        ]
        got = sum_products(2, pairs)
        # 1/6 x + 1/6 y + 1/6 xy + 5/6 x + 1/12 y = x + 1/4 y + 1/6 xy
        assert got == x + y * Fraction(1, 4) + x * y * Fraction(1, 6)
        assert (got.num, got.den) == (term_by_term(2, pairs).num, 12)
        assert_canonical(got)

    @given(polys(), polys())
    @settings(max_examples=60)
    def test_one_nonzero_pair_is_the_plain_product(self, f, g):
        zero = Poly.zero(2)
        got = sum_products(2, [(zero, g), (f, g), (f, zero)])
        want = f * g
        assert (got.num, got.den) == (want.num, want.den)
        assert sum_products(2, []) == zero
        assert sum_products(2, [(zero, f)]) == zero

    @pytest.mark.parametrize("i", [0, 1, 2])
    def test_product_past_the_limit_raises(self, i):
        top = [0, 0, 0]
        top[i] = LIMIT - 1
        high = Poly.monomial(3, top) + Poly.const(3, 1)
        var = Poly.variable(3, i)
        one = Poly.const(3, 1)
        with pytest.raises(ExponentOverflow):
            sum_products(3, [(high, var), (one, one)])
        with pytest.raises(ExponentOverflow):
            sum_products(3, [(one, var), (var, high)])
        with pytest.raises(ExponentOverflow):
            kernels.poly_sum_products([(1, high.num, var.num)])


class TestAffineTwist:
    def test_compose_with_inverse_is_identity(self, scale_map):
        assert scale_map.compose(scale_map.inverse()).is_identity()
        assert scale_map.inverse().compose(scale_map).is_identity()

    def test_inverse_is_built_once_and_points_back(self):
        phi = dense_map()
        assert phi.inverse() is phi.inverse()
        assert phi.inverse().inverse() is phi

    def test_singular_matrix_rejected(self):
        with pytest.raises(ValueError):
            AffineTwist([[1, 1], [2, 2]])


class TestMonomials:
    def test_degree_two_in_two_vars(self):
        ms = monomials(2, 2)
        assert len(ms) == 6
        assert ms[0] == Poly.const(2, 1)

    def test_count_degree_three(self):
        assert len(monomials(2, 3)) == 10
        assert len(monomials(3, 3)) == 20


class TestExactDivision:
    def test_divides(self):
        f = (x + y) * (x * x + 3)
        q = poly_divides(x + y, f)
        assert q == x * x + 3

    def test_not_divisible(self):
        assert poly_divides(x + y, x * x + 1) is None

    def test_zero_cases(self):
        assert poly_divides(Poly.zero(2), Poly.zero(2)) == Poly.zero(2)
        assert poly_divides(Poly.zero(2), x) is None
