import itertools
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie import exterior
from homlie.exterior import (
    EndoMap,
    Form,
    MultiVector,
    SectionTwist,
    combine,
    dual_section_twist,
    pair,
    poly_mat_adjugate,
    poly_mat_det,
    poly_mat_mul,
    twist_tensor,
)
from homlie.polyring import AffineTwist, Poly
from homlie.report import StructureError

N = 2
x = Poly.variable(N, 0)
y = Poly.variable(N, 1)


def e(i):
    return MultiVector.basis(2, N, (i - 1,))


def eps(i):
    return Form.basis(2, N, (i - 1,))


@pytest.fixture
def s1_twist():
    """Conjugation twist of the base map (x,y) -> (2x, y/2): the frame
    scales by (1/2, 2)."""
    phi = AffineTwist([[2, 0], [0, Fraction(1, 2)]])
    return SectionTwist([[Fraction(1, 2), 0], [0, 2]], phi, "multivector")


class TestWedge:
    def test_square_vanishes(self):
        assert e(1).wedge(e(1)).is_zero()

    def test_basis_two_vector(self):
        w = e(1).wedge(e(2))
        assert w.degree == 2
        assert w.coeff((0, 1)) == Poly.const(N, 1)

    def test_bilinearity_with_coefficients(self):
        w = e(1).scale(x).wedge(e(2).scale(y))
        assert w.coeff((0, 1)) == x * y

    def test_antisymmetry_order(self):
        assert e(2).wedge(e(1)).coeff((0, 1)) == Poly.const(N, -1)

    def test_kind_mismatch_rejected(self):
        with pytest.raises(StructureError):
            e(1).wedge(eps(1))

    @given(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1), st.integers(0, 1))
    @settings(max_examples=20)
    def test_graded_commutativity_degree_one(self, a, b, c, d):
        u = e(1).scale(a) + e(2).scale(b)
        v = e(1).scale(c) + e(2).scale(d)
        assert u.wedge(v) == -v.wedge(u)

    def test_associativity_rank3(self):
        u = MultiVector.from_vector(3, 3, [Poly.variable(3, 0), Poly.const(3, 1), Poly.zero(3)])
        v = MultiVector.from_vector(3, 3, [Poly.zero(3), Poly.variable(3, 1), Poly.const(3, 2)])
        w = MultiVector.from_vector(3, 3, [Poly.const(3, 1), Poly.zero(3), Poly.variable(3, 2)])
        assert u.wedge(v).wedge(w) == u.wedge(v.wedge(w))

    def test_graded_commutativity_mixed_degrees(self):
        z3 = Poly.variable(3, 2)
        D1 = MultiVector.from_vector(3, 3, [z3, Poly.const(3, 1), Poly.zero(3)])
        D2 = MultiVector(3, 3, 2, {(0, 1): Poly.variable(3, 0), (1, 2): Poly.const(3, 2)})
        # degrees (1,2): sign (-1)^(1*2) = +1; degrees (2,2): +1
        assert D1.wedge(D2) == D2.wedge(D1)
        assert D2.wedge(D2) == D2.wedge(D2)
        D3 = MultiVector.from_vector(3, 3, [Poly.zero(3), z3, Poly.const(3, 5)])
        assert D1.wedge(D3) == -D3.wedge(D1)


class TestPair:
    def test_dual_frame(self):
        assert pair(eps(1), e(1)) == Poly.const(N, 1)
        assert pair(eps(1), e(2)) == Poly.zero(N)

    def test_determinant_convention(self):
        assert pair(eps(1).wedge(eps(2)), e(1).wedge(e(2))) == Poly.const(N, 1)
        assert pair(eps(2).wedge(eps(1)), e(1).wedge(e(2))) == Poly.const(N, -1)

    def test_gram_matrix_is_identity(self):
        for i in (1, 2):
            for j in (1, 2):
                expected = Poly.const(N, 1 if i == j else 0)
                assert pair(eps(i), e(j)) == expected

    def test_degree_mismatch(self):
        with pytest.raises(StructureError):
            pair(eps(1), e(1).wedge(e(2)))


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))


@st.composite
def small_polys(draw):
    """A polynomial in N variables with up to 3 terms of degree <= 2 each."""
    terms = {}
    for _ in range(draw(st.integers(0, 3))):
        terms[(draw(st.integers(0, 2)), draw(st.integers(0, 2)))] = draw(small_rationals)
    return Poly(N, terms)


@st.composite
def graded_terms(draw):
    """1 to 4 (Poly, GradedElement) terms of one kind, rank 3 and degree."""
    cls = draw(st.sampled_from([MultiVector, Form]))
    degree = draw(st.integers(0, 3))
    keys = list(itertools.combinations(range(3), degree))
    terms = []
    for _ in range(draw(st.integers(1, 4))):
        coeffs = {K: draw(small_polys()) for K in keys if draw(st.booleans())}
        terms.append((draw(small_polys()), cls(3, N, degree, coeffs)))
    return terms


def running_sum(terms):
    """The sum term by term with `scale` and `+`."""
    out = terms[0][1].zero(3, N, terms[0][1].degree)
    for f, G in terms:
        out = out + G.scale(f)
    return out


class TestCombine:
    @given(graded_terms())
    @settings(max_examples=80, deadline=None)
    def test_matches_the_running_sum(self, terms):
        assert combine(terms) == running_sum(terms)

    @given(graded_terms())
    @settings(max_examples=40, deadline=None)
    def test_cancelling_sum_is_zero(self, terms):
        # each term again with its coefficient negated: every index cancels
        got = combine(terms + [(-f, G) for f, G in terms])
        assert got.is_zero()
        assert got == running_sum(terms).zero(3, N, terms[0][1].degree)
        assert type(got) is type(terms[0][1])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(StructureError):
            combine([(x, e(1)), (y, eps(1))])


class TestSectionTwist:
    def test_identity_twist_fixes_everything(self):
        phi = AffineTwist.identity(N)
        t = SectionTwist.identity(2, phi)
        D = e(1).wedge(e(2)).scale(x) + e(1).wedge(e(2))
        assert twist_tensor(D, t) == D

    def test_s1_fixes_top_bivector(self, s1_twist):
        # (e1/2) wedge (2 e2) = e1 wedge e2
        pi = e(1).wedge(e(2))
        assert twist_tensor(pi, s1_twist) == pi

    def test_s1_on_scaled_section(self, s1_twist):
        D = e(1).scale(x)
        # pullback of x is 2x, frame image is e1/2
        assert twist_tensor(D, s1_twist) == e(1).scale(x)

    def test_function_linearity(self, s1_twist):
        f = x * y + 3
        X = e(1).scale(y) + e(2)
        lhs = s1_twist.apply_graded(X.scale(f))
        rhs = s1_twist.apply_graded(X).scale(s1_twist.base.pullback(f))
        assert lhs == rhs

    def test_inverse(self, s1_twist):
        X = e(1).scale(x * x) + e(2).scale(y)
        assert s1_twist.inverse().apply_graded(s1_twist.apply_graded(X)) == X
        assert s1_twist.apply_graded(s1_twist.inverse().apply_graded(X)) == X

    def test_wedge_respected(self, s1_twist):
        u = e(1).scale(x) + e(2)
        v = e(2).scale(y + 1)
        lhs = s1_twist.apply_graded(u.wedge(v))
        rhs = s1_twist.apply_graded(u).wedge(s1_twist.apply_graded(v))
        assert lhs == rhs


class TestDualTwist:
    def test_identity(self):
        t = SectionTwist.identity(2, AffineTwist.identity(N))
        d = t.dual()
        assert d.apply_graded(eps(1)) == eps(1)

    def test_s1_dual_values(self, s1_twist):
        d = s1_twist.dual()
        assert d.apply_graded(eps(1)) == eps(1).scale(2)
        assert d.apply_graded(eps(2)) == eps(2).scale(Fraction(1, 2))

    def test_involution(self, s1_twist):
        dd = s1_twist.dual().dual()
        assert dd == s1_twist

    def test_derived_twists_are_built_once_and_point_back(self, s1_twist):
        P = s1_twist
        assert P.dual() is P.dual() and P.dual().dual() is P
        assert P.inverse() is P.inverse() and P.inverse().inverse() is P
        assert P.inverse().base is P.base.inverse()
        assert P.matrix_inverse() is P.matrix_inverse()
        for twist, basis in ((P, MultiVector.basis), (P.dual(), Form.basis)):
            image = twist.basis_image((0, 1))
            assert image == twist.apply_graded(basis(2, N, (0, 1)))
            assert twist.basis_image((0, 1)) is image

    def test_defining_relation(self, s1_twist):
        d = s1_twist.dual()
        inv = s1_twist.inverse()
        probes_x = [e(1), e(2), e(1).scale(x), e(2).scale(y * y)]
        probes_xi = [eps(1), eps(2), eps(1).scale(y), eps(2).scale(x)]
        for xi in probes_xi:
            for X in probes_x:
                lhs = pair(d.apply_graded(xi), X)
                rhs = s1_twist.base.pullback(pair(xi, inv.apply_graded(X)))
                assert lhs == rhs

    def test_pairing_compatibility(self, s1_twist):
        d = s1_twist.dual()
        for xi in (eps(1).scale(x), eps(2)):
            for X in (e(1), e(2).scale(y)):
                lhs = pair(d.apply_graded(xi), s1_twist.apply_graded(X))
                rhs = s1_twist.base.pullback(pair(xi, X))
                assert lhs == rhs

    def test_dual_knows_its_inverse(self, monkeypatch):
        one, zero = Poly.const(N, 1), Poly.zero(N)
        P = SectionTwist([[one, x * y], [zero, one]], AffineTwist.identity(N))
        D, S = P.dual(), dual_section_twist(P)
        calls = []
        monkeypatch.setattr(exterior, "poly_mat_inverse", calls.append)
        transpose = ((one, zero), (x * y, one))
        assert D.matrix_inverse() == transpose
        assert S.matrix_inverse() == transpose
        assert calls == []
        assert poly_mat_mul(D.matrix, transpose) == [[one, zero], [zero, one]]
        assert (S.matrix, S.kind, S.base) == (D.matrix, "multivector", P.base)

    def test_noninvertible_rejected(self):
        phi = AffineTwist.identity(N)
        t = SectionTwist([[x, Poly.zero(N)], [Poly.zero(N), Poly.const(N, 1)]], phi)
        with pytest.raises(StructureError):
            t.dual()


class TestEndoMap:
    def test_function_linearity(self):
        Nmap = EndoMap([[x, y], [Poly.const(N, 1), Poly.zero(N)]])
        X = e(1).scale(y) + e(2)
        f = x + 2
        assert Nmap.apply(X.scale(f)) == Nmap.apply(X).scale(f)

    def test_transpose_adjunction(self):
        Nmap = EndoMap([[x, y], [Poly.const(N, 3), Poly.zero(N)]])
        Nt = Nmap.transpose()
        for i in (1, 2):
            for j in (1, 2):
                assert pair(Nt.apply(eps(i)), e(j)) == pair(eps(i), Nmap.apply(e(j)))

    def test_twist_conjugation_identity(self, s1_twist):
        ident = EndoMap.identity(2, N)
        assert twist_tensor(ident, s1_twist) == ident

    def test_poly_mat_det(self):
        m = [[x, y], [Poly.const(N, 1), x]]
        assert poly_mat_det(m) == x * x - y

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 3), st.data())
    def test_poly_mat_adjugate(self, r, data):
        entry = st.sampled_from([Poly.zero(N), Poly.const(N, 1), Poly.const(N, -2), x, y, x * y + 1])
        m = [[data.draw(entry) for _ in range(r)] for _ in range(r)]
        det = poly_mat_det(m)
        scalar = [[det if i == j else Poly.zero(N) for j in range(r)] for i in range(r)]
        adj = poly_mat_adjugate(m)
        assert poly_mat_mul(adj, m) == scalar
        assert poly_mat_mul(m, adj) == scalar
