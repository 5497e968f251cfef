from fractions import Fraction

import pytest

from homlie import probes
from homlie.calculus import CartanContext, lie_derivative_form
from homlie.courant import (
    BialgebroidPair,
    CourantDouble,
    ESection,
    check_bialgebroid,
    check_closed_bracket_formula,
    check_courant_axioms,
    double,
    jacobiator,
)
from homlie.exterior import SectionTwist
from homlie.homalg import HomAlgebroid, make_pullback_tangent
from homlie.poisson import Bivector
from homlie.polyring import AffineTwist, Poly
from homlie.report import PreconditionError, StructureError

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def s1_base():
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


@pytest.fixture(scope="module")
def S0_pair():
    phi = AffineTwist.identity(1)
    A = HomAlgebroid(phi, SectionTwist.identity(1, phi), [[Poly.zero(1)]], {})
    return BialgebroidPair.trivial(A)


@pytest.fixture(scope="module")
def S1_alg():
    return make_pullback_tangent(s1_base())


@pytest.fixture(scope="module")
def S1_pair(S1_alg):
    return BialgebroidPair.trivial(S1_alg)


@pytest.fixture(scope="module")
def S1_pi_pair(S1_alg):
    ctx = CartanContext(S1_alg)
    pi = Bivector(S1_alg.frame(0).wedge(S1_alg.frame(1)))
    return BialgebroidPair.from_pi(ctx, pi)


@pytest.fixture(scope="module")
def S2_pair():
    from homlie.fixtures import algebroid_s2

    return BialgebroidPair.trivial(algebroid_s2())


class TestCheckBialgebroid:
    def test_trivial_dual_passes(self, S1_pair):
        res = check_bialgebroid(S1_pair)
        assert res.passed

    def test_pi_dual_passes(self, S1_pi_pair):
        assert check_bialgebroid(S1_pi_pair).passed

    def test_perturbed_dual_fails(self, S1_alg):
        ctx = CartanContext(S1_alg)
        twist = SectionTwist([list(r) for r in ctx.dagger.matrix], S1_alg.phi, "multivector")
        anchor = [[Poly.zero(2)] * 2 for _ in range(2)]
        bad_dual = HomAlgebroid(
            S1_alg.phi, twist, anchor, {(0, 1, 0): Poly.const(2, 1)}
        )
        res = check_bialgebroid(BialgebroidPair(S1_alg, bad_dual))
        assert not res.passed
        assert res.witness is not None

    def test_twists_each_probe_once(self, monkeypatch):
        import sys

        calls = []
        original = SectionTwist.apply_graded

        def counted(self, T):
            # the twists that check_bialgebroid applies itself, not those
            # inside the bracket and differential operators it calls
            if sys._getframe(1).f_globals["__name__"] == "homlie.courant":
                calls.append(T)
            return original(self, T)

        monkeypatch.setattr(SectionTwist, "apply_graded", counted)
        A = make_pullback_tangent(s1_base())  # a new context, so no stored verdict
        P = BialgebroidPair.from_pi(CartanContext(A), Bivector(A.frame(0).wedge(A.frame(1))))
        assert check_bialgebroid(P, 2).passed
        # phi_A of each of the 12 probe sections at degree 2, and the
        # dual twist of each of the 12 probe covectors
        assert len(probes.sections(A, 2)) == len(probes.coframes(A, 2)) == 12
        assert len(calls) == 12 + 12 == 24

    def test_mismatched_twist_rejected(self, S1_alg):
        twist = SectionTwist.identity(2, S1_alg.phi)
        anchor = [[Poly.zero(2)] * 2 for _ in range(2)]
        with pytest.raises(StructureError):
            BialgebroidPair(S1_alg, HomAlgebroid(S1_alg.phi, twist, anchor, {}))


class TestDouble:
    def test_trivial_dual_product_is_lie_derivative(self, S1_pair):
        E = double(S1_pair)
        e1 = E.frame_section(0)
        eps2 = E.frame_section(3)
        expected_form = lie_derivative_form(
            S1_pair.ctx, S1_pair.A.frame(0), S1_pair.A.coframe(1)
        )
        prod = E.product(e1, eps2)
        assert prod.coeffs[0].is_zero() and prod.coeffs[1].is_zero()
        assert list(prod.coeffs[2:]) == expected_form.vector()

    def test_s0_everything_vanishes(self, S0_pair):
        E = double(S0_pair)
        for a in range(2):
            for b in range(2):
                assert E.product(E.frame_section(a), E.frame_section(b)).is_zero()

    def test_pi_dual_coframe_product(self, S1_pi_pair):
        from homlie.poisson import bracket_pi

        E = double(S1_pi_pair)
        eps1, eps2 = E.frame_section(2), E.frame_section(3)
        prod = E.product(eps1, eps2)
        pi = Bivector(S1_pi_pair.A.frame(0).wedge(S1_pi_pair.A.frame(1)))
        expected = bracket_pi(
            S1_pi_pair.ctx, pi, S1_pi_pair.A.coframe(0), S1_pi_pair.A.coframe(1)
        )
        assert list(prod.coeffs[:2]) == [Poly.zero(2), Poly.zero(2)]
        assert list(prod.coeffs[2:]) == expected.vector()

    def test_double_rejects_bad_pair(self, S1_alg):
        ctx = CartanContext(S1_alg)
        twist = SectionTwist([list(r) for r in ctx.dagger.matrix], S1_alg.phi, "multivector")
        bad_dual = HomAlgebroid(
            S1_alg.phi, twist, [[Poly.zero(2)] * 2 for _ in range(2)],
            {(0, 1, 0): Poly.const(2, 1)},
        )
        with pytest.raises(PreconditionError):
            double(BialgebroidPair(S1_alg, bad_dual))


class TestPairing:
    def test_gram_structure(self, S1_pair):
        E = double(S1_pair, verify=False)
        half = Poly.const(2, Fraction(1, 2))
        for i in range(2):
            for j in range(2):
                expected = half if i == j else Poly.zero(2)
                assert E.pairing(E.frame_section(i), E.frame_section(2 + j)) == expected
                assert E.pairing(E.frame_section(i), E.frame_section(j)).is_zero()
                assert E.pairing(E.frame_section(2 + i), E.frame_section(2 + j)).is_zero()

    def test_symmetry(self, S1_pair):
        E = double(S1_pair, verify=False)
        u = E.frame_section(0).scale(x) + E.frame_section(3)
        v = E.frame_section(1) + E.frame_section(2).scale(y)
        assert E.pairing(u, v) == E.pairing(v, u)


def reference_phiE(E, u):
    """phiE extended phi*-linearly from the frame: phiE(E_a) is column a
    of phiA on the primal block, or of its dual twist on the covector
    block, and phiE(sum f_a E_a) = sum phi*(f_a) phiE(E_a)."""
    r, n = E.r, E.n
    primal, dual = E.pair.A.phiA.matrix, E.pair.ctx.dagger.matrix
    zeros = [Poly.zero(n)] * r
    out = ESection(zeros + zeros, n)
    for a, f in enumerate(u.coeffs):
        if a < r:
            image = [primal[b][a] for b in range(r)] + zeros
        else:
            image = zeros + [dual[b][a - r] for b in range(r)]
        out = out + ESection(image, n).scale(E.phi.pullback(f))
    return out


class TestSectionParts:
    """A doubled section is its pair (X, xi); the maps on it agree with
    their definitions on the 2r coefficients."""

    @pytest.fixture(params=["S1_pair", "S1_pi_pair", "S2_pair"])
    def E(self, request):
        return double(request.getfixturevalue(request.param), verify=False)

    @staticmethod
    def mixed(E):
        return [u for _, u in probes.double_sections(E, 1, mixed=True)]

    def test_phiE_is_the_frame_extension(self, E):
        for u in self.mixed(E):
            assert E.phiE(u) == reference_phiE(E, u)

    def test_pairing_is_half_the_cross_sum(self, E):
        r, half = E.r, Fraction(1, 2)
        sections = self.mixed(E)
        for u in sections:
            for v in sections:
                a, b = u.coeffs, v.coeffs
                cross = sum((a[r + i] * b[i] + b[r + i] * a[i] for i in range(r)), Poly.zero(E.n))
                assert E.pairing(u, v) == cross * half

    def test_coefficients_round_trip(self, E):
        for u in self.mixed(E):
            assert len(u.coeffs) == 2 * E.r
            assert ESection(u.coeffs, E.n) == u
            assert ESection.of(u.X, u.xi) == u


class TestScriptD:
    def test_constant(self, S1_pair):
        E = double(S1_pair, verify=False)
        assert E.script_D(Poly.const(2, 9)).is_zero()

    def test_trivial_dual_is_primal_differential(self, S1_pair):
        E = double(S1_pair, verify=False)
        out = E.script_D(x)
        assert out == ESection([0, 0, 1, 0], 2)

    def test_pi_dual_sum_of_differentials(self, S1_pi_pair):
        from homlie.calculus import differential
        from homlie.exterior import MultiVector, reinterpret

        E = double(S1_pi_pair, verify=False)
        for f in (x, y, x * y):
            out = E.script_D(f)
            d_primal = differential(S1_pi_pair.ctx, f)
            d_dual = reinterpret(differential(S1_pi_pair.dual_ctx, f), MultiVector)
            assert list(out.coeffs[:2]) == d_dual.vector()
            assert list(out.coeffs[2:]) == d_primal.vector()

    def test_defining_relation(self, S1_pi_pair):
        E = double(S1_pi_pair, verify=False)
        half = Poly.const(2, Fraction(1, 2))
        for f in (x, x * y):
            Df = E.script_D(f)
            for a in range(4):
                u = E.frame_section(a)
                assert E.pairing(Df, u) == half * E.rho_field(u).apply(f)


class TestCourantAxioms:
    def test_anchor_fields_built_once_per_probe(self, monkeypatch):
        from homlie.fixtures import algebroid_s1

        builds = []
        original = CourantDouble.rho_field

        def counted(self, u):
            builds.append(u)
            return original(self, u)

        monkeypatch.setattr(CourantDouble, "rho_field", counted)
        E = double(BialgebroidPair.trivial(algebroid_s1()))
        assert check_courant_axioms(E, 2).passed
        # 4 frame fields rho(E_a), 2 per probe in
        # anchor-twist-conjugation, 1 per probe plus 1 per product in
        # anchor-product-compatibility, and 1 per probe in
        # pairing-derivation, over 12 pair probes; the fields
        # rho(phiE E_a) are the algebroids' anchor_after_twist
        assert len(builds) == 4 + 2 * 12 + (12 + 12 * 12) + 12 == 196

    def test_phiE_once_per_probe(self, monkeypatch):
        from homlie.fixtures import algebroid_s1

        calls = []
        original = CourantDouble.phiE

        def counted(self, u):
            calls.append(u)
            return original(self, u)

        monkeypatch.setattr(CourantDouble, "phiE", counted)
        E = double(BialgebroidPair.trivial(algebroid_s1()))
        assert check_courant_axioms(E, 2).passed
        # one per product in product-twist-homomorphism (12 x 12 pair
        # probes), and one per distinct probe section: the 24 mixed
        # probes, which include the 12 pair probes, the scaled frames of
        # product-hom-leibniz and the frames of the
        # function-multiplication rules
        assert len(calls) == 12 * 12 + 24 == 168

    def test_pairing_once_per_pair_in_pairing_derivation(self, monkeypatch):
        from homlie.fixtures import algebroid_s1

        calls = []
        original = CourantDouble.pairing

        def counted(self, u, v):
            calls.append(u)
            return original(self, u, v)

        monkeypatch.setattr(CourantDouble, "pairing", counted)
        E = double(BialgebroidPair.trivial(algebroid_s1()))
        assert check_courant_axioms(E, 2).passed
        # the 4 x 4 Gram matrix once; 1 per mixed probe in
        # square-is-metric-gradient and 2 per pair of the 24 mixed probes
        # in pairing-twist-compatibility; in pairing-derivation <e1, e2>
        # once per pair of the 12 pair probes, and the 2 right-side
        # pairings per (e, e1, e2); 1 per (frame, frame) pair in the
        # function-multiplication rules, whose 5 nonconstant monomials f
        # share it
        assert len(calls) == 16 + 24 + 2 * 24 * 24 + (12 * 12 + 2 * 12**3) + 4 * 4 == 4808

    def test_jacobiator_twists_each_cyclic_term_once(self, monkeypatch):
        from homlie.courant import check_jacobiator
        from homlie.fixtures import algebroid_s1

        calls = []
        original = CourantDouble.phiE

        def counted(self, u):
            calls.append(u)
            return original(self, u)

        monkeypatch.setattr(CourantDouble, "phiE", counted)
        E = double(BialgebroidPair.trivial(algebroid_s1()))
        assert check_jacobiator(E).passed
        # phiE(c) once per cyclic term (a, b, c), for the bracket and the
        # pairing alike, on each of the 4 x 4 x 4 frame triples
        assert len(calls) == 3 * 4**3 == 192

    def test_s0_double(self, S0_pair):
        assert check_courant_axioms(double(S0_pair, verify=False)).passed

    def test_s1_trivial_double(self, S1_pair):
        assert check_courant_axioms(double(S1_pair, verify=False)).passed

    def test_s1_pi_double(self, S1_pi_pair):
        assert check_courant_axioms(double(S1_pi_pair, verify=False)).passed

    def test_perturbed_table_fails_with_witness(self, S1_pair):
        E = double(S1_pair, verify=False)
        table = {}
        for a in range(4):
            for b in range(4):
                table[(a, b)] = E.product(E.frame_section(a), E.frame_section(b))
        table[(0, 1)] = table[(0, 1)] + E.frame_section(2)
        bad = CourantDouble(S1_pair, product_table=table)
        res = check_courant_axioms(bad)
        assert not res.passed
        assert res.witness is not None

    def test_table_reproduces_formula(self, S1_pi_pair):
        E = double(S1_pi_pair, verify=False)
        table = {}
        for a in range(4):
            for b in range(4):
                table[(a, b)] = E.product(E.frame_section(a), E.frame_section(b))
        tabled = CourantDouble(S1_pi_pair, product_table=table)
        u = E.frame_section(0).scale(x) + E.frame_section(3)
        v = E.frame_section(1) + E.frame_section(2).scale(y)
        assert tabled.product(u, v) == E.product(u, v)


class TestBracket:
    def test_antisymmetry(self, S1_pi_pair):
        E = double(S1_pi_pair, verify=False)
        u = E.frame_section(0) + E.frame_section(3).scale(x)
        assert E.bracket(u, u).is_zero()

    def test_closed_formula(self, S1_pair):
        E = double(S1_pair, verify=False)
        assert check_closed_bracket_formula(E).passed

    def test_closed_formula_pi_dual(self, S1_pi_pair):
        E = double(S1_pi_pair, verify=False)
        assert check_closed_bracket_formula(E).passed

    def test_trivial_dual_mixed_bracket(self, S1_pair):
        # [[e1, eps2]] keeps only the primal Lie-derivative and gradient
        E = double(S1_pair, verify=False)
        u, v = E.frame_section(0), E.frame_section(3)
        ctx = S1_pair.ctx
        A = S1_pair.A
        half = Fraction(1, 2)
        expected_form = lie_derivative_form(ctx, A.frame(0), A.coframe(1))
        from homlie.calculus import differential
        from homlie.exterior import pair as duality

        cross = duality(A.coframe(1), A.frame(0))
        expected_form = expected_form - differential(ctx, cross).scale(half)
        out = E.bracket(u, v)
        assert list(out.coeffs[:2]) == [Poly.zero(2), Poly.zero(2)]
        assert list(out.coeffs[2:]) == expected_form.vector()


class TestJacobiator:
    def test_s0(self, S0_pair):
        E = double(S0_pair, verify=False)
        cyc, T = jacobiator(E, E.frame_section(0), E.frame_section(1), E.frame_section(0))
        assert cyc.is_zero() and T.is_zero()

    def test_s1_trivial_frame_triples(self, S1_pair):
        E = double(S1_pair, verify=False)
        fr = E.frame_sections()
        for i in range(4):
            for j in range(4):
                for k in range(4):
                    jacobiator(E, fr[i], fr[j], fr[k])

    def test_s1_pi_mixed_triples(self, S1_pi_pair):
        E = double(S1_pi_pair, verify=False)
        fr = E.frame_sections()
        jacobiator(E, fr[0], fr[2], fr[3])
        jacobiator(E, fr[0].scale(x), fr[1], fr[2])
        jacobiator(E, fr[0] + fr[3], fr[1].scale(y), fr[2])
