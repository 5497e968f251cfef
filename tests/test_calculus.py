import random
from contextlib import nullcontext
from fractions import Fraction

import pytest

import oracle as untwisted
from homlie import classical
from homlie.calculus import (
    CartanContext,
    _koszul_at,
    _slots,
    check_differential_props,
    differential,
    interior,
    lie_derivative_form,
    lie_derivative_tensor,
    operator_cache,
    schouten,
)
from homlie.exterior import EndoMap, Form, MultiVector, SectionTwist, pair
from homlie.homalg import HomAlgebroid, make_pullback_tangent, make_tm_r
from homlie.polyring import AffineTwist, Poly, monomials
from homlie.report import StructureError


def s1_base():
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


def differential_at(ctx: CartanContext, omega, args) -> Poly:
    """The defining formula at arbitrary section arguments: the Koszul
    reference that the tensoriality check evaluates at scaled frames."""
    omega = ctx.as_form(omega)
    args = list(args)
    return _koszul_at(ctx, omega, ctx.dagger.apply_graded(omega), args, *_slots(ctx, args), {}, {})


@pytest.fixture(scope="module")
def S0():
    phi = AffineTwist.identity(1)
    A = HomAlgebroid(phi, SectionTwist.identity(1, phi), [[Poly.zero(1)]], {})
    return CartanContext(A)


@pytest.fixture(scope="module")
def S1():
    return CartanContext(make_pullback_tangent(s1_base()))


@pytest.fixture(scope="module")
def S3():
    return CartanContext(make_pullback_tangent(AffineTwist.identity(3)))


x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def e(ctx, i):
    return ctx.algebroid.frame(i - 1)


def eps(ctx, i):
    return ctx.algebroid.coframe(i - 1)


class TestDifferential:
    def test_s1_coordinates(self, S1):
        assert differential(S1, x) == eps(S1, 1)
        assert differential(S1, y) == eps(S1, 2)

    def test_s0_everything_vanishes(self, S0):
        t = Poly.variable(1, 0)
        assert differential(S0, t).is_zero()
        assert differential(S0, Form.basis(1, 1, (0,)).scale(t * t)).is_zero()

    def test_constant(self, S1):
        assert differential(S1, Poly.const(2, 5)).is_zero()

    def test_square_zero_on_scaled_form(self, S1):
        om = eps(S1, 1).scale(x)
        assert differential(S1, differential(S1, om)).is_zero()

    def test_extraction_matches_formula_on_frames(self, S1):
        om = eps(S1, 1).scale(x * y)
        d_om = differential(S1, om)
        args = [e(S1, 1), e(S1, 2)]
        assert pair(d_om, args[0].wedge(args[1])) == differential_at(S1, om, args)


class TestInterior:
    def test_s1_twisted_contraction(self, S1):
        om = eps(S1, 1).wedge(eps(S1, 2))
        out = interior(S1, e(S1, 1), om)
        assert out == eps(S1, 2).scale(Fraction(1, 2))

    def test_classical_reduction(self, S3):
        om = eps(S3, 1).wedge(eps(S3, 2))
        assert interior(S3, e(S3, 1), om) == eps(S3, 2)

    def test_full_degree_is_twisted_pairing(self, S1):
        D = e(S1, 1).wedge(e(S1, 2)).scale(x)
        om = eps(S1, 1).wedge(eps(S1, 2)).scale(y)
        out = interior(S1, D, om)
        expected = pair(
            S1.dagger.apply_graded(om), S1.algebroid.phiA.apply_graded(D)
        )
        assert out.scalar_value() == expected

    def test_degree_underflow(self, S1):
        with pytest.raises(Exception):
            interior(S1, e(S1, 1).wedge(e(S1, 2)), eps(S1, 1))


class TestLieDerivativeForm:
    def test_s0_trivial(self, S0):
        X = MultiVector.basis(1, 1, (0,))
        eta = Form.basis(1, 1, (0,)).scale(Poly.variable(1, 0))
        assert lie_derivative_form(S0, X, eta).is_zero()

    def test_s1_frame_value(self, S1):
        # worked example: both Cartan-formula terms vanish
        assert lie_derivative_form(S1, e(S1, 1), eps(S1, 1)).is_zero()

    def test_pairing_identity_probe(self, S1):
        X = e(S1, 1).scale(x)
        alpha = eps(S1, 2).scale(y)
        A = S1.algebroid
        L = lie_derivative_form(S1, X, alpha)
        for Y in (e(S1, 1), e(S1, 2), e(S1, 2).scale(x * y)):
            invY = S1.phiA_inv.apply_graded(Y)
            lhs = pair(L, Y)
            rhs = A.anchor_field(A.phiA.apply_graded(X)).apply(pair(alpha, invY)) - pair(
                S1.dagger.apply_graded(alpha), schouten(S1, X, invY)
            )
            assert lhs == rhs

    def test_classical_magic_formula(self, S3):
        z = Poly.variable(3, 2)
        X = MultiVector.from_vector(3, 3, [z, Poly.zero(3), Poly.variable(3, 0)])
        om = Form.basis(3, 3, (0, 1)).scale(Poly.variable(3, 1))
        engine = lie_derivative_form(S3, X, om)
        oracle = untwisted.lie_form(X, om)
        assert engine == oracle

    @pytest.mark.parametrize("scoped", [False, True])
    @pytest.mark.parametrize("X", [x, "e1", Form.basis(2, 2, (0,))], ids=["Poly", "str", "Form"])
    def test_non_multivector_refused(self, S1, X, scoped):
        # checked before the operator-cache key is built from X
        with operator_cache() if scoped else nullcontext():
            with pytest.raises(StructureError, match="expected a multivector"):
                lie_derivative_form(S1, X, eps(S1, 1))


class TestSchouten:
    def test_functions_commute(self, S1):
        out = schouten(S1, x, y)
        assert out.is_zero()

    def test_section_function(self, S1):
        out = schouten(S1, e(S1, 1), x)
        assert out.scalar_value() == Poly.const(2, Fraction(1, 2))

    def test_bivector_square_vanishes(self, S1):
        pi = e(S1, 1).wedge(e(S1, 2))
        assert schouten(S1, pi, pi).is_zero()

    def test_degree_one_is_bracket(self, S1):
        X = e(S1, 1).scale(x)
        Y = e(S1, 2).scale(y * y)
        assert schouten(S1, X, Y) == S1.algebroid.bracket(X, Y)

    def test_graded_antisymmetry(self, S1):
        pi = e(S1, 1).wedge(e(S1, 2)).scale(x)
        X = e(S1, 2).scale(y)
        lhs = schouten(S1, pi, X)
        rhs = schouten(S1, X, pi)
        # [D1,D2] = -(-1)^((k-1)(l-1)) [D2,D1]; here (k-1)(l-1) = 0
        assert lhs == -rhs

    def test_wedge_leibniz(self, S1):
        # [X, D2 ^ D3] = [X,D2] ^ tw(D3) + (-1)^((k+1) deg D2) tw(D2) ^ [X,D3]
        X = e(S1, 1).scale(y)
        D2 = e(S1, 2).scale(x)
        D3 = e(S1, 1)
        tw = S1.algebroid.phiA.apply_graded
        lhs = schouten(S1, X, D2.wedge(D3))
        rhs = schouten(S1, X, D2).wedge(tw(D3)) + tw(D2).wedge(schouten(S1, X, D3))
        assert lhs == rhs

    def test_classical_reduction(self, S3):
        xx, yy, zz = (Poly.variable(3, i) for i in range(3))
        D1 = MultiVector.basis(3, 3, (0,)).wedge(MultiVector.basis(3, 3, (1,))).scale(zz)
        D2 = MultiVector.from_vector(3, 3, [yy, xx * xx, Poly.const(3, 1)])
        assert schouten(S3, D1, D2) == classical.schouten_classical(D1, D2)


class TestLieDerivativeMultivector:
    def test_self_bracket_vanishes(self, S1):
        X = e(S1, 1).scale(x)
        assert schouten(S1, X, X).is_zero()

    def test_s1_worked_example(self, S1):
        out = schouten(S1, e(S1, 1), e(S1, 2).scale(x))
        assert out == e(S1, 2)

    def test_s0_trivial(self, S0):
        X = MultiVector.basis(1, 1, (0,))
        D = MultiVector.basis(1, 1, (0,)).scale(Poly.variable(1, 0))
        assert schouten(S0, X, D).is_zero()


class TestLieDerivativeTensor:
    def test_identity_endo_is_flat(self, S1):
        N = EndoMap.identity(2, 2)
        out = lie_derivative_tensor(S1, e(S1, 1), N)
        assert out.is_zero()

    def test_slotwise_identity(self, S1):
        # (L_X N)(Y) = L_X(N(inv Y)) - tw(N)(L_X(inv Y))
        N = EndoMap([[x, Poly.const(2, 2)], [Poly.zero(2), y]])
        X = e(S1, 1).scale(y)
        LN = lie_derivative_tensor(S1, X, N)
        twN = S1.algebroid.phiA.apply_endo(N)
        for Y in (e(S1, 1), e(S1, 2), e(S1, 1).scale(x)):
            invY = S1.phiA_inv.apply_graded(Y)
            lhs = LN.apply(Y)
            rhs = schouten(S1, X, N.apply(invY)) - twN.apply(schouten(S1, X, invY))
            assert lhs == rhs

    def test_composition_rule(self, S1):
        N1 = EndoMap([[x, Poly.zero(2)], [Poly.const(2, 1), y]])
        N2 = untwisted.diagonal(2, [3, Fraction(1, 2)])
        X = e(S1, 2)
        tw = S1.algebroid.phiA.apply_endo
        lhs = lie_derivative_tensor(S1, X, N1.compose(N2))
        rhs = lie_derivative_tensor(S1, X, N1).compose(tw(N2)) + tw(N1).compose(
            lie_derivative_tensor(S1, X, N2)
        )
        assert lhs == rhs


class TestCheckDifferentialProps:
    def test_s0(self, S0):
        assert check_differential_props(S0).passed

    def test_s1(self, S1):
        assert check_differential_props(S1).passed

    def test_s2(self):
        ctx = CartanContext(make_tm_r(s1_base()))
        assert check_differential_props(ctx, probe_degree=2).passed

    def test_s3(self, S3):
        assert check_differential_props(S3, probe_degree=1).passed

    def test_pairing_brackets_once_per_section_pair(self, monkeypatch):
        from test_differential_tables import dense_tangent

        from homlie import calculus, probes

        ctx = CartanContext(dense_tangent())
        calls = []
        original = calculus.schouten

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(calculus, "schouten", counted)
        assert check_differential_props(ctx, probe_degree=2).passed
        assert len(calls) <= len(probes.sections(ctx.algebroid, 2)) ** 2


class TestClassicalOracleSelfChecks:
    def test_de_rham_square_zero(self):
        om = Form.basis(3, 3, (0,)).scale(Poly.variable(3, 0) * Poly.variable(3, 1))
        assert untwisted.de_rham(untwisted.de_rham(om)).is_zero()

    def test_commutator_agreement(self):
        xx, yy = Poly.variable(3, 0), Poly.variable(3, 1)
        X = MultiVector.from_vector(3, 3, [yy, Poly.zero(3), Poly.const(3, 1)])
        Y = MultiVector.from_vector(3, 3, [Poly.zero(3), xx, Poly.zero(3)])
        br = classical.schouten_classical(X, Y)
        comm = untwisted.vf_commutator(X.vector(), Y.vector())
        assert br == MultiVector.from_vector(3, 3, comm)

    def test_bracket_with_function_is_derivative(self):
        xx = Poly.variable(3, 0)
        X = MultiVector.from_vector(3, 3, [xx, Poly.const(3, 2), Poly.zero(3)])
        f = xx * xx
        out = classical.schouten_classical(X, MultiVector.scalar(3, 3, f))
        assert out.scalar_value() == untwisted.vf_apply(X.vector(), f)

    def test_schouten_graded_antisymmetry(self):
        zz = Poly.variable(3, 2)
        D1 = MultiVector.basis(3, 3, (0, 1)).scale(zz)
        D2 = MultiVector.from_vector(3, 3, [zz, Poly.zero(3), Poly.variable(3, 0)])
        lhs = classical.schouten_classical(D1, D2)
        rhs = classical.schouten_classical(D2, D1)
        assert lhs == -rhs

    def test_schouten_wedge_leibniz(self):
        xx, yy, zz = (Poly.variable(3, i) for i in range(3))
        X = MultiVector.from_vector(3, 3, [yy, zz, xx])
        D2 = MultiVector.basis(3, 3, (1,)).scale(xx)
        D3 = MultiVector.basis(3, 3, (2,))
        lhs = classical.schouten_classical(X, D2.wedge(D3))
        rhs = classical.schouten_classical(X, D2).wedge(D3) + D2.wedge(
            classical.schouten_classical(X, D3)
        )
        assert lhs == rhs

    def test_contraction_nested(self):
        om = Form.basis(3, 3, (0, 1, 2))
        D = MultiVector.basis(3, 3, (0, 1))
        out = untwisted.contract_multi(D, om)
        assert out == Form.basis(3, 3, (2,))


def _random_form(rng, rank, n, degree, coeff_pool):
    from itertools import combinations

    coeffs = {}
    for I in combinations(range(rank), degree):
        coeffs[I] = rng.choice(coeff_pool)
    return Form(rank, n, degree, coeffs)


class TestClassicalReductionSampled:
    def test_engine_matches_oracle_on_random_probes(self, S3):
        rng = random.Random(20240817)
        pool = monomials(3, 3) + [Poly.zero(3)]
        hits = 0
        for _ in range(25):
            deg = rng.randrange(0, 3)
            om = _random_form(rng, 3, 3, deg, pool)
            X = MultiVector.from_vector(3, 3, [rng.choice(pool) for _ in range(3)])
            assert differential(S3, om) == untwisted.de_rham(om)
            if deg >= 1:
                assert interior(S3, X, om) == untwisted.contract(X, om)
            assert lie_derivative_form(S3, X, om) == untwisted.lie_form(X, om)
            hits += 1
        assert hits == 25
