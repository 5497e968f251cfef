from fractions import Fraction
from pathlib import Path

import pytest

from homlie import classical, probes
from homlie.calculus import CartanContext, schouten
from homlie.courant import BialgebroidPair, check_bialgebroid
from homlie.exterior import MultiVector, pair, reinterpret
from homlie.homalg import check_axioms, make_pullback_tangent
from homlie.poisson import (
    Bivector,
    bracket_pi,
    classical_poisson_lift,
    d_pi,
    dual_algebroid,
    is_hom_poisson,
    pi_pi_cases,
    pi_pi_identity,
    sharp_commutes,
)
from homlie.polyring import AffineTwist, Poly
from homlie.report import PreconditionError, TheoremViolation, first_nonzero
from homlie.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def s1_base():
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


@pytest.fixture(scope="module")
def S1():
    return CartanContext(make_pullback_tangent(s1_base()))


@pytest.fixture(scope="module")
def S3():
    return CartanContext(make_pullback_tangent(AffineTwist.identity(3)))


x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def std_pi(ctx):
    return Bivector(ctx.algebroid.frame(0).wedge(ctx.algebroid.frame(1)))


def bad_pi(ctx):
    return Bivector(ctx.algebroid.frame(0).wedge(ctx.algebroid.frame(1)).scale(x))


def nonpoisson_pi_s3():
    # brackets {x,y} = z, {y,z} = x, {x,z} = -x violate the cyclic identity
    z3 = Poly.variable(3, 2)
    x3 = Poly.variable(3, 0)
    return Bivector(
        MultiVector(3, 3, 2, {(0, 1): z3, (1, 2): x3, (0, 2): -x3})
    )


class TestSharp:
    def test_sharp_values(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        assert pi.sharp_apply(A.coframe(0)) == A.frame(1)
        assert pi.sharp_apply(A.coframe(1)) == -A.frame(0)

    def test_sharp_antisymmetry(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        probes = [A.coframe(0), A.coframe(1), A.coframe(0).scale(x)]
        for a in probes:
            for b in probes:
                assert pair(a, pi.sharp_apply(b)) == -pair(b, pi.sharp_apply(a))

    def test_from_sharp_round_trip(self, S1):
        pi = std_pi(S1)
        back = Bivector.from_sharp([list(r) for r in pi.sharp.matrix], 2)
        assert back.table == pi.table

    def test_from_sharp_rejects_symmetric(self):
        with pytest.raises(TheoremViolation):
            Bivector.from_sharp([[0, 1], [1, 0]], 2)


class TestIsHomPoisson:
    def test_standard_passes(self, S1):
        assert is_hom_poisson(S1, std_pi(S1)).passed

    def test_zero_passes(self, S1):
        assert is_hom_poisson(S1, Bivector(MultiVector.zero(2, 2, 2))).passed

    def test_scaled_fails_invariance(self, S1):
        res = is_hom_poisson(S1, bad_pi(S1))
        assert not res.passed
        assert res.witness.identity == "twist-invariance"
        # twist doubles the coefficient, so the residual is x e1^e2
        assert res.witness.residual == "(x) e[1,2]"

    def test_nonpoisson_s3_fails_square(self, S3):
        res = is_hom_poisson(S3, nonpoisson_pi_s3())
        assert not res.passed
        assert res.witness.identity == "self-bracket"


class TestSharpCommutes:
    def test_standard(self, S1):
        res = sharp_commutes(S1, std_pi(S1))
        assert res.passed
        assert res.details["equivalent"] is True

    def test_scaled_fails_consistently(self, S1):
        res = sharp_commutes(S1, bad_pi(S1))
        assert not res.passed
        assert res.details["invariant"] is False
        assert res.details["commutes"] is False
        assert res.details["equivalent"] is True

    def test_s1_worked_values(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        lhs = A.phiA.apply_graded(pi.sharp_apply(A.coframe(0)))
        rhs = pi.sharp_apply(S1.dagger.apply_graded(A.coframe(0)))
        assert lhs == A.frame(1).scale(2)
        assert lhs == rhs


class TestBracketPi:
    def test_antisymmetry(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        a = A.coframe(0).scale(x)
        b = A.coframe(1).scale(y + 1)
        assert bracket_pi(S1, pi, a, b) == -bracket_pi(S1, pi, b, a)

    def test_frame_value(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        assert bracket_pi(S1, pi, A.coframe(0), A.coframe(1)).is_zero()

    def test_zero_pi(self, S1):
        pi = Bivector(MultiVector.zero(2, 2, 2))
        A = S1.algebroid
        assert bracket_pi(S1, pi, A.coframe(0), A.coframe(1)).is_zero()


class TestDualAlgebroid:
    def test_s1_dual_passes_axioms(self, S1):
        dual = dual_algebroid(S1, std_pi(S1))
        assert check_axioms(dual).passed

    def test_dual_anchor_matrix(self, S1):
        dual = dual_algebroid(S1, std_pi(S1))
        assert dual.anchor[0][1] == Poly.const(2, -1)
        assert dual.anchor[1][0] == Poly.const(2, 1)
        assert dual.anchor[0][0].is_zero() and dual.anchor[1][1].is_zero()

    def test_rejects_noninvariant(self, S1):
        with pytest.raises(PreconditionError):
            dual_algebroid(S1, bad_pi(S1))

    def test_dual_bracket_leibniz_consistency(self, S1):
        # the frame-extracted structure reproduces the covector bracket
        # on scaled probes
        pi = std_pi(S1)
        dual = dual_algebroid(S1, pi)
        A = S1.algebroid
        for f in (x, y, x * y):
            lhs = dual.bracket(
                MultiVector.basis(2, 2, (0,)).scale(f), MultiVector.basis(2, 2, (1,))
            )
            rhs = bracket_pi(S1, pi, A.coframe(0).scale(f), A.coframe(1))
            assert lhs.vector() == rhs.vector()


class TestDPi:
    def test_frame_section(self, S1):
        pi = std_pi(S1)
        out = d_pi(S1, pi, S1.algebroid.frame(0))
        assert out == schouten(S1, pi.table, S1.algebroid.frame(0))

    def test_pi_itself(self, S1):
        pi = std_pi(S1)
        assert d_pi(S1, pi, pi.table).is_zero()

    def test_constant_function(self, S1):
        pi = std_pi(S1)
        assert d_pi(S1, pi, Poly.const(2, 7)).is_zero()

    def test_function_and_scaled_section(self, S1):
        pi = std_pi(S1)
        for D in (x * y, S1.algebroid.frame(1).scale(x * x)):
            out = d_pi(S1, pi, D)
            assert out == schouten(S1, pi.table, S1.as_multivector(D))

    def test_rejects_noninvariant(self, S1):
        with pytest.raises(PreconditionError):
            d_pi(S1, bad_pi(S1), S1.algebroid.frame(0))

    @pytest.mark.parametrize("name", ["S1", "S3-nonpoisson-pi"])
    def test_equals_graded_bracket_up_to_top_degree(self, name):
        # the dual candidate's Koszul differential against [pi, D], on
        # every probe multivector of every degree; the S3 bivector is
        # invariant but not Poisson
        path = {"S1": "s1_full.json", "S3-nonpoisson-pi": "s3_nonpoisson_pi.json"}[name]
        scn = load_scenario(str(SCENARIOS / path))
        ctx, pi = CartanContext(scn.algebroid), scn.pi
        assert is_hom_poisson(ctx, pi).passed == (name == "S1")
        probes_ = probes.forms(ctx.algebroid, 1)
        assert {om.degree for _, om in probes_} == set(range(ctx.rank + 1))
        for _, om in probes_:
            D = reinterpret(om, MultiVector)
            assert d_pi(ctx, pi, D) == schouten(ctx, pi.table, D)


class TestPiPiIdentity:
    def test_s1_standard(self, S1):
        res = pi_pi_identity(S1, std_pi(S1))
        assert res.passed

    def test_scaled_coforms(self, S1):
        A = S1.algebroid
        pi = std_pi(S1)
        for a in (A.coframe(0).scale(x), A.coframe(1).scale(y * y)):
            for b in (A.coframe(0), A.coframe(1).scale(x + 1)):
                assert first_nonzero("pi-pi-contraction", pi_pi_cases(S1, pi, [(a, b)])).passed

    def test_holds_for_nonpoisson(self, S3):
        # the identity is valid for any invariant bivector, even with a
        # nonzero self-bracket
        pi = nonpoisson_pi_s3()
        assert not schouten(S3, pi.table, pi.table).is_zero()
        assert pi_pi_identity(S3, pi).passed


class TestClassicalLift:
    def test_det_one_map_valid(self):
        res = classical_poisson_lift(s1_base(), {(0, 1): Poly.const(2, 1)})
        assert res.passed
        assert res.details["classical-poisson"] and res.details["hom-poisson"]
        assert res.details["classical-invariant"] and res.details["hom-invariant"]

    def test_identity_map_valid(self):
        res = classical_poisson_lift(AffineTwist.identity(2), {(0, 1): Poly.const(2, 1)})
        assert res.passed
        assert all(res.details.values())

    def test_zero_bivector_valid(self):
        res = classical_poisson_lift(AffineTwist([[3, 0], [1, 1]]), {})
        assert res.passed

    def test_nonpreserving_map_detected_on_both_sides(self):
        phi = AffineTwist([[2, 0], [0, 1]])
        res = classical_poisson_lift(phi, {(0, 1): Poly.const(2, 1)})
        assert res.passed  # the two sides agree...
        assert res.details["classical-invariant"] is False
        assert res.details["hom-invariant"] is False
        assert res.details["classical-poisson"] is True

    def test_nonpoisson_bivector_detected_on_both_sides(self):
        pi = nonpoisson_pi_s3()
        res = classical_poisson_lift(AffineTwist.identity(3), pi.table.coeffs)
        assert res.passed
        assert res.details["classical-poisson"] is False
        assert res.details["hom-poisson"] is False
        assert res.details["classical-invariant"] is True

    def test_pushforward_oracle_value(self):
        # scaling only x stretches the bivector by the determinant factor
        phi = AffineTwist([[2, 0], [0, 1]])
        pi = MultiVector(2, 2, 2, {(0, 1): Poly.const(2, 1)})
        pushed = classical.pushforward_bivector(phi, pi)
        assert pushed == MultiVector(2, 2, 2, {(0, 1): Poly.const(2, 2)})


class TestBialgebroidPair:
    def test_s1_with_dual(self, S1):
        assert check_bialgebroid(BialgebroidPair.from_pi(S1, std_pi(S1))).passed

    def test_rejects_noninvariant(self, S1):
        with pytest.raises(PreconditionError):
            check_bialgebroid(BialgebroidPair.from_pi(S1, bad_pi(S1)))
