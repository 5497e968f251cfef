from fractions import Fraction

import pytest

import oracle
from homlie.calculus import CartanContext, differential
from homlie.exterior import EndoMap, Form, MultiVector
from homlie.homalg import check_axioms, make_pullback_tangent
from homlie.nijenhuis import (
    _covector,
    _deformed_context,
    _derivative_tensor,
    _derivative_values,
    _require_invariant,
    _require_sharp_commutation,
    bialgebroid_defect,
    bialgebroid_defect_checks,
    compat_C,
    d_n_props,
    deformed_algebroid,
    deformed_bracket,
    hierarchy,
    hpn_bialgebroid_equiv,
    is_hom_nijenhuis,
    is_hpn,
    lemma_checks,
    torsion,
    torsion_value,
)
from homlie.poisson import Bivector, bracket_pi
from homlie.polyring import AffineTwist, Poly
from homlie.report import PreconditionError

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def bracket_Npi(ctx: CartanContext, pi: Bivector, N: EndoMap, alpha: Form, beta: Form) -> Form:
    """Covector bracket of the deformed structure driven by the original
    sharp map."""
    _require_invariant(ctx, N)
    return bracket_pi(_deformed_context(ctx, N), pi, alpha, beta)


def compat_Cprime(ctx: CartanContext, pi: Bivector, N: EndoMap, alpha: Form, beta: Form) -> Form:
    """The compatibility tensor built from Lie derivatives of the
    endomorphism, on one covector pair; requires the sharp commutation.
    is_hpn sweeps the same formula over its probe pairs."""
    _require_sharp_commutation(ctx, pi, N)
    Nt = N.transpose()
    a, b = _covector(pi, N, Nt, alpha), _covector(pi, N, Nt, beta)
    da, db = _derivative_values(ctx, N, a), _derivative_values(ctx, N, b)
    return _derivative_tensor(ctx, Nt, a, b, da, db)


@pytest.fixture(scope="module")
def S1():
    return CartanContext(
        make_pullback_tangent(AffineTwist([[2, 0], [0, Fraction(1, 2)]]))
    )


def std_pi(ctx):
    return Bivector(ctx.algebroid.frame(0).wedge(ctx.algebroid.frame(1)))


def diag(ctx, a, b):
    return oracle.diagonal(ctx.n, [a, b])


def noncommuting(ctx):
    # sends e1 to e2 and kills e2; does not commute with the diagonal twist
    z = Poly.zero(2)
    one = Poly.const(2, 1)
    return EndoMap([[z, z], [one, z]])


class TestTorsion:
    def test_zero_map(self, S1):
        N = EndoMap.zero(2, 2)
        assert all(v.is_zero() for v in torsion(S1, N).values())

    def test_identity_telescopes(self, S1):
        N = EndoMap.identity(2, 2)
        assert all(v.is_zero() for v in torsion(S1, N).values())

    def test_diagonal_constants(self, S1):
        N = diag(S1, 3, Fraction(1, 5))
        assert all(v.is_zero() for v in torsion(S1, N).values())

    def test_bilinearity_for_invariant(self, S1):
        N = diag(S1, 2, 3)
        A = S1.algebroid
        for f in (x, y, x * y):
            lhs = torsion_value(S1, N, A.frame(0).scale(f), A.frame(1))
            rhs = torsion_value(S1, N, A.frame(0), A.frame(1)).scale(A.phi.pullback(f))
            assert lhs == rhs


class TestIsHomNijenhuis:
    def test_diagonal_passes(self, S1):
        res = is_hom_nijenhuis(S1, diag(S1, 1, 2))
        assert res.passed
        assert res.details["commutes-with-twist"] is True

    def test_s0_style_constant_matrix(self, S1):
        assert is_hom_nijenhuis(S1, diag(S1, 0, 0)).passed

    def test_noncommuting_fails_invariance(self, S1):
        res = is_hom_nijenhuis(S1, noncommuting(S1))
        assert not res.passed
        assert res.details["twist-invariance"] == "FAIL"
        assert res.details["commutes-with-twist"] is False

    def test_noncommuting_twisted_value(self, S1):
        # the conjugated matrix sends e1 to 4 e2, so the residual at
        # (2,1) is 3
        N = noncommuting(S1)
        tw = S1.algebroid.phiA.apply_endo(N)
        assert tw.matrix[1][0] == Poly.const(2, 4)
        assert (tw - N).matrix[1][0] == Poly.const(2, 3)


class TestLemmaChecks:
    def test_identity_pair(self, S1):
        assert lemma_checks(S1, EndoMap.identity(2, 2), EndoMap.identity(2, 2)).passed

    def test_diagonal_pair(self, S1):
        assert lemma_checks(S1, diag(S1, 1, 2), diag(S1, 3, 4)).passed

    def test_polynomial_entries(self, S1):
        N = EndoMap([[x, y], [Poly.zero(2), x * x]])
        Np = EndoMap([[y, Poly.const(2, 1)], [x, Poly.zero(2)]])
        assert lemma_checks(S1, N, Np).passed

    def test_noncommuting_consistent_verdicts(self, S1):
        res = lemma_checks(S1, noncommuting(S1), diag(S1, 1, 1))
        assert res.passed  # the equivalence itself holds even when both sides are false
        sub = res.details["invariance-equivalence"]
        assert sub == "pass"


class TestDeformedBracket:
    def test_identity_recovers_bracket(self, S1):
        A = S1.algebroid
        X = A.frame(0).scale(x)
        Y = A.frame(1).scale(y)
        assert deformed_bracket(S1, EndoMap.identity(2, 2), X, Y) == A.bracket(X, Y)

    def test_zero_map(self, S1):
        A = S1.algebroid
        assert deformed_bracket(S1, EndoMap.zero(2, 2), A.frame(0), A.frame(1).scale(x)).is_zero()

    def test_scalar_multiple(self, S1):
        A = S1.algebroid
        c = Fraction(5)
        N = diag(S1, c, c)
        lhs = deformed_bracket(S1, N, A.frame(0), A.frame(1).scale(x))
        assert lhs == A.bracket(A.frame(0), A.frame(1).scale(x)).scale(c)


class TestDeformedAlgebroid:
    def test_identity_is_original(self, S1):
        out = deformed_algebroid(S1, EndoMap.identity(2, 2))
        A = S1.algebroid
        assert out.structure == A.structure
        assert out.anchor == A.anchor

    def test_diagonal_passes_axioms(self, S1):
        out = deformed_algebroid(S1, diag(S1, 1, 2))
        assert check_axioms(out).passed

    def test_noninvariant_refused(self, S1):
        with pytest.raises(PreconditionError):
            deformed_algebroid(S1, noncommuting(S1))


class TestDnProps:
    def test_diagonal(self, S1):
        assert d_n_props(S1, diag(S1, 1, 2)).passed

    def test_worked_value(self, S1):
        N = diag(S1, 1, 2)
        ctxN = CartanContext(deformed_algebroid(S1, N))
        assert differential(ctxN, x) == S1.algebroid.coframe(0)

    def test_zero_map(self, S1):
        assert d_n_props(S1, diag(S1, 0, 0)).passed


class TestCompat:
    def test_identity_endo_vanishes(self, S1):
        A = S1.algebroid
        pi = std_pi(S1)
        for a in (A.coframe(0), A.coframe(1).scale(x)):
            for b in (A.coframe(1), A.coframe(0).scale(y)):
                assert compat_C(S1, pi, EndoMap.identity(2, 2), a, b).is_zero()
                assert compat_Cprime(S1, pi, EndoMap.identity(2, 2), a, b).is_zero()

    def test_zero_pi_vanishes(self, S1):
        A = S1.algebroid
        pi = Bivector(MultiVector.zero(2, 2, 2))
        N = diag(S1, 1, 2)
        assert compat_C(S1, pi, N, A.coframe(0), A.coframe(1)).is_zero()

    def test_scalar_endo_vanishes(self, S1):
        A = S1.algebroid
        pi = std_pi(S1)
        N = diag(S1, 7, 7)
        for a in (A.coframe(0), A.coframe(0).scale(x)):
            for b in (A.coframe(1), A.coframe(1).scale(y * y)):
                assert compat_C(S1, pi, N, a, b).is_zero()
                assert compat_Cprime(S1, pi, N, a, b).is_zero()

    def test_cprime_requires_commutation(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        with pytest.raises(PreconditionError):
            compat_Cprime(S1, pi, diag(S1, 1, 2), A.coframe(0), A.coframe(1))

    def test_bracket_Npi_identity_endo(self, S1):
        pi = std_pi(S1)
        A = S1.algebroid
        for a in (A.coframe(0), A.coframe(1).scale(x)):
            for b in (A.coframe(1), A.coframe(0)):
                lhs = bracket_Npi(S1, pi, EndoMap.identity(2, 2), a, b)
                assert lhs == bracket_pi(S1, pi, a, b)


class TestIsHpn:
    def test_scalar_pair_passes(self, S1):
        res = is_hpn(S1, std_pi(S1), diag(S1, 3, 3))
        assert res.passed
        assert res.details["prop-conditions-agree"] is True
        assert res.details["cond-compat-tensor"] is True

    def test_incompatible_diagonal_fails_commutation(self, S1):
        res = is_hpn(S1, std_pi(S1), diag(S1, 1, 2))
        assert not res.passed
        assert res.details["sharp-endo-commutation"] == "FAIL"
        assert res.witness.identity == "sharp-endo-commutation"

    def test_trivial_pair_passes(self, S1):
        pi = Bivector(MultiVector.zero(2, 2, 2))
        assert is_hpn(S1, pi, EndoMap.zero(2, 2)).passed

    def test_prop_conditions_do_not_recheck_invariance(self, S1, monkeypatch):
        from homlie import nijenhuis

        calls = []
        original = nijenhuis.twist_invariance

        def counted(*args):
            calls.append(args[0])
            return original(*args)

        monkeypatch.setattr(nijenhuis, "twist_invariance", counted)
        conds = nijenhuis._prop_conditions(S1, std_pi(S1), diag(S1, 3, 3), 1, True)
        assert calls == []
        assert all(conds.values())

    def test_bracket_Npi_refuses_non_invariant_endo(self, S1):
        A = S1.algebroid
        with pytest.raises(PreconditionError, match="requires a twist-invariant endomorphism"):
            bracket_Npi(S1, std_pi(S1), noncommuting(S1), A.coframe(0), A.coframe(1))

    def test_compatibility_tensor_witness_of_an_incompatible_pair(self, S1, monkeypatch):
        from homlie import nijenhuis

        # sharp-endo-commutation fails first on this pair, so no report
        # shows the tensor's own witness; it is pinned here
        found = {}
        original = nijenhuis.first_nonzero

        def recorded(identity, cases):
            found[identity] = original(identity, cases)
            return found[identity]

        monkeypatch.setattr(nijenhuis, "first_nonzero", recorded)
        ctx = CartanContext(make_pullback_tangent(AffineTwist([[2, 0], [0, Fraction(1, 2)]])))
        res = is_hpn(ctx, std_pi(ctx), diag(ctx, 1, 2))
        assert res.witness.identity == "sharp-endo-commutation"
        assert found["compatibility-tensor"].witness.to_json() == {
            "identity": "compatibility-tensor",
            "inputs": {"alpha": "eps1", "beta": "(x)*eps2"},
            "residual": "(-1) eps[1]",
        }

    def test_kakansei_worked_values(self, S1):
        pi = std_pi(S1)
        N = diag(S1, 1, 2)
        A = S1.algebroid
        lhs = N.apply(pi.sharp_apply(A.coframe(0)))
        rhs = pi.sharp_apply(N.transpose().apply(A.coframe(0)))
        assert lhs == A.frame(1).scale(2)
        assert rhs == A.frame(1)


class TestHierarchy:
    def test_scalar_tower(self, S1):
        c = Fraction(2)
        towers, res = hierarchy(S1, std_pi(S1), diag(S1, c, c), depth=3)
        assert res.passed
        for k, pk in enumerate(towers):
            assert pk.table == std_pi(S1).table.scale(c ** k)

    def test_identity_tower_constant(self, S1):
        towers, res = hierarchy(S1, std_pi(S1), EndoMap.identity(2, 2), depth=2)
        assert res.passed
        for pk in towers:
            assert pk.table == std_pi(S1).table

    def test_zero_pi(self, S1):
        towers, res = hierarchy(S1, Bivector(MultiVector.zero(2, 2, 2)), diag(S1, 1, 1), depth=2)
        assert res.passed
        assert all(pk.table.is_zero() for pk in towers)

    def test_incompatible_refused(self, S1):
        with pytest.raises(PreconditionError):
            hierarchy(S1, std_pi(S1), diag(S1, 1, 2), depth=2)


class TestBialgebroidDefect:
    def test_trivial_on_functions_for_scalar_endo(self, S1):
        pi = std_pi(S1)
        N = diag(S1, 3, 3)
        out = bialgebroid_defect(S1, pi, N)(x, y)
        assert out.is_zero()

    def test_nonzero_for_incompatible(self, S1):
        pi = std_pi(S1)
        N = diag(S1, 1, 2)
        out = bialgebroid_defect(S1, pi, N)(x, y)
        assert not out.is_zero()
        # worked value: <2 eps1, e1> = 1 at the scalar level
        assert out.scalar_value() == Poly.const(2, 1)

    def test_five_properties_scalar_endo(self, S1):
        assert bialgebroid_defect_checks(S1, std_pi(S1), diag(S1, 2, 2)).passed

    def test_five_properties_incompatible_endo(self, S1):
        # the structural identities hold even when the defect is nonzero
        assert bialgebroid_defect_checks(S1, std_pi(S1), diag(S1, 1, 2)).passed

    def test_wedge_rule_witness_of_a_mutant_defect(self, monkeypatch):
        from homlie import nijenhuis
        from homlie.fixtures import algebroid_s2

        # rank 3, so that D(alpha, beta ^ gamma) is not a form of degree
        # 3 over rank 2, which vanishes; the pair passes unmutated
        ctx = CartanContext(algebroid_s2())
        pi, N = std_pi(ctx), oracle.diagonal(ctx.n, [3, 3, 3])
        assert bialgebroid_defect_checks(ctx, pi, N).passed
        original = nijenhuis.bialgebroid_defect

        def mutant(ctx, pi, N):
            # adds xi1 ^ xi2 when the second argument has degree 2, which
            # only the left side of the wedge rule passes
            defect = original(ctx, pi, N)

            def mutated(xi1, xi2):
                out = defect(xi1, xi2)
                if ctx.as_form(xi2).degree == 2:
                    out = out + ctx.as_form(xi1).wedge(xi2)
                return out

            return mutated

        monkeypatch.setattr(nijenhuis, "bialgebroid_defect", mutant)
        res = bialgebroid_defect_checks(ctx, pi, N)
        assert res.details["defect-wedge-rule"] == "FAIL"
        assert [k for k, v in res.details.items() if v == "FAIL"] == ["defect-wedge-rule"]
        assert res.witness.to_json() == {
            "identity": "defect-wedge-rule",
            "inputs": {"alpha": "eps1", "beta": "eps2", "gamma": "eps3"},
            "residual": "(1) eps[1,2,3]",
        }


class TestHpnBialgebroidEquiv:
    def test_scalar_all_true(self, S1):
        res = hpn_bialgebroid_equiv(S1, std_pi(S1), diag(S1, 4, 4))
        assert res.passed
        assert res.details == {"is-hpn": True, "deformed-dual": True, "dual-deformed": True}

    def test_incompatible_all_false(self, S1):
        res = hpn_bialgebroid_equiv(S1, std_pi(S1), diag(S1, 1, 2))
        assert res.passed
        assert res.details == {"is-hpn": False, "deformed-dual": False, "dual-deformed": False}

    def test_trivial_all_true(self, S1):
        pi = Bivector(MultiVector.zero(2, 2, 2))
        res = hpn_bialgebroid_equiv(S1, pi, EndoMap.zero(2, 2))
        assert res.passed
        assert all(res.details.values())

    def test_requires_poisson(self, S1):
        bad = Bivector(std_pi(S1).table.scale(x))
        with pytest.raises(PreconditionError):
            hpn_bialgebroid_equiv(S1, bad, diag(S1, 1, 1))
