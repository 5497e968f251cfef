from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from homlie.calculus import CartanContext, schouten
from homlie import dirac
from homlie.courant import BialgebroidPair, CourantDouble, ESection
from homlie.dirac import (
    Subbundle,
    dirac_checks,
    dirac_to_algebroid,
    graph,
    graph_theorem_check,
    is_integrable,
    is_isotropic,
    is_phi_invariant,
    maurer_cartan_defect,
)
from homlie.exterior import EndoMap, MultiVector
from homlie.homalg import check_axioms, make_pullback_tangent
from homlie.poisson import Bivector, lift_bivector
from homlie.polyring import AffineTwist, Poly
from homlie.report import PreconditionError

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)


def solve_membership(columns, target):
    """Solve sum_j c_j columns[j] = target for polynomial c_j.

    columns: list of coefficient tuples (length m) of full rank; target:
    length-m tuple.  Returns ("member", coeffs), ("not-member",
    row_index) or ("non-polynomial", column_index).
    """
    return dirac._solve(columns, dirac._full_rank(dirac._find_pivot(columns)), target)


@pytest.fixture(scope="module")
def S1_alg():
    return make_pullback_tangent(AffineTwist([[2, 0], [0, Fraction(1, 2)]]))


@pytest.fixture(scope="module")
def S1_pair(S1_alg):
    return BialgebroidPair.trivial(S1_alg)


@pytest.fixture(scope="module")
def S1_E(S1_pair):
    return CourantDouble(S1_pair)


@pytest.fixture(scope="module")
def S3_pair():
    return BialgebroidPair.trivial(make_pullback_tangent(AffineTwist.identity(3)))


def std_pi(alg):
    return Bivector(alg.frame(0).wedge(alg.frame(1)))


def nonpoisson_pi_s3():
    z3 = Poly.variable(3, 2)
    x3 = Poly.variable(3, 0)
    return Bivector(MultiVector(3, 3, 2, {(0, 1): z3, (1, 2): x3, (0, 2): -x3}))


class TestMembershipSolver:
    def test_simple_member(self):
        one = Poly.const(2, 1)
        cols = [(one, Poly.zero(2)), (Poly.zero(2), one)]
        status, coeffs = solve_membership(cols, (x, y))
        assert status == "member"
        assert coeffs == [x, y]

    def test_polynomial_combination(self):
        one = Poly.const(2, 1)
        cols = [(one, y), (Poly.zero(2), x)]
        # target = (x+1, y(x+1) + x*y) = (x+1) g1 + y g2
        target = (x + 1, y * (x + 1) + x * y)
        status, coeffs = solve_membership(cols, target)
        assert status == "member"
        assert coeffs == [x + 1, y]

    def test_not_member(self):
        one = Poly.const(2, 1)
        cols = [(one, Poly.zero(2))]
        status, _ = solve_membership(cols, (Poly.zero(2), one))
        assert status == "not-member"

    def test_non_polynomial_solution(self):
        cols = [(x,)]
        status, _ = solve_membership(cols, (Poly.const(2, 1),))
        assert status == "non-polynomial"


MONOMIALS = [Poly.const(2, 1), x, y, x * y, x * x]
polys = st.lists(st.integers(-3, 3), min_size=len(MONOMIALS), max_size=len(MONOMIALS)).map(
    lambda cs: sum((m * c for m, c in zip(MONOMIALS, cs)), Poly.zero(2))
)


@st.composite
def full_rank_columns(draw):
    """r full-rank columns of length m > r: a graph (identity block over
    random polynomials) mixed by a unipotent polynomial matrix, which
    keeps the span, with the rows shuffled.  Also returns the indices of
    the rows from the random block: a unit added on one of them leaves
    the span."""
    r = draw(st.integers(1, 3))
    m = r + draw(st.integers(1, 2))
    graph_cols = [
        [Poly.const(2, int(i == j)) for i in range(r)] + [draw(polys) for _ in range(m - r)]
        for j in range(r)
    ]
    cols = []
    for j in range(r):
        col = list(graph_cols[j])
        for i in range(j):
            u = draw(polys)
            col = [a + u * b for a, b in zip(col, graph_cols[i])]
        cols.append(col)
    order = draw(st.permutations(range(m)))
    return [tuple(col[order[i]] for i in range(m)) for col in cols], [
        i for i in range(m) if order[i] >= r
    ]


def combine(coeffs, cols):
    return tuple(
        sum((c * col[i] for c, col in zip(coeffs, cols)), Poly.zero(2)) for i in range(len(cols[0]))
    )


class TestMembershipProperties:
    @settings(max_examples=60, deadline=None)
    @given(full_rank_columns(), st.data())
    def test_member_not_member_non_polynomial(self, columns, data):
        cols, free_rows = columns
        coeffs = [data.draw(polys) for _ in cols]
        target = combine(coeffs, cols)
        assert solve_membership(cols, target) == ("member", coeffs)

        row = data.draw(st.sampled_from(free_rows))
        off = tuple(t + 1 if i == row else t for i, t in enumerate(target))
        assert solve_membership(cols, off)[0] == "not-member"

        # the first column scaled by x: reaching the old first column
        # needs the coefficient 1/x
        scaled = [tuple(c * x for c in cols[0])] + cols[1:]
        target = combine([Poly.const(2, 1)] + coeffs[1:], cols)
        assert solve_membership(scaled, target) == ("non-polynomial", 0)

    @settings(max_examples=30, deadline=None)
    @given(full_rank_columns(), st.data())
    def test_rank_deficient_columns_raise(self, columns, data):
        cols, _ = columns
        # the last column becomes a combination of the others (zero at r = 1)
        weights = [data.draw(polys) for _ in cols[:-1]] + [Poly.zero(2)]
        dependent = cols[:-1] + [combine(weights, cols)]
        with pytest.raises(PreconditionError, match="rank-deficient"):
            solve_membership(dependent, cols[0])


class TestFactorSubbundles:
    def test_primal_factor_is_dirac(self, S1_E):
        L = Subbundle(S1_E, [S1_E.frame_section(0), S1_E.frame_section(1)])
        assert is_isotropic(L).passed
        assert is_phi_invariant(L).passed
        assert is_integrable(L).passed

    def test_dual_factor_is_dirac(self, S1_E):
        L = Subbundle(S1_E, [S1_E.frame_section(2), S1_E.frame_section(3)])
        assert dirac_checks(L).passed

    def test_rank_deficient_rejected(self, S1_E):
        L = Subbundle(S1_E, [S1_E.frame_section(0), S1_E.frame_section(0)])
        with pytest.raises(PreconditionError):
            is_isotropic(L)

    def test_pivot_is_found_once_per_subbundle(self, S1_E, S1_alg, monkeypatch):
        calls = []
        original = dirac._find_pivot

        def counted(columns):
            calls.append(len(columns))
            return original(columns)

        monkeypatch.setattr(dirac, "_find_pivot", counted)
        L = graph(S1_E, std_pi(S1_alg).sharp)
        assert dirac_checks(L).passed
        dirac_to_algebroid(L)
        assert L._pivot is not None
        assert calls == [2]


class TestRankFourSpan:
    """The graph of the lift of d1^d2 + d3^d4 along
    phi = diag(2, 1/2, 3, 1/3), on the double of the lift and its
    pi-dual, with the generators mixed by a unipotent polynomial matrix:
    the same subbundle in a frame where no minor is the identity."""

    @pytest.fixture(scope="class")
    def setup(self):
        phi = AffineTwist(
            [
                [2, 0, 0, 0],
                [0, Fraction(1, 2), 0, 0],
                [0, 0, 3, 0],
                [0, 0, 0, Fraction(1, 3)],
            ]
        )
        one = Poly.const(4, 1)
        ctx, pi, _ = lift_bivector(phi, {(0, 1): one, (2, 3): one})
        E = CourantDouble(BialgebroidPair.from_pi(ctx, pi))
        g = graph(E, pi.sharp).generators
        v = [Poly.variable(4, i) for i in range(4)]
        mixed = [
            g[0] + g[1].scale(v[0] * v[1]) + g[3].scale(v[2]),
            g[1] + g[2].scale(v[3]),
            g[2] + g[3].scale(v[0] * v[0]),
            g[3],
        ]
        return E, mixed, v

    def test_mixed_span_is_dirac(self, setup):
        E, mixed, _ = setup
        assert dirac_checks(Subbundle(E, mixed)).passed

    def test_perturbed_generator_fails_with_witness(self, setup):
        E, mixed, v = setup
        res = dirac_checks(Subbundle(E, [mixed[0].scale(v[0])] + mixed[1:]))
        assert not res.passed
        assert res.witness.render() == (
            "identity=is_integrable; pair=(g1,g2); status=non-polynomial; "
            "residual=fails (restricted solver): not a polynomial-frame member"
        )
        res = dirac_checks(Subbundle(E, [mixed[0] + E.frame_section(0).scale(v[1])] + mixed[1:]))
        assert not res.passed
        assert res.witness.identity == "is_isotropic"


class TestGraph:
    def test_zero_map_gives_dual_factor(self, S1_E):
        L = graph(S1_E, EndoMap.zero(2, 2))
        assert L.generators[0] == S1_E.frame_section(2)
        assert L.generators[1] == S1_E.frame_section(3)

    def test_sharp_graph_generators(self, S1_E, S1_alg):
        pi = std_pi(S1_alg)
        L = graph(S1_E, pi.sharp)
        assert L.generators[0] == ESection([0, 1, 1, 0], 2)
        assert L.generators[1] == ESection([-1, 0, 0, 1], 2)

    def test_sharp_graph_is_dirac(self, S1_E, S1_alg):
        L = graph(S1_E, std_pi(S1_alg).sharp)
        assert dirac_checks(L).passed

    def test_symmetric_graph_not_isotropic(self, S1_E):
        L = graph(S1_E, EndoMap.identity(2, 2))
        res = is_isotropic(L)
        assert not res.passed
        assert res.witness is not None

    def test_noninvariant_sharp_graph(self, S1_alg, S1_E):
        ctx = CartanContext(S1_alg)
        bad = Bivector(std_pi(S1_alg).table.scale(x))
        L = graph(S1_E, bad.sharp)
        assert is_isotropic(L).passed
        assert not is_phi_invariant(L).passed


class TestDiracToAlgebroid:
    def test_primal_factor_recovers_original(self, S1_E, S1_alg):
        L = Subbundle(S1_E, [S1_E.frame_section(0), S1_E.frame_section(1)])
        out = dirac_to_algebroid(L)
        assert out.structure == S1_alg.structure
        assert out.anchor == S1_alg.anchor
        assert out.phiA.matrix == S1_alg.phiA.matrix
        assert out.phiA.is_invertible()
        assert check_axioms(out).passed

    def test_dual_factor_gives_zero_structure(self, S1_E):
        L = Subbundle(S1_E, [S1_E.frame_section(2), S1_E.frame_section(3)])
        out = dirac_to_algebroid(L)
        assert out.structure == {}
        assert all(c.is_zero() for row in out.anchor for c in row)
        assert check_axioms(out).passed

    def test_sharp_graph_passes_axioms(self, S1_E, S1_alg):
        L = graph(S1_E, std_pi(S1_alg).sharp)
        out = dirac_to_algebroid(L)
        assert out.phiA.is_invertible()
        assert check_axioms(out).passed

    def test_non_dirac_refused(self, S1_E):
        L = graph(S1_E, EndoMap.identity(2, 2))
        with pytest.raises(PreconditionError):
            dirac_to_algebroid(L)


class TestMaurerCartan:
    def test_trivial_dual_equals_half_square(self, S1_pair, S1_alg):
        pi = std_pi(S1_alg)
        defect = maurer_cartan_defect(S1_pair, pi)
        half = Poly.const(2, Fraction(1, 2))
        expected = schouten(S1_pair.ctx, pi.table, pi.table).scale(half)
        assert defect == expected
        assert defect.is_zero()

    def test_nonpoisson_defect_nonzero(self, S3_pair):
        pi = nonpoisson_pi_s3()
        defect = maurer_cartan_defect(S3_pair, pi)
        half = Poly.const(3, Fraction(1, 2))
        expected = schouten(S3_pair.ctx, pi.table, pi.table).scale(half)
        assert defect == expected
        assert not defect.is_zero()

    def test_zero_bivector(self, S1_pair):
        pi = Bivector(MultiVector.zero(2, 2, 2))
        assert maurer_cartan_defect(S1_pair, pi).is_zero()

    def test_pi_dual_defect(self, S1_alg):
        # with the dual structure carried by the bivector itself the
        # obstruction still vanishes
        ctx = CartanContext(S1_alg)
        pi = std_pi(S1_alg)
        P = BialgebroidPair.from_pi(ctx, pi)
        assert maurer_cartan_defect(P, pi).is_zero()

    def test_noninvariant_rejected(self, S1_pair, S1_alg):
        bad = Bivector(std_pi(S1_alg).table.scale(x))
        with pytest.raises(PreconditionError):
            maurer_cartan_defect(S1_pair, bad)


class TestGraphTheorem:
    def test_sharp_graph_both_true(self, S1_pair, S1_alg):
        res = graph_theorem_check(S1_pair, std_pi(S1_alg).sharp)
        assert res.passed
        assert res.details["subbundle-side"] is True
        assert res.details["tensor-side"] is True

    def test_zero_map_both_true(self, S1_pair):
        res = graph_theorem_check(S1_pair, EndoMap.zero(2, 2))
        assert res.passed
        assert res.details["tensor-side"] is True

    def test_symmetric_map_both_false(self, S1_pair):
        res = graph_theorem_check(S1_pair, EndoMap.identity(2, 2))
        assert res.passed
        assert res.details["subbundle-side"] is False
        assert res.details["skew"] is False

    def test_nonpoisson_sharp_both_false(self, S3_pair):
        res = graph_theorem_check(S3_pair, nonpoisson_pi_s3().sharp)
        assert res.passed
        assert res.details["subbundle-side"] is False
        assert res.details["tensor-side"] is False
        assert res.details["skew"] is True
        assert res.details["obstruction-vanishes"] is False

    def test_noninvariant_sharp_both_false(self, S1_pair, S1_alg):
        bad = Bivector(std_pi(S1_alg).table.scale(x))
        res = graph_theorem_check(S1_pair, bad.sharp)
        assert res.passed
        assert res.details["subbundle-side"] is False
        assert res.details["invariant"] is False
