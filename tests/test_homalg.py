import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from test_differential_tables import dense_tangent, invalid_candidate

from homlie import homalg, probes
from homlie.exterior import Form, MultiVector, SectionTwist
from homlie.fixtures import algebroid_s0, algebroid_s1, algebroid_s2, algebroid_s3
from homlie.homalg import (
    HomAlgebroid,
    PullbackVectorField,
    _same_base,
    ad_twist,
    bracket_phistar,
    check_axioms,
    derive,
    make_pullback_tangent,
    make_tm_r,
)
from homlie.polyring import AffineTwist, Poly, monomials
from homlie.report import StructureError


def s1_base():
    return AffineTwist([[2, 0], [0, Fraction(1, 2)]])


def pullback_section(phi: AffineTwist, coeffs) -> PullbackVectorField:
    """Pullback of a classical vector field with Poly coefficients: each
    coefficient is pulled back, matching the pointwise definition of the
    pullback section."""
    return PullbackVectorField(phi, [phi.pullback(c) for c in coeffs])


def ad_twist_inverse(phi: AffineTwist, X: PullbackVectorField) -> PullbackVectorField:
    _same_base(phi, X)
    n = phi.n
    coeffs = []
    for k in range(n):
        xk = Poly.variable(n, k)
        coeffs.append(phi.inverse_pullback(X.apply(phi.pullback(xk))))
    return PullbackVectorField(phi, coeffs)


@pytest.fixture(scope="module")
def S0():
    phi = AffineTwist.identity(1)
    return HomAlgebroid(
        phi,
        SectionTwist.identity(1, phi),
        [[Poly.zero(1)]],
        {},
    )


@pytest.fixture(scope="module")
def S1():
    return make_pullback_tangent(s1_base())


@pytest.fixture(scope="module")
def S2():
    return make_tm_r(s1_base())


@pytest.fixture(scope="module")
def S3():
    return make_pullback_tangent(AffineTwist.identity(3))


class TestPullbackVectorField:
    def test_twisted_derivation_law(self):
        phi = s1_base()
        X = PullbackVectorField(phi, [Poly.variable(2, 1), Poly.const(2, 1)])
        for f in monomials(2, 2):
            for g in monomials(2, 2):
                lhs = X.apply(f * g)
                rhs = X.apply(f) * phi.pullback(g) + phi.pullback(f) * X.apply(g)
                assert lhs == rhs

    def test_pullback_section_values(self):
        phi = s1_base()
        x = Poly.variable(2, 0)
        lifted = pullback_section(phi, [x, Poly.zero(2)])
        assert lifted.coeffs[0] == 2 * x
        assert lifted.coeffs[1].is_zero()

    def test_pullback_section_identity_map(self):
        phi = AffineTwist.identity(2)
        lifted = pullback_section(phi, [Poly.const(2, 1), Poly.zero(2)])
        assert lifted == PullbackVectorField.coordinate(phi, 0)

    def test_rational_linearity(self):
        phi = s1_base()
        a = pullback_section(phi, [Poly.variable(2, 0), Poly.const(2, 2)])
        b = pullback_section(phi, [Poly.variable(2, 1), Poly.zero(2)])
        f = Poly.variable(2, 0) * Poly.variable(2, 1)
        assert (a + b).apply(f) == a.apply(f) + b.apply(f)


class TestAdTwist:
    def test_identity_base(self):
        phi = AffineTwist.identity(2)
        X = PullbackVectorField(phi, [Poly.variable(2, 0), Poly.const(2, 3)])
        assert ad_twist(phi, X) == X

    def test_s1_frame_values(self):
        phi = s1_base()
        e1 = PullbackVectorField.coordinate(phi, 0)
        e2 = PullbackVectorField.coordinate(phi, 1)
        assert ad_twist(phi, e1).coeffs[0] == Poly.const(2, Fraction(1, 2))
        assert ad_twist(phi, e1).coeffs[1].is_zero()
        assert ad_twist(phi, e2).coeffs[1] == Poly.const(2, 2)

    def test_conjugation_oracle(self):
        # the extracted coefficients reproduce the conjugated operator
        phi = s1_base()
        X = PullbackVectorField(phi, [Poly.variable(2, 1), Poly.variable(2, 0)])
        conj = ad_twist(phi, X)
        for f in monomials(2, 3):
            direct = phi.pullback(X.apply(phi.inverse_pullback(f)))
            assert conj.apply(f) == direct

    def test_inverse_round_trip(self):
        phi = s1_base()
        X = PullbackVectorField(phi, [Poly.variable(2, 0), Poly.const(2, 5)])
        assert ad_twist_inverse(phi, ad_twist(phi, X)) == X


class TestBracketPhistar:
    def test_antisymmetry_on_self(self):
        phi = s1_base()
        X = PullbackVectorField(phi, [Poly.variable(2, 1), Poly.variable(2, 0)])
        assert bracket_phistar(phi, X, X).is_zero()

    def test_s1_frame_commutes(self):
        phi = s1_base()
        e1 = PullbackVectorField.coordinate(phi, 0)
        e2 = PullbackVectorField.coordinate(phi, 1)
        assert bracket_phistar(phi, e1, e2).is_zero()
        # both composites act as second partials composed with the map
        for f in monomials(2, 3):
            assert reference_composite(phi, e1, e2, f) == reference_composite(phi, e2, e1, f)

    def test_reduces_to_commutator_at_identity(self):
        phi = AffineTwist.identity(2)
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        X = PullbackVectorField(phi, [y, Poly.zero(2)])
        Y = PullbackVectorField(phi, [Poly.zero(2), x])
        br = bracket_phistar(phi, X, Y)
        # classical [y d/dx, x d/dy] = y d/dy - x d/dx
        assert br.coeffs[0] == -x
        assert br.coeffs[1] == y

    def test_extraction_matches_operator(self):
        phi = s1_base()
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        X = PullbackVectorField(phi, [y, Poly.zero(2)])
        Y = PullbackVectorField(phi, [Poly.zero(2), x * y])
        br = bracket_phistar(phi, X, Y)
        for f in monomials(2, 3):
            expected = reference_composite(phi, X, Y, f) - reference_composite(phi, Y, X, f)
            assert br.apply(f) == expected


class TestConstructors:
    def test_identity_gives_classical_tangent(self):
        A = make_pullback_tangent(AffineTwist.identity(2))
        assert A.structure == {}
        assert A.phiA == SectionTwist.identity(2, A.phi)

    def test_s1_twist_matrix(self, S1):
        assert S1.phiA.matrix[0][0] == Poly.const(2, Fraction(1, 2))
        assert S1.phiA.matrix[1][1] == Poly.const(2, 2)
        assert S1.structure == {}

    def test_rank_one_passes(self):
        phi = AffineTwist([[Fraction(3, 2)]], [1])
        A = make_pullback_tangent(phi)
        assert check_axioms(A).passed

    def test_tm_r_shape(self, S2):
        assert S2.rank == 3
        assert S2.phiA.matrix[0][0] == Poly.const(2, Fraction(1, 2))
        assert S2.phiA.matrix[1][1] == Poly.const(2, 2)
        assert S2.phiA.matrix[2][2] == Poly.const(2, 1)
        # anchor kills the line factor
        assert all(S2.anchor[i][2].is_zero() for i in range(2))
        assert S2.structure == {}

    def test_tm_r_identity_reduces_to_classical(self):
        A = make_tm_r(AffineTwist.identity(2))
        x = Poly.variable(2, 0)
        g = Poly.variable(2, 1)
        # [(e1, 0), (0, g)] = (0, e1(g)) classically
        X = MultiVector.from_vector(3, 2, [Poly.const(2, 1), Poly.zero(2), Poly.zero(2)])
        U = MultiVector.from_vector(3, 2, [Poly.zero(2), Poly.zero(2), g])
        br = A.bracket(X, U)
        assert br.coeff((2,)) == Poly.const(2, 0) + g.partial(0)
        assert br.coeff((0,)).is_zero() and br.coeff((1,)).is_zero()

    def test_tm_r_spec_value(self, S2):
        # second-slot bracket of (e1, 0) against (0, pullback of y) vanishes
        phi = S2.phi
        h = phi.pullback(Poly.variable(2, 1))
        X = MultiVector.from_vector(3, 2, [Poly.const(2, 1), Poly.zero(2), Poly.zero(2)])
        U = MultiVector.from_vector(3, 2, [Poly.zero(2), Poly.zero(2), h])
        assert S2.bracket(X, U).is_zero()


class TestBracket:
    def test_trivial_instance(self, S0):
        X = MultiVector.from_vector(1, 1, [Poly.variable(1, 0)])
        Y = MultiVector.from_vector(1, 1, [Poly.const(1, 2)])
        assert S0.bracket(X, Y).is_zero()

    def test_s1_frame(self, S1):
        assert S1.bracket(S1.frame(0), S1.frame(1)).is_zero()

    def test_s1_leibniz_example(self, S1):
        # [e1, x e2] = a(phiA e1)(x) phiA(e2) = (1/2)(1)(2 e2) = e2
        x = Poly.variable(2, 0)
        out = S1.bracket(S1.frame(0), S1.frame(1).scale(x))
        assert out == S1.frame(1)

    def test_antisymmetry(self, S1):
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        X = MultiVector.from_vector(2, 2, [x, y * y])
        Y = MultiVector.from_vector(2, 2, [y, x + 1])
        assert S1.bracket(X, Y) == -S1.bracket(Y, X)


class TestCheckAxioms:
    def test_s0_passes(self, S0):
        assert check_axioms(S0).passed

    def test_s1_passes(self, S1):
        assert check_axioms(S1).passed

    def test_s2_passes(self, S2):
        assert check_axioms(S2).passed

    def test_s3_passes(self, S3):
        assert check_axioms(S3, probe_degree=2).passed

    def test_perturbed_s1_fails_with_witness(self, S1):
        bad = HomAlgebroid(
            S1.phi,
            S1.phiA,
            S1.anchor,
            {(0, 1, 0): Poly.const(2, 1)},
        )
        result = check_axioms(bad)
        assert not result.passed
        assert result.witness is not None
        assert result.witness.residual != "0"

    def test_non_antisymmetric_structure_rejected(self, S1):
        with pytest.raises(StructureError):
            HomAlgebroid(
                S1.phi,
                S1.phiA,
                S1.anchor,
                {(0, 1, 0): Poly.const(2, 1), (1, 0, 0): Poly.const(2, 1)},
            )


class TestFrameBracketStructure:
    """HomAlgebroid takes frame brackets {(i, j): [e_i, e_j]} as a
    multivector, a form or a coefficient list, and stores the same
    table, in the same key order, as {(i, j, k): C_ij^k}."""

    def test_frame_bracket_forms_agree(self):
        A = algebroid_s3()
        n, r = A.n, A.rank
        x, z = Poly.variable(n, 0), Poly.variable(n, 2)
        vectors = {
            (0, 1): [Poly.zero(n), z, x],
            (0, 2): [x * z, Poly.zero(n), Poly.const(n, 2)],
            (1, 2): [Poly.zero(n)] * r,
        }
        by_k = {
            (i, j, k): c
            for (i, j), vec in vectors.items()
            for k, c in enumerate(vec)
            if not c.is_zero()
        }
        expected = HomAlgebroid(A.phi, A.phiA, A.anchor, by_k).structure
        assert list(expected) == [(0, 1, 1), (0, 1, 2), (0, 2, 0), (0, 2, 2)]
        for wrap in (
            lambda vec: MultiVector.from_vector(r, n, vec),
            lambda vec: Form.from_vector(r, n, vec),
            list,
        ):
            table = {key: wrap(vec) for key, vec in vectors.items()}
            got = HomAlgebroid(A.phi, A.phiA, A.anchor, table).structure
            assert list(got.items()) == list(expected.items())


class TestIntertwining:
    def test_pullback_bracket_compat(self):
        # twisted bracket of lifted fields = conjugated lift of the
        # classical commutator
        phi = s1_base()
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        fields = [
            ([y, Poly.zero(2)], [Poly.zero(2), x]),
            ([x, y], [Poly.const(2, 1), x * y]),
        ]
        for Xc, Yc in fields:
            # classical commutator [X, Y]^i = X(Y^i) - Y(X^i)
            def cl_apply(coeffs, f):
                out = Poly.zero(2)
                for i, c in enumerate(coeffs):
                    out = out + c * f.partial(i)
                return out

            comm = [cl_apply(Xc, Yc[i]) - cl_apply(Yc, Xc[i]) for i in range(2)]
            lhs = bracket_phistar(phi, pullback_section(phi, Xc), pullback_section(phi, Yc))
            rhs = ad_twist(phi, pullback_section(phi, comm))
            assert lhs == rhs

    def test_pushforward_intertwines(self):
        # the lift of the pushforward is the inverse conjugation
        phi = s1_base()
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        for Xc in ([y, x], [x * x, Poly.const(2, 1)]):
            # affine pushforward: (M X) after the inverse map
            M = phi.matrix
            pushed = [
                phi.inverse_pullback(
                    sum((M[i][j] * Xc[j] for j in range(2)), Poly.zero(2))
                )
                for i in range(2)
            ]
            lhs = pullback_section(phi, pushed)
            rhs = ad_twist_inverse(phi, pullback_section(phi, Xc))
            assert lhs == rhs


# -- the chain rule against the per-coordinate formula --------------------


def reference_apply(X, f):
    """sum_i c_i * phi*(df/dx_i): one pullback per coordinate."""
    out = Poly.zero(X.phi.n)
    for i, c in enumerate(X.coeffs):
        out = out + c * X.phi.pullback(f.partial(i))
    return out


def reference_composite(phi, X, Y, f):
    """(phi* . X . phi^-1* . Y . phi^-1*)(f)."""
    inv = phi.inverse_pullback
    return phi.pullback(reference_apply(X, inv(reference_apply(Y, inv(f)))))


def reference_bracket(A, X, Y):
    """The per-pair loop: frame bracket and both twisted Leibniz terms
    rebuilt as a MultiVector for every coefficient pair."""
    out = MultiVector.zero(A.rank, A.n, 1)
    pb = A.phi.pullback
    for (i,), f in X.coeffs.items():
        pf = pb(f)
        for (j,), g in Y.coeffs.items():
            pg = pb(g)
            br = {}
            for (a, b, k), c in A.structure.items():
                if (a, b) == (i, j):
                    br[(k,)] = c
                elif (a, b) == (j, i):
                    br[(k,)] = -c
            out = out + MultiVector(A.rank, A.n, 1, br).scale(pf * pg)
            df = reference_apply(A.anchor_field(A.phiA_frame(i)), g)
            out = out + A.phiA_frame(j).scale(pf * df)
            dg = reference_apply(A.anchor_field(A.phiA_frame(j)), f)
            out = out - A.phiA_frame(i).scale(pg * dg)
    return out


small_rationals = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
nonzero_rationals = small_rationals.filter(bool)


@st.composite
def affine_maps(draw):
    """An invertible affine map of 1 to 3 variables, every offset entry nonzero."""
    n = draw(st.integers(1, 3))
    matrix = [[draw(small_rationals) for _ in range(n)] for _ in range(n)]
    offset = [draw(nonzero_rationals) for _ in range(n)]
    try:
        return AffineTwist(matrix, offset)
    except ValueError:
        assume(False)


@st.composite
def polys(draw, n, max_degree=2, max_terms=3):
    terms = {}
    for _ in range(draw(st.integers(0, max_terms))):
        exps = tuple(draw(st.integers(0, max_degree)) for _ in range(n))
        terms[exps] = draw(small_rationals)
    return Poly(n, terms)


@st.composite
def map_fields_function(draw):
    """A map, two pullback vector fields over it and a function."""
    phi = draw(affine_maps())
    n = phi.n
    X = PullbackVectorField(phi, [draw(polys(n, 1)) for _ in range(n)])
    Y = PullbackVectorField(phi, [draw(polys(n, 1)) for _ in range(n)])
    return phi, X, Y, draw(polys(n, 3))


@st.composite
def dense_map_fields_function(draw):
    """A dense affine map of 2 or 3 variables (every matrix and offset
    entry nonzero), two pullback vector fields over it and a function."""
    n = draw(st.integers(2, 3))
    matrix = [[draw(nonzero_rationals) for _ in range(n)] for _ in range(n)]
    try:
        phi = AffineTwist(matrix, [draw(nonzero_rationals) for _ in range(n)])
    except ValueError:
        assume(False)
    X = PullbackVectorField(phi, [draw(polys(n, 2)) for _ in range(n)])
    Y = PullbackVectorField(phi, [draw(polys(n, 2)) for _ in range(n)])
    return phi, X, Y, draw(polys(n, 3))


def nested_commutator(phi, X, Y, f):
    """phi*(X~(Y~ f) - Y~(X~ f)), with X~ = M^-1 c and each flat field
    applied term by term through partials."""
    n = phi.n

    def flat(Z):
        return [
            sum((Poly.const(n, phi.matrix_inv[k][i]) * c for i, c in enumerate(Z.coeffs)), Poly.zero(n))
            for k in range(n)
        ]

    def apply(field, g):
        return sum((c * g.partial(k) for k, c in enumerate(field)), Poly.zero(n))

    fx, fy = flat(X), flat(Y)
    return phi.pullback(apply(fx, apply(fy, f)) - apply(fy, apply(fx, f)))


class TestChainRule:
    @given(map_fields_function())
    @settings(max_examples=60, deadline=None)
    def test_apply_matches_per_coordinate_formula(self, case):
        phi, X, _, f = case
        assert X.apply(f) == reference_apply(X, f)

    @given(map_fields_function())
    @settings(max_examples=40, deadline=None)
    def test_bracket_apply_matches_composites(self, case):
        phi, X, Y, f = case
        expected = reference_composite(phi, X, Y, f) - reference_composite(phi, Y, X, f)
        assert bracket_phistar(phi, X, Y).apply(f) == expected

    @given(dense_map_fields_function())
    @settings(max_examples=40, deadline=None)
    def test_bracket_phistar_matches_nested_flat_fields(self, case):
        phi, X, Y, f = case
        assert bracket_phistar(phi, X, Y).apply(f) == nested_commutator(phi, X, Y, f)

    @pytest.mark.parametrize(
        "build",
        [algebroid_s0, algebroid_s1, algebroid_s2, algebroid_s3, dense_tangent, invalid_candidate],
        ids=["S0", "S1", "S2", "S3", "dense-tangent", "invalid"],
    )
    def test_algebroid_bracket_matches_per_pair_loop(self, build):
        A = build()
        secs = [X for _, X in probes.sections(A, 1)]
        n = A.n
        coeffs = [Poly.variable(n, k % n) + k + 1 for k in range(A.rank)]
        mixed = MultiVector.from_vector(A.rank, n, coeffs)
        secs.append(mixed)
        for X in secs:
            for Y in secs:
                assert A.bracket(X, Y) == reference_bracket(A, X, Y)

    def test_mixed_base_maps_rejected(self):
        phi, psi = s1_base(), AffineTwist([[1, 1], [0, 1]], [1, 0])
        X = PullbackVectorField.coordinate(phi, 0)
        Y = PullbackVectorField.coordinate(psi, 1)
        with pytest.raises(StructureError):
            bracket_phistar(phi, X, Y)
        with pytest.raises(StructureError):
            bracket_phistar(psi, X, Y)
        with pytest.raises(StructureError):
            X + Y
        with pytest.raises(StructureError):
            ad_twist(psi, X)


class TestWorkCounts:
    """The bracket and the axiom loops do no repeated work."""

    def test_bracket_pulls_each_coefficient_back_once(self, monkeypatch):
        A = dense_tangent()
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        X = MultiVector.from_vector(2, 2, [x * y + 1, y])
        Y = MultiVector.from_vector(2, 2, [x, x * x - y])
        A.bracket(X, Y)  # builds the cached twisted frame and its anchor fields
        calls = []
        original = AffineTwist.pullback

        def counted(self, f):
            calls.append(f)
            return original(self, f)

        monkeypatch.setattr(AffineTwist, "pullback", counted)
        A.bracket(X, Y)
        assert len(calls) == len(X.coeffs) + len(Y.coeffs)

    @staticmethod
    def identity_counts(monkeypatch, A, degree, owner, method, check=check_axioms):
        """check(A, degree), passing; the calls of owner.method by
        identity, those made before the first identity under None."""
        module = sys.modules[check.__module__]
        current = [None]
        counts = {}
        original, until_first_failure = getattr(owner, method), module.until_first_failure

        def counted(*args):
            counts[current[0]] = counts.get(current[0], 0) + 1
            return original(*args)

        def tagged(identity, cases):
            current[0] = identity
            yield from cases

        def staged(name, identities):
            return until_first_failure(name, [(i, tagged(i, c)) for i, c in identities])

        monkeypatch.setattr(owner, method, counted)
        monkeypatch.setattr(module, "until_first_failure", staged)
        assert check(A, degree).passed
        return counts

    def test_axioms_pull_each_probe_function_back_once(self, monkeypatch):
        # the dense_twist base map at its probe degree.  A probe section
        # has one coefficient and its twist two, and each bracket pulls
        # back every coefficient of its two arguments.  The identities
        # share one pullback per probe function and one twist per probe
        # section, so before the first identity: the 10 probe functions
        # of degree <= 3 and the 20 probe sections.  Each anchor-table
        # fill X(x^m) = X~(phi*x^m) is one more pullback, of the one
        # term x^m, once per (field, monomial).
        counts = self.identity_counts(monkeypatch, dense_tangent(), 3, AffineTwist, "pullback")
        assert counts == {
            None: 10 + 20,
            # f*X once per (X, f), and the 2 frame images on first use
            "phiA-function-linearity": 20 * 10 + 2,
            # per pair, [X, Y] (2) and [phiA X, phiA Y] (4), and phiA of
            # the 316 nonzero coefficients of the 176 brackets [X, Y];
            # the tables of the 2 frame fields rho(phiA e_i) first meet
            # coefficients here: the 10 monomials of degree <= 3
            "phiA-bracket-homomorphism": 176 * (2 + 4) + 316 + 2 * 10,
            # per rotation class, 3 inner brackets (2 each) and 3 outer
            # ones (2, and the 288 coefficients of the 228 inner ones)
            "hom-jacobi": 76 * 3 * (2 + 2) + 288,
            # [X, fY] and [X, Y] (2 each) for the 908 brackets; the field
            # rho(phiA X) of each of the 20 probe labels meets the 10
            # functions f, and the 2 frame fields meet the 18 monomials
            # of degree 4 to 6 that the coefficients of fY reach
            "leibniz-rule": 908 * 2 + 20 * 10 + 2 * 18,
            # per section, the conjugate ad_twist(phi, rho(X)), whose
            # k-th coefficient is phi*(X~_k) for each of the 2 coordinates
            # x_k: 1 pullback each; see
            # test_anchor_twist_pulls_no_probe_function_back
            "anchor-twist-compatibility": 20 * 2,
            # per pair, [X, Y] and the 2 coefficients of the twisted
            # commutator; see test_anchor_bracket_pulls_no_probe_function_back
            "anchor-bracket-compatibility": 176 * (2 + 2),
        }
        assert sum(counts.values()) == 5620

    def test_anchor_tables_fill_once_and_the_bracket_derives_only_to_fill(self, monkeypatch):
        # both checks of the dense_twist workload at its probe degree:
        # each field fills its table at most once per monomial, and
        # every derive that a bracket makes is the one of a table fill
        from homlie.calculus import CartanContext, check_differential_props

        A = dense_tangent()
        fills, depth, loose = [], {"bracket": 0, "fill": 0}, []
        image, bracket, derive_ = PullbackVectorField._image, HomAlgebroid.bracket, homalg.derive

        def counted_image(self, k):
            fills.append((self, k))  # keeps each field alive, so ids stay distinct
            depth["fill"] += 1
            try:
                return image(self, k)
            finally:
                depth["fill"] -= 1

        def counted_bracket(self, X, Y):
            depth["bracket"] += 1
            try:
                return bracket(self, X, Y)
            finally:
                depth["bracket"] -= 1

        def counted_derive(flat, g, partials=None):
            if depth["bracket"] and not depth["fill"]:
                loose.append(g)
            return derive_(flat, g, partials)

        monkeypatch.setattr(PullbackVectorField, "_image", counted_image)
        monkeypatch.setattr(HomAlgebroid, "bracket", counted_bracket)
        monkeypatch.setattr(homalg, "derive", counted_derive)
        assert check_axioms(A, 3).passed
        assert len(fills) == 2 * 10 + 20 * 10 + 2 * 18  # see the pullback counts above
        assert check_differential_props(CartanContext(A), 3).passed
        assert len({(id(X), k) for X, k in fills}) == len(fills)
        assert loose == []

    def test_axioms_twist_each_probe_section_once(self, monkeypatch):
        # phiA of each of the 20 probe sections (2 frame, 18 scaled) once,
        # before the first identity; then only phiA [X, Y], once for each
        # of the 176 pairs: 2*2 + 2*18 + 18*2 + 10*10 (frame and scaled
        # probes, then the 10 pairwise-scaled ones with each other)
        # (the images of the frame, which the twist keeps, are built
        # first, so that only the probe and bracket twists are counted)
        A = dense_tangent()
        for j in range(A.rank):
            A.phiA_frame(j)
        twisted = []
        original = SectionTwist.apply_graded

        def recorded(self, v):
            twisted.append(v.key())
            return original(self, v)

        monkeypatch.setattr(SectionTwist, "apply_graded", recorded)
        counts = self.identity_counts(monkeypatch, A, 3, SectionTwist, "apply_graded")
        assert counts == {None: 20, "phiA-bracket-homomorphism": 176}
        assert twisted[:20] == [X.key() for _, X in probes.sections(A, 3)]

    @pytest.mark.parametrize(
        "degree, pairs",
        [(1, 2 * 2 + 2 * 4 + 4 * 2 + 4 * 4), (2, 2 * 2 + 2 * 10 + 10 * 2 + 10 * 10)],
    )
    def test_anchor_bracket_pulls_no_probe_function_back(self, monkeypatch, degree, pairs):
        # S1 has 3 probe functions at degree 1 and 6 at degree 2, but the
        # identity compares one difference of flat fields per pair: its
        # pullbacks are the 2 coefficients of [X, Y] and the 2 of the
        # twisted commutator of rho(X) and rho(Y), whatever the functions
        counts = self.identity_counts(monkeypatch, algebroid_s1(), degree, AffineTwist, "pullback")
        assert counts["anchor-bracket-compatibility"] == pairs * (2 + 2)

    @pytest.mark.parametrize("degree, sections", [(1, 2 + 4), (2, 2 + 10)])
    def test_anchor_twist_pulls_no_probe_function_back(self, monkeypatch, degree, sections):
        # S1 has 3 probe functions at degree 1 and 6 at degree 2, but the
        # identity compares one difference of flat fields per section:
        # its pullbacks are the 2 coefficients phi*(X~_k) of the
        # conjugate ad_twist(phi, rho(X)), one per coordinate, whatever
        # the functions
        counts = self.identity_counts(monkeypatch, algebroid_s1(), degree, AffineTwist, "pullback")
        assert counts["anchor-twist-compatibility"] == sections * 2

    @pytest.mark.parametrize("degree", [1, 2])
    def test_anchor_twist_conjugation_pulls_no_probe_function_back(self, monkeypatch, degree):
        from homlie.courant import BialgebroidPair, check_courant_axioms, double

        # Courant axiom ii on the trivial double of S1, the same way:
        # the 2 pullbacks phi*(X~_k) of ad_twist for each of the 12 pair
        # probes (which do not grow past degree 1), whatever the 3 or 6
        # functions
        E = double(BialgebroidPair.trivial(algebroid_s1()))
        counts = self.identity_counts(
            monkeypatch, E, degree, AffineTwist, "pullback", check_courant_axioms
        )
        assert counts["anchor-twist-conjugation"] == 12 * 2

    def test_leibniz_brackets_once_per_pair_and_function(self, monkeypatch):
        A = algebroid_s1()
        counts = self.identity_counts(monkeypatch, A, 2, A, "bracket")
        # [X, Y] once per pair and [X, fY] once per distinct fY while X
        # stays the same; f = 1 makes [X, Y] one of them.  At degree 2
        # the f are the 6 monomials of degree <= 2, and the X run over
        # 2 frame elements with Y in the frame (12 sections fY each) or
        # among the 10 scaled sections m*e_j (28: f*m has degree 1 to
        # 4), then 10 scaled X with Y in the frame (12 each) or scaled
        # (28 each): 2*12 + 2*28 + 10*12 + 10*28
        assert counts["leibniz-rule"] == 480

    def test_leibniz_and_jacobi_bracket_counts_on_the_dense_tangent(self, monkeypatch):
        A = dense_tangent()
        counts = self.identity_counts(monkeypatch, A, 3, A, "bracket")
        # the same count at degree 3, with 10 functions f: 2 frame X
        # with frame Y (20 sections fY each) or one of the 18 scaled Y
        # (54), 18 scaled X with frame Y (20 each) and 10 pairwise-scaled
        # X with pairwise-scaled Y (40 each): 2*20 + 2*54 + 18*20 + 10*40
        assert counts["leibniz-rule"] == 908
        # 224 triples fall into 76 rotation classes (4 of the 8 frame
        # triples, and one per scaled probe and frame pair), 6 brackets
        # each
        assert counts["hom-jacobi"] == 456


# -- anchor tables against the derivation they tabulate --------------------

# the dense_twist family: the dense map S M S^-1 with offset S b, for a
# signed permutation S of the two coordinates
DENSE_M = ((Fraction(3, 2), Fraction(1, 2)), (Fraction(1, 2), Fraction(-1, 2)))
DENSE_B = (Fraction(1, 3), Fraction(1, 2))
SIGNED_PERMUTATIONS = [
    [[sx if cols[i] == j else 0 for j in range(2)] for i, sx in enumerate(signs)]
    for cols in ((0, 1), (1, 0))
    for signs in ((1, 1), (1, -1), (-1, 1), (-1, -1))
]


def dense_family_map(S):
    # a signed permutation is orthogonal, so S^-1 is its transpose
    SM = [[sum(S[i][k] * DENSE_M[k][j] for k in range(2)) for j in range(2)] for i in range(2)]
    matrix = [[sum(SM[i][k] * S[j][k] for k in range(2)) for j in range(2)] for i in range(2)]
    return AffineTwist(matrix, [sum(S[i][k] * DENSE_B[k] for k in range(2)) for i in range(2)])


@st.composite
def table_functions(draw, n=2):
    """0, a constant, or 1 to 4 terms of degree <= 4 with coefficients
    over denominators 2 to 7."""
    kind = draw(st.sampled_from(["zero", "constant", "terms"]))
    if kind == "zero":
        return Poly.zero(n)
    if kind == "constant":
        return Poly.const(n, Fraction(draw(st.integers(1, 9)), draw(st.integers(2, 7))))
    terms = {}
    for _ in range(draw(st.integers(1, 4))):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(n))
        terms[exps] = Fraction(draw(st.integers(-9, 9).filter(bool)), draw(st.integers(2, 7)))
    return Poly(n, terms)


@st.composite
def dense_field_functions(draw):
    """A pullback vector field over a map of the dense_twist family,
    the zero field among them, and functions to apply it to."""
    phi = dense_family_map(draw(st.sampled_from(SIGNED_PERMUTATIONS)))
    if draw(st.booleans()):
        X = PullbackVectorField.zero(phi)
    else:
        X = PullbackVectorField(phi, [draw(polys(2, 2)) for _ in range(2)])
    return X, draw(st.lists(table_functions(), min_size=1, max_size=4))


def substitute(phi, f):
    """f composed with phi by Poly arithmetic, with no monomial table:
    each term times the powers of the coordinates' images."""
    n = phi.n
    images = [
        sum((Poly.variable(n, j) * phi.matrix[i][j] for j in range(n)), Poly.const(n, phi.offset[i]))
        for i in range(n)
    ]
    out = Poly.zero(n)
    for exps, c in f.terms.items():
        term = Poly.const(n, c)
        for image, e in zip(images, exps):
            for _ in range(e):
                term = term * image
        out = out + term
    return out


def derive_bracket(A, X, Y):
    """The bracket as it was before the anchor tables: each anchor term
    the flat field of rho(phiA e_i) derived on the pulled-back
    coefficient, with its partials kept per call.  The pullback is
    `substitute`, so that no table is shared with the bracket."""
    def pb(f):
        return substitute(A.phi, f)

    xs = [(i, pb(f), {}) for (i,), f in X.coeffs.items()]
    ys = [(j, pb(g), {}) for (j,), g in Y.coeffs.items()]
    out = MultiVector.zero(A.rank, A.n, 1)
    for i, pf, dpf in xs:
        for j, pg, dpg in ys:
            if i != j:
                lo, hi = min(i, j), max(i, j)
                sign = 1 if i < j else -1
                for k in range(A.rank):
                    c = A.structure.get((lo, hi, k))
                    if c is not None:
                        out = out + A.frame(k).scale(c * pf * pg * sign)
            df = derive(A.anchor_field(A.phiA_frame(i)).flat, pg, dpg)
            out = out + A.phiA_frame(j).scale(pf * df)
            dg = derive(A.anchor_field(A.phiA_frame(j)).flat, pf, dpf)
            out = out - A.phiA_frame(i).scale(pg * dg)
    return out


@st.composite
def dense_algebroid_sections(draw):
    """An algebroid, a fresh pullback tangent of the dense_twist family
    or the invalid candidate with its polynomial anchor, and sections of
    it with polynomial coefficients."""
    if draw(st.booleans()):
        A = make_pullback_tangent(dense_family_map(draw(st.sampled_from(SIGNED_PERMUTATIONS))))
    else:
        A = invalid_candidate()
    sections = [
        MultiVector.from_vector(A.rank, A.n, [draw(polys(A.n, 3)) for _ in range(A.rank)])
        for _ in range(draw(st.integers(2, 4)))
    ]
    return A, sections


class TestAnchorTables:
    @given(dense_field_functions())
    @settings(max_examples=80, deadline=None)
    def test_apply_matches_derive_on_fill_and_on_read(self, case):
        X, funcs = case
        for f in funcs + funcs:  # the second pass reads what the first filled
            assert X.apply(f) == derive(X.flat, substitute(X.phi, f))

    @given(dense_algebroid_sections())
    @settings(max_examples=30, deadline=None)
    def test_bracket_matches_the_derive_based_bracket(self, case):
        A, sections = case
        for X in sections:
            for Y in sections:
                assert A.bracket(X, Y) == derive_bracket(A, X, Y)

    def test_sums_fresh_fields_start_with_empty_tables(self):
        phi = dense_family_map(SIGNED_PERMUTATIONS[0])
        x, y = Poly.variable(2, 0), Poly.variable(2, 1)
        X = PullbackVectorField(phi, [x, y * y])
        Y = PullbackVectorField(phi, [y, x])
        f = x * x * y + Fraction(1, 3) * y
        for Z in (X, Y):
            Z.apply(f)
        for Z, W in ((X + Y, X), (X - Y, Y), (X.scale(x), X)):
            assert Z.apply(f) == derive(Z.flat, phi.pullback(f))
            assert Z.apply(f) != W.apply(f)


# -- a rank-3 dense tangent and two perturbations of it -------------------


def rank3_tangent():
    """The pullback tangent bundle of the rank-3 dense affine map of the
    ROADMAP's scale table."""
    phi = AffineTwist(
        [
            [Fraction(3, 2), Fraction(1, 2), 0],
            [Fraction(1, 2), Fraction(-1, 2), Fraction(1, 3)],
            [0, Fraction(1, 4), 2],
        ],
        [Fraction(1, 3), Fraction(1, 2), Fraction(-1, 5)],
    )
    return make_pullback_tangent(phi)


class TestRankThreeWitnesses:
    """Verdicts and witnesses at rank 3, degree 1.  The witnesses are
    pinned as the term-by-term residuals gave them, so the fused
    residuals must reproduce them byte for byte."""

    @staticmethod
    def verdicts(A):
        from homlie.calculus import CartanContext, check_differential_props

        return check_axioms(A, 1), check_differential_props(CartanContext(A), 1)

    def test_tangent_passes(self):
        axioms, differential = self.verdicts(rank3_tangent())
        assert axioms.passed and differential.passed

    def test_changed_structure_function_fails(self):
        A = rank3_tangent()
        structure = dict(A.structure)
        structure[(0, 1, 2)] = Poly.variable(3, 0)
        axioms, differential = self.verdicts(HomAlgebroid(A.phi, A.phiA, A.anchor, structure))
        assert axioms.witness.render() == (
            "identity=phiA-bracket-homomorphism; X=e1; Y=e2; residual="
            "(-2/17*x - 2/51*y - 4/153) e[1] + (6/17*x + 2/17*y + 4/51) e[2]"
            " + (28/17*x + 4/17*y + 8/51) e[3]"
        )
        assert differential.witness.render() == (
            "identity=differential-square-zero; omega=(y)*eps[]; residual="
            "(1/3*x) eps[1,2] + (-1/6*x) eps[1,3] + (-1/18*x) eps[2,3]"
        )

    def test_changed_anchor_entry_fails(self):
        A = rank3_tangent()
        anchor = [list(row) for row in A.anchor]
        anchor[2][0] = Poly.variable(3, 1)
        axioms, differential = self.verdicts(HomAlgebroid(A.phi, A.phiA, anchor, A.structure))
        assert axioms.witness.render() == (
            "identity=phiA-bracket-homomorphism; X=e1; Y=(y)*e1; residual="
            "(-1597696/20295603*y) e[1] + (480320/6765201*y) e[2] + (-27808/6765201*y) e[3]"
        )
        assert differential.witness.render() == (
            "identity=differential-square-zero; omega=(z)*eps[]; residual=(-3/2) eps[1,2]"
        )
