"""Acceptance suite: one test per criterion, each printed as a single
pass/fail line.  Every comparison is exact rational equality; there are
no tolerances anywhere.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import json
import random
import subprocess
import sys
from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import pytest

import oracle
from homlie import classical
from homlie.calculus import (
    CartanContext,
    check_differential_props,
    differential,
    interior,
    lie_derivative_form,
    schouten,
)
from homlie.courant import (
    BialgebroidPair,
    CourantDouble,
    check_bialgebroid,
    check_courant_axioms,
    double,
    jacobiator,
)
from homlie.dirac import dirac_checks, dirac_to_algebroid, graph, graph_theorem_check, maurer_cartan_defect
from homlie.exterior import EndoMap, Form, MultiVector
from homlie.fixtures import (
    algebroid_s0,
    algebroid_s1,
    algebroid_s2,
    algebroid_s3,
    standard_pi,
)
from homlie.homalg import check_axioms
from homlie.nijenhuis import (
    d_n_props,
    deformed_algebroid,
    hierarchy,
    hpn_bialgebroid_equiv,
    is_hom_nijenhuis,
    is_hpn,
    lemma_checks,
)
from homlie.poisson import (
    classical_poisson_lift,
    d_pi,
    dual_algebroid,
    is_hom_poisson,
    pi_pi_identity,
    sharp_commutes,
)
from homlie.polyring import AffineTwist, Poly, monomials
from homlie.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent


def scenario(name):
    return load_scenario(str(ROOT / "scenarios" / f"{name}.json"))


@contextmanager
def criterion(num, desc):
    try:
        yield
    except BaseException:
        print(f"criterion {num:2d}: FAIL - {desc}")
        raise
    print(f"criterion {num:2d}: PASS - {desc}")


@pytest.fixture(scope="module")
def S0():
    return CartanContext(algebroid_s0())


@pytest.fixture(scope="module")
def S1():
    return CartanContext(algebroid_s1())


@pytest.fixture(scope="module")
def S2():
    return CartanContext(algebroid_s2())


@pytest.fixture(scope="module")
def S3():
    return CartanContext(algebroid_s3())


def _random_form(rng, rank, n, degree, pool):
    coeffs = {}
    for I in combinations(range(rank), degree):
        coeffs[I] = rng.choice(pool)
    return Form(rank, n, degree, coeffs)


def _random_mv(rng, rank, n, degree, pool):
    coeffs = {}
    for I in combinations(range(rank), degree):
        coeffs[I] = rng.choice(pool)
    return MultiVector(rank, n, degree, coeffs)


def test_criterion_1_classical_reduction(S3, S0):
    with criterion(1, "classical reduction matches the independent oracle on random probes"):
        rng = random.Random(1729)
        probes = 0

        pool3 = monomials(3, 3) + [Poly.zero(3)]
        for _ in range(40):
            deg = rng.randrange(0, 3)
            om = _random_form(rng, 3, 3, deg, pool3)
            X = MultiVector.from_vector(3, 3, [rng.choice(pool3) for _ in range(3)])
            assert differential(S3, om) == oracle.de_rham(om)
            probes += 1
            if deg >= 1:
                assert interior(S3, X, om) == oracle.contract(X, om)
                probes += 1
            assert lie_derivative_form(S3, X, om) == oracle.lie_form(X, om)
            probes += 1
            k, l = rng.randrange(0, 4), rng.randrange(0, 4)
            D1 = _random_mv(rng, 3, 3, k, pool3)
            D2 = _random_mv(rng, 3, 3, l, pool3)
            assert schouten(S3, D1, D2) == classical.schouten_classical(D1, D2)
            probes += 1
        # higher-degree contraction against the iterated oracle
        for _ in range(10):
            om = _random_form(rng, 3, 3, 3, pool3)
            D = _random_mv(rng, 3, 3, 2, pool3)
            assert interior(S3, D, om) == oracle.contract_multi(D, om)
            probes += 1

        pool1 = monomials(1, 3) + [Poly.zero(1)]
        for _ in range(15):
            deg = rng.randrange(0, 2)
            om = _random_form(rng, 1, 1, deg, pool1)
            X = MultiVector.from_vector(1, 1, [rng.choice(pool1)])
            # zero anchor and bracket: the classical counterparts vanish
            assert differential(S0, om).is_zero()
            probes += 1
            if deg >= 1:
                assert interior(S0, X, om) == oracle.contract(X, om)
                probes += 1
            assert lie_derivative_form(S0, X, om).is_zero()
            probes += 1
            D2 = _random_mv(rng, 1, 1, rng.randrange(0, 2), pool1)
            assert schouten(S0, X, D2).is_zero()
            probes += 1
        assert probes >= 200, f"only {probes} probes"


def test_criterion_2_axiom_suite(S1, S2):
    with criterion(2, "axiom suite passes on the twisted instances and flags the perturbation"):
        assert check_axioms(S1.algebroid, probe_degree=3).passed
        assert check_axioms(S2.algebroid, probe_degree=3).passed
        bad = scenario("s1_perturbed_structure").algebroid
        res = check_axioms(bad, probe_degree=3)
        assert not res.passed
        assert res.witness is not None
        assert res.witness.residual not in ("", "0")


def test_criterion_3_calculus_identities(S0, S1, S2, S3):
    with criterion(3, "differential, twist, Leibniz and pairing identities hold on all probe forms"):
        for ctx in (S0, S1, S2):
            res = check_differential_props(ctx, probe_degree=3)
            assert res.passed, res.render()
        res = check_differential_props(S3, probe_degree=2)
        assert res.passed, res.render()


def test_criterion_4_poisson_suite(S1):
    with criterion(4, "Poisson suite holds exactly and rejects the scaled bivector at invariance"):
        pi = standard_pi(S1.algebroid)
        assert is_hom_poisson(S1, pi).passed
        sc = sharp_commutes(S1, pi)
        assert sc.passed and sc.details["equivalent"] is True
        for D in (
            S1.algebroid.frame(0),
            S1.algebroid.frame(1).scale(Poly.variable(2, 0)),
            pi.table,
            Poly.variable(2, 0) * Poly.variable(2, 1),
        ):
            out = d_pi(S1, pi, D)  # asserts the bracket identity internally
            assert out == schouten(S1, pi.table, S1.as_multivector(D))
        assert pi_pi_identity(S1, pi).passed
        dual = dual_algebroid(S1, pi)
        assert check_axioms(dual).passed
        assert check_bialgebroid(BialgebroidPair.from_pi(S1, pi)).passed

        bad = scenario("s1_bad_pi").pi
        res = is_hom_poisson(S1, bad)
        assert not res.passed
        assert res.witness.identity == "twist-invariance"
        sc_bad = sharp_commutes(S1, bad)
        assert not sc_bad.passed and sc_bad.details["equivalent"] is True


def test_criterion_5_correspondence(S3):
    with criterion(5, "classical lift correspondence agrees in both directions on the catalog"):
        one = Poly.const(2, 1)
        valid = [
            (AffineTwist([[2, 0], [0, Fraction(1, 2)]]), {(0, 1): one}),
            (AffineTwist.identity(2), {(0, 1): one}),
            (AffineTwist([[3, 0], [1, 1]]), {}),
            (AffineTwist([[0, 1], [-1, 0]]), {(0, 1): one}),
        ]
        for phi, coeffs in valid:
            res = classical_poisson_lift(phi, coeffs)
            assert res.passed, res.render()
            assert res.details["classical-poisson"] and res.details["hom-poisson"]
            assert res.details["classical-invariant"] and res.details["hom-invariant"]

        res = classical_poisson_lift(AffineTwist([[2, 0], [0, 1]]), {(0, 1): one})
        assert res.passed
        assert not res.details["classical-invariant"]
        assert not res.details["hom-invariant"]

        bad_pi = oracle.search_invariant_non_poisson_bivector(S3)
        res = classical_poisson_lift(AffineTwist.identity(3), bad_pi.table.coeffs)
        assert res.passed
        assert not res.details["classical-poisson"]
        assert not res.details["hom-poisson"]


def test_criterion_6_nijenhuis_suite(S1):
    with criterion(6, "deformation suite holds for diagonal fixtures and flags the non-commuting one"):
        for entries in ([1, 2], [3, Fraction(1, 5)]):
            N = oracle.diagonal(2, entries)
            assert lemma_checks(S1, N, oracle.diagonal(2, [2, 7])).passed
            assert is_hom_nijenhuis(S1, N).passed
            A_N = deformed_algebroid(S1, N)
            assert check_axioms(A_N).passed
            assert d_n_props(S1, N).passed

        bad = scenario("s1_noncommuting_endo").endo
        res = is_hom_nijenhuis(S1, bad)
        assert not res.passed
        assert res.details["twist-invariance"] == "FAIL"
        assert res.details["commutes-with-twist"] is False  # both formulations agree
        lem = lemma_checks(S1, bad, bad)
        assert lem.details["invariance-equivalence"] == "pass"


def test_criterion_7_hpn_equivalence_and_hierarchy(S1):
    with criterion(7, "compatibility conditions, equivalence verdicts and the bivector tower line up"):
        pi = standard_pi(S1.algebroid)
        good = oracle.diagonal(2, [Fraction(5), Fraction(5)])
        res = is_hpn(S1, pi, good)
        assert res.passed
        conds = [
            res.details["cond-compat-tensor"],
            res.details["cond-deformed-vs-composed"],
            res.details["cond-deformed-vs-transposed"],
            res.details["cond-derivative-tensor"],
        ]
        assert conds == [True, True, True, True]
        assert res.details["prop-conditions-agree"] is True

        equiv = hpn_bialgebroid_equiv(S1, pi, good)
        assert equiv.passed and all(equiv.details.values())

        towers, tower_res = hierarchy(S1, pi, good, depth=3)
        assert tower_res.passed
        assert len(towers) == 4
        for k in range(4):
            for l in range(4):
                assert schouten(S1, towers[k].table, towers[l].table).is_zero()

        bad = oracle.diagonal(2, [1, 2])
        res_bad = is_hpn(S1, pi, bad)
        assert not res_bad.passed
        equiv_bad = hpn_bialgebroid_equiv(S1, pi, bad)
        assert equiv_bad.passed
        assert equiv_bad.details == {
            "is-hpn": False,
            "deformed-dual": False,
            "dual-deformed": False,
        }


def _valid_bialgebroid_pairs():
    s1 = algebroid_s1()
    ctx1 = CartanContext(s1)
    return [
        ("S0-trivial", BialgebroidPair.trivial(algebroid_s0())),
        ("S1-trivial", BialgebroidPair.trivial(s1)),
        ("S1-from-pi", BialgebroidPair.from_pi(ctx1, standard_pi(s1))),
        ("S2-trivial", BialgebroidPair.trivial(algebroid_s2())),
        ("S3-trivial", BialgebroidPair.trivial(algebroid_s3())),
    ]


def test_criterion_8_courant_suite():
    with criterion(8, "doubles pass all Courant axioms, function rules and the cyclic identity"):
        probe_triples = 0
        for name, P in _valid_bialgebroid_pairs():
            assert check_bialgebroid(P, probe_degree=2).passed, name
            E = double(P, verify=False)
            res = check_courant_axioms(E, probe_degree=2)
            assert res.passed, f"{name}: {res.render()}"
            frames = E.frame_sections()
            for i in range(len(frames)):
                for j in range(len(frames)):
                    for k in range(len(frames)):
                        jacobiator(E, frames[i], frames[j], frames[k])
            funcs = [f for f in monomials(E.n, 1) if not f.is_constant()]
            for f in funcs:
                for a in range(2 * E.r):
                    u = frames[a].scale(f)
                    for b, c in ((0, min(1, 2 * E.r - 1)), (2 * E.r - 1, 0)):
                        jacobiator(E, u, frames[b], frames[c])
                        jacobiator(E, frames[b], u, frames[c] + frames[b])
                        probe_triples += 2
        assert probe_triples >= 100, f"only {probe_triples} probe triples"


def test_criterion_9_dirac_maurer_cartan(S3):
    with criterion(9, "graph characterizations agree, the obstruction matches, restrictions pass"):
        s1 = algebroid_s1()
        P1 = BialgebroidPair.trivial(s1)
        P3 = BialgebroidPair.trivial(algebroid_s3())
        pi1 = standard_pi(s1)
        bad3 = oracle.search_invariant_non_poisson_bivector(CartanContext(algebroid_s3()))

        checks = [
            (P1, pi1.sharp, True),
            (P1, EndoMap.zero(2, 2), True),
            (P1, EndoMap.identity(2, 2), False),
            (P3, bad3.sharp, False),
            (P3, EndoMap.zero(3, 3), True),
        ]
        verdicts = set()
        for P, H, expected in checks:
            res = graph_theorem_check(P, H)
            assert res.passed, res.render()
            assert res.details["subbundle-side"] is expected
            verdicts.add(expected)
        assert verdicts == {True, False}

        # the obstruction for trivial duals is exactly half the square
        half1 = Poly.const(2, Fraction(1, 2))
        defect = maurer_cartan_defect(P1, pi1)
        assert defect == schouten(P1.ctx, pi1.table, pi1.table).scale(half1)
        half3 = Poly.const(3, Fraction(1, 2))
        defect3 = maurer_cartan_defect(P3, bad3)
        assert defect3 == schouten(P3.ctx, bad3.table, bad3.table).scale(half3)
        assert not defect3.is_zero()

        # restriction to every passing subbundle yields a valid instance
        E1 = CourantDouble(P1)
        passing = [
            graph(E1, pi1.sharp),
            graph(E1, EndoMap.zero(2, 2)),
        ]
        from homlie.dirac import Subbundle

        passing.append(Subbundle(E1, [E1.frame_section(0), E1.frame_section(1)]))
        for L in passing:
            assert dirac_checks(L).passed
            restricted = dirac_to_algebroid(L)
            assert restricted.phiA.is_invertible()
            assert check_axioms(restricted).passed


def test_criterion_10_determinism():
    with criterion(10, "reports are byte-identical and failures reproduce in isolation"):
        env = {"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"}

        def run(*args):
            return subprocess.run(
                [sys.executable, "-m", "homlie", *args],
                capture_output=True,
                text=True,
                cwd=str(ROOT),
                env=env,
            )

        for scenario in ("scenarios/s0_axioms.json", "scenarios/s1_bad_pi.json"):
            a = run("check", scenario, "--format", "json")
            b = run("check", scenario, "--format", "json")
            assert a.stdout == b.stdout and a.stderr == b.stderr
            c = run("check", scenario, "--format", "text")
            d = run("check", scenario, "--format", "text")
            assert c.stdout == d.stdout

        full = json.loads(run("check", "scenarios/s1_bad_pi.json", "--format", "json").stdout)
        failing = [e for e in full["tasks"] if e["verdict"] == "fail"]
        assert failing
        for entry in failing:
            solo = json.loads(
                run(
                    "check",
                    "scenarios/s1_bad_pi.json",
                    "--task",
                    entry["task"],
                    "--format",
                    "json",
                ).stdout
            )
            assert solo["tasks"][0]["witness"] == entry["witness"]
