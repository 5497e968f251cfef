"""Mutation suite: valid instances perturbed by polynomial terms of
degree 1, 2 and 3 must fail at least one checker with a witness, and
every checker's rendered result is pinned in tests/golden/mutations.json.

Each mutant perturbs one ingredient of S1 or S3 (with the standard
bivector e1^e2, the scalar endomorphism 2*Id and the trivial dual): a
structure function, an anchor entry, the section twist (by a strictly
upper-triangular term, so the determinant stays constant), the
bivector, the endomorphism, or a structure function or anchor entry of
the dual side.  Every checker whose input changed runs at its default
probe degree.

Regenerate the reference (only when a witness is meant to change) with
    PYTHONPATH=src python tests/test_mutations.py
"""

import json
from pathlib import Path

import pytest

import oracle
from homlie.calculus import CartanContext, check_differential_props, operator_cache
from homlie.courant import (
    BialgebroidPair,
    CourantDouble,
    check_bialgebroid,
    check_closed_bracket_formula,
    check_courant_axioms,
)
from homlie.dirac import check_maurer_cartan, dirac_checks, graph
from homlie.exterior import EndoMap, MultiVector, SectionTwist
from homlie.fixtures import algebroid_s1, algebroid_s3, standard_pi
from homlie.homalg import HomAlgebroid, check_axioms
from homlie.nijenhuis import (
    bialgebroid_defect_checks,
    d_n_props,
    is_hom_nijenhuis,
    is_hpn,
    lemma_checks,
)
from homlie.poisson import Bivector, d_pi, is_hom_poisson, pi_pi_identity, sharp_commutes
from homlie.polyring import Poly
from homlie.report import PreconditionError, TheoremViolation

GOLDEN = Path(__file__).resolve().parent / "golden" / "mutations.json"

BASES = {"S1": algebroid_s1, "S3": algebroid_s3}
KINDS = ("structure", "anchor", "twist", "pi", "N", "dual_structure", "dual_anchor")
DEGREES = (1, 2, 3)

ALGEBROID_CHECKERS = [
    ("check_axioms", lambda m: check_axioms(m["A"])),
    ("check_differential_props", lambda m: check_differential_props(m["ctx"])),
    ("check_bialgebroid", lambda m: check_bialgebroid(m["E"].pair)),
    ("check_closed_bracket_formula", lambda m: check_closed_bracket_formula(m["E"])),
    ("check_courant_axioms", lambda m: check_courant_axioms(m["E"])),
]
PAIR_DOUBLE_CHECKERS = ALGEBROID_CHECKERS[2:]
PI_CHECKERS = [
    ("is_hom_poisson", lambda m: is_hom_poisson(m["ctx"], m["pi"])),
    ("sharp_commutes", lambda m: sharp_commutes(m["ctx"], m["pi"])),
    ("pi_pi_identity", lambda m: pi_pi_identity(m["ctx"], m["pi"])),
    ("d_pi", lambda m: d_pi(m["ctx"], m["pi"], m["pi"].table)),
    ("maurer_cartan", lambda m: check_maurer_cartan(m["E"].pair, m["pi"])),
    ("dirac_checks", lambda m: dirac_checks(graph(m["E"], m["pi"].sharp))),
]
N_CHECKERS = [
    ("is_hom_nijenhuis", lambda m: is_hom_nijenhuis(m["ctx"], m["N"])),
    ("lemma_checks", lambda m: lemma_checks(m["ctx"], m["N"], m["N"])),
    ("d_n_props", lambda m: d_n_props(m["ctx"], m["N"])),
    ("dirac_checks", lambda m: dirac_checks(graph(m["E"], m["N"]))),
]
PAIR_CHECKERS = [
    ("is_hpn", lambda m: is_hpn(m["ctx"], m["pi"], m["N"])),
    (
        "bialgebroid_defect_checks",
        lambda m: bialgebroid_defect_checks(m["ctx"], m["pi"], m["N"]),
    ),
]
CHECKERS = {
    "structure": ALGEBROID_CHECKERS,
    "anchor": ALGEBROID_CHECKERS,
    "twist": ALGEBROID_CHECKERS,
    "pi": PI_CHECKERS + PAIR_CHECKERS,
    "N": N_CHECKERS + PAIR_CHECKERS,
    "dual_structure": PAIR_DOUBLE_CHECKERS,
    "dual_anchor": PAIR_DOUBLE_CHECKERS,
}


def mutant(base: str, kind: str, degree: int) -> dict:
    """The base instance with one ingredient perturbed by a monomial of
    the given degree."""
    A = BASES[base]()
    n, r = A.n, A.rank
    x = Poly.variable(n, 0) ** degree
    pi = standard_pi(A)
    N = oracle.diagonal(r, [2] * r)
    if kind == "structure":
        table = dict(A.structure)
        table[(0, 1, 0)] = table.get((0, 1, 0), Poly.zero(n)) + x
        A = HomAlgebroid(A.phi, A.phiA, A.anchor, table)
    elif kind == "anchor":
        anchor = [list(row) for row in A.anchor]
        anchor[0][1] = anchor[0][1] + x
        A = HomAlgebroid(A.phi, A.phiA, anchor, A.structure)
    elif kind == "twist":
        P = [list(row) for row in A.phiA.matrix]
        P[0][1] = P[0][1] + x
        A = HomAlgebroid(A.phi, SectionTwist(P, A.phi, "multivector"), A.anchor, A.structure)
    elif kind == "pi":
        # on S3 the perturbation sits on e2^e3 and depends on y, so the
        # graded square stops vanishing; on S1 it breaks invariance
        slot, f = ((0, 1), x) if r == 2 else ((1, 2), Poly.variable(n, 1) ** degree)
        coeffs = dict(pi.table.coeffs)
        coeffs[slot] = coeffs.get(slot, Poly.zero(n)) + f
        pi = Bivector(MultiVector(r, n, 2, coeffs))
    elif kind == "N":
        rows = [list(row) for row in N.matrix]
        rows[0][1] = rows[0][1] + x
        N = EndoMap(rows)
    pair = BialgebroidPair.trivial(A)
    if kind.startswith("dual"):
        D = pair.Astar
        table, anchor = {}, [list(row) for row in D.anchor]
        if kind == "dual_structure":
            table[(0, 1, 0)] = x
        else:
            anchor[0][1] = anchor[0][1] + x
        pair = BialgebroidPair(A, HomAlgebroid(A.phi, D.phiA, anchor, table))
    E = CourantDouble(pair)
    return {"A": A, "ctx": CartanContext(A), "E": E, "pi": pi, "N": N}


def _run(call, m) -> str:
    try:
        return call(m).render()
    except (PreconditionError, TheoremViolation) as exc:
        return f"{type(exc).__name__}: {exc}"


def mutant_names():
    return [f"{b}-{k}-deg{d}" for b in BASES for k in KINDS for d in DEGREES]


def snapshot_one(name: str) -> dict:
    base, kind, deg = name.split("-")
    m = mutant(base, kind, int(deg[3:]))
    return {label: _run(call, m) for label, call in CHECKERS[kind]}


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())


def test_golden_covers_every_mutant(golden):
    assert sorted(golden) == sorted(mutant_names())


@pytest.mark.parametrize("name", mutant_names())
def test_mutant_matches_golden_and_fails_with_witness(name, golden):
    got = snapshot_one(name)
    assert _dump(got) == _dump(golden[name])
    assert any(": FAIL [identity=" in r for r in got.values()), name


@pytest.mark.parametrize("name", mutant_names())
def test_mutant_matches_golden_inside_one_cache_scope(name, golden):
    """Every checker of a mutant shares one operator-cache scope, as
    the tasks of a CLI run share theirs, and no witness changes."""
    with operator_cache():
        got = snapshot_one(name)
    assert _dump(got) == _dump(golden[name])


if __name__ == "__main__":
    GOLDEN.write_text(_dump({name: snapshot_one(name) for name in mutant_names()}))
