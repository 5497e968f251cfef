"""Witness snapshot: every negative fixture, run through the checkers
its tags name, must render the same verdict and witness as recorded in
tests/golden/witnesses.json.

Regenerate the reference (only when a witness is meant to change) with
    PYTHONPATH=src python tests/test_witness_snapshot.py
"""

import json
from pathlib import Path

from homlie.calculus import CartanContext, check_differential_props
from homlie.courant import BialgebroidPair, CourantDouble, check_bialgebroid, check_courant_axioms
from homlie.dirac import dirac_checks, graph
from homlie.fixtures import list_fixtures
from homlie.homalg import check_axioms
from homlie.nijenhuis import is_hom_nijenhuis, is_hpn, lemma_checks
from homlie.poisson import is_hom_poisson, sharp_commutes
from homlie.report import PreconditionError, TheoremViolation

GOLDEN = Path(__file__).resolve().parent / "golden" / "witnesses.json"

# tag -> [(checker name, scenario keys it needs, call)]; every checker
# runs at its own default probe degree.
CHECKERS = {
    "algebroid": [
        ("check_axioms", (), lambda d, ctx, E: check_axioms(d["algebroid"])),
        ("check_differential_props", (), lambda d, ctx, E: check_differential_props(ctx)),
        ("check_bialgebroid", (), lambda d, ctx, E: check_bialgebroid(E.pair)),
        ("check_courant_axioms", (), lambda d, ctx, E: check_courant_axioms(E)),
    ],
    "poisson": [
        ("is_hom_poisson", ("pi",), lambda d, ctx, E: is_hom_poisson(ctx, d["pi"])),
        ("sharp_commutes", ("pi",), lambda d, ctx, E: sharp_commutes(ctx, d["pi"])),
    ],
    "nijenhuis": [
        ("is_hom_nijenhuis", ("N",), lambda d, ctx, E: is_hom_nijenhuis(ctx, d["N"])),
        ("lemma_checks", ("N",), lambda d, ctx, E: lemma_checks(ctx, d["N"], d["N"])),
        ("is_hpn", ("pi", "N"), lambda d, ctx, E: is_hpn(ctx, d["pi"], d["N"])),
    ],
    "dirac": [
        ("dirac_checks", ("H",), lambda d, ctx, E: dirac_checks(graph(E, d["H"]))),
        ("dirac_checks", ("pi",), lambda d, ctx, E: dirac_checks(graph(E, d["pi"].sharp))),
    ],
}


def snapshot() -> dict:
    out = {}
    for fx in list_fixtures("negative"):
        data = fx.build()
        ctx = CartanContext(data["algebroid"])
        E = CourantDouble(BialgebroidPair.trivial(data["algebroid"]))
        entries = {}
        for tag in fx.tags:
            for name, needs, call in CHECKERS.get(tag, ()):
                if not all(k in data for k in needs):
                    continue
                try:
                    entries[name] = call(data, ctx, E).render()
                except (PreconditionError, TheoremViolation) as exc:
                    entries[name] = f"{type(exc).__name__}: {exc}"
        out[fx.name] = entries
    return out


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_negative_fixture_witnesses_match_golden():
    assert _dump(snapshot()) == GOLDEN.read_text()


def test_every_negative_fixture_fails_somewhere():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == {fx.name for fx in list_fixtures("negative")}
    for name, entries in golden.items():
        assert any(": FAIL" in r for r in entries.values()), name


if __name__ == "__main__":
    GOLDEN.write_text(_dump(snapshot()))
