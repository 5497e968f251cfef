"""Witness snapshot: every negative scenario file, run through the
checkers named for it, must render the same verdict and witness as
recorded in tests/golden/witnesses.json under the instance's name.

Regenerate the reference (only when a witness is meant to change) with
    PYTHONPATH=src python tests/test_witness_snapshot.py
"""

import json
from pathlib import Path

from homlie.calculus import CartanContext, check_differential_props
from homlie.courant import BialgebroidPair, CourantDouble, check_bialgebroid, check_courant_axioms
from homlie.dirac import dirac_checks, graph
from homlie.homalg import check_axioms
from homlie.nijenhuis import is_hom_nijenhuis, is_hpn, lemma_checks
from homlie.poisson import is_hom_poisson, sharp_commutes
from homlie.report import CheckResult, PreconditionError, TheoremViolation, Witness
from homlie.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "witnesses.json"

# checker name -> call on the scenario, its context and its trivial
# double; every checker runs at its own default probe degree.
CHECKERS = {
    "check_axioms": lambda scn, ctx, E: check_axioms(scn.algebroid),
    "check_differential_props": lambda scn, ctx, E: check_differential_props(ctx),
    "check_bialgebroid": lambda scn, ctx, E: check_bialgebroid(E.pair),
    "check_courant_axioms": lambda scn, ctx, E: check_courant_axioms(E),
    "is_hom_poisson": lambda scn, ctx, E: is_hom_poisson(ctx, scn.pi),
    "sharp_commutes": lambda scn, ctx, E: sharp_commutes(ctx, scn.pi),
    "is_hom_nijenhuis": lambda scn, ctx, E: is_hom_nijenhuis(ctx, scn.endo),
    "lemma_checks": lambda scn, ctx, E: lemma_checks(ctx, scn.endo, scn.endo),
    "is_hpn": lambda scn, ctx, E: is_hpn(ctx, scn.pi, scn.endo),
    "dirac_checks": lambda scn, ctx, E: dirac_checks(graph(E, scn.dirac)),
}

NIJENHUIS = ["is_hom_nijenhuis", "lemma_checks"]
POISSON = ["is_hom_poisson", "sharp_commutes"]

# instance name -> (scenario file under scenarios/, checkers run on it)
NEGATIVE = {
    "S1-incompatible-endo": ("s1_incompatible_endo", NIJENHUIS + ["is_hpn"] + POISSON),
    "S1-noncommuting-endo": ("s1_noncommuting_endo", NIJENHUIS),
    "S1-noninvariant-pi": ("s1_bad_pi", POISSON),
    "S1-perturbed-structure": (
        "s1_perturbed_structure",
        ["check_axioms", "check_differential_props", "check_bialgebroid", "check_courant_axioms"],
    ),
    "S1-symmetric-graph": ("s1_symmetric_graph", ["dirac_checks"]),
    "S3-nonpoisson-pi": ("s3_nonpoisson_pi", POISSON + ["dirac_checks"]),
}


def snapshot() -> dict:
    out = {}
    for name, (stem, checkers) in NEGATIVE.items():
        scn = load_scenario(str(ROOT / "scenarios" / f"{stem}.json"))
        ctx = CartanContext(scn.algebroid)
        E = CourantDouble(BialgebroidPair.trivial(scn.algebroid))
        entries = {}
        for checker in checkers:
            try:
                entries[checker] = CHECKERS[checker](scn, ctx, E).render()
            except (PreconditionError, TheoremViolation) as exc:
                entries[checker] = f"{type(exc).__name__}: {exc}"
        out[name] = entries
    return out


def _dump(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def test_negative_fixture_witnesses_match_golden():
    assert _dump(snapshot()) == GOLDEN.read_text()


def test_every_negative_fixture_fails_somewhere():
    golden = json.loads(GOLDEN.read_text())
    assert set(golden) == set(NEGATIVE)
    for name, entries in golden.items():
        assert any(": FAIL" in r for r in entries.values()), name


def test_cli_reports_the_recorded_witnesses():
    # `homlie check` on each negative file, pinned in its JSON golden,
    # gives each checker the two share the verdict, witness and details
    # recorded here
    golden = json.loads(GOLDEN.read_text())
    for name, (stem, _) in NEGATIVE.items():
        report = json.loads((ROOT / "tests" / "golden" / f"{stem}.json").read_text())
        shared = [e for e in report["tasks"] if e["task"] in golden[name]]
        assert shared, name
        for e in shared:
            witness = Witness(**e["witness"]) if "witness" in e else None
            result = CheckResult(e["task"], e["verdict"] == "pass", witness, e.get("details"))
            assert golden[name][e["task"]] == result.render(), name


if __name__ == "__main__":
    GOLDEN.write_text(_dump(snapshot()))
