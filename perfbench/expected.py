"""Expected verdicts, written by hand.

`verdicts_wrong` counts against these tables only, never against a
report produced by the code under test.

Why each verdict holds:

- s0_axioms is the rank-1 zero-anchor algebroid over the identity map:
  every structure vanishes, so every task passes.
- s1_bad_pi puts pi = x e1^e2 on the plane map (x, y) -> (2x, y/2).
  The twist scales e1^e2 by 1/2 * 2 = 1 while the pullback turns x into
  2x, so pi is not twist-invariant.  Every task that needs an invariant
  pi (the Poisson checks, the dual algebroid, the Maurer-Cartan
  equation) fails at that precondition; the graph of pi^sharp is not
  phi-invariant, so the Dirac checks fail on it.  The graph theorem
  check passes: it verifies that both sides of the equivalence agree,
  and here both say "not Dirac".  The algebroid and its trivial-dual
  double do not involve pi and pass.
- s1_full is the same plane map with the constant, hence invariant and
  Poisson, pi = e1^e2 and N = 3 id, which commutes with everything: all
  twenty tasks pass.
- The five Courant pairs are the valid bialgebroids of acceptance
  criterion 8; their doubles satisfy every Courant axiom and the cyclic
  identity.
- A dense_twist instance is the pullback tangent bundle of an
  invertible affine map, a Hom-Lie algebroid by construction.
"""

PASS = "pass"
FAIL = "fail"

# per scenario file: (task, verdict, witness identity of a failure), in
# the order that "full" expands to
SCENARIOS = {
    "s0_axioms": [
        ("check_axioms", PASS, None),
        ("check_differential_props", PASS, None),
        ("check_bialgebroid", PASS, None),
        ("check_courant_axioms", PASS, None),
        ("jacobiator", PASS, None),
    ],
    "s1_bad_pi": [
        ("check_axioms", PASS, None),
        ("check_differential_props", PASS, None),
        ("is_hom_poisson", FAIL, "twist-invariance"),
        ("sharp_commutes", FAIL, "sharp-twist-commutation"),
        ("pi_pi_identity", FAIL, "pi-pi-contraction"),
        ("check_dual_algebroid", FAIL, "twist-invariance"),
        ("check_bialgebroid_pair", FAIL, "twist-invariance"),
        ("check_bialgebroid", PASS, None),
        ("check_courant_axioms", PASS, None),
        ("jacobiator", PASS, None),
        ("dirac_checks", FAIL, "is_phi_invariant"),
        ("graph_theorem_check", PASS, None),
        ("maurer_cartan", FAIL, "twist-invariance"),
    ],
    "s1_full": [
        ("check_axioms", PASS, None),
        ("check_differential_props", PASS, None),
        ("is_hom_poisson", PASS, None),
        ("sharp_commutes", PASS, None),
        ("pi_pi_identity", PASS, None),
        ("check_dual_algebroid", PASS, None),
        ("check_bialgebroid_pair", PASS, None),
        ("is_hom_nijenhuis", PASS, None),
        ("lemma_checks", PASS, None),
        ("d_n_props", PASS, None),
        ("is_hpn", PASS, None),
        ("hierarchy", PASS, None),
        ("hpn_bialgebroid_equiv", PASS, None),
        ("bialgebroid_defect_checks", PASS, None),
        ("check_bialgebroid", PASS, None),
        ("check_courant_axioms", PASS, None),
        ("jacobiator", PASS, None),
        ("dirac_checks", PASS, None),
        ("graph_theorem_check", PASS, None),
        ("maurer_cartan", PASS, None),
    ],
}

COURANT_PAIRS = ("S0-trivial", "S1-trivial", "S1-from-pi", "S2-trivial", "S3-trivial")
COURANT_CHECKS = ("check_bialgebroid", "check_courant_axioms", "jacobiator")
COURANT = {pair: [(check, PASS, None) for check in COURANT_CHECKS] for pair in COURANT_PAIRS}

DENSE_TWIST = [
    ("check_axioms", PASS, None),
    ("check_differential_props", PASS, None),
]


def expected(workload: str, parts) -> list:
    """The expected (check id, verdict, identity) rows for the given
    parts of a workload: scenario names, pair names, or instance ids."""
    table = {"scenarios_full": SCENARIOS, "courant_sweep": COURANT}.get(workload)
    rows = []
    for part in parts:
        entries = table[part] if table is not None else DENSE_TWIST
        rows.extend((f"{part}/{check}", verdict, ident) for check, verdict, ident in entries)
    return rows


def wrong(expected_rows, observed_rows) -> list:
    """Rows that differ from the table, plus rows missing or extra."""
    out = []
    for k in range(max(len(expected_rows), len(observed_rows))):
        exp = tuple(expected_rows[k]) if k < len(expected_rows) else None
        got = tuple(observed_rows[k]) if k < len(observed_rows) else None
        if exp != got:
            out.append({"expected": exp, "observed": got})
    return out
