import json
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import oracle
from homlie.calculus import CartanContext
from homlie.cli import run_scenario
from homlie.fixtures import algebroid_s2, algebroid_s3
from homlie.scenario import ScenarioError, load_scenario, parse_scenario

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
GOLDEN = ROOT / "tests" / "golden"


def golden_cases():
    """(scenario file stem, --task value) for each JSON golden report:
    <stem>.json of the file's own task list, which every file under
    scenarios/ must have, and <stem>_full.json of --task full, where
    one exists."""
    cases = []
    for path in sorted(SCENARIOS.glob("*.json")):
        cases.append(pytest.param(path.stem, None, id=path.stem))
        if (GOLDEN / f"{path.stem}_full.json").exists():
            cases.append(pytest.param(path.stem, "full", id=f"{path.stem}_full"))
    return cases


def s1_scenario_dict(**overrides):
    data = {
        "n": 2,
        "vars": ["x", "y"],
        "phi": {"matrix": [["2", "0"], ["0", "1/2"]], "offset": ["0", "0"]},
        "rank": 2,
        "phiA_matrix": [["1/2", "0"], ["0", "2"]],
        "anchor_matrix": [["1", "0"], ["0", "1"]],
        "structure": [],
        "tasks": ["check_axioms"],
    }
    data.update(overrides)
    return data


class TestScenarioParsing:
    def test_round_trip_minimal(self):
        scn = parse_scenario(s1_scenario_dict())
        assert scn.n == 2 and scn.algebroid.rank == 2
        assert scn.tasks == ["check_axioms"]

    def test_each_scenario_gets_its_own_cache(self):
        a, b = parse_scenario(s1_scenario_dict()), parse_scenario(s1_scenario_dict())
        a.cache["key"] = "value"
        assert a.cache is not b.cache and b.cache == {}
        assert parse_scenario(s1_scenario_dict()).cache == {}

    def test_probe_degree_must_fit_a_monomial_key(self):
        # the probe monomials include x_1^d; parsing builds no probe, so
        # the largest degree a key holds is accepted here
        from homlie.kernels import LIMIT

        assert parse_scenario(s1_scenario_dict(probe_degree=LIMIT - 1)).probe_degree == LIMIT - 1
        with pytest.raises(ScenarioError) as err:
            parse_scenario(s1_scenario_dict(probe_degree=LIMIT))
        assert err.value.path == "$.probe_degree"

    def test_unknown_top_key_rejected(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(s1_scenario_dict(bogus=1))
        assert "$" in str(err.value) and "bogus" in str(err.value)

    def test_unknown_task_rejected_with_path(self, tmp_path, capsys):
        # the parser checks the shape of the list; the CLI checks the
        # names against its task table, and run_scenario errs on them
        from homlie.cli import main

        data = s1_scenario_dict(tasks=["check_axioms", "nope"])
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(data))
        assert main(["check", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == "scenario error: $.tasks[1]: unknown task 'nope'\n"
        path.write_text(json.dumps(s1_scenario_dict()))
        assert main(["check", str(path), "--task", "nope"]) == 2
        assert capsys.readouterr().err == "scenario error: $.tasks: unknown task 'nope'\n"
        entries = run_scenario(parse_scenario(data))["tasks"]
        assert entries[1] == {"task": "nope", "verdict": "error", "error": "unknown task 'nope'"}

    def test_bad_rational_path(self):
        data = s1_scenario_dict()
        data["phi"]["matrix"][0][0] = "2/0"
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "$.phi.matrix[0][0]" in str(err.value)

    @pytest.mark.parametrize(
        "key, items, message",
        [
            (
                "structure",
                [{"i": 1, "j": 2, "k": 1, "coeff": "1"}, {"i": 2, "j": 2, "k": 1, "coeff": "1"}],
                "$.structure[1]: structure constant C[2,2] must vanish",
            ),
            (
                "structure",
                [{"i": 2, "j": 1, "k": 2, "coeff": "1"}, {"i": 1, "j": 2, "k": 2, "coeff": "1"}],
                "$.structure[1]: structure table is not antisymmetric at (1,2,2)",
            ),
            (
                "dual",
                [{"i": 1, "j": 1, "k": 1, "coeff": "1"}],
                "$.dual.structure[0]: structure constant C[1,1] must vanish",
            ),
            (
                "dual",
                [{"i": 1, "j": 2, "k": 1, "coeff": "1"}, {"i": 2, "j": 1, "k": 1, "coeff": "1"}],
                "$.dual.structure[1]: structure table is not antisymmetric at (1,2,1)",
            ),
        ],
        ids=["diagonal", "antisymmetry", "dual-diagonal", "dual-antisymmetry"],
    )
    def test_bad_structure_item_reported_at_its_path(self, key, items, message):
        # the item's own path and the file's 1-based indices
        value = {"structure": items} if key == "dual" else items
        with pytest.raises(ScenarioError) as err:
            parse_scenario(s1_scenario_dict(**{key: value}))
        assert str(err.value) == message

    def test_structure_items_that_cancel_are_accepted(self):
        items = [
            {"i": 1, "j": 1, "k": 1, "coeff": "1"},
            {"i": 1, "j": 1, "k": 1, "coeff": "-1"},
            {"i": 1, "j": 2, "k": 1, "coeff": "1"},
            {"i": 2, "j": 1, "k": 1, "coeff": "-1"},
        ]
        A = parse_scenario(s1_scenario_dict(structure=items)).algebroid
        assert list(A.structure) == [(0, 1, 0)]

    @pytest.mark.parametrize("text", ["2.5", "1e3", " 2 ", "1_000", "1e4000000", "1/2/3", "0x10", "", "½"])
    def test_rational_outside_the_grammar_rejected(self, text):
        data = s1_scenario_dict()
        data["phi"]["matrix"][0][0] = text
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert err.value.path == "$.phi.matrix[0][0]"

    @pytest.mark.parametrize(
        "value, expected",
        [("3", 3), ("-3/2", Fraction(-3, 2)), ("+4/6", Fraction(2, 3)), ("007", 7), (5, 5)],
    )
    def test_rational_grammar_accepted(self, value, expected):
        data = s1_scenario_dict()
        data["phi"]["matrix"][0][0] = value
        assert parse_scenario(data).algebroid.phi.matrix[0][0] == expected

    def test_bad_pi_indices(self):
        with pytest.raises(ScenarioError) as err:
            parse_scenario(s1_scenario_dict(pi=[{"i": 2, "j": 1, "coeff": "1"}]))
        assert "$.pi[0]" in str(err.value)

    def test_polynomial_twist_determinant_rejected(self):
        data = s1_scenario_dict()
        data["phiA_matrix"] = [[[{"exp": [1, 0], "coeff": "1"}], "0"], ["0", "1"]]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert "$.phiA_matrix" in str(err.value)

    def test_determinant_error_renders_the_declared_names(self):
        data = s1_scenario_dict(vars=["u", "v"])
        data["phiA_matrix"] = [[[{"exp": [0, 1], "coeff": "1"}], "0"], ["0", "1"]]
        with pytest.raises(ScenarioError) as err:
            parse_scenario(data)
        assert str(err.value) == "$.phiA_matrix: determinant v is not a nonzero rational constant"
        assert not hasattr(parse_scenario(s1_scenario_dict()), "vars")

    def test_singular_base_map_rejected(self):
        data = s1_scenario_dict()
        data["phi"]["matrix"] = [["1", "1"], ["1", "1"]]
        with pytest.raises(ScenarioError):
            parse_scenario(data)

    def test_polynomial_entries(self):
        data = s1_scenario_dict(
            pi=[{"i": 1, "j": 2, "coeff": [{"exp": [1, 0], "coeff": "1"}]}]
        )
        scn = parse_scenario(data)
        assert scn.pi is not None
        assert not scn.pi.table.is_zero()


X20000 = [{"exp": [20000, 0], "coeff": "1"}]
S1_PHI = [["2", "0"], ["0", "1/2"]]
S1_H = [["0", "1"], ["-1", "0"]]
S1_SPAN = [["1", "0", "0", "0"], ["0", "1", "0", "0"]]
TWIST_OVERFLOW = "a product has an exponent of 32768 or more"

# (id, scenario JSON value, path, message): one malformed scenario per
# refusal of the parser, plus cases where two checks could fire, to pin
# which fires first
REFUSALS = [
    ("not-an-object", [], "$", "scenario must be a JSON object"),
    ("top-unknown-keys", s1_scenario_dict(bogus=1, other=2), "$", "unknown keys ['bogus', 'other']"),
    ("top-unknown-before-missing", {"bogus": 1}, "$", "unknown keys ['bogus']"),
    (
        "top-missing-key",
        {k: v for k, v in s1_scenario_dict().items() if k != "rank"},
        "$",
        "missing required key 'rank'",
    ),
    ("n", s1_scenario_dict(n=0), "$.n", "n must be a positive integer"),
    ("vars", s1_scenario_dict(vars=["x"]), "$.vars", "expected 2 variable names"),
    ("phi-not-an-object", s1_scenario_dict(phi=[]), "$.phi", "expected an object"),
    ("phi-unknown-keys", s1_scenario_dict(phi={"matrix": S1_PHI, "scale": 1}), "$.phi", "unknown keys ['scale']"),
    ("phi-unknown-before-missing", s1_scenario_dict(phi={"scale": 1}), "$.phi", "unknown keys ['scale']"),
    ("phi-missing-matrix", s1_scenario_dict(phi={"offset": ["0", "0"]}), "$.phi", "missing matrix"),
    ("phi-rows", s1_scenario_dict(phi={"matrix": [["2", "0"]]}), "$.phi.matrix", "expected 2 rows"),
    ("phi-row-length", s1_scenario_dict(phi={"matrix": [["2", "0"], ["0"]]}), "$.phi.matrix[1]", "expected 2 entries"),
    (
        "phi-offset-length",
        s1_scenario_dict(phi={"matrix": S1_PHI, "offset": ["0"]}),
        "$.phi.offset",
        "expected 2 entries",
    ),
    (
        "phi-singular",
        s1_scenario_dict(phi={"matrix": [["1", "1"], ["1", "1"]]}),
        "$.phi.matrix",
        "matrix is singular over the rationals",
    ),
    (
        "rational-type",
        s1_scenario_dict(phi={"matrix": [[2.5, "0"], ["0", "1"]]}),
        "$.phi.matrix[0][0]",
        "expected a rational string or integer, got 2.5",
    ),
    (
        "rational-grammar",
        s1_scenario_dict(phi={"matrix": S1_PHI, "offset": ["0", "2.5"]}),
        "$.phi.offset[1]",
        "bad rational '2.5': expected [+-]p or [+-]p/q in decimal digits",
    ),
    (
        "rational-zero-denominator",
        s1_scenario_dict(phi={"matrix": [["2/0", "0"], ["0", "1"]]}),
        "$.phi.matrix[0][0]",
        "bad rational '2/0': zero denominator",
    ),
    (
        "rational-too-many-digits",
        s1_scenario_dict(phi={"matrix": [["1", "1" * 5000], ["0", "1"]]}),
        "$.phi.matrix[0][1]",
        f"bad rational '{'1' * 39}... (5002 characters): too many digits",
    ),
    ("rank", s1_scenario_dict(rank=0), "$.rank", "rank must be a positive integer"),
    ("matrix-rows", s1_scenario_dict(phiA_matrix=[["1/2", "0"]]), "$.phiA_matrix", "expected 2 rows"),
    (
        "matrix-row-length",
        s1_scenario_dict(anchor_matrix=[["1", "0"], ["1"]]),
        "$.anchor_matrix[1]",
        "expected 2 entries",
    ),
    (
        "poly-type",
        s1_scenario_dict(anchor_matrix=[[{"exp": [0, 0]}, "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0]",
        "expected a rational or a list of terms",
    ),
    (
        "term-not-an-object",
        s1_scenario_dict(anchor_matrix=[[["1"], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0]",
        "expected a term object",
    ),
    (
        "term-unknown-keys",
        s1_scenario_dict(anchor_matrix=[[[{"exp": [0, 0], "coeff": "1", "deg": 0}], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0]",
        "unknown keys ['deg']",
    ),
    (
        "term-unknown-before-missing",
        s1_scenario_dict(anchor_matrix=[[[{"deg": 0}], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0]",
        "unknown keys ['deg']",
    ),
    (
        "term-missing-coeff",
        s1_scenario_dict(anchor_matrix=[[[{"exp": [0, 0]}], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0]",
        "term needs exp and coeff",
    ),
    (
        "term-exponent-count",
        s1_scenario_dict(anchor_matrix=[[[{"exp": [0], "coeff": "1"}], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0].exp",
        "expected 2 non-negative integer exponents",
    ),
    (
        "term-exponent-limit",
        s1_scenario_dict(anchor_matrix=[[[{"exp": [0, 32768], "coeff": "1"}], "0"], ["0", "1"]]),
        "$.anchor_matrix[0][0][0].exp",
        "exponents must be below 32768",
    ),
    (
        "determinant-overflow",
        s1_scenario_dict(phiA_matrix=[[X20000, "0"], ["0", X20000]]),
        "$.phiA_matrix",
        f"determinant: {TWIST_OVERFLOW}",
    ),
    ("structure-not-a-list", s1_scenario_dict(structure={}), "$.structure", "expected a list"),
    ("structure-not-an-object", s1_scenario_dict(structure=[1]), "$.structure[0]", "expected an object"),
    (
        "structure-unknown-keys",
        s1_scenario_dict(structure=[{"i": 1, "j": 2, "k": 1, "coeff": "1", "l": 1}]),
        "$.structure[0]",
        "unknown keys ['l']",
    ),
    (
        "structure-unknown-before-index",
        s1_scenario_dict(structure=[{"l": 1}]),
        "$.structure[0]",
        "unknown keys ['l']",
    ),
    (
        "structure-index",
        s1_scenario_dict(structure=[{"i": 3, "j": 2, "k": 1, "coeff": "1"}]),
        "$.structure[0].i",
        "expected a frame index in 1..2",
    ),
    (
        "structure-missing-coeff",
        s1_scenario_dict(structure=[{"i": 1, "j": 2, "k": 1}]),
        "$.structure[0]",
        "missing coeff",
    ),
    ("pi-not-a-list", s1_scenario_dict(pi={}), "$.pi", "expected a list of bivector terms"),
    ("pi-not-an-object", s1_scenario_dict(pi=[1]), "$.pi[0]", "expected an object"),
    (
        "pi-unknown-keys",
        s1_scenario_dict(pi=[{"i": 1, "j": 2, "k": 1, "coeff": "1"}]),
        "$.pi[0]",
        "unknown keys ['k']",
    ),
    (
        "pi-indices",
        s1_scenario_dict(pi=[{"i": 2, "j": 1, "coeff": "1"}]),
        "$.pi[0]",
        "expected indices with 1 <= i < j <= 2",
    ),
    ("pi-missing-coeff", s1_scenario_dict(pi=[{"i": 1, "j": 2}]), "$.pi[0]", "missing coeff"),
    ("N-rows", s1_scenario_dict(N=[["1", "0"]]), "$.N", "expected 2 rows"),
    ("dual-name", s1_scenario_dict(dual="other"), "$.dual", "expected 'trivial', 'from_pi' or an object"),
    ("dual-type", s1_scenario_dict(dual=1), "$.dual", "expected 'trivial', 'from_pi' or an object"),
    ("dual-from-pi-without-pi", s1_scenario_dict(dual="from_pi"), "$.dual", "'from_pi' needs a pi key"),
    ("dual-unknown-keys", s1_scenario_dict(dual={"structure": [], "x": 1}), "$.dual", "unknown keys ['x']"),
    ("dual-anchor-rows", s1_scenario_dict(dual={"anchor": [["0", "0"]]}), "$.dual.anchor", "expected 2 rows"),
    (
        "dual-twist-overflow",
        s1_scenario_dict(
            rank=3,
            phiA_matrix=[["1", X20000, "0"], ["0", "1", X20000], ["0", "0", "1"]],
            anchor_matrix=[["1", "0", "0"], ["0", "1", "0"]],
            dual={"structure": []},
        ),
        "$.dual",
        f"dual twist: {TWIST_OVERFLOW}",
    ),
    ("dirac-not-an-object", s1_scenario_dict(dirac=[]), "$.dirac", "expected an object"),
    ("dirac-type", s1_scenario_dict(dirac={"type": "cone"}), "$.dirac.type", "expected 'graph' or 'span'"),
    ("dirac-type-before-unknown", s1_scenario_dict(dirac={"x": 1}), "$.dirac.type", "expected 'graph' or 'span'"),
    (
        "graph-unknown-keys",
        s1_scenario_dict(dirac={"type": "graph", "H": S1_H, "x": 1}),
        "$.dirac",
        "unknown keys ['x']",
    ),
    (
        "graph-with-generators",
        s1_scenario_dict(dirac={"type": "graph", "generators": S1_SPAN}),
        "$.dirac",
        "unknown keys ['generators']",
    ),
    ("graph-missing-H", s1_scenario_dict(dirac={"type": "graph"}), "$.dirac", "graph needs an H matrix"),
    ("graph-H-rows", s1_scenario_dict(dirac={"type": "graph", "H": [["0", "1"]]}), "$.dirac.H", "expected 2 rows"),
    (
        "span-unknown-keys",
        s1_scenario_dict(dirac={"type": "span", "generators": S1_SPAN, "x": 1}),
        "$.dirac",
        "unknown keys ['x']",
    ),
    (
        "span-with-H",
        s1_scenario_dict(dirac={"type": "span", "H": S1_H}),
        "$.dirac",
        "unknown keys ['H']",
    ),
    ("span-missing-generators", s1_scenario_dict(dirac={"type": "span"}), "$.dirac.generators", "expected 2 generators"),
    (
        "span-generator-count",
        s1_scenario_dict(dirac={"type": "span", "generators": S1_SPAN[:1]}),
        "$.dirac.generators",
        "expected 2 generators",
    ),
    (
        "span-row-length",
        s1_scenario_dict(dirac={"type": "span", "generators": [["1", "0", "0"], S1_SPAN[1]]}),
        "$.dirac.generators[0]",
        "expected 4 coefficients",
    ),
    (
        "span-entry",
        s1_scenario_dict(dirac={"type": "span", "generators": [S1_SPAN[0], ["0", "1", "0", "x"]]}),
        "$.dirac.generators[1][3]",
        "bad rational 'x': expected [+-]p or [+-]p/q in decimal digits",
    ),
    (
        "probe-degree-zero",
        s1_scenario_dict(probe_degree=0),
        "$.probe_degree",
        "expected an integer >= 1 (the x_j*e_i probes are needed)",
    ),
    (
        "probe-degree-limit",
        s1_scenario_dict(probe_degree=32768),
        "$.probe_degree",
        "expected an integer below 32768 (x_1^d must fit a monomial key)",
    ),
    ("hierarchy-depth", s1_scenario_dict(hierarchy_depth=-1), "$.hierarchy_depth", "expected a non-negative integer"),
    ("tasks-empty", s1_scenario_dict(tasks=[]), "$.tasks", "expected a non-empty list"),
    ("task-name", s1_scenario_dict(tasks=["check_axioms", 1]), "$.tasks[1]", "expected a task name"),
]


class TestParserMessages:
    @pytest.mark.parametrize(
        "data, path, message", [case[1:] for case in REFUSALS], ids=[case[0] for case in REFUSALS]
    )
    def test_refusal_prints_its_path_and_message(self, tmp_path, capsys, data, path, message):
        from homlie.cli import main

        p = tmp_path / "bad.json"
        p.write_text(json.dumps(data))
        assert main(["check", str(p)]) == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err == f"scenario error: {path}: {message}\n"


class TestRunScenario:
    def test_s0_passes(self):
        scn = load_scenario(str(SCENARIOS / "s0_axioms.json"))
        report = run_scenario(scn)
        assert report["verdict"] == "pass"

    def test_bad_pi_fails_with_witness(self):
        scn = load_scenario(str(SCENARIOS / "s1_bad_pi.json"))
        report = run_scenario(scn)
        assert report["verdict"] == "fail"
        entries = {e["task"]: e for e in report["tasks"]}
        assert entries["check_axioms"]["verdict"] == "pass"
        bad = entries["is_hom_poisson"]
        assert bad["verdict"] == "fail"
        assert bad["witness"]["residual"] == "(x) e[1,2]"

    def test_single_task_reproduces_failure(self):
        scn = load_scenario(str(SCENARIOS / "s1_bad_pi.json"))
        report = run_scenario(scn, tasks=["is_hom_poisson"])
        assert report["verdict"] == "fail"
        assert report["tasks"][0]["witness"]["residual"] == "(x) e[1,2]"

    def test_task_missing_data_fails(self):
        scn = parse_scenario(s1_scenario_dict(tasks=["is_hom_poisson"]))
        report = run_scenario(scn)
        assert report["verdict"] == "fail"

    @pytest.mark.parametrize(
        "name, refusals",
        [
            ("s0_axioms", {"a pi": 12, "an N": 3}),
            ("s1_bad_pi", {"an N": 7}),
        ],
    )
    def test_every_task_refuses_exactly_when_its_data_is_missing(self, name, refusals):
        # each task run alone: it refuses, with a witness that names the
        # missing key, exactly when one of the attributes it declares is
        # unset
        from homlie.cli import TASKS

        scn = load_scenario(str(SCENARIOS / f"{name}.json"))
        missing = {}
        for task, fn in TASKS.items():
            entry = run_scenario(scn, [task])["tasks"][0]
            residual = entry.get("witness", {}).get("residual", "")
            key = re.fullmatch(r"task needs (a pi|an N) key in the scenario", residual)
            assert (key is not None) == any(getattr(scn, a) is None for a in fn.needs), task
            if key is not None:
                assert entry["verdict"] == "fail"
                assert entry["witness"] == {"identity": task, "inputs": {}, "residual": residual}
                missing[key.group(1)] = missing.get(key.group(1), 0) + 1
        assert missing == refusals

    REFUSED = ("fail", "task needs a pi key in the scenario")
    PI_SHARP = ("pass", {"skew": "True"})
    IDENTITY = {"type": "graph", "H": [["1", "0"], ["0", "1"]]}
    SPAN = {"type": "span", "generators": [["1", "0", "1", "0"], ["0", "1", "0", "1"]]}

    @pytest.mark.parametrize(
        "pi, dirac, dirac_checks, graph_theorem",
        [
            (False, None, REFUSED, REFUSED),
            (True, None, ("pass", None), PI_SHARP),
            (False, IDENTITY, ("fail", "is_isotropic"), ("pass", {"skew": "False"})),
            (True, IDENTITY, ("fail", "is_isotropic"), ("pass", {"skew": "False"})),
            (False, SPAN, ("fail", "is_isotropic"), REFUSED),
            (True, SPAN, ("fail", "is_isotropic"), PI_SHARP),
        ],
        ids=["nothing", "pi", "graph", "graph-and-pi", "span", "span-and-pi"],
    )
    def test_dirac_tasks_check_the_resolved_source(self, pi, dirac, dirac_checks, graph_theorem):
        # on S1, pi's sharp map passes both checks, the identity graph
        # is not isotropic and not skew, and the span is not isotropic:
        # each report shows which source its task read
        data = json.loads((SCENARIOS / "s1_full.json").read_text())
        if not pi:
            del data["pi"]
        if dirac is not None:
            data["dirac"] = dirac
        report = run_scenario(parse_scenario(data), ["dirac_checks", "graph_theorem_check"])
        seen = []
        for entry in report["tasks"]:
            if entry["verdict"] == "pass":
                skew = entry.get("details", {}).get("skew")
                seen.append(("pass", None if skew is None else {"skew": skew}))
            elif entry["witness"]["identity"] == entry["task"]:
                assert entry["witness"]["inputs"] == {}
                seen.append(("fail", entry["witness"]["residual"]))
            else:
                seen.append(("fail", entry["witness"]["identity"]))
        assert seen == [dirac_checks, graph_theorem]


class TestRepeatedWork:
    """Values that do not change inside a task are computed once."""

    @staticmethod
    def counted(monkeypatch, module, name):
        calls = []
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
        return calls

    @staticmethod
    def computations(monkeypatch):
        """The (context, key, build) of every CartanContext.once value
        computed from now on, in the order computed."""
        done = []
        original = CartanContext.once

        def once(ctx, key, build):
            def recorded():
                done.append((ctx, key, build))
                return build()

            return original(ctx, key, recorded)

        monkeypatch.setattr(CartanContext, "once", once)
        return done

    @staticmethod
    def count(done, name):
        return sum(key[0] == name for _, key, _ in done)

    @staticmethod
    def hierarchy(nijenhuis, scn):
        """The hierarchy task's call: probe degree 1, the result only."""
        ctx = CartanContext(scn.algebroid)
        return nijenhuis.hierarchy(ctx, scn.pi, scn.endo, scn.hierarchy_depth, 1)[1]

    def test_pi_pi_self_bracket_once_per_task(self, monkeypatch):
        from homlie import poisson

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        calls = self.counted(monkeypatch, poisson, "schouten")
        assert poisson.pi_pi_identity(CartanContext(scn.algebroid), scn.pi).passed
        assert len(calls) == 1

    def test_hpn_equivalence_reuses_preconditions(self, monkeypatch):
        from homlie import nijenhuis

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        done = self.computations(monkeypatch)
        res = nijenhuis.hpn_bialgebroid_equiv(CartanContext(scn.algebroid), scn.pi, scn.endo, 1)
        assert res.passed
        assert res.details == {"is-hpn": True, "deformed-dual": True, "dual-deformed": True}
        assert self.count(done, "is_hom_poisson") == 1
        assert self.count(done, "is_hom_nijenhuis") == 1

    DUAL_TASKS = [
        "check_dual_algebroid",
        "check_bialgebroid_pair",
        "hpn_bialgebroid_equiv",
        "bialgebroid_defect_checks",
    ]

    def test_dual_algebroid_built_once_per_scenario(self, monkeypatch):
        from homlie import poisson

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        builds = self.counted(monkeypatch, poisson, "_dual_data")
        report = run_scenario(scn, self.DUAL_TASKS)
        assert [t["verdict"] for t in report["tasks"]] == ["pass"] * 4
        assert len(builds) == 1

    def test_non_poisson_pi_refused_by_every_dual_task(self):
        data = json.loads((SCENARIOS / "s1_full.json").read_text())
        data["pi"] = json.loads((SCENARIOS / "s1_bad_pi.json").read_text())["pi"]
        report = run_scenario(parse_scenario(data), self.DUAL_TASKS)
        assert [t["verdict"] for t in report["tasks"]] == ["fail"] * 4
        witnesses = [t["witness"] for t in report["tasks"]]
        assert witnesses[0]["identity"] == "twist-invariance"
        assert all(w == witnesses[0] for w in witnesses)

    def test_hierarchy_preconditions_once_per_stage_and_power(self, monkeypatch):
        from homlie import nijenhuis

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        done = self.computations(monkeypatch)
        assert self.hierarchy(nijenhuis, scn).passed
        # stages 0..3 and powers 0..3 at depth 3; the base check at
        # degree 1 is the stage-0 and power-1 check of the sweep
        assert scn.hierarchy_depth == 3
        assert self.count(done, "is_hom_poisson") == 4
        assert self.count(done, "is_hom_nijenhuis") == 4

    def test_hierarchy_reuses_its_base_check(self, monkeypatch):
        from homlie import nijenhuis

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        done = self.computations(monkeypatch)
        assert self.hierarchy(nijenhuis, scn).passed
        # 4 stages by 4 powers; the base check is stage 0, power 1
        assert self.count(done, "hpn") == 16

    # verdicts a full run computes: the four hierarchy stages and the
    # four powers of N, each at degree 1 (d_n_props, is_hom_nijenhuis,
    # is_hpn and the hierarchy base share (N, 1)), and check_bialgebroid
    # on (A, A*_pi), (A_N, A*_pi) and the task's pair, which from_pi
    # makes (A, A*_pi) again
    @pytest.mark.parametrize(
        "name, bialgebroid", [("s1_full", 3), ("s1_from_pi", 2)], ids=["trivial", "from_pi"]
    )
    def test_full_run_computes_each_verdict_once(self, monkeypatch, name, bialgebroid):
        scn = load_scenario(str(SCENARIOS / f"{name}.json"))
        done = self.computations(monkeypatch)
        assert run_scenario(scn, ["full"])["verdict"] == "pass"
        assert self.count(done, "is_hom_poisson") == 4
        assert self.count(done, "is_hom_nijenhuis") == 4
        assert self.count(done, "check_bialgebroid") == bialgebroid

    @pytest.mark.parametrize("name", ["s1_full", "s1_from_pi", "s3_nonpoisson_pi"])
    def test_stored_verdicts_equal_fresh_ones(self, monkeypatch, name):
        # a caller that mutated a stored CheckResult would show here
        done = self.computations(monkeypatch)
        run_scenario(load_scenario(str(SCENARIOS / f"{name}.json")), ["full"])
        checked = 0
        for ctx, key, build in done:
            if key[0] in ("is_hom_poisson", "is_hom_nijenhuis", "check_bialgebroid", "hpn"):
                stored = ctx.once(key, lambda: pytest.fail(f"{key[0]} not stored"))
                assert stored == build(), key[0]
                checked += 1
        assert checked

    def test_a_refusal_is_not_stored(self, monkeypatch):
        from homlie import nijenhuis
        from homlie.report import PreconditionError, TheoremViolation

        ctx = CartanContext(load_scenario(str(SCENARIOS / "s1_full.json")).algebroid)
        builds = []

        def refuse(error):
            builds.append(error)
            raise error("refused")

        for error in (PreconditionError, TheoremViolation):
            for _ in range(2):
                with pytest.raises(error):
                    ctx.once(("refusal", error), lambda: refuse(error))
        assert builds == [PreconditionError] * 2 + [TheoremViolation] * 2

        # a checker that raises is recomputed on the next call; the
        # context is new, so no verdict stored before the patch is read
        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        ctx = CartanContext(scn.algebroid)
        monkeypatch.setattr(nijenhuis, "_commutes_with_twist", lambda *args: False)
        for _ in range(2):
            with pytest.raises(TheoremViolation, match="disagrees with invariance"):
                nijenhuis.is_hom_nijenhuis(ctx, scn.endo)
        monkeypatch.undo()
        assert nijenhuis.is_hom_nijenhuis(ctx, scn.endo).passed

    def test_is_hpn_evaluates_the_compatibility_tensor_once(self, monkeypatch):
        from homlie import nijenhuis, probes

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        calls = self.counted(monkeypatch, nijenhuis, "_compat_tensor")
        res = nijenhuis.is_hpn(CartanContext(scn.algebroid), scn.pi, scn.endo, 2)
        assert res.passed and res.details["cond-compat-tensor"] is True
        assert len(calls) == len(probes.coframes(scn.algebroid, 1)) ** 2

    def full_run(self, name="s1_full"):
        scn = load_scenario(str(SCENARIOS / f"{name}.json"))
        assert run_scenario(scn, ["full"])["verdict"] == "pass"
        return scn

    def test_full_run_computes_each_hpn_fact_once(self, monkeypatch):
        done = self.computations(monkeypatch)
        self.full_run()
        # the 4 stages by 4 powers of the hierarchy at degree 1; is_hpn
        # (degree 2, whose probes stop at 1), the hierarchy's base check
        # and hpn_bialgebroid_equiv read the stage-0, power-1 fact
        assert self.count(done, "hpn") == 16

    def test_sharp_commutation_residual_once_per_fact(self, monkeypatch):
        from homlie import nijenhuis

        calls = self.counted(monkeypatch, nijenhuis, "_sharp_commutation_residual")
        self.full_run()
        # one per computed hpn fact, and one for is_hpn's equivalent
        # formulations
        assert len(calls) == 16 + 1

    def test_lie_derivative_tensor_once_per_covector(self, monkeypatch):
        from homlie import nijenhuis, probes

        calls = self.counted(monkeypatch, nijenhuis, "lie_derivative_tensor")
        scn = self.full_run()
        # the derivative tensor of is_hpn's equivalent formulations, on
        # the 6 probe covectors at degree 1
        assert len(calls) == len(probes.coframes(scn.algebroid, 1)) == 6

    def test_wedge_rule_defect_once_per_triple_and_pair(self, monkeypatch):
        from homlie import nijenhuis

        # the identity whose cases are running, and the identity of each
        # defect call
        running, calls = [], []
        original_cases = nijenhuis.first_nonzero
        original_defect = nijenhuis.bialgebroid_defect

        def labelled(identity, cases):
            running.append(identity)
            try:
                return original_cases(identity, cases)
            finally:
                running.pop()

        def counting(ctx, pi, N):
            defect = original_defect(ctx, pi, N)

            def counted(xi1, xi2):
                calls.append(running[-1] if running else None)
                return defect(xi1, xi2)

            return counted

        monkeypatch.setattr(nijenhuis, "first_nonzero", labelled)
        monkeypatch.setattr(nijenhuis, "bialgebroid_defect", counting)
        self.full_run()
        # 6 probe covectors at degree 1: the left side once per triple,
        # and D(alpha, beta) once per ordered pair; graded antisymmetry
        # reads the same pairs
        assert calls.count("defect-wedge-rule") == 6**3 + 6**2 == 252
        assert calls.count("defect-graded-antisymmetry") == 0

    def test_d_n_props_checks_twist_invariance_once(self, monkeypatch):
        from homlie import nijenhuis

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        labels = []
        original = nijenhuis.twist_invariance

        def counted(label, *args):
            labels.append(label)
            return original(label, *args)

        monkeypatch.setattr(nijenhuis, "twist_invariance", counted)
        assert nijenhuis.d_n_props(CartanContext(scn.algebroid), scn.endo, scn.probe_degree).passed
        assert labels == ["N"]

    def test_deformed_algebroid_built_once_per_context_and_endo(self, monkeypatch):
        from homlie import nijenhuis

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        builds = self.counted(monkeypatch, nijenhuis, "_deformed_data")
        tasks = ["d_n_props", "hpn_bialgebroid_equiv", "bialgebroid_defect_checks"]
        report = run_scenario(scn, tasks)
        assert [t["verdict"] for t in report["tasks"]] == ["pass"] * 3
        assert len(builds) == 1


class TestOneContextPerAlgebroid:
    """Every caller shares the one CartanContext of an algebroid object."""

    @staticmethod
    def built_contexts(monkeypatch):
        """The distinct contexts that CartanContext(...) calls return."""
        from homlie.calculus import CartanContext

        returned = []
        original = CartanContext.__new__

        def recorded(cls, algebroid):
            returned.append(original(cls, algebroid))
            return returned[-1]

        monkeypatch.setattr(CartanContext, "__new__", recorded)
        # the list keeps every context alive, so no id is reused
        return lambda: list({id(c): c for c in returned}.values())

    def test_full_run_builds_one_context_per_algebroid_object(self, monkeypatch):
        built = self.built_contexts(monkeypatch)
        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        report = run_scenario(scn, ["full"])
        assert report["verdict"] == "pass"
        # the scenario algebroid, the pi-dual, the deformation by N and
        # the zero dual of the trivial pair
        assert len({id(c.algebroid) for c in built()}) == 4
        assert len(built()) == 4

    def test_defect_checks_share_the_callers_context(self, monkeypatch):
        from homlie.calculus import CartanContext
        from homlie.nijenhuis import bialgebroid_defect_checks

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        built = self.built_contexts(monkeypatch)
        assert bialgebroid_defect_checks(CartanContext(scn.algebroid), scn.pi, scn.endo).passed
        # the algebroid, its pi-dual and its deformation by N
        assert len(built()) == 3

    def test_constructor_returns_the_stored_context(self):
        from homlie.calculus import CartanContext
        from homlie.fixtures import algebroid_s1

        A = algebroid_s1()
        ctx = CartanContext(A)
        assert CartanContext(A) is ctx
        assert ctx.algebroid is A and A._context is ctx
        # another algebroid object, even an equal one, has its own
        assert CartanContext(algebroid_s1()) is not ctx
        assert CartanContext(A) is ctx

    def test_pairs_share_the_derived_contexts(self, monkeypatch):
        from homlie import nijenhuis, poisson
        from homlie.calculus import CartanContext
        from homlie.courant import BialgebroidPair

        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        ctx = CartanContext(scn.algebroid)
        P = BialgebroidPair.from_pi(ctx, scn.pi)
        assert P.ctx is ctx
        assert P.dual_ctx is poisson._dual_context(ctx, scn.pi)

        pairs = []

        def recorded(A, Astar):
            pairs.append(BialgebroidPair(A, Astar))
            return pairs[-1]

        monkeypatch.setattr(nijenhuis, "BialgebroidPair", recorded)
        assert nijenhuis.hpn_bialgebroid_equiv(ctx, scn.pi, scn.endo).passed
        assert len(pairs) == 1
        assert pairs[0].ctx is nijenhuis._deformed_context(ctx, scn.endo)
        assert pairs[0].dual_ctx is poisson._dual_context(ctx, scn.pi)


class TestFullExpansion:
    """"full" runs, in TASKS order, every task whose data the scenario
    holds."""

    def test_shipped_scenarios_expand_by_their_data(self):
        from homlie import cli

        full = {
            name: cli._expand_tasks(load_scenario(str(SCENARIOS / f"{name}.json")), ["full"])
            for name in ("s0_axioms", "s1_bad_pi", "s1_full")
        }
        assert full["s0_axioms"] == [
            "check_axioms",
            "check_differential_props",
            "check_bialgebroid",
            "check_courant_axioms",
            "jacobiator",
        ]
        # s1_full holds pi and N, so every task runs; s1_bad_pi has no N
        assert full["s1_full"] == list(cli.TASKS)
        needs_endo = {
            "is_hom_nijenhuis",
            "lemma_checks",
            "d_n_props",
            "is_hpn",
            "hierarchy",
            "hpn_bialgebroid_equiv",
            "bialgebroid_defect_checks",
        }
        assert full["s1_bad_pi"] == [t for t in cli.TASKS if t not in needs_endo]

    def test_an_explicit_full_expands_like_the_scenarios_own(self):
        from homlie import cli

        explicit = run_scenario(load_scenario(str(SCENARIOS / "s1_full.json")), ["full"])
        scn = load_scenario(str(SCENARIOS / "s1_full.json"))
        scn.tasks = ["full"]
        assert explicit == run_scenario(scn)
        assert [t["task"] for t in explicit["tasks"]] == list(cli.TASKS)

    @pytest.mark.parametrize("name", ["s0_axioms", "s1_bad_pi", "s1_full"])
    def test_a_task_run_alone_reports_what_full_reports(self, name):
        # the pair and the double a task finds in scn.cache, and its own
        # operator-cache scope, must not depend on the tasks before it
        path = str(SCENARIOS / f"{name}.json")
        full = run_scenario(load_scenario(path), ["full"])["tasks"]
        for entry in full:
            alone = run_scenario(load_scenario(path), [entry["task"]])["tasks"]
            assert alone == [entry], entry["task"]

    @pytest.mark.parametrize(
        "dirac, expected",
        [
            (
                {"type": "graph", "H": [["0", "1"], ["-1", "0"]]},
                ["dirac_checks", "graph_theorem_check"],
            ),
            (
                {"type": "span", "generators": [["0", "-1", "1", "0"], ["1", "0", "0", "1"]]},
                ["dirac_checks"],
            ),
        ],
        ids=["graph", "span"],
    )
    def test_dirac_without_pi_runs_only_supported_tasks(self, tmp_path, capsys, dirac, expected):
        from homlie.cli import main

        path = tmp_path / "dirac.json"
        path.write_text(json.dumps(s1_scenario_dict(dirac=dirac, tasks=["full"])))
        code = main(["check", str(path), "--format", "json"])
        report = json.loads(capsys.readouterr().out)
        assert [t["task"] for t in report["tasks"]] == [
            "check_axioms",
            "check_differential_props",
            "check_bialgebroid",
            "check_courant_axioms",
            "jacobiator",
        ] + expected
        assert report["verdict"] == "pass"
        assert code == 0


class TestDegreePolicy:
    """Each task probes at the scenario's degree, lowered to the cap its
    `_task` entry declares."""

    # the checkers the tasks call with a probe degree, as their last
    # positional argument
    CHECKERS = (
        "check_axioms",
        "check_differential_props",
        "sharp_commutes",
        "is_hom_nijenhuis",
        "lemma_checks",
        "d_n_props",
        "is_hpn",
        "hierarchy",
        "hpn_bialgebroid_equiv",
        "bialgebroid_defect_checks",
        "check_bialgebroid",
        "check_courant_axioms",
    )
    UNCAPPED = (
        "check_axioms",
        "check_differential_props",
        "sharp_commutes",
        "check_dual_algebroid",
        "is_hom_nijenhuis",
        "d_n_props",
    )
    CAPS = {
        "check_bialgebroid_pair": 2,
        "lemma_checks": 2,
        "is_hpn": 2,
        "check_bialgebroid": 2,
        "check_courant_axioms": 2,
        "hierarchy": 1,
        "hpn_bialgebroid_equiv": 1,
        "bialgebroid_defect_checks": 1,
    }

    @pytest.mark.parametrize("degree", [3, 1])
    def test_each_checker_receives_the_capped_degree(self, monkeypatch, degree):
        from homlie import cli

        received = []

        def recording(checker):
            def record(*args):
                received.append(args[-1])
                return checker(*args)

            return record

        for name in self.CHECKERS:
            monkeypatch.setattr(cli, name, recording(getattr(cli, name)))
        seen = {}
        for task in cli.TASKS:
            scn = load_scenario(str(SCENARIOS / "s1_full.json"))
            scn.probe_degree = degree
            received.clear()
            assert run_scenario(scn, [task])["verdict"] == "pass", task
            if received:
                seen[task] = received[:]
        expected = {task: [degree] for task in self.UNCAPPED}
        expected.update({task: [min(degree, cap)] for task, cap in self.CAPS.items()})
        assert seen == expected


class TestCliProcess:
    def run_cli(self, *args):
        return subprocess.run(
            [sys.executable, "-m", "homlie", *args],
            capture_output=True,
            text=True,
            cwd=str(ROOT),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_exit_zero_on_pass(self):
        out = self.run_cli("check", "scenarios/s0_axioms.json")
        assert out.returncode == 0
        assert "overall: pass" in out.stdout

    def test_exit_one_on_failure(self):
        out = self.run_cli("check", "scenarios/s1_bad_pi.json")
        assert out.returncode == 1
        assert "overall: fail" in out.stdout

    def test_exit_two_on_malformed(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = self.run_cli("check", str(bad))
        assert out.returncode == 2

    def test_exit_two_on_schema_violation(self, tmp_path):
        data = s1_scenario_dict(bogus=True)
        p = tmp_path / "schema.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "bogus" in out.stderr

    def test_byte_identical_reports(self):
        a = self.run_cli("check", "scenarios/s1_bad_pi.json", "--format", "json")
        b = self.run_cli("check", "scenarios/s1_bad_pi.json", "--format", "json")
        assert a.stdout == b.stdout
        assert a.returncode == b.returncode == 1

    def test_task_full_expands_every_supported_task(self):
        out = self.run_cli("check", "scenarios/s0_axioms.json", "--task", "full", "--format", "json")
        assert out.returncode == 0
        tasks = [e["task"] for e in json.loads(out.stdout)["tasks"]]
        assert tasks == [
            "check_axioms",
            "check_differential_props",
            "check_bialgebroid",
            "check_courant_axioms",
            "jacobiator",
        ]

    def test_exit_two_on_singular_twist(self, tmp_path):
        data = s1_scenario_dict(n=1, vars=["x"], rank=1)
        data.update(
            phi={"matrix": [["1"]]}, phiA_matrix=[["0"]], anchor_matrix=[["0"]]
        )
        p = tmp_path / "singular.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "$.phiA_matrix" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"structure": [{"i": 1, "j": 2, "k": 1}]}, "$.structure[0]"),
            ({"pi": [{"i": 1, "j": 2}]}, "$.pi[0]"),
            ({"dual": {"structure": [{"i": 1, "j": 2, "k": 1}]}}, "$.dual.structure[0]"),
            ({"dual": {"structure": [{"j": 2, "k": 1, "coeff": "1"}]}}, "$.dual.structure[0].i"),
            (
                {"dual": {"structure": [{"i": 1, "j": 3, "k": 1, "coeff": "1"}]}},
                "$.dual.structure[0].j",
            ),
            ({"dual": {"structure": [{"i": 2, "j": 2, "k": 1, "coeff": "1"}]}}, "$.dual.structure"),
        ],
        ids=[
            "structure-without-coeff",
            "pi-without-coeff",
            "dual-structure-without-coeff",
            "dual-structure-without-i",
            "dual-structure-j-out-of-range",
            "dual-structure-diagonal",
        ],
    )
    def test_exit_two_on_malformed_item(self, tmp_path, overrides, path):
        data = s1_scenario_dict(tasks=["check_bialgebroid"], **overrides)
        p = tmp_path / "item.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert f"scenario error: {path}" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize(
        "overrides, path",
        [
            ({"n": True}, "$.n"),
            ({"rank": True}, "$.rank"),
            ({"probe_degree": True}, "$.probe_degree"),
            ({"hierarchy_depth": True}, "$.hierarchy_depth"),
            ({"structure": [{"i": True, "j": 2, "k": 1, "coeff": "1"}]}, "$.structure[0].i"),
            ({"structure": [{"i": 2, "j": True, "k": 1, "coeff": "1"}]}, "$.structure[0].j"),
            ({"structure": [{"i": 1, "j": 2, "k": True, "coeff": "1"}]}, "$.structure[0].k"),
            ({"pi": [{"i": True, "j": 2, "coeff": "1"}]}, "$.pi[0]"),
            ({"pi": [{"i": 1, "j": True, "coeff": "1"}]}, "$.pi[0]"),
            (
                {"dual": {"structure": [{"i": True, "j": 2, "k": 1, "coeff": "1"}]}},
                "$.dual.structure[0].i",
            ),
            (
                {"dual": {"structure": [{"i": 2, "j": True, "k": 1, "coeff": "1"}]}},
                "$.dual.structure[0].j",
            ),
            (
                {"dual": {"structure": [{"i": 1, "j": 2, "k": True, "coeff": "1"}]}},
                "$.dual.structure[0].k",
            ),
            (
                {"anchor_matrix": [[[{"exp": [True, 0], "coeff": "1"}], "0"], ["0", "1"]]},
                "$.anchor_matrix[0][0][0].exp",
            ),
        ],
        ids=[
            "n",
            "rank",
            "probe-degree",
            "hierarchy-depth",
            "structure-i",
            "structure-j",
            "structure-k",
            "pi-i",
            "pi-j",
            "dual-structure-i",
            "dual-structure-j",
            "dual-structure-k",
            "exp",
        ],
    )
    def test_exit_two_on_boolean_integer(self, tmp_path, overrides, path):
        data = s1_scenario_dict(tasks=["check_bialgebroid"], **overrides)
        p = tmp_path / "bool.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert f"scenario error: {path}: " in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("entry", ["1" * 6000, "1" * 3000 + "/0", "1" * 6000 + ".5"])
    def test_exit_two_on_a_long_bad_rational_shows_a_prefix(self, tmp_path, entry):
        p = tmp_path / "long_rational.json"
        p.write_text(json.dumps(s1_scenario_dict(N=[[entry, "0"], ["0", "1"]])))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert out.stderr.startswith("scenario error: $.N[0][0]: bad rational '1111")
        assert f"({len(repr(entry))} characters)" in out.stderr
        assert len(out.stderr.encode()) < 200

    def test_exit_two_on_exponent_at_the_limit(self, tmp_path):
        from homlie.kernels import LIMIT

        big = [[[{"exp": [0, LIMIT], "coeff": "1"}], "0"], ["0", "1"]]
        p = tmp_path / "big.json"
        p.write_text(json.dumps(s1_scenario_dict(anchor_matrix=big)))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "scenario error: $.anchor_matrix[0][0][0].exp: " in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_exit_two_on_integer_literal_over_the_digit_limit(self, tmp_path):
        text = json.dumps(s1_scenario_dict())
        p = tmp_path / "long_int.json"
        p.write_text(text[:-1] + ', "probe_degree": ' + "1" * 5000 + "}")
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "scenario error: $: invalid JSON: " in out.stderr
        assert "Traceback" not in out.stderr

    X20000 = [{"exp": [20000, 0], "coeff": "1"}]

    @pytest.mark.parametrize(
        "overrides, path",
        [
            # each exponent is valid, but the determinant squares x^20000
            ({"phiA_matrix": [[X20000, "0"], ["0", X20000]]}, "$.phiA_matrix"),
            # det = 1, but one adjugate entry of the dual twist squares it
            (
                {
                    "rank": 3,
                    "phiA_matrix": [["1", X20000, "0"], ["0", "1", X20000], ["0", "0", "1"]],
                    "anchor_matrix": [["1", "0", "0"], ["0", "1", "0"]],
                    "dual": {"structure": []},
                },
                "$.dual",
            ),
        ],
        ids=["twist-determinant", "dual-twist"],
    )
    def test_exit_two_on_overflow_while_parsing(self, tmp_path, overrides, path):
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(s1_scenario_dict(**overrides)))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert f"scenario error: {path}: " in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_twist_overflow_errs_every_task_that_needs_it(self, tmp_path):
        # without a "dual" key the dual twist is first built inside a
        # task; each task that needs it errs the same way
        data = s1_scenario_dict(
            rank=3,
            phiA_matrix=[["1", self.X20000, "0"], ["0", "1", self.X20000], ["0", "0", "1"]],
            anchor_matrix=[["1", "0", "0"], ["0", "1", "0"]],
            pi=[{"i": 1, "j": 2, "coeff": "1"}],
            tasks=["check_differential_props", "sharp_commutes"],
        )
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--format", "json")
        assert out.returncode == 1
        assert "Traceback" not in out.stderr
        error = {"verdict": "error", "error": "a product has an exponent of 32768 or more"}
        assert json.loads(out.stdout)["tasks"] == [
            {"task": "check_differential_props", **error},
            {"task": "sharp_commutes", **error},
        ]

    def test_witness_prints_coefficients_over_the_digit_limit(self, tmp_path):
        # the residual's coefficient is about 2^20001, which has 6,021
        # digits; the interpreter refuses to print more than 4,300 by default
        data = json.loads((SCENARIOS / "s1_full.json").read_text())
        data["pi"] = [{"i": 1, "j": 2, "coeff": self.X20000}]
        p = tmp_path / "long_witness.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--task", "sharp_commutes")
        assert out.returncode == 1
        assert out.stderr == ""
        assert out.stdout.startswith("sharp_commutes: fail [sharp-twist-commutation; alpha=eps1; ")
        coeff = out.stdout.split("residual=(", 1)[1].split("*", 1)[0]
        assert coeff.isdigit() and len(coeff) > 4300

    def test_overflow_inside_a_task_is_an_error_verdict(self, tmp_path):
        # x^20000 is a valid exponent, but the anchor applied to itself
        # reaches 2^15 inside check_axioms
        data = json.loads((SCENARIOS / "s0_axioms.json").read_text())
        data["anchor_matrix"] = [[[{"exp": [20000], "coeff": "1"}]]]
        p = tmp_path / "overflow.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--format", "json")
        assert out.returncode == 1
        assert out.stderr == ""
        tasks = json.loads(out.stdout)["tasks"]
        assert tasks[0] == {
            "task": "check_axioms",
            "verdict": "error",
            "error": "a product has an exponent of 32768 or more",
        }
        assert [t["task"] for t in tasks] == ["check_axioms", "check_differential_props"]

    def test_exit_two_on_negative_probe_degree(self):
        out = self.run_cli("check", "scenarios/s0_axioms.json", "--probe-degree", "-1")
        assert out.returncode == 2
        assert "--probe-degree" in out.stderr
        assert out.stdout == ""

    def test_exit_two_on_probe_degree_at_the_key_limit(self, tmp_path):
        # refused before any probe is built: x_1^32768 fits no monomial key
        out = self.run_cli("check", "scenarios/s0_axioms.json", "--probe-degree", "32768")
        assert out.returncode == 2
        assert out.stderr.startswith("scenario error: --probe-degree: ")
        assert "Traceback" not in out.stderr
        assert out.stdout == ""
        data = json.loads((SCENARIOS / "s0_axioms.json").read_text())
        p = tmp_path / "deep.json"
        p.write_text(json.dumps(dict(data, probe_degree=32768)))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert out.stderr.startswith("scenario error: $.probe_degree: ")
        assert out.stdout == ""

    def test_timings_only_add_seconds(self):
        args = ("check", "scenarios/s1_bad_pi.json", "--task", "full")
        plain = self.run_cli(*args, "--format", "json")
        timed = self.run_cli(*args, "--format", "json", "--timings")
        assert timed.returncode == plain.returncode == 1
        report = json.loads(timed.stdout)
        for entry in report["tasks"]:
            seconds = entry.pop("seconds")
            assert isinstance(seconds, float) and seconds >= 0
        assert report == json.loads(plain.stdout)

        plain = self.run_cli(*args)
        timed = self.run_cli(*args, "--timings")
        assert timed.returncode == plain.returncode == 1
        *task_lines, overall = timed.stdout.splitlines()
        suffix = re.compile(r" \([0-9]+\.[0-9]+s\)$")
        assert task_lines and all(suffix.search(line) for line in task_lines)
        stripped = [suffix.sub("", line) for line in task_lines] + [overall]
        assert stripped == plain.stdout.splitlines()

    def test_probe_degree_zero_refused(self, tmp_path):
        # S1 with C_12^1 = x is no algebroid, but only the x_j*e_i probes
        # of degree 1 see it: at degree 0 both checkers pass
        from homlie.calculus import CartanContext, check_differential_props
        from homlie.homalg import check_axioms

        data = s1_scenario_dict(
            structure=[{"i": 1, "j": 2, "k": 1, "coeff": [{"exp": [1, 0], "coeff": "1"}]}],
            tasks=["check_axioms", "check_differential_props"],
        )
        A = parse_scenario(data).algebroid
        assert check_axioms(A, 0).passed
        assert check_differential_props(CartanContext(A), 0).passed
        p = tmp_path / "not_an_algebroid.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--probe-degree", "1")
        assert out.returncode == 1
        assert out.stdout.startswith(
            "check_axioms: fail [hom-jacobi; X=(x)*e1, Y=e1, Z=e2; residual=(-1/2*x) e[1]]\n"
        )
        out = self.run_cli("check", str(p), "--probe-degree", "0")
        assert out.returncode == 2
        assert "scenario error: --probe-degree: " in out.stderr
        assert out.stdout == ""
        p.write_text(json.dumps(dict(data, probe_degree=0)))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "scenario error: $.probe_degree: " in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("name, task", golden_cases())
    def test_json_report_matches_golden(self, name, task):
        path = GOLDEN / (name + ("_full" if task else "") + ".json")
        assert path.exists(), f"scenarios/{name}.json has no golden report {path.name}"
        golden = path.read_text()
        args = ["--task", task] if task else []
        out = self.run_cli("check", f"scenarios/{name}.json", "--format", "json", *args)
        assert out.stdout == golden
        # a failing or erring task makes the verdict "fail", which exits 1
        assert out.returncode == (0 if json.loads(golden)["verdict"] == "pass" else 1)

    def test_text_report_matches_golden(self):
        out = self.run_cli("check", "scenarios/s1_bad_pi.json", "--task", "full")
        assert out.stdout == (GOLDEN / "s1_bad_pi_full.txt").read_text()
        assert out.returncode == 1

    def test_jacobiator_failure_reports_its_triple(self, tmp_path):
        # the dual bracket [e1, e2] = e1, over the zero dual anchor, does not
        # pair with s1's algebroid, so the double's cyclic bracket sum on
        # (E1, E3, E4) misses the metric gradient
        data = json.loads((SCENARIOS / "s1_full.json").read_text())
        data["dual"] = {"structure": [{"i": 1, "j": 2, "k": 1, "coeff": "1"}]}
        data["tasks"] = ["check_bialgebroid", "jacobiator"]
        p = tmp_path / "bad_dual.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--format", "json")
        assert out.returncode == 1
        tasks = {e["task"]: e for e in json.loads(out.stdout)["tasks"]}
        assert tasks["jacobiator"]["verdict"] == "fail"
        assert tasks["jacobiator"]["witness"] == {
            "identity": "jacobiator",
            "inputs": {"triple": "(E1,E3,E4)"},
            "residual": "cyclic bracket sum does not match the metric gradient: (0, 1, 0, 0)",
        }

    def test_dual_from_pi_passes_every_task(self, tmp_path):
        data = json.loads((SCENARIOS / "s1_full.json").read_text())
        data["dual"] = "from_pi"
        data["tasks"] = ["full"]
        p = tmp_path / "from_pi.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p), "--format", "json")
        assert out.returncode == 0
        verdicts = [e["verdict"] for e in json.loads(out.stdout)["tasks"]]
        assert verdicts == ["pass"] * 20

    def test_closed_stdout_exits_without_traceback(self):
        # the read end is closed before the child writes, so every write
        # meets a broken pipe, as after `| head -c 100`
        proc = subprocess.Popen(
            [sys.executable, "-m", "homlie", "check", "scenarios/s0_axioms.json", "--format", "json"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            cwd=str(ROOT),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait() == 1
        assert err == ""

    def test_json_format_is_valid(self):
        out = self.run_cli("check", "scenarios/s0_axioms.json", "--format", "json")
        payload = json.loads(out.stdout)
        assert payload["verdict"] == "pass"

    def test_fixtures_is_not_a_subcommand(self):
        # the instances are scenario files, which `check` runs
        out = self.run_cli("fixtures")
        assert out.returncode == 2
        assert "invalid choice: 'fixtures'" in out.stderr
        assert out.stdout == ""

    def test_exit_two_on_deeply_nested_json(self, tmp_path):
        # the decoder recurses once per bracket and runs out of stack
        p = tmp_path / "nested.json"
        p.write_text("[" * 200_000 + "]" * 200_000)
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "scenario error: $: " in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""

    def test_exit_two_on_rational_outside_the_grammar(self, tmp_path):
        data = s1_scenario_dict()
        data["phi"]["offset"] = ["0", "2.5"]
        p = tmp_path / "decimal.json"
        p.write_text(json.dumps(data))
        out = self.run_cli("check", str(p))
        assert out.returncode == 2
        assert "scenario error: $.phi.offset[1]: " in out.stderr
        assert "Traceback" not in out.stderr
        assert out.stdout == ""


class TestScenarioFiles:
    def test_search_derives_the_nonpoisson_pi(self):
        scn = load_scenario(str(SCENARIOS / "s3_nonpoisson_pi.json"))
        found = oracle.search_invariant_non_poisson_bivector(CartanContext(algebroid_s3()))
        assert found.table == scn.pi.table

    @pytest.mark.parametrize("name, build", [("s2_full", algebroid_s2), ("s3_full", algebroid_s3)])
    def test_file_holds_the_benchmark_algebroid(self, name, build):
        A, B = load_scenario(str(SCENARIOS / f"{name}.json")).algebroid, build()
        assert A.phi == B.phi
        assert A.phiA.matrix == B.phiA.matrix
        assert A.anchor == B.anchor
        assert A.structure == B.structure
