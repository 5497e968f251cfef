"""The operator cache: inside an operator_cache() scope, differential,
lie_derivative_form and CourantDouble.product compute each distinct
input once; `run_scenario` opens one scope per task and closes it with
the task, whatever the task does."""

from pathlib import Path

import pytest

from homlie import calculus, cli
from homlie.calculus import CartanContext, differential, lie_derivative_form, operator_cache
from homlie.cli import run_scenario
from homlie.courant import BialgebroidPair, CourantDouble, double
from homlie.exterior import MultiVector
from homlie.fixtures import algebroid_s1
from homlie.polyring import Poly
from homlie.report import CheckResult, PreconditionError
from homlie.scenario import load_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def scope_is_open() -> bool:
    """A scope is open exactly when two differentials of equal forms
    come back as one object."""
    ctx = CartanContext(algebroid_s1())
    om = ctx.algebroid.coframe(0)
    return differential(ctx, om) is differential(ctx, om)


def test_keys_tell_kinds_shapes_and_values_apart():
    A = algebroid_s1()
    x = Poly.variable(2, 0)
    X, om = A.frame(0).scale(x), A.coframe(0).scale(x)
    assert X.key() == A.frame(0).scale(x + x - x).key()
    assert X.key() != om.key()
    assert X.key() != A.frame(0).scale(x * x).key()
    assert MultiVector.zero(2, 2, 1).key() != MultiVector.zero(2, 2, 2).key()
    E = CourantDouble(BialgebroidPair.trivial(A))
    u = E.frame_section(0).scale(x)
    assert u.key() == E.frame_section(0).scale(x).key()
    assert u.key() != E.frame_section(1).scale(x).key()


def test_outside_a_scope_every_call_computes():
    assert not scope_is_open()


def test_equal_inputs_share_one_value_inside_a_scope():
    A = algebroid_s1()
    ctx = CartanContext(A)
    X, om = A.frame(0), A.coframe(1)
    E = double(BialgebroidPair.trivial(A), verify=False)
    u, v = E.frame_section(0), E.frame_section(2)
    with operator_cache() as table:
        d = differential(ctx, om)
        L = lie_derivative_form(ctx, X, om)
        p = E.product(u, v)
        # equal inputs built as new objects hit the same entries
        assert differential(ctx, om.scale(1)) is d
        assert lie_derivative_form(ctx, A.frame(0), A.coframe(1)) is L
        assert E.product(E.frame_section(0), E.frame_section(2)) is p
        # the owner is part of the key: an equal algebroid object has a
        # context of its own
        assert differential(CartanContext(algebroid_s1()), om) is not d
        with operator_cache() as inner:
            assert inner is table
            assert differential(ctx, om) is d
        assert differential(ctx, om) is d
    assert differential(ctx, om) == d
    assert differential(ctx, om) is not d


def test_each_task_gets_a_fresh_scope_that_closes_with_it(monkeypatch):
    seen = []

    def passing(scn, degree):
        with operator_cache() as table:
            seen.append(("pass", len(table), scope_is_open()))
        return CheckResult("passing", True)

    def refused(scn, degree):
        seen.append(("refused", scope_is_open()))
        raise PreconditionError("refused on purpose")

    def crashing(scn, degree):
        seen.append(("crash", scope_is_open()))
        raise RuntimeError("crash on purpose")

    # a task list names each task once, so the second passing run is
    # the same function under a second name
    named = {"passing": passing, "passing_again": passing, "refused": refused, "crashing": crashing}
    for name, fn in named.items():
        fn.needs, fn.cap = (), None
        monkeypatch.setitem(cli.TASKS, name, fn)
    scn = load_scenario(str(SCENARIOS / "s0_axioms.json"))
    report = run_scenario(scn, ["passing", "refused", "passing_again"])
    assert [t["verdict"] for t in report["tasks"]] == ["pass", "fail", "pass"]
    # the second passing task starts from an empty table
    assert seen == [("pass", 0, True), ("refused", True), ("pass", 0, True)]
    assert not scope_is_open()
    with pytest.raises(RuntimeError, match="crash on purpose"):
        run_scenario(scn, ["crashing"])
    assert seen[-1] == ("crash", True)
    assert not scope_is_open()


def test_hierarchy_computes_each_lie_derivative_once(monkeypatch):
    computed = []
    original = calculus._lie_derivative_form

    def counted(ctx, X, eta):
        computed.append((ctx, X.key(), eta.key()))
        return original(ctx, X, eta)

    monkeypatch.setattr(calculus, "_lie_derivative_form", counted)
    report = run_scenario(load_scenario(str(SCENARIOS / "s1_full.json")), ["hierarchy"])
    assert report["verdict"] == "pass"
    # the list keeps every context alive, so no id is reused
    keys = [(id(ctx), X, eta) for ctx, X, eta in computed]
    assert len(keys) == len(set(keys)) == 684


def test_cached_values_still_equal_fresh_values_at_scope_exit(monkeypatch):
    """A caller that mutated a shared result would leave a stored value
    that differs from a fresh computation of the same input."""
    misses = []

    def recording(fn):
        def wrapper(owner, *args):
            got = fn(owner, *args)
            misses.append((fn, owner, args, got))
            return got

        return wrapper

    originals = {
        "differential": calculus._differential,
        "lie_derivative_form": calculus._lie_derivative_form,
        "product": CourantDouble._product,
    }
    monkeypatch.setattr(calculus, "_differential", recording(originals["differential"]))
    monkeypatch.setattr(
        calculus, "_lie_derivative_form", recording(originals["lie_derivative_form"])
    )
    monkeypatch.setattr(CourantDouble, "_product", recording(originals["product"]))
    report = run_scenario(load_scenario(str(SCENARIOS / "s1_full.json")))
    assert report["verdict"] == "pass"
    monkeypatch.undo()
    assert not scope_is_open()
    assert {fn for fn, *_ in misses} == set(originals.values())
    for fn, owner, args, got in misses:
        assert fn(owner, *args) == got, (fn.__name__, args)
