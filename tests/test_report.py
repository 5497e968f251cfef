"""The one residual loop: `first_nonzero` turns lazily evaluated
(inputs, residual) cases into a check result with a witness, and
`until_first_failure` runs identities in order up to the first failure.
`require` is the one way a failed precondition refuses.  The two
records compare by value and repr as `Name(field=value, ...)`."""

import pytest

import oracle
from homlie.polyring import Poly
from homlie.report import (
    CheckResult,
    PreconditionError,
    Witness,
    first_failure,
    first_nonzero,
    require,
    until_first_failure,
)

x = Poly.variable(2, 0)
y = Poly.variable(2, 1)
zero = Poly.zero(2)


def counted(cases, seen):
    for case in cases:
        seen.append(case)
        yield case


def test_stops_consuming_after_first_nonzero_residual():
    seen = []
    cases = [({"i": "1"}, zero), ({"i": "2"}, x), ({"i": "3"}, y)]
    res = first_nonzero("id", counted(cases, seen))
    assert not res.passed
    assert len(seen) == 2
    assert res.witness.inputs == {"i": "2"}
    assert res.witness.residual == "x"


def test_poly_inputs_render_like_render():
    f = x * x * y + Poly.const(2, "1/2")
    res = first_nonzero("id", [({"f": f, "label": "e1"}, y)])
    assert res.witness.inputs == {"f": f.render(), "label": "e1"}
    assert res.render() == f"id: FAIL [identity=id; f={f.render()}; label=e1; residual=y]"


def test_other_renderable_inputs_render_on_failure():
    N = oracle.diagonal(2, [1, 2])
    res = first_nonzero("twist-invariance", [({"N": N}, N)])
    assert res.witness.inputs == {"N": N.render()}
    assert res.witness.residual == N.render()


def test_passing_inputs_are_never_rendered():
    class Unrenderable:
        def render(self):
            raise AssertionError("rendered on a passing case")

    res = first_nonzero("id", [({"f": Unrenderable()}, zero)])
    assert res.passed


def test_pass_has_no_witness_and_no_details():
    res = first_nonzero("id", [({"f": x}, zero), ({"f": y}, zero)])
    assert res == CheckResult("id", True)
    assert res.witness is None and res.details == {}
    assert res.render() == "id: pass"


def test_empty_cases_pass():
    assert first_nonzero("id", iter(())) == CheckResult("id", True)


def test_until_first_failure_stops_after_failing_identity():
    started = []

    def cases(name, residual):
        started.append(name)
        yield {}, residual

    res = until_first_failure(
        "all",
        [("a", cases("a", zero)), ("b", cases("b", x)), ("c", cases("c", zero))],
    )
    assert started == ["a", "b"]
    assert res.details == {"a": "pass", "b": "FAIL"}
    assert res.witness.identity == "b"
    assert res == first_failure("all", [CheckResult("a", True), first_nonzero("b", [({}, x)])])


def test_require_returns_a_passing_result_itself():
    res = first_nonzero("id", [({"f": x}, zero)])
    assert require(res, "never shown") is res


def test_require_refuses_a_failing_result_with_its_witness():
    res = first_nonzero("id", [({"f": x}, zero), ({"f": y}, x * y)])
    with pytest.raises(PreconditionError) as err:
        require(res, "f is not valid")
    assert err.value.witness is res.witness
    assert str(err.value) == "f is not valid: identity=id; f=y; residual=x*y"
    assert str(err.value) == "f is not valid: " + res.witness.render()



def test_each_record_gets_its_own_default_dict():
    a, b = CheckResult("a", True), CheckResult("b", True)
    a.details["x"] = "pass"
    assert a.details is not b.details and b.details == {}
    u, v = Witness("u"), Witness("v")
    u.inputs["f"] = "x"
    assert u.inputs is not v.inputs and v.inputs == {}
    assert first_failure("m", [a]).details == {"a": "pass"}
    assert CheckResult("c", True).details == {}


def test_records_compare_by_value_within_their_class():
    w = Witness("id", {"f": "x"}, "y")
    assert w == Witness("id", {"f": "x"}, "y")
    assert w != Witness("id", {"f": "x"}, "x")
    assert CheckResult("id", False, w) == CheckResult("id", False, Witness("id", {"f": "x"}, "y"))
    assert CheckResult("id", False, w) != CheckResult("id", False, Witness("id", {}, "y"))
    # a default dict filled in one record is not another record's default
    filled = CheckResult("id", True)
    filled.details["a"] = "pass"
    assert filled != CheckResult("id", True)
    named = Witness("id")
    named.inputs["f"] = "x"
    assert named != Witness("id")

    class Renamed(CheckResult):
        pass

    assert CheckResult("id", True) != Renamed("id", True)
    assert Witness("id") != CheckResult("id", True)
    with pytest.raises(TypeError):
        hash(CheckResult("id", True))


def test_records_repr_field_by_field():
    failed = first_nonzero("id", [({"f": x}, y)])
    assert repr(failed) == (
        "CheckResult(name='id', passed=False, witness=Witness(identity='id', "
        "inputs={'f': 'x'}, residual='y'), details={})"
    )
    assert repr(first_failure("all", [failed])) == (
        "CheckResult(name='all', passed=False, witness=Witness(identity='id', "
        "inputs={'f': 'x'}, residual='y'), details={'id': 'FAIL'})"
    )
    Witness("id").inputs["f"] = "x"
    assert repr(Witness("id")) == "Witness(identity='id', inputs={}, residual='')"
    assert repr(CheckResult("id", True)) == "CheckResult(name='id', passed=True, witness=None, details={})"
