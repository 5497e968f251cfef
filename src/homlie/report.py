"""Check results and witnesses shared by every verifier module.

A failing check always carries a concrete witness (the inputs and the
nonzero residual, rendered deterministically) so any reported violation
can be reproduced in isolation.
"""

from __future__ import annotations


class PreconditionError(ValueError):
    """A structural precondition failed (e.g. a non-invariant bivector
    handed to a constructor that requires invariance)."""

    def __init__(self, message: str, witness: "Witness | None" = None):
        super().__init__(message)
        self.witness = witness


class TheoremViolation(AssertionError):
    """An identity that must hold for valid inputs failed; indicates a
    broken instance or an engine bug, never normal control flow."""


class StructureError(ValueError):
    """Malformed instance data (wrong shapes, non-antisymmetric tables)."""


class _Record:
    """Value equality between instances of the same class, and a
    `Name(field=value, ...)` repr, over the fields named in `_fields`.
    Records are mutable, so they are unhashable."""

    _fields = ()
    __hash__ = None

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__name__}({shown})"


class Witness(_Record):
    _fields = ("identity", "inputs", "residual")

    def __init__(self, identity: str, inputs: dict | None = None, residual: str = ""):
        self.identity = identity
        self.inputs = {} if inputs is None else inputs
        self.residual = residual

    def render(self) -> str:
        bits = [f"identity={self.identity}"]
        for k in sorted(self.inputs):
            bits.append(f"{k}={self.inputs[k]}")
        if self.residual:
            bits.append(f"residual={self.residual}")
        return "; ".join(bits)

    def to_json(self) -> dict:
        return {
            "identity": self.identity,
            "inputs": {k: str(v) for k, v in sorted(self.inputs.items())},
            "residual": self.residual,
        }


class CheckResult(_Record):
    _fields = ("name", "passed", "witness", "details")

    def __init__(self, name: str, passed: bool, witness: Witness | None = None, details: dict | None = None):
        self.name = name
        self.passed = passed
        self.witness = witness
        self.details = {} if details is None else details

    def __bool__(self) -> bool:
        return self.passed

    def render(self) -> str:
        status = "pass" if self.passed else "FAIL"
        out = f"{self.name}: {status}"
        if self.witness is not None:
            out += f" [{self.witness.render()}]"
        if self.details:
            extras = ", ".join(f"{k}={self.details[k]}" for k in sorted(self.details))
            out += f" ({extras})"
        return out


def require(result: CheckResult, reason: str) -> CheckResult:
    """The result when it passed; otherwise a PreconditionError whose
    message is the reason followed by the rendered witness."""
    if not result.passed:
        raise PreconditionError(f"{reason}: {result.witness.render()}", result.witness)
    return result


def first_nonzero(identity: str, cases) -> CheckResult:
    """Check one identity on lazily evaluated (inputs, residual) cases.

    Consumption stops at the first nonzero residual, which fails the
    check with a witness.  Input values that are not strings (a Poly, a
    Bivector, an EndoMap) are rendered only then, so a passing check
    renders nothing.
    """
    for inputs, residual in cases:
        if not residual.is_zero():
            shown = {k: v if isinstance(v, str) else v.render() for k, v in inputs.items()}
            return CheckResult(identity, False, Witness(identity, shown, residual.render()))
    return CheckResult(identity, True)


def agreement(name: str, identity: str, verdicts: dict) -> CheckResult:
    """Passes when the boolean verdicts, keyed by label, are all equal;
    otherwise a witness under `identity` lists them.  The verdicts are
    the details either way."""
    agree = len(set(verdicts.values())) <= 1
    witness = None
    if not agree:
        shown = {k: str(v) for k, v in verdicts.items()}
        witness = Witness(identity, shown, "verdicts differ")
    return CheckResult(name, agree, witness, dict(verdicts))


def first_failure(name: str, results) -> CheckResult:
    """Merge sub-results with a fixed ordering; first failure wins."""
    merged = CheckResult(name, True)
    for res in results:
        merged.details[res.name] = "pass" if res.passed else "FAIL"
        if not res.passed and merged.passed:
            merged.passed = False
            merged.witness = res.witness
    return merged


def until_first_failure(name: str, identities) -> CheckResult:
    """Check (identity, cases) pairs in order with first_nonzero and
    stop after the first failing identity; the results run so far are
    merged by first_failure."""
    results = []
    for identity, cases in identities:
        results.append(first_nonzero(identity, cases))
        if not results[-1].passed:
            break
    return first_failure(name, results)
