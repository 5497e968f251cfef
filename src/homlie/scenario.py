"""Scenario files: strict JSON schema describing an instance and the
ordered list of verification tasks to run against it.

All rationals are JSON integers or strings "p" or "p/q" with an
optional sign and decimal digits only (`RATIONAL`); polynomial
values are lists of {"exp": [...], "coeff": "p/q"} with one exponent per
declared variable, each below `kernels.LIMIT`; frame and structure indices are 1-based.  The
probe degree is an integer from 1 to `kernels.LIMIT` - 1.  Unknown
keys are rejected with their JSON path.  `tasks` must be a non-empty
list of strings; the CLI checks the names against its task table.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from functools import partial

from .exterior import EndoMap, MultiVector, SectionTwist, dual_section_twist
from .homalg import HomAlgebroid
from .kernels import LIMIT, ExponentOverflow
from .poisson import Bivector
from .polyring import AffineTwist, Poly


class ScenarioError(ValueError):
    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
        self.path = path
        self.message = message


TOP_KEYS = {
    "n",
    "vars",
    "phi",
    "rank",
    "phiA_matrix",
    "anchor_matrix",
    "structure",
    "pi",
    "N",
    "dual",
    "dirac",
    "hierarchy_depth",
    "probe_degree",
    "tasks",
}


def _require(cond, path, message):
    if not cond:
        raise ScenarioError(path, message)


def _object(value, path, keys, what="expected an object"):
    """`value`, once it is a JSON object with no key outside `keys`."""
    _require(isinstance(value, dict), path, what)
    extra = set(value) - keys
    _require(not extra, path, f"unknown keys {sorted(extra)}")
    return value


def _is_int(value) -> bool:
    """A JSON integer; true and false are bools, not integers."""
    return isinstance(value, int) and not isinstance(value, bool)


# a rational string: an optional sign, decimal digits and an optional
# "/" with a digit denominator; no spaces, points, exponents or "_"
RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _shown(value) -> str:
    """repr(value), cut to a prefix and its length when it is long."""
    text = repr(value)
    return text if len(text) <= 40 else f"{text[:40]}... ({len(text)} characters)"


def _parse_rational(value, path):
    if _is_int(value):
        return Fraction(value)
    if not isinstance(value, str):
        raise ScenarioError(path, f"expected a rational string or integer, got {_shown(value)}")
    if not RATIONAL.fullmatch(value):
        expected = "expected [+-]p or [+-]p/q in decimal digits"
        raise ScenarioError(path, f"bad rational {_shown(value)}: {expected}")
    try:
        return Fraction(value)
    except ZeroDivisionError:
        raise ScenarioError(path, f"bad rational {_shown(value)}: zero denominator") from None
    except ValueError:
        # the grammar matched, so an integer is longer than the
        # interpreter's int-to-str digit limit
        raise ScenarioError(path, f"bad rational {_shown(value)}: too many digits") from None


def check_probe_degree(value, path: str) -> int:
    """A probe degree d: the x_j*e_i probes need d >= 1, and the probe
    monomials include x_1^d, so d must be below LIMIT."""
    _require(
        _is_int(value) and value >= 1, path, "expected an integer >= 1 (the x_j*e_i probes are needed)"
    )
    _require(value < LIMIT, path, f"expected an integer below {LIMIT} (x_1^d must fit a monomial key)")
    return value


def _parse_poly(n, value, path) -> Poly:
    if isinstance(value, (int, str)):
        return Poly.const(n, _parse_rational(value, path))
    _require(isinstance(value, list), path, "expected a rational or a list of terms")
    terms = {}
    for k, item in enumerate(value):
        ipath = f"{path}[{k}]"
        _object(item, ipath, {"exp", "coeff"}, "expected a term object")
        _require("exp" in item and "coeff" in item, ipath, "term needs exp and coeff")
        exp = item["exp"]
        _require(
            isinstance(exp, list) and len(exp) == n and all(_is_int(e) and e >= 0 for e in exp),
            f"{ipath}.exp",
            f"expected {n} non-negative integer exponents",
        )
        _require(all(e < LIMIT for e in exp), f"{ipath}.exp", f"exponents must be below {LIMIT}")
        c = _parse_rational(item["coeff"], f"{ipath}.coeff")
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + c
    return Poly(n, terms)


def _parse_row(cols, value, path, entry, noun="entries"):
    """A list of `cols` values, each read by entry(value, path)."""
    _require(isinstance(value, list) and len(value) == cols, path, f"expected {cols} {noun}")
    return [entry(x, f"{path}[{j}]") for j, x in enumerate(value)]


def _parse_matrix(rows, cols, value, path, entry, nouns=("rows", "entries")):
    """A list of `rows` rows of `cols` values each; `nouns` names the
    rows and the values in the messages."""
    row = partial(_parse_row, cols, entry=entry, noun=nouns[1])
    return _parse_row(rows, value, path, row, nouns[0])


def _parse_structure(n, rank, spec, path) -> dict:
    """Structure-function items {i, j, k, coeff} with 1-based frame
    indices, summed per (i, j, k).  A sum that breaks C[i,i] = 0, or
    C[i,j] = -C[j,i] against an earlier (j, i, k), is reported at the
    first item of its (i, j, k), in 1-based indices."""
    _require(isinstance(spec, list), path, "expected a list")
    structure, first = {}, {}
    for k, item in enumerate(spec):
        ipath = f"{path}[{k}]"
        _object(item, ipath, {"i", "j", "k", "coeff"})
        for key in ("i", "j", "k"):
            _require(
                _is_int(item.get(key)) and 1 <= item[key] <= rank,
                f"{ipath}.{key}",
                f"expected a frame index in 1..{rank}",
            )
        _require("coeff" in item, ipath, "missing coeff")
        c = _parse_poly(n, item["coeff"], f"{ipath}.coeff")
        key = (item["i"], item["j"], item["k"])
        first.setdefault(key, ipath)
        prev = structure.get(key)
        structure[key] = c if prev is None else prev + c
    seen = set()
    for (i, j, k), c in structure.items():
        at = first[i, j, k]
        _require(i != j or c.is_zero(), at, f"structure constant C[{i},{i}] must vanish")
        if (j, i, k) in seen:
            clash = f"structure table is not antisymmetric at ({min(i, j)},{max(i, j)},{k})"
            _require((c + structure[j, i, k]).is_zero(), at, clash)
        seen.add((i, j, k))
    return {(i - 1, j - 1, k - 1): c for (i, j, k), c in structure.items()}


class Scenario:
    """A parsed scenario.  `dirac` is the subbundle `dirac_checks`
    checks: a span's generator rows, else the `dirac` graph's H, else
    pi's sharp map; `dirac_graph` is the map `graph_theorem_check`
    checks: the `dirac` graph's H, else pi's sharp map."""

    def __init__(
        self,
        n: int,
        algebroid: HomAlgebroid,
        tasks: list,
        probe_degree: int,
        hierarchy_depth: int,
        pi: Bivector | None,
        endo: EndoMap | None,
        dual_spec: object,
        dirac: EndoMap | list | None,
        dirac_graph: EndoMap | None,
    ):
        self.n = n
        self.algebroid = algebroid
        self.tasks = tasks
        self.probe_degree = probe_degree
        self.hierarchy_depth = hierarchy_depth
        self.pi = pi
        self.endo = endo
        self.dual_spec = dual_spec
        self.dirac = dirac
        self.dirac_graph = dirac_graph
        self.cache = {}


def parse_scenario(data: dict) -> Scenario:
    _object(data, "$", TOP_KEYS, "scenario must be a JSON object")
    for key in ("n", "vars", "phi", "rank", "phiA_matrix", "anchor_matrix", "tasks"):
        _require(key in data, "$", f"missing required key {key!r}")

    n = data["n"]
    _require(_is_int(n) and n >= 1, "$.n", "n must be a positive integer")
    vars_ = data["vars"]
    _require(
        isinstance(vars_, list) and len(vars_) == n and all(isinstance(v, str) for v in vars_),
        "$.vars",
        f"expected {n} variable names",
    )

    poly = partial(_parse_poly, n)
    phi_spec = _object(data["phi"], "$.phi", {"matrix", "offset"})
    _require("matrix" in phi_spec, "$.phi", "missing matrix")
    matrix = _parse_matrix(n, n, phi_spec["matrix"], "$.phi.matrix", _parse_rational)
    offset = [0] * n
    if "offset" in phi_spec:
        offset = _parse_row(n, phi_spec["offset"], "$.phi.offset", _parse_rational)
    try:
        phi = AffineTwist(matrix, offset)
    except ValueError as exc:
        raise ScenarioError("$.phi.matrix", str(exc)) from None

    rank = data["rank"]
    _require(_is_int(rank) and rank >= 1, "$.rank", "rank must be a positive integer")

    phiA_matrix = _parse_matrix(rank, rank, data["phiA_matrix"], "$.phiA_matrix", poly)
    try:
        phiA = SectionTwist(phiA_matrix, phi, "multivector")
    except ExponentOverflow as exc:
        raise ScenarioError("$.phiA_matrix", f"determinant: {exc}") from None
    if not phiA.is_invertible():
        raise ScenarioError(
            "$.phiA_matrix",
            f"determinant {phiA.det.render(vars_)} is not a nonzero rational constant",
        )
    anchor = _parse_matrix(n, rank, data["anchor_matrix"], "$.anchor_matrix", poly)

    structure = _parse_structure(n, rank, data.get("structure", []), "$.structure")
    algebroid = HomAlgebroid(phi, phiA, anchor, structure)

    pi = None
    if "pi" in data:
        spec = data["pi"]
        _require(isinstance(spec, list), "$.pi", "expected a list of bivector terms")
        coeffs = {}
        for k, item in enumerate(spec):
            path = f"$.pi[{k}]"
            _object(item, path, {"i", "j", "coeff"})
            i, j = item.get("i"), item.get("j")
            _require(
                _is_int(i) and _is_int(j) and 1 <= i < j <= rank,
                path,
                f"expected indices with 1 <= i < j <= {rank}",
            )
            _require("coeff" in item, path, "missing coeff")
            c = poly(item["coeff"], f"{path}.coeff")
            key = (i - 1, j - 1)
            coeffs[key] = coeffs.get(key, Poly.zero(n)) + c
        pi = Bivector(MultiVector(rank, n, 2, coeffs))

    endo = None
    if "N" in data:
        endo = EndoMap(_parse_matrix(rank, rank, data["N"], "$.N", poly))

    dual_spec = "trivial"
    if "dual" in data:
        spec = data["dual"]
        what = "expected 'trivial', 'from_pi' or an object"
        if isinstance(spec, str):
            _require(spec in ("trivial", "from_pi"), "$.dual", what)
            if spec == "from_pi":
                _require(pi is not None, "$.dual", "'from_pi' needs a pi key")
            dual_spec = spec
        else:
            _object(spec, "$.dual", {"structure", "anchor"}, what)
            d_struct = _parse_structure(n, rank, spec.get("structure", []), "$.dual.structure")
            zero = [[0] * rank] * n
            d_anchor = _parse_matrix(n, rank, spec.get("anchor", zero), "$.dual.anchor", poly)
            # the dual side carries the dagger of the section twist
            try:
                d_twist = dual_section_twist(phiA)
            except ExponentOverflow as exc:
                raise ScenarioError("$.dual", f"dual twist: {exc}") from None
            dual_spec = HomAlgebroid(phi, d_twist, d_anchor, d_struct)

    dirac = dirac_graph = None if pi is None else pi.sharp
    if "dirac" in data:
        spec = data["dirac"]
        _require(isinstance(spec, dict), "$.dirac", "expected an object")
        kind = spec.get("type")
        _require(kind in ("graph", "span"), "$.dirac.type", "expected 'graph' or 'span'")
        if kind == "graph":
            _object(spec, "$.dirac", {"type", "H"})
            _require("H" in spec, "$.dirac", "graph needs an H matrix")
            dirac = dirac_graph = EndoMap(_parse_matrix(rank, rank, spec["H"], "$.dirac.H", poly))
        else:
            _object(spec, "$.dirac", {"type", "generators"})
            gens = spec.get("generators")
            nouns = ("generators", "coefficients")
            dirac = _parse_matrix(rank, 2 * rank, gens, "$.dirac.generators", poly, nouns)

    probe_degree = check_probe_degree(data.get("probe_degree", 3), "$.probe_degree")
    hierarchy_depth = data.get("hierarchy_depth", 3)
    _require(
        _is_int(hierarchy_depth) and hierarchy_depth >= 0,
        "$.hierarchy_depth",
        "expected a non-negative integer",
    )

    tasks = data["tasks"]
    _require(isinstance(tasks, list) and tasks, "$.tasks", "expected a non-empty list")
    for k, t in enumerate(tasks):
        _require(isinstance(t, str), f"$.tasks[{k}]", "expected a task name")

    return Scenario(
        n=n,
        algebroid=algebroid,
        tasks=list(tasks),
        probe_degree=probe_degree,
        hierarchy_depth=hierarchy_depth,
        pi=pi,
        endo=endo,
        dual_spec=dual_spec,
        dirac=dirac,
        dirac_graph=dirac_graph,
    )


def load_scenario(path: str) -> Scenario:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ScenarioError("$", f"cannot read {path}: {exc}") from None
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer literal longer than the
        # interpreter's digit limit, or arrays or objects nested deeper
        # than the decoder's recursion limit
        raise ScenarioError("$", f"invalid JSON: {exc}") from None
    return parse_scenario(data)
