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
        _require(isinstance(item, dict), ipath, "expected a term object")
        extra = set(item) - {"exp", "coeff"}
        _require(not extra, ipath, f"unknown keys {sorted(extra)}")
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


def _parse_matrix(n_vars, rows, cols, value, path):
    _require(isinstance(value, list) and len(value) == rows, path, f"expected {rows} rows")
    out = []
    for i, row in enumerate(value):
        _require(
            isinstance(row, list) and len(row) == cols,
            f"{path}[{i}]",
            f"expected {cols} entries",
        )
        out.append([_parse_poly(n_vars, x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return out


def _parse_structure(n, rank, spec, path) -> dict:
    """Structure-function items {i, j, k, coeff} with 1-based frame
    indices, summed per (i, j, k).  A sum that breaks C[i,i] = 0, or
    C[i,j] = -C[j,i] against an earlier (j, i, k), is reported at the
    first item of its (i, j, k), in 1-based indices."""
    _require(isinstance(spec, list), path, "expected a list")
    structure, first = {}, {}
    for k, item in enumerate(spec):
        ipath = f"{path}[{k}]"
        _require(isinstance(item, dict), ipath, "expected an object")
        extra = set(item) - {"i", "j", "k", "coeff"}
        _require(not extra, ipath, f"unknown keys {sorted(extra)}")
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
        probe_degree: int = 3,
        hierarchy_depth: int = 3,
        pi: Bivector | None = None,
        endo: EndoMap | None = None,
        dual_spec: object = "trivial",
        dirac: EndoMap | list | None = None,
        dirac_graph: EndoMap | None = None,
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
    _require(isinstance(data, dict), "$", "scenario must be a JSON object")
    extra = set(data) - TOP_KEYS
    _require(not extra, "$", f"unknown keys {sorted(extra)}")
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

    phi_spec = data["phi"]
    _require(isinstance(phi_spec, dict), "$.phi", "expected an object")
    extra = set(phi_spec) - {"matrix", "offset"}
    _require(not extra, "$.phi", f"unknown keys {sorted(extra)}")
    _require("matrix" in phi_spec, "$.phi", "missing matrix")
    mat = phi_spec["matrix"]
    _require(isinstance(mat, list) and len(mat) == n, "$.phi.matrix", f"expected {n} rows")
    matrix = []
    for i, row in enumerate(mat):
        _require(
            isinstance(row, list) and len(row) == n, f"$.phi.matrix[{i}]", f"expected {n} entries"
        )
        matrix.append([_parse_rational(x, f"$.phi.matrix[{i}][{j}]") for j, x in enumerate(row)])
    offset = [0] * n
    if "offset" in phi_spec:
        off = phi_spec["offset"]
        _require(isinstance(off, list) and len(off) == n, "$.phi.offset", f"expected {n} entries")
        offset = [_parse_rational(x, f"$.phi.offset[{i}]") for i, x in enumerate(off)]
    try:
        phi = AffineTwist(matrix, offset)
    except ValueError as exc:
        raise ScenarioError("$.phi.matrix", str(exc)) from None

    rank = data["rank"]
    _require(_is_int(rank) and rank >= 1, "$.rank", "rank must be a positive integer")

    phiA_matrix = _parse_matrix(n, rank, rank, data["phiA_matrix"], "$.phiA_matrix")
    try:
        phiA = SectionTwist(phiA_matrix, phi, "multivector")
    except ExponentOverflow as exc:
        raise ScenarioError("$.phiA_matrix", f"determinant: {exc}") from None
    if not phiA.is_invertible():
        raise ScenarioError(
            "$.phiA_matrix",
            f"determinant {phiA.det.render(vars_)} is not a nonzero rational constant",
        )
    anchor = _parse_matrix(n, n, rank, data["anchor_matrix"], "$.anchor_matrix")

    structure = _parse_structure(n, rank, data.get("structure", []), "$.structure")
    algebroid = HomAlgebroid(phi, phiA, anchor, structure)

    pi = None
    if "pi" in data:
        spec = data["pi"]
        _require(isinstance(spec, list), "$.pi", "expected a list of bivector terms")
        coeffs = {}
        for k, item in enumerate(spec):
            path = f"$.pi[{k}]"
            _require(isinstance(item, dict), path, "expected an object")
            extra = set(item) - {"i", "j", "coeff"}
            _require(not extra, path, f"unknown keys {sorted(extra)}")
            i, j = item.get("i"), item.get("j")
            _require(
                _is_int(i) and _is_int(j) and 1 <= i < j <= rank,
                path,
                f"expected indices with 1 <= i < j <= {rank}",
            )
            _require("coeff" in item, path, "missing coeff")
            c = _parse_poly(n, item["coeff"], f"{path}.coeff")
            key = (i - 1, j - 1)
            coeffs[key] = coeffs.get(key, Poly.zero(n)) + c
        pi = Bivector(MultiVector(rank, n, 2, coeffs))

    endo = None
    if "N" in data:
        endo = EndoMap(_parse_matrix(n, rank, rank, data["N"], "$.N"))

    dual_spec = "trivial"
    if "dual" in data:
        spec = data["dual"]
        if isinstance(spec, str):
            _require(spec in ("trivial", "from_pi"), "$.dual", "expected 'trivial', 'from_pi' or an object")
            if spec == "from_pi":
                _require(pi is not None, "$.dual", "'from_pi' needs a pi key")
            dual_spec = spec
        else:
            _require(isinstance(spec, dict), "$.dual", "expected 'trivial', 'from_pi' or an object")
            extra = set(spec) - {"structure", "anchor"}
            _require(not extra, "$.dual", f"unknown keys {sorted(extra)}")
            d_struct = _parse_structure(n, rank, spec.get("structure", []), "$.dual.structure")
            d_anchor = _parse_matrix(n, n, rank, spec.get("anchor", [[0] * rank] * n), "$.dual.anchor")
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
            extra = set(spec) - {"type", "H"}
            _require(not extra, "$.dirac", f"unknown keys {sorted(extra)}")
            _require("H" in spec, "$.dirac", "graph needs an H matrix")
            dirac = dirac_graph = EndoMap(_parse_matrix(n, rank, rank, spec["H"], "$.dirac.H"))
        else:
            extra = set(spec) - {"type", "generators"}
            _require(not extra, "$.dirac", f"unknown keys {sorted(extra)}")
            gens = spec.get("generators")
            _require(isinstance(gens, list) and len(gens) == rank, "$.dirac.generators", f"expected {rank} generators")
            dirac = []
            for g, row in enumerate(gens):
                path = f"$.dirac.generators[{g}]"
                _require(isinstance(row, list) and len(row) == 2 * rank, path, f"expected {2 * rank} coefficients")
                dirac.append([_parse_poly(n, x, f"{path}[{i}]") for i, x in enumerate(row)])

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
